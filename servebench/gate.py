"""The correctness gate: every answer the server gives is checked.

A word the server *rejected* (status 0 with its retry-after hint) is a
failed operation; a word that vanished, a response that contradicts
itself, or a delivery to the wrong output is a wrong answer and fails
the run.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

__all__ = ["GateError", "check_batch", "check_final_stats", "check_unicast"]


class GateError(AssertionError):
    """The served program answered wrongly."""


def check_batch(response: Dict[str, Any], count: int) -> int:
    """Check one ``send_batch`` response for *count* words.

    Returns how many words were rejected (failed operations).  Raises
    :class:`GateError` when the response loses or misreports a word.
    """
    statuses = np.asarray(response.get("statuses", ()), dtype=np.int64)
    if response.get("count") != count or statuses.shape != (count,):
        raise GateError(
            f"send_batch of {count} words answered for "
            f"{response.get('count')} with {statuses.size} statuses"
        )
    if not np.isin(statuses, (0, 1)).all():
        raise GateError("send_batch statuses outside {0, 1}")
    delivered = int(statuses.sum())
    if response.get("delivered") != delivered or response.get("rejected") != count - delivered:
        raise GateError(
            f"send_batch reports {response.get('delivered')} delivered / "
            f"{response.get('rejected')} rejected, statuses say {delivered}"
        )
    ok = statuses == 1
    for field in ("latencies", "frames", "planes"):
        values = np.asarray(response.get(field, ()), dtype=np.int64)
        if values.shape != (count,) or (values[ok] < 0).any():
            raise GateError(f"send_batch delivered a word without its {field[:-1]}")
    hints = np.asarray(response.get("retry_after", ()), dtype=np.int64)
    if hints.shape != (count,) or (hints[~ok] < 1).any():
        raise GateError("send_batch dropped a word: status 0 without a retry-after hint")
    return count - delivered


def check_unicast(response: Dict[str, Any], dest: int) -> None:
    """A ``send`` must land on the output it named."""
    if response.get("dest") != dest:
        raise GateError(f"send to output {dest} delivered to {response.get('dest')}")


def check_final_stats(stats: Dict[str, Any], delivered_words: int) -> None:
    """The server's own counters must agree with what the client saw."""
    if stats["delivered_words"] != delivered_words:
        raise GateError(
            f"server delivered {stats['delivered_words']} words, "
            f"client saw {delivered_words}"
        )
    sick = [plane["id"] for plane in stats["planes"] if not plane["healthy"]]
    if sick:
        raise GateError(f"planes {sick} were killed (misdelivery or crash)")
    queues = stats["queues"]
    if queues["requeued"]:
        raise GateError(f"{queues['requeued']} words were requeued")
    if queues["queued"]:
        raise GateError(f"{queues['queued']} words still queued after the run")
