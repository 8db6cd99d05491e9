"""The binary wire framing: round trips, hostile input, parity.

Four layers of confidence:

* **Hypothesis round trips** — any op body of JSON-able metadata plus
  int64 arrays survives ``encode_frame`` → ``unpack_header`` →
  ``decode_body`` byte-for-byte.
* **Encode identity** — the one-join encoder writes exactly the bytes
  of the three-copy encoder it replaced, kept here as the reference.
* **Hostile bytes** — truncated headers, oversize length fields,
  ragged payloads and garbage magic all land on the stable
  ``bad-request``/close behaviour, never a hang or a crash.
* **Differential framing parity** — the same ops through the JSON and
  the binary framing produce identical response objects (arrays
  compared as lists), pinning the two-transports-one-registry design.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client import GatewayClient
from repro.exceptions import WireFormatError
from repro.server import AsyncGateway, GatewayConfig, GatewayServer
from repro.server.framing import (
    HEADER,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_body,
    encode_frame,
    jsonable,
    unpack_header,
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

meta_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)

arrays = st.one_of(
    st.lists(st.integers(-(2**62), 2**62 - 1), max_size=32).map(
        lambda items: np.asarray(items, dtype=np.int64)
    ),
    st.tuples(
        st.integers(0, 5), st.integers(1, 5)
    ).map(lambda shape: np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape)),
)

bodies = st.dictionaries(
    # "_arrays" is the manifest's reserved key; real op fields never
    # use it, and a collision would (rightly) confuse the decoder.
    st.text(max_size=12).filter(lambda key: key != "_arrays"),
    st.one_of(meta_values, arrays),
    max_size=6,
)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        body=bodies,
        opcode=st.integers(0, 0xFFFF),
        request_id=st.integers(0, 0xFFFFFFFF),
    )
    def test_encode_decode_round_trip(self, body, opcode, request_id):
        frame = encode_frame(opcode, body, request_id=request_id)
        header = unpack_header(frame[: HEADER.size])
        assert header.opcode == opcode
        assert header.request_id == request_id
        assert (header.major, header.minor) == PROTOCOL_VERSION
        decoded = decode_body(header, frame[HEADER.size :])
        assert set(decoded) == set(body)
        for key, value in body.items():
            if isinstance(value, np.ndarray):
                assert decoded[key].shape == value.shape
                assert np.array_equal(decoded[key], value)
            else:
                assert decoded[key] == value or (
                    # JSON round-trips floats exactly; hypothesis floats
                    # at width=32 stay representable, so == is right —
                    # this branch only tolerates -0.0 vs 0.0.
                    decoded[key] == 0 and value == 0
                )

    def test_zero_copy_decode(self):
        """Decoded arrays are views over the received buffer."""
        payload = np.arange(1024, dtype=np.int64)
        frame = encode_frame(6, {"dests": payload})
        header = unpack_header(frame[: HEADER.size])
        decoded = decode_body(header, frame[HEADER.size :])
        assert decoded["dests"].base is not None
        assert np.array_equal(decoded["dests"], payload)


def _three_copy_encode(opcode, body, request_id=0, version=PROTOCOL_VERSION):
    """The reference: 2.8.0's encoder, which copied each array with
    ``tobytes``, joined the copies, then concatenated header, meta and
    payload."""
    meta, manifest, chunks = {}, {}, []
    for key, value in body.items():
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value, dtype=np.dtype("<i8"))
            manifest[key] = list(array.shape)
            chunks.append(array.tobytes())
        else:
            meta[key] = value
    if manifest:
        meta["_arrays"] = manifest
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    payload = b"".join(chunks)
    if len(meta_bytes) + len(payload) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame body of {len(meta_bytes) + len(payload)} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte cap"
        )
    header = HEADER.pack(
        MAGIC,
        version[0],
        version[1],
        opcode,
        request_id & 0xFFFFFFFF,
        len(meta_bytes),
        len(payload),
    )
    return header + meta_bytes + payload


class TestEncodeIdentity:
    """The one-join encoder writes the reference's bytes exactly."""

    @staticmethod
    def _same(body, **kwargs):
        frame = encode_frame(6, body, **kwargs)
        assert type(frame) is bytes
        assert frame == _three_copy_encode(6, body, **kwargs)
        return frame

    @settings(max_examples=120, deadline=None)
    @given(body=bodies, request_id=st.integers(0, 2**33))
    def test_hypothesis_bodies(self, body, request_id):
        self._same(body, request_id=request_id)

    @pytest.mark.parametrize(
        "shape", [(0,), (0, 1), (1, 0), (2, 3, 4), (3, 1, 2), (1,)]
    )
    def test_empty_and_multidimensional_shapes(self, shape):
        size = int(np.prod(shape))
        array = np.arange(size, dtype=np.int64).reshape(shape)
        frame = self._same({"ok": True, "dests": array, "words": array + 7})
        header = unpack_header(frame[: HEADER.size])
        assert header.payload_len == 2 * 8 * size

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.int32),
            np.arange(12, dtype=np.uint16).reshape(3, 4),
            np.array([True, False, True]),
            np.arange(-6, 6, dtype=">i8"),
            np.arange(40, dtype=np.int64).reshape(5, 8)[:, ::3],
            np.arange(24, dtype=np.int64).reshape(4, 6).T,
            np.asfortranarray(np.arange(24, dtype=np.int64).reshape(2, 3, 4)),
            np.arange(10, dtype=np.int64)[::-1],
        ],
        ids=[
            "int32",
            "uint16-2d",
            "bool",
            "big-endian",
            "strided",
            "transposed",
            "fortran-3d",
            "reversed",
        ],
    )
    def test_converted_inputs(self, array):
        frame = self._same({"dests": array, "echo": [1, 2]})
        header = unpack_header(frame[: HEADER.size])
        decoded = decode_body(header, frame[HEADER.size :])
        assert np.array_equal(decoded["dests"], array.astype(np.int64))

    def test_frame_cap_refused_at_the_same_size(self):
        words = (MAX_FRAME_BYTES >> 3) - 8
        dests = np.zeros(words, dtype=np.int64)

        def body(pad: int) -> dict:
            return {"pad": "x" * pad, "dests": dests}

        unpadded = len(
            json.dumps(
                {"pad": "", "_arrays": {"dests": [words]}},
                separators=(",", ":"),
            )
        )
        at_cap = MAX_FRAME_BYTES - 8 * words - unpadded
        frame = self._same(body(at_cap))
        assert len(frame) == HEADER.size + MAX_FRAME_BYTES
        messages = []
        for encode in (encode_frame, _three_copy_encode):
            with pytest.raises(WireFormatError, match="cap") as refused:
                encode(6, body(at_cap + 1))
            messages.append(str(refused.value))
        assert messages[0] == messages[1]


class TestHostileBytes:
    def test_short_header_rejected(self):
        with pytest.raises(WireFormatError):
            unpack_header(MAGIC + b"\x02")

    @settings(max_examples=60, deadline=None)
    @given(garbage=st.binary(min_size=HEADER.size, max_size=HEADER.size))
    def test_garbage_magic_rejected(self, garbage):
        if garbage[:4] == MAGIC:
            garbage = b"XXXX" + garbage[4:]
        with pytest.raises(WireFormatError):
            unpack_header(garbage)

    def test_oversize_length_rejected_before_allocation(self):
        raw = HEADER.pack(MAGIC, 2, 0, 1, 0, MAX_FRAME_BYTES, 8)
        with pytest.raises(WireFormatError, match="cap"):
            unpack_header(raw)

    def test_ragged_payload_rejected(self):
        raw = HEADER.pack(MAGIC, 2, 0, 1, 0, 0, 7)
        with pytest.raises(WireFormatError, match="int64"):
            unpack_header(raw)

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(0, 40))
    def test_truncated_body_rejected(self, cut):
        frame = encode_frame(6, {"dests": np.arange(8, dtype=np.int64)})
        header = unpack_header(frame[: HEADER.size])
        body = frame[HEADER.size :]
        if cut == 0:
            return  # whole body: valid by construction
        with pytest.raises(WireFormatError):
            decode_body(header, body[:-cut])

    def test_manifest_overrun_rejected(self):
        # Manifest promises more array than the payload carries.
        meta = json.dumps({"_arrays": {"dests": [64]}}).encode()
        payload = np.arange(8, dtype="<i8").tobytes()
        raw = HEADER.pack(MAGIC, 2, 0, 6, 0, len(meta), len(payload))
        header = unpack_header(raw)
        with pytest.raises(WireFormatError, match="overrun"):
            decode_body(header, meta + payload)

    def test_leftover_payload_rejected(self):
        meta = json.dumps({"_arrays": {"dests": [4]}}).encode()
        payload = np.arange(8, dtype="<i8").tobytes()
        raw = HEADER.pack(MAGIC, 2, 0, 6, 0, len(meta), len(payload))
        header = unpack_header(raw)
        with pytest.raises(WireFormatError, match="left over"):
            decode_body(header, meta + payload)


class TestHostileSocket:
    """Hostile bytes against a live server: stable slugs, no hangs."""

    pytestmark = pytest.mark.asyncio_suite

    async def _start(self):
        gateway = await AsyncGateway(
            GatewayConfig(m=3, planes=1, queue_capacity=8)
        ).start()
        server = await GatewayServer(gateway).start()
        return gateway, server

    def test_garbage_magic_falls_back_to_bad_request(self, run_async):
        async def scenario():
            gateway, server = await self._start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # First byte is not the magic's first byte and not '{':
                # the sniffer routes it to the JSON path, which answers
                # a clean bad-request instead of hanging.
                writer.write(b"Xtotal garbage\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.stop()
                await gateway.stop()

        response = run_async(scenario())
        assert response["ok"] is False
        assert response["error"] == "bad-request"

    def test_magic_prefix_then_garbage_header_closes_with_error(
        self, run_async
    ):
        async def scenario():
            gateway, server = await self._start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A valid magic then an oversize length field: one
                # binary error frame, then the server hangs up (after a
                # desync there is no trustworthy frame boundary).
                writer.write(
                    HEADER.pack(MAGIC, 2, 0, 1, 7, MAX_FRAME_BYTES, 8)
                )
                await writer.drain()
                raw = await reader.readexactly(HEADER.size)
                header = unpack_header(raw)
                body = await reader.readexactly(header.body_len)
                response = decode_body(header, body)
                trailing = await reader.read()
                writer.close()
                await writer.wait_closed()
                return header, response, trailing
            finally:
                await server.stop()
                await gateway.stop()

        header, response, trailing = run_async(scenario())
        assert header.opcode == 0  # the error opcode
        assert response["ok"] is False
        assert response["error"] == "bad-request"
        assert trailing == b""  # connection closed after the error frame

    def test_unknown_opcode_bad_request(self, run_async):
        async def scenario():
            gateway, server = await self._start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame(999, {}, request_id=3))
                await writer.drain()
                raw = await reader.readexactly(HEADER.size)
                header = unpack_header(raw)
                response = decode_body(
                    header, await reader.readexactly(header.body_len)
                )
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.stop()
                await gateway.stop()

        response = run_async(scenario())
        assert response["ok"] is False
        assert response["error"] == "bad-request"
        assert "opcode" in response["detail"]
        assert response["id"] == 3

    def test_newer_major_version_refused(self, run_async):
        async def scenario():
            gateway, server = await self._start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode_frame(1, {}, request_id=9, version=(9, 0))
                )
                await writer.drain()
                raw = await reader.readexactly(HEADER.size)
                header = unpack_header(raw)
                response = decode_body(
                    header, await reader.readexactly(header.body_len)
                )
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.stop()
                await gateway.stop()

        response = run_async(scenario())
        assert response["ok"] is False
        assert response["error"] == "unsupported-version"
        assert response["protocol_version"] == list(PROTOCOL_VERSION)


class TestFramingParity:
    """JSON and binary are interchangeable transports for every op."""

    pytestmark = pytest.mark.asyncio_suite

    def test_differential_op_results(self, run_async):
        async def one_framing(port, binary):
            async with GatewayClient(
                "127.0.0.1", port, binary=binary
            ) as client:
                results = {}
                results["hello"] = await client.hello()
                results["ping"] = await client.ping()
                send = await client.send(3, payload="w", server_retry=True)
                # Latency and frame tag depend on arrival cycle, not
                # on the framing; drop the timing fields.
                results["send"] = {
                    key: send[key] for key in ("ok", "op", "dest", "mode")
                }
                batch = await client.send_batch(
                    np.arange(8, dtype=np.int64), retry=4
                )
                results["send_batch"] = {
                    "ok": batch["ok"],
                    "count": batch["count"],
                    "delivered": batch["delivered"],
                    "rejected": batch["rejected"],
                    "statuses": batch["statuses"].tolist(),
                    "mode_table": batch["mode_table"],
                }
                try:
                    await client.request("send", dest="nope")
                except Exception as error:  # GatewayRequestError
                    results["bad_send"] = {
                        "slug": error.slug,
                        "ok": error.response["ok"],
                    }
                try:
                    await client.metrics()
                except Exception as error:
                    results["metrics"] = {"slug": error.slug}
                return jsonable(results)

        async def scenario():
            gateway = await AsyncGateway(
                GatewayConfig(m=3, planes=1, queue_capacity=8)
            ).start()
            server = await GatewayServer(gateway).start()
            try:
                via_json = await one_framing(server.port, binary=False)
                via_binary = await one_framing(server.port, binary=True)
            finally:
                await server.stop()
                await gateway.stop()
            return via_json, via_binary

        via_json, via_binary = run_async(scenario())
        # ids differ per connection; everything else must match exactly.
        for results in (via_json, via_binary):
            for value in results.values():
                if isinstance(value, dict):
                    value.pop("id", None)
        assert via_json == via_binary
