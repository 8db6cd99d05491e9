"""The serving import boundary: scipy and networkx load on first use.

Serving needs numpy and :mod:`repro`; the paper-analysis stack is for
the analysis statistics (scipy), the Wu-Feng equivalence check and the
Clos baseline's matchings (networkx).  Each of those three places
imports its package inside the function that uses it, so booting the
CLI, the client or the server loads neither.  Each check runs in a
fresh interpreter, since this test process has long since imported
both.
"""

import json
import os
import subprocess
import sys

import repro

#: The directory that holds the ``repro`` package, for the child's path.
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

ANALYSIS_STACK = ("scipy", "networkx")


def _loaded_after(code: str) -> dict:
    """Run *code* in a fresh interpreter; return which of the analysis
    packages it left in ``sys.modules`` (and anything *code* put in
    the ``result`` dict)."""
    script = (
        "import json, sys\n"
        "result = {}\n"
        f"{code}\n"
        f"result['loaded'] = [name for name in {ANALYSIS_STACK!r} "
        "if name in sys.modules]\n"
        "print(json.dumps(result))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_serving_imports_leave_out_the_analysis_stack():
    result = _loaded_after(
        "import repro, repro.cli, repro.client, repro.server\n"
        "import repro.server.protocol, repro.obs\n"
        "repro.cli.build_parser()"
    )
    assert result["loaded"] == []


def test_analysis_functions_load_their_packages_on_first_use():
    result = _loaded_after(
        "from repro.analysis import first_stage_control_bias\n"
        "from repro.baselines import ClosNetwork\n"
        "from repro.permutations import Permutation\n"
        "from repro.topology import baseline_network, omega_network, "
        "topologically_equivalent\n"
        "report = first_stage_control_bias(3, samples=20, seed=1)\n"
        "result['observations'] = report.observations\n"
        "result['equivalent'] = topologically_equivalent("
        "baseline_network(8), omega_network(8))\n"
        "rounds = ClosNetwork(2, 2, 2).middle_assignments("
        "Permutation([3, 2, 1, 0]))\n"
        "result['carried'] = sorted(s for r in rounds for s in r)"
    )
    assert result["observations"] > 0
    assert result["equivalent"] is True
    assert result["carried"] == [0, 1, 2, 3]
    assert result["loaded"] == list(ANALYSIS_STACK)
