"""One end-to-end story exercising the whole library together.

A 16-port fabric is built, carries traffic, gets a fault injected,
detects and recovers from it, has its hardware generated, optimized,
exported to Verilog and re-imported — with every step's output feeding
the next.  If any two subsystems disagree about the world, this test
is where it shows.
"""

import numpy as np

from repro.analysis.complexity import bnb_delay, bnb_switch_slices
from repro.analysis.delay import bnb_measured_delay
from repro.core import BNBNetwork, MultipassRouter, Word
from repro.faults import (
    SwitchCoordinate,
    detect_and_reroute,
    extract_controls,
    fault_mask_for,
    inject_stuck_control,
    misrouted_outputs,
    replay_controls,
)
from repro.hardware import (
    build_bnb_netlist,
    emit_verilog,
    optimize,
    parse_verilog,
    sanitize_identifier,
)
from repro.permutations import PermutationSampler
from repro.sim import GateLevelSimulator


def test_the_whole_story():
    m = 4
    n = 1 << m
    network = BNBNetwork(m, w=8)
    sampler = PermutationSampler(n, seed=2026)

    # --- Chapter 1: the paper's accounting holds for this instance.
    assert network.switch_count == bnb_switch_slices(n, 8)
    assert network.propagation_delay() == bnb_measured_delay(m) == bnb_delay(n)

    # --- Chapter 2: traffic flows; records match reality.
    pi = sampler.draw()
    words = [Word(address=pi(j), payload=f"pkt{j}") for j in range(n)]
    outputs, record = network.route(words, record=True)
    assert record is not None
    assert misrouted_outputs(outputs) == []
    fast = network.route_fast(np.array(pi.to_list()))
    assert fast.tolist() == [w.address for w in outputs]

    # --- Chapter 3: a stuck switch, caught and repaired.
    table = extract_controls(record)
    coordinate = SwitchCoordinate(m - 1, 0, 0, 0, 0)  # final stage: no masking
    healthy = table[(m - 1, 0, 0, 0)][0]
    faulty = replay_controls(
        m, words, inject_stuck_control(table, coordinate, 1 - healthy)
    )
    assert len(misrouted_outputs(faulty)) == 2
    outcome = detect_and_reroute(
        m, pi.to_list(), fault_mask_for(m, [(coordinate, 1 - healthy)])
    )
    if outcome.recovered:
        assert all(
            word is not None and word.address == line
            for line, word in enumerate(outcome.outputs)
        )

    # --- Chapter 4: contended traffic in minimal rounds.
    router = MultipassRouter(network)
    requests = [(pi(j) % 4, f"hot{j}") if j < 8 else None for j in range(n)]
    result = router.route(requests)
    assert result.rounds == result.max_multiplicity
    delivered = [
        payload
        for output in range(n)
        for payload in result.all_payloads_at(output)
    ]
    assert sorted(delivered) == sorted(req[1] for req in requests if req)

    # --- Chapter 5: the same machine, as gates, as RTL, optimized.
    netlist, ports = build_bnb_netlist(m)
    assignment = ports.input_assignment(pi.to_list())
    assert ports.decode_outputs(netlist.evaluate(assignment)) == list(range(n))
    optimized, report = optimize(netlist)
    assert report.gates_after < report.gates_before
    assert ports.decode_outputs(
        {k: v for k, v in optimized.evaluate(assignment).items()}
    ) == list(range(n))
    reparsed = parse_verilog(emit_verilog(optimized))
    sanitized = {sanitize_identifier(k): v for k, v in assignment.items()}
    rtl_outputs = reparsed.evaluate(sanitized)
    decoded = [
        sum(
            rtl_outputs[sanitize_identifier(ports.address_outputs[j][b])]
            << (m - 1 - b)
            for b in range(m)
        )
        for j in range(n)
    ]
    assert decoded == list(range(n))

    # --- Epilogue: the event-driven simulator agrees and settles.
    simulator = GateLevelSimulator(optimized)
    result = simulator.run(assignment)
    assert result.settle_time > 0
    decoded_des = [
        sum(
            result.outputs[ports.address_outputs[j][b]] << (m - 1 - b)
            for b in range(m)
        )
        for j in range(n)
    ]
    assert decoded_des == list(range(n))
