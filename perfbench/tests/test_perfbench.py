"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import GROUPS, PER_LAYER, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ERROR, OK, WORKLOADS, WRONG, CliBatch, all_orders, order_case,
)


@pytest.fixture(scope="module")
def ho():
    return run.load_package()


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(ho, name):
    w = WORKLOADS[name]
    first = w.generate(ho, 5)
    assert first == w.generate(ho, 5)
    assert first != w.generate(ho, 6)


def test_tracing_does_not_change_cli_stdout(ho):
    cli = WORKLOADS["cli-batch"]
    stream = cli.generate(ho, cli.default_seed)[:60]
    plain = cli.stdout_digest(ho, stream)
    real_main = ho.cli.main
    tracer = Tracer(ho)
    with tracer:
        assert ho.cli.main is not real_main
        traced = cli.stdout_digest(ho, stream)
    assert plain == traced
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 60
    assert sum(tracer.exits.values()) == 60


def test_tracer_restores_every_function(ho):
    before = {
        (mod, f): getattr(getattr(ho, mod), f) for mod, fns in GROUPS.values() for f in fns
    }
    with Tracer(ho):
        assert getattr(ho.exponent, "idealizer") is not before[("exponent", "idealizer")]
        assert ho.cli.glued_chain is not before[("exponent", "glued_chain")]
    for (mod, f), fn in before.items():
        assert getattr(getattr(ho, mod), f) is fn
    assert ho.cli.glued_chain is before[("exponent", "glued_chain")]


def test_self_time_excludes_children(ho):
    tracer = Tracer(ho)
    with tracer:
        ho.exponent.glued_chain(ho.exponent.scaled_hereditary((1,) * 6, 9), 9)
    m = tracer.layer_metrics()
    assert m["exponent.chain.calls"] == 1
    # glued_idealizer calls idealizer: one entry into the group per step
    assert m["exponent.idealizer.calls"] == m["exponent.radical.calls"] > 1
    total = max(tracer.end) - min(tracer.start)
    own = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert own == pytest.approx(total, rel=1e-6)


def test_operations_leave_expected_answers_to_set_up(ho):
    cli, tree = WORKLOADS["cli-batch"], WORKLOADS["tree"]
    stream, trees = cli.generate(ho, 2)[:30], tree.generate(ho, 2)[:20]
    tracer = Tracer(ho)
    with tracer:
        run.one_pass(cli, ho, stream)
    assert tracer.layer_metrics()["serialize.dumps.calls"] == 0
    tracer = Tracer(ho)
    with tracer:
        run.one_pass(tree, ho, trees)
    assert tracer.layer_metrics()["amalgam.chain.calls"] == 20


def test_recorded_cli_digest_matches_default_seed(ho):
    cli = WORKLOADS["cli-batch"]
    want = run.recorded_digest()
    assert want is not None
    assert cli.stdout_digest(ho, cli.generate(ho, cli.default_seed)) == want


def test_closed_loop_leaves_probe_time_out(ho):
    w = WORKLOADS["cli-batch"]
    items = w.generate(ho, 1)[:5]
    probes = []
    t0 = perf_counter()
    tally, elapsed = run.closed_loop(w, ho, items, 0.5, probes)
    wall = perf_counter() - t0
    assert len(probes) >= 2 and tally.attempted >= 1
    assert elapsed <= wall - sum(probes)


def test_host_factors_use_the_probes_around_each_operation():
    tally = run.Tally()
    tally.window = [1, 2, 4]  # probes taken before each operation
    probes = [x * run.PROBE_REFERENCE_S for x in (1, 1, 2, 2, 3)]
    assert run.host_factors(tally, probes) == pytest.approx([1, 1.5, 2])


def test_tail_uses_workload_percentile_then_ladder():
    lat = list(range(1, 1001))
    assert run.tail(lat, 99.0) == (990, 99.0, 10)
    assert run.tail(lat, 99.9) == (990, 99.0, 10)
    assert run.tail(list(range(1, 31)), 90.0) == (15, 50.0, 15)
    assert run.tail([1, 2, 3], 90.0) == (3, 100.0, 0)


# --- an injected wrong answer shows up as a failed operation -------------


def _run(w, ho, items):
    tally, _, _ = run.one_pass(w, ho, items)
    return tally


def test_long_chain_counts_a_wrong_head(ho, monkeypatch):
    w = WORKLOADS["long-chain"]
    items = [(5, 12), (6, 13), (4, 8)]
    assert _run(w, ho, items).status == {OK: 3, WRONG: 0, ERROR: 0}
    real = ho.exponent.glued_chain

    def wrong(order, depth, max_steps=None):
        chain = real(order, depth, max_steps)
        return chain + [(order, 0)]  # the start is not the head order

    monkeypatch.setattr(ho.exponent, "glued_chain", wrong)
    tally = _run(w, ho, items)
    assert tally.status[WRONG] == 3 and tally.failed == 3


def test_cli_batch_counts_wrong_exit_and_report(ho, monkeypatch):
    w = WORKLOADS["cli-batch"]
    stream = w.generate(ho, 3)
    good = [r for r in stream if r[2] is not None][:12]
    bad = [r for r in stream if r[2] is None and r[0] != "closed-form"][:3]
    assert _run(w, ho, good).status[OK] == 12
    real = ho.cli.main

    def lying(argv=None):
        code = real(argv)
        print('{"agree": false, "valid": false}')
        return 1 - code if code in (0, 1) else 0

    monkeypatch.setattr(ho.cli, "main", lying)
    tally = _run(w, ho, good + bad)
    assert tally.attempted == 15
    assert tally.status[OK] == 0


def test_oracle_counts_a_wrong_read_back(ho, monkeypatch):
    w = WORKLOADS["oracle"]
    orders = [
        ("order", order_case(ho, o, p))
        for o in list(all_orders(ho.exponent, 2, 1))[:2] for p in (2, 3)
    ]
    assert _run(w, ho, orders).status[OK] == 4
    real = ho.oracle.read_exponents

    def shifted(rows, ambient, noise):
        out = real(rows, ambient, noise)
        out[0][0][1] = (out[0][0][1] or 0) + 1
        return out

    monkeypatch.setattr(ho.oracle, "read_exponents", shifted)
    tally = _run(w, ho, orders)
    assert tally.status[WRONG] == 4


def test_tree_counts_a_wrong_prediction(ho, monkeypatch):
    w = WORKLOADS["tree"]
    trees = w.generate(ho, 1)[:20]
    assert _run(w, ho, trees).status[OK] == 20
    real = ho.brauer.head_order_report

    def mispredicted(tree):
        rep = real(tree)
        for entry in rep["components"]:
            if "predicted_blocks" in entry:
                entry["predicted_blocks"] += 1
        return rep

    monkeypatch.setattr(ho.brauer, "head_order_report", mispredicted)
    assert _run(w, ho, trees).status[WRONG] == 20  # every tree has a plain vertex


def test_cli_stream_has_fixed_malformed_share(ho):
    w = WORKLOADS["cli-batch"]
    stream = w.generate(ho, 9)
    bad = [k for k, r in enumerate(stream) if r[2] is None]
    good = len(CliBatch.COMMANDS) * CliBatch.PER_COMMAND
    assert len(stream) == good + len(bad)
    assert len(bad) == good // 9
    assert bad == list(range(9, len(stream), 10))


def test_no_timed_cli_request_fails(ho):
    w = WORKLOADS["cli-batch"]
    tally = _run(w, ho, w.generate(ho, w.default_seed))
    assert tally.failed == 0, tally.exceptions


def test_unrejected_counts_classes_not_exiting_2(ho, monkeypatch):
    w = WORKLOADS["cli-batch"]

    def rejecting(argv=None):
        print('{"error": "malformed"}', file=sys.stderr)
        return 2

    def raising(argv=None):
        raise ValueError("malformed")

    monkeypatch.setattr(ho.cli, "main", rejecting)
    assert w.unrejected(ho, 1) == {}
    monkeypatch.setattr(ho.cli, "main", raising)
    assert w.unrejected(ho, 1) == {
        "tree_p_string": 1, "depth_string": 1, "dims_mismatch": 1,
    }
