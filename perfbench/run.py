"""Benchmark for headorder: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: long-chain, cli-batch, oracle, tree (see workloads.py).  The
package is imported from ``src/`` next to this directory; nothing is
installed.  One client sends the next operation only after the previous one
completes, cycling through the seeded inputs until ``--seconds`` have passed.
Every operation's output is checked for exactness; a failed check or an
exception counts as a failed operation and the run goes on.

--trace 0 reports the end-to-end metrics:
  setup_s          median of 10 set-ups (import headorder afresh, generate
                   and validate the seeded inputs, compute their expected
                   answers), 5 before the timed loop and 5 after it, each
                   divided by the host slowdown around it (see below)
  ops_per_s        operations completed per second of the timed loop
  steps_per_s      idealizer steps per second (exponent steps for long-chain
                   and cli-batch, amalgam steps for tree, certified steps
                   for oracle)
  latency_p50_ms   median time per operation
  latency_tail_ms  time per operation at the workload's tail percentile
                   (printed with the sample count beside it)
                   These four and setup_s are taken at the reference host
                   speed: every PROBE_EVERY seconds the loop times a fixed
                   reference kernel (``probe``, not counted in the loop's
                   time), and each operation's time is divided by the host
                   slowdown around it: the median of the two probes before
                   it and the two after it, over PROBE_REFERENCE_S.  The
                   wall-clock values are printed beside them.  One 2-vCPU
                   host switched between a fast and a 1.5x slower phase
                   every few seconds, and the probe follows those switches.
  success_ratio    1 - fail_ratio = ok operations / attempted operations
  peak_rss_mb      peak resident memory of this process
--trace 1 runs passes over the seeded inputs, alternately untraced and with
spans around every listed library function (tracing.py), and reports
per-layer calls and self time, the tracing overhead (median traced minus
median untraced pass time), and writes the spans to perfbench/out/.  It runs
a fixed number of whole passes, not --seconds, so that its counts repeat
exactly for a seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``correct`` is false when an operation answered wrongly or the
cli-batch stdout digest of the default seed differs from (or is missing in)
baseline.json; operations that raise or exit with an unexpected code count
as failed, and the exception types are printed.  No operation of the timed
cli-batch stream fails today: the malformed classes that the CLI does not
reject with exit 2 yet are sent once per run apart from it, and how many of
them still fail is printed (and is the per-layer cli.malformed_unrejected).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import ERROR, OK, UNREJECTED, WORKLOADS, WRONG  # noqa: E402

LAYERS = ("exponent", "circulant", "amalgam", "brauer", "oracle", "modular", "serialize", "cli")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("steps_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("success_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# timings rescaled to the reference host speed
RESCALED = ("setup_s", "ops_per_s", "steps_per_s", "latency_p50_ms", "latency_tail_ms")
SETUP_REPEATS = 5  # before the timed loop, and as many after it
PROBE_EVERY = 0.2  # seconds of timed loop between two runs of the probe
# Median probe time on the reference host (2-vCPU Xeon, Python 3.11.7, in
# its fast phase): timings are reported at this host speed.
PROBE_REFERENCE_S = 0.002
TRACE_ROUNDS = 3
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BASELINE = HERE / "baseline.json"


class SetupError(Exception):
    pass


def load_package():
    """Import headorder afresh from ROOT/src, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "headorder" or n.startswith("headorder.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("headorder")
        mods = {name: importlib.import_module(f"headorder.{name}") for name in LAYERS}
    except ImportError as exc:
        raise SetupError(f"cannot import headorder from {src}: {exc}") from exc
    if Path(pkg.__file__).resolve().parent.parent != Path(src).resolve():
        raise SetupError(f"headorder was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**mods)


def setup(workload, seed):
    """One set-up: gc, then import headorder afresh and generate the inputs.
    Returns the package, the inputs, the time it took and the host slowdown
    around it (the median of two probes before and two after it over
    PROBE_REFERENCE_S)."""
    gc.collect()  # not the previous set-up's garbage
    probes = [probe(), probe()]
    t0 = perf_counter()
    ho = load_package()
    items = workload.generate(ho, seed)
    elapsed = perf_counter() - t0
    probes += [probe(), probe()]
    host = statistics.median(probes) / PROBE_REFERENCE_S
    if not items:
        raise SetupError("the workload generated no inputs")
    return ho, items, elapsed, host


def rank(n, pct):
    """Nearest rank (1-based) of the pct-th percentile of n samples."""
    return max(1, math.ceil(round(n * pct / 100, 6)))


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[rank(len(sorted_values), pct) - 1]


def tail(latencies, pct):
    """(value, percentile, samples beyond): the workload's percentile if at
    least ten samples lie beyond it, else the highest ladder step that has
    them, else the maximum."""
    values = sorted(latencies)
    n = len(values)
    for q in (pct,) + tuple(x for x in LADDER if x < pct):
        beyond = n - rank(n, q)
        if beyond >= 10:
            return percentile(values, q), q, beyond
    return values[-1], 100.0, 0


class Tally:
    def __init__(self):
        self.latencies = []
        self.steps = 0
        self.status = {OK: 0, WRONG: 0, ERROR: 0}
        self.exceptions = Counter()

    def record(self, workload, ho, item):
        t0 = perf_counter()
        try:
            status, steps = workload.op(ho, item)
        except Exception as exc:  # a failed operation; the run goes on
            status, steps = ERROR, 0
            self.exceptions[type(exc).__name__] += 1
        t1 = perf_counter()
        self.latencies.append(t1 - t0)
        self.status[status] += 1
        if status == OK:
            self.steps += steps
        return t1

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.attempted - self.status[OK]


def probe():
    """Seconds one run of a fixed reference kernel takes: pure-Python work on
    small integer matrices like the program's own (min-plus closure,
    elimination mod a prime), so that it slows down with the host as the
    program does.  It uses nothing from headorder."""
    t0 = perf_counter()
    n, p = 10, 10007
    for rep in range(16):
        M = [[(i * 7 + j * 13 + rep) % 17 for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if M[i][k] + M[k][j] < M[i][j]:
                        M[i][j] = M[i][k] + M[k][j]
        A = [[(i * i + 3 * j + rep + 1) % p for j in range(n)] for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if A[r][c]), None)
            if piv is None:
                continue
            A[c], A[piv] = A[piv], A[c]
            inv = pow(A[c][c], -1, p)
            A[c] = [x * inv % p for x in A[c]]
            for r in range(n):
                if r != c and A[r][c]:
                    f = A[r][c]
                    A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    return perf_counter() - t0


def closed_loop(workload, ho, items, seconds, probes):
    """Operations until seconds have passed, with a probe before the first,
    between two operations every PROBE_EVERY seconds and after the last;
    probe time is not counted.  ``tally.window`` holds, per operation, the
    number of probes taken before it."""
    probes.append(probe())
    tally = Tally()
    tally.window = []
    start = perf_counter()
    deadline = start + seconds
    next_probe = start + PROBE_EVERY
    probing = 0.0
    i = 0
    while True:
        end = tally.record(workload, ho, items[i % len(items)])
        tally.window.append(len(probes))
        i += 1
        if end >= deadline:
            probes.append(probe())
            return tally, end - start - probing
        if end >= next_probe:
            probes.append(probe())
            probing += perf_counter() - end
            next_probe = end + PROBE_EVERY


def host_factors(tally, probes):
    """Per operation of a closed loop: the host slowdown around it, the
    median of the two probes before it and the two after it over
    PROBE_REFERENCE_S."""
    return [
        statistics.median(probes[max(0, j - 2): j + 2]) / PROBE_REFERENCE_S
        for j in tally.window
    ]


def one_pass(workload, ho, items, tracer=None):
    tally = Tally()
    start = perf_counter()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.op_id = k
        tally.record(workload, ho, item)
    return tally, perf_counter() - start, start


def recorded_digest():
    try:
        return json.loads(BASELINE.read_text())["cli_batch"]["stdout_sha256"]
    except (OSError, ValueError, KeyError):
        return None


def digest_check(workload, ho):
    """cli-batch: stdout of the default-seed stream against baseline.json."""
    if workload.name != "cli-batch":
        return True
    stream = workload.generate(ho, workload.default_seed)
    got = workload.stdout_digest(ho, stream)
    want = recorded_digest()
    print(f"stdout sha256 (seed {workload.default_seed}): {got}, recorded: {want}")
    return got == want


def unrejected(workload, ho, seed) -> int:
    """cli-batch: how many of the malformed classes kept out of the timed
    stream are still not rejected with exit 2 (0 for other workloads)."""
    if workload.name != "cli-batch":
        return 0
    found = workload.unrejected(ho, seed)
    print(f"cli-batch: {len(found)} of {len(UNREJECTED)} malformed classes sent apart "
          f"from the timed stream are not rejected with exit 2 (exit codes: {found})")
    return len(found)


def end_to_end(workload, ho, items, seed, seconds, setup_times):
    probes = []
    tally, elapsed = closed_loop(workload, ho, items, seconds, probes)
    unrejected(workload, ho, seed)
    # as many set-ups again after the loop, so that setup_s samples the
    # machine at both ends of the run
    setup_times = setup_times + [setup(workload, seed)[2:] for _ in setup_times]
    setup_s = statistics.median(elapsed / host for elapsed, host in setup_times)
    wall_setup_s = statistics.median(elapsed for elapsed, _ in setup_times)
    # before the lists below, whose size grows with the number of operations
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The host's speed swings by half within seconds, so every operation's
    # time is rescaled to the reference host speed by the probes around it,
    # and the loop's time by the operations' mean factor.
    factors = host_factors(tally, probes)
    scaled = [t / f for t, f in zip(tally.latencies, factors)]
    host = sum(tally.latencies) / sum(scaled)
    wall_lat = sorted(tally.latencies)
    wall_tail = tail(wall_lat, workload.tail_pct)[0]
    lat = sorted(scaled)
    tail_s, tail_pct, beyond = tail(lat, workload.tail_pct)
    wall_clock = {
        "setup_s": wall_setup_s,
        "ops_per_s": tally.attempted / elapsed,
        "steps_per_s": tally.steps / elapsed,
        "latency_p50_ms": 1000 * percentile(wall_lat, 50.0),
        "latency_tail_ms": 1000 * wall_tail,
    }
    values = {
        "setup_s": setup_s,
        "ops_per_s": wall_clock["ops_per_s"] * host,
        "steps_per_s": wall_clock["steps_per_s"] * host,
        "latency_p50_ms": 1000 * percentile(lat, 50.0),
        "latency_tail_ms": 1000 * tail_s,
        "success_ratio": tally.status[OK] / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{workload.name}: {tally.attempted} operations in {elapsed:.3f} s, "
          f"{tally.status[WRONG]} wrong, {tally.status[ERROR]} errors "
          f"(exceptions: {dict(tally.exceptions)}), "
          f"fail_ratio {tally.failed / tally.attempted:.6f}")
    print(f"latency_tail_ms is p{tail_pct:g} of {len(lat)} samples, {beyond} beyond it")
    print(f"host: median probe {1000 * statistics.median(probes):.4f} ms over {len(probes)} "
          f"probes, operations ran at {host:.4f} x the reference; wall-clock values: "
          + json.dumps(wall_clock))
    return tally, {name: (values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(workload, ho, items, seed):
    """Untraced and traced passes in turn after one warm-up pass; layer
    metrics come from the last traced pass (its counts repeat exactly)."""
    one_pass(workload, ho, items)
    untraced, traced = [], []
    for _ in range(TRACE_ROUNDS):
        tally_u, elapsed, _ = one_pass(workload, ho, items)
        untraced.append(elapsed)
        tracer = Tracer(ho)
        with tracer:
            tally, elapsed, t0 = one_pass(workload, ho, items, tracer)
        traced.append(elapsed)
    values = tracer.layer_metrics()
    trees = tally.attempted if workload.name == "tree" else 0
    values["amalgam.chain_runs_per_tree"] = values["amalgam.chain.calls"] / trees if trees else 0
    values["brauer.validations_per_tree"] = (
        values["brauer.validate_tree.calls"] / trees if trees else 0
    )
    for code in (0, 1, 2):
        values[f"cli.exit.{code}"] = tracer.exits.get(code, 0)
    values["cli.malformed_unrejected"] = unrejected(workload, ho, seed)
    values["trace.untraced_s"] = statistics.median(untraced)
    values["trace.traced_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write(path, t0)
    print(f"{workload.name}: traced pass of {tally.attempted} operations, "
          f"{values['trace.spans']} spans written to {path.relative_to(ROOT)}")
    if tally_u.status != tally.status:
        print(f"traced outcomes {tally.status} differ from untraced {tally_u.status}")
    return tally, {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            ho, items, elapsed, host = setup(workload, seed)
            setup_times.append((elapsed, host))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics = per_layer(workload, ho, items, seed)
    else:
        tally, metrics = end_to_end(workload, ho, items, seed, args.seconds, setup_times)
    correct = digest_check(workload, ho) and tally.status[WRONG] == 0
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
