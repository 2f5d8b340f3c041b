"""Run the benchmark over several seeds and record the baseline.

    python3 perfbench/record.py [--write]

Every workload runs once per seed 1..10, each run ``run.py`` in its own
process, one at a time, for the ``run_seconds`` of BENCHMARK.json.  For
every end-to-end metric the medians and the spread (distance between the
first and third quartile as a share of the median) across the seeds are
printed.  With ``--write``, perfbench/baseline.json is rewritten whole from
this one invocation: machine info, the ``src/`` line count, the default seed
and tail percentile of each workload, the medians and spreads, the
wall-clock medians and host factors behind the rescaled timings, one traced
run per workload at its default seed, and the cli-batch stdout digest of the
default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))
TAIL_LINE = re.compile(r"latency_tail_ms is p([\d.]+) of (\d+) samples, (\d+) beyond")
HOST_LINE = re.compile(r"^host: .* ([\d.]+) x the reference; wall-clock values: (.*)$")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    match = next((m for m in map(TAIL_LINE.search, lines) if m), None)
    if match:
        result["tail"] = {"pct": float(match[1]), "samples": int(match[2]),
                          "beyond": int(match[3])}
    match = next((m for m in map(HOST_LINE.search, lines) if m), None)
    if match:
        result["host"] = float(match[1])
        result["wall_clock"] = json.loads(match[2])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def machine():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version()}


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.write:
        # the digest first, so that the cli-batch runs below are checked
        ho = run.load_package()
        cli = WORKLOADS["cli-batch"]
        baseline = {
            "machine": machine(),
            "src_lines": src_lines(),
            "run_seconds": seconds,
            "seeds": SEEDS,
            "cli_batch": {
                "default_seed": cli.default_seed,
                "stdout_sha256": cli.stdout_digest(ho, cli.generate(ho, cli.default_seed)),
            },
        }
        write(baseline)
    report = {}
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            res = bench(name, seed, seconds, 0)
            runs.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} tail={res.get('tail')} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        e2e = {}
        for metric, unit, _ in run.END_TO_END:
            med, q1, q3, sp = spread([r["metrics"][metric]["value"] for r in runs])
            e2e[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": sp}
            print(f"  {name} {metric}: median {med:.6g} {unit}, spread {sp:.4f}", flush=True)
        w = WORKLOADS[name]
        report[name] = {
            "why": w.why,
            "default_seed": w.default_seed,
            "tail_pct": w.tail_pct,
            "tail_samples": [r.get("tail", {}).get("samples") for r in runs],
            "fail_ratio": statistics.median(r["failed"] / r["attempted"] for r in runs),
            "end_to_end": e2e,
            "host_factor": [r["host"] for r in runs],
            "wall_clock_median": {
                k: statistics.median(r["wall_clock"][k] for r in runs) for k in run.RESCALED
            },
        }
        if args.write:
            traced = bench(name, w.default_seed, seconds, 1)
            report[name]["per_layer_default_seed"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
    if args.write:
        baseline["workloads"] = report
        write(baseline)


def write(baseline):
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.BASELINE.relative_to(ROOT)}", flush=True)


if __name__ == "__main__":
    main()
