"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--workloads A,B] [--seeds 10] [--sets 1]

Run from the root of a checkout.  Runs the benchmark once per workload and
seed (seeds 1..N), ``--sets`` times over, one run at a time, each for
BENCHMARK.json's ``run_seconds``.  For every end-to-end metric it prints
the median, the quartiles and the spread, the distance between the
quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json; the raw (uncalibrated) figure's spread is shown beside the
calibrated one, and the kernel's own raw median beside ``kernel.NOMINAL_S``.
With two sets it also prints how far the second set's median moved from the
first's, in the direction that counts as worse.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402


def raw_figures(full: dict) -> dict:
    """Uncalibrated counterparts of the calibrated end-to-end metrics."""
    out = {
        "setup_s": statistics.median(full["raw_setup_s"]),
        "queries_per_s": full["raw_queries_per_s"],
    }
    for command, stats in full["commands"].items():
        out[f"{command}_p50_s"] = stats["raw_p50"]
    return out


def calibrated_commands(full: dict) -> dict:
    out = {}
    for command, stats in full["commands"].items():
        out[f"{command}_p50_s"] = stats["p50"]
        if "p90" in stats:
            out[f"{command}_p90_s"] = stats["p90"]
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    full = json.loads(next(l for l in lines if l.startswith("full results: "))[len("full results: "):])
    return {
        "failed": result["failed"],
        "gated": {name: m["value"] for name, m in result["metrics"].items()},
        "commands": calibrated_commands(full),
        "raw": raw_figures(full),
        "kernel_s": full["kernel_raw_s"]["p50"],
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(workload: str, runs: list[dict], specs: dict) -> None:
    print(f"\n{workload}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed queries")
    print(f"  {'metric':20s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} "
          f"{'raw':>8s} {'bound':>6s}")
    names = list(runs[0]["gated"]) + sorted(set(runs[0]["commands"]) - set(runs[0]["gated"]))
    for name in names:
        source = "gated" if name in runs[0]["gated"] else "commands"
        values = [r[source][name] for r in runs if name in r[source]]
        if len(values) < 2:
            continue
        median, q1, q3, share = spread(values)
        raw = [r["raw"][name] for r in runs if name in r["raw"]]
        raw_share = f"{spread(raw)[3]:8.3f}" if len(raw) == len(values) else f"{'-':>8s}"
        bound = f"{specs[name]['bound']:6.2f}" if name in specs else "     -"
        print(f"  {name:20s} {median:11.5g} {q1:11.5g} {q3:11.5g} {share:8.3f} {raw_share} {bound}")
    kernels = [r["kernel_s"] for r in runs]
    print(f"  kernel raw p50 per run: median {statistics.median(kernels):.5f} s, "
          f"range {min(kernels):.5f}-{max(kernels):.5f} s (NOMINAL_S {kernel.NOMINAL_S} s)")


def drift(workload: str, first: list[dict], second: list[dict], specs: dict) -> None:
    print(f"  second set vs first, {workload} (positive = worse):")
    for name, spec in specs.items():
        a = statistics.median(r["gated"][name] for r in first)
        b = statistics.median(r["gated"][name] for r in second)
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        print(f"    {name:20s} {worse:+8.3f}  bound {spec['bound']:.2f}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in range(1, args.seeds + 1):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} seed {seed}: {runs[-1]['gated']}", flush=True)
            sets.append(runs)
        for runs in sets:
            report(workload, runs, specs)
        if args.sets == 2:
            drift(workload, sets[0], sets[1], specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
