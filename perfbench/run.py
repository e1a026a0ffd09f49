"""Benchmark of the tracemet command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client in one process
drives a seeded workload through ``tracemet.cli.main([..., "--json"])``:
it sends the next query only after the previous answer, so there is no
queue and no waiting time.  Every answer is checked.  The first round is
untimed: its answers are recorded as the expected ones only after the
workload's independent checks pass, and every later round is compared with
them on the fields that carry the answer.

Times are calibrated: each query is timed against the calibration kernel
(``kernel.py``) run before and after it and, every 0.2 s, inside it, and
reported in seconds at the kernel's nominal speed.  Raw wall seconds are
printed beside them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (see ``tracer.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import workloads  # noqa: E402

# A calibration point, the median of KERNEL_RUNS kernel runs, is taken
# before a query when KERNEL_GAP_S have passed since the last one, and after
# every round; the median drops a run that a burst on the host slowed.
KERNEL_GAP_S = 0.2
KERNEL_RUNS = 9
# Inside a query an interval timer runs the kernel this often: the CPU speed
# changes within a multi-second query, so the points around it alone
# misjudge it.
SAMPLE_PERIOD_S = 0.2
SETUP_REPEATS = 15
# p90 is reported only where at least this many samples lie above it.
TAIL_SAMPLES = 10

SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracemet, workloads
for text in workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).files.values():
    tracemet.parse_pts(text)
"""


class Sample(NamedTuple):
    command: str
    raw_s: float  # wall seconds minus the kernel runs inside the query
    point: int  # index of the last calibration point before the query
    inside: tuple  # kernel seconds of the runs inside the query
    ok: bool


class Round(NamedTuple):
    samples: list
    answers: list  # kept for the recording round only
    json_bytes: int


class Timeline:
    """Calibration points (kernel seconds) taken between queries, in order,
    and kernel runs sampled inside queries when ``sampling`` is on."""

    def __init__(self, sampling: bool) -> None:
        self.points: list[float] = []
        self._last = float("-inf")
        self._sampling = sampling
        self._inside: list[float] = []
        self._stolen = 0.0
        self._start = 0.0
        if sampling:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._inside.append(kernel.timed())
        self._stolen += time.perf_counter() - start

    def start(self) -> None:
        self._inside, self._stolen = [], 0.0
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, tuple]:
        """Seconds since ``start`` without the sampled kernel runs, and
        those runs' kernel seconds."""
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        return elapsed - self._stolen, tuple(self._inside)

    def point(self) -> None:
        self.points.append(statistics.median(kernel.timed() for _ in range(KERNEL_RUNS)))
        self._last = time.perf_counter()

    def maybe_point(self) -> None:
        if time.perf_counter() - self._last >= KERNEL_GAP_S:
            self.point()

    def calibrated(self, sample: Sample) -> float:
        """Raw seconds times nominal per measured kernel seconds, measured
        by the points before and after the query and the runs inside it."""
        index = sample.point
        after = self.points[index + 1] if index + 1 < len(self.points) else self.points[index]
        speed = statistics.fmean((self.points[index], after, *sample.inside))
        return sample.raw_s * kernel.NOMINAL_S / speed


def extract(command: str, code, stdout: str) -> dict:
    """The exit code and the answer-carrying fields of one output."""
    answer = {"exit": code}
    if code is None:
        return answer
    try:
        doc = json.loads(stdout)
    except ValueError:
        return answer
    if isinstance(doc, dict):
        for name in workloads.ANSWER_FIELDS[command]:
            if name in doc:
                answer[name] = doc[name]
    return answer


class Client:
    def __init__(self, workload: workloads.Workload, workdir: Path, timeline: Timeline):
        import tracemet.cli

        self.cli = tracemet.cli
        self.timeline = timeline
        self.queries = [
            (q.command, [q.argv[0], str(workdir / q.argv[1]), *q.argv[2:], "--json"])
            for q in workload.round
        ]
        self.errors: list[str] = []

    def call(self, argv: list[str]) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.timeline.start()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed query, not a failed run
                code = None
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self.errors.append(
                    f"{' '.join(argv[:1] + argv[2:])}: {exc!r} at {where.filename}:{where.lineno}"
                )
            elapsed, inside = self.timeline.stop()
        return code, out.getvalue(), elapsed, inside

    def round(self, expected: list | None) -> Round:
        samples, answers, size = [], [], 0
        for index, (command, argv) in enumerate(self.queries):
            self.timeline.maybe_point()
            code, stdout, elapsed, inside = self.call(argv)
            answer = extract(command, code, stdout)
            ok = expected is not None and answer == expected[index]
            point = len(self.timeline.points) - 1
            samples.append(Sample(command, elapsed, point, inside, ok))
            if expected is None:
                answers.append(answer)
            size += len(stdout.encode())
        self.timeline.point()
        return Round(samples, answers, size)


def measure_setup(name: str, seed: int, timeline: Timeline) -> tuple[list, float]:
    """Raw seconds of fresh interpreters importing tracemet and generating
    and parsing the workload's inputs, and the nominal-per-raw scale: the
    median of the calibration points taken around the spawns.  Single
    spawns vary too much for a point-by-point scale.  The first spawn is
    untimed so bytecode is cached.

    No timeout: with one, ``subprocess`` polls the child with sleeps of up
    to 50 ms, which would quantize the measured time."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), name, str(seed)]
    subprocess.run(cmd, check=True)
    raw, first = [], len(timeline.points)
    for _ in range(SETUP_REPEATS):
        timeline.point()
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        raw.append(time.perf_counter() - start)
    timeline.point()
    return raw, kernel.NOMINAL_S / statistics.median(timeline.points[first:])


def percentiles(values: list[float]) -> dict:
    out = {"samples": len(values), "p50": statistics.median(values)}
    if len(values) >= 2:
        p90 = statistics.quantiles(values, n=10)[-1]
        if sum(v > p90 for v in values) >= TAIL_SAMPLES:
            out["p90"] = p90
    return out


def command_stats(timeline: Timeline, rounds: list[Round]) -> dict:
    by_command: dict[str, tuple[list, list]] = {}
    for rnd in rounds:
        for s in rnd.samples:
            cal, raw = by_command.setdefault(s.command, ([], []))
            cal.append(timeline.calibrated(s))
            raw.append(s.raw_s)
    return {
        command: {**percentiles(cal), "raw_p50": statistics.median(raw)}
        for command, (cal, raw) in sorted(by_command.items())
    }


def round_seconds(timeline: Timeline, rnd: Round) -> tuple[float, float]:
    """Calibrated and raw seconds spent in queries during one round."""
    return (
        sum(timeline.calibrated(s) for s in rnd.samples),
        sum(s.raw_s for s in rnd.samples),
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args, client: Client, expected, setup) -> tuple[dict, list, dict]:
    timeline = client.timeline
    rounds: list[Round] = []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        rounds.append(client.round(expected))
    spent = [round_seconds(timeline, r) for r in rounds]
    good = sum(s.ok for r in rounds for s in r.samples)
    stats = command_stats(timeline, rounds)
    metrics = {
        "setup_s": statistics.median(setup[0]) * setup[1],
        "queries_per_s": good / sum(cal for cal, _ in spent),
        "peak_rss_mb": peak_rss_mb(),
    }
    full = {
        "rounds": len(rounds),
        "queries_per_round": len(client.queries),
        "round_s": [cal for cal, _ in spent],
        "raw_round_s": [raw for _, raw in spent],
        "raw_queries_per_s": good / sum(raw for _, raw in spent),
        "raw_setup_s": setup[0],
        "setup_scale": setup[1],
        "kernel_raw_s": {
            "points": len(timeline.points),
            "p50": statistics.median(timeline.points),
            "min": min(timeline.points),
            "max": max(timeline.points),
        },
        "commands": stats,
        "waiting": "closed loop, one client: no queue and no waiting time",
    }
    return metrics, rounds, full


def traced(args, client: Client, expected) -> tuple[dict, list, dict]:
    from tracer import Tracer

    timeline = client.timeline
    tracer = Tracer()
    plain, per_round, counts_seen, rounds = [], [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        rnd = client.round(expected)
        plain.append(round_seconds(timeline, rnd)[0])
        rounds.append(rnd)
        tracer.reset()
        tracer.install()
        try:
            rnd = client.round(expected)
        finally:
            tracer.uninstall()
        rounds.append(rnd)
        cal, raw = round_seconds(timeline, rnd)
        layer = tracer.layer_metrics()
        for name in list(layer):
            if name.endswith(".self_s"):
                layer[name] *= cal / raw
        layer["cli.json_bytes"] = rnd.json_bytes
        layer["trace.overhead"] = cal / plain[-1]
        per_round.append(layer)
        counts_seen.append(dict(tracer.counts))
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    full = {
        "traced_rounds": len(per_round),
        "counts_repeat": all(c == counts_seen[0] for c in counts_seen),
        "counts_per_round": counts_seen[0],
        "untraced_round_s": plain,
    }
    return metrics, rounds, full


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
         ("_share", "ratio"), ("overhead", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tracemet" / "__init__.py").is_file():
        print(f"no tracemet sources under {SRC}; run from a tracemet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # Sampling inside queries would add its time to the traced spans.
    timeline = Timeline(sampling=not args.trace)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        for name, text in workload.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        marks = [time.perf_counter()]
        setup = None if args.trace else measure_setup(args.workload, args.seed, timeline)
        client = Client(workload, workdir, timeline)
        marks.append(time.perf_counter())
        recording = client.round(None)
        marks.append(time.perf_counter())
        check_failures = workload.check(recording.answers)
        expected = None if check_failures else recording.answers
        marks.append(time.perf_counter())
        if args.trace:
            metrics, rounds, full = traced(args, client, expected)
        else:
            metrics, rounds, full = end_to_end(args, client, expected, setup)
        marks.append(time.perf_counter())
    phases = ("setup", "recording", "checks", "measuring")
    full["phase_s"] = {name: b - a for name, a, b in zip(phases, marks, marks[1:])}

    attempted = sum(len(r.samples) for r in rounds)
    failed = sum(not s.ok for r in rounds for s in r.samples)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "check_failures": check_failures[:20],
        "errors": client.errors[:20],
        **full,
    }
    print(f"workload {args.workload}, seed {args.seed}: {attempted} queries, {failed} failed")
    for failure in check_failures[:20]:
        print(f"  independent check failed: {failure}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit_of(name)}")
    for command, stats in full.get("commands", {}).items():
        for level in ("p50", "p90"):
            if level in stats:
                name = f"{command}_{level}_s"
                print(f"  {name:34s} {stats[level]:.6g} s ({stats['samples']} samples, not gated)")
    if "waiting" in full:
        print(f"  {full['waiting']}")
    print("full results: " + json.dumps(full, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not check_failures and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
