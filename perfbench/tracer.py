"""Outside-in per-module tracing of tracemet.

``Tracer.install`` wraps every public function of each tracemet module (plus
``Dist.merged`` and ``Dist.pushforward``) and rebinds the wrapper at every
``tracemet.*`` name that holds the function, since ``metrics``, ``logic``,
``formula_distance`` and ``cli`` import functions by name.  The layers are
the modules.  A span's self time is its duration minus its wrapped
children's; private helpers count towards the public function that called
them, and functions held by objects (the quotient metrics' canonicalizers)
count towards their caller.

Counts are taken from arguments and return values at the same boundaries,
so they repeat exactly for a given input.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "parser",
    "core",
    "resolutions",
    "traces",
    "transport",
    "metrics",
    "logic",
    "formula_distance",
)

# A span frame: [layer, function name, seconds covered by children, enumerated resolutions].
LAYER, NAME, CHILD_S, ENUMERATED = range(4)


def _enumerations(tracer, parent, frame, args, result):
    tracer.counts["resolutions.enumerations"] += 1
    tracer.counts["resolutions.materialized"] += len(result)
    if parent is not None and parent[NAME] == "satisfies":
        parent[ENUMERATED] = result


def _profiles(tracer, parent, frame, args, result):
    if parent is None or parent[NAME] != "weak_compatible_probabilities":
        tracer.counts["traces.profiles"] += 1


def _kantorovich(tracer, parent, frame, args, result):
    tracer.counts["transport.kantorovich_calls"] += 1
    if any(f[NAME] == "hausdorff_witness" for f in tracer.stack):
        tracer.counts["transport.calls_in_pass"] += 1


def _hausdorff(tracer, parent, frame, args, result):
    tracer.counts["transport.hausdorff_passes"] += 1
    tracer.counts["transport.hausdorff_pairs"] += 2 * len(args[0]) * len(args[1])
    if parent is not None and parent[LAYER] == "formula_distance":
        tracer.counts["formula_distance.set_passes"] += 1


def _dedup(tracer, parent, frame, args, result):
    stats = result.dedup_stats
    tracer.counts["metrics.distinct"] += stats.left_after + stats.right_after
    tracer.counts["metrics.resolutions"] += stats.left_before + stats.right_before


def _satisfies(tracer, parent, frame, args, result):
    listing = frame[ENUMERATED] or []
    witness = result[1]
    scanned = next((i + 1 for i, r in enumerate(listing) if r is witness), len(listing))
    tracer.counts["logic.sat_scanned"] += scanned
    tracer.counts["logic.sat_available"] += len(listing)


HOOKS = {
    "enumerate_resolutions": _enumerations,
    "trace_distribution": lambda t, *_: t.counts.update(("traces.distributions",)),
    "compatible_probabilities": _profiles,
    "weak_compatible_probabilities": _profiles,
    "kantorovich_01": _kantorovich,
    "hausdorff_witness": _hausdorff,
    "strong_trace_metric": _dedup,
    "weak_trace_metric": _dedup,
    "satisfied_set": lambda t, p, f, a, result: t.counts.update(
        {"logic.satisfied_formulas": len(result)}
    ),
    "satisfies": _satisfies,
    "distance_to_set": lambda t, *_: t.counts.update(("formula_distance.set_passes",)),
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list[list] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(name)
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[LAYER] != layer:
                counts[f"{layer}.calls"] += 1
            frame = [layer, name, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[CHILD_S]
                if parent is not None:
                    parent[CHILD_S] += elapsed
            if hook is not None:
                hook(self, parent, frame, args, result)
            return result

        return wrapper

    def _rebind(self, holders, original, wrapper) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, original))

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items() if n == "tracemet" or n.startswith("tracemet.")]
        for layer in LAYERS:
            module = sys.modules[f"tracemet.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._rebind(holders, fn, self._wrap(layer, name, fn))
        dist = sys.modules["tracemet.core"].Dist
        for name in ("merged", "pushforward"):
            raw = dist.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap("core", f"Dist.{name}", raw.__func__))
            else:
                wrapped = self._wrap("core", f"Dist.{name}", raw)
            setattr(dist, name, wrapped)
            self._undo.append((dist, name, raw))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Raw per-layer figures of everything traced since the last reset."""
        c = self.counts
        out: dict[str, float] = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        for name in (
            "parser.calls",
            "resolutions.enumerations",
            "resolutions.materialized",
            "traces.distributions",
            "traces.profiles",
            "transport.kantorovich_calls",
            "transport.hausdorff_pairs",
            "logic.satisfied_formulas",
            "formula_distance.set_passes",
        ):
            out[name] = c[name]
        out["transport.evaluated_share"] = _share(c["transport.calls_in_pass"], c["transport.hausdorff_pairs"])
        out["metrics.distinct_share"] = _share(c["metrics.distinct"], c["metrics.resolutions"])
        out["logic.sat_scanned_share"] = _share(c["logic.sat_scanned"], c["logic.sat_available"])
        return out


def _share(part: int, whole: int) -> float:
    """part / whole, and 0 where the layer did no such work."""
    return part / whole if whole else 0.0
