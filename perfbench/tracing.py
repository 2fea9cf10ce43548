"""Per-layer spans recorded from outside the program, by patching its public names.

Every traced function is replaced by a wrapper that opens a span on entry and
closes it on exit. A span's self time is its duration minus the time covered by
the traced spans it caused. Spans are aggregated in memory as they close, per
function and per (caller, callee) pair, and written out once at the end: the
hot layers are called millions of times per run, so a record per span would
cost more memory than the program itself.

A module-level function is patched under every module that bound its name, so
calls made through `from .x import f` are seen as well as calls through `x.f`.
A method is patched on its class.
"""

from __future__ import annotations

import sys
import time

from comatroid import canonical, census, decide, linalg, matroid, projective

ROOT = "<root>"

# Traced functions: span name -> (owner, attribute names). Echelon.contains and
# Echelon.coords reduce against the same rows as insert, so they are counted
# under insert's name.
METHODS = {
    "projective.rank_of_mask": (projective.PointSpace, ("rank_of_mask",)),
    "projective.closure_mask": (projective.PointSpace, ("closure_mask",)),
    "projective.components_mask": (projective.PointSpace, ("components_mask",)),
    "projective.flats_of_rank": (projective.PointSpace, ("flats_of_rank",)),
    "projective.flat_embedding": (projective.PointSpace, ("flat_embedding",)),
    "linalg.Echelon.insert": (linalg.Echelon, ("insert", "contains", "coords")),
    "matroid.connected_hyperplanes": (matroid.EmbeddedMatroid, ("connected_hyperplanes",)),
    "matroid.complement": (matroid.EmbeddedMatroid, ("complement",)),
    "matroid.to_span": (matroid.EmbeddedMatroid, ("to_span",)),
}
FUNCTIONS = {
    "canonical.canonical_key": (canonical, "canonical_key"),
    "decide.decide_recursive": (decide, "decide_recursive"),
    "decide.decide_flat_criterion": (decide, "decide_flat_criterion"),
    "decide.decide_forbidden_flats": (decide, "decide_forbidden_flats"),
    "decide.verify_certificate": (decide, "verify_certificate"),
    "census.minimal_non_comatroids": (census, "minimal_non_comatroids"),
}
SPAN_NAMES = tuple(METHODS) + tuple(FUNCTIONS)
BUILD_SPAN = "projective.point_space"
DECIDERS = ("decide.decide_recursive", "decide.decide_flat_criterion",
            "decide.decide_forbidden_flats")

# distinct-input keys for the layers whose memos the metrics judge
DISTINCT_KEYS = {
    "projective.components_mask": lambda args: (args[0].r, args[0].q, args[1]),
    "canonical.canonical_key": lambda args: (args[0].space.r, args[0].q, args[0].green_mask),
}


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, total_s]
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_KEYS}
        self.comatroid_verdicts = 0
        self.decider_calls = 0
        self._stack: list[list] = [[ROOT, 0.0]]  # [span name, child time]
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter
        seen = self.distinct.get(name)
        key = DISTINCT_KEYS.get(name)
        count_verdict = name in DECIDERS

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(args))
            caller = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                caller[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                edge = edges.get((caller[0], name))
                if edge is None:
                    edges[(caller[0], name)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
            if count_verdict:
                self.decider_calls += 1
                self.comatroid_verdicts += out.is_comatroid
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every traced name; call after all program modules are imported."""
        for name, (cls, attrs) in METHODS.items():
            for attr in attrs:
                self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._set(projective.PointSpace, "__init__",
                  self._wrap(BUILD_SPAN, projective.PointSpace.__init__))
        modules = [m for n, m in sys.modules.items()
                   if n == "comatroid" or n.startswith("comatroid.")]
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapper)

    def uninstall(self):
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """Calls and self seconds per traced function, plus build time and ratios."""
        out = {}
        for name in SPAN_NAMES:
            calls, _, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out[f"{BUILD_SPAN}.build_s"] = self.stats.get(BUILD_SPAN, (0, 0.0, 0.0))[1]
        for name, seen in self.distinct.items():
            calls = self.stats.get(name, (0,))[0]
            out[f"{name}.distinct_frac"] = len(seen) / calls if calls else 0.0
        out["decide.comatroid_frac"] = (self.comatroid_verdicts / self.decider_calls
                                        if self.decider_calls else 0.0)
        return out

    def dump(self) -> dict:
        """The aggregated spans, for writing out at the end of the run."""
        return {
            "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"caller": a, "callee": b, "calls": c, "total_s": t}
                      for (a, b), (c, t) in sorted(self.edges.items())],
        }
