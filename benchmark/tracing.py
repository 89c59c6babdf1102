"""Per-layer timing by wrapping exactce's functions where their callers look
them up.

Each wrapped call is a span. Spans nest (a separation calls the stationary
solve and the row values), so each layer is charged its self time: the span's
duration minus the part its child spans cover. The root span is the whole
solve, and whatever no child covers is `solver.self_s`. The self times of one
traced round therefore add up to its solve time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager


def _probe_result(counts, args, result):
    counts["exact_lp.probe_columns"] += len(args[0].columns)
    counts["exact_lp.probe_hits"] += result is not None


def wrap_points(exactce):
    """(owner, attribute, layer, on_result) for every traced call site."""
    solver, ellipsoid, oracles = exactce.solver, exactce.ellipsoid, exactce.oracles
    return [
        (solver, "run", "ellipsoid.loop", None),
        (solver, "try_feasible_bfs", "exact_lp.probe", _probe_result),
        (solver, "mixture_feasible", "exact_lp.mixture", None),
        (solver, "min_violation_mixture", "exact_lp.mixture", None),
        (solver, "purified_separation", "oracles.separation", None),
        (solver, "product_separation", "oracles.separation", None),
        (solver, "verify_ce", "incentives.verify", None),
        (ellipsoid, "update", "ellipsoid.update", None),
        (ellipsoid.EllipsoidState, "log_det", "ellipsoid.log_det", None),
        (ellipsoid.EllipsoidState, "snapshot", "ellipsoid.snapshot", None),
        (oracles, "purify", "oracles.purify", None),
        (oracles, "stationary_distribution", "oracles.stationary", None),
        (oracles, "incentive_row_values", "incentives.row_values", None),
    ]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # time covered by child spans, one slot per open span

    def span(self, layer, fn, on_result=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.self_s[layer] += elapsed - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, exactce):
        """Wrap every call site for the duration of the block."""
        saved = []
        try:
            for owner, name, layer, on_result in wrap_points(exactce):
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.span(layer, original, on_result))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
