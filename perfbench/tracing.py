"""Span tracer that wraps zndevans functions from outside the package.

Every layer is wrapped by name in the namespace of the module that calls it,
because the package binds these names at import (``zndevans.evans`` holds
its own reference to ``profile_at``, for example).  Nothing under ``src/``
is edited; :meth:`Tracer.install` patches the bindings and
:meth:`Tracer.uninstall` puts the originals back.

A span records name, start, end and parent.  Spans of the coarse layers are
kept one by one; the per-RHS layers (``LEAF_LAYERS``) run hundreds of
thousands of times a pass, so they are aggregated per name under the
nearest enclosing span that is kept (for ``znd.profile_at`` inside
``evans.rhs``, that is the ``numerics.integrate`` span).  Spans
stay in memory and :meth:`Tracer.dump` writes them out at the end of a run.

A layer's self time is its spans' duration minus the time covered by their
child spans; the root span of each traced operation is ``harness``, so the
self times of all layers plus ``harness`` sum to the traced wall time.
"""

from __future__ import annotations

import json
import time

from zndevans import evans, modelbench, numerics, stability

ROOT = "harness"

# Layer names, in the order they are reported.
LAYERS = (
    "stability.count_unstable",
    "numerics.refine_contour",
    "evans.evaluate",
    "spectral.make_frame",
    "numerics.integrate",
    "evans.rhs",
    "modelbench.rhs",
    "znd.profile_at",
    "znd.profile_deriv",
    "spectral.jacobians",
    "znd.x_of_y",
)
LEAF_LAYERS = frozenset(
    {"evans.rhs", "modelbench.rhs", "znd.profile_at", "znd.profile_deriv", "spectral.jacobians"}
)

# (module, attribute, layer): the bindings each caller module resolves at
# call time.  The two integrate entry points are wrapped separately because
# they also re-wrap the field's RHS callback under the caller's name.
_PLAIN = (
    (stability, "count_unstable", "stability.count_unstable"),
    (stability, "refine_contour", "numerics.refine_contour"),
    (stability, "evaluate", "evans.evaluate"),
    (evans, "evaluate", "evans.evaluate"),
    (evans, "make_frame", "spectral.make_frame"),
    (evans, "profile_at", "znd.profile_at"),
    (evans, "profile_deriv", "znd.profile_deriv"),
    (evans, "jacobians", "spectral.jacobians"),
    (evans, "x_of_y", "znd.x_of_y"),
)
_INTEGRATE = (
    (evans, "integrate_adaptive", "evans.rhs"),
    (modelbench, "integrate_adaptive_scaled", "modelbench.rhs"),
)


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.leaf: dict[tuple[int, str], list[float]] = {}
        self.totals = {name: [0, 0.0, 0.0] for name in LAYERS + (ROOT,)}
        self.counters = {"accepted": 0, "rejected": 0, "rhs_evaluations": 0, "bisected_nodes": 0}
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        if name in LEAF_LAYERS and self._stack:
            span_id = self._stack[-1][3]  # aggregated under the enclosing kept span
        else:
            self._next_id += 1
            span_id = self._next_id
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if name in LEAF_LAYERS:
            agg = self.leaf.get((parent_id, name))
            if agg is None:
                agg = self.leaf[(parent_id, name)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
        else:
            self.spans.append((span_id, name, start, end, parent_id))

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside a root span; returns its result."""
        frame = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if name == "numerics.refine_contour":
                self.counters["bisected_nodes"] += len(result[0]) - len(args[1].nodes)
            return result

        return traced

    def _wrap_integrate(self, fn, rhs_name: str):
        def traced(field, *args, **kwargs):
            field = numerics.OdeField(field.dimension, self._wrap(field.eval, rhs_name))
            frame = self._enter("numerics.integrate")
            try:
                result = fn(field, *args, **kwargs)
            finally:
                self._exit(frame)
            stats = result[-1]
            self.counters["accepted"] += stats.accepted_steps
            self.counters["rejected"] += stats.rejected_steps
            self.counters["rhs_evaluations"] += stats.rhs_evaluations
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in _PLAIN:
            self._patch(module, attr, self._wrap(getattr(module, attr), name))
        for module, attr, rhs_name in _INTEGRATE:
            self._patch(module, attr, self._wrap_integrate(getattr(module, attr), rhs_name))

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def self_time_sum(self) -> float:
        return sum(tot[2] for tot in self.totals.values())

    def dump(self, path) -> None:
        """Write spans, leaf aggregates and totals as one JSON document."""
        doc = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "leaf_aggregates": [
                {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                for (p, n), (c, t, s) in self.leaf.items()
            ],
            "totals": {
                n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in self.totals.items()
            },
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
