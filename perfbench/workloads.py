"""The three benchmark workloads and their correctness gate.

Each workload is a fixed list of operations run one after another by a
single caller (a closed loop with one client).  The seed only jitters the
inputs the library receives: the ``evans_points`` frequencies and the
``contour_count`` radii.  ``model_tables`` runs the paper's fixed grid.

Operations call the library through module attributes (``evans.evaluate``,
``stability.count_unstable``, ``modelbench.reproduce_table``) so that the
tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from zndevans import evans, modelbench, stability
from zndevans.znd import build_wave, default_config

JITTER = 5e-3  # relative size of the seeded perturbation of frequencies and radii
TOL = 1e-5
# |D * kappa - D_ref| / |D_ref| and cross-method disagreement must stay under
# ERR_FACTOR * tol.  At tol = 1e-5 the unfactored methods sit near 1e-3 on
# the 0.1+30i node, the neutral method near 1e-8.
ERR_FACTOR = 300.0
# Neutral-method tolerance of the reference for each benchmarked tolerance.
REF_TOL = {1e-5: 1e-8, 1e-8: 1e-10}

EVANS_NODES = (1 + 1j, 1 + 3j, 4 + 10j, 0.1 + 30j)
TIGHT_NODE = 1, 1e-8  # index into EVANS_NODES and tolerance of the extra point
CONTOUR_CASES = (("default", 2.0), ("default", 10.0), ("EA=20", 2.0))
TABLE_COUNTS_FILE = Path(__file__).with_name("table_counts.json")


@dataclass
class Op:
    """One library call.  ``group`` names the figure its time adds to."""

    label: str
    group: str
    run: Callable[[], object]
    key: tuple = ()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (ops, their results or exceptions) -> one failure message or None per op
    check: Callable[[list, list], list]
    counts: Callable[[object], tuple[int, int]]  # op result -> (mesh points, RHS evaluations)
    # (ops, results) -> {name: (value, unit)} figures for the report
    extras: Callable[[list, list], dict] = lambda ops, results: {}
    reference: dict = field(default_factory=dict)


def _jitter(rng: np.random.Generator, values) -> list:
    """Scale each value, real and imaginary parts separately, by a factor in
    [1 - JITTER, 1 + JITTER]; signs never change, so Re(lambda) stays > 0."""
    out = []
    for v in values:
        re, im = 1.0 + JITTER * rng.uniform(-1.0, 1.0, 2)
        out.append(complex(v.real * re, v.imag * im) if isinstance(v, complex) else float(v * re))
    return out


def evans_points(seed: int) -> Workload:
    """D at four frequencies for each method at tol 1e-5, plus one at 1e-8."""
    rng = np.random.default_rng(seed)
    wave = build_wave(default_config())
    nodes = _jitter(rng, EVANS_NODES)
    points = [(lam, TOL) for lam in nodes] + [(nodes[TIGHT_NODE[0]], TIGHT_NODE[1])]
    ops = [
        Op(
            label=f"{method} lambda={lam:.4f} tol={tol:g}",
            group=f"D_{method}_s",
            run=lambda w=wave, lam=lam, m=method, tol=tol: evans.evaluate(w, lam, method=m, tol=tol),
            key=(lam, tol),
        )
        for method in evans.METHODS
        for lam, tol in points
    ]
    reference = {}
    for lam, tol in points:
        try:
            reference[(lam, tol)] = evans.evaluate(wave, lam, tol=REF_TOL[tol]).D
        except Exception as exc:  # reported by the gate on every operation at this point
            reference[(lam, tol)] = exc

    def check(ops: list, results: list) -> list:
        neutral = {
            op.key: res for op, res in zip(ops, results)
            if op.group == "D_neutral_s" and not isinstance(res, Exception)
        }
        out = []
        for op, res in zip(ops, results):
            if isinstance(res, Exception):
                out.append(f"raised {type(res).__name__}: {res}")
                continue
            ref = reference[op.key]
            if isinstance(ref, Exception):
                out.append(f"reference solve raised {type(ref).__name__}: {ref}")
                continue
            value = res.D * res.kappa_to_neutral
            bound = ERR_FACTOR * op.key[1]
            err = _rel_err(value, ref)
            msg = None
            if not err <= bound:
                msg = f"|D - D_ref| / |D_ref| = {err:.3e} > {bound:.1e}"
            elif op.key in neutral and res.method != "neutral":
                gap = _rel_err(value, neutral[op.key].D)
                if not gap <= bound:
                    msg = f"disagrees with neutral by {gap:.3e} > {bound:.1e}"
            elif op.key not in neutral:
                msg = "no neutral value to compare with"
            out.append(msg)
        return out

    def extras(ops: list, results: list) -> dict:
        errs = [
            _rel_err(r.D * r.kappa_to_neutral, reference[op.key])
            for op, r in zip(ops, results)
            if not isinstance(r, Exception) and not isinstance(reference[op.key], Exception)
        ]
        return {"D_max_rel_err": (max(errs) if errs else float("nan"), "1")}

    return Workload(
        "evans_points", ops, check,
        counts=lambda r: (r.stats.mesh_points, r.stats.rhs_evaluations),
        extras=extras, reference=reference,
    )


def _rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def _count_unstable(wave, radius: float):
    """count_unstable plus the mesh and RHS totals of the D evaluations it made.

    ``WindingReport`` carries no solve statistics, so the ``evaluate``
    binding in ``stability`` is shimmed for the duration of the call.
    """
    inner = stability.evaluate
    tally = [0, 0]

    def counted(*args, **kwargs):
        r = inner(*args, **kwargs)
        tally[0] += r.stats.mesh_points
        tally[1] += r.stats.rhs_evaluations
        return r

    stability.evaluate = counted
    try:
        report = stability.count_unstable(wave, radius, tol=TOL)
    finally:
        stability.evaluate = inner
    return report, tally[0], tally[1]


def contour_count(seed: int) -> Workload:
    """Neutral winding counts at radius 2 and 10 (default wave) and 2 (EA=20)."""
    rng = np.random.default_rng(seed)
    base = default_config()
    waves = {"default": build_wave(base), "EA=20": build_wave(replace(base, EA=20.0))}
    radii = _jitter(rng, [r for _, r in CONTOUR_CASES])
    ops = [
        Op(
            label=f"count_unstable {wname} radius={radius:.5f}",
            group="contour_s",
            run=lambda w=waves[wname], r=radius: _count_unstable(w, r),
            key=(wname, radius),
        )
        for (wname, _), radius in zip(CONTOUR_CASES, radii)
    ]

    def check(ops: list, results: list) -> list:
        out = []
        for res in results:
            if isinstance(res, Exception):
                out.append(f"raised {type(res).__name__}: {res}")
            elif res[0].winding != 0:
                out.append(f"winding {res[0].winding} != 0")
            else:
                out.append(None)
        return out

    def extras(ops: list, results: list) -> dict:
        samples = sum(r[0].n_samples for r in results if not isinstance(r, Exception))
        return {"contour_samples": (samples, "count")}

    return Workload("contour_count", ops, check, counts=lambda r: (r[1], r[2]), extras=extras)


def _table_counts(table) -> list[int]:
    return [cell.mesh_points for cell in table.cells]


def model_tables(seed: int) -> Workload:
    """reproduce_table(1) and reproduce_table(2); the seed is unused."""
    del seed
    recorded = json.loads(TABLE_COUNTS_FILE.read_text())
    ops = [
        Op(label=f"reproduce_table({k})", group="table_s",
           run=lambda k=k: modelbench.reproduce_table(k), key=(k,))
        for k in (1, 2)
    ]

    def check(ops: list, results: list) -> list:
        out = []
        for op, res in zip(ops, results):
            if isinstance(res, Exception):
                out.append(f"raised {type(res).__name__}: {res}")
                continue
            failures = res.trend_failures()
            expected = recorded[f"table{op.key[0]}"]
            got = _table_counts(res)
            if failures:
                out.append("; ".join(failures))
            elif got != expected:
                diff = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
                out.append(f"{diff} cell mesh counts differ from {TABLE_COUNTS_FILE.name}")
            else:
                out.append(None)
        return out

    def counts(table) -> tuple[int, int]:
        return (
            sum(c.mesh_points for c in table.cells),
            sum(c.stats.rhs_evaluations for c in table.cells),
        )

    return Workload("model_tables", ops, check, counts=counts)


BY_NAME = {"evans_points": evans_points, "contour_count": contour_count, "model_tables": model_tables}


def warm_up() -> None:
    """Touch every code path once so lazy imports and caches are filled."""
    wave = build_wave(default_config())
    for method in evans.METHODS:
        evans.evaluate(wave, 1 + 1j, method=method)
    modelbench.run_cell(modelbench.ModelParams(c_decay=10.0, lam=1.0), "factored", "forward")
