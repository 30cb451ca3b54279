"""Benchmark of zndevans: three closed-loop workloads, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload evans_points --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their times
are normalised by a machine-speed reference kernel timed all through the run
(``perfbench/speedref.py``).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics (self time, calls, time per call and
integrator counters), the tracing overhead, and self-checks of the trace.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench_out" / "perfbench"
WORKLOADS = ("evans_points", "contour_count", "model_tables")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# A fresh interpreter that sets up with the reference kernel sampled
# throughout, then reports the samples' mean and the time they took.
SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import speedref
with speedref.Sampler() as sampler:
    sampler.take()
    import zndevans
    zndevans.build_wave(zndevans.default_config())
import json
print(json.dumps({"kernel_s": sum(sampler.samples) / len(sampler.samples), "spent_s": sampler.spent}))
"""

END_TO_END = {
    "pass_norm_s": "s",
    "setup_s": "s",
    "mesh_points": "count",
    "rhs_evaluations": "count",
}
LAYER_METRICS = (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))
COUNTER_METRICS = {
    "numerics.integrate.accepted": "count",
    "numerics.integrate.rejected": "count",
    "numerics.integrate.accept_ratio": "ratio",
    "numerics.refine_contour.bisected_nodes": "count",
    "harness.self_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_units(layers) -> dict:
    units = {f"{layer}.{m}": u for layer in layers for m, u in LAYER_METRICS}
    units.update(COUNTER_METRICS)
    return units


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": os.getloadavg(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def measure_setup() -> tuple[float, float]:
    """Set-up time of a fresh interpreter that imports zndevans and builds the
    default wave: medians over ``SETUP_REPEATS`` interpreters, normalised and
    wall, after one untimed start that fills the bytecode cache.  Each
    interpreter's wall time, less its reference-kernel samples, is normalised
    by the mean of those samples."""
    import speedref

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)]
    norm, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        dur = time.perf_counter() - t0
        if i:
            ref = json.loads(out.stdout)
            wall.append(dur - ref["spent_s"])
            norm.append(wall[-1] * speedref.NOMINAL_S / ref["kernel_s"])
    return statistics.median(norm), statistics.median(wall)


def run_pass(wl, tracer=None, sampler=None) -> tuple[list[float], list]:
    """Run every operation once, in order; returns durations and results
    (an exception object in place of the result of an operation that raised).
    With a ``sampler``, each duration leaves out its reference-kernel calls."""
    durs, results = [], []
    for op in wl.ops:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            res = op.run() if tracer is None else tracer.root(op.run)
        except Exception as exc:  # an operation failure is counted, not fatal
            res = exc
        dur = time.perf_counter() - t0
        durs.append(dur - (sampler.spent - spent if sampler else 0.0))
        results.append(res)
    return durs, results


def pass_counts(wl, results) -> tuple[int, int]:
    mesh = rhs = 0
    for res in results:
        if not isinstance(res, Exception):
            m, r = wl.counts(res)
            mesh += m
            rhs += r
    return mesh, rhs


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, label: str, message: str | None) -> None:
        self.attempted += 1
        if message is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {message}")

    def add_pass(self, wl, results, counts, first_counts) -> None:
        for op, msg in zip(wl.ops, wl.check(wl.ops, results)):
            self.add(op.label, msg)
        if counts != first_counts:
            self.add("pass counts", f"{counts} differ from the first pass {first_counts}")


def keep_going(t_start: float, seconds: float, last: float) -> bool:
    """Start another pass unless it would end more than half a pass late."""
    return time.perf_counter() - t_start + 0.5 * last < seconds


def measure(wl, seconds: float, tally: Tally) -> dict:
    """Untraced passes for ``seconds``; end-to-end metrics and named figures.

    Each operation's time is normalised by the mean reference-kernel time over
    its pass (one sample is taken as the pass starts, the timer adds the
    rest); ``pass_norm_s`` sums each operation's median normalised time.
    """
    import speedref

    passes = []  # (operation durations, results, mean kernel time over the pass)
    first_counts = None
    with speedref.Sampler() as sampler:
        t_start = time.perf_counter()
        while True:
            first_sample = len(sampler.samples)
            sampler.take()
            durs, results = run_pass(wl, sampler=sampler)
            ref = statistics.fmean(sampler.samples[first_sample:])
            counts = pass_counts(wl, results)
            first_counts = first_counts or counts
            tally.add_pass(wl, results, counts, first_counts)
            passes.append((durs, results, ref))
            if not keep_going(t_start, seconds, sum(durs)):
                break
    op_times = [[p[0][i] for p in passes] for i in range(len(wl.ops))]
    op_norm = [[p[0][i] * speedref.NOMINAL_S / p[2] for p in passes] for i in range(len(wl.ops))]
    op_median = [statistics.median(times) for times in op_norm]
    groups: dict[str, float] = {}
    for op, t in zip(wl.ops, op_median):
        groups[op.group] = groups.get(op.group, 0.0) + t
    pass_norm_s = sum(op_median)
    mesh, rhs = first_counts
    named = {g: (v, "s") for g, v in groups.items()}
    for extra in (wl.extras(wl.ops, p[1]) for p in passes):
        for k, (v, unit) in extra.items():
            named[k] = (max(named[k][0], v), unit) if k in named else (v, unit)
    named["us_per_rhs"] = (1e6 * pass_norm_s / rhs if rhs else float("nan"), "us")
    named["passes"] = (len(passes), "count")
    named["pass_wall_s"] = (sum(statistics.median(times) for times in op_times), "s")
    named["ref_kernel_ms"] = (1e3 * statistics.median(p[2] for p in passes), "ms")
    named["ref_samples"] = (len(sampler.samples), "count")
    return {
        "metrics": {"pass_norm_s": pass_norm_s, "mesh_points": mesh, "rhs_evaluations": rhs},
        "named": named,
        "ops": [(op.label, times) for op, times in zip(wl.ops, op_times)],
    }


def measure_traced(wl, seconds: float, tally: Tally, dump_path: Path) -> dict:
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics.

    Checks on every traced pass: its mesh and RHS totals equal the untraced
    pass's, the RHS spans equal the RHS evaluations the integrator reported,
    and the layer self times sum to the traced wall time.
    """
    from tracing import LAYERS, ROOT, Tracer

    tracer = Tracer()
    plain_walls, traced_walls = [], []
    first_counts = None
    t_start = time.perf_counter()
    while True:
        durs, results = run_pass(wl)
        counts = pass_counts(wl, results)
        first_counts = first_counts or counts
        tally.add_pass(wl, results, counts, first_counts)
        plain_walls.append(sum(durs))

        before = dict(tracer.counters)
        calls_before = {n: tracer.totals[n][0] for n in ("numerics.integrate", "evans.rhs", "modelbench.rhs")}
        self_before = tracer.self_time_sum()
        with tracer:
            durs, results = run_pass(wl, tracer)
        traced_counts = pass_counts(wl, results)
        tally.add_pass(wl, results, traced_counts, first_counts)
        traced_walls.append(sum(durs))

        delta = {k: tracer.counters[k] - before[k] for k in before}
        calls = {n: tracer.totals[n][0] - c for n, c in calls_before.items()}
        rhs_spans = calls["evans.rhs"] + calls["modelbench.rhs"]
        mesh_traced = delta["accepted"] + calls["numerics.integrate"]
        self_sum = tracer.self_time_sum() - self_before
        problems = []
        if (mesh_traced, delta["rhs_evaluations"]) != counts:
            problems.append(f"traced counts {(mesh_traced, delta['rhs_evaluations'])} != untraced {counts}")
        if rhs_spans != delta["rhs_evaluations"]:
            problems.append(f"{rhs_spans} RHS spans != {delta['rhs_evaluations']} RHS evaluations")
        if abs(self_sum - sum(durs)) > 1e-3 * sum(durs):
            problems.append(f"self times sum to {self_sum:.6f} s, traced wall {sum(durs):.6f} s")
        tally.add("trace self-check", "; ".join(problems) or None)
        if not keep_going(t_start, seconds, plain_walls[-1] + traced_walls[-1]):
            break

    n = len(traced_walls)
    dump_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(dump_path)
    metrics = {}
    for layer in LAYERS:
        calls, total, self_s = tracer.totals[layer]
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.self_s"] = self_s / n
        metrics[f"{layer}.us_per_call"] = 1e6 * total / calls if calls else 0.0
    acc, rej = tracer.counters["accepted"], tracer.counters["rejected"]
    metrics["numerics.integrate.accepted"] = acc / n
    metrics["numerics.integrate.rejected"] = rej / n
    metrics["numerics.integrate.accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
    metrics["numerics.refine_contour.bisected_nodes"] = tracer.counters["bisected_nodes"] / n
    metrics["harness.self_s"] = tracer.totals[ROOT][2] / n
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    named = {
        "traced_passes": (n, "count"),
        "traced_wall_s": (statistics.median(traced_walls), "s"),
        "untraced_wall_s": (statistics.median(plain_walls), "s"),
    }
    return {"metrics": metrics, "named": named, "layers": LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zndevans" / "__init__.py").is_file():
        print(f"perfbench: no zndevans sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before NumPy is first imported; the set-up
    # interpreters inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = environment()
    print("# env " + json.dumps(env), flush=True)

    import workloads

    setup_s, setup_wall_s = measure_setup() if not args.trace else (None, None)
    workloads.warm_up()
    wl = workloads.BY_NAME[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out = measure_traced(wl, args.seconds, tally, dump)
        units = per_layer_units(out["layers"])
        print(f"# spans written to {dump.relative_to(ROOT)}")
    else:
        out = measure(wl, args.seconds, tally)
        out["metrics"]["setup_s"] = setup_s
        out["named"]["setup_wall_s"] = (setup_wall_s, "s")
        units = END_TO_END
        for label, times in out["ops"]:
            print(f"# op {label}: " + " ".join(f"{t:.4f}" for t in times) + " s wall")
    named = dict(out["named"])
    named["failed_share"] = (tally.failed / tally.attempted, "1")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in named.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name in units:
        print(f"# metric {name} = {out['metrics'][name]:.6g} {units[name]}")
    for msg in tally.messages:
        print(f"# FAILED {msg}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": out["metrics"][name], "unit": u} for name, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
