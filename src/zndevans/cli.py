"""Command-line front end.

Subcommands: ``profile``, ``evans``, ``contour``, ``roots``, ``bench``.
Every run writes a manifest (JSON, alongside the output as
``<out>.manifest.json``) recording the command line, configuration hash,
tolerances, software version, timestamp, and solver statistics; the data
files themselves contain no timestamps so repeated runs are byte-identical.

Every CSV is written by ``_write_csv`` under one of the column tuples below
and read back by ``read_profile_csv``, ``read_contour_csv`` or ``read_bench_csv``.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical-domain
error, 4 acceptance-trend failure in ``bench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalDomainError
from .evans import duality_check, evaluate
from .modelbench import DOMAIN_LENGTH, reproduce_table, C_COLUMNS, LAMBDA_ROWS
from .numerics import SolveStats
from .spectral import coefficient_G
from .stability import count_unstable, sweep_roots
from .znd import (
    GasWaveConfig,
    build_wave,
    config_from_json,
    profile_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_TREND = 4

_METHOD_FLAGS = {"neutral": "neutral", "erpenbeck": "erpenbeck", "lee-stewart": "lee_stewart"}

PROFILE_COLUMNS = ("y", "x", "rho", "u", "e", "Y", "p", "T")
CONTOUR_COLUMNS = ("re_lambda", "im_lambda", "re_D", "im_D")
BENCH_COLUMNS = ("lambda_re", "lambda_im", "c", "direction", "variant",
                 "mesh_points", "paper_count", "ratio_to_paper")
_G_COLUMNS = ("y", *(f"G{i}{j}_{part}" for i in range(4) for j in range(4) for part in ("re", "im")))


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return f"{x:.17g}"


def _write_csv(path: str, columns: tuple[str, ...], rows) -> None:
    """Write the header and one line per row; numbers go through ``_fmt``, strings as they are."""
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(path, columns: tuple[str, ...]) -> list[list[str]]:
    """The rows, as strings, of a CSV that ``_write_csv`` wrote with ``columns``."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != ",".join(columns):
            raise ValueError(f"{path} does not have the columns {','.join(columns)} "
                             f"(header {header!r})")
        return [line.rstrip("\n").split(",") for line in fh]


def read_profile_csv(path) -> dict[str, np.ndarray]:
    """Parse a ``profile`` dump: one array per column."""
    data = np.array(_read_csv(path, PROFILE_COLUMNS), dtype=float)
    return {name: data[:, i] for i, name in enumerate(PROFILE_COLUMNS)}


def read_contour_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``contour`` dump: returns (nodes, determinant values)."""
    data = np.array(_read_csv(path, CONTOUR_COLUMNS), dtype=float)
    return data[:, 0] + 1j * data[:, 1], data[:, 2] + 1j * data[:, 3]


def read_bench_csv(path) -> list[dict]:
    """Parse a ``bench`` dump into one record per cell."""
    return [{"lam": complex(float(re), float(im)), "c": float(c), "direction": direction,
             "variant": variant, "mesh_points": int(n), "paper_count": int(ref),
             "ratio_to_paper": float(ratio)}
            for re, im, c, direction, variant, n, ref, ratio in _read_csv(path, BENCH_COLUMNS)]


def _write_json(path: str, record: dict, args) -> None:
    """Write a data record that names the manifest of the run ``main`` parsed into ``args``."""
    record["manifest"] = args.out + ".manifest.json"
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_config(path: str) -> GasWaveConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_json(text)


def _write_manifest(args, cfg: GasWaveConfig | None, stats: list[SolveStats],
                    extra: dict | None = None, also_wrote: tuple[str, ...] = ()) -> None:
    """Write ``<out>.manifest.json`` for the command ``main`` parsed into ``args``.

    ``outputs`` lists ``--out`` followed by ``also_wrote``, the other files
    the run wrote.  ``profile`` takes no ``--tol`` or ``--M``, so its
    manifest records null for both.
    """
    manifest = {
        "command": ["zndevans", *args.argv],
        "version": __version__,
        "timestamp": _utc_now(),
        "tol": getattr(args, "tol", None),
        "M": getattr(args, "M", None),
        "outputs": [args.out, *also_wrote],
        "solve_stats": [dataclasses.asdict(s) for s in stats],
    }
    if cfg is not None:  # what the run computed with; the file may have changed since
        manifest["config_path"] = args.config
        manifest["config_sha256_16"] = cfg.digest()
    if extra:
        manifest.update(extra)
    Path(args.out + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_profile(args) -> int:
    cfg = _load_config(args.config)
    cols = profile_table(build_wave(cfg), n=args.points)
    _write_csv(args.out, PROFILE_COLUMNS, zip(*(cols[k] for k in PROFILE_COLUMNS)))
    _write_manifest(args, cfg, [])
    print(f"wrote {len(cols['y'])} profile rows to {args.out}")
    return EXIT_OK


def _dump_G_csv(wave, lam: complex, M: float, path: str, n: int = 81) -> None:
    rows = []
    for y in np.linspace(-M, 0.0, n).tolist():
        G = coefficient_G(wave, lam, y)
        rows.append([y, *(part for g in G.ravel().tolist() for part in (g.real, g.imag))])
    _write_csv(path, _G_COLUMNS, rows)


def _cmd_evans(args) -> int:
    cfg = _load_config(args.config)
    wave = build_wave(cfg)
    lam = complex(args.lam_re, args.lam_im)
    method = _METHOD_FLAGS[args.method]
    if args.dump_g:  # first: G is defined on the grid even where D fails
        M = wave.M_y if args.M is None else args.M
        if not 0.0 < M < math.inf:  # also rejects NaN
            raise ValueError(f"M must be positive and finite, got {M}")
        _dump_G_csv(wave, lam, M, args.dump_g)
    result = evaluate(wave, lam, method=method, M=args.M, tol=args.tol)
    record = result.to_json_dict()
    if args.duality_grid:
        record["duality_deviation"] = duality_check(
            wave, lam, M=args.M, n_grid=args.duality_grid, tol=args.tol)
    _write_json(args.out, record, args)
    _write_manifest(args, cfg, [result.stats], also_wrote=(args.dump_g,) if args.dump_g else ())
    print(f"D({lam}) = {result.D} [{method}], {result.stats.mesh_points} mesh points")
    return EXIT_OK


def _cmd_contour(args) -> int:
    cfg = _load_config(args.config)
    wave = build_wave(cfg)
    method = _METHOD_FLAGS[args.method]
    report = count_unstable(wave, args.radius, method=method, tol=args.tol, M=args.M)

    _write_csv(args.out, CONTOUR_COLUMNS, ((z.real, z.imag, v.real, v.imag)
                                           for z, v in zip(report.contour.nodes, report.samples)))
    report_path = args.out + ".winding.json"
    _write_json(report_path, report.to_json_dict(), args)
    _write_manifest(args, cfg, list(report.solve_stats), extra={"winding": report.winding},
                    also_wrote=(report_path,))
    print(f"winding number {report.winding} from {report.n_samples} samples, "
          f"{report.n_evaluations} solves (min |D| = {report.min_abs_D:.3e}); wrote {args.out}")
    return EXIT_OK


def _cmd_roots(args) -> int:
    cfg = _load_config(args.config)
    values = [float(v) for v in args.values.split(",")]
    trace = sweep_roots(cfg, args.param, values, complex(args.seed_re, args.seed_im),
                        method=_METHOD_FLAGS[args.method], M=args.M, evans_tol=args.tol,
                        tol=args.root_tol)
    _write_json(args.out, trace.to_json_dict(), args)
    _write_manifest(args, cfg, list(trace.solve_stats), extra={"stopped_by": trace.stopped_by})
    n_ok = int(np.sum(trace.converged))
    print(f"followed root over {len(trace.values)} parameter points ({n_ok} converged)")
    if trace.stopped_by is not None:
        print(f"numerical error: {trace.stopped_by}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_bench(args) -> int:
    table = reproduce_table(args.table, tol=args.tol, M=args.M)
    rows = []
    for direction in ("forward", "backward"):
        counts = table.counts(direction)
        ref = table.reference(direction)
        for i, lam in enumerate(LAMBDA_ROWS):
            lam = complex(lam)
            for j, c in enumerate(C_COLUMNS):
                rows.append((lam.real, lam.imag, c, direction, table.variant,
                             counts[i, j], ref[i, j], counts[i, j] / ref[i, j]))
    _write_csv(args.out, BENCH_COLUMNS, rows)
    failures = table.trend_failures()
    _write_manifest(args, None, [], extra={"trend_failures": failures})
    print(f"table {args.table}: wrote {len(rows)} rows to {args.out}")
    if failures:
        for f in failures:
            print("TREND FAILURE:", f, file=sys.stderr)
        return EXIT_TREND
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zndevans",
        description="Spectral stability of steady detonation waves "
                    "(adjoint Evans-Lopatinski shooting).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, solver=True):
        if config:
            p.add_argument("--config", required=True, help="wave configuration JSON")
        if solver:
            p.add_argument("--tol", type=float, default=1e-5,
                           help="integration tolerance (default 1e-5)")
            p.add_argument("--M", type=float, default=None,
                           help="domain truncation length (default: picked from --tol for "
                                "each solve; 5 for bench)")
        p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("profile", help="dump the steady profile as CSV")
    common(p, solver=False)
    p.add_argument("--points", type=int, default=200, help="number of grid rows")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("evans", help="evaluate the stability determinant at one frequency")
    common(p)
    p.add_argument("--lambda-re", dest="lam_re", type=float, required=True)
    p.add_argument("--lambda-im", dest="lam_im", type=float, default=0.0)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="neutral")
    p.add_argument("--duality-grid", type=int, default=0,
                   help="if > 0, attach the duality constancy deviation on this many grid points")
    p.add_argument("--dump-g", default=None, metavar="PATH",
                   help="debug: dump the coefficient matrix on a y grid as CSV")
    p.set_defaults(fn=_cmd_evans)

    p = sub.add_parser("contour", help="winding-number mode count over a semicircle")
    common(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="neutral")
    p.set_defaults(fn=_cmd_contour)

    p = sub.add_parser("roots", help="follow a root through a parameter sweep")
    common(p)
    p.add_argument("--param", required=True, help="config field to sweep (e.g. EA, q, K)")
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--seed-re", type=float, required=True)
    p.add_argument("--seed-im", type=float, default=0.0)
    p.add_argument("--root-tol", type=float, default=1e-8)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="neutral")
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("bench", help="reproduce a model-problem efficiency table")
    common(p, config=False)
    p.add_argument("--table", type=int, required=True, help="1 (factored) or 2 (unfactored)")
    p.set_defaults(fn=_cmd_bench, M=DOMAIN_LENGTH)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest records the command that ran
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:  # ValueError: argument out of domain
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
