#!/usr/bin/env python3
"""End-to-end demo on the bundled default wave: profile, determinant values
by all three methods, and a winding-number mode count.

The profile and contour files are written by the ``profile`` and
``contour`` subcommands, each with its manifest.  Exits with a subcommand's
non-zero code.

Usage: python scripts/stability_demo.py [outdir]
"""

import sys
import time
from pathlib import Path

from zndevans.cli import main as cli_main
from zndevans.evans import evans_erpenbeck, evans_lee_stewart, evans_neutral
from zndevans.znd import build_wave, config_to_json, default_config


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    outdir.mkdir(parents=True, exist_ok=True)

    cfg = default_config()
    config = outdir / "wave.json"
    config.write_text(config_to_json(cfg))
    wave = build_wave(cfg)
    print(f"wave: m={wave.m:.4g}, Neumann u={wave.neumann.u:.4g}, "
          f"burned u={wave.burned.u:.4g}, M_y={wave.M_y:.3g}")

    rc = cli_main(["profile", "--config", str(config), "--points", "300",
                   "--out", str(outdir / "profile.csv")])
    if rc:
        sys.exit(rc)

    print("\ndeterminant at a few frequencies (value, mesh points, seconds):")
    for lam in (0.5 + 0.5j, 1.0 + 1.0j, 1.0 + 3.0j):
        line = [f"lambda={lam}"]
        for fn, tag in ((evans_neutral, "neutral"), (evans_erpenbeck, "erpenbeck"),
                        (evans_lee_stewart, "lee_stewart")):
            t0 = time.time()
            r = fn(wave, lam, tol=1e-6)
            d = r.D * r.kappa_to_neutral
            line.append(f"{tag}: {d:.6g} ({r.stats.mesh_points} pts, {time.time()-t0:.2f}s)")
        print("  " + "; ".join(line))

    print("\nunstable modes inside radius 2:")
    rc = cli_main(["contour", "--config", str(config), "--radius", "2",
                   "--out", str(outdir / "contour.csv")])
    if rc:
        sys.exit(rc)
    print(f"outputs under {outdir}/")


if __name__ == "__main__":
    main()
