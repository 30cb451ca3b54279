import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import lee_stewart_config
from oracles import G_at_state
from zndevans import cli, evans
from zndevans.cli import main
from zndevans.errors import ConfigError, StepSizeUnderflowError
from zndevans.spectral import make_frame
from zndevans.znd import (
    build_wave,
    config_from_json,
    config_to_json,
    default_config,
    nonreactive_config,
    profile_at,
)


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "wave.json"
    p.write_text(config_to_json(default_config()))
    return str(p)


@pytest.fixture()
def shock_path(tmp_path):
    p = tmp_path / "shock.json"
    p.write_text(config_to_json(nonreactive_config()))
    return str(p)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestProfileCommand:
    def test_nonreactive_columns_constant(self, shock_path, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--config", shock_path, "--out", str(out), "--points", "40"])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["y", "x", "rho", "u", "e", "Y", "p", "T"]
        for col in ("rho", "u", "e", "p", "T"):
            vals = {row[col] for row in rows}
            assert len(vals) == 1

    def test_first_row_is_neumann(self, cfg_path, tmp_path):
        out = tmp_path / "prof.csv"
        main(["profile", "--config", cfg_path, "--out", str(out), "--points", "40"])
        _, rows = read_csv(out)
        wave = build_wave(default_config())
        assert float(rows[0]["y"]) == 0.0
        assert float(rows[0]["rho"]) == pytest.approx(wave.neumann.rho, rel=1e-15)
        assert float(rows[0]["u"]) == pytest.approx(wave.neumann.u, rel=1e-15)

    def test_reactant_column_exponential(self, cfg_path, tmp_path):
        out = tmp_path / "prof.csv"
        main(["profile", "--config", cfg_path, "--out", str(out), "--points", "40"])
        _, rows = read_csv(out)
        cfg = default_config()
        for row in rows:
            want = math.exp(cfg.K * float(row["y"]))
            assert float(row["Y"]) == pytest.approx(want, rel=1e-12)

    def test_manifest_written(self, cfg_path, tmp_path):
        out = tmp_path / "prof.csv"
        main(["profile", "--config", cfg_path, "--out", str(out)])
        manifest = json.loads((tmp_path / "prof.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert "config_sha256_16" in manifest
        assert manifest["version"]

    def test_manifest_has_no_solver_settings(self, cfg_path, tmp_path):
        # the profile is closed-form: it uses no tolerance and no truncation
        out = tmp_path / "prof.csv"
        main(["profile", "--config", cfg_path, "--out", str(out)])
        manifest = json.loads((tmp_path / "prof.csv.manifest.json").read_text())
        assert manifest["tol"] is None
        assert manifest["M"] is None

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"Gamma": -1}')
        rc = main(["profile", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("value", [None, [1.0], "x", True, "0.2"],
                             ids=["null", "list", "string", "true", "numeric-string"])
    @pytest.mark.parametrize("field", ["Gamma", "upstream.rho"])
    def test_non_number_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        raw = json.loads(config_to_json(default_config()))
        if field == "Gamma":
            raw["Gamma"] = value
        else:
            raw["upstream"]["rho"] = value
        with pytest.raises(ConfigError, match=f"'{re.escape(field)}' must be a number"):
            config_from_json(json.dumps(raw))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["profile", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("u, code, says", [(-math.inf, 2, "upstream.u"), (-1e200, 3, "overflow")],
                             ids=["-inf", "-1e200"])
    def test_extreme_upstream_speed_exits_with_a_typed_error(self, tmp_path, capsys, u, code, says):
        # -inf once built a wave with a NaN discriminant; -1e200 overflowed
        # u ** 2 into an uncaught OverflowError
        raw = json.loads(config_to_json(default_config()))
        raw["upstream"]["u"] = u
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["profile", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == code
        err = capsys.readouterr().err
        assert says in err
        assert "Traceback" not in err


class TestEvansCommand:
    def test_smoke_record(self, cfg_path, tmp_path):
        out = tmp_path / "ev.json"
        rc = main(["evans", "--config", cfg_path, "--lambda-re", "1",
                   "--lambda-im", "1", "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        D = complex(*rec["D"])
        assert np.isfinite(D.real) and np.isfinite(D.imag)
        assert rec["method"] == "neutral"
        assert rec["accepted_steps"] >= 1
        assert rec["manifest"].endswith(".manifest.json")

    def test_lee_stewart_method_on_a_lee_stewart_wave_runs_at_truncation_depth(self, tmp_path):
        # LS(1.2, 50): K = 871, so the depth is about 0.02; a depth of 5 broke
        # this method
        cfg = lee_stewart_config(1.2, 50.0, 50.0, 1.2)
        path = tmp_path / "ls.json"
        path.write_text(config_to_json(cfg))
        out = tmp_path / "ev.json"
        rc = main(["evans", "--config", str(path), "--lambda-re", "1", "--lambda-im", "1",
                   "--method", "lee-stewart", "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text())
        assert rec["method"] == "lee_stewart"
        wave = build_wave(cfg)
        # the uncapped depth, which Lee-Stewart's truncation estimate accepts here
        assert rec["M"] == make_frame(wave, 1.0 + 1.0j, 1e-5).M_far

    def test_unknown_method_usage_error(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evans", "--config", cfg_path, "--lambda-re", "1",
                  "--method", "collocation", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_negative_real_part_domain_error(self, cfg_path, tmp_path):
        rc = main(["evans", "--config", cfg_path, "--lambda-re", "-1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_integrator_failure_exits_3_and_names_lambda(self, cfg_path, tmp_path, monkeypatch,
                                                         capsys):
        def fail(*args, **kwargs):
            raise StepSizeUnderflowError(-2.5, 1e-14)

        monkeypatch.setattr(evans, "integrate_adaptive", fail)
        rc = main(["evans", "--config", cfg_path, "--lambda-re", "1.5", "--lambda-im", "0.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "step size underflow at x=-2.5" in err
        assert "at lambda=(1.5+0.5j)" in err

    def test_dump_g_grid(self, cfg_path, tmp_path):
        out = tmp_path / "ev.json"
        gdump = tmp_path / "G.csv"
        rc = main(["evans", "--config", cfg_path, "--lambda-re", "1",
                   "--out", str(out), "--dump-g", str(gdump)])
        assert rc == 0
        header, rows = read_csv(gdump)
        assert header[0] == "y"
        assert len(header) == 1 + 2 * 16
        assert len(rows) == 81
        # rows hold G_ij row-major against (-lam A0 + C) A1^{-1} from the
        # Jacobian matrices and a LAPACK solve
        wave = build_wave(default_config())
        for row in (rows[0], rows[40], rows[80]):
            y = float(row["y"])
            got = np.array([[complex(float(row[f"G{i}{j}_re"]), float(row[f"G{i}{j}_im"]))
                             for j in range(4)] for i in range(4)])
            want = G_at_state(profile_at(wave, y), wave.config, 1.0 + 0j, reacting=True)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_dump_g_written_when_D_fails(self, tmp_path):
        # at EA = 40 the neutral D at 4+10i raises MisselectedModeError, but G
        # is defined on every row of the grid
        cfg = tmp_path / "ea40.json"
        cfg.write_text(config_to_json(replace(default_config(), EA=40.0)))
        gdump = tmp_path / "G.csv"
        rc = main(["evans", "--config", str(cfg), "--lambda-re", "4", "--lambda-im", "10",
                   "--out", str(tmp_path / "ev.json"), "--dump-g", str(gdump)])
        assert rc == 3
        _, rows = read_csv(gdump)
        assert len(rows) == 81

    def test_dump_g_rejects_nan_lambda(self, cfg_path, tmp_path):
        gdump = tmp_path / "G.csv"
        rc = main(["evans", "--config", cfg_path, "--lambda-re", "nan",
                   "--out", str(tmp_path / "ev.json"), "--dump-g", str(gdump)])
        assert rc == 2
        assert not gdump.exists()


class TestContourCommand:
    def test_winding_report_and_samples(self, shock_path, tmp_path):
        out = tmp_path / "contour.csv"
        rc = main(["contour", "--config", shock_path, "--radius", "1",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((tmp_path / "contour.csv.winding.json").read_text())
        assert report["winding"] == int(report["winding"])
        header, rows = read_csv(out)
        assert header == ["re_lambda", "im_lambda", "re_D", "im_D"]
        assert len(rows) == report["n_samples"] + 1  # closed loop repeats the seam

    def test_manifest_has_the_stats_of_each_solve(self, shock_path, tmp_path):
        # the lower half of the contour mirrors the upper, so about half the
        # listed nodes are solved
        out = tmp_path / "contour.csv"
        assert main(["contour", "--config", shock_path, "--radius", "1", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "contour.csv.winding.json").read_text())
        manifest = json.loads((tmp_path / "contour.csv.manifest.json").read_text())
        assert len(manifest["solve_stats"]) == report["n_evaluations"]
        assert report["n_evaluations"] <= report["n_samples"] // 2 + 2
        assert all(s["accepted_steps"] > 0 for s in manifest["solve_stats"])


class TestRootsCommand:
    # both traces fail at the first value, where there is no step to halve.
    # On the default wave Newton's first step from 0.001 lands at
    # lambda = -10.34.  The nonreactive shock's D / lambda is constant, so
    # Newton's first step from 0.5+0.5i leaves for |lambda| ~ 1e15, where
    # the solve's step size underflows
    @pytest.mark.parametrize("config, seed, error", [
        ("shock_path", ["--values", "10,11", "--seed-re", "0.5", "--seed-im", "0.5"],
         "step size underflow"),
        ("cfg_path", ["--values", "10,10.5", "--seed-re", "0.001"], "Re(lambda) >= 0"),
    ], ids=["shock", "default-wave"])
    def test_nonconvergent_seed_reports_numerical_error(self, config, seed, error, request,
                                                        tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["roots", "--config", request.getfixturevalue(config), "--param", "EA",
                   *seed, "--out", str(out)])
        assert rc == 3
        rec = json.loads(out.read_text())
        assert rec["converged"] == [False]
        assert rec["values"] == [10.0]
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["solve_stats"]
        assert error in manifest["stopped_by"]
        assert f"numerical error: {manifest['stopped_by']}" in capsys.readouterr().err


class TestBenchCommand:
    def test_table_shape(self, tmp_path):
        out = tmp_path / "t1.csv"
        rc = main(["bench", "--table", "1", "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["lambda_re", "lambda_im", "c", "direction", "variant",
                          "mesh_points", "paper_count", "ratio_to_paper"]
        assert len(rows) == 66  # 11 lambda x 3 c x 2 directions
        assert rc == 0

    def test_invalid_table_usage_error(self, tmp_path):
        rc = main(["bench", "--table", "7", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_table_3_rejected_by_reproduce_table(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["bench", "--table", "3", "--out", str(out)]) == 2
        assert "table must be 1 or 2" in capsys.readouterr().err
        assert not out.exists()


class TestManifestRecordsTheRun:
    def test_command_and_tol_are_the_parsed_argv(self, cfg_path, tmp_path):
        # main() called from Python: the host interpreter's sys.argv is not the command
        argv = ["evans", "--config", cfg_path, "--lambda-re", "1", "--tol", "1e-6",
                "--out", str(tmp_path / "ev.json")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "ev.json.manifest.json").read_text())
        assert manifest["command"] == ["zndevans", *argv]
        assert manifest["tol"] == 1e-6

    def test_environment_does_not_set_tol(self, cfg_path, tmp_path, monkeypatch):
        monkeypatch.setenv("ZNDEVANS_TOL", "1e-4")
        out = tmp_path / "ev.json"
        assert main(["evans", "--config", cfg_path, "--lambda-re", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ev.json.manifest.json").read_text())
        assert manifest["tol"] == 1e-5
        assert "tol_from_env" not in manifest

    def test_evans_lists_the_dump_g_file(self, cfg_path, tmp_path):
        out, gdump = tmp_path / "ev.json", tmp_path / "G.csv"
        assert main(["evans", "--config", cfg_path, "--lambda-re", "1",
                     "--out", str(out), "--dump-g", str(gdump)]) == 0
        manifest = json.loads((tmp_path / "ev.json.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(gdump)]

    def test_contour_lists_the_winding_report(self, shock_path, tmp_path):
        out = tmp_path / "contour.csv"
        assert main(["contour", "--config", shock_path, "--radius", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "contour.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(out) + ".winding.json"]
        assert manifest["M"] is None

    def test_bench_records_the_M_it_ran_at(self, tmp_path):
        out = tmp_path / "t1.csv"
        main(["bench", "--table", "1", "--tol", "1e-2", "--out", str(out)])
        manifest = json.loads((tmp_path / "t1.csv.manifest.json").read_text())
        assert manifest["M"] == 5.0


class TestBenchTrendExit:
    def test_trend_failure_exits_4(self, tmp_path):
        # a crude tolerance puts every count far below the reference window
        out = tmp_path / "t1.csv"
        rc = main(["bench", "--table", "1", "--tol", "1e-2", "--out", str(out)])
        assert rc == 4
        manifest = json.loads((tmp_path / "t1.csv.manifest.json").read_text())
        assert manifest["trend_failures"]


@pytest.mark.parametrize("argv", [
    ["bench", "--table", "1", "--M", "5"],
    ["contour", "--config", "{cfg}", "--radius", "2", "--M", "1"],
    ["evans", "--config", "{cfg}", "--lambda-re", "1", "--tol", "-1"],
    ["evans", "--config", "{cfg}", "--lambda-re", "1", "--duality-grid", "2"],
    ["contour", "--config", "{cfg}", "--radius", "-1"],
    ["roots", "--config", "{cfg}", "--param", "EA", "--values", "10,x", "--seed-re", "1"],
    ["roots", "--config", "{cfg}", "--param", "upstream", "--values", "10", "--seed-re", "1"],
    ["profile", "--config", "{cfg}", "--points", "0"],
    ["profile", "--config", "{cfg}", "--tol", "1e-6"],
    ["profile", "--config", "{cfg}", "--M", "5"],
    ["evans", "--config", "{cfg}", "--lambda-re", "1", "--tol", "nan"],
    ["evans", "--config", "{cfg}", "--lambda-re", "1", "--tol", "inf"],
    ["evans", "--config", "{cfg}", "--lambda-re", "1", "--M", "nan"],
    ["evans", "--config", "{cfg}", "--lambda-re", "1", "--M", "inf"],
    ["evans", "--config", "{cfg}", "--lambda-re", "nan"],
    ["contour", "--config", "{cfg}", "--radius", "2", "--tol", "nan"],
    ["bench", "--table", "1", "--tol", "nan"],
    ["roots", "--config", "{cfg}", "--param", "EA", "--values", "10", "--seed-re", "1",
     "--M", "1"],
    ["roots", "--config", "{cfg}", "--param", "EA", "--values", "nan", "--seed-re", "1"],
    ["roots", "--config", "{cfg}", "--param", "EA", "--values", "10", "--seed-re", "1",
     "--root-tol", "nan"],
])
def test_bad_argument_exits_2(argv, cfg_path, tmp_path):
    argv = [a.format(cfg=cfg_path) for a in argv] + ["--out", str(tmp_path / "x.out")]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags itself
        rc = exc.code
    assert rc == 2


@pytest.mark.parametrize("argv, outputs", [
    (["profile", "--config", "{cfg}", "--points", "40"], ("",)),
    (["evans", "--config", "{cfg}", "--lambda-re", "1.5", "--lambda-im", "0.5"], ("",)),
    (["contour", "--config", "{cfg}", "--radius", "2"], ("", ".winding.json")),
    (["bench", "--table", "2"], ("",)),
], ids=["profile", "evans", "contour", "bench"])
def test_byte_identical_reruns(argv, outputs, cfg_path, tmp_path):
    # data files hold no timestamp; a JSON record names its manifest, so the
    # output's own name is blanked before comparing
    argv = [a.format(cfg=cfg_path) for a in argv]
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    for out in (a, b):
        assert main(argv + ["--out", str(out)]) == 0
    for suffix in outputs:
        assert (Path(f"{a}{suffix}").read_bytes().replace(b"a.out", b"")
                == Path(f"{b}{suffix}").read_bytes().replace(b"b.out", b""))


def test_profile_points_error_names_range(cfg_path, tmp_path, capsys):
    rc = main(["profile", "--config", cfg_path, "--points", "0", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "at least 1" in capsys.readouterr().err


def test_loose_tol_on_a_shock_exits_2_naming_tol(shock_path, tmp_path, capsys):
    # the depth rule would start the solve at the shock; it is refused
    rc = main(["evans", "--config", shock_path, "--lambda-re", "1", "--tol", "20",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "tol = 20 is too loose" in capsys.readouterr().err


def test_negative_M_error_names_M(cfg_path, tmp_path, capsys):
    rc = main(["evans", "--config", cfg_path, "--lambda-re", "1", "--M", "-1",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "M must be positive" in capsys.readouterr().err


def test_manifest_hashes_config_the_run_used(cfg_path, tmp_path, monkeypatch):
    # the wave file is rewritten while the run is under way; the manifest
    # must describe the configuration the result was computed from
    real_evaluate = cli.evaluate

    def evaluate_then_rewrite(*args, **kw):
        result = real_evaluate(*args, **kw)
        with open(cfg_path, "w") as fh:
            fh.write(config_to_json(replace(default_config(), EA=20.0)))
        return result

    monkeypatch.setattr(cli, "evaluate", evaluate_then_rewrite)
    out = tmp_path / "ev.json"
    assert main(["evans", "--config", cfg_path, "--lambda-re", "1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "ev.json.manifest.json").read_text())
    assert manifest["config_sha256_16"] == default_config().digest()


class TestRoundTrip:
    """Every emitted file parses back through the package's own readers."""

    @pytest.mark.parametrize("reader, other", [
        (cli.read_profile_csv, ["contour", "--config", "{shock}", "--radius", "1"]),
        (cli.read_contour_csv, ["profile", "--config", "{shock}", "--points", "3"]),
        (cli.read_bench_csv, ["profile", "--config", "{shock}", "--points", "3"]),
    ], ids=["profile", "contour", "bench"])
    def test_reader_rejects_another_commands_csv(self, reader, other, shock_path, tmp_path):
        out = tmp_path / "other.csv"
        assert main([a.format(shock=shock_path) for a in other] + ["--out", str(out)]) == 0
        with pytest.raises(ValueError, match=re.escape(str(out))):
            reader(out)

    def test_profile_csv(self, cfg_path, tmp_path):
        out = tmp_path / "prof.csv"
        main(["profile", "--config", cfg_path, "--out", str(out), "--points", "30"])
        cols = cli.read_profile_csv(out)
        assert set(cols) == {"y", "x", "rho", "u", "e", "Y", "p", "T"}
        assert len(cols["y"]) == 30
        assert cols["y"][0] == 0.0

    def test_contour_csv(self, shock_path, tmp_path):
        out = tmp_path / "contour.csv"
        main(["contour", "--config", shock_path, "--radius", "1", "--out", str(out)])
        nodes, values = cli.read_contour_csv(out)
        assert nodes[0] == nodes[-1]
        assert np.all(np.abs(values) > 0)

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "t2.csv"
        main(["bench", "--table", "2", "--out", str(out)])
        rows = cli.read_bench_csv(out)
        assert len(rows) == 66
        assert all(r["variant"] == "unfactored" for r in rows)
        assert all(r["mesh_points"] >= 2 for r in rows)

    @pytest.mark.parametrize("method", ["neutral", "lee-stewart"])
    def test_evans_json(self, cfg_path, tmp_path, method):
        from zndevans.evans import evaluate

        out = tmp_path / "ev.json"
        main(["evans", "--config", cfg_path, "--lambda-re", "1.5",
              "--lambda-im", "-0.5", "--method", method, "--out", str(out)])
        rec = json.loads(out.read_text())
        lam = complex(*rec["lambda"])
        assert lam == 1.5 - 0.5j
        wave = build_wave(default_config())
        fresh = evaluate(wave, lam, method=method.replace("-", "_"))
        assert rec["accepted_steps"] == fresh.stats.accepted_steps
        kappa = complex(*rec["kappa_to_neutral"])
        assert kappa == fresh.kappa_to_neutral
        neutral = evaluate(wave, lam).D
        assert abs(complex(*rec["D"]) * kappa - neutral) <= 1e-3 * abs(neutral)

    def test_config_json(self, cfg_path):
        from zndevans.znd import config_from_json, default_config

        assert config_from_json(Path(cfg_path).read_text()) == default_config()


def test_package_import_loads_no_cli():
    # the CSV readers live in cli; the package must not pull it (or argparse)
    # into every ``import zndevans``
    code = "import sys, zndevans; print(sorted({'zndevans.cli', 'argparse'} & set(sys.modules)))"
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"
