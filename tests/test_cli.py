import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hoytmimo
from hoytmimo.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, tmp_path=None):
    """Invoke the entry point in-process and capture stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def read_csv_text(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


class TestDensityCommand:
    def test_curve_integrates_to_one(self, tmp_path):
        # on a grid wide enough to hold the tail, the emitted marginal
        # curve carries unit mass under the trapezoid rule
        out = tmp_path / "d.csv"
        code, _ = run_cli(
            ["density", "--nt", "2", "--nr", "2", "--q", "0.5", "--grid", "0:24:600",
             "--output", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 600
        lam = np.array([float(r["lambda"]) for r in rows])
        rho = np.array([float(r["rho_analytic"]) for r in rows])
        assert np.trapezoid(rho, lam) == pytest.approx(1.0, abs=1e-3)

    def test_truncated_grid_matches_in_range_mass(self, tmp_path):
        # the 0:8 grid of the short example holds ~0.98 of the mass; the
        # emitted curve must integrate to exactly that in-range fraction
        from hoytmimo.ensemble import ChannelConfig, level_density
        from scipy.integrate import quad

        out = tmp_path / "d.csv"
        code, _ = run_cli(
            ["density", "--nt", "2", "--nr", "2", "--q", "0.5", "--grid", "0:8:200",
             "--output", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        lam = np.array([float(r["lambda"]) for r in rows])
        rho = np.array([float(r["rho_analytic"]) for r in rows])
        cfg = ChannelConfig(2, 2)
        mass, _ = quad(
            lambda u: u * level_density(u * u, cfg, 0.5), 0.0, math.sqrt(8.0),
            epsabs=0.0, epsrel=1e-9, limit=200,
        )
        assert np.trapezoid(rho, lam) == pytest.approx(mass, abs=1e-3)

    def test_asymptotic_column_plot_scale(self, tmp_path):
        out = tmp_path / "d.csv"
        code, _ = run_cli(
            ["density", "--nt", "16", "--nr", "16", "--q", "1", "--grid", "0:64:129",
             "--asymptotic", "--output", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        lam = np.array([float(r["lambda"]) for r in rows])
        rho = np.array([float(r["rho_analytic"]) for r in rows])
        mp = np.array([float(r["rho_mp"]) for r in rows])
        # away from the edges the asymptotic column tracks the analytic one
        # at plot scale (2% of the curve peak)
        central = (lam > 6.4) & (lam < 57.6)
        peak = rho[lam > 0].max()
        assert np.max(np.abs(rho[central] - mp[central])) <= 0.02 * peak

    def test_simulate_columns(self, tmp_path):
        out = tmp_path / "d.csv"
        code, _ = run_cli(
            ["density", "--nt", "2", "--nr", "2", "--q", "1", "--grid", "0:10:41",
             "--simulate", "--samples", "20000", "--seed", "5", "--output", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 40  # bin centers
        assert {"lambda", "rho_analytic", "rho_empirical", "stderr"} <= set(rows[0])
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["seed"] == 5

    def test_json_format(self):
        code, text = run_cli(
            ["density", "--nt", "2", "--nr", "3", "--q", "0.3", "--grid", "0:5:11",
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["config"]["tau"] == pytest.approx(math.log(1.09 / 0.91))
        assert len(doc["rows"]) == 11

    def test_tau_flag(self, tmp_path):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        tau = math.log(5.0 / 3.0)
        assert run_cli(["density", "--nt", "2", "--nr", "2", "--q", "0.5",
                        "--grid", "0:4:5", "--output", str(o1)])[0] == 0
        assert run_cli(["density", "--nt", "2", "--nr", "2", "--tau", f"{tau!r}",
                        "--grid", "0:4:5", "--output", str(o2)])[0] == 0
        assert o1.read_text() == o2.read_text()

    def test_golden_regression(self):
        # frozen curves for the benchmark antenna setups; criterion 2
        # cross-validates the same configurations against Monte Carlo
        from hoytmimo.ensemble import ChannelConfig, level_density

        for path in sorted(GOLDEN.glob("density_*.csv")):
            meta = json.loads((path.parent / (path.name + ".meta.json")).read_text())
            cfg = ChannelConfig(meta["config"]["nt"], meta["config"]["nr"])
            q = meta["config"]["q"]
            rows = list(csv.DictReader(path.open()))
            assert len(rows) == 61
            for row in rows[:: 12]:
                lam = float(row["lambda"])
                expect = float(row["rho_analytic"])
                got = level_density(lam, cfg, q) / cfg.n
                if math.isinf(expect):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)


class TestCapacityCommand:
    def test_monotone_rows(self):
        code, text = run_cli(
            ["capacity", "--nt", "4", "--nr", "4", "--q", "1", "--power-db", "0,30"]
        )
        assert code == 0
        rows = read_csv_text(text)
        assert float(rows[0]["capacity"]) > 0.0
        assert float(rows[0]["capacity"]) < float(rows[1]["capacity"])

    def test_crossover_bracketed(self):
        code, text = run_cli(
            ["capacity", "--nt", "3", "--nr", "3", "--q", "0,0.5,1", "--power-db", "15"]
        )
        rows = read_csv_text(text)
        caps = [float(r["capacity"]) for r in rows]
        assert caps[0] < caps[1] < caps[2]

    def test_power_linear_flag(self):
        # 5 linear units = 10 log10(5) dB, and differs from 5 dB
        _, t_db = run_cli(["capacity", "--nt", "2", "--nr", "2", "--q", "1",
                           "--power-db", "5"])
        _, t_lin = run_cli(["capacity", "--nt", "2", "--nr", "2", "--q", "1",
                            "--power-db", "5", "--power-linear"])
        _, t_ref = run_cli(["capacity", "--nt", "2", "--nr", "2", "--q", "1",
                            "--power-db", repr(10.0 * math.log10(5.0))])
        c_db = float(read_csv_text(t_db)[0]["capacity"])
        c_lin = float(read_csv_text(t_lin)[0]["capacity"])
        c_ref = float(read_csv_text(t_ref)[0]["capacity"])
        assert c_lin == pytest.approx(c_ref, rel=1e-10)
        assert abs(c_lin - c_db) > 1e-3


class TestDegradationCommand:
    def test_reference_value(self):
        code, text = run_cli(
            ["degradation", "--nt", "2", "--nr", "2", "--power-db", "15"]
        )
        assert code == 0
        rows = read_csv_text(text)
        assert float(rows[0]["degradation"]) == pytest.approx(0.0833, abs=0.0015)


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--nt", "2", "--nr", "2", "--q", "1", "--samples",
                "5000", "--bins", "12", "--seed", "9"]
        assert run_cli(args + ["--output", str(a)])[0] == 0
        assert run_cli(args + ["--output", str(b)])[0] == 0
        assert a.read_text() == b.read_text()

    def test_matches_analytic_per_bin(self, tmp_path):
        from hoytmimo.ensemble import ChannelConfig, level_density

        out = tmp_path / "s.csv"
        code, _ = run_cli(
            ["simulate", "--nt", "2", "--nr", "2", "--q", "1", "--samples", "50000",
             "--bins", "30", "--seed", "4", "--output", str(out)]
        )
        assert code == 0
        cfg = ChannelConfig(2, 2)
        ok = 0
        rows = list(csv.DictReader(out.open()))
        for row in rows:
            mid = 0.5 * (float(row["bin_lo"]) + float(row["bin_hi"]))
            expect = level_density(mid, cfg, 1.0) / cfg.n
            dev = abs(float(row["density"]) - expect)
            ok += dev <= 3.0 * max(float(row["stderr"]), 1e-300)
        assert ok >= 0.9 * len(rows)

    def test_metadata_trace_moment(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["simulate", "--nt", "2", "--nr", "3", "--q", "0.5", "--samples",
                 "1000", "--bins", "8", "--seed", "1", "--output", str(out)])
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["expected_trace_moment"] == 6.0
        assert meta["observed_trace_moment"] == pytest.approx(6.0, rel=0.15)
        assert meta["samples"] == 1000


class TestValidateCommand:
    def test_quick_passes(self):
        code, text = run_cli(["validate", "--quick"])
        assert code == 0
        doc = json.loads(text)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_tighter_tolerance_same_verdicts(self):
        _, t1 = run_cli(["validate", "--quick"])
        _, t2 = run_cli(["validate", "--quick", "--rel-tol", "1e-12"])
        v1 = [c["passed"] for c in json.loads(t1)["checks"]]
        v2 = [c["passed"] for c in json.loads(t2)["checks"]]
        assert v1 == v2


class TestCorrelationsCommand:
    def test_r2_against_jpd(self, tmp_path):
        from hoytmimo.ensemble import ChannelConfig, jpd

        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[1.0, 2.0], [0.5, 3.5]]}))
        code, text = run_cli(
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
             "--points-file", str(pts), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        cfg = ChannelConfig(2, 2)
        for row in doc["rows"]:
            expect = 2.0 * jpd(row["points"], cfg, 0.5)
            assert row["r_n"] == pytest.approx(expect, rel=1e-6)
            assert row["repulsion_violated"] is False

    def test_n1_matches_density_command(self, tmp_path):
        code, text = run_cli(
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
             "--points", "1.0;2.0;3.0", "--format", "json"]
        )
        doc = json.loads(text)
        from hoytmimo.ensemble import ChannelConfig, level_density

        cfg = ChannelConfig(2, 2)
        for row in doc["rows"]:
            assert row["r_n"] == pytest.approx(
                level_density(row["points"][0], cfg, 0.5), rel=1e-10
            )

    def test_rejects_order_above_n(self):
        code, _ = run_cli(
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
             "--points", "1.0,2.0,3.0"]
        )
        assert code == 2


class TestCliContract:
    def test_missing_q_is_usage_error(self):
        code, _ = run_cli(["density", "--nt", "2", "--nr", "2", "--grid", "0:4:5"])
        assert code == 2

    def test_both_q_and_tau_rejected(self):
        # argparse mutual exclusion exits with its own usage error
        with pytest.raises(SystemExit) as exc:
            run_cli(["density", "--nt", "2", "--nr", "2", "--q", "0.5",
                     "--tau", "1.0", "--grid", "0:4:5"])
        assert exc.value.code == 2

    def test_bad_grid_is_usage_error(self):
        code, _ = run_cli(["density", "--nt", "2", "--nr", "2", "--q", "0.5",
                           "--grid", "oops"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--nt", "0", "--nr", "2", "--q", "0.5", "--samples", "10"],
            ["density", "--nt", "2", "--nr", "2", "--q", "0.5", "--grid", "0:1:3", "--omega", "-1"],
            ["capacity", "--nt", "2", "--nr", "2", "--q", ",", "--power-db", "10"],
            ["capacity", "--nt", "2", "--nr", "2", "--q", "0.5", "--power-db", "-1", "--power-linear"],
            ["simulate", "--nt", "2", "--nr", "2", "--q", "0.5", "--samples", "0"],
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0.5", "--points", "-1"],
            ["simulate", "--nt", "2", "--nr", "2", "--q", "0.5", "--samples", "10", "--range", "1:2:3"],
            ["simulate", "--nt", "2", "--nr", "2", "--q", "0.5", "--samples", "10", "--range", "3:1"],
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0.5", "--points-file", "{no_points}"],
        ],
    )
    def test_invalid_input_is_usage_error(self, argv, tmp_path, capsys):
        # one "error:" line on stderr and exit 2, never a traceback
        no_points = tmp_path / "sets.json"
        no_points.write_text(json.dumps({"sets": [[1.0]]}))
        code, _ = run_cli([arg.format(no_points=no_points) for arg in argv])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_truncation_failure_exit_code(self):
        code, _ = run_cli(
            ["density", "--nt", "2", "--nr", "2", "--tau", "0.005", "--grid",
             "1:2:3", "--max-terms", "40"]
        )
        assert code == 3

    def test_linalg_failure_is_numerical(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is not a usage error
        def fail(mat):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr("hoytmimo.ensemble.linalg.determinant_signed_log", fail)
        code, _ = run_cli(["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
                           "--points", "1,2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_config_file_defaults(self, tmp_path):
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("# defaults\nnt=2\nnr=2\ngrid=0:4:5\n")
        for config_args in (["--config", str(cfgfile)], [f"--config={cfgfile}"]):
            code, text = run_cli(config_args + ["density", "--q", "1", "--format", "json"])
            assert code == 0
            doc = json.loads(text)
            assert doc["config"]["nt"] == 2 and len(doc["rows"]) == 5

    def test_flags_beat_config_file(self, tmp_path):
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("nt=2\nnr=2\ngrid=0:4:5\nq=1\n")
        code, text = run_cli(["--config", str(cfgfile), "density", "--nr", "3",
                              "--q", "0.5", "--format", "json"])
        assert code == 0
        assert json.loads(text)["config"]["nr"] == 3

    def test_console_script_runs(self):
        # the child imports the same hoytmimo as this process, installed or not
        src = str(Path(hoytmimo.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "hoytmimo.cli", "degradation", "--nt", "2",
             "--nr", "2", "--power-db", "15"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "degradation" in proc.stdout
