import argparse
import csv
import io
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
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def read_csv_text(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


# correlations command lines frozen in tests/golden/<name>.csv, .csv.meta.json
# and .json: a points file with rows of every order n = 1..N, and a square
# array's origin at q = 0, where R_n is +inf
CORRELATION_CASES = {
    "correlations_nt3_nr4_q0.35": (
        ["--nt", "3", "--nr", "4", "--q", "0.35"],
        {"points": [[0.7], [0.4, 1.9], [0.3, 1.1, 2.6]]},
    ),
    "correlations_nt2_nr2_q0": (
        ["--nt", "2", "--nr", "2", "--q", "0"],
        [[0.0], [1.25], [0.0, 1.0], [0.5, 3.5]],
    ),
}


def correlation_documents(name, tmp_path):
    """The bytes correlations writes for CORRELATION_CASES[name], by golden suffix."""
    flags, points = CORRELATION_CASES[name]
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    argv = ["correlations", *flags, "--points-file", str(pts)]
    csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
    docs = {}
    for fmt, out, suffix in (("csv", csv_out, ".csv"), ("json", json_out, ".json")):
        code, text = run_cli(argv + ["--format", fmt])
        assert code == 0
        assert run_cli(argv + ["--format", fmt, "--output", str(out)]) == (0, "")
        assert out.read_bytes() == text.encode()
        docs[suffix] = out.read_bytes()
    docs[".csv.meta.json"] = Path(str(csv_out) + ".meta.json").read_bytes()
    assert not Path(str(json_out) + ".meta.json").exists()
    return docs


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

    def test_asymptotic_rows_are_density_mp(self):
        # the grid's one density_mp call gives each row's value as a call on its own lambda does
        from hoytmimo.ensemble import ChannelConfig, density_mp

        for nt, nr, grid in ((2, 2, "0.013:10.2:401"), (4, 4, "0:20:401"), (3, 6, "0:25:101")):
            code, text = run_cli(["density", "--nt", str(nt), "--nr", str(nr), "--q", "0.5",
                                  "--grid", grid, "--asymptotic", "--format", "json"])
            assert code == 0
            cfg = ChannelConfig(nt, nr)
            for row in json.loads(text)["rows"]:
                assert row["rho_mp"] == density_mp(row["lambda"], cfg) / cfg.n

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

    @pytest.mark.parametrize(
        "extra,points", [([], 41), (["--simulate", "--samples", "200", "--seed", "1"], 40)]
    )
    def test_one_density_call_per_grid(self, monkeypatch, extra, points):
        # the whole grid, or every bin centre, goes to one array evaluation
        import hoytmimo.cli as cli

        shapes = []
        inner = cli.level_density

        def counted(lam, *args):
            shapes.append(np.shape(lam))
            return inner(lam, *args)

        monkeypatch.setattr(cli, "level_density", counted)
        code, _ = run_cli(
            ["density", "--nt", "2", "--nr", "2", "--q", "0.5", "--grid", "0:8:41", "--format", "json"]
            + extra
        )
        assert code == 0
        assert shapes == [(points,)]

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

    def test_tau_list_is_the_q_list(self):
        # --tau t gives the table of --q q(t), q(t) passed as its repr, byte for byte
        from hoytmimo.cli import _q_from_tau

        taus = ["0", "0.3", "2.5", "inf"]
        common = ["capacity", "--nt", "2", "--nr", "3", "--power-db", "0,20"]
        by_tau = run_cli(common + ["--tau", ",".join(taus)])
        by_q = run_cli(common + ["--q", ",".join(repr(_q_from_tau(float(t))) for t in taus)])
        assert by_tau[0] == 0 and by_tau == by_q

    def test_golden_regression(self, tmp_path):
        # the frozen table of the README example, widened to more q and powers
        path = GOLDEN / "capacity_nt3_nr3.csv"
        out = tmp_path / "c.csv"
        code, _ = run_cli(["capacity", "--nt", "3", "--nr", "3", "--q", "0,0.06,0.5,1",
                           "--power-db=-10,5,15,30,40", "--output", str(out)])
        assert code == 0
        meta = Path(str(out) + ".meta.json").read_text()
        assert meta == (path.parent / (path.name + ".meta.json")).read_text()
        expect = list(csv.DictReader(path.open()))
        got = list(csv.DictReader(out.open()))
        assert len(got) == len(expect) == 20
        for g, e in zip(got, expect):
            assert (g["q"], g["power_db"]) == (e["q"], e["power_db"])
            assert float(g["capacity"]) == pytest.approx(float(e["capacity"]), rel=1e-12, abs=0.0)
            # the error estimate is a difference of two rules, so it is held to the capacity's scale
            assert float(g["est_abs_error"]) == pytest.approx(
                float(e["est_abs_error"]), rel=0.0, abs=1e-12 * float(e["capacity"])
            )


    def test_tail_past_the_cutoff_is_a_numerical_failure(self, monkeypatch, capsys):
        # no tail can fall below a zero bound, so the extensions run out
        monkeypatch.setattr("hoytmimo.capacity._TAIL_ABS", 0.0)
        code, text = run_cli(["capacity", "--nt", "2", "--nr", "2", "--q", "0.5", "--power-db", "10"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and text == ""
        assert err == ["numerical failure: capacity tail did not fall below the cutoff bound"]


class TestDegradationCommand:
    def test_reference_value(self):
        code, text = run_cli(
            ["degradation", "--nt", "2", "--nr", "2", "--power-db", "15"]
        )
        assert code == 0
        rows = read_csv_text(text)
        assert float(rows[0]["degradation"]) == pytest.approx(0.0833, abs=0.0015)

    def test_several_powers_match_single_calls(self):
        # one sweep over q = 0 and 1 serves every power, bit for bit as degradation alone
        from hoytmimo.capacity import db_to_linear, degradation
        from hoytmimo.ensemble import ChannelConfig

        code, text = run_cli(["degradation", "--nt", "3", "--nr", "3",
                              "--power-db=-10,5,15,15,30", "--format", "json"])
        assert code == 0
        rows = json.loads(text)["rows"]
        assert [r["power_db"] for r in rows] == [-10.0, 5.0, 15.0, 15.0, 30.0]
        cfg = ChannelConfig(3, 3)
        for r in rows:
            assert r["degradation"] == degradation(cfg, db_to_linear(r["power_db"]))


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


    def test_spectrum_below_the_floor_is_a_numerical_failure(self, monkeypatch, capsys):
        from hoytmimo import montecarlo

        inner = montecarlo._eigenvalues

        def below(cfg, h):
            vals = inner(cfg, h)
            vals[:, 0] = -vals[:, -1]
            return vals

        monkeypatch.setattr(montecarlo, "_eigenvalues", below)
        code, text = run_cli(["simulate", "--nt", "2", "--nr", "2", "--q", "0.5", "--samples",
                              "100", "--bins", "5"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and text == ""
        assert len(err) == 1 and err[0].startswith("numerical failure: eigenvalue below the PSD")


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

    def test_full_suite_passes(self):
        # every check, the n = 3 ones included, through the command line
        code, text = run_cli(["validate"])
        doc = json.loads(text)
        assert code == 0 and doc["passed"] is True and doc["quick"] is False
        assert all(c["passed"] for c in doc["checks"])
        assert any("n3" in c["name"] for c in doc["checks"])

    def test_one_document_whatever_the_format_source(self, tmp_path):
        # --format json, and a config file's format for every command, write
        # the bytes of the default
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("format=csv\n")
        out = tmp_path / "v.json"
        code, text = run_cli(["validate", "--quick"])
        assert code == 0 and text.startswith('{\n  "schema_version": 1,\n  "command": "validate"')
        assert run_cli(["validate", "--quick", "--format", "json", "--output", str(out)]) == (0, "")
        assert out.read_text() == text
        assert run_cli(["--config", str(cfgfile), "validate", "--quick"]) == (0, text)

    def test_csv_format_is_rejected(self, capsys):
        # validate writes JSON only; argparse refuses csv
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", "--quick", "--format", "csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith("argument --format: invalid choice: 'csv' (choose from 'json')")


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

    def test_point_at_origin_q0(self):
        # a square array's density edge at lambda = 0: R_2 is +inf, not a failure
        code, text = run_cli(
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0",
             "--points", "0,1", "--format", "json"]
        )
        assert code == 0
        assert float(json.loads(text)["rows"][0]["r_n"]) == math.inf

    def test_undefined_value_is_a_numerical_failure(self, capsys):
        # an infinite edge weight at 0 meets a determinant that underflows
        code, text = run_cli(
            ["correlations", "--nt", "5", "--nr", "5", "--omega", "1.3", "--q", "0",
             "--points", "6.5,900,2000,0"]
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and text == ""
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    def test_undefined_value_writes_one_stderr_line(self):
        # in a fresh interpreter, where no test harness captures numpy's warnings
        src = str(Path(hoytmimo.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "hoytmimo.cli", "correlations", "--nt", "5", "--nr", "5",
             "--omega", "1.3", "--q", "0", "--points", "6.5,900,2000,0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 3 and proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    def test_rejects_order_above_n(self):
        code, _ = run_cli(
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
             "--points", "1.0,2.0,3.0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"points": [1, 2]},
            {"points": 5},
            {"points": [[None]]},
            "abc",
            {"points": [{"a": 1}]},
            {"points": [[True, 1.0]]},
            {"points": [[10**400]]},
        ],
    )
    def test_malformed_points_file_is_usage_error(self, doc, tmp_path, capsys):
        # only a list of lists of JSON numbers is read; booleans are not numbers
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
                           "--points-file", str(path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]

    def test_points_file_bare_list_of_ints(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[1, 2], [3.5]]))
        code, text = run_cli(["correlations", "--nt", "2", "--nr", "2", "--q", "0.5",
                              "--points-file", str(path), "--format", "json"])
        assert code == 0
        assert [row["points"] for row in json.loads(text)["rows"]] == [[1.0, 2.0], [3.5]]

    @pytest.mark.parametrize("name", sorted(CORRELATION_CASES))
    def test_documents_golden(self, name, tmp_path):
        # CSV on stdout and in a file with its sidecar, and JSON on stdout and
        # in a file, byte for byte as tests/golden/<name>.* freeze them
        docs = correlation_documents(name, tmp_path)
        for suffix, data in docs.items():
            assert data == (GOLDEN / (name + suffix)).read_bytes(), suffix


def test_csv_list_and_missing_cells(capsys):
    # a list cell is the ';'-join of its items' repr; a missing cell is empty
    from hoytmimo.cli import _write_rows

    args = argparse.Namespace(format="csv", output=None)
    rows = [{"n": 2, "points": [0.1, 2.0], "flag": False}, {"n": 1, "points": [1e-300]},
            {"n": 0, "points": []}]
    _write_rows(args, ["n", "points", "flag"], rows, {})
    assert capsys.readouterr().out == "n,points,flag\r\n2,0.1;2.0,False\r\n1,1e-300,\r\n0,,\r\n"


def strict_json(text):
    """Parse as RFC 8259 does: Infinity, -Infinity and NaN are not JSON."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Every JSON document the CLI writes parses with a strict parser."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--nt", "2", "--nr", "2", "--q", "1", "--grid", "0.5:1:2"],
            ["capacity", "--nt", "2", "--nr", "2", "--q", "1", "--power-db", "10"],
            ["degradation", "--nt", "2", "--nr", "2", "--power-db", "10"],
            ["simulate", "--nt", "2", "--nr", "2", "--q", "1", "--samples", "200",
             "--bins", "4", "--seed", "3"],
            ["correlations", "--nt", "2", "--nr", "2", "--q", "1", "--points", "0.5,1.5"],
        ],
    )
    def test_q1_documents(self, argv):
        code, text = run_cli(argv + ["--format", "json"])
        assert code == 0
        doc = strict_json(text)
        if "q" in doc["config"]:
            assert float(doc["config"]["tau"]) == math.inf

    def test_q1_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli(["density", "--nt", "2", "--nr", "2", "--q", "1", "--grid", "0.5:1:2",
                        "--output", str(out)])[0] == 0
        meta = strict_json((tmp_path / "d.csv.meta.json").read_text())
        assert meta["config"]["tau"] == "inf"

    def test_infinite_value(self):
        # a square array's R_2 with a point at lambda = 0 is +inf at q = 0
        code, text = run_cli(
            ["correlations", "--nt", "2", "--nr", "2", "--q", "0",
             "--points", "0,1", "--format", "json"]
        )
        assert code == 0
        assert strict_json(text)["rows"][0]["r_n"] == "inf"

    def test_validate_document(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli(["validate", "--quick", "--output", str(out)])[0] == 0
        assert strict_json(out.read_text())["passed"] is True

    def test_finite_values_unchanged(self):
        from hoytmimo.cli import _json_text

        doc = {"a": [1.5, -0.0, 2, None, True], "b": {"c": math.inf, "d": -math.inf}}
        assert strict_json(_json_text(doc)) == {
            "a": [1.5, -0.0, 2, None, True], "b": {"c": "inf", "d": "-inf"}
        }
        assert strict_json(_json_text([math.nan]))[0] == "nan"

    @pytest.mark.parametrize(
        "doc",
        [
            {"schema_version": 1, "config": {"nt": 2, "q": 0.5, "inner": {"a": [1, [2.5, {}]], "b": []}},
             "rows": [{"x": 0.1, "y": -2e-300, "n": 3, "ok": True, "s": None}, {"x": 1e300, "y": 7}]},
            {"config": {"tau": math.inf}, "rows": [{"r": math.nan, "s": -math.inf}, {"r": 1.0}]},
            {"command": "simulate", "rows": []},
            {"rows": [{}], "empty": {}, "list": [[]]},
            {"note": "λ ≥ 0, ☃ \ud83d", "rows": [{"name": "ω = 1.3 ☃", "v": "}\u0000{\"\\"}]},
            {"rows": [{"points": [0.5, 1.5], "r_n": 0.25}, {"points": [], "nested": {"k": 1}}]},
            {"rows": [{"a": "}", "b": "{"}, {"a": "x{", "b": "}y"}], "tail": "]}"},
            {1: "non-string key", "rows": [{2: 3}]},
            {},
            [{"a": 1}],
        ],
    )
    def test_layout_is_that_of_the_indenting_encoder(self, doc):
        # rows go through the C encoder; the bytes are json.dumps(indent=2)'s
        from hoytmimo.cli import _finite_json, _json_text

        try:
            ref = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            ref = json.dumps(_finite_json(doc), indent=2, allow_nan=False)
        assert _json_text(doc) == ref

    def test_finite_document_is_not_walked(self, monkeypatch):
        # a finite document goes to json as it is, in the bytes the walked copy gives
        import hoytmimo.cli as cli

        doc = {"t": (1.5, np.float64(0.1), -0.0), "rows": [{"x": np.float64(2.0) / 3.0, "n": 3}]}
        walked = json.dumps(cli._finite_json(doc), indent=2, allow_nan=False)
        calls = []
        monkeypatch.setattr(cli, "_finite_json", lambda v: calls.append(v) or v)
        assert cli._json_text(doc) == walked
        assert calls == []


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
            ["capacity", "--nt", "2", "--nr", "2", "--q", "1", "--power-db", "4000"],
            ["degradation", "--nt", "2", "--nr", "2", "--power-db", "4000"],
            ["capacity", "--nt", "2", "--nr", "2", "--q", "1", "--power-db", "inf"],
            ["degradation", "--nt", "2", "--nr", "2", "--power-db", "inf"],
            ["capacity", "--nt", "2", "--nr", "2", "--q", "1", "--power-db", "1e400", "--power-linear"],
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

    def test_builds_only_the_invoked_subparser(self, monkeypatch, tmp_path):
        built = []
        inner = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            built.append(name)
            return inner(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        code, _ = run_cli(["capacity", "--nt", "2", "--nr", "2", "--q", "1", "--power-db", "10"])
        assert code == 0 and built == ["capacity"]
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("nt=2\nnr=2\n")
        built.clear()
        code, _ = run_cli(["--config", str(cfgfile), "density", "--q", "1", "--grid", "0:4:5"])
        assert code == 0 and built == ["density"]

    def test_unknown_config_format_is_usage_error(self, tmp_path, capsys):
        # a config value never meets argparse's choices; the writer refuses it
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("format=xml\n")
        out = tmp_path / "d.csv"
        code, text = run_cli(["--config", str(cfgfile), "degradation", "--nt", "2", "--nr", "2",
                              "--power-db", "15", "--output", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and text == "" and not out.exists()
        assert err == ["error: unknown format 'xml'; expected csv or json"]

    def test_config_key_of_another_subcommand_is_ignored(self, tmp_path):
        # samples is a density and simulate option; capacity runs as without it
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("nt=2\nnr=2\nsamples=10\n")
        argv = ["capacity", "--q", "1", "--power-db", "10", "--format", "json"]
        code, text = run_cli(["--config", str(cfgfile)] + argv)
        assert code == 0
        assert text == run_cli(argv + ["--nt", "2", "--nr", "2"])[1]

    def test_config_defaults_do_not_outlive_the_call(self, tmp_path):
        cfgfile = tmp_path / "conf"
        cfgfile.write_text("nt=2\nnr=2\nomega=2\ngrid=0:4:5\n")
        code, text = run_cli(["--config", str(cfgfile), "density", "--q", "1", "--format", "json"])
        assert code == 0 and json.loads(text)["config"]["omega"] == 2.0
        code, text = run_cli(["density", "--nt", "2", "--nr", "2", "--q", "1", "--grid", "0:4:5",
                              "--format", "json"])
        assert code == 0 and json.loads(text)["config"]["omega"] == 1.0

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


# Command lines whose help, usage and error texts tests/golden/cli_help.txt
# freezes: each subcommand's help, the top-level help and errors (which list
# all six subcommands) and errors met inside one subcommand.
HELP_CASES = (
    ["--help"],
    *([cmd, "--help"] for cmd in
      ("density", "capacity", "degradation", "simulate", "validate", "correlations")),
    ["density", "--bogus"],
    ["bogus"],
    [],
    ["capacity", "--q", "0.5", "--tau", "1"],
    ["capacity", "--nt", "x"],
    ["-h", "density"],
    ["--bogus", "density"],
    ["--config"],
)


def help_transcript() -> str:
    """Exit code, stdout and stderr of main on each of HELP_CASES, in-process."""
    from contextlib import redirect_stderr, redirect_stdout

    parts = []
    for argv in HELP_CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        parts.append(f"$ {' '.join(['hoytmimo', *argv])}\nexit {code}\n"
                     f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(parts)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help per Python version; the golden file is 3.11's")
def test_help_golden(monkeypatch):
    # written with COLUMNS=80 by help_transcript at the commit before the
    # parser was built per subcommand; an intended text change rewrites it
    monkeypatch.setenv("COLUMNS", "80")
    assert help_transcript() == (GOLDEN / "cli_help.txt").read_text()
