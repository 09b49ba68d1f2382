"""The benchmark's four workloads: their inputs, operations and checks.

A workload builds one round of operations from a numpy generator seeded
by (workload seed, round).  Every round holds the same operations; only
powers, grid ends, point sets and simulator seeds move with the seed.
Operations reach the program through ``hoytmimo.cli.main`` and the public
functions, looked up on their modules at call time so that a traced round
sees them wrapped.  Checks read the outputs after the timed section and
compare them with ``oracles`` or with properties the method must have;
none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import hoytmimo.cli
import hoytmimo.ensemble
import hoytmimo.montecarlo
from hoytmimo.ensemble import ChannelConfig

# The paper's capacity degradation 1 - C(q=0)/C(q=1) at 15 dB.
PAPER_DEGRADATION = {2: 0.0833, 3: 0.0596, 4: 0.0463}
DEGRADATION_TOL = 0.0015


@dataclass
class Op:
    kind: str  # the rate the op's units count toward
    label: str
    call: object  # () -> result
    units: int  # values a successful op yields
    expect_failure: bool = False
    seconds: float = 0.0
    ref_seconds: float = 0.0  # seconds at the reference host speed
    result: object = None
    error: str | None = None  # set when the op failed
    info: dict = field(default_factory=dict)  # inputs the checks need


class CliExit(Exception):
    """The CLI returned a nonzero exit code; the message is its stderr."""


def run_cli(argv: list[str]) -> None:
    """hoytmimo.cli.main in-process; raises CliExit on a nonzero exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = hoytmimo.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")


def cli_op(kind, label, argv, units, tmp, **info) -> Op:
    out = os.path.join(tmp, f"{label}.json")
    full = argv + ["--format", "json", "--output", out]
    return Op(kind, label, lambda: run_cli(full), units, info={"output": out, **info})


def read_doc(op: Op) -> dict:
    with open(op.info["output"]) as fh:
        return json.load(fh)


def fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def linear(power_db: float) -> float:
    return 10.0 ** (power_db / 10.0)


# ---------------------------------------------------------------------------
# shared checks


def check_capacity_order(problems, label, nt, nr, caps_by_q, power_db):
    """C(q) nondecreasing in q, and below the Jensen bound N log2(1 + P nr / N)."""
    n = min(nt, nr)
    qs = sorted(caps_by_q)
    for lo, hi in zip(qs, qs[1:]):
        if caps_by_q[hi] < caps_by_q[lo] * (1.0 - 1e-9):
            problems.append(f"{label}: C(q={hi}) < C(q={lo}) at {power_db:g} dB")
    jensen = n * math.log2(1.0 + linear(power_db) * nr / n)
    for q, c in caps_by_q.items():
        if not 0.0 < c <= jensen:
            problems.append(f"{label}: C(q={q}) = {c} outside (0, Jensen bound {jensen}]")


def check_against_sampler(problems, sampler, label, nt, nr, q, power_db, capacity, nominal_q=None):
    from oracles import capacity_estimate

    spectra = sampler.spectra(nt, nr, q, nominal_q)
    mean, se = capacity_estimate(spectra, nt, linear(power_db))
    if abs(capacity - mean) > 4.0 * se:
        problems.append(
            f"{label}: C(q={q}) = {capacity} vs sampler {mean} +- {se} at {power_db:g} dB"
        )


def check_density_grid(problems, sampler, label, nt, nr, q, rows, nominal_q=None):
    """Bin integrals of the analytic R_1/N against the independent sampler.

    The grid's intervals are grouped into 20 histogram bins; at least 95%
    of the bins must agree within 3 standard errors.
    """
    from oracles import bin_probabilities, bins_within

    lam = np.array([r["lambda"] for r in rows])
    rho = np.array([r["rho_analytic"] for r in rows])
    if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
        problems.append(f"{label}: density not finite and nonnegative")
        return
    if "rho_mp" in rows[0]:
        mp = np.array([r["rho_mp"] for r in rows])
        if np.any(mp < 0.0):
            problems.append(f"{label}: asymptotic density negative")
    group = (len(lam) - 1) // 20
    pieces = 0.5 * (rho[1:] + rho[:-1]) * np.diff(lam)
    analytic = pieces.reshape(-1, group).sum(axis=1)
    spectra = sampler.spectra(nt, nr, q, nominal_q)
    sampled, n_eigs = bin_probabilities(spectra, lam[::group])
    ok, used = bins_within(sampled, n_eigs, analytic, None)
    if used == 0 or ok < 0.95 * used:
        problems.append(f"{label}: only {ok} of {used} bins within 3 sigma of the sampler")


def capacity_table(doc) -> dict:
    return {(r["q"], r["power_db"]): r["capacity"] for r in doc["rows"]}


# ---------------------------------------------------------------------------
# capacity-table


def capacity_table_ops(rng, tmp) -> list[Op]:
    ops = []
    qs = (0.0, 0.3, 0.5, 0.8, 1.0)
    for nt, nr in ((2, 2), (3, 3), (4, 4), (3, 6), (8, 8)):
        powers = [p + rng.uniform(-1.0, 1.0) for p in (0.0, 15.0, 30.0)]
        argv = ["capacity", "--nt", str(nt), "--nr", str(nr), "--q", fmt(qs), f"--power-db={fmt(powers)}"]
        ops.append(cli_op("capacity", f"capacity-{nt}x{nr}", argv, len(qs) * len(powers), tmp, nt=nt, nr=nr))
    for n in (2, 3, 4):
        argv = ["degradation", "--nt", str(n), "--nr", str(n), "--power-db", "15"]
        ops.append(cli_op("capacity", f"degradation-{n}x{n}", argv, 2, tmp, n=n))
    for nt, nr, q, hi in ((2, 2, 0.3, 10.0), (4, 4, 0.5, 20.0)):
        lo = rng.uniform(0.005, 0.02)
        hi += rng.uniform(-0.5, 0.5)
        argv = ["density", "--nt", str(nt), "--nr", str(nr), "--q", repr(q), "--grid", f"{lo!r}:{hi!r}:401", "--asymptotic"]
        ops.append(cli_op("density", f"density-{nt}x{nr}-q{q}", argv, 401, tmp, nt=nt, nr=nr, q=q))
    return ops


def capacity_table_check(ops, sampler) -> list[str]:
    from oracles import lue_capacity

    problems = []
    for op in ops:
        doc = read_doc(op)
        if op.label.startswith("capacity-"):
            nt, nr = op.info["nt"], op.info["nr"]
            table = capacity_table(doc)
            for pdb in sorted({p for _, p in table}):
                by_q = {q: c for (q, p), c in table.items() if p == pdb}
                check_capacity_order(problems, op.label, nt, nr, by_q, pdb)
                exact = lue_capacity(nt, nr, linear(pdb))
                if abs(by_q[1.0] - exact) > 1e-6 * exact:
                    problems.append(f"{op.label}: C(q=1) = {by_q[1.0]} vs oracle {exact} at {pdb:g} dB")
                for q in (0.3, 0.5, 0.8):
                    check_against_sampler(problems, sampler, op.label, nt, nr, q, pdb, by_q[q])
            for q in {q for q, _ in table}:
                by_p = sorted((p, c) for (qq, p), c in table.items() if qq == q)
                if any(c2 <= c1 for (_, c1), (_, c2) in zip(by_p, by_p[1:])):
                    problems.append(f"{op.label}: C not increasing in power at q={q}")
        elif op.label.startswith("degradation-"):
            value = doc["rows"][0]["degradation"]
            ref = PAPER_DEGRADATION[op.info["n"]]
            if abs(value - ref) > DEGRADATION_TOL:
                problems.append(f"{op.label}: {value} vs the paper's {ref}")
        else:
            check_density_grid(problems, sampler, op.label, op.info["nt"], op.info["nr"], op.info["q"], doc["rows"])
    return problems


# ---------------------------------------------------------------------------
# near-one-sided: 0.05 < q <= 0.2, where the crossover series is long

# q at which capacity raises SeriesTruncationError under the default term
# budget; fixed inputs, counted as failed operations.
TRUNCATING = ((2, 2, 0.01), (3, 3, 0.005))


def near_one_sided_ops(rng, tmp) -> list[Op]:
    ops = []
    jitter = lambda q: q * (1.0 + rng.uniform(-0.01, 0.01))  # noqa: E731
    for nt, nr, nominal in ((2, 2, (0.1, 0.2)), (3, 3, (0.12, 0.2))):
        qs = [jitter(q) for q in nominal]
        pdb = 15.0 + rng.uniform(-1.0, 1.0)
        argv = ["capacity", "--nt", str(nt), "--nr", str(nr), "--q", fmt(qs), "--power-db", repr(pdb)]
        ops.append(cli_op("capacity", f"capacity-{nt}x{nr}", argv, len(qs), tmp, nt=nt, nr=nr,
                          nominal=dict(zip(qs, nominal))))
    for nt, nr, nominal, hi, points in ((2, 2, 0.15, 8.0, 101), (3, 3, 0.06, 12.0, 61)):
        q = jitter(nominal)
        lo = rng.uniform(0.005, 0.02)
        hi += rng.uniform(-0.5, 0.5)
        argv = ["density", "--nt", str(nt), "--nr", str(nr), "--q", repr(q), "--grid", f"{lo!r}:{hi!r}:{points}"]
        ops.append(cli_op("density", f"density-{nt}x{nr}", argv, points, tmp, nt=nt, nr=nr, q=q, nominal=nominal))
    for nt, nr, q in TRUNCATING:
        argv = ["capacity", "--nt", str(nt), "--nr", str(nr), "--q", repr(q), "--power-db", "15"]
        op = cli_op("capacity", f"capacity-{nt}x{nr}-q{q}", argv, 1, tmp, nt=nt, nr=nr)
        op.expect_failure = True
        ops.append(op)
    return ops


def near_one_sided_check(ops, sampler) -> list[str]:
    from oracles import lue_capacity

    from hoytmimo.capacity import ergodic_capacity

    problems = []
    for op in ops:
        if op.error is not None:
            continue  # an expected truncation, already classified
        doc = read_doc(op)
        nt, nr = op.info["nt"], op.info["nr"]
        if op.label.startswith("capacity-"):
            table = capacity_table(doc)
            pdb = next(iter(table))[1]
            power = linear(pdb)
            by_q = {q: c for (q, _), c in table.items()}
            by_q[0.0] = ergodic_capacity(ChannelConfig(nt, nr), 0.0, power).capacity
            by_q[1.0] = lue_capacity(nt, nr, power)
            check_capacity_order(problems, op.label, nt, nr, by_q, pdb)
            nominal = op.info.get("nominal", {})
            for (q, _), c in table.items():
                check_against_sampler(problems, sampler, op.label, nt, nr, q, pdb, c, nominal.get(q))
        else:
            check_density_grid(problems, sampler, op.label, nt, nr, op.info["q"], doc["rows"], op.info["nominal"])
    return problems


def is_truncation(op: Op) -> bool:
    return op.error is not None and op.error.startswith("CliExit: exit 3:") and "did not converge" in op.error


# ---------------------------------------------------------------------------
# monte-carlo

MC_SAMPLES = 40000
MC_BINS = 100
FIRST_CHUNK = 8192  # samples in chunk 0 of the documented stream


def monte_carlo_ops(rng, tmp) -> list[Op]:
    ops = []
    for nt, nr in ((2, 2), (4, 4), (3, 6)):
        for q in (0.0, 0.5, 1.0):
            seed = int(rng.integers(2**31))
            argv = ["simulate", "--nt", str(nt), "--nr", str(nr), "--q", repr(q), "--samples", str(MC_SAMPLES), "--bins", str(MC_BINS), "--seed", str(seed)]
            ops.append(cli_op("mc_samples", f"simulate-{nt}x{nr}-q{q}", argv, MC_SAMPLES, tmp, nt=nt, nr=nr, q=q))
    cfg8 = ChannelConfig(8, 8)
    pdb = 15.0 + rng.uniform(-1.0, 1.0)
    # fixed simulator seed: the 4-sigma check then moves only with the power
    ops.append(Op("mc_samples", "mc_capacity-8x8", lambda: hoytmimo.montecarlo.mc_capacity(cfg8, 0.5, linear(pdb), MC_SAMPLES, seed=1), MC_SAMPLES, info={"pdb": pdb}))
    cfg2 = ChannelConfig(2, 2)
    seed = int(rng.integers(2**31))
    ops.append(Op("mc_samples", "first-chunk-2x2", lambda: hoytmimo.montecarlo.empirical_density(cfg2, 0.5, FIRST_CHUNK, MC_BINS, seed=seed), FIRST_CHUNK, info={"seed": seed}))
    return ops


def monte_carlo_check(ops, sampler) -> list[str]:
    from oracles import bin_probabilities, bins_within, capacity_estimate, first_chunk_spectra

    problems = []
    for op in ops:
        if op.label.startswith("simulate-"):
            doc = read_doc(op)
            nt, nr, q = op.info["nt"], op.info["nr"], op.info["q"]
            sx2 = 1.0 / (1.0 + q * q)
            var = nt * nr * 2.0 * (sx2 * sx2 + (1.0 - sx2) ** 2)
            se = math.sqrt(var / MC_SAMPLES)
            if abs(doc["observed_trace_moment"] - nt * nr) > 5.0 * se:
                problems.append(f"{op.label}: trace moment {doc['observed_trace_moment']} vs {nt * nr} +- {se}")
            edges = np.array([r["bin_lo"] for r in doc["rows"]] + [doc["rows"][-1]["bin_hi"]])
            p_prog = np.array([r["density"] for r in doc["rows"]]) * np.diff(edges)
            spectra = sampler.spectra(nt, nr, q)
            p_orac, n_orac = bin_probabilities(spectra, edges)
            ok, used = bins_within(p_prog, MC_SAMPLES * min(nt, nr), p_orac, n_orac)
            if used == 0 or ok < 0.95 * used:
                problems.append(f"{op.label}: only {ok} of {used} bins within 3 sigma of the sampler")
        elif op.label.startswith("mc_capacity-"):
            mean, se = op.result
            spectra = sampler.spectra(8, 8, 0.5)
            ref, ref_se = capacity_estimate(spectra, 8, linear(op.info["pdb"]))
            if abs(mean - ref) > 4.0 * math.hypot(se, ref_se):
                problems.append(f"{op.label}: {mean} +- {se} vs sampler {ref} +- {ref_se}")
        else:
            hist = op.result
            spectra = first_chunk_spectra(2, 2, 0.5, op.info["seed"], FIRST_CHUNK)
            counts, _ = np.histogram(spectra.ravel(), bins=hist.bin_edges)
            if not np.array_equal(counts, hist.counts):
                problems.append(f"{op.label}: histogram differs from the documented stream")
    return problems


# ---------------------------------------------------------------------------
# pfaffian-kernels

PF_CONFIGS = ((2, 2), (3, 4), (4, 4))  # N = 2, 3, 4
JPD_QS = (0.0, 0.35, 0.75, 1.0)
CORR_QS = (0.0, 0.35, 1.0)
JPD_SETS = 60  # point sets per (array, q)
CORR_SETS = 6  # point sets per correlation order
# Points of a set keep at least this distance: as points close in, the
# doubled-kernel determinant behind R_n loses relative accuracy (R_4 at a
# gap of 0.02 is off by 1e-2), and the checks below ask for 1e-6.
MIN_GAP = 0.5


def point_set(rng, size: int, top: float) -> np.ndarray:
    """`size` points uniform on (0.1, top), redrawn until MIN_GAP apart."""
    while True:
        pts = rng.uniform(0.1, top, size=size)
        if size == 1 or np.min(np.diff(np.sort(pts))) >= MIN_GAP:
            return pts


def pfaffian_kernels_ops(rng, tmp) -> list[Op]:
    ops = []
    for nt, nr in PF_CONFIGS:
        cfg = ChannelConfig(nt, nr)
        n, top = cfg.n, 2.0 * cfg.m_dim
        point_sets = [point_set(rng, n, top) for _ in range(JPD_SETS)]
        for q in JPD_QS:
            for i, pts in enumerate(point_sets):
                call = lambda pts=pts, cfg=cfg, q=q: hoytmimo.ensemble.jpd(pts, cfg, q)  # noqa: E731
                ops.append(Op("jpd", f"jpd-{nt}x{nr}-q{q}-{i}", call, 1, info={"nt": nt, "nr": nr, "q": q, "points": pts}))
        corr_sets = [point_set(rng, k, top).tolist() for k in range(1, n + 1) for _ in range(CORR_SETS)]
        corr_sets += [pts.tolist() for pts in point_sets[:CORR_SETS]]  # R_N at jpd points
        path = os.path.join(tmp, f"points-{nt}x{nr}.json")
        with open(path, "w") as fh:
            json.dump({"points": corr_sets}, fh)
        for q in CORR_QS:
            argv = ["correlations", "--nt", str(nt), "--nr", str(nr), "--q", repr(q), "--points-file", path]
            ops.append(cli_op("correlation", f"correlations-{nt}x{nr}-q{q}", argv, len(corr_sets), tmp, nt=nt, nr=nr, q=q))
    ops.append(cli_op("validate", "validate-quick", ["validate", "--quick"], 1, tmp))
    return ops


def pfaffian_kernels_check(ops, sampler) -> list[str]:
    from oracles import lue_jpd, lue_level_density

    problems = []
    jpd_at = {}
    compared = 0
    for op in ops:
        if op.kind != "jpd":
            continue
        nt, nr, q, pts = op.info["nt"], op.info["nr"], op.info["q"], op.info["points"]
        value = op.result
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{op.label}: jpd = {value}")
            continue
        jpd_at[(nt, nr, q, tuple(pts))] = value
        permuted = hoytmimo.ensemble.jpd(pts[::-1], ChannelConfig(nt, nr), q)
        if abs(permuted - value) > 1e-9 * value:
            problems.append(f"{op.label}: jpd not symmetric ({value} vs {permuted})")
        if q == 1.0:
            exact = lue_jpd(pts, nt, nr)
            if abs(value - exact) > 1e-6 * exact:
                problems.append(f"{op.label}: jpd {value} vs closed form {exact}")
    for op in ops:
        if op.kind == "correlation":
            nt, nr, q = op.info["nt"], op.info["nr"], op.info["q"]
            n = min(nt, nr)
            for row in read_doc(op)["rows"]:
                pts, r_n = row["points"], row["r_n"]
                if not (math.isfinite(r_n) and r_n >= 0.0):
                    problems.append(f"{op.label}: R_{row['n']} = {r_n}")
                    continue
                key = (nt, nr, q, tuple(pts))
                if len(pts) == n and key in jpd_at:
                    compared += 1
                    ref = math.factorial(n) * jpd_at[key]
                    if abs(r_n - ref) > 1e-6 * ref:
                        problems.append(f"{op.label}: R_N {r_n} vs N! jpd {ref}")
                if len(pts) == 1 and q == 1.0:
                    ref = lue_level_density(pts[0], nt, nr)
                    if abs(r_n - ref) > 1e-6 * ref:
                        problems.append(f"{op.label}: R_1 {r_n} vs oracle {ref}")
        elif op.kind == "validate" and not read_doc(op)["passed"]:
            problems.append("validate --quick did not pass")
    if compared != CORR_SETS * len(CORR_QS) * len(PF_CONFIGS):
        problems.append(f"R_N was compared with N! jpd at {compared} point sets only")
    return problems


# (inputs and operations, checks, the calibration kernel whose slowdown
# tracks the workload's code: interpreted loops or batched numpy)
WORKLOADS = {
    "capacity-table": (capacity_table_ops, capacity_table_check, "interpreted"),
    "near-one-sided": (near_one_sided_ops, near_one_sided_check, "interpreted"),
    "monte-carlo": (monte_carlo_ops, monte_carlo_check, "numpy"),
    "pfaffian-kernels": (pfaffian_kernels_ops, pfaffian_kernels_check, "interpreted"),
}
