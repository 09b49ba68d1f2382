"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
whole module is also exercised by a plain `pytest`.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from hoytmimo.capacity import db_to_linear, degradation
from hoytmimo.ensemble import (
    ChannelConfig,
    SeriesControl,
    correlation_fn,
    density_mp,
    g_tau,
    jpd,
    kernel_s,
    level_density,
    mp_support,
)
from hoytmimo.linalg import pfaffian_signed_log
from hoytmimo.montecarlo import empirical_density
from hoytmimo.validation import g_tau_transposed, jpd_normalization_n2, jpd_normalization_n3
from pointwise_oracles import skew_phi, skew_psi
from test_specfun import laguerre

CTRL = SeriesControl()
GOLDEN = Path(__file__).parent / "golden"


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_degradation_figures():
    t0 = time.time()
    worst = 0.0
    for n, expect in ((2, 0.0833), (3, 0.0596), (4, 0.0463)):
        got = degradation(ChannelConfig(n, n), db_to_linear(15.0), CTRL)
        worst = max(worst, abs(got - expect))
    elapsed = time.time() - t0
    _report(
        "criterion 1: capacity degradation 8.33/5.96/4.63% at 15 dB",
        worst <= 0.0015 and elapsed < 30.0,
        f"worst |dev| {worst:.5f}, runtime {elapsed:.1f}s",
    )


def _bin_averaged_marginal(cfg, q, edges):
    """Analytic marginal density averaged over each bin (the statistic the
    histogram estimates), singular first bin handled by u = sqrt(lambda)."""
    out = np.empty(len(edges) - 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if lo == 0.0:
            val, _ = quad(
                lambda u: 2.0 * u * level_density(u * u, cfg, q, CTRL),
                0.0,
                math.sqrt(hi),
                epsabs=0.0,
                epsrel=1e-7,
                limit=200,
            )
        else:
            val, _ = quad(
                lambda lam: level_density(lam, cfg, q, CTRL),
                lo,
                hi,
                epsabs=0.0,
                epsrel=1e-7,
                limit=200,
            )
        out[i] = val / (cfg.n * (hi - lo))
    return out


def test_criterion_2_density_reproduction():
    combos = [(2, 2), (3, 6), (4, 15)]
    qs = [0.0, 0.3, 0.5, 1.0]
    details = []
    ok = True
    for nt, nr in combos:
        cfg = ChannelConfig(nt, nr)
        edges = np.linspace(0.0, 1.2 * mp_support(cfg)[1], 41)
        rho = None
        for q in qs:
            hist = empirical_density(
                cfg, q, samples=100000, bins=40,
                value_range=(0.0, float(edges[-1])), seed=20240 + nt,
            )
            rho = _bin_averaged_marginal(cfg, q, edges)
            dev = np.abs(hist.normalized_values - rho) / np.maximum(
                hist.normalized_stderr, 1e-300
            )
            frac = float(np.mean(dev <= 3.0))
            details.append(f"{nt}x{nr} q={q}: {frac * 100:.0f}%")
            ok = ok and frac >= 0.95
    _report(
        "criterion 2: Monte Carlo densities match analytic (>=95% bins in 3 sigma)",
        ok,
        "; ".join(details),
    )


def test_criterion_3_large_n_asymptotics():
    cfg = ChannelConfig(16, 16)
    lo, hi = mp_support(cfg)
    grid = np.linspace(lo + 0.1 * (hi - lo), lo + 0.9 * (hi - lo), 81)
    mp_vals = np.array([density_mp(float(v), cfg) for v in grid])
    full = np.linspace((hi - lo) / 800.0, hi, 400)
    ok = True
    details = []
    for q in (0.0, 1.0):
        exact = np.array([level_density(float(v), cfg, q, CTRL) for v in grid])
        dev = float(np.max(np.abs(exact - mp_vals)))
        peak = max(level_density(float(v), cfg, q, CTRL) for v in full)
        details.append(f"q={q}: dev {dev / peak * 100:.2f}% of curve peak")
        ok = ok and dev <= 0.02 * peak
    _report(
        "criterion 3: nt=nr=16 endpoint densities vs asymptotic (<=2% of peak)",
        ok,
        "; ".join(details),
    )


def test_criterion_4_jpd_normalization():
    t0 = time.time()
    ok = True
    details = []
    for q in (0.0, 0.5, 1.0):
        v2 = jpd_normalization_n2(ChannelConfig(2, 2), q, CTRL)
        ok = ok and abs(v2 - 1.0) <= 1e-4
        details.append(f"N=2 q={q}: {v2:.6f}")
    for q in (0.0, 0.5, 1.0):
        v3 = jpd_normalization_n3(ChannelConfig(3, 4), q, CTRL)
        ok = ok and abs(v3 - 1.0) <= 1e-3
        details.append(f"N=3 q={q}: {v3:.5f}")
    elapsed = time.time() - t0
    details.append(f"runtime {elapsed:.1f}s")
    _report(
        "criterion 4: JPD normalization (N=2 within 1e-4, N=3 within 1e-3)",
        ok and elapsed < 10.0,
        "; ".join(details),
    )


def test_criterion_5_correlation_jpd_consistency():
    cfg = ChannelConfig(2, 2)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5):
        pts = rng.uniform(0.05, 8.0, size=2)
        r2 = correlation_fn(pts, cfg, 0.5, CTRL)
        p2 = 2.0 * jpd(pts, cfg, 0.5, CTRL)
        worst = max(worst, abs(r2 - p2) / abs(p2))
    lam1 = 1.3
    marg, _ = quad(
        lambda u: 2.0 * u * 2.0 * jpd([lam1, u * u], cfg, 0.5, CTRL),
        0.0,
        6.0,
        epsabs=0.0,
        epsrel=1e-8,
        limit=200,
    )
    r1 = correlation_fn([lam1], cfg, 0.5, CTRL)
    marg_err = abs(marg - r1) / r1
    _report(
        "criterion 5: R2 = 2*JPD and R1 = integral of 2*JPD (1e-4 relative)",
        worst <= 1e-4 and marg_err <= 1e-4,
        f"R2 worst rel {worst:.2e}; marginal rel {marg_err:.2e}",
    )


def test_criterion_6_limit_reductions():
    cfg = ChannelConfig(3, 5)
    same_path = all(
        level_density(lam, cfg, 1.0, CTRL) == kernel_s(x, x, cfg, math.inf) / (2.0 * cfg.omega)
        and level_density(lam, cfg, 0.0, CTRL) == kernel_s(x, x, cfg, 0.0) / (2.0 * cfg.omega)
        for lam in (0.4, 2.0, 9.0)
        for x in [lam / (2.0 * cfg.omega)]
    )
    q20 = math.sqrt((1.0 - math.exp(-20.0)) / (1.0 + math.exp(-20.0)))
    worst = 0.0
    for lam in np.linspace(0.05, 20.0, 50):
        v1 = level_density(float(lam), cfg, q20, CTRL)
        v2 = level_density(float(lam), cfg, 1.0)
        worst = max(worst, abs(v1 - v2) / max(abs(v2), 1e-300))
    _report(
        "criterion 6: endpoint dispatch exact; tau=20 series matches q=1 to 1e-9",
        same_path and worst <= 1e-9,
        f"tau=20 worst rel {worst:.2e}",
    )


def test_criterion_7_representation_equality():
    worst = 0.0
    for tau in (0.2, 0.5, 1.0, 3.0):
        for a in (-0.5, 0.0, 0.5, 1.5):
            v1 = g_tau_transposed(0.7, 1.9, a, tau, CTRL)
            v2 = g_tau(0.7, 1.9, a, tau, CTRL)
            worst = max(worst, abs(v1 - v2) / abs(v2))
    _report(
        "criterion 7: dual series representations agree (1e-8, 4x4 tau/a grid)",
        worst <= 1e-8,
        f"worst rel {worst:.2e}",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(7)
    pf_worst = 0.0
    for dim in (2, 4, 6, 8, 10, 12):
        b = rng.normal(size=(dim, dim))
        b = b - b.T
        sign, logabs = pfaffian_signed_log(b)
        pf = sign * math.exp(logabs)
        det = np.linalg.det(b)
        pf_worst = max(pf_worst, abs(pf * pf - det) / abs(det))

    nodes, wts = leggauss(240)
    xg = 0.5 * 45.0 * (nodes + 1.0)
    wg = 0.5 * 45.0 * wts
    skew_worst = 0.0
    for nt, nr in ((3, 4), (4, 5)):
        cfg = ChannelConfig(nt, nr)
        n = cfg.n
        expect = np.zeros((n, n))
        for mu in range(n // 2):
            expect[2 * mu, 2 * mu + 1] = 1.0
            expect[2 * mu + 1, 2 * mu] = -1.0
        for j in range(n):
            phi_vals = np.array([skew_phi(j, float(x), cfg, 0.7) for x in xg])
            for k in range(n):
                psi_vals = np.array([skew_psi(k, float(x), cfg, 0.7, CTRL) for x in xg])
                got = float(np.dot(wg, phi_vals * psi_vals))
                skew_worst = max(skew_worst, abs(got - expect[j, k]))

    # weighted-derivative recurrence identity, central differences
    deriv_worst = 0.0
    for mu, a, x in ((3, 0.5, 1.7), (10, 0.0, 4.0), (25, 1.5, 9.0)):
        alpha = 2.0 * a + 1.0
        f = lambda t: t ** (a + 1.0) * math.exp(-t) * laguerre(mu, alpha, 2.0 * t)  # noqa: E731
        h = 1e-6 * max(1.0, x)
        lhs = (f(x + h) - f(x - h)) / (2.0 * h)
        rhs = 0.5 * x**a * math.exp(-x) * (
            (mu + 1.0) * laguerre(mu + 1, alpha, 2.0 * x)
            - (mu - 1.0 + 2.0 * a + 2.0) * laguerre(mu - 1, alpha, 2.0 * x)
        )
        deriv_worst = max(deriv_worst, abs(lhs - rhs) / max(abs(rhs), 1e-10))

    # half-range weighted-polynomial integral: gamma ratio / zero; the
    # integrand decays only as e^{-y} poly(y), so cut at 70 adaptively
    san_worst = 0.0
    for a in (0.0, 1.0):
        for mu in range(11):
            val, _ = quad(
                lambda y: y**a * math.exp(-y) * laguerre(mu, 2 * a + 1, 2.0 * y),
                0.0,
                70.0,
                epsabs=1e-11,
                epsrel=1e-11,
                limit=200,
            )
            if mu % 2 == 0:
                expect_i = math.exp(math.lgamma(mu / 2 + a + 1.0) - math.lgamma(mu / 2 + 1.0))
            else:
                expect_i = 0.0
            san_worst = max(san_worst, abs(val - expect_i))

    kint_worst = 0.0
    for nt, nr in ((2, 2), (3, 4), (4, 5), (5, 6)):
        cfg = ChannelConfig(nt, nr)
        for tau in (0.0, 0.7, math.inf):
            val, _ = quad(
                lambda u: 2.0 * u * kernel_s(u * u, u * u, cfg, tau, CTRL),
                0.0,
                math.sqrt(45.0),
                epsabs=0.0,
                epsrel=1e-9,
                limit=200,
            )
            kint_worst = max(kint_worst, abs(val - cfg.n))

    ok = (
        pf_worst <= 1e-10
        and skew_worst <= 1e-6
        and deriv_worst <= 1e-6
        and san_worst <= 1e-8
        and kint_worst <= 1e-6
    )
    _report(
        "criterion 8: property suites (Pf^2=det, skew pairing, identities, kernel integrals)",
        ok,
        f"pf {pf_worst:.1e}; skew {skew_worst:.1e}; deriv {deriv_worst:.1e}; "
        f"half-range {san_worst:.1e}; kernel-int {kint_worst:.1e}",
    )


def test_criterion_9_golden_regression_files():
    files = sorted(GOLDEN.glob("density_*.csv"))
    ok = len(files) == 12
    worst = 0.0
    for path in files:
        meta = json.loads((path.parent / (path.name + ".meta.json")).read_text())
        cfg = ChannelConfig(meta["config"]["nt"], meta["config"]["nr"])
        q = meta["config"]["q"]
        for row in list(csv.DictReader(path.open()))[::6]:
            lam = float(row["lambda"])
            expect = float(row["rho_analytic"])
            got = level_density(lam, cfg, q, CTRL) / cfg.n
            if math.isinf(expect):
                ok = ok and math.isinf(got)
            else:
                err = abs(got - expect) / max(abs(expect), 1e-12)
                worst = max(worst, err)
                ok = ok and err <= 1e-9
    _report(
        "criterion 9: golden density curves regenerate identically (1e-9)",
        ok,
        f"{len(files)} files, worst rel {worst:.1e}",
    )
