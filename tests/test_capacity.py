import math
import time

import pytest
from scipy.integrate import quad

from hoytmimo.capacity import (
    capacity_sweep,
    db_to_linear,
    degradation,
    ergodic_capacity,
)
from hoytmimo.ensemble import (
    ChannelConfig,
    SeriesControl,
    SeriesTruncationError,
    density_mp,
    level_density,
    mp_support,
)
from hoytmimo.montecarlo import mc_capacity

P15 = db_to_linear(15.0)
TIGHT = SeriesControl(rel_tol=1e-16, max_terms=10**6)


def capacity_oracle(cfg, q, power):
    """Independent reference: scipy quad in u = sqrt(lambda) of the scalar level density."""
    snr = power / cfg.nt

    def f(u):
        return 2.0 * u * math.log2(1.0 + snr * u * u) * level_density(u * u, cfg, q, TIGHT)

    cut = math.sqrt(1.5 * mp_support(cfg)[1])
    head, _ = quad(f, 0.0, cut, epsabs=0.0, epsrel=1e-13, limit=200)
    tail, _ = quad(f, cut, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return head + tail


class TestErgodicCapacity:
    def test_vanishes_at_zero_power(self):
        cfg = ChannelConfig(2, 2)
        assert ergodic_capacity(cfg, 0.5, 1e-9).capacity < 1e-7

    @pytest.mark.parametrize(
        "n,expected", [(2, 0.0833), (3, 0.0596), (4, 0.0463)]
    )
    def test_degradation_reference_values(self, n, expected):
        assert degradation(ChannelConfig(n, n), P15) == pytest.approx(
            expected, abs=0.0015
        )

    def test_monte_carlo_cross_check(self):
        cfg = ChannelConfig(3, 3)
        mean, se = mc_capacity(cfg, 0.5, P15, samples=100000, seed=11)
        exact = ergodic_capacity(cfg, 0.5, P15).capacity
        assert abs(mean - exact) < 4.0 * se

    def test_monotone_in_power(self):
        cfg = ChannelConfig(4, 4)
        caps = [
            ergodic_capacity(cfg, 1.0, db_to_linear(p)).capacity
            for p in (0.0, 10.0, 20.0, 30.0)
        ]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_crossover_bracketed_by_endpoints(self):
        cfg = ChannelConfig(3, 3)
        c0 = ergodic_capacity(cfg, 0.0, P15).capacity
        ch = ergodic_capacity(cfg, 0.5, P15).capacity
        c1 = ergodic_capacity(cfg, 1.0, P15).capacity
        assert c0 < ch < c1

    def test_antenna_swap_symmetry(self):
        c1 = ergodic_capacity(ChannelConfig(2, 3), 0.4, P15).capacity
        c2 = ergodic_capacity(ChannelConfig(3, 2), 0.4, 1.5 * P15).capacity
        assert c1 == pytest.approx(c2, rel=1e-8)

    def test_quadrature_self_consistency(self):
        cfg = ChannelConfig(2, 2)
        r1 = ergodic_capacity(cfg, 0.3, P15, rel_tol=1e-9)
        r2 = ergodic_capacity(cfg, 0.3, P15, rel_tol=5e-10)
        assert abs(r2.capacity - r1.capacity) <= max(r1.est_abs_error, 1e-12)

    def test_capacity_ceiling(self):
        cfg = ChannelConfig(3, 3)
        res = ergodic_capacity(cfg, 1.0, P15)
        # sanity ceiling from the asymptotic support edge; loose by design
        hi = mp_support(cfg)[1]
        assert res.capacity <= cfg.n * math.log2(1.0 + P15 / cfg.nt * 2.0 * hi)

    def test_result_metadata(self):
        cfg = ChannelConfig(2, 2)
        res = ergodic_capacity(cfg, 0.5, P15)
        assert res.q == 0.5
        assert res.power_db == pytest.approx(15.0)
        assert res.est_abs_error >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ergodic_capacity(ChannelConfig(2, 2), 0.5, 0.0)
        with pytest.raises(ValueError):
            ergodic_capacity(ChannelConfig(2, 2), 1.5, 1.0)


class TestErrorEstimate:
    @pytest.mark.parametrize("q", [0.06, 0.3])
    @pytest.mark.parametrize("nt,nr,power_db", [(1, 1, 15.0), (2, 2, 15.0), (2, 5, 30.0)])
    def test_error_estimate_covers_true_error(self, nt, nr, power_db, q):
        # est_abs_error carries the quadrature error and the truncated
        # moment series' tail bound
        cfg = ChannelConfig(nt, nr)
        power = db_to_linear(power_db)
        res = ergodic_capacity(cfg, q, power)
        ref = capacity_oracle(cfg, q, power)
        assert abs(res.capacity - ref) <= res.est_abs_error + 1e-13 * ref


class TestNearOneSided:
    def test_small_q_finishes_and_is_monotone(self):
        cfg = ChannelConfig(2, 2)
        caps = {}
        for q in (0.05, 0.02):
            start = time.perf_counter()
            caps[q] = ergodic_capacity(cfg, q, P15)
            assert time.perf_counter() - start < 5.0
        c0 = ergodic_capacity(cfg, 0.0, P15).capacity
        c10 = ergodic_capacity(cfg, 0.1, P15).capacity
        assert c0 < caps[0.02].capacity < caps[0.05].capacity < c10
        ref = capacity_oracle(cfg, 0.05, P15)
        assert abs(caps[0.05].capacity - ref) <= caps[0.05].est_abs_error

    def test_too_long_series_raises_quickly(self):
        # q = 0.01 needs more moments than max_terms allows
        start = time.perf_counter()
        with pytest.raises(SeriesTruncationError):
            ergodic_capacity(ChannelConfig(2, 2), 0.01, P15)
        assert time.perf_counter() - start < 1.0


class TestCapacitySweep:
    def test_row_ordering_and_monotonicity(self):
        cfg = ChannelConfig(2, 2)
        rows = capacity_sweep(cfg, [0.0, 1.0], [5.0, 15.0])
        assert [(r.q, r.power_db) for r in rows] == [
            (0.0, 5.0),
            (0.0, 15.0),
            (1.0, 5.0),
            (1.0, 15.0),
        ]
        assert rows[0].capacity < rows[1].capacity
        assert rows[0].capacity < rows[2].capacity

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            capacity_sweep(ChannelConfig(2, 2), [], [15.0])

    def test_asymptotic_density_capacity_near_exact(self):
        # the large-N density reproduces the q=1 capacity within 1%
        cfg = ChannelConfig(16, 16)
        lo, hi = mp_support(cfg)
        mid, halfw = 0.5 * (hi + lo), 0.5 * (hi - lo)
        snr = P15 / cfg.nt

        def f(t):
            lam = mid - halfw * math.cos(t)
            return (
                math.log2(1.0 + snr * lam)
                * density_mp(lam, cfg)
                * halfw
                * math.sin(t)
            )

        asym, _ = quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-9, limit=200)
        exact = ergodic_capacity(cfg, 1.0, P15, SeriesControl()).capacity
        assert asym == pytest.approx(exact, rel=0.01)

    def test_sweep_matches_single_calls(self):
        cfg = ChannelConfig(3, 3)
        qs, powers = [0.0, 0.3, 0.8, 1.0], [5.0, 20.0]
        for row in capacity_sweep(cfg, qs, powers):
            single = ergodic_capacity(cfg, row.q, db_to_linear(row.power_db))
            tol = max(row.est_abs_error, single.est_abs_error)
            assert abs(row.capacity - single.capacity) <= tol

    def test_degradation_matches_single_calls(self):
        cfg = ChannelConfig(2, 3)
        c0 = ergodic_capacity(cfg, 0.0, P15).capacity
        c1 = ergodic_capacity(cfg, 1.0, P15).capacity
        assert degradation(cfg, P15) == pytest.approx(1.0 - c0 / c1, rel=0.0, abs=1e-12)
