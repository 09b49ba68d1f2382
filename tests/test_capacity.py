import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hoytmimo import capacity, ensemble
from hoytmimo.capacity import (
    capacity_sweep,
    db_to_linear,
    degradation,
    ergodic_capacity,
)
from hoytmimo.ensemble import (
    DEFAULT_CONTROL,
    ChannelConfig,
    SeriesControl,
    SeriesTruncationError,
    crossover_tau,
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

    @pytest.mark.parametrize("power", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_power_outside_zero_to_inf(self, power):
        cfg = ChannelConfig(2, 2)
        with pytest.raises(ValueError):
            ergodic_capacity(cfg, 0.5, power)
        with pytest.raises(ValueError):
            degradation(cfg, power)

    @pytest.mark.parametrize("power_db", [4000.0, math.inf, -math.inf, math.nan])
    def test_sweep_rejects_overflowing_or_non_finite_db(self, power_db):
        with pytest.raises(ValueError):
            capacity_sweep(ChannelConfig(2, 2), [0.5, 1.0], [15.0, power_db])

    def test_db_overflow_is_value_error(self):
        with pytest.raises(ValueError):
            db_to_linear(4000.0)
        assert db_to_linear(3000.0) == 1e300


class TestLowSnr:
    """C -> P nr omega / ln 2 as P -> 0 (E tr HH^H = nt nr omega)."""

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize(
        "nt,nr,omega", [(1, 1, 1.0), (2, 2, 1.0), (2, 3, 1.3), (4, 4, 1.0), (3, 6, 1.0), (8, 8, 1.0)]
    )
    def test_low_snr_limit(self, nt, nr, omega, q):
        cfg = ChannelConfig(nt, nr, omega)
        for power in (1e-12, 1e-15, 1e-40):
            limit = power * nr * omega / math.log(2.0)
            cap = ergodic_capacity(cfg, q, power).capacity
            assert cap == pytest.approx(limit, rel=1e-8, abs=0.0)


class TestSpectralMomentExpansion:
    """C ln 2 = snr E tr W - snr^2 E tr W^2 / 2 + snr^3 E tr W^3 / 3 - O(snr^4), snr = P / nt.

    The moments of the gram matrix W follow from Isserlis' theorem for an
    entry with E|h|^2 = omega and E h^2 = theta omega, theta = (1 - q^2) /
    (1 + q^2); with n = nt and m = nr
    E tr W = nm omega, E tr W^2 = nm (n + m + theta^2) omega^2 and
    E tr W^3 = nm (n^2 + m^2 + 3nm + 1 + 3 (n + m + 1) theta^2) omega^3.
    At P = 1e-4 the theta^2 term is about 2.5e-5 of C, so the check sees it.
    """

    @staticmethod
    def moments(nt, nr, omega, q):
        theta2 = ((1.0 - q * q) / (1.0 + q * q)) ** 2
        nm = nt * nr
        return (
            nm * omega,
            nm * (nt + nr + theta2) * omega**2,
            nm * (nt**2 + nr**2 + 3 * nm + 1 + 3 * (nt + nr + 1) * theta2) * omega**3,
        )

    @pytest.mark.parametrize("q", [0.0, 0.06, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("nt,nr", [(2, 3), (4, 4), (4, 2)])
    def test_low_snr_third_order(self, nt, nr, q):
        omega, power = 0.7, 1e-4
        snr = power / nt
        m1, m2, m3 = self.moments(nt, nr, omega, q)
        expansion = snr * m1 - snr**2 * m2 / 2.0 + snr**3 * m3 / 3.0
        cap = ergodic_capacity(ChannelConfig(nt, nr, omega), q, power, rel_tol=1e-12).capacity
        assert cap * math.log(2.0) == pytest.approx(expansion, rel=1e-10, abs=0.0)


def digamma(x):
    """psi(x) at a positive integer or half-integer, as a finite sum."""
    if x == int(x):
        return -np.euler_gamma + sum(1.0 / k for k in range(1, int(x)))
    n = int(x - 0.5)
    return -np.euler_gamma - 2.0 * math.log(2.0) + sum(2.0 / (2 * k - 1) for k in range(1, n + 1))


class TestHighSnr:
    """C = N log2 snr + E[sum log2 lambda_i] + log2(e) E tr W^{-1} / snr + o(1/snr).

    Closed forms at the ends, n = min(nt, nr), m = max(nt, nr): at q = 1
    (complex Wishart) E ln det W = n ln omega + sum_{i<n} psi(m - i) and
    E tr W^{-1} = n / (omega (m - n)); at q = 0 (real Wishart, E h^2 =
    omega) E ln det W = n ln 2 omega + sum_{i<n} psi((m - i) / 2) and
    E tr W^{-1} = n / (omega (m - n - 1)).  At q = 0 E tr W^{-2} is
    infinite, so the residual falls only like snr^{-3/2} (8.0e-9 at 2x4
    and 2.5e-8 at 3x5, 60 dB, omega = 1).
    """

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize(
        "q,nt,nr,tol",
        [(1.0, 2, 3, 1e-8), (1.0, 2, 4, 1e-8), (1.0, 3, 5, 1e-8), (0.0, 2, 4, 1e-7), (0.0, 3, 5, 1e-7)],
    )
    def test_power_offset_at_60_db(self, q, nt, nr, tol, omega):
        power = db_to_linear(60.0)
        n, m = min(nt, nr), max(nt, nr)
        if q == 1.0:
            log_det = n * math.log(omega) + sum(digamma(m - i) for i in range(n))
            inv_trace = n / (omega * (m - n))
        else:
            log_det = n * math.log(2.0 * omega) + sum(digamma(0.5 * (m - i)) for i in range(n))
            inv_trace = n / (omega * (m - n - 1))
        snr = power / nt
        expansion = (n * math.log(snr) + log_det + inv_trace / snr) / math.log(2.0)
        cap = ergodic_capacity(ChannelConfig(nt, nr, omega), q, power, rel_tol=1e-12).capacity
        assert abs(cap - expansion) <= tol


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


def series_length_walk(cfg, tau, c1, amp, ctrl):
    """Reference: walk the tail bound term by term up to max_terms, as before the early raise."""
    a, alpha = cfg.a, 2.0 * cfg.a + 1.0
    decay = math.exp(-2.0 * tau)
    k = cfg.n + 1
    term = 2.0 * capacity._r_n(cfg.n, a) * decay * capacity._gamma(a, k) * capacity._binomial(k, alpha) * amp
    goal = ctrl.rel_tol * c1
    for j in range(ctrl.max_terms + 1):
        ratio = decay * (k + alpha + 1.0) / (k + 2.0)
        rho = max(ratio, decay)
        if rho < 1.0 and term <= goal * (1.0 - rho):
            return j
        term *= ratio
        k += 2
    return None


class TestSeriesLength:
    """_series_length raises without the walk exactly where the walk would raise."""

    SHAPES = ((1, 1), (2, 2), (3, 3), (2, 5), (4, 4), (3, 6), (8, 8), (2, 32), (1, 40))
    QS = (0.003, 0.006, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
    C1_AMP = ((1.0, 1.0), (6.0, 0.4), (25.0, 80.0), (0.02, 3.0), (3.0, 1e4))
    CONTROLS = (
        DEFAULT_CONTROL,
        SeriesControl(rel_tol=1e-6, max_terms=400),
        SeriesControl(rel_tol=1e-14, max_terms=3000),
        SeriesControl(rel_tol=1e-3, max_terms=40),
    )

    @pytest.mark.parametrize("nt, nr", SHAPES)
    def test_matches_reference_walk(self, nt, nr):
        cfg = ChannelConfig(nt, nr)
        raised = found = 0
        for q, (c1, amp), ctrl in itertools.product(self.QS, self.C1_AMP, self.CONTROLS):
            tau = crossover_tau(q)
            expect = series_length_walk(cfg, tau, c1, amp, ctrl)
            if expect is None:
                with pytest.raises(SeriesTruncationError):
                    capacity._series_length(cfg, tau, c1, amp, ctrl)
                raised += 1
            else:
                assert capacity._series_length(cfg, tau, c1, amp, ctrl) == expect
                found += 1
        assert raised and found  # the grid reaches both outcomes


class TestLargeArraysAtQZero:
    """q = 0 at 24x24 and 32x32, where the incomplete-gamma sums once failed."""

    @pytest.mark.parametrize("n", [24, 32])
    def test_capacity_and_degradation_finish(self, n):
        cfg = ChannelConfig(n, n)
        res = ergodic_capacity(cfg, 0.0, P15)
        c1 = ergodic_capacity(cfg, 1.0, P15).capacity
        assert 0.0 < res.capacity < c1
        assert res.est_abs_error < 1e-9 * res.capacity
        assert degradation(cfg, P15) == pytest.approx(1.0 - res.capacity / c1, rel=1e-6)

    def test_monte_carlo_cross_check_24x24(self):
        cfg = ChannelConfig(24, 24)
        mean, se = mc_capacity(cfg, 0.0, P15, samples=20000, seed=1)
        exact = ergodic_capacity(cfg, 0.0, P15).capacity
        assert abs(mean - exact) < 4.0 * se


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


class TestSweepSharesNodes:
    """A sweep builds the starting panels' node pieces once for all of its powers."""

    QS = [0.0, 0.06, 0.3, 0.5, 0.8, 0.999, 1.0]
    POWER_LISTS = [
        [15.0],
        [0.0, 15.0, 30.0],
        [-10.0, -5.0, 0.0, 5.0, 15.0, 30.0, 40.0],
        [-10.0, 40.0],
        [20.0, 5.0, 20.0],
    ]

    @pytest.mark.parametrize(
        "nt,nr,omega", [(1, 1, 1.0), (2, 2, 1.0), (2, 5, 1.3), (3, 6, 1.0), (8, 8, 1.0), (16, 16, 1.0)]
    )
    def test_sweep_equals_one_power_sweeps(self, nt, nr, omega):
        cfg = ChannelConfig(nt, nr, omega)
        for powers in self.POWER_LISTS:
            rows = capacity_sweep(cfg, self.QS, powers)
            alone = [capacity_sweep(cfg, self.QS, [p]) for p in powers]
            expect = [alone[j][i] for i in range(len(self.QS)) for j in range(len(powers))]
            got = [(r.q, r.power_db, r.capacity, r.est_abs_error) for r in rows]
            assert got == [(r.q, r.power_db, r.capacity, r.est_abs_error) for r in expect]

    def test_one_power_paths_agree(self):
        cfg = ChannelConfig(2, 3, 1.3)
        (row,) = capacity_sweep(cfg, [0.3], [15.0])
        single = ergodic_capacity(cfg, 0.3, db_to_linear(15.0))
        assert (row.capacity, row.est_abs_error) == (single.capacity, single.est_abs_error)

    @pytest.mark.parametrize("n_powers", [1, 3, 11])
    def test_starting_nodes_streamed_once(self, monkeypatch, n_powers):
        # the nodes' stream is opened by ensemble._diagonal_parts
        streamed = []
        stream = ensemble.weighted_laguerre_array

        def spy(alpha, x):
            streamed.append(np.array(x))
            return stream(alpha, x)

        monkeypatch.setattr(ensemble, "weighted_laguerre_array", spy)
        powers = list(np.linspace(-10.0, 40.0, n_powers))
        capacity_sweep(ChannelConfig(4, 4), [0.0, 0.5, 1.0], powers)
        first = streamed[0]  # the starting panels' nodes
        assert sum(len(x) == len(first) and np.array_equal(x, first) for x in streamed) == 1

    @pytest.mark.parametrize("nt,nr", [(2, 2), (3, 6), (8, 8)])
    def test_node_pieces_are_the_level_density_pieces(self, nt, nr):
        # the LUE core at every node is kernel_s's at that point, bit for bit,
        # and the q = 0 bracket is the array level density's
        cfg = ChannelConfig(nt, nr, 1.3)
        u = np.sqrt(np.random.default_rng(nt + nr).uniform(0.0, 60.0, 50))
        nodes = capacity._Nodes(u, cfg, [0.0, 0.5, math.inf])
        x = u * u / (2.0 * cfg.omega)
        cores = []
        for t in x.tolist():
            w = ensemble._row(t, cfg)[0]
            cores.append(float(ensemble._s_lue_core(w, w, cfg)))
        assert nodes.core.tolist() == cores
        _, row, core, bracket = ensemble._diagonal_parts(x, cfg, True)
        assert nodes.core.tolist() == core.tolist()
        assert nodes.bracket.tolist() == bracket.tolist()
        assert nodes.last.tolist() == row[-1].tolist()

    def test_memory_does_not_grow_with_powers(self):
        cfg = ChannelConfig(2, 2)

        def peak(powers):
            tracemalloc.start()
            try:
                capacity_sweep(cfg, [0.05], powers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([15.0])
        assert peak([-10.0, 0.0, 5.0, 10.0, 15.0, 20.0, 30.0]) <= 1.2 * one
