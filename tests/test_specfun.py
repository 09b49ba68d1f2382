import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from hoytmimo.specfun import (
    bessel_i0e,
    lower_incomplete_gamma,
    weighted_laguerre,
    weighted_laguerre_array,
)

# high-precision reference evaluated once with a 30-digit series/product
# oracle and frozen here
GAMMA_2_5_AT_1_3 = 1.01211360070320342941420928868


def laguerre(n: int, alpha: float, x: float) -> float:
    """Reference: associated Laguerre polynomial L_n^{(alpha)}(x), upward recurrence.

    Unweighted and independent of the library's streamed recurrence; the
    other test modules import it from here.
    """
    if n < 0:
        raise ValueError("laguerre: n must be a nonnegative integer")
    if alpha <= -1.0:
        raise ValueError("laguerre: alpha must be > -1")
    if n == 0:
        return 1.0
    lkm1 = 1.0
    lk = 1.0 + alpha - x
    for k in range(1, n):
        lkm1, lk = lk, ((2 * k + 1 + alpha - x) * lk - (k + alpha) * lkm1) / (k + 1)
    return lk


class TestLaguerre:
    def test_order_zero(self):
        assert laguerre(0, 1.7, 3.3) == 1.0

    def test_order_one(self):
        assert laguerre(1, 0.5, 2.0) == 1.0 + 0.5 - 2.0

    def test_exact_rational(self):
        # finite-sum expansion evaluated in exact arithmetic
        n, alpha, x = 5, 2, Fraction(1)
        expect = sum(
            Fraction((-1) ** mu * math.comb(n + alpha, n - mu), math.factorial(mu)) * x**mu
            for mu in range(n + 1)
        )
        assert laguerre(5, 2.0, 1.0) == pytest.approx(float(expect), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(3, -1.0, 1.0)


def _log_signed_table(nmax, alpha, x):
    """Reference: e^{-x} L_k^{(alpha)}(2x), k = 0..nmax, as (signs, logs).

    The upward recurrence on values rescaled past 1e270, with every entry
    kept as sign and log magnitude until the end.
    """
    signs = np.zeros(nmax + 1, dtype=np.int8)
    logs = np.full(nmax + 1, -math.inf)
    z = 2.0 * x
    offset = 0.0

    def record(k, v):
        if v != 0.0:
            signs[k] = 1 if v > 0.0 else -1
            logs[k] = math.log(abs(v)) + offset - x

    vkm1 = 1.0
    record(0, vkm1)
    if nmax == 0:
        return signs, logs
    vk = 1.0 + alpha - z
    record(1, vk)
    for k in range(1, nmax):
        vkp1 = ((2 * k + 1 + alpha - z) * vk - (k + alpha) * vkm1) / (k + 1)
        m = max(abs(vk), abs(vkp1))
        if m > 1e270:
            s = math.log(m)
            f = math.exp(-s)
            vk *= f
            vkp1 *= f
            offset += s
        vkm1, vk = vk, vkp1
        record(k + 1, vk)
    return signs, logs


def stream_table(nmax: int, alpha: float, x: float) -> np.ndarray:
    """The first nmax + 1 values of the weighted-Laguerre stream of x."""
    return np.fromiter(islice(weighted_laguerre(alpha, x), nmax + 1), float, nmax + 1)


class TestLaguerreWeighted:
    def test_order_zero_is_weight(self):
        assert stream_table(0, 0.7, 2.2)[0] == pytest.approx(math.exp(-2.2), rel=1e-14)

    def test_no_overflow_high_order(self):
        assert np.all(np.isfinite(stream_table(1200, 1.0, 50.0)))
        assert np.all(np.isfinite(stream_table(50000, 0.0, 1e4)))

    @pytest.mark.parametrize("n,alpha,b,x", [(12, 1.0, 1.5, 7.0), (40, 0.0, 0.5, 3.0), (25, 2.0, 3.0, 12.0)])
    def test_matches_naive_product(self, n, alpha, b, x):
        # the power x^b is reattached outside the table, as the library does
        naive = (x**b) * math.exp(-x) * laguerre(n, alpha, 2 * x)
        got = (x**b) * stream_table(n, alpha, x)[n]
        assert got == pytest.approx(naive, rel=1e-12)

    @pytest.mark.parametrize(
        "n,alpha,x", [(2000, 1.0, 800.0), (300, 0.0, 760.0), (50000, 0.0, 1e4), (4095, 2.0, 0.01)]
    )
    def test_matches_log_signed_reference(self, n, alpha, x):
        signs, logs = _log_signed_table(n, alpha, x)
        ref = signs * np.exp(logs)
        got = stream_table(n, alpha, x)
        assert np.array_equal(got == 0.0, ref == 0.0)
        nz = ref != 0.0
        assert np.all(np.abs(got[nz] - ref[nz]) <= 1e-11 * np.abs(ref[nz]))


class TestLaguerreWeightedArray:
    XS = (0.0, 1e-3, 0.37, 1.9, 6.5, 50.0, 700.0, 2000.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0, 11.0])
    def test_matches_scalar_stream(self, alpha):
        # bit-identical while no column is joined in log space; above that
        # only numpy's exp and log in the join may differ from math's
        got = np.array(list(islice(weighted_laguerre_array(alpha, self.XS), 5000)))
        for j, x in enumerate(self.XS):
            ref = stream_table(4999, alpha, x)
            if x <= 50.0:
                assert np.array_equal(got[:, j], ref)
            else:
                assert np.all(np.abs(got[:, j] - ref) <= 4.0 * np.spacing(np.abs(ref)))

    def test_rotated_buffers_at_high_alpha(self):
        # the step's three buffers trade places every order and a rescale
        # scales two of them in place: a value read through islice must still
        # be the scalar stream's, not a buffer that moved on
        xs = (1e-3, 6.5, 700.0, 2000.0)
        got = np.array(list(islice(weighted_laguerre_array(40.0, xs), 5000)))
        for j, x in enumerate(xs):
            ref = stream_table(4999, 40.0, x)
            if x <= 50.0:
                assert np.array_equal(got[:, j], ref)
            else:
                assert np.all(np.abs(got[:, j] - ref) <= 4.0 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("alpha", [0.0, 3.0])
    @pytest.mark.parametrize("first", [0, 1])
    def test_two_orders_per_read(self, alpha, first):
        # send(2) steps over an order without forming its value; what it
        # reads is the one-order stream's value, also in rescaled (300) and
        # log-joined (700, 900) columns
        xs = (0.5, 30.0, 300.0, 700.0, 900.0)
        one = np.array(list(islice(weighted_laguerre_array(alpha, xs), 4000)))
        ws = weighted_laguerre_array(alpha, xs)
        got = [next(ws) for _ in range(first + 1)][first:]
        got += [ws.send(2) for _ in range((3999 - first) // 2)]
        assert np.array_equal(np.array(got), one[first::2])

    def test_empty_points(self):
        # past the rescale threshold (about 565 orders at alpha = 0) the
        # bound's reset must not search an empty column set
        one = list(islice(weighted_laguerre_array(0.0, []), 6000))
        ws = weighted_laguerre_array(0.0, [])
        two = [next(ws)] + [ws.send(2) for _ in range(2999)]
        assert all(v.shape == (0,) for v in one + two)

    def test_domain(self):
        with pytest.raises(ValueError):
            next(weighted_laguerre_array(0.0, [1.0, -0.5]))


def upper_incomplete_gamma(s: float, x: float) -> float:
    # Gamma(s, x) = Gamma(s) - gamma(s, x): accurate where Gamma(s, x) is not
    # small against Gamma(s)
    return math.gamma(s) - float(lower_incomplete_gamma(s, x))


class TestIncompleteGamma:
    def test_s_one(self):
        for x in (0.0, 0.4, 3.0):
            assert upper_incomplete_gamma(1, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_half_at_zero(self):
        assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_frozen_reference(self):
        assert upper_incomplete_gamma(2.5, 1.3) == pytest.approx(GAMMA_2_5_AT_1_3, rel=1e-11)

    @pytest.mark.parametrize("s,x", [(2.5, 1.3), (4, 2.0), (7.5, 11.0), (10, 0.5)])
    def test_against_quadrature(self, s, x):
        # defining integral, adaptive quadrature as the independent oracle
        ref, _ = quad(lambda y: y ** (s - 1.0) * math.exp(-y), x, np.inf)
        assert upper_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 8.5, 16.5])
    def test_against_scipy(self, s):
        # the upward recurrence keeps its error small against Gamma(s), also
        # where gamma(s, x) is far smaller (x well below s)
        x = np.array([0.0, 1e-8, 0.3, 5.0, 60.0, 800.0])
        got = lower_incomplete_gamma(s, x)
        ref = gammainc(s, x) * math.gamma(s)
        assert np.all(np.abs(got - ref) <= 1e-14 * math.gamma(s))

    def test_shapes(self):
        # a float gives a scalar, an array its own shape
        assert np.shape(lower_incomplete_gamma(1.5, 2.0)) == ()
        grid = np.array([[0.5, 1.0], [2.0, 4.0]])
        got = lower_incomplete_gamma(3.5, grid)
        assert got.shape == grid.shape
        for value, x in zip(got.ravel(), grid.ravel()):
            assert value == pytest.approx(lower_incomplete_gamma(3.5, float(x)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.3, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(2.0, -1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-0.5, 1.0)


def _i0_series(x: float) -> float:
    # power-series oracle sum_k (x/2)^{2k} / (k!)^2 with fsum guard
    terms = []
    t = 1.0
    k = 0
    while t > 1e-25:
        terms.append(t)
        k += 1
        t *= (0.25 * x * x) / (k * k)
    return math.fsum(terms)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0e(0.0) == 1.0

    @pytest.mark.parametrize("x", [1.0, 10.0, 29.0, 31.0, 80.0])
    def test_against_series_oracle(self, x):
        assert bessel_i0e(x) == pytest.approx(_i0_series(x) * math.exp(-x), rel=1e-12)

    def test_scaled_consistency(self):
        for x in (0.5, 5.0, 200.0):
            assert bessel_i0e(x) == pytest.approx(_i0_series(x) * math.exp(-x), rel=1e-12)

    def test_saturates(self):
        # I_0 itself overflows past x ~ 709; the scaled form follows its
        # asymptotic series e^{-x} I_0(x) ~ (1 + 1/(8x) + 9/(2 (8x)^2)) / sqrt(2 pi x)
        u = 1.0 / (8.0 * 800.0)
        expect = (1.0 + u + 4.5 * u * u) / math.sqrt(2.0 * math.pi * 800.0)
        assert bessel_i0e(800.0) == pytest.approx(expect, rel=1e-9)


class TestWeightDerivativeIdentity:
    """d/dx [w_{a+1}(x) L_mu^{(2a+1)}(2x)] against central differences."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 60),
        st.floats(-0.99, 2.0),
        st.floats(0.5, 50.0),
    )
    def test_recurrence_derivative(self, mu, a, x):
        alpha = 2.0 * a + 1.0

        def f(t):
            return t ** (a + 1.0) * math.exp(-t) * laguerre(mu, alpha, 2.0 * t)

        h = 1e-6 * max(1.0, x)
        deriv = (f(x + h) - f(x - h)) / (2.0 * h)
        amu = mu + 1.0
        bmu = 0.0 if mu == 0 else (mu - 1.0) + 2.0 * a + 2.0
        rhs = 0.5 * (x**a) * math.exp(-x) * (
            amu * laguerre(mu + 1, alpha, 2.0 * x)
            - (bmu * laguerre(mu - 1, alpha, 2.0 * x) if mu > 0 else 0.0)
        )
        scale = max(abs(deriv), abs(rhs), 1e-8)
        assert abs(deriv - rhs) / scale < 1e-5


class TestOrthogonality:
    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_laguerre_orthogonality(self, a):
        alpha = 2.0 * a + 1.0
        for m in range(0, 9, 2):
            for n in range(m, 9, 3):
                val, _ = quad(
                    lambda x: x**alpha
                    * math.exp(-x)
                    * laguerre(m, alpha, x)
                    * laguerre(n, alpha, x),
                    0.0,
                    np.inf,
                )
                expect = (
                    math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
                    if m == n
                    else 0.0
                )
                assert val == pytest.approx(expect, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_half_range_integral(self, a):
        # integral of w_a(y) L_mu^{(2a+1)}(2y) over [0, inf): a gamma ratio
        # for even order, zero for odd order
        for mu in range(11):
            val, _ = quad(
                lambda y: y**a * math.exp(-y) * laguerre(mu, 2.0 * a + 1.0, 2.0 * y),
                0.0,
                np.inf,
            )
            if mu % 2 == 0:
                expect = math.exp(math.lgamma(mu / 2.0 + a + 1.0) - math.lgamma(mu / 2.0 + 1.0))
            else:
                expect = 0.0
            assert val == pytest.approx(expect, abs=1e-8)
