import math

import numpy as np
import pytest

from hoytmimo.quadrature import QuadratureError, gk15, refine_panels


def integrate(f, a, b, rel_tol=1e-10, abs_tol=0.0):
    """One scalar integrand on [a, b]: one row on one panel, refined by refine_panels."""
    lo, hi = np.array([a]), np.array([b])

    def rows(u):
        return [[f(t) for t in u.tolist()]]

    (val,), (err,) = refine_panels(rows, lo, hi, *gk15(rows, lo, hi), rel_tol, abs_tol)
    return float(val), float(err)


def test_polynomial_exact():
    val, err = integrate(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
    assert val == pytest.approx(4.0 - 4.0 + 2.0, rel=1e-13)
    assert err < 1e-10


def test_exponential():
    val, _ = integrate(math.exp, 0.0, 1.0, rel_tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)


def test_oscillatory():
    # the integral is 0, so only an absolute floor can be met (capacity's 1e-12)
    val, _ = integrate(lambda x: math.sin(10.0 * x), 0.0, math.pi, rel_tol=1e-11, abs_tol=1e-12)
    assert val == pytest.approx((1.0 - math.cos(10.0 * math.pi)) / 10.0, abs=1e-10)


def test_integrable_sqrt_singularity_via_substitution():
    # 1/sqrt(x) on (0, 1]: integrate 2 du after x = u^2
    val, _ = integrate(lambda u: 2.0, 0.0, 1.0)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_error_estimate_covers_true_error():
    f = lambda x: math.exp(-x) * math.sin(3.0 * x)  # noqa: E731
    val, err = integrate(f, 0.0, 10.0, rel_tol=1e-9)
    exact = (3.0 - math.exp(-10.0) * (math.sin(30.0) * 1.0 + 3.0 * math.cos(30.0))) / 10.0
    assert abs(val - exact) <= max(err, 1e-12)


def test_nonconvergent_raises():
    # noise never settles, so the panels pass the 4096 limit
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        integrate(lambda x: float(rng.normal()), 0.0, 1.0, rel_tol=1e-12)


def test_returns_at_float_resolution():
    # the same noise on an interval four floats wide: its panels reach float
    # resolution long before the panel limit, and the call returns
    rng = np.random.default_rng(0)
    a, b = 1.0, 1.0 + 4.0 * math.ulp(1.0)
    val, err = integrate(lambda x: float(rng.normal()), a, b, rel_tol=1e-12)
    assert err > 1e-12 * abs(val)  # returned with the tolerance unmet
    assert abs(val) <= 10.0 * (b - a)


def test_rows_share_panels():
    # several integrands on one node set, each meeting its own tolerance
    lo, hi = np.linspace(0.0, 2.0, 4)[:-1], np.linspace(0.0, 2.0, 4)[1:]

    def rows(u):
        return np.array([np.exp(u), np.cos(5.0 * u), u**4])

    val, err = refine_panels(rows, lo, hi, *gk15(rows, lo, hi), 1e-12, 1e-14)
    exact = [math.exp(2.0) - 1.0, math.sin(10.0) / 5.0, 32.0 / 5.0]
    assert val == pytest.approx(exact, rel=1e-12)
    assert np.all(err <= np.maximum(1e-14, 1e-12 * np.abs(val)))
