"""Nakagami-q (Hoyt) signal model.

Parameter conventions: the complex signal is Z = X + jY with independent
zero-mean gaussians X, Y of variances sigma_x2 >= sigma_y2, total power
omega = sigma_x2 + sigma_y2 and Hoyt parameter q = sigma_y/sigma_x in
[0, 1].  The crossover parameter tau satisfies
exp(-tau) = (1 - q^2)/(1 + q^2); q = 1 maps to tau = +inf exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ensemble import crossover_tau
from .rng import SplitMix64, gaussian_block
from .specfun import bessel_i0e

__all__ = [
    "FadingParams",
    "params_from_q",
    "params_from_sigmas",
    "envelope_pdf",
    "phase_pdf",
    "sample_signal",
]


@dataclass(frozen=True)
class FadingParams:
    q: float
    omega: float
    tau: float  # +inf allowed (q = 1)
    sigma_x2: float
    sigma_y2: float


def params_from_q(q: float, omega: float) -> FadingParams:
    """Build FadingParams from (q, omega)."""
    tau = crossover_tau(q)
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    e = 0.0 if q == 1.0 else (1.0 - q * q) / (1.0 + q * q)  # e^{-tau}
    sigma_x2 = 0.5 * (1.0 + e) * omega
    sigma_y2 = 0.5 * (1.0 - e) * omega
    return FadingParams(q=q, omega=omega, tau=tau, sigma_x2=sigma_x2, sigma_y2=sigma_y2)


def params_from_sigmas(sigma_x: float, sigma_y: float) -> FadingParams:
    """Build FadingParams from the two component standard deviations.

    Storage keeps sigma_x2 >= sigma_y2; q is the small/large ratio.
    """
    if sigma_x < 0.0 or sigma_y < 0.0:
        raise ValueError("standard deviations must be nonnegative")
    hi, lo = max(sigma_x, sigma_y), min(sigma_x, sigma_y)
    if hi == 0.0:
        raise ValueError("at least one of sigma_x, sigma_y must be nonzero")
    q = lo / hi
    omega = sigma_x * sigma_x + sigma_y * sigma_y
    return params_from_q(q, omega)


def envelope_pdf(r: float, p: FadingParams) -> float:
    """Density of the signal envelope R = |Z| at r >= 0.

    For q = 0 the Hoyt form is singular, so the exact one-sided gaussian
    density of |X| (X ~ Normal(0, omega)) is returned instead.
    """
    if r < 0.0:
        raise ValueError("envelope r must be >= 0")
    q, omega = p.q, p.omega
    if q == 0.0:
        return math.sqrt(2.0 / (math.pi * omega)) * math.exp(-r * r / (2.0 * omega))
    # scaled-Bessel form: the exp(-.)*I0(.) product is carried as
    # exp(-(1+q^2) r^2 / (2 omega)) * i0e(arg), numerically safe for small q
    q2 = q * q
    arg = (1.0 - q2 * q2) * r * r / (4.0 * q2 * omega)
    return (
        (1.0 + q2)
        * r
        / (q * omega)
        * math.exp(-(1.0 + q2) * r * r / (2.0 * omega))
        * bessel_i0e(arg)
    )


def phase_pdf(theta: float, p: FadingParams) -> float:
    """Density of the signal phase on [-pi, pi)."""
    if not -math.pi <= theta < math.pi:
        raise ValueError("theta must lie in [-pi, pi)")
    if p.sigma_y2 == 0.0 or p.sigma_x2 == 0.0:
        raise ValueError("phase density degenerates when a component variance is 0")
    sx = math.sqrt(p.sigma_x2)
    sy = math.sqrt(p.sigma_y2)
    s = math.sin(theta)
    c = math.cos(theta)
    return sx * sy / (2.0 * math.pi * (p.sigma_x2 * s * s + p.sigma_y2 * c * c))


def sample_signal(p: FadingParams, stream: SplitMix64) -> complex:
    """One draw of Z = X + jY; consumes two gaussians (X first, then Y)."""
    g = gaussian_block(stream, 2)
    return complex(
        math.sqrt(p.sigma_x2) * g[0],
        math.sqrt(p.sigma_y2) * g[1],
    )
