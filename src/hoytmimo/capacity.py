"""Ergodic Shannon capacity from the analytic level density.

Power convention: ``power`` arguments are linear; the CLI and the *_db
helpers convert as P = 10^(dB/10).  Capacity is in bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .ensemble import ChannelConfig, SeriesControl, DEFAULT_CONTROL, level_density, mp_support
from .quadrature import adaptive_gauss_kronrod

__all__ = ["CapacityResult", "ergodic_capacity", "degradation", "capacity_sweep", "db_to_linear"]

_TAIL_ABS = 1e-9
_MAX_TAIL_EXTENSIONS = 40


def db_to_linear(power_db: float) -> float:
    return 10.0 ** (power_db / 10.0)


@dataclass(frozen=True)
class CapacityResult:
    capacity: float  # bits/s/Hz
    est_abs_error: float
    config: ChannelConfig
    q: float
    power_db: float


def ergodic_capacity(
    cfg: ChannelConfig,
    q: float,
    power: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    rel_tol: float = 1e-9,
) -> CapacityResult:
    """Mean capacity: integral of log2(1 + P lambda / nt) against R_1.

    Integrates on [0, Lambda] with Lambda = 1.5 * (upper MP edge), then
    extends the cut until the next segment contributes < 1e-9 absolute.
    Every array integrates in u = sqrt(lambda): the q = 0 density of a
    square array (a = -1/2) has an integrable lambda^{-1/2} edge, and the
    substitution also takes fewer integrand evaluations for the others.
    """
    if not power > 0.0:
        raise ValueError("power must be positive (linear units)")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    snr = power / cfg.nt

    def integrand(u: float) -> float:  # lambda = u^2
        lam = u * u
        return 2.0 * u * (math.log2(1.0 + snr * lam) * level_density(lam, cfg, q, ctrl))

    def segment(lo: float, hi: float) -> tuple[float, float]:
        return adaptive_gauss_kronrod(
            integrand, math.sqrt(lo), math.sqrt(hi), rel_tol=rel_tol, abs_tol=1e-12
        )

    cut = 1.5 * mp_support(cfg)[1]
    total, err = segment(0.0, cut)
    for _ in range(_MAX_TAIL_EXTENSIONS):
        nxt = 1.5 * cut
        tail, tail_err = segment(cut, nxt)
        total += tail
        err += tail_err
        cut = nxt
        if abs(tail) < _TAIL_ABS:
            break
    else:
        raise RuntimeError("capacity tail did not fall below the cutoff bound")
    return CapacityResult(
        capacity=total,
        est_abs_error=err,
        config=cfg,
        q=q,
        power_db=10.0 * math.log10(power),
    )


def degradation(
    cfg: ChannelConfig,
    power: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """Fractional capacity loss from q = 1 to q = 0: 1 - C(0)/C(1)."""
    c0 = ergodic_capacity(cfg, 0.0, power, ctrl).capacity
    c1 = ergodic_capacity(cfg, 1.0, power, ctrl).capacity
    return 1.0 - c0 / c1


def capacity_sweep(
    cfg: ChannelConfig,
    q_values,
    power_db_values,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> list[CapacityResult]:
    """Cartesian capacity table, rows ordered (q outer, power inner)."""
    q_values = list(q_values)
    power_db_values = list(power_db_values)
    if not q_values or not power_db_values:
        raise ValueError("q and power grids must be non-empty")
    out = []
    for q in q_values:
        for pdb in power_db_values:
            out.append(ergodic_capacity(cfg, q, db_to_linear(pdb), ctrl))
    return out
