"""Adaptive Gauss-Kronrod (G7/K15) integration.

Node and weight constants are the standard QUADPACK dqk15 values.  One
array rule, ``gk15``, integrates many panels and many integrands sharing
their nodes in one call; its two halves, ``gk15_nodes`` and ``gk15_sums``,
serve callers that reuse node values, and ``gk15_weights`` gives the
Kronrod weight of each node to a caller that sums its own.  The sums are dot products with
15-point weight vectors, not QUADPACK's pair-by-pair loop.  One routine,
``refine_panels``, bisects a whole set of panels for those integrands in
batches.  A single integrand is a one-row integrand on one starting panel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "gk15", "gk15_nodes", "gk15_sums", "gk15_weights", "refine_panels"]


class QuadratureError(RuntimeError):
    pass


# Kronrod-15 abscissae (positive half, descending) and weights; the
# even-index entries are the embedded Gauss-7 nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# node offsets in units of the half-width: -x_0..-x_6, the center, x_6..x_0
_X = np.array([-v for v in _XGK[:7]] + [0.0] + list(reversed(_XGK[:7])))

# the Kronrod and Gauss weights of the nodes _X; the Gauss nodes are the
# odd-index ones, and the Gauss weights are 0 at the Kronrod-only nodes
_WK15 = np.array(_WGK + _WGK[6::-1])
_WG15 = np.zeros(15)
_WG15[1::2] = _WG + _WG[2::-1]

_MAX_PANELS = 4096  # refine_panels' limit over all rows


def gk15(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """G7/K15 on every panel [lo_i, hi_i] at once: (kronrod values, error estimates).

    f takes the 1-D array of all panels' nodes and returns their values,
    the nodes on its last axis; leading axes are rows of integrands sharing
    the nodes.  Both results have the rows' shape with one entry per panel.
    """
    return gk15_sums(f(gk15_nodes(lo, hi)), lo, hi)


def gk15_nodes(lo, hi) -> np.ndarray:
    """The 15 Kronrod nodes of every panel [lo_i, hi_i], panel by panel, as one 1-D array."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (center[:, None] + half[:, None] * _X).ravel()


def gk15_weights(lo, hi) -> np.ndarray:
    """The Kronrod weights of ``gk15_nodes(lo, hi)``, each times its panel's half-width."""
    half = 0.5 * (np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float))
    return (half[:, None] * _WK15).ravel()


def gk15_sums(fv, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """gk15 from the integrand values fv at ``gk15_nodes(lo, hi)``.

    A caller that reuses node values across integrands evaluates them once
    and sums here.  The Kronrod, Gauss and resasc sums are dot products of
    each panel's 15 values with a 15-point weight vector (the Gauss one is
    0 at the Kronrod-only nodes), not QUADPACK's pair-by-pair sums, and the
    error is scaled against the integrand's variation as QUADPACK scales
    it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    fv = np.asarray(fv, dtype=float)
    fv = fv.reshape(fv.shape[:-1] + (len(lo), len(_X)))
    resk = (fv @ _WK15) * half
    resg = (fv @ _WG15) * half
    mean = resk / (hi - lo)
    resasc = (np.abs(fv - mean[..., None]) @ _WK15) * np.abs(half)
    err = np.abs(resk - resg)
    # err -> resasc * min(1, (200 err / resasc)^1.5) where resasc != 0 (err = 0 stays 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, np.power(200.0 * err / resasc, 1.5))
    return resk, np.where(resasc != 0.0, scaled, err)


def refine_panels(
    f, lo, hi, val, err, rel_tol: float, abs_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect panels until each row's summed error meets its tolerance.

    lo, hi are the panels and val, err their gk15 results, one row per
    integrand.  Row r's tolerance is max(abs_tol, rel_tol * |row total|),
    floored at 50 eps times the sum of |panel values|, which rounding keeps
    the total from meeting when the integral is 0 and abs_tol is too.  A
    panel's normalized error is its largest error over the rows in these
    units.  Each round bisects, in one gk15 call, every panel within 4x of
    the largest normalized error.  Returns each row's value and error.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    while True:
        tol = np.maximum(abs_tol, rel_tol * np.abs(val.sum(axis=1)))
        tol = np.maximum(tol, 50.0 * np.finfo(float).eps * np.abs(val).sum(axis=1))
        if all(e <= t for e, t in zip(err.sum(axis=1).tolist(), tol.tolist())):
            break
        score = (err / np.maximum(tol, 1e-300)[:, None]).max(axis=0).tolist()
        cut = 0.25 * max(score)
        pick = [i for i, s in enumerate(score) if s >= cut]
        keep = [i for i, s in enumerate(score) if s < cut]
        plo, phi = lo[pick], hi[pick]
        mid = 0.5 * (plo + phi)
        if any(not a < m < b for a, m, b in zip(plo.tolist(), mid.tolist(), phi.tolist())):
            break  # a panel at float resolution; stop refining
        if len(lo) + len(mid) > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature failed to converge within {_MAX_PANELS} panels: "
                f"estimates {val.sum(axis=1)} with errors {err.sum(axis=1)}"
            )
        v, e = gk15(f, np.concatenate((plo, mid)), np.concatenate((mid, phi)))
        lo = np.concatenate((lo[keep], plo, mid))
        hi = np.concatenate((hi[keep], mid, phi))
        val = np.concatenate((val[:, keep], v), axis=1)
        err = np.concatenate((err[:, keep], e), axis=1)
    return np.array([math.fsum(r) for r in val]), np.array([math.fsum(r) for r in err])
