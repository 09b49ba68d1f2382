"""Adaptive Gauss-Kronrod (G7/K15) integration.

Node and weight constants are the standard QUADPACK dqk15 values.  One
array rule, ``gk15``, integrates many panels and many integrands sharing
their nodes in one call, and one driver, ``refine_panels``, bisects a
whole set of panels for those integrands in batches.  A single integrand
is a one-row integrand on one starting panel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "gk15", "refine_panels"]


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

_MAX_PANELS = 4096  # refine_panels' limit over all rows


def gk15(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """G7/K15 on every panel [lo_i, hi_i] at once: (kronrod values, error estimates).

    f takes the 1-D array of all panels' nodes and returns their values,
    the nodes on its last axis; leading axes are rows of integrands sharing
    the nodes.  Both results have the rows' shape with one entry per panel.
    The sums run in QUADPACK's order, node pairs symmetric about the center
    first, and the error is scaled against the integrand's variation as
    QUADPACK scales it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _X
    fv = np.asarray(f(nodes.ravel()), dtype=float)
    fv = fv.reshape(fv.shape[:-1] + nodes.shape)
    fc = fv[..., 7]
    pairs = [(fv[..., i], fv[..., 14 - i]) for i in range(7)]
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    for i, (f1, f2) in enumerate(pairs):
        resk = resk + _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            resg = resg + _WG[i // 2] * (f1 + f2)
    resk = resk * half
    resg = resg * half
    mean = resk / (hi - lo)
    resasc = _WGK[7] * np.abs(fc - mean)
    for i, (f1, f2) in enumerate(pairs):
        resasc = resasc + _WGK[i] * (np.abs(f1 - mean) + np.abs(f2 - mean))
    resasc = resasc * np.abs(half)
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
    integrand.  Row r's tolerance is max(abs_tol, rel_tol * |row total|) and
    a panel's normalized error is its largest error over the rows in these
    units.  Each round bisects, in one gk15 call, every panel within 4x of
    the largest normalized error.  Returns each row's value and error.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    while True:
        tol = np.maximum(abs_tol, rel_tol * np.abs(val.sum(axis=1)))
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
