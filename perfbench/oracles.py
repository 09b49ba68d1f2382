"""Reference computations the benchmark checks the program against.

Nothing here imports hoytmimo.  Every value comes from the closed forms of
the complex-gaussian (q = 1) endpoint evaluated with scipy, from numpy's
own random generator, or from the README's specification of the
documented random stream.  The checks run outside the timed section.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy import integrate, special


# ---------------------------------------------------------------------------
# q = 1: the Laguerre unitary ensemble with weight y^alpha e^{-y}, y = lambda/omega


def lue_level_density(lam: float, nt: int, nr: int, omega: float = 1.0) -> float:
    """R_1(lambda) = sum_k k!/Gamma(k+alpha+1) L_k^alpha(y)^2 y^alpha e^{-y} / omega.

    The orthonormal-polynomial kernel on the diagonal; it integrates to N.
    """
    n, alpha = min(nt, nr), abs(nt - nr)
    y = lam / omega
    total = 0.0
    for k in range(n):
        norm = math.exp(special.gammaln(k + 1.0) - special.gammaln(k + alpha + 1.0))
        total += norm * float(special.eval_genlaguerre(k, alpha, y)) ** 2
    weight = math.exp(-y) if alpha == 0 else y**alpha * math.exp(-y)
    return total * weight / omega


def lue_capacity(nt: int, nr: int, power: float, omega: float = 1.0) -> float:
    """E[sum log2(1 + P lambda / nt)] at q = 1 by scipy.integrate.quad."""
    snr = power / nt

    def f(lam: float) -> float:
        return math.log2(1.0 + snr * lam) * lue_level_density(lam, nt, nr, omega)

    # split at the bulk so the adaptive rule sees the peak and the tail apart
    edge = max(nt, nr) * omega * (1.0 + math.sqrt(min(nt, nr) / max(nt, nr))) ** 2
    head, _ = integrate.quad(f, 0.0, edge, epsabs=0.0, epsrel=1e-12, limit=200)
    tail, _ = integrate.quad(f, edge, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return head + tail


def lue_jpd(lams, nt: int, nr: int, omega: float = 1.0) -> float:
    """Closed-form q = 1 joint density over unordered eigenvalues.

    p = Delta(lambda)^2 prod lambda_i^alpha e^{-lambda_i/omega}
        / (omega^{N M} prod_{k=1..N} Gamma(k+1) Gamma(k+alpha)),
    the Selberg normalization of the complex Wishart ensemble.
    """
    lams = np.asarray(lams, dtype=float)
    n, m = min(nt, nr), max(nt, nr)
    alpha = m - n
    log_norm = sum(special.gammaln(k + 1.0) + special.gammaln(k + alpha) for k in range(1, n + 1))
    log_p = -log_norm - n * m * math.log(omega)
    for i in range(n):
        for j in range(i + 1, n):
            log_p += 2.0 * math.log(abs(lams[i] - lams[j]))
        log_p += alpha * math.log(lams[i]) - lams[i] / omega
    return math.exp(log_p)


# ---------------------------------------------------------------------------
# an independent Hoyt channel sampler on numpy's default_rng


def hoyt_spectra(nt: int, nr: int, q: float, samples: int, seed: int, omega: float = 1.0) -> np.ndarray:
    """Eigenvalues (samples x N) of W for H = H_X + j H_Y with unequal variances.

    sigma_x^2 + sigma_y^2 = omega and sigma_y / sigma_x = q.
    """
    rng = np.random.default_rng(seed)
    sx = math.sqrt(omega / (1.0 + q * q))
    sy = q * sx
    h = sx * rng.standard_normal((samples, nr, nt)) + 1j * sy * rng.standard_normal((samples, nr, nt))
    hh = np.conj(np.swapaxes(h, 1, 2))
    w = hh @ h if nr >= nt else h @ hh
    return np.linalg.eigvalsh(w)


class Sampler:
    """hoyt_spectra at a fixed sample count, seeded by the input itself.

    The seed depends only on (nt, nr) and the nominal q a workload jitters
    around, so the same normal draws serve every round and a check's
    outcome moves smoothly with the inputs.  Spectra are kept in
    `cache_dir`, which the rounds of one run share.
    """

    def __init__(self, cache_dir: str, samples: int):
        self.cache_dir = cache_dir
        self.samples = samples

    def spectra(self, nt: int, nr: int, q: float, nominal_q: float | None = None) -> np.ndarray:
        key = q if nominal_q is None else nominal_q
        seed = int(round(key * 1e6)) * 10000 + nt * 100 + nr
        path = os.path.join(self.cache_dir, f"spectra-{nt}x{nr}-{q!r}-{seed}-{self.samples}.npy")
        if os.path.exists(path):
            return np.load(path)
        values = hoyt_spectra(nt, nr, q, self.samples, seed)
        np.save(path + ".part.npy", values)
        os.replace(path + ".part.npy", path)
        return values


def capacity_estimate(spectra: np.ndarray, nt: int, power: float) -> tuple[float, float]:
    """(mean, standard error) of sum log2(1 + P lambda / nt) over the draws."""
    caps = np.sum(np.log2(1.0 + (power / nt) * np.maximum(spectra, 0.0)), axis=1)
    return float(caps.mean()), float(caps.std(ddof=1) / math.sqrt(len(caps)))


def bin_probabilities(spectra: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-bin share of all eigenvalues and the number of eigenvalues drawn."""
    counts, _ = np.histogram(spectra.ravel(), bins=edges)
    return counts / spectra.size, spectra.size


def bins_within(p1, n1, p2, n2, sigmas: float = 3.0, min_count: float = 20.0) -> tuple[int, int]:
    """(bins agreeing within `sigmas` binomial errors, bins compared).

    n2 = None marks p2 as exact (an integral of the analytic density).
    Bins expecting fewer than `min_count` eigenvalues are not compared.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    var = p1 * (1.0 - p1) / n1
    if n2 is not None:
        var = var + p2 * (1.0 - p2) / n2
    used = np.maximum(p1, p2) * n1 >= min_count
    ok = np.abs(p1 - p2) <= sigmas * np.sqrt(var)
    return int(np.sum(ok & used)), int(np.sum(used))


# ---------------------------------------------------------------------------
# the documented SplitMix64 / Box-Muller stream (README, "Random numbers")

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_gaussians(seed: int, chunk: int, count: int) -> list[float]:
    """The first `count` gaussians of substream `chunk` of master seed `seed`."""
    state = _mix64((_mix64(seed & _MASK) + chunk * _GAMMA) & _MASK)
    out: list[float] = []
    while len(out) < count:
        state = (state + _GAMMA) & _MASK
        u1 = ((_mix64(state) >> 11) + 1) * 2.0**-53
        state = (state + _GAMMA) & _MASK
        u2 = ((_mix64(state) >> 11) + 1) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out.append(r * math.cos(2.0 * math.pi * u2))
        out.append(r * math.sin(2.0 * math.pi * u2))
    return out[:count]


def first_chunk_spectra(nt: int, nr: int, q: float, seed: int, samples: int, omega: float = 1.0) -> np.ndarray:
    """Eigenvalues of the first `samples` draws of chunk 0 of the documented stream.

    Each draw consumes 2 nr nt gaussians: the real part row-major, then
    the imaginary part; the real part carries the larger variance.
    """
    k = nr * nt
    g = np.array(stream_gaussians(seed, 0, samples * 2 * k)).reshape(samples, 2 * k)
    sx = math.sqrt(omega / (1.0 + q * q))
    sy = q * sx
    h = sx * g[:, :k].reshape(samples, nr, nt) + 1j * sy * g[:, k:].reshape(samples, nr, nt)
    hh = np.conj(np.swapaxes(h, 1, 2))
    w = hh @ h if nr >= nt else h @ hh
    return np.maximum(np.linalg.eigvalsh(w), 0.0)
