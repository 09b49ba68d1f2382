"""Monte Carlo channel simulator: the stochastic cross-check for every
analytic result.

Reproducibility contract: the sample index space is split into fixed
chunks of ``CHUNK_SAMPLES``; chunk k draws from an independent SplitMix64
substream seeded by ``derive_stream_seed(seed, k)``.  Within a chunk the
gaussian stream is consumed sample by sample: first nr*nt values fill the
real part row-major, the next nr*nt the imaginary part.  Results are
therefore bit-identical for a given seed regardless of how chunks are
scheduled.  The single-draw samplers read the same helpers with m = 1.

Where sigma_y^2 = 0 (q = 0, the one-sided Gaussian endpoint) every
imaginary entry is 0, and H is drawn as a real matrix: only the nr*nt
real-part gaussians of each sample are formed, and the counter skips the
rest, so stream positions and values are those of the full draw.  Gram
matrices, eigenvalues and Cholesky factors of a real stack are then taken
in real arithmetic; ``sample_channel`` still returns a complex H.

Each chunk is drawn and reduced in sub-blocks (``_chunks``): contiguous
ranges of ``_block_samples(cfg, q)`` samples.  Sub-block (k, lo, n) is
drawn from chunk k's substream moved past lo * 2 nr nt outputs, so the
sub-blocks are exactly the chunk's one-block draw.  A sub-block holds at
most ``_BLOCK_BYTES`` of channels H, real or complex (at least one
sample), and its gaussians, gram matrices and Cholesky factors are freed
once it is reduced.  What a sub-block reduces to, N eigenvalues or one
capacity per sample, is written into the chunk's result array, and the
chunk-level steps (the PSD floor check, the histogram and the sums) read
that array as they would a whole-chunk draw.

When a call has more than one sub-block and the process may run on more
than one CPU, one background thread draws sub-blocks ahead, and the caller
draws the next undrawn one itself rather than wait: both take it from one
shared index, at most ``_LOOKAHEAD`` past the sub-block the caller
reduces, so up to ``_LOOKAHEAD + 1`` sub-blocks of H are live.  The draw
(``gaussian_block`` and the sigma scaling) is numpy ufunc work that
releases the GIL.  The reductions, with every BLAS and LAPACK call, and
the histogram and sums stay on the caller's thread in chunk order, so no
schedule moves a value.  The working memory is bounded by a few times
``_BLOCK_BYTES`` plus the chunk's (CHUNK_SAMPLES, N) result, whatever the
array size.

The gram matrix is W = H^dag H, or H H^dag when nr < nt.  For N <= 3 the
histogram takes its eigenvalues in closed form from the lower triangle of
W, each entry a sum over the long axis of H (``_lower_triangle``), so the
full W is never built and LAPACK sees only the few members whose
eigenvalues nearly coincide.  For N >= 4 W is one matmul and its spectra
come from the batched LAPACK routine.  The capacity reads no eigenvalues,
taking log2 det(I + snr W) from the pivots of its Cholesky factor.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .ensemble import ChannelConfig, NumericalConsistencyError, mp_support
from .fading import params_from_q
from .linalg import hermitian_eigenvalues_batch, hermitian_eigenvalues_lower
from .rng import SplitMix64, derive_stream_seed, gaussian_block

__all__ = [
    "CHUNK_SAMPLES",
    "Histogram",
    "SpectralSample",
    "sample_channel",
    "sample_spectrum",
    "empirical_density",
    "mc_capacity",
]

CHUNK_SAMPLES = 8192

# Bytes of H per sub-block: 16 samples at 4x256, 256 at 8x8, 4096 at 2x2.
# Against 128 KiB and 1 MiB it was as fast or faster on 2x2 to 4x256, with
# peak RSS within 0.5 MiB of 128 KiB's (measurements in CHANGES.md).  Up to
# _LOOKAHEAD + 1 sub-blocks of H are live at once (see _chunks).
_BLOCK_BYTES = 256 * 1024

# Sub-blocks that may be drawn past the one the caller reduces.  perfbench's
# eleven monte-carlo calls took 700 ms at 2, 900 at 1 and 684 at 3 (sums of
# medians of 6 runs, 2-core VM): 3 would keep one more block live for 2%.
_LOOKAHEAD = 2

_CLAMP_FACTOR = 1e-10


@dataclass
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    total_samples: int
    normalized_values: np.ndarray  # marginal-density estimate per bin
    normalized_stderr: np.ndarray  # binomial standard error of the estimate
    eigenvalue_sum: float  # over all draws, range-independent


@dataclass
class SpectralSample:
    eigenvalues: np.ndarray  # ascending, length N, clamped at 0


def _channels(cfg: ChannelConfig, q: float, stream: SplitMix64, m: int) -> np.ndarray:
    """m consecutive channel draws H = H_X + j H_Y, shape (m, nr, nt).

    H is complex, or float64 where sigma_y^2 = 0: then each sample's
    nr*nt real-part gaussians are the only ones formed.
    """
    p = params_from_q(q, cfg.omega)
    nr, nt = cfg.nr, cfg.nt
    if p.sigma_y2 == 0.0:
        k = nr * nt
        g = gaussian_block(stream, m * 2 * k, width=2 * k, keep=k)
        h = np.empty((m, nr, nt))
        np.multiply(g, math.sqrt(p.sigma_x2), out=h.reshape(m, k))
        return h
    g = gaussian_block(stream, m * 2 * nr * nt).reshape(m, 2, nr, nt)
    h = np.empty((m, nr, nt), dtype=complex)
    np.multiply(g[:, 0], math.sqrt(p.sigma_x2), out=h.real)
    np.multiply(g[:, 1], math.sqrt(p.sigma_y2), out=h.imag)
    return h


def _conj(x: np.ndarray) -> np.ndarray:
    """conj(x), or x itself when it is real."""
    return np.conj(x) if np.iscomplexobj(x) else x


def _gram(cfg: ChannelConfig, h: np.ndarray) -> np.ndarray:
    """The N x N gram matrices of a channel stack: H^dag H, or H H^dag if nr < nt."""
    hh = _conj(np.swapaxes(h, 1, 2))
    return hh @ h if cfg.nr >= cfg.nt else h @ hh


def _lower_triangle(cfg: ChannelConfig, h: np.ndarray):
    """The gram matrices' diagonals w_jj and lower entries w_jk, j > k, one 1-D array each.

    The vectors u_j are the columns of H when nr >= nt and its rows
    otherwise, so w_jk = sum conj(u_j) u_k for H^dag H and
    sum u_j conj(u_k) for H H^dag.  The order is that of
    hermitian_eigenvalues_lower.
    """
    n = cfg.n
    u = [h[:, :, j] for j in range(n)] if cfg.nr >= cfg.nt else [h[:, j] for j in range(n)]
    pairs = ((j, k) if cfg.nr >= cfg.nt else (k, j) for j in range(n) for k in range(j))
    lower = [np.einsum("si,si->s", _conj(u[x]), u[y]) for x, y in pairs]
    # a complex stack takes its diagonal with the complex kernel too: a real
    # one would map pages of numpy's einsum code that no other step of a
    # complex simulate run touches (64 KiB RSS)
    diag = [np.einsum("si,si->s", _conj(v), v).real for v in u]
    return diag, lower


def _eigenvalues(cfg: ChannelConfig, h: np.ndarray) -> np.ndarray:
    """Ascending gram-matrix eigenvalues of a channel stack, shape (m, N), unclamped."""
    if cfg.n <= 3:
        return hermitian_eigenvalues_lower(*_lower_triangle(cfg, h))
    return hermitian_eigenvalues_batch(_gram(cfg, h))


def _clamped(vals: np.ndarray) -> np.ndarray:
    """vals with round-off below zero clamped to 0, the floor set by the largest |value|.

    Anything further below is a solver fault and raises.
    """
    scale = float(np.max(np.abs(vals))) if vals.size else 1.0
    floor = -_CLAMP_FACTOR * max(scale, 1e-300)
    if np.any(vals < floor):
        raise NumericalConsistencyError(
            f"eigenvalue below the PSD round-off floor ({vals.min()} < {floor}); "
            "this indicates a solver fault"
        )
    return np.maximum(vals, 0.0)


def _spectra(cfg: ChannelConfig, h: np.ndarray) -> np.ndarray:
    """Ascending gram-matrix eigenvalues of a channel stack, shape (m, N), clamped at 0."""
    return _clamped(_eigenvalues(cfg, h))


def _capacities(cfg: ChannelConfig, h: np.ndarray, snr: float) -> np.ndarray:
    """log2 det(I + snr W) per channel of the stack, from the Cholesky factor L of I + snr W.

    det is the product of the pivots l_jj^2 = 1 + snr w_jj - sum_{k<j} |l_jk|^2.
    Each enters as log1p of its excess over 1, formed without the 1, so a
    small capacity keeps its relative accuracy; log2 l_jj would round the
    pivot near 1, and its square root, with a bias.  w_jj is read from H
    once the factor exists, so the gram stack is freed before the norms
    are formed; at sub-block size all of these arrays are small.
    """
    a = _gram(cfg, h)
    a *= snr
    i = np.arange(cfg.n)
    a[:, i, i] += 1.0
    low = np.linalg.cholesky(a)
    del a
    low[:, i, i] = 0.0  # keep the l_jk, k < j
    parts = low.view(np.float64)  # real and imaginary parts side by side, if complex
    norms = "sij,sij->sj" if cfg.nr >= cfg.nt else "sij,sij->si"  # w_jj: column or row norms of H
    excess = np.einsum(norms, h.real, h.real)
    if np.iscomplexobj(h):
        excess += np.einsum(norms, h.imag, h.imag)
    excess *= snr
    excess -= np.einsum("sjk,sjk->sj", parts, parts)
    return np.sum(np.log1p(excess), axis=1) / math.log(2.0)


def sample_channel(cfg: ChannelConfig, q: float, stream: SplitMix64) -> np.ndarray:
    """One complex nr x nt channel draw from the stream (2 nr nt gaussians)."""
    return _channels(cfg, q, stream, 1)[0].astype(complex, copy=False)


def sample_spectrum(cfg: ChannelConfig, q: float, stream: SplitMix64) -> SpectralSample:
    """Eigenvalues of the gram matrix of one channel draw."""
    return SpectralSample(eigenvalues=_spectra(cfg, _channels(cfg, q, stream, 1))[0])


def _block_samples(cfg: ChannelConfig, q: float) -> int:
    """Samples per sub-block: as many channels at q as fit in _BLOCK_BYTES, at least one."""
    # _channels draws H as float64 where sigma_y^2 = 0, else as complex128
    itemsize = 8 if params_from_q(q, cfg.omega).sigma_y2 == 0.0 else 16
    return max(1, _BLOCK_BYTES // (itemsize * cfg.nr * cfg.nt))


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(cfg: ChannelConfig, q: float, samples: int, seed: int, reduce):
    """Yield, for each chunk, reduce(H) over the chunk's channel stack H, deterministically.

    reduce maps a stack of m channels to an array whose first axis holds
    the m samples.  It is applied to each sub-block in stream order, and
    the rows are gathered into one array per chunk, so no chunk-sized
    channel stack is ever built.  With more than one sub-block and more
    than one CPU, one background thread draws sub-blocks ahead, and the
    caller draws the next undrawn one itself rather than wait; reduce, and
    with it every BLAS and LAPACK call, stays on the caller's thread.  A
    draw's exception reaches the caller, and the thread is joined however
    the generator ends, close() included.
    """
    block = _block_samples(cfg, q)
    sizes = [min(CHUNK_SAMPLES, samples - done) for done in range(0, samples, CHUNK_SAMPLES)]
    parts = [(k, lo, min(block, m - lo)) for k, m in enumerate(sizes) for lo in range(0, m, block)]
    drawn = {}  # sub-block -> H, or the exception its draw raised on the thread
    claimed = reduced = 0  # sub-blocks taken to draw, and reduced, in stream order
    stop = False
    cond = threading.Condition()

    def draw(i):
        k, lo, n = parts[i]
        stream = SplitMix64(derive_stream_seed(seed, k))
        stream.advance(lo * 2 * cfg.nr * cfg.nt)
        return _channels(cfg, q, stream, n)

    def claim(ready):  # under cond: wait for ready() (then None) or a sub-block to draw
        nonlocal claimed
        cond.wait_for(lambda: ready() or claimed < min(len(parts), reduced + _LOOKAHEAD + 1))
        if ready():
            return None
        claimed += 1
        return claimed - 1

    def work():
        while True:
            with cond:
                i = claim(lambda: stop or claimed == len(parts))
            if i is None:
                return
            try:
                h = draw(i)
            except BaseException as exc:  # raised again on the caller's thread
                h = exc
            with cond:
                drawn[i] = h
                cond.notify_all()

    def take(i):
        while True:
            with cond:
                j = claim(lambda: i in drawn)
                if j is None:
                    h = drawn.pop(i)
                    if isinstance(h, BaseException):
                        raise h
                    return h
            h = draw(j)
            if j == i:
                return h
            with cond:
                drawn[j] = h

    thread = None
    if len(parts) > 1 and _cpus() > 1:
        thread = threading.Thread(target=work, name="hoytmimo-draw")
        thread.start()
    try:
        for i, (k, lo, n) in enumerate(parts):
            part = reduce(take(i))
            with cond:
                reduced += 1
                cond.notify_all()
            if lo == 0:
                out = np.empty((sizes[k],) + part.shape[1:], dtype=part.dtype)
            out[lo : lo + n] = part
            if lo + n == sizes[k]:
                yield out
    finally:
        if thread is not None:
            with cond:
                stop = True
                cond.notify_all()
            thread.join()


def _count(value, name: str) -> int:
    """value as an int, for an integer of any kind; a clear TypeError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def empirical_density(
    cfg: ChannelConfig,
    q: float,
    samples: int,
    bins: int,
    value_range: tuple[float, float] | None = None,
    seed: int = 0,
) -> Histogram:
    """Histogram of all N*samples eigenvalues as a marginal-density estimate.

    Default range is [0, 1.2 * upper MP edge].  Deterministic given seed.
    The arguments are checked before anything is drawn: the range must be
    finite, hi - lo too, and each of its bins at least the smallest
    normal float wide, so that every density is finite.
    """
    samples, bins = _count(samples, "samples"), _count(bins, "bins")
    if samples < 1 or bins < 1:
        raise ValueError("samples and bins must be >= 1")
    lo, hi = map(float, (0.0, 1.2 * mp_support(cfg)[1]) if value_range is None else value_range)
    if not math.isfinite(hi - lo):  # Python floats: overflow gives inf, not a warning
        raise ValueError("range ends and their difference must be finite")
    if not hi > lo:
        raise ValueError("range needs hi > lo")
    edges = np.linspace(lo, hi, bins + 1)
    if not np.diff(edges).min() >= np.finfo(float).tiny:
        raise ValueError(f"range {lo!r}:{hi!r} is too narrow for {bins} bins")
    counts = np.zeros(bins, dtype=np.int64)
    eigen_sum = 0.0
    with closing(_chunks(cfg, q, samples, seed, lambda h: _eigenvalues(cfg, h))) as chunks:
        for raw in chunks:
            vals = _clamped(raw)
            c, _ = np.histogram(vals.ravel(), bins=edges)
            counts += c
            eigen_sum += float(np.sum(vals))
    n_eigs = samples * cfg.n
    width = np.diff(edges)
    frac = counts / n_eigs
    density = frac / width
    stderr = np.sqrt(frac * (1.0 - frac) / n_eigs) / width
    return Histogram(
        bin_edges=edges,
        counts=counts,
        total_samples=samples,
        normalized_values=density,
        normalized_stderr=stderr,
        eigenvalue_sum=eigen_sum,
    )


def mc_capacity(
    cfg: ChannelConfig,
    q: float,
    power: float,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo ergodic capacity (mean, standard error), power linear."""
    if not 0.0 < power < math.inf:
        raise ValueError("power must be positive and finite (linear units)")
    samples = _count(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    snr = power / cfg.nt
    total = 0.0
    total_sq = 0.0
    with closing(_chunks(cfg, q, samples, seed, lambda h: _capacities(cfg, h, snr))) as chunks:
        for cap in chunks:
            total += float(np.sum(cap))
            total_sq += float(np.sum(cap * cap))
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    stderr = math.sqrt(var / samples)
    return mean, stderr
