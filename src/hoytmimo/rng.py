"""Reproducible random streams: SplitMix64 + Box-Muller.

The generator is fully specified so any implementation can reproduce the
streams bit-exactly at the integer level (see README, "Random numbers"):

* state transition: ``state_{i} = (state_{i-1} + 0x9E3779B97F4A7C15) mod 2^64``
* output: ``mix64(state_i)`` where mix64 is the SplitMix64 finalizer
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64)
* uniform double: ``u = ((x >> 11) + 1) * 2^-53``  (in (0, 1], never 0)
* Box-Muller: consecutive outputs x_{2i-1}, x_{2i} give uniforms u1, u2 and
  gaussians ``g_{2i-1} = sqrt(-2 ln u1) cos(2 pi u2)``,
  ``g_{2i} = sqrt(-2 ln u1) sin(2 pi u2)``.
* substream k of master seed s starts from state
  ``mix64((mix64(s) + k * 0x9E3779B97F4A7C15) mod 2^64)``.

Because outputs depend only on the counter, blocks of any size can be
generated vectorized without changing the stream.  One vectorized mixer,
``_mix64_block``, serves every block: it mixes the states of an
arithmetic progression, or of chosen terms of one, in place, with one
scratch array.  A Box-Muller block draws u1 and u2 through it as two
every-other-output streams and takes log and sqrt in place.  A block may
form only a leading part of each of its equal rows (``width`` and
``keep``): it then draws just the pairs that part needs, and the counter
still moves past the whole block.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SplitMix64", "derive_stream_seed", "gaussian_block"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_TWO53_INV = 2.0 ** -53


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix64_block(first: int, step: int, index) -> np.ndarray:
    """mix64 of the states first + i * step (mod 2^64), mixed in place.

    i runs over range(index) for a count, or over the entries of a 1-D
    uint64 array index, which is left unchanged.
    """
    z = index.astype(np.uint64) if isinstance(index, np.ndarray) else np.arange(index, dtype=np.uint64)
    z *= np.uint64(step & _MASK)
    z += np.uint64(first & _MASK)
    t = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _unit_doubles(x: np.ndarray) -> np.ndarray:
    """Uniforms ((x >> 11) + 1) * 2^-53 of the outputs x, which it overwrites."""
    x >>= np.uint64(11)
    x += np.uint64(1)
    u = x.astype(np.float64)
    u *= _TWO53_INV
    return u


def derive_stream_seed(seed: int, index: int) -> int:
    """Deterministic substream seed for chunk ``index`` of master ``seed``."""
    return _mix64((_mix64(seed) + (index * _GAMMA)) & _MASK)


class SplitMix64:
    """Counter-based SplitMix64 uint64 source."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def next_uint64_block(self, n: int) -> np.ndarray:
        """The next n outputs, as one vectorized draw (stream-identical)."""
        x = _mix64_block(self._state + _GAMMA, _GAMMA, n)
        self._state = (self._state + n * _GAMMA) & _MASK
        return x

    def next_double_block(self, n: int) -> np.ndarray:
        """n uniforms in (0, 1]."""
        return _unit_doubles(self.next_uint64_block(n))


def gaussian_block(
    stream: SplitMix64, n: int, *, width: int | None = None, keep: int | None = None
) -> np.ndarray:
    """The next n standard-normal variates of the documented stream.

    Output 2i+1 (state s + (2i+1) gamma) gives u1 and output 2i+2 gives u2
    of pair i; each is drawn as its own every-other-output stream and never
    held beside the other, so a block peaks at twice the size of its result.

    With width and keep, the n variates are read as rows of width, an even
    divisor of n, so that every row starts on a pair; only the first keep
    variates of each row are formed, from its first ceil(keep / 2) pairs,
    and the result has shape (n // width, keep).  The stream still moves
    past all n, so the values and what follows are those of the full block.
    """
    npairs = (n + 1) // 2
    pairs = npairs
    if width is not None or keep is not None:
        if width is None or keep is None or not 0 < keep <= width or width % 2 or n % width:
            raise ValueError(f"cannot keep {keep} of each row of {width} in {n} variates")
        # pair j of row r is pair r * width / 2 + j of the block
        starts = np.arange(0, npairs, width // 2, dtype=np.uint64)
        pairs = np.add.outer(starts, np.arange((keep + 1) // 2, dtype=np.uint64)).ravel()
    s = stream._state
    stream._state = (s + 2 * npairs * _GAMMA) & _MASK
    out = np.empty((npairs if width is None else len(pairs), 2))
    ang = _unit_doubles(_mix64_block(s + 2 * _GAMMA, 2 * _GAMMA, pairs))
    ang *= 2.0 * math.pi
    np.cos(ang, out=out[:, 0])
    np.sin(ang, out=out[:, 1])
    del ang
    r = _unit_doubles(_mix64_block(s + _GAMMA, 2 * _GAMMA, pairs))
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    out *= r[:, None]
    if width is None:
        return out.reshape(-1)[:n]
    return out.reshape(n // width, -1)[:, :keep]
