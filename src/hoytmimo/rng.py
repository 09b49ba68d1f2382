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
arithmetic progression in place, with one scratch array.  A Box-Muller
block draws u1 and u2 through it as two contiguous every-other-output
streams and takes log and sqrt in place.
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


def _mix64_block(first: int, step: int, n: int) -> np.ndarray:
    """mix64 of the n states first + i * step (mod 2^64), mixed in place."""
    z = np.arange(n, dtype=np.uint64)
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


def gaussian_block(stream: SplitMix64, n: int) -> np.ndarray:
    """The next n standard-normal variates of the documented stream.

    Output 2i+1 (state s + (2i+1) gamma) gives u1 and output 2i+2 gives u2
    of pair i; each is drawn as its own contiguous stream and never held
    beside the other, so a block peaks at twice the size of its result.
    """
    npairs = (n + 1) // 2
    s = stream._state
    stream._state = (s + 2 * npairs * _GAMMA) & _MASK
    out = np.empty((npairs, 2))
    ang = _unit_doubles(_mix64_block(s + 2 * _GAMMA, 2 * _GAMMA, npairs))
    ang *= 2.0 * math.pi
    np.cos(ang, out=out[:, 0])
    np.sin(ang, out=out[:, 1])
    del ang
    r = _unit_doubles(_mix64_block(s + _GAMMA, 2 * _GAMMA, npairs))
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    out *= r[:, None]
    return out.reshape(-1)[:n]
