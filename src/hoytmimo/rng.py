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
generated vectorized without changing the stream.
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


def _mix64_np(z: np.ndarray) -> np.ndarray:
    m1 = np.uint64(_M1)
    m2 = np.uint64(_M2)
    z = (z ^ (z >> np.uint64(30))) * m1
    z = (z ^ (z >> np.uint64(27))) * m2
    return z ^ (z >> np.uint64(31))


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
        idx = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK
        return _mix64_np(states)

    def next_double_block(self, n: int) -> np.ndarray:
        """n uniforms in (0, 1]."""
        x = self.next_uint64_block(n)
        return ((x >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TWO53_INV


def gaussian_block(stream: SplitMix64, n: int) -> np.ndarray:
    """The next n standard-normal variates of the documented stream."""
    npairs = (n + 1) // 2
    u = stream.next_double_block(2 * npairs)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * math.pi) * u2
    out = np.empty(2 * npairs)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]

