import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoytmimo.ensemble import ChannelConfig
from hoytmimo.linalg import (
    determinant_signed_log,
    hermitian_eigenvalues_batch,
    pfaffian_signed_log,
)
from hoytmimo.montecarlo import _spectra, sample_channel, sample_spectrum
from hoytmimo.rng import SplitMix64


def hermitian_eigenvalues(w: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix via real-embedded Jacobi.

    The independent reference for the LAPACK batch the library uses.  The
    N x N Hermitian W maps to the 2N x 2N real symmetric
    [[Re W, -Im W], [Im W, Re W]] whose spectrum is that of W doubled;
    cyclic Jacobi sweeps run until the off-diagonal norm is <= tol * ||W||.
    """
    w = np.asarray(w, dtype=complex)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(w))) if n else 0.0
    if np.max(np.abs(w - w.conj().T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not Hermitian within 1e-12")
    w = 0.5 * (w + w.conj().T)
    if scale == 0.0:
        return np.zeros(n)

    s = np.block([[w.real, -w.imag], [w.imag, w.real]])
    m = 2 * n
    fro = math.sqrt(float(np.sum(s * s)))
    thresh = tol * max(fro, 1e-300)
    for _ in range(60):
        od = s.copy()
        np.fill_diagonal(od, 0.0)
        off = math.sqrt(float(np.sum(od * od)))
        if off <= thresh:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                spq = s[p, q]
                if abs(spq) <= 1e-300:
                    continue
                theta = (s[q, q] - s[p, p]) / (2.0 * spq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                rp = s[p, :].copy()
                rq = s[q, :].copy()
                s[p, :] = c * rp - sn * rq
                s[q, :] = sn * rp + c * rq
                cp = s[:, p].copy()
                cq = s[:, q].copy()
                s[:, p] = c * cp - sn * cq
                s[:, q] = sn * cp + c * cq
    else:
        raise RuntimeError("Jacobi eigensolver failed to converge")
    vals = np.sort(np.diag(s))
    return vals[0::2]  # doubled spectrum: keep one of each adjacent pair


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestGram:
    """The gram-matrix spectra of the Monte Carlo path (H^dag H or H H^dag)."""

    def test_identity(self):
        vals = _spectra(ChannelConfig(2, 2), np.eye(2, dtype=complex)[None])
        np.testing.assert_allclose(vals, [[1.0, 1.0]])

    def test_rank_one(self):
        h = np.array([[1 + 1j, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(_spectra(ChannelConfig(2, 2), h[None]), [[0.0, 2.0]])

    def test_trace_identity(self):
        cfg = ChannelConfig(5, 3)  # 3 x 5 channel: W = H H^dag is 3 x 3
        h = sample_channel(cfg, 0.5, SplitMix64(0))
        vals = sample_spectrum(cfg, 0.5, SplitMix64(0)).eigenvalues
        assert vals.shape == (3,)
        assert np.sum(vals) == pytest.approx(np.sum(np.abs(h) ** 2), rel=1e-12)

    def test_psd(self):
        cfg = ChannelConfig(4, 5)  # 5 x 4 channel: W = H^dag H is 4 x 4
        h = sample_channel(cfg, 0.5, SplitMix64(2))
        w = h.conj().T @ h
        ref = hermitian_eigenvalues(w)
        assert np.all(ref >= -1e-10 * np.max(np.abs(w)))
        vals = sample_spectrum(cfg, 0.5, SplitMix64(2)).eigenvalues
        np.testing.assert_allclose(vals, ref, rtol=0.0, atol=1e-10 * np.max(np.abs(w)))


class TestEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex)),
            [1.0, 2.0, 3.0],
        )

    def test_two_by_two_closed_form(self):
        w = np.array([[2.0, 1j], [-1j, 2.0]])
        np.testing.assert_allclose(hermitian_eigenvalues(w), [1.0, 3.0], atol=1e-12)

    def test_trace_identities(self):
        rng = np.random.default_rng(3)
        a = _random_complex(rng, (6, 6))
        w = 0.5 * (a + a.conj().T)
        vals = hermitian_eigenvalues(w)
        assert np.sum(vals) == pytest.approx(np.trace(w).real, rel=1e-10)
        assert np.sum(vals**2) == pytest.approx(np.sum(np.abs(w) ** 2), rel=1e-10)

    def test_matches_lapack_batch(self):
        rng = np.random.default_rng(4)
        ws = []
        for _ in range(8):
            a = _random_complex(rng, (5, 5))
            ws.append(0.5 * (a + a.conj().T))
        batch = hermitian_eigenvalues_batch(np.array(ws))
        for w, ref in zip(ws, batch):
            np.testing.assert_allclose(hermitian_eigenvalues(w), ref, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))


def pfaffian_expansion(b: np.ndarray) -> float:
    """Reference: Pf(B) = sum_j (-1)^{j+1} b_0j Pf(B without rows/columns 0, j).

    The expansion along the first row, summed over every perfect matching;
    independent of the library's Parlett-Reid elimination.
    """
    n = len(b)
    if n == 0:
        return 1.0
    rest = list(range(1, n))
    total = 0.0
    for pos, j in enumerate(rest):
        keep = [k for k in rest if k != j]
        total += (-1.0) ** pos * b[0, j] * pfaffian_expansion(b[np.ix_(keep, keep)])
    return total


def pfaffian(b: np.ndarray) -> float:
    sign, logabs = pfaffian_signed_log(b)
    return sign * math.exp(logabs)


class TestPfaffian:
    """The one Pfaffian routine, (sign, log|Pf|) by Parlett-Reid elimination."""

    def test_dim_two(self):
        # one pivot and no elimination: the entry itself
        b = np.array([[0.0, 3.7], [-3.7, 0.0]])
        assert pfaffian_signed_log(b) == (1, math.log(3.7))

    def test_dim_four_expansion(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(4, 4))
        b = b - b.T
        expect = b[0, 1] * b[2, 3] - b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2]
        assert pfaffian(b) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10, 12])
    def test_square_is_determinant(self, dim):
        rng = np.random.default_rng(dim)
        b = rng.normal(size=(dim, dim))
        b = b - b.T
        pf = pfaffian(b)
        det = np.linalg.det(b)
        assert pf * pf == pytest.approx(det, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10000), st.floats(0.1, 10.0))
    def test_row_col_scaling(self, seed, c):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(6, 6))
        b = b - b.T
        b2 = b.copy()
        b2[2, :] *= c
        b2[:, 2] *= c
        assert pfaffian(b2) == pytest.approx(c * pfaffian(b), rel=1e-10)

    def test_zero_row_col_pair(self):
        rng = np.random.default_rng(77)
        b = rng.normal(size=(6, 6))
        b = b - b.T
        b[3, :] = 0.0
        b[:, 3] = 0.0
        assert pfaffian_signed_log(b) == (0, -math.inf)

    def test_signed_log_matches(self):
        # sign included, which the determinant cannot check
        rng = np.random.default_rng(8)
        b = rng.normal(size=(8, 8))
        b = b - b.T
        s, lg = pfaffian_signed_log(b)
        assert s * math.exp(lg) == pytest.approx(pfaffian_expansion(b), rel=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            pfaffian_signed_log(np.zeros((3, 3)))

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            pfaffian_signed_log(np.eye(4))


class TestDeterminant:
    """The (sign, log|det|) pair correlation_fn reads."""

    def test_identity(self):
        assert tuple(determinant_signed_log(np.eye(5))) == (1.0, 0.0)

    def test_multiplicative(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        sa, la = determinant_signed_log(a)
        sb, lb = determinant_signed_log(b)
        sab, lab = determinant_signed_log(a @ b)
        assert sab == sa * sb
        assert lab == pytest.approx(la + lb, rel=1e-10)

    def test_singular(self):
        sign, logabs = determinant_signed_log(np.ones((3, 3)))
        assert sign == 0.0 and logabs == -math.inf

    def test_signed_log_large_scale(self):
        # magnitudes beyond float range survive in log form
        m = np.diag(np.full(400, 10.0))
        sign, logabs = determinant_signed_log(m)
        assert sign == 1.0
        assert logabs == pytest.approx(400 * math.log(10.0), rel=1e-12)
