import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoytmimo import linalg
from hoytmimo.ensemble import ChannelConfig
from hoytmimo.linalg import (
    determinant_signed_log,
    hermitian_eigenvalues_batch,
    hermitian_eigenvalues_lower,
    pfaffian_signed_log,
)
from hoytmimo.montecarlo import (
    _channels,
    _gram,
    _lower_triangle,
    _spectra,
    sample_channel,
    sample_spectrum,
)
from hoytmimo.rng import SplitMix64

EPS = np.finfo(float).eps


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


def eigenvalues_from_lower(ws: np.ndarray) -> np.ndarray:
    """hermitian_eigenvalues_lower on a stack (..., N, N), N <= 3, read from its lower triangles."""
    ws = np.asarray(ws)
    n = ws.shape[-1]
    flat = ws.reshape(-1, n, n)
    diag = [flat[:, j, j].real for j in range(n)]
    lower = [flat[:, j, k] for j in range(n) for k in range(j)]
    return hermitian_eigenvalues_lower(diag, lower).reshape(ws.shape[:-1])


def _hermitian_2x2_stack(rng, m):
    a = _random_complex(rng, (m, 2, 2))
    return 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


class TestTwoByTwo:
    """The closed form hermitian_eigenvalues_lower takes for 2 x 2 members, against Jacobi."""

    @staticmethod
    def check(ws, scale=1.0):
        # ws at unit size; the closed form runs on scale * ws
        ws = np.asarray(ws)
        got = eigenvalues_from_lower(scale * ws)
        assert got.shape == ws.shape[:-1]
        assert np.all(np.isfinite(got))
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        # against 40-digit values the oracle is within about 6 eps of the
        # spectral scale, the closed form within 1.4 eps
        flat = ws.reshape(-1, 2, 2)
        for w, vals in zip(flat, got.reshape(-1, 2)):
            ref = hermitian_eigenvalues(w)
            atol = 16.0 * np.finfo(float).eps * scale * float(np.max(np.abs(ref)))
            np.testing.assert_allclose(vals, scale * ref, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_random_complex_stack(self, scale):
        self.check(_hermitian_2x2_stack(np.random.default_rng(11), 200), scale)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_special_members(self, scale):
        ws = np.array(
            [
                np.diag([3.0, -1.0]),  # b = 0
                np.diag([-2.0, 5.0]),
                np.diag([1.5, 1.5]),  # repeated eigenvalue
                [[0.7, 0.0], [0.0, 0.7]],
                np.zeros((2, 2)),
                [[1.0, 2 - 1j], [2 + 1j, 1.0]],
                [[1.0, 1e-9j], [-1e-9j, 1.0]],  # nearly repeated
                [[1.0, 1.0], [1.0, 1.0]],  # singular
            ],
            dtype=complex,
        )
        self.check(ws, scale)
        got = eigenvalues_from_lower(scale * ws)
        assert np.array_equal(got[4], [0.0, 0.0])
        assert got[2, 0] == got[2, 1] == scale * 1.5

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_real_input(self, scale):
        a = np.random.default_rng(12).normal(size=(50, 2, 2))
        self.check(0.5 * (a + np.swapaxes(a, 1, 2)), scale)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2), (7, 2, 2), (3, 4, 2, 2)])
    def test_shapes(self, shape):
        ws = _hermitian_2x2_stack(np.random.default_rng(13), math.prod(shape[:-2])).reshape(shape)
        self.check(ws)
        assert eigenvalues_from_lower(ws).shape == np.linalg.eigvalsh(ws).shape


def mp_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Reference: ascending eigenvalues of one Hermitian matrix from 40-digit mpmath.eighe."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in w])
        vals = mpmath.eighe(a, eigvals_only=True)
        return np.sort([float(v) for v in vals])


def _unitary_3x3(rng, m):
    """m Haar-random 3 x 3 unitaries (QR of complex Gaussians, phases fixed)."""
    q, r = np.linalg.qr(_random_complex(rng, (m, 3, 3)))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _rotated(u, lams):
    """U diag(lams) U^dag per member, made exactly Hermitian."""
    w = np.einsum("sij,sj,skj->sik", u, lams, np.conj(u))
    return 0.5 * (w + np.conj(np.swapaxes(w, 1, 2)))


class TestThreeByThree:
    """The trigonometric 3 x 3 closed form of hermitian_eigenvalues_lower, against 40-digit values."""

    @staticmethod
    def check(ws, scale=1.0):
        # ws at unit size; the closed form runs on scale * ws.  Against
        # 40-digit values it was within 4.0 eps of the spectral scale on
        # 1500 near-repeated members, LAPACK within 3.95.
        ws = np.asarray(ws)
        got = eigenvalues_from_lower(scale * ws)
        assert got.shape == ws.shape[:-1]
        assert np.all(np.isfinite(got))
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        for w, vals in zip(ws.reshape(-1, 3, 3), got.reshape(-1, 3)):
            ref = mp_eigenvalues(w)
            atol = 16.0 * EPS * scale * float(np.max(np.abs(ref)))
            np.testing.assert_allclose(vals, scale * ref, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_random_complex_stack(self, scale):
        a = _random_complex(np.random.default_rng(21), (150, 3, 3))
        self.check(0.5 * (a + np.conj(np.swapaxes(a, 1, 2))), scale)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_special_members(self, scale):
        ws = np.array(
            [
                np.diag([3.0, -1.0, 2.0]),  # diagonal
                np.diag([2.0, 2.0, -1.0]),  # doubly repeated
                np.diag([-4.0, 7.0, 7.0]),
                np.diag([1.5, 1.5, 1.5]),  # triply repeated
                np.zeros((3, 3)),
                [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],  # singular, rank one
                [[2.0, 1 - 1j, 0.0], [1 + 1j, 1.0, 0.0], [0.0, 0.0, 0.0]],  # singular
                [[1.0, 0.5, -0.3], [0.5, 2.0, 0.8], [-0.3, 0.8, -1.0]],  # real
                [[4.0, 1j, 0.0], [-1j, 4.0, 0.0], [0.0, 0.0, 5.0]],  # double at 5
            ],
            dtype=complex,
        )
        self.check(ws, scale)
        got = eigenvalues_from_lower(scale * ws)
        assert np.array_equal(got[4], [0.0, 0.0, 0.0])
        assert got[3, 0] == got[3, 1] == got[3, 2] == scale * 1.5

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_real_input(self, scale):
        a = np.random.default_rng(22).normal(size=(50, 3, 3))
        self.check(0.5 * (a + np.swapaxes(a, 1, 2)), scale)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-11, 1e-14])
    def test_near_repeated(self, gap):
        # without the guard the error grows like eps/gap: 3e7 eps at 1e-8
        rng = np.random.default_rng(23)
        m = 40
        lam0 = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.5, 3.0, size=m)
        lams = np.stack([lam0, np.ones(m), np.full(m, 1.0 + gap)], axis=1)
        self.check(_rotated(_unitary_3x3(rng, m), lams))

    @pytest.mark.parametrize("gap", [1e-2, 1e-6, 1e-11])
    def test_near_repeated_real(self, gap, monkeypatch):
        # real members stay real, in the LAPACK fallback too
        rng = np.random.default_rng(28)
        m = 40
        lam0 = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.5, 3.0, size=m)
        lams = np.stack([lam0, np.ones(m), np.full(m, 1.0 + gap)], axis=1)
        ws = _rotated(np.linalg.qr(rng.normal(size=(m, 3, 3)))[0], lams)
        assert ws.dtype == np.float64
        solved = []
        inner = np.linalg.eigvalsh

        def spy(w):
            solved.append(w.dtype)
            return inner(w)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        got = eigenvalues_from_lower(ws)
        monkeypatch.undo()
        assert solved and set(solved) == {np.dtype(np.float64)}
        for w, vals in zip(ws, got):
            ref = mp_eigenvalues(w)
            np.testing.assert_allclose(vals, ref, rtol=0.0, atol=16.0 * EPS * float(np.max(np.abs(ref))))

    def test_real_members_match_zero_imaginary_parts(self):
        # the same members given as complex: measured within 4.9 eps of the
        # member's scale over 20000 members, from LAPACK's real and complex solvers
        a = np.random.default_rng(29).normal(size=(2000, 3, 3))
        ws = 0.5 * (a + np.swapaxes(a, 1, 2))
        real = eigenvalues_from_lower(ws)
        cplx = eigenvalues_from_lower(ws.astype(complex))
        assert real.dtype == np.float64
        scale = np.max(np.abs(cplx), axis=1, keepdims=True)
        assert np.all(np.abs(real - cplx) <= 8.0 * EPS * scale)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_wishart_grams(self, q):
        cfg = ChannelConfig(3, 6)
        self.check(_gram(cfg, _channels(cfg, q, SplitMix64(24), 150)))

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3), (7, 3, 3), (3, 4, 3, 3)])
    def test_shapes(self, shape):
        a = _random_complex(np.random.default_rng(25), shape)
        ws = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
        self.check(ws)
        assert eigenvalues_from_lower(ws).shape == np.linalg.eigvalsh(ws).shape


class TestLowerTriangleSpectra:
    """_spectra for N <= 3 forms only the gram lower triangle, straight from H."""

    @pytest.mark.parametrize(
        "nt, nr", [(2, 2), (3, 6), (2, 5), (3, 3), (6, 3), (5, 2), (3, 1), (1, 3)]
    )
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_matches_lapack_on_the_matmul_gram(self, nt, nr, q):
        # both sides round: over 2.5e5 members per shape the two differed by
        # up to 9.3 eps of the member's largest eigenvalue, about what the
        # closed forms' and LAPACK's own errors (4.0 and 4.9 eps) add to
        cfg = ChannelConfig(nt, nr)
        h = _channels(cfg, q, SplitMix64(26), 4000)
        ref = np.maximum(np.linalg.eigvalsh(_gram(cfg, h)), 0.0)
        got = _spectra(cfg, h)
        assert got.shape == ref.shape
        atol = 12.0 * EPS * ref.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= atol)

    def test_entries_match_the_matmul_gram(self):
        # H^dag H for nr >= nt; for nr < nt, w_jk = sum_i h_ji conj(h_ki) of H H^dag
        for nt, nr in ((6, 3), (3, 6)):
            cfg = ChannelConfig(nt, nr)
            h = _channels(cfg, 0.5, SplitMix64(27), 50)
            w = _gram(cfg, h)
            diag, lower = _lower_triangle(cfg, h)
            np.testing.assert_allclose(np.stack(diag, axis=1), np.diagonal(w, axis1=1, axis2=2).real, rtol=1e-14)
            expect = np.stack([w[:, 1, 0], w[:, 2, 0], w[:, 2, 1]], axis=1)
            np.testing.assert_allclose(np.stack(lower, axis=1), expect, rtol=1e-13, atol=1e-14)


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


def antisymmetric_stack(rng, m, dim):
    b = rng.normal(size=(m, dim, dim))
    return b - np.swapaxes(b, 1, 2)


class TestPfaffianStack:
    """One Parlett-Reid elimination over a stack (..., d, d): a value per matrix."""

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10, 12])
    def test_squares_to_determinant(self, dim):
        b = antisymmetric_stack(np.random.default_rng(dim + 40), 20, dim)
        sign, logabs = pfaffian_signed_log(b)
        assert sign.shape == logabs.shape == (20,)
        np.testing.assert_allclose(np.exp(2.0 * logabs), np.abs(np.linalg.det(b)), rtol=1e-10)
        assert np.all(sign != 0.0)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10, 12])
    def test_members_equal_single_matrices(self, dim):
        b = antisymmetric_stack(np.random.default_rng(dim + 50), 12, dim)
        if dim > 2:
            # member 0 keeps its pivot in place, member 1 must swap it in
            b[0, 1, 0], b[0, 0, 1] = 50.0, -50.0
            b[1, 1, 0], b[1, 0, 1] = 1e-3, -1e-3
        sign, logabs = pfaffian_signed_log(b)
        for s, lg, member in zip(sign, logabs, b):
            assert (s, lg) == pfaffian_signed_log(member)

    def test_singular_member(self):
        b = antisymmetric_stack(np.random.default_rng(60), 4, 6)
        before = pfaffian_signed_log(b)
        b[2, 3, :] = 0.0
        b[2, :, 3] = 0.0
        sign, logabs = pfaffian_signed_log(b)
        assert (sign[2], logabs[2]) == (0.0, -math.inf)
        keep = [0, 1, 3]
        assert np.array_equal(sign[keep], before[0][keep])
        assert np.array_equal(logabs[keep], before[1][keep])

    def test_leading_shape(self):
        b = antisymmetric_stack(np.random.default_rng(61), 6, 4).reshape(2, 3, 4, 4)
        sign, logabs = pfaffian_signed_log(b)
        assert sign.shape == logabs.shape == (2, 3)
        assert (sign[1, 2], logabs[1, 2]) == pfaffian_signed_log(b[1, 2])

    def test_rejects_one_bad_member(self):
        b = antisymmetric_stack(np.random.default_rng(62), 3, 4)
        b[1, 0, 2] += 1e-6
        with pytest.raises(ValueError):
            pfaffian_signed_log(b)


def stacked(b):
    """The stacked elimination's value for one matrix b, as the float path returns it."""
    sign, logabs = pfaffian_signed_log(np.asarray(b, dtype=float)[None])
    return int(sign[0]), float(logabs[0])


def assert_float_path(b):
    """One matrix, as an ndarray and as nested lists, gives bit for bit its stacked value."""
    want = stacked(b)
    for arg in (b, b.tolist()) if len(b) else (b,):
        sign, logabs = pfaffian_signed_log(arg)
        assert type(sign) is int and type(logabs) is float
        assert (sign, logabs) == want
    return want


def matching_matrix(rng, dim):
    """Small noise plus one large entry per pair (0, 2), (1, 4), (3, 6), ..., (d - 3, d - 1).

    Row k's partner never sits at k + 1 when step k searches, so every
    step exchanges its pivot in.
    """
    b = 1e-3 * rng.normal(size=(dim, dim))
    pairs = [(0, 2)] + [(2 * j - 1, 2 * j + 2) for j in range(1, dim // 2 - 1)] + [(dim - 3, dim - 1)]
    for j, k in pairs:
        b[j, k] = 1.0 + rng.uniform()
    return b - b.T


class TestPfaffianFloatPath:
    """One matrix up to _FLOAT_DIM is eliminated on Python floats, bit for bit as in a stack."""

    @pytest.mark.parametrize("dim", [0, 2, 4, 6, 8, 10, 12, linalg._FLOAT_DIM])
    def test_random_matrices(self, dim):
        b = antisymmetric_stack(np.random.default_rng(dim + 70), 1, dim)[0]
        assert_float_path(b)

    def test_empty_matrix(self):
        assert assert_float_path(np.zeros((0, 0))) == (1, 0.0)

    @pytest.mark.parametrize("dim", [4, 6, 8, 12])
    def test_exchange_at_every_step(self, dim):
        b = matching_matrix(np.random.default_rng(dim + 80), dim)
        sign, logabs = assert_float_path(b)
        assert sign * math.exp(logabs) == pytest.approx(pfaffian_expansion(b), rel=1e-12)

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_ties_take_the_first_largest(self, dim):
        # small integers tie in the pivot search, which takes the first maximum, as argmax does
        rng = np.random.default_rng(dim + 85)
        for _ in range(20):
            b = np.triu(rng.integers(-3, 4, size=(dim, dim)).astype(float), 1)
            b[0, 1:] = rng.choice([-2.0, 2.0], dim - 1)
            assert_float_path(b - b.T)

    def test_zero_pivot_after_a_step(self):
        # step 0 turns a_23 = 1/4 into 1/4 + (1/4)(5) - (1/2)(3) = 0
        b = np.array([[0, 4, 1, 2], [-4, 0, -3, -5], [-1, 3, 0, 0.25], [-2, 5, -0.25, 0]], dtype=float)
        assert assert_float_path(b) == (0, -math.inf)

    def test_zero_row(self):
        b = antisymmetric_stack(np.random.default_rng(90), 1, 6)[0]
        b[2, :] = b[:, 2] = 0.0
        assert assert_float_path(b) == (0, -math.inf)

    def test_negative_pivots(self):
        b = np.zeros((6, 6))
        for k, v in zip((0, 2, 4), (-2.0, 5.0, -0.5)):
            b[k, k + 1], b[k + 1, k] = v, -v
        b += 1e-3 * antisymmetric_stack(np.random.default_rng(91), 1, 6)[0]
        sign, logabs = assert_float_path(b)
        assert sign == 1 and math.exp(logabs) == pytest.approx(5.0, rel=1e-2)  # pivots -2, 5, -0.5
        assert assert_float_path(np.array([[0.0, -2.0], [2.0, 0.0]])) == (-1, math.log(2.0))

    @pytest.mark.parametrize("dim", [4, 8, 12])
    def test_entries_from_1e_minus_300_to_1e300(self, dim):
        rng = np.random.default_rng(dim + 92)
        j, k = np.triu_indices(dim, 1)
        b = np.zeros((dim, dim))
        exponents = rng.permutation(np.linspace(-300.0, 300.0, len(j)))
        b[j, k] = rng.choice([-1.0, 1.0], len(j)) * 10.0**exponents
        assert_float_path(b - b.T)

    def test_rebuild_within_tolerance(self, monkeypatch):
        rng = np.random.default_rng(93)
        b = antisymmetric_stack(rng, 1, 8)[0] + 1e-14 * rng.normal(size=(8, 8))
        rebuilt = []
        inner = linalg._rebuilt_rows

        def spy(rows):
            rebuilt.append(len(rows))
            return inner(rows)

        monkeypatch.setattr(linalg, "_rebuilt_rows", spy)
        assert_float_path(b)
        assert rebuilt == [8, 8]  # the ndarray and the nested lists

    def test_beyond_tolerance_raises(self):
        rng = np.random.default_rng(94)
        b = antisymmetric_stack(rng, 1, 6)[0] + 1e-9 * rng.normal(size=(6, 6))
        for arg in (b, b.tolist()):
            with pytest.raises(ValueError, match="antisymmetric"):
                pfaffian_signed_log(arg)

    def test_larger_matrices_take_the_stack(self, monkeypatch):
        b = antisymmetric_stack(np.random.default_rng(95), 1, linalg._FLOAT_DIM + 2)[0]
        want = stacked(b)

        def fail(rows):
            raise AssertionError("float path taken")

        monkeypatch.setattr(linalg, "_pfaffian_rows", fail)
        assert pfaffian_signed_log(b) == want


class TestPfaffianNonFinite:
    """A NaN or infinite entry raises ValueError, with no RuntimeWarning, for one matrix or a stack."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mirror", [True, False])
    def test_one_matrix(self, bad, mirror):
        b = antisymmetric_stack(np.random.default_rng(96), 1, 4)[0]
        b[0, 2] = bad
        if mirror:
            b[2, 0] = -bad
        for arg in (b, b.tolist()):
            with pytest.raises(ValueError, match="non-finite"):
                pfaffian_signed_log(arg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stack(self, bad):
        b = antisymmetric_stack(np.random.default_rng(97), 5, 4)
        b[3, 1, 2], b[3, 2, 1] = bad, -bad
        with pytest.raises(ValueError, match="non-finite"):
            pfaffian_signed_log(b)

    def test_large_matrix(self):
        b = antisymmetric_stack(np.random.default_rng(98), 1, linalg._FLOAT_DIM + 2)[0]
        b[5, 7], b[7, 5] = math.inf, -math.inf
        with pytest.raises(ValueError, match="non-finite"):
            pfaffian_signed_log(b)


class TestPfaffianNearFloatMax:
    """Entries up to the float maximum give finite values: such a member is scaled by a power of two first."""

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_entries_near_the_float_maximum(self, dim):
        # unscaled, a step's update overflowed to inf and a later one gave NaN
        values = np.array([1.7e308, -1.7e308, 1.0, -1.0, 1e-300])
        b = np.triu(np.random.default_rng(dim + 99).choice(values, (200, dim, dim)), 1)
        b = b - b.transpose(0, 2, 1)
        sign, logabs = pfaffian_signed_log(b)
        assert not np.isnan(sign).any() and not np.isnan(logabs).any()
        assert np.array_equal(np.isfinite(logabs), sign != 0)
        assert (sign != 0).mean() > 0.5
        for k, member in enumerate(b):
            assert assert_float_path(member) == (int(sign[k]), float(logabs[k]))

    @pytest.mark.parametrize("dim", [2, 4, 8, linalg._FLOAT_DIM, linalg._FLOAT_DIM + 4])
    @pytest.mark.parametrize("top", [False, True])
    def test_power_of_two_scaling(self, dim, top):
        # B has its largest |entry| in [1, 2); 2^k B passes the threshold
        # just, or by the most a finite matrix can, and is scaled back
        # inside: its log is log|Pf B| + (d/2) k ln 2.  B itself, below
        # the threshold, keeps its value beside 2^k B in a stack
        b = antisymmetric_stack(np.random.default_rng(dim + 100), 1, dim)[0]
        b = np.ldexp(b, 1 - math.frexp(np.abs(b).max())[1])
        if dim > 2:
            b[0, -1], b[-1, 0] = 1e-300, -1e-300
        k = 1022 if top else linalg._TOP + 1 - dim
        big = np.ldexp(b, k)
        assert np.isfinite(big).all() and np.abs(big).max() > 2.0 ** (linalg._TOP - dim)
        want = pfaffian_signed_log(b)
        sign, logabs = pfaffian_signed_log(big)
        assert sign == want[0] and logabs == pytest.approx(want[1] + 0.5 * dim * k * math.log(2.0), rel=1e-12)
        signs, logs = pfaffian_signed_log(np.stack((big, b)))
        assert (signs[0], logs[0]) == (sign, logabs) and (signs[1], logs[1]) == want


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
