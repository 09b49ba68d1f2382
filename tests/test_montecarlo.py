import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hoytmimo.ensemble import ChannelConfig, level_density, mp_support
from hoytmimo.montecarlo import (
    CHUNK_SAMPLES,
    _block_samples,
    _capacities,
    _channels,
    _chunks,
    _clamped,
    _eigenvalues,
    _spectra,
    empirical_density,
    mc_capacity,
    sample_channel,
    sample_spectrum,
)
from hoytmimo.fading import params_from_q
from hoytmimo.rng import SplitMix64, derive_stream_seed, gaussian_block

# _channels(cfg, q, SplitMix64(seed), m) is m consecutive sample_channel
# draws from SplitMix64(seed), built as one block, and _spectra of them the
# matching sample_spectrum draws (test_block_equals_consecutive_draws).


class TestSampleChannel:
    def test_rayleigh_component_variances(self):
        cfg = ChannelConfig(5, 5)
        hs = _channels(cfg, 1.0, SplitMix64(1), 8000)
        # 400k entries: sample variance within 1%
        assert np.var(hs.real) == pytest.approx(0.5, rel=0.01)
        assert np.var(hs.imag) == pytest.approx(0.5, rel=0.01)

    def test_one_sided_has_no_imaginary_part(self):
        cfg = ChannelConfig(3, 2)
        h = sample_channel(cfg, 0.0, SplitMix64(2))
        assert np.all(h.imag == 0.0)
        assert np.any(h.real != 0.0)

    def test_block_equals_consecutive_draws(self):
        cfg = ChannelConfig(2, 3)
        stream = SplitMix64(8)
        one_by_one = [sample_channel(cfg, 0.3, stream) for _ in range(5)]
        block = _channels(cfg, 0.3, SplitMix64(8), 5)
        np.testing.assert_array_equal(block, one_by_one)
        stream = SplitMix64(8)
        spectra = [sample_spectrum(cfg, 0.3, stream).eigenvalues for _ in range(5)]
        np.testing.assert_array_equal(_spectra(cfg, block), spectra)

    def test_mean_gram_trace(self):
        cfg = ChannelConfig(2, 3, omega=1.5)
        n = 20000
        traces = np.sum(np.abs(_channels(cfg, 0.6, SplitMix64(3), n)) ** 2, axis=(1, 2))
        expect = cfg.nt * cfg.nr * cfg.omega
        se = np.std(traces) / math.sqrt(n)
        assert abs(np.mean(traces) - expect) < 4.0 * se


class TestSampleSpectrum:
    def test_single_antenna_exponential(self):
        cfg = ChannelConfig(1, 1)
        vals = _spectra(cfg, _channels(cfg, 1.0, SplitMix64(4), 20000))[:, 0]
        assert np.mean(vals) == pytest.approx(1.0, abs=4.0 / math.sqrt(20000))

    def test_spectrum_shape_and_sign(self):
        cfg = ChannelConfig(2, 3)
        s = sample_spectrum(cfg, 0.5, SplitMix64(5))
        assert s.eigenvalues.shape == (2,)
        assert np.all(s.eigenvalues >= 0.0)
        assert np.all(np.diff(s.eigenvalues) >= 0.0)


class TestEmpiricalDensity:
    def test_deterministic(self):
        cfg = ChannelConfig(2, 2)
        h1 = empirical_density(cfg, 0.5, samples=20000, bins=20, seed=3)
        h2 = empirical_density(cfg, 0.5, samples=20000, bins=20, seed=3)
        np.testing.assert_array_equal(h1.counts, h2.counts)

    def test_seed_changes_counts(self):
        cfg = ChannelConfig(2, 2)
        h1 = empirical_density(cfg, 0.5, samples=5000, bins=20, seed=3)
        h2 = empirical_density(cfg, 0.5, samples=5000, bins=20, seed=4)
        assert not np.array_equal(h1.counts, h2.counts)

    def test_mass_approaches_one_with_range(self):
        cfg = ChannelConfig(2, 2)
        narrow = empirical_density(cfg, 0.5, samples=20000, bins=20, seed=6)
        wide = empirical_density(
            cfg, 0.5, samples=20000, bins=20, value_range=(0.0, 60.0), seed=6
        )
        def mass(h):
            return float(np.sum(h.normalized_values * np.diff(h.bin_edges)))
        assert mass(narrow) <= 1.0 + 1e-12
        assert mass(wide) > mass(narrow) * 0.999
        assert mass(wide) == pytest.approx(1.0, abs=1e-3)

    def test_matches_analytic_density(self):
        cfg = ChannelConfig(2, 2)
        h = empirical_density(cfg, 0.5, samples=100000, bins=40, seed=3)
        centers = 0.5 * (h.bin_edges[:-1] + h.bin_edges[1:])
        rho = np.array([level_density(float(c), cfg, 0.5) / cfg.n for c in centers])
        dev = np.abs(h.normalized_values - rho) / np.maximum(h.normalized_stderr, 1e-300)
        assert np.mean(dev <= 3.0) >= 0.95

    def test_default_range_follows_support(self):
        cfg = ChannelConfig(3, 6)
        h = empirical_density(cfg, 1.0, samples=100, bins=10, seed=0)
        assert h.bin_edges[-1] == pytest.approx(1.2 * mp_support(cfg)[1])

    @pytest.mark.parametrize("nt, nr", [(2, 2), (3, 6)])
    def test_first_chunk_matches_numpy_spectra(self, nt, nr):
        # the documented stream, its gram matrices formed and solved by numpy
        cfg, q, seed = ChannelConfig(nt, nr), 0.5, 31
        hist = empirical_density(cfg, q, samples=CHUNK_SAMPLES, bins=60, seed=seed)
        p = params_from_q(q, cfg.omega)
        g = gaussian_block(SplitMix64(derive_stream_seed(seed, 0)), CHUNK_SAMPLES * 2 * nr * nt)
        g = g.reshape(CHUNK_SAMPLES, 2, nr, nt)
        h = math.sqrt(p.sigma_x2) * g[:, 0] + 1j * math.sqrt(p.sigma_y2) * g[:, 1]
        hh = np.conj(np.swapaxes(h, 1, 2))
        vals = np.maximum(np.linalg.eigvalsh(hh @ h if nr >= nt else h @ hh), 0.0)
        counts, _ = np.histogram(vals.ravel(), bins=hist.bin_edges)
        np.testing.assert_array_equal(hist.counts, counts)

    def test_chunk_boundary_consistency(self):
        # crossing the chunk boundary must not disturb earlier chunks
        cfg = ChannelConfig(1, 1)
        h1 = empirical_density(cfg, 0.5, samples=CHUNK_SAMPLES, bins=10, seed=9)
        h2 = empirical_density(cfg, 0.5, samples=CHUNK_SAMPLES + 500, bins=10, seed=9)
        h3 = empirical_density(cfg, 0.5, samples=500, bins=10, seed=9)
        # the first chunk's contribution is unchanged by appending samples,
        # and the appended 500 live on chunk stream 1, not stream 0
        assert np.all(h2.counts >= h1.counts)
        extra = np.sum(h2.counts) - np.sum(h1.counts)
        assert 0 <= extra <= 500
        assert not np.array_equal(h2.counts - h1.counts, h3.counts)


class TestMcCapacity:
    def test_vanishes_at_zero_power(self):
        cfg = ChannelConfig(2, 2)
        mean, _ = mc_capacity(cfg, 0.5, power=1e-12, samples=2000, seed=1)
        assert mean < 1e-10

    def test_single_antenna_quadrature_oracle(self):
        cfg = ChannelConfig(1, 1)
        mean, se = mc_capacity(cfg, 1.0, power=10.0, samples=200000, seed=2)
        exact, _ = quad(lambda lam: math.log2(1.0 + 10.0 * lam) * math.exp(-lam), 0.0, np.inf)
        assert abs(mean - exact) < 4.0 * se

    def test_deterministic(self):
        cfg = ChannelConfig(2, 3)
        r1 = mc_capacity(cfg, 0.4, power=20.0, samples=30000, seed=5)
        r2 = mc_capacity(cfg, 0.4, power=20.0, samples=30000, seed=5)
        assert r1 == r2

    @pytest.mark.parametrize("power", [1e-12, 10.0, 1e6])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 3), (3, 2), (4, 4), (8, 8)])
    def test_cholesky_matches_eigenvalues(self, nt, nr, q, power):
        # log2 det(I + snr W) from the Cholesky pivots against the sum of
        # log2(1 + snr lambda), taken with log1p so that tiny capacities
        # keep their digits.  Both are backward stable: each perturbs W by
        # about eps lambda_max, which moves term i by snr eps lambda_max
        # over 1 + snr lambda_i.  That bound is wider than 1e-12 relative
        # only for nearly singular W at high power (real channels, q = 0).
        cfg = ChannelConfig(nt, nr)
        snr = power / nt
        h = _channels(cfg, q, SplitMix64(nt * 31 + nr), 2000)
        lam = _spectra(cfg, h)
        ref = np.sum(np.log1p(snr * lam), axis=1) / math.log(2.0)
        spread = np.sum(snr * lam[:, -1:] / (1.0 + snr * lam), axis=1)
        tol = 1e-12 * ref + 8.0 * np.finfo(float).eps / math.log(2.0) * spread
        assert np.all(np.abs(_capacities(cfg, h, snr) - ref) <= tol)
        # and the estimate over whole chunks
        mean, _ = mc_capacity(cfg, q, power, 3000, seed=7)
        eig = _chunks(cfg, q, 3000, 7, lambda h: np.log1p(snr * _spectra(cfg, h)))
        eig_mean = sum(float(np.sum(v)) for v in eig) / math.log(2.0) / 3000
        assert mean == pytest.approx(eig_mean, rel=1e-12, abs=0.0)

    def test_validation(self):
        cfg = ChannelConfig(2, 2)
        with pytest.raises(ValueError):
            mc_capacity(cfg, 0.5, power=0.0, samples=10)
        with pytest.raises(ValueError):
            mc_capacity(cfg, 0.5, power=1.0, samples=0)


def _complex_channels(cfg, q, stream, m):
    """m channel draws built as complex H from the full gaussian block, at any q.

    The imaginary part is sqrt(sigma_y^2) times its gaussians even where
    sigma_y^2 = 0, so a q = 0 stack holds signed zeros there and is reduced
    in complex arithmetic.
    """
    p = params_from_q(q, cfg.omega)
    g = gaussian_block(stream, m * 2 * cfg.nr * cfg.nt).reshape(m, 2, cfg.nr, cfg.nt)
    h = np.empty((m, cfg.nr, cfg.nt), dtype=complex)
    np.multiply(g[:, 0], math.sqrt(p.sigma_x2), out=h.real)
    np.multiply(g[:, 1], math.sqrt(p.sigma_y2), out=h.imag)
    return h


def _whole_chunk_reference(cfg, q, samples, seed, edges, snr, channels=_channels):
    """Histogram counts, eigenvalue sum and capacity (mean, se), each chunk drawn whole.

    This is the sampler before sub-blocks: one channels draw of the whole
    chunk from its substream, reduced by _spectra and _capacities.
    """
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    eigen_sum = total = total_sq = 0.0
    for k, done in enumerate(range(0, samples, CHUNK_SAMPLES)):
        m = min(CHUNK_SAMPLES, samples - done)
        h = channels(cfg, q, SplitMix64(derive_stream_seed(seed, k)), m)
        vals = _spectra(cfg, h)
        counts += np.histogram(vals.ravel(), bins=edges)[0]
        eigen_sum += float(np.sum(vals))
        cap = _capacities(cfg, h, snr)
        total += float(np.sum(cap))
        total_sq += float(np.sum(cap * cap))
    mean = total / samples
    se = math.sqrt(max(0.0, total_sq / samples - mean * mean) / samples)
    return counts, eigen_sum, (mean, se)


SUB_BLOCK_SHAPES = [(1, 1), (1, 3), (2, 2), (3, 3), (3, 6), (6, 3), (4, 4), (8, 8), (2, 128)]


class TestSubBlocks:
    """Sub-blocks are contiguous ranges of a chunk's substream: every output
    equals the whole-chunk draw bit for bit, across block and chunk edges."""

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("nt,nr", SUB_BLOCK_SHAPES)
    def test_equals_whole_chunk_draw(self, nt, nr, q):
        cfg, seed, power = ChannelConfig(nt, nr), 23, 40.0
        block = _block_samples(cfg, q)
        sizes = {1, block - 1, block + 1, CHUNK_SAMPLES - 1, CHUNK_SAMPLES + 1, 2 * CHUNK_SAMPLES + 3}
        for samples in sorted(s for s in sizes if s >= 1):
            hist = empirical_density(cfg, q, samples, bins=30, seed=seed)
            counts, eigen_sum, cap = _whole_chunk_reference(
                cfg, q, samples, seed, hist.bin_edges, power / nt
            )
            np.testing.assert_array_equal(hist.counts, counts)
            assert hist.eigenvalue_sum == eigen_sum
            assert mc_capacity(cfg, q, power, samples, seed=seed) == cap

    def test_block_holds_at_least_one_sample(self):
        for q in (0.0, 0.5):
            assert _block_samples(ChannelConfig(64, 512), q) == 1
            assert _block_samples(ChannelConfig(2, 128), q) < CHUNK_SAMPLES
        # a real q = 0 sub-block holds the same bytes of H: twice the samples
        assert _block_samples(ChannelConfig(2, 128), 0.0) == 2 * _block_samples(ChannelConfig(2, 128), 0.5)

    @pytest.mark.parametrize("run", ["capacity", "density"])
    def test_memory_is_bounded_by_the_block(self, run):
        # a whole 2x128 chunk is 32 MiB of H and as much of gaussians (half
        # of each when real, at q = 0)
        cfg = ChannelConfig(2, 128)
        for q in (0.5, 0.0):
            tracemalloc.start()
            try:
                if run == "capacity":
                    mc_capacity(cfg, q, 10.0, CHUNK_SAMPLES, seed=1)
                else:
                    empirical_density(cfg, q, CHUNK_SAMPLES, bins=40, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, q


REAL_SHAPES = [(1, 1), (1, 3), (3, 3), (2, 2), (3, 6), (2, 128)]


class TestRealChannels:
    """Where sigma_y^2 = 0 the channels are drawn as real matrices from the
    real-part gaussians alone; values and stream positions are those of the
    full complex draw."""

    @pytest.mark.parametrize("nt,nr", REAL_SHAPES)
    def test_draw_is_the_real_part_of_the_full_draw(self, nt, nr):
        cfg, seed = ChannelConfig(nt, nr), 41
        block = _block_samples(cfg, 0.0)
        sizes = {1, block - 1, block + 1, 2 * block + 3}
        if nt * nr <= 18:  # chunk edges; a 2x128 chunk would be 16 MiB of H
            sizes |= {CHUNK_SAMPLES - 1, CHUNK_SAMPLES + 1}
        for samples in sorted(s for s in sizes if s >= 1):
            chunks = _chunks(cfg, 0.0, samples, seed, lambda h: h)
            for k, got in enumerate(chunks):
                m = min(CHUNK_SAMPLES, samples - k * CHUNK_SAMPLES)
                ref = _complex_channels(cfg, 0.0, SplitMix64(derive_stream_seed(seed, k)), m)
                assert got.dtype == np.float64 and got.shape == (m, nr, nt)
                assert got.tobytes() == np.ascontiguousarray(ref.real).tobytes()
        # and one block drawn directly
        h = _channels(cfg, 0.0, SplitMix64(seed), 5)
        ref = _complex_channels(cfg, 0.0, SplitMix64(seed), 5)
        assert h.tobytes() == np.ascontiguousarray(ref.real).tobytes()

    @pytest.mark.parametrize("nt,nr", REAL_SHAPES)
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_stream_moves_past_the_whole_draw(self, nt, nr, m):
        cfg = ChannelConfig(nt, nr)
        real, full = SplitMix64(5), SplitMix64(5)
        _channels(cfg, 0.0, real, m)
        gaussian_block(full, 2 * nr * nt * m)
        assert real.next_uint64() == full.next_uint64()

    def test_sample_channel_stays_complex(self):
        cfg = ChannelConfig(2, 3)
        stream, ref = SplitMix64(12), SplitMix64(12)
        for _ in range(3):
            h = sample_channel(cfg, 0.0, stream)
            expect = _complex_channels(cfg, 0.0, ref, 1)[0]
            assert h.dtype == np.complex128 and h.shape == (3, 2)
            assert np.array_equal(h, expect) and np.all(h.imag == 0.0)

    def test_tiny_q_is_real(self):
        # q^2 below half an ulp of 1 gives sigma_y^2 = 0 exactly
        cfg = ChannelConfig(2, 2)
        assert params_from_q(1e-9, cfg.omega).sigma_y2 == 0.0
        assert _channels(cfg, 1e-9, SplitMix64(1), 3).dtype == np.float64
        assert _channels(cfg, 1e-3, SplitMix64(1), 3).dtype == np.complex128

    @pytest.mark.parametrize("nt,nr", REAL_SHAPES + [(4, 4), (8, 8), (6, 3)])
    def test_outputs_equal_the_complex_path(self, nt, nr):
        # the same channels reduced in complex arithmetic: the eigenvalues
        # round differently by at most 8.7 eps of a member's largest (measured
        # over 4000 members per shape), so the histogram counts are equal and
        # the sums agree to a few ulps
        cfg, q, seed, power = ChannelConfig(nt, nr), 0.0, 19, 40.0
        samples = CHUNK_SAMPLES + 5 if nt * nr <= 64 else 1000
        hist = empirical_density(cfg, q, samples, bins=30, seed=seed)
        counts, eigen_sum, (mean, se) = _whole_chunk_reference(
            cfg, q, samples, seed, hist.bin_edges, power / nt, channels=_complex_channels
        )
        np.testing.assert_array_equal(hist.counts, counts)
        eps = np.finfo(float).eps
        assert hist.eigenvalue_sum == pytest.approx(eigen_sum, rel=64 * eps, abs=0.0)
        got_mean, got_se = mc_capacity(cfg, q, power, samples, seed=seed)
        assert got_mean == pytest.approx(mean, rel=64 * eps, abs=0.0)
        # se is the root of a difference, E[c^2] - mean^2, whose terms carry
        # the rounding: its relative error grows by E[c^2] / var
        var = se * se * samples
        amplify = (var + mean * mean) / var if var > 0.0 else 1.0
        assert got_se == pytest.approx(se, rel=64 * eps * amplify, abs=1e-300)
        # member by member
        h = _channels(cfg, q, SplitMix64(seed), 500)
        ref = _clamped(_eigenvalues(cfg, _complex_channels(cfg, q, SplitMix64(seed), 500)))
        got = _spectra(cfg, h)
        assert np.all(np.abs(got - ref) <= 16 * eps * ref.max(axis=1, keepdims=True))


class TestEndpointConsistency:
    """Pre-registered chi-square tests of the q endpoints (5% level).

    nt=1, nr=3 gives one eigenvalue per draw, so the multinomial model is
    exact; seeds are fixed, making the runs deterministic.
    """

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_chi_square_endpoints(self, q):
        from scipy.stats import chi2

        cfg = ChannelConfig(1, 3)
        samples = 40000
        hist = empirical_density(cfg, q, samples=samples, bins=20, seed=77)
        edges = hist.bin_edges
        expected = np.empty(20)
        for i in range(20):
            val, _ = quad(
                lambda lam: level_density(lam, cfg, q), edges[i], edges[i + 1]
            )
            expected[i] = val * samples
        keep = expected >= 10.0
        obs = hist.counts[keep].astype(float)
        exp = expected[keep]
        stat = float(np.sum((obs - exp) ** 2 / exp))
        dof = int(np.sum(keep)) - 1
        assert stat <= chi2.ppf(0.95, dof)

    def test_histogram_count_invariant(self):
        cfg = ChannelConfig(2, 3)
        h = empirical_density(cfg, 0.5, samples=3000, bins=10, seed=1)
        assert np.sum(h.counts) <= 3000 * cfg.n
