"""Signal containers, transforms, stream extraction, peak selection."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sparsespec import core
from sparsespec import (
    ComplexSignal,
    IndexBudgetExceeded,
    NonFiniteSamples,
    NotCoprime,
    StreamSpec,
    circular_shift,
    dft,
    dft_at,
    dft_direct,
    extract_streams,
    idft,
    max_stream_length,
    select_peaks,
    stream_view,
)


def make_signal(samples, rate=1.0):
    return ComplexSignal(samples=np.asarray(samples, dtype=np.complex128),
                         rate_hz=rate)


def random_signal(rng, n, rate=1.0):
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return make_signal(vals, rate)


class TestComplexSignal:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_sample_rejected(self, bad):
        vals = np.ones(8, dtype=np.complex128)
        vals[3] = bad
        with pytest.raises(NonFiniteSamples, match="sample 3"):
            make_signal(vals)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate_hz"):
            make_signal([1.0, 2.0], rate=rate)


class TestDft:
    def test_constant_signal(self):
        bins = dft(make_signal([1, 1, 1, 1], rate=8.0))
        assert np.allclose(bins, [4, 0, 0, 0], atol=1e-12)

    def test_pure_tone_bin_three(self):
        x = np.exp(2j * np.pi * 3 * np.arange(8) / 8)
        bins = dft(make_signal(x))
        expected = np.zeros(8)
        expected[3] = 8
        assert np.allclose(bins, expected, atol=1e-9)

    def test_prime_length_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        x = random_signal(rng, 257)
        fast = dft(x)
        slow = dft_direct(x.samples)
        assert np.linalg.norm(fast - slow) <= 1e-9 * np.linalg.norm(slow)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = random_signal(rng, 64)
        y = random_signal(rng, 64)
        a, b = 2.0 - 1j, 0.5 + 3j
        mixed = make_signal(a * x.samples + b * y.samples)
        lhs = dft(mixed)
        rhs = a * dft(x) + b * dft(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_parseval(self):
        rng = np.random.default_rng(9)
        x = random_signal(rng, 1000)
        time_energy = np.sum(np.abs(x.samples) ** 2)
        freq_energy = np.sum(np.abs(dft(x)) ** 2) / 1000
        assert time_energy == pytest.approx(freq_energy, rel=1e-9)


class TestDftAt:
    EPS = np.finfo(float).eps

    def test_matches_direct_sum_both_sides_of_crossover(self):
        # K up to log2(n) sums directly, beyond that slices one FFT; bins 0
        # and n-1 ride along in every non-empty set.
        rng = np.random.default_rng(11)
        sides = set()
        for n in range(1, 71):
            for rows in (1, 7):
                x = (rng.standard_normal((rows, n))
                     + 1j * rng.standard_normal((rows, n)))
                direct = np.array([dft_direct(r) for r in x])
                fft = np.fft.fft(x, axis=1)
                norm1 = np.abs(x).sum(axis=1, keepdims=True)
                for k in range(min(n, int(math.log2(n)) + 3) + 1):
                    bins = rng.choice(n, size=k, replace=False)
                    if k >= 2:
                        inner = 1 + rng.choice(n - 2, size=k - 2,
                                               replace=False)
                        bins = rng.permutation(np.r_[0, n - 1, inner])
                    got = dft_at(x, bins)
                    assert got.shape == (rows, k)
                    if k == 0:
                        continue
                    sides.add(k <= math.log2(n))
                    # dft_direct's own rounding grows with n.
                    assert np.all(np.abs(got - direct[:, bins])
                                  <= 8 * n * self.EPS * norm1)
                    assert np.all(np.abs(got - fft[:, bins])
                                  <= 8 * self.EPS * norm1)
        assert sides == {True, False}

    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 257, 300, 1001,
                                   4097, 65534, 65537])
    def test_matches_fft_across_block_boundaries(self, n):
        # n on both sides of one and two DFT_BLOCK blocks, and long rows
        # with and without a tail; C- and F-ordered rows give equal bits.
        rng = np.random.default_rng(n)
        k = int(math.log2(n))
        bins = rng.permutation(np.r_[0, n - 1,
                                     1 + rng.choice(n - 2, size=k - 2,
                                                    replace=False)])
        for rows in (1, 7):
            x = (rng.standard_normal((rows, n))
                 + 1j * rng.standard_normal((rows, n)))
            want = np.fft.fft(x, axis=1)[:, bins]
            norm1 = np.abs(x).sum(axis=1, keepdims=True)
            got = dft_at(x, bins)
            assert np.all(np.abs(got - want) <= 8 * self.EPS * norm1)
            assert np.array_equal(dft_at(np.asfortranarray(x), bins), got)

    def test_fft_side_is_the_fft(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        bins = [63, 0, 5, 9, 17, 40, 41]
        assert np.array_equal(dft_at(x, bins), np.fft.fft(x, axis=1)[:, bins])

    def test_empty_bins(self):
        x = np.ones((7, 10), dtype=np.complex128)
        assert dft_at(x, []).shape == (7, 0)

    @pytest.mark.parametrize("k", [1, 5])
    def test_bins_are_periodic(self, k):
        # Both sides of the crossover (log2(10) < 5) read bins mod n.
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        bins = np.array([-1, 10, 23, -17, 4])[:k]
        assert np.array_equal(dft_at(x, bins), dft_at(x, bins % 10))

    @pytest.mark.parametrize("k", [12, 4096])
    def test_memory_bounded_by_n_log_n(self, k):
        # At the crossover (12 bins of 4096) and with every bin asked for
        # (a threshold-0 run) nothing near an n x n matrix is built. The
        # direct sums build no K x n twiddle matrix either: their tables
        # hold about K * (DFT_BLOCK + n / DFT_BLOCK) entries.
        n = 4096
        x = np.ones((1, n), dtype=np.complex128)
        tracemalloc.start()
        try:
            dft_at(x, np.arange(k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * n * math.log2(n)
        if k <= math.log2(n):
            assert peak <= 2 * 16 * n


class TestIdft:
    def test_constant_bins(self):
        x = idft(dft(make_signal([1, 1, 1, 1])), 1.0)
        assert np.allclose(x.samples, [1, 1, 1, 1], atol=1e-12)

    def test_one_hot_bin_three(self):
        bins = np.zeros(8, dtype=np.complex128)
        bins[3] = 8
        x = idft(bins, rate_hz=8.0)
        expected = np.exp(2j * np.pi * 3 * np.arange(8) / 8)
        assert np.allclose(x.samples, expected, atol=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        x = random_signal(rng, 1000, rate=1000.0)
        back = idft(dft(x), rate_hz=1000.0)
        assert np.linalg.norm(back.samples - x.samples) \
            <= 1e-9 * np.linalg.norm(x.samples)


class TestShiftIdentity:
    def test_circular_shift_phases_every_bin(self):
        rng = np.random.default_rng(11)
        for n, s in ((16, 3), (60, 17), (257, 101)):
            x = random_signal(rng, n)
            base = dft(x)
            shifted = dft(circular_shift(x, s))
            phase = np.exp(2j * np.pi * s * np.arange(n) / n)
            assert np.linalg.norm(shifted - phase * base) \
                <= 1e-9 * np.linalg.norm(base)

    def test_decimated_streams_phase_single_tone(self):
        # A tone on fine bin j makes every shifted stream a phased copy of
        # stream 0: ratio exp(2i pi * m*s*j / N) with N the fine length.
        n_fine, u, s, m_streams = 60, 4, 7, 3
        j = 23
        spec = StreamSpec(u=u, s=s, M=m_streams, n=n_fine // u)
        # The tone is periodic on the fine grid; its record runs on past one
        # period for as long as the streams read.
        l = np.arange(spec.span(spec.n))
        x = make_signal(np.exp(2j * np.pi * j * l / n_fine))
        rows = extract_streams(x, spec)
        base = np.fft.fft(rows[0])
        for m in range(1, m_streams):
            got = np.fft.fft(rows[m])
            phase = np.exp(2j * np.pi * m * s * j / n_fine)
            assert np.linalg.norm(got - phase * base) \
                <= 1e-9 * np.linalg.norm(base)


class TestStreamLengths:
    def test_reference_setting(self):
        # L=1000, u=50, s=17, M=12: the exact no-overrun bound allows 17
        # samples per stream.
        assert max_stream_length(1000, 50, 17, 12) == 17

    def test_max_length_is_tight(self):
        # The last requested index must exist and n+1 must not fit.
        for length, u, s, M in ((1000, 50, 17, 12), (100, 7, 3, 4),
                                (65536, 142, 7, 28)):
            n = max_stream_length(length, u, s, M)
            assert u * (n - 1) + (M - 1) * s <= length - 1
            assert u * n + (M - 1) * s > length - 1


class TestExtractStreams:
    def test_direct_indexing(self):
        x = make_signal(np.arange(10))
        got = extract_streams(x, StreamSpec(u=3, s=2, M=2))
        assert np.array_equal(got, [[0, 3, 6], [2, 5, 8]])

    def test_identity_decimation(self):
        x = make_signal(np.arange(8), rate=8.0)
        spec = StreamSpec(u=1, s=1, M=1, n=8)
        got = extract_streams(x, spec)
        assert np.array_equal(got[0], x.samples)
        # The one row is contiguous, yet the stream is a copy, and the view
        # it was read through cannot write to the record.
        assert not np.shares_memory(got, x.samples)
        view = stream_view(x.samples, spec)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_overrun_rejected(self):
        x = make_signal(np.arange(10))
        with pytest.raises(IndexBudgetExceeded):
            extract_streams(x, StreamSpec(u=3, s=2, M=2, n=4))

    def test_periodic_extension_allows_overrun(self):
        # A plan that overruns a periodic record reads the record's
        # periodic extension, np.resize(x, span), in its place.
        spec = StreamSpec(u=3, s=2, M=2, n=4)
        x = make_signal(np.resize(np.arange(10), spec.span(4)))
        assert np.array_equal(extract_streams(x, spec)[1], [2, 5, 8, 1])
        # Non-contiguous samples, and extensions past twice the record.
        base = np.arange(40) * (1 - 2j)
        for samples, spec in (
                (base[::2], StreamSpec(u=3, s=2, M=4)),
                (base[::2], StreamSpec(u=7, s=3, M=5, n=9)),
                (base[::-3], StreamSpec(u=2, s=5, M=3, n=20))):
            n = spec.n or spec.resolve_length(samples.size)
            extended = np.resize(samples, max(samples.size, spec.span(n)))
            got = extract_streams(make_signal(extended), spec)
            assert got.shape == (spec.M, n)
            for m, stream in enumerate(got):
                idx = (spec.u * np.arange(n) + m * spec.s) % samples.size
                assert np.array_equal(stream, samples[idx])

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            StreamSpec(u=4, s=2, M=3)


def read_reference(spec, counts):
    """Distinct samples over the per-stream index sets."""
    idx = np.concatenate([spec.u * np.arange(c) + m * spec.s
                          for m, c in enumerate(counts)])
    return np.unique(idx).size


class TestSamplesRead:
    def test_matches_index_set_reference(self):
        # Zero, partial and full per-stream counts; long plans against a
        # record just long enough for them (a periodic record's extension),
        # so that the last stream ends on its last sample; more streams than
        # the stride, so that stream m + u reads stream m's samples shifted
        # by s.
        rng = np.random.default_rng(7)
        overlaps = zeros = partial = 0
        for _ in range(400):
            u = int(rng.integers(1, 9))
            s = int(rng.choice([v for v in range(1, 13)
                                if math.gcd(u, v) == 1]))
            M = int(rng.integers(1, 14))
            length = int(rng.integers(1, 150))
            extend = bool(rng.random() < 0.5)
            n_max = (4 * length // u + 2 if extend
                     else max_stream_length(length, u, s, M))
            if n_max < 1:
                continue
            spec = StreamSpec(u=u, s=s, M=M,
                              n=int(rng.integers(1, n_max + 1)))
            if extend:
                length = max(length, spec.span(spec.n))
            full = rng.random() < 0.3
            counts = tuple(spec.n if full else int(c)
                           for c in rng.integers(0, spec.n + 1, size=M))
            assert core.samples_read(spec, length, counts) \
                == read_reference(spec, counts)
            overlaps += M > u and counts[u:].count(0) < M - u
            zeros += 0 in counts
            partial += any(0 < c < spec.n for c in counts)
        assert min(overlaps, zeros, partial) > 20

    def test_repeated_plan_hits_the_cache(self):
        # 4094 is the longest n that 2^16 samples hold at this geometry.
        spec = StreamSpec(u=16, s=5, M=8, n=4094)
        counts = (4094,) + (3,) * 7
        want = core.samples_read(spec, 2 ** 16, counts)
        hits = core.samples_read.cache_info().hits
        assert core.samples_read(spec, 2 ** 16, counts) == want
        assert core.samples_read.cache_info().hits == hits + 1
        with pytest.raises(IndexBudgetExceeded):
            core.samples_read(replace(spec, n=4095), 2 ** 16, counts)


class TestSelectPeaks:
    def test_single_peak(self):
        assert select_peaks(dft(make_signal([1, 1, 1, 1])), 1.0) == [0]

    def test_tie_break_by_bin_index(self):
        bins = np.array([3.0, 5.0, 5.0, 1.0], dtype=np.complex128)
        assert select_peaks(bins, 2.0) == [1, 2, 0]

    def test_equal_magnitudes_keep_bin_order(self):
        mags = np.repeat([2.0, 7.0, 4.0, 7.0], 32)
        peaks = select_peaks(mags.astype(np.complex128), 3.0)
        assert peaks == (list(range(32, 64)) + list(range(96, 128))
                         + list(range(64, 96)))

    def test_empty_allowed(self):
        assert select_peaks(dft(make_signal([0, 0, 0, 0])), 0.5) == []

    def test_zero_bins_never_peaks(self):
        # At threshold 0 the relative floor is 0 too; zero bins stay out.
        bins = np.array([0, 2, 0, 1], dtype=np.complex128)
        assert select_peaks(bins, 0.0) == [1, 3]
        assert select_peaks(dft(make_signal([0, 0, 0, 0])), 0.0) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            select_peaks(dft(make_signal([1, 1])), -1.0)

    def test_infinite_threshold_rejected(self):
        # An infinite threshold once picked no peaks.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            select_peaks(dft(make_signal([1, 1])), math.inf)

    def test_nan_threshold_rejected(self):
        # A NaN threshold once passed the sign check and picked no peaks.
        with pytest.raises(ValueError, match="threshold"):
            select_peaks(dft(make_signal([1, 1])), math.nan)
        # An overflowed spectrum is the error to report, whatever the
        # threshold read off it.
        bins = np.array([1.0, math.nan, 2.0], dtype=np.complex128)
        with pytest.raises(NonFiniteSamples, match="spectrum overflowed"):
            select_peaks(bins, math.nan)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_spectrum_raises(self, bad):
        # What finite samples leave when their transform overflows.
        bins = np.array([1.0, bad, 2.0], dtype=np.complex128)
        with pytest.raises(NonFiniteSamples, match="spectrum overflowed"):
            select_peaks(bins, 0.5)
