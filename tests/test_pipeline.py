"""End-to-end hybrid analysis, sample budget, Vandermonde shortcut."""
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from sparsespec import (
    ComplexSignal,
    HybridConfig,
    IllConditionedVandermonde,
    NoConvergence,
    NotCoprime,
    PeakList,
    SparseSpecError,
    StreamSpec,
    SynthSpec,
    ToneSpec,
    analyze,
    circular_distance_hz,
    dense_reference,
    dft,
    extract_streams,
    max_stream_length,
    pipeline,
    shifted_coeffs_shortcut,
    synthesize,
)
from sparsespec.lab import experiment_1_config


class CountingArray(np.ndarray):
    """Array that records which flat indices have been read."""

    def __new__(cls, base):
        obj = np.asarray(base, dtype=np.complex128).view(cls)
        obj.touched = set()
        return obj

    def __array_finalize__(self, obj):
        self.touched = getattr(obj, "touched", set())

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            self.touched.add(int(key))
        else:
            flat = np.asarray(key).ravel()
            if flat.dtype != bool:
                self.touched.update(int(i) for i in flat)
        return np.asarray(super().__getitem__(key))


def counted(signal):
    view = CountingArray(signal.samples)
    object.__setattr__(signal, "samples", view)
    return view


def tone_signal(freqs_amps, rate, length):
    idx = np.arange(length)
    vals = np.zeros(length, dtype=np.complex128)
    for f, a in freqs_amps:
        vals += a * np.exp(2j * np.pi * f * idx / rate)
    return ComplexSignal(samples=vals, rate_hz=rate)


class TestHybridConfig:
    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            HybridConfig(u=4, s=2, M=8).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(u=0, s=1, M=4),
        dict(u=5, s=3, M=1),
        dict(u=5, s=3, M=4, threshold=-1.0),
        dict(u=5, s=3, M=4, resolver="guess"),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs).validate()

    @pytest.mark.parametrize("field,value", [
        ("threshold", math.nan), ("threshold", math.inf),
        ("sigma_rel_tol", math.nan), ("sigma_rel_tol", math.inf),
    ])
    def test_non_finite_or_negative_values_rejected(self, field, value):
        # Each of these once gave a silent empty or merged result.
        x = tone_signal([(125.0, 1.0), (165.0, 0.7j), (245.0, -0.8)],
                        1000.0, 1000)
        cfg = replace(experiment_1_config(), **{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        with pytest.raises(ValueError, match=field):
            analyze(x, cfg)


class TestAnalyze:
    def test_degenerate_single_stream_pair(self):
        # u=1, s=1, M=2 on an on-grid tone: no aliasing to undo, the
        # result is the plain DFT peak.
        rate, n = 32.0, 32
        x = tone_signal([(5.0, 0.8 - 0.6j)], rate, n + 1)
        cfg = HybridConfig(u=1, s=1, M=2, threshold=0.3, stream_len=n)
        res = analyze(x, cfg)
        assert len(res.components) == 1
        comp = res.components[0]
        assert comp.freq_hz == pytest.approx(5.0, abs=1e-6)
        assert comp.amplitude == pytest.approx(0.8 - 0.6j, abs=1e-6)
        assert comp.collision_order == 1

    def test_zero_signal_has_no_components(self):
        x = ComplexSignal(samples=np.zeros(200, dtype=np.complex128),
                          rate_hz=100.0)
        res = analyze(x, HybridConfig(u=5, s=2, M=6, threshold=0.1))
        assert res.components == ()

    def test_collision_pair_resolved(self):
        # 25 Hz and 85 Hz collide at stride 5 of a 100 Hz grid
        # (both fall on stream bin 5 of the 20 Hz streams).
        rate = 100.0
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], rate, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                           sigma_rel_tol=1e-8)
        res = analyze(x, cfg)
        found = {round(c.freq_hz, 6): c for c in res.components}
        assert set(found) == {25.0, 85.0}
        assert found[25.0].amplitude == pytest.approx(1.0 + 0j, abs=1e-6)
        assert found[85.0].amplitude == pytest.approx(0.5j, abs=1e-6)
        assert found[25.0].collision_order == 2

    def test_matches_dense_reference_support(self):
        # Periodic on-grid signal, wrapped extraction: fine grid == full
        # grid, so hybrid support must equal the dense support exactly.
        rate, length = 240.0, 240
        x = tone_signal([(30.0, 1.2), (75.0, 0.9j), (110.0, -0.7)],
                        rate, length)
        cfg = HybridConfig(u=4, s=3, M=9, threshold=0.25, sigma_rel_tol=1e-8,
                           stream_len=60, wrap=True)
        res = analyze(x, cfg)
        dense = dense_reference(x, 0.25)
        got = sorted(c.freq_hz for c in res.components)
        want = sorted(c.freq_hz for c in dense.components)
        assert np.allclose(got, want, atol=1e-6)

    def test_no_convergence_is_a_bin_failure(self, monkeypatch):
        # 25 Hz and 40 Hz land on stream bins 5 and 0; the first order
        # estimate fails to converge, the other bin still resolves.
        x = tone_signal([(25.0, 1.0), (40.0, 0.5)], 100.0, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                           sigma_rel_tol=1e-8)
        real = pipeline.estimate_order
        calls = []

        def first_fails(seq, tol):
            calls.append(seq)
            if len(calls) == 1:
                raise NoConvergence("sweep cap reached")
            return real(seq, tol)

        monkeypatch.setattr(pipeline, "estimate_order", first_fails)
        res = analyze(x, cfg)
        first, second = res.diagnostics["peak_bins"]
        assert [(f["bin"], f["error"]) for f in res.diagnostics["failures"]] \
            == [(first, "NoConvergence")]
        assert [c.source_bin for c in res.components] == [second]

    def test_two_stream_zero_ratio_is_a_bin_failure(self):
        # Every fifth sample set: stream 1 (offset s=2) reads only zeros,
        # so P(1)/P(0) is 0 and no ratio term can be formed.
        x = np.zeros(1000, dtype=np.complex128)
        x[::5] = 1.0
        res = analyze(ComplexSignal(samples=x, rate_hz=1000.0),
                      HybridConfig(u=5, s=2, M=2))
        assert res.components == ()
        assert [f["error"] for f in res.diagnostics["failures"]] \
            == ["IllConditionedPencil"]

    @pytest.mark.parametrize("record", ["stream0", "random_phase"])
    def test_overflowing_record_fails_per_bin(self, record):
        # Finite samples of modulus 1e308 overflow in the stream FFT. With
        # 1e308 on stream 0 only, bin 0 holds inf next to finite values (a
        # matrix LAPACK's SVD can spin on); random phases give NaN in every
        # peak bin. Either way each bin fails alone and analyze returns.
        if record == "stream0":
            samples = np.ones(1000, dtype=np.complex128)
            samples[::50] = 1e308
        else:
            rng = np.random.default_rng(0)
            samples = 1e308 * np.exp(2j * np.pi * rng.random(1000))
        x = ComplexSignal(samples=samples, rate_hz=1000.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = analyze(x, experiment_1_config())
        failures = res.diagnostics["failures"]
        assert res.components == ()
        assert len(failures) == len(res.diagnostics["peak_bins"]) > 0
        assert {f["error"] for f in failures} == {"NoConvergence"}

    def test_sample_budget_counting_sampler(self):
        rate = 100.0
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], rate, 200)
        view = counted(x)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                           sigma_rel_tol=1e-8)
        res = analyze(x, cfg)
        assert len(view.touched) <= 9 * 20
        assert res.diagnostics["samples_used"] == len(view.touched)

    def test_shortcut_touches_fewer_samples(self):
        rate = 100.0
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], rate, 200)
        full = analyze(x, HybridConfig(u=5, s=2, M=9, threshold=0.2,
                                       stream_len=20, sigma_rel_tol=1e-8))
        y = tone_signal([(25.0, 1.0), (85.0, 0.5j)], rate, 200)
        view = counted(y)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                           sigma_rel_tol=1e-8, shortcut_shifted=True)
        fast = analyze(y, cfg)
        assert len(view.touched) < 9 * 20
        for a, b in zip(full.components, fast.components):
            assert a.freq_hz == pytest.approx(b.freq_hz, abs=1e-6)
            assert a.amplitude == pytest.approx(b.amplitude, abs=1e-6)

    def test_merge_invariant(self):
        rng = np.random.default_rng(12)
        rate = 1000.0
        for seed in range(5):
            base = tone_signal([(125.0, 1.0), (165.0, 0.7)], rate, 1000)
            noise = 0.05 * (rng.standard_normal(1000)
                            + 1j * rng.standard_normal(1000))
            x = ComplexSignal(samples=base.samples + noise, rate_hz=rate)
            cfg = HybridConfig(u=50, s=17, M=12, threshold=0.2,
                               stream_len=16, sigma_rel_tol=0.05,
                               extra_terms=0)
            res = analyze(x, cfg)
            tol = res.resolution_hz / 2
            freqs = [c.freq_hz for c in res.components]
            for i in range(len(freqs)):
                for j in range(i + 1, len(freqs)):
                    assert circular_distance_hz(freqs[i], freqs[j],
                                                rate) > tol / 2

    def test_components_sorted_by_magnitude(self):
        rate = 240.0
        x = tone_signal([(30.0, 0.6), (75.0, 1.4), (110.0, 1.0)], rate, 240)
        cfg = HybridConfig(u=4, s=3, M=9, threshold=0.25, sigma_rel_tol=1e-8,
                           stream_len=60, wrap=True)
        res = analyze(x, cfg)
        mags = [abs(c.amplitude) for c in res.components]
        assert mags == sorted(mags, reverse=True)

    def test_resolver_bezout_agrees_noise_free(self):
        rate = 240.0
        x = tone_signal([(30.0, 1.2), (110.0, -0.7)], rate, 240)
        base = dict(u=4, s=3, M=9, threshold=0.25, sigma_rel_tol=1e-8,
                    stream_len=60, wrap=True)
        match = analyze(x, HybridConfig(**base))
        bez = analyze(x, HybridConfig(resolver="bezout", **base))
        for a, b in zip(match.components, bez.components):
            assert a.freq_hz == pytest.approx(b.freq_hz, abs=1e-6)


class TestDenseReference:
    def test_two_tone_support(self):
        x = tone_signal([(125.0, 1.0), (165.0, np.exp(1j * np.pi / 3))],
                        1000.0, 1000)
        dense = dense_reference(x, 0.2)
        assert sorted(c.freq_hz for c in dense.components) == [125.0, 165.0]

    def test_zero_signal_empty(self):
        x = ComplexSignal(samples=np.zeros(64, dtype=np.complex128),
                          rate_hz=64.0)
        assert dense_reference(x, 0.1).components == ()

    def test_one_hot_bin(self):
        from sparsespec import Spectrum, idft
        bins = np.zeros(32, dtype=np.complex128)
        bins[7] = 32.0
        x = idft(Spectrum(bins=bins, bin_hz=1.0), rate_hz=32.0)
        dense = dense_reference(x, 0.5)
        assert len(dense.components) == 1
        assert dense.components[0].freq_hz == pytest.approx(7.0)
        assert dense.components[0].amplitude == pytest.approx(1.0 + 0j)


class TestShortcut:
    def test_condition_one_for_root_grid(self):
        # Stride 250 of a 1000-point grid leaves 4-point streams whose
        # nodes are the 4th roots of unity: perfectly conditioned.
        rate = 1000.0
        x = tone_signal([(2.0, 1.0)], rate, 1000)
        spec = StreamSpec(u=250, s=1, M=2, n=4)
        peaks = PeakList(entries=tuple((b, 1.0) for b in range(4)))
        vals, cond = shifted_coeffs_shortcut(x, peaks, spec, 1)
        assert cond == pytest.approx(1.0, abs=1e-9)
        direct = dft(extract_streams(x, spec).streams[1]).bins
        for (b, _), v in zip(peaks.entries, vals):
            assert abs(v - direct[b]) <= 1e-8 * max(np.abs(direct).max(), 1)

    def test_full_grid_nodes_ill_conditioned(self):
        rate = 1000.0
        x = tone_signal([(11.0, 1.0)], rate, 1000)
        spec = StreamSpec(u=1, s=1, M=2, n=999)
        peaks = PeakList(entries=tuple((b, 1.0) for b in (11, 22, 33, 44)))
        try:
            _, cond = shifted_coeffs_shortcut(x, peaks, spec, 1)
        except IllConditionedVandermonde:
            return
        assert cond > 1e4

    def test_requires_shifted_stream(self):
        x = tone_signal([(2.0, 1.0)], 1000.0, 1000)
        spec = StreamSpec(u=250, s=1, M=2, n=4)
        peaks = PeakList(entries=((0, 1.0),))
        for m in (0, [0, 1]):
            with pytest.raises(ValueError):
                shifted_coeffs_shortcut(x, peaks, spec, m)

    def test_empty_peaks(self):
        x = tone_signal([(2.0, 1.0)], 1000.0, 1000)
        spec = StreamSpec(u=250, s=1, M=2, n=4)
        vals, cond = shifted_coeffs_shortcut(
            x, PeakList(entries=()), spec, 1)
        assert vals.size == 0
        assert cond == 1.0
        vals, _ = shifted_coeffs_shortcut(x, PeakList(entries=()), spec, [1])
        assert vals.shape == (1, 0)

    def test_stream_sequence_matches_single_streams(self):
        # One solve against all shifted streams gives each stream's row bit
        # for bit; an int stream number keeps the 1-d vector.
        x = tone_signal([(25.0, 1.0), (42.0, 0.5j), (63.0, 0.3)], 100.0, 200)
        spec = StreamSpec(u=5, s=2, M=9, n=20)
        peaks = PeakList(entries=((5, 1.0), (2, 0.5), (3, 0.3)))
        rows, cond = shifted_coeffs_shortcut(x, peaks, spec, range(1, 9))
        assert rows.shape == (8, 3)
        for m in range(1, 9):
            vals, single_cond = shifted_coeffs_shortcut(x, peaks, spec, m)
            assert vals.shape == (3,)
            assert single_cond == cond
            assert np.array_equal(vals, rows[m - 1])

    def test_one_solve_for_all_shifted_streams(self, monkeypatch):
        calls = {"shortcut": 0, "svd": 0, "solve": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(pipeline, "shifted_coeffs_shortcut", counting(
            "shortcut", pipeline.shifted_coeffs_shortcut))
        monkeypatch.setattr(pipeline, "svd_small",
                            counting("svd", pipeline.svd_small))
        monkeypatch.setattr(np.linalg, "solve",
                            counting("solve", np.linalg.solve))
        x = tone_signal([(25.0, 1.0), (42.0, 0.5j)], 100.0, 400)
        res = analyze(x, HybridConfig(u=5, s=2, M=8, threshold=0.2,
                                      sigma_rel_tol=1e-8,
                                      shortcut_shifted=True))
        d = res.diagnostics
        assert calls == {"shortcut": 1, "svd": 1, "solve": 1}
        assert d["shortcut_fallbacks"] == 0
        assert len(d["shortcut_conditions"]) == 7
        assert len(set(d["shortcut_conditions"])) == 1
        assert sorted(c.freq_hz for c in res.components) == pytest.approx(
            [25.0, 42.0])

    def test_fallback_keeps_analysis_working(self):
        # Eight adjacent stream bins give a tight arc of Vandermonde nodes
        # whose condition blows past the cap; analyze must fall back to
        # full stream DFTs and still recover every tone.
        rate = 240.0
        tones = [(30.0 + k, np.exp(0.7j * k)) for k in range(12)]
        x = tone_signal(tones, rate, 240)
        cfg = HybridConfig(u=2, s=1, M=8, threshold=0.3, sigma_rel_tol=1e-8,
                           stream_len=120, wrap=True, shortcut_shifted=True)
        res = analyze(x, cfg)
        freqs = sorted(c.freq_hz for c in res.components)
        assert np.allclose(freqs, [f for f, _ in tones], atol=1e-6)
        assert res.diagnostics["shortcut_fallbacks"] >= 1

    def test_node_svd_failure_falls_back(self, monkeypatch):
        # A node-matrix SVD that does not converge costs the shortcut, not
        # the run: every shifted stream is read in full instead.
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], 100.0, 200)
        base = dict(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                    sigma_rel_tol=1e-8)
        full = analyze(x, HybridConfig(**base))

        def no_convergence(a):
            raise NoConvergence("forced")

        monkeypatch.setattr(pipeline, "svd_small", no_convergence)
        res = analyze(x, HybridConfig(shortcut_shifted=True, **base))
        d = res.diagnostics
        assert d["shortcut_fallbacks"] == 8
        assert d["shortcut_conditions"] == []
        assert d["per_stream_samples"] == [20] * 9
        assert d["samples_used"] == full.diagnostics["samples_used"]
        assert len(res.components) == len(full.components) == 2
        for a, b in zip(full.components, res.components):
            assert a.freq_hz == pytest.approx(b.freq_hz, abs=1e-9)
            assert a.amplitude == pytest.approx(b.amplitude, abs=1e-9)

    def test_more_peaks_than_node_cap_falls_back(self):
        # Threshold 0 on noise makes every one of the 997 stream bins a
        # peak: a node matrix beyond svd_small's 512 cap costs the
        # shortcut, not the run.
        rng = np.random.default_rng(3)
        x = ComplexSignal(samples=rng.standard_normal(1000)
                          + 1j * rng.standard_normal(1000), rate_hz=1000.0)
        base = dict(u=1, s=1, M=4, threshold=0.0)
        full = analyze(x, HybridConfig(**base))
        res = analyze(x, HybridConfig(shortcut_shifted=True, **base))
        assert len(res.diagnostics["peak_bins"]) == 997
        assert res.diagnostics["shortcut_fallbacks"] == 3
        assert res.components == full.components
        assert len(res.components) > 0


class TestDiagnostics:
    def test_budget_and_reports_present(self):
        rate = 100.0
        x = tone_signal([(25.0, 1.0)], rate, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                           sigma_rel_tol=1e-8)
        res = analyze(x, cfg)
        d = res.diagnostics
        assert d["stream_length"] == 20
        assert d["fine_grid_size"] == 100
        assert d["samples_used"] <= 9 * 20
        assert len(d["per_stream_samples"]) == 9
        assert d["bin_reports"]
        assert res.resolution_hz == pytest.approx(rate / 100)


class TestBatchedStreams:
    def test_samples_used_and_spectra_match_per_stream_reference(
            self, monkeypatch):
        # Random geometries, wrapped ones whose indices collide and forced
        # shortcut fallbacks included. samples_used must equal the distinct
        # count over the per-stream index sets, the reference spectrum must
        # equal the stream-0 DFT bit for bit, and every exact shifted
        # coefficient must be within 8 eps * ||stream||_1 of its DFT bin.
        rng = np.random.default_rng(31)
        select_peaks = pipeline.select_peaks
        build = pipeline.build_prony_sequences
        shortcut = pipeline.shifted_coeffs_shortcut
        seen, forced = {}, set()

        def capture_peaks(spectrum, threshold):
            seen["ref"] = spectrum.bins.copy()
            return select_peaks(spectrum, threshold)

        def capture_coeffs(coeffs, bins, shift_step):
            seen["coeffs"] = coeffs.copy()
            return build(coeffs, bins, shift_step)

        def forced_fallback(x, peaks, spec, m):
            if forced:
                raise IllConditionedVandermonde("forced fallback")
            return shortcut(x, peaks, spec, m)

        monkeypatch.setattr(pipeline, "select_peaks", capture_peaks)
        monkeypatch.setattr(pipeline, "build_prony_sequences", capture_coeffs)
        monkeypatch.setattr(pipeline, "shifted_coeffs_shortcut",
                            forced_fallback)
        collided = fallbacks = 0
        for _ in range(80):
            u = int(rng.integers(1, 8))
            s = int(rng.choice([v for v in range(1, 12)
                                if math.gcd(u, v) == 1]))
            M = int(rng.integers(2, 9))
            length = int(rng.integers(24, 160))
            wrap = bool(rng.random() < 0.5)
            n_max = max_stream_length(length, u, s, M)
            if wrap:
                stream_len = int(rng.integers(1, 2 * length // u + 2))
            elif n_max < 1:
                continue
            else:
                stream_len = (None if rng.random() < 0.5
                              else int(rng.integers(1, n_max + 1)))
            cfg = HybridConfig(u=u, s=s, M=M, threshold=0.2, wrap=wrap,
                               stream_len=stream_len,
                               shortcut_shifted=bool(rng.random() < 0.5),
                               max_peaks=int(rng.integers(1, 5)))
            # The shortcut falls back for all shifted streams or for none;
            # the first of M - 1 draws decides.
            forced = (set(range(1, M)) if rng.random(M - 1)[0] < 0.4
                      else set())
            l = np.arange(length)
            vals = 0.05 * (rng.standard_normal(length)
                           + 1j * rng.standard_normal(length))
            for f in rng.uniform(0.0, length, size=int(rng.integers(1, 4))):
                vals = vals + np.exp(2j * np.pi * f * l / length)
            x = ComplexSignal(samples=vals, rate_hz=float(length))

            res = analyze(x, cfg)
            d = res.diagnostics
            n = d["stream_length"]
            counts = d["per_stream_samples"]
            assert len(counts) == M and counts[0] == n
            index_sets = [u * np.arange(c) + m * s
                          for m, c in enumerate(counts)]
            if wrap:
                index_sets = [idx % length for idx in index_sets]
            want = np.unique(np.concatenate(index_sets)).size
            assert d["samples_used"] == want
            collided += want < sum(counts)

            streams = extract_streams(x, StreamSpec(u=u, s=s, M=M, n=n,
                                                    wrap=wrap)).streams
            direct = [dft(st).bins for st in streams]
            assert np.array_equal(seen["ref"], direct[0])
            exact = range(M)
            if cfg.shortcut_shifted:
                assert all(counts[m] == n for m in forced)
                fallbacks += len(forced)
                # Rows that took the K-sample solve are estimates.
                exact = [0] + sorted(forced)
            assert np.array_equal(seen["coeffs"][0],
                                  direct[0][d["peak_bins"]])
            eps = np.finfo(float).eps
            for m in exact[1:]:
                bound = 8 * eps * np.abs(streams[m].samples).sum()
                assert np.all(np.abs(seen["coeffs"][m]
                                     - direct[m][d["peak_bins"]]) <= bound)
        assert collided > 10 and fallbacks > 10


class TestRobustness:
    def test_random_valid_runs_raise_only_library_errors(self):
        # Random valid geometries, noise levels, resolvers and record
        # scales, down to 1e-300 and up to where the stream FFT overflows:
        # analyze may raise a SparseSpecError but nothing else.
        rng = np.random.default_rng(1)
        trials = 0
        while trials < 150:
            u = int(rng.integers(1, 13))
            s = int(rng.choice([v for v in range(1, 12)
                                if math.gcd(u, v) == 1]))
            M = int(rng.integers(2, 13))
            length = int(rng.integers(32, 600))
            wrap = bool(rng.random() < 0.5)
            if not wrap and max_stream_length(length, u, s, M) < 1:
                continue
            trials += 1
            rate = float(length)
            tones = tuple(
                ToneSpec(mu_hz=float(rng.uniform(0.0, rate)),
                         amplitude=rng.uniform(0.5, 1.5)
                         * complex(np.exp(2j * np.pi * rng.random())))
                for _ in range(int(rng.integers(1, 5))))
            snr = (None, 20.0, 0.0, -10.0)[int(rng.integers(4))]
            scale = (1.0, 1e-300, 1e300, 1e307)[int(rng.integers(4))]
            cfg = HybridConfig(u=u, s=s, M=M, wrap=wrap,
                               resolver=str(rng.choice(["match", "bezout"])),
                               shortcut_shifted=bool(rng.random() < 0.5))
            x = synthesize(SynthSpec(tones=tones, rate_hz=rate, length=length,
                                     snr_db=snr,
                                     seed=int(rng.integers(1 << 30))))
            with np.errstate(all="ignore"):
                try:
                    analyze(ComplexSignal(samples=scale * x.samples,
                                          rate_hz=rate), cfg)
                except SparseSpecError:
                    pass


# Run in a fresh interpreter: a 2^16-sample shortcut record whose shifted
# streams all fall back to the full path's peak-bin DFT, and a 2^20-sample
# record read in eight full streams. Prints the components bit for bit.
_THREAD_SCRIPT = """
from sparsespec import (HybridConfig, NoConvergence, analyze,
                        max_stream_length, pipeline)
from sparsespec.lab import SynthSpec, ToneSpec, synthesize

def no_convergence(a):
    raise NoConvergence("forced")

pipeline.svd_small = no_convergence
records = [
    (2 ** 16, HybridConfig(u=8, s=3, M=8, resolver="bezout",
                           shortcut_shifted=True)),
    (2 ** 20, HybridConfig(u=16, s=5, M=8, resolver="bezout")),
]
for length, cfg in records:
    fine = cfg.u * max_stream_length(length, cfg.u, cfg.s, cfg.M)
    tones = tuple(ToneSpec(mu_hz=k * 10000.0 / fine, amplitude=a)
                  for k, a in ((fine // 9, 1.0), (fine // 3 + 7, 0.7j),
                               (fine - 5, -0.9 + 0.2j)))
    x = synthesize(SynthSpec(tones=tones, rate_hz=10000.0, length=length))
    res = analyze(x, cfg)
    print(res.diagnostics["shortcut_fallbacks"], len(res.components))
    for c in res.components:
        print(c.freq_hz.hex(), c.amplitude.real.hex(),
              c.amplitude.imag.hex(), c.residual.hex())
"""


class TestThreadIndependence:
    def test_components_identical_at_one_and_two_blas_threads(self):
        # A one-row complex product through BLAS (gemv) returned different
        # bits at one and at two OpenBLAS threads for n >= 4096; the
        # peak-bin DFT must not depend on that.
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        lines = outputs[0].splitlines()
        assert lines[0] == "7 3" and "0 3" in lines
        assert outputs[0] == outputs[1]
