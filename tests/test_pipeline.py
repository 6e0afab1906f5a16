"""End-to-end hybrid analysis, sample budget, Vandermonde shortcut."""
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from sparsespec import (
    ComplexSignal,
    HybridConfig,
    IllConditionedVandermonde,
    IndexBudgetExceeded,
    NoConvergence,
    NotCoprime,
    NonFiniteSamples,
    NoUniqueIntersection,
    SparseSpecError,
    StreamSpec,
    SynthSpec,
    ToneSpec,
    analyze,
    circular_distance_hz,
    core,
    dense_reference,
    extract_streams,
    max_stream_length,
    pipeline,
    shifted_coeffs_shortcut,
    synthesize,
)
from sparsespec.lab import experiment_1_config, experiment_1_spec
from sparsespec.pipeline import noise_power_quantile, plan
from sparsespec.prony import SVD_DIM_CAP


def tone_signal(freqs_amps, rate, length):
    idx = np.arange(length)
    vals = np.zeros(length, dtype=np.complex128)
    for f, a in freqs_amps:
        vals += a * np.exp(2j * np.pi * f * idx / rate)
    return ComplexSignal(samples=vals, rate_hz=rate)


def periodic_extension(x, cfg):
    """The periodic record ``x`` repeated for as long as the pinned plan of
    ``cfg`` reads: ``np.resize(x, span)``."""
    span = StreamSpec(u=cfg.u, s=cfg.s, M=cfg.M).span(cfg.stream_len)
    return ComplexSignal(samples=np.resize(x.samples, max(len(x), span)),
                         rate_hz=x.rate_hz)


class TestHybridConfig:
    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            HybridConfig(u=4, s=2, M=8)

    @pytest.mark.parametrize("kwargs", [
        dict(u=0, s=1, M=4),
        dict(u=5, s=3, M=1),
        dict(u=5, s=3, M=4, threshold=-1.0),
        dict(u=5, s=3, M=4, resolver="guess"),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)

    @pytest.mark.parametrize("field,value,error,message", [
        ("u", 0, ValueError, "u and s must be positive integers"),
        ("s", -1, ValueError, "u and s must be positive integers"),
        ("u", 4, NotCoprime, "u=4 and s=2 share a factor"),
        ("M", 1, ValueError, "at least 2 streams are required"),
        ("M", 0, ValueError, "at least 2 streams are required"),
        ("threshold", -1.0, ValueError,
         "threshold must be finite and nonnegative"),
        ("threshold", math.nan, ValueError,
         "threshold must be finite and nonnegative"),
        ("threshold", math.inf, ValueError,
         "threshold must be finite and nonnegative"),
        ("resolver", "guess", ValueError,
         "resolver must be one of ('match', 'bezout')"),
        ("stream_len", 0, ValueError,
         "stream_len must be positive when given"),
    ])
    def test_invalid_field_raises_at_construction(self, field, value, error,
                                                  message):
        # Messages are matched word for word, since the CLI prints them.
        # replace() builds a config too, so it checks each field as well.
        valid = HybridConfig(u=5, s=2, M=3, stream_len=8)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(error, match=exact):
            HybridConfig(**{"u": 5, "s": 2, "M": 3, field: value})
        with pytest.raises(error, match=exact):
            replace(valid, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("threshold", math.nan), ("threshold", math.inf),
    ])
    def test_non_finite_or_negative_values_rejected(self, field, value):
        # Each of these once gave a silent empty or merged result.
        x = tone_signal([(125.0, 1.0), (165.0, 0.7j), (245.0, -0.8)],
                        1000.0, 1000)
        with pytest.raises(ValueError, match=field):
            analyze(x, replace(experiment_1_config(), **{field: value}))


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

    def test_zero_signal_at_zero_threshold_has_no_candidates(self):
        # A zero bin used to reach a zero threshold: 64 zero-amplitude
        # dense components, and 16 candidates fit to rank 0 by analyze.
        x = ComplexSignal(samples=np.zeros(64, dtype=np.complex128),
                          rate_hz=64.0)
        assert dense_reference(x, 0.0).components == ()
        res = analyze(x, HybridConfig(u=4, s=1, M=3, threshold=0.0))
        assert res.components == ()
        assert res.diagnostics["peak_candidates"] == 0
        assert res.diagnostics["bin_reports"] == []

    def test_peak_floor_relative_to_largest_peak(self):
        # The FFT's rounding leakage of a 1e16 tone, about 1e-15 of it in
        # every bin, still clears threshold * n; the relative floor keeps
        # those 24 bins from becoming components.
        n = np.arange(1000)
        x = ComplexSignal(samples=1e16 * np.exp(2j * np.pi * 125 * n / 1000),
                          rate_hz=1000.0)
        res = analyze(x, experiment_1_config())
        assert len(res.components) == 1
        assert res.components[0].freq_hz == pytest.approx(125.0)
        assert res.components[0].magnitude == pytest.approx(1e16)

    def test_collision_pair_resolved(self):
        # 25 Hz and 85 Hz collide at stride 5 of a 100 Hz grid
        # (both fall on stream bin 5 of the 20 Hz streams).
        rate = 100.0
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], rate, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20)
        res = analyze(x, cfg)
        found = {round(c.freq_hz, 6): c for c in res.components}
        assert set(found) == {25.0, 85.0}
        assert found[25.0].amplitude == pytest.approx(1.0 + 0j, abs=1e-6)
        assert found[85.0].amplitude == pytest.approx(0.5j, abs=1e-6)
        assert found[25.0].collision_order == 2

    def test_matches_dense_reference_support(self):
        # Periodic on-grid signal read over its periodic extension: fine
        # grid == full grid, so hybrid support must equal the dense support
        # exactly.
        rate, length = 240.0, 240
        x = tone_signal([(30.0, 1.2), (75.0, 0.9j), (110.0, -0.7)],
                        rate, length)
        cfg = HybridConfig(u=4, s=3, M=9, threshold=0.25, stream_len=60)
        res = analyze(periodic_extension(x, cfg), cfg)
        dense = dense_reference(x, 0.25)
        got = sorted(c.freq_hz for c in res.components)
        want = sorted(c.freq_hz for c in dense.components)
        assert np.allclose(got, want, atol=1e-6)

    def test_no_convergence_is_a_bin_failure(self, monkeypatch):
        # 25 Hz and 40 Hz land on stream bins 5 and 0; the first order
        # estimate fails to converge, the other bin still resolves.
        x = tone_signal([(25.0, 1.0), (40.0, 0.5)], 100.0, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20)
        real = pipeline.estimate_order
        calls = []

        def first_fails(seq, noise_sigma):
            calls.append(seq)
            if len(calls) == 1:
                raise NoConvergence("sweep cap reached")
            return real(seq, noise_sigma)

        monkeypatch.setattr(pipeline, "estimate_order", first_fails)
        res = analyze(x, cfg)
        first, second = res.diagnostics["peak_bins"]
        assert [(f["bin"], f["error"]) for f in res.diagnostics["failures"]] \
            == [(first, "NoConvergence")]
        assert [c.source_bin for c in res.components] == [second]
        assert [(r["bin"], r["error"], r["kept"])
                for r in res.diagnostics["bin_reports"]] \
            == [(first, "NoConvergence", 0), (second, None, 1)]

    def test_partial_bin_keeps_earlier_terms(self, monkeypatch):
        # A collision bin of order 2 whose second term cannot be paired
        # keeps the first term's component, is listed in failures, and its
        # report counts only the term that produced a component.
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], 100.0, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20)
        real = pipeline.resolve_match
        calls = []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NoUniqueIntersection("two candidates")
            return real(*args)

        monkeypatch.setattr(pipeline, "resolve_match", second_fails)
        res = analyze(x, cfg)
        (b,) = res.diagnostics["peak_bins"]
        assert len(res.components) == 1
        assert res.components[0].source_bin == b
        assert [(f["bin"], f["error"]) for f in res.diagnostics["failures"]] \
            == [(b, "NoUniqueIntersection")]
        (report,) = res.diagnostics["bin_reports"]
        assert (report["rank"], report["kept"], report["error"]) \
            == (2, 1, "NoUniqueIntersection")

    def test_unpaired_first_term_keeps_later_terms(self, monkeypatch):
        # Each term pairs from its own root: when the first of two terms
        # cannot be paired, the second still becomes a component. The bin
        # is listed in failures and its report counts the one kept term.
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], 100.0, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20)
        real = pipeline.resolve_match
        calls = []

        def first_fails(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NoUniqueIntersection("two candidates")
            return real(*args)

        monkeypatch.setattr(pipeline, "resolve_match", first_fails)
        res = analyze(x, cfg)
        (b,) = res.diagnostics["peak_bins"]
        assert len(calls) == 2
        assert [(c.source_bin, c.collision_order) for c in res.components] \
            == [(b, 2)]
        assert res.components[0].freq_hz == pytest.approx(
            real(*calls[1])[0])
        assert [(f["bin"], f["error"]) for f in res.diagnostics["failures"]] \
            == [(b, "NoUniqueIntersection")]
        (report,) = res.diagnostics["bin_reports"]
        assert (report["rank"], report["kept"], report["error"]) \
            == (2, 1, "NoUniqueIntersection")

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

    @pytest.mark.parametrize("record", ["stream0", "random_phase", "tone"])
    def test_overflowing_reference_spectrum_raises(self, record):
        # Finite samples of modulus 1e308 overflow in the stream FFT. With
        # 1e308 on stream 0 only, bin 0 of the reference spectrum is
        # infinite; random phases and a 1.7e308 tone give NaN. No candidate
        # can be picked from such a spectrum, and analyze used to return no
        # components with one NoConvergence in its diagnostics.
        if record == "stream0":
            samples = np.ones(1000, dtype=np.complex128)
            samples[::50] = 1e308
        elif record == "random_phase":
            rng = np.random.default_rng(0)
            samples = 1e308 * np.exp(2j * np.pi * rng.random(1000))
        else:
            samples = 1.7e308 * np.exp(2j * np.pi * 0.3125 * np.arange(1000))
        x = ComplexSignal(samples=samples, rate_hz=1000.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteSamples, match="spectrum overflowed"):
            analyze(x, experiment_1_config())

    def test_overflowing_shifted_stream_raises(self):
        # 1e308 on stream 1 only: the reference spectrum is finite, but the
        # peak bin's stream-1 coefficient is not, from the peak-bin DFT and
        # from the shortcut's solve alike. analyze once returned no
        # components, the bin failing with NoConvergence after numpy's
        # overflow warnings (errors here, by the pytest settings).
        cfg = experiment_1_config()
        samples = np.ones(1000, dtype=np.complex128)
        samples[cfg.s::cfg.u] = 1e308
        x = ComplexSignal(samples=samples, rate_hz=1000.0)
        for shortcut in (False, True):
            with pytest.raises(NonFiniteSamples,
                               match="spectrum overflowed"):
                analyze(x, replace(cfg, shortcut_shifted=shortcut))

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("path", ["full", "shortcut", "fallback"])
    def test_sample_budget_poisoned_outside_read_set(self, monkeypatch,
                                                     path, periodic):
        # Every sample outside the read set the diagnostics claim becomes
        # NaN: reading any one of them would show in the output. The
        # periodic case reads the record's extension past twice its period.
        x = tone_signal([(30.0, 1.0), (70.0, 0.5j)], 100.0, 200)
        cfg = HybridConfig(u=9, s=2, M=3, threshold=0.2,
                           stream_len=50 if periodic else 20,
                           shortcut_shifted=path != "full")
        if periodic:
            x = periodic_extension(x, cfg)
        if path == "fallback":
            def no_convergence(a):
                raise NoConvergence("forced")

            monkeypatch.setattr(pipeline, "svd_small", no_convergence)
        clean = analyze(x, cfg)
        d = clean.diagnostics
        assert d["shortcut_fallbacks"] == (2 if path == "fallback" else 0)
        assert [round(c.freq_hz, 6) for c in clean.components] == [30, 70]
        read = np.concatenate([
            cfg.u * np.arange(c) + m * cfg.s
            for m, c in enumerate(d["per_stream_samples"])])
        assert np.unique(read).size == d["samples_used"] < len(x)
        poisoned = np.full(len(x), np.nan, dtype=np.complex128)
        poisoned[read] = x.samples[read]
        object.__setattr__(x, "samples", poisoned)
        res = analyze(x, cfg)
        assert repr(res.components) == repr(clean.components)
        assert repr(res.diagnostics) == repr(clean.diagnostics)

    def test_record_left_untouched(self):
        x = tone_signal([(30.0, 1.0), (70.0, 0.5j)], 100.0, 200)
        before = x.samples.copy()
        for shortcut in (False, True):
            analyze(x, HybridConfig(u=9, s=2, M=3, threshold=0.2,
                                    shortcut_shifted=shortcut, stream_len=20))
        assert x.samples.flags.writeable
        assert x.samples.tobytes() == before.tobytes()

    def test_shortcut_touches_fewer_samples(self):
        rate = 100.0
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], rate, 200)
        full = analyze(x, HybridConfig(u=5, s=2, M=9, threshold=0.2,
                                       stream_len=20))
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20,
                           shortcut_shifted=True)
        fast = analyze(x, cfg)
        assert fast.diagnostics["samples_used"] < 9 * 20
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
                               stream_len=16)
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
        cfg = HybridConfig(u=4, s=3, M=9, threshold=0.25, stream_len=60)
        res = analyze(periodic_extension(x, cfg), cfg)
        mags = [abs(c.amplitude) for c in res.components]
        assert mags == sorted(mags, reverse=True)

    def test_resolver_bezout_agrees_noise_free(self):
        rate = 240.0
        x = tone_signal([(30.0, 1.2), (110.0, -0.7)], rate, 240)
        cfg = HybridConfig(u=4, s=3, M=9, threshold=0.25, stream_len=60)
        x = periodic_extension(x, cfg)
        match = analyze(x, cfg)
        bez = analyze(x, replace(cfg, resolver="bezout"))
        for a, b in zip(match.components, bez.components):
            assert a.freq_hz == pytest.approx(b.freq_hz, abs=1e-6)


class TestTwoStreams:
    """M = 2 end to end: seeded on-grid records of three tones on distinct
    stream bins, at strides u in {3, 4, 5, 7} and a 1 Hz fine grid."""

    @staticmethod
    def runs(seed, sigma, count=200):
        rng = np.random.default_rng(seed)
        n = 64
        for _ in range(count):
            u = int(rng.choice([3, 4, 5, 7]))
            s = int(rng.choice([v for v in range(1, 2 * u)
                                if math.gcd(u, v) == 1]))
            rate = float(u * n)
            bins = rng.choice(n, 3, replace=False)
            freqs = (bins + n * rng.integers(0, u, 3)).astype(float)
            amps = (rng.uniform(0.5, 1.5, 3)
                    * np.exp(2j * np.pi * rng.random(3)))
            x = tone_signal(zip(freqs, amps), rate, u * n + s).samples
            x = x + sigma / math.sqrt(2) * (rng.standard_normal(x.size)
                                            + 1j * rng.standard_normal(x.size))
            res = analyze(ComplexSignal(samples=x, rate_hz=rate), HybridConfig(
                u=u, s=s, M=2, threshold=0.2, stream_len=n))
            yield rate, list(zip(freqs, amps)), res

    def test_noise_free_tones_exact(self):
        for rate, tones, res in self.runs(seed=20, sigma=0.0):
            assert len(res.components) == len(tones)
            for freq, amp in tones:
                comp = min(res.components, key=lambda c: circular_distance_hz(
                    c.freq_hz, freq, rate))
                assert circular_distance_hz(comp.freq_hz, freq, rate) <= 1e-9
                assert abs(comp.amplitude - amp) <= 1e-9

    def test_noisy_recall_and_precision(self):
        # Per-sample complex noise of deviation 0.1 against amplitudes
        # 0.5-1.5: a tone counts as found within half a fine bin.
        found = tones_total = components = 0
        for rate, tones, res in self.runs(seed=21, sigma=0.1):
            tones_total += len(tones)
            components += len(res.components)
            found += sum(
                any(circular_distance_hz(c.freq_hz, freq, rate) <= 0.5
                    for c in res.components)
                for freq, _ in tones)
        assert found / tones_total >= 0.85
        assert found / components >= 0.85


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
        from sparsespec import idft
        bins = np.zeros(32, dtype=np.complex128)
        bins[7] = 32.0
        x = idft(bins, rate_hz=32.0)
        dense = dense_reference(x, 0.5)
        assert len(dense.components) == 1
        assert dense.components[0].freq_hz == pytest.approx(7.0)
        assert dense.components[0].amplitude == pytest.approx(1.0 + 0j)

    def test_overflowing_spectrum_raises(self):
        # A finite record whose transform overflows once gave no components.
        l = np.arange(1000)
        x = ComplexSignal(samples=1.7e308 * np.exp(2j * np.pi * 0.3125 * l),
                          rate_hz=1000.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteSamples, match="spectrum overflowed"):
            dense_reference(x, 0.2)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_threshold_rejected(self, threshold):
        # NaN and inf once returned no components instead of an error.
        x = tone_signal([(8.0, 1.0)], 64.0, 64)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dense_reference(x, threshold)


class TestStages:
    @pytest.mark.parametrize("kwargs, length", [
        (dict(u=5, s=2, M=9), 200),
        (dict(u=5, s=2, M=9, stream_len=20), 200),
        # The last stream ends on the record's last sample.
        (dict(u=3, s=2, M=4, stream_len=32), 100),
        (dict(u=1, s=1, M=2, threshold=0.0), 3),
    ])
    def test_plan_pins_the_stream_length(self, kwargs, length):
        cfg = HybridConfig(**kwargs)
        x = tone_signal([(3.0, 1.0)], float(length), length)
        spec = pipeline.plan(cfg, length)
        assert (spec.u, spec.s, spec.M) == (cfg.u, cfg.s, cfg.M)
        assert spec.n == analyze(x, cfg).diagnostics["stream_length"]

    @pytest.mark.parametrize("kwargs, length, error", [
        (dict(u=4, s=2, M=3), 200, NotCoprime),
        (dict(u=5, s=2, M=1), 200, ValueError),
        (dict(u=0, s=2, M=3), 200, ValueError),
        (dict(u=5, s=2, M=3, threshold=math.nan), 200, ValueError),
        (dict(u=5, s=2, M=3, resolver="nearest"), 200, ValueError),
        (dict(u=5, s=2, M=3, stream_len=0), 200, ValueError),
        (dict(u=5, s=2, M=3, stream_len=41), 200, IndexBudgetExceeded),
        (dict(u=5, s=2, M=60), 100, IndexBudgetExceeded),
    ])
    def test_plan_rejects_what_analyze_rejects(self, kwargs, length, error):
        # An invalid config raises as it is built; a record too short for
        # a valid one raises in plan and analyze.
        x = tone_signal([(3.0, 1.0)], float(length), length)
        with pytest.raises(error):
            pipeline.plan(HybridConfig(**kwargs), length)
        with pytest.raises(error):
            analyze(x, HybridConfig(**kwargs))

    def test_fit_fails_only_the_nan_column(self):
        # 25 Hz and 85 Hz collide in stream bin 5; 40 Hz and 33 Hz land
        # alone in bins 0 and 13.
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j), (40.0, 0.8),
                         (33.0, 0.6)], 100.0, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20)
        spec = pipeline.plan(cfg, len(x))
        noise, bins, coeffs, _, _ = pipeline.detect(x, cfg, spec)
        assert sorted(bins) == [0, 5, 13]
        poisoned = coeffs.copy()
        poisoned[:, 1] = np.nan
        reports, terms = pipeline.fit(poisoned, bins, noise, cfg.M)
        assert [r["error"] for r in reports] \
            == [None] + ["NoConvergence"] + [None] * (len(bins) - 2)
        assert terms[1] == []
        for j in [0] + list(range(2, len(bins))):
            (alone,), (alone_terms,) = pipeline.fit(
                coeffs[:, j:j + 1], bins[j:j + 1], noise, cfg.M)
            assert reports[j] == alone
            assert terms[j] == alone_terms
            assert terms[j]


    @pytest.mark.parametrize("modulus, kept", [
        (1.3, 0), (0.75, 0), (1.15, 1), (0.85, 1)])
    def test_fit_keeps_roots_near_the_unit_circle(self, modulus, kept):
        # One order-1 column p[m] = 2 z^m: a root farther than
        # DEFAULT_UNIT_TOL = 0.2 from the unit circle is fit but not kept.
        z = modulus * np.exp(0.7j)
        column = (2.0 * z ** np.arange(12))[:, None]
        (report,), (terms,) = pipeline.fit(column, [3], 1e-3, 12)
        assert (report["rank"], report["error"]) == (1, None)
        assert len(terms) == kept
        for root, amp in terms:
            assert root == pytest.approx(z, rel=1e-9)
            assert amp == pytest.approx(2.0, rel=1e-9)


class TestShortcut:
    def test_condition_one_for_root_grid(self):
        # Stride 250 of a 1000-point grid leaves 4-point streams whose
        # nodes are the 4th roots of unity: perfectly conditioned.
        rate = 1000.0
        x = tone_signal([(2.0, 1.0)], rate, 1000)
        spec = StreamSpec(u=250, s=1, M=2, n=4)
        bins = list(range(4))
        (vals,), cond = shifted_coeffs_shortcut(x, bins, spec)
        assert cond == pytest.approx(1.0, abs=1e-9)
        direct = np.fft.fft(extract_streams(x, spec)[1])
        for b, v in zip(bins, vals):
            assert abs(v - direct[b]) <= 1e-8 * max(np.abs(direct).max(), 1)

    def test_full_grid_nodes_ill_conditioned(self):
        rate = 1000.0
        x = tone_signal([(11.0, 1.0)], rate, 1000)
        spec = StreamSpec(u=1, s=1, M=2, n=999)
        try:
            _, cond = shifted_coeffs_shortcut(x, [11, 22, 33, 44], spec)
        except IllConditionedVandermonde:
            return
        assert cond > 1e4

    def test_empty_peaks(self):
        x = tone_signal([(2.0, 1.0)], 1000.0, 1000)
        spec = StreamSpec(u=250, s=1, M=2, n=4)
        vals, cond = shifted_coeffs_shortcut(x, [], spec)
        assert vals.size == 0
        assert cond == 1.0
        assert vals.shape == (1, 0)

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
        cfg = HybridConfig(u=2, s=1, M=8, threshold=0.3,
                           stream_len=120, shortcut_shifted=True)
        res = analyze(periodic_extension(x, cfg), cfg)
        freqs = sorted(c.freq_hz for c in res.components)
        assert np.allclose(freqs, [f for f, _ in tones], atol=1e-6)
        assert res.diagnostics["shortcut_fallbacks"] >= 1

    def test_node_svd_failure_falls_back(self, monkeypatch):
        # A node-matrix SVD that does not converge costs the shortcut, not
        # the run: every shifted stream is read in full instead.
        x = tone_signal([(25.0, 1.0), (85.0, 0.5j)], 100.0, 200)
        base = dict(u=5, s=2, M=9, threshold=0.2, stream_len=20)
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
        # 600 on-grid unit tones make 600 confirmed peak bins: a node
        # matrix beyond svd_small's 512 cap costs the shortcut, not the run.
        rng = np.random.default_rng(3)
        n = 1997
        bins = rng.choice(n, size=600, replace=False)
        l = np.arange(2000)
        x = ComplexSignal(
            samples=(np.exp(2j * np.pi * rng.random(600))[:, None]
                     * np.exp(2j * np.pi * bins[:, None] * l / n)).sum(0),
            rate_hz=2000.0)
        base = dict(u=1, s=1, M=4, threshold=0.0)
        full = analyze(x, HybridConfig(**base))
        res = analyze(x, HybridConfig(shortcut_shifted=True, **base))
        assert len(res.diagnostics["peak_bins"]) > SVD_DIM_CAP
        assert res.diagnostics["shortcut_fallbacks"] == 3
        assert res.components == full.components
        assert len(res.components) == 600


class TestDiagnostics:
    def test_budget_and_reports_present(self):
        rate = 100.0
        x = tone_signal([(25.0, 1.0)], rate, 200)
        cfg = HybridConfig(u=5, s=2, M=9, threshold=0.2, stream_len=20)
        res = analyze(x, cfg)
        d = res.diagnostics
        assert d["stream_length"] == 20
        assert d["fine_grid_size"] == 100
        assert d["samples_used"] <= 9 * 20
        assert len(d["per_stream_samples"]) == 9
        assert [r["bin"] for r in d["bin_reports"]] == d["peak_bins"]
        # A noise-free on-grid record: the median bin holds rounding only.
        assert 0.0 <= d["noise_sigma"] < 1e-12
        assert res.resolution_hz == pytest.approx(rate / 100)

    def test_singular_values_reported_per_bin(self):
        # The rank is the count of Hankel singular values at or above both
        # the noise edge 2 * sigma_hat * (sqrt(r) + sqrt(c)) of the r x c
        # Hankel and 1e-8 of the largest.
        cfg = experiment_1_config()
        res = analyze(synthesize(experiment_1_spec(2, seed=3)), cfg)
        d = res.diagnostics
        r = (cfg.M + 1) // 2
        edge = 2.0 * d["noise_sigma"] * (math.sqrt(r)
                                         + math.sqrt(cfg.M - r + 1))
        assert d["bin_reports"]
        for report in d["bin_reports"]:
            sigma = report["singular_values"]
            assert len(sigma) == r
            cut = max(edge, 1e-8 * sigma[0])
            assert report["rank"] == sum(v >= cut for v in sigma)
        ranks = {r["bin"]: r["rank"] for r in d["bin_reports"]}
        assert ranks[4] == 3

    @pytest.mark.parametrize("signal", [0, 1, 2])
    def test_one_svd_per_confirmed_bin(self, monkeypatch, signal):
        # The order estimate's Hankel SVD also gives the pencil its
        # vectors: a collision bin of order 1, 2 or 3 takes one LAPACK SVD,
        # of its 6 x 7 Hankel (M = 12).
        real = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        x = synthesize(experiment_1_spec(signal, seed=3))
        monkeypatch.setattr(np.linalg, "svd", counted)
        res = analyze(x, experiment_1_config())
        d = res.diagnostics
        assert [r["rank"] for r in d["bin_reports"]] == [signal + 1]
        assert d["failures"] == []
        assert len(d["peak_bins"]) == 1
        assert calls == [(6, 7)]

    def test_two_stream_reports_one_singular_value(self):
        # Two streams count the order on a 1 x 2 Hankel, whose one singular
        # value is the 2-norm of the bin's two coefficients: 16 * sqrt(2)
        # for the unit tone of the README's three-tone record (fine
        # bin 250, stream bin 10 at stream length 16).
        spec = SynthSpec(tones=(ToneSpec(312.5, 1.0), ToneSpec(625.0, 0.8),
                                ToneSpec(101.25, 0.9j)),
                         rate_hz=1000.0, length=1000)
        res = analyze(synthesize(spec), HybridConfig(
            u=50, s=17, M=2, threshold=0.2, stream_len=16))
        reports = res.diagnostics["bin_reports"]
        assert len(reports) == 3
        for report in reports:
            assert report["rank"] == 1
            (sigma,) = report["singular_values"]
            assert sigma == pytest.approx(np.linalg.norm(report["sequence"]),
                                          rel=1e-12)
        (unit,) = [r for r in reports if r["bin"] == 10]
        assert unit["singular_values"][0] == pytest.approx(
            16 * math.sqrt(2), rel=1e-12)


class TestPeakDetection:
    @pytest.mark.parametrize("p", [0.1, 1e-4, 1e-9])
    @pytest.mark.parametrize("m", [1, 2, 3, 12, 28, 200])
    def test_noise_power_quantile_inverts_gamma_tail(self, m, p):
        # The mean of m unit exponentials exceeds q with probability
        # exp(-m q) * sum_{j<m} (m q)^j / j!, summed here term by term.
        x = m * noise_power_quantile(m, p)
        logs = [j * math.log(x) - math.lgamma(j + 1) - x for j in range(m)]
        top = max(logs)
        tail = math.exp(top) * sum(math.exp(v - top) for v in logs)
        assert tail == pytest.approx(p, rel=1e-9)

    def test_noise_only_record_confirms_no_peak(self):
        # Disjoint streams (M <= u) of noise alone: about one reference bin
        # in ten is a candidate, and none is confirmed on all M streams.
        rng = np.random.default_rng(7)
        x = ComplexSignal(samples=rng.standard_normal(4096)
                          + 1j * rng.standard_normal(4096), rate_hz=4096.0)
        res = analyze(x, HybridConfig(u=16, s=5, M=8, threshold=0.0))
        d = res.diagnostics
        n = d["stream_length"]
        assert 0.05 * n < d["peak_candidates"] < 0.2 * n
        assert d["peak_bins"] == [] and d["bin_reports"] == []
        assert res.components == ()

    def test_tone_in_noise_confirmed(self):
        # One tone 3 dB below the per-sample noise: its bin is the only one
        # confirmed among the candidates.
        rng = np.random.default_rng(8)
        n = max_stream_length(4096, 16, 5, 8)
        freq = 992 * 4096.0 / (16 * n)
        x = tone_signal([(freq, 1.0)], 4096.0, 4096)
        x = ComplexSignal(samples=x.samples + rng.standard_normal(4096)
                          + 1j * rng.standard_normal(4096), rate_hz=4096.0)
        res = analyze(x, HybridConfig(u=16, s=5, M=8, threshold=0.0))
        d = res.diagnostics
        assert d["peak_bins"] == [992 % n]
        assert d["peak_candidates"] > 1
        assert [c.source_bin for c in res.components] == [992 % n]

    @pytest.mark.parametrize("u, s, M", [(1, 1, 4), (3, 2, 8)])
    def test_overlapping_streams_confirm_at_design_rate(self, u, s, M):
        # With M > u, stream m + u reads stream m's samples shifted by s,
        # so only min(M, u) streams carry independent noise. Read as M
        # independent streams, noise alone confirmed about 10 (u = 1) and
        # 1.25 (u = 3) bins per record against the 0.01 design rate.
        confirmed = components = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = ComplexSignal(samples=rng.standard_normal(1000)
                              + 1j * rng.standard_normal(1000),
                              rate_hz=1000.0)
            res = analyze(x, HybridConfig(u=u, s=s, M=M, threshold=0.0))
            confirmed += len(res.diagnostics["peak_bins"])
            components += len(res.components)
        assert confirmed <= 2 and components <= 1


class TestBatchedStreams:
    def test_samples_used_and_spectra_match_per_stream_reference(
            self, monkeypatch):
        # Random geometries, plans longer than their record read over its
        # periodic extension, and forced shortcut fallbacks included.
        # samples_used must equal the distinct
        # count over the per-stream index sets, the reference spectrum must
        # equal the stream-0 DFT bit for bit, and every exact shifted
        # coefficient must be within 8 eps * ||stream||_1 of its DFT bin.
        rng = np.random.default_rng(31)
        select_peaks = pipeline.select_peaks
        build = pipeline.build_prony_sequences
        shortcut = pipeline.shifted_coeffs_shortcut
        seen, forced = {}, set()

        def capture_peaks(bins, threshold):
            seen["ref"] = bins.copy()
            return select_peaks(bins, threshold)

        def capture_coeffs(coeffs, bins):
            seen["coeffs"] = coeffs.copy()
            return build(coeffs, bins)

        def forced_fallback(x, bins, spec):
            if forced:
                raise IllConditionedVandermonde("forced fallback")
            return shortcut(x, bins, spec)

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
            extend = bool(rng.random() < 0.5)
            n_max = max_stream_length(length, u, s, M)
            if extend:
                stream_len = int(rng.integers(1, 2 * length // u + 2))
            elif n_max < 1:
                continue
            else:
                stream_len = (None if rng.random() < 0.5
                              else int(rng.integers(1, n_max + 1)))
            cfg = HybridConfig(u=u, s=s, M=M, threshold=0.2,
                               stream_len=stream_len,
                               shortcut_shifted=bool(rng.random() < 0.5))
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
            if extend:
                x = periodic_extension(x, cfg)

            res = analyze(x, cfg)
            d = res.diagnostics
            n = d["stream_length"]
            counts = d["per_stream_samples"]
            assert len(counts) == M and counts[0] == n
            index_sets = [u * np.arange(c) + m * s
                          for m, c in enumerate(counts)]
            want = np.unique(np.concatenate(index_sets)).size
            assert d["samples_used"] == want
            collided += want < sum(counts)

            streams = extract_streams(x, StreamSpec(u=u, s=s, M=M, n=n))
            direct = [np.fft.fft(st) for st in streams]
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
                bound = 8 * eps * np.abs(streams[m]).sum()
                assert np.all(np.abs(seen["coeffs"][m]
                                     - direct[m][d["peak_bins"]]) <= bound)
        assert collided > 10 and fallbacks > 10


def _outputs(res):
    """Every value of a result: repr writes each float bit for bit."""
    return repr((res.components, res.diagnostics))


def _in_new_thread(fn):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


def _on_grid_record(length, cfg, bins_amps):
    fine = cfg.u * max_stream_length(length, cfg.u, cfg.s, cfg.M)
    return tone_signal([(k * 10000.0 / fine, a) for k, a in bins_amps],
                       10000.0, length)


class TestWorkArrays:
    # analyze keeps its reference stream per thread between calls, reused
    # at the same size and replaced at another.
    @pytest.mark.parametrize("shortcut", [False, True])
    def test_later_calls_leave_earlier_results_alone(self, shortcut):
        cfg = HybridConfig(u=5, s=3, M=7, threshold=0.2,
                           shortcut_shifted=shortcut)
        a = _on_grid_record(1000, cfg, [(123, 1.0), (601, 0.5j)])
        b = _on_grid_record(1000, cfg, [(300, 0.8), (7, 1.0), (950, -1j)])
        c = _on_grid_record(600, cfg, [(40, 1.0)])

        def run():
            first = analyze(a, cfg)
            before = _outputs(first)
            kept = pipeline._work.reference
            analyze(b, cfg)
            again = analyze(a, cfg)
            assert pipeline._work.reference is kept
            analyze(c, cfg)
            assert pipeline._work.reference is not kept
            last = analyze(a, cfg)
            assert _outputs(first) == before
            assert _outputs(again) == before and _outputs(last) == before
            return first

        assert len(_in_new_thread(run).components) == 2

    @pytest.mark.parametrize("shortcut", [False, True])
    def test_only_the_reference_is_kept(self, shortcut):
        # samples_used comes from the plan: no read mask outlives the call.
        cfg = HybridConfig(u=16, s=5, M=8, resolver="bezout",
                           shortcut_shifted=shortcut)
        x = _on_grid_record(2 ** 20, cfg, [(9001, 1.0)])

        def run():
            res = analyze(x, cfg)
            return res, dict(vars(pipeline._work))

        res, kept = _in_new_thread(run)
        assert list(kept) == ["reference"]
        assert kept["reference"].shape == (res.diagnostics["stream_length"],)

    def test_threads_match_serial_results(self):
        # Same-size records on the full path and on the shortcut, one
        # thread each, more threads than cores and a short switch interval:
        # each thread must keep to its own reference stream. The 2^19-sample
        # record gathers above PARALLEL_MIN_SAMPLES, on a helper thread of
        # its own.
        full = HybridConfig(u=16, s=5, M=8, resolver="bezout")
        short = replace(full, shortcut_shifted=True)
        records = [
            _on_grid_record(2 ** 18, full, [(3001, 1.0), (40007, 0.6j)]),
            _on_grid_record(2 ** 18, full, [(777, 0.9), (12000, -0.5)]),
            _on_grid_record(2 ** 19, full, [(5003, 0.8j), (90001, 1.0)])]
        assert full.M * plan(full, 2 ** 19).n >= core.PARALLEL_MIN_SAMPLES
        jobs = [(x, cfg) for x in records for cfg in (full, short)]
        serial = [analyze(x, cfg) for x, cfg in jobs]
        assert all(r.diagnostics["shortcut_fallbacks"] == 0 for r in serial)
        start = threading.Barrier(len(jobs), timeout=60)

        def loop(job):
            x, cfg = job
            start.wait()
            return [_outputs(analyze(x, cfg)) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                runs = list(pool.map(loop, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for outputs, expected in zip(runs, serial):
            assert outputs == [_outputs(expected)] * 5

    def test_smaller_runs_after_a_long_record(self):
        # A plan read over a record's periodic extension, past twice its
        # period, and a shortcut that falls back because it has more peaks
        # than the node-matrix cap, after a 2^20-sample record in the same
        # thread.
        long_cfg = HybridConfig(u=16, s=5, M=8, resolver="bezout",
                                shortcut_shifted=True)
        long_x = _on_grid_record(2 ** 20, long_cfg, [(9001, 1.0)])
        ext_cfg = HybridConfig(u=50, s=17, M=12, threshold=0.2, stream_len=40)
        ext_x = periodic_extension(
            tone_signal([(312.5, 1.0), (625.0, 0.8), (101.25, 0.9j)],
                        1000.0, 1000), ext_cfg)
        rng = np.random.default_rng(3)
        bins = rng.choice(1997, size=600, replace=False)
        cap_x = ComplexSignal(
            samples=(np.exp(2j * np.pi * rng.random(600))[:, None]
                     * np.exp(2j * np.pi * bins[:, None]
                              * np.arange(2000) / 1997)).sum(0),
            rate_hz=2000.0)
        cap_cfg = HybridConfig(u=1, s=1, M=4, threshold=0.0,
                               shortcut_shifted=True)

        def smaller():
            return [analyze(ext_x, ext_cfg), analyze(cap_x, cap_cfg)]

        def after_long():
            assert len(analyze(long_x, long_cfg).components) == 1
            return smaller()

        expected = _in_new_thread(smaller)
        results = _in_new_thread(after_long)
        assert [_outputs(r) for r in results] == [_outputs(r)
                                                  for r in expected]
        extended, capped = results
        # 12 x 40 distinct positions of the extension, 240 of the record.
        assert extended.diagnostics["samples_used"] == 480
        assert len(extended.components) == 6
        assert capped.diagnostics["shortcut_fallbacks"] == 3
        assert len(capped.components) == 600


def _spans_patches():
    """``PATCHES`` of perfbench/spans.py: the attributes its tracer wraps."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


class TestHelperThread:
    # Above PARALLEL_MIN_SAMPLES, detect gathers the streams on a helper
    # thread while the caller transforms stream 0. The helper may not
    # change a bit or outlive the call.
    FULL = HybridConfig(u=16, s=5, M=8, resolver="bezout")

    def _at_both_gates(self, monkeypatch, x, cfg):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        outputs = []
        for gate in (0, math.inf):
            monkeypatch.setattr(core, "PARALLEL_MIN_SAMPLES", gate)
            outputs.append(_outputs(analyze(x, cfg)))
        return outputs

    def test_full_record_identical_split_and_inline(self, monkeypatch):
        x = _on_grid_record(2 ** 20, self.FULL,
                            [(4099, 1.0), (30011, 0.7j), (61001, -0.9)])
        split, inline = self._at_both_gates(monkeypatch, x, self.FULL)
        assert split == inline
        assert "source_bin=4099" in split

    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["shortcut", "fallback"])
    def test_shortcut_starts_no_thread(self, monkeypatch, fallback):
        # The shortcut gathers nothing up front, and its fallback gathers
        # inline after the FFT: no helper, whatever the gate. The full path
        # on the same record, with the same gate, starts one.
        def no_convergence(a):
            raise NoConvergence("forced")

        if fallback:
            monkeypatch.setattr(pipeline, "svd_small", no_convergence)
        monkeypatch.setattr(core, "PARALLEL_MIN_SAMPLES", 0)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        cfg = replace(self.FULL, shortcut_shifted=True)
        x = _on_grid_record(2 ** 12, cfg, [(13, 1.0), (101, 0.6j)])
        res = analyze(x, cfg)
        assert started == []
        assert res.diagnostics["shortcut_fallbacks"] == 7 * fallback
        assert {c.source_bin for c in res.components} == {13, 101}
        analyze(x, self.FULL)
        assert len(started) == 1

    def test_failures_join_the_helper(self, monkeypatch):
        # The helper raising, and the caller raising while a slowed helper
        # has yet to copy the streams: analyze raises that error, no thread
        # is left, and the thread's next call gives the same bits as
        # before. The helper writes only the rows its call allocated, but
        # it is joined all the same, so no thread outlives the call.
        x = _on_grid_record(2 ** 19, self.FULL, [(5003, 1.0), (90001, 0.6j)])
        big = ComplexSignal(samples=1.7e308 * np.exp(
            2j * np.pi * 0.3125 * np.arange(2 ** 19)), rate_hz=10000.0)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        run_aside = pipeline.run_aside

        def failing(fn, samples):
            def gather_then_fail():
                fn()
                raise MemoryError("forced")
            return run_aside(gather_then_fail, samples)

        def slow(fn, samples):
            def wait_then_gather():
                time.sleep(0.2)
                fn()
            return run_aside(wait_then_gather, samples)

        def run():
            baseline = threading.active_count()
            expected = _outputs(analyze(x, self.FULL))
            assert threading.active_count() == baseline
            with monkeypatch.context() as m:
                m.setattr(pipeline, "run_aside", failing)
                with pytest.raises(MemoryError, match="forced"):
                    analyze(x, self.FULL)
            assert threading.active_count() == baseline
            assert _outputs(analyze(x, self.FULL)) == expected
            with monkeypatch.context() as m, \
                    np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteSamples):
                m.setattr(pipeline, "run_aside", slow)
                analyze(big, self.FULL)
            assert threading.active_count() == baseline
            assert _outputs(analyze(x, self.FULL)) == expected
            assert threading.active_count() == baseline

        _in_new_thread(run)

    def test_overflow_stays_quiet_on_the_helper(self, monkeypatch):
        # numpy keeps its error state in a context variable, which a new
        # thread does not inherit: run_aside runs its helper in a copy of
        # the caller's context, so an overflow there warns no more than it
        # would here (a warning is an error under these tests' filter, and
        # join raises what the helper raised).
        monkeypatch.setattr(core, "PARALLEL_MIN_SAMPLES", 0)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        big, out, ran_on = np.full(4, 1.7e308), np.empty(4), []

        def overflow():
            ran_on.append(threading.get_ident())
            np.multiply(big, 10.0, out=out)

        with np.errstate(over="ignore"):
            join = core.run_aside(overflow, 4)
            join()
        assert ran_on != [threading.get_ident()]
        assert np.isinf(out).all()

    @pytest.mark.parametrize("cfg", [
        FULL, replace(FULL, shortcut_shifted=True)],
        ids=["full", "fallback"])
    def test_traced_attributes_run_on_the_calling_thread(self, monkeypatch,
                                                         cfg):
        # perfbench's tracer keeps one span stack for the process: every
        # function it wraps must run on analyze's own thread, even with
        # every helper split off (a gate of 0). The shortcut falls back.
        monkeypatch.setattr(core, "PARALLEL_MIN_SAMPLES", 0)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        calls = []
        for module_name, attr, _, _ in _spans_patches():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def recorded(*args, _fn=original, _name=attr, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, recorded)

        def no_convergence(a):
            calls.append(("svd_small", threading.get_ident()))
            raise NoConvergence("forced")

        if cfg.shortcut_shifted:
            monkeypatch.setattr(pipeline, "svd_small", no_convergence)
        fine = cfg.u * plan(cfg, 4800).n
        x = tone_signal([(k * 10000.0 / fine, a) for k, a in
                         ((41, 1.0), (300, 0.5j))], 10000.0, 4800)
        res = pipeline.analyze(x, cfg)
        assert len(res.components) == 2
        assert {"analyze", "select_peaks", "estimate_order"} <= {
            name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}


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
            # Half the geometries that fit no stream are run too: analyze
            # rejects them with IndexBudgetExceeded.
            run_unfit = bool(rng.random() < 0.5)
            if not run_unfit and max_stream_length(length, u, s, M) < 1:
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
            cfg = HybridConfig(u=u, s=s, M=M,
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


# Run in a fresh interpreter: analyze on-grid records of three tones and
# print, for each, the shortcut fallbacks, the component count and the node
# condition when the shortcut was taken, then the components bit for bit.
_RECORDS_SCRIPT = """
from sparsespec import HybridConfig, analyze, max_stream_length, pipeline
from sparsespec.lab import SynthSpec, ToneSpec, synthesize

def run(records):
    for length, cfg in records:
        fine = cfg.u * max_stream_length(length, cfg.u, cfg.s, cfg.M)
        tones = tuple(ToneSpec(mu_hz=k * 10000.0 / fine, amplitude=a)
                      for k, a in ((fine // 9, 1.0), (fine // 3 + 7, 0.7j),
                                   (fine - 5, -0.9 + 0.2j)))
        x = synthesize(SynthSpec(tones=tones, rate_hz=10000.0,
                                 length=length))
        res = analyze(x, cfg)
        d = res.diagnostics
        print(d["shortcut_fallbacks"], len(res.components),
              *(c.hex() for c in d["shortcut_conditions"][:1]))
        for c in res.components:
            print(c.freq_hz.hex(), c.amplitude.real.hex(),
                  c.amplitude.imag.hex(), c.residual.hex())
"""

# A 2^16-sample shortcut record whose shifted streams all fall back to the
# full path's peak-bin DFT, and a 2^20-sample record read in eight full
# streams.
_THREAD_SCRIPT = _RECORDS_SCRIPT + """
from sparsespec import NoConvergence

def no_convergence(a):
    raise NoConvergence("forced")

pipeline.svd_small = no_convergence
run([(2 ** 16, HybridConfig(u=8, s=3, M=8, resolver="bezout",
                            shortcut_shifted=True)),
     (2 ** 20, HybridConfig(u=16, s=5, M=8, resolver="bezout"))])
"""

# The same geometries with the shortcut taken: each record's shifted
# streams come from one K x K node-matrix solve.
_SHORTCUT_THREAD_SCRIPT = _RECORDS_SCRIPT + """
run([(2 ** 16, HybridConfig(u=8, s=3, M=8, resolver="bezout",
                            shortcut_shifted=True)),
     (2 ** 20, HybridConfig(u=16, s=5, M=8, resolver="bezout",
                            shortcut_shifted=True))])
"""


# Run in a fresh interpreter: dft_at on column-major rows, as analyze
# gathers them, at sizes well past one DFT_BLOCK block and with a tail.
# Prints every coefficient bit for bit.
_DFT_THREAD_SCRIPT = """
import math
import numpy as np
from sparsespec import dft_at

rng = np.random.default_rng(5)
for n in (65537, 90000, 1000003):
    for rows in (1, 7):
        x = rng.standard_normal((n, rows, 2)).view(np.complex128)[..., 0].T
        for k in (1, 4, int(math.log2(n))):
            for v in dft_at(x, rng.choice(n, size=k, replace=False)).flat:
                print(v.real.hex(), v.imag.hex())
"""


# Run in a fresh interpreter, on every CPU or pinned to one: analyze the
# first long_full record of seed 1 and print its components bit for bit.
# Pinned, analyze keeps its work on the calling thread unless told that it
# has two CPUs ("split").
_PINNED_SCRIPT = """
import os, sys
sys.path.insert(0, sys.argv[2])
import workloads
from sparsespec import analyze, core, synthesize

if sys.argv[1] != "free":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
if sys.argv[1] == "split":
    core._usable_cpus = lambda: 2
print(len(os.sched_getaffinity(0)) == 1)
res = analyze(synthesize(workloads.specs("long_full", 1, 1)[0]),
              workloads.config("long_full"))
for c in res.components:
    print(c.freq_hz.hex(), c.amplitude.real.hex(),
          c.amplitude.imag.hex(), c.residual.hex())
"""


def _outputs_at_one_and_two_blas_threads(script):
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


class TestThreadIndependence:
    # The peak-bin DFT is BLAS products by design. OpenBLAS splits a sum
    # longer than its K-block (above 128 complex terms with its Haswell
    # kernels) into pieces that depend on the thread count, so no product
    # in dft_at sums over more than DFT_BLOCK samples, and the output must
    # not depend on the count.
    def test_components_identical_at_one_and_two_blas_threads(self):
        outputs = _outputs_at_one_and_two_blas_threads(_THREAD_SCRIPT)
        lines = outputs[0].splitlines()
        assert lines[0] == "7 3" and "0 3" in lines
        assert outputs[0] == outputs[1]

    def test_shortcut_identical_at_one_and_two_blas_threads(self):
        outputs = _outputs_at_one_and_two_blas_threads(
            _SHORTCUT_THREAD_SCRIPT)
        heads = [ln.split() for ln in outputs[0].splitlines()
                 if not ln.startswith("0x")]
        assert [(h[:2], len(h)) for h in heads] == [(["0", "3"], 3)] * 2
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_long_full_identical_on_one_cpu(self):
        # On one CPU analyze runs inline, or with its helper thread taking
        # turns with the caller when made to split; on all of them, split.
        # The bits must not depend on which, nor on how threads interleave.
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        bench = os.path.join(os.path.dirname(src), "perfbench")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        outputs = []
        for mode in ("pinned", "split", "free"):
            proc = subprocess.run(
                [sys.executable, "-c", _PINNED_SCRIPT, mode, bench],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.splitlines())
        pinned, split, free = outputs
        assert pinned[0] == split[0] == "True" and len(pinned) == 5
        assert pinned[1:] == split[1:] == free[1:]

    def test_peak_bin_dft_identical_at_one_and_two_blas_threads(self):
        outputs = _outputs_at_one_and_two_blas_threads(_DFT_THREAD_SCRIPT)
        assert len(outputs[0].splitlines()) == sum(
            rows * k for n in (65537, 90000, 1000003) for rows in (1, 7)
            for k in (1, 4, int(math.log2(n))))
        assert outputs[0] == outputs[1]
