"""Synthesis, noise calibration, evaluation, experiment runners."""
import math
from dataclasses import replace

import numpy as np
import pytest

from sparsespec import (
    SynthSpec,
    ToneSpec,
    analyze,
    dense_reference,
    evaluate,
    experiment_1_config,
    experiment_1_spec,
    run_experiment_1,
    run_experiment_2,
    run_selftest,
    synthesize,
)
from sparsespec import lab


class TestSynthesize:
    def test_empty_tone_list_is_silence(self):
        spec = SynthSpec(tones=(), rate_hz=100.0, length=64, snr_db=None,
                         seed=0)
        x = synthesize(spec)
        assert np.array_equal(x.samples, np.zeros(64))

    def test_single_tone_values(self):
        spec = SynthSpec(tones=(ToneSpec(mu_hz=5.0, amplitude=2j),),
                         rate_hz=100.0, length=16, snr_db=None, seed=0)
        x = synthesize(spec)
        expected = 2j * np.exp(2j * np.pi * 5.0 * np.arange(16) / 100.0)
        assert np.allclose(x.samples, expected, atol=1e-12)

    def test_on_grid_support_matches_dense(self):
        spec = SynthSpec(tones=(ToneSpec(mu_hz=125.0, amplitude=1.0 + 0j),
                                ToneSpec(mu_hz=165.0, amplitude=0.5j)),
                         rate_hz=1000.0, length=1000, snr_db=None, seed=0)
        dense = dense_reference(synthesize(spec), 0.2)
        assert sorted(c.freq_hz for c in dense.components) == [125.0, 165.0]

    def test_same_seed_is_bit_identical(self):
        spec = experiment_1_spec(2, seed=11)
        a = synthesize(spec)
        b = synthesize(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        a = synthesize(experiment_1_spec(2, seed=1))
        b = synthesize(experiment_1_spec(2, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_snr_calibration(self):
        # 500-trial average of the measured SNR must sit within 0.2 dB of
        # the request.
        clean = synthesize(SynthSpec(
            tones=(ToneSpec(mu_hz=30.0, amplitude=1.0 + 0j),
                   ToneSpec(mu_hz=70.0, amplitude=0.6 - 0.3j)),
            rate_hz=200.0, length=500, snr_db=None, seed=0))
        sig_power = np.mean(np.abs(clean.samples) ** 2)
        ratios = []
        for seed in range(500):
            noisy = synthesize(SynthSpec(
                tones=(ToneSpec(mu_hz=30.0, amplitude=1.0 + 0j),
                       ToneSpec(mu_hz=70.0, amplitude=0.6 - 0.3j)),
                rate_hz=200.0, length=500, snr_db=20.0, seed=seed))
            noise = noisy.samples - clean.samples
            ratios.append(sig_power / np.mean(np.abs(noise) ** 2))
        measured_db = 10 * math.log10(np.mean(ratios))
        assert abs(measured_db - 20.0) <= 0.2


class TestEvaluate:
    def run_case(self, tones, cfg_threshold=0.2):
        spec = SynthSpec(tones=tones, rate_hz=1000.0, length=1000,
                         snr_db=None, seed=0)
        x = synthesize(spec)
        return spec, dense_reference(x, cfg_threshold)

    def test_perfect_recovery(self):
        spec, dense = self.run_case(
            (ToneSpec(mu_hz=125.0, amplitude=1.0 + 0j),
             ToneSpec(mu_hz=165.0, amplitude=0.5j)))
        report = evaluate(spec, dense, tol_hz=0.5)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert not report.missed and not report.spurious

    def test_one_spurious_gives_three_quarters_precision(self):
        spec, dense = self.run_case(
            (ToneSpec(mu_hz=125.0, amplitude=1.0 + 0j),
             ToneSpec(mu_hz=165.0, amplitude=1.0 + 0j),
             ToneSpec(mu_hz=245.0, amplitude=1.0 + 0j),
             ToneSpec(mu_hz=400.0, amplitude=1.0 + 0j)))
        truth = SynthSpec(tones=spec.tones[:3], rate_hz=1000.0, length=1000,
                          snr_db=None, seed=0)
        report = evaluate(truth, dense, tol_hz=0.5)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == 1.0
        assert len(report.spurious) == 1

    def test_missed_tone_lowers_recall(self):
        spec, dense = self.run_case(
            (ToneSpec(mu_hz=125.0, amplitude=1.0 + 0j),))
        truth = SynthSpec(
            tones=spec.tones + (ToneSpec(mu_hz=333.0, amplitude=1.0 + 0j),),
            rate_hz=1000.0, length=1000, snr_db=None, seed=0)
        report = evaluate(truth, dense, tol_hz=0.5)
        assert report.recall == pytest.approx(0.5)
        assert len(report.missed) == 1

    def test_empty_result_against_empty_truth(self):
        truth = SynthSpec(tones=(), rate_hz=100.0, length=64, snr_db=None,
                          seed=0)
        dense = dense_reference(synthesize(truth), 0.5)
        report = evaluate(truth, dense, tol_hz=0.5)
        assert report.precision == 1.0
        assert report.recall == 1.0


class TestSelftest:
    def test_oracle_equivalence(self):
        out = run_selftest(trials=200, seed=0)
        assert out["trials"] == 200
        assert out["failures"] == []
        assert out["passed"] == 200

    def test_moved_frequency_is_a_failure(self, monkeypatch):
        # Every trial's strongest hybrid component moved by 1e-3 Hz, far
        # past the 1e-6 Hz agreement the oracle asks for.
        def shifted(x, cfg):
            result = analyze(x, cfg)
            first, *rest = result.components
            moved = replace(first, freq_hz=first.freq_hz + 1e-3)
            return replace(result, components=(moved, *rest))

        monkeypatch.setattr(lab, "analyze", shifted)
        out = run_selftest(trials=5, seed=0)
        assert out["passed"] == 0
        assert len(out["failures"]) == 5
        assert all(f["reason"] == "support" for f in out["failures"])


class TestExperimentRunners:
    def test_experiment_1_layout_and_recovery(self, tmp_path):
        results = run_experiment_1(tmp_path, seed=0)
        for k in range(1, 4):
            run_dir = tmp_path / f"signal{k}"
            for name in ("config.txt", "spectrum.csv", "streams.csv",
                         "eval.csv", "prony_4.csv"):
                assert (run_dir / name).exists(), f"{name} for signal {k}"
            entry = results[f"signal{k}"]
            assert entry["eval"].recall == 1.0
            orders = {c.collision_order
                      for c in entry["hybrid"].components
                      if c.source_bin == 4}
            assert orders == {k}
        manifest = (tmp_path / "signal3" / "config.txt").read_text()
        assert "samples_used = 192" in manifest

    def test_experiment_1_sigma_column_is_analyze_singular_values(
            self, tmp_path):
        results = run_experiment_1(tmp_path, seed=0)
        for k in range(1, 4):
            (report,) = [r for r in
                         results[f"signal{k}"]["hybrid"].diagnostics[
                             "bin_reports"] if r["bin"] == 4]
            lines = (tmp_path / f"signal{k}" / "prony_4.csv") \
                .read_text().splitlines()
            assert lines[0] == "index,p_re,p_im,p_abs,sigma"
            sigma = [ln.split(",")[4] for ln in lines[1:]]
            assert len(sigma) == 12
            filled = [float(v) for v in sigma if v]
            assert filled == report["singular_values"]
            assert sigma[len(filled):] == [""] * (12 - len(filled))

    def test_experiment_1_p_columns_are_analyze_sequence(self, tmp_path):
        # The fitted sequence, not a second FFT of the streams.
        results = run_experiment_1(tmp_path, seed=0)
        for k in range(1, 4):
            for report in results[f"signal{k}"]["hybrid"].diagnostics[
                    "bin_reports"]:
                lines = (tmp_path / f"signal{k}"
                         / f"prony_{report['bin']}.csv").read_text() \
                    .splitlines()[1:]
                assert [[float(v) for v in ln.split(",")[1:4]]
                        for ln in lines] == [[p.real, p.imag, abs(p)]
                                             for p in report["sequence"]]
                assert len(report["sequence"]) == 12

    def test_experiment_1_config_is_pinned(self):
        cfg = experiment_1_config()
        assert (cfg.u, cfg.s, cfg.M) == (50, 17, 12)
        assert cfg.stream_len == 16

    def test_experiment_2_noise_free_smoke(self, tmp_path):
        out = run_experiment_2(M=28, snr_db=None, out_dir=tmp_path, seed=0)
        for name in ("config.txt", "spectrum.csv", "eval.csv", "zoom.csv"):
            assert (tmp_path / name).exists()
        manifest = (tmp_path / "config.txt").read_text()
        assert "reference_sample_count = 12824" in manifest
        assert out["eval"].recall == 1.0

    def test_experiment_2_rejects_unknown_m(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment_2(M=9, snr_db=None, out_dir=tmp_path)
