"""CSV and raw binary signal formats, config and spec files."""
import numpy as np
import pytest

from sparsespec import ComplexSignal, HybridConfig, SynthSpec, ToneSpec
from sparsespec.fileio import (
    FileFormatError,
    read_components_csv,
    read_config,
    read_signal_csv,
    read_signal_raw64,
    read_synth_spec,
    write_components_csv,
    write_config,
    write_signal_csv,
    write_signal_raw64,
    write_spectrum_csv,
    write_synth_spec,
)


def sample_signal():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    return ComplexSignal(samples=vals, rate_hz=64.0)


class TestSignalFiles:
    def test_csv_round_trip(self, tmp_path):
        x = sample_signal()
        path = tmp_path / "sig.csv"
        write_signal_csv(path, x)
        back = read_signal_csv(path, rate_hz=64.0)
        assert np.allclose(back.samples, x.samples, atol=1e-12)
        assert back.rate_hz == pytest.approx(64.0)
        assert path.read_text().splitlines()[0] == "re,im"

    def test_raw64_round_trip(self, tmp_path):
        x = sample_signal()
        path = tmp_path / "sig.raw64"
        write_signal_raw64(path, x)
        back = read_signal_raw64(path, rate_hz=64.0)
        assert np.array_equal(back.samples, x.samples)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("re,im\n1.0\n")
        with pytest.raises(FileFormatError):
            read_signal_csv(path, rate_hz=10.0)

    def test_non_numeric_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("re,im\nfoo,bar\n")
        with pytest.raises(FileFormatError):
            read_signal_csv(path, rate_hz=10.0)

    def test_truncated_raw64_rejected(self, tmp_path):
        path = tmp_path / "bad.raw64"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(FileFormatError):
            read_signal_raw64(path, rate_hz=10.0)


class TestSpectrumFiles:
    def test_spectrum_header(self, tmp_path):
        from sparsespec import dft
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, dft(sample_signal()))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_index,freq_hz,re,im,magnitude"
        assert len(lines) == 33

    def test_components_round_trip(self, tmp_path):
        from sparsespec import HybridConfig, analyze
        x = ComplexSignal(
            samples=np.exp(2j * np.pi * 5 * np.arange(33) / 32),
            rate_hz=32.0)
        res = analyze(x, HybridConfig(u=1, s=1, M=2, threshold=0.3,
                                      stream_len=32))
        path = tmp_path / "comps.csv"
        write_components_csv(path, res)
        back = read_components_csv(path)
        assert len(back) == len(res.components)
        for a, b in zip(back, res.components):
            assert a.freq_hz == pytest.approx(b.freq_hz)
            assert a.amplitude == pytest.approx(b.amplitude)
            assert a.source_bin == b.source_bin
            assert a.collision_order == b.collision_order


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = HybridConfig(u=50, s=17, M=12, threshold=0.2, resolver="bezout",
                           sigma_rel_tol=0.05, extra_terms=0,
                           wrap=True, shortcut_shifted=True, stream_len=16)
        path = tmp_path / "cfg.txt"
        write_config(path, cfg)
        back = read_config(path)
        assert back == cfg

    def test_minimal_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("u = 5\ns = 3\nM = 8\n")
        cfg = read_config(path)
        assert (cfg.u, cfg.s, cfg.M) == (5, 3, 8)
        assert cfg.resolver == "match"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        # Removed fields are unknown keys too.
        for line in ("bogus = 1", "M_rows = 3", "delta = 0.2",
                     "merge_tol_hz = none", "match_tol_hz = none",
                     "ambiguity_factor = 2.0"):
            path.write_text(f"u = 5\ns = 3\nM = 8\n{line}\n")
            with pytest.raises(FileFormatError):
                read_config(path)

    def test_missing_required_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("u = 5\ns = 3\n")
        with pytest.raises(FileFormatError):
            read_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("u = five\ns = 3\nM = 8\n")
        with pytest.raises(FileFormatError):
            read_config(path)


class TestSynthSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = SynthSpec(
            tones=(ToneSpec(mu_hz=125.0, amplitude=1.0 + 0j),
                   ToneSpec(mu_hz=165.0, amplitude=0.5 + 0.86j)),
            rate_hz=1000.0, length=1000, snr_db=30.0, seed=7)
        path = tmp_path / "spec.txt"
        write_synth_spec(path, spec)
        back = read_synth_spec(path)
        assert back == spec

    def test_noise_free_round_trip(self, tmp_path):
        spec = SynthSpec(tones=(ToneSpec(mu_hz=10.0, amplitude=1j),),
                         rate_hz=100.0, length=64, snr_db=None, seed=0)
        path = tmp_path / "spec.txt"
        write_synth_spec(path, spec)
        assert read_synth_spec(path) == spec

    def test_bad_tone_rejected(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("rate_hz = 100.0\nlength = 64\nseed = 0\n"
                        "tone = 10.0,1.0\n")
        with pytest.raises(FileFormatError):
            read_synth_spec(path)
