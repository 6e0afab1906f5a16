"""CSV and raw binary signal formats, config and spec files."""
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sparsespec import ComplexSignal, HybridConfig, NonFiniteSamples, \
    NotCoprime, RecoveredComponent, SparseSpectrum, SynthSpec, ToneSpec
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


def extreme_signal():
    """sample_signal() followed by every (re, im) pair of signed zeros, the
    smallest subnormals and the largest finite floats."""
    extremes = [-0.0, 0.0, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308]
    re, im = np.meshgrid(extremes, extremes)
    vals = np.concatenate([sample_signal().samples, np.zeros(re.size)])
    vals.real[32:] = re.ravel()
    vals.imag[32:] = im.ravel()
    return ComplexSignal(samples=vals, rate_hz=64.0)


class TestSignalFiles:
    def test_csv_round_trip(self, tmp_path):
        x = extreme_signal()
        path = tmp_path / "sig.csv"
        write_signal_csv(path, x)
        back = read_signal_csv(path, rate_hz=64.0)
        assert np.allclose(back.samples, x.samples, atol=1e-12)
        assert back.samples.tobytes() == x.samples.tobytes()
        assert back.rate_hz == pytest.approx(64.0)
        assert path.read_text().splitlines()[0] == "re,im"

    def test_raw64_round_trip(self, tmp_path):
        x = extreme_signal()
        path = tmp_path / "sig.raw64"
        write_signal_raw64(path, x)
        back = read_signal_raw64(path, rate_hz=64.0)
        assert np.array_equal(back.samples, x.samples)
        assert back.samples.tobytes() == x.samples.tobytes()
        assert back.samples.flags.writeable

    def test_raw64_infinite_imaginary_part_rejected(self, tmp_path):
        path = tmp_path / "inf.raw64"
        path.write_bytes(np.array([1.0, 2.0, 3.0, np.inf], "<f8").tobytes())
        with pytest.raises(NonFiniteSamples):
            read_signal_raw64(path, rate_hz=10.0)

    @pytest.mark.parametrize("text", ["re,im\n1,2\n   \n\t\n3,4\n",
                                      "re,im\r\n1,2\r\n3,4\r\n",
                                      "re,im\n1,2\x0c3,4\u2028"],
                             ids=["blank_lines", "crlf", "splitlines_breaks"])
    def test_csv_line_forms_accepted(self, tmp_path, text):
        path = tmp_path / "sig.csv"
        path.write_bytes(text.encode())
        back = read_signal_csv(path, rate_hz=10.0)
        assert back.samples.tolist() == [1 + 2j, 3 + 4j]

    def test_header_only_csv_rejected(self, tmp_path):
        # Rejected before parsing; np.loadtxt would warn on empty input,
        # which the suite turns into an error.
        path = tmp_path / "empty.csv"
        path.write_text("re,im\n\n")
        with pytest.raises(FileFormatError, match="no samples"):
            read_signal_csv(path, rate_hz=10.0)

    @pytest.mark.parametrize("rows", ["1,2,3", "1,2\n3,4,5", "#1,2", "1_0,2"],
                             ids=["three_cells", "ragged", "comment",
                                  "underscore"])
    def test_bad_csv_row_rejected(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text(f"re,im\n{rows}\n")
        with pytest.raises(FileFormatError):
            read_signal_csv(path, rate_hz=10.0)

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

    @pytest.mark.parametrize("text,line", [
        ("re,im\n\n1,2\nfoo,3\n", 4),
        ("re,im\n1,2\n3\n", 3),
        ("re,im\r\n1,2\r\n   \r\n" + "5,6\r\n" * 40 + "7,8,9\r\n", 44),
    ], ids=["bad_cell", "short_row", "wide_row"])
    def test_csv_error_names_file_line(self, tmp_path, text, line):
        # Header and blank lines count; numpy's own row count does not.
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FileFormatError, match=f"bad.csv: line {line}: "):
            read_signal_csv(path, rate_hz=10.0)

    def test_truncated_raw64_rejected(self, tmp_path):
        path = tmp_path / "bad.raw64"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(FileFormatError):
            read_signal_raw64(path, rate_hz=10.0)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return ComplexSignal(
        samples=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rate_hz=64.0)


class TestBoundedPass:
    """Signal CSVs are read and written without holding the file's text."""

    def test_memory_bounded_by_sample_bytes(self, tmp_path):
        # 2^18 + 5 rows: whole write chunks and a partial last one.
        x = random_signal(2 ** 18 + 5, seed=3)
        x.samples[-36:] = extreme_signal().samples[-36:]
        path = tmp_path / "sig.csv"
        _, peak = traced_peak(write_signal_csv, path, x)
        assert peak <= x.samples.nbytes
        # The one-pass formatter the chunked writer replaced.
        whole = "\n".join(["re,im", *map("{!r},{!r}".format,
                                         x.samples.real.tolist(),
                                         x.samples.imag.tolist())]) + "\n"
        assert path.read_bytes() == whole.encode()
        back, peak = traced_peak(read_signal_csv, path, 64.0)
        assert peak <= 2 * x.samples.nbytes
        assert back.samples.tobytes() == x.samples.tobytes()

    @pytest.mark.parametrize("row,error,match", [
        (b"\xff,3", FileFormatError, "not UTF-8 text"),
        (b"nan,3", NonFiniteSamples, None),
        (b"foo,3", FileFormatError, "line 55002: "),
    ], ids=["non_utf8", "nan", "bad_cell"])
    def test_errors_past_first_loadtxt_chunk(self, tmp_path, row, error,
                                              match):
        # np.loadtxt reads its input 50,000 rows at a time.
        rows = [b"1,2"] * 60000
        rows[55000] = row
        path = tmp_path / "sig.csv"
        path.write_bytes(b"\n".join([b"re,im", *rows]) + b"\n")
        with pytest.raises(error, match=match):
            read_signal_csv(path, rate_hz=10.0)


@pytest.mark.parametrize("reader", [
    lambda p: read_signal_csv(p, rate_hz=10.0), read_components_csv,
    read_config, read_synth_spec], ids=["signal", "components", "config",
                                        "synth_spec"])
def test_non_utf8_file_rejected(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"re,im\n1,2\n\xff,3\n")
    with pytest.raises(FileFormatError, match="latin1.txt: not UTF-8"):
        reader(path)


class TestSpectrumFiles:
    def test_spectrum_header(self, tmp_path):
        from sparsespec import dft
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, dft(sample_signal()), 2.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_index,freq_hz,re,im,magnitude"
        assert len(lines) == 33
        assert lines[4].startswith("3,6.0,")

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
                     "ambiguity_factor = 2.0", "sigma_rel_tol = 0.05",
                     "extra_terms = 0"):
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

    @pytest.mark.parametrize("geometry, message", [
        ("u = 0\ns = 3\nM = 8", "u and s must be positive integers"),
        ("u = 5\ns = 3\nM = 1", "at least 2 streams are required")],
        ids=["u=0", "M=1"])
    def test_invalid_value_names_file(self, tmp_path, geometry, message):
        path = tmp_path / "cfg.txt"
        path.write_text(geometry + "\n")
        with pytest.raises(FileFormatError, match=f"cfg.txt: {message}"):
            read_config(path)

    def test_not_coprime_raised_as_is(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("u = 6\ns = 3\nM = 8\n")
        with pytest.raises(NotCoprime):
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

    @pytest.mark.parametrize("fields, message", [
        ("rate_hz = 0\nlength = 64", "rate_hz must be positive"),
        ("rate_hz = 100.0\nlength = 0", "length must be at least 1"),
        ("rate_hz = 100.0\nlength = 64\ntone = inf,1.0,0.0",
         "bad value for tone")], ids=["rate_hz=0", "length=0", "tone=inf"])
    def test_invalid_value_names_file(self, tmp_path, fields, message):
        path = tmp_path / "spec.txt"
        path.write_text(fields + "\n")
        with pytest.raises(FileFormatError, match=f"spec.txt: {message}"):
            read_synth_spec(path)


class TestOutputBytes:
    """Exact text of the shared cell formatter: floats by repr, ints in
    decimal, None as none, booleans as true/false."""

    def test_config_text(self, tmp_path):
        cfg = HybridConfig(u=5, s=3, M=9, threshold=1, wrap=True)
        path = tmp_path / "cfg.txt"
        write_config(path, cfg)
        assert path.read_text() == (
            "u = 5\ns = 3\nM = 9\nthreshold = 1.0\nresolver = match\n"
            "wrap = true\nshortcut_shifted = false\nstream_len = none\n")

    def test_synth_spec_text(self, tmp_path):
        spec = SynthSpec(tones=(ToneSpec(mu_hz=12.5,
                                         amplitude=complex(1.0, -0.0)),),
                         rate_hz=100, length=64, seed=4)
        path = tmp_path / "spec.txt"
        write_synth_spec(path, spec)
        assert path.read_text() == (
            "rate_hz = 100.0\nlength = 64\nsnr_db = none\nseed = 4\n"
            "tone = 12.5,1.0,-0.0\n")

    def test_components_row_text(self, tmp_path):
        comp = RecoveredComponent(freq_hz=125.0, amplitude=0.5 - 0.25j,
                                  source_bin=4, collision_order=2,
                                  match_distance_hz=0.0, residual=1e-17)
        result = SparseSpectrum(components=(comp,), config=None,
                                rate_hz=1000.0, resolution_hz=1.25)
        path = tmp_path / "comps.csv"
        write_components_csv(path, result)
        assert path.read_text().splitlines()[1] == \
            "125.0,0.5,-0.25,0.5590169943749475,4,2,0.0,1e-17"

    def test_signal_csv_text(self, tmp_path):
        x = ComplexSignal(samples=[complex(1.0, -0.0), 0.1 + 2j],
                          rate_hz=10.0)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, x)
        assert path.read_text() == "re,im\n1.0,-0.0\n0.1,2.0\n"


def test_fileio_does_not_import_lab():
    code = ("import sys, sparsespec.fileio; "
            "sys.exit('sparsespec.lab' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
