"""Command-line interface: subcommands, exit codes, file round trips."""
import random
import subprocess
import sys
import typing
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sparsespec import cli
from sparsespec.fileio import (
    read_components_csv,
    read_config,
    read_signal_raw64,
    write_config,
    write_signal_csv,
    write_signal_raw64,
    write_synth_spec,
)
from sparsespec import (
    ComplexSignal,
    HybridConfig,
    SynthSpec,
    ToneSpec,
    synthesize,
)


SIGNAL3 = SynthSpec(
    tones=(ToneSpec(mu_hz=125.0, amplitude=1.0 + 0j),
           ToneSpec(mu_hz=165.0, amplitude=np.exp(1j * np.pi / 3)),
           ToneSpec(mu_hz=245.0, amplitude=np.exp(1j * np.pi / 4))),
    rate_hz=1000.0, length=1000, snr_db=None, seed=0)


def write_signal3(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal_csv(path, synthesize(SIGNAL3))
    return path


def write_overflowing_tone(tmp_path):
    """A finite 1000-sample record, 1.7e308 * exp(2i pi 0.3125 l), whose
    transforms overflow."""
    path = tmp_path / "big.csv"
    l = np.arange(1000)
    write_signal_csv(path, ComplexSignal(
        samples=1.7e308 * np.exp(2j * np.pi * 0.3125 * l), rate_hz=1000.0))
    return path


ANALYZE_FLAGS = ["--rate", "1000", "--u", "50", "--s", "17", "--M", "12",
                 "--threshold", "0.2", "--stream-len", "16"]


class TestAnalyze:
    def test_three_collided_tones(self, tmp_path, capsys):
        sig = write_signal3(tmp_path)
        out = tmp_path / "rec.csv"
        code = cli.main(["analyze", "--in", str(sig), "--out", str(out)]
                        + ANALYZE_FLAGS)
        assert code == 0
        comps = read_components_csv(out)
        freqs = sorted(c.freq_hz for c in comps)
        assert np.allclose(freqs, [125.0, 165.0, 245.0], atol=1e-6)
        summary = capsys.readouterr().out
        assert "components=3" in summary
        assert "samples_used=192" in summary

    def test_config_file_equals_flags(self, tmp_path):
        sig = write_signal3(tmp_path)
        flag_out = tmp_path / "flag.csv"
        cfg_out = tmp_path / "cfg.csv"
        assert cli.main(["analyze", "--in", str(sig), "--out", str(flag_out)]
                        + ANALYZE_FLAGS) == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u = 50\ns = 17\nM = 12\nthreshold = 0.2\n"
                       "stream_len = 16\n")
        assert cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--config", str(cfg), "--out", str(cfg_out)]) == 0
        assert flag_out.read_bytes() == cfg_out.read_bytes()

    def test_flag_overrides_config(self, tmp_path, capsys):
        sig = write_signal3(tmp_path)
        out = tmp_path / "rec.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u = 50\ns = 17\nM = 12\nthreshold = 99.0\n"
                       "stream_len = 16\n")
        code = cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--config", str(cfg), "--threshold", "0.2",
                         "--out", str(out)])
        assert code == 0
        assert "components=3" in capsys.readouterr().out

    def test_non_coprime_exit_two(self, tmp_path, capsys):
        sig = write_signal3(tmp_path)
        code = cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--u", "4", "--s", "2", "--M", "12",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "share a factor" in err

    def test_missing_input_exit_two(self, tmp_path):
        code = cli.main(["analyze", "--in", str(tmp_path / "nope.csv"),
                         "--rate", "1000", "--u", "50", "--s", "17",
                         "--M", "12", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_malformed_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("re,im\nfoo,bar\n")
        code = cli.main(["analyze", "--in", str(bad), "--rate", "1000",
                         "--u", "50", "--s", "17", "--M", "12",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_non_utf8_input_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"re,im\n1,2\n\xff,3\n")
        code = cli.main(["analyze", "--in", str(bad),
                         "--out", str(tmp_path / "x.csv")] + ANALYZE_FLAGS)
        assert code == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_sample_exit_two(self, tmp_path, capsys, cell):
        sig = write_signal3(tmp_path)
        lines = sig.read_text().splitlines()
        lines[5] = f"{cell},0.0"
        sig.write_text("\n".join(lines) + "\n")
        code = cli.main(["analyze", "--in", str(sig),
                         "--out", str(tmp_path / "x.csv")] + ANALYZE_FLAGS)
        assert code == 2
        assert "sample 4 is NaN or infinite" in capsys.readouterr().err

    def test_overflowing_spectrum_exit_two(self, tmp_path, capsys):
        # Finite samples whose stream transforms overflow once printed
        # components=0 and exited 0.
        sig = write_overflowing_tone(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["analyze", "--in", str(sig),
                             "--out", str(tmp_path / "x.csv")]
                            + ANALYZE_FLAGS)
        assert code == 2
        assert "spectrum overflowed" in capsys.readouterr().err

    def test_two_stream_zero_ratio_exit_zero(self, tmp_path, capsys):
        samples = np.zeros(1000, dtype=np.complex128)
        samples[::5] = 1.0
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, ComplexSignal(samples=samples, rate_hz=1000.0))
        code = cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--u", "5", "--s", "2", "--M", "2",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 0
        assert "components=0" in capsys.readouterr().out

    def test_nan_threshold_flag_exit_two(self, tmp_path, capsys):
        sig = write_signal3(tmp_path)
        flags = list(ANALYZE_FLAGS)
        flags[flags.index("--threshold") + 1] = "nan"
        code = cli.main(["analyze", "--in", str(sig),
                         "--out", str(tmp_path / "x.csv")] + flags)
        assert code == 2
        assert "threshold must be finite" in capsys.readouterr().err

    def test_infinite_rate_exit_two(self, tmp_path, capsys):
        # An infinite rate once gave exit 0 and a component at inf Hz.
        sig = write_signal3(tmp_path)
        flags = list(ANALYZE_FLAGS)
        flags[flags.index("--rate") + 1] = "inf"
        code = cli.main(["analyze", "--in", str(sig),
                         "--out", str(tmp_path / "x.csv")] + flags)
        assert code == 2
        assert "rate_hz must be finite" in capsys.readouterr().err

    def test_infinite_config_value_exit_two(self, tmp_path, capsys):
        sig = write_signal3(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u = 50\ns = 17\nM = 12\nthreshold = inf\n")
        code = cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "threshold must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["sigma_rel_tol = 0.05",
                                      "extra_terms = 0", "max_peaks = 64"])
    def test_removed_config_key_exit_two(self, tmp_path, capsys, line):
        sig = write_signal3(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"u = 50\ns = 17\nM = 12\n{line}\n")
        code = cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        key = line.partition(" ")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_missing_geometry_exit_two(self, tmp_path):
        sig = write_signal3(tmp_path)
        code = cli.main(["analyze", "--in", str(sig), "--rate", "1000",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_more_peaks_than_node_cap_exit_zero(self, tmp_path, capsys):
        # 997 peak bins overflow the shortcut's node-matrix cap; the run
        # falls back to the full streams instead of aborting.
        rng = np.random.default_rng(3)
        sig = tmp_path / "noise.csv"
        write_signal_csv(sig, ComplexSignal(
            samples=rng.standard_normal(1000)
            + 1j * rng.standard_normal(1000), rate_hz=1000.0))
        outs = []
        for extra in ([], ["--shortcut"]):
            outs.append(tmp_path / f"rec{len(extra)}.csv")
            assert cli.main(["analyze", "--in", str(sig), "--out",
                             str(outs[-1]), "--rate", "1000", "--u", "1",
                             "--s", "1", "--M", "4", "--threshold", "0"]
                            + extra) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()

    def test_raw64_format(self, tmp_path):
        sig = tmp_path / "sig.raw64"
        write_signal_raw64(sig, synthesize(SIGNAL3))
        out = tmp_path / "rec.csv"
        code = cli.main(["analyze", "--in", str(sig), "--out", str(out),
                         "--format", "raw64"] + ANALYZE_FLAGS)
        assert code == 0
        assert len(read_components_csv(out)) == 3
        csv_out = tmp_path / "rec_csv.csv"
        assert cli.main(["analyze", "--in", str(write_signal3(tmp_path)),
                         "--out", str(csv_out)] + ANALYZE_FLAGS) == 0
        assert out.read_bytes() == csv_out.read_bytes()

    def test_raw64_infinite_imaginary_part_exit_two(self, tmp_path, capsys):
        sig = tmp_path / "inf.raw64"
        sig.write_bytes(np.array([1.0, 2.0, 3.0, np.inf], "<f8").tobytes())
        code = cli.main(["analyze", "--in", str(sig), "--out",
                         str(tmp_path / "x.csv")] + ANALYZE_FLAGS)
        assert code == 2
        assert "NaN or infinite" in capsys.readouterr().err


class TestConfigSchema:
    # Every HybridConfig field is a config key and an analyze flag.
    NON_DEFAULT = {int: 7, float: 0.375, bool: True, str: "bezout"}

    @pytest.mark.parametrize("field", fields(HybridConfig),
                             ids=lambda f: f.name)
    def test_field_in_config_file_and_cli(self, field, tmp_path):
        kind = typing.get_type_hints(HybridConfig)[field.name]
        kind = next(k for k in typing.get_args(kind) or (kind,)
                    if k is not type(None))
        value = self.NON_DEFAULT[kind]
        assert value != field.default
        cfg = replace(HybridConfig(u=5, s=3, M=8), **{field.name: value})
        path = tmp_path / "cfg.txt"
        write_config(path, cfg)
        assert read_config(path) == cfg
        args = cli._build_parser().parse_args(
            ["analyze", "--in", "sig.csv", "--out", "rec.csv",
             "--rate", "1000"])
        assert hasattr(args, field.name)


class TestMalformedInput:
    # A short two-tone record and a config that analyzes it; the stream
    # length is left free so that a truncated signal still runs.
    SIGNAL = SynthSpec(
        tones=(ToneSpec(mu_hz=25.0, amplitude=1.0 + 0j),
               ToneSpec(mu_hz=85.0, amplitude=0.5j)),
        rate_hz=200.0, length=200, snr_db=None, seed=0)
    CONFIG = ("u = 10\ns = 3\nM = 6\nthreshold = 0.2\nresolver = match\n"
              "shortcut_shifted = true\n")

    @staticmethod
    def corrupt(data: bytes, how: str, rnd: random.Random,
                text: bool) -> bytes:
        if how == "truncate":
            return data[:rnd.randrange(len(data))]
        if how == "inject":
            at = rnd.randrange(len(data) + 1)
            return data[:at] + bytes([rnd.randrange(256)]) + data[at:]
        if not text:
            # raw64 has neither lines nor a header: a cell is one float64,
            # the header the first one.
            if how == "drop":
                at = 8 * rnd.randrange(len(data) // 8)
                return data[:at] + data[at + 8:]
            return data[:8] + data
        lines = data.split(b"\n")
        if how == "header":
            return b"\n".join(lines[:1] + lines)
        row = rnd.randrange(len(lines))
        sep = b"," if b"," in lines[row] else b"="
        cells = lines[row].split(sep)
        del cells[rnd.randrange(len(cells))]
        lines[row] = sep.join(cells)
        return b"\n".join(lines)

    def test_corrupted_files_never_raise(self, tmp_path, capsys):
        # Each trial corrupts one of the signal CSV, the raw64 signal or
        # the config file and runs analyze: it exits 0, 1 or 2 and never
        # lets an exception out.
        x = synthesize(self.SIGNAL)
        write_signal_csv(tmp_path / "sig.csv", x)
        write_signal_raw64(tmp_path / "sig.raw64", x)
        (tmp_path / "cfg.txt").write_text(self.CONFIG)
        valid = {name: (tmp_path / name).read_bytes()
                 for name in ("sig.csv", "sig.raw64", "cfg.txt")}
        rnd = random.Random(5)
        codes = set()
        for trial in range(200):
            target = rnd.choice(sorted(valid))
            how = rnd.choice(["truncate", "drop", "inject", "header"])
            files = dict(valid)
            files[target] = self.corrupt(valid[target], how, rnd,
                                         text=target != "sig.raw64")
            for name, data in files.items():
                (tmp_path / name).write_bytes(data)
            signal = target if target.startswith("sig") \
                else rnd.choice(["sig.csv", "sig.raw64"])
            code = cli.main(["analyze", "--in", str(tmp_path / signal),
                             "--rate", "200",
                             "--config", str(tmp_path / "cfg.txt"),
                             "--out", str(tmp_path / "out.csv")])
            assert code in (0, 1, 2), (trial, target, how, code)
            codes.add(code)
        capsys.readouterr()
        assert codes == {0, 2}


class TestSynth:
    def test_synth_then_analyze_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        write_synth_spec(spec_path, SIGNAL3)
        sig = tmp_path / "sig.csv"
        assert cli.main(["synth", "--spec", str(spec_path),
                         "--out", str(sig)]) == 0
        out = tmp_path / "rec.csv"
        assert cli.main(["analyze", "--in", str(sig), "--out", str(out)]
                        + ANALYZE_FLAGS) == 0
        freqs = sorted(c.freq_hz for c in read_components_csv(out))
        assert np.allclose(freqs, [125.0, 165.0, 245.0], atol=1e-6)

    def test_synth_to_raw64_round_trips_bit_for_bit(self, tmp_path):
        # The format follows the extension, as analyze and dft read it;
        # this once wrote CSV text into the .raw64 file.
        spec = replace(SIGNAL3, snr_db=10.0, seed=3)
        spec_path = tmp_path / "spec.txt"
        write_synth_spec(spec_path, spec)
        sig = tmp_path / "sig.raw64"
        assert cli.main(["synth", "--spec", str(spec_path),
                         "--out", str(sig)]) == 0
        back = read_signal_raw64(sig, spec.rate_hz)
        assert back.samples.tobytes() == synthesize(spec).samples.tobytes()
        # --format still overrides the extension.
        assert cli.main(["synth", "--spec", str(spec_path), "--out",
                         str(sig), "--format", "csv"]) == 0
        assert sig.read_text().startswith("re,im\n")

    def test_missing_spec_exit_two(self, tmp_path):
        assert cli.main(["synth", "--spec", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "sig.csv")]) == 2


class TestDft:
    def test_full_spectrum(self, tmp_path):
        sig = write_signal3(tmp_path)
        out = tmp_path / "spec.csv"
        assert cli.main(["dft", "--in", str(sig), "--rate", "1000",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1001

    def test_thresholded_components(self, tmp_path):
        sig = write_signal3(tmp_path)
        out = tmp_path / "comps.csv"
        assert cli.main(["dft", "--in", str(sig), "--rate", "1000",
                         "--threshold", "0.2", "--out", str(out)]) == 0
        freqs = sorted(c.freq_hz for c in read_components_csv(out))
        assert np.allclose(freqs, [125.0, 165.0, 245.0], atol=1e-9)

    def test_overflowing_spectrum_exit_two(self, tmp_path, capsys):
        sig = write_overflowing_tone(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["dft", "--in", str(sig), "--rate", "1000",
                             "--threshold", "0.2",
                             "--out", str(tmp_path / "comps.csv")])
        assert code == 2
        assert "spectrum overflowed" in capsys.readouterr().err

    def test_overflowing_full_spectrum_exit_two(self, tmp_path, capsys):
        # Without --threshold the spectrum once went out as 1,000 nan rows
        # with exit 0.
        sig = write_overflowing_tone(tmp_path)
        out = tmp_path / "spec.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["dft", "--in", str(sig), "--rate", "1000",
                             "--out", str(out)])
        assert code == 2
        assert "spectrum overflowed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["dft"], ["dft", "--threshold", "0.2"], ["analyze"] + ANALYZE_FLAGS])
    def test_overflow_prints_only_the_error(self, tmp_path, capsys,
                                            command):
        # Two numpy RuntimeWarnings, source lines included, once came
        # before the error line.
        sig = write_overflowing_tone(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(command + ["--in", str(sig), "--rate", "1000",
                                       "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "sparsespec: error: the spectrum overflowed: its largest |X| "
            "is nan"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_exit_two(self, tmp_path, capsys, value):
        # Both once printed components=0 and exited 0.
        sig = write_signal3(tmp_path)
        assert cli.main(["dft", "--in", str(sig), "--rate", "1000",
                         "--threshold", value,
                         "--out", str(tmp_path / "comps.csv")]) == 2
        assert "threshold must be finite" in capsys.readouterr().err


class TestUsageAndSelftest:
    def test_unknown_subcommand_exit_one(self, capsys):
        assert cli.main(["bogus"]) == 1
        capsys.readouterr()

    def test_unknown_flag_exit_one(self, tmp_path, capsys):
        assert cli.main(["analyze", "--nope", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--delta", "--merge-tol",
                                      "--match-tol", "--sigma-tol",
                                      "--extra-terms", "--max-peaks"])
    def test_removed_flag_exit_one(self, flag, capsys):
        assert cli.main(["analyze", "--in", "sig.csv", "--out", "rec.csv",
                         flag, "0.2"] + ANALYZE_FLAGS) == 1
        capsys.readouterr()

    def test_no_arguments_exit_one(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest", "--trials", "25"]) == 0
        assert "25/25" in capsys.readouterr().out

    def test_selftest_failure_exit_three(self, monkeypatch, capsys):
        # cli imports lab when the command runs, so patch it there.
        monkeypatch.setattr(
            "sparsespec.lab.run_selftest",
            lambda trials, seed: {"trials": trials, "passed": trials - 1,
                                  "failures": [{"reason": "support"}]})
        assert cli.main(["selftest", "--trials", "10"]) == 3
        capsys.readouterr()


class TestExperimentCommand:
    def test_experiment_1_runs(self, tmp_path, capsys):
        assert cli.main(["experiment", "--id", "1",
                         "--out-dir", str(tmp_path)]) == 0
        for k in range(1, 4):
            assert (tmp_path / f"signal{k}" / "spectrum.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [["--snr", "10"], ["--M", "8"],
                                       ["--snr", "10", "--M", "8"]])
    def test_experiment_1_rejects_experiment_2_flags(self, tmp_path, capsys,
                                                     flags):
        # Experiment 1 runs at a fixed 30 dB and 12 streams.
        assert cli.main(["experiment", "--id", "1", "--out-dir",
                         str(tmp_path)] + flags) == 1
        assert "experiment 2 only" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_experiment_2_defaults_to_28_streams(self, tmp_path, capsys):
        assert cli.main(["experiment", "--id", "2", "--snr", "10",
                         "--out-dir", str(tmp_path)]) == 0
        assert "M=28" in capsys.readouterr().out
        manifest = (tmp_path / "config.txt").read_text().splitlines()
        assert "M = 28" in manifest
        assert "snr_db = 10.0" in manifest


class TestConsoleScript:
    def test_entry_point_wiring(self, tmp_path):
        spec_path = tmp_path / "spec.txt"
        write_synth_spec(spec_path, SIGNAL3)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sparsespec.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "synth", "--spec", str(spec_path),
             "--out", str(tmp_path / "sig.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "sig.csv").exists()

    def test_analyze_leaves_lab_unloaded(self, tmp_path):
        # lab loads only for experiment and selftest.
        sig = write_signal3(tmp_path)
        code = ("import sys; from sparsespec import cli; "
                "code = cli.main(sys.argv[1:]); "
                "sys.exit(code or 10 * ('sparsespec.lab' in sys.modules))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "analyze", "--in", str(sig),
             "--out", str(tmp_path / "rec.csv")] + ANALYZE_FLAGS,
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
