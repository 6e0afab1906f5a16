"""Command-line front end: synthesis, analysis, baseline DFT, experiment
reproduction, and the oracle-equivalence selftest.

Exit codes: 0 success, 1 usage error, 2 data or config error (non-finite
samples or an overflowed spectrum included), 3 failed selftest trials.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .core import dft, spectrum_magnitudes, synthesize
from .errors import SparseSpecError
from .fileio import (
    REQUIRED_CONFIG_KEYS,
    FileFormatError,
    read_config,
    read_signal_csv,
    read_signal_raw64,
    read_synth_spec,
    write_components_csv,
    write_signal_csv,
    write_signal_raw64,
    write_spectrum_csv,
)
from .pipeline import RESOLVERS, HybridConfig, analyze, dense_reference

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsespec",
                     description="Sparse spectral estimation from shifted "
                                 "undersampled streams.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_synth = sub.add_parser("synth", help="generate a signal from a spec "
                             "file of tones")
    p_synth.add_argument("--spec", required=True, help="synthesis spec file")
    p_synth.add_argument("--out", required=True, help="output signal file")
    p_synth.add_argument("--seed", type=int, default=None,
                         help="override the spec seed")
    p_synth.add_argument("--format", choices=("csv", "raw64"), default=None,
                         help="output format (default: by file extension)")

    p_an = sub.add_parser("analyze", help="run the hybrid estimator")
    p_an.add_argument("--in", dest="infile", required=True)
    p_an.add_argument("--out", required=True, help="components CSV")
    p_an.add_argument("--rate", type=float, required=True,
                      help="sample rate of the input, Hz")
    p_an.add_argument("--config", help="config file (flags override it)")
    p_an.add_argument("--u", type=int)
    p_an.add_argument("--s", type=int)
    p_an.add_argument("--M", type=int)
    p_an.add_argument("--threshold", type=float)
    p_an.add_argument("--resolver", choices=RESOLVERS)
    p_an.add_argument("--stream-len", type=int, dest="stream_len")
    p_an.add_argument("--shortcut", action="store_true", default=None,
                      dest="shortcut_shifted")
    p_an.add_argument("--format", choices=("csv", "raw64"), default=None,
                      help="input format (default: by file extension)")

    p_dft = sub.add_parser("dft", help="baseline dense DFT")
    p_dft.add_argument("--in", dest="infile", required=True)
    p_dft.add_argument("--out", required=True)
    p_dft.add_argument("--rate", type=float, required=True)
    p_dft.add_argument("--threshold", type=float, default=None,
                       help="emit components above this tone amplitude "
                            "instead of the full spectrum")
    p_dft.add_argument("--format", choices=("csv", "raw64"), default=None)

    p_exp = sub.add_parser("experiment", help="reproduce an experiment run")
    p_exp.add_argument("--id", type=int, choices=(1, 2), required=True)
    p_exp.add_argument("--out-dir", required=True, dest="out_dir")
    p_exp.add_argument("--M", type=int, default=None, choices=(8, 16, 28),
                       help="stream count, experiment 2 only (default 28)")
    p_exp.add_argument("--snr", type=float, default=None,
                       help="SNR in dB, experiment 2 only (omit for "
                            "noise-free); experiment 1 runs at 30 dB")
    p_exp.add_argument("--seed", type=int, default=0)

    p_self = sub.add_parser("selftest", help="noise-free oracle equivalence "
                            "suite")
    p_self.add_argument("--trials", type=int, default=200)
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def _signal_format(path: str, fmt: str | None) -> str:
    """``fmt``, or else the signal format of ``path``'s extension."""
    raw = Path(path).suffix in (".raw64", ".raw", ".bin")
    return fmt or ("raw64" if raw else "csv")


def _read_signal(path: str, rate: float, fmt: str | None,
                 cfg: HybridConfig | None = None):
    """The signal at ``path``; a CSV read for ``cfg`` parses only the rows
    its plan reads (see ``read_signal_csv``)."""
    if _signal_format(path, fmt) == "raw64":
        return read_signal_raw64(path, rate)
    return read_signal_csv(path, rate, cfg)


def _analyze_config(args) -> HybridConfig:
    # Each HybridConfig field has an analyze flag whose dest is its name.
    overrides = {f.name: getattr(args, f.name) for f in fields(HybridConfig)
                 if getattr(args, f.name) is not None}
    if args.config:
        return replace(read_config(args.config), **overrides)
    for required in REQUIRED_CONFIG_KEYS:
        if required not in overrides:
            raise FileFormatError(
                f"--{required} is required when no --config is given")
    return HybridConfig(**overrides)


def _cmd_synth(args) -> int:
    spec = read_synth_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    x = synthesize(spec)
    if _signal_format(args.out, args.format) == "raw64":
        write_signal_raw64(args.out, x)
    else:
        write_signal_csv(args.out, x)
    print(f"wrote {args.out}: {len(x)} samples at {x.rate_hz} Hz")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _analyze_config(args)
    x = _read_signal(args.infile, args.rate, args.format, cfg)
    result = analyze(x, cfg)
    write_components_csv(args.out, result)
    used = result.diagnostics["samples_used"]
    print(f"components={len(result.components)} samples_used={used} "
          f"resolution_hz={result.resolution_hz:.6g}")
    return EXIT_OK


def _cmd_dft(args) -> int:
    x = _read_signal(args.infile, args.rate, args.format)
    if args.threshold is None:
        spectrum = dft(x)
        spectrum_magnitudes(spectrum)  # raises on an overflowed spectrum
        write_spectrum_csv(args.out, spectrum, x.rate_hz / len(x))
        print(f"bins={len(x)} resolution_hz={x.rate_hz / len(x):.6g}")
    else:
        result = dense_reference(x, args.threshold)
        write_components_csv(args.out, result)
        print(f"components={len(result.components)} samples_used={len(x)} "
              f"resolution_hz={result.resolution_hz:.6g}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    # lab loads here, not at import: analyze, synth and dft never need it.
    from .lab import run_experiment_1, run_experiment_2
    if args.id == 1:
        results = run_experiment_1(args.out_dir, seed=args.seed)
        recalls = ",".join(f"{r['eval'].recall:.3f}"
                           for r in results.values())
        print(f"experiment 1 done: recalls {recalls} -> {args.out_dir}")
    else:
        M = 28 if args.M is None else args.M
        result = run_experiment_2(M, args.snr, args.out_dir, seed=args.seed)
        rep = result["eval"]
        print(f"experiment 2 done: M={M} recall={rep.recall:.3f} "
              f"samples={result['hybrid'].diagnostics['samples_used']} "
              f"-> {args.out_dir}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .lab import run_selftest
    report = run_selftest(trials=args.trials, seed=args.seed)
    print(f"selftest: {report['passed']}/{report['trials']} trials passed")
    if report["failures"]:
        for rec in report["failures"][:5]:
            print(f"  failure: {rec}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command == "experiment" and args.id == 1
                and (args.M, args.snr) != (None, None)):
            parser.error("--M and --snr apply to experiment 2 only")
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"sparsespec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    handlers = {
        "synth": _cmd_synth,
        "analyze": _cmd_analyze,
        "dft": _cmd_dft,
        "experiment": _cmd_experiment,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (SparseSpecError, ValueError, OSError) as exc:
        print(f"sparsespec: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
