"""Workload definitions: inputs derived from the workload seed, analysis
configs and per-record correctness gates.

Both the set-up child (``prepare.py``, which synthesises and writes the
inputs) and the measuring process (``run.py``, which only rebuilds the
tone tables to score against) use these functions, so the same seed always
names the same records.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from sparsespec.lab import (
    SynthSpec,
    ToneSpec,
    experiment_1_config,
    experiment_1_spec,
    experiment_2_config,
    experiment_2_spec,
)
from sparsespec.pipeline import HybridConfig

LONG_RATE_HZ = 10000.0
LONG_LENGTH = 2 ** 20
LONG_TONES = 4
# Shortcut nodes closer than this share of the stream grid make the K x K
# Vandermonde solve fall back to a full stream; the long workloads keep
# their tones apart so that every record takes the shortcut.
LONG_MIN_BIN_GAP_SHARE = 1 / 16


# tail_pct leaves at least ten records beyond it in a 25 s run on a 2-CPU
# sandbox (collision ~7000 records, wideband_cli ~36, long_full ~120,
# long_shortcut ~1000). It is fixed so that the percentile cannot change
# between runs with the record count. The long workloads sit below the
# highest such percentile (p90, p99): their top latencies moved 15-25%
# between runs there, with the machine rather than the program.
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int            # distinct records per run, cycled in order
    tol_hz: float        # frequency tolerance for matching tones
    tail_pct: float      # latency_tail_ms percentile, fixed per workload
    amp_tol: float | None = None   # absolute amplitude gate (exact workloads)
    cli: bool = False    # one fresh CLI process per record


WORKLOADS = {w.name: w for w in (
    Workload(
        "collision",
        "experiment-1 geometry: thousands of 1000-sample records with one "
        "collision bin of order 1-3, so per-record fixed cost and the "
        "multi-term pencil dominate",
        pool=300, tol_hz=0.5, tail_pct=99.0),
    Workload(
        "wideband_cli",
        "experiment-2 records at SNR 10 dB through a fresh `sparsespec "
        "analyze` process each: CSV read, ~14 peak bins of Prony work, "
        "CSV write",
        pool=24, tol_hz=0.4, tail_pct=70.0, cli=True),
    Workload(
        "long_full",
        "noise-free 2^20-sample record, 4 on-grid tones, all 8 streams "
        "read in full: stream gather, FFTs and samples_used bookkeeping",
        pool=2, tol_hz=1e-6, tail_pct=75.0, amp_tol=1e-6),
    Workload(
        "long_shortcut",
        "the long_full records with shortcut_shifted=True: 7 shifted "
        "streams replaced by K-sample Vandermonde solves",
        pool=2, tol_hz=1e-6, tail_pct=98.0, amp_tol=1e-6),
)}


def _rng(seed: int, name: str) -> np.random.Generator:
    # Long workloads share their records; the others get their own stream.
    key = "long" if name.startswith("long_") else name
    return np.random.default_rng([seed, sum(map(ord, key))])


def _long_spec(rng: np.random.Generator, n: int, u: int) -> SynthSpec:
    min_gap = int(n * LONG_MIN_BIN_GAP_SHARE)
    while True:
        bins = rng.integers(0, n, size=LONG_TONES)
        gaps = np.abs(bins[:, None] - bins[None, :])
        gaps = np.minimum(gaps, n - gaps) + np.eye(LONG_TONES, dtype=int) * n
        if gaps.min() >= min_gap:
            break
    aliases = rng.integers(0, u, size=LONG_TONES)
    mags = rng.uniform(0.5, 1.5, size=LONG_TONES)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=LONG_TONES)
    fine = u * n
    tones = tuple(
        ToneSpec(mu_hz=float((b + n * a) * LONG_RATE_HZ / fine),
                 amplitude=complex(m * np.exp(1j * p)))
        for b, a, m, p in zip(bins, aliases, mags, phases))
    return SynthSpec(tones=tones, rate_hz=LONG_RATE_HZ, length=LONG_LENGTH)


def config(name: str) -> HybridConfig:
    if name == "collision":
        return experiment_1_config()
    if name == "wideband_cli":
        return experiment_2_config(28, 10.0)
    long_cfg = HybridConfig(u=16, s=5, M=8, resolver="bezout")
    if name == "long_shortcut":
        return replace(long_cfg, shortcut_shifted=True)
    return long_cfg


def specs(name: str, seed: int, pool: int | None = None) -> list[SynthSpec]:
    """The synthesis recipes of a run's record pool, from the seed alone."""
    count = WORKLOADS[name].pool if pool is None else pool
    rng = _rng(seed, name)
    if name == "collision":
        noise = rng.integers(0, 2 ** 31, size=count)
        return [experiment_1_spec(i % 3, seed=int(noise[i]))
                for i in range(count)]
    if name == "wideband_cli":
        seeds = rng.integers(0, 2 ** 31, size=count)
        return [experiment_2_spec(seed=int(s), snr_db=10.0) for s in seeds]
    cfg = config(name)
    n = (LONG_LENGTH - 1 - (cfg.M - 1) * cfg.s) // cfg.u + 1
    return [_long_spec(rng, n, cfg.u) for _ in range(count)]


def amp_ok(tone: ToneSpec, amp_err: float) -> bool:
    """Amplitude within 10% of the true tone's magnitude."""
    return amp_err <= 0.1 * abs(tone.amplitude)


def passes_gate(work: Workload, report) -> bool:
    """Per-record exactness gate on an ``EvalReport``.

    Only the noise-free long workloads have one: every tone found within
    ``tol_hz`` and ``amp_tol``, and nothing else. On the noisy workloads a
    missed or spurious tone shows in recall and precision instead; there
    only a raised error, a non-zero exit or unparseable output fails a
    record.
    """
    if work.amp_tol is None:
        return True
    return (not report.missed and not report.spurious
            and all(err <= work.amp_tol for _, _, _, err in report.matched))

