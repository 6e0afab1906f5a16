"""Recovery metrics, reproducible experiment runs and the oracle selftest.

The experiments synthesise their records with :func:`core.synthesize`
(re-exported here with ``ToneSpec`` and ``SynthSpec``). Their runners write
per-run directories of CSV panels (short DFT magnitudes, recovered vs dense
spectra, per-bin coefficient sequences) plus a plain-text manifest, all
through the ``fileio`` writers, so results can be plotted and diffed
externally. They read what ``analyze`` reports and repeat none of its work
except the full stream spectra of experiment 1's panels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .aliasing import circular_distance_hz
from .core import SynthSpec, ToneSpec, stream_view, synthesize
from .fileio import write_key_values, write_table
from .pipeline import (
    HybridConfig,
    RecoveredComponent,
    SparseSpectrum,
    analyze,
    dense_reference,
    plan,
)

EXPERIMENT_1_TONES = (
    ((125.0, 1.0 + 0.0j),),
    ((125.0, 1.0 + 0.0j), (165.0, np.exp(1j * np.pi / 3))),
    ((125.0, 1.0 + 0.0j), (165.0, np.exp(1j * np.pi / 3)),
     (245.0, np.exp(1j * np.pi / 4))),
)
EXPERIMENT_2_MUS = (100.0, 100.3, 100.92, 4000.0, 4000.3, 4000.7,
                    765.0, 787.0)
EXPERIMENT_2_REFERENCE_SAMPLES = 12824


@dataclass(frozen=True)
class EvalReport:
    """Greedy matching of recovered components against true tones."""

    matched: tuple[tuple[ToneSpec, RecoveredComponent, float, float], ...]
    missed: tuple[ToneSpec, ...]
    spurious: tuple[RecoveredComponent, ...]
    precision: float
    recall: float


def evaluate(truth: SynthSpec, result: SparseSpectrum,
             tol_hz: float) -> EvalReport:
    """Match each true tone to at most one component, nearest first."""
    if tol_hz <= 0:
        raise ValueError("tol_hz must be positive")
    rate = result.rate_hz
    tones = list(truth.tones)
    comps = list(result.components)
    pairs = []
    for i, tone in enumerate(tones):
        for j, comp in enumerate(comps):
            d = circular_distance_hz(tone.mu_hz % rate, comp.freq_hz, rate)
            if d <= tol_hz:
                pairs.append((d, i, j))
    pairs.sort()
    used_tone: set[int] = set()
    used_comp: set[int] = set()
    matched = []
    for d, i, j in pairs:
        if i in used_tone or j in used_comp:
            continue
        used_tone.add(i)
        used_comp.add(j)
        amp_err = abs(tones[i].amplitude - comps[j].amplitude)
        matched.append((tones[i], comps[j], float(d), float(amp_err)))
    missed = tuple(t for i, t in enumerate(tones) if i not in used_tone)
    spurious = tuple(c for j, c in enumerate(comps) if j not in used_comp)
    precision = len(matched) / len(comps) if comps else 1.0
    recall = len(matched) / len(tones) if tones else 1.0
    return EvalReport(matched=tuple(matched), missed=missed,
                      spurious=spurious, precision=precision, recall=recall)


_SPECTRUM_COLUMNS = ("freq_hz", "re", "im", "magnitude")


def _cells(freq_hz: float, amplitude: complex) -> tuple:
    return (freq_hz, amplitude.real, amplitude.imag, abs(amplitude))


def _write_spectra_and_eval(out: Path, hybrid: SparseSpectrum,
                            dense: SparseSpectrum, report: EvalReport) -> None:
    """spectrum.csv (hybrid then dense components) and eval.csv (matched,
    missed, then spurious rows; cells that do not apply are empty)."""
    write_table(out / "spectrum.csv", ("source", *_SPECTRUM_COLUMNS), [
        (label, *_cells(c.freq_hz, c.amplitude))
        for label, result in (("hybrid", hybrid), ("dense", dense))
        for c in result.components])
    blank = ("", "", "")
    rows = [("matched", *_cells(t.mu_hz, t.amplitude)[:3],
             *_cells(c.freq_hz, c.amplitude)[:3], ferr, aerr)
            for t, c, ferr, aerr in report.matched]
    rows += [("missed", *_cells(t.mu_hz, t.amplitude)[:3], *blank, "", "")
             for t in report.missed]
    rows += [("spurious", *blank, *_cells(c.freq_hz, c.amplitude)[:3], "", "")
             for c in report.spurious]
    write_table(out / "eval.csv", (
        "status", "true_mu_hz", "true_re", "true_im", "rec_freq_hz",
        "rec_re", "rec_im", "freq_err_hz", "amp_err"), rows)


def _manifest(spec: SynthSpec, cfg: HybridConfig, hybrid: SparseSpectrum,
              report: EvalReport, *budget: tuple[str, object]) -> list:
    """Both experiments' manifest entries, ``budget`` before the outcome."""
    d = hybrid.diagnostics
    return [("seed", spec.seed), ("rate_hz", spec.rate_hz),
            ("length", spec.length), ("snr_db", spec.snr_db),
            ("u", cfg.u), ("s", cfg.s), ("M", cfg.M),
            ("threshold", cfg.threshold),
            ("stream_length", d["stream_length"]),
            ("samples_used", d["samples_used"]),
            ("peak_candidates", d["peak_candidates"]),
            ("peak_bins", len(d["peak_bins"])), *budget,
            ("components", len(hybrid.components)),
            ("noise_sigma", d["noise_sigma"]),
            ("recall", report.recall), ("precision", report.precision)]


def experiment_1_spec(signal_index: int, seed: int = 0,
                      snr_db: float | None = 30.0) -> SynthSpec:
    """Tone table for the three collision study signals (R=1000, L=1000)."""
    tones = tuple(ToneSpec(mu_hz=mu, amplitude=complex(amp))
                  for mu, amp in EXPERIMENT_1_TONES[signal_index])
    return SynthSpec(tones=tones, rate_hz=1000.0, length=1000,
                     snr_db=snr_db, seed=seed)


def experiment_1_config() -> HybridConfig:
    return HybridConfig(u=50, s=17, M=12, threshold=0.2, stream_len=16)


def run_experiment_1(out_dir: str | Path, seed: int = 0) -> dict:
    """Three-signal collision study: u=50, s=17, M=12, SNR 30 dB.

    All three tones alias onto the stream bin at 5 Hz; the runs show the
    collision being detected (order 1, 2, 3) and resolved. One directory
    per signal: config.txt, streams.csv, spectrum.csv, prony_<bin>.csv,
    eval.csv. prony_<bin>.csv holds the sequence ``analyze`` fit at that
    bin and the Hankel singular values it counted the bin's order from.
    """
    out = Path(out_dir)
    cfg = experiment_1_config()
    results = {}
    for k in range(3):
        run_dir = out / f"signal{k + 1}"
        run_dir.mkdir(parents=True, exist_ok=True)
        spec = experiment_1_spec(k, seed=seed + k)
        x = synthesize(spec)
        hybrid = analyze(x, cfg)
        dense = dense_reference(x, cfg.threshold)
        report = evaluate(spec, hybrid, tol_hz=0.5)

        n = hybrid.diagnostics["stream_length"]
        spectra = np.fft.fft(stream_view(x.samples, plan(cfg, len(x))))
        bin_hz = x.rate_hz / cfg.u / n
        write_table(run_dir / "streams.csv", (
            "bin_index", "freq_hz", *(f"mag_{m}" for m in range(cfg.M))), [
            (b, b * bin_hz, *(abs(v) for v in spectra[:, b]))
            for b in range(n)])
        _write_spectra_and_eval(run_dir, hybrid, dense, report)
        for entry in hybrid.diagnostics["bin_reports"]:
            b, sigma = entry["bin"], entry["singular_values"]
            write_table(run_dir / f"prony_{b}.csv",
                        ("index", "p_re", "p_im", "p_abs", "sigma"),
                        [(i, v.real, v.imag, abs(v),
                          sigma[i] if i < len(sigma) else "")
                         for i, v in enumerate(entry["sequence"])])
        write_key_values(run_dir / "config.txt", [
            ("signal", k + 1), *_manifest(
                spec, cfg, hybrid, report,
                ("resolution_hz", hybrid.resolution_hz))])
        results[f"signal{k + 1}"] = {
            "spec": spec, "hybrid": hybrid, "dense": dense, "eval": report,
            "dir": run_dir,
        }
    return results


def experiment_2_spec(seed: int = 0,
                      snr_db: float | None = None) -> SynthSpec:
    """Eight-tone wideband signal (R=10 kHz, L=65536) with two sub-Hz
    clusters; amplitude magnitudes drawn uniformly from [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.5, 1.5, size=len(EXPERIMENT_2_MUS))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(EXPERIMENT_2_MUS))
    tones = tuple(
        ToneSpec(mu_hz=mu, amplitude=complex(m * np.exp(1j * p)))
        for mu, m, p in zip(EXPERIMENT_2_MUS, mags, phases))
    return SynthSpec(tones=tones, rate_hz=10000.0, length=2 ** 16,
                     snr_db=snr_db, seed=seed)


def experiment_2_config(M: int, snr_db: float | None) -> HybridConfig:
    """Config for experiment 2 with M streams. ``snr_db`` does not change
    it: ``analyze`` measures the noise itself."""
    return HybridConfig(u=142, s=7, M=M, threshold=0.25)


def _mu_clusters(mus, gap_hz: float = 4.0) -> list[list[float]]:
    ordered = sorted(mus)
    groups = [[ordered[0]]]
    for mu in ordered[1:]:
        if mu - groups[-1][-1] <= gap_hz:
            groups[-1].append(mu)
        else:
            groups.append([mu])
    return groups


def run_experiment_2(M: int, snr_db: float | None, out_dir: str | Path,
                     seed: int = 0) -> dict:
    """Wideband budget study: u=142, s=7, L=2^16, R=10 kHz.

    Writes the recovered-vs-dense spectrum, zoomed windows of +-2 Hz around
    each tone cluster, the evaluation table, and a manifest carrying the
    sample-budget comparison (effective resolution of the hybrid run versus
    a dense DFT restricted to the same number of samples).
    """
    if M not in (8, 16, 28):
        raise ValueError("M must be one of 8, 16, 28")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = experiment_2_spec(seed=seed, snr_db=snr_db)
    cfg = experiment_2_config(M, snr_db)
    x = synthesize(spec)
    hybrid = analyze(x, cfg)
    dense = dense_reference(x, cfg.threshold)
    tol = 0.2 if snr_db is None else 0.4
    report = evaluate(spec, hybrid, tol_hz=tol)

    _write_spectra_and_eval(out, hybrid, dense, report)
    zoom = []
    for w, group in enumerate(_mu_clusters(EXPERIMENT_2_MUS)):
        center = sum(group) / len(group)
        for label, result in (("hybrid", hybrid), ("dense", dense)):
            zoom += [(w, center, label, *_cells(c.freq_hz, c.amplitude))
                     for c in result.components
                     if abs(c.freq_hz - center) <= 2.0]
    write_table(out / "zoom.csv",
                ("window", "center_hz", "source", *_SPECTRUM_COLUMNS), zoom)

    used = hybrid.diagnostics["samples_used"]
    write_key_values(out / "config.txt", _manifest(
        spec, cfg, hybrid, report,
        ("reference_sample_count", EXPERIMENT_2_REFERENCE_SAMPLES),
        ("dense_sample_count", spec.length),
        ("effective_resolution_hz", hybrid.resolution_hz),
        ("budget_dense_resolution_hz", spec.rate_hz / used),
        ("full_dense_resolution_hz", spec.rate_hz / spec.length)))
    return {"spec": spec, "hybrid": hybrid, "dense": dense, "eval": report,
            "dir": out, "config": cfg}


def _selftest_trial(rng: np.random.Generator) -> dict | None:
    """One randomized oracle-equivalence trial; returns a failure record
    or None on success."""
    u = int(rng.choice([4, 5, 6]))
    n_cap = 240 // (2 * u)
    n = int(rng.integers(10, n_cap + 1))
    length = 2 * u * n
    s_cap = (u * n + u - 1) // 8
    s_choices = [s for s in range(1, min(s_cap, 9) + 1)
                 if math.gcd(s, u) == 1]
    s = int(rng.choice(s_choices))
    fine = u * n
    k = int(rng.integers(1, 4))

    for _ in range(50):
        if k > 1 and rng.random() < 0.5 and u >= k:
            # Force a collision: same residue mod n, distinct aliases.
            res = int(rng.integers(0, n))
            aliases = rng.choice(u, size=k, replace=False)
            idx = sorted(int(res + n * a) for a in aliases)
        else:
            idx = sorted(int(v) for v in rng.choice(fine, size=k,
                                                    replace=False))
        mags = rng.uniform(0.5, 1.5, size=k)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
        amps = mags * np.exp(1j * phases)
        groups: dict[int, complex] = {}
        for j, a in zip(idx, amps):
            groups[j % n] = groups.get(j % n, 0.0 + 0.0j) + a
        if min(abs(v) for v in groups.values()) >= 0.3:
            break
    else:
        return None  # could not draw a well-posed instance; skip

    rate = float(length)
    tones = tuple(ToneSpec(mu_hz=2.0 * j, amplitude=complex(a))
                  for j, a in zip(idx, amps))
    spec = SynthSpec(tones=tones, rate_hz=rate, length=length, snr_db=None,
                     seed=0)
    x = synthesize(spec)
    cfg = HybridConfig(u=u, s=s, M=9, threshold=0.25, stream_len=n)
    hybrid = analyze(x, cfg)
    dense = dense_reference(x, 0.25)

    setting = {"u": u, "s": s, "n": n, "indices": idx}
    # The dense components are the truth the hybrid ones must match.
    oracle = replace(spec, tones=tuple(
        ToneSpec(mu_hz=c.freq_hz, amplitude=c.amplitude)
        for c in dense.components))
    report = evaluate(oracle, hybrid, tol_hz=1e-6)
    if report.missed or report.spurious:
        return {**setting, "reason": "support",
                "missed": [t.mu_hz for t in report.missed],
                "spurious": [c.freq_hz for c in report.spurious]}
    for tone, comp, _, amp_err in report.matched:
        if amp_err > 1e-6:
            return {**setting, "reason": "amplitude",
                    "hybrid": comp.amplitude, "dense": tone.amplitude}
    return None


def run_selftest(trials: int = 200, seed: int = 0) -> dict:
    """Noise-free oracle equivalence: the hybrid chain must reproduce the
    dense estimator's support and amplitudes on random small sparse
    instances, collisions included. Returns counts and failure records."""
    rng = np.random.default_rng(seed)
    outcomes = [_selftest_trial(rng) for _ in range(trials)]
    failures = [o for o in outcomes if o is not None]
    return {"trials": len(outcomes), "failures": failures,
            "passed": len(outcomes) - len(failures)}
