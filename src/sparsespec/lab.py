"""Synthetic signals, recovery metrics, and reproducible experiment runs.

Signals are sums of complex tones with optional calibrated circular Gaussian
noise. The experiment runners write per-run directories of CSV panels (short
DFT magnitudes, recovered vs dense spectra, per-bin coefficient sequences)
plus a plain-text manifest, so results can be plotted and diffed externally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aliasing import circular_distance_hz
from .core import ComplexSignal, StreamSpec, stream_view
from .pipeline import (
    HybridConfig,
    RecoveredComponent,
    SparseSpectrum,
    analyze,
    build_prony_sequences,
    dense_reference,
)
from .prony import estimate_order

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
class ToneSpec:
    """One complex tone: frequency mu (Hz) and complex amplitude."""

    mu_hz: float
    amplitude: complex

    def __post_init__(self):
        if not (math.isfinite(self.mu_hz)
                and math.isfinite(abs(self.amplitude))):
            raise ValueError("tone parameters must be finite")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic record; same seed, same bytes out."""

    tones: tuple[ToneSpec, ...]
    rate_hz: float
    length: int
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")


@dataclass(frozen=True)
class EvalReport:
    """Greedy matching of recovered components against true tones."""

    matched: tuple[tuple[ToneSpec, RecoveredComponent, float, float], ...]
    missed: tuple[ToneSpec, ...]
    spurious: tuple[RecoveredComponent, ...]
    precision: float
    recall: float


def synthesize(spec: SynthSpec) -> ComplexSignal:
    """Sum of tones x_l = sum_i alpha_i exp(2i pi mu_i l / R), plus noise.

    With snr_db set, circular complex Gaussian noise is added with total
    variance sigma^2 = (mean clean power) / 10^(snr_db/10), split evenly
    between real and imaginary parts.
    """
    l = np.arange(spec.length)
    x = np.zeros(spec.length, dtype=np.complex128)
    for tone in spec.tones:
        x += tone.amplitude * np.exp(
            2j * np.pi * tone.mu_hz * l / spec.rate_hz)
    if spec.snr_db is not None:
        power = float(np.mean(np.abs(x) ** 2))
        if power > 0:
            sigma2 = power / (10.0 ** (spec.snr_db / 10.0))
            rng = np.random.default_rng(spec.seed)
            scale = math.sqrt(sigma2 / 2.0)
            noise = rng.standard_normal(spec.length) \
                + 1j * rng.standard_normal(spec.length)
            x = x + scale * noise
    return ComplexSignal(samples=x, rate_hz=spec.rate_hz)


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


def _fmt(value) -> str:
    return repr(float(value))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(path: Path, entries: list[tuple[str, object]]) -> None:
    _write_lines(path, [f"{key} = {value}" for key, value in entries])


def _spectrum_rows(label: str, comps) -> list[str]:
    rows = []
    for c in comps:
        rows.append(",".join([
            label, _fmt(c.freq_hz), _fmt(c.amplitude.real),
            _fmt(c.amplitude.imag), _fmt(abs(c.amplitude))]))
    return rows


def _write_spectra_csv(path: Path, hybrid: SparseSpectrum,
                       dense: SparseSpectrum) -> None:
    lines = ["source,freq_hz,re,im,magnitude"]
    lines += _spectrum_rows("hybrid", hybrid.components)
    lines += _spectrum_rows("dense", dense.components)
    _write_lines(path, lines)


def _write_streams_csv(path: Path, spectra: np.ndarray,
                       bin_hz: float) -> None:
    header = "bin_index,freq_hz," + ",".join(
        f"mag_{m}" for m in range(len(spectra)))
    lines = [header]
    for b in range(spectra.shape[1]):
        cells = [str(b), _fmt(b * bin_hz)]
        cells += [_fmt(abs(v)) for v in spectra[:, b]]
        lines.append(",".join(cells))
    _write_lines(path, lines)


def _write_prony_csv(path: Path, seq, sigma) -> None:
    lines = ["index,p_re,p_im,p_abs,sigma"]
    for i, val in enumerate(seq.values):
        cells = [str(i), _fmt(val.real), _fmt(val.imag), _fmt(abs(val))]
        cells.append(_fmt(sigma[i]) if i < len(sigma) else "")
        lines.append(",".join(cells))
    _write_lines(path, lines)


def _write_eval_csv(path: Path, report: EvalReport) -> None:
    lines = ["status,true_mu_hz,true_re,true_im,"
             "rec_freq_hz,rec_re,rec_im,freq_err_hz,amp_err"]
    for tone, comp, ferr, aerr in report.matched:
        lines.append(",".join([
            "matched", _fmt(tone.mu_hz), _fmt(tone.amplitude.real),
            _fmt(tone.amplitude.imag), _fmt(comp.freq_hz),
            _fmt(comp.amplitude.real), _fmt(comp.amplitude.imag),
            _fmt(ferr), _fmt(aerr)]))
    for tone in report.missed:
        lines.append(",".join([
            "missed", _fmt(tone.mu_hz), _fmt(tone.amplitude.real),
            _fmt(tone.amplitude.imag), "", "", "", "", ""]))
    for comp in report.spurious:
        lines.append(",".join([
            "spurious", "", "", "", _fmt(comp.freq_hz),
            _fmt(comp.amplitude.real), _fmt(comp.amplitude.imag), "", ""]))
    _write_lines(path, lines)


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
    eval.csv.
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
        spectra = np.fft.fft(stream_view(
            x.samples, StreamSpec(u=cfg.u, s=cfg.s, M=cfg.M, n=n)), axis=1)
        _write_streams_csv(run_dir / "streams.csv", spectra,
                           x.rate_hz / cfg.u / n)
        _write_spectra_csv(run_dir / "spectrum.csv", hybrid, dense)
        _write_eval_csv(run_dir / "eval.csv", report)
        bins = hybrid.diagnostics["peak_bins"]
        sequences = build_prony_sequences(spectra[:, bins], bins, cfg.s)
        for b, seq in sequences.items():
            est = estimate_order(seq, hybrid.diagnostics["noise_sigma"])
            _write_prony_csv(run_dir / f"prony_{b}.csv", seq,
                             est.singular_values)
        _write_manifest(run_dir / "config.txt", [
            ("signal", k + 1),
            ("seed", spec.seed),
            ("rate_hz", _fmt(spec.rate_hz)),
            ("length", spec.length),
            ("snr_db", "none" if spec.snr_db is None else _fmt(spec.snr_db)),
            ("u", cfg.u), ("s", cfg.s), ("M", cfg.M),
            ("threshold", _fmt(cfg.threshold)),
            ("stream_length", n),
            ("samples_used", hybrid.diagnostics["samples_used"]),
            ("resolution_hz", _fmt(hybrid.resolution_hz)),
            ("components", len(hybrid.components)),
            ("noise_sigma", _fmt(hybrid.diagnostics["noise_sigma"])),
            ("recall", _fmt(report.recall)),
            ("precision", _fmt(report.precision)),
        ])
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
    return HybridConfig(u=142, s=7, M=M, threshold=0.25, max_peaks=64)


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

    _write_spectra_csv(out / "spectrum.csv", hybrid, dense)
    _write_eval_csv(out / "eval.csv", report)
    zoom_lines = ["window,center_hz,source,freq_hz,re,im,magnitude"]
    for w, group in enumerate(_mu_clusters(EXPERIMENT_2_MUS)):
        center = sum(group) / len(group)
        for label, result in (("hybrid", hybrid), ("dense", dense)):
            for c in result.components:
                if abs(c.freq_hz - center) <= 2.0:
                    zoom_lines.append(",".join([
                        str(w), _fmt(center), label, _fmt(c.freq_hz),
                        _fmt(c.amplitude.real), _fmt(c.amplitude.imag),
                        _fmt(abs(c.amplitude))]))
    _write_lines(out / "zoom.csv", zoom_lines)

    n = hybrid.diagnostics["stream_length"]
    used = hybrid.diagnostics["samples_used"]
    _write_manifest(out / "config.txt", [
        ("seed", seed),
        ("rate_hz", _fmt(spec.rate_hz)),
        ("length", spec.length),
        ("snr_db", "none" if snr_db is None else _fmt(snr_db)),
        ("u", cfg.u), ("s", cfg.s), ("M", cfg.M),
        ("threshold", _fmt(cfg.threshold)),
        ("stream_length", n),
        ("samples_used", used),
        ("reference_sample_count", EXPERIMENT_2_REFERENCE_SAMPLES),
        ("dense_sample_count", spec.length),
        ("effective_resolution_hz", _fmt(hybrid.resolution_hz)),
        ("budget_dense_resolution_hz", _fmt(spec.rate_hz / used)),
        ("full_dense_resolution_hz", _fmt(spec.rate_hz / spec.length)),
        ("components", len(hybrid.components)),
        ("noise_sigma", _fmt(hybrid.diagnostics["noise_sigma"])),
        ("recall", _fmt(report.recall)),
        ("precision", _fmt(report.precision)),
    ])
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
    if len(hybrid.components) != len(dense.components):
        return {**setting, "reason": "support size",
                "hybrid": len(hybrid.components),
                "dense": len(dense.components)}
    # Frequencies live on a circle; pair each dense component with the
    # circularly nearest unused hybrid component.
    remaining = list(hybrid.components)
    for dc in sorted(dense.components, key=lambda c: c.freq_hz):
        hc = min(remaining, key=lambda c: circular_distance_hz(
            c.freq_hz, dc.freq_hz, rate))
        remaining.remove(hc)
        if circular_distance_hz(hc.freq_hz, dc.freq_hz, rate) > 1e-6:
            return {**setting, "reason": "frequency",
                    "hybrid": hc.freq_hz, "dense": dc.freq_hz}
        if abs(hc.amplitude - dc.amplitude) > 1e-6:
            return {**setting, "reason": "amplitude",
                    "hybrid": hc.amplitude, "dense": dc.amplitude}
    return None


def run_selftest(trials: int = 200, seed: int = 0) -> dict:
    """Noise-free oracle equivalence: the hybrid chain must reproduce the
    dense estimator's support and amplitudes on random small sparse
    instances, collisions included. Returns counts and failure records."""
    rng = np.random.default_rng(seed)
    failures = []
    ran = 0
    for _ in range(trials):
        outcome = _selftest_trial(rng)
        ran += 1
        if outcome is not None:
            failures.append(outcome)
    return {"trials": ran, "failures": failures,
            "passed": ran - len(failures)}
