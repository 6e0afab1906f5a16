"""End-to-end sparse estimation from shifted undersampled streams.

``analyze`` runs the whole chain: one stream gather, one FFT of the
reference stream, peak picking on it, peak-bin DFTs of the shifted streams,
collision-order estimation and pencil decomposition per peak bin, ambiguity
resolution against the coprime shift step, and a final merge onto the fine
grid. With the shortcut, one K-sample Vandermonde solve stands in for the
peak-bin DFTs of all shifted streams; when its node matrix is too
ill-conditioned, too large or its SVD fails, all of them fall back to the
DFTs at once.

``dense_reference`` is the brute-force single-DFT estimator used for
oracle comparisons and budget studies.

Amplitudes everywhere are in tone units: a unit-amplitude complex tone
sitting on the analysis grid comes back with amplitude 1, whether it went
through the hybrid chain or the dense reference.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .aliasing import (
    DEFAULT_UNIT_TOL,
    Generator,
    bezout,
    candidate_set,
    resolve_bezout,
    resolve_match,
)
from .core import (
    ComplexSignal,
    PeakList,
    Spectrum,
    StreamSpec,
    dft,
    dft_at,
    extract_streams,  # noqa: F401 -- re-exported; tracers patch it here
    select_peaks,
    stream_indices,
)
from .errors import (
    BadShape,
    IllConditionedPencil,
    IllConditionedVandermonde,
    NoConvergence,
    NoIntersection,
    NotCoprime,
    NoUniqueIntersection,
)
from .prony import (
    DEFAULT_EXTRA_TERMS,
    DEFAULT_SIGMA_REL_TOL,
    SVD_DIM_CAP,
    ExponentialTerm,
    PronySequence,
    estimate_order,
    model_residual,
    pencil_decompose,
    svd_small,
)

RESOLVERS = ("match", "bezout")
SHORTCUT_CONDITION_CAP = 1e10


@dataclass(frozen=True)
class HybridConfig:
    """Knobs for one hybrid analysis run.

    u is the undersampling stride, s the stream-to-stream shift (coprime
    with u), M the stream count. ``threshold`` is in tone units: a peak
    survives when its per-sample amplitude reaches it. ``stream_len`` pins
    the per-stream length; None takes the longest the signal supports.
    ``max_peaks`` caps how many reference-stream peaks are pursued, largest
    first; None pursues all of them.

    The remaining tolerances are fixed: pencil roots count within
    ``DEFAULT_UNIT_TOL`` of the unit circle, recoveries merge within half a
    fine bin, and candidate matching uses ``resolve_match``'s defaults.
    """

    u: int
    s: int
    M: int
    threshold: float = 0.1
    resolver: str = "match"
    sigma_rel_tol: float = DEFAULT_SIGMA_REL_TOL
    extra_terms: int = DEFAULT_EXTRA_TERMS
    wrap: bool = False
    shortcut_shifted: bool = False
    stream_len: int | None = None
    max_peaks: int | None = None

    def validate(self) -> None:
        if self.u < 1 or self.s < 1:
            raise ValueError("u and s must be positive integers")
        if math.gcd(self.u, self.s) != 1:
            raise NotCoprime(f"u={self.u} and s={self.s} share a factor")
        if self.M < 2:
            raise ValueError("at least 2 streams are required")
        if not 0 <= self.threshold < math.inf:
            raise ValueError("threshold must be finite and nonnegative")
        if not math.isfinite(self.sigma_rel_tol):
            raise ValueError("sigma_rel_tol must be finite")
        if self.resolver not in RESOLVERS:
            raise ValueError(f"resolver must be one of {RESOLVERS}")
        if self.extra_terms < 0:
            raise ValueError("extra_terms must be nonnegative")
        if self.stream_len is not None and self.stream_len < 1:
            raise ValueError("stream_len must be positive when given")
        if self.max_peaks is not None and self.max_peaks < 1:
            raise ValueError("max_peaks must be positive when given")


@dataclass(frozen=True)
class RecoveredComponent:
    """One estimated tone on the fine grid.

    ``collision_order`` is how many components shared the source bin,
    ``match_distance_hz`` the candidate-set agreement of the resolution
    (zero for the Bezout resolver), ``residual`` the relative model misfit
    of the pencil fit this term came from.
    """

    freq_hz: float
    amplitude: complex
    source_bin: int
    collision_order: int
    match_distance_hz: float = 0.0
    residual: float = 0.0

    @property
    def magnitude(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class SparseSpectrum:
    """Analysis result: components, the config that produced them, and
    run diagnostics (per-bin order estimates, sample counts, failures)."""

    components: tuple[RecoveredComponent, ...]
    config: HybridConfig | None
    rate_hz: float
    resolution_hz: float
    diagnostics: dict = field(default_factory=dict)


def build_prony_sequences(coeffs: np.ndarray, bins: list[int],
                          shift_step: int) -> dict[int, PronySequence]:
    """P(m) = coeffs[m, j] down the stream axis, keyed by the j-th bin.

    ``coeffs`` holds the M stream DFT values at ``bins``, one column each.
    """
    return {b: PronySequence(values=coeffs[:, j].copy(),
                             shift_step=shift_step)
            for j, b in enumerate(bins)}


def shifted_coeffs_shortcut(
        x: ComplexSignal, peaks: PeakList, spec: StreamSpec,
        m: int | Sequence[int]) -> tuple[np.ndarray, float]:
    """Shifted-stream DFT values at the peak bins from only K samples each.

    Stream m restricted to the K peak bins obeys, at sample l,
    sum_k y_k * z_k^l with nodes z_k = exp(2i pi bin_k / n). Solving the
    K x K Vandermonde system against (x[u*l + m*s])_{l<K} therefore yields
    the stream-m DFT values (n * y) without touching the other n - K
    samples. The node matrix depends only on the bins and n, so a sequence
    of streams shares one SVD, one condition check and one solve. Returns
    (values aligned with the peak order, condition number of the node
    matrix): one row per stream for a sequence ``m``, a vector for an int.

    Raises:
        IllConditionedVandermonde: node condition beyond 1e10; callers fall
            back to the full streams' DFTs at the peak bins.
        BadShape: more peaks than the stream length or ``svd_small``'s
            dimension cap; callers fall back too.
        NoConvergence: the node-matrix SVD failed; callers fall back too.
    """
    streams = np.asarray(m, dtype=np.int64).reshape(-1)
    if np.any(streams < 1):
        raise ValueError("shortcut applies to shifted streams (m >= 1)")
    n = spec.resolve_length(len(x))
    bins = list(peaks.bin_indices())
    k = len(bins)
    if k > min(n, SVD_DIM_CAP):
        raise BadShape(f"{k} peaks exceed stream length {n} or the "
                       f"{SVD_DIM_CAP} node-matrix cap")
    if k == 0:
        values, cond = np.zeros((streams.size, 0), dtype=np.complex128), 1.0
    else:
        rhs = x.samples[stream_indices(spec, len(x), streams, n=k)].T
        nodes = np.exp(2j * np.pi * np.asarray(bins, dtype=float) / n)
        vand = nodes[None, :] ** np.arange(k)[:, None]
        _, sv, _ = svd_small(vand)
        cond = math.inf if sv[-1] <= 0.0 else float(sv[0] / sv[-1])
        if cond > SHORTCUT_CONDITION_CAP:
            raise IllConditionedVandermonde(
                f"node condition {cond:.3e} beyond "
                f"{SHORTCUT_CONDITION_CAP:.0e}")
        values = n * np.linalg.solve(vand, rhs).T
    return (values if np.ndim(m) else values[0]), cond


def _two_sample_terms(seq: PronySequence) -> list[ExponentialTerm]:
    # With only two streams the ratio P(1)/P(0) is the whole model; this is
    # the no-collision fallback when a pencil cannot be formed.
    p0, p1 = complex(seq.values[0]), complex(seq.values[1])
    if p0 == 0:
        raise IllConditionedPencil("reference coefficient is zero")
    z = p1 / p0
    if z == 0 or not cmath.isfinite(z):
        raise IllConditionedPencil(f"two-stream ratio {z} is not usable")
    return [ExponentialTerm(amplitude=p0, z=z)]


def _merge_components(comps: list[RecoveredComponent], tol_hz: float,
                      rate_hz: float) -> list[RecoveredComponent]:
    if len(comps) < 2:
        return comps
    comps = sorted(comps, key=lambda c: c.freq_hz)
    clusters: list[list[RecoveredComponent]] = [[comps[0]]]
    for c in comps[1:]:
        if c.freq_hz - clusters[-1][-1].freq_hz <= tol_hz:
            clusters[-1].append(c)
        else:
            clusters.append([c])
    if len(clusters) > 1:
        # Frequencies are circular: close the seam at 0 / rate.
        if comps[0].freq_hz + rate_hz - comps[-1].freq_hz <= tol_hz:
            clusters[0] = clusters.pop() + clusters[0]
    merged = []
    for cluster in clusters:
        total = sum(c.amplitude for c in cluster)
        rep = max(cluster, key=lambda c: (abs(c.amplitude), -c.freq_hz))
        merged.append(replace(rep, amplitude=complex(total)))
    return merged


def analyze(x: ComplexSignal, cfg: HybridConfig) -> SparseSpectrum:
    """Recover a sparse spectrum at full-grid resolution from M streams.

    Per-peak failures (unresolvable ambiguity, degenerate pencil, an SVD
    that does not converge) are recorded in diagnostics["failures"] and do
    not abort the run. The run is deterministic for a fixed config and
    input.
    """
    cfg.validate()
    spec = StreamSpec(u=cfg.u, s=cfg.s, M=cfg.M, n=cfg.stream_len,
                      wrap=cfg.wrap)
    n = spec.resolve_length(len(x))
    pinned = StreamSpec(u=cfg.u, s=cfg.s, M=cfg.M, n=n, wrap=cfg.wrap)
    rate = x.rate_hz
    fine_res = rate / (cfg.u * n)
    read = np.zeros(len(x), dtype=bool)
    shortcut_conds: list[float] = []
    shortcut_fallbacks = 0

    # All M streams in one gather (the shortcut reads only stream 0 in
    # full). Peak picking needs the whole reference spectrum; the shifted
    # streams are only needed at the peak bins.
    idx = stream_indices(pinned, len(x),
                         [0] if cfg.shortcut_shifted else None)
    read[idx] = True
    rows = x.samples[idx]
    reference = np.fft.fft(rows[0])
    peaks = select_peaks(Spectrum(bins=reference, bin_hz=rate / cfg.u / n),
                         cfg.threshold * n)
    if cfg.max_peaks is not None and len(peaks.entries) > cfg.max_peaks:
        peaks = PeakList(entries=peaks.entries[:cfg.max_peaks],
                         threshold=peaks.threshold)
    peak_bins = list(peaks.bin_indices())

    coeffs = np.empty((cfg.M, len(peak_bins)), dtype=np.complex128)
    coeffs[0] = reference[peak_bins]
    per_stream_samples = [n] * cfg.M
    if cfg.shortcut_shifted:
        shifted = range(1, cfg.M)
        try:
            coeffs[1:], cond = shifted_coeffs_shortcut(x, peaks, pinned,
                                                       shifted)
        except (IllConditionedVandermonde, BadShape, NoConvergence):
            # One node matrix serves every shifted stream, so they all
            # fall back together to the full path below.
            shortcut_fallbacks = cfg.M - 1
            idx = stream_indices(pinned, len(x))
            read[idx] = True
            rows = x.samples[idx]
        else:
            shortcut_conds = [cond] * (cfg.M - 1)
            per_stream_samples[1:] = [len(peak_bins)] * (cfg.M - 1)
            read[stream_indices(pinned, len(x), shifted,
                                n=len(peak_bins))] = True
    if len(rows) == cfg.M:  # every stream read in full
        coeffs[1:] = dft_at(rows[1:], peak_bins)
    sequences = build_prony_sequences(coeffs, peak_bins, cfg.s)

    components: list[RecoveredComponent] = []
    failures: list[dict] = []
    bin_reports: list[dict] = []
    bez = bezout(cfg.u, cfg.s) if cfg.resolver == "bezout" else None

    for b in peak_bins:
        seq = sequences[b]
        gen_u = Generator(value=complex(np.exp(2j * np.pi * b / n)),
                          step=cfg.u)
        u_set = candidate_set(gen_u, rate)
        try:
            if cfg.M == 2:
                rank = 1
                gap = math.inf
                terms = _two_sample_terms(seq)
            else:
                est = estimate_order(seq, cfg.sigma_rel_tol)
                rank = est.rank
                gap = est.gap_ratio
                if rank == 0:
                    bin_reports.append({"bin": b, "rank": 0, "gap": gap,
                                        "kept": 0, "residual": 0.0})
                    continue
                cap = (cfg.M - 1) // 2
                fit_order = min(cap, rank + cfg.extra_terms)
                terms = pencil_decompose(seq, fit_order)
            residual = model_residual(seq, terms)
            on_circle = [t for t in terms
                         if abs(abs(t.z) - 1.0) <= DEFAULT_UNIT_TOL]
            kept = on_circle[:rank]
            for term in kept:
                gen_s = Generator(value=term.z, step=cfg.s)
                if cfg.resolver == "bezout":
                    freq, _ = resolve_bezout(gen_u, gen_s, bez, rate)
                    dist = 0.0
                else:
                    s_set = candidate_set(gen_s, rate)
                    freq, dist = resolve_match(u_set, s_set)
                components.append(RecoveredComponent(
                    freq_hz=float(freq),
                    amplitude=complex(term.amplitude) / n,
                    source_bin=int(b),
                    collision_order=len(kept),
                    match_distance_hz=float(dist),
                    residual=residual))
            bin_reports.append({"bin": b, "rank": rank, "gap": gap,
                                "kept": len(kept), "residual": residual})
        except (NoIntersection, NoUniqueIntersection, IllConditionedPencil,
                BadShape, NoConvergence) as exc:
            failures.append({"bin": int(b), "error": type(exc).__name__,
                             "detail": str(exc)})

    components = _merge_components(components, fine_res / 2.0, rate)
    components.sort(key=lambda c: (-abs(c.amplitude), c.freq_hz))

    diagnostics = {
        "stream_length": n,
        "fine_grid_size": cfg.u * n,
        "samples_used": int(np.count_nonzero(read)),
        "per_stream_samples": per_stream_samples,
        "peak_bins": [int(b) for b in peak_bins],
        "bin_reports": bin_reports,
        "failures": failures,
        "resolver": cfg.resolver,
        "shortcut_shifted": cfg.shortcut_shifted,
        "shortcut_conditions": shortcut_conds,
        "shortcut_fallbacks": shortcut_fallbacks,
    }
    if bez is not None:
        diagnostics["bezout_pair"] = (bez.t, bez.v)
    return SparseSpectrum(components=tuple(components), config=cfg,
                          rate_hz=rate, resolution_hz=fine_res,
                          diagnostics=diagnostics)


def dense_reference(x: ComplexSignal, threshold: float) -> SparseSpectrum:
    """Single full-length DFT estimator over the same tone-unit threshold.

    The baseline the hybrid is judged against: every bin of the full
    transform whose per-sample amplitude reaches the threshold becomes a
    component.
    """
    big = len(x)
    spectrum = dft(x)
    peaks = select_peaks(spectrum, threshold * big)
    comps = []
    for b, _ in peaks.entries:
        comps.append(RecoveredComponent(
            freq_hz=float(b * spectrum.bin_hz),
            amplitude=complex(spectrum.bins[b]) / big,
            source_bin=int(b),
            collision_order=1))
    comps.sort(key=lambda c: (-abs(c.amplitude), c.freq_hz))
    diagnostics = {"samples_used": big, "fine_grid_size": big}
    return SparseSpectrum(components=tuple(comps), config=None,
                          rate_hz=x.rate_hz, resolution_hz=x.rate_hz / big,
                          diagnostics=diagnostics)
