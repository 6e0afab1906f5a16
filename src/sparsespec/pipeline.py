"""End-to-end sparse estimation from shifted undersampled streams.

``analyze`` composes four stages: ``plan`` pins the stream plan against
the record's length, ``detect`` gathers the streams and confirms the peak
bins against the noise deviation sigma of the reference spectrum, ``fit``
estimates each confirmed bin's collision order and fits its pencil, and
``resolve`` pairs each term with its bin against the coprime shift step
and merges the components onto the fine grid.

``dense_reference`` is the brute-force single-DFT estimator used for
oracle comparisons and budget studies.

Amplitudes everywhere are in tone units: a unit-amplitude complex tone
sitting on the analysis grid comes back with amplitude 1, whether it went
through the hybrid chain or the dense reference.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .aliasing import (
    BezoutPair,
    angle_cycles,
    bezout,
    candidate_set,  # noqa: F401 -- re-exported; tracers patch it here
    resolve_bezout,
    resolve_match,
)
from .core import (
    ComplexSignal,
    StreamSpec,
    dft,
    dft_at,
    extract_streams,  # noqa: F401 -- re-exported; tracers patch it here
    run_aside,
    select_peaks,
    stream_view,
)
from .errors import (
    BadShape,
    IllConditionedPencil,
    IllConditionedVandermonde,
    NoConvergence,
    NoUniqueIntersection,
)
from .prony import (
    SVD_DIM_CAP,
    estimate_noise,
    estimate_order,
    model_residual,
    pencil_decompose,
    svd_small,
)

RESOLVERS = ("match", "bezout")
# How far from the unit circle a pencil root may sit and still count as a
# tone: the root filter in ``fit``.
DEFAULT_UNIT_TOL = 0.2
SHORTCUT_CONDITION_CAP = 1e10
# Noise-only false-alarm rates of the two detection stages: per reference
# bin for a candidate, per record for a confirmed peak bin.
CANDIDATE_FALSE_ALARM = 0.1
CONFIRM_FALSE_ALARM = 0.01

# Per-thread work arrays of ``detect``, kept between calls (see there).
_work = threading.local()


@dataclass(frozen=True)
class HybridConfig:
    """Knobs for one hybrid analysis run.

    u is the undersampling stride, s the stream-to-stream shift (coprime
    with u), M the stream count. ``threshold`` is in tone units: a peak
    survives when its per-sample amplitude reaches it. ``stream_len`` pins
    the per-stream length; None takes the longest the signal supports.

    A config validates itself when built, by ``dataclasses.replace`` too:
    M >= 2, a finite non-negative ``threshold`` and a known ``resolver``
    here, the geometry by building the ``StreamSpec`` it describes.

    The remaining tolerances are fixed. How many peaks are pursued follows
    from the noise deviation sigma that ``estimate_noise`` reads off the
    reference spectrum, in two stages. A reference bin is a candidate when
    its magnitude reaches both ``threshold`` * n and sigma * sqrt(ln 10),
    which noise alone does in ``CANDIDATE_FALSE_ALARM`` = 0.1 of the bins.
    A candidate is confirmed when the mean of |X_m|^2 over the first
    k = min(M, u) streams reaches sigma^2 times the Gamma(k, 1/k) quantile
    at 1 - ``CONFIRM_FALSE_ALARM`` / n, so noise alone confirms about 0.01
    bins per record. Those k streams read disjoint samples; stream m + u is
    stream m shifted by s and repeats its noise, so it is left out.
    ``select_peaks`` drops peaks under ``PEAK_FLOOR_REL`` of the largest,
    ``estimate_order`` counts a confirmed bin's tones above sigma on the
    Hankel of its M coefficients, ``pencil_decompose`` fits at most
    max(1, (M - 1) // 2) of them (one at M = 2, the ratio P(1) / P(0)),
    pencil roots count within ``DEFAULT_UNIT_TOL`` of the unit circle,
    recoveries merge within half a fine bin, and ``resolve_match`` fixes
    the alias-pairing tolerances.
    """

    u: int
    s: int
    M: int
    threshold: float = 0.1
    resolver: str = "match"
    wrap: bool = False
    shortcut_shifted: bool = False
    stream_len: int | None = None

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("at least 2 streams are required")
        if not 0 <= self.threshold < math.inf:
            raise ValueError("threshold must be finite and nonnegative")
        if self.resolver not in RESOLVERS:
            raise ValueError(f"resolver must be one of {RESOLVERS}")
        StreamSpec(u=self.u, s=self.s, M=self.M, n=self.stream_len)


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


def build_prony_sequences(coeffs: np.ndarray,
                          bins: list[int]) -> dict[int, np.ndarray]:
    """p[m] = coeffs[m, j] down the stream axis, keyed by the j-th bin.

    ``coeffs`` holds the M stream DFT values at ``bins``, one column each;
    each sequence is a contiguous copy of its column.
    """
    return {b: coeffs[:, j].copy() for j, b in enumerate(bins)}


def shifted_coeffs_shortcut(x: ComplexSignal, bins: list[int],
                            spec: StreamSpec) -> tuple[np.ndarray, float]:
    """Shifted-stream DFT values at the peak bins from only K samples each.

    Stream m restricted to the K peak bins obeys, at sample l,
    sum_k y_k * z_k^l with nodes z_k = exp(2i pi bin_k / n). Solving the
    K x K Vandermonde system against (x[u*l + m*s])_{l<K} therefore yields
    the stream-m DFT values (n * y) without touching the other n - K
    samples. The node matrix depends only on the bins and n, so streams
    1..M-1 of the plan share one SVD, one condition check and one solve.
    Returns (the (M - 1) x K values, one row per shifted stream and one
    column per bin, condition number of the node matrix).

    Raises:
        IllConditionedVandermonde: node condition beyond 1e10; callers fall
            back to the full streams' DFTs at the peak bins.
        BadShape: more peaks than the stream length or ``svd_small``'s
            dimension cap; callers fall back too.
        NoConvergence: the node-matrix SVD failed; callers fall back too.
    """
    streams = stream_view(x.samples, spec)
    n, k = streams.shape[1], len(bins)
    if k > min(n, SVD_DIM_CAP):
        raise BadShape(f"{k} peaks exceed stream length {n} or the "
                       f"{SVD_DIM_CAP} node-matrix cap")
    if k == 0:
        return np.zeros((spec.M - 1, 0), dtype=np.complex128), 1.0
    nodes = np.exp(2j * np.pi * np.asarray(bins, dtype=float) / n)
    vand = nodes[None, :] ** np.arange(k)[:, None]
    _, sv, _ = svd_small(vand)
    cond = math.inf if sv[-1] <= 0.0 else float(sv[0] / sv[-1])
    if cond > SHORTCUT_CONDITION_CAP:
        raise IllConditionedVandermonde(
            f"node condition {cond:.3e} beyond "
            f"{SHORTCUT_CONDITION_CAP:.0e}")
    return n * np.linalg.solve(vand, streams[1:, :k].T).T, cond


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
        if len(cluster) > 1:
            rep = max(cluster, key=lambda c: (abs(c.amplitude), -c.freq_hz))
            total = complex(sum(c.amplitude for c in cluster))
            cluster = [replace(rep, amplitude=total)]
        merged.extend(cluster)
    return merged


@lru_cache(maxsize=128)
def noise_power_quantile(m: int, p: float) -> float:
    """The level, in units of sigma^2, that the mean of |X|^2 over m
    streams of noise alone reaches with probability p (0 < p < 1).

    That mean is Gamma(m, 1/m): for x = m * level its tail is
    exp(-x) * sum_{j<m} x^j / j!. The log of the tail is concave in x, so
    Newton's method on it converges from any x > 0, from above after the
    first step.
    """
    log_p = math.log(p)
    x = m - log_p
    for _ in range(100):
        # The tail's sum over its last term, x^(m-1) / (m-1)!, by Horner;
        # -1/r is the log tail's slope.
        r = 1.0
        for j in range(1, m):
            r = 1.0 + r * j / x
        log_tail = (m - 1) * math.log(x) - x - math.lgamma(m) + math.log(r)
        step = (log_tail - log_p) * r
        x += step
        if abs(step) <= 1e-12 * x:
            break
    return x / m


def _work_array(name: str, size: int, dtype) -> np.ndarray:
    """This thread's kept work array ``name``, replaced unless it holds
    ``size`` elements. The contents are whatever the last call left."""
    a = getattr(_work, name, None)
    if a is None or a.size != size:
        a = np.empty(size, dtype)
        setattr(_work, name, a)
    return a


def plan(cfg: HybridConfig, length: int) -> StreamSpec:
    """The config's stream plan with its per-stream length pinned against
    a record of ``length`` samples; reads no samples. Raises
    IndexBudgetExceeded for a record ``analyze`` rejects."""
    spec = StreamSpec(u=cfg.u, s=cfg.s, M=cfg.M, n=cfg.stream_len,
                      wrap=cfg.wrap)
    return replace(spec, n=spec.resolve_length(length))


def detect(x: ComplexSignal, cfg: HybridConfig, spec: StreamSpec
           ) -> tuple[float, list[int], np.ndarray, int, dict]:
    """Gather the plan's streams and find the confirmed peak bins.

    Returns sigma, the bins, their M x K coefficients (column j for bin
    j), the number of distinct record samples read and the gather's
    diagnostics (``per_stream_samples``, ``peak_candidates``,
    ``shortcut_conditions``, ``shortcut_fallbacks``).

    Each thread keeps its read mask (1 byte per record sample, whole
    periods of it for a wrapping plan) and its reference stream (16 bytes
    per stream sample, transformed in place) between calls, reused at the
    same sizes: allocated afresh, arrays that size fault their pages in
    again on every call, about 1,500 faults on a 2^20-sample record at
    u = 16 with glibc. Nothing returned refers to them.

    Without the shortcut, the gather of all M streams (M * n samples)
    runs on a helper thread from ``run_aside`` while this thread copies
    stream 0 on its own, transforms it and picks the candidates; the
    helper is joined before this call goes on or raises. The helper calls
    nothing a tracer patches. The gathered values are copies either way,
    so the bits do not depend on which thread made them.
    """
    n, M = spec.n, cfg.M
    # The read mask covers whole periods of the record, so a wrapping plan
    # marks its periodic extension, folded back onto the record at the end.
    read = _work_array("read", -(-spec.span(n) // len(x)) * len(x), bool)
    read.fill(False)
    marks = stream_view(read, spec, writeable=True)
    streams = stream_view(x.samples, spec)

    # All M streams are gathered in one column-major copy, so that
    # dft_at's blocked products read the shifted streams' columns without
    # another copy. The shortcut reads only stream 0 in full and K samples
    # of each other stream, and gathers them all only when it falls back,
    # inline. Candidate picking needs the whole reference spectrum, the
    # shifted streams only the candidates. This thread allocates the copy:
    # allocated on the helper, glibc serves it from the helper's own arena
    # and a 2^20-sample run kept up to 16 MB more at its peak.
    def gather(rows: np.ndarray) -> None:
        marks[:] = True
        rows[...] = streams

    rows = join = None
    if not cfg.shortcut_shifted:
        rows = np.empty((M, n), np.complex128, order="F")
        join = run_aside(partial(gather, rows), M * n)
    try:
        reference = _work_array("reference", n, np.complex128)
        # Copied from the gathered rows while they are in cache, unless a
        # helper is still writing them.
        reference[:] = streams[0] if join or rows is None else rows[0]
        # An overflow is reported once, by select_peaks, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            np.fft.fft(reference, out=reference)
        noise = estimate_noise(reference)
        floor = noise * math.sqrt(-math.log(CANDIDATE_FALSE_ALARM))
        candidates = select_peaks(reference, max(cfg.threshold * n, floor))
    finally:
        # The helper writes this thread's read mask: it must be done before
        # the next call can clear it.
        if join:
            join()
    K = len(candidates)
    gathered = {"per_stream_samples": [n] * M, "peak_candidates": K,
                "shortcut_conditions": [], "shortcut_fallbacks": 0}

    coeffs = np.empty((M, K), dtype=np.complex128)
    coeffs[0] = reference[candidates]
    if cfg.shortcut_shifted:
        try:
            coeffs[1:], cond = shifted_coeffs_shortcut(x, candidates, spec)
        except (IllConditionedVandermonde, BadShape, NoConvergence):
            # One node matrix serves every shifted stream, so they all
            # fall back together to the full path below.
            gathered["shortcut_fallbacks"] = M - 1
            rows = np.empty((M, n), np.complex128, order="F")
            gather(rows)
        else:
            gathered["shortcut_conditions"] = [cond] * (M - 1)
            gathered["per_stream_samples"][1:] = [K] * (M - 1)
            marks[0] = True
            marks[1:, :K] = True
    if rows is not None:  # every stream read in full
        coeffs[1:] = dft_at(rows[1:], candidates)

    # Confirm on the first k = min(M, u) streams. They read disjoint
    # samples (gcd(u, s) = 1); stream m + u reads stream m's samples shifted
    # by s and would repeat its noise. The rms is compared in amplitude
    # units, so that sigma is never squared, and a NaN or overflowing bin is
    # kept to fail on its own.
    k = min(M, cfg.u)
    level = noise * math.sqrt(noise_power_quantile(
        k, CONFIRM_FALSE_ALARM / n))
    keep = ~(np.sqrt(np.square(np.abs(coeffs[:k])).sum(0) / k) < level)
    bins = [b for b, ok in zip(candidates, keep.tolist()) if ok]
    if read.size > len(x):
        read = read.reshape(-1, len(x)).any(0)
    used = int(np.count_nonzero(read))
    return noise, bins, coeffs[:, keep], used, gathered


def fit(coeffs: np.ndarray, bins: list[int], noise: float, M: int
        ) -> tuple[list[dict], list[list[tuple[complex, complex]]]]:
    """Order estimate and pencil fit of each bin's column of ``coeffs``.

    Returns one report per bin (the ``bin_reports`` of ``analyze``) and
    the bin's terms (pencil root, amplitude) within ``DEFAULT_UNIT_TOL`` of
    the unit circle. A failed fit records its error in the report and has
    no terms.
    """
    reports, terms = [], []
    for b, p in build_prony_sequences(coeffs, bins).items():
        report = {"bin": b, "rank": 0, "gap": math.inf, "kept": 0,
                  "residual": 0.0, "error": None, "singular_values": [],
                  "sequence": p.tolist()}
        reports.append(report)
        terms.append(kept := [])
        try:
            est = estimate_order(p, noise)
            report.update(rank=est.rank, gap=est.gap_ratio,
                          singular_values=est.singular_values.tolist())
            if est.rank == 0:
                continue
            zs, amps = pencil_decompose(
                p, min(max(1, (M - 1) // 2), est.rank), est.vectors)
            report["residual"] = model_residual(p, zs, amps)
            kept += [(z, amp) for z, amp in zip(zs.tolist(), amps.tolist())
                     if abs(abs(z) - 1.0) <= DEFAULT_UNIT_TOL]
        except (IllConditionedPencil, BadShape, NoConvergence) as exc:
            report.update(error=type(exc).__name__, detail=str(exc))
    return reports, terms


def resolve(reports: list[dict], terms: list[list[tuple[complex, complex]]],
            spec: StreamSpec, rate_hz: float,
            bez: BezoutPair | None) -> list[RecoveredComponent]:
    """Each bin's terms paired into components (by ``resolve_bezout`` when
    ``bez`` is given), merged within half a fine bin and strongest first.

    A term that cannot be paired records its error on the bin's report and
    is skipped: each term pairs from its own root, so the bin's other
    terms still pair, and ``kept`` counts those that did.
    """
    n = spec.n
    components: list[RecoveredComponent] = []
    for report, kept in zip(reports, terms):
        b = report["bin"]
        a_u = angle_cycles(complex(np.exp(2j * np.pi * b / n)))
        for z, amp in kept:
            a_s = angle_cycles(z)
            try:
                if bez is not None:
                    freq, _ = resolve_bezout(a_u, a_s, bez, rate_hz)
                    dist = 0.0
                else:
                    freq, dist = resolve_match(a_u, spec.u, a_s, spec.s,
                                               rate_hz)
            except NoUniqueIntersection as exc:
                report.update(error=type(exc).__name__, detail=str(exc))
                continue
            components.append(RecoveredComponent(
                freq_hz=float(freq), amplitude=amp / n, source_bin=int(b),
                collision_order=len(kept), match_distance_hz=float(dist),
                residual=report["residual"]))
            report["kept"] += 1
    fine_res = rate_hz / (spec.u * n)
    components = _merge_components(components, fine_res / 2.0, rate_hz)
    components.sort(key=lambda c: (-abs(c.amplitude), c.freq_hz))
    return components


def analyze(x: ComplexSignal, cfg: HybridConfig) -> SparseSpectrum:
    """Recover a sparse spectrum at full-grid resolution from M streams.

    ``plan``, ``detect``, ``fit`` and ``resolve`` run in turn. Per-peak
    failures (unresolvable ambiguity, degenerate pencil, an SVD that does
    not converge) are recorded in diagnostics["failures"] and do not abort
    the run. The run is deterministic for a fixed config and input.
    """
    spec = plan(cfg, len(x))
    n, rate = spec.n, x.rate_hz
    noise, bins, coeffs, used, gathered = detect(x, cfg, spec)
    reports, terms = fit(coeffs, bins, noise, cfg.M)
    bez = bezout(cfg.u, cfg.s) if cfg.resolver == "bezout" else None
    components = resolve(reports, terms, spec, rate, bez)
    diagnostics = {
        "stream_length": n,
        "noise_sigma": noise,
        "fine_grid_size": cfg.u * n,
        "samples_used": used,
        "per_stream_samples": gathered["per_stream_samples"],
        "peak_candidates": gathered["peak_candidates"],
        "peak_bins": [int(b) for b in bins],
        "bin_reports": reports,
        "failures": [r for r in reports if r["error"]],
        "resolver": cfg.resolver,
        "shortcut_shifted": cfg.shortcut_shifted,
        "shortcut_conditions": gathered["shortcut_conditions"],
        "shortcut_fallbacks": gathered["shortcut_fallbacks"],
    }
    if bez is not None:
        diagnostics["bezout_pair"] = (bez.t, bez.v)
    return SparseSpectrum(components=tuple(components), config=cfg,
                          rate_hz=rate, resolution_hz=rate / (cfg.u * n),
                          diagnostics=diagnostics)


def dense_reference(x: ComplexSignal, threshold: float) -> SparseSpectrum:
    """Single full-length DFT estimator over the same tone-unit threshold.

    The baseline the hybrid is judged against: every bin of the full
    transform whose per-sample amplitude reaches the threshold becomes a
    component. A NaN, infinite or negative threshold raises ValueError.
    """
    if not 0 <= threshold < math.inf:
        raise ValueError("threshold must be finite and nonnegative")
    big = len(x)
    bins, bin_hz = dft(x), x.rate_hz / big
    comps = []
    for b in select_peaks(bins, threshold * big):
        comps.append(RecoveredComponent(
            freq_hz=float(b * bin_hz),
            amplitude=complex(bins[b]) / big,
            source_bin=int(b),
            collision_order=1))
    comps.sort(key=lambda c: (-abs(c.amplitude), c.freq_hz))
    diagnostics = {"samples_used": big, "fine_grid_size": big}
    return SparseSpectrum(components=tuple(comps), config=None,
                          rate_hz=x.rate_hz, resolution_hz=x.rate_hz / big,
                          diagnostics=diagnostics)
