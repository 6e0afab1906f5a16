"""Complex signal containers and synthesis, DFT/IDFT kernels, stream
extraction and peak picking.

A signal lives on a uniform grid at ``rate_hz``. Decimating by a stride ``u``
and shifting the start by multiples of ``s`` grid samples produces the short
sub-streams the rest of the pipeline works on. Stream m, sample l is
x[u*l + m*s], so :func:`stream_view` reads all M streams as one strided view
of the record, with no index array; a plan that would run past the end of
the record is rejected. :func:`synthesize` builds a test signal from a
:class:`SynthSpec` of tones and a noise level.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexBudgetExceeded, NonFiniteSamples, NotCoprime

PEAK_FLOOR_REL = 1e-12
DFT_BLOCK = 128
# Work that touches fewer samples runs inline in ``run_aside``: below this
# the overlap saves less than a thread's start and join cost (detect's
# gather breaks even near 2^17 samples on a 2-CPU x86 host).
PARALLEL_MIN_SAMPLES = 1 << 17


@dataclass(frozen=True)
class ComplexSignal:
    """Uniformly sampled complex time series.

    Attributes:
        samples: complex sample values, stored C-contiguous.
        rate_hz: sample rate of the underlying grid, Hz.

    Raises:
        NonFiniteSamples: a sample is NaN or infinite.
    """

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128, order="C")
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-d sequence")
        finite = np.isfinite(arr)
        if not finite.all():
            raise NonFiniteSamples(
                f"sample {int(np.argmin(finite))} is NaN or infinite")
        if not 0 < self.rate_hz < math.inf:
            raise ValueError("rate_hz must be finite and positive")

    def __len__(self) -> int:
        return self.samples.size


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
        if self.snr_db is not None:  # a manifest writes it as a float
            object.__setattr__(self, "snr_db", float(self.snr_db))
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")


@dataclass(frozen=True)
class StreamSpec:
    """Decimation plan: stride ``u``, shift ``s``, ``M`` streams of length ``n``.

    ``n=None`` means "as long as the source signal allows", resolved when the
    streams are extracted. Every stream index must fall inside the source.
    ``HybridConfig`` checks its geometry by building one, with its
    ``stream_len`` as ``n``.
    """

    u: int
    s: int
    M: int
    n: int | None = None

    def __post_init__(self):
        if self.u < 1 or self.s < 1:
            raise ValueError("u and s must be positive integers")
        if math.gcd(self.u, self.s) != 1:
            raise NotCoprime(f"u={self.u} and s={self.s} share a factor")
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if self.n is not None and self.n < 1:
            raise ValueError("stream_len must be positive when given")

    def resolve_length(self, source_length: int) -> int:
        """Concrete per-stream length against a source of ``source_length``."""
        n = self.n if self.n is not None else max_stream_length(
            source_length, self.u, self.s, self.M)
        if n < 1:
            raise IndexBudgetExceeded(
                f"no feasible stream length for u={self.u}, s={self.s}, "
                f"M={self.M} against {source_length} samples")
        last = self.span(n) - 1
        if last > source_length - 1:
            raise IndexBudgetExceeded(
                f"stream index {last} exceeds last sample "
                f"{source_length - 1} (u={self.u}, s={self.s}, "
                f"M={self.M}, n={n})")
        return n

    def span(self, n: int) -> int:
        """Grid samples from the first stream index to the last, inclusive."""
        return self.u * (n - 1) + (self.M - 1) * self.s + 1


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


def max_stream_length(source_length: int, u: int, s: int, M: int) -> int:
    """Largest n with every stream index u*l + m*s inside the source."""
    return (source_length - 1 - (M - 1) * s) // u + 1


def dft(x: ComplexSignal) -> np.ndarray:
    """Discrete Fourier transform, bins[j] = sum_l x_l exp(-2*pi*i*l*j/N).
    Bin j sits at j * x.rate_hz / N Hz. Finite samples can overflow it
    without a numpy warning: callers check with :func:`spectrum_magnitudes`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.fft(x.samples)


def idft(bins: np.ndarray, rate_hz: float) -> ComplexSignal:
    """Inverse transform of the DFT values ``bins``, sampled at ``rate_hz``."""
    return ComplexSignal(samples=np.fft.ifft(bins), rate_hz=rate_hz)


def dft_direct(samples: np.ndarray) -> np.ndarray:
    """Direct O(N^2) summation, the reference the fast path is checked against."""
    x = np.asarray(samples, dtype=np.complex128)
    n = x.size
    lj = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * lj / n) @ x


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_aside(fn, samples: int):
    """Start ``fn()`` on a new thread when it touches at least
    ``PARALLEL_MIN_SAMPLES`` samples and the process may run on two CPUs,
    else call it here and now. (On one CPU the two threads only take turns:
    pinned to one CPU of a 2-CPU x86 host, a 2^20-sample full-path analysis
    took 13.13 ms with its gather split off against 12.61 ms inline, 4.1%
    slower.)

    ``fn`` writes into arrays the caller allocated; its return value is
    dropped. Returns None when ``fn`` ran here, else a join that waits for
    the thread and raises what ``fn`` raised, if anything. Callers call the
    join exactly once, in a ``finally`` around their own work, so no thread
    outlives them. The thread runs ``fn`` in a copy of the caller's
    context, so the caller's ``np.errstate`` holds there too.
    """
    if samples < PARALLEL_MIN_SAMPLES or _usable_cpus() < 2:
        fn()
        return None
    failure = []

    def run():
        try:
            fn()
        except BaseException as exc:
            failure.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(run,))
    thread.start()

    def join():
        thread.join()
        if failure:
            raise failure[0]

    return join


def dft_at(rows: np.ndarray, bins) -> np.ndarray:
    """DFT of each row of ``rows`` (R x n) at ``bins`` (mod n) only, R x K.

    Up to log2(n) bins the sums are blocked BLAS products. Sample
    l = q*h + j, with the block q = min(n, DFT_BLOCK), has the twiddle
    hi[h] * lo[j], from two tables of q and ceil(n/q) entries per bin
    whose exponents are reduced exactly in integers before ``exp``. One
    stacked product applies ``lo`` to every block of q samples, one
    ``einsum`` sums the blocks against ``hi``, and one small product adds
    the last n mod q samples. No product sums over more than DFT_BLOCK
    samples: OpenBLAS splits longer sums into pieces that depend on its
    thread count, and the bits would too. Rows that are not column-major
    (or a row slice of such) are copied to that layout first, because
    BLAS rounds differently on different layouts; so the bits depend on
    neither. Beyond log2(n) bins one batched FFT is cheaper.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    r, n = rows.shape
    b = np.asarray(bins, dtype=np.int64).reshape(-1, 1) % n
    if b.size > math.log2(n):
        return np.fft.fft(rows, axis=1)[:, b[:, 0]]
    q = min(n, DFT_BLOCK)
    h = n // q
    k, m = b.size, -(-n // q)
    # One exp for both tables, each a C-contiguous slice of the result.
    twiddles = np.exp(-2j * np.pi / n * np.concatenate([
        (b * np.arange(q) % n).ravel(), (b * (q * np.arange(m)) % n).ravel()]))
    lo = twiddles[:k * q].reshape(k, q)
    hi = twiddles[k * q:].reshape(k, m)
    cols = rows.T
    if cols.strides[1 if r > 1 else 0] != cols.itemsize:
        cols = np.ascontiguousarray(cols)
    blocks = np.matmul(lo, cols[:h * q].reshape(h, q, r))
    out = np.einsum("hkr,kh->rk", blocks, hi[:, :h])
    if h * q < n:
        out += ((hi[:, h:] * lo[:, :n - h * q]) @ cols[h * q:]).T
    return out


def circular_shift(x: ComplexSignal, s: int) -> ComplexSignal:
    """Periodic time shift: sample l of the result is x[(l + s) mod N]."""
    n = len(x)
    idx = (np.arange(n) + s) % n
    return ComplexSignal(samples=x.samples[idx], rate_hz=x.rate_hz)


def stream_view(a: np.ndarray, spec: StreamSpec,
                writeable: bool = False) -> np.ndarray:
    """The plan's M streams as rows of one strided view of ``a``.

    Row m, column l is a[u*l + m*s], for the spec's length n resolved
    against ``a`` (IndexBudgetExceeded when a stream would overrun it). The
    view points into ``a`` (C-contiguous, 1-d) with strides (s, u) samples.
    It is read-only unless ``writeable``, as a mask of the samples a plan
    reads must be.
    """
    n = spec.resolve_length(a.size)
    view = np.ndarray((spec.M, n), a.dtype, a, 0,
                      (spec.s * a.itemsize, spec.u * a.itemsize))
    view.flags.writeable = writeable
    return view


def read_mask(spec: StreamSpec, length: int,
              counts: tuple[int, ...]) -> np.ndarray:
    """The samples of a ``length``-sample record that the pinned plan
    ``spec`` reads when stream m reads its first ``counts[m]`` samples, as
    a boolean mask. Raises IndexBudgetExceeded for a plan that overruns
    the record."""
    read = np.zeros(length, bool)
    marks = stream_view(read, spec, writeable=True)
    for row, count in zip(marks, counts):
        row[:count] = True
    return read


@lru_cache(maxsize=128)
def samples_read(spec: StreamSpec, length: int,
                 counts: tuple[int, ...]) -> int:
    """How many samples :func:`read_mask` marks, cached."""
    return int(np.count_nonzero(read_mask(spec, length, counts)))


def extract_streams(x: ComplexSignal, spec: StreamSpec) -> np.ndarray:
    """The M decimated, shifted sub-streams of ``x`` as an M x n copy.

    Row m, column l holds x[u*l + m*s] (see :func:`stream_view`); each row
    is sampled at x.rate_hz / u.

    Raises:
        IndexBudgetExceeded: a requested sample would fall past the end of
            ``x``.
    """
    return np.array(stream_view(x.samples, spec))


def spectrum_magnitudes(bins: np.ndarray) -> tuple[np.ndarray, float]:
    """|X_j| of the DFT values ``bins`` and the largest of them (0 for
    none). A NaN or infinite |X_j|, which finite samples reach when the
    transform overflows, raises NonFiniteSamples."""
    mags = np.abs(bins)
    top = mags.max(initial=0.0)
    if not math.isfinite(top):
        raise NonFiniteSamples(
            f"the spectrum overflowed: its largest |X| is {top}")
    return mags, top


def select_peaks(bins: np.ndarray, threshold: float) -> list[int]:
    """The indices j of all DFT values ``bins`` with |X_j| >= threshold and
    |X_j| > 0, strongest first.

    Bins under ``PEAK_FLOOR_REL`` of the largest |X_j| are left out
    whatever the threshold: they are that peak's rounding leakage. Ties in
    magnitude are ordered by ascending bin index so the output is
    deterministic. Raises NonFiniteSamples as :func:`spectrum_magnitudes`,
    then ValueError for a threshold that is not finite and nonnegative.
    """
    mags, top = spectrum_magnitudes(bins)
    # After the spectrum: a threshold read off an overflowed spectrum is
    # not finite, and the overflow is the error to report.
    if not 0 <= threshold < math.inf:
        raise ValueError("threshold must be finite and nonnegative")
    floor = max(threshold, PEAK_FLOOR_REL * top)
    hits = np.flatnonzero((mags >= floor) & (mags > 0))
    return hits[np.argsort(-mags[hits], kind="stable")].tolist()
