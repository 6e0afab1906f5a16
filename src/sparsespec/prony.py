"""Exponential-sum analysis of short coefficient sequences.

A collision bin observed across M shifted streams yields a sequence
P(m) = sum_i a_i * z_i^m with one term per colliding component. The matrix
pencil on a Hankel arrangement of P recovers the per-step ratios z_i and the
amplitudes a_i; the Hankel singular values count the components.

Every SVD goes through ``svd_small``, one guarded LAPACK call: it refuses
non-finite matrices and reports any failure as ``NoConvergence``, which
``analyze`` records as a per-bin failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, IllConditionedPencil, NoConvergence

DEFAULT_SIGMA_REL_TOL = 1e-3
NOISE_FREE_SIGMA_REL_TOL = 1e-8
DEFAULT_EXTRA_TERMS = 2
PENCIL_CONDITION_CAP = 1e12
SVD_DIM_CAP = 512

_SIGMA_FLOOR_REL = 1e-14
_Z_SANITY_CAP = 1e6


@dataclass(frozen=True)
class PronySequence:
    """Per-stream coefficient values P(m) taken at one bin.

    ``shift_step`` is the grid-sample distance between successive entries,
    i.e. the shift s of the stream scheme. A q-term decomposition needs at
    least 2q + 1 entries.
    """

    values: np.ndarray
    shift_step: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a Prony sequence needs at least 2 values")
        if self.shift_step < 1:
            raise ValueError("shift_step must be a positive integer")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ExponentialTerm:
    """One recovered term amplitude * z^m of an exponential sum."""

    amplitude: complex
    z: complex

    def __post_init__(self):
        if self.z == 0:
            raise ValueError("term ratio z must be nonzero")

    @property
    def energy(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class OrderEstimate:
    """Model-order reading off the Hankel singular values."""

    rank: int
    singular_values: np.ndarray
    gap_ratio: float


def hankel(seq: PronySequence, rows: int) -> np.ndarray:
    """Hankel arrangement H[i, k] = P(i + k), shape rows x (M - rows + 1)."""
    m = len(seq)
    if not 1 <= rows <= m:
        raise BadShape(f"rows={rows} outside 1..{m}")
    cols = m - rows + 1
    idx = np.arange(rows)[:, None] + np.arange(cols)[None, :]
    return seq.values[idx]


def svd_small(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition of a small complex matrix.

    Returns (U, sigma, V) with A = U @ diag(sigma) @ V conjugate-transposed,
    sigma descending, U and V with orthonormal columns (k = min(m, n)).

    Raises:
        BadShape: not a non-empty 2-d matrix, or a dimension beyond 512.
        NoConvergence: a NaN or infinite entry (LAPACK may return NaN
            singular values for one or never return), or LAPACK did not
            converge.
    """
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2 or min(A.shape) < 1:
        raise BadShape("svd_small expects a non-empty 2-d matrix")
    if max(A.shape) > SVD_DIM_CAP:
        raise BadShape(f"dimensions {A.shape} exceed the {SVD_DIM_CAP} cap")
    if not np.isfinite(A).all():
        raise NoConvergence("SVD of a matrix with non-finite entries")
    try:
        u, sigma, vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD failed: {exc}") from exc
    return u, sigma, vh.conj().T


def estimate_order(seq: PronySequence,
                   sigma_rel_tol: float = DEFAULT_SIGMA_REL_TOL) -> OrderEstimate:
    """Count meaningful components from the Hankel singular spectrum.

    The rank is the number of singular values at or above
    ``sigma_rel_tol`` times the largest; the ratio across that cut is
    reported so callers can judge how clear the detection was.
    """
    m = len(seq)
    if m < 3:
        raise BadShape("order estimation needs at least 3 sequence values")
    rows = (m + 1) // 2
    _, sigma, _ = svd_small(hankel(seq, rows))
    if sigma[0] <= 0.0:
        return OrderEstimate(rank=0, singular_values=sigma, gap_ratio=math.inf)
    rank = int(np.count_nonzero(sigma >= sigma_rel_tol * sigma[0]))
    if rank < sigma.size and sigma[rank] > 0.0:
        gap = float(sigma[rank - 1] / sigma[rank]) if rank > 0 else math.inf
    else:
        gap = math.inf
    return OrderEstimate(rank=rank, singular_values=sigma, gap_ratio=gap)


def pencil_decompose(seq: PronySequence,
                     fit_order: int) -> list[ExponentialTerm]:
    """Matrix-pencil decomposition of P into ``fit_order`` exponential terms.

    Two shifted Hankel blocks H0 and H1 are projected onto the leading
    ``fit_order`` singular directions of H0; the eigenvalues of the reduced
    pencil are the per-step ratios z_i, and a least-squares Vandermonde fit
    against the full sequence recovers the amplitudes. Terms come back sorted
    by descending |amplitude|. Fitting more terms than the sequence truly has
    is supported (and is how noise gets absorbed); the surplus terms carry
    negligible amplitude or fall off the unit circle.

    Raises:
        NoConvergence: an SVD failed (see :func:`svd_small`).
        IllConditionedPencil: reduced pencil numerically singular (condition
            beyond 1e12) or the sequence is identically zero.
    """
    m = len(seq)
    if not 1 <= fit_order <= (m - 1) // 2:
        raise ValueError(
            f"fit_order={fit_order} outside 1..{(m - 1) // 2} for M={m}")
    full = hankel(seq, (m + 1) // 2)
    h0 = full[:, :-1]
    h1 = full[:, 1:]
    u, sigma, v = svd_small(h0)
    if sigma[0] <= 0.0:
        raise IllConditionedPencil("cannot decompose an all-zero sequence")
    uq = u[:, :fit_order]
    vq = v[:, :fit_order]
    # Floored inverse keeps the reduced matrix finite when fit_order exceeds
    # the true rank (exact-data case: trailing sigma at roundoff level).
    inv = 1.0 / np.maximum(sigma[:fit_order], _SIGMA_FLOOR_REL * sigma[0])
    reduced = inv[:, None] * (uq.conj().T @ h1 @ vq)
    _, rs, _ = svd_small(reduced)
    if rs[-1] <= 0.0 or rs[0] / rs[-1] > PENCIL_CONDITION_CAP:
        raise IllConditionedPencil(
            f"reduced pencil condition beyond {PENCIL_CONDITION_CAP:.0e}")
    zs = np.linalg.eigvals(reduced)
    # Ratios this far off the circle cannot be fit against the data without
    # overflowing the Vandermonde powers; they are numerical debris.
    keep = (np.abs(zs) < _Z_SANITY_CAP) & (np.abs(zs) > 1.0 / _Z_SANITY_CAP)
    zs = zs[keep]
    if zs.size == 0:
        raise IllConditionedPencil("no usable pencil eigenvalues")
    vand = zs[None, :] ** np.arange(m)[:, None]
    amps, *_ = np.linalg.lstsq(vand, seq.values, rcond=None)
    order = np.argsort(-np.abs(amps), kind="stable")
    return [ExponentialTerm(amplitude=complex(amps[i]), z=complex(zs[i]))
            for i in order]


def model_residual(seq: PronySequence, terms: list[ExponentialTerm]) -> float:
    """Relative l2 misfit of the term model against the sequence."""
    m = len(seq)
    model = np.zeros(m, dtype=np.complex128)
    for term in terms:
        model += term.amplitude * np.asarray(term.z, dtype=np.complex128) ** np.arange(m)
    denom = np.linalg.norm(seq.values)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(seq.values - model) / denom)
