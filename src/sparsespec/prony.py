"""Exponential-sum analysis of short coefficient sequences.

A peak bin observed across M shifted streams yields the 1-d array
p[m] = sum_i a_i * z_i^m, M >= 2 values with one term per colliding
component. One SVD of a Hankel arrangement of p serves the bin: its
singular values count the components, and the matrix pencil on its
leading right singular vectors recovers the per-step ratios z_i, then
the amplitudes a_i, as two arrays. Two values make a 1 x 2 Hankel and an
order-1 pencil, whose ratio is p[1] / p[0].

That SVD is ``svd_small``, a guarded LAPACK call: it refuses non-finite
matrices and reports any failure as ``NoConvergence``, which ``analyze``
records as a per-bin failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, IllConditionedPencil, NoConvergence

NOISE_EDGE_FACTOR = 2.0
RANK_FLOOR_REL = 1e-8
PENCIL_CONDITION_CAP = 1e12
SVD_DIM_CAP = 512

_Z_SANITY_CAP = 1e6


@dataclass(frozen=True)
class OrderEstimate:
    """Model order read off the Hankel's singular values and right vectors."""

    rank: int
    singular_values: np.ndarray
    gap_ratio: float
    vectors: np.ndarray


def hankel(p: np.ndarray, rows: int) -> np.ndarray:
    """Hankel arrangement H[i, k] = p[i + k] of the M values of p, shape
    rows x (M - rows + 1). Raises BadShape unless p is 1-d with M >= 2 and
    1 <= rows <= M; every fit reads its sequence through here."""
    p = np.asarray(p, dtype=np.complex128)
    if p.ndim != 1 or p.size < 2:
        raise BadShape("a sequence is 1-d with 2 or more values, not "
                       f"shape {p.shape}")
    if not 1 <= rows <= p.size:
        raise BadShape(f"rows={rows} outside 1..{p.size}")
    idx = np.arange(rows)[:, None] + np.arange(p.size - rows + 1)[None, :]
    return p[idx]


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
        raise BadShape("SVD expects a non-empty 2-d matrix")
    if max(A.shape) > SVD_DIM_CAP:
        raise BadShape(f"dimensions {A.shape} exceed the {SVD_DIM_CAP} cap")
    if not np.isfinite(A).all():
        raise NoConvergence("SVD of a matrix with non-finite entries")
    try:
        u, sigma, vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD failed: {exc}") from exc
    return u, sigma, vh.conj().T


def estimate_noise(spectrum: np.ndarray) -> float:
    """Noise standard deviation of one DFT value, median |X| / sqrt(ln 2):
    |X|^2 of circular Gaussian noise is exponential, its median ln 2 times
    its mean. Valid while most bins hold only noise."""
    mags = np.abs(spectrum)
    mid = mags.size // 2
    mags.partition(mid)
    return float(mags[mid] / math.sqrt(math.log(2.0)))


def estimate_order(p: np.ndarray, noise_sigma: float) -> OrderEstimate:
    """Count meaningful components from the Hankel singular spectrum of p.

    The rank counts the singular values at or above both the noise edge
    ``NOISE_EDGE_FACTOR * noise_sigma * (sqrt(r) + sqrt(c))`` of the r x c
    Hankel and ``RANK_FLOOR_REL`` times the largest (rounding on exact
    data). ``noise_sigma`` is one value's noise deviation, as from
    :func:`estimate_noise`. The ratio across the cut is reported so callers
    can judge how clear the detection was. Two values give a 1 x 2 Hankel,
    whose one singular value is the 2-norm of p. This is the bin's one SVD:
    its right singular vectors come back as ``vectors``. Raises BadShape as
    :func:`hankel` does and NoConvergence as :func:`svd_small` does.
    """
    m = np.size(p)
    rows = (m + 1) // 2
    _, sigma, vectors = svd_small(hankel(p, rows))
    edge = NOISE_EDGE_FACTOR * noise_sigma * (
        math.sqrt(rows) + math.sqrt(m - rows + 1))
    cut = max(edge, RANK_FLOOR_REL * sigma[0])
    rank = int(np.count_nonzero((sigma >= cut) & (sigma > 0.0)))
    gap = math.inf
    if 0 < rank < sigma.size and sigma[rank] > 0.0:
        gap = float(sigma[rank - 1] / sigma[rank])
    return OrderEstimate(rank=rank, singular_values=sigma, gap_ratio=gap,
                         vectors=vectors)


def pencil_decompose(p: np.ndarray, fit_order: int,
                     vectors: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-pencil decomposition of p into ``fit_order`` exponential terms.

    The SVD form of the pencil (Hua & Sarkar, "Matrix pencil method for
    estimating parameters of exponentially damped/undamped sinusoids in
    noise", IEEE Trans. ASSP, 1990). The leading right singular vectors of
    the Hankel of p, as the rows of V with first and last c - 1 columns V1
    and V2, obey V2 = Phi V1, and the eigenvalues of Phi are the ratios z_i.
    V's rows are orthonormal, so with l its last column, by Sherman-Morrison
    Phi = V2 V1^H (V1 V1^H)^-1 = V2 V1^H (I + l l^H / (1 - |l|^2)). ``vectors``
    are those of :func:`estimate_order`; without them the SVD is taken
    here. A least-squares Vandermonde fit against p gives the amplitudes.
    Returns (zs, amps), by descending |amplitude|. ``fit_order`` runs from
    1 to max(1, (M - 1) // 2): two values fit one term, p[1] / p[0]. An
    overfit's surplus terms carry negligible amplitude or leave the circle.

    Raises:
        BadShape: as :func:`hankel`.
        ValueError: ``fit_order`` out of range.
        NoConvergence: the SVD failed (see :func:`svd_small`).
        IllConditionedPencil: V1 V1^H numerically singular (condition
            1 / (1 - |l|^2) beyond 1e12) or p identically zero.
    """
    m = np.size(p)
    top = max(1, (m - 1) // 2)
    if not 1 <= fit_order <= top:
        raise ValueError(f"fit_order={fit_order} outside 1..{top} for M={m}")
    if vectors is None:
        _, _, vectors = svd_small(hankel(p, (m + 1) // 2))
    if not np.any(p):
        raise IllConditionedPencil("cannot decompose an all-zero sequence")
    # w = V^H: its last row is l conjugated.
    w = vectors[:, :fit_order]
    tail = w[-1]
    slack = 1.0 - float(np.vdot(tail, tail).real)
    if not slack * PENCIL_CONDITION_CAP >= 1.0:
        raise IllConditionedPencil(
            f"pencil condition beyond {PENCIL_CONDITION_CAP:.0e}")
    psi = w[1:].conj().T @ w[:-1]
    psi += np.outer(psi @ tail.conj(), tail) / slack
    zs = np.linalg.eigvals(psi)
    # Ratios this far off the circle cannot be fit against the data without
    # overflowing the Vandermonde powers; they are numerical debris.
    keep = (np.abs(zs) < _Z_SANITY_CAP) & (np.abs(zs) > 1.0 / _Z_SANITY_CAP)
    zs = zs[keep]
    if zs.size == 0:
        raise IllConditionedPencil("no usable pencil eigenvalues")
    vand = zs[None, :] ** np.arange(m)[:, None]
    amps, *_ = np.linalg.lstsq(vand, p, rcond=None)
    order = np.argsort(-np.abs(amps), kind="stable")
    return zs[order], amps[order]


def model_residual(p: np.ndarray, zs: np.ndarray, amps: np.ndarray) -> float:
    """Relative l2 misfit of the terms amps[i] * zs[i]^m against p."""
    # Summed over axis 0, term after term, as a running sum would.
    model = (amps[:, None] * zs[:, None] ** np.arange(len(p))).sum(axis=0)
    denom = np.linalg.norm(p)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(p - model) / denom)
