"""Exponential-sum analysis of short coefficient sequences.

A peak bin observed across M shifted streams yields the 1-d array
p[m] = sum_i a_i * z_i^m, M >= 2 values with one term per colliding
component. The matrix pencil on a Hankel arrangement of p recovers the
per-step ratios z_i and the amplitudes a_i as two arrays; the Hankel
singular values count the components. Two values make a 1 x 2 Hankel and
an order-1 pencil, whose ratio is p[1] / p[0].

Every SVD is one guarded LAPACK call, ``svd_small`` or, where only the
singular values are read, ``singular_values``: both refuse non-finite
matrices and report any failure as ``NoConvergence``, which ``analyze``
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

_SIGMA_FLOOR_REL = 1e-14
_Z_SANITY_CAP = 1e6


@dataclass(frozen=True)
class OrderEstimate:
    """Model-order reading off the Hankel singular values."""

    rank: int
    singular_values: np.ndarray
    gap_ratio: float


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
    u, sigma, vh = _guarded_svd(a, compute_uv=True)
    return u, sigma, vh.conj().T


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of ``a``, descending, with :func:`svd_small`'s
    checks and errors. LAPACK computes no singular vectors, by another
    algorithm, so the last bits can differ from ``svd_small``'s sigma."""
    return _guarded_svd(a, compute_uv=False)


def _guarded_svd(a: np.ndarray, compute_uv: bool):
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2 or min(A.shape) < 1:
        raise BadShape("SVD expects a non-empty 2-d matrix")
    if max(A.shape) > SVD_DIM_CAP:
        raise BadShape(f"dimensions {A.shape} exceed the {SVD_DIM_CAP} cap")
    if not np.isfinite(A).all():
        raise NoConvergence("SVD of a matrix with non-finite entries")
    try:
        return np.linalg.svd(A, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD failed: {exc}") from exc


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
    whose one singular value is the 2-norm of p. Raises BadShape as
    :func:`hankel` does and NoConvergence as :func:`svd_small` does.
    """
    m = np.size(p)
    rows = (m + 1) // 2
    sigma = singular_values(hankel(p, rows))
    if sigma[0] <= 0.0:
        return OrderEstimate(rank=0, singular_values=sigma, gap_ratio=math.inf)
    edge = NOISE_EDGE_FACTOR * noise_sigma * (
        math.sqrt(rows) + math.sqrt(m - rows + 1))
    rank = int(np.count_nonzero(sigma >= max(edge, RANK_FLOOR_REL * sigma[0])))
    if rank < sigma.size and sigma[rank] > 0.0:
        gap = float(sigma[rank - 1] / sigma[rank]) if rank > 0 else math.inf
    else:
        gap = math.inf
    return OrderEstimate(rank=rank, singular_values=sigma, gap_ratio=gap)


def pencil_decompose(p: np.ndarray,
                     fit_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-pencil decomposition of p into ``fit_order`` exponential terms.

    Two shifted Hankel blocks H0 and H1 are projected onto the leading
    ``fit_order`` singular directions of H0; the eigenvalues of the reduced
    pencil are the per-step ratios z_i, and a least-squares Vandermonde fit
    against the full sequence recovers the amplitudes. Returns the arrays
    (zs, amps), sorted by descending |amplitude|. ``fit_order`` runs from 1
    to max(1, (M - 1) // 2): two values fit one term. Fitting more terms
    than the sequence truly has is supported; the surplus terms carry
    negligible amplitude or fall off the unit circle.

    Raises:
        BadShape: as :func:`hankel`.
        ValueError: ``fit_order`` out of range.
        NoConvergence: an SVD failed (see :func:`svd_small`).
        IllConditionedPencil: reduced pencil numerically singular (condition
            beyond 1e12) or the sequence is identically zero.
    """
    m = np.size(p)
    full = hankel(p, (m + 1) // 2)
    top = max(1, (m - 1) // 2)
    if not 1 <= fit_order <= top:
        raise ValueError(f"fit_order={fit_order} outside 1..{top} for M={m}")
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
    rs = singular_values(reduced)
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
