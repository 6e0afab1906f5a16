"""Alias resolution via coprime candidate sets.

A frequency f observed through a step of d grid samples only reveals the
unit-modulus number exp(2*pi*i*f*d/R), whose angle in turns ("cycles") is
all this module reads. Its d-th roots enumerate every frequency in [0, R)
consistent with the observation; two such sets taken at coprime steps share
exactly one element, which is the unaliased frequency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCoprime, NoUniqueIntersection

DEFAULT_AMBIGUITY_FACTOR = 2.0


def angle_cycles(value: complex) -> float:
    """Argument of value / |value| as a fraction of a turn, in [0, 1).

    Values within roundoff of a full turn snap to 0 so that an exact-DC
    observation does not label its candidates one epsilon below the next
    grid line.
    """
    cycles = (np.angle(value / abs(value)) / (2 * np.pi)) % 1.0
    if cycles > 1.0 - 1e-12:
        cycles = 0.0
    return float(cycles)


def _check(cycles: tuple[float, ...], steps: tuple[int, ...]) -> None:
    if min(steps) < 1:
        raise ValueError("steps must be positive integers")
    if not all(map(math.isfinite, cycles)):
        raise ValueError(f"angle cycles {cycles} must be finite")


@dataclass(frozen=True)
class BezoutPair:
    """Integers with u*t + s*v == 1, minimal in max(|t|, |v|)."""

    t: int
    v: int
    u: int
    s: int

    def __post_init__(self):
        if self.u * self.t + self.s * self.v != 1:
            raise ValueError("u*t + s*v must equal 1")


def candidate_set(cycles: float, step: int, rate_hz: float) -> np.ndarray:
    """All f in [0, rate_hz) whose step-d observation sits at ``cycles``:
    the d-th roots of the observed value mapped to frequencies,
    f_k = (cycles + k) * rate_hz / d for k = 0..d-1, ascending."""
    _check((cycles,), (step,))
    return (cycles + np.arange(step)) * rate_hz / step


def bezout(u: int, s: int) -> BezoutPair:
    """The pair (t, v) with u*t + s*v == 1 minimizing max(|t|, |v|).

    The solution family is t = t0 + s*k, v = v0 - u*k; max(|t|, |v|) is
    convex in k, so scanning a bracket around both vertex points finds the
    minimum. Ties go to the smaller |t|. Raises NotCoprime when
    gcd(u, s) != 1.
    """
    if u < 1 or s < 1:
        raise ValueError("u and s must be positive integers")
    if math.gcd(u, s) != 1:
        raise NotCoprime(f"gcd({u}, {s}) != 1")
    t0 = pow(u, -1, s) if s > 1 else 0
    v0 = (1 - u * t0) // s
    lo = min(-t0 / s, v0 / u)
    hi = max(-t0 / s, v0 / u)
    best = None
    for k in range(math.floor(lo) - 2, math.ceil(hi) + 3):
        t = t0 + s * k
        v = v0 - u * k
        key = (max(abs(t), abs(v)), abs(t))
        if best is None or key < best[0]:
            best = (key, t, v)
    return BezoutPair(t=best[1], v=best[2], u=u, s=s)


def resolve_bezout(a_u: float, a_s: float, bp: BezoutPair,
                   rate_hz: float) -> tuple[float, int]:
    """The unaliased frequency of the step-``bp.u`` and step-``bp.s``
    observations at angle cycles a_u and a_s: (t a_u + v a_s) * rate_hz
    folded into [0, rate_hz), plus the noise amplification factor
    |t| + |v|. Angle errors of at most eps radians on both observations
    move the output by at most (|t| + |v|) * eps * rate_hz / (2*pi) Hz.
    """
    _check((a_u, a_s), (bp.u, bp.s))
    cycles = (bp.t * a_u + bp.v * a_s) % 1.0
    return cycles * rate_hz, abs(bp.t) + abs(bp.v)


def circular_distance_hz(a: float, b: float, rate_hz: float) -> float:
    """Distance between two frequencies on the circle [0, rate_hz)."""
    d = abs(a - b) % rate_hz
    return min(d, rate_hz - d)


def resolve_match(a_u: float, u: int, a_s: float, s: int,
                  rate_hz: float) -> tuple[float, float]:
    """The nearest pair on the circle of the step-u and step-s candidate
    sets (see :func:`candidate_set`) at angle cycles a_u and a_s.

    Returns the pair's step-s candidate, which carries the off-grid
    precision of the parametric stage, and the pair's distance, at most
    rate_hz / (2 * u * s) up to rounding. Raises NotCoprime when u and s
    share a factor and NoUniqueIntersection when the runner-up pair is
    within ``DEFAULT_AMBIGUITY_FACTOR`` of its distance.
    """
    _check((a_u, a_s), (u, s))
    if math.gcd(u, s) != 1:
        raise NotCoprime(
            f"candidate multiplicities {u} and {s} must be coprime")
    # Candidates k and j differ by R/(u s) * (c - N), c = s a_u - u a_s,
    # N = u j - s k, and (k, j) -> N mod u s is one-to-one for coprime u, s.
    # The best and runner-up pairs are the two integers N next to c, both
    # within round(c) +- 1 whichever way rounding tips c.
    u_inv, s_inv = pow(u, -1, s), pow(s, -1, u)
    near = round(s * a_u - u * a_s)
    pairs = {((-n * s_inv) % u, (n * u_inv) % s)
             for n in (near - 1, near, near + 1)}
    # A tie raises NoUniqueIntersection below, so it needs no rule.
    ranked = sorted((circular_distance_hz((a_u + k) * rate_hz / u,
                                          (a_s + j) * rate_hz / s, rate_hz),
                     k, j) for k, j in pairs)
    best, j = float(ranked[0][0]), ranked[0][2]
    second = float(ranked[1][0]) if len(ranked) > 1 else math.inf
    if second <= DEFAULT_AMBIGUITY_FACTOR * best:
        raise NoUniqueIntersection(
            f"runner-up pair at {second:.6g} Hz is within factor "
            f"{DEFAULT_AMBIGUITY_FACTOR} of best {best:.6g} Hz")
    return float((a_s + j) * rate_hz / s), best
