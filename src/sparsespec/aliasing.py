"""Alias resolution via coprime candidate sets.

A frequency f observed through a step of d grid samples only reveals the
unit-modulus number exp(2*pi*i*f*d/R). Its d-th roots enumerate every
frequency in [0, R) consistent with the observation; two such sets taken at
coprime steps share exactly one element, which is the unaliased frequency.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGenerator, NoIntersection, NotCoprime, \
    NoUniqueIntersection

# How far from the unit circle a pencil root may sit and still count as a
# tone: analyze's root filter and the Generator check share it.
DEFAULT_UNIT_TOL = 0.2
DEFAULT_AMBIGUITY_FACTOR = 2.0


@dataclass(frozen=True)
class Generator:
    """Unit-modulus observation exp(2*pi*i*f*step/R) of an unknown f.

    Noise perturbs the modulus, so anything within ``DEFAULT_UNIT_TOL`` of
    the unit circle is accepted; all angle math uses the normalized value.
    """

    value: complex
    step: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        mod = abs(self.value)
        if mod < 1e-12:
            raise DegenerateGenerator(f"generator magnitude {mod} too small")
        if abs(mod - 1.0) > DEFAULT_UNIT_TOL:
            raise ValueError(
                f"generator magnitude {mod} outside unit tolerance "
                f"{DEFAULT_UNIT_TOL}")

    @property
    def normalized(self) -> complex:
        return self.value / abs(self.value)

    @property
    def angle_cycles(self) -> float:
        return angle_cycles(self.value)


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


@dataclass(frozen=True)
class CandidateSet:
    """The ``multiplicity`` frequencies consistent with one generator."""

    generator: Generator
    multiplicity: int
    candidates: np.ndarray
    rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "candidates",
                           np.asarray(self.candidates, dtype=float))


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


def candidate_set(g: Generator, rate_hz: float) -> CandidateSet:
    """All f in [0, rate_hz) whose step-d generator equals ``g``.

    These are the d-th roots of the observed value mapped to frequencies:
    f_k = (arg(g)/2pi + k) * rate_hz / d for k = 0..d-1, ascending.
    """
    d = g.step
    freqs = (g.angle_cycles + np.arange(d)) * rate_hz / d
    return CandidateSet(generator=g, multiplicity=d, candidates=freqs,
                        rate_hz=rate_hz)


def bezout(u: int, s: int) -> BezoutPair:
    """The pair (t, v) with u*t + s*v == 1 minimizing max(|t|, |v|).

    The solution family is t = t0 + s*k, v = v0 - u*k; max(|t|, |v|) is
    convex in k, so scanning a bracket around both vertex points finds the
    minimum. Ties go to the smaller |t|.

    Raises:
        NotCoprime: gcd(u, s) != 1.
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


def resolve_bezout(g_u: Generator, g_s: Generator, bp: BezoutPair,
                   rate_hz: float) -> tuple[float, int]:
    """Combine the two generators into the unaliased frequency directly.

    Returns the frequency arg(g_u^t * g_s^v) / 2pi * rate_hz folded into
    [0, rate_hz), plus the noise amplification factor |t| + |v|: angle errors
    of at most eps radians on both generators move the output by at most
    (|t| + |v|) * eps * rate_hz / (2*pi) Hz.
    """
    if g_u.step != bp.u or g_s.step != bp.s:
        raise ValueError("generator steps must match the Bezout pair")
    cycles = (bp.t * g_u.angle_cycles + bp.v * g_s.angle_cycles) % 1.0
    return cycles * rate_hz, abs(bp.t) + abs(bp.v)


def circular_distance_hz(a: float, b: float, rate_hz: float) -> float:
    """Distance between two frequencies on the circle [0, rate_hz)."""
    d = abs(a - b) % rate_hz
    return min(d, rate_hz - d)


def resolve_match(u_set: CandidateSet,
                  s_set: CandidateSet) -> tuple[float, float]:
    """Intersect two coprime candidate sets: their nearest pair on the circle.

    The pair comes from the lattice rounding of :func:`resolve_cycles` on
    the generators' angles, its distance from the sets' own candidates.
    Returns the matched ``s_set`` candidate, which carries the off-grid
    precision of the parametric stage, and that distance for diagnostics.

    Raises:
        NotCoprime: set multiplicities share a factor.
        NoIntersection: best pair farther apart than half the ``u_set``
            spacing, rate / (2 * multiplicity).
        NoUniqueIntersection: runner-up pair within
            ``DEFAULT_AMBIGUITY_FACTOR`` of the best distance.
    """
    return _nearest_pair(
        u_set.generator.angle_cycles, u_set.multiplicity,
        s_set.generator.angle_cycles, s_set.multiplicity, u_set.rate_hz,
        u_set.candidates.__getitem__, s_set.candidates.__getitem__)


def resolve_cycles(a_u: float, u: int, a_s: float, s: int,
                   rate_hz: float) -> tuple[float, float]:
    """:func:`resolve_match`, bit for bit, on the candidate sets of step-u
    and step-s generators at angle cycles a_u and a_s, without building
    them: candidate k of a step-d set is (a + k) * rate_hz / d."""
    return _nearest_pair(a_u, u, a_s, s, rate_hz,
                         lambda k: (a_u + k) * rate_hz / u,
                         lambda j: (a_s + j) * rate_hz / s)


def _nearest_pair(a_u: float, u: int, a_s: float, s: int, rate_hz: float,
                  u_freq: Callable[[int], float],
                  s_freq: Callable[[int], float]) -> tuple[float, float]:
    # Candidates k and j differ by R/(u s) * (c - N), c = s a_u - u a_s,
    # N = u j - s k, and (k, j) -> N mod u s is one-to-one for coprime u, s.
    # The best and runner-up pairs are the two integers N next to c, both
    # within round(c) +- 1 whichever way rounding tips c.
    if math.gcd(u, s) != 1:
        raise NotCoprime(
            f"candidate multiplicities {u} and {s} must be coprime")
    u_inv, s_inv = pow(u, -1, s), pow(s, -1, u)
    near = round(s * a_u - u * a_s)
    pairs = {((-n * s_inv) % u, (n * u_inv) % s)
             for n in (near - 1, near, near + 1)}
    # A tie raises NoUniqueIntersection below, so it needs no rule.
    ranked = sorted((circular_distance_hz(u_freq(k), s_freq(j), rate_hz),
                     k, j) for k, j in pairs)
    best, _, j = ranked[0]
    best = float(best)
    tol_hz = rate_hz / (2 * u)
    if best > tol_hz:
        raise NoIntersection(
            f"closest candidate pair {best:.6g} Hz apart exceeds tolerance "
            f"{tol_hz:.6g} Hz")
    second = float(ranked[1][0]) if len(ranked) > 1 else math.inf
    if second <= DEFAULT_AMBIGUITY_FACTOR * best:
        raise NoUniqueIntersection(
            f"runner-up pair at {second:.6g} Hz is within factor "
            f"{DEFAULT_AMBIGUITY_FACTOR} of best {best:.6g} Hz")
    return float(s_freq(j)), best
