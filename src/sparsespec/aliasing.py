"""Alias resolution via coprime candidate sets.

A frequency f observed through a step of d grid samples only reveals the
unit-modulus number exp(2*pi*i*f*d/R). Its d-th roots enumerate every
frequency in [0, R) consistent with the observation; two such sets taken at
coprime steps share exactly one element, which is the unaliased frequency.
"""
from __future__ import annotations

import math
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

    Noise perturbs the modulus, so anything within ``unit_tol`` of the unit
    circle is accepted; all angle math uses the normalized value.
    """

    value: complex
    step: int
    unit_tol: float = DEFAULT_UNIT_TOL

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        mod = abs(self.value)
        if mod < 1e-12:
            raise DegenerateGenerator(f"generator magnitude {mod} too small")
        if abs(mod - 1.0) > self.unit_tol:
            raise ValueError(
                f"generator magnitude {mod} outside unit tolerance "
                f"{self.unit_tol}")

    @property
    def normalized(self) -> complex:
        return self.value / abs(self.value)

    @property
    def angle_cycles(self) -> float:
        """Argument of the normalized value as a fraction of a turn, in [0, 1).

        Values within roundoff of a full turn snap to 0 so that an exact-DC
        observation does not label its candidates one epsilon below the next
        grid line.
        """
        cycles = (np.angle(self.normalized) / (2 * np.pi)) % 1.0
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


def resolve_match(u_set: CandidateSet, s_set: CandidateSet,
                  tol_hz: float | None = None,
                  ambiguity_factor: float = DEFAULT_AMBIGUITY_FACTOR,
                  ) -> tuple[float, float]:
    """Intersect two coprime candidate sets by nearest-pair search.

    Builds the full distance matrix between the two sets (circular on
    [0, rate)) and takes the closest pair. The returned frequency is the
    matched candidate from ``s_set``, which carries the off-grid precision of
    the parametric stage; the matched distance comes back for diagnostics.

    Args:
        tol_hz: reject matches worse than this; defaults to half the
            ``u_set`` spacing, rate / (2 * multiplicity).
        ambiguity_factor: reject when the second-best pair is within this
            factor of the best distance.

    Raises:
        NotCoprime: set multiplicities share a factor.
        NoIntersection: best pair farther apart than ``tol_hz``.
        NoUniqueIntersection: runner-up pair too close to call.
    """
    if math.gcd(u_set.multiplicity, s_set.multiplicity) != 1:
        raise NotCoprime(
            f"candidate multiplicities {u_set.multiplicity} and "
            f"{s_set.multiplicity} must be coprime")
    rate = u_set.rate_hz
    diff = np.abs(u_set.candidates[:, None] - s_set.candidates[None, :]) % rate
    dist = np.minimum(diff, rate - diff)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    best = float(dist[i, j])
    if tol_hz is None:
        tol_hz = rate / (2 * u_set.multiplicity)
    if best > tol_hz:
        raise NoIntersection(
            f"closest candidate pair {best:.6g} Hz apart exceeds tolerance "
            f"{tol_hz:.6g} Hz")
    rest = dist.copy()
    rest[i, j] = np.inf
    second = float(rest.min())
    if second <= ambiguity_factor * best:
        raise NoUniqueIntersection(
            f"runner-up pair at {second:.6g} Hz is within factor "
            f"{ambiguity_factor} of best {best:.6g} Hz")
    return float(s_set.candidates[j]), best
