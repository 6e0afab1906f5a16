"""Candidate sets from angle cycles, coprime intersection, Bezout
resolution."""
import math

import numpy as np
import pytest

from sparsespec import (
    BezoutPair,
    NotCoprime,
    NoUniqueIntersection,
    angle_cycles,
    bezout,
    candidate_set,
    circular_distance_hz,
    resolve_bezout,
    resolve_match,
)


def cycles_for(freq, step, rate, scale=1.0):
    """Angle cycles of the step-``step`` observation of a tone at freq."""
    return angle_cycles(scale * np.exp(2j * np.pi * freq * step / rate))


class TestCandidateSet:
    def test_quarter_turn_roots(self):
        cs = candidate_set(angle_cycles(np.exp(2j * np.pi * 0.75)), 4, 1000.0)
        assert np.allclose(cs, [187.5, 437.5, 687.5, 937.5])

    def test_unit_generator_step_three(self):
        cs = candidate_set(angle_cycles(1.0 + 0j), 3, 9.0)
        assert np.allclose(cs, [0.0, 3.0, 6.0])

    def test_undersampled_tone_set_membership(self):
        # 5 Hz seen at stride 50 of a 1000 Hz grid: candidates are spaced
        # 20 Hz and include every tone that collides onto that bin.
        cs = candidate_set(cycles_for(5.0, 50, 1000.0), 50, 1000.0)
        assert len(cs) == 50
        expected = 5.0 + 20.0 * np.arange(50)
        assert np.allclose(np.sort(cs), expected, atol=1e-9)
        for tone in (125.0, 165.0, 245.0):
            assert np.min(np.abs(np.asarray(cs) - tone)) < 1e-9

    def test_candidates_sorted_and_distinct(self):
        cs = candidate_set(cycles_for(7.3, 9, 100.0), 9, 100.0)
        cands = np.asarray(cs)
        assert np.all(np.diff(cands) > 0)
        assert cands.size == 9

    @pytest.mark.parametrize("step", [0, -3])
    def test_step_below_one_rejected(self, step):
        with pytest.raises(ValueError, match="positive"):
            candidate_set(0.25, step, 1000.0)

    @pytest.mark.parametrize("cycles", [math.nan, math.inf, -math.inf])
    def test_non_finite_cycles_rejected(self, cycles):
        with pytest.raises(ValueError, match="finite"):
            candidate_set(cycles, 4, 1000.0)


class TestBezout:
    def test_reference_pair(self):
        bp = bezout(50, 17)
        assert (bp.t, bp.v) == (-1, 3)
        assert 50 * bp.t + 17 * bp.v == 1

    def test_trivial_pair(self):
        bp = bezout(2, 1)
        assert (bp.t, bp.v) == (0, 1)

    def test_second_setting_minimal_max(self):
        bp = bezout(142, 7)
        assert 142 * bp.t + 7 * bp.v == 1
        # Exhaustive scan over the one-parameter solution family: no valid
        # pair has a smaller max(|t|, |v|), and ties prefer smaller |t|.
        best = max(abs(bp.t), abs(bp.v))
        for k in range(-200, 201):
            t = bp.t + 7 * k
            v = bp.v - 142 * k
            cand = max(abs(t), abs(v))
            assert cand >= best
            if cand == best:
                assert abs(bp.t) <= abs(t)

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            bezout(4, 2)

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValueError):
            BezoutPair(t=1, v=1, u=4, s=3)


class TestResolveBezout:
    def test_tone_125(self):
        bp = bezout(50, 17)
        a_u = cycles_for(125.0, 50, 1000.0)
        a_s = cycles_for(125.0, 17, 1000.0)
        freq, amp = resolve_bezout(a_u, a_s, bp, 1000.0)
        assert freq == pytest.approx(125.0, abs=1e-9)
        assert amp == abs(bp.t) + abs(bp.v)

    def test_tone_245(self):
        bp = bezout(50, 17)
        a_u = cycles_for(245.0, 50, 1000.0)
        a_s = cycles_for(245.0, 17, 1000.0)
        freq, _ = resolve_bezout(a_u, a_s, bp, 1000.0)
        assert freq == pytest.approx(245.0, abs=1e-9)

    def test_unit_generators_give_zero(self):
        bp = bezout(5, 3)
        freq, _ = resolve_bezout(angle_cycles(1.0 + 0j),
                                 angle_cycles(1.0 + 0j), bp, 1000.0)
        assert freq == pytest.approx(0.0, abs=1e-9)

    def test_perturbation_bound(self):
        rng = np.random.default_rng(3)
        bp = bezout(50, 17)
        rate = 1000.0
        eps = 1e-4
        bound = (abs(bp.t) + abs(bp.v)) * eps * rate / (2 * math.pi)
        for _ in range(50):
            true = float(rng.uniform(0, rate))
            du, ds = rng.uniform(-eps, eps, size=2)
            a_u = angle_cycles(np.exp(
                1j * (2 * np.pi * true * 50 / rate + du)))
            a_s = angle_cycles(np.exp(
                1j * (2 * np.pi * true * 17 / rate + ds)))
            freq, _ = resolve_bezout(a_u, a_s, bp, rate)
            assert circular_distance_hz(freq, true, rate) <= bound + 1e-9

    @pytest.mark.parametrize("cycles", [(math.nan, 0.1), (0.1, math.inf)])
    def test_non_finite_cycles_rejected(self, cycles):
        with pytest.raises(ValueError, match="finite"):
            resolve_bezout(*cycles, bezout(50, 17), 1000.0)


class TestResolveMatch:
    def test_tone_125(self):
        freq, dist = resolve_match(cycles_for(125.0, 50, 1000.0), 50,
                                   cycles_for(125.0, 17, 1000.0), 17, 1000.0)
        assert freq == pytest.approx(125.0, abs=1e-9)
        assert dist == pytest.approx(0.0, abs=1e-9)

    def test_on_grid_uniqueness_sweep(self):
        # Every on-grid frequency for N=60, u=4, s=3 resolves exactly.
        n, u, s, rate = 60, 4, 3, 60.0
        for j in range(n):
            f = j * rate / n
            freq, _ = resolve_match(cycles_for(f, u, rate), u,
                                    cycles_for(f, s, rate), s, rate)
            assert freq == pytest.approx(f, abs=1e-9)

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            resolve_match(cycles_for(10.0, 4, 100.0), 4,
                          cycles_for(10.0, 2, 100.0), 2, 100.0)

    @pytest.mark.parametrize("u,s", [(0, 3), (4, 0), (-1, 3)])
    def test_step_below_one_rejected(self, u, s):
        with pytest.raises(ValueError, match="positive"):
            resolve_match(0.25, u, 0.5, s, 1000.0)

    @pytest.mark.parametrize("cycles", [(math.nan, 0.5), (0.25, math.nan),
                                        (math.inf, 0.5), (0.25, -math.inf)])
    def test_non_finite_cycles_rejected(self, cycles):
        with pytest.raises(ValueError, match="finite"):
            resolve_match(cycles[0], 50, cycles[1], 17, 1000.0)

    def test_rescaled_generators_match(self):
        # angle_cycles reads only the angle of an off-circle observation.
        freq, _ = resolve_match(
            cycles_for(125.0, 50, 1000.0, scale=1.15), 50,
            cycles_for(125.0, 17, 1000.0, scale=1.15), 17, 1000.0)
        assert freq == pytest.approx(125.0, abs=1e-9)

    def test_result_prefers_prony_side_candidate(self):
        # Perturb the step-s observation: the returned frequency must follow
        # the s-set candidate, which carries the finer estimate.
        rate = 1000.0
        offset = 0.05
        freq, dist = resolve_match(cycles_for(125.0, 50, rate), 50,
                                   cycles_for(125.0 + offset, 17, rate), 17,
                                   rate)
        assert freq == pytest.approx(125.0 + offset, abs=1e-9)
        assert dist == pytest.approx(offset * 17 / 17, abs=1e-6)

    def test_all_far_raises_no_unique_intersection(self):
        # At 2^60 cycles a_u + k rounds to a_u, so all 50 u-candidates sit
        # at 520 Hz (mod 1000): every pair is as far apart as its
        # runner-up.
        rate = 1000.0
        a_u = 2.0 ** 60
        assert np.all(candidate_set(a_u, 50, rate) % rate == 520.0)
        with pytest.raises(NoUniqueIntersection):
            resolve_match(a_u, 50, cycles_for(125.0, 17, rate), 17, rate)

    def test_exact_tie_at_unit_step_is_ambiguous(self):
        # c = s a_u - u a_s falls halfway between two integers: the two
        # nearest pairs are R / (2 u s) = 42.67 Hz apart each, a tie.
        with pytest.raises(NoUniqueIntersection):
            resolve_match(0.24569965899738366, 6, 0.12428327649956394, 1,
                          512.0)

    def test_near_tie_raises_ambiguous(self):
        # U spacing 2 Hz, S spacing 3 Hz on a 6 Hz band; offsetting the
        # s-observation by 0.4 Hz leaves two pairings within a factor two.
        rate = 6.0
        with pytest.raises(NoUniqueIntersection):
            resolve_match(cycles_for(0.5, 3, rate), 3,
                          cycles_for(1.9, 2, rate), 2, rate)

    def test_circular_distance(self):
        assert circular_distance_hz(1.0, 999.0, 1000.0) == pytest.approx(2.0)
        assert circular_distance_hz(10.0, 30.0, 1000.0) == pytest.approx(20.0)


def matrix_match(u_set, s_set, rate):
    """Brute-force oracle: the full u x s circular distance matrix."""
    diff = np.abs(u_set[:, None] - s_set[None, :]) % rate
    dist = np.minimum(diff, rate - diff)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    best = float(dist[i, j])
    rest = dist.copy()
    rest[i, j] = np.inf
    if float(rest.min()) <= 2.0 * best:
        raise NoUniqueIntersection("oracle")
    return float(s_set[j]), best


def outcome(fn, *args):
    try:
        freq, dist = fn(*args)
    except NoUniqueIntersection as exc:
        return type(exc)
    return np.float64(freq).tobytes(), np.float64(dist).tobytes()


COPRIME_PAIRS = [(1, 1), (2, 1), (1, 3), (3, 2), (4, 3), (7, 5), (50, 17),
                 (17, 50), (142, 7), (142, 17)]


class TestClosedFormPairing:
    """The lattice rounding against the full distance matrix: same pair,
    same distance bits, same error type."""

    def check(self, a_u, u, a_s, s, rate):
        want = outcome(matrix_match, candidate_set(a_u, u, rate),
                       candidate_set(a_s, s, rate), rate)
        assert outcome(resolve_match, a_u, u, a_s, s, rate) == want
        return want

    @pytest.mark.parametrize("u,s", COPRIME_PAIRS)
    def test_random_generators(self, u, s):
        rng = np.random.default_rng([u, s])
        rate = 1000.0
        outcomes = set()
        for _ in range(150):
            f = rng.uniform(0, rate)
            # From an exact match to an unrelated s-observation.
            err = rng.choice([0.0, 1e-9, 1e-3, 0.1, 1.0]) * rate / (u * s)
            err = rate * rng.random() if rng.random() < 0.2 else err
            want = self.check(cycles_for(f, u, rate), u,
                              cycles_for(f + err, s, rate), s, rate)
            outcomes.add(want if isinstance(want, type) else tuple)
        if u * s > 2:
            assert outcomes >= {tuple, NoUniqueIntersection}

    @pytest.mark.parametrize("u,s", [(50, 17), (142, 7), (4, 3)])
    def test_seam_of_the_circle(self, u, s):
        rate = 1000.0
        for f in (0.0, 1e-12, 1e-9, 1e-6, -1e-12, -1e-9, -1e-6):
            for shift in (0.0, 1e-7, -1e-7):
                self.check(cycles_for(f, u, rate), u,
                           cycles_for(f + shift, s, rate), s, rate)

    @pytest.mark.parametrize("u,s", [(50, 17), (142, 17), (3, 2), (5, 3)])
    def test_ambiguity_boundary(self, u, s):
        # Runner-up at exactly twice the best distance: c = s a_u - u a_s
        # one third of the way between two integers, nudged both ways.
        rng = np.random.default_rng([u, s, 3])
        rate = 1000.0
        checked = 0
        for _ in range(60):
            a_u = rng.random()
            c = s * a_u - u * rng.random()
            for nudge in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9):
                for side in (1 / 3, 2 / 3):
                    a_s = (s * a_u - (math.floor(c) + side + nudge)) / u
                    if not 0.0 <= a_s < 1.0:
                        continue
                    self.check(angle_cycles(np.exp(2j * np.pi * a_u)), u,
                               angle_cycles(np.exp(2j * np.pi * a_s)), s,
                               rate)
                    checked += 1
        assert checked > 100
