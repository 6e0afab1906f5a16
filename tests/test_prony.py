"""Hankel pencil decomposition, order detection, the guarded SVD."""
import math

import numpy as np
import pytest

from sparsespec import (
    BadShape,
    NoConvergence,
    estimate_order,
    hankel,
    model_residual,
    pencil_decompose,
    svd_small,
)
from sparsespec.prony import (
    NOISE_EDGE_FACTOR,
    RANK_FLOOR_REL,
    estimate_noise,
)


def sequence_of(terms, m):
    idx = np.arange(m)
    vals = np.zeros(m, dtype=np.complex128)
    for amp, z in terms:
        vals += amp * z ** idx
    return vals


def angle_distance(a, b):
    d = abs((np.angle(a) - np.angle(b)) % (2 * np.pi))
    return min(d, 2 * np.pi - d)


class TestHankel:
    def test_layout(self):
        seq = np.arange(1, 6, dtype=np.complex128)
        h = hankel(seq, 3)
        assert np.array_equal(h, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_single_term_is_rank_one(self):
        z = np.exp(2j * np.pi * 0.3)
        seq = sequence_of([(1.5 + 0.5j, z)], 9)
        _, sv, _ = svd_small(hankel(seq, 4))
        assert sv[1] / sv[0] <= 1e-12

    def test_two_terms_are_rank_two(self):
        z1 = np.exp(2j * np.pi * 0.1)
        z2 = np.exp(2j * np.pi * 0.4)
        seq = sequence_of([(1.0, z1), (0.7j, z2)], 9)
        _, sv, _ = svd_small(hankel(seq, 3))
        assert sv[1] / sv[0] > 1e-3
        assert sv[2] / sv[0] <= 1e-12

    def test_bad_rows_rejected(self):
        seq = np.ones(5, dtype=np.complex128)
        with pytest.raises(BadShape):
            hankel(seq, 0)
        with pytest.raises(BadShape):
            hankel(seq, 6)
        # A 2-d array or a single value is no sequence: every fit reads
        # its input through hankel, which raises BadShape.
        for bad in (np.ones((3, 4), dtype=np.complex128),
                    np.ones(1, dtype=np.complex128)):
            with pytest.raises(BadShape):
                hankel(bad, 1)
            with pytest.raises(BadShape):
                estimate_order(bad, 0.0)
            with pytest.raises(BadShape):
                pencil_decompose(bad, 1)


class TestSvdSmall:
    def check_factorization(self, a):
        u, sv, v = svd_small(a)
        m, n = a.shape
        k = min(m, n)
        assert sv.shape == (k,)
        assert np.all(np.diff(sv) <= 1e-12)
        assert np.all(sv >= 0)
        recon = (u * sv) @ v.conj().T
        scale = max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(recon - a) <= 1e-10 * scale
        assert np.linalg.norm(u.conj().T @ u - np.eye(k)) <= 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(k)) <= 1e-10
        return sv

    def test_identity(self):
        sv = self.check_factorization(np.eye(3, dtype=np.complex128))
        assert np.allclose(sv, 1.0)

    def test_diagonal(self):
        sv = self.check_factorization(np.diag([3.0, 2.0, 1.0]).astype(
            np.complex128))
        assert np.allclose(sv, [3, 2, 1])

    def test_two_by_two_closed_form(self):
        # Singular values squared solve x^2 - ||A||_F^2 x + |det A|^2 = 0.
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            sv = self.check_factorization(a)
            tr = np.sum(np.abs(a) ** 2)
            det = abs(np.linalg.det(a)) ** 2
            disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
            expected = np.sqrt([(tr + disc) / 2, max((tr - disc) / 2, 0.0)])
            assert np.allclose(sv, expected, rtol=1e-10, atol=1e-12)

    def test_random_rectangular(self):
        rng = np.random.default_rng(6)
        for shape in ((8, 5), (5, 8), (3, 7), (12, 12)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            self.check_factorization(a)

    def test_random_up_to_64(self):
        rng = np.random.default_rng(7)
        for shape in ((64, 64), (64, 17), (17, 64)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            self.check_factorization(a)

    def test_zero_matrix(self):
        sv = self.check_factorization(np.zeros((4, 3), dtype=np.complex128))
        assert np.allclose(sv, 0.0)

    def test_oversized_rejected(self):
        with pytest.raises(BadShape):
            svd_small(np.zeros((513, 2), dtype=np.complex128))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_raises(self, bad):
        a = np.ones((4, 3), dtype=np.complex128)
        a[2, 1] = bad
        with pytest.raises(NoConvergence):
            svd_small(a)

    def test_lapack_failure_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConvergence):
            svd_small(np.eye(3, dtype=np.complex128))


class TestEstimateOrder:
    def test_single_term(self):
        seq = sequence_of([(1.0, np.exp(2j * np.pi * 0.21))], 12)
        est = estimate_order(seq, 0.0)
        assert est.rank == 1
        assert est.gap_ratio >= 1e8

    def test_two_and_three_terms(self):
        z = [np.exp(2j * np.pi * c) for c in (0.125, 0.805, 0.165)]
        amps = [1.0, np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 4)]
        for q in (2, 3):
            seq = sequence_of(list(zip(amps[:q], z[:q])), 12)
            est = estimate_order(seq, 0.0)
            assert est.rank == q
            assert est.gap_ratio >= 1e8

    def test_zero_sequence(self):
        seq = np.zeros(8, dtype=np.complex128)
        assert estimate_order(seq, 0.0).rank == 0

    def test_too_short_rejected(self):
        with pytest.raises(BadShape):
            estimate_order(np.ones(1, dtype=np.complex128), 0.0)
        with pytest.raises(BadShape):
            pencil_decompose(np.ones(1, dtype=np.complex128), 1)
        # Two values are the shortest sequence: a 1 x 2 Hankel whose one
        # singular value is the sequence's 2-norm.
        est = estimate_order(np.array([3.0, 4.0j]), 0.0)
        assert est.rank == 1
        assert est.singular_values == pytest.approx([5.0])

    def test_noise_only_gives_rank_zero(self):
        # Circular Gaussian noise of known sigma: the largest Hankel
        # singular value stays under the noise edge.
        rng = np.random.default_rng(13)
        for m in (3, 8, 12, 28, 63):
            for _ in range(100):
                vals = 0.3 * (rng.standard_normal(m)
                              + 1j * rng.standard_normal(m)) / math.sqrt(2)
                assert estimate_order(vals, 0.3).rank == 0

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_rank_is_scale_free(self, scale):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = int(rng.integers(5, 29))
            q = int(rng.integers(1, 4))
            amps = rng.uniform(0.1, 2, q) * np.exp(2j * np.pi * rng.random(q))
            zs = np.exp(2j * np.pi * rng.random(q))
            noise = float(rng.choice([0.0, 1e-3, 0.1]))
            vals = sequence_of(list(zip(amps, zs)), m) + noise * (
                rng.standard_normal(m) + 1j * rng.standard_normal(m))
            want = estimate_order(vals, noise).rank
            scaled = vals * scale
            assert estimate_order(scaled, noise * scale).rank == want

    def test_rank_matches_full_svd(self):
        # Seeded sums of 1-5 terms, noise-free and noisy, long and short:
        # the rank is the count of the Hankel's singular values at or above
        # the noise edge and the relative floor.
        rng = np.random.default_rng(12)
        for _ in range(300):
            m = int(rng.integers(3, 29))
            q = int(rng.integers(1, 6))
            amps = rng.uniform(0.1, 2, q) * np.exp(2j * np.pi * rng.random(q))
            zs = np.exp(2j * np.pi * rng.random(q))
            vals = sequence_of(list(zip(amps, zs)), m)
            noise = float(rng.choice([0.0, 1e-6, 1e-2]))
            seq = vals + noise * (
                rng.standard_normal(m) + 1j * rng.standard_normal(m))
            rows = (m + 1) // 2
            _, full, _ = svd_small(hankel(seq, rows))
            edge = NOISE_EDGE_FACTOR * noise * math.sqrt(2) * (
                math.sqrt(rows) + math.sqrt(m - rows + 1))
            want = int(np.count_nonzero(
                full >= max(edge, RANK_FLOOR_REL * full[0])))
            assert estimate_order(seq, noise * math.sqrt(2)).rank == want

    def test_singular_values_descending(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        est = estimate_order(vals, 0.0)
        assert np.all(np.diff(est.singular_values) <= 1e-12)


class TestEstimateNoise:
    def test_reads_sigma_of_gaussian_noise(self):
        rng = np.random.default_rng(15)
        vals = 2.5 * (rng.standard_normal(20001)
                      + 1j * rng.standard_normal(20001)) / math.sqrt(2)
        vals[:50] += 1e3  # a few strong tones do not move the median
        assert estimate_noise(vals) == pytest.approx(2.5, rel=0.03)

    def test_no_overflow_near_float_max(self):
        vals = np.full(9, 1e300 + 1e300j)
        assert estimate_noise(vals) == pytest.approx(
            math.sqrt(2) * 1e300 / math.sqrt(math.log(2)))


class TestPencilDecompose:
    def test_single_tone_exact(self):
        z = np.exp(2j * np.pi * 0.3)
        seq = sequence_of([(2 + 1j, z)], 12)
        zs, amps = pencil_decompose(seq, 1)
        assert len(zs) == len(amps) == 1
        assert abs(amps[0] - (2 + 1j)) <= 1e-10
        assert abs(zs[0] - z) <= 1e-10

    def test_collision_pair_exact(self):
        # Two tones that collide on one undersampled bin: per-stream ratio
        # z_k = exp(2i pi f_k s / R) with s=17, R=1000.
        z1 = np.exp(2j * np.pi * 125 * 17 / 1000)
        z2 = np.exp(2j * np.pi * 165 * 17 / 1000)
        a1, a2 = 1.0 + 0j, np.exp(1j * np.pi / 3)
        seq = sequence_of([(a1, z1), (a2, z2)], 12)
        zs, amps = pencil_decompose(seq, 2)
        got = sorted(zip(zs, amps), key=lambda t: np.angle(t[0]))
        want = sorted([(a1, z1), (a2, z2)], key=lambda p: np.angle(p[1]))
        for (got_z, got_amp), (amp, z) in zip(got, want):
            assert abs(got_z - z) <= 1e-8
            assert abs(got_amp - amp) <= 1e-8

    def test_overfit_extra_term_is_tiny(self):
        z1 = np.exp(2j * np.pi * 125 * 17 / 1000)
        z2 = np.exp(2j * np.pi * 165 * 17 / 1000)
        seq = sequence_of([(1.0, z1), (np.exp(1j * np.pi / 3), z2)], 12)
        zs, amps = pencil_decompose(seq, 3)
        assert len(zs) == len(amps) <= 3
        mags = sorted(np.abs(amps), reverse=True)
        assert mags[0] == pytest.approx(1.0, abs=1e-7)
        if len(mags) == 3:
            assert mags[2] <= 1e-8

    def test_order_bounds_rejected(self):
        seq = sequence_of([(1.0, 1j)], 12)
        with pytest.raises(ValueError):
            pencil_decompose(seq, 0)
        with pytest.raises(ValueError):
            pencil_decompose(seq, 6)

    def test_random_terms_property(self):
        # q <= 3 noise-free terms, unit-circle z at least 0.05 apart,
        # amplitudes in [0.5, 1.5]: recovery to 1e-7 with M = 2q+6.
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = int(rng.integers(1, 4))
            while True:
                zs = np.exp(2j * np.pi * rng.uniform(0, 1, size=q))
                if q == 1 or np.min(np.abs(
                        zs[:, None] - zs[None, :])[np.triu_indices(q, 1)]
                        ) >= 0.05:
                    break
            amps = (rng.uniform(0.5, 1.5, size=q)
                    * np.exp(2j * np.pi * rng.uniform(0, 1, size=q)))
            seq = sequence_of(list(zip(amps, zs)), 2 * q + 6)
            got_zs, got_amps = pencil_decompose(seq, q)
            assert len(got_zs) == q
            est = estimate_order(seq, 0.0)
            assert est.rank == q
            assert est.gap_ratio >= 1e8
            assert model_residual(seq, got_zs, got_amps) <= 1e-9
            used = set()
            for k in range(q):
                dists = [abs(z - zs[k]) if i not in used else np.inf
                         for i, z in enumerate(got_zs)]
                i = int(np.argmin(dists))
                used.add(i)
                assert abs(got_zs[i] - zs[k]) <= 1e-7
                assert abs(got_amps[i] - amps[k]) <= 1e-7

    def test_exact_order_no_worse_than_overfit(self):
        # fit takes the pencil at the estimated order, not above it: at
        # SNR 30, pooled over 4,000 draws, the exact-order q=2 fit places
        # the two true ratios no worse than an overfit q=4 pencil's two
        # strongest terms.
        z_true = [np.exp(2j * np.pi * 0.13), np.exp(2j * np.pi * 0.49)]
        amps = [1.0, np.exp(1j * np.pi / 3)]
        clean = sequence_of(list(zip(amps, z_true)), 12)
        power = np.mean(np.abs(clean) ** 2)
        sigma = math.sqrt(power / 10 ** 3.0)
        errs = {2: [], 4: []}
        for seed in range(10, 30):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                noise = sigma / math.sqrt(2) * (
                    rng.standard_normal(12) + 1j * rng.standard_normal(12))
                seq = clean + noise
                for q in (2, 4):
                    # Sorted by descending |amplitude|: the top-2 terms.
                    top = pencil_decompose(seq, q)[0][:2]
                    errs[q].append(sum(
                        min(angle_distance(t, z) for t in top)
                        for z in z_true))
        assert np.median(errs[2]) <= np.median(errs[4])

    def test_residual_equals_term_by_term_sum(self):
        # The reference: the model summed one term at a time. The product
        # over all terms keeps that order, so the residual bits agree.
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(3, 29))
            vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            zs = np.exp(rng.uniform(-0.2, 0.2, 5) + 2j * np.pi * rng.random(5))
            q = int(rng.integers(0, 6))
            amps, zs = amps[:q], zs[:q]
            model = np.zeros(m, dtype=np.complex128)
            for amp, z in zip(amps, zs):
                model += amp * z ** np.arange(m)
            want = float(np.linalg.norm(vals - model) / np.linalg.norm(vals))
            assert model_residual(vals, zs, amps) == want

    def test_residual_of_empty_model(self):
        seq = sequence_of([(1.0, 1j)], 8)
        none = np.empty(0, dtype=np.complex128)
        assert model_residual(seq, none, none) == pytest.approx(1.0)
