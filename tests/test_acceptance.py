"""Acceptance gate: eleven primary criteria, one verdict line each.

Each test prints its verdict through ``capsys.disabled()`` so the line is
visible in the live pytest output at any verbosity.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sparsespec import (
    ComplexSignal,
    NotCoprime,
    StreamSpec,
    analyze,
    angle_cycles,
    bezout,
    circular_distance_hz,
    circular_shift,
    dft,
    dft_direct,
    estimate_order,
    evaluate,
    experiment_1_config,
    experiment_1_spec,
    experiment_2_config,
    experiment_2_spec,
    extract_streams,
    idft,
    pencil_decompose,
    resolve_bezout,
    resolve_match,
    run_experiment_1,
    shifted_coeffs_shortcut,
    synthesize,
)

EXPERIMENT_2_REFERENCE_SAMPLES = 12824

# Shared by criteria 3 and 7: (N, u, s) with u | N and gcd(u, s) = 1.
COPRIME_SWEEP = [
    (512, 4, 3), (512, 8, 15), (500, 5, 17), (480, 6, 7), (360, 4, 9),
    (256, 16, 9), (240, 5, 13), (128, 8, 11), (120, 6, 49), (100, 4, 7),
]


def random_signal(rng, n):
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexSignal(samples=vals, rate_hz=float(n))


def cycles_for(freq, u, s, rate):
    """Angle cycles of the step-u and step-s observations of freq."""
    a_u = angle_cycles(np.exp(2j * np.pi * freq * u / rate))
    a_s = angle_cycles(np.exp(2j * np.pi * freq * s / rate))
    return a_u, a_s


def test_criterion_1_kernel_correctness(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    counts = {16: 20, 257: 10, 1000: 10, 4096: 10}
    assert sum(counts.values()) == 50
    worst = 0.0
    for n, how_many in counts.items():
        lj = np.outer(np.arange(n), np.arange(n))
        w = np.exp(-2j * np.pi * lj / n)
        del lj
        for trial in range(how_many):
            x = random_signal(rng, n)
            fast = dft(x)
            slow = w @ x.samples
            scale = np.linalg.norm(slow)
            worst = max(worst, np.linalg.norm(fast - slow) / scale)
            assert np.linalg.norm(fast - slow) <= 1e-9 * scale
            back = idft(dft(x), rate_hz=x.rate_hz)
            assert np.linalg.norm(back.samples - x.samples) \
                <= 1e-9 * np.linalg.norm(x.samples)
            t_energy = np.sum(np.abs(x.samples) ** 2)
            f_energy = np.sum(np.abs(fast) ** 2) / n
            assert abs(t_energy - f_energy) <= 1e-9 * t_energy
            if n <= 257 and trial == 0:
                direct = dft_direct(x.samples)
                assert np.linalg.norm(direct - slow) <= 1e-9 * scale
        del w
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"\ncriterion 1: PASS - dft/idft/Parseval on 50 signals, "
              f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_shift_identity(capsys):
    rng = np.random.default_rng(102)
    pool = [60, 64, 96, 120, 128, 240, 256, 360, 480, 512]
    checked = 0
    for _ in range(20):
        n = int(rng.choice(pool))
        divisors = [d for d in range(2, n) if n % d == 0]
        u = int(rng.choice(divisors))
        s = int(rng.integers(1, n))
        x = random_signal(rng, n)
        base = dft(x)
        shifted = dft(circular_shift(x, s))
        phase = np.exp(2j * np.pi * s * np.arange(n) / n)
        assert np.linalg.norm(shifted - phase * base) \
            <= 1e-9 * np.linalg.norm(base)
        # Decimated form on a random fine-grid tone, wrapped streams.
        j = int(rng.integers(0, n))
        tone = ComplexSignal(
            samples=np.exp(2j * np.pi * j * np.arange(n) / n),
            rate_hz=float(n))
        spec = StreamSpec(u=u, s=s, M=3, n=n // u, wrap=True) \
            if math.gcd(u, s) == 1 else None
        if spec is not None:
            rows = extract_streams(tone, spec)
            s0 = np.fft.fft(rows[0])
            for m in (1, 2):
                got = np.fft.fft(rows[m])
                ratio = np.exp(2j * np.pi * m * s * j / n)
                assert np.linalg.norm(got - ratio * s0) \
                    <= 1e-9 * np.linalg.norm(s0)
        checked += 1
    assert checked == 20
    with capsys.disabled():
        print("criterion 2: PASS - shift ratio exp(2i pi s j / N) on 20 "
              "random (N, u, s) triples")


def test_criterion_3_coprime_uniqueness(capsys):
    start = time.monotonic()
    total = 0
    for n, u, s in COPRIME_SWEEP:
        rate = float(n)
        for j in range(n):
            f = j * rate / n
            a_u, a_s = cycles_for(f, u, s, rate)
            freq, _ = resolve_match(a_u, u, a_s, s, rate)
            assert circular_distance_hz(freq, f, rate) <= 1e-9
            total += 1
    with pytest.raises(NotCoprime):
        resolve_match(angle_cycles(1.0 + 0j), 4, angle_cycles(1.0 + 0j), 2,
                      512.0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"criterion 3: PASS - {total} exact resolutions over "
              f"{len(COPRIME_SWEEP)} coprime pairs, non-coprime rejected, "
              f"{elapsed:.1f}s")


def test_criterion_4_prony_exactness(capsys):
    rng = np.random.default_rng(104)
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
        m = 2 * q + 6
        idx = np.arange(m)
        vals = np.zeros(m, dtype=np.complex128)
        for a, z in zip(amps, zs):
            vals += a * z ** idx
        est = estimate_order(vals, 0.0)
        assert est.rank == q
        assert est.gap_ratio >= 1e8
        got_zs, got_amps = pencil_decompose(vals, q)
        assert len(got_zs) == q
        used = set()
        for k in range(q):
            dists = [abs(z - zs[k]) if i not in used else np.inf
                     for i, z in enumerate(got_zs)]
            i = int(np.argmin(dists))
            used.add(i)
            assert abs(got_zs[i] - zs[k]) <= 1e-7
            assert abs(got_amps[i] - amps[k]) <= 1e-7
    with capsys.disabled():
        print("criterion 4: PASS - 100 random q<=3 decompositions exact to "
              "1e-7, ranks exact with gap >= 1e8")


def test_criterion_5_experiment_1(capsys):
    start = time.monotonic()
    cfg = experiment_1_config()
    stats = []
    for k in range(3):
        successes = 0
        collision_ok = 0
        amp_errs = []
        for seed in range(100):
            spec = experiment_1_spec(k, seed=seed)
            x = synthesize(spec)
            res = analyze(x, cfg)
            assert res.diagnostics["stream_length"] == 16
            report = evaluate(spec, res, tol_hz=0.5)
            ok = (len(report.missed) == 0
                  and all(abs(c.amplitude) <= 0.3 for c in report.spurious))
            successes += ok
            amp_errs.extend(err for _, _, _, err in report.matched)
            orders = {c.collision_order for c in res.components
                      if c.source_bin == 4}
            collision_ok += orders == {k + 1}
        med = float(np.median(amp_errs))
        stats.append((successes, med, collision_ok))
        assert successes >= 90
        assert med <= 0.1
        assert collision_ok >= 90
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        succ = "/".join(str(s) for s, _, _ in stats)
        meds = "/".join(f"{m:.3f}" for _, m, _ in stats)
        coll = "/".join(str(c) for _, _, c in stats)
        print(f"criterion 5: PASS - success {succ} of 100, median amp err "
              f"{meds}, collision orders 1/2/3 in {coll} of 100, "
              f"{elapsed:.1f}s")


def test_criterion_6_experiment_2(capsys):
    start = time.monotonic()
    rate = 10000.0

    # (a) Sample budget at M=28.
    spec = experiment_2_spec(seed=0, snr_db=None)
    x = synthesize(spec)
    cfg = experiment_2_config(M=28, snr_db=None)
    res = analyze(x, cfg)
    n = res.diagnostics["stream_length"]
    samples = res.diagnostics["samples_used"]
    assert n == 461
    assert samples == 28 * 461 == 12908
    assert samples <= 13000

    # (b) Effective resolution versus the same-budget dense grid.
    effective = rate / (n * cfg.u)
    assert 0.15 <= effective <= 0.16
    budget_dense = rate / samples
    assert budget_dense >= 0.75
    # 0.3 Hz tone spacing cannot be separated at that bin width.
    assert budget_dense > 0.3

    # (c) Noise-free recovery of all 8 tones within 0.2 Hz.
    report = evaluate(spec, res, tol_hz=0.2)
    assert report.recall == 1.0
    matched_mus = sorted(t.mu_hz for t, _, _, _ in report.matched)
    for cluster in ((100.0, 100.3, 100.92), (4000.0, 4000.3, 4000.7)):
        for mu in cluster:
            assert mu in matched_mus

    # (d) SNR 10 dB: recall >= 7/8 within 0.4 Hz in >= 80% of 50 seeds.
    cfg10 = experiment_2_config(M=28, snr_db=10.0)
    good = 0
    for seed in range(50):
        spec10 = experiment_2_spec(seed=seed, snr_db=10.0)
        res10 = analyze(synthesize(spec10), cfg10)
        rep10 = evaluate(spec10, res10, tol_hz=0.4)
        good += rep10.recall >= 7 / 8
    assert good >= 40

    # (e) SNR -10 dB: statistics only.
    cfg_neg = experiment_2_config(M=28, snr_db=-10.0)
    recalls = []
    for seed in range(10):
        spec_neg = experiment_2_spec(seed=seed, snr_db=-10.0)
        res_neg = analyze(synthesize(spec_neg), cfg_neg)
        recalls.append(evaluate(spec_neg, res_neg, tol_hz=0.4).recall)

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    with capsys.disabled():
        print(f"criterion 6: PASS - {samples} samples (reference count "
              f"{EXPERIMENT_2_REFERENCE_SAMPLES}), resolution "
              f"{effective:.4f} Hz vs budget-dense {budget_dense:.4f} Hz, "
              f"noise-free recall 1.0, SNR10 {good}/50 seeds at recall>=7/8, "
              f"SNR-10 mean recall {np.mean(recalls):.2f} (stats only), "
              f"{elapsed:.1f}s")


def test_criterion_7_bezout_vs_match(capsys):
    for n, u, s in COPRIME_SWEEP:
        rate = float(n)
        bp = bezout(u, s)
        for j in range(n):
            f = j * rate / n
            a_u, a_s = cycles_for(f, u, s, rate)
            via_bezout, _ = resolve_bezout(a_u, a_s, bp, rate)
            via_match, _ = resolve_match(a_u, u, a_s, s, rate)
            assert circular_distance_hz(via_bezout, via_match, rate) <= 1e-9

    rng = np.random.default_rng(107)
    eps = 1e-4
    for _ in range(100):
        n, u, s = COPRIME_SWEEP[int(rng.integers(len(COPRIME_SWEEP)))]
        rate = float(n)
        bp = bezout(u, s)
        bound = (abs(bp.t) + abs(bp.v)) * eps * rate / (2 * math.pi)
        true = float(rng.uniform(0, rate))
        du, ds = rng.uniform(-eps, eps, size=2)
        a_u = angle_cycles(np.exp(1j * (2 * np.pi * true * u / rate + du)))
        a_s = angle_cycles(np.exp(1j * (2 * np.pi * true * s / rate + ds)))
        freq, _ = resolve_bezout(a_u, a_s, bp, rate)
        assert circular_distance_hz(freq, true, rate) <= bound + 1e-9
    with capsys.disabled():
        print("criterion 7: PASS - bezout == match to 1e-9 Hz across the "
              "sweep; perturbation bound held in 100/100 trials")


def test_criterion_8_vandermonde_shortcut(capsys):
    rate = 1000.0
    idx = np.arange(1000)
    x = ComplexSignal(samples=np.exp(2j * np.pi * 2.0 * idx / rate),
                      rate_hz=rate)

    spec = StreamSpec(u=250, s=1, M=2, n=4)
    bins = list(range(4))
    (vals,), cond = shifted_coeffs_shortcut(x, bins, spec)
    assert abs(cond - 1.0) <= 1e-9
    direct = np.fft.fft(extract_streams(x, spec)[1])
    scale = max(float(np.abs(direct).max()), 1.0)
    for b, v in zip(bins, vals):
        assert abs(v - direct[b]) <= 1e-8 * scale

    dense_spec = StreamSpec(u=1, s=1, M=2, n=1000, wrap=True)
    dense_bins = [11, 22, 33, 44]
    from sparsespec import IllConditionedVandermonde
    try:
        _, dense_cond = shifted_coeffs_shortcut(x, dense_bins, dense_spec)
    except IllConditionedVandermonde:
        dense_cond = math.inf
    assert dense_cond > 1e4

    with capsys.disabled():
        shown = "inf" if math.isinf(dense_cond) else f"{dense_cond:.2e}"
        print(f"criterion 8: PASS - root-grid condition {cond:.12f}, "
              f"full-grid nodes condition {shown} > 1e4, shortcut matches "
              f"direct stream DFT to 1e-8")


def test_criterion_9_thread_determinism(capsys, tmp_path):
    digests = {}
    for run in range(3):
        out = tmp_path / f"run{run}"
        run_experiment_1(out, seed=0)
        files = sorted(p.relative_to(out).as_posix()
                       for p in out.rglob("*.csv") if p.is_file())
        digests[run] = {name: (out / name).read_bytes() for name in files}
    assert len(digests[0]) == 12
    assert digests[0].keys() == digests[1].keys() == digests[2].keys()
    for name in digests[0]:
        assert digests[0][name] == digests[1][name] == digests[2][name], name
    with capsys.disabled():
        print(f"criterion 9: PASS - {len(digests[0])} CSV files "
              f"byte-identical across 3 runs")


def test_criterion_10_experiment_2_precision(capsys):
    # One config serves every SNR: analyze measures the noise itself.
    start = time.monotonic()
    cfg = experiment_2_config(M=28, snr_db=None)
    assert experiment_2_config(M=28, snr_db=10.0) == cfg
    lines = []
    for snr_db, tol_hz in ((None, 0.2), (10.0, 0.4)):
        matched = components = tones = 0
        for seed in range(10):
            spec = experiment_2_spec(seed=seed, snr_db=snr_db)
            res = analyze(synthesize(spec), cfg)
            report = evaluate(spec, res, tol_hz=tol_hz)
            matched += len(report.matched)
            components += len(res.components)
            tones += len(spec.tones)
        precision = matched / components
        recall = matched / tones
        assert precision >= 0.6
        label = "noise-free" if snr_db is None else f"SNR{snr_db:g}"
        lines.append(f"{label} precision {precision:.3f} recall "
                     f"{recall:.3f}")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"criterion 10: PASS - M=28, seeds 0-9, pooled "
              f"{', '.join(lines)}, {elapsed:.1f}s")


def test_criterion_11_noise_only_false_alarms(capsys):
    # Noise alone, sigma = 10 per sample: the two detection stages are
    # designed to confirm 0.01 peak bins per record, and nothing may come
    # out as a component.
    start = time.monotonic()
    records = 100
    lines = []
    for M in (8, 28):
        cfg = experiment_2_config(M=M, snr_db=None)
        confirmed = components = 0
        for seed in range(records):
            rng = np.random.default_rng(seed)
            noise = 10.0 / math.sqrt(2.0) * (rng.standard_normal(2 ** 16)
                                            + 1j * rng.standard_normal(2 ** 16))
            res = analyze(ComplexSignal(samples=noise, rate_hz=10000.0), cfg)
            confirmed += len(res.diagnostics["peak_bins"])
            components += len(res.components)
        assert components == 0
        assert confirmed / records <= 0.1
        lines.append(f"M={M} {confirmed / records:.2f}")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"criterion 11: PASS - {records} noise-only 2^16-sample "
              f"records, confirmed peak bins per record {', '.join(lines)} "
              f"(design 0.01), 0 components, {elapsed:.1f}s")
