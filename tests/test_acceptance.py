"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
plus the pin of a limitation the README states.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 2, 7 and 9 carry the ``slow`` marker: they
take most of the suite's time, and ``pytest -m "not slow"`` leaves them out.
"""

import time

import numpy as np
import pytest

from prank import (
    Boundary,
    ChainSystem,
    Domain,
    FixedRank,
    NoiseModel,
    OffsetSpec,
    PrankConfig,
    Quantity,
    ResponseDataset,
    add_noise,
    add_offsets,
    apply_filter,
    coh,
    consist,
    e15,
    eigen,
    flatten,
    hankel_tsvd_series,
    modal_frf,
    mp_quantile_curve,
    prf_tsvd,
    read_dataset,
    synthesize_direct,
    unflatten,
    write_dataset,
)
from prank.filters import Variant

FULL = FixedRank(10**9)


def report_line(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


def complex_noise(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def table1_dataset(fmax, n_bins):
    sys_ = ChainSystem.uniform(4)
    ds = synthesize_direct(sys_, np.linspace(0.0, fmax, n_bins))
    data = np.array(ds.data)
    data[..., 0] = data[..., 0].real
    data[..., -1] = data[..., -1].real
    return ds.with_data(data)


def corrupt(ds, seed):
    noisy = add_noise(ds, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=seed))
    return add_offsets(noisy, OffsetSpec([(1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16)]))


def zero_bin(ds, lo, hi):
    return lo + int(np.argmin(np.abs(ds.data[1, 0, lo:hi])))


# ----------------------------------------------------------- 4-DoF end-to-end

@pytest.fixture(scope="module")
def end_to_end_runs():
    """Criterion 5/6 runs: five seeds, three pipeline variants, defaults."""
    clean = table1_dataset(4.0, 201)
    freqs = eigen(ChainSystem.uniform(4)).frequencies
    step = clean.axis_step
    lo, hi = int(round(freqs[0] / step)) + 1, int(round(freqs[1] / step))
    clean_zero = zero_bin(clean, lo, hi)
    rows = []
    t0 = time.perf_counter()
    for seed in range(5):
        noisy = corrupt(clean, seed)
        row = {
            "noisy_coh": consist(clean, noisy).overall,
            "noisy_miss": abs(zero_bin(noisy, lo, hi) - clean_zero),
        }
        for variant in (Variant.PRANK_PH, Variant.PRANK_HP, Variant.PRANK_HIP):
            out, _ = apply_filter(noisy, PrankConfig(variant=variant))
            row[f"{variant.value}_coh"] = consist(clean, out).overall
            row[f"{variant.value}_miss"] = abs(zero_bin(out, lo, hi) - clean_zero)
            # the row-2 offset left per input, over bins 100-200
            row[f"{variant.value}_offset"] = (out.data - clean.data)[1, :, 100:].real.mean(axis=-1)
        rows.append(row)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


# ------------------------------------------------------------ 30-DoF runs

@pytest.fixture(scope="module")
def chain30_runs():
    """Criterion 7/9 runs: 30-DoF free-free chain, 300 entries, 1024 bins."""
    sys_ = ChainSystem.uniform(30, boundary=Boundary.FREE_FREE)
    model = eigen(sys_).with_damping(0.003).with_quantity(Quantity.ACCELERANCE)
    axis = np.linspace(0.0, 1.0, 1024)
    outputs = list(range(20))
    inputs = list(range(15))
    clean = modal_frf(model, axis, outputs, inputs)
    data = np.array(clean.data)
    data[..., 0] = data[..., 0].real
    data[..., -1] = data[..., -1].real
    clean = clean.with_data(data)
    noisy = add_noise(clean, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=11))
    t0 = time.perf_counter()
    hip_out, hip_report = apply_filter(noisy, PrankConfig(variant=Variant.PRANK_HIP))
    ph_out, ph_report = apply_filter(noisy, PrankConfig(variant=Variant.PRANK_PH))
    elapsed = time.perf_counter() - t0
    return {
        "clean": clean,
        "noisy": noisy,
        "hip": (hip_out, hip_report),
        "ph": (ph_out, ph_report),
        "elapsed": elapsed,
    }


# ------------------------------------------------------------------ criteria

def test_criterion_1_exact_recovery_prf():
    t0 = time.perf_counter()
    sys_ = ChainSystem.uniform(4)
    clean = synthesize_direct(sys_, np.arange(0.0, 2.0 + 5e-4, 1e-3))
    out, _, _ = prf_tsvd(clean, FixedRank(4))
    num = np.linalg.norm(out.data - clean.data)
    den = np.linalg.norm(clean.data)
    rel = num / den
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-9 and elapsed < 5.0
    report_line(1, ok, f"rank-4 PRF reconstruction rel error {rel:.2e} ({elapsed:.2f}s)")
    assert rel <= 1e-9
    assert elapsed < 5.0


@pytest.mark.slow
def test_criterion_2_hankel_ssa_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    t = np.arange(1024)
    for _ in range(100):
        q = int(rng.integers(1, 6))
        decay = rng.uniform(5e-4, 8e-3, q)
        angle = rng.uniform(0.02, np.pi - 0.02, q)
        amps = rng.uniform(0.5, 2.0, q) * np.exp(1j * rng.uniform(0, 2 * np.pi, q))
        poles = np.exp(-decay + 1j * angle)
        series = (amps[None, :] * poles[None, :] ** t[:, None]).sum(axis=1)
        out, _ = hankel_tsvd_series(series, None, FixedRank(2 * q))
        worst = max(worst, np.linalg.norm(out - series) / np.linalg.norm(series))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report_line(2, ok, f"100 exponential sums, worst rel error {worst:.2e} ({elapsed:.1f}s)")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_e15_noise_rejection():
    t0 = time.perf_counter()
    m = n = 200
    edge = 2.0 * np.sqrt(m)
    noise_ranks, planted_ranks = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noise = complex_noise(rng, m, n)
        S_noise = np.linalg.svd(noise, compute_uv=False)
        noise_ranks.append(e15(S_noise, (m, n), 0.10).rank)
        signal_s = np.array([5.0, 8.0, 12.0, 20.0]) * edge
        qu, _ = np.linalg.qr(complex_noise(rng, m, 4))
        qv, _ = np.linalg.qr(complex_noise(rng, n, 4))
        A = (qu * signal_s) @ qv.conj().T + noise
        planted_ranks.append(e15(np.linalg.svd(A, compute_uv=False), (m, n), 0.10).rank)
    elapsed = time.perf_counter() - t0
    ok = max(noise_ranks) <= 3 and all(r == 4 for r in planted_ranks) and elapsed < 20.0
    report_line(3, ok, f"pure-noise ranks max {max(noise_ranks)}, planted ranks "
                       f"{sorted(set(planted_ranks))} ({elapsed:.1f}s)")
    assert max(noise_ranks) <= 3
    assert all(r == 4 for r in planted_ranks)
    assert elapsed < 20.0


def test_criterion_4_mp_curve_fidelity():
    t0 = time.perf_counter()
    m = n = 200
    curve = mp_quantile_curve((m, n), 1.0)
    lo, hi = int(0.1 * n), int(0.9 * n)
    devs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        S = np.linalg.svd(complex_noise(rng, m, n), compute_uv=False)
        devs.append((np.abs(S[lo:hi] - curve[lo:hi]) / curve[lo:hi]).max())
    mean_dev = float(np.mean(devs))
    elapsed = time.perf_counter() - t0
    ok = mean_dev <= 0.05 and elapsed < 20.0
    report_line(4, ok, f"mean max deviation over middle 80% = {mean_dev:.3f} ({elapsed:.1f}s)")
    assert mean_dev <= 0.05
    assert elapsed < 20.0


def test_criterion_5_end_to_end_benchmark(end_to_end_runs):
    rows, elapsed = end_to_end_runs
    details = []
    ok = elapsed < 60.0
    for name in ("ph", "hp", "hip"):
        gain = float(np.mean([r[f"{name}_coh"] - r["noisy_coh"] for r in rows]))
        filt_miss = float(np.mean([r[f"{name}_miss"] for r in rows]))
        details.append(f"{name}: gain {gain:+.3f}, zero miss {filt_miss:.1f} bins")
        ok = ok and gain >= 0.05 and filt_miss <= 3.0
    noisy_miss = float(np.mean([r["noisy_miss"] for r in rows]))
    ok = ok and noisy_miss >= 2.0
    report_line(5, ok, f"noisy zero miss {noisy_miss:.1f} bins; " + "; ".join(details)
                       + f" ({elapsed:.1f}s)")
    assert noisy_miss >= 2.0
    for name in ("ph", "hp", "hip"):
        assert float(np.mean([r[f"{name}_coh"] - r["noisy_coh"] for r in rows])) >= 0.05
        assert float(np.mean([r[f"{name}_miss"] for r in rows])) <= 3.0
    assert elapsed < 60.0


def test_criterion_6_hip_matches_ph(end_to_end_runs):
    rows, _ = end_to_end_runs
    gaps = [abs(r["hip_coh"] - r["ph_coh"]) for r in rows]
    ok = max(gaps) <= 0.02
    report_line(6, ok, f"per-seed |HiP - PH| coherence gaps: "
                       + ", ".join(f"{g:.3f}" for g in gaps))
    assert max(gaps) <= 0.02


def test_ph_keeps_most_of_the_row2_offsets(end_to_end_runs):
    # not a criterion: the README's figure for the 0.16-0.22 injected per input
    rows, _ = end_to_end_runs
    residuals = np.round([r["ph_offset"] for r in rows], 2)
    assert residuals.min() == 0.12 and residuals.max() == 0.20, residuals


@pytest.mark.slow
def test_criterion_7_hip_efficiency(chain30_runs):
    runs = chain30_runs
    hip_report = runs["hip"][1]
    ph_report = runs["ph"][1]
    hip_t = hip_report.total_seconds
    ph_t = ph_report.total_seconds
    hip_calls = hip_report.stage("hankel_in_prf").extras["svd_calls"]
    ph_calls = ph_report.stage("hankel").extras["svd_calls"]
    ok = hip_t <= ph_t / 5.0 and runs["elapsed"] < 600.0 and ph_calls == 300
    report_line(7, ok, f"HiP {hip_t:.1f}s ({hip_calls} Hankel SVDs) vs PH {ph_t:.1f}s "
                       f"({ph_calls} SVDs): {ph_t / hip_t:.1f}x")
    assert ph_calls == 300
    assert hip_calls == hip_report.stage("prf").rank
    assert hip_t <= ph_t / 5.0
    assert runs["elapsed"] < 600.0


def test_criterion_8_identities(tmp_path):
    rng = np.random.default_rng(99)
    data = rng.standard_normal((3, 2, 16)) + 1j * rng.standard_normal((3, 2, 16))
    ds = ResponseDataset(data, Domain.FREQUENCY, 0.0, 0.5, "Hz")
    checks = []
    checks.append(consist(ds, ds).overall == 1.0)
    checks.append(consist(ds, ds.with_data(-ds.data)).overall == 0.0)
    checks.append(coh(1.7 - 0.3j, 0.0) == 0.5)
    back = unflatten(flatten(ds.data), 3, 2)
    checks.append(np.array_equal(back, ds.data))
    path = tmp_path / "ds.prnk"
    write_dataset(ds, path)
    checks.append(np.array_equal(read_dataset(path).data, ds.data))
    clean = table1_dataset(2.0, 201)
    worst_idem = 0.0
    for variant in Variant:
        cfg = PrankConfig(variant=variant, prf_selector=FULL, hankel_selector=FULL)
        out, _ = apply_filter(clean, cfg)
        worst_idem = max(worst_idem, float(np.abs(out.data - clean.data).max()
                                           / np.abs(clean.data).max()))
    checks.append(worst_idem <= 1e-10)
    ok = all(checks)
    report_line(8, ok, f"metric identities, round trips, idempotence "
                       f"(worst full-rank residual {worst_idem:.2e})")
    assert all(checks)


@pytest.mark.slow
def test_criterion_9_frequency_range_effect(chain30_runs):
    runs = chain30_runs
    clean, noisy = runs["clean"], runs["noisy"]
    half_bins = noisy.n_bins // 2
    def restrict(ds):
        return ResponseDataset(ds.data[:, :, :half_bins], ds.domain,
                               ds.axis_start, ds.axis_step, ds.unit_label)
    cfg = PrankConfig()
    half_out, half_report = apply_filter(restrict(noisy), cfg)
    full_time = runs["hip"][1].total_seconds
    half_time = half_report.total_seconds
    clean_half = restrict(clean)
    coh_half = consist(clean_half, half_out).overall
    coh_full_restricted = consist(clean_half, restrict(runs["hip"][0])).overall
    ok = half_time < full_time and coh_half >= coh_full_restricted - 0.01
    report_line(9, ok, f"half-band {half_time:.1f}s vs full-band {full_time:.1f}s; "
                       f"coherence {coh_half:.4f} vs restricted {coh_full_restricted:.4f}")
    assert half_time < full_time
    assert coh_half >= coh_full_restricted - 0.01
