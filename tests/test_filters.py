import numpy as np
import pytest

from prank import (
    E15,
    AbsoluteThreshold,
    ChainSystem,
    ConvergenceError,
    Domain,
    DomainError,
    E15Model,
    FilterReport,
    FixedRank,
    NoiseModel,
    NonFiniteError,
    OffsetSpec,
    PrankConfig,
    ResponseDataset,
    ShapeError,
    StageRecord,
    Variant,
    WindowError,
    add_noise,
    add_offsets,
    apply_filter,
    consist,
    eigen,
    prf_tsvd,
    synthesize_direct,
    flatten,
    gram_tsvd,
    svd,
    to_time,
    unflatten,
    write_report,
)
from prank.selection import evaluate

FULL = FixedRank(10**9)


def rel_err(a, b):
    return np.abs(a.data - b.data).max() / np.abs(b.data).max()


def classic_cfg(selector):
    return PrankConfig(variant=Variant.CLASSIC, prf_selector=selector)


def hankel_cfg(selector):
    return PrankConfig(variant=Variant.HANKEL, hankel_selector=selector)


@pytest.fixture(scope="module")
def clean_bench():
    # 4-DoF uniform chain over a band wide enough for the noise model to bite;
    # DC/Nyquist imaginary parts zeroed so the one-sided time bridge is lossless
    sys_ = ChainSystem.uniform(4)
    axis = np.linspace(0.0, 4.0, 201)
    ds = synthesize_direct(sys_, axis)
    data = np.array(ds.data)
    data[..., 0] = data[..., 0].real
    data[..., -1] = data[..., -1].real
    return ds.with_data(data)


@pytest.fixture(scope="module")
def noisy_bench(clean_bench):
    ds = add_noise(clean_bench, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=0))
    return add_offsets(ds, OffsetSpec([(1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16)]))


@pytest.fixture(scope="module")
def prank_runs(noisy_bench):
    out = {}
    for variant in (Variant.PRANK_PH, Variant.PRANK_HP, Variant.PRANK_HIP):
        out[variant.value] = apply_filter(noisy_bench, PrankConfig(variant=variant))
    return out


def zero_bin(ds, lo, hi):
    return lo + int(np.argmin(np.abs(ds.data[1, 0, lo:hi])))


@pytest.fixture(scope="module")
def zero_band(clean_bench):
    freqs = eigen(ChainSystem.uniform(4)).frequencies
    step = clean_bench.axis_step
    return int(round(freqs[0] / step)) + 1, int(round(freqs[1] / step))


# ------------------------------------------------------------------ classic

def test_classic_full_rank_identity(clean_bench):
    out, report = apply_filter(clean_bench, classic_cfg(FULL))
    assert rel_err(out, clean_bench) <= 1e-12
    assert report.stage("classic").extras["svd_calls"] == clean_bench.n_bins


def test_classic_rank_one_separable_dataset():
    rng = np.random.default_rng(0)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    ds = ResponseDataset(np.einsum("o,i,k->oik", g, h, c), Domain.FREQUENCY)
    out, _ = apply_filter(ds, classic_cfg(FixedRank(1)))
    assert rel_err(out, ds) <= 1e-10


def test_classic_requires_spatial_extent(clean_bench):
    single = ResponseDataset(np.ones((1, 1, 8)), Domain.FREQUENCY)
    with pytest.raises(ShapeError):
        apply_filter(single, classic_cfg(FixedRank(1)))
    # under e15 a one-value line spectrum is its own tail: every rank would be 0
    one_input = clean_bench.with_data(clean_bench.data[:, :1])
    with pytest.raises(ShapeError):
        apply_filter(one_input, classic_cfg(E15()))
    assert rel_err(apply_filter(one_input, classic_cfg(FixedRank(1)))[0], one_input) <= 1e-12


def test_classic_nonfinite_data_raises():
    data = np.ones((2, 2, 8), dtype=complex)
    data[1, 0, 3] = np.nan
    with pytest.raises(NonFiniteError):
        apply_filter(ResponseDataset(data, Domain.FREQUENCY), classic_cfg(FixedRank(1)))


def test_classic_maps_backend_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="converge"):
        apply_filter(ResponseDataset(np.ones((2, 2, 8)), Domain.FREQUENCY), classic_cfg(FixedRank(1)))


def test_classic_e15_report_keeps_every_line(noisy_bench, tmp_path):
    out, report = apply_filter(noisy_bench, classic_cfg(E15()))
    rec = report.stage("classic")
    model = rec.model
    assert model.sigma_n.shape == (noisy_bench.n_bins,)
    assert model.rank.max() == rec.rank and model.rank.min() == rec.extras["rank_min"]
    assert model.rank.mean() == rec.extras["rank_mean"]
    # the text gives min / median / max over the calls (lines) of each e15 field
    text = report.to_text()
    for name, values in (("sigma_n", model.sigma_n), ("corr", model.corr),
                         ("tail_misfit", model.tail_misfit[~np.isnan(model.tail_misfit)])):
        line = next(x for x in text.splitlines() if x.startswith(f"  e15_{name}: "))
        stats = [float(x) for x in line.split(": ")[1].split(" (")[0].split(" / ")]
        expected = [values.min(), np.median(values), values.max()]
        assert stats == pytest.approx(expected, rel=1e-4, abs=1e-4)
        assert line.endswith("(min / median / max over calls)")
    # the CSV puts the line-mean MP curve and cleanliness next to the line-mean spectrum
    csv = next(p for p in write_report(report, tmp_path / "classic") if p.suffix == ".csv")
    rows = csv.read_text().splitlines()
    assert rows[0] == "index,singular_value,mp_curve,cleanliness"
    table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.array_equal(table[:, 1], rec.singular_values)
    assert np.array_equal(table[:, 2], model.mp_curve.mean(axis=0))
    assert np.array_equal(table[:, 3], model.cleanliness.mean(axis=0))


@pytest.mark.parametrize("selector", [E15(), FixedRank(2)], ids=["e15", "fixed"])
def test_of_calls_stacks_split_calls_like_one(noisy_bench, selector):
    # classic's lines handed over as two calls give the record of its one stacked call
    whole = apply_filter(noisy_bench, classic_cfg(selector))[1].stage("classic")
    lines = noisy_bench.data.transpose(2, 0, 1)
    calls = [gram_tsvd(part, selector)[1:] for part in (lines[:80], lines[80:])]
    split = StageRecord.of_calls("classic", whole.shape, calls, whole.seconds)
    assert (split.rank, split.extras) == (whole.rank, whole.extras)
    assert split.extras["svd_calls"] == noisy_bench.n_bins
    assert np.array_equal(split.singular_values, whole.singular_values)
    assert (split.model is None) == (whole.model is None) == (not isinstance(selector, E15))
    if whole.model is not None:
        for name, value in vars(whole.model).items():
            assert np.array_equal(getattr(split.model, name), value, equal_nan=True), name
    # no calls: a zero spectrum of width min(shape), rank 0 and no model
    empty = StageRecord.of_calls("hankel", (5, 3), [], 0.5)
    assert (empty.name, empty.shape, empty.rank, empty.model, empty.seconds) == ("hankel", (5, 3), 0, None, 0.5)
    assert np.array_equal(empty.singular_values, np.zeros(3))
    assert empty.extras == {"svd_calls": 0, "ranks": [], "rank_min": 0, "rank_max": 0, "rank_mean": 0.0}


def test_report_sv_csv_golden_text(tmp_path):
    # one table per stage, byte for byte; a stacked model gives call means
    model = E15Model(np.array([0.1, 0.2]), np.array([1.0, 1.0]),
                     np.array([[0.5, 0.25], [1.5, 0.25]]), np.array([[0.75, 0.0], [0.25, 0.0]]),
                     np.array([1, 1]), np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    report = FilterReport([StageRecord("prf", (4, 2), np.array([2.0, 0.5]), 1),
                           StageRecord("hankel", (3, 3), np.array([4.0, 0.125]), 1, model)])
    paths = write_report(report, tmp_path / "out")
    assert [p.name for p in paths] == ["out.report.txt", "out.sv_0_prf.csv", "out.sv_1_hankel.csv"]
    assert paths[1].read_bytes() == b"index,singular_value\n0,2.0\n1,0.5\n"
    assert paths[2].read_bytes() == (b"index,singular_value,mp_curve,cleanliness\n"
                                     b"0,4.0,1.0,0.5\n1,0.125,0.25,0.0\n")


def test_classic_rank_sweep_never_denoises():
    # the per-line filter's negative result: every line carries rank-4
    # information, so no truncation level improves the coherence (measured
    # best gain ~ -0.011 across seeds) and neighbouring ranks stay close
    clean = synthesize_direct(ChainSystem.uniform(4), np.linspace(0.0, 2.0, 201))
    noisy = add_offsets(
        add_noise(clean, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=0)),
        OffsetSpec([(1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16)]),
    )
    base = consist(clean, noisy).overall
    scores = {r: consist(clean, apply_filter(noisy, classic_cfg(FixedRank(r)))[0]).overall for r in (3, 2, 1)}
    assert max(scores.values()) - base <= 0.02
    assert abs(scores[3] - scores[2]) <= 0.05


# ---------------------------------------------------------------------- prf

def test_prf_full_rank_identity(clean_bench):
    out, _, _ = prf_tsvd(clean_bench, FULL)
    assert rel_err(out, clean_bench) <= 1e-12


def test_prf_time_domain_full_rank_round_trip(clean_bench):
    out, _ = apply_filter(clean_bench, PrankConfig(variant=Variant.PRF, prf_selector=FULL))
    assert rel_err(out, clean_bench) <= 1e-10
    assert out.domain is Domain.FREQUENCY
    assert out.axis_step == clean_bench.axis_step


def test_prf_noiseless_modal_dataset_is_rank_four(clean_bench):
    # proportionally damped 4-DoF receptance: the unfolded matrix has rank 4
    out, report, prfs = prf_tsvd(clean_bench, FixedRank(4))
    assert rel_err(out, clean_bench) <= 1e-9
    S = report.stage("prf").singular_values
    assert S[4] <= 0.05 * S[0]
    assert prfs.shape == (clean_bench.n_bins, 4)
    # each retained principal response behaves like an oscillator: at least
    # one interior local maximum in magnitude
    for j in range(4):
        mag = np.abs(prfs[:, j])
        interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
        assert interior.any()


def test_prf_zero_rank_flags_report(clean_bench):
    out, report, prfs = prf_tsvd(clean_bench, FixedRank(0))
    assert "prf_rank_zero" in report.flags
    assert np.all(out.data == 0)
    assert prfs.shape == (clean_bench.n_bins, 0)
    # the flag is read off the records, whatever the chain and the stage's place in it
    for variant in (Variant.PRF, Variant.PRANK_PH, Variant.PRANK_HP):
        out, report = apply_filter(clean_bench, PrankConfig(variant, prf_selector=FixedRank(0), hankel_selector=FULL))
        assert report.flags == ["prf_rank_zero"], variant
        assert np.all(out.data == 0)
    assert apply_filter(clean_bench, PrankConfig(Variant.PRF, prf_selector=FixedRank(1)))[1].flags == []


def test_prf_rejects_single_entry():
    ds = ResponseDataset(np.ones((1, 1, 8)), Domain.FREQUENCY)
    with pytest.raises(ShapeError):
        prf_tsvd(ds, FixedRank(1))


def modal_dataset(n_o, n_i, n_k, complex_data, seed):
    """Six damped modes with random shapes plus 5 % noise: the unfolded
    matrix is tall when n_k > n_o * n_i and wide otherwise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_k)
    modes = np.stack([np.exp(-0.004 * (j + 1) * t) * np.sin((0.2 + 0.3 * j) * t) for j in range(6)])
    shapes = rng.standard_normal((n_o * n_i, 6)) * np.linspace(3.0, 0.5, 6)
    data = (shapes @ modes).reshape(n_o, n_i, n_k) + 0.05 * rng.standard_normal((n_o, n_i, n_k))
    if complex_data:
        data = data + 1j * (0.5 * np.roll(data, 7, axis=-1) + 0.05 * rng.standard_normal(data.shape))
        return ResponseDataset(data, Domain.FREQUENCY)
    return ResponseDataset(data, Domain.TIME)


def dense_prf(ds, selector):
    """The PRF stage on a dense SVD: (filtered data, S, rank, prfs)."""
    A = flatten(ds.data)
    f = svd(A)
    rank, model = evaluate(f.S, A.shape, selector)
    s_used = model.cleaned_s if model is not None else f.S[:rank]
    filtered = (f.U[:, :rank] * s_used) @ f.V[:, :rank].conj().T
    return unflatten(filtered, ds.n_outputs, ds.n_inputs), f.S, rank, f.U[:, :rank] * f.S[:rank]


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("shape", [(8, 2, 400), (48, 2, 64)])  # 400 x 16 tall, 64 x 96 wide
@pytest.mark.parametrize("selector", [FixedRank(6), E15()])
def test_prf_gram_kernel_matches_dense_svd(complex_data, shape, selector):
    for seed in range(3):
        ds = modal_dataset(*shape, complex_data, seed)
        out, report, prfs = prf_tsvd(ds, selector)
        ref, S, rank, ref_prfs = dense_prf(ds, selector)
        record = report.stage("prf")
        assert record.rank == rank and prfs.shape == ref_prfs.shape
        assert (record.model is not None) == isinstance(selector, E15)
        assert np.iscomplexobj(out.data) == complex_data
        norm = np.linalg.norm(ds.data)
        assert np.linalg.norm(out.data - ref) <= 1e-8 * norm
        # Gram eigenvalues carry an absolute error of about eps * S[0]^2
        kept = S > 1e-4 * S[0]
        assert np.all(np.abs(record.singular_values[kept] - S[kept]) <= 1e-10 * S[0])
        assert np.linalg.norm(prfs - ref_prfs) <= 1e-8 * norm


def test_prf_maps_backend_failure(monkeypatch, noisy_bench):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="converge"):
        prf_tsvd(noisy_bench, FixedRank(4))


def test_prf_nonfinite_data_raises():
    data = np.ones((2, 2, 8))
    data[1, 0, 3] = np.nan
    for variant in (Variant.PRF, Variant.PRANK_HIP):
        with pytest.raises(NonFiniteError):
            apply_filter(ResponseDataset(data, Domain.TIME), PrankConfig(variant=variant))


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("power", [530, -530])
def test_filters_are_exactly_scale_equivariant_under_powers_of_two(variant, power):
    # entries near 1e+-160 square out of range; each matrix is normalised by a
    # power of two before squaring, so the result is the unscaled one times 2^power
    ds = modal_dataset(3, 2, 33, True, 0)
    cfg = PrankConfig(variant=variant)
    out, report = apply_filter(ds, cfg)
    big, big_report = apply_filter(ds.with_data(ds.data * 2.0**power), cfg)
    assert np.any(out.data != 0) and np.array_equal(big.data, out.data * 2.0**power)
    assert [r.name for r in big_report.stages] == [r.name for r in report.stages]
    for rec, big_rec in zip(report.stages, big_report.stages):
        factor = 1.0 if rec.name == "hankel_in_prf" else 2.0**power  # that stage sees unit vectors
        assert big_rec.rank == rec.rank and big_rec.extras == rec.extras
        assert np.array_equal(big_rec.singular_values, rec.singular_values * factor)
        for name in ("sigma_n", "mp_curve", "cleaned_s"):
            assert np.array_equal(getattr(big_rec.model, name), getattr(rec.model, name) * factor)
        assert np.array_equal(big_rec.model.cleanliness, rec.model.cleanliness)


@pytest.mark.parametrize("shape", [(4, 2, 16), (4, 3, 6)])  # tall and wide unfoldings
@pytest.mark.parametrize("selector", [FULL, FixedRank(2), E15()])
def test_prf_zero_and_rank_deficient_input_stay_finite(shape, selector):
    zero = ResponseDataset(np.zeros(shape), Domain.TIME)
    rng = np.random.default_rng(0)
    g, h = rng.standard_normal((shape[0], 2)), rng.standard_normal((shape[1], 2))
    rank_two = zero.with_data(np.einsum("or,ir,rk->oik", g, h, rng.standard_normal((2, shape[2]))))
    for ds in (zero, rank_two):
        for variant in (Variant.PRF, Variant.PRANK_HIP, Variant.PRANK_PH, Variant.PRANK_HP):
            cfg = PrankConfig(variant=variant, prf_selector=selector, hankel_selector=FULL)
            with np.errstate(all="raise"):
                out, _ = apply_filter(ds, cfg)
            assert np.all(np.isfinite(out.data))
            if ds is zero:
                assert np.all(out.data == 0)
            elif selector is FULL:
                assert rel_err(out, ds) <= 1e-10


def test_hip_hankel_rows_are_unit_vectors():
    # a tall rank-2 unfolding: components 3 and 4 sit below the squaring
    # floor, yet their left vectors reach the Hankel stage with unit norm,
    # which an absolute threshold needs
    rng = np.random.default_rng(0)
    g, h, c = rng.standard_normal((4, 2)), rng.standard_normal((2, 2)), rng.standard_normal((2, 40))
    ds = ResponseDataset(np.einsum("or,ir,rk->oik", g, h, c), Domain.TIME)
    cfg = PrankConfig(variant=Variant.PRANK_HIP, prf_selector=FixedRank(4),
                      hankel_selector=AbsoluteThreshold(1e-3))
    out, report = apply_filter(ds, cfg)
    assert report.stage("prf").singular_values[2] <= 1e-7 * report.stage("prf").singular_values[0]
    assert min(report.stage("hankel_in_prf").extras["ranks"]) > 0
    assert np.all(np.isfinite(out.data))


def test_hp_after_rank_zero_hankel_stage_is_exactly_zero(noisy_bench):
    # the Hankel stage leaves only zero columns: the PRF stage returns them
    cfg = PrankConfig(variant=Variant.PRANK_HP, prf_selector=FULL, hankel_selector=FixedRank(0))
    out, report = apply_filter(noisy_bench, cfg)
    assert np.all(out.data == 0)
    assert report.stage("prf").rank == 16


# ------------------------------------------------------------------- hankel

def test_hankel_filter_full_rank_identity(clean_bench):
    irf = to_time(clean_bench)
    out, report = apply_filter(irf, hankel_cfg(FULL))
    assert rel_err(out, irf) <= 1e-10
    assert report.stage("hankel").extras["svd_calls"] == 16


def test_hankel_filter_recovers_single_mode_impulse_response():
    # sampled impulse response of one underdamped oscillator
    t = np.arange(512)
    irf_samples = 0.8 * np.exp(-0.005 * t) * np.sin(0.3 * t)
    irf = ResponseDataset(irf_samples.reshape(1, 1, -1).astype(complex), Domain.TIME,
                          0.0, 0.01, "s")
    # oracle: one damped sinusoid spans a rank-2 Hankel matrix
    from prank import hankelize

    S = np.linalg.svd(hankelize(irf.data[0, 0].real), compute_uv=False)
    assert S[2] <= 1e-9 * S[0]
    out, _ = apply_filter(irf, hankel_cfg(FixedRank(2)))
    assert rel_err(out, irf) <= 1e-8


def test_hankel_only_keeps_offset_zero_error(clean_bench, noisy_bench, zero_band):
    # per-entry Hankel filtering is blind to the spatial outlier: the
    # anti-resonance stays away from its clean location
    lo, hi = zero_band
    out, _ = apply_filter(noisy_bench, hankel_cfg(FixedRank(12)))
    clean_zero = zero_bin(clean_bench, lo, hi)
    assert abs(zero_bin(out, lo, hi) - clean_zero) >= 2
    # while the random-noise cleaning still helps coherence
    base = consist(clean_bench, noisy_bench).overall
    assert consist(clean_bench, out).overall > base


@pytest.mark.parametrize("variant", [Variant.HANKEL, Variant.PRANK_PH, Variant.PRANK_HP, Variant.PRANK_HIP])
def test_short_time_record_is_shape_error_for_every_hankel_variant(variant):
    # one dataset check for both Hankel stages, ahead of any Hankel call
    ds = ResponseDataset(np.random.default_rng(0).standard_normal((2, 2, 3)), Domain.TIME)
    with pytest.raises(ShapeError, match="at least 4 samples"):
        apply_filter(ds, PrankConfig(variant=variant))


# ---------------------------------------------------------------- pipelines

def test_prank_noiseless_near_identity(clean_bench):
    for variant in (Variant.PRANK_PH, Variant.PRANK_HP):
        out, _ = apply_filter(clean_bench, PrankConfig(variant=variant))
        assert rel_err(out, clean_bench) <= 1e-6


def test_prank_improves_coherence(clean_bench, noisy_bench, prank_runs):
    base = consist(clean_bench, noisy_bench).overall
    for name, (out, _) in prank_runs.items():
        gain = consist(clean_bench, out).overall - base
        assert gain >= 0.05, f"{name} gained only {gain:.4f}"


def test_prank_ph_hp_agree(clean_bench, prank_runs):
    c_ph = consist(clean_bench, prank_runs["ph"][0]).overall
    c_hp = consist(clean_bench, prank_runs["hp"][0]).overall
    assert abs(c_ph - c_hp) <= 0.02


def test_prank_hip_tracks_ph(clean_bench, prank_runs):
    # mixed pipeline stays close to the sequential one; at 16 spatial
    # entries under heavy noise the observed gap is ~0.03-0.04
    c_ph = consist(clean_bench, prank_runs["ph"][0]).overall
    c_hip = consist(clean_bench, prank_runs["hip"][0]).overall
    assert abs(c_hip - c_ph) <= 0.05


def test_prank_stage_order_in_reports(prank_runs):
    assert [s.name for s in prank_runs["ph"][1].stages] == ["prf", "hankel"]
    assert [s.name for s in prank_runs["hp"][1].stages] == ["hankel", "prf"]
    assert [s.name for s in prank_runs["hip"][1].stages] == ["prf", "hankel_in_prf"]


def test_hip_hankel_call_count_equals_prf_rank(noisy_bench, prank_runs):
    report = prank_runs["hip"][1]
    prf_rank = report.stage("prf").rank
    hankel = report.stage("hankel_in_prf")
    assert hankel.extras["svd_calls"] == prf_rank
    assert len(hankel.extras["ranks"]) == prf_rank
    # every multi-call stage keeps each call's rank and e15 model
    classic = apply_filter(noisy_bench, classic_cfg(E15()))[1].stage("classic")
    for rec in (classic, prank_runs["ph"][1].stage("hankel"), hankel):
        calls, ranks = rec.extras["svd_calls"], rec.extras["ranks"]
        assert calls > 0 and len(ranks) == calls
        assert rec.rank == max(ranks) == rec.extras["rank_max"]
        assert (rec.extras["rank_min"], rec.extras["rank_mean"]) == (min(ranks), np.mean(ranks))
        for name, value in vars(rec.model).items():
            assert np.shape(value)[0] == calls, name
        assert rec.model.rank.tolist() == ranks


def test_ph_hankel_call_count_equals_entries(prank_runs):
    assert prank_runs["ph"][1].stage("hankel").extras["svd_calls"] == 16


def test_hip_noiseless_fixed_ranks_identity(clean_bench):
    cfg = PrankConfig(prf_selector=FixedRank(4), hankel_selector=FULL)
    out, _ = apply_filter(clean_bench, cfg)
    assert rel_err(out, clean_bench) <= 1e-8


def test_hip_zero_prf_rank_gives_zero_dataset(clean_bench):
    cfg = PrankConfig(prf_selector=FixedRank(0), hankel_selector=FULL)
    out, report = apply_filter(clean_bench, cfg)
    assert np.all(out.data == 0)
    assert "prf_rank_zero" in report.flags
    assert report.stage("hankel_in_prf").extras["svd_calls"] == 0
    assert "\nflags: prf_rank_zero\n" in report.to_text()


def test_hip_zero_prf_rank_still_checks_the_e15_window(clean_bench):
    # e15's shape rule is checked once per Hankel stage, before any row runs,
    # so a window of 1 raises even where the PRF stage kept no row to filter
    cfg = PrankConfig(prf_selector=FixedRank(0), hankel_selector=E15(), hankel_window=1)
    with pytest.raises(ShapeError, match="e15"):
        apply_filter(clean_bench, cfg)


@pytest.mark.parametrize("variant", list(Variant))
def test_full_rank_idempotence_every_variant(clean_bench, variant):
    cfg = PrankConfig(variant=variant, prf_selector=FULL, hankel_selector=FULL)
    out, _ = apply_filter(clean_bench, cfg)
    assert rel_err(out, clean_bench) <= 1e-10


@pytest.mark.parametrize("variant", list(Variant))
def test_time_domain_input_gives_float64_output(noisy_bench, variant):
    ds = to_time(noisy_bench)
    cfg = PrankConfig(variant=variant, prf_selector=FixedRank(6), hankel_selector=FixedRank(8))
    out, _ = apply_filter(ds, cfg)
    assert out.domain is Domain.TIME and out.data.dtype == np.float64


def test_apply_filter_rejects_unknown_variant(noisy_bench):
    # the variant's value string is not a Variant
    with pytest.raises(ValueError, match="unknown variant"):
        apply_filter(noisy_bench, PrankConfig(variant="hip"))


def test_config_rejects_frequency_working_domain():
    # stage domains are fixed; only the time value of the field remains
    with pytest.raises(DomainError):
        PrankConfig(domain=Domain.FREQUENCY)


@pytest.mark.parametrize("window", [40.9, True, 0, -3, "40"])
def test_config_rejects_a_window_that_is_not_a_positive_integer(window):
    # checked when built: never floored, and True is not a window of 1
    with pytest.raises(WindowError, match="hankel_window"):
        PrankConfig(hankel_window=window)


@pytest.mark.parametrize("field", ["prf_selector", "hankel_selector"])
def test_config_rejects_a_selector_that_is_not_a_strategy(field):
    with pytest.raises(ValueError, match=f"{field} must be a selection strategy"):
        PrankConfig(**{field: "e15"})


@pytest.mark.parametrize("variant", list(Variant))
def test_filters_preserve_metadata(noisy_bench, variant):
    cfg = PrankConfig(variant=variant, prf_selector=FixedRank(4), hankel_selector=FixedRank(12))
    out, _ = apply_filter(noisy_bench, cfg)
    assert out.data.shape == noisy_bench.data.shape
    assert out.domain is noisy_bench.domain
    assert out.axis_start == noisy_bench.axis_start
    assert out.axis_step == noisy_bench.axis_step
    assert out.unit_label == noisy_bench.unit_label


def test_fixed_rank_filters_scale_linearly(noisy_bench):
    cfg = PrankConfig(variant=Variant.PRANK_PH, prf_selector=FixedRank(5), hankel_selector=FixedRank(12))
    out1, _ = apply_filter(noisy_bench, cfg)
    scaled = noisy_bench.with_data(3.0 * noisy_bench.data)
    out2, _ = apply_filter(scaled, cfg)
    assert np.abs(out2.data - 3.0 * out1.data).max() <= 1e-10 * np.abs(out2.data).max()


def test_manual_recipe_restores_zero(clean_bench, noisy_bench, zero_band):
    # fixed ranks 4 (spatial) and 12 (series) pull the anti-resonance back
    lo, hi = zero_band
    cfg = PrankConfig(variant=Variant.PRANK_PH, prf_selector=FixedRank(4), hankel_selector=FixedRank(12))
    out, _ = apply_filter(noisy_bench, cfg)
    clean_zero = zero_bin(clean_bench, lo, hi)
    assert abs(zero_bin(out, lo, hi) - clean_zero) <= 3
    assert abs(zero_bin(noisy_bench, lo, hi) - clean_zero) >= 2


def test_band_restricted_run_is_independent(noisy_bench):
    # filtering a truncated-band copy completes and reports its own ranks
    half = ResponseDataset(
        noisy_bench.data[:, :, :101],
        noisy_bench.domain,
        noisy_bench.axis_start,
        noisy_bench.axis_step,
        noisy_bench.unit_label,
    )
    cfg = PrankConfig()
    out_half, rep_half = apply_filter(half, cfg)
    out_full, rep_full = apply_filter(noisy_bench, cfg)
    assert out_half.n_bins == 101 and out_full.n_bins == 201
    assert rep_half.stage("prf").rank >= 0
    assert rep_full.stage("prf").rank >= 0
