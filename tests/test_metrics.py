import numpy as np
import pytest

from prank import (
    ChainSystem,
    CoherenceReport,
    ConvergenceError,
    Domain,
    DomainError,
    NoiseModel,
    NonFiniteError,
    OffsetSpec,
    ResponseDataset,
    ShapeMismatch,
    add_noise,
    add_offsets,
    cmif,
    coh,
    consist,
    eigen,
    svd,
    synthesize_direct,
    zero_locations,
)
from prank.metrics import write_cmif_csv, write_coherence_csv


def make_ds(data, **kw):
    return ResponseDataset(np.asarray(data, dtype=complex), Domain.FREQUENCY, **kw)


# ---------------------------------------------------------------------- coh

def test_coh_identities():
    z = 1.3 - 0.7j
    assert coh(z, z) == 1.0
    assert coh(z, -z) == 0.0
    assert coh(z, 0.0) == 0.5
    assert coh(0.0, 0.0) == 1.0


def test_coh_symmetry_and_scale():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        if alpha == 0:
            continue
        assert coh(x, y) == pytest.approx(coh(y, x), rel=1e-12)
        assert coh(alpha * x, alpha * y) == pytest.approx(coh(x, y), rel=1e-10)
        assert 0.0 <= coh(x, y) <= 1.0


# ------------------------------------------------------------------ consist

def test_consist_self_is_exactly_one():
    rng = np.random.default_rng(1)
    ds = make_ds(rng.standard_normal((3, 2, 8)) + 1j * rng.standard_normal((3, 2, 8)))
    rep = consist(ds, ds)
    assert rep.overall == 1.0
    assert np.all(rep.per_entry == 1.0)
    assert np.all(rep.per_bin == 1.0)


def test_consist_negated_is_exactly_zero():
    rng = np.random.default_rng(2)
    ds = make_ds(rng.standard_normal((2, 2, 5)) + 1j)
    rep = consist(ds, ds.with_data(-ds.data))
    assert rep.overall == 0.0


def test_consist_marginal_shapes():
    rng = np.random.default_rng(3)
    ds = make_ds(rng.standard_normal((3, 4, 6)) + 0.5j)
    other = ds.with_data(ds.data + 0.01)
    rep = consist(ds, other)
    assert rep.per_entry.shape == (3, 4)
    assert rep.per_bin.shape == (6,)
    assert rep.overall == pytest.approx(rep.per_entry.mean(), rel=1e-12)


def test_consist_continuity_under_shrinking_perturbation():
    rng = np.random.default_rng(4)
    ds = make_ds(rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16)))
    last = 0.0
    for eps in [1e-1, 1e-3, 1e-6]:
        val = consist(ds, ds.with_data(ds.data + eps)).overall
        assert val >= last
        last = val
    assert last >= 1.0 - 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_consist_rejects_nonfinite(bad):
    # NaN fails _coh_field's den > 0 test, which would score it as a perfect match
    ds = make_ds(np.ones((2, 2, 6)))
    data = np.array(ds.data)
    data[1, 0, 4] = bad
    with pytest.raises(NonFiniteError):
        consist(ds, ds.with_data(data))
    with pytest.raises(NonFiniteError):
        consist(ds.with_data(data), ds)
    with pytest.raises(NonFiniteError):
        coh(bad, 1.0)


@pytest.mark.parametrize("power", [530, -530])
def test_consist_is_exactly_scale_free_under_powers_of_two(power):
    # entries near 1e+-160 square out of range; each entry pair is scaled by one
    # power of two before squaring, so the scaled pair gives the same coherence
    clean = synthesize_direct(ChainSystem.uniform(4), np.linspace(0.0, 4.0, 201))
    noisy = add_offsets(add_noise(clean, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=0)),
                        OffsetSpec([(1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16)]))
    rep = consist(clean, noisy)
    big = consist(clean.with_data(clean.data * 2.0**power), noisy.with_data(noisy.data * 2.0**power))
    assert big.overall == rep.overall
    assert np.array_equal(big.per_entry, rep.per_entry) and np.array_equal(big.per_bin, rep.per_bin)
    x, y = noisy.data[1, 0, 40], clean.data[1, 0, 40]
    assert coh(x * 2.0**power, y * 2.0**power) == coh(x, y)


def test_consist_shape_mismatch():
    a = make_ds(np.ones((2, 2, 4)))
    with pytest.raises(ShapeMismatch):
        consist(a, make_ds(np.ones((2, 2, 5))))
    with pytest.raises(ShapeMismatch):
        consist(a, make_ds(np.ones((2, 2, 4)), axis_step=2.0))
    with pytest.raises(ShapeMismatch):
        consist(a, ResponseDataset(np.ones((2, 2, 4)), Domain.TIME))


# --------------------------------------------------------------------- cmif

def test_cmif_separable_dataset_is_rank_one():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    ds = make_ds(np.einsum("o,i,k->oik", g, h, c))
    curves = cmif(ds)
    assert curves.shape == (16, 3)
    assert np.all(curves[:, 1] <= 1e-12 * curves[:, 0])


def test_cmif_single_entry_equals_magnitude():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ds = make_ds(y.reshape(1, 1, 8))
    assert np.allclose(cmif(ds)[:, 0], np.abs(y), rtol=1e-12)


def test_cmif_peaks_at_natural_frequencies():
    sys_ = ChainSystem.uniform(4)
    axis = np.arange(0.0, 2.0 + 5e-4, 1e-3)
    ds = synthesize_direct(sys_, axis)
    curves = cmif(ds)
    for w in eigen(sys_).frequencies:
        target = int(round(w / 1e-3))
        window = curves[target - 2 : target + 3, 0]
        peak = target - 2 + int(np.argmax(window))
        assert abs(peak - target) <= 1


def test_cmif_columns_nonincreasing():
    rng = np.random.default_rng(7)
    ds = make_ds(rng.standard_normal((4, 4, 12)) + 1j * rng.standard_normal((4, 4, 12)))
    curves = cmif(ds)
    assert np.all(np.diff(curves, axis=1) <= 1e-12)


def test_cmif_rejects_nonfinite():
    data = np.ones((2, 3, 5), dtype=complex)
    data[0, 2, 3] = np.nan
    with pytest.raises(NonFiniteError):
        cmif(make_ds(data))


def test_cmif_matches_dense_svd_and_maps_backend_failure(monkeypatch):
    # the values-only SVD gives the singular values of the dense reference
    rng = np.random.default_rng(8)
    data = rng.standard_normal((4, 3, 20)) + 1j * rng.standard_normal((4, 3, 20))
    ref = svd(data.transpose(2, 0, 1)).S
    assert np.all(np.abs(cmif(make_ds(data)) - ref) <= 1e-13 * ref[:, :1])

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="converge"):
        cmif(make_ds(data))


def test_cmif_rejects_time_domain():
    with pytest.raises(DomainError):
        cmif(ResponseDataset(np.ones((2, 2, 4)), Domain.TIME))


# ----------------------------------------------------------- zero_locations

def test_zero_locations_monotone_curve_empty():
    ds = make_ds(np.linspace(1.0, 10.0, 32).reshape(1, 1, 32))
    assert len(zero_locations(ds, 0, 0, prominence=0.1)) == 0


def test_zero_locations_full_prominence_empty():
    sys_ = ChainSystem.uniform(4)
    ds = synthesize_direct(sys_, np.arange(0.0, 2.0, 1e-3))
    assert len(zero_locations(ds, 1, 0, prominence=1.0)) == 0


def test_zero_locations_between_resonances():
    sys_ = ChainSystem.uniform(4)
    ds = synthesize_direct(sys_, np.arange(0.0, 2.0, 1e-3))
    freqs = eigen(sys_).frequencies
    locs = zero_locations(ds, 1, 0)  # default prominence finds the deep dips
    assert 1 <= len(locs) <= 3
    for loc in locs:
        gaps = [(freqs[j], freqs[j + 1]) for j in range(3)]
        assert any(lo < loc < hi for lo, hi in gaps)


def test_zero_locations_rejects_shallow_ripple():
    axis = np.linspace(0.0, 1.0, 201)
    mag = 1.0 + 0.05 * np.sin(40 * np.pi * axis)  # dips of ~10%, never deep
    ds = make_ds(mag.reshape(1, 1, -1), axis_step=axis[1])
    assert len(zero_locations(ds, 0, 0)) == 0


def test_zero_locations_index_error():
    ds = make_ds(np.ones((2, 2, 8)))
    with pytest.raises(IndexError):
        zero_locations(ds, 5, 0)


def test_zero_locations_rejects_time_domain():
    ds = ResponseDataset(np.ones((2, 2, 8)), Domain.TIME)
    with pytest.raises(DomainError, match="frequency-domain"):
        zero_locations(ds, 0, 0)


@pytest.mark.parametrize("prominence", [1.5, -1.0, np.nan])
def test_zero_locations_rejects_prominence_outside_unit_interval(prominence):
    ds = synthesize_direct(ChainSystem.uniform(4), np.arange(0.0, 2.0, 1e-3))
    with pytest.raises(ValueError, match="prominence"):
        zero_locations(ds, 1, 0, prominence)


# ---------------------------------------------------------------- exporters

def test_coherence_csv(tmp_path):
    rng = np.random.default_rng(8)
    ds = make_ds(rng.standard_normal((2, 2, 4)) + 1j)
    rep = consist(ds, ds.with_data(ds.data + 0.1))
    path = tmp_path / "coh.csv"
    write_coherence_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "output,input,coherence"
    assert len(lines) == 6  # 4 entries + overall


def test_cmif_csv(tmp_path):
    rng = np.random.default_rng(9)
    ds = make_ds(rng.standard_normal((2, 3, 5)) + 1j)
    path = tmp_path / "cmif.csv"
    write_cmif_csv(cmif(ds), ds.axis, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("axis_value,sv0")
    assert len(lines) == 6


def test_coherence_csv_golden_text(tmp_path):
    rep = CoherenceReport(0.625, np.array([[1.0, 0.5], [0.25, 0.75]]), np.array([0.5, 0.75]))
    path = tmp_path / "coh.csv"
    write_coherence_csv(rep, path)
    assert path.read_bytes() == (b"output,input,coherence\n"
                                 b"0,0,1.0\n0,1,0.5\n1,0,0.25\n1,1,0.75\n"
                                 b"overall,,0.625\n")


def test_cmif_csv_golden_text(tmp_path):
    path = tmp_path / "cmif.csv"
    write_cmif_csv(np.array([[2.0, 0.5], [1.5, -0.0]]), np.array([0.0, 0.25]), path)
    assert path.read_bytes() == b"axis_value,sv0,sv1\n0.0,2.0,0.5\n0.25,1.5,-0.0\n"
