import numpy as np
import pytest

from prank import (
    ChainSystem,
    Domain,
    DomainError,
    NonFiniteError,
    ResponseDataset,
    ShapeMismatch,
    cmif,
    coh,
    consist,
    eigen,
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
