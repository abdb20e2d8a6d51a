import warnings

import numpy as np
import pytest

from prank import (
    AxisError,
    Boundary,
    ChainSystem,
    Domain,
    DomainError,
    ModalModel,
    NoiseModel,
    OffsetSpec,
    Quantity,
    ResponseDataset,
    add_noise,
    add_offsets,
    consist,
    eigen,
    modal_frf,
    synthesize_direct,
)


def table_system(n=4, damper=0.002):
    return ChainSystem.uniform(n, 1.0, damper, 1.0, Boundary.FIXED_FREE)


def fixed_free_frequencies(n, k=1.0, m=1.0):
    j = np.arange(1, n + 1)
    return 2.0 * np.sqrt(k / m) * np.sin((2 * j - 1) * np.pi / (2 * (2 * n + 1)))


# ----------------------------------------------------------------- matrices

def test_chain_matrices_fixed_free():
    M, D, K = table_system().matrices()
    assert np.array_equal(M, np.eye(4))
    expected_K = np.array([
        [2.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    assert np.array_equal(K, expected_K)
    assert np.allclose(D, 0.002 * expected_K)


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainSystem(np.ones(3), np.ones(2), np.ones(2), Boundary.FIXED_FREE)
    with pytest.raises(ValueError):
        ChainSystem(np.ones(3), np.ones(3), np.ones(3), Boundary.FREE_FREE)
    with pytest.raises(ValueError):
        ChainSystem(np.array([1.0, -1.0]), np.ones(2), np.ones(2), Boundary.FIXED_FREE)
    with pytest.raises(ValueError, match="one or more masses"):
        ChainSystem(np.zeros(0), np.zeros(0), np.zeros(0), Boundary.FIXED_FREE)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["masses", "dampers", "springs"])
def test_chain_rejects_nonfinite_parameters(name, bad):
    # NaN compares False against every bound, so it needs its own check
    params = {"masses": np.ones(3), "dampers": np.ones(3), "springs": np.ones(3)}
    params[name][1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ChainSystem(**params)


# -------------------------------------------------------------------- eigen

def test_eigen_matches_analytic_chain_frequencies():
    for n in [1, 4, 9]:
        model = eigen(table_system(n))
        assert np.abs(model.frequencies - fixed_free_frequencies(n)).max() <= 1e-10


def test_eigen_single_dof():
    sys_ = ChainSystem(np.array([2.0]), np.array([0.1]), np.array([8.0]), Boundary.FIXED_FREE)
    model = eigen(sys_)
    assert model.frequencies[0] == pytest.approx(np.sqrt(8.0 / 2.0), rel=1e-12)


def test_eigen_free_free_rigid_body_mode():
    model = eigen(ChainSystem.uniform(2, boundary=Boundary.FREE_FREE))
    assert model.frequencies[0] <= 1e-8
    assert model.damping[0] == 0.0


def test_eigen_shapes_mass_normalized():
    sys_ = table_system()
    M, _, _ = sys_.matrices()
    model = eigen(sys_)
    assert np.allclose(model.shapes.T @ M @ model.shapes, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("boundary", list(Boundary))
def test_eigen_unequal_masses_solves_generalized_problem(boundary):
    # unit masses make the M^-1/2 scaling the identity; these do not
    masses = np.array([1.0, 2.5, 0.4, 3.0, 1.7])
    links = 5 if boundary is Boundary.FIXED_FREE else 4
    springs = np.array([2.0, 1.0, 3.0, 0.5, 1.5])[:links]
    sys_ = ChainSystem(masses, 0.01 * springs, springs, boundary)
    M, _, K = sys_.matrices()
    model = eigen(sys_)
    V, lam = model.shapes, model.frequencies ** 2
    assert np.linalg.norm(K @ V - M @ V * lam) <= 1e-10 * np.linalg.norm(K)
    assert np.abs(V.T @ M @ V - np.eye(5)).max() <= 1e-12
    expected = np.sqrt(np.clip(np.sort(np.linalg.eigvals(np.linalg.solve(M, K)).real), 0.0, None))
    # a rigid-body mode is zero up to rounding, about sqrt(eps)
    assert np.allclose(model.frequencies, expected, rtol=1e-10, atol=1e-7)


# ---------------------------------------------------------------- synthesis

def test_direct_single_dof_static_compliance():
    sys_ = ChainSystem(np.array([1.0]), np.array([0.0]), np.array([4.0]), Boundary.FIXED_FREE)
    ds = synthesize_direct(sys_, np.array([0.0, 0.1]))
    assert ds.data[0, 0, 0] == pytest.approx(0.25, rel=1e-12)


def test_direct_reciprocity():
    ds = synthesize_direct(table_system(), np.linspace(0.0, 2.0, 101))
    swapped = ds.data.transpose(1, 0, 2)
    assert np.abs(ds.data - swapped).max() <= 1e-12 * np.abs(ds.data).max()


def test_direct_peaks_near_natural_frequencies():
    # vanishing damping: |Y_11| peaks within one grid bin of the undamped modes
    axis = np.arange(0.0, 2.0 + 5e-4, 1e-3)
    ds = synthesize_direct(table_system(damper=1e-6), axis)
    mag = np.abs(ds.data[0, 0])
    for w in fixed_free_frequencies(4):
        target = int(round(w / 1e-3))
        window = mag[target - 2 : target + 3]
        peak = target - 2 + int(np.argmax(window))
        assert abs(peak - target) <= 1


def test_direct_free_free_singular_bin_uses_pseudoinverse():
    sys_ = ChainSystem.uniform(3, boundary=Boundary.FREE_FREE)
    with pytest.warns(RuntimeWarning, match="pseudoinverse"):
        ds = synthesize_direct(sys_, np.array([0.0, 0.5, 1.0]))
    assert np.all(np.isfinite(ds.data))


def per_bin_reference(sys_, axis, outputs, inputs, pinv_bins=()):
    """One np.linalg.solve per bin of the dynamic stiffness built as
    synthesize_direct builds it, and a pseudoinverse at ``pinv_bins``."""
    M, D, K = sys_.matrices()
    rhs = np.eye(sys_.n_dofs)[:, inputs]
    out = []
    for k, w in enumerate(axis):
        A = -w ** 2 * M + 1j * w * D + K
        X = np.linalg.pinv(A) @ rhs if k in pinv_bins else np.linalg.solve(A, rhs)
        out.append(X[outputs])
    return np.stack(out, axis=-1)


def random_chain(boundary, seed=3, n=6):
    rng = np.random.default_rng(seed)
    links = n if boundary is Boundary.FIXED_FREE else n - 1
    return ChainSystem(rng.uniform(0.5, 2.0, n), rng.uniform(0.001, 0.01, links),
                       rng.uniform(0.5, 2.0, links), boundary)


def test_direct_non_uniform_free_free_zero_bin_is_pseudoinverse():
    # LU meets no exactly zero pivot here, so a solve would return ~1e15
    sys_ = ChainSystem(np.array([1.0, 2.0, 1.5, 1.0]), np.full(3, 0.002),
                       np.array([1.3, 0.7, 2.1]), Boundary.FREE_FREE)
    with pytest.warns(RuntimeWarning, match=r"1 bin\(s\) \(first at index 0\)") as caught:
        ds = synthesize_direct(sys_, np.linspace(0.0, 4.0, 201))
    assert len(caught) == 1
    K = sys_.matrices()[2]
    # bin 0's dynamic stiffness is K, held as complex like every bin
    assert np.array_equal(ds.data[..., 0], np.linalg.pinv(K.astype(complex)) @ np.eye(4))
    assert np.abs(ds.data).max() < 1e3


@pytest.mark.parametrize("make", [
    lambda b: ChainSystem.uniform(6, boundary=b),
    random_chain,
], ids=["uniform", "random"])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("outputs,inputs", [(None, None), ([0, 3, 5], [2]), ([4], [1, 0])])
def test_direct_equals_per_bin_solve(make, boundary, outputs, inputs):
    # every regular bin as its own solve, bit for bit; a free-free chain is
    # singular at omega = 0 only, and that bin is its own pseudoinverse
    sys_ = make(boundary)
    axis = np.linspace(0.0, 3.0, 151)
    free = boundary is Boundary.FREE_FREE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = synthesize_direct(sys_, axis, outputs, inputs)
    assert len(caught) == free
    if free:
        assert caught[0].category is RuntimeWarning
        assert "1 bin(s) (first at index 0)" in str(caught[0].message)
    dofs = np.arange(6)
    out_idx = dofs if outputs is None else outputs
    in_idx = dofs if inputs is None else inputs
    expected = per_bin_reference(sys_, axis, out_idx, in_idx, pinv_bins=(0,) if free else ())
    assert np.array_equal(ds.data, expected)


@pytest.mark.parametrize("axis,message", [
    ([0.5], "at least 2 points"),
    ([1.0, 0.5, 0.0], "strictly increasing"),
    ([0.0, 0.1, 0.3], "uniform"),
])
def test_direct_rejects_bad_grid(axis, message):
    with pytest.raises(AxisError, match=message):
        synthesize_direct(table_system(), np.array(axis))


def test_direct_output_index_outside_chain():
    with pytest.raises(IndexError):
        synthesize_direct(table_system(), np.linspace(0.0, 1.0, 5), outputs=[5])


def test_direct_finite_with_damping():
    ds = synthesize_direct(table_system(), np.arange(0.0, 2.0, 0.01))
    assert np.all(np.isfinite(ds.data))


# ---------------------------------------------------------------- modal_frf

def test_modal_model_rejects_decreasing_frequencies():
    with pytest.raises(ValueError, match="nondecreasing"):
        ModalModel(np.array([2.0, 1.0]), np.eye(2), np.zeros(2))


@pytest.mark.parametrize("frequencies,shapes,damping,message", [
    ([np.nan], [[1.0]], [0.01], "frequencies must be a finite"),
    ([1.0, np.inf], np.eye(2), [0.01, 0.01], "frequencies must be a finite"),
    ([[1.0]], [[1.0]], [0.01], "frequencies must be a finite 1-D"),
    ([1.0], [[np.nan]], [0.01], "shapes must be finite"),
    ([1.0, 2.0], [[1.0], [1.0]], [0.01, 0.01], "one column per mode"),
    ([1.0], [1.0], [0.01], "one column per mode"),
    ([1.0], [[1.0]], [np.nan], "damping must be finite"),
    ([1.0], [[1.0]], [np.inf], "damping must be finite"),
    ([1.0], [[1.0]], [-0.5], "nonnegative"),
    ([1.0, 2.0], np.eye(2), [0.01], "one value per mode"),
    ([1.0, 2.0], np.eye(2), 0.01, "one value per mode"),
], ids=["nan-frequency", "inf-frequency", "2d-frequencies", "nan-shape", "too-few-columns", "1d-shapes",
        "nan-damping", "inf-damping", "negative-damping", "one-damping-two-modes", "scalar-damping"])
def test_modal_model_rejects_invalid_fields(frequencies, shapes, damping, message):
    with pytest.raises(ValueError, match=message):
        ModalModel(np.array(frequencies), np.array(shapes), np.array(damping))


def test_eigen_rigid_mode_damping_is_never_negative():
    # the rigid-body mode's v^T D v rounds to about -1e-17 here, at a
    # rounding-level frequency above the rigid-body tolerance
    sys_ = ChainSystem(np.full(3, 1e-3), np.full(2, 1e-3), np.array([1.0, 1e3]), Boundary.FREE_FREE)
    assert np.all(eigen(sys_).damping >= 0.0)


def test_modal_matches_direct_synthesis():
    # uniform chain damping is exactly proportional, so mode superposition
    # with the projected damping ratios reproduces the direct inversion
    sys_ = table_system()
    axis = np.arange(0.01, 2.0, 0.01)
    direct = synthesize_direct(sys_, axis)
    modal = modal_frf(eigen(sys_), axis)
    natural = fixed_free_frequencies(4)
    off_resonance = np.all(np.abs(axis[None, :] - natural[:, None]) > 0.05, axis=0)
    rel = np.abs(np.abs(modal.data[..., off_resonance]) / np.abs(direct.data[..., off_resonance]) - 1.0)
    assert rel.max() <= 0.02


def test_modal_single_mode_resonance_magnitude():
    model = ModalModel(np.array([2.0]), np.array([[1.0]]), np.array([0.01]))
    ds = modal_frf(model, np.array([1.0, 2.0]))
    # at w = w_j the denominator reduces to 2i * eps * w_j^2
    assert abs(ds.data[0, 0, 1]) == pytest.approx(1.0 / (2 * 0.01 * 4.0), rel=1e-12)


def test_modal_zero_modes_gives_zero_dataset():
    model = ModalModel(np.zeros(0), np.zeros((3, 0)), np.zeros(0))
    ds = modal_frf(model, np.array([0.0, 1.0]))
    assert ds.data.shape == (3, 3, 2)
    assert np.all(ds.data == 0)


def test_modal_accelerance_rigid_mode_mass_line():
    model = eigen(ChainSystem.uniform(2, boundary=Boundary.FREE_FREE))
    acc = modal_frf(model.with_quantity(Quantity.ACCELERANCE), np.array([0.0, 0.1]))
    # two unit masses: rigid-body accelerance tends to 1/(m1+m2) = 0.5
    flexible = model.frequencies[1]
    assert acc.data[0, 0, 0].real == pytest.approx(0.5 + (0.0 / flexible**2), abs=1e-9)


# -------------------------------------------------------------------- noise

def test_add_noise_zero_coefficients_identity():
    ds = synthesize_direct(table_system(), np.arange(0.0, 1.0, 0.01))
    out = add_noise(ds, NoiseModel(0.0, 0.0, 0.0, 0.0, seed=5))
    assert np.array_equal(out.data, ds.data)


def test_add_noise_standard_deviation_at_unit_magnitude():
    # 10^4 unit-magnitude bins: sample std of the real perturbation within
    # 5% of a*1 + b = 0.063
    ds = ResponseDataset(np.ones((1, 1, 10_000), dtype=complex), Domain.FREQUENCY)
    out = add_noise(ds, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=0))
    real_noise = (out.data - ds.data).real.ravel()
    imag_noise = (out.data - ds.data).imag.ravel()
    assert np.std(real_noise) == pytest.approx(0.063, rel=0.05)
    assert np.std(imag_noise) == pytest.approx(0.053, rel=0.05)


def test_add_noise_reproducible_and_seed_sensitive():
    ds = synthesize_direct(table_system(), np.arange(0.0, 1.0, 0.01))
    nm = NoiseModel(0.003, 0.06, 0.003, 0.05, seed=42)
    a = add_noise(ds, nm)
    b = add_noise(ds, nm)
    c = add_noise(ds, NoiseModel(0.003, 0.06, 0.003, 0.05, seed=43))
    assert np.array_equal(a.data, b.data)
    assert consist(ds, a).overall != consist(ds, c).overall


def test_add_noise_rejects_time_domain():
    ds = ResponseDataset(np.ones((1, 1, 4)), Domain.TIME)
    with pytest.raises(DomainError):
        add_noise(ds, NoiseModel(0.0, 0.1, 0.0, 0.1))


def test_noise_model_accepts_published_parameter_sets():
    NoiseModel(0.003, 0.06, 0.003, 0.05)
    NoiseModel(1e-3, 4e-1, 2e-3, 1e-2)
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noise_model_rejects_nonfinite_coefficient(position, bad):
    coeffs = [0.003, 0.06, 0.003, 0.05]
    coeffs[position] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        NoiseModel(*coeffs)


# ------------------------------------------------------------------ offsets

def test_add_offsets_zero_entries_identity():
    ds = synthesize_direct(table_system(), np.arange(0.0, 1.0, 0.01))
    assert np.array_equal(add_offsets(ds, OffsetSpec([])).data, ds.data)


def test_add_offsets_per_input_values():
    ds = synthesize_direct(table_system(), np.arange(0.0, 1.0, 0.01))
    spec = OffsetSpec([(1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16)])
    out = add_offsets(ds, spec)
    delta = out.data - ds.data
    assert np.allclose(delta[1, 0], 0.22)
    assert np.allclose(delta[1, 1], 0.16)
    assert np.allclose(delta[1, 2], 0.18)
    assert np.allclose(delta[1, 3], 0.16)
    assert np.all(delta[0] == 0) and np.all(delta[2:] == 0)


def test_add_offsets_broadcast_single_value():
    ds = synthesize_direct(table_system(), np.arange(0.0, 1.0, 0.01))
    out = add_offsets(ds, OffsetSpec([(2, 0.5)]))
    delta = out.data - ds.data
    assert np.allclose(delta[2], 0.5)


def test_add_offsets_shifts_transfer_zero():
    # canonical grid: the offset moves the first anti-resonance of entry
    # (output 2, input 1) by at least 2 bins
    axis = np.arange(0.0, 2.0 + 5e-4, 1e-3)
    ds = synthesize_direct(table_system(), axis)
    out = add_offsets(ds, OffsetSpec([(1, 0.22), (1, 0.16), (1, 0.18), (1, 0.16)]))
    w12 = fixed_free_frequencies(4)[:2]
    lo, hi = int(w12[0] / 1e-3) + 1, int(w12[1] / 1e-3)
    clean_zero = lo + int(np.argmin(np.abs(ds.data[1, 0, lo:hi])))
    moved_zero = lo + int(np.argmin(np.abs(out.data[1, 0, lo:hi])))
    assert abs(moved_zero - clean_zero) >= 2


def test_add_offsets_index_errors():
    ds = synthesize_direct(table_system(), np.arange(0.0, 1.0, 0.01))
    with pytest.raises(IndexError):
        add_offsets(ds, OffsetSpec([(7, 0.1)]))
    with pytest.raises(IndexError):
        add_offsets(ds, OffsetSpec([(1, 0.1), (1, 0.2)]))  # 2 values for 4 inputs


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_offset_spec_rejects_nonfinite_value(bad):
    with pytest.raises(ValueError, match="offsets must be finite"):
        OffsetSpec([(1, 0.22), (1, bad)])


def test_add_offsets_rejects_time_domain():
    ds = ResponseDataset(np.ones((2, 2, 8)), Domain.TIME)
    with pytest.raises(DomainError):
        add_offsets(ds, OffsetSpec([(0, 0.1)]))
