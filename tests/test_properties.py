"""Property tests of the rank selection and the MP law, the filters and
their chains, the Hankel round trip, the dataset bridges and file format,
and the chain matrices, mode-shape signs and anti-resonance scan."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prank import (
    E15,
    AbsoluteThreshold,
    Boundary,
    ChainSystem,
    Domain,
    FixedRank,
    NonFiniteError,
    PrankConfig,
    RelativeThreshold,
    ResponseDataset,
    ShapeError,
    ThresholdMode,
    Variant,
    apply_filter,
    dehankelize_ssa,
    e15,
    eigen,
    flatten,
    hankelize,
    mp_fit,
    mp_quantile_curve,
    read_dataset,
    to_frequency,
    to_time,
    unflatten,
    write_dataset,
    zero_locations,
)
from prank.selection import CORR_GRID, _mp_cdf, _unit_curves, evaluate

# No deadline: an example's first e15 call for a new matrix shape solves the
# MP quantile curves, and a shared machine's timing varies.
SETTINGS = settings(deadline=None, max_examples=60, derandomize=True)

modes = st.sampled_from(list(ThresholdMode))
strategies = st.one_of(
    st.builds(FixedRank, st.integers(0, 15)),
    st.builds(AbsoluteThreshold, st.floats(0.0, 1e3), modes),
    st.builds(RelativeThreshold, st.floats(0.001, 0.999), modes),
    st.builds(E15, st.floats(0.01, 0.99), st.floats(0.05, 0.95)),
)


def spectrum(draw, p):
    # nonzero values stay clear of underflow under the scales drawn below
    return np.sort(draw(st.lists(st.floats(1e-6, 1e3), min_size=p, max_size=p)))[::-1]


@st.composite
def stacks(draw):
    """(S, shape): random nonincreasing rows, some with zero tails, plus an
    all-zero row and a flat row, which every strategy but e15 keeps whole."""
    p = draw(st.integers(1, 12))
    shape = (p, draw(st.integers(p, 3 * p)))
    rows = [np.zeros(p), np.full(p, 1e3)]
    for _ in range(draw(st.integers(1, 5))):
        row = spectrum(draw, p)
        row[p - draw(st.integers(0, p)):] = 0.0
        rows.append(row)
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows)[list(order)], shape


@SETTINGS
@given(stacks(), strategies)
def test_stacked_selection_matches_each_row(stack, strategy):
    S, shape = stack
    ranks, model = evaluate(S, shape, strategy)
    assert ranks.shape == (len(S),)
    # more leading axes fold away: a (2, n, p) stack gives each row's result
    ranks2, model2 = evaluate(np.stack([S, S]), shape, strategy)
    assert np.array_equal(ranks2, [ranks, ranks])
    if model is not None:
        for name, value in vars(model).items():
            assert np.array_equal(getattr(model2, name), [value, value], equal_nan=True)
    for k, row in enumerate(S):
        rank, row_model = evaluate(row, shape, strategy)
        assert ranks[k] == rank
        assert (model is None) == (row_model is None)
        if model is None:
            continue
        assert model.sigma_n[k] == row_model.sigma_n
        assert model.corr[k] == row_model.corr
        assert model.rank[k] == row_model.rank
        assert np.array_equal(model.mp_curve[k], row_model.mp_curve)
        assert np.array_equal(model.cleanliness[k], row_model.cleanliness)
        assert np.array_equal(model.cleaned_s[k, :rank], row_model.cleaned_s)
        assert not model.cleaned_s[k, rank:].any()


def mp_fit_loop(S, shape, tail_fraction):
    """Reference: one least-squares fit per corr candidate, in a loop; the
    first fit within 1e-12 of the tail energy of the best one wins."""
    p = len(S)
    tail = np.arange(min(int(p * (1.0 - tail_fraction)), p - 1), p)
    tail = tail[S[tail] > 0.0]
    fits = []
    for corr in CORR_GRID:
        c = mp_quantile_curve(shape, 1.0, corr)[tail]
        denom = float(np.sum(c * c))
        if denom == 0.0:
            continue
        sigma = float(np.sum(S[tail] * c)) / denom
        fits.append((float(np.sum((S[tail] - sigma * c) ** 2)), sigma, corr))
    if not fits:
        return 0.0, 1.0
    floor = min(f[0] for f in fits) + 1e-12 * float(np.sum(S[tail] * S[tail]))
    _, sigma, corr = next(f for f in fits if f[0] <= floor)
    return sigma, corr


@SETTINGS
@given(st.data(), st.integers(1, 40), st.floats(0.05, 0.95))
def test_mp_fit_matches_corr_loop(data, p, tail_fraction):
    # positive values: the masked sums then add no zeros and match exactly
    S = spectrum(data.draw, p)
    shape = (p, data.draw(st.integers(p, 3 * p)))
    assert mp_fit(S, shape, tail_fraction) == mp_fit_loop(S, shape, tail_fraction)


@SETTINGS
@given(stacks(), st.floats(1e-3, 1e3), st.floats(0.01, 0.99))
# one kept tail value: every corr fits it exactly, so only rounding
# separates the residuals
@example((np.array([[35.0, 7.0, 7.0, 7.0, 7.0, 0.0, 0.0, 0.0]]), (8, 8)), 1e-3, 0.5)
def test_e15_rank_invariant_under_positive_scale(stack, scale, mu):
    S, shape = stack
    for row in S:
        model = e15(row, shape, mu)
        # a cleanliness within rounding of mu may land on either side
        assume(np.all(np.abs(model.cleanliness - mu) > 1e-9))
        assert e15(scale * row, shape, mu).rank == model.rank


def classic_loop(ds, selector):
    """Reference: the per-line TSVD, one selection and product per line."""
    slices = ds.data.transpose(2, 0, 1)
    U, S, Vh = np.linalg.svd(slices, full_matrices=False)
    out = np.empty_like(slices)
    ranks = []
    for k in range(len(slices)):
        rank, model = evaluate(S[k], slices.shape[1:], selector)
        s_used = model.cleaned_s if model is not None else S[k, :rank]
        out[k] = (U[k][:, :rank] * s_used) @ Vh[k][:rank]
        ranks.append(rank)
    return out.transpose(1, 2, 0), np.array(ranks)


@SETTINGS
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(2, 24),
    st.integers(0, 2**32 - 1),
    st.one_of(st.builds(FixedRank, st.integers(0, 5)), st.builds(E15, st.floats(0.01, 0.5))),
)
def test_classic_matches_per_line_loop(n_o, n_i, n_k, seed, selector):
    assume(n_o >= 2 or n_i >= 2)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_o, n_i, n_k)) + 1j * rng.standard_normal((n_o, n_i, n_k))
    ds = ResponseDataset(data, Domain.FREQUENCY)
    cfg = PrankConfig(variant=Variant.CLASSIC, prf_selector=selector)
    if isinstance(selector, E15) and min(n_o, n_i) < 2:
        # a one-value line spectrum is its own e15 tail
        with pytest.raises(ShapeError):
            apply_filter(ds, cfg)
        return
    out, report = apply_filter(ds, cfg)
    expected, ranks = classic_loop(ds, selector)
    extras = report.stage("classic").extras
    assert (extras["rank_min"], extras["rank_max"]) == (ranks.min(), ranks.max())
    assert extras["rank_mean"] == ranks.mean()
    assert np.abs(out.data - expected).max() <= 1e-12 * np.abs(expected).max()


def unit_lam(t, beta):
    """The MP law's lam at t: (1 - sqrt(beta))^2 + 4 sqrt(beta) sin^2(t/2)."""
    rb = np.sqrt(beta)
    return (1.0 - rb) ** 2 + 4.0 * rb * np.sin(0.5 * t) ** 2


def bisection_curve(p, m, n_eff):
    """Reference: the unit quantile curve with each root of the closed-form
    CDF found by 60 bisection steps on [0, pi]."""
    big, small = max(m, n_eff), min(m, n_eff)
    beta = small / big
    q = (small - np.arange(1, min(p, small) + 1) + 0.5) / small
    lo, hi = np.zeros(q.shape), np.full(q.shape, np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _mp_cdf(mid, beta) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = np.zeros(p)
    out[: len(q)] = np.sqrt(big * unit_lam(0.5 * (lo + hi), beta))
    return out


def curve_roots(curve, m, n_eff):
    """(t_k, q_k, beta) behind the nonzero values of a unit curve: t_k read
    back from lam = v^2 / M through the sin^2(t/2) form, which keeps small
    t exact, and q_k = (N - k + 1/2)/N."""
    big, small = max(m, n_eff), min(m, n_eff)
    beta = small / big
    rb = np.sqrt(beta)
    v = curve[:small]
    t = 2.0 * np.arcsin(np.sqrt(np.clip((v * v / big - (1.0 - rb) ** 2) / (4.0 * rb), 0.0, 1.0)))
    return t, (small - np.arange(1, small + 1) + 0.5) / small, beta


@SETTINGS
@given(st.integers(1, 250), st.integers(1, 250), st.integers(0, 4))
@example(4, 4, 0)
@example(201, 16, 0)
@example(201, 200, 0)
def test_unit_curve_matches_bisection(m, n_eff, extra):
    # extra > 0 asks for indices past the effective rank, which stay zero
    p = min(m, n_eff) + extra
    curve = _unit_curves(m, [n_eff], p)[0]
    expected = bisection_curve(p, m, n_eff)
    assert np.array_equal(curve > 0, expected > 0)
    assert np.abs(curve - expected).max() <= 1e-13 * expected.max()


@SETTINGS
@given(st.integers(1, 250), st.integers(1, 250), st.floats(1.0, 4.0))
@example(201, 200, 1.0)
@example(250, 249, 1.0)
@example(40, 250, 1.1)
@example(201, 16, 3.7)
def test_unit_quantiles_solve_the_cdf(m, n, corr):
    curve = mp_quantile_curve((m, n), 1.0, corr)
    n_eff = max(1, round(n / corr))
    small = min(m, n_eff)
    t, q, beta = curve_roots(curve, m, n_eff)
    assert np.all(curve[:small] > 0.0)
    assert np.array_equal(curve[small:], np.zeros(len(curve) - small))
    assert np.abs(_mp_cdf(t, beta) - q).max() <= 1e-13


@pytest.mark.parametrize("shape", [(201, 200), (1024, 1023)])
def test_smallest_quantiles_match_closed_form_bisection(shape):
    # the tail e15 fits; a piecewise-linear table inverse was off by 1.65e-4
    # and 6.5e-3 relative here
    p = min(shape)
    curve = mp_quantile_curve(shape, 1.0)[-20:]
    expected = bisection_curve(p, *shape)[-20:]
    assert np.all(np.abs(curve - expected) <= 1e-12 * expected)


def simpson_cdf(m, n_eff):
    """Reference: (t_grid, cdf_grid) with the MP density integrated by
    composite Simpson over 8192 panels of lam = lam- + (lam+ - lam-)(1 - cos
    pi s)/2, t = pi s, and the CDF normalised by its total."""
    big, small = max(m, n_eff), min(m, n_eff)
    beta = small / big
    lam_minus = (1.0 - np.sqrt(beta)) ** 2
    lam_plus = (1.0 + np.sqrt(beta)) ** 2
    s = np.linspace(0.0, 1.0, 2 * 8192 + 1)
    lam = lam_minus + (lam_plus - lam_minus) * 0.5 * (1.0 - np.cos(np.pi * s))
    # density * dlam/ds
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (lam_plus - lam_minus) ** 2 * np.pi * np.sin(np.pi * s) ** 2 / (8.0 * np.pi * beta * lam)
    if lam[0] == 0.0:  # square case: finite limit at s = 0
        g[0] = (lam_plus - lam_minus) * np.pi * 4.0 / (8.0 * np.pi * beta)
    seg = (g[0:-1:2] + 4.0 * g[1::2] + g[2::2]) * (s[1] - s[0]) / 3.0
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    return np.pi * s[0::2], cdf / cdf[-1]


@SETTINGS
@given(st.integers(1, 250), st.integers(1, 250))
@example(201, 16)
@example(300, 1)
def test_closed_form_cdf_matches_simpson(m, n_eff):
    # near square, Simpson's own error at the 1/sqrt(lam) edge reaches 3e-9
    assume(min(m, n_eff) <= 0.9 * max(m, n_eff))
    t, ref_cdf = simpson_cdf(m, n_eff)
    cdf = _mp_cdf(t, min(m, n_eff) / max(m, n_eff))
    assert np.abs(cdf - ref_cdf).max() <= 1e-12


def simpson_cdf_at(t, beta, panels=2048):
    """Reference: F(t_k) as composite Simpson of dF/ds = 2 sin^2 s / (pi lam)
    over [0, t_k], on nodes s = t_k u^2 for equal steps of u, which crowd
    toward s = 0 where lam can fall to zero."""
    u = np.linspace(0.0, 1.0, 2 * panels + 1)
    s = t[:, None] * u * u
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * np.sin(s) ** 2 / (np.pi * unit_lam(s, beta)) * 2.0 * t[:, None] * u
    g[:, 0] = 0.0  # ds/du vanishes at u = 0
    return np.sum(g[:, 0:-1:2] + 4.0 * g[:, 1::2] + g[:, 2::2], axis=-1) * (u[1] - u[0]) / 3.0


@SETTINGS
@given(st.integers(1, 250), st.integers(1, 250))
@example(4, 4)
@example(201, 16)
@example(201, 200)
def test_unit_curve_matches_simpson(m, n_eff):
    p = min(m, n_eff)
    t, q, beta = curve_roots(_unit_curves(m, [n_eff], p)[0], m, n_eff)
    assert np.abs(simpson_cdf_at(t, beta) - q).max() <= 1e-10 * q.max()


@SETTINGS
@given(st.integers(1, 250), st.integers(1, 250))
# the Hankel and unfolded shapes of the 30-DoF acceptance case
@example(1024, 1023)
@example(1024, 300)
@example(20, 15360)
def test_cdf_grid_rises_from_zero_to_one(m, n_eff):
    cdf_grid = _mp_cdf(np.linspace(0.0, np.pi, 8193), min(m, n_eff) / max(m, n_eff))
    assert cdf_grid[0] == 0.0
    assert abs(cdf_grid[-1] - 1.0) <= 1e-14
    assert np.all(np.diff(cdf_grid) > 0.0)


# --------------------------------------------------------- Hankel and files

@SETTINGS
@given(st.integers(2, 60), st.data(), st.booleans(), st.integers(0, 2**32 - 1))
def test_dehankelize_inverts_hankelize(n, data, complex_series, seed):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    if complex_series:
        series = series + 1j * rng.standard_normal(n)
    window = data.draw(st.one_of(st.none(), st.integers(1, n)))
    assert np.array_equal(dehankelize_ssa(hankelize(series, window)), series)


# every float64, signed zeros, infinities and NaNs included
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def file_datasets(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 6)))
    count = int(np.prod(shape))
    domain = draw(st.sampled_from(list(Domain)))
    data = np.zeros(shape, dtype=complex)
    data.real = np.reshape(draw(st.lists(any_float, min_size=count, max_size=count)), shape)
    if domain is Domain.FREQUENCY:
        data.imag = np.reshape(draw(st.lists(any_float, min_size=count, max_size=count)), shape)
    start = draw(st.floats(allow_nan=False, allow_infinity=False))
    step = draw(st.floats(min_value=1e-300, allow_infinity=False))
    label = draw(st.text(max_size=8))
    return ResponseDataset(data, domain, start, step, label)


@SETTINGS
@given(file_datasets())
def test_write_read_round_trip_is_bit_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "ds.prnk"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.data.shape == ds.data.shape
    assert back.data.tobytes() == ds.data.tobytes()
    assert back.domain is ds.domain
    assert (back.axis_start, back.axis_step, back.unit_label) == (ds.axis_start, ds.axis_step, ds.unit_label)


@SETTINGS
@given(file_datasets())
def test_unflatten_inverts_flatten_bit_exactly(ds):
    back = unflatten(flatten(ds.data), ds.n_outputs, ds.n_inputs)
    assert back.dtype == ds.data.dtype
    assert back.tobytes() == ds.data.tobytes()


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 40), st.floats(1e-3, 1e3),
       st.sampled_from(["Hz", "rad/s"]), st.integers(0, 2**32 - 1))
def test_time_bridge_round_trip(n_o, n_i, n_k, step, unit, seed):
    # a real signal's one-sided spectrum: real DC and Nyquist bins
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_o, n_i, n_k)) + 1j * rng.standard_normal((n_o, n_i, n_k))
    data[..., [0, -1]] = data[..., [0, -1]].real
    ds = ResponseDataset(data, Domain.FREQUENCY, 0.0, step, unit)
    back = to_frequency(to_time(ds), unit)
    assert back.domain is Domain.FREQUENCY and back.unit_label == unit
    assert back.axis_start == 0.0 and abs(back.axis_step - step) <= 1e-14 * step
    assert np.abs(back.data - ds.data).max() <= 1e-13 * np.abs(ds.data).max()


# ---------------------------------------------------------- filter chains

FULL = FixedRank(10**9)
selectors = st.one_of(st.builds(FixedRank, st.integers(0, 6)), st.just(E15()))


@st.composite
def chain_cases(draw, real_edges=False, wide=False):
    """Datasets in both input domains; frequency inputs start at 0 so the
    time bridge applies, and with ``real_edges`` have the real DC and
    Nyquist bins it keeps.  ``wide`` datasets have fewer time samples than
    entries (n_k < n_o*n_i), so the PRF stage's Gram matrix is A A^H, not
    A^H A, and its vectors are U, not V."""
    if wide:
        n_o, n_i = draw(st.integers(2, 4)), draw(st.integers(3, 4))
        n_k = 2 * draw(st.integers(2, (n_o * n_i - 1) // 2))
    else:
        n_o, n_i = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        assume(n_o * n_i >= 2)
        n_k = 2 * draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domain = draw(st.sampled_from(list(Domain)))
    if wide and domain is Domain.FREQUENCY:
        n_k = n_k // 2 + 1  # bins of an n_k-sample record
    data = rng.standard_normal((n_o, n_i, n_k))
    if domain is Domain.FREQUENCY:
        data = data + 1j * rng.standard_normal((n_o, n_i, n_k))
        if real_edges:
            data[..., [0, -1]] = data[..., [0, -1]].real
    return ResponseDataset(data, domain, 0.0, 0.5)


# both sides of the PRF stage's Gram kernel: tall and wide unfoldings
any_chain_cases = st.one_of(chain_cases(), chain_cases(wide=True))


def run_variant(ds, variant, prf, hankel):
    cfg = PrankConfig(variant=variant, prf_selector=prf, hankel_selector=hankel)
    return apply_filter(ds, cfg)[0].data


def assert_close(a, b):
    assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


@SETTINGS
@given(any_chain_cases, selectors)
def test_hip_with_full_hankel_rank_is_prf(ds, prf):
    assert_close(run_variant(ds, Variant.PRANK_HIP, prf, FULL),
                 run_variant(ds, Variant.PRF, prf, FULL))


@SETTINGS
@given(any_chain_cases, selectors)
def test_ph_with_full_hankel_rank_is_prf(ds, prf):
    assert_close(run_variant(ds, Variant.PRANK_PH, prf, FULL),
                 run_variant(ds, Variant.PRF, prf, FULL))


@SETTINGS
@given(any_chain_cases, selectors)
def test_hp_with_full_prf_rank_is_hankel(ds, hankel):
    assert_close(run_variant(ds, Variant.PRANK_HP, FULL, hankel),
                 run_variant(ds, Variant.HANKEL, FULL, hankel))


@SETTINGS
@given(st.one_of(chain_cases(real_edges=True), chain_cases(real_edges=True, wide=True)),
       st.sampled_from(list(Variant)))
def test_full_rank_filter_is_identity(ds, variant):
    assert_close(run_variant(ds, variant, FULL, FULL), ds.data)


# ------------------------------------------------- benchmark and metrics

def chain_matrices_loop(sys_):
    """Reference: (D, K) assembled link by link, each link adding its
    coefficient to the two diagonal entries of the masses it joins and
    subtracting it from the two off-diagonal ones."""
    n = sys_.n_dofs
    K = np.zeros((n, n))
    D = np.zeros((n, n))
    if sys_.boundary is Boundary.FIXED_FREE:
        K[0, 0] += sys_.springs[0]
        D[0, 0] += sys_.dampers[0]
        pairs = [(j - 1, j, j) for j in range(1, n)]
    else:
        pairs = [(j, j + 1, j) for j in range(n - 1)]
    for a, b, link in pairs:
        for mat, coef in ((K, sys_.springs[link]), (D, sys_.dampers[link])):
            mat[a, a] += coef
            mat[b, b] += coef
            mat[a, b] -= coef
            mat[b, a] -= coef
    return D, K


@st.composite
def chains(draw, max_dofs=40):
    n = draw(st.integers(1, max_dofs))
    boundary = draw(st.sampled_from(list(Boundary)))
    links = n if boundary is Boundary.FIXED_FREE else n - 1
    positive = st.floats(1e-3, 1e3)
    masses = draw(st.lists(positive, min_size=n, max_size=n))
    dampers = draw(st.lists(positive, min_size=links, max_size=links))
    springs = draw(st.lists(positive, min_size=links, max_size=links))
    return ChainSystem(np.array(masses), np.array(dampers), np.array(springs), boundary)


@SETTINGS
@given(chains())
def test_chain_matrices_match_link_loop(sys_):
    M, D, K = sys_.matrices()
    D_ref, K_ref = chain_matrices_loop(sys_)
    assert M.tobytes() == np.diag(sys_.masses).tobytes()
    assert D.tobytes() == D_ref.tobytes()
    assert K.tobytes() == K_ref.tobytes()


@SETTINGS
@given(chains(max_dofs=30))
def test_eigen_shapes_have_positive_pivots(sys_):
    shapes = eigen(sys_).shapes
    pivots = shapes[np.argmax(np.abs(shapes), axis=0), np.arange(shapes.shape[1])]
    assert np.all(pivots > 0.0)


@SETTINGS
@given(chains(max_dofs=30))
def test_eigen_classifies_the_rigid_body_mode_by_boundary(sys_):
    # a free-free chain has one rigid-body mode, at exactly 0 rad/s with no
    # damping; every other mode, and every mode of a fixed-free chain, is flexible
    model = eigen(sys_)
    rigid = int(sys_.boundary is Boundary.FREE_FREE)
    assert np.all(model.frequencies[:rigid] == 0.0) and np.all(model.damping[:rigid] == 0.0)
    assert np.all(model.frequencies[rigid:] > 0.0)


def zero_scan_loop(mag, prominence):
    """Reference: every strict local minimum checked against the maxima
    of the whole curve on its two sides, recomputed per bin."""
    hits = []
    for t in range(1, len(mag) - 1):
        if not (mag[t] < mag[t - 1] and mag[t] < mag[t + 1]):
            continue
        side = min(mag[:t].max(), mag[t + 1 :].max())
        if side > 0.0 and 1.0 - mag[t] / side > prominence:
            hits.append(t)
    return np.array(hits, dtype=float)


@st.composite
def magnitude_curves(draw):
    """Nonnegative curves built from runs of repeated values, drawn partly
    from a small set so that flat stretches and ties between minima and
    maxima are common."""
    value = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 4.0]), st.floats(0.0, 1e3))
    runs = draw(st.lists(st.tuples(value, st.integers(1, 4)), min_size=1, max_size=30))
    mag = np.repeat([v for v, _ in runs], [k for _, k in runs])
    assume(len(mag) >= 2)
    return mag


@SETTINGS
@given(magnitude_curves(), st.floats(0.0, 1.0))
@example(np.array([1.0, 0.0, 1.0, 0.5, 2.0]), 0.0)
# the dip is deep against the right side only: the lower side decides
@example(np.array([1.0, 0.5, 10.0]), 0.6)
def test_zero_locations_match_per_bin_scan(mag, prominence):
    # axis value = bin index, so the result lists the hit bins
    ds = ResponseDataset(mag.reshape(1, 1, -1), Domain.FREQUENCY, 0.0, 1.0)
    assert np.array_equal(zero_locations(ds, 0, 0, prominence), zero_scan_loop(mag, prominence))


@SETTINGS
@given(magnitude_curves(), st.data(), st.sampled_from([np.nan, np.inf, complex(0.0, -np.inf)]))
def test_zero_locations_rejects_nonfinite(mag, data, bad):
    values = mag.astype(complex)
    values[data.draw(st.integers(0, len(values) - 1))] = bad
    ds = ResponseDataset(values.reshape(1, 1, -1), Domain.FREQUENCY)
    with pytest.raises(NonFiniteError):
        zero_locations(ds, 0, 0)
