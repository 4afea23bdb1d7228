import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrolab.entropy import (
    CompactSample,
    dyn_distance,
    eigenplane_lower_bound,
    entropy_estimate,
    greedy_separated,
    grid_sample,
    max_separated_exact,
    sn_table,
    spectral_entropy,
)
from entrolab.errors import (
    NonFiniteOrbitError,
    SampleSizeError,
    SaturationError,
    UncertifiedSpectrumError,
    ValidationError,
)
from entrolab.operators import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    DirectSum,
    Scaled,
    SpectralData,
    batch_apply,
    orbit_block,
    rotation_matrix,
    spectrum,
)
from entrolab.rules import ConstRule, ExplicitRule, GeometricRule
from entrolab.spaces import Lp, Vector, basis_vector, vector, zero_vector

L2 = Lp(2.0)
L1 = Lp(1.0)
LINF = Lp(math.inf)

IDENTITY_1D = Diagonal(ExplicitRule((1.0,)))
DOUBLING_1D = Diagonal(ExplicitRule((2.0,)))


def sample_of(values, resolution=0.05, label="test"):
    pts = tuple(vector([v] if np.isscalar(v) else v) for v in values)
    return CompactSample(pts, resolution, label)


def brute_force_max_separated(T, pts, n, eps, s):
    """Exhaustive search over all subsets, the independent oracle."""
    for r in range(len(pts), 1, -1):
        for combo in itertools.combinations(range(len(pts)), r):
            if all(
                dyn_distance(T, pts[i], pts[j], n, s) > eps
                for i, j in itertools.combinations(combo, 2)
            ):
                return r
    return 1


# ---------------------------------------------------------------- dyn_distance


def test_dyn_distance_identity():
    x, y = vector([0.3, 0.1]), vector([0.7, 0.5])
    from entrolab.spaces import distance

    assert dyn_distance(IDENTITY_1D, vector([0.3]), vector([0.7]), 5, L2) == (
        distance(vector([0.3]), vector([0.7]), L2)
    )


def test_dyn_distance_doubling():
    assert dyn_distance(DOUBLING_1D, vector([1.0]), vector([0.0]), 3, L2) == 4.0


def test_dyn_distance_shift_orbit():
    B2 = BackwardShift(ConstRule(2))
    # orbit of e_2: e_2 -> 2 e_1 -> 0
    assert dyn_distance(B2, basis_vector(2, 3), zero_vector(3), 2, L2) == 2.0


def test_dyn_distance_nondecreasing_in_n():
    B2 = BackwardShift(ConstRule(2))
    x, y = vector([0.5, 0.25, 0.125, 0]), vector([0.1, 0.3, 0.2, 0])
    vals = [dyn_distance(B2, x, y, n, L2) for n in range(1, 5)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- greedy


def test_greedy_keeps_far_pair():
    K = sample_of([0.0, 1.0])
    kept = greedy_separated(IDENTITY_1D, K, 1, 0.5, L2)
    assert len(kept) == 2


def test_greedy_eleven_point_grid():
    K = sample_of(np.linspace(0, 1, 11))
    kept = greedy_separated(IDENTITY_1D, K, 1, 0.25, L2)
    got = sorted(float(p.coords[0].real) for p in kept)
    assert got == pytest.approx([0.0, 0.3, 0.6, 0.9])
    # maximality: every excluded point sits within eps of a kept one
    for q in K.points:
        if q in kept:
            continue
        assert any(dyn_distance(IDENTITY_1D, q, p, 1, L2) <= 0.25 for p in kept)


def test_greedy_deterministic_under_input_order():
    vals = [0.0, 0.31, 0.62, 0.93, 0.1, 0.2]
    a = greedy_separated(IDENTITY_1D, sample_of(vals), 1, 0.25, L2)
    b = greedy_separated(IDENTITY_1D, sample_of(vals[::-1]), 1, 0.25, L2)
    assert a == b


def test_sample_refuses_points_equal_by_value():
    # -0.0 == 0.0, and coordinates beyond a vector's dim are exactly zero
    for pair in ((vector([0.0]), vector([-0.0])), (vector([1.0]), vector([1.0, 0.0]))):
        with pytest.raises(ValidationError):
            CompactSample(pair, 0.1)


@pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf])
def test_sample_refuses_resolution_not_finite_and_positive(resolution):
    with pytest.raises(ValidationError, match="resolution"):
        CompactSample(np.array([[0.0], [1.0]]), resolution)


def test_sample_from_coordinate_array():
    coords = np.array([[0.5, 1.0], [0.0, 2.0], [0.5, -1.0]])
    K = CompactSample(coords, 0.1, "arr")
    assert K.rows.tobytes() == sample_of(coords, 0.1).rows.tobytes()
    assert K.points == (vector([0, 2]), vector([0.5, -1]), vector([0.5, 1]))
    assert (len(K), K.resolution, K.label) == (3, 0.1, "arr")
    assert not K.rows.flags.writeable
    # the Vectors are built once, and the counts hand out those same objects
    assert K.points is K.points
    kept = greedy_separated(IDENTITY_1D, K, 1, 10.0, L2)
    assert kept[0] is K.points[0]
    assert max_separated_exact(IDENTITY_1D, K, 1, 0.1, L2)[2] is K.points[2]
    for bad in (np.zeros((0, 2)), np.array([[1.0, np.nan]]), np.zeros((2, 0)), [[0.0], [-0.0]]):
        with pytest.raises(ValidationError):
            CompactSample(bad, 0.1)


def test_sample_order_matches_tuple_key_sort():
    # reference: the per-point sort on interleaved (Re, Im) tuples, where
    # -0.0 and 0.0 tie, over same-dimension complex samples with signed zeros
    def key(v):
        return tuple(x for z in v.coords for x in (z.real, z.imag))

    rng = np.random.default_rng(0)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    for _ in range(50):
        raw = np.empty((12, 2), dtype=complex)
        raw.real, raw.imag = rng.choice(values, size=(2, 12, 2))
        by_value = {(row + 0.0).tobytes(): row for row in raw}
        pts = [vector(row) for row in by_value.values()]
        K = CompactSample(tuple(pts), 0.1)
        assert list(K.points) == sorted(pts, key=key)
        assert K.rows.tobytes() == np.stack([p.coords for p in K.points]).tobytes()


def test_sample_orders_mixed_dimensions_by_padded_rows():
    short, long = vector([1.0]), vector([1.0, -1.0])
    K = CompactSample((short, long), 0.1)
    kept = greedy_separated(Diagonal(ExplicitRule((1.0, 1.0))), K, 1, 0.5, L2)
    assert kept == [long, short] and kept[1].dim == 2
    assert K.points == (long, short)
    assert K.rows.tolist() == [[1.0, -1.0], [1.0, 0.0]]


# ---------------------------------------------------------------- exact


def test_exact_matches_brute_force_on_grid():
    K = sample_of(np.linspace(0, 1, 11))
    got = max_separated_exact(IDENTITY_1D, K, 1, 0.25, L2)
    assert len(got) == brute_force_max_separated(IDENTITY_1D, K.points, 1, 0.25, L2) == 4


def test_exact_all_separated():
    K = sample_of([0.0, 0.4, 0.8])
    assert len(max_separated_exact(IDENTITY_1D, K, 1, 0.1, L2)) == 3


def test_exact_singleton():
    K = sample_of([0.7])
    assert len(max_separated_exact(IDENTITY_1D, K, 1, 5.0, L2)) == 1


def test_exact_size_cap():
    K = sample_of(np.linspace(0, 1, 30))
    with pytest.raises(SampleSizeError):
        max_separated_exact(IDENTITY_1D, K, 1, 0.1, L2)


def test_exact_breaks_ties_lexicographically():
    # eleven points 0.1 apart at eps 0.25 have many maximum sets of four
    # ({0, .3, .6, .9}, {0, .3, .6, 1}, {.1, .4, .7, 1}, ...); the oracle
    # returns the lexicographically greatest in the sorted sample, whatever
    # order the sample comes in
    grid = np.linspace(0, 1, 11)
    for order in (range(11), [5, 10, 0, 3, 8, 1, 9, 2, 7, 4, 6]):
        got = max_separated_exact(IDENTITY_1D, sample_of(grid[list(order)]), 1, 0.25, L2)
        assert [float(p.coords[0].real) for p in got] == [grid[0], grid[3], grid[6], grid[9]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(1, 3), (2, 5), (1, 2, 4)]))
def test_exact_vs_brute_force_random(seed, n_values):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, 9))
    pts = rng.random(count)
    if len(np.unique(pts)) < count:
        return
    K = sample_of(pts)
    T = Diagonal(ExplicitRule((float(rng.choice([0.5, 1.0, 2.0])),)))
    n = int(rng.integers(1, 4))
    eps = float(rng.choice([0.1, 0.25, 0.5]))
    exact = len(max_separated_exact(T, K, n, eps, L2))
    brute = brute_force_max_separated(T, K.points, n, eps, L2)
    assert exact == brute
    greedy = len(greedy_separated(T, K, n, eps, L2))
    assert greedy <= exact
    # a whole table over a non-contiguous n list, cell by cell
    table = sn_table(T, K, n_values, [eps], L2, method="exact")
    for m in n_values:
        assert table.s(m, eps) == brute_force_max_separated(T, K.points, m, eps, L2)


# ---------------------------------------------------------------- sn_table


def test_sn_table_identity_constant():
    K = sample_of(np.linspace(0, 1, 21))
    table = sn_table(IDENTITY_1D, K, range(1, 6), [0.3, 0.15], L2)
    for eps in table.eps_values:
        col = [table.s(n, eps) for n in table.n_values]
        assert len(set(col)) == 1


def test_sn_table_contraction_matches_s1():
    T = Diagonal(ExplicitRule((0.6,)))
    K = sample_of(np.linspace(0, 1, 33))
    table = sn_table(T, K, range(1, 8), [0.2, 0.1, 0.05], L2)
    for eps in table.eps_values:
        col = [table.s(n, eps) for n in table.n_values]
        assert col == [col[0]] * len(col)


def test_sn_table_doubling_growth():
    K = grid_sample(L2, (256,))
    table = sn_table(DOUBLING_1D, K, range(1, 7), [2.0**-4], L2)
    col = [table.s(n, 2.0**-4) for n in table.n_values]
    # s roughly doubles each step until the grid saturates
    for a, b in zip(col, col[1:]):
        if b < 0.9 * len(K):
            assert b == pytest.approx(2 * a, rel=0.2)


def test_sn_table_monotone_in_eps_and_n():
    K = grid_sample(L2, (65,))
    table = sn_table(DOUBLING_1D, K, range(1, 6), [0.25, 0.125, 0.0625], L2)
    for eps in table.eps_values:
        col = [table.s(n, eps) for n in table.n_values]
        assert all(a <= b for a, b in zip(col, col[1:]))
    for n in table.n_values:
        row = [table.s(n, eps) for eps in table.eps_values]  # eps descending
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_sn_table_bounds():
    K = sample_of(np.linspace(0, 1, 9))
    table = sn_table(DOUBLING_1D, K, range(1, 5), [0.5, 0.01], L2)
    for s_val in table.entries.values():
        assert 1 <= s_val <= len(K)


def test_sn_table_exact_method_cap():
    K = sample_of(np.linspace(0, 1, 30))
    with pytest.raises(SampleSizeError):
        sn_table(DOUBLING_1D, K, [1], [0.1], L2, method="exact")


def test_nan_eps_refused():
    # NaN passes an eps <= 0 test; left through, every row would be kept
    K = sample_of(np.linspace(0, 1, 9))
    with pytest.raises(ValidationError):
        sn_table(IDENTITY_1D, K, range(1, 3), [math.nan], L2)
    with pytest.raises(ValidationError):
        sn_table(IDENTITY_1D, K, range(1, 3), [0.1, math.nan], L2, method="exact")
    for count in (greedy_separated, max_separated_exact):
        with pytest.raises(ValidationError):
            count(IDENTITY_1D, K, 1, math.nan, L2)


def test_non_integral_bowen_times_refused():
    K = sample_of(np.linspace(0, 1, 9))
    x, y = K.points[:2]
    for n in (1.5, 2.5, math.inf, math.nan, "2", 0, 0.0):
        with pytest.raises(ValidationError):
            sn_table(DOUBLING_1D, K, [n], [0.1], L2)
        with pytest.raises(ValidationError):
            dyn_distance(DOUBLING_1D, x, y, n, L2)
        for count in (greedy_separated, max_separated_exact):
            with pytest.raises(ValidationError):
                count(DOUBLING_1D, K, n, 0.1, L2)
    # ints, numpy ints and integral floats count as the int
    table = sn_table(DOUBLING_1D, K, [1, 3], [0.1], L2)
    for ns in ([np.int64(1), 3.0], [1.0, np.float64(3.0)]):
        assert sn_table(DOUBLING_1D, K, ns, [0.1], L2).entries == table.entries
    for n in (3, np.int64(3), 3.0, np.float64(3.0)):
        assert dyn_distance(DOUBLING_1D, x, y, n, L2) == dyn_distance(DOUBLING_1D, x, y, 3, L2)
        assert len(greedy_separated(DOUBLING_1D, K, n, 0.1, L2)) == table.s(3, 0.1)
        assert len(max_separated_exact(DOUBLING_1D, K, n, 0.1, L2)) >= table.s(3, 0.1)


def test_sn_table_csv_shape():
    K = sample_of([0.0, 0.5, 1.0])
    table = sn_table(IDENTITY_1D, K, [1, 2], [0.25], L2)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,epsilon,s,method,saturated"
    assert len(lines) == 3


# ---------------------------------------------------------------- estimate


def test_estimate_doubling_slope():
    K = grid_sample(L2, (512,))
    table = sn_table(DOUBLING_1D, K, range(1, 9), [2.0**-4, 2.0**-5], L2)
    est = entropy_estimate(table)
    assert abs(est.h_estimate - math.log(2)) <= 0.1 * math.log(2)


def test_estimate_identity_zero_slope():
    K = sample_of(np.linspace(0, 1, 65))
    table = sn_table(IDENTITY_1D, K, range(1, 6), [0.1], L2)
    est = entropy_estimate(table)
    assert est.h_estimate == 0.0


def test_estimate_product_slope():
    T = Diagonal(ExplicitRule((2.0, 3.0)))
    K = grid_sample(LINF, (64, 64))
    table = sn_table(T, K, range(1, 6), [2.0**-3], LINF)
    est = entropy_estimate(table)
    assert abs(est.h_estimate - math.log(6)) <= 0.1 * math.log(6)


def test_estimate_all_saturated_raises():
    K = sample_of(np.linspace(0, 1, 9))
    table = sn_table(DOUBLING_1D, K, range(1, 5), [1e-6], L2)
    with pytest.raises(SaturationError):
        entropy_estimate(table)


def test_estimate_window_validation():
    K = sample_of(np.linspace(0, 1, 17))
    table = sn_table(DOUBLING_1D, K, range(1, 5), [0.1], L2)
    with pytest.raises(ValidationError):
        entropy_estimate(table, n_window=(1, 99))


# ---------------------------------------------------------------- spectral side


def test_spectral_entropy_two_point():
    sd = spectrum(Diagonal(ExplicitRule((2.0, 0.5))))
    assert spectral_entropy(sd) == math.log(2.0)


def test_spectral_entropy_compact_geometric():
    sd = spectrum(Diagonal(GeometricRule(0.5, first=1.5)))
    assert spectral_entropy(sd) == math.log(1.5)


def test_spectral_entropy_contraction_zero():
    sd = spectrum(Diagonal(ExplicitRule((0.9, 0.5, 0.1))))
    assert spectral_entropy(sd) == 0.0


def test_spectral_entropy_uncertified_tail():
    sd = spectrum(Diagonal(ConstRule(2.0)))
    with pytest.raises(UncertifiedSpectrumError):
        spectral_entropy(sd)


def test_spectral_entropy_certified_prefix():
    sd = SpectralData(
        eigenvalues=((2.0 + 0j, 1), (1.2 + 0j, 1), (0.9 + 0j, 1)),
        provenance="closed_form",
        spectral_radius=2.0,
        includes_zero=True,
        tail_sup=0.9,
    )
    assert spectral_entropy(sd) == pytest.approx(
        math.log(2.0) + math.log(1.2), rel=1e-14
    )


def test_eigenplane_lower_bound_circle():
    eigs = [1.5 * np.exp(2j * np.pi * k / 3) for k in range(3)]
    assert eigenplane_lower_bound(eigs) == pytest.approx(3 * math.log(1.5), rel=1e-12)


def test_eigenplane_single():
    assert eigenplane_lower_bound([2.0]) == math.log(2.0)


def test_eigenplane_matches_spectral_entropy():
    eigs = [1.2 * np.exp(2j * np.pi * k / 5) for k in range(5)]
    sd = spectrum(Diagonal(ExplicitRule(tuple(eigs))))
    assert eigenplane_lower_bound(eigs) == pytest.approx(
        spectral_entropy(sd), rel=1e-12
    )


def test_eigenplane_rejects_mixed_moduli():
    with pytest.raises(ValidationError):
        eigenplane_lower_bound([2.0, 1.5])


# ---------------------------------------------------------------- laws


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_power_rule_spectral(m, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 7))
    eigs = tuple(
        complex(rng.uniform(0.1, 3.0) * np.exp(2j * np.pi * rng.random()))
        for _ in range(count)
    )
    from entrolab.operators import OperatorPower

    T = Diagonal(ExplicitRule(eigs))
    base = spectral_entropy(spectrum(T))
    powered = spectral_entropy(spectrum(OperatorPower(T, m)))
    assert abs(powered - m * base) <= 1e-12 * max(1.0, m * base)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_direct_sum_additivity(seed):
    rng = np.random.default_rng(seed)
    ea = tuple(complex(rng.uniform(0.2, 2.5)) for _ in range(int(rng.integers(1, 5))))
    eb = tuple(complex(rng.uniform(0.2, 2.5)) for _ in range(int(rng.integers(1, 5))))
    A, B = Diagonal(ExplicitRule(ea)), Diagonal(ExplicitRule(eb))
    lhs = spectral_entropy(spectrum(DirectSum((A, B))))
    rhs = spectral_entropy(spectrum(A)) + spectral_entropy(spectrum(B))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_subset_monotonicity_exact(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(3, 11))
    pts = np.unique(rng.random(count))
    K = sample_of(pts)
    keep = sorted(rng.choice(len(pts), size=max(1, len(pts) // 2), replace=False))
    K_sub = sample_of(pts[keep])
    T = Diagonal(ExplicitRule((2.0,)))
    for n in (1, 3):
        for eps in (0.1, 0.3):
            big = len(max_separated_exact(T, K, n, eps, L2))
            small = len(max_separated_exact(T, K_sub, n, eps, L2))
            assert small <= big


def test_contraction_slope_exactly_zero():
    for T in (
        Scaled(0.8, DenseMatrix(rotation_matrix(1.0).entries)),
        Diagonal(ExplicitRule((0.5, 0.9))),
    ):
        K = grid_sample(L2, (9, 9))
        table = sn_table(T, K, range(1, 6), [0.2, 0.1], L2)
        est = entropy_estimate(table)
        assert est.h_estimate == 0.0


def test_grid_sample_refuses_axes_without_points():
    # numpy would end these in its own ValueError ("Number of samples, -3,
    # must be non-negative") or in an empty sample
    for shape in ((-3,), (0,), (4, 0), ()):
        with pytest.raises(ValidationError, match="one or more axes of at least one point"):
            grid_sample(L2, shape)
    K = grid_sample(L2, (1, 3))
    assert len(K) == 3 and K.rows[:, 0].tolist() == [0, 0, 0]


def test_metric_uniformity_l2_vs_linf():
    T = Diagonal(ExplicitRule((2.0, 3.0)))
    K2 = grid_sample(L2, (64, 64))
    Kinf = grid_sample(LINF, (64, 64))
    ns, eps = range(1, 6), [2.0**-3]
    s2 = entropy_estimate(sn_table(T, K2, ns, eps, L2)).h_estimate
    sinf = entropy_estimate(sn_table(T, Kinf, ns, eps, LINF)).h_estimate
    assert abs(s2 - sinf) <= 0.10 * max(s2, sinf)


# the orbit overflows on purpose and ends in NonFiniteOrbitError
def test_overflowed_orbits_raise():
    # 1e300 * 1e10 overflows at the first step; before the finiteness check
    # the NaN distances counted as conflicts for n = 2 and as separated for
    # n = 3, giving counts 3, 1, 3
    T = Diagonal(ExplicitRule((1e300,)))
    K = CompactSample(tuple(vector([v]) for v in (1e10, 2e10, 3e10)), 0.1)
    assert len(greedy_separated(T, K, 1, 0.1, L2)) == 3
    for n in (2, 3):
        with pytest.raises(NonFiniteOrbitError):
            greedy_separated(T, K, n, 0.1, L2)
    with pytest.raises(NonFiniteOrbitError):
        orbit_block(T, np.array([[1e10]]), 2)


# the orbit overflows on purpose and ends in NonFiniteOrbitError
def test_overflowing_orbit_raises_without_warning():
    # 1e200 squared leaves the range at the second step, in a complex
    # product that gives inf and nan; the error is raised, no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteOrbitError):
            orbit_block(Diagonal(ConstRule(1e200)), np.array([[1.0, 1j]]), 3)
        with pytest.raises(NonFiniteOrbitError):
            greedy_separated(Diagonal(ConstRule(1e200)), sample_of([1.0, 2.0]), 3, 0.1, L2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------- near-pair kernel

from entrolab import entropy as en  # noqa: E402
from entrolab.spaces import FAggregate, fold, norm_block  # noqa: E402
from entrolab.symbolic import cube_sample  # noqa: E402

L3 = Lp(3.0)
KERNEL_SPACES = [L1, L2, L3, LINF, FAggregate(L2), FAggregate(LINF)]


def old_conflict_masks(orbits, eps, s):
    """The conflict graph row by row: each row against every later row."""
    masks = [0] * orbits.shape[0]
    for i in range(orbits.shape[0]):
        d = norm_block(orbits[i + 1 :] - orbits[i], s).max(axis=1)
        for off, val in enumerate(d):
            if val <= eps:
                masks[i] |= 1 << (i + 1 + off)
                masks[i + 1 + off] |= 1 << i
    return masks


def kernel_sample(seed, dim, count, dyadic, rotate):
    """Points and an operator: dyadic grids give equal key values and pairs
    at distances exactly eps; a scaled rotation gives complex orbits."""
    rng = np.random.default_rng(seed)
    if dyadic:
        pts = rng.integers(0, 256, size=(count, dim)) / 32.0
    else:
        pts = rng.random((count, dim))
    if rotate and dim == 2:
        T = Scaled(1.25, rotation_matrix(float(rng.uniform(0.1, 3.0))))
    else:
        T = Diagonal(ExplicitRule(tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], dim))))
    pts = np.unique(pts, axis=0)
    return T, CompactSample(tuple(vector(p) for p in pts), 0.1)


def rows_of(K, count):
    """The first `count` rows of a sample, as a sample."""
    assert len(K) >= count
    return CompactSample(K.rows[:count], K.resolution)


def witness_scan(orbits, eps, s):
    """The greedy separated set of the rows of `orbits` (shape (count,
    steps, dim)) in order, by a witness scan: a row is kept when its Bowen
    distance to every kept row exceeds eps.  Distances at the first and last
    time step bound the Bowen distance from below and prune most full
    evaluations.  The reference of the pair path: its maxima are
    `bowen_distances` bit for bit."""
    kept = np.empty_like(orbits)
    w_lo, w_hi = orbits[:, 0, :], orbits[:, -1, :]
    kw_lo, kw_hi = np.empty_like(w_lo), np.empty_like(w_hi)
    kept_idx = []
    for j in range(orbits.shape[0]):
        k = len(kept_idx)
        near = kept[:k]
        if orbits.shape[1] > 2:  # keep the kept rows the bound leaves unresolved
            lb = np.maximum(norm_block(kw_lo[:k] - w_lo[j], s), norm_block(kw_hi[:k] - w_hi[j], s))
            near = near[lb <= eps]
        if not near.size or (fold(np.maximum, norm_block(near - orbits[j], s)) > eps).all():
            kept[k], kw_lo[k], kw_hi[k] = orbits[j], w_lo[j], w_hi[j]
            kept_idx.append(j)
    return kept_idx


def row_mask(rows):
    """The bitmask of a bool row vector: bit i set where rows[i] is True."""
    return sum(1 << int(i) for i in np.flatnonzero(rows))


def assert_pair_path_matches_scan(T, K, n_values, eps_values, s):
    """Every cell's count and kept rows from the carried pass, from the
    single-n pass at each n and from `_kept_rows` (its masks; the dense
    path for at most 91 rows) equal the witness scan's."""
    orbits = en._sample_orbits(T, K, max(n_values))
    eps = np.array(eps_values)
    plan, _ = en._plan_keys(orbits, n_values[0], eps_values[0], s)
    carried = en._carried_marks(orbits, n_values, eps, s, plan)
    assert en._kept_rows(orbits, n_values, eps_values, s, "greedy") == carried
    for n, cell in zip(n_values, carried):
        plan, _ = en._plan_keys(orbits, n, eps_values[0], s)
        single = en._carried_marks(orbits[:, :n], (n,), eps, s, plan)[0]
        for e, mask, alone in zip(eps_values, cell, single):
            kept = np.zeros(len(orbits), dtype=bool)
            kept[witness_scan(orbits[:, :n], e, s)] = True
            assert mask == alone == row_mask(kept)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(KERNEL_SPACES),
    st.integers(1, 3),
    st.sampled_from([2, 20, 90, 91, 92, 140]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([(1, 2, 4), (2, 5, 9)]),
)
def test_pair_sweep_matches_witness_scan(seed, s, dim, count, dyadic, rotate, n_values):
    # 91 rows (4,095 pairs) take the dense path and 92 (4,186) the carried
    # pass; dyadic points sit at distances exactly eps
    T, K = kernel_sample(seed, dim, 300, dyadic, rotate)
    assert_pair_path_matches_scan(T, rows_of(K, count), n_values, (0.5, 0.25, 0.125), s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SPACES), st.integers(1, 3), st.booleans())
def test_near_pairs_are_every_close_pair(seed, s, dim, dyadic):
    T, K = kernel_sample(seed, dim, 140, dyadic, rotate=True)
    orbits = en._sample_orbits(T, K, 3)
    r = 0.25
    ref = {}
    for i in range(orbits.shape[0] - 1):
        d = norm_block(orbits[i + 1 :] - orbits[i], s).max(axis=1)
        for off in np.flatnonzero(d <= r):
            ref[(i, i + 1 + int(off))] = d[off]
    got = {}
    last = -1
    for bi, bj, bd in en.near_pairs(orbits, 3, r, s):
        assert (bi < bj).all() and (bi >= last).all()
        last = int(bi.max(initial=last))
        got.update({(int(a), int(b)): d for a, b, d in zip(bi, bj, bd)})
    assert got.keys() == ref.keys()
    assert all(got[k] == ref[k] for k in ref)  # bit for bit


def test_pair_sweep_conflict_at_exactly_eps():
    # neighbours exactly eps apart conflict (d <= eps), so every other
    # point of the 0.25-spaced line is kept, by the carried pass (200
    # points), the dense path's greedy sweep and its exact search (24)
    for count, methods in ((200, [greedy_separated]), (24, [greedy_separated, max_separated_exact])):
        K = sample_of(np.arange(count) * 0.25)
        for method in methods:
            kept = method(IDENTITY_1D, K, 1, 0.25, L2)
            assert [float(p.coords[0].real) for p in kept] == (np.arange(count // 2) * 0.5).tolist()
        assert_pair_path_matches_scan(IDENTITY_1D, K, (1, 2), (0.25,), L2)


def test_pair_sweep_equal_keys_and_cell_edges():
    w = 0.1 * (1 + en.KEY_MARGIN)
    edges = np.arange(1, 60) * w
    # equal first coordinates, and second coordinates on both sides of cell
    # edges, one ulp apart
    pts = [(0.5, v) for v in np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, 9)])]
    K = sample_of(pts)
    T = Diagonal(ExplicitRule((1.0, 1.0)))
    for s in (L2, LINF, FAggregate(LINF)):
        assert_pair_path_matches_scan(T, K, (1, 2), (0.1, 0.05), s)


def test_faggregate_all_pairs_fallback():
    # eps at or above every coefficient 2^(1-c) - 2^(-dim) and above the
    # saturated value: no key bounds anything, so all pairs are evaluated
    T, K = kernel_sample(3, 3, 140, dyadic=False, rotate=False)
    s = FAggregate(L2)
    orbits = en._sample_orbits(T, K, 2)
    for r in (1.0, 2.0):
        _, usable = en._key_cells(orbits, 3, r, s)
        assert not usable.any()
        (hashed, filters), pred = en._plan_keys(orbits, 2, r, s)
        assert hashed.shape[1] == filters.shape[1] == 0
        assert pred == len(K) * (len(K) - 1) // 2
    assert_pair_path_matches_scan(T, K, (1, 2), (2.0, 1.0, 0.7), s)


def test_faggregate_saturated_key():
    # below the saturated value U only coordinate 1 bounds the distance
    # (window 1); rows whose partial norms all reach 1 sit exactly at U
    s = FAggregate(L2)
    for dim in (1, 3, 9, 64):
        U = float(norm_block(np.ones((1, dim)), s)[0])
        block = np.full((7, 3, dim), 1.5) * np.array([1, -1, 2])[:, None]
        assert (norm_block(block, s) == U).all()
        orbits = np.random.default_rng(dim).random((120, 2, dim)) * 3
        _, usable = en._key_cells(orbits, dim, float(np.nextafter(U, 0)), s)
        assert usable.tolist() == [True, True]
        r = float(np.nextafter(U, 0))
        got = {(int(i), int(j)) for bi, bj, _ in en.near_pairs(orbits, 2, r, s) for i, j in zip(bi, bj)}
        I, J = np.triu_indices(120, 1)
        d = en.bowen_distances(orbits, I, J, 2, s)
        assert got == {(int(i), int(j)) for i, j in zip(I[d <= r], J[d <= r])}


def test_sample_orbits_are_time_major_slabs():
    # orbit_block grows each step's slab from the one before, so the slabs
    # that `_pairs_within` reads are a view, real or complex, with the
    # values of stepping every row on its own
    T = rotation_matrix(0.7)
    for coords, dtype in ((np.arange(10.0).reshape(5, 2), float), (np.arange(10.0).reshape(5, 2) * 1j, complex)):
        orbits = en._sample_orbits(T, CompactSample(coords, 0.1), 4)
        slabs = en._time_major(orbits)
        assert orbits.dtype == dtype and np.shares_memory(slabs, orbits)
        assert slabs.flags.c_contiguous and slabs.shape == (4, 5, 2)
        for t in range(1, 4):
            assert np.array_equal(orbits[:, t], batch_apply(T, orbits[:, t - 1]))


def pass_work(monkeypatch, T, K, n_values, eps_values, s):
    """The pairs whose Bowen distance a greedy table's carried pass takes
    (all at the first n), and the pairs it carries from there."""
    taken, carried = [], []
    within, pairs = en._pairs_within, en._carried_pairs
    monkeypatch.setattr(en, "_pairs_within", lambda o, I, *a: taken.append(I.size) or within(o, I, *a))
    monkeypatch.setattr(en, "_carried_pairs", lambda *a: (carried.append(b[0].size) or b for b in pairs(*a)))
    sn_table(T, K, n_values, eps_values, s)
    monkeypatch.undo()
    return sum(taken), sum(carried)


N0_OPERATORS = {
    "expanding": Diagonal(ExplicitRule((2.0, 1.5))),
    "contracting": Diagonal(ExplicitRule((0.5, 0.5))),
    "rotation": rotation_matrix(0.7),
}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(sorted(N0_OPERATORS)),
    st.sampled_from([L1, L2, LINF, FAggregate(L2)]),
    st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True).map(sorted).map(tuple),
    st.booleans(),
)
@example(0, "expanding", L2, (2, 3, 5, 6), True)
@example(1, "contracting", FAggregate(L2), (1, 4), False)
def test_pairs_within_keeps_exactly_the_close_pairs(seed, kind, s, n_values, small_blocks):
    # at n_values[0] the kernel keeps the pairs with D <= R, one radius per
    # pair, and carries them: level k holds the pairs within r at
    # n_values[k - 1], with D bit for bit `bowen_distances` at n_values[k],
    # until none is left.  Radii are random, a pair's exact distance (kept)
    # or the float just below it (dropped), in pairs of random order; r is
    # random or one pair's exact distance at a random n; every block comes
    # from one chunk of BLOCK_ELEMS // dim pairs, 16-element blocks when
    # small_blocks.  The kernel reads the orbits' time-major slabs, the
    # reference the orbits themselves
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(0, 64, size=(60, 2)) / 32.0, axis=0)
    orbits = en._sample_orbits(N0_OPERATORS[kind], CompactSample(pts, 0.1), n_values[-1])
    I, J = np.triu_indices(len(pts), 1)
    order = rng.permutation(I.size)
    I, J = I[order], J[order]
    D = [en.bowen_distances(orbits, I, J, n, s) for n in n_values]
    R = np.choose(rng.integers(0, 3, I.size), [rng.random(I.size) * 2 * D[0].max(), D[0], np.nextafter(D[0], 0)])
    r = float(rng.random() * 2 * D[-1].max() if rng.random() < 0.5 else rng.choice(D[rng.integers(len(D))]))
    elems = 16 if small_blocks else en.BLOCK_ELEMS
    with mock.patch.object(en, "BLOCK_ELEMS", elems):
        blocks = list(en._pairs_within(en._time_major(orbits), I, J, n_values, R, r, s))
    step = elems // orbits.shape[2]
    assert all(kept.size and kept[0] // step == kept[-1] // step for kept, _ in blocks)
    at = np.concatenate([kept for kept, _ in blocks]) if blocks else np.empty(0, dtype=np.intp)
    assert at.tolist() == np.flatnonzero(D[0] <= R).tolist()
    for kept, levels in blocks:
        assert len(levels) <= len(D)
        within = np.arange(kept.size)
        for k, Dn in enumerate(D):
            if k:
                within = np.flatnonzero(D[k - 1][kept] <= r)
            if k == len(levels):
                assert within.size == 0
                break
            got_at, got = levels[k]
            assert got_at.tolist() == within.tolist()
            assert got.tobytes() == Dn[kept][within].tobytes()


def test_unpruned_line_matches_witness_scan():
    # every pair of 800 points lies within eps = 10 and no key prunes them
    K = sample_of(np.linspace(0, 1, 800))
    assert sn_table(IDENTITY_1D, K, [1, 2], [10.0], L2).s(1, 10.0) == 1
    table = sn_table(IDENTITY_1D, K, [1, 2], [10.0, 0.01], L2)
    assert table.s(1, 10.0) == 1
    assert table.s(2, 0.01) == len(greedy_separated(IDENTITY_1D, K, 2, 0.01, L2))
    for eps_values in ((10.0,), (10.0, 0.01)):
        assert_pair_path_matches_scan(IDENTITY_1D, K, (1, 2), eps_values, L2)


def test_one_and_many_eps_columns_match_witness_scan():
    # the N=4, depth-5 cube with one eps column and with three
    K = cube_sample(4, 5, ConstRule(2), base=LINF)
    for eps_values in ((0.4,), (0.4, 0.2, 0.1)):
        assert_pair_path_matches_scan(BackwardShift(ConstRule(2)), K, tuple(range(1, 7)), eps_values, LINF)


def test_rotated_grid_matches_witness_scan():
    # a rotation is an isometry: the pairs of the grid within eps = 0.5 never drop
    K = grid_sample(L2, (32, 32))
    assert_pair_path_matches_scan(rotation_matrix(0.7), K, tuple(range(1, 13)), (0.5,), L2)


def test_reach_prunes_candidate_rows(monkeypatch):
    # a row marked in every cell gets no candidates, and a row's pairs beyond
    # its reach (the largest eps of a column where it is unmarked at some n)
    # are not carried.  Row 0 of the line within eps = 10 marks every other
    # row at once; only the rows of row 0's block of candidates (16,384 with
    # both directions at dim 1) evaluate pairs: 15,790 of all 319,600
    K = sample_of(np.linspace(0, 1, 800))
    assert pass_work(monkeypatch, IDENTITY_1D, K, (1, 2), (10.0,), L2) == (15_790, 15_790)
    # no key prunes the rotated 32x32 grid at eps = 0.5: 523,776 pairs before
    # the marks steer the candidates, 82,233 when each block's reach was read
    # before the block ahead of it was swept
    T, K = rotation_matrix(0.7), grid_sample(L2, (32, 32))
    assert pass_work(monkeypatch, T, K, (1, 2, 3, 4), (0.5,), L2)[0] == 40_089
    # 0.01 lies below the grid spacing, so every row stays live in that
    # column, and only the reach of 0.01 keeps the marked rows' pairs out of
    # the carry: 14,046 of the 240,342 pairs within 0.5 (31,575 with the
    # staler reach)
    assert pass_work(monkeypatch, T, K, (1, 2, 3, 4), (0.5, 0.01), L2) == (523_776, 14_046)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(KERNEL_SPACES),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from([1, 2, 24, 63, 64, 65, 91]),
)
@example(7, L2, 2, True, 1)
@example(8, LINF, 1, False, 2)
@example(9, FAggregate(L2), 2, False, 63)
@example(10, L1, 3, True, 64)
@example(11, L3, 2, True, 65)
def test_conflict_masks_match_per_row_graph(seed, s, dim, rotate, count):
    # 65 and 91 rows need a second 64-bit word per mask; 63 and 64 fill one
    T, K = kernel_sample(seed, dim, 200, dyadic=seed % 2 == 0, rotate=rotate)
    K = rows_of(K, count)
    orbits = en._sample_orbits(T, K, 9)
    eps_values = (0.125, 0.25, 0.5)
    for n_values in ((1, 2, 3), (2, 5, 9)):
        graphs = en._conflict_graphs(orbits, n_values, eps_values, s)
        for n, cells in zip(n_values, graphs):
            for eps, masks in zip(eps_values, cells):
                assert masks == old_conflict_masks(orbits[:, :n], eps, s)


def test_kept_rows_decode_every_bit_across_the_word_boundary():
    # each cell's kept rows are the dense path's chosen set, as its mask,
    # around the 64-row word boundary and for both methods
    T = Diagonal(ExplicitRule((2.0,)))
    for count in (63, 64, 65):
        orbits = en._sample_orbits(T, sample_of(np.arange(count) * 0.25), 2)
        n_values, eps_values = (1, 2), (0.6, 0.25)
        graphs = en._conflict_graphs(orbits, n_values, eps_values, L2)
        for method, search in (("exact", en._max_independent_set), ("greedy", en._greedy_sweep)):
            kept = en._kept_rows(orbits, n_values, eps_values, L2, method)
            assert kept == [[search(masks) for masks in cells] for cells in graphs]
            masks = [mask for cells in kept for mask in cells]
            assert any(mask >> count - 1 & 1 for mask in masks)
            assert not all(mask == (1 << count) - 1 for mask in masks)


@pytest.mark.parametrize("count", [63, 64, 65, 91, 92])
def test_oracle_answers_match_brute_force_sets_at_word_boundaries(count, monkeypatch):
    # clusters of 1-5 points on a line, 4 apart: under doubling no pair of
    # clusters comes within eps at n <= 2, so the maximum set is the union
    # of the clusters' own, each found by trying every subset.  The exact
    # cap is lifted so the public oracle reaches the second and third
    # 64-bit words; 92 rows take the carried pass for greedy counts
    monkeypatch.setattr(en, "EXACT_SAMPLE_CAP", count)
    rng = np.random.default_rng(count)
    sizes = []
    while sum(sizes) < count - 1:
        sizes.append(min(int(rng.integers(1, 6)), count - 1 - sum(sizes)))
    sizes.append(1)  # the last row is kept by every set: the top bit is read
    starts = np.cumsum([0] + sizes)
    values = np.concatenate([4.0 * c + np.sort(rng.choice(24, k, replace=False)) / 40 for c, k in enumerate(sizes)])
    K = sample_of(values)
    n_values, eps_values = (1, 2), (0.3, 0.15)
    orbits = en._sample_orbits(DOUBLING_1D, K, 2)
    greedy = sn_table(DOUBLING_1D, K, n_values, eps_values, L2)
    exact = sn_table(DOUBLING_1D, K, n_values, eps_values, L2, method="exact")
    for n in n_values:
        for e in eps_values:
            best = 0
            for a, b in zip(starts, starts[1:]):
                best |= brute_force_independent_set(old_conflict_masks(orbits[a:b, :n], e, L2)) << int(a)
            rows = witness_scan(orbits[:, :n], e, L2)
            assert greedy.s(n, e) == len(rows) and exact.s(n, e) == best.bit_count()
            assert greedy_separated(DOUBLING_1D, K, n, e, L2) == [K.points[i] for i in rows]
            chosen = [i for i in range(count) if best >> i & 1]
            assert max_separated_exact(DOUBLING_1D, K, n, e, L2) == [K.points[i] for i in chosen]
            assert rows[-1] == chosen[-1] == count - 1
    if count > 91:  # the carried pass's masks are the witness scan's sets
        assert_pair_path_matches_scan(DOUBLING_1D, K, n_values, eps_values, L2)


def test_dense_path_size_rule(monkeypatch):
    # a table takes every conflict graph at once exactly when its pairs fit
    # one block, and then never hashes or carries pairs
    taken = []
    graphs = en._conflict_graphs
    monkeypatch.setattr(en, "_conflict_graphs", lambda *a: taken.append(a[0].shape[0]) or graphs(*a))
    for count in (24, 91, 92):
        K = sample_of(np.arange(count) * 0.25)
        assert sn_table(IDENTITY_1D, K, [1, 2], [0.25], L2).s(2, 0.25) == (count + 1) // 2
    assert taken == [24, 91]

    def refuse(*args):
        raise AssertionError("the dense path hashes or carries pairs")

    monkeypatch.setattr(en, "_plan_keys", refuse)
    monkeypatch.setattr(en, "_carried_pairs", refuse)
    K = sample_of(np.arange(91) * 0.25)
    assert sn_table(IDENTITY_1D, K, [1, 2], [0.25], L2).s(2, 0.25) == 46
    K = sample_of(np.arange(24) * 0.25)
    assert sn_table(IDENTITY_1D, K, [1, 2], [0.25], L2, method="exact").s(2, 0.25) == 12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SPACES), st.integers(1, 3), st.booleans())
def test_exact_tables_match_brute_force_sets(seed, s, dim, rotate):
    # 12 rows: every subset can be tried
    T, K = kernel_sample(seed, dim, 200, dyadic=seed % 2 == 0, rotate=rotate)
    K = rows_of(K, 12)
    n_values, eps_values = (2, 5, 9), (0.5, 0.25, 0.125)
    orbits = en._sample_orbits(T, K, 9)
    kept = en._kept_rows(orbits, n_values, eps_values, s, "exact")
    for n, cells in zip(n_values, kept):
        for e, mask in zip(eps_values, cells):
            assert mask == brute_force_independent_set(old_conflict_masks(orbits[:, :n], e, s))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([FAggregate(L2), FAggregate(LINF)]))
def test_filter_keys_keep_every_close_pair(seed, s):
    # dim 8 under the aggregated norm: few coordinates give keys, so every
    # usable key also filters the hashed candidates
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(0, 8, size=(150, 8)) / 4.0, axis=0)
    K = CompactSample(tuple(vector(p) for p in pts), 0.1)
    B = BackwardShift(ConstRule(2))
    orbits = en._sample_orbits(B, K, 3)
    (hashed, filters), _ = en._plan_keys(orbits, 3, 0.3, s)
    assert hashed.shape[1] >= 1 and filters.shape[1] >= 1
    assert_pair_path_matches_scan(B, K, (1, 3), (0.3, 0.2), s)


def carried_sample(kind, seed):
    """Random cubes of 2..4 symbols (about 200 rows, so keys hash), a
    rotation of the square (an isometry: no pair ever drops), the same with
    an eps column of 0.01 beside 0.5 (rows marked in the 0.5 column stay
    live only in the other), and random points under a diagonal or scaled
    rotation."""
    if kind.startswith("cube"):
        N = int(kind[-1])
        depth = {2: 9, 3: 6, 4: 5}[N]
        K = cube_sample(N, depth, ConstRule(2), base=LINF, count=200, seed=seed)
        return BackwardShift(ConstRule(2)), K, (0.4, 0.2, 0.1)
    if kind in ("rotation", "mixed"):
        pts = np.unique(np.random.default_rng(seed).random((150, 2)), axis=0)
        K = CompactSample(tuple(vector(p) for p in pts), 0.1)
        return rotation_matrix(0.7), K, (0.5, 0.25, 0.125) if kind == "rotation" else (0.5, 0.01)
    T, K = kernel_sample(seed, 1 + seed % 3, 140, dyadic=seed % 2 == 0, rotate=True)
    return T, K, (0.5, 0.25, 0.125)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(KERNEL_SPACES),
    st.sampled_from(["cube2", "cube3", "cube4", "rotation", "mixed", "random"]),
    st.sampled_from([(1, 2, 3, 4), (2, 5, 9), (3, 4, 7)]),
)
def test_carried_pass_matches_witness_scan(seed, s, kind, n_values):
    T, K, eps_values = carried_sample(kind, seed)
    assert_pair_path_matches_scan(T, K, n_values, eps_values, s)


def assert_pairs_match_brute_force(orbits, n_values, r, s):
    """`near_pairs` at every n of the ascending `n_values`, and the carried
    pass over them, yield exactly the pairs i < j within r of a scan over
    every pair, with its distances bit for bit; returns the scan's pairs
    per n, as {(i, j): distance}."""
    I, J = np.triu_indices(orbits.shape[0], 1)
    plan, _ = en._plan_keys(orbits, n_values[0], r, s)
    carried = [{} for _ in n_values]
    for bi, bj, levels in en._carried_pairs(orbits, n_values, r, s, plan):
        for k, (at, bd) in enumerate(levels):
            near = at[bd <= r]
            carried[k].update(zip(zip(bi[near].tolist(), bj[near].tolist()), bd[bd <= r].tolist()))
    refs = []
    for k, n in enumerate(n_values):
        d = en.bowen_distances(orbits, I, J, n, s)
        near = d <= r
        refs.append(dict(zip(zip(I[near].tolist(), J[near].tolist()), d[near].tolist())))
        got = {}
        for bi, bj, bd in en.near_pairs(orbits, n, r, s):
            got.update(zip(zip(bi.tolist(), bj.tolist()), bd.tolist()))
        assert got == refs[k] and carried[k] == refs[k]  # bit for bit
    return refs


def test_carried_distances_match_bowen_on_redo_rows():
    # rows that norm_block recomputes scaled: 1e-200 coordinates in l^3
    # (their cubes underflow) and a 1e-4 first coordinate under
    # FAggregate(Lp(100)) (its partial power sum underflows)
    rng = np.random.default_rng(8)
    cases = [
        (L3, rng.integers(0, 4, size=(150, 5, 3)) * 1e-200, 2.5e-200),
        (FAggregate(Lp(100.0)), rng.integers(0, 3, size=(150, 5, 2)) * np.array([1e-4, 0.5]), 0.2),
    ]
    for s, orbits, r in cases:
        refs = assert_pairs_match_brute_force(orbits, (1, 2, 4, 5), r, s)
        assert all(refs)
    assert float(norm_block(np.array([[1e-4, 0.5]]), FAggregate(Lp(100.0)))[0]) in refs[0].values()


def quotient_preimages(u, width):
    """Key values x with x / width == u in floating point, found by stepping
    one ulp at a time from u * width."""
    x = u * width
    for _ in range(8):
        q = x / width
        x = np.where(q < u, np.nextafter(x, np.inf), np.where(q > u, np.nextafter(x, -np.inf), x))
    assert (x / width == u).all()
    return x


def test_key_gaps_at_cell_width_edges():
    # the first key's quotients (value / cell width) form four clusters of 30
    # rows, split by gaps of one ulp below a cell width, exactly one and one
    # ulp above it; only the last gap is wider than a cell, so only it
    # separates its neighbours by two cells.  Four more rows follow, each
    # just within r of the next, their quotients almost 1 apart.  Every near
    # pair is found under l^2, l^inf, the aggregated norm's coefficient key
    # (coordinate 1, coefficient 3/4) and its saturated key (width 1).
    ulp = 2.0**-52
    low, high = -0.5 - ulp / 2, 1.875 + ulp
    u = np.concatenate(
        [np.linspace(a, b, 30) for a, b in ((-1.9, -1.5), (low, -0.25), (0.75, 0.875), (high, 1.99))]
    )
    edges = [(29, 30), (59, 60), (89, 90)]
    assert [u[j] - u[i] for i, j in edges] == [1 - ulp / 2, 1.0, 1 + ulp]
    m = en.KEY_MARGIN
    cases = [
        (L2, 0.25, 0.25 * (1 + m), 0.25),
        (LINF, 0.25, 0.25 * (1 + m), 0.25),
        (FAggregate(L2), 0.1875, 0.1875 * (1 + m) / 0.75, 0.25),
        (FAggregate(LINF), float(np.nextafter(0.75, 0)), 1 + m, 1 - 2.0**-10),  # 0.75 saturates dim 2
    ]
    tail = np.arange(u.size, u.size + 4)
    for s, r, width, step in cases:
        orbits = np.zeros((tail[-1] + 1, 3, 2))
        orbits[:, :, 0] = np.append(quotient_preimages(u, width), 4 + step * np.arange(4))[:, None]
        orbits[:, :, 0] *= [1, 2, 4]
        orbits[: u.size, :, 1] = (np.arange(u.size) % 3)[:, None] * 0.0625
        cells, usable = en._key_cells(orbits[:, :1], 2, r, s)
        assert usable[0] and [cells[j, 0] - cells[i, 0] for i, j in edges] == [1, 1, 2]
        assert en._plan_keys(orbits, 1, r, s)[0][0].shape[1] >= 1  # rows are hashed
        refs = assert_pairs_match_brute_force(orbits, (1, 2, 3), r, s)
        assert all((i, i + 1) in refs[0] for i in tail[:-1].tolist())


def test_key_quotients_beyond_float_range_void_the_key():
    # a cell 1e-300 wide against values near 1e10: the quotients overflow,
    # which voids the key without a RuntimeWarning, and every point stays
    # separated
    K = CompactSample(np.linspace(1e10, 2e10, 200)[:, None], 0.1)
    table = sn_table(Diagonal(ExplicitRule((1.0,))), K, [1, 2], [1e-300], Lp(2.0))
    assert table.s(1, 1e-300) == table.s(2, 1e-300) == 200


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SPACES), st.integers(1, 3))
def test_clustered_keys_keep_every_close_pair(seed, s, dim):
    # cluster centres more than r apart in every coordinate, points jittered
    # inside each cluster: value gaps wider than a cell between some
    # clusters, none inside them
    rng = np.random.default_rng(seed)
    r = 0.25
    clusters = int(rng.integers(2, 7))
    centres = np.cumsum(r * (1 + rng.exponential(size=(clusters, dim))), axis=0)
    half = r * rng.choice([0.125, 0.25, 0.5])
    pts = centres[rng.integers(0, clusters, 150)] + rng.uniform(-half, half, (150, dim))
    T = Diagonal(ExplicitRule(tuple(float(v) for v in rng.choice([0.5, 1.0, 2.0], dim))))
    orbits = en._sample_orbits(T, CompactSample(pts, 0.1), 3)
    assert_pairs_match_brute_force(orbits, (1, 2, 3), r, s)


def test_gap_numbering_halves_the_cube_candidates():
    # the N=3 cube's first coordinate takes the values 0, 1/2 and 1: at
    # r = 0.4 they are 1.25 cells apart, so they get cells 0, 2 and 4 and
    # only rows with equal first symbols stay candidates, 3 * C(3^(depth-1), 2)
    # (without the gaps, cells 0, 1 and 2: 1,858,950 and 16,737,111)
    B = BackwardShift(ConstRule(2))
    for depth, predicted in ((7, 796_068), (8, 7_171_173)):
        orbits = en._sample_orbits(B, cube_sample(3, depth, ConstRule(2), base=LINF), 1)
        assert en._plan_keys(orbits, 1, 0.4, LINF)[1] == predicted
    # dense values have no gap wider than a cell: cells stay floor(u) - min
    x = np.linspace(-4.0, -3.0, 2048)
    cells, usable = en._key_cells(x[:, None, None], 1, 2.0**-3, L2)
    q = np.floor(x / (2.0**-3 * (1 + en.KEY_MARGIN)))
    assert usable.all() and (cells[:, 0] == q - q.min()).all()


def test_carried_pass_small_blocks(monkeypatch):
    # carried blocks of at most 100 pairs, from candidate blocks of 200 with
    # both directions: many blocks per n, rows with more than 100 close pairs
    # straddling blocks
    monkeypatch.setattr(en, "PAIR_BLOCK", 50)
    for kind, seed, s in (("cube3", 1, LINF), ("rotation", 2, L2), ("random", 3, FAggregate(L2))):
        T, K, eps_values = carried_sample(kind, seed)
        assert_pair_path_matches_scan(T, K, (1, 2, 5, 6), eps_values, s)


@pytest.mark.parametrize("s", [L2, LINF, FAggregate(L2)])
def test_carried_pass_more_than_64_cells(s):
    # 13 n by 5 eps: every row's hits and marks take two 64-bit words
    for seed, rotate in ((4, True), (5, False)):
        T, K = kernel_sample(seed, 2, 200, dyadic=seed % 2 == 0, rotate=rotate)
        assert_pair_path_matches_scan(T, rows_of(K, 150), tuple(range(1, 14)), (0.5, 0.25, 0.125, 0.1, 0.0625), s)


def test_carried_rows_straddle_blocks():
    # at dim 8 the kernel takes distances and carries pairs 8,192 at a time:
    # nearly every pair of 300 points lies within 0.9 at a first n of 40
    # and, under a diagonal that does not expand, stays there, so a block
    # of 16,384 candidates counted both ways carries more than 8,192 pairs
    # and its rows' pairs straddle the kernel's chunks
    assert en.BLOCK_ELEMS // 8 == 8192
    rng = np.random.default_rng(6)
    K = CompactSample(rng.random((300, 8)), 0.1)
    T = Diagonal(ExplicitRule((1.0, 0.5) * 4))
    orbits = en._sample_orbits(T, K, 43)
    plan, _ = en._plan_keys(orbits, 40, 0.9, LINF)
    blocks = [I for I, _, _ in en._carried_pairs(orbits, (40, 41, 43), 0.9, LINF, plan)]
    assert len(blocks) > 2 and all(b.size <= 8192 for b in blocks)
    assert any(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert_pair_path_matches_scan(T, K, (40, 41, 43), (0.9, 0.75, 0.6), LINF)


def test_carried_pass_past_the_last_pair():
    # diag(2) on 200 grid points 1/199 apart: no pair is within 0.125 from
    # n = 6 on (32/199 > 0.125), so every block's levels stop early and the
    # later cells keep every row
    K = sample_of(np.linspace(0, 1, 200))
    orbits = en._sample_orbits(DOUBLING_1D, K, 8)
    n_values = tuple(range(1, 9))
    plan, _ = en._plan_keys(orbits, 1, 0.125, L2)
    levels = [len(lv) for _, _, lv in en._carried_pairs(orbits, n_values, 0.125, L2, plan)]
    assert levels and max(levels) <= 6
    assert_pair_path_matches_scan(DOUBLING_1D, K, n_values, (0.125, 0.0625, 0.03125), L2)
    table = sn_table(DOUBLING_1D, K, n_values, (0.125, 0.0625, 0.03125), L2)
    assert [table.s(n, 0.125) for n in (6, 7, 8)] == [200] * 3


def entry_work(monkeypatch, T, K, n_values, eps_values, s):
    """The key plans a greedy table's carried pass builds, and the rows that
    enter it at n_values[1] (marked in every cell at n_values[0] when their
    block is read)."""
    plans, late = [], set()
    plan_keys, blocks = en._plan_keys, en._candidate_blocks

    def entering(cells, reach, size):
        def read(row, stop):  # a row entering at n_values[1] does so at every later read
            radii, entry = reach(row, stop)
            late.update((row + np.flatnonzero(entry)).tolist())
            return radii, entry

        return blocks(cells, read, size)

    with monkeypatch.context() as m:
        m.setattr(en, "_plan_keys", lambda o, n, *a: plans.append(n) or plan_keys(o, n, *a))
        m.setattr(en, "_candidate_blocks", entering)
        sn_table(T, K, n_values, eps_values, s)
    return plans, late


ENTRY_TABLES = {  # most rows die at n_values[0]
    "diag(2) line": (DOUBLING_1D, np.linspace(0, 1, 300), (0.125, 0.0625), L2),
    "N=3 cube": (BackwardShift(ConstRule(2)), None, (0.4, 0.2, 0.1), LINF),
    "diag(2,3) grid": (Diagonal(ExplicitRule((2.0, 3.0))), (24, 24), (0.125,), LINF),
}


@pytest.mark.parametrize("name", sorted(ENTRY_TABLES))
@pytest.mark.parametrize("n_values", [(1, 2, 3, 4, 5), (1, 3, 6), (2,)])
@pytest.mark.parametrize("small_blocks", [False, True])
def test_entry_levels_match_witness_scan(monkeypatch, name, n_values, small_blocks):
    # rows marked in every cell at the first n when their block is read take
    # their candidates from the plan at the second n (n = 3 for the skipped
    # n values 1, 3, 6); a one-level table never builds a second plan.
    # Blocks of 200 candidates (counted both ways) read the marks more often
    T, points, eps_values, s = ENTRY_TABLES[name]
    if points is None:
        K = cube_sample(3, 6, ConstRule(2), base=LINF)
    elif isinstance(points, tuple):
        K = grid_sample(s, points)
    else:
        K = sample_of(points)
    if small_blocks:
        monkeypatch.setattr(en, "PAIR_BLOCK", 50)
    plans, late = entry_work(monkeypatch, T, K, n_values, eps_values, s)
    if len(n_values) == 1:
        assert plans == list(n_values) and not late
    else:
        assert plans == list(n_values[:2]) and late
    assert_pair_path_matches_scan(T, K, n_values, eps_values, s)


def test_no_entry_level_builds_one_plan(monkeypatch):
    # 0.01 lies below the grid spacing: every row stays unmarked in that
    # column at n = 1, so every row enters there and one plan serves
    T, K = rotation_matrix(0.7), grid_sample(L2, (24, 24))
    assert entry_work(monkeypatch, T, K, (1, 2, 3, 4), (0.5, 0.01), L2) == ([1], set())
    assert_pair_path_matches_scan(T, K, (1, 2, 3, 4), (0.5, 0.01), L2)


def test_entry_level_needs_every_column_marked(monkeypatch):
    # 120 points 0.04 apart under diag(16): at n = 2 no pair lies within 0.5,
    # so the plan there has no candidates.  The 60 even rows are kept in the
    # 0.05 column at n = 1, and 55 of them are excluded in the 0.5 column
    # (which keeps every 13th row): live at n = 1 in one column only, they
    # enter there and mark the odd row after them.  Sent to n = 2, they
    # would mark nothing at n = 1
    monkeypatch.setattr(en, "PAIR_BLOCK", 50)
    T, K = Diagonal(ExplicitRule((16.0,))), sample_of(np.arange(120) * 0.04)
    orbits = en._sample_orbits(T, K, 1)
    one_column = sorted(set(witness_scan(orbits, 0.05, L2)) - set(witness_scan(orbits, 0.5, L2)))
    assert len(one_column) == 55
    assert_pair_path_matches_scan(T, K, (1, 2), (0.5, 0.05), L2)
    assert sn_table(T, K, (1, 2), (0.5, 0.05), L2).s(1, 0.05) == 60
    carried = en._carried_pairs

    def sent_to_n1(*args):
        def reach(row, stop):
            radii, entry = args[-1](row, stop)
            return radii, entry | np.isin(np.arange(row, stop), one_column)

        return carried(*args[:-1], reach)

    monkeypatch.setattr(en, "_carried_pairs", sent_to_n1)
    assert sn_table(T, K, (1, 2), (0.5, 0.05), L2).s(1, 0.05) > 60


# ---------------------------------------------------------------- maximum independent set


def old_max_independent_set(masks):
    """The include-first branch-and-bound on the lowest vertex, bounded by
    the current size plus the candidates left."""
    best_mask = 0

    def recurse(cand, cur, cur_mask):
        nonlocal best_mask
        if cur + cand.bit_count() <= best_mask.bit_count():
            return
        if cand == 0:
            if cur > best_mask.bit_count():
                best_mask = cur_mask
            return
        v = (cand & -cand).bit_length() - 1
        recurse(cand & ~masks[v] & ~(1 << v), cur + 1, cur_mask | (1 << v))
        recurse(cand & ~(1 << v), cur, cur_mask)

    recurse((1 << len(masks)) - 1, 0, 0)
    return best_mask


def graph_masks(count, edges):
    masks = [0] * count
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def brute_force_independent_set(masks):
    """Every vertex subset: the largest independent one, ties to the
    lexicographically greatest with vertex 0 first."""
    count = len(masks)
    independent = (
        m for m in range(1 << count)
        if all(not (masks[v] & m) for v in range(count) if m >> v & 1)
    )
    return max(independent, key=lambda m: (m.bit_count(), [m >> v & 1 for v in range(count)]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_independent_set_matches_brute_force(count, p, seed):
    rng = np.random.default_rng(seed)
    pairs = itertools.combinations(range(count), 2)
    masks = graph_masks(count, [e for e in pairs if rng.random() < p])
    got = en._max_independent_set(masks)
    assert got == brute_force_independent_set(masks) == old_max_independent_set(masks)


def test_independent_set_adversarial_graphs():
    # the shapes that drove the old search deep: perfect matchings, where
    # every branch ties, and long sparse chains
    n = 24
    family = {
        "matching i, i+12": [(i, i + 12) for i in range(12)],
        "matching 2i, 2i+1": [(2 * i, 2 * i + 1) for i in range(12)],
        "path": [(i, i + 1) for i in range(n - 1)],
        "cycle": [(i, (i + 1) % n) for i in range(n)],
        "band": [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 4))],
        "empty": [],
        "complete": list(itertools.combinations(range(n), 2)),
    }
    for name, edges in family.items():
        masks = graph_masks(n, edges)
        assert (name, en._max_independent_set(masks)) == (name, old_max_independent_set(masks))
