import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_vs_brute_force_random(seed):
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


def test_sn_table_csv_shape():
    K = sample_of([0.0, 0.5, 1.0])
    table = sn_table(IDENTITY_1D, K, [1, 2], [0.25], L2)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "n,epsilon,s,method,saturated"
    assert len(lines) == 3


def test_sn_table_threads_identical():
    K = grid_sample(L2, (65,))
    kwargs = dict(n_range=range(1, 6), eps_list=[0.25, 0.125, 0.0625], s=L2)
    a = sn_table(DOUBLING_1D, K, **kwargs)
    b = sn_table(DOUBLING_1D, K, threads=3, **kwargs)
    assert a.entries == b.entries


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


def test_metric_uniformity_l2_vs_linf():
    T = Diagonal(ExplicitRule((2.0, 3.0)))
    K2 = grid_sample(L2, (64, 64))
    Kinf = grid_sample(LINF, (64, 64))
    ns, eps = range(1, 6), [2.0**-3]
    s2 = entropy_estimate(sn_table(T, K2, ns, eps, L2)).h_estimate
    sinf = entropy_estimate(sn_table(T, Kinf, ns, eps, LINF)).h_estimate
    assert abs(s2 - sinf) <= 0.10 * max(s2, sinf)


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


# ---------------------------------------------------------------- near-pair kernel

from entrolab import entropy as en  # noqa: E402
from entrolab.spaces import FAggregate, norm_block  # noqa: E402
from entrolab.symbolic import cube_sample  # noqa: E402

L3 = Lp(3.0)
KERNEL_SPACES = [L1, L2, L3, LINF, FAggregate(L2), FAggregate(LINF)]


def old_conflict_masks(orbits, eps, s):
    """The per-row conflict graph the all-pairs call replaced."""
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


def assert_pair_path_matches_scan(T, K, n_values, eps_values, s):
    """Every cell's count and kept rows from the pair sweep equal the
    witness scan's."""
    cache = en._OrbitCache(T, K)
    orbits = cache.view(max(n_values))
    plans = [plan for plan, _ in en._plan_keys(orbits, n_values, eps_values[0], s)]
    swept = en._swept_counts(cache, n_values, eps_values, s, plans)
    for n, plan in zip(n_values, plans):
        marked = en._sweep(cache.view(n), n, np.array(eps_values), s, plan)
        for e, row in zip(eps_values, marked):
            kept = en._greedy_indices(cache.view(n), e, s)
            assert np.flatnonzero(~row).tolist() == kept
            assert swept[e][n] == len(kept)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(KERNEL_SPACES),
    st.integers(1, 3),
    st.sampled_from([20, 140]),
    st.booleans(),
    st.booleans(),
)
def test_pair_sweep_matches_witness_scan(seed, s, dim, count, dyadic, rotate):
    T, K = kernel_sample(seed, dim, count, dyadic, rotate)
    assert_pair_path_matches_scan(T, K, (1, 2, 4), (0.5, 0.25, 0.125), s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SPACES), st.integers(1, 3), st.booleans())
def test_near_pairs_are_every_close_pair(seed, s, dim, dyadic):
    T, K = kernel_sample(seed, dim, 140, dyadic, rotate=True)
    orbits = en._OrbitCache(T, K).view(3)
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
    # point of the 0.25-spaced line is kept
    K = sample_of(np.arange(200) * 0.25)
    kept = greedy_separated(IDENTITY_1D, K, 1, 0.25, L2)
    assert [float(p.coords[0].real) for p in kept] == (np.arange(100) * 0.5).tolist()
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
    orbits = en._OrbitCache(T, K).view(2)
    for r in (1.0, 2.0):
        _, usable = en._key_cells(orbits, r, s)
        assert not usable.any()
        ((hashed, filters), pred), = en._plan_keys(orbits, (2,), r, s)
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
        _, usable = en._key_cells(orbits, float(np.nextafter(U, 0)), s)
        assert usable.tolist() == [True, True]
        r = float(np.nextafter(U, 0))
        got = {(int(i), int(j)) for bi, bj, _ in en.near_pairs(orbits, 2, r, s) for i, j in zip(bi, bj)}
        I, J = np.triu_indices(120, 1)
        d = en.bowen_distances(orbits, I, J, 2, s)
        assert got == {(int(i), int(j)) for i, j in zip(I[d <= r], J[d <= r])}


def test_witness_fallback_when_keys_do_not_prune():
    # every pair of 800 points lies within eps = 10: the 399.5 predicted
    # pairs per row and n exceed PAIRS_PER_EPS for each of the two eps, so
    # the table comes from the witness scan
    K = sample_of(np.linspace(0, 1, 800))
    cache = en._OrbitCache(IDENTITY_1D, K)
    assert en._pair_plans(cache.view(2), (1, 2), (10.0, 0.01), L2) is None
    table = sn_table(IDENTITY_1D, K, [1, 2], [10.0, 0.01], L2)
    assert table.s(1, 10.0) == 1
    assert table.s(2, 0.01) == len(greedy_separated(IDENTITY_1D, K, 2, 0.01, L2))


def test_pair_budget_scales_with_eps_count():
    # the N=4, depth-5 cube predicts about 220 candidates per row and n at
    # eps 0.4: above the budget of one eps column, within that of three
    K = cube_sample(4, 5, ConstRule(2), base=LINF)
    orbits = en._OrbitCache(BackwardShift(ConstRule(2)), K).view(6)
    n_values = tuple(range(1, 7))
    assert en._pair_plans(orbits, n_values, (0.4,), LINF) is None
    assert en._pair_plans(orbits, n_values, (0.4, 0.2, 0.1), LINF) is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KERNEL_SPACES), st.integers(1, 3), st.booleans())
def test_conflict_masks_match_per_row_graph(seed, s, dim, rotate):
    T, K = kernel_sample(seed, dim, 24, dyadic=seed % 2 == 0, rotate=rotate)
    orbits = en._OrbitCache(T, K).view(3)
    for eps in (0.125, 0.25, 0.5):
        assert en._conflict_masks(orbits, eps, s) == old_conflict_masks(orbits, eps, s)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([FAggregate(L2), FAggregate(LINF)]))
def test_filter_keys_keep_every_close_pair(seed, s):
    # dim 8 under the aggregated norm: few coordinates give keys, so every
    # usable key also filters the hashed candidates
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(0, 8, size=(150, 8)) / 4.0, axis=0)
    K = CompactSample(tuple(vector(p) for p in pts), 0.1)
    B = BackwardShift(ConstRule(2))
    orbits = en._OrbitCache(B, K).view(3)
    ((hashed, filters), _), = en._plan_keys(orbits, (3,), 0.3, s)
    assert hashed.shape[1] >= 1 and filters.shape[1] >= 1
    assert_pair_path_matches_scan(B, K, (1, 3), (0.3, 0.2), s)
