import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab.entropy import dyn_distance, sn_table
from entrolab.errors import NonFiniteOrbitError, ScheduleError, ValidationError
from entrolab.operators import BackwardShift, apply, diagonal_matrix, rotation_matrix
from entrolab.rules import ConstRule
from entrolab.spaces import FAggregate, Lp, Vector, padded_block, vector, zero_vector
from entrolab.specification import (
    SegmentSchedule,
    fixed_vector,
    linear_periodic_points,
    periodic_vector,
    shadow_point,
    sp_constant,
    sp_entropy_lower_bound,
    sp_separated_family,
)
from entrolab import specification as spec
from entrolab.specification import _family_shadows

B2 = BackwardShift(ConstRule(2))
FA = FAggregate(Lp(2.0))


# ---------------------------------------------------------------- sp_constant


def test_sp_constant_tenth():
    assert sp_constant(0.1) == 4  # 2^-4 = 0.0625 < 0.1 <= 2^-3


def test_sp_constant_one():
    assert sp_constant(1.0) == 1


def test_sp_constant_dyadic_strict():
    assert sp_constant(2.0**-10) == 11


def test_sp_constant_domain():
    with pytest.raises(ValidationError):
        sp_constant(0.0)
    with pytest.raises(ValidationError):
        sp_constant(1.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1.0, exclude_min=False))
def test_sp_constant_tight(eps):
    N = sp_constant(eps)
    assert 2.0**-N < eps
    assert N == 1 or 2.0 ** -(N - 1) >= eps


# ---------------------------------------------------------------- schedules


def test_schedule_gap_enforced():
    y = vector([1.0])
    SegmentSchedule(((0, 1, y), (5, 6, y)), gap=4)
    with pytest.raises(ScheduleError):
        SegmentSchedule(((0, 1, y), (4, 6, y)), gap=4)


def test_schedule_ordering():
    y = vector([1.0])
    with pytest.raises(ScheduleError):
        SegmentSchedule(((3, 2, y),), gap=2)


# ---------------------------------------------------------------- shadowing


def test_shadow_single_segment_certified():
    eps = 0.1
    sched = SegmentSchedule(((0, 1, vector([1, 1])),), sp_constant(eps))
    rep = shadow_point(B2, sched, eps)
    assert rep.certified and rep.periodicity_exact
    assert rep.period == 1 + 4
    for _, dev in rep.deviations:
        assert dev < 2.0**-4
        assert dev + rep.tail_bound < eps


def test_shadow_self_target_zero_deviation():
    # a point already periodic with the full period shadows itself exactly
    eps, N = 0.1, 4
    period = 2 + N
    y = periodic_vector(B2, head=(1.0, 0.5), dim=4 * period)
    sched = SegmentSchedule(((0, 2, y),), N)
    rep = shadow_point(B2, sched, eps, dim=4 * period)
    assert rep.certified
    assert all(dev == 0.0 for _, dev in rep.deviations)


def test_shadow_gap_boundary():
    eps = 0.1
    N = sp_constant(eps)
    y = vector([1.0])
    ok = SegmentSchedule(((0, 0, y), (N, N, y)), N)
    rep = shadow_point(B2, ok, eps)
    assert rep.certified
    with pytest.raises(ScheduleError):
        SegmentSchedule(((0, 0, y), (N - 1, N - 1, y)), N)


def test_shadow_periodicity_is_exact_not_approximate():
    eps = 0.01
    N = sp_constant(eps)
    y = vector([0.75, -0.5, 0.25])
    sched = SegmentSchedule(((0, 2, y),), N)
    rep = shadow_point(B2, sched, eps)
    assert rep.periodicity_exact
    # verify directly: B^period xi == xi on the representable window
    img = rep.xi
    for _ in range(rep.period):
        img = apply(B2, img)
    window = rep.xi.dim - rep.period
    assert np.array_equal(img.coords[:window], rep.xi.coords[:window])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_shadow_random_dyadic_schedules_certified(seed):
    rng = np.random.default_rng(seed)
    eps = float(rng.choice([0.1, 0.05, 0.02]))
    N = sp_constant(eps)
    segs = []
    at = int(rng.integers(0, 3))
    for _ in range(int(rng.integers(1, 4))):
        b = at + int(rng.integers(0, 3))
        y = vector(rng.integers(-8, 9, size=b + 2) / 16.0)
        segs.append((at, b, y))
        at = b + N + int(rng.integers(0, 3))
    rep = shadow_point(B2, SegmentSchedule(tuple(segs), N), eps)
    assert rep.certified and rep.periodicity_exact
    for _, dev in rep.deviations:
        assert dev + rep.tail_bound < eps


# the orbit overflows on purpose and ends in NonFiniteOrbitError
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_shadow_periodisation_overflow_raises():
    # the forward shift divides by the weights: 1e-300 overflows in one step
    sched = SegmentSchedule(((0, 0, vector([1.0])),), sp_constant(0.1))
    with pytest.raises(NonFiniteOrbitError):
        shadow_point(BackwardShift(ConstRule(1e-300)), sched, 0.1)


# ---------------------------------------------------------------- families


def test_family_two_anchors_cubed():
    x1 = fixed_vector(B2, 64)
    fam = sp_separated_family(B2, [zero_vector(64), x1], 3, 0.1)
    assert fam.family_size == 8
    assert len(fam.sample) == 8 + 2 - 1  # the all-zero shadow is the zero anchor
    assert fam.min_pairwise > 0.1


def test_family_single_anchor():
    x1 = fixed_vector(B2, 48)
    fam = sp_separated_family(B2, [x1], 2, 0.1)
    assert fam.family_size == 1


def test_family_three_anchors_pairwise_verified():
    x1 = fixed_vector(B2, 64)
    anchors = [zero_vector(64), x1, Vector(2 * x1.coords)]
    fam = sp_separated_family(B2, anchors, 2, 0.1)
    assert fam.family_size == 9
    pts = fam.sample.points
    steps = (2 - 1) * (fam.gap + 1) + 1
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert dyn_distance(B2, pts[i], pts[j], steps, FA) > 0.1


def test_family_collapses_anchor_equal_by_value():
    # the all-zero tuple's shadow is the zero anchor, whatever the sign of
    # its zeros
    x1 = fixed_vector(B2, 48)
    plain = sp_separated_family(B2, [zero_vector(48), x1], 2, 0.1)
    signed = sp_separated_family(B2, [Vector(np.full(48, -0.0)), x1], 2, 0.1)
    assert (plain.family_size, len(plain.sample)) == (4, 5)
    assert signed.sample.rows.tobytes() == plain.sample.rows.tobytes()
    assert (signed.family_size, signed.min_pairwise, signed.verification) == (
        plain.family_size, plain.min_pairwise, plain.verification)


def test_family_refuses_tuples_with_equal_shadows():
    # x1 and x1' differ only on coordinates 1..4, which segment 1 (time
    # N + 1 = 5, coordinates 6..9) never copies: tuples (c, 1) and (c, 2)
    # give byte-equal shadows, and collapsing them left s = 8 < 3^2
    x1 = fixed_vector(B2, 64)
    head = x1.coords.copy()
    head[:4] *= 3
    with pytest.raises(ValidationError, match=r"tuples \(0, 1\) and \(0, 2\)"):
        sp_separated_family(B2, [zero_vector(64), x1, Vector(head)], 2, 0.1)


def _spy_direct(monkeypatch):
    calls = []
    direct = spec._direct_min_pairwise

    def spy(space, orbits):
        calls.append(orbits.shape[0])
        return direct(space, orbits)

    monkeypatch.setattr(spec, "_direct_min_pairwise", spy)
    return calls


def test_family_certificate_bounds_direct_minimum(monkeypatch):
    x1 = fixed_vector(B2, 64)
    anchors = [zero_vector(64), x1, Vector(2 * x1.coords)]
    direct = sp_separated_family(B2, anchors, 2, 0.1)
    monkeypatch.setattr(spec, "DIRECT_VERIFY_CAP", 4)
    calls = _spy_direct(monkeypatch)
    cert = sp_separated_family(B2, anchors, 2, 0.1)
    assert (direct.verification, cert.verification, calls) == ("direct", "certificate", [])
    assert 0.1 < cert.min_pairwise <= direct.min_pairwise
    assert cert.sample.rows.tobytes() == direct.sample.rows.tobytes()


def test_family_certificate_falls_back_when_anchors_move(monkeypatch):
    # a 2-periodic anchor drifts as far as the anchors are apart, so the
    # global bound fails and the certificate takes the direct minimum
    anchors = [zero_vector(64), periodic_vector(B2, (1.0, 0.0), 64)]
    direct = sp_separated_family(B2, anchors, 2, 0.1)
    monkeypatch.setattr(spec, "DIRECT_VERIFY_CAP", 4)
    calls = _spy_direct(monkeypatch)
    cert = sp_separated_family(B2, anchors, 2, 0.1)
    assert (direct.verification, cert.verification, calls) == ("direct", "certificate", [5])
    assert cert.min_pairwise == direct.min_pairwise > 0.1


def test_family_close_anchors_rejected():
    x1 = fixed_vector(B2, 64)
    near = Vector(x1.coords * 1.0001)
    with pytest.raises(ValidationError):
        sp_separated_family(B2, [x1, near], 2, 0.1)


def test_family_counts_feed_entropy_table():
    x1 = fixed_vector(B2, 64)
    fam = sp_separated_family(B2, [zero_vector(64), x1], 2, 0.1)
    bowen = (2 - 1) * (fam.gap + 1)
    table = sn_table(B2, fam.sample, [bowen], [0.1], FA)
    assert table.s(bowen, 0.1) >= 2**2


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3)])
def test_family_slope_dominates_lower_bound(m, n):
    # the certified growth rate log(m)/(N+1) stays below the fitted slope
    # of the family's own count staircase, up to the 10% fit tolerance
    from entrolab.entropy import entropy_estimate

    eps = 0.1
    dim = max(64, 4 * ((n - 1) * (sp_constant(eps) + 1) + sp_constant(eps)))
    x1 = fixed_vector(B2, dim)
    anchors = [zero_vector(dim)] + [Vector(j * x1.coords) for j in range(1, m)]
    fam = sp_separated_family(B2, anchors, n, eps)
    bowen = (n - 1) * (fam.gap + 1)
    table = sn_table(B2, fam.sample, range(1, bowen + 1), [eps], FA)
    est = entropy_estimate(table)
    bound = sp_entropy_lower_bound(m, fam.gap, 1)
    assert bound <= est.h_estimate * 1.10 + 1e-12


def _anchor_family(B, m, n, k, eps=0.1):
    N = sp_constant(eps)
    times = tuple(k * i * (N + 1) for i in range(n))
    dim = max(64, 4 * (times[-1] + N))
    x1 = fixed_vector(B, dim)
    anchors = [zero_vector(dim)] + [Vector(j * x1.coords) for j in range(1, m)]
    return anchors, times, N, dim


def _tuple_shadows(B, anchors, times, N, eps, dim):
    for combo in itertools.product(range(len(anchors)), repeat=len(times)):
        segs = tuple((t, t, anchors[c]) for t, c in zip(times, combo))
        yield combo, shadow_point(B, SegmentSchedule(segs, N), eps, dim=dim)


@pytest.mark.parametrize("weight", [2, 3])
@pytest.mark.parametrize("m,n,k", [(2, 3, 1), (3, 2, 2), (4, 3, 1)])
def test_family_batch_matches_tuple_shadows(m, n, k, weight):
    # the batched family is the per-tuple shadows stacked, byte for byte;
    # weight 3 is not dyadic, so most of its shadows fail certification
    B = BackwardShift(ConstRule(weight))
    eps = 0.1
    anchors, times, N, dim = _anchor_family(B, m, n, k, eps)
    combos, xi, dev, certified = _family_shadows(B, padded_block(anchors, dim), times, N, eps, FA)
    expected = list(_tuple_shadows(B, anchors, times, N, eps, dim))
    assert [tuple(c) for c in combos] == [combo for combo, _ in expected]
    assert xi.tobytes() == np.stack([rep.xi.coords for _, rep in expected]).tobytes()
    assert dev.tolist() == [[d for _, d in rep.deviations] for _, rep in expected]
    assert certified.tolist() == [rep.certified for _, rep in expected]


def test_family_refuses_lp_space():
    x1 = fixed_vector(B2, 64)
    with pytest.raises(ValidationError, match="deviations are measured in the aggregated metric"):
        sp_separated_family(B2, [zero_vector(64), x1], 2, 0.1, space=Lp(2.0))
    # anchors closer than 3*epsilon: the space is refused before any distance
    close = Vector(1e-3 * x1.coords)
    with pytest.raises(ValidationError, match="deviations are measured in the aggregated metric"):
        sp_separated_family(B2, [zero_vector(64), close], 2, 0.1, space=Lp(2.0))


def test_family_names_first_uncertified_tuple():
    B3 = BackwardShift(ConstRule(3))
    anchors, times, N, dim = _anchor_family(B3, 3, 3, 1)
    first = next(c for c, rep in _tuple_shadows(B3, anchors, times, N, 0.1, dim) if not rep.certified)
    assert first == (0, 0, 1)
    with pytest.raises(ValidationError, match=r"shadow for tuple \(0, 0, 1\) failed certification"):
        sp_separated_family(B3, anchors, 3, 0.1)


# ---------------------------------------------------------------- lower bound


def test_lower_bound_values():
    assert sp_entropy_lower_bound(2, 4, 1) == math.log(2) / 5
    assert sp_entropy_lower_bound(2, 4, 2) == math.log(2) / 10
    assert sp_entropy_lower_bound(10, 4, 1) == math.log(10) / 5


def test_lower_bound_unbounded_in_m():
    vals = [sp_entropy_lower_bound(m, 4, 1) for m in (2, 10, 100, 1000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lower_bound_domain():
    with pytest.raises(ValidationError):
        sp_entropy_lower_bound(1, 4, 1)


# ---------------------------------------------------------------- periodic subspaces


def test_periodic_points_hyperbolic_trivial():
    for k in (1, 2, 5):
        assert linear_periodic_points(diagonal_matrix(2, 0.5), k).shape[1] == 0


def test_periodic_points_rotation_full():
    A = rotation_matrix(2 * math.pi / 5)
    assert linear_periodic_points(A, 5).shape[1] == 2
    assert linear_periodic_points(A, 3).shape[1] == 0


def test_periodic_points_absolute_floor():
    # A - I has norm 1e-12: below the absolute floor, so both directions
    # count as periodic, not just the one the relative threshold keeps
    assert linear_periodic_points(diagonal_matrix(1, 1 + 1e-12), 1).shape[1] == 2


def test_periodic_points_partial():
    A = diagonal_matrix(1, 3)
    basis = linear_periodic_points(A, 7)
    assert basis.shape[1] == 1
    # solves (A^7 - I) x = 0: the basis vector is e_1 up to phase
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-12
    assert abs(basis[1, 0]) < 1e-12


def test_fixed_vector_is_fixed_on_interior():
    x = fixed_vector(B2, 32)
    img = apply(B2, x)
    assert np.array_equal(img.coords[:31], x.coords[:31])
