import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from entrolab.entropy import dyn_distance, sn_table
from entrolab.errors import NonFiniteOrbitError, ScheduleError, ValidationError
from entrolab.operators import (
    BackwardShift,
    OperatorPower,
    apply,
    diagonal_matrix,
    orbit_block,
    rotation_matrix,
)
from entrolab.rules import _RATIO_CAP, ConstRule, ExplicitRule, GeometricRule, weight_admissibility
from entrolab.spaces import FAggregate, Lp, Vector, basis_vector, norm_block, padded_block, vector, zero_vector
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


def test_family_refuses_tuples_with_equal_shadows(monkeypatch):
    # x1 and x1' differ only on coordinates 1..4, which segment 1 (time
    # N + 1 = 5, coordinates 6..9) never copies: tuples (c, 1) and (c, 2)
    # give byte-equal shadows, and collapsing them left s = 8 < 3^2.  Segment
    # i >= 1 copies coordinates from i(N+1)+1 on, where 0, e_1 and 2 e_1 all
    # vanish: the first twins are (0, .., 0) and (0, .., 0, 1).  Either
    # verification path refuses them.
    x1, e1 = fixed_vector(B2, 64), basis_vector(1, 64)
    head = x1.coords.copy()
    head[:4] *= 3
    cases = [
        ([zero_vector(64), x1, Vector(head)], 2, r"\(0, 1\) and \(0, 2\)"),
        ([zero_vector(64), e1, Vector(2 * e1.coords)], 2, r"\(0, 0\) and \(0, 1\)"),
        ([zero_vector(64), e1, Vector(2 * e1.coords)], 3, r"\(0, 0, 0\) and \(0, 0, 1\)"),
    ]
    for cap in (spec.DIRECT_VERIFY_CAP, 4):
        monkeypatch.setattr(spec, "DIRECT_VERIFY_CAP", cap)
        for anchors, n, twins in cases:
            with pytest.raises(ValidationError, match=f"tuples {twins} give the same shadow"):
                sp_separated_family(B2, anchors, n, 0.1)


def test_family_names_uncertified_tuple_before_equal_shadows():
    # both refusals apply: weight 3 leaves tuple (0, 1) uncertified, and
    # tuples (c, 1) and (c, 2) give equal shadows (see above); the
    # certification is judged first
    B3 = BackwardShift(ConstRule(3))
    x1 = fixed_vector(B3, 64)
    head = x1.coords.copy()
    head[:4] *= 3
    with pytest.raises(ValidationError, match=r"shadow for tuple \(0, 1\) failed certification"):
        sp_separated_family(B3, [zero_vector(64), x1, Vector(head)], 2, 0.1)


@pytest.mark.parametrize("cap", [spec.DIRECT_VERIFY_CAP, 4])
def test_family_grows_its_orbits_once(monkeypatch, cap):
    # on the direct path one orbit cube certifies the shadows and verifies
    # separation; on the certificate path the anchors are grown once, each
    # shadow once in the block pass, and then only the rows the anchor
    # query leaves uncleared: the shadows of (1, 1) and (2, 2) against
    # their own anchors, which they follow at every segment
    calls = []
    grow = spec.orbit_block

    def spy(T, block, steps):
        calls.append(block.shape[0])
        return grow(T, block, steps)

    monkeypatch.setattr(spec, "orbit_block", spy)
    monkeypatch.setattr(spec, "DIRECT_VERIFY_CAP", cap)
    x1 = fixed_vector(B2, 64)
    fam = sp_separated_family(B2, [zero_vector(64), x1, Vector(2 * x1.coords)], 2, 0.1)
    if cap > 4:
        assert fam.verification == "direct"
        assert calls == [len(fam.sample)] == [9 + 3 - 1]
    else:
        assert fam.verification == "certificate"
        assert calls == [3, fam.family_size, 2] == [3, 9, 2]


def test_family_block_pass_grows_each_shadow_once(monkeypatch):
    # the m = 13, n = 3 family (2,197 shadows, 11 steps, dim 64) is grown in
    # blocks of BLOCK_ELEMS // (steps * dim) = 93 rows, after its 13 anchors;
    # the anchor query then regrows the 12 constant tuples' shadows that are
    # not anchors, uncleared against their own anchors
    calls = []
    grow = spec.orbit_block
    monkeypatch.setattr(spec, "orbit_block", lambda T, b, s: calls.append(b.shape[0]) or grow(T, b, s))
    anchors, _, _, _ = _anchor_family(B2, 13, 3, 1)
    fam = sp_separated_family(B2, anchors, 3, 0.1)
    assert fam.verification == "certificate"
    assert calls == [13] + [93] * 23 + [58] + [12]
    assert sum(calls[1:-1]) == fam.family_size == 13**3


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
    # the one direct minimum is the anchors' separation (3 rows), not the family's
    assert (direct.verification, cert.verification, calls) == ("direct", "certificate", [3])
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
    # the anchors' separation (2 rows), then the family's 5 rows
    assert (direct.verification, cert.verification, calls) == ("direct", "certificate", [2, 5])
    assert cert.min_pairwise == direct.min_pairwise > 0.1


@pytest.mark.parametrize(
    "heads,n", [([(1.0, 0.0)], 3), ([(1.0, 0.0), (0.0, 1.0)], 3), ([(1.0, 0.0), (0.0, 1.0)], 2)]
)
def test_weak_certificate_fallback_matches_direct_scan(monkeypatch, heads, n):
    # 2-periodic anchors drift as far as they are apart, so the global bound
    # fails: the certificate path regrows the family's whole cube once, after
    # the anchors and the shadows' block pass, and its direct minimum is the
    # direct path's, or both refuse the family alike (the last case)
    anchors = [zero_vector(64)] + [periodic_vector(B2, head, 64) for head in heads]

    def build():
        try:
            fam = sp_separated_family(B2, anchors, n, 0.1)
        except ValidationError as exc:
            return str(exc), None
        return (fam.min_pairwise.hex(), fam.sample.rows.tobytes()), fam.verification

    direct = build()
    calls = []
    grow = spec.orbit_block
    monkeypatch.setattr(spec, "orbit_block", lambda T, b, s: calls.append(b.shape[0]) or grow(T, b, s))
    monkeypatch.setattr(spec, "DIRECT_VERIFY_CAP", 4)
    cert = build()
    m, F = len(anchors), len(anchors) ** n
    assert cert[0] == direct[0]
    if direct[1] is None:
        assert "family separation failed: min pairwise distance" in direct[0]
    else:
        assert (direct[1], cert[1]) == ("direct", "certificate")
    assert calls == [m, F, F + m - 1]


def test_certificate_family_build_memory():
    # the m = 13, n = 3 family (2,197 shadows, 11 steps, dim 64) is verified
    # without its 24.9 MB orbit cube: its build peaks at 7.3 MB of traced
    # allocations, against 32.1 MB with the cube
    anchors, _, _, _ = _anchor_family(B2, 13, 3, 1)
    sp_separated_family(B2, anchors, 3, 0.1)
    tracemalloc.start()
    try:
        fam = sp_separated_family(B2, anchors, 3, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.verification == "certificate"
    assert peak <= 12e6


@pytest.mark.parametrize("s", [Lp(2.0), Lp(math.inf), FA])
def test_direct_minimum_below_the_first_pair(s):
    # anchors 0, 0.9 x1 and 0.5 x1 (the aggregated norm saturates from x1
    # on): the family's first two rows are not its closest pair, so the
    # minimum comes from the near pairs strictly inside their distance, and
    # it equals an all-pairs scan bit for bit
    x1 = fixed_vector(B2, 64)
    anchors = [zero_vector(64), Vector(0.9 * x1.coords), Vector(0.5 * x1.coords)]
    fam = sp_separated_family(B2, anchors, 2, 0.1)
    orbits = orbit_block(B2, fam.sample.rows, fam.gap + 2)
    best = min(float(norm_block(orbits[i + 1 :] - orbits[i], s).max(axis=1).min()) for i in range(len(orbits) - 1))
    assert best < float(norm_block(orbits[1] - orbits[0], s).max())
    assert spec._direct_min_pairwise(s, orbits) == best
    assert fam.verification == "direct" and (s != FA or fam.min_pairwise == best)


def test_weight_admissibility_explicit_window():
    # the window test takes 1/|w| over the weights after the first, or over
    # the one weight of a single-value list; no float weight gives exactly
    # the cap 0.999, so weights one ulp apart take either side of it
    below, above = 1.0 / np.nextafter(1 / _RATIO_CAP, 2), 1.0 / np.nextafter(1 / _RATIO_CAP, 0)
    assert below < _RATIO_CAP < above
    cases = [
        (ExplicitRule((2.0, 0.0, 2.0)), False, math.inf, "zero weight"),
        (ExplicitRule((0.5, np.nextafter(1 / _RATIO_CAP, 2), 4.0)), True, below, "explicit list, window test"),
        (ExplicitRule((0.5, np.nextafter(1 / _RATIO_CAP, 0), 4.0)), False, above, "explicit list, window test"),
        (ExplicitRule((2.0,)), True, 0.5, "explicit list, window test"),
        (ExplicitRule((0.5,)), False, 2.0, "explicit list, window test"),
    ]
    for rule, admissible, q, note in cases:
        rep = weight_admissibility(rule)
        assert (rep.admissible, rep.ratio_bound, rep.window_only, rep.note) == (admissible, q, True, note)


def test_weight_admissibility_geometric_moduli():
    # |ratio| = 1: the weights keep the modulus |first|, decided exactly;
    # |ratio| < 1: the weights tend to 0 and the sums diverge
    cases = [
        (GeometricRule(-1.0, first=2.0), True, 0.5, "constant modulus, exact"),
        (GeometricRule(1j, first=0.5), False, 2.0, "constant modulus, exact"),
        (GeometricRule(1.0, first=1.0), False, 1.0, "constant modulus, exact"),
        (GeometricRule(0.5, first=3.0), False, math.inf, "|w_n| -> 0, sums diverge"),
        (GeometricRule(-0.9), False, math.inf, "|w_n| -> 0, sums diverge"),
    ]
    for rule, admissible, q, note in cases:
        rep = weight_admissibility(rule)
        assert (rep.admissible, rep.ratio_bound, rep.window_only, rep.note) == (admissible, q, False, note)
    with pytest.raises(ValidationError, match="failed certification"):
        sp_separated_family(BackwardShift(GeometricRule(0.5, first=3.0)), [zero_vector(64)], 1, 0.1)


def _certificate_args(rows, anchor_rows, tuples, gap, bound, eps):
    """The arguments of `_certificate_min_pairwise` for global bound `bound`:
    row r follows anchor tuples[r][i] at Bowen step i*(gap+1), within the
    distance of their orbits there, and grow records the rows it regrows
    (the returned list)."""
    tuples = np.array(tuples, dtype=np.intp)
    steps = (tuples.shape[1] - 1) * (gap + 1) + 1
    anchors = orbit_block(B2, rows[anchor_rows], steps)
    at = np.arange(tuples.shape[1]) * (gap + 1)
    dev = norm_block(orbit_block(B2, rows, steps)[:, at] - anchors[tuples, at], FA)
    regrown = []

    def grow(which):
        regrown.extend(np.arange(len(rows))[which].tolist())
        return orbit_block(B2, rows[which], steps)

    drift_max = float(norm_block(anchors - anchors[:, :1], FA).max())
    d_min_anchor = bound + 2.0 * float(dev.max()) + 2.0 * drift_max
    return (FA, tuples, dev, grow, anchors, anchor_rows, gap, d_min_anchor, eps), regrown


def _full_scan_certificate(rows, args):
    """The certificate of `args` with its anchors checked against every
    row, one full norm_block over the orbit cube per anchor: the reference
    for the anchor query.  Returns (global_bound, anchor minimum, result)."""
    _, _, dev, _, anchors, anchor_rows, _, d_min_anchor, _ = args
    orbits = orbit_block(B2, rows, anchors.shape[1])
    drift_max = float(norm_block(anchors - anchors[:, :1], FA).max())
    global_bound = d_min_anchor - 2.0 * float(dev.max()) - 2.0 * drift_max
    best = math.inf
    for r in anchor_rows:
        d = norm_block(orbits - orbits[r], FA).max(axis=1)
        d[r] = math.inf
        best = min(best, float(d.min()))
    return global_bound, best, min(global_bound, best)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_certificate_anchor_query_matches_full_scan(data):
    dim = data.draw(st.integers(3, 6), label="dim")
    coord = st.integers(-4, 4).map(lambda v: v / 4)
    rows = np.array(
        data.draw(st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=12, unique=True)), dtype=complex
    )
    n, gap = data.draw(st.integers(1, 3), label="n"), data.draw(st.integers(1, 2), label="gap")
    # every row an anchor following itself, so no deviation (and with n = 1
    # no drift): each row's clearing bound is the global bound itself; or
    # any anchors and tuples
    if data.draw(st.booleans(), label="rows are anchors"):
        anchor_rows, tuples = list(range(len(rows))), [[r] * n for r in range(len(rows))]
    else:
        anchor_rows = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=len(rows), unique=True))
        symbol = st.integers(0, len(anchor_rows) - 1)
        tuples = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=len(rows), max_size=len(rows)))
    bound = data.draw(st.floats(0.05, 1.5), label="bound")
    # when every row is its anchor at n = 1 the query is skipped, which
    # rests on d_min_anchor being the anchors' smallest distance, as the
    # family builder passes it: the bound is capped there
    own = n == 1 and all(anchor_rows[c] == r for r, (c,) in enumerate(tuples))
    if own:
        bound = min(bound, min(float(norm_block(rows[:j] - rows[j], FA).min()) for j in range(1, len(rows))))
    eps = min(bound, 1.0) * data.draw(st.floats(0.05, 0.95), label="eps share")
    args, regrown = _certificate_args(rows, anchor_rows, tuples, gap, bound, eps)
    global_bound, best, want = _full_scan_certificate(rows, args)
    assert global_bound > eps  # the certificate path, not the direct fallback
    event("an anchor pair decides" if best < global_bound else "the global bound decides")
    event("dev_max = 0" if args[2].max() == 0 else "dev_max > 0")
    if not best > eps:
        with pytest.raises(ValidationError, match="anchor-related distance"):
            spec._certificate_min_pairwise(*args)
    else:
        assert spec._certificate_min_pairwise(*args).hex() == want.hex()
    assert len(regrown) == len(set(regrown))  # each uncleared row once
    if own:  # one copy of every row, compared with its anchor
        assert regrown == list(range(len(rows))) and want == args[7]


@pytest.mark.parametrize(
    "bound,regrown_rows", [(0.5, [2]), (0.9375 * (1 - 5e-10), [0, 1, 2]), (1.0, [0, 1, 2])],
    ids=["0.5", "0.9375", "1.0"],
)
def test_certificate_anchor_pair_decides(bound, regrown_rows, monkeypatch):
    # anchors 0 and e_1 (rows 0 and 1, 0.9375 apart), and row 2 = e_3,
    # 0.1875 from anchor 0 (n = 1: the deviation is the distance), which
    # decides.  The anchors clear each other while 0.9375 > bound * (1 + 1e-9),
    # row 2 clears e_1 while 0.9375 > (bound + 0.1875) * (1 + 1e-9).  The
    # regrown rows and both anchors reach `_pairs_within` as one contiguous
    # time-major copy, shape (steps, rows, dim)
    slabs, within = [], spec._pairs_within
    monkeypatch.setattr(spec, "_pairs_within", lambda o, *a: slabs.append(o) or within(o, *a))
    rows = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]], dtype=complex)
    args, regrown = _certificate_args(rows, [0, 1], [[0], [1], [0]], 1, bound, 0.1)
    global_bound, best, want = _full_scan_certificate(rows, args)
    assert args[2].tolist() == [[0.0], [0.0], [0.1875]] and best == 0.1875 < global_bound
    assert spec._certificate_min_pairwise(*args).hex() == want.hex()
    assert sorted(regrown) == regrown_rows
    assert [(o.shape, o.flags.c_contiguous) for o in slabs] == [((1, len(regrown_rows) + 2, 4), True)]


def test_certificate_skips_the_anchor_query_when_rows_are_anchors(monkeypatch):
    # n = 1 (one Bowen step, so no drift): the collinear anchors j x1 are
    # their own shadows, so every row is its anchor and the result is
    # d_min_anchor, the direct scan's minimum, without the anchor query.  A
    # far e_40 moves every shadow off its anchor (dev > 0), the anchors
    # join as extra rows 2^-40 from their shadows, and the query still
    # runs and refuses the family
    x1, e40 = fixed_vector(B2, 64), basis_vector(40, 64)
    collinear = [Vector(j * x1.coords) for j in range(7)]
    direct = sp_separated_family(B2, collinear, 1, 0.1)
    calls, within = [], spec._pairs_within
    monkeypatch.setattr(spec, "_pairs_within", lambda *a: calls.append(a[1].size) or within(*a))
    monkeypatch.setattr(spec, "DIRECT_VERIFY_CAP", 4)
    cert = sp_separated_family(B2, collinear, 1, 0.1)
    assert (direct.verification, cert.verification, calls) == ("direct", "certificate", [])
    assert cert.min_pairwise.hex() == direct.min_pairwise.hex() == (1.0).hex()
    assert cert.sample.rows.tobytes() == direct.sample.rows.tobytes()
    with pytest.raises(ValidationError, match="anchor-related distance 1.8"):
        sp_separated_family(B2, [Vector(v.coords + e40.coords) for v in collinear], 1, 0.1)
    assert len(calls) == 1 and calls[0] > 0
    # a zero deviation alone is not enough: row 2 lies 5e-324 off anchor 0,
    # a difference whose norm rounds to 0, so the query runs and finds it
    rows = np.array([[0, 0, 0], [1, 0, 0], [5e-324, 0, 0]], dtype=complex)
    bound = float(norm_block(rows[1:2] - rows[0], FA)[0])
    args, _ = _certificate_args(rows, [0, 1], [[0], [1], [0]], 1, bound, 0.1)
    assert not args[2].any()
    with pytest.raises(ValidationError, match="anchor-related distance 0"):
        spec._certificate_min_pairwise(*args)
    assert len(calls) == 2


def test_certificate_margin_covers_rounding():
    # row 2 = 0.3 x lies between anchors 0 and x (rows 0, 1), where the
    # triangle inequality is tight: its distance D to anchor 0 is apart - dev
    # exactly, but the computed apart - dev exceeds D.  One float above D,
    # the bound would clear row 2 against anchor 0 without the margin
    x = np.array([1 / 16, 1 / 16, 0])
    rows = np.array([0 * x, x, 0.3 * x], dtype=complex)
    D, apart, dev = (float(norm_block(v, FA)) for v in (rows[2], rows[1], rows[2] - rows[1]))
    bound = float(np.nextafter(D, 1))
    args, regrown = _certificate_args(rows, [0, 1], [[0], [1], [1]], 1, bound, 0.01)
    assert bound + dev < apart and _full_scan_certificate(rows, args)[0] == bound
    assert spec._certificate_min_pairwise(*args) == D < bound and regrown == [2]


def test_certificate_refuses_close_anchor_pair():
    # the global bound (0.9) clears eps, but anchor row 0 and row 1 are
    # 2^-8 apart: the anchor query finds the pair and refuses the family
    rows = np.array([[0, 0, 0, 0], [0, 0, 0, 1 / 16]], dtype=complex)
    args, regrown = _certificate_args(rows, [0], [[0], [0]], 1, 0.9, 0.1)
    with pytest.raises(ValidationError, match="anchor-related distance 0.0039"):
        spec._certificate_min_pairwise(*args)
    assert regrown == [1]


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
    block = padded_block(anchors, dim)
    combos, xi = _family_shadows(B, block, times, N)
    rows, anchor_rows, twins = spec._family_rows(combos, xi, block)
    assert twins is None
    T = B if k == 1 else OperatorPower(B, k)
    orbits = orbit_block(T, rows, (n - 1) * (N + 1) + 1)
    dev, certified = spec._family_certification(
        B, orbits.__getitem__, orbits[anchor_rows], combos, times[-1] + N, N, eps, FA
    )
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
