"""Specification-property machinery: shadowing periodic points for weighted
backward shifts and the separated families they generate.

Given orbit segments [a_i, b_i] with targets y_i and a uniform gap N between
consecutive segments, the construction copies the target coordinates into a
pattern z (coordinate j covers time j-1, so segment i fills coordinates
a_i+1 .. b_i+N), then periodises z with forward-shift images to obtain a
point xi fixed by B_w^{b_s+N}.  At every segment time the orbit of xi agrees
with the target orbit on at least the first N coordinates, so the aggregated
metric deviation is at most 2^{-N} - 2^{-dim}; adding the exact truncation
tail 2^{-dim} certifies the strict bound 2^{-N} < eps.

Stacking single-time segments at times t_i = k*i*(N+1) over all target
tuples in anchors^n builds the m^n-point separated families behind the
log(m)/(k(N+1)) entropy lower bounds.  The family is built in one batch.
Segment i copies coordinates t_i+1 .. t_i+N of its anchor; these ranges
are pairwise disjoint, and so are their periodic images, which move by
multiples of the period.  Periodisation is linear, so the shadow of a tuple
(c_0, .., c_{n-1}) is the sum over i of the periodised piece of anchor c_i
at segment i.  Every coordinate of that sum has at most one nonzero addend,
so it involves no rounding and equals the shadow built from the tuple's own
pattern bit for bit.  Only the m*n pieces are periodised.  Every shadow
is certified from its orbit under B_w^k over the Bowen window: its
deviations against its anchors' orbits at the segment times, and its
periodicity from its last slice continued to the period.  A family of at
most DIRECT_VERIFY_CAP rows is grown once into one orbit cube, which also
gives the separation by a direct scan.  A larger one never holds its cube:
the anchors are grown once and the shadows in row blocks, each block kept
only as its deviations and periodicity flags; the separation certificate
clears anchor pairs by the triangle inequality of its global bound, and
grows again only the rows it leaves uncleared.  `shadow_point` grows its
one shadow once, to the period.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rules as rl
from .entropy import (
    BLOCK_ELEMS,
    CompactSample,
    _pairs_within,
    _time_major,
    bowen_distances,
    near_pairs,
)
from .errors import SampleSizeError, ScheduleError, ValidationError
from .operators import (
    BackwardShift,
    DenseMatrix,
    ForwardShift,
    Operator,
    OperatorPower,
    _nullspace,
    batch_apply,
    orbit_block,
    require_finite,
)
from .spaces import (
    FAggregate,
    SpaceSpec,
    Vector,
    faggregate_l2,
    norm_block,
    norm_tail_bound,
    padded_block,
)

FAMILY_CAP = 100_000


def sp_constant(eps: float) -> int:
    """Smallest N >= 1 with 2^{-N} strictly below eps; defined for 0 < eps <= 1."""
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    N = 1
    while 2.0**-N >= eps:
        N += 1
    return N


@dataclass(frozen=True)
class SegmentSchedule:
    """Orbit segments (a_i, b_i, y_i) with uniform gap N between them."""

    segments: tuple[tuple[int, int, Vector], ...]
    gap: int

    def __post_init__(self):
        if self.gap < 1:
            raise ScheduleError(f"gap must be >= 1, got {self.gap}")
        if not self.segments:
            raise ScheduleError("schedule needs at least one segment")
        prev_b = None
        for a, b, y in self.segments:
            if a < 0 or b < a:
                raise ScheduleError(f"segment [{a}, {b}] is not ordered")
            if prev_b is not None:
                if a <= prev_b:
                    raise ScheduleError("segments must be strictly increasing")
                if a - prev_b < self.gap:
                    raise ScheduleError(
                        f"segment gap {a - prev_b} is below the required {self.gap}"
                    )
            if not isinstance(y, Vector):
                raise ScheduleError("segment targets must be vectors")
            prev_b = b
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def b_last(self) -> int:
        return self.segments[-1][1]

    @property
    def period(self) -> int:
        return self.b_last + self.gap


@dataclass(frozen=True)
class ShadowReport:
    """Constructed periodic point and its certified per-segment deviations."""

    xi: Vector
    period: int
    deviations: tuple[tuple[int, float], ...]  # (segment index, max deviation)
    tail_bound: float
    epsilon: float
    periodicity_exact: bool
    admissible: bool
    certified: bool


def _pattern(sched: SegmentSchedule, dim: int) -> np.ndarray:
    """Coordinates of z: segment i contributes target coordinates
    a_i+1 .. b_i+N (1-based)."""
    z = np.zeros(dim, dtype=complex)
    for a, b, y in sched.segments:
        lo, hi = a + 1, b + sched.gap  # 1-based coordinate range
        for j in range(lo, hi + 1):
            z[j - 1] = y.coord(j)
    return z


def _periodize(B: BackwardShift, z: np.ndarray, period: int) -> np.ndarray:
    """Rows xi = sum_k F_w^{k*period} z of a (rows, dim) pattern block, by
    explicit iterated forward shifts.  The images only shrink, so a tail
    that rounds below the normal range, or to zero, is kept as it rounds;
    one that leaves the range is refused by `require_finite`."""
    xi = z.copy()
    image = z.copy()
    F = ForwardShift(B.weights)
    reps = z.shape[-1] // period + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(reps):
            for _ in range(period):
                image[:, -1] = 0.0  # truncation headroom: top coordinate falls away
                image = F.image(image)
            if not np.any(image):
                break
            xi = xi + image
    require_finite(xi)
    return xi


def _aggregated_space(epsilon: float, space: SpaceSpec | None) -> FAggregate:
    if not (0 < epsilon <= 1):
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    space = faggregate_l2() if space is None else space
    if not isinstance(space, FAggregate):
        raise ValidationError("deviations are measured in the aggregated metric")
    return space


def shadow_point(
    B_w: Operator,
    sched: SegmentSchedule,
    epsilon: float,
    space: SpaceSpec | None = None,
    dim: int | None = None,
) -> ShadowReport:
    """Build the periodic point shadowing the scheduled orbit segments.

    Grows the shadow's orbit to the period once.  Verifies exact
    periodicity under B_w^{period} on the representable window and measures
    per-segment orbit deviations in the aggregated metric; `certified`
    additionally demands deviation + 2^{-dim} < epsilon strictly and an
    admissible weight sequence.
    """
    if not isinstance(B_w, BackwardShift):
        raise ValidationError("shadowing is built for weighted backward shifts")
    space = _aggregated_space(epsilon, space)
    period = sched.period
    min_dim = max([2 * period] + [y.dim for _, _, y in sched.segments])
    dim = min_dim if dim is None else dim
    if dim < min_dim:
        raise ValidationError(
            f"dim = {dim} gives no headroom; need at least {min_dim}"
        )

    admissible = rl.weight_admissibility(B_w.weights).admissible
    xi = _periodize(B_w, _pattern(sched, dim)[np.newaxis, :], period)
    orbit = orbit_block(B_w, xi, period + 1)[0]
    targets = padded_block([y for _, _, y in sched.segments], dim)
    target_orbits = orbit_block(B_w, targets, sched.b_last + 1)

    tail = norm_tail_bound(dim, space)
    deviations = tuple(
        (idx, float(norm_block(orbit[a : b + 1] - target_orbits[idx, a : b + 1], space).max()))
        for idx, (a, b, _) in enumerate(sched.segments)
    )
    window = dim - period
    periodicity_exact = bool((orbit[period, :window] == orbit[0, :window]).all())
    certified = (
        periodicity_exact
        and admissible
        and all(d + tail < epsilon for _, d in deviations)
    )
    return ShadowReport(
        xi=Vector(xi[0]),
        period=period,
        deviations=deviations,
        tail_bound=tail,
        epsilon=epsilon,
        periodicity_exact=periodicity_exact,
        admissible=admissible,
        certified=certified,
    )


def fixed_vector(B_w: BackwardShift, dim: int) -> Vector:
    """The fixed-point direction of the shift: x_1 = 1 and
    x_{n+1} = x_n / w_{n+1}, exact on coordinates 1..dim-1."""
    return periodic_vector(B_w, head=(1.0,), dim=dim)


def periodic_vector(B_w: BackwardShift, head, dim: int) -> Vector:
    """k-periodic point of the shift with prescribed first k coordinates:
    x_{n+k} = x_n / prod_{l=n+1..n+k} w_l, evaluated by sequential division."""
    head = tuple(complex(h) for h in head)
    k = len(head)
    if k < 1 or dim < k:
        raise ValidationError("need 1 <= len(head) <= dim")
    w = rl.values(B_w.weights, dim + 1)
    coords = np.zeros(dim, dtype=complex)
    coords[:k] = head
    for n in range(k, dim):
        # x_{n+1} = x_{n+1-k} / (w_{n-k+2} * ... * w_{n+1}), one factor at a time
        val = coords[n - k]
        for l in range(n - k + 1, n + 1):
            val = val / w[l]  # w[l] is w_{l+1}
        coords[n] = val
    return Vector(coords)


def sp_entropy_lower_bound(m: int, N: int, k: int = 1) -> float:
    """log(m) / (k (N+1)): the growth rate certified by an m-symbol family
    over period-k dynamics with gap N."""
    if m < 2 or N < 1 or k < 1:
        raise ValidationError("need m >= 2, N >= 1, k >= 1")
    return math.log(m) / (k * (N + 1))


@dataclass(frozen=True)
class SeparatedFamily:
    sample: CompactSample
    family_size: int
    schedule_times: tuple[int, ...]
    gap: int
    epsilon: float
    min_pairwise: float  # smallest verified pairwise dynamical distance
    verification: str  # "direct" or "certificate"


DIRECT_VERIFY_CAP = 2048


def _direct_min_pairwise(space: SpaceSpec, orbits: np.ndarray) -> float:
    """Exact minimum Bowen distance over all row pairs of the orbits
    (shape (rows, steps, dim)), over all their steps.

    The first pair's distance bounds the minimum from above; any smaller
    distance lies among the near pairs strictly inside that radius.
    """
    if orbits.shape[0] < 2:
        return math.inf
    steps = orbits.shape[1]
    best = float(bowen_distances(orbits, [0], [1], steps, space)[0])
    for _, _, d in near_pairs(orbits, steps, float(np.nextafter(best, 0.0)), space):
        if d.size:
            best = min(best, float(d.min()))
    return best


def _family_shadows(
    B_w: BackwardShift, anchor_block: np.ndarray, times: tuple[int, ...], gap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shadows of every tuple in anchors^n, in itertools.product order.

    Segment i of a tuple is the single time t_i.  Only the m*n pieces (anchor
    c's coordinates t_i+1 .. t_i+gap) are periodised; each shadow is the
    exact sum of its n pieces, because the pieces and their periodic images
    have disjoint supports (see the module docstring).  Returns the tuples
    (F, n) and the shadows (F, dim), each the `xi` that `shadow_point` builds
    from the tuple's own schedule.
    """
    m, dim = anchor_block.shape
    n = len(times)
    period = times[-1] + gap
    pieces = np.zeros((n, m, dim), dtype=complex)
    for i, t in enumerate(times):
        pieces[i, :, t : t + gap] = anchor_block[:, t : t + gap]
    periodised = _periodize(B_w, pieces.reshape(n * m, dim), period).reshape(n, m, dim)

    combos = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.intp)
    xi = np.zeros((combos.shape[0], dim), dtype=complex)
    for i in range(n):
        xi += periodised[i, combos[:, i]]
    return combos, xi


def _family_certification(
    B_w: BackwardShift, grow, anchors: np.ndarray, combos: np.ndarray,
    period: int, gap: int, epsilon: float, space: FAggregate,
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations (F, n) and certification flags (F,) of the F shadows, the
    values `shadow_point` gives for each tuple's own schedule.

    grow(rows) gives the orbits of the family rows `rows` (a slice; the
    shadows come first) under B_w^k over the Bowen window, and `anchors` is
    the anchors' orbits there.  The shadows are grown BLOCK_ELEMS
    coordinates per step at a time, and each block is kept only as its
    deviations and flags.  Segment i's time t_i is Bowen step
    i*(gap+1), so a deviation is one distance between a shadow's slice and
    its anchor's.  The last slice (time t_{n-1}) is continued `gap` steps
    of B_w to the period and compared with the shadows on the representable
    window.
    """
    F, n = combos.shape
    steps, dim = anchors.shape[1:]
    dev = np.empty((F, n))
    periodic = np.empty(F, dtype=bool)
    window = dim - period
    step = max(1, BLOCK_ELEMS // (steps * dim))
    for lo in range(0, F, step):
        rows = slice(lo, min(lo + step, F))
        orbits = grow(rows)
        for i in range(n):
            at = i * (gap + 1)
            dev[rows, i] = norm_block(orbits[:, at] - anchors[combos[rows, i], at], space)
        orbit = orbits[:, -1]
        for _ in range(gap):
            orbit = batch_apply(B_w, orbit)
        require_finite(orbit)
        periodic[rows] = (orbit[:, :window] == orbits[:, 0, :window]).all(axis=1)
    admissible = rl.weight_admissibility(B_w.weights).admissible
    tail = norm_tail_bound(dim, space)
    return dev, periodic & (dev + tail < epsilon).all(axis=1) & admissible


def sp_separated_family(
    B_w: Operator,
    anchors,
    n: int,
    epsilon: float,
    k: int = 1,
    space: SpaceSpec | None = None,
) -> SeparatedFamily:
    """Shadow every target tuple in anchors^n at times k*i*(N+1) and verify
    the resulting family is pairwise separated at scale epsilon.

    Anchors must be pairwise at least 3*epsilon apart in the aggregated
    metric and fixed under B_w^k on the truncation interior.  The shadows
    are built in one batch (`_family_shadows`): the m*n single-segment
    pieces are periodised once and summed per tuple, which is exact because
    the pieces and their periodic images have disjoint supports.  The
    family's rows (`_family_rows`: the shadows, then the anchors that are
    not shadows) are grown under B_w^k over the Bowen window, and every
    shadow is certified from its orbit (`_family_certification`).  A tuple
    whose shadow fails certification is named, the first in product order;
    then two tuples with equal shadows are refused.
    Up to a size cap the rows are grown once into one orbit cube, and
    separation is verified by pairwise dynamical distances taken directly
    from it.  Above the cap no cube is held: the anchors are grown once,
    the shadows block by block, each block kept only as its certification.
    A certified triangle-inequality lower bound stands in for the shadow
    pairs (`_certificate_min_pairwise`), and each anchor is checked exactly
    against the rows the same inequality leaves within that bound, regrown
    for it.
    """
    if not isinstance(B_w, BackwardShift):
        raise ValidationError("families are built over weighted backward shifts")
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    space = _aggregated_space(epsilon, space)
    anchors = tuple(anchors)
    m = len(anchors)
    if m < 1:
        raise ValidationError("need at least one anchor")
    if m**n > FAMILY_CAP:
        raise SampleSizeError(f"family size {m}**{n} exceeds {FAMILY_CAP}")
    N = sp_constant(epsilon)
    times = tuple(k * i * (N + 1) for i in range(n))
    dim = max(2 * (times[-1] + N), max(a.dim for a in anchors))

    anchor_block = padded_block(anchors, dim)
    d_min_anchor = _direct_min_pairwise(space, anchor_block[:, np.newaxis])
    if d_min_anchor < 3 * epsilon:
        raise ValidationError("anchors closer than 3*epsilon cannot certify separation")

    combos, family_block = _family_shadows(B_w, anchor_block, times, N)
    rows, anchor_rows, twins = _family_rows(combos, family_block, anchor_block)
    del family_block
    T_eff: Operator = B_w if k == 1 else OperatorPower(B_w, k)
    steps = (n - 1) * (N + 1) + 1  # Bowen window in T^k steps
    direct = rows.shape[0] <= DIRECT_VERIFY_CAP
    if direct:
        cube = orbit_block(T_eff, rows, steps)
        grow, anchor_orbits = cube.__getitem__, cube[anchor_rows]
    else:

        def grow(which):
            return orbit_block(T_eff, rows[which], steps)

        anchor_orbits = orbit_block(T_eff, anchor_block, steps)
    dev, certified = _family_certification(
        B_w, grow, anchor_orbits, combos, times[-1] + N, N, epsilon, space
    )
    if not certified.all():
        combo = tuple(int(c) for c in combos[np.argmin(certified)])
        raise ValidationError(f"shadow for tuple {combo} failed certification")
    if twins is not None:
        raise ValidationError(f"tuples {twins[0]} and {twins[1]} give the same shadow")

    if direct:
        min_pair, verification = _direct_min_pairwise(space, cube), "direct"
    else:
        # an anchor that is no shadow is its own orbit: its tuple is
        # constant and its deviations are 0
        extra = np.array([c for c, row in enumerate(anchor_rows) if row >= len(combos)], dtype=np.intp)
        tuples = np.concatenate((combos, np.repeat(extra[:, np.newaxis], n, axis=1)))
        dev = np.concatenate((dev, np.zeros((extra.size, n))))
        min_pair = _certificate_min_pairwise(
            space, tuples, dev, grow, anchor_orbits, anchor_rows, N, d_min_anchor, epsilon
        )
        verification = "certificate"
    if not (min_pair > epsilon):
        raise ValidationError(
            f"family separation failed: min pairwise distance {min_pair:.6g} <= {epsilon}"
        )

    sample = CompactSample(
        rows,
        resolution=max(epsilon / 2, 1e-300),
        label=f"sp-family(m={m},n={n},N={N},k={k})",
    )
    return SeparatedFamily(
        sample=sample,
        family_size=len(combos),
        schedule_times=times,
        gap=N,
        epsilon=epsilon,
        min_pairwise=min_pair,
        verification=verification,
    )


def _family_rows(
    combos: np.ndarray, family_block: np.ndarray, anchor_block: np.ndarray
) -> tuple[np.ndarray, list[int], tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """The family's sample rows, the row of each anchor, and the first two
    tuples with equal shadows (None when every shadow is its own).

    Rows are compared by value (+ 0.0 folds -0.0 into 0.0).  Only an anchor
    may collapse into a family row (the all-zero tuple reproduces a zero
    anchor); the other anchors, pairwise distinct, follow the family as
    rows F, F+1, ...  Two equal family rows would count two tuples as one
    point; the caller refuses them.
    """
    row_of: dict[bytes, int] = {}
    twins = None
    for idx, key in enumerate(map(np.ndarray.tobytes, family_block + 0.0)):
        first = row_of.setdefault(key, idx)
        if first != idx and twins is None:
            twins = tuple(combos[first].tolist()), tuple(combos[idx].tolist())
    fresh = itertools.count(len(family_block))
    keys = map(np.ndarray.tobytes, anchor_block + 0.0)
    anchor_rows = [row_of[key] if key in row_of else next(fresh) for key in keys]
    extra = [a for a, row in enumerate(anchor_rows) if row >= len(family_block)]
    return np.concatenate([family_block, anchor_block[extra]]), anchor_rows, twins


def _certificate_min_pairwise(
    space: SpaceSpec,
    tuples: np.ndarray,
    dev: np.ndarray,
    grow,
    anchors: np.ndarray,
    anchor_rows: list[int],
    gap: int,
    d_min_anchor: float,
    epsilon: float,
) -> float:
    """Certified lower bound on every pairwise dynamical distance of the
    family's rows over the Bowen window.

    Row r follows anchor tuples[r, i] at segment i, the Bowen step
    i*(gap+1), within the deviation dev[r, i] (shapes (rows, n)).
    grow(rows) grows the orbits of the family rows `rows`, and `anchors`
    holds the anchors' orbits (anchor c is family row anchor_rows[c]).

    Two shadows with tuples differing at segment i satisfy, at that time,
    d >= d(anchor, anchor') - dev - dev' - drift - drift', every term a
    computed number (d_min_anchor is the smallest anchor distance).  The
    family-wide bound uses the worst of each term.  When it fails, the
    result is the exact minimum from the full direct scan over the regrown
    orbit cube, which the caller judges.

    Anchor pairs are checked exactly where they can lower the result
    min(global bound, closest anchor pair).  By the same inequality row r
    is at least apart - dev[r, i] from anchor c, where apart is the
    distance of anchors tuples[r, i] and c at segment i; r is cleared
    against c when some segment has apart > (global bound + dev[r, i]) *
    (1 + 1e-9).  Every computed norm is a sum of nonnegative terms within
    a relative few dim ulps of the exact norm of its stored difference
    (scaled, not underflowed), far inside that margin, so a cleared pair's
    computed distance stays beyond the bound.  The uncleared rows are
    regrown, and `_pairs_within` takes their Bowen distances with the
    global bound as radius, row by row those of a full scan.  A pair it
    drops lies beyond the bound, so it can lower neither the result nor
    the separation below epsilon.

    One segment (n = 1) with no deviation needs no anchor query.  The
    Bowen window is the one step t = 0, so drift_max is 0 and the global
    bound is d_min_anchor.  A zero deviation alone does not make a row its
    anchor (under the aggregated norm a subnormal difference can round to
    0), so the rows, grown one step (a copy), are compared with their
    anchors exactly.  When every row is its anchor, twins being refused,
    the rows are distinct anchors, and each distance the query would take
    is the `norm_block` of a difference of two anchors, the same number
    (up to an exact negation) as in the anchors' own minimum d_min_anchor.
    So best_direct >= d_min_anchor, the result min(global bound,
    best_direct) is d_min_anchor, and the m^2 query is skipped.
    """
    drift_max = float(norm_block(anchors - anchors[:, :1], space).max())
    global_bound = d_min_anchor - 2.0 * float(dev.max()) - 2.0 * drift_max
    if not (global_bound > epsilon):
        # certificate too weak: fall back to the exact (slow) scan
        return _direct_min_pairwise(space, grow(slice(None)))
    if tuples.shape[1] == 1 and not dev.any() and (grow(slice(None))[:, 0] == anchors[tuples[:, 0], 0]).all():
        return global_bound  # every row is its anchor: d_min_anchor

    # anchors against the rows the triangle inequality leaves within global_bound
    segments, at = anchors[:, :: gap + 1], np.arange(tuples.shape[1])
    clear_above = (global_bound + dev) * (1 + 1e-9)
    near = []
    for c, row in enumerate(anchor_rows):
        apart = norm_block(segments - segments[c], space)  # (anchors, n)
        uncleared = ~(apart[tuples, at] > clear_above).any(axis=1)
        uncleared[row] = False
        near.append(np.flatnonzero(uncleared))
    regrown = np.unique(np.concatenate(near))
    best_direct = math.inf
    if regrown.size:  # anchor c is row regrown.size + c, beside the regrown rows
        I = np.repeat(regrown.size + np.arange(len(near)), [rows.size for rows in near])
        J = np.searchsorted(regrown, np.concatenate(near))
        slabs, bound = _time_major(np.concatenate((grow(regrown), anchors))), np.full(I.size, global_bound)
        for _, ((_, d),) in _pairs_within(slabs, I, J, (anchors.shape[1],), bound, global_bound, space):
            best_direct = min(best_direct, float(d.min()))
    if not (best_direct > epsilon):
        raise ValidationError(
            f"family separation failed: anchor-related distance {best_direct:.6g}"
        )
    return min(global_bound, best_direct)


def linear_periodic_points(A: DenseMatrix, k: int) -> np.ndarray:
    """Orthonormal basis of N(A^k - I); empty when 0 is the only k-periodic
    point."""
    if k < 1:
        raise ValidationError("period must be >= 1")
    if not isinstance(A, DenseMatrix):
        raise ValidationError("periodic subspaces are computed for dense matrices")
    return _nullspace(np.linalg.matrix_power(A.entries, k) - np.eye(A.d))
