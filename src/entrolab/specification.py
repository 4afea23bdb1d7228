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
pattern bit for bit.  Only the m*n pieces are periodised, and one stream of
B_w over the family block, keeping one time slice at a time, yields every
periodicity check and every deviation; `shadow_point` runs the same
periodise-and-deviate path on a single schedule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rules as rl
from .entropy import CompactSample, bowen_distances, near_pairs
from .errors import SampleSizeError, ScheduleError, ValidationError
from .operators import (
    BackwardShift,
    DenseMatrix,
    Operator,
    OperatorPower,
    _nullspace,
    batch_apply,
    forward_shift_block,
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
    that rounds below the normal range, or to zero, is kept as it rounds."""
    xi = z.copy()
    image = z.copy()
    reps = z.shape[-1] // period + 1
    for _ in range(reps):
        for _ in range(period):
            image[:, -1] = 0.0  # truncation headroom: top coordinate falls away
            image = forward_shift_block(B.weights, image)
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


def _shadow_deviations(
    B_w: BackwardShift,
    xi: np.ndarray,
    period: int,
    windows: list[tuple[int, int]],
    target_orbits: np.ndarray,
    choice: np.ndarray,
    space: SpaceSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Periodicity flags and per-segment deviations of a block of shadows.

    Streams B_w over the (rows, dim) block `xi` up to `period`, keeping one
    time slice at a time.  Row r's segment s, over the time window
    windows[s] = (a, b), is compared with the target orbit
    target_orbits[choice[r, s]] (shape (targets, b_last + 1, dim)); its
    deviation is the largest aggregated distance over the window.  A row is
    periodic when B_w^period reproduces it on the representable window.
    Returns (periodic, shape (rows,)) and (deviations, shape (rows, segments)).
    """
    dev = np.zeros((xi.shape[0], len(windows)))
    orbit = xi
    for t in range(period + 1):
        if t:
            orbit = batch_apply(B_w, orbit)
        for s, (a, b) in enumerate(windows):
            if a <= t <= b:
                require_finite(orbit)
                d = norm_block(orbit - target_orbits[choice[:, s], t], space)
                dev[:, s] = np.maximum(dev[:, s], d)
    require_finite(orbit)
    window = xi.shape[1] - period
    periodic = (orbit[:, :window] == xi[:, :window]).all(axis=1)
    return periodic, dev


def shadow_point(
    B_w: Operator,
    sched: SegmentSchedule,
    epsilon: float,
    space: SpaceSpec | None = None,
    dim: int | None = None,
) -> ShadowReport:
    """Build the periodic point shadowing the scheduled orbit segments.

    Verifies exact periodicity under B_w^{period} on the representable
    window and measures per-segment orbit deviations in the aggregated
    metric; `certified` additionally demands deviation + 2^{-dim} < epsilon
    strictly and an admissible weight sequence.
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
    targets = padded_block([y for _, _, y in sched.segments], dim)
    target_orbits = orbit_block(B_w, targets, sched.b_last + 1)
    windows = [(a, b) for a, b, _ in sched.segments]
    choice = np.arange(len(windows))[np.newaxis, :]
    periodic, dev = _shadow_deviations(B_w, xi, period, windows, target_orbits, choice, space)

    tail = norm_tail_bound(dim, space)
    deviations = tuple((idx, float(d)) for idx, d in enumerate(dev[0]))
    periodicity_exact = bool(periodic[0])
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


def fixed_vector(B_w: BackwardShift, dim: int, scale: complex = 1.0) -> Vector:
    """The fixed-point direction of the shift: x_1 = scale and
    x_{n+1} = x_n / w_{n+1}, exact on coordinates 1..dim-1."""
    return periodic_vector(B_w, head=(scale,), dim=dim)


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
    B_w: BackwardShift,
    anchor_block: np.ndarray,
    times: tuple[int, ...],
    gap: int,
    epsilon: float,
    space: FAggregate,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shadows of every tuple in anchors^n, in itertools.product order.

    Segment i of a tuple is the single time t_i.  Only the m*n pieces (anchor
    c's coordinates t_i+1 .. t_i+gap) are periodised; each shadow is the
    exact sum of its n pieces, because the pieces and their periodic images
    have disjoint supports (see the module docstring).  Returns the tuples
    (F, n), the shadows (F, dim), their deviations (F, n) and their
    certification flags (F,): the values `shadow_point` gives for each
    tuple's own schedule.
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

    anchor_orbits = orbit_block(B_w, anchor_block, times[-1] + 1)
    windows = [(t, t) for t in times]
    periodic, dev = _shadow_deviations(B_w, xi, period, windows, anchor_orbits, combos, space)
    admissible = rl.weight_admissibility(B_w.weights).admissible
    tail = norm_tail_bound(dim, space)
    certified = periodic & (dev + tail < epsilon).all(axis=1) & admissible
    return combos, xi, dev, certified


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
    the pieces and their periodic images have disjoint supports, and one
    stream of B_w over the family certifies every shadow.  A tuple whose
    shadow fails certification is named, the first in product order.  The
    returned sample is the family together with the anchors; an anchor
    equal to a shadow is that shadow's row, and two tuples with equal
    shadows are refused (`_family_rows`).  Verification computes pairwise
    dynamical distances directly up to a size cap; above it, certified
    triangle-inequality lower bounds stand in and any pair failing the
    bound is re-checked directly.
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
    d_min_anchor = min(
        (float(norm_block(anchor_block[i + 1 :] - anchor_block[i], space).min()) for i in range(m - 1)),
        default=math.inf,
    )
    if d_min_anchor < 3 * epsilon:
        raise ValidationError("anchors closer than 3*epsilon cannot certify separation")

    combos, family_block, dev, certified = _family_shadows(
        B_w, anchor_block, times, N, epsilon, space
    )
    if not certified.all():
        combo = tuple(int(c) for c in combos[np.argmin(certified)])
        raise ValidationError(f"shadow for tuple {combo} failed certification")

    rows, anchor_rows = _family_rows(combos, family_block, anchor_block)
    T_eff: Operator = B_w if k == 1 else OperatorPower(B_w, k)
    steps = (n - 1) * (N + 1) + 1  # Bowen window in T^k steps
    if rows.shape[0] <= DIRECT_VERIFY_CAP:
        min_pair = _direct_min_pairwise(space, orbit_block(T_eff, rows, steps))
        verification = "direct"
        if not (min_pair > epsilon):
            raise ValidationError(
                f"family separation failed: min pairwise distance {min_pair:.6g} <= {epsilon}"
            )
    else:
        min_pair = _certificate_min_pairwise(
            T_eff, rows, anchor_rows, float(dev.max()), d_min_anchor, steps, space, epsilon
        )
        verification = "certificate"

    sample = CompactSample(
        rows,
        resolution=max(epsilon / 2, 1e-300),
        label=f"sp-family(m={m},n={n},N={N},k={k})",
    )
    return SeparatedFamily(
        sample=sample,
        family_size=len(family_block),
        schedule_times=times,
        gap=N,
        epsilon=epsilon,
        min_pairwise=min_pair,
        verification=verification,
    )


def _family_rows(
    combos: np.ndarray, family_block: np.ndarray, anchor_block: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """The family's sample rows and the row of each anchor.

    Rows are compared by value (+ 0.0 folds -0.0 into 0.0).  Only an anchor
    may collapse into a family row (the all-zero tuple reproduces a zero
    anchor); the other anchors, pairwise distinct, follow the family.  Two
    equal family rows would count two tuples as one point and are refused.
    """
    row_of: dict[bytes, int] = {}
    for idx, key in enumerate(map(np.ndarray.tobytes, family_block + 0.0)):
        first = row_of.setdefault(key, idx)
        if first != idx:
            pair = tuple(combos[first].tolist()), tuple(combos[idx].tolist())
            raise ValidationError(f"tuples {pair[0]} and {pair[1]} give the same shadow")
    keys = map(np.ndarray.tobytes, anchor_block + 0.0)
    anchor_rows = [row_of.setdefault(key, len(row_of)) for key in keys]
    extra = [a for a, row in enumerate(anchor_rows) if row >= len(family_block)]
    return np.concatenate([family_block, anchor_block[extra]]), anchor_rows


def _certificate_min_pairwise(
    T: Operator,
    rows: np.ndarray,
    anchor_rows: list[int],
    dev_max: float,
    d_min_anchor: float,
    steps: int,
    space: SpaceSpec,
    epsilon: float,
) -> float:
    """Certified lower bound on every pairwise dynamical distance.

    Two shadows with tuples differing at schedule position p satisfy, at
    that time, d >= d(anchor, anchor') - dev - dev' - drift - drift', every
    term a computed number (d_min_anchor is the smallest anchor distance).
    The family-wide bound uses the worst of each term; anchor-vs-family
    pairs are checked directly (linear cost).  Falls back to the full
    direct scan when the global bound fails.  The anchors' orbits are rows
    `anchor_rows` of the family's, grown once.
    """
    orbits = orbit_block(T, rows, steps)
    orbits_a = orbits[anchor_rows]
    drift_max = float(norm_block(orbits_a - orbits_a[:, :1], space).max())
    global_bound = d_min_anchor - 2.0 * dev_max - 2.0 * drift_max
    if not (global_bound > epsilon):
        # certificate too weak: fall back to the exact (slow) scan
        direct = _direct_min_pairwise(space, orbits)
        if not (direct > epsilon):
            raise ValidationError(
                f"family separation failed: min pairwise distance {direct:.6g} <= {epsilon}"
            )
        return direct

    # anchors against everything, directly
    best_direct = math.inf
    for r in anchor_rows:
        d = norm_block(orbits - orbits[r], space).max(axis=1)
        d[r] = math.inf
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
