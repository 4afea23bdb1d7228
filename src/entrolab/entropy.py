"""Separated-set entropy estimation and the spectral entropy formula.

Empirical side: counts of (n, eps)-separated subsets of a finite sample
under the dynamical metric max_{0<=i<n} d(T^i x, T^i y), computed either by
a deterministic greedy scan (maximal set, lexicographic point order) or by
an exact memoised search over the conflict graph (the lexicographically
greatest maximum set, small samples only).  A point is its zero-padded
coordinate row compared by value, and a `CompactSample` is the block `rows`
of its points, padded and sorted by the interleaved (Re, Im) coordinates
once, when it is built, with equal rows refused; nothing sorts or pads a
sample afterwards.  A table of
counts over an (n, eps) grid feeds a least-squares slope of log s_n before
saturation; the eps -> 0 limit stays represented by the full per-eps slope
list, never a single collapsed number.

Every pairwise question but the counts of small tables (below) goes
through one exact near-pair kernel, `near_pairs`: the pairs within a
radius r, with their Bowen distances.
Rows are hashed into cells on one or two (time, coordinate) keys whose
differences bound the Bowen distance from below (|Re D_c(t)| in l^p,
min(1, |D_c(t)|)(2^{1-c} - 2^{-dim}) under the aggregated norm), with cells
r(1 + 1e-9) wide so rounding never splits a close pair across non-adjacent
cells.  Cells are numbered across gaps: every gap between a key's sorted
values wider than a cell skips one more number, so rows on either side of
it are never neighbours, and no close pair straddles such a gap.  Only
pairs in the same or adjacent cells get an exact distance, taken with the
same `norm_block` arithmetic as a direct evaluation.  A table whose
pairs fit one block (count(count - 1)/2 <= PAIR_BLOCK: at most 91 rows,
every exact table) skips hashing: one running maximum over all pairs gives
each (n, eps) cell a neighbour bitmask per row (`_conflict_graphs`), swept
greedily (`_greedy_sweep`) or searched for a maximum set
(`_max_independent_set`).  A larger greedy table is one carried pass
(`_carried_pairs`): the pairs within max(eps) at the smallest n are found
once, and each block of them is carried through the later n by extending
its running maximum one time slice at a time and dropping the pairs that
leave max(eps).  Its cells are swept from the survivors (`_carried_marks`),
keeping exactly the rows the per-cell scan keeps.  When the pairs barely
drop and barely prune (more than SCAN_ROW_PAIRS pair evaluations per row,
n and eps, as for an isometry with one large eps) the table falls back to
the witness scan `_greedy_indices`, decided once before the pass
(`_carry_plan`).  `_kept_rows` makes these choices for every count.

Spectral side: sum of multiplicity * log|lambda| over eigenvalues of
modulus > 1 (zero if none), and the n*log(r) lower bound carried by n
independent eigenvectors on a common modulus circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    SampleSizeError,
    SaturationError,
    UncertifiedSpectrumError,
    UnsupportedOperatorError,
    ValidationError,
)
from .operators import Operator, SpectralData, SpectrumDisc, orbit_block
from .spaces import Lp, SpaceSpec, Vector, norm_block, padded_block

SATURATION_FRACTION = 0.95  # s >= 95% of |K| counts as saturated
EXACT_SAMPLE_CAP = 24
UNIT_CIRCLE_TOL = 1e-12  # moduli this close to 1 contribute no log+ term
PAIR_BLOCK = 4096  # candidate pairs per exact-distance evaluation
BLOCK_ELEMS = 2**16  # and at most this many coordinates (pairs * n * dim)
KEY_MARGIN = 1e-9  # relative widening of every key window (see _key_cells)
KEY_QUOTIENT_CAP = 2.0**21  # largest |key value| / cell width of a usable key
JOINT_ROWS = 1024  # rows sampled to score keys
SCAN_ROW_PAIRS = 500  # pair evaluations costing about one witness-scan row per n and eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, init=False, eq=False)
class CompactSample:
    """Finite sample standing in for a compact set.

    `resolution` is the caller-declared covering radius of the sample inside
    the intended compact set; it is recorded, not verified.

    The sample is its block `rows`: the points (Vectors or 1-D coordinate
    arrays, so a (count, dim) array will do) zero-padded by `padded_block`
    and sorted by the interleaved (Re, Im) coordinates, so mixed dimensions
    sort by padded row ((1, -1) before (1)).  Equal rows are refused.
    `points` are the rows as Vectors, built on first use and kept.
    """

    rows: np.ndarray = field(repr=False)
    resolution: float
    label: str = ""

    def __init__(self, points, resolution: float, label: str = ""):
        if len(points) == 0:
            raise ValidationError("sample needs at least one point")
        if resolution <= 0:
            raise ValidationError("declared resolution must be positive")
        block = padded_block(points)
        rows = block[np.lexsort(block.view(float).T[::-1])]  # interleaved (Re, Im) columns
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValidationError("sample points must be pairwise distinct")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "label", label)

    @cached_property
    def points(self) -> tuple[Vector, ...]:
        return tuple(Vector(row) for row in self.rows)

    def __len__(self) -> int:
        return self.rows.shape[0]


def grid_sample(
    space: SpaceSpec,
    points_per_axis: tuple[int, ...],
    low: float = 0.0,
    high: float = 1.0,
    label: str = "",
) -> CompactSample:
    """Uniform product grid on [low, high]^d, endpoints included."""
    axes = [np.linspace(low, high, k) for k in points_per_axis]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1).astype(complex)
    half_cell = np.array(
        [(high - low) / (k - 1) / 2 if k > 1 else (high - low) / 2 for k in points_per_axis]
    )
    resolution = float(norm_block(half_cell[np.newaxis, :], space)[0])
    return CompactSample(coords, max(resolution, 1e-300), label or f"grid{points_per_axis}")


def _bowen_time(n) -> int:
    """n as an int >= 1: an integer, or a float with an integral value."""
    if isinstance(n, (float, np.floating)) and float(n).is_integer():
        n = int(n)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"Bowen times must be integers >= 1, got {n!r}")
    return int(n)


def dyn_distance(T: Operator, x: Vector, y: Vector, n: int, s: SpaceSpec) -> float:
    """Bowen dynamical distance max_{0<=i<n} d(T^i x, T^i y)."""
    n = _bowen_time(n)
    orbits = orbit_block(T, padded_block((x, y)), n)
    return float(bowen_distances(orbits, [0], [1], n, s)[0])


def _sample_orbits(T: Operator, K: CompactSample, steps: int) -> np.ndarray:
    """Orbits of the sample's rows, shape (count, steps, dim).

    Real-valued orbits are handed out as a float array; the norm machinery
    only sees magnitudes, so the counts are unchanged and the arithmetic is
    twice as fast.
    """
    orbits = orbit_block(T, K.rows, steps)
    return orbits if np.any(orbits.imag) else orbits.real.copy()


def bowen_distances(
    orbits: np.ndarray, I: np.ndarray, J: np.ndarray, n: int, s: SpaceSpec
) -> np.ndarray:
    """Bowen distances max_{t<n} d(x_i(t), x_j(t)) of the row pairs (I, J)."""
    return norm_block(orbits[I, :n] - orbits[J, :n], s).max(axis=1)


def _key_cells(orbits: np.ndarray, r: float, s: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices (count, steps * keys per step, shifted to start at 0) of
    the (time t, coordinate c) keys for the radius r, ordered by t, and
    which of them are usable.

    A key's value is Re x_c(t).  Its difference over a pair bounds the
    pair's distance at time t from below: |Re D_c| <= d_t in l^p, and
    min(1, |D_c|)(2^{1-c} - 2^{-dim}) <= d_t under the aggregated norm (the
    partial norms of index i >= c all reach |D_c|), which bounds |D_c| only
    while r < 2^{1-c} - 2^{-dim}.  Past that, coordinate 1 still bounds
    every r below the saturated value U (the norm of a row whose partial
    norms all reach 1): |D_1(t)| >= 1 makes d_t = U.  Cells are windows of
    width r(1 + KEY_MARGIN), divided by the coefficient under the aggregated
    norm (1 + KEY_MARGIN for the saturated key), so the quotients
    u = value / width of a pair at distance <= r differ by at most 1: the
    margin absorbs the relative rounding of every norm (below 1e-12) and of
    the quotients, which stays below 2^-31 because a key whose values exceed
    KEY_QUOTIENT_CAP cell widths is void.

    A row's cell is floor(u) - min, plus the number of gaps wider than 1
    between consecutive sorted quotients below its own.  No such gap lies
    between the quotients of a close pair (the float difference of two
    quotients exceeds 1 only if the exact one does), so its cells still
    differ by at most 1; rows on either side of a gap land at least 2 cells
    apart and are never candidates.  Dense values (no gap wider than a
    cell) keep floor(u) - min.  On the symbolic cube, whose first
    coordinate takes the values 0, 1/2 and 1, cells 0, 2 and 4 at r = 0.4
    instead of 0, 1 and 2 cut the predicted candidates of the N=3, depth-8
    cube from 16,737,111 to 7,171,173.
    """
    count, steps, dim = orbits.shape
    widths = np.empty(0)
    if _TINY <= r < math.inf:
        width = r * (1.0 + KEY_MARGIN)
        if isinstance(s, Lp):
            widths = np.full(dim, width)
        else:
            coef = 2.0 ** (1 - np.arange(1, dim + 1)) - 2.0**-dim
            widths = width / coef[width < coef]
            if widths.size == 0 and r < float(norm_block(np.ones((1, dim)), s)[0]):
                widths = np.array([1.0 + KEY_MARGIN])
    with np.errstate(over="ignore"):  # an overflowed quotient voids its key
        u = orbits[:, :, : widths.size].real / widths
    q = np.floor(u)
    lo, hi = q.min(axis=0), q.max(axis=0)
    usable = (lo >= -KEY_QUOTIENT_CAP) & (hi <= KEY_QUOTIENT_CAP)
    u, keyed = u[:, usable], q[:, usable] - lo[usable]
    top = np.sort(u, axis=0)
    wide = np.diff(top, axis=0) > 1  # gaps wider than a cell, below top[1:]
    for k in np.flatnonzero(wide.any(axis=0)):
        keyed[:, k] += np.searchsorted(top[1:, k][wide[:, k]], u[:, k], "right")
    cells = np.zeros((count, steps, widths.size), dtype=np.int32)
    cells[:, usable] = keyed
    return cells.reshape(count, -1), usable.ravel()


def _pair_counts(codes: np.ndarray, offsets=(0,)) -> np.ndarray:
    """Per column of cell codes, the pairs i < j whose codes differ by an
    offset, give or take 1."""
    counts = []
    for col in codes.T:
        sc = np.sort(col)
        near = sum(
            int(np.searchsorted(sc, sc + o + 1, "right").sum())
            - int(np.searchsorted(sc, sc + o - 1, "left").sum())
            for o in offsets
        )
        counts.append((near - sc.size) // 2)
    return np.array(counts, dtype=np.int64)


def _joint_codes(first: np.ndarray, second: np.ndarray, stride: int):
    """Codes first * stride + second of two keys' cells, and the offsets of
    the neighbouring cell rows.  With every second cell below stride - 2, a
    cell's +-1 neighbours never alias."""
    return first * stride + second, (-stride, 0, stride)


def _codes(cells: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """One sortable code per row for its (one or two) cells, and the code
    offsets of the neighbouring cell rows: a row's candidates are the codes
    within 1 of code + offset, for each offset."""
    c = cells.astype(np.int64)
    if c.shape[1] == 1:
        return c[:, 0], (0,)
    return _joint_codes(c[:, 0], c[:, 1], int(c[:, 1].max()) + 3)


def _plan_keys(orbits: np.ndarray, n: int, r: float, s: SpaceSpec):
    """The hashing plan for the pairs within r over t < n with the fewest
    predicted candidate pairs, and that prediction.

    A plan is the cells of zero, one or two hashing keys (zero: all pairs)
    and the cells of the filter keys, which every candidate must also share
    or neighbour before its exact distance is taken.  The first key (t < n)
    scores best on its own, the second best jointly with it; keys are scored
    on every k-th row (at most JOINT_ROWS rows), the chosen plan on all
    rows, each by counting pairs off sorted cell codes.  Filter keys are
    every usable key, when they are few enough (at most a quarter of the
    n * dim coordinates) to cost less than the distances they save.  All
    pairs are the plan when no key prunes or when they fit one block.

    Filters, measured with one thread (2 cores, numpy 2.4.6): they fire in
    practice only under the aggregated norm, and there cut the `sp-family`
    workload's task_s from 0.90 to 0.82 s (medians of 10 alternating runs,
    quartile distance 0.04 s), the c5 family m=5, n=4 build from 3.7 to
    1.4 s and the m=10, n=4 count from 9.0 to 1.1 s.  Filtering by every
    key instead, on the l^p grids of `grid-slopes`, cost 25% of task_s.
    """
    count, _, dim = orbits.shape
    everything = count * (count - 1) // 2
    none = np.empty((count, 0), dtype=np.int32)
    if everything <= PAIR_BLOCK:
        return (none, none), everything
    cells, usable = _key_cells(orbits[:, :n], r, s)
    if not usable.any():
        return (none, none), everything
    sub = cells[:: -(-count // JOINT_ROWS)].astype(np.int64)
    first = int(np.argmin(np.where(usable, _pair_counts(sub), everything)))
    fewest = everything
    if usable[first]:
        fewest = int(_pair_counts(cells[:, [first]].astype(np.int64))[0])
    if fewest >= everything:
        return (none, none), everything
    plan = [first]
    if fewest:
        joint = _pair_counts(*_joint_codes(sub[:, [first]], sub, int(cells.max()) + 3))
        second = int(np.argmin(np.where(usable, joint, everything)))
        code, offsets = _codes(cells[:, [first, second]])
        both = int(_pair_counts(code[:, np.newaxis], offsets)[0])
        if both < fewest:
            plan, fewest = [first, second], both
    filters = cells[:, usable] if 4 * int(usable.sum()) <= n * dim else none
    return (cells[:, plan], filters), fewest


def _candidate_blocks(cells: np.ndarray):
    """Candidate pairs (I, J), i < j, in blocks of consecutive rows i."""
    count = cells.shape[0]
    if cells.shape[1] == 0:
        order = np.arange(count)
        lo, hi = order[:, None] + 1, np.full((count, 1), count)
    else:
        codes, offsets = _codes(cells)
        order = np.argsort(codes, kind="stable")
        sc = codes[order]
        lo = np.stack([np.searchsorted(sc, codes + o - 1, "left") for o in offsets], axis=1)
        hi = np.stack([np.searchsorted(sc, codes + o + 1, "right") for o in offsets], axis=1)
    lens = hi - lo
    ends = np.cumsum(lens.sum(axis=1))
    row = 0
    while row < count:
        done = int(ends[row - 1]) if row else 0
        stop = max(row + 1, int(np.searchsorted(ends, done + 2 * PAIR_BLOCK, "right")))
        span = lens[row:stop].ravel()
        tails = np.cumsum(span)
        J = order[np.arange(int(tails[-1])) - np.repeat(tails - span - lo[row:stop].ravel(), span)]
        I = np.repeat(np.arange(row, stop), lens[row:stop].sum(axis=1))
        pick = J > I
        yield I[pick], J[pick]
        row = stop


def _neighbours(filters: np.ndarray, I, J) -> np.ndarray:
    """Which row pairs (I, J) share or neighbour a cell on every filter key
    (columns of `_key_cells`): all of them when there is no key."""
    return (np.abs(filters[I] - filters[J]) <= 1).all(axis=-1)


def _near_pairs(orbits: np.ndarray, n: int, r: float, s: SpaceSpec, plan):
    hashed, filters = plan
    step = max(1, min(PAIR_BLOCK, BLOCK_ELEMS // (n * orbits.shape[2])))
    for I, J in _candidate_blocks(hashed):
        if filters.shape[1]:
            near = _neighbours(filters, I, J)
            I, J = I[near], J[near]
        for at in range(0, I.size, step):
            i, j = I[at : at + step], J[at : at + step]
            d = bowen_distances(orbits, i, j, n, s)
            close = d <= r
            yield i[close], j[close], d[close]


def near_pairs(orbits: np.ndarray, n: int, r: float, s: SpaceSpec):
    """Every row pair i < j of `orbits` (shape (count, steps >= n, dim))
    whose Bowen distance over t < n is <= r, with that distance.

    Yields blocks (I, J, D): I is nondecreasing over the whole stream, and
    the j of one i come in cell order.  Candidates come from fixed-radius
    near-neighbour cell hashing (Bentley, Stanat & Williams, IPL 6(6),
    1977) on exact lower bounds of the Bowen distance (see `_key_cells` and
    `_plan_keys`); D is computed by `bowen_distances`, bit for bit the
    arithmetic of the witness scan, over at most PAIR_BLOCK pairs (and
    BLOCK_ELEMS coordinates) at a time.
    """
    plan, _ = _plan_keys(orbits, n, r, s)
    yield from _near_pairs(orbits, n, r, s, plan)


def _carried_pairs(orbits: np.ndarray, n_values, r: float, s: SpaceSpec, plan):
    """The pairs within r at every n of the ascending `n_values`, as blocks
    (k, I, J, D) with D the Bowen distance over t < n_values[k].

    The pairs within r at n_values[0] are streamed from `_near_pairs`.  The
    pairs within r at n_values[k - 1] gather into blocks of at most
    min(PAIR_BLOCK, BLOCK_ELEMS / dim) pairs, and a block is carried to
    n_values[k] when the next would overfill it or the stream ends: its
    running maximum D is extended by one time slice at a time (every slice
    in between when `n_values` skips some) and its pairs beyond r are
    dropped, since Bowen distances only grow with n.
    Gathered blocks keep their order, so for every k the blocks come in
    nondecreasing I.  `norm_block` works row by row and max is exact, so D
    equals `bowen_distances` bit for bit.  At most one gathering block per
    n is held.
    """
    fill = max(1, min(PAIR_BLOCK, BLOCK_ELEMS // orbits.shape[2]))
    waiting = [[] for _ in n_values]  # per k >= 1: blocks within r at n_values[k - 1]
    held = [0] * len(n_values)

    def carry(k):
        I, J, D = (np.concatenate(parts) for parts in zip(*waiting[k]))
        waiting[k].clear()
        held[k] = 0
        for t in range(n_values[k - 1], n_values[k]):
            D = np.maximum(D, norm_block(orbits[I, t] - orbits[J, t], s))
        close = D <= r
        return I[close], J[close], D[close]

    def climb(k, I, J, D):
        # yield a block at n_values[k], then gather it for the next n; the
        # pairs gathered before it are carried on first when it would
        # overfill their block
        while I.size:
            yield k, I, J, D
            k += 1
            if k == len(n_values):
                return
            full = held[k] + I.size > fill
            if full:
                carried = carry(k)
            waiting[k].append((I, J, D))
            held[k] += I.size
            if not full:
                return
            I, J, D = carried

    for I, J, D in _near_pairs(orbits, n_values[0], r, s, plan):
        yield from climb(0, I, J, D)
    for k in range(1, len(n_values)):
        if waiting[k]:
            yield from climb(k, *carry(k))


def _carried_marks(orbits: np.ndarray, n_values, eps: np.ndarray, s: SpaceSpec, plan) -> np.ndarray:
    """Greedy scans of every (n, eps) cell in one carried pass: returns
    marked[n, eps, row], True where the row is excluded.

    For each cell, rows are walked in lexicographic order; a row unmarked
    for it is kept and marks its later neighbours within that eps.  Marks
    only come from earlier rows, so a row's mark is final when its pairs
    arrive and the kept rows are exactly those of the witness scan.
    """
    marked = np.zeros((len(n_values), eps.size, orbits.shape[0]), dtype=bool)
    limit = eps[:, np.newaxis]
    none_kept, all_kept = b"\x01" * eps.size, b"\x00" * eps.size
    for k, I, J, D in _carried_pairs(orbits, n_values, float(eps.max()), s, plan):
        cell = marked[k]
        hits = D <= limit
        starts = np.flatnonzero(np.diff(I, prepend=-1))
        ends = np.append(starts[1:], I.size).tolist()
        for i, a, b in zip(I[starts].tolist(), starts.tolist(), ends):
            state = cell[:, i].tobytes()
            if state == all_kept:
                cell[:, J[a:b]] |= hits[:, a:b]
            elif state != none_kept:
                cell[:, J[a:b]] |= hits[:, a:b] & ~cell[:, i, np.newaxis]
    return marked


def _carry_plan(orbits: np.ndarray, n_values, eps_values, s: SpaceSpec):
    """The key plan of the carried pass over the ascending `n_values`, or
    None when the witness scan is the cheaper path.

    The carried pass pays per pair evaluation: n_values[0] slices for each
    candidate, then, for each pair still within max(eps), one sweep per n
    and one slice per step to the next n.  The scan pays per row, n and eps
    column.  An upper bound on the pass's work uses the predicted
    candidates for every later pair; when it exceeds the scan's, the pass
    runs without sweeps on every k-th row (k >= 4, at most JOINT_ROWS rows,
    so at most a sixteenth of the pass's pair work), its pair work scaled
    by (count / rows)^2, and stops once the scan is cheaper.

    Measured with one thread on 17 tables (2 cores, numpy 2.4.6): the N=2,
    3 and 4 cubes, the c1 and benchmark grids, a rotation of a 64x64 grid
    and two identity lines.  A pair evaluation of the pass cost 9-120 ns
    and a scan row per n and eps 7-97 us, a break-even between 139 and
    1,630 evaluations.  SCAN_ROW_PAIRS = 500 picks the faster path on 16
    tables; on the 4096-point identity line (1,578 evaluations) it takes
    the scan, 0.73 s against 0.70 s.  The rotation by 0.7 rad with eps 0.5
    alone needs about 2,000 per scan row, n and eps and takes the scan
    (0.83 s, pass 2.4 s); with eps 2^-3..2^-7 it needs 37 and takes the
    pass (0.54 s, scan 4.1 s).  Figures in BENCH_8.json.  Since cells are
    numbered across value gaps, c3's N=3, depth-8 cube needs 135 (189
    before) and its table took 2.6 s against 4.9 s, one run each (the scan,
    17 s, does not hash); none of the 17 tables changed path (BENCH_14.json).
    """
    count = orbits.shape[0]
    r = max(eps_values)
    plan, predicted = _plan_keys(orbits, n_values[0], r, s)
    budget = SCAN_ROW_PAIRS * count * len(n_values) * len(eps_values)
    steps = [1 + b - a for a, b in zip(n_values, n_values[1:])] + [1]
    work = predicted * n_values[0]
    if work + predicted * sum(steps) <= budget:
        return plan
    every = max(4, -(-count // JOINT_ROWS))
    scale = (count / -(-count // every)) ** 2
    hashed, filters = plan
    sampled = (hashed[::every], filters[::every])
    for k, I, _, _ in _carried_pairs(orbits[::every], n_values, r, s, sampled):
        work += scale * I.size * steps[k]
        if work > budget:
            return None
    return plan


def _greedy_indices(orbits: np.ndarray, eps: float, s: SpaceSpec) -> list[int]:
    """Greedy maximal separated subset of the ordered sample, by a witness
    scan: the fallback of the carried pass when its pairs barely prune.

    orbits has shape (count, steps, dim).  A candidate is kept when its
    dynamical distance to every kept point exceeds eps.  Distances at the
    first and last time step are valid lower bounds for the Bowen max and
    prune most full evaluations.
    """
    count, steps, dim = orbits.shape
    kept = np.empty_like(orbits)
    kept[0] = orbits[0]
    kept_idx = [0]
    use_witness = steps > 2
    if use_witness:
        w_lo, w_hi = orbits[:, 0, :], orbits[:, -1, :]
        kw_lo, kw_hi = np.empty_like(w_lo), np.empty_like(w_hi)
        kw_lo[0], kw_hi[0] = w_lo[0], w_hi[0]
    for j in range(1, count):
        k = len(kept_idx)
        if use_witness:
            lb = np.maximum(
                norm_block(kw_lo[:k] - w_lo[j], s),
                norm_block(kw_hi[:k] - w_hi[j], s),
            )
            unresolved = lb <= eps
            if unresolved.any():
                full = norm_block(kept[:k][unresolved] - orbits[j], s).max(axis=1)
                ok = bool((full > eps).all())
            else:
                ok = True
        else:
            full = norm_block(kept[:k] - orbits[j], s).max(axis=1)
            ok = bool((full > eps).all())
        if ok:
            kept[k] = orbits[j]
            if use_witness:
                kw_lo[k], kw_hi[k] = w_lo[j], w_hi[j]
            kept_idx.append(j)
    return kept_idx


def greedy_separated(
    T: Operator, K: CompactSample, n: int, eps: float, s: SpaceSpec
) -> list[Vector]:
    """Maximal (not necessarily maximum) (n, eps)-separated subset.

    Points are scanned in lexicographic coordinate order and kept when
    separated from everything kept so far; the result is deterministic and
    maximal (every excluded point violates separation with a kept one).
    This is the one-cell case of `sn_table`.
    """
    n = _bowen_time(n)
    if not eps > 0:
        raise ValidationError("separation scale eps must be positive")
    kept = _kept_rows(_sample_orbits(T, K, n), (n,), (eps,), s, "greedy")[0, 0]
    return [K.points[i] for i in np.flatnonzero(kept)]


def _conflict_graphs(orbits: np.ndarray, n_values, eps_values, s: SpaceSpec) -> list:
    """Conflict graphs (Bowen distance <= eps) of every (n, eps) cell, as
    graphs[k][j][row], one bitmask of neighbours per row, for the ascending
    `n_values`: every pair's distances over t < max(n), BLOCK_ELEMS
    coordinates at a time, their running maximum read at each n (that is
    `bowen_distances` bit for bit: `norm_block` works row by row), and each
    cell's adjacency packed into 64-bit words per row."""
    orbits = orbits[:, : n_values[-1]]
    count, last, _ = orbits.shape
    rows = np.arange(count)
    I, J = np.nonzero(rows[:, np.newaxis] < rows)
    step = max(1, BLOCK_ELEMS // orbits[0].size)
    D = np.empty((I.size, last))
    for a in range(0, I.size, step):
        D[a : a + step] = norm_block(orbits[I[a : a + step]] - orbits[J[a : a + step]], s)
    D = np.maximum.accumulate(D, axis=1)[:, np.subtract(n_values, 1)]
    close = D.T[:, np.newaxis] <= np.array(eps_values)[:, np.newaxis]
    words = -(-count // 64)
    adjacent = np.zeros((len(n_values), len(eps_values), count, 64 * words), dtype=bool)
    adjacent[..., I, J] = adjacent[..., J, I] = close
    packed = np.packbits(adjacent, axis=-1, bitorder="little").view("<u8")
    masks = packed[..., 0].ravel().tolist()
    for w in range(1, words):
        masks = [m | h << 64 * w for m, h in zip(masks, packed[..., w].ravel().tolist())]
    cells = [masks[a : a + count] for a in range(0, len(masks), count)]
    return [cells[a : a + len(eps_values)] for a in range(0, len(cells), len(eps_values))]


def _greedy_sweep(masks: list[int]) -> int:
    """The greedy separated set of a conflict graph as a vertex bitmask:
    each vertex, in index order, is kept unless a kept one neighbours it."""
    kept = marked = 0
    for v, near in enumerate(masks):
        if not marked >> v & 1:
            kept |= 1 << v
            marked |= near
    return kept


def _max_independent_set(masks: list[int]) -> int:
    """Maximum independent set of a conflict graph as a vertex bitmask: the
    lexicographically greatest one, vertex 0 most significant.

    Memoised search over candidate bitmasks (Tarjan & Trojanowski, SIAM J.
    Comput. 6(3), 1977): `size(cand)` branches on the lowest vertex v of
    `cand`, and takes v without branching when it has at most one neighbour
    in `cand`, since some maximum set then contains v.  The set is rebuilt
    by walking the vertices in index order and keeping each one that a
    maximum set of the remaining candidates can contain.
    """
    memo = {0: 0}

    def size(cand: int) -> int:
        if cand not in memo:
            v = cand & -cand
            near = masks[v.bit_length() - 1] & cand
            best = 1 + size(cand & ~near & ~v)
            if near & (near - 1):
                best = max(best, size(cand & ~v))
            memo[cand] = best
        return memo[cand]

    cand, chosen = (1 << len(masks)) - 1, 0
    while cand:
        v = cand & -cand
        rest = cand & ~masks[v.bit_length() - 1] & ~v
        if 1 + size(rest) == size(cand):
            chosen |= v
            cand = rest
        else:
            cand &= ~v
    return chosen


def max_separated_exact(
    T: Operator, K: CompactSample, n: int, eps: float, s: SpaceSpec
) -> list[Vector]:
    """True maximum (n, eps)-separated subset, by a memoised search over the
    conflict graph; the oracle against which the greedy scan is judged.

    When several maximum sets tie, the lexicographically greatest in the
    sample's lexicographic order is returned: its first point is as early
    as any maximum set allows, then its second, and so on.
    """
    if len(K) > EXACT_SAMPLE_CAP:
        raise SampleSizeError(f"exact search is capped at {EXACT_SAMPLE_CAP} points, got {len(K)}")
    n = _bowen_time(n)
    if not eps > 0:
        raise ValidationError("separation scale eps must be positive")
    kept = _kept_rows(_sample_orbits(T, K, n), (n,), (eps,), s, "exact")[0, 0]
    return [K.points[i] for i in np.flatnonzero(kept)]


def _kept_rows(orbits: np.ndarray, n_values, eps_values, s: SpaceSpec, method: str) -> np.ndarray:
    """kept[k, j, row]: the rows of the separated set of the cell
    (n_values[k], eps_values[j]), for the ascending `n_values`.

    The one place that chooses how a table is counted, from its size alone.
    A table whose pairs fit one block (count(count - 1)/2 <= PAIR_BLOCK: at
    most 91 rows, every exact table) takes its cells from
    `_conflict_graphs`: a greedy cell is a bitmask sweep (`_greedy_sweep`),
    an exact one the maximum independent set.  This cut the `exact-oracle`
    benchmark pass from 0.93 to 0.65 s (BENCH_16.json).  Larger tables come
    from the carried pass, or from the witness scan per cell when
    `_carry_plan` finds the scan cheaper.  Separation only improves with n,
    so once a cell keeps every row, so do the later cells of its column.
    """
    count = orbits.shape[0]
    dense = method == "exact" or count * (count - 1) // 2 <= PAIR_BLOCK
    if not dense:
        plan = _carry_plan(orbits, n_values, eps_values, s)
        if plan is not None:
            return ~_carried_marks(orbits, n_values, np.array(eps_values), s, plan)
    graphs = _conflict_graphs(orbits, n_values, eps_values, s) if dense else None
    search = _max_independent_set if method == "exact" else _greedy_sweep
    kept = np.zeros((len(n_values), len(eps_values), count), dtype=bool)
    for j, eps in enumerate(eps_values):
        for k, n in enumerate(n_values):
            if k and kept[k - 1, j].all():
                kept[k:, j] = True
                break
            if graphs is None:
                kept[k, j, _greedy_indices(orbits[:, :n], eps, s)] = True
            else:
                best = search(graphs[k][j])
                kept[k, j] = [best >> i & 1 for i in range(count)]
    return kept


@dataclass(frozen=True)
class EntropyTable:
    """Counts s(n, eps) over a grid, with monotonicity repairs recorded."""

    entries: dict[tuple[int, float], int]
    n_values: tuple[int, ...]
    eps_values: tuple[float, ...]  # descending
    sample_size: int
    method: str
    operator_id: str = ""
    sample_id: str = ""
    repaired: tuple[tuple[int, float], ...] = ()

    def s(self, n: int, eps: float) -> int:
        return self.entries[(n, eps)]

    def saturated(self, n: int, eps: float) -> bool:
        return self.entries[(n, eps)] >= SATURATION_FRACTION * self.sample_size

    def to_csv(self) -> str:
        lines = ["n,epsilon,s,method,saturated"]
        for eps in self.eps_values:
            for n in self.n_values:
                sat = "true" if self.saturated(n, eps) else "false"
                lines.append(f"{n},{eps!r},{self.entries[(n, eps)]},{self.method},{sat}")
        return "\n".join(lines) + "\n"


def sn_table(
    T: Operator,
    K: CompactSample,
    n_range,
    eps_list,
    s: SpaceSpec,
    method: str = "greedy",
    operator_id: str = "",
) -> EntropyTable:
    """Fill the (n, eps) grid of separated-set counts.

    Every cell comes from `_kept_rows` over the orbits of the sample's rows,
    in their canonical order: the conflict graphs of all pairs for at most
    91 rows, else one carried pass or the witness scan per cell (see the
    module docstring).  Bowen times are integers (or integral floats) >= 1
    and every eps is positive (NaN is refused).
    Greedy counts can violate the monotonicity laws (nondecreasing in n,
    nonincreasing in eps) in pathological scan orders; violations are
    repaired by running maxima and flagged.
    """
    n_values = tuple(sorted(set(_bowen_time(n) for n in n_range)))
    eps_values = tuple(sorted(set(float(e) for e in eps_list), reverse=True))
    if not n_values or not eps_values:
        raise ValidationError("n range and eps list must be nonempty")
    if any(not e > 0 for e in eps_values):
        raise ValidationError("eps values must be positive")
    if method not in ("greedy", "exact"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "exact" and len(K) > EXACT_SAMPLE_CAP:
        raise SampleSizeError(f"exact search is capped at {EXACT_SAMPLE_CAP} points, got {len(K)}")

    orbits = _sample_orbits(T, K, max(n_values))
    counts = _kept_rows(orbits, n_values, eps_values, s, method).sum(axis=2).tolist()

    entries: dict[tuple[int, float], int] = {}
    repaired: list[tuple[int, float]] = []
    for j, eps in enumerate(eps_values):
        for i, n in enumerate(n_values):
            v = counts[i][j]
            lo = v
            if i > 0:
                lo = max(lo, entries[(n_values[i - 1], eps)])
            if j > 0:
                lo = max(lo, entries[(n, eps_values[j - 1])])
            if lo > v:
                repaired.append((n, eps))
            entries[(n, eps)] = lo
    return EntropyTable(
        entries=entries,
        n_values=n_values,
        eps_values=eps_values,
        sample_size=len(K),
        method=method,
        operator_id=operator_id,
        sample_id=K.label,
        repaired=tuple(repaired),
    )


@dataclass(frozen=True)
class SlopeFit:
    epsilon: float
    slope: float
    residual: float
    window: tuple[int, int]
    n_points: int
    valid: bool
    note: str = ""


@dataclass(frozen=True)
class EntropyEstimate:
    """Per-eps growth slopes of log s_n and the headline estimate.

    `h_estimate` is the slope at the smallest eps carrying a valid fit;
    when that is not the smallest eps in the table the fallback is flagged.
    """

    slopes: tuple[SlopeFit, ...]
    h_estimate: float
    h_estimate_epsilon: float
    fallback: bool
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        chosen = next(
            (f for f in self.slopes if f.valid and f.epsilon == self.h_estimate_epsilon),
            None,
        )
        return {
            "h_estimate": self.h_estimate,
            "h_estimate_epsilon": self.h_estimate_epsilon,
            "h_estimate_log2": self.h_estimate / math.log(2.0),
            "window": list(chosen.window) if chosen else None,
            "fallback": self.fallback,
            "slopes": [
                {
                    "epsilon": f.epsilon,
                    "slope": f.slope,
                    "residual": f.residual,
                    "window": list(f.window),
                    "valid": f.valid,
                    "note": f.note,
                }
                for f in self.slopes
            ],
            "diagnostics": self.diagnostics,
        }


def _fit_slope(ns: list[int], logs: list[float]) -> tuple[float, float]:
    if all(v == logs[0] for v in logs):
        return 0.0, 0.0  # constant counts: slope exactly zero
    x = np.asarray(ns, dtype=float)
    y = np.asarray(logs, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    res = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    return float(max(slope, 0.0)), res


def entropy_estimate(table: EntropyTable, n_window: tuple[int, int] | None = None) -> EntropyEstimate:
    """Least-squares slope of log s_n per eps over the unsaturated prefix.

    Saturated cells (within 5% of the sample size) are excluded; each fit
    needs at least three surviving points.  Raises SaturationError when no
    eps offers a valid window.
    """
    if n_window is not None:
        lo, hi = n_window
        if lo > hi or lo < min(table.n_values) or hi > max(table.n_values):
            raise ValidationError(f"fit window {n_window} outside table range")
        ns_all = [n for n in table.n_values if lo <= n <= hi]
    else:
        ns_all = list(table.n_values)

    fits: list[SlopeFit] = []
    for eps in table.eps_values:
        ns, logs = [], []
        for n in ns_all:
            if table.saturated(n, eps):
                break  # longest unsaturated prefix
            ns.append(n)
            logs.append(math.log(table.s(n, eps)))
        if len(ns) >= 3:
            slope, res = _fit_slope(ns, logs)
            fits.append(
                SlopeFit(eps, slope, res, (ns[0], ns[-1]), len(ns), True)
            )
        else:
            note = "all saturated" if not ns else f"only {len(ns)} unsaturated points"
            fits.append(SlopeFit(eps, math.nan, math.nan, (0, 0), len(ns), False, note))

    valid = [f for f in fits if f.valid]
    if not valid:
        raise SaturationError(
            "every eps column saturates before a 3-point window; refine the sample"
        )
    chosen = min(valid, key=lambda f: f.epsilon)
    fallback = chosen.epsilon != min(table.eps_values)
    return EntropyEstimate(
        slopes=tuple(fits),
        h_estimate=chosen.slope,
        h_estimate_epsilon=chosen.epsilon,
        fallback=fallback,
        diagnostics={
            "repaired_cells": len(table.repaired),
            "method": table.method,
            "sample_size": table.sample_size,
        },
    )


def spectral_entropy(sd: SpectralData | SpectrumDisc) -> float:
    """sum multiplicity * log|lambda| over eigenvalues with |lambda| > 1.

    Needs listed eigenvalues with a certified tail (every unlisted modulus
    <= 1); moduli within UNIT_CIRCLE_TOL of 1 are treated as exactly on the
    circle.  A disc spectrum (a constant-weight shift) lists none and is
    refused.
    """
    if isinstance(sd, SpectrumDisc):
        raise UnsupportedOperatorError(
            f"the spectrum is the closed disc of radius {sd.radius:.6g}, with no "
            "listed eigenvalues to sum log+ over"
        )
    if not sd.tail_certified:
        raise UncertifiedSpectrumError(
            f"unlisted eigenvalues are only bounded by {sd.tail_sup}; "
            "the log+ sum over the listed prefix is not certified"
        )
    terms = [
        mult * math.log(abs(lam))
        for lam, mult in sd.eigenvalues
        if abs(lam) > 1.0 + UNIT_CIRCLE_TOL
    ]
    return math.fsum(terms) if terms else 0.0


def eigenplane_lower_bound(eigs) -> float:
    """n * log r for n distinct eigenvalues sharing one modulus r > 1.

    Certified lower bound for the entropy of any operator carrying these as
    point-spectrum eigenvalues with independent eigenvectors.
    """
    vals = [complex(v) for v in eigs]
    if not vals:
        raise ValidationError("need at least one eigenvalue")
    r = abs(vals[0])
    tol = 1e-12 * max(r, 1.0)  # moduli and eigenvalues this close count as equal
    if any(abs(abs(v) - r) > tol for v in vals):
        raise ValidationError(
            "eigenvalue moduli differ; use the spectral entropy sum instead"
        )
    if r <= 1.0:
        raise ValidationError(f"common modulus must exceed 1, got {r}")
    for i, v in enumerate(vals):
        for w in vals[i + 1 :]:
            if abs(v - w) <= tol:
                raise ValidationError("eigenvalues must be distinct")
    return len(vals) * math.log(r)
