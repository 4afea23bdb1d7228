"""Separated-set entropy estimation and the spectral entropy formula.

Empirical side: counts of (n, eps)-separated subsets of a finite sample
under the dynamical metric max_{0<=i<n} d(T^i x, T^i y), computed either by
a deterministic greedy sweep (maximal set, lexicographic point order) or by
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
(`_max_independent_set`), each giving its set as one Python-int bitmask,
bit i for row i.  A larger greedy table is one carried pass
(`_carried_pairs`), one loop over blocks of candidate rows: each row gets
only its candidates j > i, as runs of its neighbouring cells' rows, and
each block's pairs go through `_pairs_within`, the one kernel that takes
Bowen distances from orbit slices.  Orbits are grown time-major
(`orbit_block`): the points of every row at time t are one contiguous
slab, so the slice at time t of a block's pairs is gathered from slab t,
with no copy of the orbits.  It takes them one slice at a time at
the smallest n, dropping a pair at the first slice that puts it beyond its
radius, and carries the pairs within max(eps) through every later n.  Each
pair records a hit bit per (n, eps) cell, and each row is swept once
across every cell (`_carried_marks`), keeping exactly the rows a greedy
scan of each cell keeps.  The sweep's marks steer the pass: a row's reach
is the largest eps of a column where it is still unmarked at some n, a
row of reach 0 gets no candidates, and a row already marked in every cell
at the smallest n enters at the second n, with its candidates from the
key plan there.  `near_pairs` is the same pass at one n, with every row
reaching r.  Maxima and ands over a short axis of many rows are
elementwise folds (`spaces.fold`).
`_kept_rows` chooses the path of every count from the table's size, and
hands on every cell's kept rows in that one form, the search's bitmask (the
carried pass gives its cells' kept rows as such masks too): a count is the
mask's `int.bit_count()`, and a set's rows are its set bits.

Spectral side: sum of multiplicity * log|lambda| over eigenvalues of
modulus > 1 (zero if none), and the n*log(r) lower bound carried by n
independent eigenvectors on a common modulus circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    SampleSizeError,
    SaturationError,
    UncertifiedSpectrumError,
    UnsupportedOperatorError,
    ValidationError,
)
from .operators import Operator, SpectralData, SpectrumDisc, orbit_block
from .spaces import Lp, SpaceSpec, Vector, fold, norm_block, padded_block

SATURATION_FRACTION = 0.95  # s >= 95% of |K| counts as saturated
EXACT_SAMPLE_CAP = 24
UNIT_CIRCLE_TOL = 1e-12  # moduli this close to 1 contribute no log+ term
PAIR_BLOCK = 4096  # candidate pairs per exact-distance evaluation
BLOCK_ELEMS = 2**16  # and at most this many coordinates (pairs * n * dim)
KEY_MARGIN = 1e-9  # relative widening of every key window (see _key_cells)
KEY_QUOTIENT_CAP = 2.0**21  # largest |key value| / cell width of a usable key
JOINT_ROWS = 1024  # rows sampled to score keys
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, init=False, eq=False)
class CompactSample:
    """Finite sample standing in for a compact set.

    `resolution` is the caller-declared covering radius of the sample inside
    the intended compact set; it is recorded, not verified.

    The sample is its block `rows`: the points (Vectors or 1-D coordinate
    arrays, or one (count, dim) array) zero-padded by `padded_block`
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
        if not 0 < resolution < math.inf:
            raise ValidationError(f"declared resolution must be finite and positive, got {resolution!r}")
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
    if not points_per_axis or min(points_per_axis) < 1:
        raise ValidationError(f"a grid needs one or more axes of at least one point, got {points_per_axis}")
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
    return orbits if orbits.imag.any() else orbits.real.copy(order="K")  # "K" keeps the slabs


def bowen_distances(
    orbits: np.ndarray, I: np.ndarray, J: np.ndarray, n: int, s: SpaceSpec
) -> np.ndarray:
    """Bowen distances max_{t<n} d(x_i(t), x_j(t)) of the row pairs (I, J)."""
    return fold(np.maximum, norm_block(orbits[I, :n] - orbits[J, :n], s))


def _time_major(orbits: np.ndarray) -> np.ndarray:
    """The orbits (count, steps, dim) as contiguous time-major slabs (steps,
    count, dim), slab t holding every row's point at time t: a view of
    orbits laid out as `orbit_block` grows them, a copy of any other."""
    return np.ascontiguousarray(orbits.transpose(1, 0, 2))


def _pairs_within(slabs: np.ndarray, I: np.ndarray, J: np.ndarray, n_values, R: np.ndarray, r: float, s: SpaceSpec):
    """The row pairs (I, J) within R (one radius per pair) at n_values[0],
    carried through every later n while they stay within r, as blocks
    (kept, levels): kept holds the positions in I of the pairs within R,
    and levels[k] = (at, D) the block positions of the pairs within r at
    n_values[k - 1] (all for k = 0) and their Bowen distances over
    t < n_values[k], until none is left.

    This is the one kernel that takes Bowen distances from orbit slices.
    It reads the orbits as time-major slabs (steps, count, dim)
    (`_time_major`, a view of the orbits `orbit_block` grows), so the slice
    at time t of the pairs is two `take`s of rows I and J from the one
    contiguous slab t, with no per-slice index arithmetic.  On the
    `sp-family` m = 6 family a copy of the slabs would cost more than it
    saves: 11.5 ms against 8.2 ms for its direct verification, from the
    first touch of the copy's 2.5 MB.
    Pairs are taken BLOCK_ELEMS coordinates at a time, one slice at a time:
    at n_values[0] the latest slice (t = n - 1), the first, then t = n - 2
    down to 1, then every slice up to each later n (all slices in between
    when `n_values` skips some).  A pair drops as soon as its running
    maximum passes its radius, R at n_values[0] and r after: the distance
    only grows with more slices, so it stays beyond.  D is `bowen_distances`
    bit for bit, because max is exact in any order and `norm_block` works
    row by row.  An expanding map is widest at its latest slice and a
    contracting one at its first, so under either most far pairs drop
    within two slices.  The direct verification of the `sp-family`
    benchmark's m = 6 family (221 rows, 11 steps, 2,903 candidate pairs,
    none within the radius) takes 1.46 slices a pair instead of 11, and
    7.9 ms instead of 28.6 ms (BENCH_23.json).
    """
    dim = slabs.shape[2]

    def at_slice(i, j, t):  # the distances at time t of the pairs of rows i, j
        return norm_block(slabs[t].take(i, axis=0) - slabs[t].take(j, axis=0), s)

    step = max(1, BLOCK_ELEMS // dim)
    n = n_values[0]
    slices = [n - 1, 0][: min(n, 2)] + list(range(n - 2, 0, -1))
    for a in range(0, len(I), step):
        kept = np.arange(a, min(a + step, len(I)))
        i, j, radius = I[a : a + step], J[a : a + step], R[a : a + step]
        for k, t in enumerate(slices):
            D = at_slice(i, j, t) if k == 0 else np.maximum(D, at_slice(i, j, t))
            close = D <= radius
            if not close.all():
                kept, D, i, j, radius = kept[close], D[close], i[close], j[close], radius[close]
        if not kept.size:
            continue
        at = np.arange(kept.size)
        levels = [(at, D)]
        for n, m in zip(n_values, n_values[1:]):
            close = D <= r
            if not close.all():
                at, D, i, j = at[close], D[close], i[close], j[close]
                if not at.size:
                    break
            for t in range(n, m):
                D = np.maximum(D, at_slice(i, j, t))
            levels.append((at, D))
        yield kept, levels


def _key_coefficients(dim: int) -> np.ndarray:
    """2^{1-c} - 2^{-dim} for c = 1..dim: under the aggregated norm,
    min(1, |D_c(t)|) times coefficient c bounds d_t from below (see
    `_key_cells`)."""
    return 2.0 ** (1 - np.arange(1, dim + 1)) - 2.0**-dim


def _key_cells(orbits: np.ndarray, dim: int, r: float, s: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices (count, steps * keys per step, shifted to start at 0) of
    the (time t, coordinate c) keys for the radius r, ordered by t, and
    which of them are usable.  `orbits` (shape (count, steps, coordinates))
    need only hold the leading coordinates the keys read (the real parts
    will do); dim is the space's.

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
    count, steps, _ = orbits.shape
    widths = np.empty(0)
    if _TINY <= r < math.inf:
        width = r * (1.0 + KEY_MARGIN)
        if isinstance(s, Lp):
            widths = np.full(dim, width)
        else:
            coef = _key_coefficients(dim)
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
    practice only under the aggregated norm, and there cut the c5
    acceptance test (nine families built and counted) from 1.81 to 0.91 s
    (medians of six in-process runs).  Filtering by every key instead, on
    the l^p grids of `grid-slopes`, cost 25% of task_s.
    """
    count, _, dim = orbits.shape
    everything = count * (count - 1) // 2
    none = np.empty((count, 0), dtype=np.int32)
    if everything <= PAIR_BLOCK:
        return (none, none), everything
    cells, usable = _key_cells(orbits[:, :n], dim, r, s)
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


def _candidate_index(cells: np.ndarray):
    """Each row i's candidates j > i under one plan's hashed cells, as runs
    (start, length) into `order` (shapes (count, runs)), and the row's size:
    its candidates counted with the j <= i of its cells (all pairs: j > i).

    Codes are sorted stably, so the rows of one code are in index order:
    each neighbouring code is one run, started after row i by a search on
    (code rank, row).  A row's candidates are the j > i of its neighbour
    ranges, in the same order, without building the j <= i."""
    count = cells.shape[0]
    if cells.shape[1] == 0:
        order = np.arange(count)
        start = order[:, np.newaxis] + 1
        return order, start, count - start, count - start[:, 0]
    codes, offsets = _codes(cells)
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    rank = np.concatenate(([0], np.cumsum(sc[1:] != sc[:-1])))
    key, rows = rank * count + order, np.arange(count)[:, np.newaxis]  # key is sorted
    start = np.empty((count, 3 * len(offsets)), dtype=np.int32)
    lens, sizes = np.empty_like(start), 0
    for k, o in enumerate(offsets):  # the runs of the codes o - 1, o and o + 1 away
        edges = np.searchsorted(sc, codes[:, np.newaxis] + np.arange(o - 1, o + 3))
        lo, hi = edges[:, :-1], edges[:, 1:]
        begin = np.clip(np.searchsorted(key, rank[np.minimum(lo, count - 1)] * count + rows, "right"), lo, hi)
        start[:, 3 * k : 3 * k + 3], lens[:, 3 * k : 3 * k + 3] = begin, hi - begin
        sizes = sizes + edges[:, -1] - edges[:, 0]
    return order, start, lens, sizes


def _candidate_blocks(cells, reach, size: int):
    """Candidate pairs (I, J), i < j, in blocks of consecutive rows i, with
    the radius R of each pair's row i and the level E (0 or 1) at which
    that row enters the pass.

    reach(row, stop) gives the radii and entry levels of the rows
    row..stop - 1, read as their block is taken, so the marks of every
    block swept before steer it (see `_carried_marks`): a row of radius 0
    gets no candidates, and a row entering at level k gets its j > i under
    the plan whose hashed cells are cells(k) (`_candidate_index`), asked
    for once, when a row first enters there.  A block's rows have at most
    `size` candidates, each row counted by its size under the plan it
    takes, or it is one row with more.  The window of rows read for a block
    is sized by each row's smallest size under the plans asked for so far,
    and cut where the sizes the rows take pass `size`: sized by the level-0
    plan alone, blocks of rows entering at level 1 would hold a fraction of
    `size`.  A window whose rows all have radius 0 yields nothing and is
    passed over whole: with one thread, diag(0.5, 0.5) on a 64x64 grid
    (n 1-8, eps 0.5) takes 20 ms instead of 35 ms."""
    order, start, lens, sizes = _candidate_index(cells(0))
    count = order.size
    start, lens, sizes = start[np.newaxis], lens[np.newaxis], sizes[np.newaxis]  # plan k's runs at [k]
    ends = np.cumsum(sizes[0])
    row = 0
    while row < count:
        done = int(ends[row - 1]) if row else 0
        stop = max(row + 1, int(np.searchsorted(ends, done + size, "right")))
        radii, entry = reach(row, stop)
        if not radii.any():  # no row of the window gets a candidate
            row = stop
            continue
        if entry.any() and sizes.shape[0] == 1:  # a first row enters at level 1: read the window again
            more = _candidate_index(cells(1))
            runs = max(start.shape[-1], more[1].shape[-1])

            def pad(x):
                return np.pad(x, ((0, 0), (0, runs - x.shape[-1])))

            order = np.concatenate((order, more[0]))  # plan 1's starts index the second half
            start = np.stack((pad(start[0]), pad(more[1] + count)))
            lens = np.stack((pad(lens[0]), pad(more[2])))
            sizes = np.stack((sizes[0], more[3]))
            ends = np.cumsum(sizes.min(axis=0))
            continue
        rows = np.arange(row, stop)
        taken = np.cumsum(sizes[entry, rows])
        stop = row + max(1, int(np.searchsorted(taken, size, "right")))
        rows, radii, entry = rows[: stop - row], radii[: stop - row], entry[: stop - row]
        live = lens[entry, rows] * (radii > 0)[:, np.newaxis]
        span = live.ravel()
        tails = np.cumsum(span)
        J = order[np.arange(int(tails[-1])) - np.repeat(tails - span - start[entry, rows].ravel(), span)]
        per_row = live.sum(axis=1)
        yield np.repeat(rows, per_row), J, np.repeat(radii, per_row), np.repeat(entry, per_row)
        row = stop


def _neighbours(filters: np.ndarray, I, J) -> np.ndarray:
    """Which row pairs (I, J) share or neighbour a cell on every filter key
    (columns of `_key_cells`): all of them when there is no key."""
    return fold(np.logical_and, np.abs(filters[I] - filters[J]) <= 1)


def near_pairs(orbits: np.ndarray, n: int, r: float, s: SpaceSpec):
    """Every row pair i < j of `orbits` (shape (count, steps >= n, dim))
    whose Bowen distance over t < n is <= r, with that distance.

    Yields blocks (I, J, D): I is nondecreasing over the whole stream, and
    the j of one i come in cell order.  Candidates come from fixed-radius
    near-neighbour cell hashing (Bentley, Stanat & Williams, IPL 6(6),
    1977) on exact lower bounds of the Bowen distance (see `_key_cells` and
    `_plan_keys`); D is computed by `_pairs_within`, bit for bit
    `bowen_distances`.  This is the one-level carried pass: n_values = (n,), and
    every row reaches r.
    """
    plan, _ = _plan_keys(orbits, n, r, s)
    for I, J, ((_, D),) in _carried_pairs(orbits, (n,), r, s, plan):
        yield I, J, D


def _carried_pairs(orbits: np.ndarray, n_values, r: float, s: SpaceSpec, plan, reach=None):
    """The candidate pairs within r at n_values[0] (within reach(i) <= r
    when a reach is given, see `_candidate_blocks`) as blocks (I, J,
    levels), I nondecreasing over the whole stream, with `_pairs_within`'s
    levels.  A row entering at level 0 (every row, without a reach) takes
    its candidates from `plan`, the key plan at n_values[0], so its pairs
    are every pair within r there; a row entering at level 1 takes them
    from the plan at n_values[1] (`_plan_keys` with r), built the first
    time a row enters there, which holds every pair within r over
    t < n_values[1] but may miss pairs within r only at n_values[0].
    Either way the pairs take their distances at n_values[0] and are
    carried alike.

    One loop over blocks of 2 min(2 PAIR_BLOCK, BLOCK_ELEMS / dim)
    candidates counted both ways: each block is filtered by the filter keys
    of its rows' plans (`_neighbours`), and its pairs go through
    `_pairs_within`, which bounds every distance temporary and reads the
    orbits' time-major slabs.  The next block's reach is read once the
    consumer has taken every block before it.
    """
    plans = [plan]

    def cells(k):  # the hashed cells of the plan at n_values[k], built on first use
        if k == len(plans):
            plans.append(_plan_keys(orbits, n_values[k], r, s)[0])
        return plans[k][0]

    if reach is None:

        def reach(row, stop):  # every row reaches r and enters at level 0
            return np.full(stop - row, r), np.zeros(stop - row, dtype=np.intp)

    size = 2 * max(1, min(2 * PAIR_BLOCK, BLOCK_ELEMS // orbits.shape[2]))
    slabs = _time_major(orbits)
    for I, J, R, E in _candidate_blocks(cells, reach, size):
        for k, (_, filters) in enumerate(plans):
            if filters.shape[1]:
                near = (E != k) | _neighbours(filters, I, J)
                I, J, R, E = I[near], J[near], R[near], E[near]
        for kept, levels in _pairs_within(slabs, I, J, n_values, R, r, s):
            yield I[kept], J[kept], levels


def _carried_marks(orbits: np.ndarray, n_values, eps: np.ndarray, s: SpaceSpec, plan) -> list[list[int]]:
    """Greedy scans of every (n, eps) cell in one carried pass: returns
    kept[k][j], the rows kept in the cell (n_values[k], eps[j]) as one
    Python-int bitmask, bit i for row i (the rows its marks leave).

    For each cell, rows are walked in lexicographic order; a row unmarked
    for it is kept and marks its later neighbours within that eps.  Marks
    only come from earlier rows, so a row's marks are final when its first
    pair arrives: each carried pair records one hit bit per cell (D <= eps),
    and each row is swept once across every cell, marked[J] |= hits &
    ~marked[i], keeping exactly the rows of a greedy scan of each cell.

    The marks also prune the pass.  A row's reach is the largest eps of a
    column where it is unmarked at some n (0 when it is marked in every
    cell), read from `marked` as `_candidate_blocks` takes each block of
    rows, after every earlier block is swept: a row of reach 0 gets no
    candidates, and at n_values[0] a pair is kept only when D <= reach(i).
    This drops no mark: a row excluded from a cell marks nothing through it
    (hits & ~marked[i]), D only grows with n, so a pair beyond reach(i) hits
    no cell where i is unmarked, and marks only accumulate, so a reach read
    before its own block is swept is at least the final one and costs work,
    never a mark.  Read after the earlier blocks are swept rather than one
    block ahead, it halves the pairs evaluated on the rotated 32x32 grid
    (eps 0.5, n 1-4: 40,089 instead of 82,233).  With one thread, against
    the witness scan that served these tables before: the 0.7 rad rotation
    of a 64x64 grid (n 1-12) with eps 0.5, 0.25 or 1.0 alone takes
    0.07-0.14 s instead of 2.1-2.5 s, with eps (0.5, 0.01), (0.5, 0.05) or
    (1.0, 0.1) 0.4-0.8 s instead of 2.5-5.4 s, and the identity on an
    800-point line (n 1, 2, eps 10) evaluates 15,790 pairs instead of all
    319,600 (BENCH_19.json).

    The marks also choose where each row enters the pass.  A row of nonzero
    reach marked in every column at n_values[0] when its block is read
    enters at n_values[1]: its candidates come from the key plan there,
    built the first time a row enters, which holds every pair within
    max(eps) over t < n_values[1].  This drops no mark either: marks only
    accumulate, so the row stays excluded from every cell at n_values[0]
    and marks nothing there, and every pair that can hit a later cell is a
    candidate.  Where the points lie closest at n_values[0] the later plan
    is much tighter.  On the N=3, depth-7 cube (n 1-8, eps 0.4, 0.2, 0.1)
    its plan predicts 264,627 candidates against 796,068, 1,502 of the
    2,187 rows enter at n = 2, and the pairs evaluated fall from 796,068 to
    433,512 (c3's depth-8 cube: 7,171,173 to 2,590,866; BENCH_22.json).  A
    table where every row stays live at n_values[0], such as 1.5 R(1) with
    eps down to 2^-7, builds one plan and takes the same path as before.
    Entry stops at n_values[1]: each further plan costs a `_plan_keys` call
    (3-6 ms on that cube, more at later n), and the cube's plans at n = 3
    and 4 predict no fewer candidates than at n = 2.  With one word of
    marks per row (at most 64 cells) the sweep runs on 1-D arrays.
    """
    count, K, E = orbits.shape[0], len(n_values), eps.size
    words, order = -(-K * E // 64), np.sort(eps)
    # cell (k, j) is bit k * E + j of a row's words; a distance above q of the
    # eps hits (k, j) when q <= (eps below eps[j]): hit[q], padded to level k's
    # words and kept word by word
    hit = np.arange(E + 1)[:, np.newaxis] <= np.searchsorted(order, eps)
    spans = [(k * E // 64, np.pad(hit, ((0, 0), (k * E % 64, -(k + 1) * E % 64)))) for k in range(K)]
    spans = [(w, np.packbits(bits, axis=-1, bitorder="little").view("<u8").T.copy()) for w, bits in spans]
    bit = np.arange(64 * words)
    columns = (bit % E == np.arange(E)[:, np.newaxis]) & (bit < K * E)  # column j's bits at every n
    columns = np.packbits(columns, axis=-1, bitorder="little").view("<u8")
    first = np.packbits(bit < E, bitorder="little").view("<u8")  # every column at n_values[0]
    marked = np.zeros((count, words), dtype="<u8")

    def reach(row, stop):
        """Each row's largest eps of a column where it is unmarked at some n,
        and its entry level: 1 for a row of nonzero reach marked in every
        column at n_values[0], else 0."""
        live = (~marked[row:stop, np.newaxis] & columns).any(axis=-1)
        radii = np.where(live, eps, 0.0).max(axis=-1)
        late = (radii > 0) & ~(~marked[row:stop] & first).any(axis=-1)
        return radii, late.astype(np.intp)

    for I, J, levels in _carried_pairs(orbits, n_values, float(eps.max()), s, plan, reach):
        hits = np.zeros((I.size, words), dtype="<u8")
        for k, ((w, bits), (at, D)) in enumerate(zip(spans, levels)):
            q = np.searchsorted(order, D)
            for c, word in enumerate(bits, w):  # word c of level k's bits, by distance rank q
                if k == 0:  # every pair, into zeroed words
                    hits[:, c] = word[q]
                else:
                    hits[:, c][at] |= word[q]
        # single words sweep as 1-D arrays, 1.6x faster than rows of one word
        h, m = (hits[:, 0], marked[:, 0]) if words == 1 else (hits, marked)
        starts = np.flatnonzero(np.diff(I, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [I.size]):
            m[J[a:b]] |= h[a:b] & ~m[I[a]]
    # cell (k, j) keeps the rows whose bit k * E + j is clear; the transposed
    # bits are copied before packing, which packs them 3x faster
    kept = np.unpackbits((~marked).view(np.uint8), axis=-1, count=K * E, bitorder="little").T.copy()
    cells = [int.from_bytes(cell, "little") for cell in np.packbits(kept, axis=-1, bitorder="little")]
    return [cells[k * E : (k + 1) * E] for k in range(K)]


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
    kept = _kept_rows(_sample_orbits(T, K, n), (n,), (eps,), s, "greedy")[0][0]
    return [p for i, p in enumerate(K.points) if kept >> i & 1]


@lru_cache(maxsize=None)
def _pair_layout(count: int):
    """The pairs I < J of `count` rows (row-major), the flat map from each
    ordered pair to its position there (the diagonal to one past the last)
    and the rows' bit weights, bit j of word j // 64; read-only, cached."""
    I, J = np.triu_indices(count, 1)
    where = np.full((count, count), I.size)
    where[I, J] = where[J, I] = np.arange(I.size)
    rows = np.arange(count)
    weights = np.zeros((count, -(-count // 64)), dtype=np.uint64)
    weights[rows, rows // 64] = np.uint64(1) << (rows % 64).astype(np.uint64)
    for a in (I, J, where, weights):
        a.flags.writeable = False
    return I, J, where.ravel(), weights


def _conflict_graphs(orbits: np.ndarray, n_values, eps_values, s: SpaceSpec) -> list:
    """Conflict graphs (Bowen distance <= eps) of every (n, eps) cell, as
    graphs[k][j][row], one bitmask of neighbours per row, for the ascending
    `n_values`: every pair's distances over t < max(n), gathered from the
    orbits' time-major slabs BLOCK_ELEMS coordinates a `norm_block` call
    (one call when they fit), their running maximum over t (that is
    `bowen_distances` bit for bit: `norm_block` works row by row), and each
    cell's masks one integer product, its symmetric 0/1 adjacency times the
    rows' bit weights (`_pair_layout`).  The running maximum is one
    `np.maximum` per time slice, written straight into the pair table's
    row of the next requested n, so no other n is kept."""
    slabs = _time_major(orbits[:, : n_values[-1]])
    steps, count, dim = slabs.shape
    I, J, where, weights = _pair_layout(count)
    step = max(1, BLOCK_ELEMS // (steps * dim))
    D = np.empty((steps, I.size))
    for a in range(0, I.size, step):
        i, j = I[a : a + step], J[a : a + step]
        D[:, a : a + step] = norm_block(slabs.take(i, axis=1) - slabs.take(j, axis=1), s)
    square = np.empty((len(n_values), I.size + 1))
    square[:, -1] = np.inf  # `where` sends the diagonal here
    running, done = D[0], 1
    for out, n in zip(square[:, :-1], n_values):
        if n == done:  # n = 1: the first slice alone
            out[:] = running
        for t in range(done, n):
            running = np.maximum(running, D[t], out=out)
        done = n
    square = square.take(where, axis=1).reshape(-1, 1, count, count)
    adjacent = square <= np.array(eps_values)[:, np.newaxis, np.newaxis]
    masks = adjacent.astype(np.uint64) @ weights
    if weights.shape[1] > 1:  # above 64 rows: join each row's words into one Python int
        masks = np.bitwise_or.reduce(masks.astype(object) << 64 * np.arange(weights.shape[1]), axis=-1, keepdims=True)
    return masks[..., 0].tolist()


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
    kept = _kept_rows(_sample_orbits(T, K, n), (n,), (eps,), s, "exact")[0][0]
    return [p for i, p in enumerate(K.points) if kept >> i & 1]


def _kept_rows(orbits: np.ndarray, n_values, eps_values, s: SpaceSpec, method: str) -> list[list[int]]:
    """kept[k][j]: the rows of the separated set of the cell
    (n_values[k], eps_values[j]), for the ascending `n_values`, as one
    Python-int bitmask, bit i for row i: the form the searches make, so a
    count is `int.bit_count()` and a set's rows are its set bits.

    The one place that chooses how a table is counted, from its size alone.
    A greedy table of more than 91 rows (count(count - 1)/2 > PAIR_BLOCK)
    is one carried pass (`_carried_marks`) over the key plan at
    (n_values[0], max eps), and at (n_values[1], max eps) for the rows
    that enter there, which gives every cell's kept rows as its mask.
    Every other table, every exact one included, takes its cells from
    `_conflict_graphs`: a greedy cell is a bitmask sweep (`_greedy_sweep`),
    an exact one the maximum independent set.  This cut the `exact-oracle` benchmark pass from 0.93 to 0.65 s
    (BENCH_16.json), integer masks by a further 18% (BENCH_25.json), and
    handing the masks on undecoded a further share (BENCH_29.json).
    """
    count = orbits.shape[0]
    if method == "greedy" and count * (count - 1) // 2 > PAIR_BLOCK:
        plan, _ = _plan_keys(orbits, n_values[0], max(eps_values), s)
        return _carried_marks(orbits, n_values, np.array(eps_values), s, plan)
    search = _max_independent_set if method == "exact" else _greedy_sweep
    return [[search(masks) for masks in cells] for cells in _conflict_graphs(orbits, n_values, eps_values, s)]


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
    91 rows, else one carried pass (see the module docstring).  Its count
    is the `int.bit_count()` of the cell's kept-row bitmask.  Bowen times
    are integers (or integral floats) >= 1 and every eps is positive (NaN is
    refused).
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
    counts = [[kept.bit_count() for kept in cells] for cells in _kept_rows(orbits, n_values, eps_values, s, method)]

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
