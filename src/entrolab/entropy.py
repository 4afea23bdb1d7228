"""Separated-set entropy estimation and the spectral entropy formula.

Empirical side: counts of (n, eps)-separated subsets of a finite sample
under the dynamical metric max_{0<=i<n} d(T^i x, T^i y), computed either by
a deterministic greedy scan (maximal set, lexicographic point order) or by
exact branch-and-bound over the conflict graph (maximum set, small samples
only).  A table of counts over an (n, eps) grid feeds a least-squares slope
of log s_n before saturation; the eps -> 0 limit stays represented by the
full per-eps slope list, never a single collapsed number.

Every pairwise question goes through one exact near-pair kernel,
`near_pairs`: the pairs within a radius r, with their Bowen distances.
Rows are hashed into cells on one or two (time, coordinate) keys whose
differences bound the Bowen distance from below (|Re D_c(t)| in l^p,
min(1, |D_c(t)|)(2^{1-c} - 2^{-dim}) under the aggregated norm), with cells
r(1 + 1e-9) wide so rounding never splits a close pair across non-adjacent
cells; only pairs in the same or adjacent cells get an exact distance,
taken with the same `norm_block` arithmetic as a direct evaluation.  The
greedy count of a whole (n, eps) table is one sweep per n over those
pairs for every eps at once (`_sweep`); it keeps exactly the rows the
per-eps scan keeps.  When the keys prune too little (more than
PAIRS_PER_EPS predicted candidates per row, n and eps, as on symbolic
cubes whose coordinates take a few values) the table falls back to the
witness scan `_greedy_indices`, whose eps columns may run on a thread pool.

Spectral side: sum of multiplicity * log|lambda| over eigenvalues of
modulus > 1 (zero if none), and the n*log(r) lower bound carried by n
independent eigenvectors on a common modulus circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    SampleSizeError,
    SaturationError,
    SpaceMismatchError,
    UncertifiedSpectrumError,
    ValidationError,
)
from .operators import Operator, SpectralData, batch_apply, orbit_block, require_finite
from .spaces import Lp, SpaceSpec, Vector, norm_block

SATURATION_FRACTION = 0.95  # s >= 95% of |K| counts as saturated
EXACT_SAMPLE_CAP = 24
UNIT_CIRCLE_TOL = 1e-12  # moduli this close to 1 contribute no log+ term
PAIR_BLOCK = 4096  # candidate pairs per exact-distance evaluation
BLOCK_ELEMS = 2**16  # and at most this many coordinates (pairs * n * dim)
KEY_MARGIN = 1e-9  # relative widening of every key window (see _key_cells)
KEY_QUOTIENT_CAP = 2.0**21  # largest |key value| / cell width of a usable key
JOINT_ROWS = 1024  # rows sampled to score keys
PAIRS_PER_EPS = 160  # pair sweep up to this many predicted candidates per row, n and eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CompactSample:
    """Finite sample standing in for a compact set.

    `resolution` is the caller-declared covering radius of the sample inside
    the intended compact set; it is recorded, not verified.
    """

    points: tuple[Vector, ...]
    resolution: float
    label: str = ""

    def __post_init__(self):
        if not self.points:
            raise ValidationError("sample needs at least one point")
        if self.resolution <= 0:
            raise ValidationError("declared resolution must be positive")
        space_ids = {p.space_id for p in self.points}
        if len(space_ids) > 1:
            raise SpaceMismatchError(f"sample mixes spaces: {sorted(space_ids)}")
        if len(set(self.points)) != len(self.points):
            raise ValidationError("sample points must be pairwise distinct")
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)


def grid_sample(
    space: SpaceSpec,
    points_per_axis: tuple[int, ...],
    low: float = 0.0,
    high: float = 1.0,
    space_id: str = "",
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
    pts = tuple(Vector(row, space_id) for row in coords)
    return CompactSample(pts, max(resolution, 1e-300), label or f"grid{points_per_axis}")


def dyn_distance(T: Operator, x: Vector, y: Vector, n: int, s: SpaceSpec) -> float:
    """Bowen dynamical distance max_{0<=i<n} d(T^i x, T^i y)."""
    if n < 1:
        raise ValidationError(f"dynamical distance needs n >= 1, got {n}")
    if x.space_id != y.space_id:
        raise SpaceMismatchError("points live in different spaces")
    dim = max(x.dim, y.dim)
    block = np.zeros((2, dim), dtype=complex)
    block[0, : x.dim] = x.coords
    block[1, : y.dim] = y.coords
    orbits = orbit_block(T, block, n)
    return float(norm_block(orbits[0] - orbits[1], s).max())


def _lex_order(points: tuple[Vector, ...]) -> list[int]:
    def key(i: int):
        c = points[i].coords
        return tuple(v for z in c for v in (z.real, z.imag))

    return sorted(range(len(points)), key=key)


def _padded_block(points: tuple[Vector, ...]) -> np.ndarray:
    dim = max(p.dim for p in points)
    block = np.zeros((len(points), dim), dtype=complex)
    for i, p in enumerate(points):
        block[i, : p.dim] = p.coords
    return block


class _OrbitCache:
    """Orbits of the lexicographically ordered sample, grown on demand.

    Real-valued samples under real operators are handed out as float arrays;
    the norm machinery only sees magnitudes, so the counts are unchanged and
    the arithmetic is twice as fast.
    """

    def __init__(self, T: Operator, sample: CompactSample):
        self.T = T
        self.order = _lex_order(sample.points)
        self.points = [sample.points[i] for i in self.order]
        self.base = _padded_block(tuple(self.points))
        self.orbits = self.base[:, np.newaxis, :]  # (count, steps, dim)
        self._view: np.ndarray | None = None

    def up_to(self, steps: int) -> np.ndarray:
        have = self.orbits.shape[1]
        if steps > have:
            ext = np.empty(
                (self.base.shape[0], steps, self.base.shape[1]), dtype=complex
            )
            ext[:, :have, :] = self.orbits
            for i in range(have, steps):
                ext[:, i, :] = batch_apply(self.T, ext[:, i - 1, :])
            require_finite(ext[:, have:, :])
            self.orbits = ext
            self._view = None
        return self.orbits[:, :steps, :]

    def view(self, steps: int) -> np.ndarray:
        self.up_to(steps)
        if self._view is None:
            arr = self.orbits
            self._view = arr.real.copy() if not np.any(arr.imag) else arr
        return self._view[:, :steps, :]


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
    norm (1 + KEY_MARGIN for the saturated key), so a pair at distance <= r
    lies in the same or adjacent cells: the margin absorbs the relative
    rounding of every norm (below 1e-12) and of the cell quotients, which
    stays below 2^-31 because a key whose values exceed KEY_QUOTIENT_CAP
    cell widths is void.
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
    cells = np.zeros((count, steps, widths.size), dtype=np.int32)
    usable = np.zeros((steps, widths.size), dtype=bool)
    for t in range(steps):  # one time slice at a time keeps the floats small
        q = np.floor(orbits[:, t, : widths.size].real / widths)
        lo, hi = q.min(axis=0), q.max(axis=0)
        usable[t] = (lo >= -KEY_QUOTIENT_CAP) & (hi <= KEY_QUOTIENT_CAP)
        cells[:, t, usable[t]] = (q - lo)[:, usable[t]]
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


def _plan_keys(orbits: np.ndarray, n_values, r: float, s: SpaceSpec) -> list:
    """Per n, the hashing plan with the fewest predicted candidate pairs, and
    that prediction.

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
        return [((none, none), everything)] * len(n_values)
    cells, usable = _key_cells(orbits[:, : max(n_values)], r, s)
    if not usable.any():
        return [((none, none), everything)] * len(n_values)
    per_step = cells.shape[1] // max(n_values)
    sub = cells[:: -(-count // JOINT_ROWS)].astype(np.int64)
    stride = int(cells.max()) + 3
    single = np.where(usable, _pair_counts(sub), everything)
    plans = []
    for n in n_values:
        cols = n * per_step
        first = int(np.argmin(single[:cols]))
        fewest = everything
        if usable[first]:
            fewest = int(_pair_counts(cells[:, [first]].astype(np.int64))[0])
        if fewest >= everything:
            plans.append(((none, none), everything))
            continue
        plan = [first]
        if fewest:
            joint = _pair_counts(*_joint_codes(sub[:, [first]], sub[:, :cols], stride))
            second = int(np.argmin(np.where(usable[:cols], joint, everything)))
            code, offsets = _codes(cells[:, [first, second]])
            both = int(_pair_counts(code[:, np.newaxis], offsets)[0])
            if both < fewest:
                plan, fewest = [first, second], both
        keys = cells[:, :cols][:, usable[:cols]]
        filters = keys if 4 * keys.shape[1] <= n * dim else none
        plans.append(((cells[:, plan], filters), fewest))
    return plans


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


def _near_pairs(orbits: np.ndarray, n: int, r: float, s: SpaceSpec, plan):
    hashed, filters = plan
    step = max(1, min(PAIR_BLOCK, BLOCK_ELEMS // (n * orbits.shape[2])))
    for I, J in _candidate_blocks(hashed):
        if filters.shape[1]:
            near = (np.abs(filters[I] - filters[J]) <= 1).all(axis=1)
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
    (plan, _), = _plan_keys(orbits, (n,), r, s)
    yield from _near_pairs(orbits, n, r, s, plan)


def _sweep(orbits: np.ndarray, n: int, eps: np.ndarray, s: SpaceSpec, plan) -> np.ndarray:
    """Greedy scans for every eps at once: returns marked[eps, row], True
    where the row is excluded.

    Rows are walked in lexicographic order; a row unmarked for an eps is
    kept for it and marks its later neighbours within that eps.  Marks only
    come from earlier rows, so a row's mark is final when it is reached and
    the kept rows are exactly those of the witness scan.
    """
    marked = np.zeros((eps.size, orbits.shape[0]), dtype=bool)
    limit = eps[:, np.newaxis]
    none_kept, all_kept = b"\x01" * eps.size, b"\x00" * eps.size
    for I, J, D in _near_pairs(orbits, n, float(eps.max()), s, plan):
        hits = D <= limit
        starts = np.flatnonzero(np.diff(I, prepend=-1))
        ends = np.append(starts[1:], I.size).tolist()
        for i, a, b in zip(I[starts].tolist(), starts.tolist(), ends):
            state = marked[:, i].tobytes()
            if state == all_kept:
                marked[:, J[a:b]] |= hits[:, a:b]
            elif state != none_kept:
                marked[:, J[a:b]] |= hits[:, a:b] & ~marked[:, i, np.newaxis]
    return marked


def _pair_plans(orbits: np.ndarray, n_values, eps_values, s: SpaceSpec):
    """Per-n key cells for the pair sweep, or None when the witness scan is
    the cheaper path.

    The sweep pays per candidate pair within max(eps), once for every eps;
    the scan pays per row, n and eps column.  Measured with one thread on
    the N=3 (depth 7) and N=4 (depth 5) cubes under l^inf, for eps 0.4,
    0.2 and 0.1 alone and for all three (2 cores, numpy 2.4.6), the sweep
    cost 0.2-0.7 us per candidate and the scan 35-97 us per row, n and eps:
    a break-even between 120 and 240 candidates per row, n and eps.
    PAIRS_PER_EPS = 160 picks the faster path in all eight tables.  The
    N=4 cube predicts 220 per row and n: alone, eps 0.4 takes the scan
    (0.38 s, sweep 0.45 s); with all three eps it takes the sweep (0.49 s,
    scan 0.79 s).  The c1 and benchmark grids predict 25 to 121.  A thread
    pool shortens the scan (by 17% with two threads on the depth-7 cube),
    which this one-thread budget does not count.
    """
    plans = _plan_keys(orbits, n_values, max(eps_values), s)
    budget = PAIRS_PER_EPS * len(eps_values) * orbits.shape[0] * len(n_values)
    if sum(pred for _, pred in plans) > budget:
        return None
    return [plan for plan, _ in plans]


def _greedy_indices(orbits: np.ndarray, eps: float, s: SpaceSpec) -> list[int]:
    """Greedy maximal separated subset of the ordered sample, by a witness
    scan: the fallback of the pair sweep when no key prunes.

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
    This is the one-cell case of `sn_table`: the pair sweep, or the witness
    scan when the sample's keys do not prune.
    """
    if eps <= 0:
        raise ValidationError("separation scale eps must be positive")
    cache = _OrbitCache(T, K)
    orbits = cache.view(n)
    plans = _pair_plans(orbits, (n,), (eps,), s)
    if plans is None:
        idx = _greedy_indices(orbits, eps, s)
    else:
        idx = np.flatnonzero(~_sweep(orbits, n, np.array([eps]), s, plans[0])[0]).tolist()
    return [cache.points[i] for i in idx]


def _conflict_masks(orbits: np.ndarray, eps: float, s: SpaceSpec) -> list[int]:
    """Conflict graph (distance <= eps) as one bitmask per row, from one
    all-pairs distance evaluation."""
    count, n = orbits.shape[:2]
    masks = [0] * count
    I, J = np.triu_indices(count, 1)
    close = bowen_distances(orbits, I, J, n, s) <= eps
    for i, j in zip(I[close].tolist(), J[close].tolist()):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _max_independent_set(masks: list[int]) -> int:
    """Maximum independent set of a conflict graph as a vertex bitmask."""
    n = len(masks)
    best_mask = 0

    def recurse(cand: int, cur: int, cur_mask: int):
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

    recurse((1 << n) - 1, 0, 0)
    return best_mask


def max_separated_exact(
    T: Operator, K: CompactSample, n: int, eps: float, s: SpaceSpec
) -> list[Vector]:
    """True maximum (n, eps)-separated subset via branch-and-bound over the
    conflict graph; the oracle against which the greedy scan is judged."""
    if len(K) > EXACT_SAMPLE_CAP:
        raise SampleSizeError(
            f"exact separated-set search is capped at {EXACT_SAMPLE_CAP} points, got {len(K)}"
        )
    if eps <= 0:
        raise ValidationError("separation scale eps must be positive")
    cache = _OrbitCache(T, K)
    masks = _conflict_masks(cache.view(n), eps, s)
    best = _max_independent_set(masks)
    return [cache.points[i] for i in range(len(K)) if best >> i & 1]


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


def _column_counts(
    cache: _OrbitCache,
    method: str,
    T: Operator,
    K: CompactSample,
    n_values: tuple[int, ...],
    eps: float,
    s: SpaceSpec,
) -> dict[int, int]:
    """Counts for one eps, ascending n, short-circuiting once every point is
    kept (separation only improves with n, so the count stays |K|)."""
    out: dict[int, int] = {}
    all_kept_from: int | None = None
    size = len(K)
    for n in n_values:
        if all_kept_from is not None:
            out[n] = size
            continue
        if method == "greedy":
            cnt = len(_greedy_indices(cache.view(n), eps, s))
            if cnt == size:
                all_kept_from = n
        else:
            masks = _conflict_masks(cache.view(n), eps, s)
            cnt = _max_independent_set(masks).bit_count()
            if cnt == size:
                all_kept_from = n
        out[n] = cnt
    return out


def _swept_counts(
    cache: _OrbitCache,
    n_values: tuple[int, ...],
    eps_values: tuple[float, ...],
    s: SpaceSpec,
    plans: list,
) -> dict[float, dict[int, int]]:
    """Greedy counts of every (n, eps) cell, one pair sweep per n.  Once no
    pair lies within max(eps), every later n keeps every point (Bowen
    distances only grow with n)."""
    size = len(cache.points)
    cols: dict[float, dict[int, int]] = {eps: {} for eps in eps_values}
    eps = np.array(eps_values)
    marked = None
    for n, plan in zip(n_values, plans):
        if marked is None or marked.any():
            marked = _sweep(cache.view(n), n, eps, s, plan)
        for e, cnt in zip(eps_values, (size - marked.sum(axis=1)).tolist()):
            cols[e][n] = cnt
    return cols


def sn_table(
    T: Operator,
    K: CompactSample,
    n_range,
    eps_list,
    s: SpaceSpec,
    method: str = "greedy",
    threads: int = 1,
    operator_id: str = "",
) -> EntropyTable:
    """Fill the (n, eps) grid of separated-set counts.

    Greedy counts come from one pair sweep per n for every eps at once,
    over the near pairs within max(eps) (`near_pairs`, `_sweep`): rows are
    walked in lexicographic order, a row unmarked for an eps is kept and
    marks its later neighbours within that eps.  Marks only come from
    earlier rows, so each kept set is the one the per-eps scan keeps.  When
    the sample's keys predict more than PAIRS_PER_EPS candidates per row,
    n and eps, the witness scan `_greedy_indices` runs instead, per eps
    column; `threads` > 1 spreads those columns (and the exact method's)
    over a thread pool and changes nothing else.  Greedy counts can violate the
    monotonicity laws (nondecreasing in n, nonincreasing in eps) in
    pathological scan orders; violations are repaired by running maxima and
    flagged.
    """
    n_values = tuple(sorted(set(int(n) for n in n_range)))
    eps_values = tuple(sorted(set(float(e) for e in eps_list), reverse=True))
    if not n_values or not eps_values:
        raise ValidationError("n range and eps list must be nonempty")
    if any(n < 1 for n in n_values):
        raise ValidationError("Bowen times must be >= 1")
    if any(e <= 0 for e in eps_values):
        raise ValidationError("eps values must be positive")
    if method not in ("greedy", "exact"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "exact" and len(K) > EXACT_SAMPLE_CAP:
        raise SampleSizeError(
            f"exact method is capped at {EXACT_SAMPLE_CAP} points, got {len(K)}"
        )

    cache = _OrbitCache(T, K)
    cache.up_to(max(n_values))  # grow once; columns then share read-only orbits
    plans = None
    if method == "greedy":
        plans = _pair_plans(cache.view(max(n_values)), n_values, eps_values, s)

    def column(eps: float) -> dict[int, int]:
        return _column_counts(cache, method, T, K, n_values, eps, s)

    if plans is not None:
        cols = _swept_counts(cache, n_values, eps_values, s, plans)
    elif threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            cols = dict(zip(eps_values, pool.map(column, eps_values)))
    else:
        cols = {eps: column(eps) for eps in eps_values}

    entries: dict[tuple[int, float], int] = {}
    repaired: list[tuple[int, float]] = []
    for j, eps in enumerate(eps_values):
        for i, n in enumerate(n_values):
            v = cols[eps][n]
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


def spectral_entropy(sd: SpectralData, unit_circle_tol: float = UNIT_CIRCLE_TOL) -> float:
    """sum multiplicity * log|lambda| over eigenvalues with |lambda| > 1.

    Needs a certified tail (every unlisted modulus <= 1); moduli within
    `unit_circle_tol` of 1 are treated as exactly on the circle.
    """
    if not sd.tail_certified:
        raise UncertifiedSpectrumError(
            f"unlisted eigenvalues are only bounded by {sd.tail_sup}; "
            "the log+ sum over the listed prefix is not certified"
        )
    terms = [
        mult * math.log(abs(lam))
        for lam, mult in sd.eigenvalues
        if abs(lam) > 1.0 + unit_circle_tol
    ]
    return math.fsum(terms) if terms else 0.0


def eigenplane_lower_bound(eigs, modulus_tol: float = 1e-12) -> float:
    """n * log r for n distinct eigenvalues sharing one modulus r > 1.

    Certified lower bound for the entropy of any operator carrying these as
    point-spectrum eigenvalues with independent eigenvectors.
    """
    vals = [complex(v) for v in eigs]
    if not vals:
        raise ValidationError("need at least one eigenvalue")
    r = abs(vals[0])
    if any(abs(abs(v) - r) > modulus_tol * max(r, 1.0) for v in vals):
        raise ValidationError(
            "eigenvalue moduli differ; use the spectral entropy sum instead"
        )
    if r <= 1.0:
        raise ValidationError(f"common modulus must exceed 1, got {r}")
    for i, v in enumerate(vals):
        for w in vals[i + 1 :]:
            if abs(v - w) <= modulus_tol * max(r, 1.0):
                raise ValidationError("eigenvalues must be distinct")
    return len(vals) * math.log(r)
