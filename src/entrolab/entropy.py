"""Separated-set entropy estimation and the spectral entropy formula.

Empirical side: counts of (n, eps)-separated subsets of a finite sample
under the dynamical metric max_{0<=i<n} d(T^i x, T^i y), computed either by
a deterministic greedy scan (maximal set, lexicographic point order) or by
exact branch-and-bound over the conflict graph (maximum set, small samples
only).  A table of counts over an (n, eps) grid feeds a least-squares slope
of log s_n before saturation; the eps -> 0 limit stays represented by the
full per-eps slope list, never a single collapsed number.

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
from .spaces import SpaceSpec, Vector, norm_block

SATURATION_FRACTION = 0.95  # s >= 95% of |K| counts as saturated
EXACT_SAMPLE_CAP = 24
UNIT_CIRCLE_TOL = 1e-12  # moduli this close to 1 contribute no log+ term


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


def _greedy_indices(orbits: np.ndarray, eps: float, s: SpaceSpec) -> list[int]:
    """Greedy maximal separated subset of the ordered sample.

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
    """
    if eps <= 0:
        raise ValidationError("separation scale eps must be positive")
    cache = _OrbitCache(T, K)
    idx = _greedy_indices(cache.view(n), eps, s)
    return [cache.points[i] for i in idx]


def _conflict_masks(orbits: np.ndarray, eps: float, s: SpaceSpec) -> list[int]:
    count = orbits.shape[0]
    masks = [0] * count
    for i in range(count):
        d = norm_block(orbits[i + 1 :] - orbits[i], s).max(axis=1)
        for off, val in enumerate(d):
            if val <= eps:
                j = i + 1 + off
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

    Greedy counts can violate the monotonicity laws (nondecreasing in n,
    nonincreasing in eps) in pathological scan orders; violations are
    repaired by running maxima and flagged.
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

    def column(eps: float) -> dict[int, int]:
        return _column_counts(cache, method, T, K, n_values, eps, s)

    if threads > 1:
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
