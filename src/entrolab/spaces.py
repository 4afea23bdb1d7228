"""Truncated sequence-space vectors and the metrics used by every other module.

A Vector stores the first `dim` coordinates of a complex sequence, indexed
from 1; everything beyond the truncation is exactly zero.  A point is its
zero-padded coordinate row compared by value: trailing zeros do not count
and -0.0 equals 0.0, so `vector([1.0]) == vector([1.0, -0.0])`, and equal
vectors hash equal.  A sample (`entropy.CompactSample`) is one block of
such rows, built by `padded_block` from Vectors or coordinate arrays.  Two
metric families are supported:

* the l^p norms (1 <= p <= inf), and
* an aggregated F-norm built over a base l^p norm,

      |x| = sum_{i>=1} 2^{-i} min(1, |pi_i x|_0),

  where pi_i keeps the first i coordinates.  The truncated evaluation sums
  i <= dim only and is therefore a lower bound on the full series; the
  remainder is at most the geometric tail 2^{-dim}, reported by
  `norm_tail_bound` so callers can certify strict inequalities.

All values are immutable and all operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_TINY = np.finfo(float).tiny  # smallest normal double


@dataclass(frozen=True)
class Lp:
    """l^p norm; p may be math.inf for the sup norm."""

    p: float
    label: str = ""

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValidationError(f"l^p norm needs p >= 1, got {self.p}")


@dataclass(frozen=True)
class FAggregate:
    """Aggregated F-norm over a base l^p norm (nesting depth exactly 1)."""

    base: Lp
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.base, Lp):
            raise ValidationError("aggregated norm must wrap a plain l^p base")


SpaceSpec = Lp | FAggregate


def faggregate_l2() -> FAggregate:
    return FAggregate(Lp(2.0))


@dataclass(frozen=True)
class Vector:
    """Finitely supported coordinate sequence, coordinates indexed from 1."""

    coords: np.ndarray = field()

    def __post_init__(self):
        arr = np.array(self.coords, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("vector needs a one-dimensional, nonempty coordinate list")
        if not np.isfinite(arr).all():
            raise ValidationError("vector coordinates must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def coord(self, n: int) -> complex:
        """1-based coordinate access; indices beyond dim are exactly zero."""
        if n < 1:
            raise ValidationError("coordinate index starts at 1")
        return complex(self.coords[n - 1]) if n <= self.dim else 0j

    def _value(self) -> bytes:
        """The coordinates up to the last nonzero one, -0.0 folded into 0.0
        in both parts (+ 0.0 does that): equal bytes for equal values."""
        nonzero = np.flatnonzero(self.coords)
        return (self.coords[: nonzero[-1] + 1 if nonzero.size else 0] + 0.0).tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self.coords[:4])
        tail = ", ..." if self.dim > 4 else ""
        return f"Vector([{head}{tail}], dim={self.dim})"


def vector(values) -> Vector:
    return Vector(values)


def basis_vector(n: int, dim: int) -> Vector:
    """e_n truncated to `dim` coordinates."""
    if not (1 <= n <= dim):
        raise ValidationError(f"basis index {n} outside 1..{dim}")
    c = np.zeros(dim, dtype=complex)
    c[n - 1] = 1.0
    return Vector(c)


def zero_vector(dim: int) -> Vector:
    return Vector(np.zeros(dim, dtype=complex))


def fold(ufunc: np.ufunc, a: np.ndarray, running: bool = False) -> np.ndarray:
    """`ufunc.reduce` (`ufunc.accumulate` when `running`) along the last
    axis of `a`, for np.maximum, np.logical_and or np.add: on a short axis
    (2-16 terms, 2-7 for np.add) and at least 32 rows per column, an
    elementwise fold over the columns, 4-30 times faster than numpy's row
    by row reduction ((4096, 7) maxima: 0.02 against 0.26 ms; (6000, 2)
    sums: 4.3 against 91 us, (6000, 7): 25 against 116 us); longer axes and
    fewer rows, where the fold's per-column calls and strided reads lose,
    keep numpy's (BENCH_18.json).  Max and and are exact in any order: same
    bits but for the sign of a tie of -0.0 with 0.0, which numpy leaves to
    its order (norms are never -0.0).  A sum is not.  numpy 2.4.6 adds
    fewer than 8 terms left to right, as the fold does, bit for bit (checked
    on 200,000 rows at each length 1-7), and 8 or more in eight interleaved
    partial sums (its pairwise summation), which round differently; so the
    limit for sums is 7 terms.
    """
    length = a.shape[-1] if a.ndim else 0
    if not 2 <= length <= (7 if ufunc is np.add else 16) or a.size < 32 * length * length:
        return ufunc.accumulate(a, axis=-1) if running else ufunc.reduce(a, axis=-1)
    if running:
        out = np.empty_like(a)
        out[..., 0] = a[..., 0]
        for k in range(1, length):
            ufunc(out[..., k - 1], a[..., k], out=out[..., k])
        return out
    out = ufunc(a[..., 0], a[..., 1])
    for k in range(2, length):
        ufunc(out, a[..., k], out=out)
    return out


def norm_block(block: np.ndarray, space: SpaceSpec) -> np.ndarray:
    """Norms along the last axis of a stacked coordinate array.

    This is the vectorised workhorse behind `norm` and the separated-set
    counting loops; for FAggregate it returns the truncated sum over
    i <= dim (see `norm_tail_bound`).  Power sums are scale-safe by
    detect-and-redo (Anderson, ACM TOMS 44(1), Algorithm 978): a row whose
    power sum comes out 0, subnormal or inf while the row is nonzero is
    recomputed scaled by a power of two; under the aggregated norm the same
    holds for every partial sum, each redone at its own prefix's scale.
    Every other row keeps the plain arithmetic bit for bit.  l^inf and l^1
    need no scaling.  l^inf maxima (10x numpy's speed on 7 columns) and the
    l^1 and l^p sums of 2-7 coordinates (20x on 2, 4.6x on 7) are `fold`s.
    A one-coordinate row's l^1, l^2 or l^inf norm is its modulus: in binary
    floating point sqrt(x x) = |x| whenever x x neither underflows nor
    overflows, and the scaled redo takes |x| = m 2^e with m in [1/2, 1),
    where m m is normal, so the power-sum path would return |x| bit for bit
    too.  Other p round (x^p)^(1/p) and keep the power sum.

    The norms are taken along the last axis, whatever the leading axes
    hold: the carried pass hands in one time slice of every pair,
    (pairs, dim), gathered from the time-major slabs (steps, count, dim)
    of `entropy._pairs_within`.
    """
    a = np.abs(np.asarray(block))
    if isinstance(space, Lp):
        p = space.p
        if a.shape[-1] == 1 and p in (1.0, 2.0, math.inf) and a.dtype == float:
            return a[..., 0] if a.ndim > 1 else a[0]
        if math.isinf(p):
            return fold(np.maximum, a)
        if p == 1.0:
            return fold(np.add, a)
        return _lp_norms(a, p, cumulative=False)
    p = space.base.p
    if math.isinf(p):
        partial = fold(np.maximum, a, running=True)
    elif p == 1.0:
        partial = np.cumsum(a, axis=-1)
    else:
        partial = _lp_norms(a, p, cumulative=True)
    weights = 2.0 ** -np.arange(1, a.shape[-1] + 1, dtype=float)
    return (weights * np.minimum(1.0, partial)).sum(axis=-1)


def _power_roots(a: np.ndarray, p: float, cumulative: bool) -> tuple[np.ndarray, np.ndarray]:
    """(Partial) l^p norms of the rows of a = |block| and their (partial)
    power sums."""
    power = a * a if p == 2.0 else a**p
    sums = np.cumsum(power, axis=-1) if cumulative else fold(np.add, power)
    roots = np.sqrt(sums) if p == 2.0 else sums ** (1.0 / p)
    return roots, sums


def _lp_norms(a: np.ndarray, p: float, cumulative: bool) -> np.ndarray:
    if a.ndim == 1:  # a lone row is its (1, dim) block, so the redo can index rows
        return _lp_norms(a[np.newaxis], p, cumulative)[0]
    with np.errstate(over="ignore"):  # an overflowed row is redone below
        roots, sums = _power_roots(a, p, cumulative)
    if not sums.size:
        return roots
    if cumulative:
        # a partial sum below the normal range at a nonzero coordinate needs
        # that coordinate's power below it too, so only coordinates under
        # 2 tiny^(1/p) can flag a row
        redo = sums[..., -1] == math.inf
        small = (a > 0) & (a < 2.0 * _TINY ** (1.0 / p))
        if small.any():
            redo |= (small & (sums < _TINY)).any(axis=-1)
        if redo.any():
            rows = a[redo]
            prefixes = [_lp_norms(rows[:, :k], p, False) for k in range(1, a.shape[-1] + 1)]
            roots[redo] = np.stack(prefixes, axis=-1)
        return roots
    if not (sums.min() >= _TINY and sums.max() < math.inf):
        redo = ~((sums >= _TINY) & (sums < math.inf))
        redo[redo] = a[redo].max(axis=-1) > 0
        if redo.any():
            rows = a[redo]
            _, e = np.frexp(rows.max(axis=-1, keepdims=True))
            scaled, _ = _power_roots(np.ldexp(rows, -e), p, False)
            roots[redo] = np.ldexp(scaled, e[:, 0])
    return roots


def norm(v: Vector, s: SpaceSpec) -> float:
    """Norm of a vector; FAggregate values are the truncated lower bound."""
    return float(norm_block(v.coords[np.newaxis, :], s)[0])


def norm_tail_bound(dim: int, s: SpaceSpec) -> float:
    """Exact geometric bound on the part of the norm the truncation drops.

    Zero for l^p (finitely supported vectors are evaluated exactly), and
    2^{-dim} for the aggregated norm.
    """
    if isinstance(s, Lp):
        return 0.0
    return 2.0 ** -dim


def padded_block(points, dim: int | None = None) -> np.ndarray:
    """The points (Vectors or 1-D coordinate arrays, or one (count, dim)
    numeric array) as the rows of a (count, dim) complex block, zero-padded
    to `dim` (default: the longest point's dimension).  Validated once, as
    a whole: every point 1-D and nonempty, every coordinate finite.  A
    numeric 2-D array is cast whole, with no list of its rows."""
    if isinstance(points, np.ndarray) and points.ndim == 2 and points.dtype.kind in "biufc":
        flat, sizes = points.astype(complex).ravel(), np.full(len(points), points.shape[1])
    else:
        rows = [p.coords if isinstance(p, Vector) else np.asarray(p) for p in points]
        if any(r.ndim != 1 for r in rows):
            raise ValidationError("a point needs a one-dimensional, nonempty coordinate list")
        sizes = np.array([r.size for r in rows])
        flat = np.concatenate(rows, dtype=complex, casting="unsafe") if rows else np.zeros(0, dtype=complex)
    if (sizes == 0).any():
        raise ValidationError("a point needs a one-dimensional, nonempty coordinate list")
    dim = int(sizes.max()) if dim is None else dim
    if (sizes > dim).any():
        raise ValidationError("vector longer than the working truncation")
    if flat.size == sizes.size * dim:  # no row is padded: the rows joined are the block
        block = flat.reshape(sizes.size, dim)
    else:  # scatter the rows by their lengths
        block = np.zeros((sizes.size, dim), dtype=complex)
        block[np.arange(dim) < sizes[:, np.newaxis]] = flat
    if not np.isfinite(block).all():
        raise ValidationError("point coordinates must be finite")
    return block


def distance(x: Vector, y: Vector, s: SpaceSpec) -> float:
    """Translation-invariant metric d(x, y) = |x - y|; shorter vector is
    zero-padded."""
    block = padded_block((x, y))
    return float(norm_block(block[:1] - block[1:], s)[0])


def project(v: Vector, i: int) -> Vector:
    """Keep coordinates 1..i, zero the rest (dim unchanged); idempotent."""
    if i < 1:
        raise ValidationError(f"projection index must be >= 1, got {i}")
    if i >= v.dim:
        return v
    c = np.array(v.coords)
    c[i:] = 0.0
    return Vector(c)
