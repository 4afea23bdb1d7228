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
        arr = np.asarray(self.coords, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("vector needs a one-dimensional, nonempty coordinate list")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValidationError("vector coordinates must be finite")
        arr = arr.copy()
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
    return Vector(np.asarray(values, dtype=complex))


def basis_vector(n: int, dim: int) -> Vector:
    """e_n truncated to `dim` coordinates."""
    if not (1 <= n <= dim):
        raise ValidationError(f"basis index {n} outside 1..{dim}")
    c = np.zeros(dim, dtype=complex)
    c[n - 1] = 1.0
    return Vector(c)


def zero_vector(dim: int) -> Vector:
    return Vector(np.zeros(dim, dtype=complex))


def norm_block(block: np.ndarray, space: SpaceSpec) -> np.ndarray:
    """Norms along the last axis of a stacked coordinate array.

    This is the vectorised workhorse behind `norm` and the separated-set
    counting loops; for FAggregate it returns the truncated sum over
    i <= dim (see `norm_tail_bound`).  Power sums are scale-safe by
    detect-and-redo (Anderson, ACM TOMS 44(1), Algorithm 978): a row whose
    power sum comes out 0, subnormal or inf while the row is nonzero is
    recomputed scaled by a power of two; under the aggregated norm the same
    holds for every partial sum, each redone at its own prefix's scale.
    Every other row keeps the plain arithmetic bit for bit.  The l^inf and
    l^1 norms need no scaling.
    """
    a = np.abs(np.asarray(block))
    if isinstance(space, Lp):
        p = space.p
        if math.isinf(p):
            return a.max(axis=-1)
        if p == 1.0:
            return a.sum(axis=-1)
        return _lp_norms(a, p, cumulative=False)
    p = space.base.p
    if math.isinf(p):
        partial = np.maximum.accumulate(a, axis=-1)
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
    sums = np.cumsum(power, axis=-1) if cumulative else power.sum(axis=-1)
    roots = np.sqrt(sums) if p == 2.0 else sums ** (1.0 / p)
    return roots, sums


def _lp_norms(a: np.ndarray, p: float, cumulative: bool) -> np.ndarray:
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
    """The points (Vectors or 1-D coordinate arrays, so a (count, dim)
    array will do) as the rows of a (count, dim) complex block, zero-padded
    to `dim` (default: the longest point's dimension).  Validated once, as
    a whole: every point 1-D and nonempty, every coordinate finite."""
    rows = [p.coords if isinstance(p, Vector) else np.asarray(p) for p in points]
    if any(r.ndim != 1 or r.size == 0 for r in rows):
        raise ValidationError("a point needs a one-dimensional, nonempty coordinate list")
    dim = max(r.size for r in rows) if dim is None else dim
    block = np.zeros((len(rows), dim), dtype=complex)
    for i, r in enumerate(rows):
        if r.size > dim:
            raise ValidationError("vector longer than the working truncation")
        block[i, : r.size] = r
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
