"""Truncated sequence-space vectors and the metrics used by every other module.

A Vector stores the first `dim` coordinates of a complex sequence, indexed
from 1; everything beyond the truncation is exactly zero.  Two metric
families are supported:

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

from .errors import SpaceMismatchError, ValidationError

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
    space_id: str = ""

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.space_id == other.space_id and bool(
            np.array_equal(self.coords, other.coords)
        )

    def __hash__(self) -> int:
        return hash((self.space_id, self.coords.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self.coords[:4])
        tail = ", ..." if self.dim > 4 else ""
        return f"Vector([{head}{tail}], dim={self.dim})"


def vector(values, space_id: str = "") -> Vector:
    return Vector(np.asarray(values, dtype=complex), space_id)


def basis_vector(n: int, dim: int, space_id: str = "") -> Vector:
    """e_n truncated to `dim` coordinates."""
    if not (1 <= n <= dim):
        raise ValidationError(f"basis index {n} outside 1..{dim}")
    c = np.zeros(dim, dtype=complex)
    c[n - 1] = 1.0
    return Vector(c, space_id)


def zero_vector(dim: int, space_id: str = "") -> Vector:
    return Vector(np.zeros(dim, dtype=complex), space_id)


def norm_block(block: np.ndarray, space: SpaceSpec) -> np.ndarray:
    """Norms along the last axis of a stacked coordinate array.

    This is the vectorised workhorse behind `norm` and the separated-set
    counting loops; for FAggregate it returns the truncated sum over
    i <= dim (see `norm_tail_bound`).  Power sums are scale-safe by
    detect-and-redo (Anderson, ACM TOMS 44(1), Algorithm 978): a row whose
    power sum comes out 0, subnormal or inf while the row is nonzero is
    recomputed scaled by a power of two; every other row keeps the plain
    arithmetic bit for bit.  The l^inf and l^1 norms need no scaling.
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
    """(Partial) l^p norms of the rows of a = |block| and the rows' full
    power sums."""
    power = a * a if p == 2.0 else a**p
    sums = np.cumsum(power, axis=-1) if cumulative else power.sum(axis=-1)
    roots = np.sqrt(sums) if p == 2.0 else sums ** (1.0 / p)
    return roots, sums[..., -1] if cumulative else sums


def _lp_norms(a: np.ndarray, p: float, cumulative: bool) -> np.ndarray:
    roots, sums = _power_roots(a, p, cumulative)
    if sums.size and not (sums.min() >= _TINY and sums.max() < math.inf):
        redo = ~((sums >= _TINY) & (sums < math.inf))
        redo[redo] = a[redo].max(axis=-1) > 0
        if redo.any():
            rows = a[redo]
            _, e = np.frexp(rows.max(axis=-1, keepdims=True))
            scaled, _ = _power_roots(np.ldexp(rows, -e), p, cumulative)
            roots[redo] = np.ldexp(scaled, e if cumulative else e[:, 0])
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


def _padded_difference(x: Vector, y: Vector) -> np.ndarray:
    if x.space_id != y.space_id:
        raise SpaceMismatchError(
            f"vectors live in different spaces: {x.space_id!r} vs {y.space_id!r}"
        )
    d = max(x.dim, y.dim)
    a = np.zeros(d, dtype=complex)
    a[: x.dim] = x.coords
    a[: y.dim] -= y.coords
    return a


def distance(x: Vector, y: Vector, s: SpaceSpec) -> float:
    """Translation-invariant metric d(x, y) = |x - y|; shorter vector is
    zero-padded."""
    return float(norm_block(_padded_difference(x, y)[np.newaxis, :], s)[0])


def project(v: Vector, i: int) -> Vector:
    """Keep coordinates 1..i, zero the rest (dim unchanged); idempotent."""
    if i < 1:
        raise ValidationError(f"projection index must be >= 1, got {i}")
    if i >= v.dim:
        return v
    c = np.array(v.coords)
    c[i:] = 0.0
    return Vector(c, v.space_id)
