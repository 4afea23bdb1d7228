"""Symbolic operator descriptions with exact application and spectra.

Each operator kind is one frozen dataclass deriving from `Operator`: a JSON
name `kind` and the five methods `Operator` declares, which is all a new
kind implements (its fields are its JSON fields; `serialize` lists it in its
table of kinds).  The kinds are weighted backward and forward shifts,
diagonal operators, small dense matrices (d <= 32), scalar multiples, direct
sums and powers.  Shifts and diagonals act on truncated sequence vectors;
the backward shift shortens support by one step, the forward shift needs
one coordinate of headroom.

Spectral machinery: operator-power norms on l^p (exact sliding-window
products for shifts; for dense blocks, absolute column or row sums on l^1 or
l^inf and LAPACK singular values on l^2), Gelfand-style
spectral-radius certificates, eigenvalue multisets, the mini-norm
m(A) = inf{|Ax| : |x| = 1} = 1/|A^{-1}| (LAPACK's smallest singular value),
and the Riesz-style splitting of a matrix into unstable / center / stable
invariant subspaces by eigenvalue modulus.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import rules as rl
from .errors import (
    AmbiguousSpectrumError,
    ConvergenceError,
    DimensionError,
    HeadroomError,
    NonFiniteOrbitError,
    SingularMatrixError,
    UnderflowError,
    UnsupportedOperatorError,
    ValidationError,
)
from .spaces import FAggregate, Lp, SpaceSpec, Vector

MAX_DENSE_DIM = 32
_TINY = np.finfo(float).tiny  # smallest normal float

# window of basis directions probed when a shift/diagonal rule has no
# closed-form supremum
DEFAULT_WINDOW = 128

_DIAG_SPECTRUM_WINDOW = 32
EIG_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalue multiset with provenance.

    `tail_sup` bounds the modulus of every eigenvalue *not* listed (0.0 when
    the list is complete); log+ sums over the list are exact iff
    `tail_certified`.  `includes_zero` records the accumulation point
    adjoined for compact (infinite-rule) diagonals.
    """

    eigenvalues: tuple[tuple[complex, int], ...]
    provenance: str  # "closed_form" or "numeric"
    spectral_radius: float
    includes_zero: bool = False
    tail_sup: float = 0.0
    residuals: tuple[float, ...] = ()

    @property
    def tail_certified(self) -> bool:
        return self.tail_sup <= 1.0


@dataclass(frozen=True)
class SpectrumDisc:
    """Closed-form spectrum of a constant-weight shift: the closed disc of
    radius r; the open disc is point spectrum, boundary moduli are not
    eigenvalues (their eigenvector candidates have non-summable coordinates).
    """

    radius: float

    @property
    def spectral_radius(self) -> float:
        return self.radius


class Operator(ABC):
    """An operator kind: its JSON name `kind` and five methods.

    - `apply_block(block)`: T on every row of a complex (count, dim) block.
    - `finite_dim()`: the dimension of a finite-rank description, else None.
    - `power_norm(n, s)`: |T^n| on the space s, for n >= 1.
    - `radius()`: r(T) in closed form, None where there is none.
    - `spectrum()`: eigenvalue data, or the disc of a constant-weight shift.
    """

    kind: str

    @abstractmethod
    def apply_block(self, block: np.ndarray) -> np.ndarray: ...
    @abstractmethod
    def finite_dim(self) -> int | None: ...
    @abstractmethod
    def power_norm(self, n: int, s: SpaceSpec) -> float: ...
    @abstractmethod
    def radius(self) -> float | None: ...
    @abstractmethod
    def spectrum(self) -> SpectralData | SpectrumDisc: ...


@dataclass(frozen=True, eq=False)
class _Shift(Operator):
    """A weighted shift: the weight check, the l^p window norm over the
    kind's `_factors` of its weights, and the disc spectrum of constant weights."""

    weights: rl.Rule

    def __post_init__(self):
        rl.check_nonvanishing(self.weights)

    def finite_dim(self) -> None:
        return None

    def power_norm(self, n: int, s: SpaceSpec) -> float:
        """sup over start positions c >= 1 of prod_{l=c+1}^{c+n} |w_l| (of
        1/|w_l| for the forward shift), over the first DEFAULT_WINDOW + n
        weights or the whole explicit list.

        Uses plain products (not logs) so dyadic weights stay exact.  Every
        window multiplies its factors left to right, one vector product per
        offset; a nan window (an inf factor times a zero product) is skipped.
        """
        _require_lp(s, "shift power norm")
        L = rl.explicit_length(self.weights)
        probe = min(DEFAULT_WINDOW + n, L) if L is not None else DEFAULT_WINDOW + n
        if probe <= n:
            raise ValidationError("weight list too short for the requested power")
        a = np.abs(self._factors(rl.values(self.weights, probe)))  # slot l is w_{l+1}
        prods = np.ones(len(a) - n)
        for l in range(1, n + 1):
            prods *= a[l : l + prods.size]
        return np.fmax.reduce(prods, initial=0.0)

    def spectrum(self) -> SpectrumDisc:
        radius = self.radius()
        if radius is None:
            raise UnsupportedOperatorError(
                "spectrum of a non-constant-weight shift has no closed form here"
            )
        return SpectrumDisc(radius=radius)


class BackwardShift(_Shift):
    """(B_w x)_n = w_{n+1} x_{n+1}."""

    kind = "backward_shift"

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        dim = block.shape[-1]
        w = rl.values(self.weights, dim + 1)  # w_1..w_{dim+1}; w_1 unused
        out = np.zeros_like(block)
        out[..., :-1] = block[..., 1:] * w[1:dim]
        return out

    @staticmethod
    def _factors(w: np.ndarray) -> np.ndarray:
        return w

    def radius(self) -> float | None:
        return abs(self.weights.value) if isinstance(self.weights, rl.ConstRule) else None


class ForwardShift(_Shift):
    """(F_w x)_{n+1} = x_n / w_{n+1}, first coordinate zero, so B_w F_w = I.

    Applying it refuses, with UnderflowError, any nonzero coordinate whose
    image has a modulus below the normal range: such an image has lost
    bits (or flushed to zero) and B_w cannot restore x.  So for real
    coordinates and power-of-two weights B_w F_w x = x holds exactly
    wherever F_w returns.  `image` is the same action without the refusal.
    """

    kind = "forward_shift"

    def image(self, block: np.ndarray) -> np.ndarray:
        """F_w on every row of a complex (count, dim) block, images below the
        normal range included (they round, and may flush to zero)."""
        if np.any(block[..., -1] != 0):
            raise HeadroomError(
                "forward shift needs a zero last coordinate; extend the truncation"
            )
        dim = block.shape[-1]
        w = rl.values(self.weights, dim + 1)
        out = np.zeros_like(block)
        out[..., 1:] = block[..., :-1] / w[1:dim]
        return out

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        out = self.image(block)
        if np.any((block[..., :-1] != 0) & (np.abs(out[..., 1:]) < _TINY)):
            raise UnderflowError(
                "forward shift would round a nonzero coordinate into the "
                "subnormal range or to zero"
            )
        return out

    @staticmethod
    def _factors(w: np.ndarray) -> np.ndarray:
        return 1.0 / w

    def radius(self) -> float | None:
        return 1.0 / abs(self.weights.value) if isinstance(self.weights, rl.ConstRule) else None


@dataclass(frozen=True, eq=False)
class Diagonal(Operator):
    """(D x)_n = lambda_n x_n."""

    kind = "diagonal"
    eigenvalues: rl.Rule

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        dim, L = block.shape[-1], self.finite_dim()
        if L is not None and dim > L:
            raise DimensionError(
                f"diagonal rule defines {L} entries, vector has dim {dim}"
            )
        return block * rl.values(self.eigenvalues, dim)

    def finite_dim(self) -> int | None:
        return rl.explicit_length(self.eigenvalues)

    def power_norm(self, n: int, s: SpaceSpec) -> float:
        _require_lp(s, "diagonal power norm")
        sup = self.radius()
        if sup is None:
            raise UnsupportedOperatorError("diagonal rule is unbounded")
        return sup**n

    def radius(self) -> float | None:
        sup = rl.sup_abs(self.eigenvalues)
        return None if math.isinf(sup) else sup

    def spectrum(self) -> SpectralData:
        """An explicit list in full.  A generator rule lists its first
        _DIAG_SPECTRUM_WINDOW terms, adjoins the limit 0, and bounds the
        rest by the next term: its moduli never increase unless they grow
        without bound."""
        rule, L = self.eigenvalues, self.finite_dim()
        window = L or _DIAG_SPECTRUM_WINDOW
        # extend so every modulus > 1 is listed when the rule decays
        if isinstance(rule, rl.GeometricRule) and 0 < abs(rule.ratio) < 1 and abs(rule.start) > 1:
            need = int(math.log(abs(rule.start)) / -math.log(abs(rule.ratio))) + 4
            window = max(window, need)
        sup = rl.sup_abs(rule)
        return SpectralData(
            eigenvalues=tuple((complex(v), 1) for v in rl.values(rule, window)),
            provenance="closed_form",
            spectral_radius=sup,
            includes_zero=L is None,
            tail_sup=0.0 if L else (sup if math.isinf(sup) else abs(rl.value_at(rule, window + 1))),
        )


@dataclass(frozen=True, eq=False)
class DenseMatrix(Operator):
    """A d x d complex matrix, 1 <= d <= MAX_DENSE_DIM, with finite entries."""

    kind = "dense"
    entries: np.ndarray

    def __post_init__(self):
        try:
            a = np.array(self.entries, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"dense operator needs a square matrix: {exc}") from exc
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValidationError("dense operator needs a nonempty square matrix")
        if a.shape[0] > MAX_DENSE_DIM:
            raise ValidationError(
                f"dense operators are capped at d = {MAX_DENSE_DIM}, got {a.shape[0]}"
            )
        if not np.isfinite(a).all():
            raise ValidationError("matrix entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        if block.shape[-1] != self.d:
            raise DimensionError(f"matrix is {self.d}x{self.d}, vector has dim {block.shape[-1]}")
        return block @ self.entries.T

    def finite_dim(self) -> int:
        return self.d

    def power_norm(self, n: int, s: SpaceSpec) -> float:
        """|A^n| on l^1, l^2 or l^inf: the largest absolute column sum, the
        largest singular value (LAPACK's SVD) or the largest absolute row sum."""
        _require_lp(s, "dense power norm")
        order = {1.0: 1, 2.0: 2, math.inf: math.inf}.get(s.p)
        if order is None:
            raise UnsupportedOperatorError(
                f"dense power norm is taken on l^1, l^2 and l^inf only, not l^{s.p:g}"
            )
        return float(np.linalg.norm(np.linalg.matrix_power(self.entries, n), order))

    def radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.entries))))

    def spectrum(self) -> SpectralData:
        A = self.entries
        try:
            vals, vecs = np.linalg.eig(A)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"dense eigenvalue iteration failed: {exc}") from exc
        scale = float(np.linalg.norm(A, 2))
        residuals = tuple(float(r) for r in np.linalg.norm(A @ vecs - vecs * vals, axis=0))
        worst = max(residuals)
        if not worst < EIG_RESIDUAL_TOL * max(1.0, scale):
            raise ConvergenceError(
                f"eigenpair residual {worst:.3e} exceeds {EIG_RESIDUAL_TOL:.0e}"
            )
        return SpectralData(
            eigenvalues=tuple(_cluster_eigenvalues(vals, scale)),
            provenance="numeric",
            spectral_radius=float(np.max(np.abs(vals))),
            residuals=residuals,
        )


@dataclass(frozen=True, eq=False)
class Scaled(Operator):
    """alpha * T for a finite scalar alpha."""

    kind = "scaled"
    alpha: complex
    inner: Operator

    def __post_init__(self):
        rl.check_finite("scale factor", self.alpha)

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        return complex(self.alpha) * self.inner.apply_block(block)

    def finite_dim(self) -> int | None:
        return self.inner.finite_dim()

    def power_norm(self, n: int, s: SpaceSpec) -> float:
        return abs(self.alpha) ** n * self.inner.power_norm(n, s)

    def radius(self) -> float | None:
        inner = self.inner.radius()
        return None if inner is None else abs(self.alpha) * inner

    def spectrum(self) -> SpectralData | SpectrumDisc:
        a = complex(self.alpha)
        return _mapped_spectrum(self.inner.spectrum(), lambda v: a * v, lambda r: abs(a) * r)


@dataclass(frozen=True, eq=False)
class DirectSum(Operator):
    """The block-diagonal sum of its parts; their dimensions are read once,
    when it is built."""

    kind = "direct_sum"
    parts: tuple[Operator, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValidationError("direct sum needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))
        # the parts' dimensions (None for infinite); not a field, so not in the JSON
        object.__setattr__(self, "dims", tuple(p.finite_dim() for p in self.parts))

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        dim = self.finite_dim()
        if dim is None:
            raise DimensionError("direct sum application needs finite-dimensional parts")
        if dim != block.shape[-1]:
            raise DimensionError(
                f"direct sum dimension {dim} does not match vector dim {block.shape[-1]}"
            )
        pieces = np.split(block, np.cumsum(self.dims[:-1]), axis=-1)
        return np.concatenate([p.apply_block(b) for p, b in zip(self.parts, pieces)], axis=-1)

    def finite_dim(self) -> int | None:
        return None if None in self.dims else sum(self.dims)

    def power_norm(self, n: int, s: SpaceSpec) -> float:
        return max(p.power_norm(n, s) for p in self.parts)

    def radius(self) -> float | None:
        radii = [p.radius() for p in self.parts]
        return None if None in radii else max(radii)

    def spectrum(self) -> SpectralData:
        parts = [p.spectrum() for p in self.parts]
        if any(isinstance(p, SpectrumDisc) for p in parts):
            raise UnsupportedOperatorError("direct sums with shift parts have no list spectrum")
        return SpectralData(
            eigenvalues=tuple(e for p in parts for e in p.eigenvalues),
            provenance="numeric" if any(p.provenance == "numeric" for p in parts) else "closed_form",
            spectral_radius=max(p.spectral_radius for p in parts),
            includes_zero=any(p.includes_zero for p in parts),
            tail_sup=max(p.tail_sup for p in parts),
        )


@dataclass(frozen=True, eq=False)
class OperatorPower(Operator):
    """T^m for an integer m >= 1."""

    kind = "power"
    base: Operator
    m: int

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValidationError(f"operator power needs an integer m >= 1, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        for _ in range(self.m):
            block = self.base.apply_block(block)
        return block

    def finite_dim(self) -> int | None:
        return self.base.finite_dim()

    def power_norm(self, n: int, s: SpaceSpec) -> float:
        return self.base.power_norm(self.m * n, s)

    def radius(self) -> float | None:
        base = self.base.radius()
        return None if base is None else base**self.m

    def spectrum(self) -> SpectralData | SpectrumDisc:
        return _mapped_spectrum(self.base.spectrum(), lambda v: v**self.m, lambda r: r**self.m)


def _require_lp(s: SpaceSpec, what: str) -> None:
    if isinstance(s, FAggregate):
        raise UnsupportedOperatorError(
            f"{what} has closed form on l^p spaces only, not the aggregated norm"
        )


def _cluster_eigenvalues(vals: np.ndarray, scale: float) -> list[tuple[complex, int]]:
    tol = 1e-8 * max(scale, 1.0)
    groups: list[list[complex]] = []
    order = sorted(vals, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    for v in order:
        for g in groups:
            if abs(v - g[0]) <= tol:
                g.append(v)
                break
        else:
            groups.append([v])
    return [(complex(np.mean(g)), len(g)) for g in groups]


def _mapped_spectrum(inner, value, modulus) -> SpectralData | SpectrumDisc:
    """The spectrum of aT or T^m from that of T: eigenvalues mapped by
    `value`, radii and the tail bound by `modulus`."""
    if isinstance(inner, SpectrumDisc):
        return SpectrumDisc(radius=modulus(inner.radius))
    return SpectralData(
        eigenvalues=tuple((value(v), mult) for v, mult in inner.eigenvalues),
        provenance=inner.provenance,
        spectral_radius=modulus(inner.spectral_radius),
        includes_zero=inner.includes_zero,
        tail_sup=modulus(inner.tail_sup),
    )


def rolewicz(alpha: complex) -> Operator:
    """alpha * B, the scalar multiple of the unweighted backward shift."""
    return Scaled(alpha, BackwardShift(rl.ConstRule(1.0)))


def rotation_matrix(theta: float) -> DenseMatrix:
    c, s = math.cos(theta), math.sin(theta)
    return DenseMatrix(np.array([[c, -s], [s, c]]))


def diagonal_matrix(*diag: complex) -> DenseMatrix:
    return DenseMatrix(np.diag(np.asarray(diag, dtype=complex)))


def batch_apply(T: Operator, block: np.ndarray) -> np.ndarray:
    """Apply T to every row of a (count, dim) coordinate block.  A product
    that leaves the floating-point range comes out inf or nan without a
    warning; `require_finite` judges the orbit it lands in."""
    with np.errstate(over="ignore", invalid="ignore"):
        return T.apply_block(np.asarray(block, dtype=complex))


def apply(T: Operator, x: Vector) -> Vector:
    """Exact linear action of T on a truncated vector."""
    return Vector(batch_apply(T, x.coords[np.newaxis, :])[0])


def orbit_block(T: Operator, block: np.ndarray, steps: int) -> np.ndarray:
    """Stack of T^i applied to each row, i = 0..steps-1; shape (count, steps,
    dim), laid out time-major: the points of every row at one step are one
    contiguous (count, dim) slab, each step applied to the slab before it,
    and `entropy._pairs_within` reads the slabs without a copy."""
    if steps < 1:
        raise ValidationError("orbit needs at least one step")
    block = np.asarray(block, dtype=complex)
    slabs = np.empty((steps,) + block.shape, dtype=complex)
    slabs[0] = block
    for i in range(1, steps):
        slabs[i] = batch_apply(T, slabs[i - 1])
    require_finite(slabs)
    return slabs.transpose(1, 0, 2)


def require_finite(orbits: np.ndarray, what: str = "orbit") -> None:
    """Refuse orbit arrays (or other computed values, named by `what`) that
    left the floating-point range.

    An inf or nan coordinate makes every later distance meaningless (nan
    compares false both ways), so it is an error, checked once per grown
    block rather than per step.
    """
    if not np.isfinite(orbits).all():
        raise NonFiniteOrbitError(
            f"{what} left the floating-point range (inf or nan coordinates)"
        )


def power_norm(T: Operator, n: int, s: SpaceSpec | None = None) -> float:
    """Operator norm of T^n on s (l^2 by default), from the kind's
    `power_norm`: exact l^p closed forms for shifts and diagonals; for dense
    blocks, the largest absolute column sum, singular value or row sum of
    A^n on l^1, l^2 or l^inf."""
    if n < 1:
        raise ValidationError(f"power norm needs n >= 1, got {n}")
    return T.power_norm(n, Lp(2.0) if s is None else s)


@dataclass(frozen=True)
class SpectralRadiusCertificate:
    """inf_n |T^n|^{1/n} certificate: an upper bound on r(T)."""

    upper_bound: float
    closed_form: float | None
    sequence: tuple[float, ...]  # |T^n|^{1/n} for n = 1..n_max

    @property
    def value(self) -> float:
        return self.closed_form if self.closed_form is not None else self.upper_bound


def spectral_radius(T: Operator, n_max: int = 64) -> SpectralRadiusCertificate:
    if n_max < 8:
        raise ValidationError(f"spectral radius certificate needs n_max >= 8, got {n_max}")
    seq = tuple(power_norm(T, n) ** (1.0 / n) for n in range(1, n_max + 1))
    return SpectralRadiusCertificate(upper_bound=min(seq), closed_form=T.radius(), sequence=seq)


def spectrum(T: Operator) -> SpectralData | SpectrumDisc:
    """Eigenvalue data for list-like kinds, a disc description for
    constant-weight shifts."""
    return T.spectrum()


# ---------------------------------------------------------------------------
# mini-norm, contraction detection, Riesz splitting

MINI_NORM_FLOOR = 1e-12


def mini_norm(A: DenseMatrix) -> float:
    """inf{|Ax| : |x| = 1} = smallest singular value = 1/|A^{-1}|, taken
    from LAPACK's SVD of A (no inverse is formed)."""
    if not isinstance(A, DenseMatrix):
        raise ValidationError("mini-norm is defined for dense matrices")
    m = float(np.linalg.svd(A.entries, compute_uv=False)[-1])
    if m <= MINI_NORM_FLOOR:
        raise SingularMatrixError(
            f"smallest singular value {m:.3e} is below the invertibility floor"
        )
    return m


@dataclass(frozen=True)
class ContractionReport:
    """Least n with |T^n| < 1, when one exists within the search budget."""

    n: int | None
    norms: tuple[float, ...]
    hint: str | None = None


def contraction_power(T: Operator, n_max: int = 64) -> ContractionReport:
    norms = []
    for n in range(1, n_max + 1):
        pn = power_norm(T, n)
        norms.append(pn)
        if pn < 1.0:
            return ContractionReport(n=n, norms=tuple(norms))
    hint = None
    r = T.radius()
    if r is not None and r < 1.0:
        hint = (
            f"spectral radius {r:.6g} < 1 guarantees a contracting power; increase n_max"
        )
    return ContractionReport(n=None, norms=tuple(norms), hint=hint)


@dataclass(frozen=True)
class Splitting:
    """Invariant-subspace splitting by eigenvalue modulus (>1, =1, <1).

    Each part is an orthonormal (d, k) basis together with the k x k block
    of the operator in that basis; `change_of_basis` stacks the three bases.
    """

    unstable: tuple[np.ndarray, np.ndarray]
    center: tuple[np.ndarray, np.ndarray]
    stable: tuple[np.ndarray, np.ndarray]
    change_of_basis: np.ndarray
    residual: float

    @property
    def center_dim(self) -> int:
        return self.center[0].shape[1]


SPLIT_RESIDUAL_TOL = 1e-9
_NULLSPACE_RTOL = 1e-10


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace basis: the singular values at most
    _NULLSPACE_RTOL times max(|M|, 1) count as zero, so a matrix of norm
    below 1 is judged on the absolute floor _NULLSPACE_RTOL."""
    _, sv, vh = np.linalg.svd(M)
    scale = max(float(sv[0]) if sv.size else 0.0, 1.0)
    rank = int(np.sum(sv > _NULLSPACE_RTOL * scale))
    return vh[rank:].conj().T


def generalized_eigenspace(A: np.ndarray, lam: complex, multiplicity: int) -> np.ndarray:
    """Basis of N((A - lam I)^j) grown until it reaches the algebraic
    multiplicity, j <= multiplicity.  A power that is rounding noise at the
    scale of A^j (A numerically lam*I) is zero: its nullspace is everything,
    where normalising the noise would make it look full-rank."""
    d = A.shape[0]
    M = A - lam * np.eye(d)
    ref = max(float(np.linalg.norm(A, 2)), abs(lam), 1.0)
    powered = np.eye(d, dtype=complex)
    basis = np.zeros((d, 0))
    for j in range(1, multiplicity + 1):
        powered = powered @ M
        scale = np.linalg.norm(powered, 2)
        if scale <= _NULLSPACE_RTOL * ref**j:
            return np.eye(d, dtype=complex)
        basis = _nullspace(powered / scale)
        if basis.shape[1] >= multiplicity:
            break
    return basis


def riesz_split(A: DenseMatrix, circle_tol: float = 1e-6) -> Splitting:
    """Split along the unit circle; eigenvalues must either keep a
    `circle_tol` margin from modulus 1 or sit within circle_tol/2 of it
    (declared center)."""
    sd = A.spectrum()
    d = A.entries.shape[0]
    classes: dict[str, list[tuple[complex, int]]] = {"u": [], "c": [], "s": []}
    for lam, mult in sd.eigenvalues:
        gap = abs(abs(lam) - 1.0)
        if gap <= circle_tol / 2:
            classes["c"].append((lam, mult))
        elif gap > circle_tol:
            classes["u" if abs(lam) > 1.0 else "s"].append((lam, mult))
        else:
            raise AmbiguousSpectrumError(
                f"eigenvalue {lam:.6g} has modulus within the forbidden annulus "
                f"({circle_tol/2:.1e}, {circle_tol:.1e}] around 1"
            )

    def class_basis(members: list[tuple[complex, int]]) -> np.ndarray:
        if not members:
            return np.zeros((d, 0), dtype=complex)
        blocks = [generalized_eigenspace(A.entries, lam, mult) for lam, mult in members]
        raw = np.concatenate(blocks, axis=1)
        q, _ = np.linalg.qr(raw)
        return q[:, : raw.shape[1]]

    bases = {k: class_basis(v) for k, v in classes.items()}
    total = sum(b.shape[1] for b in bases.values())
    if total != d:
        raise ConvergenceError(
            f"generalized eigenspaces span {total} of {d} dimensions"
        )
    P = np.concatenate([bases["u"], bases["c"], bases["s"]], axis=1)

    def block_of(basis: np.ndarray) -> np.ndarray:
        if basis.shape[1] == 0:
            return np.zeros((0, 0), dtype=complex)
        sol, *_ = np.linalg.lstsq(basis, A.entries @ basis, rcond=None)
        return sol

    blocks = {k: block_of(b) for k, b in bases.items()}
    conj = np.linalg.solve(P, A.entries @ P)
    full_block = np.zeros((d, d), dtype=complex)
    at = 0
    for k in ("u", "c", "s"):
        size = blocks[k].shape[0]
        full_block[at : at + size, at : at + size] = blocks[k]
        at += size
    residual = float(np.linalg.norm(conj - full_block, 2))
    if residual >= SPLIT_RESIDUAL_TOL:
        raise ConvergenceError(
            f"block-diagonalisation residual {residual:.3e} exceeds {SPLIT_RESIDUAL_TOL:.0e}"
        )
    return Splitting(
        unstable=(bases["u"], blocks["u"]),
        center=(bases["c"], blocks["c"]),
        stable=(bases["s"], blocks["s"]),
        change_of_basis=P,
        residual=residual,
    )


def rolewicz_eigenvector(alpha: complex, lam: complex, M: int) -> Vector:
    """Eigenvector (lam/alpha)^n of alpha*B, valid only for |lam| < |alpha|."""
    if M < 1:
        raise ValidationError("eigenvector truncation must be >= 1")
    if abs(lam) >= abs(alpha):
        raise ValidationError(
            f"|lambda| = {abs(lam):.6g} >= |alpha| = {abs(alpha):.6g}: "
            "the eigenvector candidate leaves the space"
        )
    q = complex(lam) / complex(alpha)
    coords = np.empty(M, dtype=complex)
    term = q
    for i in range(M):
        coords[i] = term
        term *= q
    return Vector(coords)
