"""Symbolic operator descriptions with exact application and spectra.

Operator kinds: weighted backward/forward shifts, diagonal operators,
small dense matrices (d <= 32), scalar multiples, direct sums, and powers.
Shifts and diagonals act on truncated sequence vectors; the backward shift
shortens support by one step, the forward shift needs one coordinate of
headroom.

Spectral machinery: operator-power norms on l^p (exact sliding-window
products for shifts, LAPACK singular values for dense blocks), Gelfand-style
spectral-radius certificates, eigenvalue multisets, the mini-norm
m(A) = inf{|Ax| : |x| = 1} = 1/|A^{-1}| (LAPACK's smallest singular value),
and the Riesz-style splitting of a matrix into unstable / center / stable
invariant subspaces by eigenvalue modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


class Operator:
    """Marker base class; concrete kinds are the dataclasses below."""


@dataclass(frozen=True, eq=False)
class BackwardShift(Operator):
    """(B_w x)_n = w_{n+1} x_{n+1}."""

    weights: rl.Rule

    def __post_init__(self):
        rl.check_nonvanishing(self.weights)


@dataclass(frozen=True, eq=False)
class ForwardShift(Operator):
    """(F_w x)_{n+1} = x_n / w_{n+1}, first coordinate zero, so B_w F_w = I.

    Applying it refuses, with UnderflowError, any nonzero coordinate whose
    image has a modulus below the normal range: such an image has lost
    bits (or flushed to zero) and B_w cannot restore x.  So for real
    coordinates and power-of-two weights B_w F_w x = x holds exactly
    wherever F_w returns.  `forward_shift_block` is the same action
    without the refusal.
    """

    weights: rl.Rule

    def __post_init__(self):
        rl.check_nonvanishing(self.weights)


@dataclass(frozen=True, eq=False)
class Diagonal(Operator):
    """(D x)_n = lambda_n x_n."""

    eigenvalues: rl.Rule


@dataclass(frozen=True, eq=False)
class DenseMatrix(Operator):
    entries: np.ndarray = field()

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("dense operator needs a square matrix")
        if a.shape[0] > MAX_DENSE_DIM:
            raise ValidationError(
                f"dense operators are capped at d = {MAX_DENSE_DIM}, got {a.shape[0]}"
            )
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValidationError("matrix entries must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Scaled(Operator):
    alpha: complex
    inner: Operator


@dataclass(frozen=True, eq=False)
class DirectSum(Operator):
    parts: tuple[Operator, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValidationError("direct sum needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True, eq=False)
class OperatorPower(Operator):
    base: Operator
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError(f"operator power needs m >= 1, got {self.m}")


def rolewicz(alpha: complex) -> Operator:
    """alpha * B, the scalar multiple of the unweighted backward shift."""
    return Scaled(alpha, BackwardShift(rl.ConstRule(1.0)))


def rotation_matrix(theta: float) -> DenseMatrix:
    c, s = math.cos(theta), math.sin(theta)
    return DenseMatrix(np.array([[c, -s], [s, c]]))


def diagonal_matrix(*diag: complex) -> DenseMatrix:
    return DenseMatrix(np.diag(np.asarray(diag, dtype=complex)))


def finite_dim(T: Operator) -> int | None:
    """Intrinsic dimension of a finite-rank description, None for shifts and
    generator-rule diagonals."""
    if isinstance(T, DenseMatrix):
        return T.d
    if isinstance(T, Diagonal):
        return rl.explicit_length(T.eigenvalues)
    if isinstance(T, Scaled):
        return finite_dim(T.inner)
    if isinstance(T, OperatorPower):
        return finite_dim(T.base)
    if isinstance(T, DirectSum):
        dims = [finite_dim(p) for p in T.parts]
        return None if any(d is None for d in dims) else sum(dims)
    return None


def batch_apply(T: Operator, block: np.ndarray) -> np.ndarray:
    """Apply T to every row of a (count, dim) coordinate block."""
    block = np.asarray(block, dtype=complex)
    dim = block.shape[-1]
    if isinstance(T, BackwardShift):
        w = rl.values(T.weights, dim + 1)  # w_1..w_{dim+1}; w_1 unused
        out = np.zeros_like(block)
        out[..., :-1] = block[..., 1:] * w[1:dim]
        return out
    if isinstance(T, ForwardShift):
        out = forward_shift_block(T.weights, block)
        if np.any((block[..., :-1] != 0) & (np.abs(out[..., 1:]) < _TINY)):
            raise UnderflowError(
                "forward shift would round a nonzero coordinate into the "
                "subnormal range or to zero"
            )
        return out
    if isinstance(T, Diagonal):
        L = rl.explicit_length(T.eigenvalues)
        if L is not None and dim > L:
            raise DimensionError(
                f"diagonal rule defines {L} entries, vector has dim {dim}"
            )
        return block * rl.values(T.eigenvalues, dim)
    if isinstance(T, DenseMatrix):
        if dim != T.d:
            raise DimensionError(f"matrix is {T.d}x{T.d}, vector has dim {dim}")
        return block @ T.entries.T
    if isinstance(T, Scaled):
        return complex(T.alpha) * batch_apply(T.inner, block)
    if isinstance(T, DirectSum):
        dims = [finite_dim(p) for p in T.parts]
        if any(d is None for d in dims):
            raise DimensionError("direct sum application needs finite-dimensional parts")
        if sum(dims) != dim:
            raise DimensionError(
                f"direct sum dimension {sum(dims)} does not match vector dim {dim}"
            )
        pieces, at = [], 0
        for part, d in zip(T.parts, dims):
            pieces.append(batch_apply(part, block[..., at : at + d]))
            at += d
        return np.concatenate(pieces, axis=-1)
    if isinstance(T, OperatorPower):
        for _ in range(T.m):
            block = batch_apply(T.base, block)
        return block
    raise ValidationError(f"unknown operator kind {type(T).__name__}")


def forward_shift_block(weights: rl.Rule, block: np.ndarray) -> np.ndarray:
    """F_w on every row of a (count, dim) block, images below the normal
    range included (they round, and may flush to zero)."""
    block = np.asarray(block, dtype=complex)
    dim = block.shape[-1]
    if np.any(block[..., -1] != 0):
        raise HeadroomError(
            "forward shift needs a zero last coordinate; extend the truncation"
        )
    w = rl.values(weights, dim + 1)
    out = np.zeros_like(block)
    out[..., 1:] = block[..., :-1] / w[1:dim]
    return out


def apply(T: Operator, x: Vector) -> Vector:
    """Exact linear action of T on a truncated vector."""
    return Vector(batch_apply(T, x.coords[np.newaxis, :])[0])


def orbit_block(T: Operator, block: np.ndarray, steps: int) -> np.ndarray:
    """Stack of T^i applied to each row, i = 0..steps-1; shape (count, steps, dim)."""
    if steps < 1:
        raise ValidationError("orbit needs at least one step")
    block = np.asarray(block, dtype=complex)
    out = np.empty((block.shape[0], steps, block.shape[1]), dtype=complex)
    out[:, 0, :] = block
    for i in range(1, steps):
        out[:, i, :] = batch_apply(T, out[:, i - 1, :])
    require_finite(out)
    return out


def require_finite(orbits: np.ndarray) -> None:
    """Refuse orbit arrays that left the floating-point range.

    An inf or nan coordinate makes every later distance meaningless (nan
    compares false both ways), so it is an error, checked once per grown
    block rather than per step.
    """
    if not np.isfinite(orbits).all():
        raise NonFiniteOrbitError(
            "orbit left the floating-point range (inf or nan coordinates)"
        )


# ---------------------------------------------------------------------------
# operator-power norms and spectral radius


def _require_lp(s: SpaceSpec, what: str) -> Lp:
    if isinstance(s, FAggregate):
        raise UnsupportedOperatorError(
            f"{what} has closed form on l^p spaces only, not the aggregated norm"
        )
    return s


def _sup_window_product(weights: np.ndarray, n: int) -> float:
    """sup over start positions c >= 1 of prod_{l=c+1}^{c+n} |w_l|.

    Uses plain products (not logs) so dyadic weights stay exact.  Every
    window multiplies its factors left to right, one vector product per
    offset; a nan window (an inf factor times a zero product) is skipped.
    """
    a = np.abs(weights)  # 0-based slot l is weight w_{l+1}
    prods = np.ones(len(a) - n)
    for l in range(1, n + 1):
        prods *= a[l : l + prods.size]
    return np.fmax.reduce(prods, initial=0.0)


def power_norm(T: Operator, n: int, s: SpaceSpec | None = None, window: int = DEFAULT_WINDOW) -> float:
    """Operator norm of T^n.

    Shift and diagonal branches are the exact l^p closed forms evaluated over
    a representable window of basis directions; dense blocks use the largest
    singular value of A^n in the Euclidean norm, from LAPACK's SVD.
    """
    if n < 1:
        raise ValidationError(f"power norm needs n >= 1, got {n}")
    s = Lp(2.0) if s is None else s
    if isinstance(T, (BackwardShift, ForwardShift)):
        _require_lp(s, "shift power norm")
        L = rl.explicit_length(T.weights)
        probe = min(window + n, L) if L is not None else window + n
        if probe <= n:
            raise ValidationError("weight list too short for the requested power")
        w = rl.values(T.weights, probe)
        return _sup_window_product(w if isinstance(T, BackwardShift) else 1.0 / w, n)
    if isinstance(T, Diagonal):
        _require_lp(s, "diagonal power norm")
        sup = rl.sup_abs(T.eigenvalues)
        if math.isinf(sup):
            raise UnsupportedOperatorError("diagonal rule is unbounded")
        return sup**n
    if isinstance(T, DenseMatrix):
        return float(np.linalg.norm(np.linalg.matrix_power(T.entries, n), 2))
    if isinstance(T, Scaled):
        return abs(T.alpha) ** n * power_norm(T.inner, n, s, window)
    if isinstance(T, DirectSum):
        return max(power_norm(p, n, s, window) for p in T.parts)
    if isinstance(T, OperatorPower):
        return power_norm(T.base, T.m * n, s, window)
    raise ValidationError(f"unknown operator kind {type(T).__name__}")


def closed_form_spectral_radius(T: Operator) -> float | None:
    """r(T) when a closed form is available (diagonals, constant-weight
    shifts, and combinations thereof); None otherwise."""
    if isinstance(T, Diagonal):
        sup = rl.sup_abs(T.eigenvalues)
        return None if math.isinf(sup) else sup
    if isinstance(T, BackwardShift) and isinstance(T.weights, rl.ConstRule):
        return abs(T.weights.value)
    if isinstance(T, ForwardShift) and isinstance(T.weights, rl.ConstRule):
        return 1.0 / abs(T.weights.value)
    if isinstance(T, Scaled):
        inner = closed_form_spectral_radius(T.inner)
        return None if inner is None else abs(T.alpha) * inner
    if isinstance(T, OperatorPower):
        base = closed_form_spectral_radius(T.base)
        return None if base is None else base**T.m
    if isinstance(T, DirectSum):
        parts = [closed_form_spectral_radius(p) for p in T.parts]
        return None if any(p is None for p in parts) else max(parts)
    if isinstance(T, DenseMatrix):
        return float(np.max(np.abs(np.linalg.eigvals(T.entries))))
    return None


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
    return SpectralRadiusCertificate(
        upper_bound=min(seq),
        closed_form=closed_form_spectral_radius(T),
        sequence=seq,
    )


# ---------------------------------------------------------------------------
# spectra


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
    residual_tol: float = 0.0
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
    open_disc_is_point_spectrum: bool = True
    boundary_note: str = "boundary eigenvalue candidates leave the space"

    @property
    def spectral_radius(self) -> float:
        return self.radius


_DIAG_SPECTRUM_WINDOW = 32
EIG_RESIDUAL_TOL = 1e-9


def _rule_tail_sup(rule: rl.Rule, window: int) -> float:
    """Bound on |lambda_n| for n > window (monotone-envelope rules only)."""
    if isinstance(rule, rl.ConstRule):
        return abs(rule.value)
    if isinstance(rule, rl.GeometricRule):
        if abs(rule.ratio) <= 1.0:
            return abs(rl.value_at(rule, window + 1))
        return math.inf
    if isinstance(rule, rl.HarmonicRule):
        return 1.0 / (window + 2)
    return 0.0


def _diagonal_spectrum(rule: rl.Rule) -> SpectralData:
    L = rl.explicit_length(rule)
    if L is not None:
        eigs = tuple((complex(v), 1) for v in rl.values(rule, L))
        return SpectralData(
            eigenvalues=eigs,
            provenance="closed_form",
            spectral_radius=max(abs(v) for v, _ in eigs),
            includes_zero=False,
            tail_sup=0.0,
        )
    window = _DIAG_SPECTRUM_WINDOW
    # extend so every modulus > 1 is listed when the rule decays
    if isinstance(rule, rl.GeometricRule) and 0 < abs(rule.ratio) < 1 and abs(rule.start) > 1:
        need = int(math.log(abs(rule.start)) / -math.log(abs(rule.ratio))) + 4
        window = max(window, need)
    vals = rl.values(rule, window)
    return SpectralData(
        eigenvalues=tuple((complex(v), 1) for v in vals),
        provenance="closed_form",
        spectral_radius=rl.sup_abs(rule),
        includes_zero=True,
        tail_sup=_rule_tail_sup(rule, window),
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


def _dense_spectrum(A: np.ndarray) -> SpectralData:
    d = A.shape[0]
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigenvalue iteration failed: {exc}") from exc
    scale = float(np.linalg.norm(A, 2)) if d else 0.0
    residuals = tuple(float(r) for r in np.linalg.norm(A @ vecs - vecs * vals, axis=0))
    worst = max(residuals, default=0.0)
    if not worst < EIG_RESIDUAL_TOL * max(1.0, scale):
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {EIG_RESIDUAL_TOL:.0e}"
        )
    clustered = _cluster_eigenvalues(vals, scale)
    return SpectralData(
        eigenvalues=tuple(clustered),
        provenance="numeric",
        spectral_radius=float(np.max(np.abs(vals))) if d else 0.0,
        includes_zero=False,
        tail_sup=0.0,
        residual_tol=EIG_RESIDUAL_TOL,
        residuals=residuals,
    )


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
        residual_tol=inner.residual_tol,
    )


def spectrum(T: Operator) -> SpectralData | SpectrumDisc:
    """Eigenvalue data for list-like kinds, a disc description for
    constant-weight shifts."""
    if isinstance(T, Diagonal):
        return _diagonal_spectrum(T.eigenvalues)
    if isinstance(T, DenseMatrix):
        return _dense_spectrum(T.entries)
    if isinstance(T, (BackwardShift, ForwardShift)):
        radius = closed_form_spectral_radius(T)
        if radius is None:
            raise UnsupportedOperatorError(
                "spectrum of a non-constant-weight shift has no closed form here"
            )
        return SpectrumDisc(radius=radius)
    if isinstance(T, Scaled):
        a = complex(T.alpha)
        return _mapped_spectrum(spectrum(T.inner), lambda v: a * v, lambda r: abs(a) * r)
    if isinstance(T, OperatorPower):
        return _mapped_spectrum(spectrum(T.base), lambda v: v**T.m, lambda r: r**T.m)
    if isinstance(T, DirectSum):
        parts = [spectrum(p) for p in T.parts]
        if any(isinstance(p, SpectrumDisc) for p in parts):
            raise UnsupportedOperatorError("direct sums with shift parts have no list spectrum")
        eigs: list[tuple[complex, int]] = []
        for p in parts:
            eigs.extend(p.eigenvalues)
        return SpectralData(
            eigenvalues=tuple(eigs),
            provenance="numeric" if any(p.provenance == "numeric" for p in parts) else "closed_form",
            spectral_radius=max(p.spectral_radius for p in parts),
            includes_zero=any(p.includes_zero for p in parts),
            tail_sup=max(p.tail_sup for p in parts),
            residual_tol=max(p.residual_tol for p in parts),
        )
    raise ValidationError(f"unknown operator kind {type(T).__name__}")


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
    r = closed_form_spectral_radius(T)
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


def _nullspace(M: np.ndarray, rtol: float = _NULLSPACE_RTOL) -> np.ndarray:
    """Orthonormal nullspace basis: the singular values at most rtol times
    max(|M|, 1) count as zero, so a matrix of norm below 1 is judged on the
    absolute floor rtol."""
    _, sv, vh = np.linalg.svd(M)
    scale = max(float(sv[0]) if sv.size else 0.0, 1.0)
    rank = int(np.sum(sv > rtol * scale))
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
    sd = _dense_spectrum(A.entries)
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
    residual = float(np.linalg.norm(conj - full_block, 2)) if d else 0.0
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
