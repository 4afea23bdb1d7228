"""Periodic-orbit invariant measures for finite-dimensional linear maps.

A measure carried by a finite periodic orbit is automatically invariant and
has Kolmogorov-Sinai entropy zero, so comparing the best such measure with
the spectral entropy of the map exhibits the gap between metric and
topological entropy whenever some eigenvalue leaves the unit disc.  The
exploration is honest about its scope: only periodic-orbit measures are
searched, and every report says so.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .entropy import spectral_entropy
from .errors import ValidationError
from .operators import DenseMatrix, Splitting, riesz_split, spectrum
from .spaces import Vector
from .specification import linear_periodic_points

PERIODICITY_RTOL = 1e-10
MASS_TOL = 1e-12
CENTER_TOL = 1e-9

SCOPE_NOTE = (
    "invariant measures are explored within the periodic-orbit family only; "
    "best_h_mu is the supremum over that family"
)


@dataclass(frozen=True)
class OrbitMeasure:
    """Uniform probability on a finite orbit {x, Ax, ..., A^{k-1}x}."""

    atoms: tuple[tuple[Vector, float], ...]
    period: int

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("orbit measure needs at least one atom")
        if any(mass <= 0 for _, mass in self.atoms):
            raise ValidationError("atom masses must be positive")
        total = math.fsum(mass for _, mass in self.atoms)
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"atom masses sum to {total}, not 1")


def _minimal_period(A: np.ndarray, x: np.ndarray, k: int) -> int:
    scale = 1.0 + float(np.linalg.norm(x))
    y = x
    for j in range(1, k + 1):
        y = A @ y
        if np.linalg.norm(y - x) < PERIODICITY_RTOL * scale:
            return j
    return 0


def orbit_measure(A: DenseMatrix, x: Vector, k: int) -> OrbitMeasure:
    """Uniform measure on the orbit of a k-periodic point.

    The point must return to itself within tolerance; if a shorter period
    divides k the orbit is collapsed to its minimal length so atoms stay
    distinct.
    """
    if k < 1:
        raise ValidationError("period must be >= 1")
    if x.dim != A.d:
        raise ValidationError(f"point has dim {x.dim}, matrix is {A.d}x{A.d}")
    coords = x.coords
    period = _minimal_period(A.entries, coords, k)
    if period == 0:
        drift = float(
            np.linalg.norm(
                np.linalg.matrix_power(A.entries, k) @ coords - coords
            )
        )
        raise ValidationError(
            f"point is not {k}-periodic: |A^k x - x| = {drift:.3e}"
        )
    atoms = []
    y = coords
    for _ in range(period):
        atoms.append((Vector(y), 1.0 / period))
        y = A.entries @ y
    return OrbitMeasure(tuple(atoms), period)


def pushforward_deviation(A: DenseMatrix, mu: OrbitMeasure) -> float:
    """How far the atom multiset is from being fixed by A (best matching)."""
    points = [p.coords for p, _ in mu.atoms]
    images = [A.entries @ p for p in points]
    worst = 0.0
    used = set()
    for img in images:
        best, best_j = math.inf, -1
        for j, p in enumerate(points):
            if j in used:
                continue
            d = float(np.linalg.norm(img - p))
            if d < best:
                best, best_j = d, j
        used.add(best_j)
        worst = max(worst, best)
    return worst


@dataclass(frozen=True)
class MetricEntropyReport:
    value: float
    certificate: str


def metric_entropy_periodic(mu: OrbitMeasure) -> MetricEntropyReport:
    """Kolmogorov-Sinai entropy of a measure on a finite periodic orbit: 0."""
    return MetricEntropyReport(
        value=0.0,
        certificate=(
            f"measure supported on a period-{mu.period} orbit of "
            f"{len(mu.atoms)} atoms; its Kolmogorov-Sinai entropy is 0"
        ),
    )


@dataclass(frozen=True)
class SupportReport:
    in_center: bool
    max_unstable: float
    max_stable: float
    offending_atom: int | None

    def __bool__(self) -> bool:
        return self.in_center


def support_in_center(A: DenseMatrix, mu: OrbitMeasure, split: Splitting) -> SupportReport:
    """Whether every atom lies in the center subspace of the splitting,
    up to CENTER_TOL * (1 + |atom|) on the unstable and stable components."""
    P = split.change_of_basis
    du = split.unstable[0].shape[1]
    dc = split.center[0].shape[1]
    worst_u = worst_s = 0.0
    offender = None
    ok = True
    for idx, (point, _) in enumerate(mu.atoms):
        comps = np.linalg.solve(P, point.coords)
        xu = split.unstable[0] @ comps[:du]
        xs = split.stable[0] @ comps[du + dc :]
        nu, ns = float(np.linalg.norm(xu)), float(np.linalg.norm(xs))
        allowed = CENTER_TOL * (1.0 + float(np.linalg.norm(point.coords)))
        if nu >= allowed or ns >= allowed:
            ok = False
            if offender is None or max(nu, ns) > max(worst_u, worst_s):
                offender = idx
        worst_u, worst_s = max(worst_u, nu), max(worst_s, ns)
    return SupportReport(ok, worst_u, worst_s, offender)


@dataclass(frozen=True)
class VariationalGapResult:
    """Spectral entropy vs the best periodic-orbit metric entropy."""

    h_top: float
    best_h_mu: float
    gap: float
    periods_searched: int
    center_dim: int
    measures_found: int
    center_ok: bool
    scope_note: str = SCOPE_NOTE

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.h_top, self.best_h_mu, self.gap)

    def to_json_dict(self) -> dict:
        return asdict(self)


def variational_gap(A: DenseMatrix, search_periods: int = 12) -> VariationalGapResult:
    """Measure the failure of the variational principle at desk scale.

    h_top comes from the eigenvalue formula; the measure side enumerates
    periodic subspaces for k <= search_periods, builds orbit measures on
    sampled periodic points (plus the point mass at 0) and takes their
    common metric entropy 0.  Every periodic point found is asserted to lie
    in the center subspace.
    """
    if not isinstance(A, DenseMatrix):
        raise ValidationError("variational gap is computed for dense matrices")
    if A.d > 8:
        raise ValidationError("variational gap search is capped at d = 8")
    if search_periods < 1:
        raise ValidationError("need at least one period to search")
    h_top = spectral_entropy(spectrum(A))
    split = riesz_split(A)
    measures = [orbit_measure(A, Vector(np.zeros(A.d)), 1)]
    center_ok = True
    for k in range(1, search_periods + 1):
        basis = linear_periodic_points(A, k)
        for col in range(basis.shape[1]):
            x = Vector(basis[:, col])
            mu = orbit_measure(A, x, k)
            measures.append(mu)
            if not support_in_center(A, mu, split):
                center_ok = False
    best_h_mu = max(metric_entropy_periodic(mu).value for mu in measures)
    return VariationalGapResult(
        h_top=h_top,
        best_h_mu=best_h_mu,
        gap=h_top - best_h_mu,
        periods_searched=search_periods,
        center_dim=split.center_dim,
        measures_found=len(measures),
        center_ok=center_ok,
    )
