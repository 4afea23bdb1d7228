"""Deterministic invariant suite behind the CLI `verify` task.

Each check is a quick, seeded exercise of one module invariant; the task
passes when every check returns True.
"""

from __future__ import annotations

import math

import numpy as np

from . import rules as rl
from .entropy import (
    CompactSample,
    entropy_estimate,
    greedy_separated,
    grid_sample,
    max_separated_exact,
    sn_table,
    spectral_entropy,
)
from .measures import orbit_measure, pushforward_deviation, variational_gap
from .operators import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    DirectSum,
    ForwardShift,
    OperatorPower,
    apply,
    diagonal_matrix,
    mini_norm,
    power_norm,
    riesz_split,
    rotation_matrix,
    spectrum,
)
from .spaces import FAggregate, Lp, Vector, norm, project, vector, zero_vector
from .specification import (
    SegmentSchedule,
    fixed_vector,
    shadow_point,
    sp_constant,
    sp_separated_family,
)
from .symbolic import cube_sample, verify_conjugacy

L2 = Lp(2.0)
FA = FAggregate(L2)


def _check_fnorm_axioms() -> bool:
    rng = np.random.default_rng(0)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        x = Vector(rng.normal(size=d) + 1j * rng.normal(size=d))
        y = Vector(rng.normal(size=d) + 1j * rng.normal(size=d))
        for s in (L2, FA):
            if norm(Vector(x.coords + y.coords), s) > norm(x, s) + norm(y, s) + 1e-12:
                return False
            lam = float(rng.uniform(-0.99, 0.99))
            if norm(Vector(lam * x.coords), s) > norm(x, s) + 1e-12:
                return False
            if norm(Vector(0.0 * x.coords), s) != 0.0:
                return False
    return True


def _check_projection() -> bool:
    v = vector([1, 2, 3, 4])
    return project(project(v, 2), 2) == project(v, 2) and norm(project(v, 2), L2) <= norm(v, L2)


def _check_shift_inverse() -> bool:
    B, F = BackwardShift(rl.ConstRule(2)), ForwardShift(rl.ConstRule(2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = np.append(rng.integers(-8, 8, size=6) / 4.0, 0.0)
        x = vector(c)
        if apply(B, apply(F, x)) != x:
            return False
    return True


def _check_power_norm_submultiplicative() -> bool:
    rng = np.random.default_rng(2)
    mats = [DenseMatrix(rng.normal(size=(3, 3))) for _ in range(10)]
    mats.append(diagonal_matrix(1, 1 - 1e-6))  # nearly equal top singular values
    for A in mats:
        for m, n in ((1, 2), (2, 2), (1, 3)):
            if power_norm(A, m + n) > power_norm(A, m) * power_norm(A, n) * (1 + 1e-9):
                return False
    return True


def _check_spectrum_rules() -> bool:
    T = Diagonal(rl.ExplicitRule((2.0, 0.5, 0.25)))
    powered = spectrum(OperatorPower(T, 3))
    if sorted(abs(v) for v, _ in powered.eigenvalues) != [0.25**3, 0.5**3, 8.0]:
        return False
    both = spectrum(DirectSum((T, Diagonal(rl.ExplicitRule((3.0,))))))
    return sorted(abs(v) for v, _ in both.eigenvalues) == [0.25, 0.5, 2.0, 3.0]


def _check_mini_norm() -> bool:
    got = mini_norm(diagonal_matrix(2, 3))
    if abs(got - 2.0) > 1e-9:
        return False
    if abs(mini_norm(diagonal_matrix(1, 1 - 1e-6)) - (1 - 1e-6)) > 1e-12:
        return False
    inv_norm = float(np.linalg.svd(np.linalg.inv(diagonal_matrix(2, 3).entries), compute_uv=False)[0])
    return abs(got * inv_norm - 1.0) < 1e-10


def _check_riesz_blocks() -> bool:
    A = diagonal_matrix(2, 1, 0.5)
    split = riesz_split(A)
    for basis, block in (split.unstable, split.center, split.stable):
        if basis.shape[1] and np.linalg.norm(A.entries @ basis - basis @ block, 2) >= 1e-9:
            return False
    return split.residual < 1e-9


def _check_entropy_laws() -> bool:
    a = spectral_entropy(spectrum(Diagonal(rl.ExplicitRule((2.0, 0.5)))))
    b = spectral_entropy(spectrum(Diagonal(rl.ExplicitRule((1.5, 0.2)))))
    together = spectral_entropy(
        spectrum(DirectSum((Diagonal(rl.ExplicitRule((2.0, 0.5))), Diagonal(rl.ExplicitRule((1.5, 0.2))))))
    )
    if abs(together - (a + b)) > 1e-12:
        return False
    tripled = spectral_entropy(spectrum(OperatorPower(Diagonal(rl.ExplicitRule((2.0, 0.5))), 3)))
    return abs(tripled - 3 * a) <= 1e-12 * max(1.0, 3 * a)


def _check_greedy_vs_exact() -> bool:
    rng = np.random.default_rng(3)
    T = Diagonal(rl.ExplicitRule((2.0,)))
    for _ in range(15):
        pts = np.unique(rng.random(int(rng.integers(3, 10))))
        if len(pts) < 2:
            continue
        K = CompactSample(tuple(vector([p]) for p in pts), 0.05, "chk")
        for eps in (0.1, 0.3):
            g = len(greedy_separated(T, K, 2, eps, L2))
            e = len(max_separated_exact(T, K, 2, eps, L2))
            if g > e:
                return False
    return True


def _check_contraction_counts_flat() -> bool:
    T = Diagonal(rl.ExplicitRule((0.7,)))
    K = grid_sample(L2, (65,))
    table = sn_table(T, K, range(1, 6), [0.1, 0.05], L2)
    for eps in table.eps_values:
        col = [table.s(n, eps) for n in table.n_values]
        if col != [col[0]] * len(col):
            return False
    return entropy_estimate(table).h_estimate == 0.0


def _check_shadowing() -> bool:
    eps = 0.1
    sched = SegmentSchedule(((0, 1, vector([1, 1])),), sp_constant(eps))
    rep = shadow_point(BackwardShift(rl.ConstRule(2)), sched, eps)
    return rep.certified and rep.periodicity_exact


def _check_family() -> bool:
    B = BackwardShift(rl.ConstRule(2))
    fam = sp_separated_family(B, [zero_vector(48), fixed_vector(B, 48)], 2, 0.1)
    return fam.family_size == 4 and fam.min_pairwise > 0.1


def _check_conjugacy() -> bool:
    return verify_conjugacy(rl.ConstRule(2), 2, samples=100, M=32, seed=0).max_deviation == 0.0


def _check_cube_injective() -> bool:
    K = cube_sample(2, 4, rl.ConstRule(2), base=L2)
    return len({p for p in K.points}) == 16


def _check_measures() -> bool:
    A = rotation_matrix(2 * math.pi / 3)
    mu = orbit_measure(A, vector([1, 0]), 3)
    if pushforward_deviation(A, mu) > 1e-10:
        return False
    res = variational_gap(diagonal_matrix(2, 0.5))
    return res.as_tuple() == (math.log(2), 0.0, math.log(2)) and res.center_ok


CHECKS = {
    "fnorm_axioms": _check_fnorm_axioms,
    "projection": _check_projection,
    "shift_inverse": _check_shift_inverse,
    "power_norm_submultiplicative": _check_power_norm_submultiplicative,
    "spectrum_rules": _check_spectrum_rules,
    "mini_norm": _check_mini_norm,
    "riesz_blocks": _check_riesz_blocks,
    "entropy_laws": _check_entropy_laws,
    "greedy_vs_exact": _check_greedy_vs_exact,
    "contraction_counts_flat": _check_contraction_counts_flat,
    "shadowing": _check_shadowing,
    "separated_family": _check_family,
    "conjugacy": _check_conjugacy,
    "cube_injective": _check_cube_injective,
    "measures": _check_measures,
}


def run_all() -> dict[str, bool]:
    return {name: bool(fn()) for name, fn in sorted(CHECKS.items())}
