"""Weight / eigenvalue sequence rules: explicit lists and closed-form generators.

Sequences are indexed from 1.  The generators are the three families used by
the operator constructions: constant, geometric (first * ratio**(n-1)) and
the harmonic-type decay 1/(n+1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ValidationError


def check_finite(what: str, *values: complex) -> None:
    """Refuse NaN and infinite scalar parameters."""
    if not all(cmath.isfinite(complex(v)) for v in values):
        raise ValidationError(f"{what} must be finite, got {values!r}")


@dataclass(frozen=True)
class ConstRule:
    value: complex

    def __post_init__(self):
        check_finite("constant rule value", self.value)


@dataclass(frozen=True)
class GeometricRule:
    ratio: complex
    first: complex | None = None  # defaults to ratio, giving x_n = ratio**n

    def __post_init__(self):
        check_finite("geometric rule ratio and first term", self.ratio, self.start)

    @property
    def start(self) -> complex:
        return self.ratio if self.first is None else self.first


@dataclass(frozen=True)
class HarmonicRule:
    """x_n = 1/(n+1)."""


@dataclass(frozen=True)
class ExplicitRule:
    values: tuple[complex, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("explicit rule needs at least one value")
        check_finite("explicit rule values", *self.values)


Rule = ConstRule | GeometricRule | HarmonicRule | ExplicitRule


def value_at(rule: Rule, n: int) -> complex:
    """n-th term of the sequence, n >= 1."""
    if n < 1:
        raise ValidationError(f"sequence index must be >= 1, got {n}")
    if isinstance(rule, ConstRule):
        return complex(rule.value)
    if isinstance(rule, GeometricRule):
        return complex(rule.start) * complex(rule.ratio) ** (n - 1)
    if isinstance(rule, HarmonicRule):
        return complex(1.0 / (n + 1))
    if isinstance(rule, ExplicitRule):
        if n > len(rule.values):
            raise ValidationError(
                f"explicit rule has {len(rule.values)} values, index {n} requested"
            )
        return complex(rule.values[n - 1])
    raise ValidationError(f"unknown rule {rule!r}")


def values(rule: Rule, count: int) -> np.ndarray:
    """First `count` terms as a complex array."""
    if isinstance(rule, ConstRule):
        return np.full(count, complex(rule.value))
    if isinstance(rule, GeometricRule):
        # cumulative products keep dyadic ratios exact, unlike ratio**n
        out = np.empty(count, dtype=complex)
        term = complex(rule.start)
        for i in range(count):
            out[i] = term
            term = term * complex(rule.ratio)
        return out
    if isinstance(rule, HarmonicRule):
        return 1.0 / np.arange(2, count + 2, dtype=float) + 0j
    if isinstance(rule, ExplicitRule):
        if count > len(rule.values):
            raise ValidationError(
                f"explicit rule has {len(rule.values)} values, {count} requested"
            )
        return np.array(rule.values[:count], dtype=complex)
    raise ValidationError(f"unknown rule {rule!r}")


def explicit_length(rule: Rule) -> int | None:
    """Length of an explicit list, None for generator rules."""
    return len(rule.values) if isinstance(rule, ExplicitRule) else None


def sup_abs(rule: Rule) -> float:
    """sup_n |x_n|; may be inf for growing geometric rules."""
    if isinstance(rule, ConstRule):
        return abs(rule.value)
    if isinstance(rule, GeometricRule):
        if abs(rule.ratio) <= 1.0:
            return abs(rule.start)
        return math.inf
    if isinstance(rule, HarmonicRule):
        return 0.5
    return max(abs(complex(v)) for v in rule.values)


def check_nonvanishing(rule: Rule) -> None:
    """Weight sequences must have no zero entry, decided exactly: a geometric
    rule vanishes iff its first term or ratio is 0, a list iff some value is,
    and constant and harmonic rules iff their first term is."""
    geometric = isinstance(rule, GeometricRule)
    terms = (rule.start, rule.ratio) if geometric else values(rule, explicit_length(rule) or 1)
    if any(t == 0 for t in terms):
        raise ValidationError("weight sequence contains a zero")


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    ratio_bound: float  # sup of |1/w_{n+1}| beyond the probe index
    window_only: bool  # True when only a finite window could be probed
    note: str


_RATIO_CAP = 0.999


def weight_admissibility(rule: Rule) -> AdmissibilityReport:
    """Tail-ratio test for sum_n (prod_{i<=n} w_i)^{-1} e_n landing in the space.

    The partial-sum terms have consecutive ratio 1/|w_{n+1}|; an eventual
    bound q < 1 certifies geometric summability.  Closed-form rules are
    decided exactly, explicit lists only on their first 64 weights.
    """
    if isinstance(rule, ConstRule):
        q = 1.0 / abs(rule.value) if rule.value != 0 else math.inf
        return AdmissibilityReport(q < 1.0, q, False, "constant rule, exact")
    if isinstance(rule, GeometricRule):
        r, a = abs(rule.ratio), abs(rule.start)
        if r > 1.0:
            return AdmissibilityReport(True, 0.0, False, "|w_n| grows geometrically")
        if r == 1.0:
            q = 1.0 / a if a else math.inf
            return AdmissibilityReport(q < 1.0, q, False, "constant modulus, exact")
        return AdmissibilityReport(False, math.inf, False, "|w_n| -> 0, sums diverge")
    if isinstance(rule, HarmonicRule):
        return AdmissibilityReport(False, math.inf, False, "1/|w_{n+1}| = n+2 grows")
    vals = np.abs(values(rule, min(64, len(rule.values))))
    if np.any(vals == 0):
        return AdmissibilityReport(False, math.inf, True, "zero weight")
    ratios = 1.0 / vals[1:] if len(vals) > 1 else 1.0 / vals
    q = float(np.max(ratios))
    return AdmissibilityReport(q <= _RATIO_CAP, q, True, "explicit list, window test")


def require_admissible(rule: Rule) -> AdmissibilityReport:
    rep = weight_admissibility(rule)
    if not rep.admissible:
        raise AdmissibilityError(f"weights fail the tail-ratio test: {rep.note}")
    return rep
