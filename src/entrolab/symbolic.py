"""Bernoulli full shifts and their embedding into weighted-shift dynamics.

A sequence over {0..N-1} maps to the vector with coordinates
x_n * prod_{i<=n} w_i^{-1}; under that embedding the symbol shift and the
weighted backward shift agree, which transports the log N entropy of the
full shift onto compact subsets of the sequence space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rules as rl
from .entropy import CompactSample
from .errors import SampleSizeError, ValidationError
from .operators import BackwardShift, batch_apply
from .spaces import Lp, SpaceSpec, Vector

EXHAUSTIVE_CAP = 100_000
CONJUGACY_BLOCK = 1024  # prefixes checked at once; keeps memory flat in `samples`


@dataclass(frozen=True)
class SymbolSequence:
    """Finite prefix of a sequence over the alphabet {0..N-1}."""

    symbols: tuple[int, ...]
    alphabet: int

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValidationError("alphabet size must be >= 1")
        if len(self.symbols) < 1:
            raise ValidationError("sequence needs at least one symbol")
        if any(not (0 <= s < self.alphabet) for s in self.symbols):
            raise ValidationError(f"symbols must lie in 0..{self.alphabet - 1}")
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)


def bernoulli_shift(x: SymbolSequence) -> SymbolSequence:
    """Drop the first symbol."""
    if len(x) < 2:
        raise ValidationError("cannot shift a length-1 prefix")
    return SymbolSequence(x.symbols[1:], x.alphabet)


def _inverse_products(w: rl.Rule, count: int) -> np.ndarray:
    """prod_{i<=n} w_i^{-1} for n = 1..count, by sequential division (exact
    for dyadic weights)."""
    vals = rl.values(w, count)
    out = np.empty(count, dtype=complex)
    acc = 1.0 + 0j
    for i in range(count):
        acc = acc / vals[i]
        out[i] = acc
    return out


def phi_N(x: SymbolSequence, w: rl.Rule, M: int) -> Vector:
    """Embed a symbol prefix: coordinate n is x_n * prod_{i<=n} w_i^{-1}."""
    if M < 1 or M > len(x):
        raise ValidationError(f"truncation M = {M} outside 1..{len(x)}")
    rl.require_admissible(w)
    prods = _inverse_products(w, M)
    coords = prods * np.array(x.symbols[:M], dtype=complex)
    return Vector(coords)


@dataclass(frozen=True)
class ConjugacyReport:
    max_deviation: float
    samples: int
    alphabet: int
    dim: int
    exact: bool


def verify_conjugacy(w: rl.Rule, N: int, samples: int, M: int, seed: int = 0) -> ConjugacyReport:
    """Check that embedding then shifting equals shifting then embedding.

    Compares coordinates 1..M-1 of B_w(phi(x)) against phi(shift(x)) on
    seeded random prefixes; dyadic weights give deviation exactly 0.
    """
    rl.require_admissible(w)
    if N < 1 or samples < 1 or M < 2:
        raise ValidationError("need N >= 1, at least one sample and M >= 2")
    rng = np.random.default_rng(seed)
    B = BackwardShift(w)
    prods = _inverse_products(w, M)
    worst = 0.0
    for start in range(0, samples, CONJUGACY_BLOCK):
        rows = min(CONJUGACY_BLOCK, samples - start)
        sym = rng.integers(0, N, size=(rows, M)).astype(complex)  # one prefix per row
        lhs = batch_apply(B, prods * sym)[:, : M - 1]
        worst = max(worst, float(np.max(np.abs(lhs - prods[: M - 1] * sym[:, 1:]))))
    return ConjugacyReport(
        max_deviation=worst, samples=samples, alphabet=N, dim=M, exact=worst == 0.0
    )


def _tail_resolution(N: int, depth: int, w: rl.Rule, base: SpaceSpec) -> float:
    """Base-space norm of the worst tail ((N-1) prod w_i^{-1})_{n>depth}.

    Summed numerically until the certified geometric remainder is negligible.
    """
    rep = rl.require_admissible(w)
    q = min(rep.ratio_bound, 0.999) if rep.ratio_bound > 0 else 0.5
    p = base.p if isinstance(base, Lp) else 2.0
    acc = 0.0
    vals = rl.values(w, depth)
    prod = abs(np.prod(vals)) if depth else 1.0
    term = (N - 1) / prod if prod else 0.0
    n = depth
    if math.isinf(p):
        # sup norm: the first tail term dominates under a decaying ratio
        return term / abs(rl.value_at(w, depth + 1))
    while True:
        n += 1
        term = term / abs(rl.value_at(w, n))
        acc += term**p
        rem = (term * q) ** p / (1 - q**p)
        if rem <= 1e-32 * max(acc, 1e-300):
            break
        if n > depth + 100_000:
            raise ValidationError("tail sum did not converge; weights too weak")
    return (acc + rem) ** (1.0 / p)


def cube_sample(
    N: int,
    depth: int,
    w: rl.Rule,
    base: SpaceSpec | None = None,
    count: int | None = None,
    seed: int | None = None,
) -> CompactSample:
    """Embedded sample of the full N-symbol cube.

    Exhaustive when N**depth stays under the cap: every depth-prefix padded
    with the symbol 0, so the truncated vectors represent the padded
    sequences exactly.  Otherwise `count` seeded random prefixes.
    The declared resolution is the base-norm of the worst unrepresented
    tail.
    """
    if N < 1 or depth < 1:
        raise ValidationError("need N >= 1 and depth >= 1")
    base = Lp(2.0) if base is None else base
    rl.require_admissible(w)
    total = N**depth
    prods = _inverse_products(w, depth)
    if total <= EXHAUSTIVE_CAP and count is None:
        rows = np.array(
            list(itertools.product(range(N), repeat=depth)), dtype=complex
        )
    else:
        if count is None or count < 1:
            raise SampleSizeError(
                f"{N}**{depth} = {total} exceeds the exhaustive cap; pass a count"
            )
        if seed is None:
            raise ValidationError("random cube sampling needs a seed")
        rng = np.random.default_rng(seed)
        seen = set()
        while len(seen) < min(count, total):
            seen.add(tuple(int(v) for v in rng.integers(0, N, size=depth)))
        rows = np.array(sorted(seen), dtype=complex)
    resolution = _tail_resolution(N, depth, w, base)
    return CompactSample(
        rows * prods, max(resolution, 1e-300), label=f"cube(N={N},depth={depth})"
    )
