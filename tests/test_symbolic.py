import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab.entropy import entropy_estimate, sn_table
from entrolab.errors import (
    AdmissibilityError,
    NonFiniteOrbitError,
    SampleSizeError,
    ValidationError,
)
from entrolab.operators import BackwardShift, apply
from entrolab.rules import ConstRule, GeometricRule, HarmonicRule
from entrolab.spaces import Lp, norm_block
from entrolab import symbolic
from entrolab.symbolic import (
    SymbolSequence,
    bernoulli_shift,
    cube_sample,
    phi_N,
    verify_conjugacy,
)

L1 = Lp(1.0)
L2 = Lp(2.0)
LINF = Lp(math.inf)
W2 = ConstRule(2)


def phi_oracle(symbols, weights):
    """Direct per-coordinate product evaluation."""
    out = []
    prod = 1.0
    for n, s in enumerate(symbols, start=1):
        prod = prod / weights(n)
        out.append(s * prod)
    return np.array(out, dtype=complex)


def test_phi_alternating():
    x = SymbolSequence((1, 0, 1, 0, 1, 0), 2)
    got = phi_N(x, W2, 6)
    expect = phi_oracle(x.symbols, lambda n: 2.0)
    assert np.array_equal(got.coords, expect)
    assert got.coords[0] == 0.5 and got.coords[2] == 0.125


def test_phi_zero_sequence():
    x = SymbolSequence((0, 0, 0), 3)
    assert not np.any(phi_N(x, W2, 3).coords)


def test_phi_alphabet_three():
    x = SymbolSequence((2, 2, 2, 2), 3)
    got = phi_N(x, W2, 4)
    assert np.array_equal(got.coords, [1.0, 0.5, 0.25, 0.125])


def test_phi_truncation_bounds():
    x = SymbolSequence((1, 1), 2)
    with pytest.raises(ValidationError):
        phi_N(x, W2, 3)


def test_symbol_validation():
    with pytest.raises(ValidationError):
        SymbolSequence((0, 3), 3)
    with pytest.raises(ValidationError):
        SymbolSequence((), 2)


def test_shift_examples():
    assert bernoulli_shift(SymbolSequence((0, 1, 2), 3)).symbols == (1, 2)
    assert bernoulli_shift(SymbolSequence((1, 1, 1), 2)).symbols == (1, 1)
    with pytest.raises(ValidationError):
        bernoulli_shift(SymbolSequence((1,), 2))


def test_conjugacy_dyadic_exact():
    rep = verify_conjugacy(W2, 2, samples=200, M=64, seed=11)
    assert rep.max_deviation == 0.0 and rep.exact


def test_conjugacy_geometric_small_deviation():
    rep = verify_conjugacy(GeometricRule(3.0), 3, samples=100, M=24, seed=5)
    assert rep.max_deviation < 1e-12


def test_conjugacy_block_matches_per_sample_loop(monkeypatch):
    # reference: one seeded prefix at a time, embedded and shifted on its own;
    # 40 samples span six blocks of 7
    monkeypatch.setattr(symbolic, "CONJUGACY_BLOCK", 7)
    for w in (ConstRule(3), GeometricRule(3.0)):
        B = BackwardShift(w)
        shapes = ((2, 64), (3, 63), (5, 7), (7, 33), (1, 5))
        for (N, M), samples in itertools.product(shapes, (1, 40)):
            rng = np.random.default_rng(4)
            worst = 0.0
            for _ in range(samples):
                x = SymbolSequence(tuple(rng.integers(0, N, size=M)), N)
                lhs = apply(B, phi_N(x, w, M)).coords[: M - 1]
                rhs = phi_N(bernoulli_shift(x), w, M - 1).coords
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            assert verify_conjugacy(w, N, samples, M, seed=4).max_deviation == worst


def test_conjugacy_refuses_overflowed_weights():
    # w_n = 10^n overflows to inf at n = 309 and the inverse products turn
    # nan; a nan deviation compares false, so it must be refused rather than
    # reported as exact (no numpy warning: those are errors under pytest)
    w = GeometricRule(ratio=10, first=10)
    assert verify_conjugacy(w, 2, 8, 300).max_deviation < 1e-12
    with pytest.raises(NonFiniteOrbitError):
        verify_conjugacy(w, 2, 8, 400)
    with pytest.raises(NonFiniteOrbitError):
        phi_N(SymbolSequence((1,) * 400, 2), w, 400)


def test_conjugacy_inadmissible_weights():
    with pytest.raises(AdmissibilityError):
        verify_conjugacy(HarmonicRule(), 2, samples=10, M=8)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10_000))
def test_conjugacy_pointwise_dyadic(N, seed):
    # embedding then shifting equals shifting then embedding, exactly
    rng = np.random.default_rng(seed)
    sym = tuple(int(v) for v in rng.integers(0, N, size=12))
    x = SymbolSequence(sym, N)
    B = BackwardShift(W2)
    lhs = apply(B, phi_N(x, W2, 12)).coords[:11]
    rhs = phi_N(bernoulli_shift(x), W2, 11).coords
    assert np.array_equal(lhs, rhs)


def test_cube_exhaustive_counts_and_resolution():
    K = cube_sample(2, 3, W2, base=L1)
    assert len(K) == 8
    # worst tail in the l1 norm: sum_{n>3} 2^{-n} = 2^{-3}
    assert K.resolution == pytest.approx(2.0**-3, rel=1e-12)
    assert K.resolution <= 2.0**-3 + 1e-15


def test_cube_depth_one():
    assert len(cube_sample(3, 1, W2, base=L1)) == 3


def test_cube_random_mode_needs_count_and_seed():
    with pytest.raises(SampleSizeError):
        cube_sample(2, 20, W2, base=L1)
    with pytest.raises(ValidationError):
        cube_sample(2, 20, W2, base=L1, count=50)


def test_cube_random_mode_size():
    K = cube_sample(2, 20, W2, base=L1, count=40, seed=3)
    assert len(K) == 40


def test_cube_injectivity_separations():
    K = cube_sample(2, 5, W2, base=L1)
    block = np.stack([p.coords for p in K.points])
    # distinct sequences differing at coordinate n sit at least
    # prod_{i<=n} w_i^{-1} apart in l1, minus nothing (exact dyadics)
    worst = math.inf
    for i in range(len(block) - 1):
        d = norm_block(block[i + 1 :] - block[i], L1)
        worst = min(worst, float(d.min()))
    assert worst >= 2.0**-5


def test_cube_entropy_slope_log_n():
    B = BackwardShift(W2)
    for N, depth in ((2, 6), (3, 5)):
        K = cube_sample(N, depth, W2, base=LINF)
        table = sn_table(B, K, range(1, depth + 1), [0.4, 0.2, 0.1], LINF)
        est = entropy_estimate(table)
        assert abs(est.h_estimate - math.log(N)) <= 0.10 * math.log(N)
