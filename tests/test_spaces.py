import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrolab.errors import ValidationError
from entrolab.spaces import (
    FAggregate,
    Lp,
    Vector,
    basis_vector,
    distance,
    fold,
    norm,
    norm_block,
    norm_tail_bound,
    padded_block,
    project,
    vector,
    zero_vector,
)

L1 = Lp(1.0)
L2 = Lp(2.0)
LINF = Lp(math.inf)
FAGG1 = FAggregate(L1)
FAGG2 = FAggregate(L2)


def series_norm_oracle(coords, base_p, dim):
    """Direct evaluation of the aggregated series, term by term."""
    total = 0.0
    for i in range(1, dim + 1):
        head = np.abs(np.asarray(coords[:i], dtype=complex))
        if math.isinf(base_p):
            partial = head.max() if len(head) else 0.0
        else:
            partial = float((head**base_p).sum() ** (1.0 / base_p))
        total += 2.0**-i * min(1.0, partial)
    return total


def test_norm_unit_basis_l2():
    assert norm(basis_vector(1, 5), L2) == 1.0


def test_norm_l1_sum_of_magnitudes():
    assert norm(vector([1, 1, 0]), L1) == 2.0


def test_norm_linf():
    assert norm(vector([1, -3, 2]), LINF) == 3.0


BASES = (L1, Lp(1.5), L2, Lp(3.0), LINF)
NORM_SPACES = BASES + tuple(FAggregate(b) for b in BASES)
MAGNITUDES = (5e-324, 1e-310, 1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e200, 1e300)


def _lp_formula(a, p, cumulative):
    """The plain (partial) l^p norms of the magnitude rows a, numpy's own
    reductions, no scaling."""
    if math.isinf(p):
        return np.maximum.accumulate(a, axis=-1) if cumulative else a.max(axis=-1)
    power = a if p == 1.0 else a * a if p == 2.0 else a**p
    sums = np.cumsum(power, axis=-1) if cumulative else power.sum(axis=-1)
    return sums if p == 1.0 else np.sqrt(sums) if p == 2.0 else sums ** (1.0 / p)


def plain_norms(a, s):
    """Each norm of `norm_block` by its formula over |block| = a."""
    if isinstance(s, Lp):
        return _lp_formula(a, s.p, False)
    partial = _lp_formula(a, s.base.p, True)
    return (2.0 ** -np.arange(1, a.shape[-1] + 1) * np.minimum(1.0, partial)).sum(axis=-1)


def scaled_norm(a, s):
    """Reference norm of one magnitude row a: every (partial) power sum
    taken at the scale 2^e of its largest term, so none under- or
    overflows."""
    def lp(head, p):
        e = math.frexp(float(head.max()))[1] if head.max() > 0 else 0
        return math.ldexp(float(_lp_formula(np.ldexp(head, -e), p, False)), e)

    if isinstance(s, Lp):
        return lp(a, s.p)
    return sum(2.0**-i * min(1.0, lp(a[:i], s.base.p)) for i in range(1, a.size + 1))


def test_norm_block_scale_safe():
    assert norm(vector([1.75e-258j]), L2) == 1.75e-258
    assert norm(vector([1e200, 1e200]), L2) == pytest.approx(math.hypot(1e200, 1e200), rel=1e-15)
    assert norm(vector([1e300, 1e300]), Lp(3.0)) == pytest.approx(2 ** (1 / 3) * 1e300, rel=1e-15)
    assert norm(vector([1e-200]), Lp(3.0)) == pytest.approx(1e-200, rel=1e-15)
    assert norm(vector([1e-200]), FAggregate(Lp(3.0))) == pytest.approx(5e-201, rel=1e-15)
    assert norm(vector([1e-160, 1e-160]), L2) == pytest.approx(math.sqrt(2) * 1e-160, rel=1e-15)
    # the first partial norm underflows although the full power sum does not
    assert norm(vector([1e-4, 0.5]), FAggregate(Lp(100.0))) == pytest.approx(0.12505, rel=1e-15)
    # 1-9 coordinates of every magnitude, real and complex, 36 rows of each
    # (enough to fold sums of up to 7 terms): every norm is the scaled
    # reference, so rows whose power sums underflow or overflow are redone
    # (within 5e-14: an unscaled sum s near 1e-300 takes s^(1/p) with 1/p
    # rounded, off by |ln s| ulps of the exponent, about 100 ulps at p = 1.5),
    # and no overflow inside a fold escapes as a warning (an error here).  A
    # one-coordinate row's l^1, l^2 and l^inf norm is its modulus, bit for
    # bit; a 1-D row is its (1, dim) block bit for bit, redone or not
    rng = np.random.default_rng(11)
    for dim in range(1, 10):
        scale = np.repeat(MAGNITUDES, 36)[:, np.newaxis]
        for block in (
            scale * rng.uniform(0.5, 2.0, (scale.size, dim)) * rng.choice([-1.0, 1.0], (scale.size, dim)),
            scale * (rng.normal(size=(scale.size, dim)) + 1j * rng.normal(size=(scale.size, dim))),
        ):
            a = np.abs(block)
            for s in NORM_SPACES:
                got = norm_block(block, s)
                want = [scaled_norm(row, s) for row in a]
                assert got.tolist() == pytest.approx(want, rel=5e-14, abs=0.0)
                if dim == 1 and s in (L1, L2, LINF):
                    assert same_bits(got, a[:, 0])
                for row in block[:: 36 * 4]:
                    one, want = norm_block(row, s), norm_block(row[np.newaxis], s)[0]
                    assert same_bits(one, want)


def test_norm_block_in_range_rows_unchanged():
    """Rows whose power sums are normal keep the plain arithmetic bit for
    bit: numpy's reductions, folded or not, at 1-9 coordinates, real and
    complex, for every l^p and aggregated norm."""
    rng = np.random.default_rng(7)
    for dim in range(1, 10):
        for cplx in (False, True):
            block = rng.normal(size=(100, 3, dim)) * 1e-3
            if cplx:
                block = block + 1j * rng.normal(size=(100, 3, dim)) * 1e-3
            block[0, 0] = 0.0
            block[1, 1] *= 1e-197  # its power sums underflow at p >= 2: the one row redone
            a = np.abs(block)
            for s in NORM_SPACES:
                got, want = norm_block(block, s), plain_norms(a, s)
                same = np.ones(got.shape, dtype=bool)
                p = s.p if isinstance(s, Lp) else s.base.p
                same[1, 1] = not 2.0 <= p < math.inf
                assert np.array_equal(got[same], want[same])
                assert got[1, 1] > 0.0
                assert got[0, 0] == 0.0


def same_bits(got, want) -> bool:
    """Equal type, dtype, shape and bytes."""
    return (
        type(got) is type(want)
        and np.asarray(got).dtype == np.asarray(want).dtype
        and np.shape(got) == np.shape(want)
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    )


def left_sum(a):
    """Sums along the last axis, added strictly left to right."""
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        out = out + a[..., k]
    return out


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 40])
def test_fold_matches_numpy_reductions(length):
    # -0.0 is the only zero drawn in the first block and +0.0 the only one
    # in the complex magnitudes, so no maximum is a tie of -0.0 with 0.0,
    # whose sign numpy's reductions leave to their order.  The first four
    # shapes have fewer than 32 rows per column and keep numpy's reduction,
    # the last two fold an axis of 2-16 (2-7 for sums; a longer one keeps
    # numpy's).  numpy sums fewer than 8 terms left to right, as the fold
    # does, and 8 or more otherwise: at 8 and 9 terms a left-to-right sum
    # differs from numpy's on some rows, so folding them would change bits
    rng = np.random.default_rng(length)
    values = np.array([-0.0, 5e-324, 1e-310, 0.25, 1.0, 3.5, 1e300, math.inf])
    for shape in ((length,), (1, length), (6, length), (3, 5, length), (32 * length, length), (3, 11 * length, length)):
        complex_block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for a in (rng.choice(values, size=shape), np.abs(complex_block * rng.choice([0.0, 1e-310, 1.0], size=shape))):
            assert same_bits(fold(np.maximum, a), a.max(axis=-1))
            assert same_bits(fold(np.maximum, a, running=True), np.maximum.accumulate(a, axis=-1))
            flags = a > 1e-300
            assert same_bits(fold(np.logical_and, flags), flags.all(axis=-1))
            assert same_bits(fold(np.add, a), a.sum(axis=-1))
            assert same_bits(fold(np.add, a, running=True), np.cumsum(a, axis=-1))
        if len(shape) > 1 and shape[-2] > 6:
            b = np.abs(complex_block)
            assert np.array_equal(left_sum(b), b.sum(axis=-1)) == (length < 8)
    assert same_bits(fold(np.logical_and, np.ones((4, 0), dtype=bool)), np.ones(4, dtype=bool))


def test_norm_block_sup_norms_fold_coordinates():
    # l^inf and FAggregate(l^inf), for any leading shape (a single row
    # included), folded or not, equal numpy's reductions bit for bit
    rng = np.random.default_rng(3)
    for shape in ((7,), (1, 2), (5, 7), (4, 3, 17), (300, 7), (2, 70, 2), (64, 40)):
        scales = rng.choice([-0.0, 5e-324, 1e-310, 1.0, 1e300, math.inf], size=shape)
        weights = 2.0 ** -np.arange(1, shape[-1] + 1)
        for block in (scales, (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scales):
            a = np.abs(block)
            assert same_bits(norm_block(block, LINF), a.max(axis=-1))
            partial = np.minimum(1.0, np.maximum.accumulate(a, axis=-1))
            assert same_bits(norm_block(block, FAggregate(LINF)), (weights * partial).sum(axis=-1))


def test_faggregate_e1_matches_series():
    for dim in (4, 8, 16):
        v = basis_vector(1, dim)
        got = norm(v, FAGG1)
        assert got == series_norm_oracle(v.coords, 1.0, dim)
        assert got == 1.0 - 2.0**-dim
        assert norm_tail_bound(dim, FAGG1) == 2.0**-dim


def test_faggregate_random_matches_series():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(1, 10))
        coords = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = Vector(coords)
        assert norm(v, FAGG2) == pytest.approx(
            series_norm_oracle(coords, 2.0, dim), abs=1e-14
        )


def test_norm_rejects_nan():
    with pytest.raises(ValidationError):
        Vector(np.array([1.0, float("nan")]))
    with pytest.raises(ValidationError):
        Vector(np.array([1.0, float("inf")]))


def test_vector_refuses_bad_coordinates_and_owns_a_copy():
    nan, inf = float("nan"), float("inf")
    for bad in ([nan], [1.0, inf], [complex(1.0, nan)], [complex(0.0, -inf)], [complex(inf, nan)]):
        with pytest.raises(ValidationError, match="finite"):
            Vector(np.array(bad, dtype=complex))
        with pytest.raises(ValidationError, match="finite"):
            vector(bad)
    for bad in ([], [[1.0, 2.0]], np.zeros((2, 2))):
        with pytest.raises(ValidationError, match="one-dimensional"):
            vector(bad)
    source = np.array([1.0, 2j])
    v = Vector(source)
    assert not v.coords.flags.writeable and v.coords.dtype == complex
    with pytest.raises(ValueError):
        v.coords[0] = 5.0
    source[0] = 7.0
    assert v.coords.tolist() == [1.0, 2j]
    assert not np.shares_memory(Vector(v.coords).coords, v.coords)


def test_lp_requires_p_at_least_one():
    with pytest.raises(ValidationError):
        Lp(0.5)


def test_hash_agrees_with_eq_on_signed_zeros():
    for a, b in ((vector([0.0]), vector([-0.0])), (vector([1j]), vector([complex(-0.0, 1.0)])),
                 (vector([1.0]), vector([complex(1.0, -0.0)]))):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_vector_is_its_padded_row():
    # trailing zeros do not count, signed or not; every other coordinate does
    equal = ((vector([1.0]), vector([1.0, 0.0])), (zero_vector(3), zero_vector(1)),
             (vector([2j, 0.0]), vector([complex(-0.0, 2.0), -0.0, 0.0])))
    for a, b in equal:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert distance(a, b, L2) == 0.0
    for a, b in ((vector([1.0]), vector([1.0, 1e-300])), (vector([0.0, 1.0]), vector([1.0])),
                 (vector([1.0]), vector([1j]))):
        assert a != b and distance(a, b, L2) > 0.0
    assert vector([1.0]) in [vector([1.0, 0.0])]


def test_padded_block_takes_vectors_and_arrays():
    block = padded_block([vector([1.0]), np.array([2.0, 3.0]), [4j]])
    assert block.dtype == complex and block.tolist() == [[1, 0], [2, 3], [4j, 0]]
    rows = np.arange(6.0).reshape(3, 2)
    assert padded_block(rows, 4).tolist() == [[0, 1, 0, 0], [2, 3, 0, 0], [4, 5, 0, 0]]
    for bad in ([np.zeros(0)], [np.zeros((1, 2))], [np.array([1.0, np.nan])], [[np.inf]]):
        with pytest.raises(ValidationError):
            padded_block(bad)
    with pytest.raises(ValidationError):
        padded_block(rows, 1)


def looped_padded_block(points, dim=None):
    """The block row by row: each point written into its zero-padded row."""
    rows = [p.coords if isinstance(p, Vector) else np.asarray(p) for p in points]
    dim = max(r.size for r in rows) if dim is None else dim
    block = np.zeros((len(rows), dim), dtype=complex)
    for i, r in enumerate(rows):
        block[i, : r.size] = r
    return block


def test_padded_block_matches_row_by_row_padding():
    rng = np.random.default_rng(3)
    equal = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    ragged = [vector(rng.normal(size=k)) for k in (3, 1, 4, 2, 4)] + [rng.normal(size=2), [1j, -0.0]]
    whole = np.arange(6).reshape(2, 3)  # integer rows, and object rows cast as a row write casts them
    mixed = [np.array([1, Fraction(1, 2)], dtype=object), [3, 4]]
    cases = ((equal, None), (equal, 6), (list(equal), 3), (ragged, None), (ragged, 7), (whole, None), (mixed, 3))
    for points, dim in cases:
        block = padded_block(points, dim)
        want = looped_padded_block(points, dim)
        assert block.shape == want.shape and block.tobytes() == want.tobytes()
    assert padded_block([], 2).shape == (0, 2)
    for points, dim in ((equal, 2), (ragged, 3)):
        with pytest.raises(ValidationError, match="longer than the working truncation"):
            padded_block(points, dim)


def test_distance_identity():
    e3 = basis_vector(3, 4)
    assert distance(e3, e3, L2) == 0.0


def test_distance_to_zero():
    assert distance(basis_vector(1, 3), zero_vector(3), L2) == 1.0


def test_distance_translation_invariance():
    assert distance(vector([2]), vector([1]), L1) == 1.0


def test_distance_pads_shorter_vector():
    assert distance(vector([1, 0, 0, 5]), vector([1]), L1) == 5.0


def test_project_definition():
    assert np.array_equal(project(vector([1, 2, 3]), 2).coords, [1, 2, 0])


def test_project_zero_vector():
    z = zero_vector(4)
    assert project(z, 5) == z


def test_project_beyond_support():
    v = vector([1, 2, 3])
    assert project(v, 7) == v


def test_project_rejects_zero_index():
    with pytest.raises(ValidationError):
        project(vector([1]), 0)


def test_project_idempotent():
    v = vector([1, 2, 3, 4])
    assert project(project(v, 2), 2) == project(v, 2)


coord_floats = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


@st.composite
def vectors(draw, max_dim=8):
    dim = draw(st.integers(1, max_dim))
    re = draw(st.lists(coord_floats, min_size=dim, max_size=dim))
    im = draw(st.lists(coord_floats, min_size=dim, max_size=dim))
    return Vector(np.array(re) + 1j * np.array(im))


SPACES = [L1, L2, LINF, FAGG1, FAGG2, FAggregate(LINF)]


@settings(max_examples=60, deadline=None)
@given(vectors(), vectors(), st.sampled_from(SPACES))
@example(x=vector([1j]), y=vector([0, 0]), s=FAGG1)
def test_triangle_inequality(x, y, s):
    # all three norms at the common truncation: the truncated aggregated sum
    # grows with dim, so norm(x) at x.dim is no bound at a larger dim
    dim = max(x.dim, y.dim)
    xs = np.zeros(dim, dtype=complex)
    xs[: x.dim] = x.coords
    ys = np.zeros(dim, dtype=complex)
    ys[: y.dim] = y.coords
    assert norm(Vector(xs + ys), s) <= norm(Vector(xs), s) + norm(Vector(ys), s) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    vectors(),
    st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
    st.sampled_from(SPACES),
)
def test_small_scalar_shrinks_fnorm(x, lam, s):
    assert norm(Vector(lam * x.coords), s) <= norm(x, s) + 1e-12


@settings(max_examples=40, deadline=None)
@given(vectors(), st.sampled_from(SPACES))
def test_scalar_to_zero_limit(x, s):
    values = [norm(Vector(2.0**-j * x.coords), s) for j in range(0, 60, 10)]
    assert values[-1] <= 1e-12 or values[-1] < values[0]
    assert norm(Vector(2.0**-60 * x.coords), s) <= max(1e-12, 2.0**-50)


@settings(max_examples=60, deadline=None)
@given(vectors(), st.sampled_from(SPACES))
@example(x=vector([1.75e-258j]), s=L2)
@example(x=vector([1e-200]), s=FAGG2)
def test_norm_zero_iff_zero(x, s):
    assert norm(zero_vector(x.dim), s) == 0.0
    if np.any(x.coords != 0):
        assert norm(x, s) > 0.0


@settings(max_examples=40, deadline=None)
@given(vectors(), vectors(), vectors(), st.sampled_from(SPACES))
def test_metric_triangle_on_triples(x, y, z, s):
    dim = max(x.dim, y.dim, z.dim)

    def pad(v):
        out = np.zeros(dim, dtype=complex)
        out[: v.dim] = v.coords
        return Vector(out)

    a, b, c = pad(x), pad(y), pad(z)
    assert distance(a, c, s) <= distance(a, b, s) + distance(b, c, s) + 1e-12


@settings(max_examples=60, deadline=None)
@given(vectors(), st.integers(1, 10), st.sampled_from([L1, L2, LINF]))
def test_project_linear_and_nonincreasing(x, i, s):
    y = Vector(x.coords[::-1])
    summed = Vector(x.coords + y.coords)
    lhs = project(summed, i)
    rhs = Vector(project(x, i).coords + project(y, i).coords)
    assert lhs == rhs
    assert norm(project(x, i), s) <= norm(x, s) + 1e-12
