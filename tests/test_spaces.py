import math

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


def test_norm_block_scale_safe():
    assert norm(vector([1.75e-258j]), L2) == 1.75e-258
    assert norm(vector([1e200, 1e200]), L2) == pytest.approx(math.hypot(1e200, 1e200), rel=1e-15)
    assert norm(vector([1e300, 1e300]), Lp(3.0)) == pytest.approx(2 ** (1 / 3) * 1e300, rel=1e-15)
    assert norm(vector([1e-200]), Lp(3.0)) == pytest.approx(1e-200, rel=1e-15)
    assert norm(vector([1e-200]), FAggregate(Lp(3.0))) == pytest.approx(5e-201, rel=1e-15)
    assert norm(vector([1e-160, 1e-160]), L2) == pytest.approx(math.sqrt(2) * 1e-160, rel=1e-15)
    # the first partial norm underflows although the full power sum does not
    assert norm(vector([1e-4, 0.5]), FAggregate(Lp(100.0))) == pytest.approx(0.12505, rel=1e-15)


def test_norm_block_in_range_rows_unchanged():
    """Rows whose power sum is normal keep the plain arithmetic bit for bit."""
    rng = np.random.default_rng(7)
    block = (rng.normal(size=(50, 3, 9)) + 1j * rng.normal(size=(50, 3, 9))) * 1e-3
    block[0, 0] = 0.0
    block[1, 1] = 1e-200  # its power sum underflows: the one row redone
    a = np.abs(block)
    plain = {
        L2: np.sqrt((a * a).sum(axis=-1)),
        Lp(3.0): (a**3.0).sum(axis=-1) ** (1.0 / 3.0),
        FAGG2: (2.0 ** -np.arange(1, 10) * np.minimum(1.0, np.sqrt(np.cumsum(a * a, axis=-1)))).sum(axis=-1),
    }
    for s, want in plain.items():
        got = norm_block(block, s)
        same = np.ones(got.shape, dtype=bool)
        same[1, 1] = False
        assert np.array_equal(got[same], want[same])
        assert got[1, 1] > 0.0
        assert got[0, 0] == 0.0


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
