import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrolab.errors import (
    AmbiguousSpectrumError,
    ConvergenceError,
    HeadroomError,
    SingularMatrixError,
    UnderflowError,
    UnsupportedOperatorError,
    ValidationError,
)
from entrolab.operators import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    DirectSum,
    ForwardShift,
    OperatorPower,
    Scaled,
    SpectrumDisc,
    apply,
    contraction_power,
    diagonal_matrix,
    mini_norm,
    power_norm,
    riesz_split,
    rolewicz,
    rolewicz_eigenvector,
    rotation_matrix,
    spectral_radius,
    spectrum,
)
from entrolab.rules import ConstRule, ExplicitRule, GeometricRule, values
from entrolab.spaces import Lp, basis_vector, vector
from entrolab.serialize import operator_id

B2 = BackwardShift(ConstRule(2))
F2 = ForwardShift(ConstRule(2))


def sigma_2x2_oracle(A):
    """Closed-form singular values of a 2x2 matrix from the eigenvalues of
    A^H A (quadratic formula)."""
    B = A.conj().T @ A
    tr = (B[0, 0] + B[1, 1]).real
    det = (B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]).real
    disc = math.sqrt(max(tr * tr / 4 - det, 0.0))
    hi, lo = tr / 2 + disc, tr / 2 - disc
    return math.sqrt(max(hi, 0.0)), math.sqrt(max(lo, 0.0))


# ---------------------------------------------------------------- apply


def test_backward_shift_definition():
    out = apply(B2, vector([0, 1, 0]))
    assert np.array_equal(out.coords, [2, 0, 0])


def test_rolewicz_eigenvector_relation():
    # T = 2B applied to x = (0.75^n)_n scales it by 1.5 on all but the tail
    T = rolewicz(2.0)
    x = rolewicz_eigenvector(2.0, 1.5, 8)
    out = apply(T, x)
    assert np.allclose(out.coords[:7], 1.5 * x.coords[:7], rtol=0, atol=1e-15)


def test_direct_sum_apply():
    T = DirectSum((Diagonal(ExplicitRule((2,))), Diagonal(ExplicitRule((0.5,)))))
    out = apply(T, vector([1, 1]))
    assert np.array_equal(out.coords, [2, 0.5])


def test_forward_shift_headroom():
    out = apply(F2, vector([1, 0, 0]))
    assert np.array_equal(out.coords, [0, 0.5, 0])
    with pytest.raises(HeadroomError):
        apply(F2, vector([0, 0, 1]))


def test_dense_dimension_mismatch():
    with pytest.raises(ValidationError):
        apply(DenseMatrix(np.eye(2)), vector([1, 2, 3]))


def round_trip(coords, rule):
    """B_w F_w x, or None where the forward shift correctly refuses x: some
    nonzero coordinate would land below the normal range."""
    x = vector(coords)
    w = [abs(complex(v)) for v in values(rule, len(coords) + 1)[1:]]
    if any(c != 0 and abs(c) / wc < sys.float_info.min for c, wc in zip(coords, w)):
        with pytest.raises(UnderflowError):
            apply(ForwardShift(rule), x)
        return None
    return apply(BackwardShift(rule), apply(ForwardShift(rule), x)).coords


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-8, max_value=8, allow_nan=False),
        min_size=2,
        max_size=8,
    ),
    st.sampled_from([ConstRule(2), GeometricRule(2), ConstRule(0.5)]),
)
@example(coords=[5e-324, 0.0], rule=ConstRule(2))
def test_backward_inverts_forward_dyadic_exact(coords, rule):
    coords = coords[:-1] + [0.0]  # headroom for the forward shift
    back = round_trip(coords, rule)
    if back is not None:
        assert np.array_equal(back, vector(coords).coords)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-8, max_value=8, allow_nan=False),
        min_size=2,
        max_size=8,
    ),
    st.sampled_from([ConstRule(3), GeometricRule(1.5), ConstRule(0.7)]),
)
@example(coords=[5e-324, 0.0], rule=ConstRule(3))
def test_backward_inverts_forward_general(coords, rule):
    coords = coords[:-1] + [0.0]
    back = round_trip(coords, rule)
    if back is not None:
        assert np.allclose(back, vector(coords).coords, rtol=1e-14, atol=1e-300)


def test_forward_shift_underflow_raises():
    with pytest.raises(UnderflowError):
        apply(ForwardShift(ConstRule(2)), vector([1e-308j, 0]))
    assert apply(ForwardShift(ConstRule(2)), vector([1e-300, 0])).coords[1] == 5e-301


def test_forward_shift_complex_weight_normal_image():
    # the image -0.5i has a zero real part but a normal modulus
    image = apply(ForwardShift(ConstRule(2j)), vector([1, 0])).coords
    assert np.array_equal(image, [0, -0.5j])
    back = apply(BackwardShift(ConstRule(2j)), vector(image))
    assert np.array_equal(back.coords, [1, 0])


# ---------------------------------------------------------------- power_norm


def test_power_norm_shift_matches_basis_oracle():
    # oracle: max of |B^3 e_k| over basis directions
    n, window = 3, 40
    best = 0.0
    for k in range(1, window):
        img = basis_vector(k + n, window + n)
        for _ in range(n):
            img = apply(B2, img)
        best = max(best, float(np.abs(img.coords).max()))
    assert power_norm(B2, 3) == best == 8.0


def test_power_norm_diagonal():
    T = Diagonal(ExplicitRule((2, 0.5)))
    assert power_norm(T, 4) == 16.0


def test_power_norm_dense_2x2():
    A = np.array([[0.9, 10.0], [0.0, 0.9]])
    hi, _ = sigma_2x2_oracle(A)
    got = power_norm(DenseMatrix(A), 1)
    assert got == pytest.approx(hi, rel=1e-10)
    assert 10.0 < got < 10.1


# nearly equal singular values at the top or the bottom of the spectrum
NEAR_DEGENERATE = {
    "diag-1e-6": np.diag([1.0, 1.0 - 1e-6]),
    "swap-1e-6": np.array([[0.0, 1.0], [1.0 - 1e-6, 0.0]]),
    "diag2-1e-7": np.diag([2.0, 2.0 * (1.0 - 1e-7)]),
}


@pytest.mark.parametrize("name", sorted(NEAR_DEGENERATE))
def test_power_norm_dense_near_degenerate(name):
    A = NEAR_DEGENERATE[name]
    want = float(np.linalg.svd(A, compute_uv=False)[0])
    assert power_norm(DenseMatrix(A), 1) == pytest.approx(want, rel=1e-12)


def test_power_norm_rejects_zero():
    with pytest.raises(ValidationError):
        power_norm(B2, 0)


def test_power_norm_faggregate_rejected():
    from entrolab.spaces import FAggregate

    with pytest.raises(UnsupportedOperatorError):
        power_norm(B2, 2, FAggregate(Lp(2)))


def test_power_norm_dense_honours_its_space():
    # R(0.7)^2 = R(1.4): l^2 norm 1, l^1 and l^inf norms |cos 1.4| + |sin 1.4|;
    # a triangular block tells l^1 (column sums) from l^inf (row sums)
    R = rotation_matrix(0.7)
    assert power_norm(R, 2) == pytest.approx(1.0, rel=1e-12)
    for p in (1.0, math.inf):
        assert power_norm(R, 1, Lp(p)) == pytest.approx(math.cos(0.7) + math.sin(0.7), rel=1e-12)
        assert power_norm(R, 2, Lp(p)) == pytest.approx(math.cos(1.4) + math.sin(1.4), rel=1e-12)
    A = DenseMatrix(np.array([[1.0, -3.0], [0.0, 2.0]]))
    assert power_norm(A, 1, Lp(1.0)) == 5.0 and power_norm(A, 1, Lp(math.inf)) == 4.0
    assert power_norm(A, 2, Lp(1.0)) == 13.0 and power_norm(A, 2, Lp(math.inf)) == 10.0
    from entrolab.spaces import FAggregate

    for s in (Lp(3.0), FAggregate(Lp(2.0))):
        with pytest.raises(UnsupportedOperatorError):
            power_norm(A, 1, s)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_power_norm_submultiplicative(m, n):
    rng = np.random.default_rng(m * 7 + n)
    A = DenseMatrix(rng.normal(size=(3, 3)))
    lhs = power_norm(A, m + n)
    assert lhs <= power_norm(A, m) * power_norm(A, n) * (1 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_power_norm_submultiplicative_shift(m, n):
    W = BackwardShift(ExplicitRule(tuple([2, 0.5, 3, 1.5, 0.25, 2, 2, 0.5] * 12)))
    assert power_norm(W, m + n) <= power_norm(W, m) * power_norm(W, n) * (1 + 1e-12)


# ---------------------------------------------------------------- spectral radius


def test_spectral_radius_diagonal():
    T = Diagonal(GeometricRule(0.5, first=2.0))
    cert = spectral_radius(T, n_max=8)
    assert cert.value == 2.0


def test_spectral_radius_rolewicz():
    cert = spectral_radius(rolewicz(2.0), n_max=16)
    assert cert.closed_form == 2.0
    assert all(v == pytest.approx(2.0, rel=1e-12) for v in cert.sequence)


def test_spectral_radius_certificate_dense():
    A = np.array([[0.9, 10.0], [0.0, 0.9]])
    cert = spectral_radius(DenseMatrix(A), n_max=64)
    # independent oracle: direct matrix powers and closed-form 2x2 norms
    oracle = min(
        sigma_2x2_oracle(np.linalg.matrix_power(A, n))[0] ** (1.0 / n)
        for n in range(1, 65)
    )
    assert cert.upper_bound == pytest.approx(oracle, rel=1e-9)
    # |A^n|^{1/n} decreases toward 0.9; the inf certificate clears 1.1
    assert 0.9 <= cert.upper_bound < 1.1
    seq = cert.sequence
    assert seq[-1] < seq[0]


def test_spectral_radius_requires_nmax():
    with pytest.raises(ValidationError):
        spectral_radius(B2, n_max=4)


# ---------------------------------------------------------------- spectrum


def test_spectrum_compact_diagonal():
    sd = spectrum(Diagonal(GeometricRule(0.5, first=1.5)))
    vals = [v for v, _ in sd.eigenvalues]
    assert vals[0] == 1.5 and vals[1] == 0.75
    assert sd.spectral_radius == 1.5
    assert sd.includes_zero and sd.tail_certified


def test_spectrum_rotation_pair():
    # characteristic polynomial x^2 + 1 = 0
    sd = spectrum(DenseMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    vals = sorted((v for v, _ in sd.eigenvalues), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(-1j, abs=1e-12)
    assert vals[1] == pytest.approx(1j, abs=1e-12)


def test_spectrum_power_of_diagonal():
    sd = spectrum(OperatorPower(Diagonal(ExplicitRule((2,))), 3))
    assert sd.eigenvalues == (((8 + 0j), 1),)


def test_spectrum_scaled_and_direct_sum():
    T = DirectSum(
        (Scaled(2.0, Diagonal(ExplicitRule((1.0, 0.25)))), Diagonal(ExplicitRule((3,))))
    )
    sd = spectrum(T)
    assert sorted(abs(v) for v, _ in sd.eigenvalues) == [0.5, 2.0, 3.0]


def test_spectrum_shift_is_disc():
    disc = spectrum(B2)
    assert isinstance(disc, SpectrumDisc)
    assert disc.radius == 2.0
    assert spectrum(rolewicz(2.0)).radius == 2.0
    with pytest.raises(UnsupportedOperatorError):
        spectrum(BackwardShift(ExplicitRule((1, 2, 3))))


def test_det_residuals_small_dims():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5, 6):
        A = rng.normal(size=(d, d))
        sd = spectrum(DenseMatrix(A))
        bound = 1e-8 * max(np.linalg.norm(A, 2), 1.0) ** d
        assert all(r < bound for r in sd.residuals)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 5))
def test_spectrum_power_rule_dense(m, d):
    rng = np.random.default_rng(m * 31 + d)
    A = rng.normal(size=(d, d))
    powered = [v for v, mult in spectrum(OperatorPower(DenseMatrix(A), m)).eigenvalues for _ in range(mult)]
    expect = sorted((v**m for v, mult in spectrum(DenseMatrix(A)).eigenvalues for _ in range(mult)), key=lambda z: (z.real, z.imag))
    got = sorted(powered, key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in expect))
    assert all(abs(a - b) < 1e-8 * scale for a, b in zip(got, expect))


# ---------------------------------------------------------------- mini-norm


def test_mini_norm_diagonal():
    assert mini_norm(diagonal_matrix(2, 3)) == pytest.approx(2.0, rel=1e-10)


def test_mini_norm_rotation_isometry():
    assert mini_norm(rotation_matrix(math.pi / 4)) == pytest.approx(1.0, rel=1e-12)


def test_mini_norm_closed_form_2x2():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    _, lo = sigma_2x2_oracle(A)
    assert mini_norm(DenseMatrix(A)) == pytest.approx(lo, rel=1e-10)


@pytest.mark.parametrize("name", sorted(NEAR_DEGENERATE))
def test_mini_norm_near_degenerate(name):
    A = NEAR_DEGENERATE[name]
    want = float(np.linalg.svd(A, compute_uv=False)[-1])
    assert mini_norm(DenseMatrix(A)) == pytest.approx(want, rel=1e-12)


def test_mini_norm_singular_rejected():
    with pytest.raises(SingularMatrixError):
        mini_norm(DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]])))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 1000))
def test_mini_norm_times_inverse_norm(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) + np.eye(d) * 3  # keep it well conditioned
    inv_norm = float(np.linalg.svd(np.linalg.inv(A), compute_uv=False)[0])
    assert abs(mini_norm(DenseMatrix(A)) * inv_norm - 1.0) < 1e-10


# ---------------------------------------------------------------- contraction


def test_contraction_power_simple():
    assert contraction_power(Diagonal(ExplicitRule((0.5,)))).n == 1


def test_contraction_power_transient_growth():
    A = np.array([[0.9, 10.0], [0.0, 0.9]])
    # oracle: exact 2x2 singular values of each power
    expected = None
    for n in range(1, 65):
        hi, _ = sigma_2x2_oracle(np.linalg.matrix_power(A, n))
        if hi < 1.0:
            expected = n
            break
    rep = contraction_power(DenseMatrix(A))
    assert rep.n == expected is not None


def test_contraction_power_near_degenerate():
    assert contraction_power(diagonal_matrix(0.999, 0.999 * (1 - 1e-6))).n == 1


def test_contraction_power_expanding():
    rep = contraction_power(Diagonal(ExplicitRule((2,))), n_max=10)
    assert rep.n is None and rep.hint is None


def test_contraction_power_hint():
    A = np.array([[0.99, 50.0], [0.0, 0.99]])
    rep = contraction_power(DenseMatrix(A), n_max=8)
    assert rep.n is None
    assert "increase n_max" in rep.hint


# ---------------------------------------------------------------- riesz split


def test_riesz_split_three_blocks():
    split = riesz_split(diagonal_matrix(2, 1, 0.5))
    assert split.unstable[0].shape == (3, 1)
    assert split.center[0].shape == (3, 1)
    assert split.stable[0].shape == (3, 1)
    assert abs(abs(split.unstable[0][0, 0]) - 1) < 1e-12  # span e_1
    assert abs(abs(split.center[0][1, 0]) - 1) < 1e-12
    assert abs(abs(split.stable[0][2, 0]) - 1) < 1e-12


def test_riesz_split_hyperbolic_center_empty():
    split = riesz_split(diagonal_matrix(2, 0.5))
    assert split.center_dim == 0
    assert split.unstable[0].shape == (2, 1)


def test_riesz_split_rotation_all_center():
    split = riesz_split(rotation_matrix(math.sqrt(2)))
    assert split.center_dim == 2
    assert split.unstable[0].shape[1] == 0


def test_riesz_split_forbidden_annulus():
    with pytest.raises(AmbiguousSpectrumError):
        riesz_split(diagonal_matrix(1 + 7e-7, 0.5))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_riesz_split_blocks_invariant(seed):
    rng = np.random.default_rng(seed)
    moduli = rng.choice([0.3, 0.8, 1.0, 1.7, 2.5], size=4)
    diag = moduli * np.exp(2j * np.pi * rng.random(4))
    diag[np.abs(moduli - 1.0) < 1e-12] = np.exp(
        2j * np.pi * rng.random()
    )  # center eigenvalues exactly on the circle
    Q = rng.normal(size=(4, 4))
    while abs(np.linalg.det(Q)) < 0.1:
        Q = rng.normal(size=(4, 4))
    A = Q @ np.diag(diag) @ np.linalg.inv(Q)
    split = riesz_split(DenseMatrix(A))
    for basis, block in (split.unstable, split.center, split.stable):
        if basis.shape[1]:
            assert np.linalg.norm(A @ basis - basis @ block, 2) < 1e-9 * max(
                1.0, np.linalg.norm(A, 2)
            )
    assert split.residual < 1e-9


def test_riesz_split_conjugated_scalar_matrix():
    # Q (lam I) Q^{-1}: A - lam I is rounding noise, not a full-rank matrix
    rng = np.random.default_rng(423)
    lam = np.exp(2j * np.pi * 0.3)
    Q = rng.normal(size=(4, 4))
    A = Q @ (lam * np.eye(4)) @ np.linalg.inv(Q)
    split = riesz_split(DenseMatrix(A))
    assert split.center_dim == 4
    assert split.residual < 1e-9


def test_riesz_split_defective_block():
    # Jordan block at 2 plus a stable direction
    A = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]])
    split = riesz_split(DenseMatrix(A))
    assert split.unstable[0].shape[1] == 2
    assert split.stable[0].shape[1] == 1


# ---------------------------------------------------------------- eigenvectors


def test_rolewicz_eigenvector_values():
    x = rolewicz_eigenvector(2.0, 1.5, 4)
    assert np.allclose(x.coords, [0.75, 0.5625, 0.421875, 0.31640625], atol=0)


def test_rolewicz_eigenvector_zero_lambda():
    x = rolewicz_eigenvector(2.0, 0.0, 5)
    assert np.array_equal(x.coords, np.zeros(5))


def test_rolewicz_eigenvector_boundary_rejected():
    with pytest.raises(ValidationError):
        rolewicz_eigenvector(2.0, 2.0, 4)


def test_bad_small_eigenpair_refused(monkeypatch):
    # a wrong 2x2 eigenpair (5 is not an eigenvalue of diag(2, 3)) fails the
    # residual gate, which applies at every dimension
    wrong = (np.array([2.0, 5.0], dtype=complex), np.eye(2, dtype=complex))
    monkeypatch.setattr(np.linalg, "eig", lambda a: wrong)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        spectrum(DenseMatrix(np.diag([2.0, 3.0])))


# ---------------------------------------------------------------- one table of kinds

# operator, finite_dim, power_norm(T, 2), closed-form radius, spectrum (a disc
# radius or the eigenvalues), operator_id; every kind appears, some nested
KIND_TABLE = [
    (BackwardShift(ConstRule(2.0)), None, 4.0, 2.0, 2.0,
     '{"kind":"backward_shift","weights":{"rule":"const","value":2.0}}'),
    (ForwardShift(ConstRule(0.5)), None, 4.0, 2.0, 2.0,
     '{"kind":"forward_shift","weights":{"rule":"const","value":0.5}}'),
    (Scaled(1.5, Diagonal(ExplicitRule((2.0, 0.5)))), 2, 9.0, 3.0, [3.0, 0.75],
     '{"alpha":[1.5,0.0],"inner":{"eigenvalues":{"rule":"explicit","values":[2.0,0.5]},'
     '"kind":"diagonal"},"kind":"scaled"}'),
    (DirectSum((Diagonal(ExplicitRule((2.0,))), DenseMatrix([[0, 3], [1, 0]]))), 3, 4.0, 2.0,
     [2.0, -math.sqrt(3), math.sqrt(3)],
     '{"kind":"direct_sum","parts":[{"eigenvalues":{"rule":"explicit","values":[2.0]},'
     '"kind":"diagonal"},{"entries":[[0.0,3.0],[1.0,0.0]],"kind":"dense"}]}'),
    (OperatorPower(BackwardShift(ConstRule(2.0)), 3), None, 64.0, 8.0, 8.0,
     '{"base":{"kind":"backward_shift","weights":{"rule":"const","value":2.0}},"kind":"power","m":3}'),
]


@pytest.mark.parametrize("T, dim, norm2, radius, spec, op_id", KIND_TABLE,
                         ids=[row[0].kind for row in KIND_TABLE])
def test_kind_table(T, dim, norm2, radius, spec, op_id):
    assert T.finite_dim() == dim
    assert power_norm(T, 2) == norm2
    assert T.radius() == radius
    assert spectral_radius(T).closed_form == radius
    sd = spectrum(T)
    if isinstance(spec, float):
        assert sd == SpectrumDisc(radius=spec)
    else:
        assert [v for v, mult in sd.eigenvalues if mult == 1] == pytest.approx(spec, rel=1e-14)
        assert sd.spectral_radius == radius and not sd.includes_zero and sd.tail_sup == 0.0
    assert operator_id(T) == op_id


def test_direct_sum_applies_each_part_on_its_coordinates():
    rng = np.random.default_rng(5)
    parts = (Diagonal(ExplicitRule((2.0,))), rotation_matrix(0.5), Diagonal(ExplicitRule((5.0, -1.0))))
    block = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    pieces = (block[:, :1], block[:, 1:3], block[:, 3:])
    want = np.concatenate([p.apply_block(b) for p, b in zip(parts, pieces)], axis=1)
    assert np.array_equal(DirectSum(parts).apply_block(block), want)
    assert np.array_equal(DirectSum(parts[1:2]).apply_block(block[:, 1:3]), want[:, 1:3])


def test_constructors_refuse_what_the_methods_disagree_on():
    D = Diagonal(ExplicitRule((2.0,)))
    # a fractional power would get 2^2.5 from power_norm and spectrum while
    # apply had no such action; a boolean is not read as 1
    for m in (2.5, True, 0, math.nan):
        with pytest.raises(ValidationError, match="integer m"):
            OperatorPower(D, m)
    assert OperatorPower(D, np.int64(3)).m == 3
    # a 0x0 matrix has no spectral radius, and a ragged one is not a matrix
    for entries in (np.zeros((0, 0)), [[1, 2], [3]], [[]]):
        with pytest.raises(ValidationError, match="square matrix"):
            DenseMatrix(entries)


@pytest.mark.parametrize("make", [
    lambda x: ConstRule(x),
    lambda x: GeometricRule(x),
    lambda x: GeometricRule(0.5, first=x),
    lambda x: ExplicitRule((2.0, x)),
    lambda x: Scaled(x, Diagonal(ExplicitRule((2.0,)))),
])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
def test_non_finite_parameters_refused(make, x):
    with pytest.raises(ValidationError, match="must be finite"):
        make(x)
