"""Scalar-field algebra: quaternion arithmetic against an independent
complex 2x2 embedding, plus the generic matrix helpers."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from pullconn import algebra
from pullconn.algebra import (
    DegenerateColumnsError,
    Field,
    Jet,
    QI,
    QJ,
    QK,
    QONE,
    ct_stack,
    expm_alg,
    eye,
    frob,
    inner_re,
    matmul_stack,
    orthonormalize,
    qconj,
    quat,
    random_matrix,
    sq_norm,
    zeros,
)
from pullconn.homogeneous import alpha_basis
from reference import (
    complete_basis, expm_taylor, inner_g0, norm_g0, qmul, re_trace, scalar_right, sym_eig_small,
)

FIELDS = [Field.REAL, Field.COMPLEX, Field.QUATERNION]


# independent oracle: q = w + xi + yj + zk  ->  [[w+xi, y+zi], [-y+zi, w-xi]]
def embed_q(q):
    a = q[..., 0] + 1j * q[..., 1]
    b = q[..., 2] + 1j * q[..., 3]
    return np.block([[a[..., None, None], b[..., None, None]],
                     [-np.conj(b)[..., None, None], np.conj(a)[..., None, None]]])[..., 0, :, :] \
        if q.ndim > 1 else np.array([[a, b], [-np.conj(b), np.conj(a)]])


def embed_qmat(A):
    """Blockwise complex 2m x 2n embedding of an (m, n, 4) quaternion matrix."""
    m, n = A.shape[:2]
    out = np.zeros((2 * m, 2 * n), dtype=complex)
    for i in range(m):
        for j in range(n):
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = embed_q(A[i, j])
    return out


def rand_q(rng):
    return rng.standard_normal(4)


def test_quat_basis_table():
    assert np.allclose(qmul(QI, QI), -QONE)
    assert np.allclose(qmul(QJ, QJ), -QONE)
    assert np.allclose(qmul(QK, QK), -QONE)
    assert np.allclose(qmul(QI, QJ), QK)
    assert np.allclose(qmul(QJ, QK), QI)
    assert np.allclose(qmul(QK, QI), QJ)
    assert np.allclose(qmul(QJ, QI), -QK)
    assert np.allclose(qmul(QONE, QK), QK)
    assert np.allclose(qmul(qmul(QI, QJ), QK), -QONE)


@given(st.integers(0, 10_000))
def test_qmul_matches_embedding(seed):
    rng = np.random.default_rng(seed)
    a, b = rand_q(rng), rand_q(rng)
    assert np.allclose(embed_q(qmul(a, b)), embed_q(a) @ embed_q(b), atol=1e-12)
    assert np.allclose(embed_q(qconj(a)), embed_q(a).conj().T, atol=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_qmatmul_matches_embedding(seed, m, k, n):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, Field.QUATERNION, m, k)
    B = random_matrix(rng, Field.QUATERNION, k, n)
    H = Field.QUATERNION
    assert np.allclose(embed_qmat(matmul_stack(A, B, H)), embed_qmat(A) @ embed_qmat(B), atol=1e-10)
    assert np.allclose(embed_qmat(ct_stack(A, H)), embed_qmat(A).conj().T, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_matmul_associative_all_fields(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        A = random_matrix(rng, field, 2, 3)
        B = random_matrix(rng, field, 3, 2)
        C = random_matrix(rng, field, 2, 2)
        lhs = matmul_stack(matmul_stack(A, B, field), C, field)
        rhs = matmul_stack(A, matmul_stack(B, C, field), field)
        assert np.allclose(lhs, rhs, atol=1e-10)
        assert np.allclose(ct_stack(matmul_stack(A, B, field), field),
                           matmul_stack(ct_stack(B, field), ct_stack(A, field), field), atol=1e-12)


def test_scalar_right_is_right_multiplication():
    rng = np.random.default_rng(7)
    A = random_matrix(rng, Field.QUATERNION, 3, 2)
    q = rand_q(rng)
    H = Field.QUATERNION
    Q = scalar_right(eye(H, 2), q)
    assert np.allclose(scalar_right(A, q), matmul_stack(A, Q, H), atol=1e-12)
    # right action in general differs from the left one
    Ql = scalar_right(eye(H, 3), QJ)
    assert not np.allclose(scalar_right(A, QJ), matmul_stack(Ql, A, H))
    assert np.allclose(scalar_right(A, 2.5), A * 2.5)


@pytest.mark.parametrize("field", FIELDS)
def test_real_coordinates_round_trip_exactly(field):
    """to_real puts the components along a trailing axis of length
    real_dim, as coefficients of `units`; from_real inverts it bit for bit."""
    A = random_matrix(np.random.default_rng(2), field, 3, 2)
    R = algebra.to_real(A, field)
    assert R.shape == (3, 2, field.real_dim) and R.dtype == float
    assert np.array_equal(algebra.from_real(R, field), A)
    assert np.array_equal(algebra.to_real(algebra.from_real(R, field), field), R)
    assert np.allclose(np.tensordot(R, algebra.units(field), axes=1), A, rtol=0.0, atol=1e-15)
    assert field.matrix_ndim == A.ndim


@pytest.mark.parametrize("shape_a,shape_b", [
    ((6, 3, 2), (6, 2, 4)),          # one stack axis
    ((5, 4, 3, 3), (5, 4, 3, 2)),    # two stack axes
    ((3, 3), (7, 3, 1)),             # one matrix against a stack
])
def test_matmul_stack_quaternion_matches_entrywise_qmul(shape_a, shape_b):
    rng = np.random.default_rng(11)
    A = rng.standard_normal(shape_a + (4,))
    B = rng.standard_normal(shape_b + (4,))
    got = matmul_stack(A, B, Field.QUATERNION)
    lead = np.broadcast_shapes(shape_a[:-2], shape_b[:-2])
    m, k, n = shape_a[-2], shape_a[-1], shape_b[-1]
    A, B = np.broadcast_to(A, lead + (m, k, 4)), np.broadcast_to(B, lead + (k, n, 4))
    want = np.zeros(lead + (m, n, 4))
    for idx in np.ndindex(*lead):
        for i in range(m):
            for j in range(n):
                want[idx + (i, j)] = sum(qmul(A[idx + (i, t)], B[idx + (t, j)]) for t in range(k))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-13


def _qmatmul_reference(A, B):
    """Σ_k qmul(A[..., m, k], B[..., k, n]): the QL einsum product, entry by entry."""
    return qmul(A[..., :, :, None, :], B[..., None, :, :, :]).sum(axis=-3)


def _product_scale(A, B):
    """max over (m, n) of Σ_k |A_mk| |B_kn|, the size of every sum the product forms."""
    return float(np.max(np.linalg.norm(A, axis=-1) @ np.linalg.norm(B, axis=-1), initial=0.0))


# (A stack and matrix shape, B stack and matrix shape, branch the size rule takes)
QUAT_PRODUCTS = [
    ((3, 2), (2, 5), "R(B)"),                   # k ≤ m
    ((2, 2), (2, 2), "R(B)"),                   # square
    ((6, 1, 3), (1, 6, 3, 1), "T"),             # rows against columns, B's stack broadcast
    ((4, 3, 1), (1, 1), "R(B)"),                # a tall left stack against one scalar
    ((1, 5), (7, 5, 1), "T"),                   # one row against a stack of columns
    ((2, 1, 4, 3), (5, 3, 2), "R(B)"),          # A's stack broadcast against B's
    ((5, 1, 2, 4), (1, 3, 4, 2), "T"),          # both stacks broadcast, k > m
    ((0, 3, 2), (2, 2), "R(B)"),                # empty stack on the left
    ((1, 4), (0, 4, 1), "T"),                   # empty stack on the right
]


@pytest.mark.parametrize("sa,sb,branch", QUAT_PRODUCTS,
                         ids=[f"{a}x{b}-{r}" for a, b, r in QUAT_PRODUCTS])
def test_matmul_stack_quaternion_matches_the_structure_tensor(monkeypatch, sa, sb, branch):
    """Both branches of the size rule match the QL einsum product within
    1e-15 of the operands' scale, on broadcast stacks, k ≥ 2 and empty
    stacks.  The branch is the one named: poisoning its table with NaN
    poisons the product, and poisoning the other one does not."""
    rng = np.random.default_rng(len(sa) + 7 * len(sb))
    A, B = rng.standard_normal(sa + (4,)), rng.standard_normal(sb + (4,))
    got = matmul_stack(A, B, Field.QUATERNION)
    want = _qmatmul_reference(A, B)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-15 * _product_scale(A, B)
    if got.size:
        table = {"R(B)": "_QL_RIGHT", "T": "_QL_PAIRS"}
        for name, poisoned in ((table[branch], True), (table[{"R(B)": "T", "T": "R(B)"}[branch]], False)):
            with monkeypatch.context() as m:
                m.setattr(algebra, name, np.full_like(getattr(algebra, name), np.nan))
                assert np.isnan(matmul_stack(A, B, Field.QUATERNION)).any() == poisoned, name


@pytest.mark.parametrize("jet_side", ["left", "right", "both"])
def test_matmul_stack_quaternion_on_jets(jet_side):
    """Jet operands, or a jet and a constant, give every slot of the product
    rule with the QL einsum product in place of the kernel, within 1e-15 of
    the operands' scale: k·max|a|·max|b| for each of the rule's four terms."""
    rng = np.random.default_rng(5)
    bsz, n, k = 3, 2, 3

    def jet(m, k):
        return Jet(*(rng.standard_normal((bsz,) + (n,) * o + (m, k, 4)) for o in range(3)))

    A, B = jet(2, k), jet(k, 2)
    A = A if jet_side != "right" else A.v[0]   # a constant has no batch axis
    B = B if jet_side != "left" else B.v[0]
    got = matmul_stack(A, B, Field.QUATERNION)
    want = algebra._product(A, B, _qmatmul_reference)

    def top(x):
        slots = (x.v, x.d, x.dd) if isinstance(x, Jet) else (x,)
        return max(float(np.linalg.norm(s, axis=-1).max()) for s in slots)

    for g, w in zip((got.v, got.d, got.dd), (want.v, want.d, want.dd)):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-15 * 4 * k * top(A) * top(B)


def test_qconj_returns_a_new_array():
    """Writing into a conjugate, or into a conjugate transpose, leaves the
    read-only probe matrix it came from untouched."""
    probe = alpha_basis(Field.QUATERNION, 1)[0].mat
    before = probe.copy()
    for out in (qconj(probe), ct_stack(probe, Field.QUATERNION)):
        assert not np.shares_memory(out, probe)
        out[...] = 7.0
    assert not probe.flags.writeable and np.array_equal(probe, before)
    assert np.array_equal(qconj(before), before * [1.0, -1.0, -1.0, -1.0])


def test_matmul_stack_does_not_expand_a_tall_right_factor():
    """A (1, 3000)·(8, 8, 3000, 1) product, shaped like V*·∂²W, forms the
    (8, 8, 4, 4) component products and not the 46.9 MiB right-regular
    form of its right factor: at most 2 MiB traced."""
    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((1, 3000, 4)), rng.standard_normal((8, 8, 3000, 1, 4))
    tracemalloc.start()
    try:
        C = matmul_stack(A, B, Field.QUATERNION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.shape == (8, 8, 1, 1, 4)
    assert peak <= 2 * 2**20, peak


def test_matmul_stack_real_four_by_four_is_a_plain_matmul():
    """A real (B, 4, 4) stack has the shape of a quaternion stack."""
    rng = np.random.default_rng(12)
    A, B = rng.standard_normal((2, 5, 4, 4))
    assert np.array_equal(matmul_stack(A, B, Field.REAL), A @ B)
    assert np.array_equal(ct_stack(A, Field.REAL), np.swapaxes(A, 1, 2))


def test_inner_g0_reference_values():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert abs(inner_g0(A, A, Field.REAL) - 1.0) < 1e-14
    B = np.array([[1j]])
    assert abs(inner_g0(B, B, Field.COMPLEX) - 0.5) < 1e-14
    Bq = zeros(Field.QUATERNION, 1, 1)
    Bq[0, 0] = QJ
    assert abs(inner_g0(Bq, Bq, Field.QUATERNION) - 0.5) < 1e-14


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_inner_re_matches_trace(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        A = random_matrix(rng, field, 3, 3)
        B = random_matrix(rng, field, 3, 3)
        AB = matmul_stack(A, ct_stack(B, field), field)
        assert abs(inner_re(A, B) - re_trace(AB, field)) < 1e-10
        assert abs(inner_g0(A, B, field) - 0.5 * inner_re(A, B)) < 1e-10
        assert abs(frob(A) ** 2 - inner_re(A, A)) < 1e-9


def test_re_trace_quat_vs_embedding():
    rng = np.random.default_rng(11)
    A = random_matrix(rng, Field.QUATERNION, 3, 3)
    assert abs(re_trace(A, Field.QUATERNION) - 0.5 * np.real(np.trace(embed_qmat(A)))) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_orthonormalize_all_fields(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        A = random_matrix(rng, field, 5, 3)
        V = orthonormalize(A, field)
        Vh = ct_stack(V, field)
        G = matmul_stack(Vh, V, field)
        assert np.allclose(np.asarray(G), np.asarray(eye(field, 3)), atol=1e-10)
        # same column span: projecting A onto range(V) is the identity on A
        assert np.allclose(matmul_stack(V, matmul_stack(Vh, A, field), field), np.asarray(A), atol=1e-8)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_orthonormalize_stack_matches_each_matrix(field):
    rng = np.random.default_rng(21)
    A = np.array([[random_matrix(rng, field, 5, 3) for _ in range(3)] for _ in range(2)])
    V = orthonormalize(A, field)
    assert V.shape == A.shape
    for idx in np.ndindex(2, 3):
        assert np.max(np.abs(V[idx] - orthonormalize(A[idx], field))) < 1e-14
    # one dependent column anywhere in the stack names that column
    A[1, 2, :, 2] = A[1, 2, :, 0]
    with pytest.raises(DegenerateColumnsError) as err:
        orthonormalize(A, field)
    assert err.value.column == 2


def test_orthonormalize_degenerate_column():
    A = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(DegenerateColumnsError) as err:
        orthonormalize(A, Field.REAL)
    assert err.value.column == 1


def test_orthonormalize_degeneracy_threshold_scales_with_the_matrix():
    """A column is degenerate when its remainder falls below tol times the
    matrix's scale, its Frobenius norm per column and at least 1: the
    remainder 1e-11 passes at scale 1 and fails at scale 100, where
    tol·scale = 1e-10."""
    orthonormalize(np.array([[1.0, 1.0], [0.0, 1e-11]]), Field.REAL)
    with pytest.raises(DegenerateColumnsError) as err:
        orthonormalize(np.array([[100.0, 100.0], [0.0, 1e-11]]), Field.REAL)
    assert err.value.column == 1


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_complete_basis_unitary(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        V = orthonormalize(random_matrix(rng, field, 4, 2), field)
        for order in ("standard", "reversed"):
            U = complete_basis(V, field, order=order)
            assert U.shape[:2] == (4, 4)
            assert np.allclose(np.asarray(matmul_stack(ct_stack(U, field), U, field)),
                               np.asarray(eye(field, 4)), atol=1e-10)
            W = U[:, 2:]
            assert np.allclose(np.asarray(matmul_stack(ct_stack(W, field), V, field)), 0.0, atol=1e-10)


def complex_form(A, field):
    """The complex matrix of A: A itself over R and C, embed_qmat over H."""
    return embed_qmat(A) if field is Field.QUATERNION else np.asarray(A, dtype=complex)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_expm_alg_matches_scipy(field):
    """The Taylor series against scipy's expm of the complex matrix, on five
    3×3 matrices at each Frobenius norm from 1e-3 (no squaring) to 20 (seven
    squarings), within 1e-12 of max(max|e^A|, 1).  A real A enters scipy as a
    complex matrix: on these matrices scipy's real path is off by up to 2.5e-12
    of a 50-digit reference, its complex path and the series by under 5e-14."""
    for scale in (1e-3, 0.2, 1.0, 5.0, 20.0):
        for seed in range(5):
            A = random_matrix(np.random.default_rng(seed), field, 3, 3)
            A = A * (scale / frob(A))
            want = sla.expm(complex_form(A, field))
            err = np.abs(complex_form(expm_alg(A, field), field) - want).max()
            assert err <= 1e-12 * max(np.abs(want).max(), 1.0), (scale, seed, err)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_expm_alg_on_a_stack(field):
    """A (5, 3, 3[, 4]) stack at Frobenius norms 1e-3, 0.2, 1, 5 and 20
    takes one scaling, from its largest norm: every exponential is within
    1e-13·max(1, max|e^A|) of its own call.  A single matrix is still the
    series scaled by its own norm, bit for bit."""
    A = random_matrix(np.random.default_rng(6), field, 3, 3, lead=(5,))
    scale = np.array([1e-3, 0.2, 1.0, 5.0, 20.0]).reshape((5,) + (1,) * field.matrix_ndim)
    A = A * (scale / np.sqrt(sq_norm(A, field)))
    E = expm_alg(A, field)
    assert E.shape == A.shape
    for a, e in zip(A, E):
        one = expm_alg(a, field)
        assert np.array_equal(one, expm_taylor(a, field))
        assert np.abs(e - one).max() <= 1e-13 * max(1.0, np.abs(one).max())


def test_expm_skew_gives_unitary():
    rng = np.random.default_rng(5)
    for field in FIELDS:
        A = random_matrix(rng, field, 3, 3)
        S = (A - ct_stack(A, field)) / 2.0
        U = expm_alg(S, field)
        assert np.allclose(np.asarray(matmul_stack(ct_stack(U, field), U, field)),
                           np.asarray(eye(field, 3)), atol=1e-9)


def test_sym_eig_small():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    S = A + A.T
    w, Q = sym_eig_small(S)
    assert np.allclose(Q @ np.diag(w) @ Q.T, S, atol=1e-10)
    for j in range(4):
        i = int(np.argmax(np.abs(Q[:, j])))
        assert Q[i, j] > 0
    with pytest.raises(ValueError):
        sym_eig_small(A)


def test_field_parse_and_detect():
    assert Field.parse("R") is Field.REAL
    assert Field.parse("complex") is Field.COMPLEX
    assert Field.parse("h") is Field.QUATERNION
    assert Field.parse(Field.COMPLEX) is Field.COMPLEX
    with pytest.raises(ValueError):
        Field.parse("octonion")
    assert Field.QUATERNION.real_dim == 4


def test_norm_g0_of_unit_offdiag_lift():
    # X = [[0, -b*], [b, 0]] with |b| = 1 has g0-norm 1 over every field
    for field in FIELDS:
        X = zeros(field, 3, 3)
        if field is Field.QUATERNION:
            b = quat(0, 0.6, 0.8, 0)
            X[1, 0] = b
            X[0, 1] = -qconj(b)
        else:
            X[1, 0] = 1.0 if field is Field.REAL else 0.6 + 0.8j
            X[0, 1] = -np.conj(X[1, 0])
        assert abs(norm_g0(X, field) - 1.0) < 1e-14
