"""Homogeneous-space layer: model isometries, lifts, block structure,
geodesics, ambient curvature and the J-structures."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pullconn.algebra import (
    Field,
    ct_stack,
    eye,
    frob,
    inner_re,
    matmul_stack,
    orthonormalize,
    qconj,
    quat,
    random_matrix,
    zeros,
)
from pullconn.homogeneous import (
    GrassTangent,
    ad_alpha,
    curvature_normalization,
    geodesic_stiefel_k1,
    point_from_stiefel,
    projector_derivative,
    random_horizontal,
    tangent,
)
from reference import (
    bracket,
    complete_basis,
    emb_alpha,
    frame_lift,
    geodesic,
    inner_g0,
    j_apply,
    lie_lift,
    lift_to_tangent,
    proj_m,
    proj_p_block,
    qmul,
    scalar_right,
    sectional_curvature_g0,
    tangent_strict,
    wirtinger_angle,
)

FIELDS = [Field.REAL, Field.COMPLEX, Field.QUATERNION]


def rand_point(rng, field, N, k):
    return point_from_stiefel(orthonormalize(random_matrix(rng, field, N, k), field), field)


def rand_unit_tangent(rng, pt):
    t = random_horizontal(rng, pt)
    return t.scaled(1.0 / t.norm())


def test_point_from_stiefel_basics():
    for field in FIELDS:
        V = eye(field, 4)[:, :2]
        pt = point_from_stiefel(V, field)
        assert np.allclose(np.asarray(pt.P), np.asarray(emb_alpha(eye(field, 2), 4, field)), atol=1e-12)
    # [1 : 1]/sqrt(2) in CP^1 gives the all-one-half projector
    v = np.array([[1.0 + 0j], [1.0]]) / np.sqrt(2)
    pt = point_from_stiefel(v, Field.COMPLEX)
    assert np.allclose(pt.P, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_gauge_invariance_of_projector():
    rng = np.random.default_rng(0)
    for field in FIELDS:
        pt = rand_point(rng, field, 5, 2)
        u = orthonormalize(random_matrix(rng, field, 2, 2), field)
        pt2 = point_from_stiefel(matmul_stack(pt.V, u, field), field)
        assert frob(pt.P - pt2.P) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_model_isometry(seed):
    """Projector-model norm = Stiefel-horizontal norm = lift norm."""
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        pt = rand_point(rng, field, 5, 2)
        t = random_horizontal(rng, pt)
        lift = lie_lift(frame_lift(pt), t)
        n_h = inner_re(t.H, t.H)
        delta = projector_derivative(pt.V, t.H, field)
        n_delta = inner_g0(delta, delta, field)
        n_lift = inner_g0(lift.mat, lift.mat, field)
        assert abs(n_h - n_delta) < 1e-10 * max(1.0, n_h)
        assert abs(n_h - n_lift) < 1e-10 * max(1.0, n_h)
        assert abs(lift.norm_g0() ** 2 - n_h) < 1e-10 * max(1.0, n_h)


def test_frame_lift_contract():
    rng = np.random.default_rng(1)
    for field in FIELDS:
        pt = rand_point(rng, field, 5, 2)
        fr = frame_lift(pt)
        assert np.allclose(np.asarray(matmul_stack(ct_stack(fr.g, field), fr.g, field)),
                           np.asarray(eye(field, 5)), atol=1e-10)
        assert np.allclose(np.asarray(fr.g[:, :2]), np.asarray(pt.V), atol=1e-14)
        fr2 = frame_lift(pt)
        assert np.allclose(np.asarray(fr.g), np.asarray(fr2.g))
    # identity point lifts to the identity frame
    ptI = point_from_stiefel(np.eye(4)[:, :2], Field.REAL)
    assert np.allclose(frame_lift(ptI).g, np.eye(4), atol=1e-14)


def test_lie_lift_round_trip_and_unit_entry():
    rng = np.random.default_rng(2)
    for field in FIELDS:
        pt = rand_point(rng, field, 6, 2)
        fr = frame_lift(pt)
        t = random_horizontal(rng, pt)
        lift = lie_lift(fr, t)
        back = lift_to_tangent(lift)
        assert frob(back.H - t.H) < 1e-10 * max(1.0, frob(t.H))
        M = lift.mat
        assert frob(proj_m(M, 2)) < 1e-14
        assert frob(M[2:, 2:]) < 1e-14
        assert frob(M + ct_stack(M, field)) < 1e-12
    ptI = point_from_stiefel(np.eye(4)[:, :2], Field.REAL)
    H = np.zeros((4, 2))
    H[2, 0] = 1.0
    lift = lie_lift(frame_lift(ptI), GrassTangent(ptI, H))
    expect = np.zeros((2, 2))
    expect[0, 0] = 1.0
    assert np.allclose(lift.B, expect, atol=1e-14)


def test_tangent_strict_rejects_nonhorizontal():
    pt = point_from_stiefel(np.eye(3)[:, :1], Field.REAL)
    with pytest.raises(ValueError):
        tangent_strict(pt, np.array([[1.0], [0.0], [0.0]]))


def test_symmetric_pair_block_structure():
    """[p,p] lands in the diagonal blocks h⊕m; ad_alpha keeps p."""
    rng = np.random.default_rng(3)
    for field in FIELDS:
        pt = rand_point(rng, field, 5, 2)
        fr = frame_lift(pt)
        x = lie_lift(fr, random_horizontal(rng, pt)).mat
        y = lie_lift(fr, random_horizontal(rng, pt)).mat
        br = bracket(x, y, field)
        assert frob(proj_p_block(br, 2)) < 1e-12
        a = random_matrix(rng, field, 2, 2)
        a = (a - ct_stack(a, field)) / 2.0
        br2 = bracket(emb_alpha(a, 5, field), x, field)
        assert frob(proj_m(br2, 2)) < 1e-12
        assert frob(br2[2:, 2:]) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_bracket_adjointness(seed):
    """⟨[X,Y],α⟩₀ = ⟨Y,[α,X]⟩₀ for anti-Hermitian matrices."""
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        mats = []
        for _ in range(3):
            A = random_matrix(rng, field, 4, 4)
            mats.append((A - ct_stack(A, field)) / 2.0)
        X, Y, al = mats
        lhs = inner_g0(bracket(X, Y, field), al, field)
        rhs = inner_g0(Y, bracket(al, X, field), field)
        assert abs(lhs - rhs) < 1e-10
        # ad-skewness, the same identity rearranged
        assert abs(inner_g0(bracket(al, X, field), Y, field)
                   + inner_g0(X, bracket(al, Y, field), field)) < 1e-10


def test_ad_alpha_is_right_multiplication():
    """[diag(α,0), X~]^p ↔ H·(−α), checked through the lift blocks."""
    rng = np.random.default_rng(4)
    for field in FIELDS:
        pt = rand_point(rng, field, 5, 2)
        fr = frame_lift(pt)
        t = random_horizontal(rng, pt)
        a = random_matrix(rng, field, 2, 2)
        a = (a - ct_stack(a, field)) / 2.0
        br = bracket(emb_alpha(a, 5, field), lie_lift(fr, t).mat, field)
        B_br = proj_p_block(br, 2)
        expect = lie_lift(fr, ad_alpha(a, t)).B
        assert frob(B_br - expect) < 1e-12
        # horizontal coordinates of the bracket via W recovery
        H_br = matmul_stack(fr.W, B_br, field)
        assert frob(H_br - (-matmul_stack(t.H, a, field))) < 1e-12


def test_geodesic_basics():
    rng = np.random.default_rng(5)
    for field in FIELDS:
        pt = rand_point(rng, field, 4, 1)
        t = rand_unit_tangent(rng, pt)
        p0 = geodesic(pt, t, 0.0)
        assert frob(p0.P - pt.P) < 1e-12
        for s in (0.3, 2.0, 10.0):
            ps = geodesic(pt, t, s)
            assert frob(matmul_stack(ps.P, ps.P, field) - ps.P) < 1e-10
        # completion choice does not move the geodesic point
        pa = geodesic(pt, t, 0.7, order="standard")
        pb = geodesic(pt, t, 0.7, order="reversed")
        assert frob(pa.P - pb.P) < 1e-10


@pytest.mark.parametrize("field", FIELDS)
def test_projector_derivative_matches_the_entrywise_sum(field):
    """HV* + VH* against its entries Σ_c H_ac conj(V_bc) + V_ac conj(H_bc)."""
    rng = np.random.default_rng(31)
    pt = rand_point(rng, field, 4, 2)
    V, H = pt.V, random_horizontal(rng, pt).H
    if field is Field.QUATERNION:
        mul, conj = qmul, lambda q: q * np.array([1.0, -1.0, -1.0, -1.0])
    else:
        mul, conj = np.multiply, np.conj
    want = np.array([[sum(mul(H[a, c], conj(V[b, c])) + mul(V[a, c], conj(H[b, c]))
                          for c in range(2)) for b in range(4)] for a in range(4)])
    assert np.max(np.abs(projector_derivative(V, H, field) - want)) < 1e-14


def test_geodesic_unit_speed_arc_length():
    rng = np.random.default_rng(6)
    pt = rand_point(rng, Field.COMPLEX, 3, 1)
    t = rand_unit_tangent(rng, pt)
    s = 1e-3
    ps = geodesic(pt, t, s)
    # projector-model distance ≈ |Δ|₀·s for small s
    d = np.sqrt(inner_g0(ps.P - pt.P, ps.P - pt.P, Field.COMPLEX))
    delta = projector_derivative(pt.V, t.H, Field.COMPLEX)
    assert abs(d - s * np.sqrt(inner_g0(delta, delta, Field.COMPLEX))) < 5e-9


def test_geodesic_k1_closed_form_matches_expm():
    rng = np.random.default_rng(7)
    for field in FIELDS:
        pt = rand_point(rng, field, 4, 1)
        t = random_horizontal(rng, pt)
        for s in (0.2, 1.1):
            Va = geodesic_stiefel_k1(pt.V[None], t.H[None], field, s)[0]
            pa = point_from_stiefel(Va, field)
            pb = geodesic(pt, t, s)
            assert frob(pa.P - pb.P) < 1e-10
    at_zero = geodesic_stiefel_k1(pt.V[None], zeros(field, 4, 1)[None], field, 0.5)[0]
    assert np.array_equal(at_zero, pt.V)


def test_cp1_geodesic_period_pi():
    """Unit-speed great circles of CP^1 close up at s = π (frozen fixture)."""
    pt = point_from_stiefel(np.array([[1.0 + 0j], [0.0]]), Field.COMPLEX)
    t = rand_unit_tangent(np.random.default_rng(8), pt)
    gaps = [frob(geodesic(pt, t, s).P - pt.P) for s in (np.pi / 2, np.pi)]
    assert gaps[0] > 0.5
    assert gaps[1] < 1e-10
    # refine the first return numerically and pin it to π
    ss = np.linspace(2.9, 3.4, 200)
    vals = [frob(geodesic(pt, t, s).P - pt.P) for s in ss]
    assert abs(ss[int(np.argmin(vals))] - np.pi) < 5e-3


def test_sectional_curvature_basics():
    rng = np.random.default_rng(9)
    pt = rand_point(rng, Field.COMPLEX, 3, 1)
    x = rand_unit_tangent(rng, pt)
    assert abs(sectional_curvature_g0(x, x.scaled(2.0))) < 1e-12
    # G2(R4): orthogonal 2-plane directions span a flat
    ptI = point_from_stiefel(np.eye(4)[:, :2], Field.REAL)
    H1 = np.zeros((4, 2))
    H1[2, 0] = 1.0
    H2 = np.zeros((4, 2))
    H2[3, 1] = 1.0
    assert abs(sectional_curvature_g0(GrassTangent(ptI, H1), GrassTangent(ptI, H2))) < 1e-14


def test_sectional_curvature_matches_lift_bracket():
    rng = np.random.default_rng(10)
    for field in FIELDS:
        pt = rand_point(rng, field, 5, 2)
        fr = frame_lift(pt)
        x, y = random_horizontal(rng, pt), random_horizontal(rng, pt)
        direct = sectional_curvature_g0(x, y)
        br = bracket(lie_lift(fr, x).mat, lie_lift(fr, y).mat, field)
        assert abs(direct - inner_g0(br, br, field)) < 1e-9 * max(1.0, direct)


def test_cp2_pinching_and_normalization():
    rng = np.random.default_rng(11)
    pt = rand_point(rng, Field.COMPLEX, 3, 1)
    lam = curvature_normalization(Field.COMPLEX, 3, 1)
    vals = []
    for _ in range(200):
        x = rand_unit_tangent(rng, pt)
        y = random_horizontal(rng, pt)
        y = GrassTangent(pt, y.H - x.H * x.inner(y))
        if y.norm() < 1e-6:
            continue
        y = y.scaled(1.0 / y.norm())
        vals.append(sectional_curvature_g0(x, y) / lam)
    vals = np.array(vals)
    assert vals.min() > 0.25 - 1e-3
    assert vals.max() < 1.0 + 1e-6
    # extremes are attained: J-invariant plane and totally real plane
    x = rand_unit_tangent(rng, pt)
    jx = j_apply(pt, 1j, x)
    assert abs(sectional_curvature_g0(x, jx) / lam - 1.0) < 1e-9
    # k(X, JX) / k(X, Y) = 4 for Y real-orthogonal to X and JX
    y = random_horizontal(rng, pt)
    y = GrassTangent(pt, y.H - x.H * x.inner(y) - jx.H * jx.inner(y))
    y = y.scaled(1.0 / y.norm())
    ratio = sectional_curvature_g0(x, jx) / sectional_curvature_g0(x, y)
    assert abs(ratio - 4.0) < 1e-9
    # λ is the attained maximum: the J-plane value up to refinement slack
    assert abs(sectional_curvature_g0(x, jx) - lam) < 1e-6 * lam


def test_curvature_normalization_spelling_and_scale():
    lam1 = curvature_normalization("c", 3, 1)
    lam2 = curvature_normalization(Field.COMPLEX, 3, 1)
    assert lam1 == lam2
    rng = np.random.default_rng(12)
    pt = rand_point(rng, Field.QUATERNION, 3, 1)
    lamh = curvature_normalization("h", 3, 1)
    best = 0.0
    for _ in range(200):
        x = rand_unit_tangent(rng, pt)
        y = random_horizontal(rng, pt)
        y = GrassTangent(pt, y.H - x.H * x.inner(y))
        if y.norm() < 1e-6:
            continue
        y = y.scaled(1.0 / y.norm())
        best = max(best, sectional_curvature_g0(x, y) / lamh)
    assert best <= 1.0 + 1e-6
    # the maximum is attained on a 𝔍-invariant plane
    x = rand_unit_tangent(rng, pt)
    ix = j_apply(pt, quat(0, 1, 0, 0), x)
    assert abs(sectional_curvature_g0(x, ix) / lamh - 1.0) < 1e-6


# ----------------------------------------------------------------------------
# curvature normalization: the closed-form table against a sampling oracle
# ----------------------------------------------------------------------------

def _tangent_real_basis(pt):
    """Real orthonormal basis of the horizontal space at pt."""
    f = pt.field
    W = complete_basis(pt.V, f)[:, pt.k:]
    units = {Field.REAL: (1.0,), Field.COMPLEX: (1.0, 1j),
             Field.QUATERNION: (quat(1, 0, 0, 0), quat(0, 1, 0, 0),
                                quat(0, 0, 1, 0), quat(0, 0, 0, 1))}[f]
    out = []
    for j in range(pt.N - pt.k):
        col = W[:, j:j + 1]
        for a in range(pt.k):
            for q in units:
                H = zeros(f, pt.N, pt.k)
                H[:, a:a + 1] = scalar_right(col, q) if f is Field.QUATERNION else col * q
                out.append(GrassTangent(pt, H))
    return out


def _max_sec_from(pt, x, rounds=12):
    """Alternating maximization of |[X~,Y~]|₀² over unit pairs from x."""
    basis = _tangent_real_basis(pt)
    d = len(basis)
    f = pt.field

    def quad_matrix(z):
        br = []
        for e in basis:
            C1 = matmul_stack(ct_stack(e.H, f), z.H, f) - matmul_stack(ct_stack(z.H, f), e.H, f)
            C2 = matmul_stack(e.H, ct_stack(z.H, f), f) - matmul_stack(z.H, ct_stack(e.H, f), f)
            br.append((C1, C2))
        M = np.zeros((d, d))
        for a in range(d):
            for b in range(a, d):
                M[a, b] = M[b, a] = 0.5 * (inner_re(br[a][0], br[b][0])
                                           + inner_re(br[a][1], br[b][1]))
        return M

    cur = x.scaled(1.0 / x.norm())
    val = 0.0
    for _ in range(rounds):
        w, Q = np.linalg.eigh(quad_matrix(cur))
        val = float(w[-1])
        nxt = GrassTangent(pt, sum(c * e.H for c, e in zip(Q[:, -1], basis)))
        nxt = nxt.scaled(1.0 / nxt.norm())
        cur = nxt.scaled(-1.0) if cur.inner(nxt) < 0 else nxt
    return val


def sampled_normalization(field, N, k):
    """Max sectional curvature of G_k(K^N) by 60 random orthonormal pairs,
    then alternating refinement from 3 random starts."""
    rng = np.random.default_rng(2024)
    pt = rand_point(rng, field, N, k)
    best = 0.0
    for _ in range(60):
        x = rand_unit_tangent(rng, pt)
        y = random_horizontal(rng, pt)
        y = GrassTangent(pt, y.H - x.H * x.inner(y))
        if y.norm() < 1e-9:
            continue
        best = max(best, sectional_curvature_g0(x, y.scaled(1.0 / y.norm())))
    for _ in range(3):
        best = max(best, _max_sec_from(pt, rand_unit_tangent(rng, pt)))
    return best


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_curvature_normalization_table_matches_sampler(field):
    for N in range(2, 6):
        for k in range(1, N):
            want = sampled_normalization(field, N, k)
            assert abs(curvature_normalization(field, N, k) - want) < 1e-9, (N, k)


def test_curvature_normalization_rejects_bad_rank():
    for N, k in ((3, 0), (3, 3), (3, 4), (2, -1)):
        with pytest.raises(ValueError):
            curvature_normalization(Field.REAL, N, k)


def test_j_apply_contract():
    rng = np.random.default_rng(13)
    pt = rand_point(rng, Field.COMPLEX, 3, 1)
    t = rand_unit_tangent(rng, pt)
    jt = j_apply(pt, 1j, t)
    jjt = j_apply(pt, 1j, jt)
    assert frob(jjt.H + t.H) < 1e-12
    assert abs(jt.norm() - t.norm()) < 1e-12
    with pytest.raises(ValueError):
        j_apply(point_from_stiefel(np.eye(3)[:, :1], Field.REAL), 1j, t)
    with pytest.raises(ValueError):
        j_apply(pt, 0.5 + 0.5j, t)
    pth = rand_point(rng, Field.QUATERNION, 3, 1)
    th = rand_unit_tangent(rng, pth)
    qi, qj, qk = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)
    a = j_apply(pth, qj, th)
    b = j_apply(pth, qj, a)
    assert frob(b.H + th.H) < 1e-12
    # right actions compose in reverse product order: (H·j)·k = H·(jk) = H·i
    c = j_apply(pth, qk, a)
    d = j_apply(pth, qmul(qj, qk), th)
    assert frob(c.H - d.H) < 1e-12


def test_ad_alpha_vs_j_apply_k1():
    """For α = diag(q,0) the p-bracket acts as −(·)·q, the 𝔍 convention."""
    rng = np.random.default_rng(14)
    for field in (Field.COMPLEX, Field.QUATERNION):
        pt = rand_point(rng, field, 4, 1)
        t = random_horizontal(rng, pt)
        q = 1j if field is Field.COMPLEX else quat(0, 0.6, 0.0, 0.8)
        alpha = zeros(field, 1, 1)
        alpha[0, 0] = q
        got = ad_alpha(alpha, t)
        want = j_apply(pt, q, t)
        assert frob(got.H + want.H) < 1e-12


def test_wirtinger_angle_complex_cases():
    rng = np.random.default_rng(15)
    pt = rand_point(rng, Field.COMPLEX, 4, 1)
    x = rand_unit_tangent(rng, pt)
    jx = j_apply(pt, 1j, x)
    # J-closed plane: angle 0
    assert wirtinger_angle([x, jx], x) < 1e-8
    # J-image orthogonal to the span: angle π/2
    y = random_horizontal(rng, pt)
    y = GrassTangent(pt, y.H - x.H * x.inner(y) - jx.H * jx.inner(y))
    y = y.scaled(1.0 / y.norm())
    # span{x,y} with y ⊥ {x, Jx} is totally real: Π_T(Jx) = 0
    theta = wirtinger_angle([x, y], x)
    assert abs(theta - np.pi / 2) < 1e-8
    with pytest.raises(ValueError):
        wirtinger_angle([x], GrassTangent(pt, x.H * 0.0))


def test_wirtinger_angle_quaternion_span_max():
    rng = np.random.default_rng(16)
    pt = rand_point(rng, Field.QUATERNION, 3, 1)
    x = rand_unit_tangent(rng, pt)
    qi, qj, qk = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)
    ix = j_apply(pt, qi, x)
    jx = j_apply(pt, qj, x)
    kx = j_apply(pt, qk, x)
    # quaternionic plane: all of IX, JX, KX inside → θ = 0
    assert wirtinger_angle([x, ix, jx, kx], x) < 1e-8
    # IX in the span but JX, KX orthogonal → θ = π/2 attained at a = 0
    assert abs(wirtinger_angle([x, ix], x) - np.pi / 2) < 1e-8


def test_wirtinger_gauge_invariance():
    rng = np.random.default_rng(17)
    for field in (Field.COMPLEX, Field.QUATERNION):
        pt = rand_point(rng, field, 3, 1)
        x = rand_unit_tangent(rng, pt)
        y = random_horizontal(rng, pt)
        y = GrassTangent(pt, y.H - x.H * x.inner(y))
        y = y.scaled(1.0 / y.norm())
        th1 = wirtinger_angle([x, y], x)
        if field is Field.COMPLEX:
            u = np.exp(0.7j) * np.ones((1, 1))
        else:
            u = zeros(field, 1, 1)
            u[0, 0] = quat(np.cos(0.7), 0.0, np.sin(0.7), 0.0)
        pt2 = point_from_stiefel(matmul_stack(pt.V, u, field), field)
        x2 = GrassTangent(pt2, matmul_stack(x.H, u, field))
        y2 = GrassTangent(pt2, matmul_stack(y.H, u, field))
        th2 = wirtinger_angle([x2, y2], x2)
        assert abs(th1 - th2) < 1e-8
