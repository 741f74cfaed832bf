"""Brute-force layer: stencils, transport, holonomy, loop generators."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from pullconn.algebra import (
    Field, Jet, ct_stack, expm_alg, eye, frob, inner_re, matmul_stack, orthonormalize,
    random_matrix, skew_exp, units,
)
from pullconn.catalog import (
    build_chart,
    clifford_torus,
    grassmann_sub,
    quaternionic_line,
    totally_real,
    veronese,
)
from pullconn.connection import alpha_basis
from pullconn.immersion import chart_jet, point_frame
from pullconn.oracle import (
    _series_log,
    base_transport,
    bracket_m,
    christoffel,
    curvature_pairing_fd,
    differential_fd,
    dr_oracle,
    exp_chart,
    holonomy_generator,
    holonomy_map,
    lemma_omega_check,
    parallel_transport,
)
from reference import (
    bracket,
    central_stencil,
    christoffel_nested,
    covariant_derivative,
    curvature_oracle,
    curvature_raw,
    dr_oracle_loop,
    frame_lift,
    gram_at,
    holonomy_map_loop,
    lemma_omega_check_loop,
    left_mult_matrix,
    lie_lift,
    proj_m,
    richardson_difference,
    sectional_base_fd,
)
from pullconn.homogeneous import (
    GrassPoint, GrassTangent, ambient_lift, point_from_stiefel, random_horizontal, stiefel_points,
)


def sample_charts():
    return [
        (veronese(2), np.array([0.3, -0.2])),
        (clifford_torus(), np.array([0.5, 1.0])),
        (grassmann_sub(2, 4, 5), np.array([0.3, -0.2, 0.1, 0.4])),
        (quaternionic_line(3), np.array([0.2, -0.1, 0.3, 0.05])),
    ]


@pytest.mark.parametrize("chart,u", sample_charts(),
                         ids=["veronese", "clifford", "gsub", "hline"])
def test_curvature_methods_agree(chart, u):
    w = chart(u).V
    a = curvature_oracle(chart, u, 0, 1, w, method="projector")
    b = curvature_oracle(chart, u, 0, 1, w, method="commutator")
    assert frob(a - b) < 1e-6


def test_curvature_antisymmetry_and_anti_self_adjointness():
    rng = np.random.default_rng(7)
    for chart, u in sample_charts():
        pt = chart(u)
        c1 = random_matrix(rng, pt.field, pt.k, 1)
        c2 = random_matrix(rng, pt.field, pt.k, 1)
        w = matmul_stack(pt.V, c1, pt.field)
        v = matmul_stack(pt.V, c2, pt.field)
        i, j = 0, 1
        rij = curvature_oracle(chart, u, i, j, w)
        rji = curvature_oracle(chart, u, j, i, w)
        assert frob(rij + rji) < 1e-9
        lhs = inner_re(rij, v)
        rhs = -inner_re(curvature_oracle(chart, u, i, j, v), w)
        assert abs(lhs - rhs) < 2e-6


def test_covariant_derivative_metric_compatibility():
    chart = veronese(2)
    u = np.array([0.3, -0.2])
    rng = np.random.default_rng(3)
    c1 = random_matrix(rng, Field.COMPLEX, 3, 1)
    c2 = random_matrix(rng, Field.COMPLEX, 3, 1)

    def s1(up):
        return chart(up).P @ c1

    def s2(up):
        return chart(up).P @ c2

    for i in range(2):
        def slope(h):
            e = np.zeros(2)
            e[i] = h
            return (inner_re(s1(u + e), s2(u + e)) - inner_re(s1(u - e), s2(u - e))) / (2 * h)

        lhs = (4.0 * slope(5e-4) - slope(1e-3)) / 3.0
        rhs = inner_re(covariant_derivative(chart, u, i, s1), s2(u)) \
            + inner_re(s1(u), covariant_derivative(chart, u, i, s2))
        assert abs(lhs - rhs) < 1e-7


def test_parallel_transport_stays_in_fiber_and_preserves_norm():
    for chart, u in sample_charts():
        pt = chart(u)
        u1 = u + 0.3 * np.ones_like(u) * np.array([1] + [-1] * (len(u) - 1))
        w1, pt1 = parallel_transport(chart, u, u1, pt.V, steps=60)
        drift = abs(inner_re(w1, w1) - inner_re(pt.V, pt.V))
        assert drift < 1e-9
        assert frob(w1 - matmul_stack(pt1.P, w1, pt1.field)) < 1e-9
        back, _ = parallel_transport(chart, u1, u, w1, steps=60)
        assert frob(back - pt.V) < 1e-8


def test_parallel_transport_is_fourth_order():
    chart = veronese(2)
    u0 = np.array([0.1, -0.3])
    u1 = np.array([-0.4, 0.5])
    w0 = chart(u0).V
    ref, _ = parallel_transport(chart, u0, u1, w0, steps=160)
    e5 = frob(parallel_transport(chart, u0, u1, w0, steps=5)[0] - ref)
    e10 = frob(parallel_transport(chart, u0, u1, w0, steps=10)[0] - ref)
    assert e5 / e10 >= 8.0


def _fibre_matrix(field, k, image, base):
    """Real matrix M[b·d + s, a·d + t] = <image_a q_t, base_b q_s> over the
    real units q of the field, one pairing at a time."""
    d = field.real_dim

    def fib(cols, a, q):
        """Column a times q, as a product with the 1×1 matrix [q]."""
        return matmul_stack(cols[:, a:a + 1], np.reshape(q, (1, 1) + np.shape(q)), field)

    M = np.zeros((k * d, k * d))
    for a in range(k):
        for t, q in enumerate(units(field)):
            img = fib(image, a, q)
            for b in range(k):
                for s, qs in enumerate(units(field)):
                    M[b * d + s, a * d + t] = inner_re(img, fib(base, b, qs))
    return M


def _raw_matrix(chart, u, i, j):
    """Real fibre matrix of the raw operator P [d_i P, d_j P]."""
    pt = chart(u)
    return _fibre_matrix(pt.field, pt.k, curvature_raw(chart, u, i, j, pt.V), pt.V)


@pytest.mark.parametrize("chart,u", [
    (grassmann_sub(2, 4, 5), np.array([0.3, -0.2, 0.1, 0.4])),
    (veronese(2), np.array([0.3, -0.2])),
    (quaternionic_line(3), np.array([0.2, -0.1, 0.3, 0.05])),
], ids=["gsub", "veronese", "hline"])
def test_holonomy_generator_is_the_log_of_the_paired_return_matrix(chart, u):
    """holonomy_generator reads the return matrix off V0* T; pairing the
    transported frame with the start frame one unit at a time is the
    reference, in the real fibre representation.  The generator lies in
    the anti-Hermitian structure algebra over R, C and H."""
    pt0, T = holonomy_map(chart, u, 0, 1, 0.02)
    f = pt0.field
    want = np.real(sla.logm(_fibre_matrix(f, pt0.k, T, pt0.V)))
    G = holonomy_generator(chart, u, 0, 1, 0.02)
    assert np.max(np.abs(left_mult_matrix(f, pt0.k, G) - want)) < 1e-13
    assert np.max(np.abs(G + ct_stack(G, f))) < 1e-12


@pytest.mark.parametrize("chart,u", [
    (veronese(2), np.array([0.3, -0.2])),
    (grassmann_sub(2, 4, 5), np.array([0.3, -0.2, 0.1, 0.4])),
], ids=["veronese", "gsub"])
def test_holonomy_generator_matches_raw_curvature_at_third_order(chart, u):
    M = _raw_matrix(chart, u, 0, 1)
    errs = []
    for eps in (0.02, 0.01, 0.005):
        G = left_mult_matrix(chart.field, chart.k,
                             holonomy_generator(chart, u, 0, 1, eps, steps_per_leg=10, order="ij"))
        errs.append(np.linalg.norm(G - (-eps**2) * M))
    p1 = np.log2(errs[0] / errs[1])
    p2 = np.log2(errs[1] / errs[2])
    assert min(p1, p2) >= 2.7


def test_holonomy_traversal_order_flips_the_generator():
    chart = veronese(2)
    u = np.array([0.3, -0.2])
    gij = holonomy_generator(chart, u, 0, 1, 0.01, order="ij", centered=True)
    gji = holonomy_generator(chart, u, 0, 1, 0.01, order="ji", centered=True)
    assert np.linalg.norm(gij + gji) < 1e-9


@pytest.mark.parametrize("field,N,k,trials", [
    (Field.REAL, 4, 2, 6),
    (Field.COMPLEX, 3, 1, 4),
    (Field.QUATERNION, 2, 1, 3),
], ids=["r-g2", "c-cp2", "h-hp1"])
def test_loop_generator_constant_is_half(field, N, k, trials):
    res = lemma_omega_check(field, N, k, trials=trials, eps=0.01, seed=11)
    assert abs(res.c_fit - 0.5) < 1e-3
    assert res.max_deviation < 1e-4
    assert res.mean_residual < 1e-6


@pytest.mark.parametrize("field,N,k,trials", [(Field.REAL, 4, 2, 10), (Field.COMPLEX, 3, 1, 16)],
                         ids=["r-G2R4", "c-3x1"])
def test_stacked_trials_match_the_per_trial_loop(field, N, k, trials):
    """lemma_omega_check over one stack of trials returns what one exp chart
    and one holonomy per trial return, bit for bit: the draws follow the
    same stream and the sums over trials run in the same order (numpy's
    pairwise sum over the 16 complex trials differs in the last bit)."""
    got = lemma_omega_check(field, N, k, trials=trials, seed=424242)
    want = lemma_omega_check_loop(field, N, k, trials=trials, seed=424242)
    for name in ("c_fit", "max_deviation", "mean_residual", "trials"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("field,N,k", [(Field.REAL, 4, 2), (Field.COMPLEX, 3, 1),
                                       (Field.COMPLEX, 4, 2), (Field.QUATERNION, 3, 1)])
def test_stacked_exp_chart_holonomy_matches_one_chart_per_trial(field, N, k):
    """One exp_chart over a stack of five (V, X, Y) carries a trial axis:
    its holonomy generators, (eps, trials, k, k[, 4]), equal those of one
    chart per trial, bitwise over R and C; over H within 1e-12, since the
    stacked expm_alg scales every trial by the largest norm."""
    rng = np.random.default_rng(17)
    pairs = [_unit_pair(rng, field, N, k) for _ in range(5)]
    pt = GrassPoint(field, N, k, np.array([p.V for p, _, _ in pairs]))
    X, Y = (GrassTangent(pt, np.array([t[i].H for t in pairs])) for i in (1, 2))
    e = np.array([0.01, 0.005])
    kw = dict(steps_per_leg=10, order="ji", centered=True)
    G = holonomy_generator(exp_chart(pt, X, Y, half_width=0.04), np.zeros(2), 0, 1, e, **kw)
    assert G.shape == (2, 5) + eye(field, k).shape
    for t, (p, x, y) in enumerate(pairs):
        want = holonomy_generator(exp_chart(p, x, y, half_width=0.04), np.zeros(2), 0, 1, e, **kw)
        if field is Field.QUATERNION:
            assert np.max(np.abs(G[:, t] - want)) <= 1e-12
        else:
            assert np.array_equal(G[:, t], want)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
@pytest.mark.parametrize("k", [1, 2])
def test_left_mult_matrix_is_multiplicative(field, k):
    rng = np.random.default_rng(4)
    a, b = random_matrix(rng, field, k, k), random_matrix(rng, field, k, k)
    L = left_mult_matrix(field, k, matmul_stack(a, b, field))
    assert np.max(np.abs(L - left_mult_matrix(field, k, a) @ left_mult_matrix(field, k, b))) < 1e-13


def _unit_pair(rng, field, N, k):
    """A random point and an orthonormal pair of horizontal tangents there."""
    pt = point_from_stiefel(orthonormalize(random_matrix(rng, field, N, k), field), field)
    X = random_horizontal(rng, pt)
    X = GrassTangent(pt, X.H / X.norm())
    Y = random_horizontal(rng, pt)
    Y = GrassTangent(pt, Y.H - X.H * inner_re(Y.H, X.H))
    return pt, X, GrassTangent(pt, Y.H / Y.norm())


def test_exp_chart_matches_finite_differences():
    rng = np.random.default_rng(9)
    for field, N, k in [(Field.REAL, 4, 2), (Field.COMPLEX, 3, 1), (Field.QUATERNION, 3, 1)]:
        pt, X, Y = _unit_pair(rng, field, N, k)
        chart = exp_chart(pt, X, Y, half_width=0.5)
        u = np.array([0.1, -0.2])
        fd = differential_fd(chart, u[None])[2][0]
        an = chart_jet(chart, u[None], 1)[1][0]
        for a, f in zip(an, fd):
            assert frob(a - f) < 1e-8
        assert frob(chart(np.zeros(2)).P - pt.P) < 1e-12


def _frame_column_jet(pt, X, Y, u):
    """Columns (g e^{u1 X~} e^{u2 Y~})[:, :k] at u in the g0 frame g = [V | W],
    X~ and Y~ the block lifts, and their first and second derivatives along
    u, each a product with one expm_alg per exponential."""
    f = pt.field
    fr = frame_lift(pt)
    Xl, Yl = lie_lift(fr, X).mat, lie_lift(fr, Y).mat
    left, right = matmul_stack(fr.g, expm_alg(u[0] * Xl, f), f), expm_alg(u[1] * Yl, f)

    def col(*factors):
        out = left
        for m in factors:
            out = matmul_stack(out, m, f)
        return out[:, :pt.k]
    return (col(right), np.array([col(Xl, right), col(right, Yl)]),
            np.array([[col(Xl, Xl, right), col(Xl, right, Yl)],
                      [col(Xl, right, Yl), col(right, Yl, Yl)]]))


@pytest.mark.parametrize("field,N,k", [(Field.REAL, 4, 2), (Field.COMPLEX, 3, 1),
                                       (Field.COMPLEX, 4, 2), (Field.QUATERNION, 3, 1),
                                       (Field.QUATERNION, 4, 2)])
def test_ambient_lifts_match_the_frame_lifts(field, N, k):
    """exp_chart's columns e^{u1 A_X} e^{u2 A_Y} V and their jet, and
    bracket_m's V*[A_X, A_Y]V, against the frame g = [V | W] and the block
    lifts X~ of the g0 reference: g X~ g* = A_X."""
    rng = np.random.default_rng(21)
    pt, X, Y = _unit_pair(rng, field, N, k)
    chart = exp_chart(pt, X, Y, half_width=1.0)
    U = np.array([[0.0, 0.0], [0.03, -0.02], [-0.4, 0.7]])
    W = chart.cols(Jet.seed(U, 2))
    for b, u in enumerate(U):
        for got, want in zip((W.v[b], W.d[b], W.dd[b]), _frame_column_jet(pt, X, Y, u)):
            assert np.max(np.abs(got - want)) < 1e-13
    fr = frame_lift(pt)
    want = proj_m(bracket(lie_lift(fr, X).mat, lie_lift(fr, Y).mat, field), k)
    assert np.max(np.abs(bracket_m(X, Y) - want)) < 1e-13


@pytest.mark.parametrize("field,N,k", [(Field.REAL, 4, 2), (Field.REAL, 5, 1),
                                       (Field.COMPLEX, 3, 1), (Field.COMPLEX, 4, 2)])
def test_eigh_exponential_matches_expm(field, N, k):
    """e^{uA_X} from one eigendecomposition against scipy's expm, for u up
    to the half width of the charts lemma_omega_check builds and beyond."""
    rng = np.random.default_rng(3)
    pt, X, _ = _unit_pair(rng, field, N, k)
    A = ambient_lift(pt.V, X.H, field)
    u = np.concatenate([np.linspace(-0.04, 0.04, 9), [-1.0, 0.5, 1.0]])
    E = skew_exp(A, field)(u)
    assert E.dtype == (complex if field is Field.COMPLEX else float)
    for t, Et in zip(u, E):
        assert np.max(np.abs(Et - sla.expm(t * A))) < 1e-13


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_stiefel_rows_follow_point_from_stiefel(field):
    """stiefel_points keeps orthonormal rows of a stack as they are and
    orthonormalizes a row off by more than 1e-8, as point_from_stiefel
    does for one point."""
    rng = np.random.default_rng(4)
    V = np.array([orthonormalize(random_matrix(rng, field, 4, 2), field) for _ in range(3)])
    V[1] = V[1] * (1.0 + 1e-6)
    Vs = stiefel_points(V, field)
    for b in range(3):
        pt = point_from_stiefel(V[b], field)
        assert np.max(np.abs(Vs[b] - pt.V)) < 1e-15
    assert np.array_equal(Vs[0], V[0]) and not np.array_equal(Vs[1], V[1])


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_stiefel_points_on_two_leading_axes(field):
    """A (2, 3, N, k[, 4]) stack, its first row orthonormal already, gives
    the (6, N, k[, 4]) stack's result bit for bit, and every matrix its own
    result bit for bit, over every field: a quaternion product is one real
    matmul whose kernel depends on the matrix shapes, not on how many
    matrices share the call."""
    rng = np.random.default_rng(8)
    V = random_matrix(rng, field, 4, 2, lead=(2, 3))
    V[0] = orthonormalize(V[0], field)
    Vs = stiefel_points(V, field)
    assert Vs.shape == V.shape and np.array_equal(Vs[0], V[0])
    flat = V.reshape((6,) + V.shape[2:])
    assert np.array_equal(Vs.reshape(flat.shape), stiefel_points(flat, field))
    for a in range(2):
        for b in range(3):
            one = stiefel_points(V[a, b][None], field)[0]
            assert np.array_equal(Vs[a, b], one)


def test_base_transport_isometry_and_reversal():
    for chart, u in [(veronese(2), np.array([0.3, -0.2])),
                     (grassmann_sub(2, 4, 5), np.array([0.3, -0.2, 0.1, 0.4]))]:
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(chart.dim)
        u1 = u + 0.25 * rng.standard_normal(chart.dim)
        x1 = base_transport(chart, u, u1, x0)
        before = x0 @ gram_at(chart, u) @ x0
        after = x1 @ gram_at(chart, u1) @ x1
        assert abs(after - before) < 1e-7 * max(1.0, before)
        back = base_transport(chart, u1, u, x1)
        assert np.linalg.norm(back - x0) < 1e-7


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_pairing_antisymmetric_in_base_arguments(seed):
    rng = np.random.default_rng(seed)
    chart = veronese(2)
    u = rng.uniform(-0.7, 0.7, size=2)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2)
    pt = chart(u)
    w = pt.V
    v = pt.V * 1j
    a = curvature_pairing_fd(chart, u, x, y, w, v)
    b = curvature_pairing_fd(chart, u, y, x, w, v)
    assert abs(a + b) < 1e-8 * max(1.0, abs(a))


def test_dr_oracle_vanishes_for_parallel_pullbacks():
    chart = totally_real(2)
    u = np.array([0.2, -0.3])
    w = chart(u).V
    v = w * 1j
    assert abs(dr_oracle(chart, u, [1, 0], [0, 1], [1, 0], w, v)) < 1e-8
    for d in (2, 3):
        ch = veronese(d)
        u = np.array([0.3, -0.2])
        w = ch(u).V
        v = w * 1j
        assert abs(dr_oracle(ch, u, [1, 0], [0, 1], [1, 0], w, v)) < 1e-6


def test_dr_oracle_on_quaternionic_four_dimensional_base():
    """On a 2-dimensional base the curvature sees the transported pair only
    through det(x, y), so only the trace of the Christoffel symbols reaches
    the oracle; a 4-dimensional base exercises every symbol."""
    chart = build_chart("perturbed", field="h", base="hline")
    u = np.array([0.25, -0.3, 0.1, 0.2])
    pf = point_frame(chart, u)
    alpha = alpha_basis(chart.field, chart.k)[0]
    w, v = alpha.fiber_pair(pf.pt.V)
    for triple in [(0, 1, 0), (0, 2, 3)]:
        x, y, z = np.eye(4)[list(triple)]
        closed = np.einsum("abc,a,b,c->", pf.DR[0], x, y, z)
        xc, yc, zc = (pf.coeff.T @ t for t in (x, y, z))
        assert abs(closed - 2.0 * dr_oracle(chart, u, xc, yc, zc, w, v)) < 1e-6


def test_sectional_base_fd_reference_values():
    assert abs(sectional_base_fd(veronese(1), [0.3, -0.2], [1, 0], [0, 1]) - 4.0) < 1e-5
    assert abs(sectional_base_fd(totally_real(2), [0.2, -0.3], [1, 0], [0, 1]) - 1.0) < 1e-5
    assert abs(sectional_base_fd(clifford_torus(), [0.5, 1.0], [1, 0], [0, 1])) < 1e-6
    assert abs(sectional_base_fd(quaternionic_line(2), [0.2, -0.1, 0.3, 0.05],
                                 [1, 0, 0, 0], [0, 1, 0, 0]) - 4.0) < 1e-4


def _nodes(chart, count, seed):
    """Random coordinate rows inside the chart's box, 0.1 clear of its edges."""
    lo, hi = np.array(chart.box, dtype=float).T
    return lo + 0.1 + (hi - lo - 0.2) * np.random.default_rng(seed).random((count, chart.dim))


STENCIL_CHARTS = [
    build_chart("perturbed"),
    veronese(3),
    quaternionic_line(3),
    build_chart("perturbed", base="hline", amplitude=0.3),
    grassmann_sub(2, 4, 5),
]


@pytest.mark.parametrize("chart", STENCIL_CHARTS,
                         ids=["perturbed", "veronese", "hline", "perturbed-hline", "gsub"])
def test_christoffel_matches_the_nested_stencil(chart):
    """The order-2 jet against Richardson differences of the Gram matrix of
    the order-1 jet's differentials."""
    U = _nodes(chart, 12, 3)
    assert np.max(np.abs(christoffel(chart, U) - christoffel_nested(chart, U))) < 1e-10


@pytest.mark.parametrize("chart", STENCIL_CHARTS[:3], ids=["perturbed", "veronese", "hline"])
def test_christoffel_is_metric_compatible(chart):
    """∂_k g_ij = Γ^l_ki g_lj + Γ^l_kj g_il, with ∂g the Richardson
    difference of gram_at."""
    h = 1e-3
    U = _nodes(chart, 4, 5)
    G = gram_at(chart, central_stencil(U, h))
    dg = richardson_difference(G, h)
    gam = christoffel(chart, U)
    g = G[:, 0]
    want = np.einsum("blki,blj->bkij", gam, g) + np.einsum("blkj,bil->bkij", gam, g)
    assert np.max(np.abs(dg - want)) < 1e-10


def _near_identity(field, k, count, seed):
    """Stack of matrices I + 0.05·(random matrix) over the field."""
    rng = np.random.default_rng(seed)
    return np.array([eye(field, k) + 0.05 * random_matrix(rng, field, k, k)
                     for _ in range(count)])


@pytest.mark.parametrize("field,k", [(Field.REAL, 3), (Field.COMPLEX, 2), (Field.QUATERNION, 1)],
                         ids=["r", "c", "h"])
def test_series_log_matches_logm(field, k):
    """The series on matrices over the field against logm of their real
    fibre matrices."""
    M = _near_identity(field, k, 6, 8)
    want = np.array([np.real(sla.logm(m)) for m in left_mult_matrix(field, k, M)])
    assert np.max(np.abs(left_mult_matrix(field, k, _series_log(M, field)) - want)) < 1e-13


def test_series_log_raises_at_minus_identity():
    """M + I singular over R and over H (M = −1), Z of norm above 1, and
    Z = 0.9, whose series needs about 340 terms."""
    with pytest.raises(ValueError):
        _series_log(-np.eye(2), Field.REAL)
    with pytest.raises(ValueError):
        _series_log(-eye(Field.QUATERNION, 1), Field.QUATERNION)
    with pytest.raises(ValueError):
        _series_log(np.array([[19.0]]), Field.REAL)
    with pytest.raises(ValueError):
        _series_log(np.array([np.eye(2), -np.eye(2) + 1e-3 * np.array([[0.0, 1.0], [-1.0, 0.0]])]),
                    Field.REAL)


@pytest.mark.parametrize("chart,u", [
    (veronese(2), np.array([0.3, -0.2])),
    (build_chart("perturbed", amplitude=0.05, seed=7), np.array([0.25, -0.3])),
    (quaternionic_line(3), np.array([0.2, -0.1, 0.3, 0.05])),
], ids=["veronese", "perturbed", "hline"])
@pytest.mark.parametrize("order,centered", [("ij", False), ("ji", True)])
def test_stacked_holonomy_matches_one_loop_at_a_time(chart, u, order, centered):
    eps = np.array([0.02, 0.01, 0.005])
    pt0, T = holonomy_map(chart, u, 0, 1, eps, order=order, centered=centered)
    for e, V0, Te in zip(eps, pt0.V, T):
        ref0, ref = holonomy_map_loop(chart, u, 0, 1, e, order=order, centered=centered)
        assert np.max(np.abs(V0 - ref0.V)) < 1e-12
        assert np.max(np.abs(Te - ref)) < 1e-12


@pytest.mark.parametrize("chart,u", [
    (build_chart("perturbed", amplitude=0.05, seed=7), np.array([0.25, -0.3])),
    (build_chart("perturbed", field="h", base="hline"), np.array([0.25, -0.3, 0.1, 0.2])),
], ids=["perturbed", "perturbed-hline"])
def test_stacked_dr_oracle_matches_one_parameter_at_a_time(chart, u):
    pf = point_frame(chart, u)
    w, v = alpha_basis(chart.field, chart.k)[0].fiber_pair(pf.pt.V)
    x, y, z = pf.coeff[[0, 1, 0]]
    assert abs(dr_oracle(chart, u, x, y, z, w, v) - dr_oracle_loop(chart, u, x, y, z, w, v)) < 1e-12
