"""Chart plumbing and the example catalog: differentials, Gram matrices,
second fundamental form, certified maximizations."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pullconn import cli
from pullconn.algebra import (
    Field, ct_stack, eye, frob, inner_re, matmul_stack, orthonormalize, random_matrix,
)
from pullconn.catalog import (
    CATALOG,
    build_chart,
    clifford_torus,
    grassmann_sub,
    linear_embedding,
    perturbed,
    quaternionic_line,
    totally_real,
    veronese,
)
from pullconn.connection import fatness_margin
from pullconn.constants import FD_STEP
from pullconn.homogeneous import GrassTangent, horizontal_stack, point_from_stiefel, random_horizontal
from pullconn.immersion import (
    NET_BUDGET,
    REFINE_ROUNDS,
    ChartDomainError,
    ImmersionChart,
    NotImmersionError,
    _orthonormalize_real_span,
    _pencil_extreme,
    _projector_stencil,
    _sphere_net,
    differential,
    differential_stack,
    point_frame,
    second_fundamental_form,
    shape_norm,
)
from pullconn.oracle import exp_chart
from reference import (
    central_stencil,
    horizontal_from_projector,
    orthonormalize_real_span,
    richardson_difference,
)


def closed_form_charts():
    return [
        (veronese(2), np.array([0.3, -0.2])),
        (veronese(3), np.array([0.1, 0.4])),
        (totally_real(2), np.array([0.2, -0.3])),
        (clifford_torus(), np.array([0.5, 1.0])),
        (linear_embedding(Field.COMPLEX, 3, 4), np.array([0.1, 0.2, -0.3, 0.4])),
        (linear_embedding(Field.REAL, 3, 5), np.array([0.1, -0.4])),
        (linear_embedding(Field.QUATERNION, 2, 3), np.array([0.2, -0.1, 0.3, 0.05])),
        (quaternionic_line(3), np.array([0.2, -0.1, 0.3, 0.05])),
    ]


@pytest.mark.parametrize("chart,u", closed_form_charts(),
                         ids=lambda c: c.name + "-" + c.field.value if isinstance(c, ImmersionChart) else None)
def test_analytic_differential_matches_finite_differences(chart, u):
    _, _, H = chart.analytic_diff(u[None])
    analytic = [GrassTangent(chart(u), Hi) for Hi in H[0]]
    fd_chart = dataclasses.replace(chart, analytic_diff=None)
    numeric = differential(fd_chart, u)
    assert len(analytic) == chart.dim
    for a, f in zip(analytic, numeric):
        assert frob(a.H - f.H) < 1e-8


@pytest.mark.parametrize("chart,u", closed_form_charts(),
                         ids=lambda c: c.name + "-" + c.field.value if isinstance(c, ImmersionChart) else None)
def test_differentials_are_horizontal_and_points_are_projectors(chart, u):
    pt, f = chart(u), chart.field
    P = pt.P
    assert frob(matmul_stack(P, P, f) - P) < 1e-12
    assert frob(P - ct_stack(P, f)) < 1e-12
    for t in differential(chart, u):
        assert frob(matmul_stack(ct_stack(pt.V, f), t.H, f)) < 1e-9


def test_clifford_gram_is_constant_fixture():
    chart = clifford_torus()
    expected = np.array([[2.0 / 9.0, -1.0 / 9.0], [-1.0 / 9.0, 2.0 / 9.0]])
    for u in ([0.7, -0.4], [0.0, 0.0], [1.3, 2.1]):
        pf = point_frame(chart, u)
        assert np.max(np.abs(pf.gram - expected)) < 1e-10


def test_veronese_gram_scales_linearly_in_degree():
    u = np.array([0.3, -0.2])
    g1 = point_frame(veronese(1), u).gram
    for d in (2, 3):
        gd = point_frame(veronese(d), u).gram
        assert np.max(np.abs(gd - d * g1)) < 1e-9


@pytest.mark.parametrize("chart,u", [
    (totally_real(2), np.array([0.2, -0.3])),
    (linear_embedding(Field.COMPLEX, 3, 4), np.array([0.1, 0.2, -0.3, 0.4])),
    (quaternionic_line(3), np.array([0.2, -0.1, 0.3, 0.05])),
    (grassmann_sub(2, 4, 5), np.array([0.3, -0.2, 0.1, 0.4])),
], ids=["totally-real", "linear-c", "hline", "grassmann-sub"])
def test_totally_geodesic_charts_have_vanishing_ii(chart, u):
    ff = second_fundamental_form(chart, u)
    n = ff.pf.n
    assert max(ff.II[a][b].norm() for a in range(n) for b in range(n)) < 1e-9


def test_second_ff_symmetry_and_normality():
    for chart, u in [(veronese(2), np.array([0.3, -0.2])),
                     (clifford_torus(), np.array([0.5, 1.0]))]:
        ff = second_fundamental_form(chart, u)
        assert ff.symmetry_residual < 1e-8
        assert ff.normality_residual < 1e-8
        n = ff.pf.n
        for a in range(n):
            for b in range(n):
                assert ff.pf.project_tangential(ff.II[a][b]).norm() < 1e-8


def test_point_frame_is_orthonormal_and_spans_differentials():
    pf = point_frame(veronese(2), [0.3, -0.2])
    for a in range(pf.n):
        for b in range(pf.n):
            want = 1.0 if a == b else 0.0
            assert abs(pf.E[a].inner(pf.E[b]) - want) < 1e-12
    # E_a = sum_i coeff[a, i] D_i reproduces the frame
    for a in range(pf.n):
        H = sum(pf.coeff[a, i] * pf.D[i].H for i in range(pf.n))
        assert frob(H - pf.E[a].H) < 1e-10
    # round trip through frame coordinates
    t = pf.from_coords([0.6, -0.8])
    assert np.allclose(pf.tangent_coords(t), [0.6, -0.8], atol=1e-12)
    assert pf.project_normal(t).norm() < 1e-12


def test_point_frame_gauge_keeps_gram_and_projector():
    pf0 = point_frame(veronese(2), [0.3, -0.2])
    g = np.array([[np.exp(0.7j)]])
    pf1 = point_frame(veronese(2), [0.3, -0.2], gauge=g)
    assert np.max(np.abs(pf0.gram - pf1.gram)) < 1e-12
    assert frob(pf0.pt.P - pf1.pt.P) < 1e-12
    assert frob(pf1.pt.V - pf0.pt.V @ g) < 1e-12


def test_degenerate_chart_raises_not_immersion():
    base = veronese(2)

    def ev(U):
        return base.eval_point(np.stack([U[:, 0], np.zeros(len(U))], axis=1))

    flat = ImmersionChart(name="degenerate", field=Field.COMPLEX, N=3, k=1,
                          dim=2, box=((-1.0, 1.0), (-1.0, 1.0)), eval_point=ev)
    with pytest.raises(NotImmersionError) as err:
        point_frame(flat, [0.2, 0.1])
    assert err.value.eigenvalue <= 1e-8
    assert np.allclose(err.value.u, [0.2, 0.1])


def test_domain_guard_rejects_boundary_and_bad_input():
    chart = veronese(2)
    with pytest.raises(ChartDomainError):
        differential(chart, [1.1995, 0.0])
    with pytest.raises(ChartDomainError):
        differential(chart, [np.nan, 0.0])
    with pytest.raises(ChartDomainError):
        differential(chart, [0.0, 0.0, 0.0])
    # interior evaluation still fine
    differential(chart, [1.19, 0.0], h=1e-3)


def test_arc_length_matches_gram_quadrature():
    # length of a coordinate segment: integral of sqrt(dir^T G dir)
    # vs. chord sums of the projector metric
    chart = veronese(2)
    u0 = np.array([0.1, -0.3])
    direction = np.array([0.8, 0.6])
    T = 0.25

    ts = np.linspace(0.0, T, 81)
    speeds = []
    for t in ts:
        G = point_frame(chart, u0 + t * direction).gram
        speeds.append(np.sqrt(direction @ G @ direction))
    quadrature = np.trapezoid(speeds, ts)

    m = 4000
    chord = 0.0
    prev = chart(u0).P
    for t in np.linspace(T / m, T, m):
        cur = chart(u0 + t * direction).P
        chord += np.sqrt(max(inner_re(cur - prev, cur - prev) * 0.5, 0.0))
        prev = cur
    assert abs(quadrature - chord) < 1e-4


def test_veronese_shape_norm_is_constant_and_one():
    chart = veronese(2)
    values = []
    for u in ([0.0, 0.0], [0.3, -0.2], [-0.5, 0.8]):
        ff = second_fundamental_form(chart, u)
        values.append(shape_norm(ff).value)
    assert max(abs(v - values[0]) for v in values) < 1e-6
    assert abs(values[0] - 1.0) < 1e-6  # frozen from the finite-difference runs


def test_shape_norm_certificate_invariants():
    ff = second_fundamental_form(veronese(2), [0.3, -0.2])
    res = shape_norm(ff)
    assert res.grid_best <= res.value + 1e-12
    assert res.value <= res.upper_bound
    # the value dominates any specific probe |S_eta E_a|
    pf = ff.pf
    nu = ff.II[0][0]
    nn = nu.norm()
    if nn > 1e-12:
        eta = dataclasses.replace(nu, H=nu.H / nn)
        probe = np.sqrt(sum(inner_re(ff.II[0][b].H, eta.H) ** 2 for b in range(pf.n)))
        assert probe <= res.value + 1e-9


@pytest.mark.parametrize("chart,u", [
    (veronese(3), [0.1, 0.4]),
    (build_chart("perturbed", base="hline", amplitude=0.3), [0.2, -0.1, 0.3, 0.05]),
])
def test_shape_norm_net_matches_one_svd_per_point(chart, u):
    """The batched net evaluation against the per-point loop it replaced."""
    ff = second_fundamental_form(chart, u)
    n = ff.pf.n
    nu = [q.H for q in orthonormalize_real_span(
        [ff.II[a][b] for a in range(n) for b in range(a, n)], tol=1e-10)]
    A = np.array([[[inner_re(ff.II[a][b].H, c) for b in range(n)] for a in range(n)]
                  for c in nu])
    net, _ = _sphere_net(n, 9)
    loop = max(np.linalg.svd(np.einsum("cab,b->ca", A, x), compute_uv=False)[0]
               for x in net)
    assert loop > 0.1
    assert shape_norm(ff).grid_best == pytest.approx(loop, rel=1e-12)


@pytest.mark.parametrize("chart,u", [
    (veronese(3), [0.1, 0.4]),
    (linear_embedding(Field.REAL, 3, 5), [0.1, -0.4]),
    (build_chart("perturbed", base="hline", amplitude=0.3), [0.2, -0.1, 0.3, 0.05]),
], ids=["veronese-3", "linear-r", "perturbed-hline"])
def test_real_span_basis_holds_every_entry(chart, u):
    """The one-SVD basis of the span of II is orthonormal for the real
    pairing and holds every entry, a repeated and a zero one included,
    within its 1e-10 threshold."""
    ff = second_fundamental_form(chart, u)
    n = ff.pf.n
    entries = ff.II.H[np.triu_indices(n)]
    entries = np.concatenate([entries, entries[:1], 0 * entries[:1]])
    nu = _orthonormalize_real_span(entries, ff.pf.pt.field, tol=1e-10)
    assert nu.shape[1:] == entries.shape[1:] and len(nu) <= n * (n + 1) // 2
    basis = GrassTangent(ff.pf.pt, nu)
    assert np.abs(basis.pair(basis) - np.eye(len(nu))).max(initial=0.0) < 1e-12
    for e in entries:
        assert frob(e - np.tensordot(basis.pair(GrassTangent(ff.pf.pt, e)), nu, axes=1)) < 1e-10


@pytest.mark.parametrize("dim,resolution", [(2, 9), (3, 9), (4, 9), (3, 17)])
def test_sphere_net_keeps_the_lattices_within_budget(dim, resolution):
    """The net is the cube-surface lattice, one point of each antipodal pair."""
    net, delta = _sphere_net(dim, resolution)
    grid = np.linspace(-1.0, 1.0, resolution)
    lattice = [v for v in itertools.product(grid, repeat=dim)
               if max(abs(c) for c in v) == 1.0
               and next(c for c in v if abs(c) > 1e-12) > 0]
    count = {(2, 9): 16, (3, 9): 193, (4, 9): 2080, (3, 17): 769}[dim, resolution]
    assert count == (resolution**dim - (resolution - 2)**dim) // 2
    assert net.shape == (len(lattice), dim) == (count, dim)
    assert np.allclose(net, [np.array(v) / np.linalg.norm(v) for v in lattice], atol=1e-15)
    assert delta == np.sqrt(dim - 1) / (resolution - 1)
    # built once and shared read-only
    assert _sphere_net(dim, resolution)[0] is net
    assert not net.flags.writeable


@pytest.mark.parametrize("dim,resolution,delta", [
    (8, 9, np.sqrt(7.0) / 2.0),   # lowered to resolution 3: (3**8 - 1) / 2 points
    (16, 9, np.sqrt(2.0)),        # even (2**16) / 2 points exceed the budget: the axes
])
def test_sphere_net_budget_widens_delta(dim, resolution, delta):
    net, got = _sphere_net(dim, resolution)
    assert net.shape[0] <= NET_BUDGET
    assert got == pytest.approx(delta)


@pytest.mark.parametrize("dim,resolution", [(3, 17), (4, 9), (5, 9), (8, 9), (16, 9)])
def test_sphere_net_covers_within_delta(dim, resolution):
    """Coverage up to sign: both searched functions are even, so the net
    covers the projective space, the distance to ±(nearest net point)."""
    net, delta = _sphere_net(dim, resolution)
    assert np.allclose(np.linalg.norm(net, axis=1), 1.0)
    x = np.random.default_rng(dim).standard_normal((500, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    nearest = np.sqrt(np.maximum(2.0 - 2.0 * np.max(np.abs(x @ net.T), axis=1), 0.0))
    assert nearest.max() <= delta


def test_s2_net_delta_is_nearly_attained():
    """δ = √2/16 on the fatness net is not loose: a dense sample of S²
    comes within 4% of it."""
    net, delta = _sphere_net(3, 17)
    assert delta == pytest.approx(0.0884, abs=1e-4)
    x = np.random.default_rng(0).standard_normal((20_000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    nearest = np.sqrt(np.maximum(2.0 - 2.0 * np.max(np.abs(x @ net.T), axis=1), 0.0))
    assert 0.96 * delta < nearest.max() <= delta


SHAPE_ORACLE_POINTS = [
    (veronese(3), [0.1, 0.4]),
    (clifford_torus(), [0.5, 1.0]),
    (build_chart("perturbed", base="hline", amplitude=0.05), [0.2, -0.1, 0.3, 0.05]),
]


@pytest.mark.parametrize("chart,u", SHAPE_ORACLE_POINTS,
                         ids=["veronese-3", "clifford", "perturbed-hline"])
def test_shape_norm_against_dense_sample(chart, u):
    """max over 20,000 random unit x of σ_max(A·x), A[c, a, b] = <II_ab, ν_c>
    in an independent normal basis, stays below the value and the bound."""
    ff = second_fundamental_form(chart, u)
    res = shape_norm(ff)
    n = ff.pf.n
    nu = [q.H for q in orthonormalize_real_span(
        [ff.II[a][b] for a in range(n) for b in range(a, n)], tol=1e-10)]
    A = np.array([[[inner_re(ff.II[a][b].H, c) for b in range(n)] for a in range(n)]
                  for c in nu])
    x = np.random.default_rng(5).standard_normal((20_000, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    sample = np.linalg.svd(np.einsum("cab,sb->sca", A, x), compute_uv=False)[:, 0].max()
    assert sample > 0.5
    assert sample <= res.value + 1e-12
    assert sample <= res.upper_bound
    assert res.converged


@pytest.mark.parametrize("chart,u", [
    (veronese(2), [0.3, -0.2]), (veronese(3), [0.1, 0.4]), (veronese(4), [0.2, 0.1]),
    (clifford_torus(), [0.5, 1.0]), (veronese(2), [0.0, 0.0]),
], ids=["veronese-2", "veronese-3", "veronese-4", "clifford", "veronese-2-origin"])
def test_shape_refinement_stops_on_circles_of_maxima(chart, u):
    """On veronese and clifford the maximum is attained on a whole circle,
    where the refinement's iterates need not settle; it stops on the value."""
    res = shape_norm(second_fundamental_form(chart, u))
    assert res.converged
    assert 1 <= res.rounds <= 10


def test_shape_refinement_converges_on_sampled_points():
    """Sampled veronese and clifford points converge, and their certificate
    closes: the pencils have σ_max constant on the sphere, so Λ = 0."""
    for example, params in [("veronese", {"d": 2}), ("veronese", {"d": 3}),
                            ("veronese", {"d": 4}), ("clifford", {})]:
        chart = cli.make_chart(example, None, params)
        for u in cli.sample_points(chart, None, 8, 7, None):
            res = shape_norm(second_fundamental_form(chart, u))
            assert res.converged and res.rounds < REFINE_ROUNDS
            assert res.gap <= 1e-9


@pytest.mark.parametrize("largest", [True, False], ids=["max", "min"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_pencil_extreme_brackets_a_dense_sample(p, largest):
    """On a random pencil T(a) = Σ_t a_t T_t the value is σ(T(a)) at the
    reported (a, x), no point of a 20,000-point sample of the sphere beats
    it, and none passes the certified bound value ± gap; p = 1 is exact."""
    rng = np.random.default_rng(10 * p + largest)
    T = rng.standard_normal((p, 4, 3))
    res = _pencil_extreme(T, largest, 9)
    a, x = res.argmax
    Ta = np.tensordot(a, T, axes=1)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(Ta @ x) == pytest.approx(res.value, rel=1e-12)
    probes = rng.standard_normal((20_000, p))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    s = np.linalg.svd(np.einsum("st,tij->sij", probes, T), compute_uv=False)
    if largest:
        assert s[:, 0].max() <= res.value + 1e-12
        assert s[:, 0].max() <= res.value + res.gap
    else:
        assert res.value <= s[:, -1].min() + 1e-12
        assert res.value - res.gap <= s[:, -1].min()
    if p == 1:
        assert res.gap == 0.0 and res.rounds == 0
    else:
        assert res.gap > 0.0 and res.rounds >= 1


def test_point_without_probes_has_empty_j_stacks():
    """Rank one over R has no vertical probes: the J-frame, L and DR are
    empty stacks, not an error."""
    chart = cli.make_chart("linear", Field.REAL, {})
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    pf = point_frame(chart, u)
    n = pf.n
    assert pf.probes == []
    assert pf.jay.H.shape == (0,) + pf.E.H.shape
    assert pf.L.shape == (0, n, n)
    assert second_fundamental_form(chart, u, pf=pf).DR.shape == (0, n, n, n)
    assert fatness_margin(pf).degenerate


def test_wirtinger_statistics_on_catalog():
    assert fatness_margin(point_frame(veronese(2), [0.3, -0.2])).theta.value < 1e-6
    assert fatness_margin(point_frame(veronese(3), [0.1, 0.4])).theta.value < 1e-6
    half_pi = np.pi / 2.0
    assert abs(fatness_margin(point_frame(clifford_torus(), [0.5, 1.0])).theta.value - half_pi) < 1e-6
    assert abs(fatness_margin(point_frame(totally_real(2), [0.2, -0.3])).theta.value - half_pi) < 1e-6
    assert fatness_margin(point_frame(quaternionic_line(3), [0.2, -0.1, 0.3, 0.05])).theta.value < 1e-6


def test_totally_real_mixed_plane_angle():
    # a plane spanned by one real direction and i times another sits at
    # intermediate angle for the pair, but the max over the chart span is pi/2
    pf = point_frame(totally_real(3), [0.1, -0.2, 0.3])
    res = fatness_margin(pf).theta
    assert abs(res.value - np.pi / 2.0) < 1e-6


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_perturbed_chart_deterministic_and_smooth(seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.8, 0.8, size=2)
    a = perturbed(veronese(2), amplitude=0.05, seed=seed % 1000)
    b = perturbed(veronese(2), amplitude=0.05, seed=seed % 1000)
    assert frob(a(u).P - b(u).P) == 0.0
    pf = point_frame(a, u)
    assert np.linalg.eigvalsh(pf.gram)[0] > 1e-3


def test_perturbed_amplitude_zero_equals_base():
    base = veronese(2)
    pz = perturbed(base, amplitude=0.0, seed=11)
    pa = perturbed(base, amplitude=0.08, seed=11)
    u = np.array([0.3, -0.2])
    assert frob(pz(u).P - base(u).P) == 0.0
    assert frob(pa(u).P - base(u).P) > 1e-3


def test_registry_builds_all_entries():
    for name, entry in CATALOG.items():
        chart = build_chart(name)
        assert chart.name == name
        assert chart.dim >= 1
        u = np.zeros(chart.dim) + 0.11
        pt = chart(u)
        assert frob(matmul_stack(pt.P, pt.P, chart.field) - pt.P) < 1e-10
    with pytest.raises(KeyError):
        build_chart("no-such-example")


def test_hline_is_the_quaternionic_linear_chart():
    hline = build_chart("hline")
    lin = build_chart("linear", field="h", m=2, N=3)
    assert (hline.name, hline.params, hline.box) == ("hline", {"N": 3}, lin.box)
    U = np.random.default_rng(1).uniform(-1.0, 1.0, (6, 4))
    for a, b in zip(hline.eval_point(U) + hline.analytic_diff(U),
                    lin.eval_point(U) + lin.analytic_diff(U)):
        assert np.array_equal(a, b)


def test_registry_linear_respects_field_choice():
    for f in (Field.REAL, Field.COMPLEX, Field.QUATERNION):
        chart = build_chart("linear", field=f)
        assert chart.field is f
        assert chart.dim == f.real_dim * 2


def test_grassmann_sub_is_totally_geodesic_with_rank_two():
    chart = grassmann_sub(2, 4, 5)
    assert chart.k == 2 and chart.dim == 4
    pf = point_frame(chart, [0.3, -0.2, 0.1, 0.4])
    assert pf.pt.k == 2
    w = np.linalg.eigvalsh(pf.gram)
    assert w[0] > 0.1


def _exp_pair_chart(field=Field.REAL, N=4, k=2):
    rng = np.random.default_rng(9)
    pt = point_from_stiefel(orthonormalize(random_matrix(rng, field, N, k), field), field)
    X = random_horizontal(rng, pt)
    X = GrassTangent(pt, X.H / X.norm())
    Y = random_horizontal(rng, pt)
    Y = GrassTangent(pt, Y.H - X.H * inner_re(Y.H, X.H))
    return exp_chart(pt, X, GrassTangent(pt, Y.H / Y.norm()), half_width=0.5)


def batch_charts():
    """Every `list` example over each of its fields (perturbed over R and H
    on the linear and hline bases), and an exponential chart.  The linear
    charts over R and C have N = 4, so their projector stacks (B, 4, 4) have
    the shape of one quaternion matrix; the checks pass the chart's field to
    the algebra, which never reads it from a shape."""
    cases = [(name, field, {}) for name, entry in CATALOG.items() if name != "perturbed"
             for field in entry.fields]
    cases += [("perturbed", Field.REAL, {"base": "linear"}),
              ("perturbed", Field.COMPLEX, {}),
              ("perturbed", Field.QUATERNION, {"base": "hline", "amplitude": 0.3})]
    charts = [pytest.param(cli.make_chart(name, field, params),
                           id=f"{name}-{field.value}") for name, field, params in cases]
    return charts + [pytest.param(_exp_pair_chart(), id="exp-pair-r")]


@pytest.mark.parametrize("chart", batch_charts())
def test_batched_evaluation_matches_single_points(chart):
    rng = np.random.default_rng(5)
    lo, hi = np.array(chart.box).T
    U = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(7, chart.dim))
    V, P = chart.eval_point(U)
    quat = (4,) if chart.field is Field.QUATERNION else ()
    dtype = complex if chart.field is Field.COMPLEX else float
    assert V.shape == (7, chart.N, chart.k) + quat and V.dtype == dtype
    assert P.shape == (7, chart.N, chart.N) + quat and P.dtype == dtype
    for b, u in enumerate(U):
        pt = chart(u)
        assert np.max(np.abs(P[b] - pt.P)) < 1e-14
        assert np.max(np.abs(V[b] - pt.V)) < 1e-14
        # one row through the algebra of the chart's field: P = V V*, V* V = I
        f = chart.field
        assert pt.field is f
        assert frob(matmul_stack(pt.V, ct_stack(pt.V, f), f) - P[b]) < 1e-14
        assert frob(matmul_stack(ct_stack(pt.V, f), pt.V, f) - eye(f, chart.k)) < 1e-12


def analytic_stacks():
    """Every closed-form chart, five rows around its test point, and
    exponential charts over R, C and H, five rows in their box."""
    rng = np.random.default_rng(17)
    cases = [pytest.param(chart, u + rng.uniform(-0.1, 0.1, size=(5, chart.dim)),
                          id=f"{chart.name}-{chart.field.value}-{chart.dim}")
             for chart, u in closed_form_charts()]
    for field, N, k in [(Field.REAL, 4, 2), (Field.COMPLEX, 3, 1), (Field.QUATERNION, 3, 1)]:
        cases.append(pytest.param(_exp_pair_chart(field, N, k), rng.uniform(-0.4, 0.4, size=(5, 2)),
                                  id=f"exp-pair-{field.value}"))
    return cases


@pytest.mark.parametrize("chart,U", analytic_stacks())
def test_batched_analytic_differentials_match_rows(chart, U):
    V, P, H = chart.analytic_diff(U)
    quat = (4,) if chart.field is Field.QUATERNION else ()
    assert H.shape == (5, chart.dim, chart.N, chart.k) + quat
    V0, P0 = chart.eval_point(U)
    assert np.array_equal(V, V0) and np.array_equal(P, P0)
    for b in range(5):
        Vb, Pb, Hb = chart.analytic_diff(U[b:b + 1])
        assert np.max(np.abs(Hb[0] - H[b])) < 1e-14
        assert np.max(np.abs(Vb[0] - V[b])) < 1e-14
        assert np.max(np.abs(Pb[0] - P[b])) < 1e-14
    _, _, Hfd = differential_stack(chart, U, use_analytic=False)
    assert np.max(np.abs(Hfd - H)) < 1e-8


@pytest.mark.parametrize("chart", [veronese(2), grassmann_sub(2, 4, 5)],
                         ids=["analytic", "finite-difference"])
@pytest.mark.parametrize("bad", [5.0, np.nan], ids=["outside", "nan"])
def test_stacked_domain_check_reports_the_failing_row(chart, bad):
    lo, hi = np.array(chart.box).T
    U = np.tile(0.5 * (lo + hi), (5, 1)) + 0.1
    differential_stack(chart, U)
    U[2, 1] = bad
    U[4, 0] = np.nan   # a later failing row is not the one reported
    with pytest.raises(ChartDomainError) as single:
        chart.check_rows(U[2:3], 2 * FD_STEP)
    with pytest.raises(ChartDomainError) as stacked:
        differential_stack(chart, U)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ChartDomainError, match=f"expected {chart.dim} coordinates"):
        differential_stack(chart, np.zeros((5, chart.dim + 1)))


def test_check_rows_messages():
    """The shape, non-finite and near-the-edge refusals, word for word."""
    chart = veronese(2)   # box (-1.2, 1.2)²
    cases = [(np.zeros((1, 3)), "expected 2 coordinates, got shape (3,)"),
             (np.array([[0.0, 0.0], [0.0, np.inf]]), "non-finite chart coordinates"),
             (np.array([[0.0, 0.0], [1.19, 0.0]]),
              "coordinate 1.1900 within 2.00e-02 of the box [-1.2, 1.2]")]
    for U, text in cases:
        with pytest.raises(ChartDomainError) as err:
            chart.check_rows(U, 0.02)
        assert str(err.value) == text


@pytest.mark.parametrize("name,field,params", [
    ("perturbed", Field.COMPLEX, {}),
    ("perturbed", Field.REAL, {"base": "linear"}),
    ("perturbed", Field.QUATERNION, {"base": "hline"}),
    ("perturbed", Field.QUATERNION, {"base": "linear"}),
    ("grassmann-sub", Field.REAL, {}),
], ids=["perturbed-c", "perturbed-r-linear", "perturbed-h-hline", "perturbed-h-linear",
        "grassmann-sub"])
def test_stencil_first_differences_equal_the_richardson_twin(name, field, params):
    """_projector_stencil without mixed rows evaluates 1 + 4n rows per point
    and its Richardson ∂P is the twin's bit for bit."""
    chart = cli.make_chart(name, field, params)
    U = np.array(cli.sample_points(chart, None, 3, 0, None))
    B, n = U.shape
    V, P, d, dd = _projector_stencil(chart, U, FD_STEP, mixed=False)
    Vt, Pt = chart.eval_point(central_stencil(U, FD_STEP).reshape(-1, n))
    Pt = Pt.reshape((B, 1 + 4 * n) + P.shape[1:])
    assert dd is None
    assert np.array_equal(V, Vt.reshape((B, 1 + 4 * n) + V.shape[1:])[:, 0])
    assert np.array_equal(P, Pt[:, 0])
    assert np.array_equal((4.0 * d[1] - d[0]) / 3.0, richardson_difference(Pt, FD_STEP))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_tangent_map_equals_the_projector_form(field):
    """(PM(I−P) + (I−P)MP)V = (I−P)MV, as PV = V: horizontal_stack(V, MV)
    against the projector-model form for random ambient directions M."""
    rng = np.random.default_rng(17)
    pt = point_from_stiefel(random_matrix(rng, field, 5, 2), field)
    for _ in range(5):
        M = random_matrix(rng, field, 5, 5)
        got = horizontal_stack(pt.V, matmul_stack(M, pt.V, field), field)
        want = horizontal_from_projector(pt.P, pt.V, M, field)
        assert np.max(np.abs(got - want)) <= 1e-15 * frob(M)
