"""Frame-layer closed forms against the brute-force layer, plus fixtures."""
import tracemalloc

import numpy as np
import pytest

from pullconn import cli, connection, immersion
from pullconn.algebra import Field, inner_re, orthonormalize, random_matrix
from pullconn.catalog import (
    clifford_torus,
    grassmann_sub,
    linear_embedding,
    perturbed,
    quaternionic_line,
    totally_real,
    veronese,
)
from pullconn.connection import (
    AlphaElement,
    DegenerateStructureError,
    alpha_basis,
    analyze_point,
    base_sectional,
    bracket_sq,
    corollary_bound,
    fatness_margin,
    inequality_min_margin,
    parallel_residual,
    point_bytes,
    radial_residual,
)
from pullconn.homogeneous import (
    GrassTangent, point_from_stiefel, random_horizontal,
)
from pullconn.immersion import point_frame, shape_norm
from pullconn.oracle import curvature_pairing_fd, dr_oracle
from reference import (
    curvature_pairing, dr_component_bracket, frame_lift, lie_lift, sectional_base_fd,
    sectional_curvature_g0,
)


def frames():
    return [
        (veronese(2), np.array([0.3, -0.2])),
        (quaternionic_line(3), np.array([0.2, -0.1, 0.3, 0.05])),
        (grassmann_sub(2, 4, 5), np.array([0.3, -0.2, 0.1, 0.4])),
    ]


def test_pairing_equals_half_jay_inner():
    for chart, u in frames():
        pf = point_frame(chart, u)
        fr = frame_lift(pf.pt)
        lifts = [lie_lift(fr, e) for e in pf.E]
        for al in alpha_basis(chart.field, chart.k):
            for a in range(pf.n):
                for c in range(pf.n):
                    lhs = curvature_pairing(lifts[a], lifts[c], al)
                    rhs = 0.5 * inner_re(al.jay(pf.E[a]).H, pf.E[c].H)
                    assert abs(lhs - rhs) < 1e-12


def test_pairing_signed_against_finite_differences():
    for chart, u in frames():
        pf = point_frame(chart, u)
        fr = frame_lift(pf.pt)
        lifts = [lie_lift(fr, e) for e in pf.E]
        for al in alpha_basis(chart.field, chart.k):
            w, v = al.fiber_pair(pf.pt.V)
            for a in range(min(pf.n, 2)):
                for c in range(pf.n):
                    frame_val = curvature_pairing(lifts[a], lifts[c], al)
                    oracle_val = curvature_pairing_fd(
                        chart, u, pf.coeff[a], pf.coeff[c], w, v)
                    assert abs(frame_val - oracle_val) < 1e-8


def test_pairing_antisymmetry_and_frame_guard():
    chart, u = veronese(2), np.array([0.3, -0.2])
    pf = point_frame(chart, u)
    lifts = [lie_lift(frame_lift(pf.pt), e) for e in pf.E]
    al = AlphaElement.imaginary_unit(Field.COMPLEX, 1j)
    assert abs(curvature_pairing(lifts[0], lifts[1], al)
               + curvature_pairing(lifts[1], lifts[0], al)) < 1e-12
    other = point_frame(chart, [0.1, 0.1])
    with pytest.raises(ValueError):
        curvature_pairing(lifts[0], lie_lift(frame_lift(other.pt), other.E[1]), al)


def test_rank_two_real_bracket_fixture():
    # plane span(e1, e2) in R^4, horizontal directions W B with W = [e3 e4]
    V = np.zeros((4, 2))
    V[0, 0] = V[1, 1] = 1.0
    pt = point_from_stiefel(V, Field.REAL)
    fr = frame_lift(pt)
    alpha = AlphaElement.decomposable(np.eye(2)[0], np.eye(2)[1])

    def lift_of(B):
        H = np.zeros((4, 2))
        H[2:, :] = B
        return lie_lift(fr, GrassTangent(pt, H))

    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    # disjoint row/column supports commute into the vertical algebra trivially
    assert abs(curvature_pairing(lift_of(e11), lift_of(e22), alpha)) < 1e-15
    # shared row support pairs at half strength
    assert abs(curvature_pairing(lift_of(e11), lift_of(e12), alpha) + 0.5) < 1e-15


def test_curvature_norm_value_and_orthonormal_guard():
    """The curvature norm the analysis reads, ½‖L[t, :, a]‖ for the
    tangential J-action L, is ½ on a holomorphic curve."""
    pf = point_frame(veronese(2), [0.3, -0.2])
    assert abs(0.5 * np.linalg.norm(pf.L[0, :, 0]) - 0.5) < 1e-9


def test_alpha_element_validation():
    with pytest.raises(ValueError):
        AlphaElement.imaginary_unit(Field.COMPLEX, 1.0 + 0j)   # not imaginary
    with pytest.raises(ValueError):
        AlphaElement.imaginary_unit(Field.COMPLEX, 2j)         # not unit
    with pytest.raises(ValueError):
        AlphaElement.decomposable([1.0, 0.0], [1.0, 0.0])      # not orthonormal
    with pytest.raises(DegenerateStructureError):
        AlphaElement.imaginary_unit(Field.REAL, 1.0)
    assert alpha_basis(Field.REAL, 1) == ()


def test_fatness_margin_fixtures():
    for d in (1, 2, 3):
        res = fatness_margin(point_frame(veronese(d), [0.3, -0.2]))
        assert abs(res.margin - 1.0) < 1e-9
        assert res.fat is True
    res = fatness_margin(point_frame(grassmann_sub(2, 4, 5), [0.3, -0.2, 0.1, 0.4]))
    assert abs(res.margin - 1.0) < 1e-9
    assert fatness_margin(point_frame(totally_real(2), [0.2, -0.3])).margin < 1e-12
    assert fatness_margin(point_frame(clifford_torus(), [0.5, 1.0])).margin < 1e-12
    hres = fatness_margin(point_frame(quaternionic_line(3), [0.2, -0.1, 0.3, 0.05]))
    assert abs(hres.margin - 1.0) < 1e-9
    dres = fatness_margin(point_frame(linear_embedding(Field.REAL, 3, 5), [0.1, -0.4]))
    assert dres.degenerate and dres.fat is None


def test_dr_paths_identical():
    """The shape form of the derivative component equals the bracket oracle
    in the frame lifts of both completion orders."""
    rng = np.random.default_rng(2)
    for chart, u in frames():
        pf = point_frame(chart, u)
        for t, al in enumerate(alpha_basis(chart.field, chart.k)):
            x = rng.standard_normal(pf.n)
            y = rng.standard_normal(pf.n)
            z = rng.standard_normal(pf.n)
            a = np.einsum("abc,a,b,c->", pf.DR[t], x, y, z)
            for order in ("standard", "reversed"):
                b = dr_component_bracket(pf, x, y, z, al, order=order)
                assert abs(a - b) < 1e-12
            assert abs(np.einsum("abc,a,b,c->", pf.DR[t], y, x, z) + a) < 1e-12


def test_residuals_vanish_on_catalog_parallels():
    cases = frames() + [
        (totally_real(2), np.array([0.2, -0.3])),
        (clifford_torus(), np.array([0.5, 1.0])),
    ]
    for chart, u in cases:
        pf = point_frame(chart, u)
        par = parallel_residual(pf)
        rad = radial_residual(pf)
        assert par.value < 1e-9, chart.name
        assert rad.value <= par.value + 1e-12
        assert par.holds is True and rad.holds is True


def test_residual_degenerate_real_line():
    chart = linear_embedding(Field.REAL, 3, 5)
    u = np.array([0.1, -0.4])
    pf = point_frame(chart, u)
    res = parallel_residual(pf)
    assert res.degenerate and res.value == 0.0 and res.holds is None


def test_perturbed_chart_breaks_parallelism_and_matches_oracle():
    chart = perturbed(veronese(2), amplitude=0.08, seed=5)
    u = np.array([0.25, -0.15])
    pf = point_frame(chart, u)
    par = parallel_residual(pf)
    assert par.value > 1e-4
    rad = radial_residual(pf)
    assert rad.value <= par.value + 1e-12

    al = AlphaElement.imaginary_unit(Field.COMPLEX, 1j)
    drc = pf.DR[0, 0, 1, 0]
    w, v = al.fiber_pair(pf.pt.V)
    dro = dr_oracle(chart, u, pf.coeff[0], pf.coeff[1], pf.coeff[0], w, v)
    assert abs(drc - 2.0 * dro) < 1e-6


def test_base_sectional_matches_fd_riemann():
    e = np.eye(2)
    pf = point_frame(veronese(2), [0.3, -0.2])
    gauss = base_sectional(pf, e[0], e[1])
    fd = sectional_base_fd(veronese(2), [0.3, -0.2], e[0], e[1])
    assert abs(gauss - 2.0) < 1e-6
    assert abs(gauss - fd) < 1e-4

    pfc = point_frame(clifford_torus(), [0.5, 1.0])
    assert abs(base_sectional(pfc, e[0], e[1])) < 1e-8

    u = np.array([0.3, -0.2, 0.1, 0.4])
    pfg = point_frame(grassmann_sub(2, 4, 5), u)
    # same plane in both conventions: frame vectors vs chart coordinates
    gauss = base_sectional(pfg, np.eye(4)[0], np.eye(4)[3])
    fd = sectional_base_fd(grassmann_sub(2, 4, 5), u, pfg.coeff[0], pfg.coeff[3])
    assert abs(gauss - fd) < 1e-4


@pytest.mark.parametrize("field,N,k", [(Field.REAL, 5, 2), (Field.COMPLEX, 4, 1),
                                       (Field.COMPLEX, 5, 2), (Field.QUATERNION, 4, 1),
                                       (Field.QUATERNION, 5, 2)])
def test_bracket_norm_from_kxk_blocks_matches_the_nxn_form(field, N, k):
    """bracket_sq against ½(|C₁|² + |C₂|²) with the N×N C₂ = YX* − XY*, on
    random horizontal pairs, one at a time and as a stack."""
    rng = np.random.default_rng(N + k)
    pt = point_from_stiefel(orthonormalize(random_matrix(rng, field, N, k), field), field)
    X = np.stack([random_horizontal(rng, pt).H for _ in range(6)])
    Y = np.stack([random_horizontal(rng, pt).H for _ in range(6)])
    got = bracket_sq(X, Y, field)
    for x, y, g in zip(X, Y, got):
        want = sectional_curvature_g0(GrassTangent(pt, x), GrassTangent(pt, y))
        assert abs(g - want) <= 1e-12 * max(1.0, want)
        assert bracket_sq(x[None], y[None], field)[0] == pytest.approx(g, rel=1e-14)


def test_inequality_margins():
    for d, expect in ((2, 2.0), (3, 4.0 / 3.0)):
        pf = point_frame(veronese(d), [0.3, -0.2])
        res = inequality_min_margin(pf)
        assert abs(res.min_margin - expect) < 1e-6
        assert res.strict is True
    pfc = point_frame(clifford_torus(), [0.5, 1.0])
    res = inequality_min_margin(pfc)
    assert abs(res.min_margin) < 1e-9
    assert res.strict is False
    # the quaternionic line is a round 4-sphere: every section curves at 4
    pfh = point_frame(quaternionic_line(3), [0.2, -0.1, 0.3, 0.05])
    res = inequality_min_margin(pfh)
    assert abs(res.min_margin - 4.0) < 1e-6


def test_corollary_bound_reference_values():
    lhs, rhs, ok = corollary_bound(0.0, 0.0)
    assert rhs == pytest.approx(1.0 / 8.0) and ok
    _, rhs, _ = corollary_bound(0.0, np.pi / 4.0)
    assert rhs == pytest.approx(1.0 / 24.0)
    _, rhs, _ = corollary_bound(0.0, np.pi / 2.0)
    assert rhs == 0.0
    lhs, rhs, ok = corollary_bound(0.25, 0.0)
    assert not ok


def test_corollary_soundness_on_linear_chart():
    # totally geodesic complex subspace: bound satisfied and indeed fat
    res = analyze_point(linear_embedding(Field.COMPLEX, 3, 4),
                        [0.1, 0.2, -0.3, 0.4], normalize=True)
    lhs, rhs, ok = res.corollary
    assert ok and lhs < 1e-8
    assert res.fatness.fat is True
    # holomorphic curve of degree 2: bound fails, no implication claimed
    res2 = analyze_point(veronese(2), [0.3, -0.2], normalize=True)
    lhs2, rhs2, ok2 = res2.corollary
    assert abs(lhs2 - 0.25) < 1e-4 and abs(rhs2 - 0.125) < 1e-12 and not ok2


def test_analysis_frame_and_gauge_independent():
    chart, u = veronese(2), np.array([0.3, -0.2])
    base = fatness_margin(point_frame(chart, u))
    gauged = fatness_margin(point_frame(chart, u, gauge=np.array([[np.exp(0.9j)]])))
    assert abs(base.margin - gauged.margin) < 1e-8

    pf1 = point_frame(chart, u)
    pf2 = point_frame(chart, u, gauge=np.array([[np.exp(-1.3j)]]))
    assert abs(parallel_residual(pf1).value
               - parallel_residual(pf2).value) < 1e-8
    assert abs(inequality_min_margin(pf1).min_margin
               - inequality_min_margin(pf2).min_margin) < 1e-8


def test_analyze_point_bundle():
    res = analyze_point(veronese(3), [0.1, 0.4], normalize=True)
    v = res.verdict
    assert v["fat"] and v["parallel"] and v["radial"] and v["inequality_strict"]
    assert v["corollary_satisfied"] is False
    assert res.radial.value <= res.parallel.value + 1e-12
    assert res.theta.value < 1e-6
    assert abs(res.normalization - 4.0) < 1e-6

    real_res = analyze_point(linear_embedding(Field.REAL, 3, 5), [0.1, -0.4],
                             normalize=True)
    assert real_res.theta is None and real_res.corollary is None
    assert real_res.verdict["fat"] is None


ADVERTISED = [(e["name"], f) for e in cli.cmd_list(None)[0]["examples"] for f in e["fields"]]


@pytest.mark.parametrize("name,field", ADVERTISED, ids=[f"{n}-{f}" for n, f in ADVERTISED])
def test_the_analysis_never_forms_the_projector(name, field):
    """One point of every example × field that `list` advertises, through
    every stage of analyze_point: the point is its Stiefel columns, and the
    N×N projector is never read."""
    chart = cli.make_chart(name, Field.parse(field), {})
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    pf = point_frame(chart, u)
    shape_norm(pf)
    fatness_margin(pf)
    parallel_residual(pf)
    radial_residual(pf)
    inequality_min_margin(pf)
    assert "P" not in vars(pf.pt)


def _traced_peak(chart, u, **kwargs) -> int:
    """Peak bytes of traced allocations during one analyze_point."""
    tracemalloc.start()
    try:
        analyze_point(chart, u, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,field,params", [
    ("perturbed", "h", {"base": "linear"}), ("grassmann-sub", "r", {"k": 4, "m": 8, "N": 8}),
    ("totally-real", "c", {"n": 20}), ("linear", "h", {"N": 1000}), ("totally-real", "c", {"n": 60}),
], ids=["perturbed-h-linear", "grassmann-sub-k4", "totally-real-n20", "linear-h-N1000",
        "totally-real-n60"])
def test_point_bytes_covers_the_traced_peak(name, field, params):
    """The memory bound is at least the traced peak of one analyze_point,
    the chunks of the sphere nets (fatness's over six probes on
    grassmann-sub k = 4) and of the probe pairs included.  The shape norm
    on perturbed evaluates only its first bound-ordered chunks of 16 and 32
    net points, so that point peaks below 1 MiB (its whole-net chunk did
    not)."""
    chart = cli.make_chart(name, Field.parse(field), params)
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    analyze_point(chart, u)   # builds the cached sphere nets
    peak = _traced_peak(chart, u)
    assert point_bytes(chart) >= peak
    assert (peak < 2**20) if name == "perturbed" else (peak > 2**20)


def test_a_large_point_is_analyzed_in_small_memory():
    """linear N = 5000 over C: without the 400 MB projector, one point of
    analyze_point peaks below 32 MiB of traced allocations."""
    chart = cli.make_chart("linear", None, {"N": 5000})
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    peak = _traced_peak(chart, u, normalize=True)
    assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("name,params,mib", [
    ("totally-real", {"n": 60}, 64), ("grassmann-sub", {"k": 4, "m": 12, "N": 12}, 32),
], ids=["totally-real-n60", "grassmann-sub-k4-m12"])
def test_many_directions_are_analyzed_in_small_memory(name, params, mib):
    """totally-real n = 60 (3,546 probe pairs) and grassmann-sub k = 4,
    m = N = 12 (a 7,448-point fatness net over six probes): the pairs and
    the net are taken in chunks of STACK_BYTES, so one warm analyze_point
    peaks below mib MiB of traced allocations."""
    chart = cli.make_chart(name, None, params)
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    analyze_point(chart, u, normalize=True)   # builds the cached sphere nets
    peak = _traced_peak(chart, u, normalize=True)
    assert peak < mib * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("name,field,params", [
    ("perturbed", "h", {"base": "linear"}), ("grassmann-sub", "r", {"k": 4, "m": 8, "N": 8}),
    ("totally-real", "c", {"n": 12}),
], ids=["perturbed-h-linear", "grassmann-sub-k4", "totally-real-n12"])
def test_chunked_stacks_change_no_value(monkeypatch, name, field, params):
    """The shape norm's net (perturbed), fatness's net over six probes
    (grassmann-sub) and the probe pairs (all three) cut into chunks of a
    few rows give the values and verdicts of the one-chunk evaluation."""
    chart = cli.make_chart(name, Field.parse(field), params)
    u = cli.sample_points(chart, None, 1, 0, None)[0]
    whole = analyze_point(chart, u)
    monkeypatch.setattr(immersion, "STACK_BYTES", 2**16)
    chunks = []
    monkeypatch.setattr(connection, "base_sectional", lambda *a: chunks.append(a) or base_sectional(*a))
    cut = analyze_point(chart, u)
    assert len(chunks) > 1
    for res in (whole, cut):
        assert res.fatness.converged and res.shape.converged
    pairs = [(r.shape.value, r.shape.gap, r.fatness.value, r.fatness.gap,
              r.inequality.min_margin, r.kb_probe) for r in (whole, cut)]
    assert pairs[1] == pytest.approx(pairs[0], rel=1e-12, abs=1e-14)
    assert cut.verdict == whole.verdict and cut.inequality.probes == whole.inequality.probes
