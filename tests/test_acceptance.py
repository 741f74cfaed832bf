"""Acceptance battery: ten end-to-end checks of the closed forms against
independent brute-force computations, at fixed tolerances.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with -s, or in
the captured output of a failing run) and then asserts.
"""
import numpy as np

from pullconn.algebra import Field, frob, matmul_stack, orthonormalize, quat, random_matrix, zeros
from pullconn.catalog import build_chart
from pullconn.cli import _norm_vs_oracle
from pullconn.connection import (
    alpha_basis,
    analyze_point,
    fatness_margin,
    base_sectional,
    inequality_min_margin,
    parallel_residual,
    radial_residual,
)
from pullconn.constants import STRICT_EPS
from pullconn.homogeneous import (
    GrassTangent,
    ad_alpha,
    curvature_normalization,
    point_from_stiefel,
    random_horizontal,
)
from pullconn.immersion import point_frame, shape_norm
from pullconn import oracle
from reference import (
    bracket, emb_alpha, frame_lift, lie_lift, proj_p_block, sectional_curvature_g0,
)


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _grid(lo: float, hi: float, n: int):
    xs = np.linspace(lo, hi, n)
    return [np.array([a, b]) for a in xs for b in xs]


# ----------------------------------------------------------------------------

def test_criterion_01_loop_generator_factor():
    """Holonomy loop generators fit -G/2 with constant 1/2 on G2(R4) and CP2."""
    checks = []
    for field, N, k in ((Field.REAL, 4, 2), (Field.COMPLEX, 3, 1)):
        res = oracle.lemma_omega_check(field, N, k, trials=20)
        checks.append((field.value, abs(res.c_fit - 0.5), res.max_deviation))
    ok = all(dc < 1e-3 and dev < 1e-4 for _, dc, dev in checks)
    detail = ", ".join(f"{f}: |c-1/2|={dc:.2e} scatter={dev:.2e}"
                       for f, dc, dev in checks)
    _line(1, ok, f"loop generator factor 1/2 — {detail}")
    assert ok, detail


def test_criterion_02_curvature_norm_vs_oracle():
    """Closed-form curvature norm against the finite-difference oracle,
    with the expected fourth-order step dependence."""
    h = 1e-3
    worst = 0.0
    for chart in (build_chart("veronese", d=2), build_chart("veronese", d=3),
                  build_chart("clifford"), build_chart("perturbed")):
        for u in (np.array([0.3, -0.25]), np.array([-0.55, 0.4])):
            worst = max(worst, _norm_vs_oracle(chart, u, h=h))
    ratios = []
    for chart in (build_chart("veronese", d=2), build_chart("perturbed")):
        u = np.array([0.3, 0.2])
        e1 = _norm_vs_oracle(chart, u, h=0.02)
        e2 = _norm_vs_oracle(chart, u, h=0.01)
        ratios.append(e1 / max(e2, 1e-15))
    ok = worst < 1e-4 and all(r >= 4.0 for r in ratios)
    detail = (f"max rel err {worst:.2e} at h={h}; "
              f"halving ratios {[round(r, 1) for r in ratios]}")
    _line(2, ok, f"curvature norm vs oracle — {detail}")
    assert ok, detail


def test_criterion_03_derivative_vs_transported_oracle():
    """Closed-form derivative component equals twice the transported
    finite-difference derivative on perturbed charts."""
    chart = build_chart("perturbed")
    alpha = alpha_basis(chart.field, chart.k)[0]
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for u in rng.uniform(-0.8, 0.8, size=(10, 2)):
        pf = point_frame(chart, u)
        w, v = alpha.fiber_pair(pf.pt.V)
        for _ in range(5):
            x, y, z = rng.normal(size=(3, 2))
            closed = np.einsum("abc,a,b,c->", pf.DR[0], x, y, z)
            xc, yc, zc = (pf.coeff.T @ t for t in (x, y, z))
            orc = oracle.dr_oracle(chart, u, xc, yc, zc, w, v)
            worst = max(worst, abs(closed - 2.0 * orc))
    ok = worst < 2e-3
    detail = f"max |closed - 2*oracle| = {worst:.2e} over 10 points x 5 triples"
    _line(3, ok, f"derivative vs transported oracle — {detail}")
    assert ok, detail


def test_criterion_04_angles_and_fatness():
    """Wirtinger angles and fatness margins on the named examples."""
    worst_theta = 0.0
    worst_margin = 0.0
    for d in (1, 2, 3):
        chart = build_chart("veronese", d=d)
        for u in _grid(-0.9, 0.9, 3):
            pf = point_frame(chart, u)
            worst_theta = max(worst_theta, fatness_margin(pf).theta.value)
            worst_margin = max(worst_margin, abs(fatness_margin(pf).margin - 1.0))
    tr_margin = 0.0
    chart = build_chart("totally-real")
    for u in _grid(-0.5, 0.5, 2):
        tr_margin = max(tr_margin, fatness_margin(point_frame(chart, u)).margin)
    cl_theta = 0.0
    chart = build_chart("clifford")
    for u in _grid(-0.8, 0.8, 2):
        theta = fatness_margin(point_frame(chart, u)).theta.value
        cl_theta = max(cl_theta, abs(theta - np.pi / 2))
    ok = worst_theta < 1e-6 and worst_margin < 1e-6 and tr_margin < 1e-8 \
        and cl_theta < 1e-6
    detail = (f"veronese theta<={worst_theta:.1e}, |margin-1|<={worst_margin:.1e}; "
              f"totally-real margin<={tr_margin:.1e}; "
              f"clifford |theta-pi/2|<={cl_theta:.1e}")
    _line(4, ok, f"angles and fatness — {detail}")
    assert ok, detail


def test_criterion_05_parallelism():
    """Parallel curvature on the geodesic examples; radial never exceeds
    the full residual on perturbed charts."""
    rng = np.random.default_rng(11)

    def residuals(chart, n_pts, half):
        out = []
        for _ in range(n_pts):
            u = rng.uniform(-half, half, size=chart.dim)
            pf = point_frame(chart, u)
            out.append((parallel_residual(pf).value,
                        radial_residual(pf).value))
        return out

    loose = max(r for r, _ in residuals(build_chart("veronese", d=2), 2, 0.8)
                + residuals(build_chart("hline"), 2, 0.5))
    tight = max(r for r, _ in
                residuals(build_chart("linear", field=Field.COMPLEX), 2, 0.5)
                + residuals(build_chart("grassmann-sub"), 2, 0.5))
    dominated = True
    for seed in (7, 11, 101):
        chart = build_chart("perturbed", seed=seed)
        for par, rad in residuals(chart, 3, 0.8):
            dominated = dominated and rad <= par + 1e-15
    ok = loose < 1e-5 and tight < 1e-6 and dominated
    detail = (f"veronese/hline residual {loose:.1e} (<1e-5), "
              f"linear/grassmann-sub {tight:.1e} (<1e-6), "
              f"radial<=parallel on perturbed: {dominated}")
    _line(5, ok, f"parallel curvature — {detail}")
    assert ok, detail


def test_criterion_06_inequality_and_shape_bound():
    """Strict inequality margins on the degree-two curve; the shape bound
    is sound wherever it is satisfied."""
    sound = True
    satisfied_count = 0
    min_margin = np.inf
    rhs_dev = 0.0
    pas = []
    chart = build_chart("veronese", d=2)
    for u in _grid(-0.9, 0.9, 3):
        pas.append(analyze_point(chart, u, normalize=True))
    chart = build_chart("linear", field=Field.COMPLEX)
    for u in (np.array([0.3, -0.2, 0.1, 0.4]), np.zeros(4)):
        pas.append(analyze_point(chart, u, normalize=True))
    for pa in pas:
        min_margin = min(min_margin, pa.inequality.min_margin)
        if pa.theta.value < 1e-6:
            rhs_dev = max(rhs_dev, abs(pa.corollary[1] - 0.125))
        if pa.corollary[2]:
            satisfied_count += 1
            sound = sound and pa.fatness.margin > STRICT_EPS \
                and pa.inequality.strict
    ok = min_margin > 0 and rhs_dev < 1e-6 and sound and satisfied_count > 0
    detail = (f"min margin {min_margin:.3f} > 0, bound rhs within {rhs_dev:.1e} "
              f"of 1/8 at zero angle, sound at {satisfied_count} satisfied points")
    _line(6, ok, f"inequality and shape bound — {detail}")
    assert ok, detail


def test_criterion_07_base_curvature_ratios():
    """Base sectional curvature scales as 1/d along the rational curves,
    in ambient CP^d exactly."""
    u = np.array([0.25, -0.35])
    e0, e1 = np.eye(2)
    kbs = []
    dims_ok = True
    for d in (1, 2, 3, 4):
        chart = build_chart("veronese", d=d)
        dims_ok = dims_ok and chart.N == d + 1
        pf = point_frame(chart, u)
        kbs.append(base_sectional(pf, e0, e1))
    devs = [abs(kb / kbs[0] - 1.0 / d) for d, kb in zip((1, 2, 3, 4), kbs)]
    ok = max(devs) < 1e-4 and dims_ok
    detail = (f"ratios within {max(devs):.1e} of (1, 1/2, 1/3, 1/4); "
              f"ambient dimensions d+1: {dims_ok}")
    _line(7, ok, f"base curvature ratios — {detail}")
    assert ok, detail


def test_criterion_08_pinching():
    """Normalized sectional curvature of CP^2 fills [1/4, 1], extremes attained."""
    lam = curvature_normalization(Field.COMPLEX, 3, 1)
    rng = np.random.default_rng(40)
    lo, hi = np.inf, -np.inf
    for _ in range(300):
        pt = point_from_stiefel(orthonormalize(random_matrix(rng, Field.COMPLEX, 3, 1), Field.COMPLEX),
                                Field.COMPLEX)
        x = random_horizontal(rng, pt)
        x = x.scaled(1.0 / x.norm())
        y = random_horizontal(rng, pt)
        y = GrassTangent(pt, y.H - x.H * np.real(np.vdot(x.H, y.H)))
        if y.norm() < 1e-6:
            continue
        y = y.scaled(1.0 / y.norm())
        s = sectional_curvature_g0(x, y) / lam
        lo, hi = min(lo, s), max(hi, s)
    pt = point_from_stiefel(np.eye(3, dtype=complex)[:, :1], Field.COMPLEX)
    ex = GrassTangent(pt, np.eye(3, dtype=complex)[:, 1:2])
    holo = sectional_curvature_g0(ex, GrassTangent(pt, 1j * ex.H)) / lam
    real_pair = sectional_curvature_g0(
        ex, GrassTangent(pt, np.eye(3, dtype=complex)[:, 2:3])) / lam
    in_band = lo >= 0.25 - 1e-3 and hi <= 1.0 + 1e-3
    attained = abs(holo - 1.0) < 1e-3 and abs(real_pair - 0.25) < 1e-3
    ok = in_band and attained
    detail = (f"samples in [{lo:.4f}, {hi:.4f}] ⊂ [1/4, 1]; "
              f"holomorphic plane {holo:.4f}, totally real pair {real_pair:.4f}")
    _line(8, ok, f"quarter pinching — {detail}")
    assert ok, detail


def test_criterion_09_gauge_and_completion_independence():
    """Every reported quantity is independent of the Stiefel gauge.  No
    reported quantity reads a frame completion; test_dr_paths_identical
    runs the bracket oracle under both completions."""
    cases = [
        (build_chart("veronese", d=2), np.array([0.4, -0.3]),
         np.array([[np.exp(0.731j)]])),
        (build_chart("grassmann-sub"), np.array([0.3, -0.2, 0.15, 0.4]),
         np.array([[np.cos(0.61), -np.sin(0.61)], [np.sin(0.61), np.cos(0.61)]])),
    ]
    spread = 0.0
    for chart, u, gauge in cases:
        rows = []
        for g in (None, gauge):
            pf = point_frame(chart, u, gauge=g)
            row = [shape_norm(pf).value,
                   fatness_margin(pf).margin,
                   parallel_residual(pf).value,
                   radial_residual(pf).value,
                   inequality_min_margin(pf).min_margin]
            if chart.field is not Field.REAL:
                row.append(fatness_margin(pf).theta.value)
            rows.append(row)
        arr = np.array(rows)
        spread = max(spread, float(np.max(arr.max(axis=0) - arr.min(axis=0))))
    ok = spread < 1e-8
    detail = f"max spread over 2 gauges = {spread:.2e}"
    _line(9, ok, f"gauge independence — {detail}")
    assert ok, detail


def test_criterion_10_vertical_action_bracket_identity():
    """[diag(q,0), X~] has p-block coordinates -B q, i.e. the vertical probe
    acts on horizontal vectors as H -> -H q.  100 random inputs per field."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for field, N, k in ((Field.REAL, 4, 2), (Field.COMPLEX, 3, 1),
                        (Field.QUATERNION, 3, 1)):
        for _ in range(100):
            pt = point_from_stiefel(orthonormalize(random_matrix(rng, field, N, k), field), field)
            t = random_horizontal(rng, pt)
            q = zeros(field, k, k)
            if field is Field.REAL:
                a = rng.normal()
                q[0, 1], q[1, 0] = a, -a
            elif field is Field.COMPLEX:
                q[0, 0] = 1j * rng.normal()
            else:
                q[0, 0] = quat(0.0, *rng.normal(size=3))
            fr = frame_lift(pt)
            lift = lie_lift(fr, t)
            lhs = proj_p_block(bracket(emb_alpha(q, N, field), lift.mat, field), k)
            rhs = lie_lift(fr, ad_alpha(q, t)).B
            scale = max(frob(lift.B) * frob(q), 1e-12)
            worst = max(worst, frob(lhs - rhs) / scale,
                        frob(lhs + matmul_stack(lift.B, q, field)) / scale)
    ok = worst < 1e-12
    detail = f"max normalized deviation {worst:.2e} over 300 random inputs"
    _line(10, ok, f"vertical action bracket identity — {detail}")
    assert ok, detail
