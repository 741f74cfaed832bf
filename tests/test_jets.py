"""Second-order jets: the jet arithmetic, every chart's column jet and its
second fundamental form against finite differences, and the rule that
finite differences live only in the oracles."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import pullconn
from pullconn import cli
from pullconn.algebra import Field, Jet, apply, ct_stack, matmul_stack, random_matrix, sq_norm
from pullconn.catalog import CATALOG, build_chart, perturbed
from pullconn.connection import analyze_point
from pullconn.homogeneous import geodesic_stiefel_k1, point_from_stiefel, random_horizontal
from pullconn.immersion import point_frame
from reference import central_stencil, richardson_difference, second_fundamental_form_fd
from test_immersion import _exp_pair_chart

H1 = 1e-3          # step of the first differences (one Richardson level)
H2 = 10.0 ** -2.5  # step of the second differences (one Richardson level)


def _charts():
    """Every `list` example over each of its fields, perturbed over every
    rank-one base, and exponential charts over R, C and H."""
    cases = [pytest.param(cli.make_chart(name, field, {}), id=f"{name}-{field.value}")
             for name, entry in sorted(CATALOG.items()) if name != "perturbed"
             for field in entry.fields]
    for base, field in [("linear", Field.REAL), ("linear", Field.COMPLEX),
                        ("linear", Field.QUATERNION), ("veronese", None), ("totally-real", None),
                        ("clifford", None), ("hline", None)]:
        chart = cli.make_chart("perturbed", field, {"base": base, "amplitude": 0.3})
        cases.append(pytest.param(chart, id=f"perturbed-{chart.field.value}-{base}"))
    for field, N, k in [(Field.REAL, 4, 2), (Field.COMPLEX, 3, 1), (Field.QUATERNION, 3, 1)]:
        cases.append(pytest.param(_exp_pair_chart(field, N, k), id=f"exp-pair-{field.value}"))
    return cases


def _points(chart, count=2):
    lo, hi = np.array(chart.box).T
    return lo + (hi - lo) * np.random.default_rng(chart.dim).uniform(0.2, 0.8, (count, chart.dim))


def _second_differences(fn, U, h):
    """∂_i∂_j of fn at the rows of U (B, n) by central second differences,
    one Richardson level over h and h/2: (B, n, n, ...)."""
    n = U.shape[1]
    E = np.eye(n)

    def level(s):
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                a, b = s * E[i], s * E[j]
                row.append((fn(U + a + b) - fn(U + a - b) - fn(U - a + b) + fn(U - a - b))
                           / (4 * s * s))
            out.append(np.stack(row, axis=1))
        return np.stack(out, axis=1)
    return (4.0 * level(h / 2) - level(h)) / 3.0


def _assert_jet_matches_differences(fn_jet, fn_value, U, rtol=1e-7):
    """The order-2 jet of fn at U against central differences of its values."""
    J = fn_jet(Jet.seed(U, 2))
    scale = max(1.0, np.abs(J.v).max(), np.abs(J.d).max(), np.abs(J.dd).max())
    assert np.array_equal(J.v, fn_value(U))
    n = U.shape[1]
    F = fn_value(central_stencil(U, H1).reshape(-1, n))
    d = richardson_difference(F.reshape((len(U), 1 + 4 * n) + F.shape[1:]), H1)
    assert np.abs(J.d - d).max() <= rtol * scale
    assert np.abs(J.dd - _second_differences(fn_value, U, H2)).max() <= 10 * rtol * scale
    assert np.array_equal(J.dd, J.dd.swapaxes(1, 2))


@pytest.mark.parametrize("chart", _charts())
def test_column_jet_matches_central_differences(chart):
    _assert_jet_matches_differences(chart.cols, lambda U: chart.cols(Jet(U)).v, _points(chart))


@pytest.mark.parametrize("chart", _charts())
def test_second_fundamental_form_matches_its_finite_difference_twin(chart):
    """II from the column jet against second differences of P at step
    10^-2.5, whose error is about 1e-10 relative."""
    for u in _points(chart):
        pf = point_frame(chart, u)
        twin = second_fundamental_form_fd(chart, u, pf)
        assert np.abs(pf.II.H - twin).max() <= 1e-9 * max(1.0, np.abs(pf.II.H).max())


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_jet_arithmetic_matches_central_differences(field):
    """Sums, entrywise products, matrix products, conjugate
    transposes, squared norms and entrywise functions of a smooth map."""
    rng = np.random.default_rng(4)
    A, B = random_matrix(rng, field, 3, 2), random_matrix(rng, field, 2, 2)
    C = rng.standard_normal((3, 3, 2))
    unit = {Field.REAL: 1.0, Field.COMPLEX: 1.0 + 0.5j,
            Field.QUATERNION: np.array([1.0, 0.5, -0.3, 0.2])}[field]

    def fn(J):
        X = apply(J.lin(lambda x: np.tensordot(x, C, axes=1)), np.sin, np.cos, lambda t: -np.sin(t))
        S = X.lin(lambda x: x[..., None] * unit if field is Field.QUATERNION else x * unit)
        M = matmul_stack(S + A, B, field)
        scale = apply(sq_norm(M, field), lambda t: t**-0.5, lambda t: -0.5 * t**-1.5,
                      lambda t: 0.75 * t**-2.5)
        return matmul_stack(ct_stack(M * scale, field), M, field) - 2.0 * (scale * scale)

    _assert_jet_matches_differences(fn, lambda U: fn(Jet(U)).v, rng.uniform(-1, 1, (2, 3)))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_geodesic_jet_is_smooth_through_zero(field):
    """The jet of geodesic_stiefel_k1 along H(u) = u_0 A + u_1 B, through
    H = 0 and through |H| = 1 (where halving and doubling take over),
    against central differences."""
    rng = np.random.default_rng(11)
    pt = point_from_stiefel(random_matrix(rng, field, 4, 1), field)
    A, B = (random_horizontal(rng, pt).H for _ in range(2))
    A, B = A / np.sqrt(sq_norm(A, field)), B / np.sqrt(sq_norm(B, field))

    def fn(J):
        H = J.lin(lambda x: x[(..., 0) + (None,) * A.ndim] * A + x[(..., 1) + (None,) * A.ndim] * B)
        return geodesic_stiefel_k1(pt.V[None], H, field)

    _assert_jet_matches_differences(fn, lambda U: fn(Jet(U)).v,
                                    np.array([[0.0, 0.0], [1e-9, -2e-9], [1.0, 0.0], [0.3, 0.95]]))
    J = fn(Jet.seed(np.zeros((1, 2)), 2))
    assert np.array_equal(J.v[0], pt.V)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX, Field.QUATERNION])
def test_geodesic_jet_is_the_great_circle_on_both_sides_of_the_threshold(field):
    """Along H = u·A with |A| = 1 the jet is the great circle V cos u + A sin u
    with its two derivatives, from the series alone (u ≤ 1) and halved and
    doubled back (u > 1), through g = 1."""
    rng = np.random.default_rng(12)
    pt = point_from_stiefel(random_matrix(rng, field, 4, 1), field)
    A = random_horizontal(rng, pt).H
    A = A / np.sqrt(sq_norm(A, field))
    for u in (0.5, 1.0, 1.0 + 1e-12, 2.5, 6.0):
        H = Jet.seed(np.array([[u]]), 2).lin(lambda x: x[(...,) + (None,) * (A.ndim - 1)] * A)
        J = geodesic_stiefel_k1(pt.V[None], H, field)
        c, s = np.cos(u), np.sin(u)
        for got, want in [(J.v, pt.V * c + A * s), (J.d, A * c - pt.V * s),
                          (J.dd, -pt.V * c - A * s)]:
            assert np.abs(got.reshape(pt.V.shape) - want).max() <= 1e-13, u


def test_perturbation_at_amplitude_zero_is_its_base():
    base = build_chart("veronese", d=3)
    U = _points(base, 3)
    for order in range(3):
        J = Jet.seed(U, order)
        a, b = perturbed(base, amplitude=0.0).cols(J), base.cols(J)
        scale = np.sqrt(sq_norm(b.v, Field.COMPLEX))
        assert np.abs(a.v - b.v / scale).max() <= 1e-15


def test_veronese_geometry_is_exact_on_the_benchmark_inputs():
    """On the frame workload's veronese inputs (d = 1–4, sample seeds 1–10):
    the shape norm is √(2(1 − 1/d)) to rounding and its bound is never
    below it, the base curvature is 4/d, and every shape pencil of veronese
    and clifford takes the Clifford shortcut (rounds 0)."""
    for d in (1, 2, 3, 4):
        chart = build_chart("veronese", d=d)
        want = np.sqrt(2.0 * (1.0 - 1.0 / d))
        for seed in range(1, 11):
            for u in cli.sample_points(chart, None, 8, seed, None):
                pa = analyze_point(chart, u, normalize=True)
                assert abs(pa.shape.value - want) <= 1e-13
                assert pa.shape.value + pa.shape.gap >= want
                assert abs(pa.kb_probe - 4.0 / d) <= 1e-12
                assert pa.shape.rounds == 0
    chart = build_chart("clifford")
    for u in cli.sample_points(chart, None, 8, 1, None):
        assert analyze_point(chart, u).shape.rounds == 0


def test_point_frame_takes_one_chart_call():
    chart = build_chart("perturbed")
    calls = []

    def counted(J):
        calls.append(J.order)
        return chart.cols(J)

    point_frame(dataclasses.replace(chart, cols=counted, eval_point=None), [0.1, 0.2])
    assert calls == [2]


FD_NAMES = ("_projector_stencil", "FD_STEP")


def test_finite_differences_live_only_in_the_oracles():
    """No module of the package but oracle and constants names the stencil
    or a finite-difference step: the analysis has one derivative path."""
    offenders = []
    for path in sorted(Path(pullconn.__file__).parent.glob("*.py")):
        if path.name in ("oracle.py", "constants.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name for a in node.names] + [a.name for a in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.startswith(FD_NAMES)]
    assert offenders == []
