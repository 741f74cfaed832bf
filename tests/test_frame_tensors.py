"""The array frame layer against the per-index loops it replaced.

One point of every `list` example over each of its fields, plus the
eight-dimensional `perturbed --field h --param base=linear`.  The loop
references in tests/reference.py evaluate one frame index, triple or
2-plane at a time; every contraction must agree with them to rounding.
"""
import numpy as np
import pytest

from pullconn import cli
from pullconn.algebra import Field
from pullconn.catalog import CATALOG
from pullconn.connection import (
    analyze_point,
    base_sectional,
    fatness_margin,
    inequality_min_margin,
    parallel_residual,
    radial_residual,
)
from pullconn.immersion import point_frame
from reference import (
    base_sectional_loop,
    dr_component_loop,
    inequality_loop,
    jay_matrix,
    orthonormalize_real_span,
    residual_loop,
    second_fundamental_form_loop,
)

TOL = 1e-12


def _cases():
    cases = [(name, field, {}) for name, entry in sorted(CATALOG.items()) if name != "perturbed"
             for field in entry.fields]
    cases += [("perturbed", Field.REAL, {"base": "linear"}),
              ("perturbed", Field.COMPLEX, {}),
              ("perturbed", Field.QUATERNION, {"base": "hline", "amplitude": 0.3}),
              ("perturbed", Field.QUATERNION, {"base": "linear"})]
    out = []
    for name, field, params in cases:
        chart = cli.make_chart(name, field, params)
        u = cli.sample_points(chart, None, 1, 3, None)[0]
        label = "-".join([name, field.value] + [str(v) for v in params.values()])
        out.append(pytest.param((chart, u), id=label))
    return out


def _close(got, want):
    return abs(got - want) <= TOL * max(1.0, abs(want))


@pytest.fixture(params=_cases())
def point(request):
    chart, u = request.param
    return chart, u, point_frame(chart, u)


def test_cholesky_frame_is_the_gram_schmidt_frame(point):
    _, _, pf = point
    loop = orthonormalize_real_span(pf.D)
    assert len(loop) == pf.n
    for a in range(pf.n):
        assert np.max(np.abs(pf.E[a].H - loop[a].H)) < TOL
    assert np.max(np.abs(np.tensordot(pf.coeff, pf.D.H, axes=1) - pf.E.H)) < TOL
    assert np.max(np.abs(pf.E.pair(pf.E) - np.eye(pf.n))) < TOL
    assert pf.gram_min_eig == np.linalg.eigvalsh(pf.gram)[0]


def test_second_fundamental_form_matches_loop(point):
    chart, u, pf = point
    loop = second_fundamental_form_loop(chart, u, pf)
    assert np.max(np.abs(pf.II.H - loop)) <= TOL * max(1.0, np.max(np.abs(loop)))


def test_probe_tensors_match_loops(point):
    _, _, pf = point
    if not pf.probes:
        assert fatness_margin(pf).degenerate
        return
    n = pf.n
    for t, al in enumerate(pf.probes):
        assert np.max(np.abs(pf.L[t] - jay_matrix(pf, al))) < TOL
    eye = np.eye(n)
    for t, al in enumerate(pf.probes):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    want = dr_component_loop(pf, eye[a], eye[b], eye[c], al)
                    assert _close(pf.DR[t, a, b, c], want), (t, a, b, c)


def test_residuals_match_loops(point):
    _, _, pf = point
    if not pf.probes:
        assert parallel_residual(pf).degenerate and radial_residual(pf).degenerate
        return
    for radial, res in ((False, parallel_residual(pf)), (True, radial_residual(pf))):
        worst, count = residual_loop(pf, pf.probes, radial)
        assert res.probes == count
        assert _close(res.value, worst)


def test_inequality_and_base_curvature_match_loops(point):
    chart, u, pf = point
    res = inequality_min_margin(pf)
    e = np.eye(pf.n)
    assert _close(res.kb_probe, base_sectional_loop(pf, e[0], e[1]))
    assert _close(analyze_point(chart, u).kb_probe, res.kb_probe)
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((3, pf.n, 2)))[0]
    kb = base_sectional(pf, q[..., 0], q[..., 1])
    for p in range(3):
        assert _close(kb[p], base_sectional_loop(pf, q[p, :, 0], q[p, :, 1]))
    if not pf.probes:
        assert res.degenerate
        return
    margin, count = inequality_loop(pf, pf.probes)
    assert res.probes == count
    assert _close(res.min_margin, margin)
