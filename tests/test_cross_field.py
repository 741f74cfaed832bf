"""Cross-field twin: a quaternionic chart and its complex adjoint."""
import numpy as np
import pytest

from pullconn import cli
from pullconn.algebra import Field
from pullconn.connection import base_sectional
from pullconn.immersion import point_frame, shape_norm
from reference import lift

H_CHARTS = [
    ("hline", {}),
    ("linear", {"m": 3}),
    ("perturbed", {"base": "hline", "amplitude": 0.3}),
    ("perturbed", {"base": "linear"}),
]


def _rel(got, want) -> float:
    """Largest difference, relative to the largest entry of want (0 for two zeros)."""
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / scale) if scale else float(np.abs(got).max())


@pytest.mark.parametrize("name,params", H_CHARTS,
                         ids=["hline", "linear-m3", "perturbed-hline", "perturbed-linear"])
def test_complex_adjoint_scales_the_frame_layer(name, params):
    """χ(W) = [[Z₁, Z₂], [−Z̄₂, Z̄₁]] of a quaternionic chart W = Z₁ + Z₂j is
    a complex rank-2k chart whose points are the J-invariant planes, a
    totally geodesic fixed set, and χ doubles Re tr(H*H).  So at every
    point the Gram matrix doubles, the base sectional curvature of every
    frame pair halves and the shape norm takes 2^{-1/2}, within 1e-12
    relative.  The quaternionic side runs the H matrix product, the complex
    side numpy's complex one.  It calls point_frame, base_sectional and
    shape_norm directly, since alpha_basis has no complex rank-2 probes.
    Both sides run the same field-independent formulas, so a fault in one
    of them (a dropped II term of base_sectional, say) moves both by the
    same factor and is out of this test's reach."""
    chart = cli.make_chart(name, Field.QUATERNION, params)
    twin = lift(chart)
    n = chart.dim
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    X, Y = np.eye(n)[a], np.eye(n)[b]
    for u in cli.sample_points(chart, None, 2, 0, None):
        pf, pt = point_frame(chart, u), point_frame(twin, u)
        assert _rel(pt.gram, 2.0 * pf.gram) <= 1e-12
        assert _rel(base_sectional(pt, X, Y), 0.5 * base_sectional(pf, X, Y)) <= 1e-12
        assert _rel(np.array(shape_norm(pt).value), shape_norm(pf).value / np.sqrt(2.0)) <= 1e-12
