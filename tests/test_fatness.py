"""The rank-one fatness search over the probe sphere and its certificate.

The reference is independent of the search: σ_min on a dense Fibonacci
sample of S², with the best sample points polished by Nelder-Mead.  Every
reference value is σ_min at some unit probe, so it bounds the true minimum
from above; a reported margin above it is an overestimate, and a certified
lower bound margin − gap above it is a false certificate.
"""
import numpy as np
import pytest
from scipy.optimize import minimize

from pullconn import cli
from pullconn.algebra import Field
from pullconn.catalog import CATALOG
from pullconn.connection import alpha_basis, analyze_point, fatness_margin
from pullconn.immersion import point_frame
from reference import jay_matrix, wirtinger_angle


def _fibonacci_sphere(count: int = 4000) -> np.ndarray:
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


SPHERE = _fibonacci_sphere()


def sampled_minimum(pf, starts: int = 3) -> float:
    Ls = np.stack([jay_matrix(pf, a) for a in alpha_basis(pf.pt.field, 1)])
    vals = np.linalg.svd(np.einsum("mt,tba->mba", SPHERE, Ls), compute_uv=False)[:, -1]

    def sig_min(angles):
        th, ph = angles
        a = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return float(np.linalg.svd(np.tensordot(a, Ls, axes=1), compute_uv=False)[-1])

    best = float(vals.min())
    for j in np.argsort(vals)[:starts]:
        x, y, z = SPHERE[j]
        res = minimize(sig_min, [np.arccos(z), np.arctan2(y, x)], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 400})
        best = min(best, float(res.fun))
    return best


def _points(example, params, count, seed):
    chart = cli.make_chart(example, None, params)
    return [(chart, u) for u in cli.sample_points(chart, None, count, seed, None)]


QUAT_POINTS = (
    _points("hline", {}, 4, 0)
    + _points("perturbed", {"base": "hline", "amplitude": 0.05}, 1, 0)
    + _points("perturbed", {"base": "hline", "amplitude": 0.3}, 1, 0)
    # the zero minima of this sample stall plain alternating minimization
    + _points("perturbed", {"base": "hline", "amplitude": 0.3}, 4, 11)
)


@pytest.mark.parametrize("chart,u", QUAT_POINTS,
                         ids=[f"{c.name}-{c.params.get('amplitude', 0)}-{i}"
                              for i, (c, _) in enumerate(QUAT_POINTS)])
def test_margin_and_certificate_against_sphere_sample(chart, u):
    pf = point_frame(chart, u)
    res = fatness_margin(pf)
    sample = sampled_minimum(pf)
    assert res.margin <= sample + 1e-9
    assert res.margin - res.gap <= sample


@pytest.mark.parametrize("seed", [0, 7, 11, 33])
def test_hline_margin_one_with_tight_certificate(seed):
    # samples 7, 11 and 33 each hold a point (indices 1, 0 and 2) that once
    # sent a NaN probe into np.linalg.svd and raised LinAlgError
    for chart, u in _points("hline", {}, 4, seed):
        res = fatness_margin(point_frame(chart, u))
        assert abs(res.margin - 1.0) < 1e-12
        assert res.gap <= 1e-12


@pytest.mark.parametrize("chart,u", _points("grassmann-sub", {"k": 3}, 3, 0))
def test_real_rank_three_margin_against_probe_sphere_sample(chart, u):
    """Real rank three has the probes so(3): the margin is searched over
    their sphere S², and stays below σ_min on a sample of it."""
    pf = point_frame(chart, u)
    res = fatness_margin(pf)
    Ls = np.stack([jay_matrix(pf, a) for a in alpha_basis(pf.pt.field, pf.pt.k)])
    assert Ls.shape == (3, pf.n, pf.n)
    sample = np.linalg.svd(np.einsum("mt,tba->mba", SPHERE, Ls), compute_uv=False)[:, -1].min()
    assert res.margin <= sample + 1e-12
    assert res.margin - res.gap <= sample
    assert res.rounds >= 1


def _complex_and_quaternionic_charts():
    for name, entry in sorted(CATALOG.items()):
        for field in entry.fields:
            if field is Field.REAL:
                continue
            params = {"base": "hline"} if name == "perturbed" and field is Field.QUATERNION else {}
            yield cli.make_chart(name, field, params)


@pytest.mark.parametrize("chart", list(_complex_and_quaternionic_charts()),
                         ids=lambda c: f"{c.name}-{c.field.value}")
def test_cos_theta_equals_margin(chart):
    for u in cli.sample_points(chart, None, 2, 5, None):
        pa = analyze_point(chart, u)
        assert abs(np.cos(pa.theta.value) - pa.fatness.margin) < 1e-12
        assert pa.theta.value <= pa.theta.upper_bound


@pytest.mark.parametrize("chart,u", QUAT_POINTS[3:6] + _points("clifford", {}, 2, 0)
                         + _points("perturbed", {}, 2, 0))
def test_wirtinger_angle_at_minimizing_tangent(chart, u):
    pf = point_frame(chart, u)
    theta = fatness_margin(pf).theta
    x_star = pf.from_coords(theta.argmax[0])
    angle = wirtinger_angle(pf.E, x_star)
    # compare cos²: arccos amplifies rounding near 0 and π/2
    assert abs(np.cos(angle) ** 2 - np.cos(theta.value) ** 2) < 1e-12


# the benchmark's quaternionic inputs at other sample seeds: hline 4 points
# per seed, the perturbed charts one point per seed
SEEDED_QUAT = [("hline", {}, 4, range(20)),
               ("perturbed", {"base": "hline", "amplitude": 0.05}, 1, range(5)),
               ("perturbed", {"base": "hline", "amplitude": 0.3}, 1, range(5))]


@pytest.mark.parametrize("name,params,count,seeds", SEEDED_QUAT,
                         ids=["hline", "perturbed-hline-0.05", "perturbed-hline-0.3"])
def test_seeded_quaternionic_samples_never_raise(name, params, count, seeds):
    """Every point of these seeded samples is analyzed without an exception
    and certifies a finite fatness margin: the descent step that once
    normalized a zero vector into NaN and an SVD failure is gone."""
    chart = cli.make_chart(name, Field.QUATERNION, params)
    for seed in seeds:
        for u in cli.sample_points(chart, None, count, seed, None):
            pa = analyze_point(chart, u, normalize=True)
            assert np.isfinite(pa.fatness.margin) and np.isfinite(pa.fatness.gap)


def _svd_matrices(monkeypatch):
    """Counts the matrices every np.linalg.svd call is given."""
    count = [0]
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return count


@pytest.mark.parametrize("amplitude", [0.05, 0.3])
def test_fatness_margin_evaluates_few_matrices(monkeypatch, amplitude):
    """On the benchmark's two perturbed quaternionic points the pruned net
    and the Newton refinement pass fewer than 450 matrices to np.linalg.svd
    (897 and 807 with the whole 769-point net and the Gauss-Newton/eigen
    alternation)."""
    (chart, u), = _points("perturbed", {"base": "hline", "amplitude": amplitude}, 1, 0)
    pf = point_frame(chart, u)
    pf.L
    with monkeypatch.context() as m:
        matrices = _svd_matrices(m)
        res = fatness_margin(pf)
    assert res.rounds >= 1
    assert matrices[0] < 450, matrices[0]


def test_fatness_refinement_converges_in_few_rounds():
    """`analyze --example perturbed --field h --param base=linear --random 48`:
    every fatness search stops by its rule within 6 Newton rounds (9 of
    the 48 alternations stopped at the 60-round cap)."""
    chart = cli.make_chart("perturbed", Field.QUATERNION, {"base": "linear"})
    results = [fatness_margin(point_frame(chart, u)) for u in cli.sample_points(chart, None, 48, 0, None)]
    assert all(res.converged for res in results)
    assert max(res.rounds for res in results) <= 6
