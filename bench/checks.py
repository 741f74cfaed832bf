"""Correctness checks for the benchmark's workloads.

Every check compares a pullconn output with a closed form or a property
stated here, never with a saved copy of an earlier run.  Each check returns
a list of messages; an empty list means the value passed.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from pullconn.algebra import Field, inner_re, quat
from pullconn.connection import AlphaElement
from pullconn.immersion import point_frame

TOL = 1e-6             # closed forms against finite-difference frame values
NORM_TOL = 1e-9        # sampled curvature normalization against its table
COS_MARGIN_TOL = 1e-12  # rank one: cos(theta) equals the fatness margin
FAT_SLACK = 1e-9       # reported fatness margin above a sampled sigma_min
BREAKS_PARALLEL = 1e-3  # perturbed charts: visibly nonparallel somewhere

# Maximal sectional curvature lambda of the ambient Grassmannian in g0
# units: 4 over C and H, 1 for real G_1, 2 for real G_k with min(k, N-k) >= 2.
LAMBDA = {"c": 4.0, "h": 4.0, "linear/r": 1.0, "grassmann-sub": 2.0}


def lam_for(label: str, field: str) -> float:
    return LAMBDA.get(label, LAMBDA.get(field))


def _near(messages, what, value, want, tol):
    if value is None or not abs(value - want) <= tol:
        messages.append(f"{what} = {value!r}, expected {want!r} within {tol:g}")


def _true(messages, what, value):
    if value is not True:
        messages.append(f"{what} = {value!r}, expected True")


def frame_expected(label: str, lam: float) -> dict:
    """Closed forms per chart label; absent keys are not checked."""
    if label.startswith("veronese/d="):
        d = int(label.split("=")[1])
        return {"kb": lam / d, "shape": float(np.sqrt(2.0 * (1.0 - 1.0 / d))),
                "theta": 0.0, "margin": 1.0, "parallel_holds": True}
    return {
        "clifford": {"kb": 0.0, "theta": np.pi / 2, "margin": 0.0},
        "totally-real": {"kb": lam / 4.0, "shape": 0.0, "theta": np.pi / 2},
        "linear/r": {"kb": 1.0, "shape": 0.0},
        # the frame pair (E_0, E_1) spans a complex line: holomorphic K = lambda
        "linear/c": {"kb": lam, "shape": 0.0, "theta": 0.0, "margin": 1.0},
        "grassmann-sub": {"shape": 0.0, "margin": 1.0, "parallel_holds": True},
        "hline": {"kb": lam, "shape": 0.0, "theta": 0.0, "margin": 1.0},
    }.get(label, {})


def check_point(label: str, lam: float, rec: dict) -> list:
    """One analysed point against its chart's closed forms."""
    msgs = []
    _near(msgs, f"{label}: normalization", rec["normalization"], lam, NORM_TOL)
    for key, want in frame_expected(label, lam).items():
        if key == "parallel_holds":
            _true(msgs, f"{label}: parallel holds", rec[key])
        else:
            _near(msgs, f"{label}: {key}", rec[key], want, TOL)
    if label == "perturbed":
        # rank one: the fatness margin is min sigma_min = cos(theta_max)
        _near(msgs, f"{label}: |cos theta - margin|",
              float(np.cos(rec["theta"])), rec["margin"], COS_MARGIN_TOL)
    return msgs


def check_breaks_parallel(label: str, recs) -> list:
    """A perturbed chart is visibly nonparallel at some point of a pass."""
    worst = max(r["parallel"] for r in recs)
    if worst > BREAKS_PARALLEL:
        return []
    return [f"{label}: largest parallel residual {worst:.3e} of a pass "
            f"is not above {BREAKS_PARALLEL:g}"]


# ----------------------------------------------------------------------------
# rank-one quaternionic fatness: an independent upper bound on the minimum
# ----------------------------------------------------------------------------

_UNITS = [AlphaElement.imaginary_unit(Field.QUATERNION, quat(0.0, *e))
          for e in np.eye(3)]


def _sphere_sample(count: int = 2000) -> np.ndarray:
    """Fibonacci points on S^2: a fixed, seed-free sample."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


SPHERE = _sphere_sample()


def jay_matrices(chart, u) -> np.ndarray:
    """L_t[b, a] = <E_b, J_t E_a> for the imaginary units i, j, k."""
    pf = point_frame(chart, u)
    n = pf.n
    L = np.empty((3, n, n))
    for t, alpha in enumerate(_UNITS):
        for a in range(n):
            ja = alpha.jay(pf.E[a]).H
            for b in range(n):
                L[t, b, a] = inner_re(pf.E[b].H, ja)
    return L


def sampled_fatness(L: np.ndarray, starts: int = 3) -> float:
    """Smallest sigma_min(sum_t a_t L_t) seen over unit a.

    Evaluates the fixed S^2 sample, then refines the best few sample points
    with Nelder-Mead in spherical angles.  Every evaluation is at a unit
    vector, so every value bounds the true minimum from above.
    """
    vals = np.linalg.svd(np.einsum("mt,tba->mba", SPHERE, L), compute_uv=False)[:, -1]
    best = float(vals.min())

    def sig_min(angles):
        th, ph = angles
        a = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return float(np.linalg.svd(np.tensordot(a, L, axes=1), compute_uv=False)[-1])

    for j in np.argsort(vals)[:starts]:
        x, y, z = SPHERE[j]
        res = minimize(sig_min, [np.arccos(z), np.arctan2(y, x)], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 400})
        best = min(best, float(res.fun))
    return best


def fatness_overestimate(margin: float, sampled: float) -> list:
    """The reported margin may not exceed a value the check evaluated."""
    if margin - sampled > FAT_SLACK:
        return [f"fatness margin {margin:.12g} exceeds a sampled "
                f"sigma_min {sampled:.12g} by {margin - sampled:.3e}"]
    return []


# ----------------------------------------------------------------------------
# the verify battery
# ----------------------------------------------------------------------------

LOOP_FACTOR_TOL = 1e-3
FD_ORDER = 16.0        # fourth order: halving the step divides the error by 16
FD_ORDER_REL = 0.10


def check_verify(code: int, report: dict) -> list:
    """One `pullconn verify` pass: exit 0, every check green, and the two
    headline constants at their theoretical values."""
    msgs = []
    if code != 0:
        msgs.append(f"verify exited {code}")
    checks = {c["name"]: c for c in report.get("checks", [])}
    for name, c in checks.items():
        if not c["pass"]:
            msgs.append(f"verify check {name} failed with value {c['value']!r}")
    loop = checks.get("loop-generator-factor/G2R4")
    if loop is None or not abs(loop["value"]) < LOOP_FACTOR_TOL:
        msgs.append(f"loop-generator factor off 1/2 by "
                    f"{None if loop is None else loop['value']!r}")
    order = checks.get("fd-order/veronese")
    if order is None or not abs(order["value"] - FD_ORDER) <= FD_ORDER_REL * FD_ORDER:
        msgs.append(f"fd-order ratio {None if order is None else order['value']!r} "
                    f"not within {FD_ORDER_REL:.0%} of {FD_ORDER:g}")
    return msgs
