"""Closed-form frame layer: fatness, parallelism and the curvature
inequality, with per-point verdicts, each a function of the `PointFrame`
of `immersion` alone, as contractions of its tensors (the J-action L, the
second fundamental form II and the derivative components DR).

Conventions.  A vertical probe alpha is a normalized anti-Hermitian k-by-k
scalar block: over R a decomposable x y^T - y x^T built from an orthonormal
pair, over C and H (rank one) a unit imaginary scalar.  The action on
tangents is J_alpha : H -> -H alpha; pairings against curvature use
half the g0 inner product of frame brackets.  The alpha-extremizations
below are exact (linear functionals maximize to coefficient norms, and
quadratic forms minimize to extreme eigenvalues), except fatness with more
than one probe (`_pencil_extreme`): exact on a Clifford J-action, as at
quaternionic-holomorphic points, and a certified sphere search elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .algebra import Field, ct_stack, matmul_stack, re_dot
from .constants import STACK_BYTES, STRICT_EPS
from .homogeneous import (  # noqa: F401  (the probes are part of this module's API)
    AlphaElement,
    DegenerateStructureError,
    GrassTangent,
    alpha_basis,
    curvature_normalization,
)
from .immersion import (
    CertifiedMax,
    ImmersionChart,
    PointFrame,
    _pencil_extreme,
    point_frame,
    shape_norm,
    stack_slices,
)


@dataclass(frozen=True)
class FatnessResult(CertifiedMax):
    """The probe minimization: value is the margin and argmax = (probe
    coefficients in the basis of `alpha_basis`, unit tangent in frame
    coordinates); degenerate, with value 0, where there are no probes."""

    degenerate: bool = False

    @property
    def margin(self) -> float:
        return self.value

    @property
    def fat(self) -> Optional[bool]:
        return None if self.degenerate else bool(self.margin > STRICT_EPS)

    @property
    def theta(self) -> CertifiedMax:
        """Rank one over C and H: the maximal Wirtinger angle, cos θ = margin,
        with argmax = (unit tangent, probe).  The certificate margin − gap ≤
        min bounds θ by arccos(margin − gap)."""
        theta, grid, upper = (float(np.arccos(np.clip(c, 0.0, 1.0)))
                              for c in (self.margin, self.grid_best, self.margin - self.gap))
        return CertifiedMax(theta, self.argmax[::-1], grid, upper - theta,
                            self.rounds, self.converged)


FATNESS_NET_RESOLUTION = 17  # lattice points per axis of the probe sphere net


def fatness_margin(pf: PointFrame) -> FatnessResult:
    """min over unit tangents and probes of twice the curvature norm: the
    least σ_min of the tangential J-action L(a) = Σ_t a_t L_t over unit
    probe coefficients a, by `_pencil_extreme`; for rank one over C and H
    it is also cos θ of the maximal Wirtinger angle."""
    if not pf.probes:
        return FatnessResult(0.0, (None, None), 0.0, 0.0, degenerate=True)
    return FatnessResult(**vars(_pencil_extreme(pf.L, largest=False,
                                                resolution=FATNESS_NET_RESOLUTION)))


# ----------------------------------------------------------------------------
# the derivative component and its residuals
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualResult:
    value: float
    degenerate: bool
    probes: int

    @property
    def holds(self) -> Optional[bool]:
        """None where no triple was probed: no probes, or a one-dimensional base."""
        return None if self.probes == 0 else bool(self.value <= STRICT_EPS)


def _residual_over_probes(pf: PointFrame, radial: bool) -> ResidualResult:
    """Largest probe-extremized |DR| over frame triples (E_a, E_b, E_c) with
    a ≠ b; radial triples have c = a.  The maximum of |Σ_t a_t DR_t| over
    unit probe coefficients a is the norm over t."""
    if not pf.probes:
        return ResidualResult(0.0, True, 0)
    size = np.linalg.norm(pf.DR, axis=0)
    if radial:
        size = np.diagonal(size, axis1=0, axis2=2).T   # size[a, b, a]
    vals = size[~np.eye(pf.n, dtype=bool)]
    return ResidualResult(float(vals.max(initial=0.0)), False, vals.size)


def parallel_residual(pf: PointFrame) -> ResidualResult:
    """Worst probe-extremized derivative component over frame triples."""
    return _residual_over_probes(pf, radial=False)


def radial_residual(pf: PointFrame) -> ResidualResult:
    """Same, restricted to derivative direction equal to the first argument."""
    return _residual_over_probes(pf, radial=True)


# ----------------------------------------------------------------------------
# curvature inequality and the corollary bound
# ----------------------------------------------------------------------------

def _row_pair(A: np.ndarray, B: np.ndarray, field: Field) -> np.ndarray:
    """Re tr(B_p* A_p) for every row p of two stacks (P, ...) of the same shape."""
    return re_dot(B, A, field).reshape(len(A))


def bracket_sq(Xt: np.ndarray, Yt: np.ndarray, field: Field) -> np.ndarray:
    """|[X~, Y~]|₀² for stacks of horizontal tangents X, Y (P, N, k[, 4]),
    from k×k blocks alone: with Z = Y*X,
    |Z|² + Re tr(X*X·Y*Y) − 2 Re tr(Z²), which is ½(|C₁|² + |C₂|²) for
    C₁ = Y*X − X*Y and C₂ = YX* − XY*, without forming the N×N C₂."""
    Z = matmul_stack(ct_stack(Yt, field), Xt, field)
    XX, YY = (matmul_stack(ct_stack(T, field), T, field) for T in (Xt, Yt))
    return (_row_pair(Z, Z, field) + _row_pair(XX, YY, field)
            - 2.0 * _row_pair(Z, ct_stack(Z, field), field))


def base_sectional(pf: PointFrame, x, y):
    """Gauss-equation sectional curvature of the base for orthonormal
    frame-coordinate pairs x, y of shape (n,) or (P, n): the ambient term
    bracket_sq of X = Σ_a x_a E_a and Y = Σ_b y_b E_b, plus the II terms,
    contracted one frame index at a time.
    """
    X, Y = np.atleast_2d(x).astype(float), np.atleast_2d(y).astype(float)
    XY = np.concatenate([X, Y])

    def along(T):
        """Σ_a z_a T[a] for every row z of XY, split into the X and Y halves."""
        Z = (XY @ T.reshape(len(T), -1)).reshape((len(XY),) + T.shape[1:])
        return Z[:len(X)], Z[len(X):]

    XII, YII = along(pf.II.H)                       # Σ_a x_a II_ab, Σ_a y_a II_ab
    Ixx, Ixy, Iyy = (np.einsum("pb,pb...->p...", s, T) for s, T in ((X, XII), (Y, XII), (Y, YII)))
    f = pf.pt.field
    kb = bracket_sq(*along(pf.E.H), f) + _row_pair(Ixx, Iyy, f) - _row_pair(Ixy, Ixy, f)
    return float(kb[0]) if np.ndim(x) == 1 else kb


@dataclass(frozen=True)
class InequalityResult:
    min_margin: float
    degenerate: bool
    probes: int
    kb_probe: Optional[float] = None  # base sectional of the first frame pair

    @property
    def strict(self) -> Optional[bool]:
        """None where no pair was probed: no probes, or a one-dimensional base."""
        return None if self.probes == 0 else bool(self.min_margin > STRICT_EPS)


SEEDED_PAIRS = 6     # random orthonormal pairs added to the frame pairs
PAIR_SEED = 20240


@lru_cache(maxsize=None)
def _probe_pairs(n: int):
    """(X, Y) of shape (P, n), built once per n and read-only: the ordered
    frame pairs (e_a, e_b), a ≠ b, then SEEDED_PAIRS seeded random
    orthonormal pairs; none when n < 2."""
    X = Y = np.zeros((0, n))
    if n >= 2:
        a, b = np.nonzero(~np.eye(n, dtype=bool))
        q = np.linalg.qr(np.random.default_rng(PAIR_SEED).standard_normal((SEEDED_PAIRS, n, 2)))[0]
        X, Y = np.concatenate([np.eye(n)[a], q[..., 0]]), np.concatenate([np.eye(n)[b], q[..., 1]])
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def inequality_min_margin(pf: PointFrame) -> InequalityResult:
    """Worst-case inequality margin over frame pairs, probe-exact.

    For each ordered orthonormal pair (x, y) the probe minimization is the
    smallest eigenvalue of kb(x, y)·Q − d dᵀ, with Q[s, t] the pairing of
    the tangential parts of J_s x and J_t x and d_t = DR_t(x, y, x).  The
    pairs are the frame pairs and a few seeded random rotations of them,
    taken in chunks cut by `stack_slices`, so base_sectional's arrays along
    both vectors of a chunk's pairs fit STACK_BYTES; each chunk shares one
    batched eigenvalue call.  d contracts DR with the products x xᵀ in one
    matrix product, then with y.
    """
    n, (X, Y) = pf.n, _probe_pairs(pf.n)
    if not len(X):
        # a one-dimensional base carries no 2-planes: nothing to decide
        return InequalityResult(float("inf"), False, 0) if pf.probes else InequalityResult(0.0, True, 0)
    if not pf.probes:
        return InequalityResult(0.0, True, 0, float(base_sectional(pf, X[:1], Y[:1])[0]))
    kb0, worst = None, []
    dr_rows = pf.DR.transpose(1, 3, 0, 2).reshape(n * n, -1)                # [(a, c), (t, b)]
    for s in stack_slices(len(X), (2 * n + 16) * pf.E.H[0].nbytes + 16 * n * n):   # 2n + 16 tangents
        x, y = X[s], Y[s]
        kb = base_sectional(pf, x, y)
        kb0 = float(kb[0]) if kb0 is None else kb0
        jx = np.einsum("tba,pa->ptb", pf.L, x)
        xx = (x[:, :, None] * x[:, None, :]).reshape(len(x), -1)            # [p, (a, c)]
        drv = np.einsum("ptb,pb->pt", (xx @ dr_rows).reshape(len(x), -1, n), y)
        M = kb[:, None, None] * np.einsum("psb,ptb->pst", jx, jx) - drv[:, :, None] * drv[:, None, :]
        worst.append(np.linalg.eigvalsh(0.5 * (M + M.swapaxes(1, 2)))[:, 0].min())
    return InequalityResult(float(min(worst)), False, len(X), kb0)


def corollary_bound(shape_sq_normalized: float, theta: float):
    """Shape bound 1 / (16 tan^2 theta + 8) and whether it holds."""
    rhs = 0.0 if abs(np.cos(theta)) < 1e-12 else 1.0 / (16.0 * np.tan(theta) ** 2 + 8.0)
    return float(shape_sq_normalized), float(rhs), bool(shape_sq_normalized <= rhs + 1e-12)


# ----------------------------------------------------------------------------
# per-point analysis
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PointAnalysis:
    u: np.ndarray
    gram_min_eig: float
    shape: CertifiedMax
    theta: Optional[CertifiedMax]  # undefined over R
    fatness: FatnessResult
    parallel: ResidualResult
    radial: ResidualResult
    inequality: InequalityResult
    kb_probe: Optional[float]  # base sectional of the first frame pair
    normalization: Optional[float]
    corollary: Optional[tuple]  # (lhs, rhs, satisfied) in normalized units

    @property
    def verdict(self) -> dict:
        """The per-point verdicts, None where the result has nothing to
        decide on, as in the point record."""
        out = {"fat": self.fatness.fat, "parallel": self.parallel.holds,
               "radial": self.radial.holds, "inequality_strict": self.inequality.strict}
        if self.corollary is not None:
            out["corollary_satisfied"] = self.corollary[2]
        return out


POINT_BYTES = 256 * 2**20   # most bytes of the largest arrays of one analyzed point


def point_bytes(chart: ImmersionChart) -> int:
    """Bytes of the largest arrays of one analyzed point, with room to
    spare: 8 arrays (n, n, N, k) of the column jets and II, which also
    cover the seed's n³ (an immersion has n < N·k·real_dim); 2 arrays
    (t, n, n, n) of the derivative component DR and 3 (t, t, n, n) of the
    fatness pencil's Gram blocks, t the dimension of the vertical algebra
    (a function of field and k); and one chunk of STACK_BYTES, which the
    sphere nets and the probe pairs are cut to, whatever their count."""
    n, col = chart.dim, chart.N * chart.k * chart.field.real_dim
    t = len(alpha_basis(chart.field, chart.k))
    return 8 * n * n * (8 * col + 2 * t * n + 3 * t * t) + STACK_BYTES


def analyze_point(chart: ImmersionChart, u, normalize: bool = False) -> PointAnalysis:
    """Full frame-layer analysis of one chart point."""
    pf = point_frame(chart, u)
    shp = shape_norm(pf)
    fat = fatness_margin(pf)
    theta = fat.theta if chart.field is not Field.REAL else None
    par = parallel_residual(pf)
    rad = radial_residual(pf)
    ineq = inequality_min_margin(pf)
    lam = coro = None
    if normalize:
        lam = curvature_normalization(chart.field, chart.N, chart.k)
        if theta is not None:
            coro = corollary_bound(shp.value**2 / lam, theta.value)
    return PointAnalysis(
        u=np.asarray(u, dtype=float), gram_min_eig=pf.gram_min_eig, shape=shp,
        theta=theta, fatness=fat, parallel=par, radial=rad, inequality=ineq,
        kb_probe=ineq.kb_probe, normalization=lam, corollary=coro,
    )
