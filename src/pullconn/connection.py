"""Closed-form frame layer: fatness, parallelism and the curvature
inequality, with per-point verdicts, as contractions of the per-point
tensors of `immersion` (the J-action L and the derivative components DR).

Conventions.  A vertical probe alpha is a normalized anti-Hermitian k-by-k
scalar block: over R a decomposable x y^T - y x^T built from an orthonormal
pair, over C and H (rank one) a unit imaginary scalar.  The action on
tangents is J_alpha : H -> -H alpha; pairings against curvature use
half the g0 inner product of frame brackets.  All alpha-extremizations
below are exact: linear functionals maximize to coefficient norms, and
quadratic forms minimize to extreme eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Field, ct_stack, matmul_stack
from .constants import STRICT_EPS
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
    SecondFF,
    _sphere_net,
    point_frame,
    second_fundamental_form,
    shape_norm,
)

# ----------------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------------

def curvature_norm(x: GrassTangent, alpha: AlphaElement, tangents: GrassTangent) -> float:
    """Half the norm of the tangential part of J_alpha X in the span of the
    orthonormal stack `tangents`."""
    if np.max(np.abs(tangents.pair(tangents) - np.eye(len(tangents)))) > 1e-8:
        raise ValueError("tangent list must be orthonormal")
    return 0.5 * float(np.linalg.norm(tangents.pair(alpha.jay(x))))


@dataclass(frozen=True)
class FatnessResult:
    margin: float
    alpha: Optional[AlphaElement]
    degenerate: bool
    gap: float  # certification slack of the probe minimization
    grid_low: float = 0.0  # smallest value on the probe net
    x: Optional[np.ndarray] = None  # minimizing unit tangent, frame coordinates
    rounds: int = 0          # most refinement rounds any start took; 0 when exact
    converged: bool = True   # every start stopped by its rule before the round cap

    @property
    def fat(self) -> Optional[bool]:
        if self.degenerate:
            return None
        return bool(self.margin > STRICT_EPS)

    @property
    def theta(self) -> CertifiedMax:
        """Rank one over C and H: the maximal Wirtinger angle, cos θ = margin.

        The certificate margin − gap ≤ min bounds θ by arccos(margin − gap).
        """
        theta = float(np.arccos(np.clip(self.margin, 0.0, 1.0)))
        theta_grid = float(np.arccos(np.clip(self.grid_low, 0.0, 1.0)))
        upper = float(np.arccos(np.clip(self.margin - self.gap, 0.0, 1.0)))
        return CertifiedMax(theta, (self.x, None), theta_grid, upper - theta,
                            self.rounds, self.converged)


FATNESS_REFINE_ROUNDS = 40  # most refinement rounds per start of the S² search


def fatness_margin(pf: PointFrame) -> FatnessResult:
    """min over unit tangents and probes of twice the curvature norm.

    Equals the smallest singular value of the tangential J_alpha action
    L(a) = Σ_t a_t L_t, minimized over the probe family; for rank one over C
    and H it is also cos θ of the maximal Wirtinger angle.  Over R and C the
    family is finite and the minimum exact.  Over H the probes a form the
    sphere S²: σ_min, an even function of a, is evaluated on a net of
    spacing δ up to sign, and the best four net points are refined in
    lockstep as one stack.  Each round takes the better of an alternating
    step (fix a: x is the right singular vector; fix x: a is the λ_min
    eigenvector of the Gram of the L_t x) and a Gauss-Newton step on the
    residual L(a)x, which converges fast where the minimum is zero and
    alternation crawls; a start is frozen once a round lowers its value by
    at most 1e-15.  `gap = margin − lower` certifies lower ≤ true
    minimum, with lower the larger of

    * grid_low − ℓδ, as σ_min(L(a)) is ℓ = ‖[L_1 | L_2 | L_3]‖₂-Lipschitz;
    * √(grid_low² − Λδ), as σ_min² = m + λ_min(Σ_st a_s a_t R_st) changes
      by at most Λ = √2 (Σ_st ‖R_st‖₂²)^½ times ‖a − b‖, where
      R_st = S_st − m δ_st I, S_st = ½(L_sᵀL_t + L_tᵀL_s) and m is the
      mean eigenvalue of the S_tt.  Λ = 0 when the L_t act as the
      quaternion units, so there the bound is grid_low itself;

    less an allowance for rounding in the computed singular values.
    """
    basis = pf.probes
    if not basis:
        return FatnessResult(0.0, None, True, 0.0)
    Ls = pf.L
    if pf.pt.field is not Field.QUATERNION:
        _, s, Vt = np.linalg.svd(Ls)
        i = int(np.argmin(s[:, -1]))
        return FatnessResult(float(s[i, -1]), basis[i], False, 0.0,
                             grid_low=float(s[i, -1]), x=Vt[i, -1])

    n = pf.n
    net, delta = _sphere_net(3, 17)
    vals = np.linalg.svd(np.einsum("mt,tba->mba", net, Ls), compute_uv=False)[:, -1]
    grid_low = float(vals.min())

    def sig_min(P):
        """σ_min(L(a)) and its right singular vector for every row a of P."""
        s, Vt = np.linalg.svd(np.einsum("st,tba->sba", P, Ls))[1:]
        return s[:, -1], Vt[:, -1]

    a = net[np.argsort(vals, kind="stable")[:4]]
    cur, x = sig_min(a)
    rounds = np.zeros(len(a), dtype=int)
    live = np.arange(len(a))
    for _ in range(FATNESS_REFINE_ROUNDS):
        al, xl = a[live], x[live]
        Lx = np.einsum("tba,sa->stb", Ls, xl)          # L_t x
        La = np.einsum("st,tba->sba", al, Ls)          # L(a)
        r = np.einsum("sba,sa->sb", La, xl)            # the residual L(a)x = Σ_t a_t L_t x
        # Gauss-Newton on the residual, tangent to both spheres: the
        # minimum-norm solution of J (da, dx) = −r
        J = np.concatenate([Lx.swapaxes(1, 2) - r[:, :, None] * al[:, None, :],
                            La - r[:, :, None] * xl[:, None, :]], axis=2)
        step = al + np.einsum("sij,sj->si", np.linalg.pinv(J), -r)[:, :3]
        step /= np.linalg.norm(step, axis=1, keepdims=True)
        eig = np.linalg.eigh(np.einsum("stb,sub->stu", Lx, Lx))[1][:, :, 0]
        cand = np.concatenate([eig, step])
        cv, cx = sig_min(cand)
        m = len(live)
        gn = cv[m:] < cv[:m]   # the better of the two steps; ties go to the eigen-step
        nv = np.where(gn, cv[m:], cv[:m])
        rounds[live] += 1
        go = cur[live] - nv > 1e-15
        nxt = live[go]
        cur[nxt] = nv[go]
        a[nxt] = np.where(gn[:, None], cand[m:], cand[:m])[go]
        x[nxt] = np.where(gn[:, None], cx[m:], cx[:m])[go]
        live = nxt
        if not len(live):
            break
    j = int(np.argmin(cur))
    margin, bx, barg = float(cur[j]), x[j], a[j]

    G = np.einsum("sba,tbc->stac", Ls, Ls)  # G[s, t] = L_sᵀ L_t
    S = 0.5 * (G + G.transpose(1, 0, 2, 3))
    m = np.sum(Ls**2) / (3 * n)  # Σ_t tr S_tt / 3n
    R = S - m * np.eye(3)[:, :, None, None] * np.eye(n)
    lip = np.linalg.norm(Ls.transpose(1, 0, 2).reshape(n, 3 * n), 2)
    quad = np.sqrt(2.0 * np.sum(np.linalg.norm(R, 2, axis=(2, 3)) ** 2))
    lower = max(grid_low - lip * delta, np.sqrt(max(grid_low**2 - quad * delta, 0.0)))
    lower -= 10 * n * np.finfo(float).eps * lip  # rounding in the computed σ_min
    q = np.zeros(4)
    q[1:] = barg
    return FatnessResult(margin, AlphaElement.imaginary_unit(Field.QUATERNION, q), False,
                         max(margin - lower, 0.0), grid_low, bx, int(rounds.max()),
                         not len(live))


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
        if self.degenerate:
            return None
        return bool(self.value <= STRICT_EPS)


def _residual_over_probes(pf: PointFrame, ff: SecondFF, radial: bool) -> ResidualResult:
    """Largest probe-extremized |DR| over frame triples (E_a, E_b, E_c) with
    a ≠ b; radial triples have c = a.  The maximum of |Σ_t a_t DR_t| over
    unit probe coefficients a is the norm over t."""
    if not pf.probes:
        return ResidualResult(0.0, True, 0)
    size = np.linalg.norm(ff.DR, axis=0)
    if radial:
        size = np.diagonal(size, axis1=0, axis2=2).T   # size[a, b, a]
    vals = size[~np.eye(pf.n, dtype=bool)]
    return ResidualResult(float(vals.max(initial=0.0)), False, vals.size)


def parallel_residual(pf: PointFrame, ff: SecondFF) -> ResidualResult:
    """Worst probe-extremized derivative component over frame triples."""
    return _residual_over_probes(pf, ff, radial=False)


def radial_residual(pf: PointFrame, ff: SecondFF) -> ResidualResult:
    """Same, restricted to derivative direction equal to the first argument."""
    return _residual_over_probes(pf, ff, radial=True)


# ----------------------------------------------------------------------------
# curvature inequality and the corollary bound
# ----------------------------------------------------------------------------

def _row_pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re tr(B_p* A_p) for every row p of two stacks of the same shape."""
    return np.real(np.sum(A * np.conj(B), axis=tuple(range(1, A.ndim))))


def base_sectional(pf: PointFrame, ff: SecondFF, x, y):
    """Gauss-equation sectional curvature of the base for orthonormal
    frame-coordinate pairs x, y of shape (n,) or (P, n).

    The ambient term |[X~, Y~]|₀² = ½(|C₁|² + |C₂|²) with C₁ = Y*X − X*Y
    and C₂ = YX* − XY* is bilinear in (x, y): it contracts the bracket
    tensors C₁[a, b] = E_b*E_a − E_a*E_b and C₂[a, b] = E_bE_a* − E_aE_b*.
    """
    X, Y = np.atleast_2d(x).astype(float), np.atleast_2d(y).astype(float)
    f = pf.pt.field
    E = pf.E.H
    Eh = ct_stack(E, f)
    G1 = matmul_stack(Eh[:, None], E[None], f)     # E_a* E_b
    G2 = matmul_stack(E[:, None], Eh[None], f)     # E_a E_b*

    def bilinear(s, t, T):
        return np.einsum("pa,pb,ab...->p...", s, t, T)

    II = ff.II.H
    C1 = bilinear(X, Y, G1.swapaxes(0, 1) - G1)
    C2 = bilinear(X, Y, G2.swapaxes(0, 1) - G2)
    Ixy = bilinear(X, Y, II)
    kb = 0.5 * (_row_pair(C1, C1) + _row_pair(C2, C2)) \
        + _row_pair(bilinear(X, X, II), bilinear(Y, Y, II)) - _row_pair(Ixy, Ixy)
    return float(kb[0]) if np.ndim(x) == 1 else kb


@dataclass(frozen=True)
class InequalityResult:
    min_margin: float
    degenerate: bool
    probes: int
    kb_probe: Optional[float] = None  # base sectional of the first frame pair

    @property
    def strict(self) -> Optional[bool]:
        if self.degenerate:
            return None
        return bool(self.min_margin > STRICT_EPS)


SEEDED_PAIRS = 6     # random orthonormal pairs added to the frame pairs
PAIR_SEED = 20240


def _probe_pairs(n: int):
    """(X, Y) of shape (P, n): the ordered frame pairs (e_a, e_b), a ≠ b, then
    SEEDED_PAIRS seeded random orthonormal pairs; none when n < 2."""
    if n < 2:
        return np.zeros((0, n)), np.zeros((0, n))
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    q = np.linalg.qr(np.random.default_rng(PAIR_SEED).standard_normal((SEEDED_PAIRS, n, 2)))[0]
    return np.concatenate([np.eye(n)[a], q[..., 0]]), np.concatenate([np.eye(n)[b], q[..., 1]])


def inequality_min_margin(pf: PointFrame, ff: SecondFF) -> InequalityResult:
    """Worst-case inequality margin over frame pairs, probe-exact.

    For each ordered orthonormal pair (x, y) the probe minimization is the
    smallest eigenvalue of kb(x, y)·Q − d dᵀ, with Q[s, t] the pairing of
    the tangential parts of J_s x and J_t x and d_t = DR_t(x, y, x); all
    pairs share one batched eigenvalue call.  The pairs are the frame
    pairs and a few seeded random rotations of them.
    """
    X, Y = _probe_pairs(pf.n)
    kb = base_sectional(pf, ff, X, Y)
    kb0 = float(kb[0]) if len(kb) else None
    if not pf.probes:
        return InequalityResult(0.0, True, 0, kb0)
    if not len(X):
        # a one-dimensional base carries no 2-planes; vacuously strict
        return InequalityResult(float("inf"), False, 0)
    jx = np.einsum("tba,pa->ptb", pf.L, X)
    drv = np.einsum("tabc,pa,pb,pc->pt", ff.DR, X, Y, X)
    M = kb[:, None, None] * np.einsum("psb,ptb->pst", jx, jx) - drv[:, :, None] * drv[:, None, :]
    lam = np.linalg.eigvalsh(0.5 * (M + M.swapaxes(1, 2)))[:, 0]
    return InequalityResult(float(lam.min()), False, len(X), kb0)


def corollary_bound(shape_sq_normalized: float, theta: float):
    """Shape bound 1 / (16 tan^2 theta + 8) and whether it holds."""
    c = np.cos(theta)
    if abs(c) < 1e-12:
        rhs = 0.0
    else:
        rhs = 1.0 / (16.0 * np.tan(theta) ** 2 + 8.0)
    return float(shape_sq_normalized), float(rhs), bool(shape_sq_normalized <= rhs + 1e-12)


# ----------------------------------------------------------------------------
# per-point analysis
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PointAnalysis:
    u: np.ndarray
    field: Field
    N: int
    k: int
    dim: int
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
        out = {
            "fat": self.fatness.fat,
            "parallel": self.parallel.holds,
            "radial": self.radial.holds,
            "inequality_strict": self.inequality.strict,
        }
        if self.corollary is not None:
            out["corollary_satisfied"] = self.corollary[2]
        return out


def analyze_point(chart: ImmersionChart, u, normalize: bool = False,
                  fd_step: Optional[float] = None) -> PointAnalysis:
    """Full frame-layer analysis of one chart point."""
    kwargs = {} if fd_step is None else {"h": fd_step}
    pf = point_frame(chart, u, **kwargs)
    ff = second_fundamental_form(chart, u, pf=pf)
    shp = shape_norm(ff)
    fat = fatness_margin(pf)
    theta = fat.theta if chart.field is not Field.REAL else None
    par = parallel_residual(pf, ff)
    rad = radial_residual(pf, ff)
    ineq = inequality_min_margin(pf, ff)
    lam = None
    coro = None
    if normalize:
        lam = curvature_normalization(chart.field, chart.N, chart.k)
        if theta is not None:
            coro = corollary_bound(shp.value**2 / lam, theta.value)
    return PointAnalysis(
        u=np.asarray(u, dtype=float), field=chart.field, N=chart.N, k=chart.k,
        dim=chart.dim, gram_min_eig=pf.gram_min_eig, shape=shp, theta=theta,
        fatness=fat, parallel=par, radial=rad, inequality=ineq,
        kb_probe=ineq.kb_probe, normalization=lam, corollary=coro,
    )
