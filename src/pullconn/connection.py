"""Closed-form frame layer: vertical probes, curvature pairings, fatness,
parallelism and the curvature inequality, with per-point verdicts.

Conventions.  A vertical probe alpha is a normalized anti-Hermitian k-by-k
scalar block: over R a decomposable x y^T - y x^T built from an orthonormal
pair, over C and H (rank one) a unit imaginary scalar.  The action on
tangents is J_alpha : H -> -H alpha; pairings against curvature use
half the g0 inner product of frame brackets.  All alpha-extremizations
below are exact: linear functionals maximize to coefficient norms, and
quadratic forms minimize to extreme eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .algebra import Field, frob, inner_g0, inner_re, matmul, quat
from .constants import STRICT_EPS
from .homogeneous import (
    GrassTangent,
    LieLift,
    ad_alpha,
    bracket,
    curvature_normalization,
    emb_alpha,
    lie_lift,
    sectional_curvature_g0,
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


class DegenerateStructureError(ValueError):
    """No vertical probes exist (rank one over R has trivial algebra)."""


@dataclass(frozen=True)
class AlphaElement:
    """Normalized vertical-algebra probe."""

    field: Field
    k: int
    mat: np.ndarray
    pair: Optional[tuple] = None  # (x, y) over R

    @staticmethod
    def decomposable(x, y) -> "AlphaElement":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        k = x.shape[0]
        if abs(x @ x - 1.0) > 1e-10 or abs(y @ y - 1.0) > 1e-10 or abs(x @ y) > 1e-10:
            raise ValueError("decomposable probes need an orthonormal pair")
        return AlphaElement(Field.REAL, k, np.outer(x, y) - np.outer(y, x), (x, y))

    @staticmethod
    def imaginary_unit(field, q) -> "AlphaElement":
        f = Field.parse(field)
        if f is Field.COMPLEX:
            q = complex(q)
            if abs(q.real) > 1e-12 or abs(abs(q) - 1.0) > 1e-10:
                raise ValueError("probe must be a unit imaginary scalar")
            return AlphaElement(f, 1, np.array([[q]]))
        if f is Field.QUATERNION:
            q = np.asarray(q, dtype=float)
            if abs(q[0]) > 1e-12 or abs(np.dot(q, q) - 1.0) > 1e-10:
                raise ValueError("probe must be a unit imaginary quaternion")
            m = np.zeros((1, 1, 4))
            m[0, 0] = q
            return AlphaElement(f, 1, m)
        raise DegenerateStructureError("rank-one real bundles have no probes")

    def embedded(self, N: int) -> np.ndarray:
        return emb_alpha(self.mat, N)

    def jay(self, t: GrassTangent) -> GrassTangent:
        return ad_alpha(self.mat, t)

    def fiber_pair(self, V: np.ndarray):
        """Section pair (w, v) whose curvature pairing matches the frame value."""
        if self.field is Field.REAL:
            x, y = self.pair
            return matmul(V, x.reshape(-1, 1)), matmul(V, y.reshape(-1, 1))
        return matmul(V, self.mat), V


def alpha_basis(field: Field, k: int):
    """Probes spanning the extremization domain (exactly, per field)."""
    if field is Field.COMPLEX and k == 1:
        return [AlphaElement.imaginary_unit(field, 1j)]
    if field is Field.QUATERNION and k == 1:
        return [AlphaElement.imaginary_unit(field, quat(0, 1, 0, 0)),
                AlphaElement.imaginary_unit(field, quat(0, 0, 1, 0)),
                AlphaElement.imaginary_unit(field, quat(0, 0, 0, 1))]
    if field is Field.REAL:
        if k < 2:
            return []
        basis = []
        eye = np.eye(k)
        for a in range(k):
            for b in range(a + 1, k):
                basis.append(AlphaElement.decomposable(eye[a], eye[b]))
        return basis
    raise NotImplementedError("probes for higher-rank C/H bundles are not needed here")


# ----------------------------------------------------------------------------
# pairings and norms
# ----------------------------------------------------------------------------

def curvature_pairing(xl: LieLift, zl: LieLift, alpha: AlphaElement) -> float:
    """Half the g0 pairing of [X~, Z~] against the embedded probe."""
    if xl.frame is not zl.frame and frob(xl.frame.g - zl.frame.g) > 1e-12:
        raise ValueError("lifts live in different frames")
    N = xl.frame.pt.N
    return 0.5 * inner_g0(bracket(xl.mat, zl.mat), alpha.embedded(N))


def _check_orthonormal(tangents) -> None:
    for a, ta in enumerate(tangents):
        for b, tb in enumerate(tangents):
            want = 1.0 if a == b else 0.0
            if abs(inner_re(ta.H, tb.H) - want) > 1e-8:
                raise ValueError("tangent list must be orthonormal")


def curvature_norm(x: GrassTangent, alpha: AlphaElement, tangents) -> float:
    """Half the norm of the tangential part of J_alpha X in the given span."""
    _check_orthonormal(tangents)
    jx = alpha.jay(x)
    comps = np.array([inner_re(jx.H, t.H) for t in tangents])
    return 0.5 * float(np.linalg.norm(comps))


@dataclass(frozen=True)
class FatnessResult:
    margin: float
    alpha: Optional[AlphaElement]
    degenerate: bool
    gap: float  # certification slack of the probe minimization
    grid_low: float = 0.0  # smallest value on the probe net
    x: Optional[np.ndarray] = None  # minimizing unit tangent, frame coordinates

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
        return CertifiedMax(theta, (self.x, None), theta_grid, upper - theta)


def _jay_matrix(pf: PointFrame, alpha: AlphaElement) -> np.ndarray:
    """L[b, a] = <E_b, J_alpha E_a>: tangential action in the frame."""
    n = pf.n
    L = np.empty((n, n))
    for a in range(n):
        ja = alpha.jay(pf.E[a])
        for b in range(n):
            L[b, a] = inner_re(ja.H, pf.E[b].H)
    return L


def fatness_margin(pf: PointFrame) -> FatnessResult:
    """min over unit tangents and probes of twice the curvature norm.

    Equals the smallest singular value of the tangential J_alpha action
    L(a) = Σ_t a_t L_t, minimized over the probe family; for rank one over C
    and H it is also cos θ of the maximal Wirtinger angle.  Over R and C the
    family is finite and the minimum exact.  Over H the probes a form the
    sphere S²: σ_min is evaluated on a net of spacing δ, and the best four
    net points are refined.  Each round takes the better of an alternating
    step (fix a: x is the right singular vector; fix x: a is the λ_min
    eigenvector of the Gram of the L_t x) and a Gauss-Newton step on the
    residual L(a)x, which converges fast where the minimum is zero and
    alternation crawls.  `gap = margin − lower` certifies lower ≤ true
    minimum, with lower the larger of

    * grid_low − ℓδ, as σ_min(L(a)) is ℓ = ‖[L_1 | L_2 | L_3]‖₂-Lipschitz;
    * √(grid_low² − Λδ), as σ_min² = m + λ_min(Σ_st a_s a_t R_st) changes
      by at most Λ = √2 (Σ_st ‖R_st‖₂²)^½ times ‖a − b‖, where
      R_st = S_st − m δ_st I, S_st = ½(L_sᵀL_t + L_tᵀL_s) and m is the
      mean eigenvalue of the S_tt.  Λ = 0 when the L_t act as the
      quaternion units, so there the bound is grid_low itself;

    less an allowance for rounding in the computed singular values.
    """
    field, k = pf.pt.field, pf.pt.k
    basis = alpha_basis(field, k)
    if not basis:
        return FatnessResult(0.0, None, True, 0.0)
    mats = [_jay_matrix(pf, a) for a in basis]
    if field is not Field.QUATERNION:
        svds = [np.linalg.svd(L) for L in mats]
        i = int(np.argmin([s[-1] for _, s, _ in svds]))
        _, s, Vt = svds[i]
        return FatnessResult(float(s[-1]), basis[i], False, 0.0,
                             grid_low=float(s[-1]), x=Vt[-1])

    Ls = np.stack(mats)
    n = pf.n
    net, delta = _sphere_net(3, 17)
    vals = np.linalg.svd(np.einsum("mt,tba->mba", net, Ls), compute_uv=False)[:, -1]
    grid_low = float(vals.min())

    def sig_min(a):
        s, Vt = np.linalg.svd(np.tensordot(a, Ls, axes=1))[1:]
        return float(s[-1]), Vt[-1], a

    best = (np.inf, None, None)
    for j in np.argsort(vals, kind="stable")[:4]:
        cur = sig_min(net[j])
        for _ in range(40):
            _, x, a = cur
            Lx = Ls @ x
            La = np.tensordot(a, Ls, axes=1)
            # Gauss-Newton on the residual L(a)x, tangent to both spheres
            J = np.concatenate([Lx.T - np.outer(Lx.T @ a, a), La - np.outer(La @ x, x)], axis=1)
            step = a + np.linalg.lstsq(J, -La @ x, rcond=None)[0][:3]
            nxt = min(sig_min(np.linalg.eigh(Lx @ Lx.T)[1][:, 0]),
                      sig_min(step / np.linalg.norm(step)), key=lambda c: c[0])
            if cur[0] - nxt[0] <= 1e-15:
                break
            cur = nxt
        best = min(best, cur, key=lambda c: c[0])
    margin, bx, barg = best

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
    return FatnessResult(margin, AlphaElement.imaginary_unit(field, q), False,
                         max(margin - lower, 0.0), grid_low, bx)


# ----------------------------------------------------------------------------
# the derivative component and its residuals
# ----------------------------------------------------------------------------

def dr_component(pf: PointFrame, ff: SecondFF, x, y, z, alpha: AlphaElement,
                 path: str = "shape") -> float:
    """Component of the covariant derivative of the curvature pairing.

    x, y, z are frame-coordinate vectors.  The "shape" path contracts the
    second fundamental form against J_alpha; the "bracket" path pairs frame
    brackets of lifted tangents against the embedded probe.  The two are
    algebraically identical.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if path == "shape":
        jx = alpha.jay(pf.from_coords(x))
        jy = alpha.jay(pf.from_coords(y))
        return inner_re(ff.apply(y, z).H, jx.H) - inner_re(ff.apply(x, z).H, jy.H)
    if path != "bracket":
        raise ValueError(f"unknown path '{path}'")
    N = pf.pt.N
    xt = pf.from_coords(x)
    yt = pf.from_coords(y)
    xl = lie_lift(pf.frame, xt).mat
    yl = lie_lift(pf.frame, yt).mat
    iizy = lie_lift(pf.frame, ff.apply(z, y)).mat
    iizx = lie_lift(pf.frame, ff.apply(z, x)).mat
    emb = alpha.embedded(N)
    return inner_g0(bracket(xl, iizy), emb) - inner_g0(bracket(yl, iizx), emb)


def _extremal_abs(values) -> float:
    """Exact max of |sum_t a_t v_t| over the unit probe sphere."""
    return float(np.linalg.norm(np.asarray(values, dtype=float)))


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
    field, k = pf.pt.field, pf.pt.k
    basis = alpha_basis(field, k)
    if not basis:
        return ResidualResult(0.0, True, 0)
    n = pf.n
    eye = np.eye(n)
    worst = 0.0
    count = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            zs = [a] if radial else range(n)
            for c in zs:
                vals = [dr_component(pf, ff, eye[a], eye[b], eye[c], al)
                        for al in basis]
                worst = max(worst, _extremal_abs(vals))
                count += 1
    return ResidualResult(worst, False, count)


def parallel_residual(pf: PointFrame, ff: SecondFF) -> ResidualResult:
    """Worst probe-extremized derivative component over frame triples."""
    return _residual_over_probes(pf, ff, radial=False)


def radial_residual(pf: PointFrame, ff: SecondFF) -> ResidualResult:
    """Same, restricted to derivative direction equal to the first argument."""
    return _residual_over_probes(pf, ff, radial=True)


# ----------------------------------------------------------------------------
# curvature inequality and the corollary bound
# ----------------------------------------------------------------------------

def base_sectional(pf: PointFrame, ff: SecondFF, x, y) -> float:
    """Gauss-equation sectional curvature of the base for orthonormal x, y."""
    xt = pf.from_coords(x)
    yt = pf.from_coords(y)
    amb = sectional_curvature_g0(xt, yt)
    return amb + inner_re(ff.apply(x, x).H, ff.apply(y, y).H) \
        - inner_re(ff.apply(x, y).H, ff.apply(x, y).H)


@dataclass(frozen=True)
class InequalityResult:
    min_margin: float
    degenerate: bool
    probes: int

    @property
    def strict(self) -> Optional[bool]:
        if self.degenerate:
            return None
        return bool(self.min_margin > STRICT_EPS)


def inequality_min_margin(pf: PointFrame, ff: SecondFF, extra: int = 6,
                          seed: int = 20240) -> InequalityResult:
    """Worst-case inequality margin over frame pairs, probe-exact.

    For each ordered orthonormal pair the probe minimization is a quadratic
    eigenvalue problem and is solved exactly.  A few seeded random rotations
    of the pair are added to the deterministic frame probes.
    """
    field, k = pf.pt.field, pf.pt.k
    basis = alpha_basis(field, k)
    if not basis:
        return InequalityResult(0.0, True, 0)
    n = pf.n
    pairs = []
    eye = np.eye(n)
    for a in range(n):
        for b in range(n):
            if a != b:
                pairs.append((eye[a], eye[b]))
    if n >= 2:
        rng = np.random.default_rng(seed)
        for _ in range(extra):
            q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
            pairs.append((q[:, 0], q[:, 1]))
    if not pairs:
        # a one-dimensional base carries no 2-planes; vacuously strict
        return InequalityResult(float("inf"), False, 0)

    worst = np.inf
    for x, y in pairs:
        kb = base_sectional(pf, ff, x, y)
        jmat = np.stack([pf.tangent_coords(al.jay(pf.from_coords(x))) for al in basis])
        Q = jmat @ jmat.T  # Q[s,t] = <Pi_T J_s x, Pi_T J_t x>
        drv = np.array([dr_component(pf, ff, x, y, x, al) for al in basis])
        M = kb * Q - np.outer(drv, drv)
        lam = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]) if len(basis) > 1 \
            else float(M[0, 0])
        worst = min(worst, lam)
    return InequalityResult(worst, False, len(pairs))


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
    kb = None
    if pf.n >= 2:
        e0 = np.zeros(pf.n)
        e1 = np.zeros(pf.n)
        e0[0] = 1.0
        e1[1] = 1.0
        kb = float(base_sectional(pf, ff, e0, e1))
    lam = None
    coro = None
    if normalize:
        lam = curvature_normalization(chart.field, chart.N, chart.k)
        if theta is not None:
            coro = corollary_bound(shp.value**2 / lam, theta.value)
    w = np.linalg.eigvalsh(pf.gram)
    return PointAnalysis(
        u=np.asarray(u, dtype=float), field=chart.field, N=chart.N, k=chart.k,
        dim=chart.dim, gram_min_eig=float(w[0]), shape=shp, theta=theta,
        fatness=fat, parallel=par, radial=rad, inequality=ineq,
        kb_probe=kb, normalization=lam, corollary=coro,
    )
