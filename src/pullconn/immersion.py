"""Parametrized immersions into Grassmannians: differentials, pull-back
frames, second fundamental form and shape norm.

Charts map an open box in R^n to Grassmannian points.  Differentials come
from an analytic formula when the chart provides one, otherwise from
central finite differences of the projector map with one Richardson level.
Second derivatives always use finite differences.  The shape norm is a
maximization over the tangent sphere; it returns a refined value together
with a grid certificate: for each grid direction the inner optimization is
solved exactly, so the global maximum is bounded by refined value +
lipschitz · net spacing.  The sphere nets are capped at NET_BUDGET points.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .algebra import Field, frob, inner_re, matmul, sym_eig_small
from .constants import FD_STEP, FD_STEP2, IMMERSION_EPS
from .homogeneous import FrameLift, GrassPoint, GrassTangent, frame_lift


class ChartDomainError(ValueError):
    """Evaluation requested too close to (or outside) the chart's box."""


class NotImmersionError(ValueError):
    """The differential dropped rank at a chart point."""

    def __init__(self, u, eigenvalue: float):
        self.u = np.array(u, dtype=float)
        self.eigenvalue = eigenvalue
        super().__init__(
            f"chart is not an immersion at u={np.round(self.u, 6).tolist()} "
            f"(min Gram eigenvalue {eigenvalue:.3e})"
        )


@dataclass(frozen=True)
class ImmersionChart:
    """A smooth map from an open box in R^n into G_k(K^N)."""

    name: str
    field: Field
    N: int
    k: int
    dim: int
    box: tuple
    eval_point: Callable[[np.ndarray], GrassPoint]
    analytic_diff: Optional[Callable[[np.ndarray], list]] = None
    params: dict = dc_field(default_factory=dict)

    def __call__(self, u) -> GrassPoint:
        return self.eval_point(np.asarray(u, dtype=float))

    def check_interior(self, u, margin: float) -> None:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ChartDomainError(f"expected {self.dim} coordinates, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ChartDomainError("non-finite chart coordinates")
        for ui, (lo, hi) in zip(u, self.box):
            if ui < lo + margin or ui > hi - margin:
                raise ChartDomainError(
                    f"coordinate {ui:.4f} within {margin:.2e} of the box [{lo}, {hi}]"
                )


def _project_tangent(pt: GrassPoint, M: np.ndarray) -> GrassTangent:
    """Ambient matrix-space direction → tangent: Δ = PM(I−P) + (I−P)MP, H = ΔV."""
    P = pt.P
    PM = matmul(P, M)
    MP = matmul(M, P)
    delta = PM + MP - 2.0 * matmul(P, MP)
    return GrassTangent(pt, matmul(delta, pt.V))


def differential(chart: ImmersionChart, u, h: float = FD_STEP, richardson: bool = True,
                 use_analytic: bool = True):
    """Coordinate differentials ∂φ/∂u_i as GrassTangents at φ(u)."""
    u = np.asarray(u, dtype=float)
    chart.check_interior(u, 2 * h)
    pt = chart(u)
    if use_analytic and chart.analytic_diff is not None:
        out = chart.analytic_diff(u)
        for t in out:
            if not np.isfinite(t.H).all():
                raise ChartDomainError("non-finite analytic differential")
        return [GrassTangent(pt, t.H) for t in out]
    out = []
    for i in range(chart.dim):
        d1 = _central_diff_P(chart, u, i, h)
        if richardson:
            d2 = _central_diff_P(chart, u, i, h / 2.0)
            d1 = (4.0 * d2 - d1) / 3.0
        out.append(_project_tangent(pt, d1))
    return out


def _central_diff_P(chart: ImmersionChart, u, i: int, h: float) -> np.ndarray:
    e = np.zeros_like(u)
    e[i] = h
    return (chart(u + e).P - chart(u - e).P) / (2.0 * h)


def _orthonormalize_real_span(vectors, tol: float = 1e-12):
    """Modified Gram–Schmidt with *real* coefficients on GrassTangent-like
    objects (tangent spaces are real vector spaces even over C/H)."""
    out = []
    for v in vectors:
        H = np.array(v.H, copy=True)
        for _ in range(2):
            for q in out:
                H = H - q.H * inner_re(H, q.H)
        n = float(np.sqrt(max(inner_re(H, H), 0.0)))
        if n < tol:
            continue
        out.append(GrassTangent(v.base, H / n))
    return out


@dataclass(frozen=True)
class PointFrame:
    """Per-point bundle: differentials, Gram matrix, orthonormal frame, frame lift."""

    chart: ImmersionChart
    u: np.ndarray
    pt: GrassPoint
    D: list            # raw coordinate differentials ∂φ/∂u_i
    gram: np.ndarray   # G_ij = Re tr(D_j* D_i)
    E: list            # orthonormal tangent frame (real inner product)
    coeff: np.ndarray  # E_a = Σ_i coeff[a, i] D_i
    frame: FrameLift

    @property
    def n(self) -> int:
        return len(self.E)

    def tangent_coords(self, t: GrassTangent) -> np.ndarray:
        """Real components of a tangent vector in the orthonormal frame."""
        return np.array([e.inner(t) for e in self.E])

    def project_tangential(self, t: GrassTangent) -> GrassTangent:
        H = sum((e.H * e.inner(t) for e in self.E), start=np.zeros_like(self.E[0].H))
        return GrassTangent(self.pt, H)

    def project_normal(self, t: GrassTangent) -> GrassTangent:
        return GrassTangent(self.pt, t.H - self.project_tangential(t).H)

    def from_coords(self, x: np.ndarray) -> GrassTangent:
        H = sum(float(c) * e.H for c, e in zip(x, self.E))
        return GrassTangent(self.pt, H)


def point_frame(
    chart: ImmersionChart,
    u,
    h: float = FD_STEP,
    completion: str = "standard",
    gauge=None,
) -> PointFrame:
    u = np.asarray(u, dtype=float)
    D = differential(chart, u, h=h)
    pt = D[0].base
    if gauge is not None:
        V = matmul(pt.V, gauge)
        pt = GrassPoint(pt.field, pt.N, pt.k, V, pt.P)
        D = [GrassTangent(pt, matmul(t.H, gauge)) for t in D]
    n = chart.dim
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = inner_re(D[i].H, D[j].H)
    w, _ = sym_eig_small(gram, check=False)
    if w[0] <= IMMERSION_EPS:
        raise NotImmersionError(u, float(w[0]))
    E = _orthonormalize_real_span(D)
    if len(E) != n:
        raise NotImmersionError(u, float(w[0]))
    coeff = np.empty((n, n))
    for a in range(n):
        coeff[a] = np.linalg.solve(gram, [inner_re(E[a].H, d.H) for d in D])
    fr = frame_lift(pt, order=completion)
    return PointFrame(chart, u, pt, D, gram, E, coeff, fr)


# ----------------------------------------------------------------------------
# second fundamental form
# ----------------------------------------------------------------------------

def _second_partial_P(chart: ImmersionChart, u, i: int, j: int, h: float) -> np.ndarray:
    ei = np.zeros_like(u)
    ei[i] = h
    if i == j:
        return (chart(u + ei).P - 2.0 * chart(u).P + chart(u - ei).P) / h**2
    ej = np.zeros_like(u)
    ej[j] = h
    return (
        chart(u + ei + ej).P - chart(u + ei - ej).P - chart(u - ei + ej).P + chart(u - ei - ej).P
    ) / (4.0 * h**2)


@dataclass(frozen=True)
class SecondFF:
    """Normal-valued second fundamental form in the orthonormal frame."""

    pf: PointFrame
    II: list                  # II[a][b]: GrassTangent, frame-indexed, normal
    symmetry_residual: float
    normality_residual: float

    def __getitem__(self, ab):
        a, b = ab
        return self.II[a][b]

    def apply(self, x: np.ndarray, y: np.ndarray) -> GrassTangent:
        """II(X, Y) for frame-coordinate vectors x, y."""
        H = np.zeros_like(self.II[0][0].H)
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                H = H + (float(xa) * float(yb)) * self.II[a][b].H
        return GrassTangent(self.pf.pt, H)


def second_fundamental_form(
    chart: ImmersionChart, u, pf: Optional[PointFrame] = None, h: float = FD_STEP2,
    richardson: bool = True,
) -> SecondFF:
    u = np.asarray(u, dtype=float)
    chart.check_interior(u, 4 * h)
    if pf is None:
        pf = point_frame(chart, u)
    n = pf.n
    pt = pf.pt

    def coord_ff(step: float):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M = _second_partial_P(chart, u, i, j, step)
                t = _project_tangent(pt, M)
                nt = pf.project_normal(t)
                out[i][j] = nt
                out[j][i] = nt
        return out

    raw = coord_ff(h)
    if richardson:
        raw2 = coord_ff(h / 2.0)
        raw = [
            [GrassTangent(pt, (4.0 * raw2[i][j].H - raw[i][j].H) / 3.0) for j in range(n)]
            for i in range(n)
        ]
    # re-express against the orthonormal frame: II(E_a, E_b) = Σ c_ai c_bj II(∂_i, ∂_j)
    C = pf.coeff
    II = []
    for a in range(n):
        row = []
        for b in range(n):
            H = np.zeros_like(raw[0][0].H)
            for i in range(n):
                for j in range(n):
                    H = H + (C[a, i] * C[b, j]) * raw[i][j].H
            row.append(GrassTangent(pt, H))
        II.append(row)
    sym = max(
        frob(II[a][b].H - II[b][a].H) for a in range(n) for b in range(n)
    )
    nrm = max(
        pf.project_tangential(II[a][b]).norm() for a in range(n) for b in range(n)
    )
    return SecondFF(pf, II, sym, nrm)


# ----------------------------------------------------------------------------
# certified sphere maximizations
# ----------------------------------------------------------------------------

NET_BUDGET = 10_000  # most points in one sphere net


def _sphere_net(dim: int, resolution: int):
    """Deterministic covering net of S^{dim-1} from a symmetric lattice.

    Returns the net as an (m, dim) array and a radius delta: every unit
    vector lies within distance delta of a net point.  The resolution is
    lowered until the lattice has at most NET_BUDGET points; past that,
    the net is the axes ±e_i, which every unit vector is within √2 of.
    """
    if dim == 1:
        return np.ones((1, 1)), 0.0
    while resolution > 2 and resolution**dim > NET_BUDGET:
        resolution -= 1
    if resolution**dim > NET_BUDGET:
        return np.concatenate([np.eye(dim), -np.eye(dim)]), float(np.sqrt(2.0))
    grid = np.linspace(-1.0, 1.0, resolution)
    flat = np.stack(np.meshgrid(*([grid] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    norms = np.linalg.norm(flat, axis=1)
    keep = norms >= 0.3
    # rounding a point of the cube surface to the lattice moves it by at
    # most half a cell diagonal; its direction moves by at most a full one
    delta = 2.0 / (resolution - 1) * np.sqrt(dim)
    return flat[keep] / norms[keep, None], delta


@dataclass(frozen=True)
class CertifiedMax:
    value: float
    argmax: tuple
    grid_best: float
    grid_gap: float

    @property
    def upper_bound(self) -> float:
        return max(self.value, self.grid_best) + self.grid_gap


def shape_norm(ff: SecondFF, resolution: int = 9, rounds: int = 60) -> CertifiedMax:
    """|S(p)| = max over unit tangent X and unit normal η of |S_η X|.

    For each X the maximization over η and the output direction is an exact
    singular value problem, so a net over the X-sphere certifies the result.
    """
    pf = ff.pf
    n = pf.n
    nu = _orthonormalize_real_span(
        [ff.II[a][b] for a in range(n) for b in range(a, n)], tol=1e-10
    )
    if not nu:
        return CertifiedMax(0.0, (np.zeros(n), None), 0.0, 0.0)
    m = len(nu)
    A = np.zeros((m, n, n))
    for c in range(m):
        for a in range(n):
            for b in range(n):
                A[c, a, b] = inner_re(ff.II[a][b].H, nu[c].H)
    lipschitz = float(np.sqrt(np.sum(A**2)))

    def eta_max(x: np.ndarray):
        M = np.einsum("cab,b->ca", A, x)
        U, s, Vt = np.linalg.svd(M)
        return float(s[0]), U[:, 0], Vt[0]

    def refine(x0: np.ndarray):
        x = x0 / np.linalg.norm(x0)
        val = 0.0
        for _ in range(rounds):
            val, eta, _ = eta_max(x)
            B = np.einsum("cab,c->ab", A, eta)
            xn = np.linalg.svd(B)[2][0]
            if np.dot(xn, x) < 0:
                xn = -xn
            if np.linalg.norm(xn - x) < 1e-14:
                x = xn
                break
            x = xn
        return val, x

    net, delta = _sphere_net(n, resolution)
    sigma = np.linalg.svd(np.einsum("cab,mb->mca", A, net), compute_uv=False)[:, 0]
    i = int(np.argmax(sigma))
    grid_best, grid_arg = float(sigma[i]), net[i]
    starts = [grid_arg] + [np.eye(n)[a] for a in range(n)]
    best, bx = 0.0, starts[0]
    for s0 in starts:
        v, x = refine(s0)
        if v > best:
            best, bx = v, x
    best = max(best, grid_best)
    return CertifiedMax(best, (bx, None), grid_best, lipschitz * delta)
