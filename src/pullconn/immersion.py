"""Parametrized immersions into Grassmannians: differentials, pull-back
frames, second fundamental form and shape norm.

Charts map an open box in R^n to Grassmannian points and evaluate a whole
stack of coordinate rows in one call.  Differentials of a stack come from
one call of the chart's analytic formula when it has one, otherwise from
central finite differences of the projector map with one Richardson level.
Second derivatives always use finite differences.  `_projector_stencil`
builds every finite-difference row, and `horizontal_stack(V, M·V)` maps a
projector derivative M to a tangent: (PM(I−P) + (I−P)MP)V = (I−P)MV.
The shape norm here and the fatness margin of `connection` are the maximum
of σ_max and the minimum of σ_min of a linear matrix pencil
T(a) = Σ_t a_t T_t over unit a.  One routine, `_pencil_extreme`, solves
both: a covering net of the sphere up to sign (built once, at most
NET_BUDGET points), lockstep refinement of the best net points, and a
bound on the true extreme from the net's radius.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .algebra import Field, frob_stack, from_real, matmul_stack, to_real
from .constants import FD_STEP, FD_STEP2, IMMERSION_EPS
from .homogeneous import GrassPoint, GrassTangent, alpha_basis, horizontal_stack


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
    """A smooth map from an open box in R^n into G_k(K^N).

    eval_point maps coordinate rows U of shape (B, dim) to the stacked
    Stiefel representatives V (B, N, k) and projectors P (B, N, N), with a
    trailing quaternion axis of length 4 over H.  analytic_diff, where the
    chart has closed-form differentials, maps the same rows to (V, P, H):
    the (V, P) of eval_point and the horizontal differentials
    H (B, dim, N, k[, 4]), H[b, i] = ∂φ/∂u_i at row b.
    """

    name: str
    field: Field
    N: int
    k: int
    dim: int
    box: tuple
    eval_point: Callable[[np.ndarray], tuple]
    analytic_diff: Optional[Callable[[np.ndarray], tuple]] = None
    params: dict = dc_field(default_factory=dict)

    def __call__(self, u) -> GrassPoint:
        V, P = self.eval_point(np.asarray(u, dtype=float)[None])
        return GrassPoint(self.field, self.N, self.k, V[0], P[0])

    def check_rows(self, U: np.ndarray, margin: float) -> None:
        """Raise ChartDomainError unless every row of U (B, dim) is finite
        and at least margin inside the box; the first failing row is named."""
        if U.ndim != 2 or U.shape[1] != self.dim:
            raise ChartDomainError(f"expected {self.dim} coordinates, got shape {U.shape[1:]}")
        lo, hi = np.array(self.box, dtype=float).T
        outside = ~((U >= lo + margin) & (U <= hi - margin))   # True on NaN
        if not outside.any():
            return
        b, i = np.argwhere(outside)[0]
        if not np.isfinite(U[b]).all():
            raise ChartDomainError("non-finite chart coordinates")
        lo, hi = self.box[i]
        raise ChartDomainError(f"coordinate {U[b, i]:.4f} within {margin:.2e} of the box [{lo}, {hi}]")


def differential(chart: ImmersionChart, u, h: float = FD_STEP, use_analytic: bool = True):
    """Coordinate differentials ∂φ/∂u_i as GrassTangents at φ(u): row 0 of
    differential_stack."""
    V, P, H = differential_stack(chart, np.asarray(u, dtype=float)[None], h, use_analytic)
    pt = GrassPoint(chart.field, chart.N, chart.k, V[0], P[0])
    return [GrassTangent(pt, Hi) for Hi in H[0]]


def differential_stack(chart: ImmersionChart, U, h: float = FD_STEP, use_analytic: bool = True):
    """Stacked (V, P, H) at every row of U (B, n), H[b, i] = ∂φ/∂u_i: one
    analytic_diff call when the chart has one, otherwise the tangent of the
    Richardson difference ∂_i P from one stencil call for all rows."""
    U = np.asarray(U, dtype=float)
    chart.check_rows(U, 2 * h)
    if use_analytic and chart.analytic_diff is not None:
        V, P, H = chart.analytic_diff(U)
        if not np.isfinite(H).all():
            raise ChartDomainError("non-finite analytic differential")
        return V, P, H
    V, P, d, _ = _projector_stencil(chart, U, h, mixed=False)
    dP = (4.0 * d[1] - d[0]) / 3.0   # the Richardson difference ∂_i P
    return V, P, horizontal_stack(V[:, None], matmul_stack(dP, V[:, None], chart.field), chart.field)


STENCIL_BYTES = 256 * 2**20   # most bytes of one point's 1 + 4n² projector stencil rows


def stencil_bytes(chart: ImmersionChart) -> int:
    """Bytes of the projectors _projector_stencil evaluates, with mixed
    differences, around one point of the chart."""
    return (1 + 4 * chart.dim**2) * chart.N**2 * chart.field.real_dim * 8


def _projector_stencil(chart: ImmersionChart, U: np.ndarray, h: float, mixed: bool = True):
    """Central differences of the projector map at the steps h and h/2 around
    every row of U (B, n), from one chart call: (V, P, d, dd) with V and P at
    the centres, the first differences d (2, B, n, N, N[, 4]) of ∂_i P and,
    when mixed, the second differences dd (2, B, n, n, N, N[, 4]) of ∂_i∂_j P
    (None otherwise); index 0 is step h, index 1 step h/2.

    The rows are the centre, u + step e_i and u − step e_i, 1 + 4n per row;
    mixed adds the corners u ± step e_i ± step e_j (i < j), 1 + 4n² in all.
    Diagonal second differences use the three-point stencil.
    """
    B, n = U.shape
    steps = np.array([h, h / 2.0])
    eye = np.eye(n)
    offsets = np.concatenate([eye, -eye])
    if mixed:
        i, j = np.triu_indices(n, 1)
        corners = np.stack([eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i], -eye[i] - eye[j]],
                           axis=1)
        offsets = np.concatenate([offsets, corners.reshape(-1, n)])
    rows = U[:, None, None] + steps[:, None, None] * offsets
    V, P = chart.eval_point(np.concatenate([U[:, None], rows.reshape(B, -1, n)], axis=1).reshape(-1, n))
    V = V.reshape((B, -1) + V.shape[1:])[:, 0]
    P = P.reshape((B, 1 + 2 * len(offsets)) + P.shape[1:])
    P0 = P[:, 0]
    P = np.moveaxis(P[:, 1:].reshape((B, 2, len(offsets)) + P0.shape[1:]), 1, 0)
    sq = (steps**2).reshape((2,) + (1,) * (P0.ndim + 1))
    pd = P[:, :, :2 * n].reshape((2, B, 2, n) + P0.shape[1:])
    d = (pd[:, :, 0] - pd[:, :, 1]) / (2.0 * steps.reshape(sq.shape))
    if not mixed:
        return V, P0, d, None
    pm = P[:, :, 2 * n:].reshape((2, B, len(i), 4) + P0.shape[1:])
    dd = np.empty((2, B, n, n) + P0.shape[1:], dtype=P.dtype)
    dd[:, :, np.arange(n), np.arange(n)] = (pd[:, :, 0] - 2.0 * P0[:, None] + pd[:, :, 1]) / sq
    dd[:, :, i, j] = dd[:, :, j, i] = (pm[:, :, :, 0] - pm[:, :, :, 1] - pm[:, :, :, 2]
                                       + pm[:, :, :, 3]) / (4.0 * sq)
    return V, P0, d, dd


def _orthonormalize_real_span(H: np.ndarray, field: Field, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis, for the real inner product, of the *real* span of
    a stack of tangents H (m, ...), which is a real vector space even over
    C/H: the right singular vectors of the stacked real coordinates whose
    singular values reach tol, from one SVD."""
    R = to_real(H, field)
    _, s, Vt = np.linalg.svd(R.reshape(len(R), -1), full_matrices=False)
    B = Vt[s >= tol]
    return from_real(B.reshape((len(B),) + R.shape[1:]), field)


@dataclass(frozen=True)
class PointFrame:
    """Per-point bundle: differentials, Gram matrix, orthonormal frame, and
    the tangential J-action of the vertical probes, computed on first use."""

    chart: ImmersionChart
    u: np.ndarray
    pt: GrassPoint
    D: GrassTangent       # raw coordinate differentials ∂φ/∂u_i, stacked
    gram: np.ndarray      # G_ij = Re tr(D_j* D_i)
    gram_min_eig: float
    E: GrassTangent       # orthonormal tangent frame (real inner product), stacked
    coeff: np.ndarray     # E_a = Σ_i coeff[a, i] D_i

    @property
    def n(self) -> int:
        return len(self.E)

    @cached_property
    def probes(self) -> list:
        return alpha_basis(self.pt.field, self.pt.k)

    @cached_property
    def jay(self) -> GrassTangent:
        """J_t E_a for every probe t and frame index a, H of shape (p, n, N, k[, 4]);
        p = 0 at a point without probes."""
        H = [al.jay(self.E).H for al in self.probes]
        return GrassTangent(self.pt, np.stack(H) if H else np.zeros((0,) + self.E.H.shape,
                                                                   self.E.H.dtype))

    @cached_property
    def L(self) -> np.ndarray:
        """L[t, b, a] = <E_b, J_t E_a>: the tangential J-action in the frame."""
        return self.E.pair(self.jay).transpose(1, 0, 2)

    def tangent_coords(self, t: GrassTangent) -> np.ndarray:
        """Real components of a tangent vector (or stack) in the orthonormal frame."""
        return t.pair(self.E)

    def from_coords(self, x) -> GrassTangent:
        return GrassTangent(self.pt, np.tensordot(x, self.E.H, axes=1))

    def project_tangential(self, t: GrassTangent) -> GrassTangent:
        return self.from_coords(self.tangent_coords(t))

    def project_normal(self, t: GrassTangent) -> GrassTangent:
        return GrassTangent(self.pt, t.H - self.project_tangential(t).H)


def point_frame(chart: ImmersionChart, u, h: float = FD_STEP, gauge=None) -> PointFrame:
    """Differentials, Gram matrix and the Gram–Schmidt frame at φ(u).

    With gram = LLᵀ the Cholesky factorization, coeff = L⁻¹ is lower
    triangular, so E = coeff·D is the Gram–Schmidt frame in index order.
    `gauge` (a k×k unitary) replaces the Stiefel representative V by V·gauge.
    """
    u = np.asarray(u, dtype=float)
    f = chart.field
    V, P, H = differential_stack(chart, u[None], h)
    V, H = V[0], H[0]
    if gauge is not None:
        V, H = matmul_stack(V, gauge, f), matmul_stack(H, gauge, f)
    pt = GrassPoint(f, chart.N, chart.k, V, P[0])
    D = GrassTangent(pt, H)
    gram = D.pair(D)
    w = np.linalg.eigvalsh(gram)
    if w[0] <= IMMERSION_EPS:
        raise NotImmersionError(u, float(w[0]))
    coeff = np.linalg.inv(np.linalg.cholesky(gram))
    E = GrassTangent(pt, np.tensordot(coeff, H, axes=1))
    return PointFrame(chart, u, pt, D, gram, float(w[0]), E, coeff)


# ----------------------------------------------------------------------------
# second fundamental form
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondFF:
    """Normal-valued second fundamental form in the orthonormal frame."""

    pf: PointFrame
    II: GrassTangent          # II[a][b] = II(E_a, E_b), H of shape (n, n, N, k[, 4])
    symmetry_residual: float
    normality_residual: float

    @cached_property
    def DR(self) -> np.ndarray:
        """DR[t, a, b, c], the derivative component of the curvature pairing
        on the frame triple (E_a, E_b, E_c) for probe t: M − M with a and b
        swapped, where M[t, a, b, c] = <II_bc, J_t E_a>."""
        M = self.II.pair(self.pf.jay).transpose(2, 3, 0, 1)
        return M - M.swapaxes(1, 2)


def second_fundamental_form(
    chart: ImmersionChart, u, pf: Optional[PointFrame] = None, h: float = FD_STEP2,
) -> SecondFF:
    """Normal part of the second derivatives at steps h and h/2, one
    Richardson level, re-expressed against the orthonormal frame:
    II(E_a, E_b) = Σ_ij coeff[a, i] coeff[b, j] II(∂_i, ∂_j)."""
    u = np.asarray(u, dtype=float)
    chart.check_rows(u[None], 4 * h)
    if pf is None:
        pf = point_frame(chart, u)
    pt, f = pf.pt, pf.pt.field
    dd = _projector_stencil(chart, u[None], h)[3][:, 0]
    ddP = GrassTangent(pt, horizontal_stack(pt.V, matmul_stack(dd, pt.V, f), f))
    normal = pf.project_normal(ddP).H
    raw = (4.0 * normal[1] - normal[0]) / 3.0
    II = GrassTangent(pt, np.einsum("ai,bj,ij...->ab...", pf.coeff, pf.coeff, raw))
    n = pf.n
    flat = (n * n,) + II.H.shape[2:]
    sym = frob_stack((II.H - II.H.swapaxes(0, 1)).reshape(flat)).max()
    nrm = frob_stack(pf.project_tangential(II).H.reshape(flat)).max()
    return SecondFF(pf, II, float(sym), float(nrm))


# ----------------------------------------------------------------------------
# the certified sphere extremizer
# ----------------------------------------------------------------------------

NET_BUDGET = 10_000  # most points in one sphere net


def _surface_count(dim: int, resolution: int) -> int:
    """Lattice points on the surface of the cube, one per antipodal pair."""
    return (resolution**dim - (resolution - 2)**dim) // 2


@lru_cache(maxsize=None)
def _sphere_net(dim: int, resolution: int):
    """Deterministic covering net of S^{dim-1} up to sign, dim ≥ 2, built
    once per (dim, resolution) and returned read-only.

    The searched functions are even, f(x) = f(−x), so the net need only
    cover each direction up to sign.  It is the normalized lattice points
    of {−1, −1 + 2/(r−1), …, 1}^dim on the cube surface ‖v‖∞ = 1 whose
    first nonzero coordinate is positive, (r^dim − (r−2)^dim)/2 of them,
    with radius delta = √(dim−1)/(r−1): every unit vector v lies within
    delta of a net point or its negative.

    Proof.  p = v/‖v‖∞ lies on a face of the cube, |p_i| = 1 for some i.
    Rounding its other dim−1 coordinates to the lattice moves p by at most
    √(dim−1)/(r−1), to a surface lattice point q, which is ± a net point.
    Outside the unit ball, radial projection x ↦ x/‖x‖ is the metric
    projection onto that convex set, so it is 1-Lipschitz; ‖p‖, ‖q‖ ≥ 1,
    hence ‖v − q/‖q‖‖ ≤ ‖p − q‖.

    The resolution is lowered until the net has at most NET_BUDGET points;
    past that, the net is the axes e_i, which every unit vector is within
    √2 of up to sign.
    """
    while resolution > 2 and _surface_count(dim, resolution) > NET_BUDGET:
        resolution -= 1
    if _surface_count(dim, resolution) > NET_BUDGET:
        net, delta = np.eye(dim), float(np.sqrt(2.0))
    else:
        side = resolution - 1   # the lattice scaled to integers 2j − side
        grid = np.arange(-side, side + 1, 2)
        flat = np.stack(np.meshgrid(*([grid] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        first = flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)]
        flat = flat[(np.abs(flat).max(axis=1) == side) & (first > 0)]
        net = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        delta = float(np.sqrt(dim - 1) / side)
    net.flags.writeable = False
    return net, delta


@dataclass(frozen=True)
class CertifiedMax:
    """A certified maximum or minimum over a sphere: the refined value, the
    best net value grid_best, and gap = |bound − value| for the certified
    bound, so value + gap bounds a maximum and value − gap a minimum."""

    value: float
    argmax: tuple            # (sphere point, singular vector) at the extreme
    grid_best: float
    gap: float
    rounds: int = 0          # most refinement rounds any start took; 0 when exact
    converged: bool = True   # every start stopped by its rule before the round cap

    @property
    def upper_bound(self) -> float:
        return self.value + self.gap


REFINE_ROUNDS = 60  # most refinement rounds per start


def _pencil_extreme(T: np.ndarray, largest: bool, resolution: int) -> CertifiedMax:
    """max over unit a of σ_max(T(a)), or min of σ_min(T(a)), for the pencil
    T(a) = Σ_t a_t T_t of T (p, m, n); argmax = (a, x) with x the extreme
    right singular vector of T(a).  p = 1 is one exact SVD.

    σ(T(a)) is even in a; it is evaluated on _sphere_net(p, resolution), of
    radius δ up to sign (σ_max as √λ_max of the Gram T(a)ᵀT(a), σ_min by
    SVD, which resolves it near 0).  The best four net points are refined in
    lockstep.  A maximum fixes the left singular vector u of T(a) and takes
    (a, x) as the top singular pair of the rows uᵀT_t.  A minimum takes the
    better of an alternating step (a is the λ_min eigenvector of the Gram of
    the T_t x) and a Gauss-Newton step on T(a)x, which converges near a zero
    minimum, where alternation crawls.  A start stops once a round improves
    its value v by at most 1e-15·max(1, v), or after REFINE_ROUNDS.

    The certified bound is the better of grid ± ℓδ, as σ(T(a)) is
    ℓ = ‖[T_1 | … | T_p]‖₂-Lipschitz, and √(grid² ± Λδ), as
    σ² = c + λ(Σ_st a_s a_t R_st) moves by at most Λ‖a − b‖ with
    Λ = √2 (Σ_st ‖R_st‖₂²)^½, R_st = S_st − c δ_st I, S_st = ½(T_sᵀT_t + T_tᵀT_s)
    and c the mean eigenvalue of the S_tt (Λ = 0 for the quaternion units);
    less a rounding allowance.
    """
    p, m, n = T.shape
    j = 0 if largest else -1
    if p == 1:
        _, s, Vt = np.linalg.svd(T)
        return CertifiedMax(float(s[0, j]), (np.ones(1), Vt[0, j]), float(s[0, j]), 0.0)
    sign = 1.0 if largest else -1.0
    G = np.einsum("sci,tcj->stij", T, T)   # G[s, t] = T_sᵀ T_t

    def sig(A):
        """σ(T(a)) and its left and right singular vectors for every row a of A."""
        U, s, Vt = np.linalg.svd(np.einsum("st,tij->sij", A, T))
        return s[:, j], U[:, :, j], Vt[:, j]

    net, delta = _sphere_net(p, resolution)
    if largest:
        gram = ((net[:, :, None] * net[:, None, :]).reshape(-1, p * p)
                @ G.reshape(p * p, n * n)).reshape(-1, n, n)
        vals = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    else:
        vals = np.linalg.svd(np.einsum("st,tij->sij", net, T), compute_uv=False)[:, -1]
    order = np.argsort(-sign * vals, kind="stable")[:4]
    grid = float(vals[order[0]])

    a = net[order]
    cur, u, x = sig(a)
    live = np.arange(len(a))
    for rounds in range(1, REFINE_ROUNDS + 1):   # the longest-lived start's count
        if largest:
            na = np.linalg.svd(np.einsum("si,tij->stj", u[live], T))[0][:, :, 0]
            nv, nu, nx = sig(na)
        else:
            al, xl = a[live], x[live]
            Tx = np.einsum("tij,sj->sti", T, xl)         # T_t x
            Ta = np.einsum("st,tij->sij", al, T)         # T(a)
            r = np.einsum("sij,sj->si", Ta, xl)          # the residual T(a)x = Σ_t a_t T_t x
            # Gauss-Newton on the residual, tangent to both spheres: the
            # minimum-norm solution of J (da, dx) = −r
            J = np.concatenate([Tx.swapaxes(1, 2) - r[:, :, None] * al[:, None, :],
                                Ta - r[:, :, None] * xl[:, None, :]], axis=2)
            step = al + np.einsum("sij,sj->si", np.linalg.pinv(J), -r)[:, :p]
            step /= np.linalg.norm(step, axis=1, keepdims=True)
            eig = np.linalg.eigh(np.einsum("sti,sui->stu", Tx, Tx))[1][:, :, 0]
            cand = np.concatenate([eig, step])
            cv, cu, cx = sig(cand)
            k = len(live)
            pick = np.arange(k) + k * (cv[k:] < cv[:k])   # ties go to the eigen-step
            na, nv, nu, nx = cand[pick], cv[pick], cu[pick], cx[pick]
        old = cur[live]
        go = sign * (nv - old) > 1e-15 * np.maximum(1.0, old)
        live = live[go]
        cur[live], a[live], u[live], x[live] = nv[go], na[go], nu[go], nx[go]
        if not len(live):
            break
    b = int(np.argmax(sign * cur))
    value = max(float(cur[b]), grid) if largest else min(float(cur[b]), grid)

    R2 = G + G.transpose(1, 0, 2, 3)                       # 2 S_st, then 2 R_st
    R2[np.diag_indices(p)] -= 2.0 * np.sum(T**2) / (p * n) * np.eye(n)
    w = np.linalg.eigvalsh(R2)                             # ‖R_st‖₂ from the extreme eigenvalues
    quad = np.sqrt(0.5 * np.sum(np.maximum(-w[..., 0], w[..., -1]) ** 2))
    lip = np.sqrt(max(np.linalg.eigvalsh(G.transpose(0, 2, 1, 3).reshape(p * n, p * n))[-1], 0.0))
    lin = grid + sign * lip * delta
    root = np.sqrt(max(grid**2 + sign * quad * delta, 0.0))
    bound = (min(lin, root) if largest else max(lin, root)) \
        + sign * 10 * max(m, n) * np.finfo(float).eps * lip   # rounding in the computed σ
    return CertifiedMax(value, (a[b], x[b]), grid, abs(float(bound) - value),
                        rounds, not len(live))


SHAPE_NET_RESOLUTION = 9  # lattice points per axis of the shape norm's sphere net


def shape_norm(ff: SecondFF) -> CertifiedMax:
    """|S(p)| = max over unit tangent X and unit normal η of |S_η X|: the
    largest σ_max(A·x) over unit x, A[c, a, b] = <II_ab, ν_c> for an
    orthonormal basis ν of the span of II; argmax[0] is the unit tangent."""
    n = ff.pf.n
    nu = _orthonormalize_real_span(ff.II.H[np.triu_indices(n)], ff.pf.pt.field, tol=1e-10)
    if not len(nu):
        return CertifiedMax(0.0, (np.zeros(n), None), 0.0, 0.0)
    A = GrassTangent(ff.pf.pt, nu).pair(ff.II)   # A[c, a, b] = <II_ab, ν_c>
    return _pencil_extreme(A.transpose(2, 0, 1), largest=True, resolution=SHAPE_NET_RESOLUTION)
