"""Parametrized immersions into Grassmannians: column jets, pull-back
frames, second fundamental form and shape norm.

A chart maps an open box in R^n to Grassmannian points through its ambient
columns W(u), whose span is the point.  It supplies only `cols`, written
once with the jet operations of `algebra`, and `chart_jet` derives
everything else from one cols call on a stack of coordinate rows: the
points V, the horizontal differentials D_i = (I−VV*)∂_iW·M with
M = (V*W)⁻¹, and the covariant second derivatives
(I−VV*)∂_i∂_jW·M − D_i c_j − D_j c_i, c_j = V*∂_jW·M, whose normal part is
II(∂_i, ∂_j).  These are exact; finite differences live only in `oracle`.
`point_frame` turns them into the one per-point object, `PointFrame`: the
orthonormal frame, the second fundamental form in it, and the probes'
J-action and derivative components, from which every per-point quantity
of this module and of `connection` is read.

The shape norm here and the fatness margin of `connection` are the
maximum of σ_max and the minimum of σ_min of a linear matrix pencil
T(a) = Σ_t a_t T_t over unit a.  One routine, `_pencil_extreme`, solves
both: one SVD when the pencil's Gram blocks enclose σ(T(a)) to rounding (a
Clifford pencil), else a covering net of the sphere up to sign (at most
NET_BUDGET points), of which only the points a bound cannot rule out of the
best four are evaluated, a Riemannian Newton refinement of the best four
and a bound from the net's radius.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .algebra import Field, Jet, combine, ct_stack, inv_small, matmul_stack, pair_re, to_real
from .constants import IMMERSION_EPS, STACK_BYTES
from .homogeneous import (GrassPoint, GrassTangent, ad_alpha, alpha_basis, horizontal_stack,
                          stiefel_points)


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

    cols maps the seed jet `Jet.seed(U, order)` of coordinate rows U
    (B, dim) to the jet of columns W (B, N, k[, 4]) spanning the points.
    eval_point maps the rows to the stacked V of `stiefel_points`, by
    default from an order-0 cols call (`dataclasses.replace` with a new
    cols keeps the old default unless given eval_point=None).
    """

    name: str
    field: Field
    N: int
    k: int
    dim: int
    box: tuple
    cols: Callable[[Jet], Jet]
    params: dict = dc_field(default_factory=dict)
    eval_point: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.eval_point is None:
            object.__setattr__(self, "eval_point", lambda U: stiefel_points(
                self.cols(Jet(np.asarray(U, dtype=float))).v, self.field))

    def __call__(self, u) -> GrassPoint:
        V = self.eval_point(np.asarray(u, dtype=float)[None])[0]
        return GrassPoint(self.field, self.N, self.k, V)

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


def chart_jet(chart: ImmersionChart, U, order: int = 2):
    """(V, D, DD) at every row of U (B, n) from one cols call of order 1
    or 2 (eval_point is the order-0 path): V as eval_point gives it, the
    horizontal differentials D (B, n, N, k[, 4]) = ∂φ/∂u_i and the covariant
    second derivatives DD (B, n, n, N, k[, 4]), whose normal part is
    II(∂_i, ∂_j); DD is None at order 1.  With the lift V = W·M,
    M = (V*W)⁻¹, ∇Z = (I−VV*)Z' − Z·V*V' gives
    ∇_j D_i = (I−VV*)∂_i∂_jW·M − D_i c_j − D_j c_i, c_j = V*∂_jW·M: the
    derivatives of M cancel, and (I−VV*)Z is `horizontal_stack`.  V*∂W is
    formed once, for D = (∂W − V·V*∂W)·M and c; where W.dd is all zero (the
    affine charts) its term is the exact zero and is not formed.
    """
    U = np.asarray(U, dtype=float)
    chart.check_rows(U, 0.0)
    f = chart.field
    W = chart.cols(Jet.seed(U, order))
    V = stiefel_points(W.v, f)
    Vs = V[:, None]
    M = inv_small(matmul_stack(ct_stack(V, f), W.v, f), f)[:, None]
    VdW = matmul_stack(ct_stack(Vs, f), W.d, f)
    D = matmul_stack(W.d - matmul_stack(Vs, VdW, f), M, f)
    c = matmul_stack(VdW, M, f)
    if not np.isfinite(D).all():
        raise ChartDomainError("non-finite chart derivative")
    if order == 1:
        return V, D, None
    Dc = matmul_stack(D[:, :, None], c[:, None], f)                       # Dc[:, i, j] = D_i c_j
    DD = -(Dc + Dc.swapaxes(1, 2))
    if W.dd.any():
        DD += matmul_stack(horizontal_stack(Vs[:, None], W.dd, f), M[:, None], f)
    return V, D, DD


@dataclass(frozen=True)
class PointFrame:
    """Everything the per-point quantities read at φ(u): the differentials,
    their Gram matrix, the orthonormal frame, the second fundamental form in
    that frame and, computed on first use, the probes' J-action and
    derivative components."""

    pt: GrassPoint
    D: GrassTangent       # raw coordinate differentials ∂φ/∂u_i, stacked
    gram: np.ndarray      # G_ij = Re tr(D_j* D_i)
    gram_min_eig: float
    E: GrassTangent       # orthonormal tangent frame (real inner product), stacked
    coeff: np.ndarray     # E_a = Σ_i coeff[a, i] D_i
    II: GrassTangent      # II[a][b] = II(E_a, E_b), H of shape (n, n, N, k[, 4])

    @property
    def n(self) -> int:
        return len(self.E)

    @cached_property
    def probes(self) -> tuple:
        return alpha_basis(self.pt.field, self.pt.k)

    @cached_property
    def jay(self) -> GrassTangent:
        """J_t E_a for every probe t and frame index a, H of shape (p, n, N, k[, 4]);
        p = 0 at a point without probes."""
        if not self.probes:
            return GrassTangent(self.pt, np.zeros((0,) + self.E.H.shape, self.E.H.dtype))
        return ad_alpha(np.stack([al.mat for al in self.probes])[:, None], self.E)

    @cached_property
    def L(self) -> np.ndarray:
        """L[t, b, a] = <E_b, J_t E_a>: the tangential J-action in the frame."""
        return self.E.pair(self.jay).transpose(1, 0, 2)

    @cached_property
    def DR(self) -> np.ndarray:
        """DR[t, a, b, c], the derivative component of the curvature pairing
        on the frame triple (E_a, E_b, E_c) for probe t: M − M with a and b
        swapped, where M[t, a, b, c] = <II_bc, J_t E_a>."""
        M = self.II.pair(self.jay).transpose(2, 3, 0, 1)
        return M - M.swapaxes(1, 2)

    def from_coords(self, x) -> GrassTangent:
        return GrassTangent(self.pt, combine(x, self.E.H))


def point_frame(chart: ImmersionChart, u, gauge=None) -> PointFrame:
    """Differentials, Gram matrix, the Gram–Schmidt frame and the second
    fundamental form at φ(u), from one order-2 chart_jet call.

    With gram = LLᵀ the Cholesky factorization, coeff = L⁻¹ is lower
    triangular, so E = coeff·D is the Gram–Schmidt frame in index order.
    II(E_a, E_b) is the normal part of Σ_ij coeff[a, i] coeff[b, j] DD_ij,
    DD the covariant second derivatives of chart_jet: less its components
    along the frame.  `gauge` (a k×k unitary) replaces the Stiefel
    representative V by V·gauge.
    """
    u = np.asarray(u, dtype=float)
    f = chart.field
    V, H, DD = (X[0] for X in chart_jet(chart, u[None]))
    if gauge is not None:
        V, H, DD = (matmul_stack(X, gauge, f) for X in (V, H, DD))
    pt = GrassPoint(f, chart.N, chart.k, V)
    D = GrassTangent(pt, H)
    gram = D.pair(D)
    w = np.linalg.eigvalsh(gram)
    if w[0] <= IMMERSION_EPS:
        raise NotImmersionError(u, float(w[0]))
    coeff = np.linalg.inv(np.linalg.cholesky(gram))
    E = GrassTangent(pt, combine(coeff, H))
    raw = combine(coeff, DD)                                              # [a, j]
    S = np.matmul(coeff, raw.reshape(len(coeff), len(coeff), -1)).reshape(raw.shape)   # [a, b]
    II = S - combine(pair_re(S, E.H, f.matrix_ndim), E.H)
    return PointFrame(pt, D, gram, float(w[0]), E, coeff, GrassTangent(pt, II))


# ----------------------------------------------------------------------------
# the certified sphere extremizer
# ----------------------------------------------------------------------------

NET_BUDGET = 10_000  # most points in one sphere net


def stack_slices(rows: int, row_bytes: int) -> list:
    """Slices of range(rows) whose arrays, row_bytes a row, fit STACK_BYTES."""
    step = max(1, STACK_BYTES // row_bytes)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _surface_count(dim: int, resolution: int) -> int:
    """Lattice points on the surface of the cube, one per antipodal pair."""
    return (resolution**dim - (resolution - 2)**dim) // 2


def _net_side(dim: int, resolution: int) -> int:
    """r − 1 of the lattice that _sphere_net(dim, resolution) keeps within
    NET_BUDGET, or 0 when the net is the axes."""
    while resolution > 2 and _surface_count(dim, resolution) > NET_BUDGET:
        resolution -= 1
    return 0 if _surface_count(dim, resolution) > NET_BUDGET else resolution - 1


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
    side = _net_side(dim, resolution)   # the lattice scaled to integers 2j − side
    if not side:
        net, delta = np.eye(dim), float(np.sqrt(2.0))
    else:
        grid = np.arange(-side, side + 1, 2)
        flat = np.stack(np.meshgrid(*([grid] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        first = flat[np.arange(len(flat)), np.argmax(flat != 0, axis=1)]
        flat = flat[(np.abs(flat).max(axis=1) == side) & (first > 0)]
        net = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        delta = float(np.sqrt(dim - 1) / side)
    net.flags.writeable = False
    return net, delta


PARENT_CHUNK = 16  # net points per block of the nearest-parent search, kept small for peak RSS


@lru_cache(maxsize=None)
def _net_levels(dim: int, resolution: int):
    """_sphere_net(dim, resolution) coarse to fine over its nested
    sub-lattices, built once per (dim, resolution) and returned read-only:
    the net indices `order`, level by level, the level boundaries `starts`
    in it, and for every point b outside the coarsest level its nearest
    point c of the coarser levels up to sign, `parent`, at distance
    `dist` = √(2 − 2|b·c|) (−1 and 0 on the coarsest level).

    Of side s = r − 1, the lattice of side s/2 is the points whose lattice
    indices (g + s)/2 are all even; its surface points with a positive first
    nonzero coordinate are net points.  The side is halved while the half
    stays even: resolution 17 gives levels of resolution 3, 5, 9 and 17.
    An odd side, and the axes, make one level, the whole net.
    """
    net, _ = _sphere_net(dim, resolution)
    side, halvings = _net_side(dim, resolution), 0
    while side and side % (4 << halvings) == 0:
        halvings += 1
    idx = np.rint((net / np.abs(net).max(axis=1, keepdims=True) + 1.0) * (side / 2)).astype(int)
    level = np.zeros(len(net), int)   # 0 on the coarsest sub-lattice
    for j in range(halvings):
        level += (idx % (2 << j) != 0).any(axis=1)
    order = np.argsort(level, kind="stable")
    starts = np.searchsorted(level[order], np.arange(halvings + 2))
    parent, dist = np.full(len(net), -1), np.zeros(len(net))
    for lv in range(1, halvings + 1):
        coarse = net[order[:starts[lv]]]
        for i in range(starts[lv], starts[lv + 1], PARENT_CHUNK):
            fine = order[i:min(i + PARENT_CHUNK, starts[lv + 1])]
            dots = np.abs(net[fine] @ coarse.T)
            near = np.argmax(dots, axis=1)
            parent[fine] = order[near]
            dist[fine] = np.sqrt(np.maximum(2.0 - 2.0 * dots[np.arange(len(fine)), near], 0.0))
    for arr in (order, starts, parent, dist):
        arr.flags.writeable = False
    return order, starts, parent, dist


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
FIRST_CHUNK = 16    # net points in a maximum's first chunk


def _newton_probes(T: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One Riemannian Newton step on ½|r|², r = T(a)x, over S^{p−1} × S^{n−1}
    from every row pair (a, x) of a (s, p) and x (s, n); the new unit a.

    With B = [T_1x … T_px | T(a)] the Euclidean gradient is g = Bᵀr and the
    Hessian BᵀB + [[0, C], [Cᵀ, 0]], C_tj = (T_tᵀr)_j, as r is bilinear;
    on the product of spheres the Weingarten terms are aᵀg_a = xᵀg_x = |r|²
    (Absil, Mahony and Sepulchre, "Optimization Algorithms on Matrix
    Manifolds", 2008).  The step is −pinv(PHP)·Pg, P the projector
    onto a⊥ × x⊥: the minimum-norm solution, which ignores the flat
    direction of a repeated σ, as the paired σ of a skew pencil.
    """
    p, n = len(T), T.shape[2]
    Ta = np.einsum("st,tij->sij", a, T)                    # T(a)
    B = np.concatenate([np.einsum("tij,sj->sit", T, x), Ta], axis=2)
    r = np.einsum("sij,sj->si", Ta, x)
    C = np.einsum("tij,si->stj", T, r)
    H = B.swapaxes(1, 2) @ B - np.sum(r * r, axis=1)[:, None, None] * np.eye(p + n)
    H[:, :p, p:] += C
    H[:, p:, :p] += C.swapaxes(1, 2)
    Z = np.zeros((len(a), 2, p + n))
    Z[:, 0, :p], Z[:, 1, p:] = a, x
    P = np.eye(p + n) - Z.swapaxes(1, 2) @ Z
    step = -np.linalg.pinv(P @ H @ P) @ (P @ (B.swapaxes(1, 2) @ r[:, :, None]))
    na = a + step[:, :p, 0]
    return na / np.linalg.norm(na, axis=1, keepdims=True)


def _pencil_extreme(T: np.ndarray, largest: bool, resolution: int) -> CertifiedMax:
    """max over unit a of σ_max(T(a)), or min of σ_min(T(a)), for the pencil
    T(a) = Σ_t a_t T_t of T (p, m, n); argmax = (a, x) with x the extreme
    right singular vector of T(a).  p = 1 is one exact SVD.

    It certifies first and searches second.  T(a)ᵀT(a) = c·I + Σ_st a_s a_t R_st
    on the unit sphere, with S_st = ½(T_sᵀT_t + T_tᵀT_s), c the mean
    eigenvalue of the S_tt and R_st = S_st − c δ_st I, so by Cauchy–Schwarz
    on (a_s a_t) every σ(T(a)) lies in [√(c − ρ), √(c + ρ)],
    ρ = (Σ_st ‖R_st‖₂²)^½.  When that interval is no wider than the rounding
    allowance ε = 10·max(m, n)·eps·ℓ, ℓ = ‖[T_1 | … | T_p]‖₂ (a Clifford
    pencil, T(a)ᵀT(a) = c|a|², as the quaternion units give), no sphere
    point can do better: value = σ(T(e_1)) from one SVD, rounds = 0, and the
    bound is the interval's end widened by ε.

    Otherwise σ(T(a)), which is even in a, is evaluated on
    _sphere_net(p, resolution), of radius δ up to sign (σ_max as √λ_max of
    the Gram T(a)ᵀT(a), σ_min by SVD, which resolves it near 0), in chunks
    of net points cut by `stack_slices`, so the stack of Grams or of T(a)
    never passes STACK_BYTES whatever the net's size, and only where a bound
    says the point can still enter the best four; the points left (±∞)
    cannot, so grid_best and the best four are those of the whole net, ties
    broken by net order.  A maximum takes σ_max in order of the bound
    ‖T(a)‖_F = √(aᵀΦa), Φ_st = <T_s, T_t>_F, in chunks of FIRST_CHUNK,
    twice that, …, until the next bound plus ε falls below the fourth-best
    value.  A minimum takes the net coarse to fine over its nested
    sub-lattices (`_net_levels`): the coarsest whole, then each point b
    whose lower bound max(s − ℓd, √max(s² − Λd, 0)) less ε reaches the
    fourth-best value so far, s the value or bound of its nearest coarser
    point c and d = √(2 − 2|b·c|) the distance to ±c (ℓ and Λ below).
    The best four net points are refined in lockstep, for either extreme by
    a Riemannian Newton step on ½|T(a)x|² over the two spheres
    (`_newton_probes`) and x the extreme right singular vector of the new
    T(a).  A start keeps only steps that improve its value v, and stops
    once a round improves it by at most 1e-15·max(1, v), or after
    REFINE_ROUNDS.

    The net's certified bound is the better of grid ± ℓδ, as σ(T(a)) is
    ℓ-Lipschitz, and √(grid² ± Λδ), as σ² moves by at most Λ‖a − b‖ with
    Λ = √2·ρ; less ε.
    """
    p, m, n = T.shape
    j = 0 if largest else -1
    if p == 1:
        _, s, Vt = np.linalg.svd(T, full_matrices=False)
        return CertifiedMax(float(s[0, j]), (np.ones(1), Vt[0, j]), float(s[0, j]), 0.0)
    sign = 1.0 if largest else -1.0
    G = np.einsum("sci,tcj->stij", T, T)   # G[s, t] = T_sᵀ T_t
    c = np.sum(T**2) / (p * n)
    R2 = G + G.transpose(1, 0, 2, 3)                       # 2 S_st, then 2 R_st
    R2[np.diag_indices(p)] -= 2.0 * c * np.eye(n)
    w = np.linalg.eigvalsh(R2)                             # ‖R_st‖₂ from the extreme eigenvalues
    rho = 0.5 * np.sqrt(np.sum(np.maximum(-w[..., 0], w[..., -1]) ** 2))
    lip = np.sqrt(max(np.linalg.eigvalsh(G.transpose(0, 2, 1, 3).reshape(p * n, p * n))[-1], 0.0))
    eps = 10 * max(m, n) * np.finfo(float).eps * lip       # rounding in the computed σ
    hi, lo = np.sqrt(c + rho), np.sqrt(max(c - rho, 0.0))
    if hi - lo <= eps:   # every σ(T(a)) is σ(T(e_1)) up to rounding
        _, s, Vt = np.linalg.svd(T[0], full_matrices=False)
        v = float(s[j])
        return CertifiedMax(v, (np.eye(p)[0], Vt[j]), v, abs(float(hi + eps if largest else lo - eps) - v))

    def sig(A):
        """σ(T(a)) and its right singular vector for every row a of A."""
        _, s, Vt = np.linalg.svd(np.einsum("st,tij->sij", A, T), full_matrices=False)
        return s[:, j], Vt[:, j]

    def net_vals(A):
        """σ(T(a)) for every row a of A, as √λ_max of the Gram or by SVD."""
        if largest:
            gram = ((A[:, :, None] * A[:, None, :]).reshape(-1, p * p)
                    @ G.reshape(p * p, n * n)).reshape(-1, n, n)
            return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        return np.linalg.svd(np.einsum("st,tij->sij", A, T), compute_uv=False)[:, -1]

    net, delta = _sphere_net(p, resolution)
    row_bytes = 8 * (p * p + 3 * n * max(m, n))   # a aᵀ, then T(a) or its Gram and LAPACK's copies
    if not largest:
        # coarse to fine: σ_min only where the bound from the nearest coarser
        # point, evaluated or bounded, can still reach the fourth-best value
        levels, starts, parent, dist = _net_levels(p, resolution)
        vals, low = np.full(len(net), np.inf), np.zeros(len(net))   # low: σ_min or its bound
        for i, k in zip(starts[:-1], starts[1:]):
            take = levels[i:k]
            if i:
                s, d = low[parent[take]], dist[take]
                low[take] = np.maximum(s - lip * d, np.sqrt(np.maximum(s**2 - np.sqrt(2.0) * rho * d, 0.0)))
                take = take[low[take] - eps <= np.partition(vals, 3)[3]]
            for sl in stack_slices(len(take), row_bytes):
                vals[take[sl]] = low[take[sl]] = net_vals(net[take[sl]])
    else:
        # ‖T(a)‖_F = √(aᵀΦa) ≥ σ_max(T(a)), Φ_st = <T_s, T_t>_F the trace of G[s, t]
        fro = np.sqrt(np.maximum(np.einsum("is,st,it->i", net, np.trace(G, axis1=2, axis2=3), net), 0.0))
        by = np.argsort(-fro, kind="stable")
        vals = np.full(len(net), -np.inf)
        i, size, most = 0, FIRST_CHUNK, max(1, STACK_BYTES // row_bytes)
        while i < len(net) and not (i and fro[by[i]] + eps < np.partition(vals, -4)[-4]):
            take = by[i:i + min(size, most)]
            vals[take] = net_vals(net[take])
            i, size = i + len(take), 2 * size
    order = np.argsort(-sign * vals, kind="stable")[:4]
    grid = float(vals[order[0]])

    a = net[order]
    cur, x = sig(a)
    live = np.arange(len(a))
    for rounds in range(1, REFINE_ROUNDS + 1):   # the longest-lived start's count
        na = _newton_probes(T, a[live], x[live])
        nv, nx = sig(na)
        old = cur[live]
        go = sign * (nv - old) > 1e-15 * np.maximum(1.0, old)
        live = live[go]
        cur[live], a[live], x[live] = nv[go], na[go], nx[go]
        if not len(live):
            break
    b = int(np.argmax(sign * cur))
    value = max(float(cur[b]), grid) if largest else min(float(cur[b]), grid)

    lin = grid + sign * lip * delta
    root = np.sqrt(max(grid**2 + sign * np.sqrt(2.0) * rho * delta, 0.0))
    bound = (min(lin, root) if largest else max(lin, root)) + sign * eps
    return CertifiedMax(value, (a[b], x[b]), grid, abs(float(bound) - value),
                        rounds, not len(live))


SHAPE_NET_RESOLUTION = 9  # lattice points per axis of the shape norm's sphere net


def shape_norm(pf: PointFrame) -> CertifiedMax:
    """|S(p)| = max over unit tangent X and unit normal η of |S_η X|: the
    largest σ_max(T(x)) over unit x, T(x) = Σ_a x_a T_a, where column b of
    T_a holds the coordinates of II_ab in any orthonormal coordinates that
    contain the span of II; σ_max(T(x)) is the same in all of them.  They
    are those of the triangular factor R of the real coordinates
    X = [II_ab]_(a,b) = QR, at most n² rows however large N·k is, and no
    normal basis Q is formed.  II zero to 1e-10 (a totally geodesic point)
    gives the exact zero; argmax[0] is the unit tangent.  σ_max is taken only
    where ‖T(x)‖_F can reach the best four (`_pencil_extreme`): on perturbed
    quaternionic charts, 16–48 of the 2,080 (n = 4) or 3,280 (n = 8) net points."""
    n, II = pf.n, pf.II.H
    if np.vdot(II, II).real <= 1e-20:
        return CertifiedMax(0.0, (np.zeros(n), None), 0.0, 0.0)
    R = np.linalg.qr(to_real(II, pf.pt.field).reshape(n * n, -1).T, mode="r")
    T = R.reshape(len(R), n, n).transpose(1, 0, 2)   # T[a, r, b] = R[r, (a, b)]
    return _pencil_extreme(T, largest=True, resolution=SHAPE_NET_RESOLUTION)
