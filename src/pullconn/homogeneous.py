"""Grassmannians G_k(K^N) as homogeneous spaces: points, tangents, frame
lifts, the block Lie-algebra decomposition, geodesics and curvature.

A point is held both as a Stiefel representative V (N x k, V*V = I) and as
the projector P = V V*.  Tangent vectors are horizontal Stiefel coordinates
H (V*H = 0) with projector-model form Delta = H V* + V H*.  Relative to a
frame g = [V | W] in the isometry group, a tangent lifts to the block
matrix X~ = [[0, -B*], [B, 0]] with B = W*H; the structure algebra m sits
in the top-left k x k block as diag(alpha, 0).

All tangent-space inner products are the real pairing Re tr(H2* H1), which
agrees with the g0 norm of the lift and with the projector-model norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Field,
    complete_basis,
    ct,
    ct_stack,
    expm_alg,
    eye,
    field_of,
    frob,
    frob_stack,
    inner_re,
    matmul,
    matmul_stack,
    orthonormalize,
    quat,
    random_matrix,
    scalar_right,
    sym_eig_small,
    zeros,
)
from .constants import TOL_ALG

_IMAG_UNITS = {
    Field.COMPLEX: (1j,),
    Field.QUATERNION: (quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)),
}


@dataclass(frozen=True)
class GrassPoint:
    """A k-plane in K^N: Stiefel representative plus projector."""

    field: Field
    N: int
    k: int
    V: np.ndarray
    P: np.ndarray

    def gauge(self, u) -> "GrassPoint":
        """Same point with Stiefel representative V·u (u a k×k unitary)."""
        Vu = matmul(self.V, u)
        return GrassPoint(self.field, self.N, self.k, Vu, self.P)


def point_from_stiefel(V: np.ndarray) -> GrassPoint:
    field = field_of(V)
    N, k = V.shape[0], V.shape[1]
    G = matmul(ct(V), V)
    if frob(G - eye(field, k)) > 1e-8 * np.sqrt(k):
        V = orthonormalize(V)
    P = matmul(V, ct(V))
    return GrassPoint(field, N, k, V, P)


@dataclass(frozen=True)
class GrassTangent:
    """Tangent vector in horizontal Stiefel coordinates (V*H = 0)."""

    base: GrassPoint
    H: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        V = self.base.V
        return matmul(self.H, ct(V)) + matmul(V, ct(self.H))

    def norm(self) -> float:
        return frob(self.H)

    def inner(self, other: "GrassTangent") -> float:
        return inner_re(self.H, other.H)

    def scaled(self, c: float) -> "GrassTangent":
        return GrassTangent(self.base, self.H * c)


def tangent(pt: GrassPoint, A: np.ndarray) -> GrassTangent:
    """Horizontal projection of an ambient N×k array to a tangent at pt."""
    H = A - matmul(pt.V, matmul(ct(pt.V), A))
    return GrassTangent(pt, H)


def horizontal_stack(V: np.ndarray, A: np.ndarray, field: Field) -> np.ndarray:
    """Horizontal parts A − V(V*A) of stacked ambient N×k arrays A at
    stacked Stiefel representatives V; broadcasts over leading axes."""
    return A - matmul_stack(V, matmul_stack(ct_stack(V, field), A, field), field)


def tangent_strict(pt: GrassPoint, H: np.ndarray) -> GrassTangent:
    if frob(matmul(ct(pt.V), H)) > TOL_ALG * max(1.0, frob(H)):
        raise ValueError("H is not horizontal at the given point")
    return GrassTangent(pt, H)


def random_horizontal(rng: np.random.Generator, pt: GrassPoint, scale: float = 1.0) -> GrassTangent:
    A = random_matrix(rng, pt.field, pt.N, pt.k, scale=scale)
    return tangent(pt, A)


@dataclass(frozen=True)
class FrameLift:
    """Group element g = [V | W] whose first k columns are the Stiefel rep."""

    pt: GrassPoint
    g: np.ndarray

    @property
    def W(self) -> np.ndarray:
        return self.g[:, self.pt.k :]


def frame_lift(pt: GrassPoint, order: str = "standard") -> FrameLift:
    return FrameLift(pt, complete_basis(pt.V, order=order))


@dataclass(frozen=True)
class LieLift:
    """p-block lift of a tangent: X~ = [[0, -B*],[B, 0]], B = W*H."""

    frame: FrameLift
    B: np.ndarray

    @property
    def mat(self) -> np.ndarray:
        f = self.frame.pt.field
        N, k = self.frame.pt.N, self.frame.pt.k
        out = zeros(f, N, N)
        out[k:, :k] = self.B
        out[:k, k:] = -ct(self.B)
        return out

    def norm_g0(self) -> float:
        return frob(self.B)


def lie_lift(frame: FrameLift, t: GrassTangent) -> LieLift:
    if t.base.P is not frame.pt.P and frob(t.base.P - frame.pt.P) > 1e-9:
        raise ValueError("tangent is not based at the frame's point")
    return LieLift(frame, matmul(ct(frame.W), t.H))


def lift_to_tangent(lift: LieLift) -> GrassTangent:
    H = matmul(lift.frame.W, lift.B)
    return GrassTangent(lift.frame.pt, H)


def emb_alpha(alpha_k: np.ndarray, N: int) -> np.ndarray:
    """Embed a k×k anti-Hermitian block as diag(alpha, 0) in the N×N algebra."""
    f = field_of(alpha_k)
    k = alpha_k.shape[0]
    out = zeros(f, N, N)
    out[:k, :k] = alpha_k
    return out


def bracket(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return matmul(A, B) - matmul(B, A)


def proj_m(A: np.ndarray, k: int) -> np.ndarray:
    """Top-left k×k block (the structure-algebra component for A ∈ h⊕m⊕p)."""
    return A[:k, :k]


def proj_p_block(A: np.ndarray, k: int) -> np.ndarray:
    """Lower-left (N−k)×k block, i.e. the B-coordinates of the p-part."""
    return A[k:, :k]


def ad_alpha(alpha_k: np.ndarray, t: GrassTangent) -> GrassTangent:
    """[diag(alpha,0), X~]^p as a tangent: horizontal coordinates −H·alpha."""
    return GrassTangent(t.base, -matmul(t.H, alpha_k))


def geodesic(pt: GrassPoint, t: GrassTangent, s: float, order: str = "standard") -> GrassPoint:
    """Point of the geodesic through pt with initial velocity t at time s."""
    frame = frame_lift(pt, order=order)
    lift = lie_lift(frame, t)
    g = matmul(frame.g, expm_alg(lift.mat * s))
    return point_from_stiefel(g[:, : pt.k])


def geodesic_stiefel_k1(V: np.ndarray, H: np.ndarray, s: float = 1.0) -> np.ndarray:
    """Closed-form k = 1 geodesic Stiefel representatives (frame-free) for
    stacks of columns V, H of shape (B, N, 1[, 4]).

    V(s) = V cos(s|H|) + (H/|H|) sin(s|H|); smooth through H = 0.
    """
    c = frob_stack(H)
    small = c < 1e-14
    c = np.where(small, 1.0, c)
    x = s * c
    return np.where(small, V, V * np.cos(x) + H * (np.sin(x) / c))


def sectional_curvature_g0(x: GrassTangent, y: GrassTangent) -> float:
    """Unnormalized ambient sectional curvature k(X,Y) = |[X~,Y~]|₀²."""
    if x.base.P is not y.base.P and frob(x.base.P - y.base.P) > 1e-9:
        raise ValueError("tangents have different base points")
    Hx, Hy = x.H, y.H
    C1 = matmul(ct(Hy), Hx) - matmul(ct(Hx), Hy)
    C2 = matmul(Hy, ct(Hx)) - matmul(Hx, ct(Hy))
    return 0.5 * (frob(C1) ** 2 + frob(C2) ** 2)


# ----------------------------------------------------------------------------
# J-structures (k = 1 over C and H)
# ----------------------------------------------------------------------------

def imaginary_units(field: Field):
    if field not in _IMAG_UNITS:
        raise ValueError("J-structures exist only over C and H")
    return _IMAG_UNITS[field]


def j_apply(pt: GrassPoint, q, t: GrassTangent) -> GrassTangent:
    """Right multiplication H ↦ H·q by a unit imaginary scalar (k = 1)."""
    if pt.field is Field.REAL:
        raise ValueError("j_apply is defined only over C and H")
    if pt.k != 1:
        raise ValueError("j_apply requires k = 1")
    if pt.field is Field.COMPLEX:
        if abs(np.real(q)) > TOL_ALG or abs(abs(q) - 1.0) > 1e-8:
            raise ValueError("q must be a unit imaginary scalar")
        return GrassTangent(pt, t.H * q)
    q = np.asarray(q, dtype=float)
    if abs(q[0]) > TOL_ALG or abs(np.linalg.norm(q) - 1.0) > 1e-8:
        raise ValueError("q must be a unit imaginary quaternion")
    return GrassTangent(pt, scalar_right(t.H, q))


def wirtinger_angle(basis, x: GrassTangent) -> float:
    """Angle θ(X) between the 𝔍-orbit of X and the span of `basis`.

    Complex: arccos(|Π_T(JX)|/|X|).  Quaternion: maximize the angle over
    unit aI+bJ+cK — the minimum eigenvalue of the 3×3 Gram form of the
    projected images.
    """
    pt = x.base
    nx = x.norm()
    if nx < 1e-13:
        raise ValueError("zero tangent vector")
    coords = np.array([e.inner(x) for e in basis])
    if abs(np.dot(coords, coords) - nx**2) > 1e-6 * nx**2:
        raise ValueError("x does not lie in the span of the basis")
    units = imaginary_units(pt.field)
    proj = []
    for q in units:
        jx = j_apply(pt, q, x)
        comps = np.array([e.inner(jx) for e in basis])
        proj.append(comps)
    if pt.field is Field.COMPLEX:
        cosv = np.linalg.norm(proj[0]) / nx
        return float(np.arccos(np.clip(cosv, 0.0, 1.0)))
    G = np.array([[float(np.dot(a, b)) for b in proj] for a in proj]) / nx**2
    w, _ = sym_eig_small(G, check=False)
    lam = float(np.clip(w[0], 0.0, 1.0))
    return float(np.arccos(np.sqrt(lam)))


# ----------------------------------------------------------------------------
# curvature normalization (max ambient sectional curvature in g0 units)
# ----------------------------------------------------------------------------

def curvature_normalization(field, N: int, k: int = 1) -> float:
    """Max sectional curvature λ of G_k(K^N) in g0 units.

    Used to rescale the metric so the ambient maximal curvature is 1.  In
    g0 units λ is 4 over C and H, 1 on the real projective spaces and their
    duals, min(k, N−k) = 1, and 2 on the other real Grassmannians
    (Bendokat–Zimmermann–Absil, "A Grassmann manifold handbook", 2020).
    RP¹ has no 2-planes, so λ = 0 there.
    """
    f = Field.parse(field)
    if not 1 <= k < N:
        raise ValueError(f"G_k(K^N) needs 1 <= k < N, got k={k}, N={N}")
    if f is not Field.REAL:
        return 4.0
    if N == 2:
        return 0.0
    return 1.0 if min(k, N - k) == 1 else 2.0
