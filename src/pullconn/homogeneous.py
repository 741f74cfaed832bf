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
    expm_alg,
    eye,
    field_of,
    frob,
    inner_re,
    matmul,
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


def tangent_strict(pt: GrassPoint, H: np.ndarray) -> GrassTangent:
    if frob(matmul(ct(pt.V), H)) > TOL_ALG * max(1.0, frob(H)):
        raise ValueError("H is not horizontal at the given point")
    return GrassTangent(pt, H)


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
    """Closed-form k = 1 geodesic Stiefel representative (frame-free).

    V(s) = V cos(s|H|) + (H/|H|) sin(s|H|); smooth through H = 0.
    """
    c = frob(H)
    x = s * c
    if c < 1e-14:
        return np.array(V, copy=True)
    return V * np.cos(x) + H * (np.sin(x) / c)


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

_NORMALIZATION_CACHE: dict = {}


def random_horizontal(rng: np.random.Generator, pt: GrassPoint, scale: float = 1.0) -> GrassTangent:
    A = random_matrix(rng, pt.field, pt.N, pt.k, scale=scale)
    return tangent(pt, A)


def _tangent_real_basis(pt: GrassPoint):
    """Real orthonormal basis of the horizontal space at pt."""
    f = pt.field
    W = complete_basis(pt.V)[:, pt.k :]
    out = []
    units = (1.0,) + tuple(_IMAG_UNITS.get(f, ()))
    if f is Field.COMPLEX:
        units = (1.0, 1j)
    for j in range(pt.N - pt.k):
        for a in range(pt.k):
            for q in units:
                H = zeros(f, pt.N, pt.k)
                col = W[:, j : j + 1]
                if f is Field.QUATERNION:
                    qq = quat(1.0) if isinstance(q, float) else q
                    H[:, a : a + 1] = scalar_right(col, qq)
                else:
                    H[:, a : a + 1] = col * q
                out.append(GrassTangent(pt, H))
    return out


def _max_sec_from(pt: GrassPoint, x: GrassTangent, rounds: int = 12) -> float:
    """Alternating maximization of |[X~,Y~]|₀² over unit orthonormal-ish pairs."""
    basis = _tangent_real_basis(pt)
    d = len(basis)

    def quad_matrix(z: GrassTangent) -> np.ndarray:
        M = np.zeros((d, d))
        br = [None] * d
        for a in range(d):
            Hx, Hy = z.H, basis[a].H
            C1 = matmul(ct(Hy), Hx) - matmul(ct(Hx), Hy)
            C2 = matmul(Hy, ct(Hx)) - matmul(Hx, ct(Hy))
            br[a] = (C1, C2)
        for a in range(d):
            for b in range(a, d):
                v = 0.5 * (inner_re(br[a][0], br[b][0]) + inner_re(br[a][1], br[b][1]))
                M[a, b] = v
                M[b, a] = v
        return M

    cur = x.scaled(1.0 / x.norm())
    val = 0.0
    for _ in range(rounds):
        M = quad_matrix(cur)
        w, Q = np.linalg.eigh(M)
        val = float(w[-1])
        coeffs = Q[:, -1]
        Hy = sum(c * e.H for c, e in zip(coeffs, basis))
        nxt = GrassTangent(pt, Hy)
        nxt = nxt.scaled(1.0 / nxt.norm())
        if cur.inner(nxt) < 0:
            nxt = nxt.scaled(-1.0)
        cur = nxt
    return val


def curvature_normalization(field, N: int, k: int = 1, seed: int = 2024, samples: int = 60) -> float:
    """Max sectional curvature λ of G_k(K^N) in g0 units (sampled + refined).

    Used to rescale the metric so the ambient maximal curvature is 1.
    """
    f = Field.parse(field)
    key = (f, N, k)
    if key in _NORMALIZATION_CACHE:
        return _NORMALIZATION_CACHE[key]
    rng = np.random.default_rng(seed)
    V = orthonormalize(random_matrix(rng, f, N, k))
    pt = point_from_stiefel(V)
    best = 0.0
    for _ in range(samples):
        x = random_horizontal(rng, pt)
        x = x.scaled(1.0 / x.norm())
        y = random_horizontal(rng, pt)
        y = GrassTangent(pt, y.H - x.H * x.inner(y))
        n = y.norm()
        if n < 1e-9:
            continue
        y = y.scaled(1.0 / n)
        best = max(best, sectional_curvature_g0(x, y))
    for trial in range(3):
        x = random_horizontal(rng, pt)
        best = max(best, _max_sec_from(pt, x.scaled(1.0 / x.norm())))
    _NORMALIZATION_CACHE[key] = best
    return best
