"""Grassmannians G_k(K^N) as homogeneous spaces: points, tangents, frame
lifts, the block Lie-algebra decomposition, vertical probes and the
curvature normalization.

A point is held both as a Stiefel representative V (N x k, V*V = I) and as
the projector P = V V*.  Tangent vectors are horizontal Stiefel coordinates
H (V*H = 0) with projector-model form Delta = H V* + V H*
(`projector_derivative`).  Relative to a frame g = [V | W] in the isometry
group, a tangent lifts to the block matrix X~ = [[0, -B*], [B, 0]] with
B = W*H; the structure algebra m sits in the top-left k x k block as
diag(alpha, 0).

All tangent-space inner products are the real pairing Re tr(H2* H1), which
agrees with the g0 norm of the lift and with the projector-model norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (
    Field,
    complete_basis,
    ct_stack,
    eye,
    frob,
    frob_stack,
    from_real,
    inner_re,
    matmul_stack,
    orthonormalize,
    pair_re,
    random_matrix,
    to_real,
    units,
    zeros,
)


@dataclass(frozen=True)
class GrassPoint:
    """A k-plane in K^N: Stiefel representative plus projector."""

    field: Field
    N: int
    k: int
    V: np.ndarray
    P: np.ndarray


def stiefel_points(V: np.ndarray, field: Field):
    """(V, P) for stacked Stiefel representatives V (B, N, k[, 4]): rows
    with V*V = I within 1e-8·√k are kept, the others orthonormalized, and
    P = V V*."""
    k = V.shape[2]
    off = frob_stack(matmul_stack(ct_stack(V, field), V, field) - eye(field, k)) > 1e-8 * np.sqrt(k)
    if off.any():
        V = np.where(off, orthonormalize(V, field), V)
    return V, matmul_stack(V, ct_stack(V, field), field)


def point_from_stiefel(V: np.ndarray, field: Field) -> GrassPoint:
    V, P = stiefel_points(np.asarray(V)[None], field)
    return GrassPoint(field, V.shape[1], V.shape[2], V[0], P[0])


@dataclass(frozen=True)
class GrassTangent:
    """Tangent vector in horizontal Stiefel coordinates (V*H = 0), or a
    stack of them: H of shape (..., N, k[, 4]).  Indexing a stack drops its
    first axis."""

    base: GrassPoint
    H: np.ndarray

    def __len__(self) -> int:
        if self.H.ndim == self.base.field.matrix_ndim:
            raise TypeError("a single tangent is not a stack")
        return len(self.H)

    def __getitem__(self, i) -> "GrassTangent":
        return GrassTangent(self.base, self.H[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def pair(self, other: "GrassTangent") -> np.ndarray:
        """Real pairings of every tangent of this stack with every one of
        `other`: shape (this stack..., other stack...)."""
        return pair_re(self.H, other.H, self.base.field.matrix_ndim)

    def norm(self) -> float:
        return frob(self.H)

    def inner(self, other: "GrassTangent") -> float:
        return inner_re(self.H, other.H)

    def scaled(self, c: float) -> "GrassTangent":
        return GrassTangent(self.base, self.H * c)


def tangent(pt: GrassPoint, A: np.ndarray) -> GrassTangent:
    """Horizontal projection of an ambient N×k array to a tangent at pt."""
    return GrassTangent(pt, horizontal_stack(pt.V, A, pt.field))


def horizontal_stack(V: np.ndarray, A: np.ndarray, field: Field) -> np.ndarray:
    """Horizontal parts A − V(V*A) of stacked ambient N×k arrays A at
    stacked Stiefel representatives V; broadcasts over leading axes."""
    return A - matmul_stack(V, matmul_stack(ct_stack(V, field), A, field), field)


def projector_derivative(V: np.ndarray, H: np.ndarray, field: Field) -> np.ndarray:
    """Projector-model form HV* + VH* of stacked horizontal coordinates H
    at stacked Stiefel representatives V: the derivative of P = VV* along
    H; broadcasts over leading axes."""
    return matmul_stack(H, ct_stack(V, field), field) + matmul_stack(V, ct_stack(H, field), field)


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
    return FrameLift(pt, complete_basis(pt.V, pt.field, order=order))


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
        out[:k, k:] = -ct_stack(self.B, f)
        return out

    def norm_g0(self) -> float:
        return frob(self.B)


def lie_lift(frame: FrameLift, t: GrassTangent) -> LieLift:
    if t.base.P is not frame.pt.P and frob(t.base.P - frame.pt.P) > 1e-9:
        raise ValueError("tangent is not based at the frame's point")
    f = frame.pt.field
    return LieLift(frame, matmul_stack(ct_stack(frame.W, f), t.H, f))


def proj_m(A: np.ndarray, k: int) -> np.ndarray:
    """Top-left k×k block (the structure-algebra component for A ∈ h⊕m⊕p)."""
    return A[:k, :k]


def ad_alpha(alpha_k: np.ndarray, t: GrassTangent) -> GrassTangent:
    """[diag(alpha,0), X~]^p as a tangent: horizontal coordinates −H·alpha,
    for one tangent or a stack."""
    return GrassTangent(t.base, -matmul_stack(t.H, alpha_k, t.base.field))


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


# ----------------------------------------------------------------------------
# vertical probes
# ----------------------------------------------------------------------------

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
        if f is Field.REAL:
            raise DegenerateStructureError("rank-one real bundles have no probes")
        r = to_real(q, f)
        if r.shape != (f.real_dim,) or abs(r[0]) > 1e-12 or abs(r @ r - 1.0) > 1e-10:
            raise ValueError("probe must be a unit imaginary scalar")
        return AlphaElement(f, 1, from_real(r.reshape(1, 1, -1), f))

    def jay(self, t: GrassTangent) -> GrassTangent:
        return ad_alpha(self.mat, t)

    def fiber_pair(self, V: np.ndarray):
        """Section pair (w, v) whose curvature pairing matches the frame value."""
        if self.field is Field.REAL:
            x, y = self.pair
            return V @ x.reshape(-1, 1), V @ y.reshape(-1, 1)
        return matmul_stack(V, self.mat, self.field), V


def alpha_basis(field: Field, k: int):
    """Probes spanning the extremization domain (exactly, per field)."""
    if field is not Field.REAL and k == 1:
        return [AlphaElement.imaginary_unit(field, q) for q in units(field)[1:]]
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
