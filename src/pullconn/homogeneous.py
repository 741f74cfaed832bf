"""Grassmannians G_k(K^N) as homogeneous spaces: points, tangents, their
lifts to the isometry algebra, vertical probes and the curvature
normalization.

A point is its Stiefel representative V (N x k, V*V = I); its projector
P = V V* is formed when read.  Tangent vectors are horizontal Stiefel
coordinates H (V*H = 0) with projector-model form Delta = H V* + V H*
(`projector_derivative`) and lift A = H V* - V H* to the isometry algebra
(`ambient_lift`; Bendokat–Zimmermann–Absil, "A Grassmann manifold
handbook", 2020).  The structure algebra m acts on the fibre, and
V*[A_X, A_Y]V is the m-part of a bracket.

All tangent-space inner products are the real pairing Re tr(H2* H1), which
agrees with the g0 norm of the lift and with the projector-model norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .algebra import (
    Field,
    Jet,
    apply,
    ct_stack,
    eye,
    frob,
    from_real,
    inner_re,
    matmul_stack,
    orthonormalize,
    pair_re,
    random_matrix,
    sq_norm,
    to_real,
    units,
)


@dataclass(frozen=True)
class GrassPoint:
    """A k-plane in K^N, held as its Stiefel representative V."""

    field: Field
    N: int
    k: int
    V: np.ndarray

    @cached_property
    def P(self) -> np.ndarray:
        """The N×N projector V V*, formed on first read."""
        return projector(self.V, self.field)


def projector(V: np.ndarray, field: Field) -> np.ndarray:
    """Projectors V V* of stacked Stiefel representatives V (..., N, k[, 4])."""
    return matmul_stack(V, ct_stack(V, field), field)


def stiefel_points(V: np.ndarray, field: Field) -> np.ndarray:
    """Stacked Stiefel representatives V (..., N, k[, 4]): matrices with
    V*V = I within 1e-8·√k are kept, the others orthonormalized."""
    k = V.shape[1 - field.matrix_ndim]
    gap = matmul_stack(ct_stack(V, field), V, field) - eye(field, k)
    off = np.sqrt(sq_norm(gap, field)) > 1e-8 * np.sqrt(k)
    return np.where(off, orthonormalize(V, field), V) if off.any() else V


def point_from_stiefel(V: np.ndarray, field: Field) -> GrassPoint:
    V = stiefel_points(np.asarray(V)[None], field)[0]
    return GrassPoint(field, V.shape[0], V.shape[1], V)


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


def ambient_lift(V: np.ndarray, H: np.ndarray, field: Field) -> np.ndarray:
    """Skew-Hermitian N×N lift HV* − VH* of stacked horizontal coordinates H
    at stacked Stiefel representatives V: g X~ g* for any frame g = [V | W],
    X~ = [[0, −B*], [B, 0]] the block lift with B = W*H, and [P', P] along
    H; broadcasts over leading axes."""
    return matmul_stack(H, ct_stack(V, field), field) - matmul_stack(V, ct_stack(H, field), field)


def random_horizontal(rng: np.random.Generator, pt: GrassPoint, scale: float = 1.0) -> GrassTangent:
    A = random_matrix(rng, pt.field, pt.N, pt.k, scale=scale)
    return tangent(pt, A)


def ad_alpha(alpha_k: np.ndarray, t: GrassTangent) -> GrassTangent:
    """[diag(alpha,0), X~]^p as a tangent: horizontal coordinates −H·alpha,
    for one tangent or a stack."""
    return GrassTangent(t.base, -matmul_stack(t.H, alpha_k, t.base.field))


def _series(coef):
    """(f, f', f'') of the power series f(g) = Σ_k coef[k] g^k."""
    return tuple(lambda g, c=c: np.power.outer(g, np.arange(len(c))) @ c
                 for c in (coef, P.polyder(coef), P.polyder(coef, 2)))


_K = np.arange(14)
# cos √g and sin √g / √g as power series in g, with two derivatives
_COS = _series((-1.0) ** _K / np.array([factorial(2 * k) for k in _K], dtype=float))
_SINC = _series((-1.0) ** _K / np.array([factorial(2 * k + 1) for k in _K], dtype=float))


def geodesic_stiefel_k1(V, H, field: Field, s: float = 1.0):
    """Closed-form k = 1 geodesic Stiefel representatives (frame-free) for
    stacks of columns V, H of shape (B, N, 1[, 4]), or for their jets.

    V(s) = V cos r + H s·sin r / r, r = s|H|, with cos r and sin r / r the
    series in g = r² below g = 1, so it is smooth through H = 0 to every
    order; above, r is halved m times into the series and doubled back by
    cos 2r = 2cos² r − 1 and sin 2r / 2r = (sin r / r)·cos r.
    """
    if not isinstance(H, Jet):
        return geodesic_stiefel_k1(Jet(V), Jet(H), field, s).v
    g = sq_norm(H * s, field)
    m = int(np.ceil(np.log2(np.max(g.v, initial=1.0)) / 2))
    g = g * 0.25**m
    c, sc = apply(g, *_COS), apply(g, *_SINC)
    for _ in range(m):
        c, sc = c * c * 2.0 - 1.0, sc * c
    return V * c + H * s * sc


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


@lru_cache(maxsize=None)
def alpha_basis(field: Field, k: int) -> tuple:
    """Probes spanning the extremization domain (exactly, per field), built
    once per (field, k) and shared, their matrices read-only."""
    if field is not Field.REAL and k == 1:
        basis = [AlphaElement.imaginary_unit(field, q) for q in units(field)[1:]]
    elif field is Field.REAL:
        eye = np.eye(k)
        basis = [AlphaElement.decomposable(eye[a], eye[b]) for a in range(k) for b in range(a + 1, k)]
    else:
        raise NotImplementedError("probes for higher-rank C/H bundles are not needed here")
    for al in basis:
        for arr in (al.mat,) + (al.pair or ()):
            arr.flags.writeable = False
    return tuple(basis)


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
