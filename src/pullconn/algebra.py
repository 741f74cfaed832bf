"""Dense matrix algebra over the real, complex and quaternion scalar fields.

This is the only module that knows how a scalar sits in a numpy array.
Matrices over R and C are ordinary numpy arrays (float64 / complex128).
Quaternion matrices are float64 arrays of shape (m, n, 4) holding the
(1, i, j, k) components; a quaternion scalar is a shape-(4,) array.  Other
modules read the layout through `Field.matrix_ndim`, the real basis
`units` and the real-coordinate map `to_real`/`from_real`.  The convention
throughout the package is that scalar coefficients act on column vectors
from the *right*, so that column spans stay well defined over the
noncommutative scalars.

Every matrix operation takes the field as an argument and never reads it
from an array's shape: a stack of real 4×4 matrices has the (m, n, 4)
shape of one quaternion matrix.  The operations act on stacks of matrices
with leading batch axes; a single matrix is a stack with none.
`matmul_stack`, `ct_stack` and `sq_norm` also take second-order `Jet`s.

A quaternion matrix product is one real matrix product.  The structure
tensor `QL` is the one definition of the quaternion product, and each of
the two ways `matmul_stack` forms a product is one matmul against a
reshape of it: the right-regular real form R(b) (F. Zhang, "Quaternions
and matrices of quaternions", Linear Algebra Appl. 251, 1997), for which
ab = a·R(b) on component rows, is b times `QL` reshaped (4, 16); the
component products of A's rows with B's columns are combined by `QL`
reshaped (16, 4).  A size rule picks the expansion: R(B) of the right
factor, or the component products.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from typing import Optional

import numpy as np


class Field(Enum):
    """Scalar field tag: real, complex or quaternion."""

    REAL = "r"
    COMPLEX = "c"
    QUATERNION = "h"

    @property
    def real_dim(self) -> int:
        return {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4}[self]

    @property
    def matrix_ndim(self) -> int:
        """Array axes of one matrix: 2, or 3 over H (the component axis)."""
        return 3 if self is Field.QUATERNION else 2

    @classmethod
    def parse(cls, s) -> "Field":
        if isinstance(s, Field):
            return s
        key = str(s).strip().lower()
        aliases = {
            "r": cls.REAL, "real": cls.REAL,
            "c": cls.COMPLEX, "complex": cls.COMPLEX,
            "h": cls.QUATERNION, "quaternion": cls.QUATERNION,
            "quaternionic": cls.QUATERNION,
        }
        if key not in aliases:
            raise ValueError(f"unknown scalar field {s!r} (use r, c or h)")
        return aliases[key]


class DegenerateColumnsError(ValueError):
    """Raised when a column set is numerically rank deficient."""

    def __init__(self, column: int, norm: float):
        self.column = column
        self.norm = norm
        super().__init__(
            f"column {column} is dependent on its predecessors (residual norm {norm:.3e})"
        )


# ----------------------------------------------------------------------------
# quaternion scalars
# ----------------------------------------------------------------------------

def _structure_tensor() -> np.ndarray:
    """QL[s,t,u] with e_t e_u = sum_s QL[s,t,u] e_s for the basis (1,i,j,k)."""
    L = np.zeros((4, 4, 4))
    for t in range(4):
        L[t, 0, t] = 1.0
        L[t, t, 0] = 1.0
    L[0, 0, 0] = 1.0
    for t in (1, 2, 3):
        L[0, t, t] = -1.0
    # i j = k and cyclic
    for (t, u, s) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        L[s, t, u] = 1.0
        L[s, u, t] = -1.0
    return L


QL = _structure_tensor()
_QL_RIGHT = QL.transpose(2, 1, 0).reshape(4, 16)   # [u, (t, s)]: R(b)[t, s] = Σ_u QL[s, t, u] b_u
_QL_PAIRS = QL.transpose(1, 2, 0).reshape(16, 4)   # [(t, u), s]
_QCONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat(w=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.array([w, x, y, z], dtype=float)


QONE = quat(1.0)
QI = quat(0.0, 1.0)
QJ = quat(0.0, 0.0, 1.0)
QK = quat(0.0, 0.0, 0.0, 1.0)


def qconj(a: np.ndarray) -> np.ndarray:
    """Conjugates of quaternions along a trailing component axis, as a new array."""
    return np.multiply(a, _QCONJ)


# ----------------------------------------------------------------------------
# real coordinates of scalars
# ----------------------------------------------------------------------------

def units(field: Field) -> np.ndarray:
    """The real basis (1, i[, j, k]) of the field, one first, as scalars."""
    if field is Field.QUATERNION:
        return np.eye(4)
    return np.array([1.0, 1.0j][:field.real_dim])


def to_real(A: np.ndarray, field: Field) -> np.ndarray:
    """Real components of every entry of A along a trailing axis of length
    field.real_dim, in the order of `units`."""
    A = np.asarray(A)
    if field is Field.QUATERNION:
        return A.astype(float, copy=False)
    if field is Field.COMPLEX:
        return np.stack([A.real, A.imag], axis=-1)
    return A[..., None]


def from_real(R: np.ndarray, field: Field) -> np.ndarray:
    """Inverse of to_real: the scalars whose components lie along the
    trailing axis of R."""
    R = np.asarray(R)
    if field is Field.QUATERNION:
        return R
    if field is Field.COMPLEX:
        return R[..., 0] + 1j * R[..., 1]
    return R[..., 0]


# ----------------------------------------------------------------------------
# field-generic matrix operations
# ----------------------------------------------------------------------------

def eye(field: Field, n: int) -> np.ndarray:
    R = np.zeros((n, n, field.real_dim))
    R[np.arange(n), np.arange(n), 0] = 1.0
    return from_real(R, field)


def zeros(field: Field, m: int, n: int) -> np.ndarray:
    return from_real(np.zeros((m, n, field.real_dim)), field)


def matmul_stack(A: np.ndarray, B: np.ndarray, field: Field) -> np.ndarray:
    """Matrix product over the trailing matrix axes of stacked matrices, or
    of jets by the product rule.

    Over H, for A (…, m, k, 4) and B (…, k, n, 4), it is one real matrix
    product with one factor expanded four times: B's right-regular form
    R(B) (…, 4k, 4n), R(b)[t, s] = Σ_u QL[s, t, u] b_u, one product of B's
    components against `QL` reshaped (4, 16), in C = A (…, m, 4k) · R(B);
    or the component products T[m, t, n, u] = Σ_k A[m, k, t] B[k, n, u]
    (…, 4m, 4n), which read B as a view, combined by one product against
    `QL` reshaped (16, 4).  R(B) has 16·|B|·k·n entries for |B| matrices
    in B's stack and T has 16·|A·B|·m·n; the rule forms R(B) when
    |B|·k ≤ max(|A|, |B|)·m, else T.  It takes max(|A|, |B|) for the
    broadcast stack size |A·B|, which is exact when at most one stack
    broadcasts, so it forms the smaller expansion there.  A square
    product, or a stack times a small factor (M, a probe, c), expands the
    right factor, and a row against a column (V*·∂W, an inner product)
    forms T: for a 1×N row against an N×1 column R(B) would be 16N
    entries where T is 16.
    """
    if isinstance(A, Jet) or isinstance(B, Jet):
        return _product(A, B, lambda X, Y: matmul_stack(X, Y, field))
    if field is not Field.QUATERNION:
        return np.matmul(A, B)
    A, B = np.asarray(A), np.asarray(B)
    m, k, n = A.shape[-3], A.shape[-2], B.shape[-2]
    if B.size * k <= max(A.size * n, B.size * m):                       # |B|·k ≤ max(|A|, |B|)·m
        R = (B.reshape(-1, 4) @ _QL_RIGHT).reshape(B.shape[:-1] + (4, 4))
        R = R.swapaxes(-3, -2)                                           # [..., k, t, n, s]
        C = np.matmul(A.reshape(A.shape[:-3] + (m, 4 * k)), R.reshape(R.shape[:-4] + (4 * k, 4 * n)))
        return C.reshape(C.shape[:-2] + (m, n, 4))
    At = np.swapaxes(A, -1, -2).reshape(A.shape[:-3] + (4 * m, k))
    T = np.matmul(At, B.reshape(B.shape[:-3] + (k, 4 * n)))
    pairs = T.reshape(T.shape[:-2] + (m, 4, n, 4)).swapaxes(-3, -2)     # [..., m, n, t, u]
    return np.matmul(pairs.reshape(pairs.shape[:-2] + (16,)), _QL_PAIRS)


def combine(x, X: np.ndarray) -> np.ndarray:
    """Σ_i x[..., i] X[i], real coefficients x (..., n) of the stack X (n, …), as one matmul."""
    x, X = np.asarray(x), np.asarray(X)
    n, tail = X.shape[0], X.shape[1:]
    out = x.reshape(prod(x.shape[:-1]), n) @ X.reshape(n, prod(tail))
    return out.reshape(x.shape[:-1] + tail)


def ct_stack(A: np.ndarray, field: Field) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack, or of a jet."""
    if isinstance(A, Jet):
        return A.lin(lambda X: ct_stack(X, field))
    if field is Field.QUATERNION:
        return np.swapaxes(qconj(A), -3, -2)
    return np.swapaxes(np.conj(A), -1, -2)


def pair_re(X: np.ndarray, Y: np.ndarray, tail: int) -> np.ndarray:
    """Real pairings Re tr(Y_j* X_i) of every X_i with every Y_j.

    Each matrix is its trailing `tail` axes, flattened; the leading axes of
    X and then of Y index the result.  Over H the arrays are real, so the
    pairing is the plain dot product of the components.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    xs, ys = X.shape[:X.ndim - tail], Y.shape[:Y.ndim - tail]
    size = prod(X.shape[X.ndim - tail:])   # explicit, so empty stacks reshape
    out = X.reshape(prod(xs), size) @ np.conj(Y.reshape(prod(ys), size)).T
    return np.real(out).reshape(xs + ys)


def re_dot(X: np.ndarray, Y: np.ndarray, field: Field) -> np.ndarray:
    """Re tr(X* Y) of each matrix pair of two stacks, summed as inner_re sums one pair."""
    return np.add.reduce((np.conj(X) * Y).real, axis=tuple(range(-field.matrix_ndim, 0)), keepdims=True)


def sq_norm(A, field: Field):
    """Σ|a|² over each matrix of a stack, or of a jet: real, and shaped
    (with unit matrix axes) to scale the stack."""
    return _product(A, A, lambda X, Y: re_dot(X, Y, field)) if isinstance(A, Jet) else re_dot(A, A, field)


def inv_small(A: np.ndarray, field: Field) -> np.ndarray:
    """Inverse of every k×k matrix of a stack; over H 1×1 only, conj(q)/|q|²."""
    if field is not Field.QUATERNION:
        return np.linalg.inv(A)
    if A.shape[-2] != 1:
        raise NotImplementedError("quaternionic inverses above 1×1 are not needed here")
    return qconj(A) / sq_norm(A, field)


def inner_re(A: np.ndarray, B: np.ndarray) -> float:
    """Unhalved real inner product Re tr(B* A) = sum of Re(conj(b) a); over
    H the component dot product of the real arrays.  Summed as re_dot sums."""
    return float(np.add.reduce((np.conj(B) * A).real, axis=None))


def frob(A: np.ndarray) -> float:
    return float(np.sqrt(max(inner_re(A, A), 0.0)))


def _strip(v: np.ndarray, cols, field: Field) -> np.ndarray:
    """v less its components along the orthonormal columns `cols`: two
    sweeps of modified Gram-Schmidt, coefficients from the right."""
    for _ in range(2):
        for q in cols:
            v = v - matmul_stack(q, matmul_stack(ct_stack(q, field), v, field), field)
    return v


def orthonormalize(A: np.ndarray, field: Field, tol: float = 1e-12) -> np.ndarray:
    """Column orthonormalization by modified Gram-Schmidt over the scalar
    field, for one matrix or a stack (..., N, k[, 4]).

    Coefficients multiply from the right; a second sweep keeps things stable
    near machine precision.  Raises DegenerateColumnsError if some column is
    (numerically) in the span of the previous ones in any matrix.
    """
    A = np.asarray(A)
    S = A.reshape((-1,) + A.shape[A.ndim - field.matrix_ndim:])
    ncols = S.shape[2]
    scale = np.maximum(np.sqrt(sq_norm(S, field)) / max(np.sqrt(ncols), 1.0), 1.0)
    out = []
    for jcol in range(ncols):
        v = _strip(np.array(S[:, :, jcol:jcol + 1]), out, field)
        n = np.sqrt(sq_norm(v, field))
        low = n < tol * scale
        if low.any():
            raise DegenerateColumnsError(jcol, float(n[low].min()))
        out.append(v / n)
    return (out[0] if ncols == 1 else np.concatenate(out, axis=2)).reshape(A.shape)


# ----------------------------------------------------------------------------
# second-order jets
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """A stack v (B, …) with its derivatives along n real coordinates,
    d (B, n, …) = ∂_i v and dd (B, n, n, …) = ∂_i∂_j v; None above the
    order, 0, 1 or 2.  The operations follow the chain and product rules
    (Griewank and Walther, "Evaluating Derivatives", SIAM 2008).  A plain
    array is a constant: it broadcasts against the trailing axes without
    enlarging them.  `*` is entrywise, so over H one factor is real."""

    v: np.ndarray
    d: Optional[np.ndarray] = None
    dd: Optional[np.ndarray] = None

    __array_ufunc__ = None   # an array on the left defers to the reflected operation

    @staticmethod
    def seed(U: np.ndarray, order: int) -> "Jet":
        """The jet of the coordinate rows U (B, n) themselves."""
        U = np.asarray(U, dtype=float)
        B, n = U.shape
        return Jet(U, np.broadcast_to(np.eye(n), (B, n, n)) if order >= 1 else None,
                   np.zeros((B, n, n, n)) if order >= 2 else None)

    @property
    def order(self) -> int:
        return 0 if self.d is None else 1 if self.dd is None else 2

    def lin(self, f) -> "Jet":
        """f applied to every slot, for f linear on the trailing axes."""
        return Jet(f(self.v), *(None if x is None else f(x) for x in (self.d, self.dd)))

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.v + other, self.d, self.dd)
        return Jet(self.v + other.v, *(None if x is None else x + y
                                       for x, y in ((self.d, other.d), (self.dd, other.dd))))

    def __mul__(self, other) -> "Jet":
        return _product(self, other, np.multiply)

    def __sub__(self, other) -> "Jet":
        return self + other * -1.0

    def __rsub__(self, other) -> "Jet":
        return self * -1.0 + other

    __radd__, __rmul__ = __add__, __mul__


def _product(a, b, op) -> Jet:
    """op(a, b) for a bilinear op, either a constant, by the product rule
    (ab)_ij = a_ij b + a_i b_j + a_j b_i + a b_ij."""
    if not isinstance(b, Jet):
        return a.lin(lambda x: op(x, b))
    if not isinstance(a, Jet):
        return b.lin(lambda x: op(a, x))
    v = op(a.v, b.v)
    if a.d is None:
        return Jet(v)
    av, bv = a.v[:, None], b.v[:, None]
    d = op(a.d, bv) + op(av, b.d)
    if a.dd is None:
        return Jet(v, d)
    cross = op(a.d[:, :, None], b.d[:, None]) + op(a.d[:, None], b.d[:, :, None])
    return Jet(v, d, op(a.dd, bv[:, None]) + op(av[:, None], b.dd) + cross)


def apply(x: Jet, f, f1, f2) -> Jet:
    """f(x) for f entrywise with derivatives f1 and f2, real or complex
    analytic: along real coordinates the chain rule holds for both."""
    v = f(x.v)
    if x.d is None:
        return Jet(v)
    g1 = f1(x.v)[:, None]
    d = g1 * x.d
    if x.dd is None:
        return Jet(v, d)
    return Jet(v, d, g1[:, None] * x.dd + f2(x.v)[:, None, None] * (x.d[:, :, None] * x.d[:, None]))


# ----------------------------------------------------------------------------
# exponential and random matrices
# ----------------------------------------------------------------------------

def expm_alg(A: np.ndarray, field: Field) -> np.ndarray:
    """Matrix exponential over any field of one matrix or a stack
    (..., n, n[, 4]): the 18-term Taylor series of A/2^s, ‖A/2^s‖_F ≤ 1/4 at
    the stack's largest norm, squared s times (Moler & Van Loan, SIAM Rev. 45, 2003)."""
    nrm = float(np.sqrt(sq_norm(A, field).max(initial=0.0)))
    s = int(np.ceil(np.log2(nrm / 0.25))) if nrm > 0.25 else 0
    T = A / (2.0 ** s)
    out = term = eye(field, A.shape[-field.matrix_ndim])
    for mdeg in range(1, 19):
        term = matmul_stack(term, T, field) / mdeg
        out = out + term
    for _ in range(s):
        out = matmul_stack(out, out, field)
    return out


def skew_exp(A: np.ndarray, field: Field):
    """u ↦ the stack e^{u_b A} (B, ..., n, n[, 4]) over the entries of a
    column u (B,), for one skew-Hermitian A or a stack (..., n, n[, 4]).

    Over R and C from one eigendecomposition iA = Q diag(w) Q*, so that
    e^{uA} = Q diag(e^{−iuw}) Q* (Moler & Van Loan, "Nineteen dubious ways
    to compute the exponential of a matrix, twenty-five years later", SIAM
    Rev. 45, 2003, method 14); over R a contiguous copy of the real part.
    Over H one expm_alg call on the stack u_b A of every entry.
    """
    if field is Field.QUATERNION:
        return lambda u: expm_alg(np.multiply.outer(u, A), field)
    w, Q = np.linalg.eigh(1j * A)
    Qh = np.swapaxes(Q.conj(), -1, -2)

    def expo(u):
        E = (Q * np.exp(-1j * np.multiply.outer(u, w))[..., None, :]) @ Qh
        return np.ascontiguousarray(E.real) if field is Field.REAL else E
    return expo


def random_matrix(rng: np.random.Generator, field: Field, m: int, n: int, scale: float = 1.0,
                  lead: tuple = ()) -> np.ndarray:
    """Gaussian m×n matrices over the field, stacked over `lead` in the order of one call each."""
    if field is Field.COMPLEX:
        R = rng.standard_normal(lead + (2, m, n))
        return scale * (R[..., 0, :, :] + 1j * R[..., 1, :, :])
    shape = lead + ((m, n, 4) if field is Field.QUATERNION else (m, n))
    return scale * rng.standard_normal(shape)
