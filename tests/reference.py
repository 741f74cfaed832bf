"""Reference computations that only the tests use.

Two kinds live here.  Independent oracles: brute-force finite-difference
curvature, the g0 frame g = [V | W] and the block lift X~ of a tangent in
it, the bracket form of the derivative component, geodesics, Wirtinger
angles, the real fibre matrices of k×k matrices over the field, the
g0 algebra helpers and the complex adjoint of quaternionic charts.  Loop
references: the per-frame-index loops that the array frame layer replaced,
kept so the tests can check the contractions against them entry by entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pullconn.algebra import (
    QL,
    DegenerateColumnsError,
    Field,
    _strip,
    ct_stack,
    expm_alg,
    eye,
    frob,
    inner_re,
    matmul_stack,
    quat,
    random_matrix,
    to_real,
    units,
    zeros,
)
from pullconn.constants import FD_STEP, bridge
from pullconn.homogeneous import (
    GrassPoint,
    GrassTangent,
    point_from_stiefel,
    projector,
    projector_derivative,
    random_horizontal,
)
from pullconn.immersion import ImmersionChart, chart_jet
from pullconn.oracle import (
    DR_BASE_STEPS,
    DR_DELTA,
    DR_TRANSPORT_STEPS,
    LoopGeneratorCheck,
    base_transport,
    bracket_m,
    curvature_pairing_fd,
    exp_chart,
    holonomy_generator,
    parallel_transport,
)

TOL_ALG = 1e-10  # exact linear algebra identities
FD_STEP2 = 10.0 ** -2.5  # step of the second differences: the II twin and nested stencils

_IMAG_UNITS = {
    Field.COMPLEX: (1j,),
    Field.QUATERNION: (quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)),
}


# ----------------------------------------------------------------------------
# scalar-field algebra
# ----------------------------------------------------------------------------

def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product, broadcasting over leading axes."""
    return np.einsum("stu,...t,...u->...s", QL, a, b)


def scalar_right(A: np.ndarray, q) -> np.ndarray:
    """Right scalar action A -> A q of a number q, or of a quaternion q
    given as a (4,) array on a stack of quaternion matrices A."""
    if np.ndim(q) == 1:
        return np.einsum("stu,...t,u->...s", QL, np.asarray(A), np.asarray(q, dtype=float))
    return np.asarray(A) * q


def left_mult_matrix(field: Field, k: int, beta) -> np.ndarray:
    """Real matrix of c -> beta c on fibre coefficients, basis e_a * unit_t:
    row b·d + s, column a·d + t holds component s of beta_ba unit_t.  beta
    may be a stack (..., k, k[, 4]).  The real twin of the k×k matrices
    over the field that the holonomy generators are."""
    blocks = np.stack([to_real(scalar_right(beta, q), field) for q in units(field)],
                      axis=-1).swapaxes(-3, -2)                      # [..., b, s, a, t]
    d = field.real_dim
    return blocks.reshape(blocks.shape[:-4] + (k * d, k * d)).astype(float, copy=False)


def re_trace(A: np.ndarray, field: Field) -> float:
    n = min(A.shape[0], A.shape[1])
    if field is Field.QUATERNION:
        return float(np.sum(A[np.arange(n), np.arange(n), 0]))
    return float(np.real(np.trace(A)))


def inner_g0(A: np.ndarray, B: np.ndarray, field: Field) -> float:
    """Bi-invariant pairing (1/2) Re tr(A B*)."""
    return 0.5 * re_trace(matmul_stack(A, ct_stack(B, field), field), field)


def norm_g0(A: np.ndarray, field: Field) -> float:
    return float(np.sqrt(max(inner_g0(A, A, field), 0.0)))


def sym_eig_small(S: np.ndarray, check: bool = True, tol: float = 1e-8):
    """Eigensystem of a small real symmetric matrix with canonical vector signs."""
    S = np.asarray(S, dtype=float)
    if check and (S.shape[0] != S.shape[1] or np.max(np.abs(S - S.T)) > tol * max(1.0, np.max(np.abs(S)))):
        raise ValueError("matrix is not symmetric within tolerance")
    w, Q = np.linalg.eigh(0.5 * (S + S.T))
    for j in range(Q.shape[1]):
        i = int(np.argmax(np.abs(Q[:, j])))
        if Q[i, j] < 0:
            Q[:, j] = -Q[:, j]
    return w, Q


# ----------------------------------------------------------------------------
# the homogeneous model
# ----------------------------------------------------------------------------

def complete_basis(V: np.ndarray, field: Field, order: str = "standard",
                   tol: float = 1e-8) -> np.ndarray:
    """Extend orthonormal columns V to a full unitary [V | W].

    Candidate completion vectors are the standard basis vectors taken in index
    order ("standard") or reversed ("reversed"); near-dependent candidates are
    dropped.  Deterministic for a given order.
    """
    N, k = V.shape[0], V.shape[1]
    idx = range(N) if order == "standard" else range(N - 1, -1, -1)
    cols = [V[:, j:j + 1] for j in range(k)]
    I = eye(field, N)
    for j in idx:
        v = _strip(np.array(I[:, j:j + 1]), cols, field)
        n = frob(v)
        if n > tol:
            cols.append(v / n)
        if len(cols) == N:
            break
    if len(cols) != N:
        raise DegenerateColumnsError(len(cols), 0.0)
    return np.concatenate(cols, axis=1)



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
    if t.base is not frame.pt and frob(t.base.P - frame.pt.P) > 1e-9:
        raise ValueError("tangent is not based at the frame's point")
    f = frame.pt.field
    return LieLift(frame, matmul_stack(ct_stack(frame.W, f), t.H, f))


def proj_m(A: np.ndarray, k: int) -> np.ndarray:
    """Top-left k×k block (the structure-algebra component for A ∈ h⊕m⊕p)."""
    return A[:k, :k]


def tangent_strict(pt, H: np.ndarray) -> GrassTangent:
    if frob(matmul_stack(ct_stack(pt.V, pt.field), H, pt.field)) > TOL_ALG * max(1.0, frob(H)):
        raise ValueError("H is not horizontal at the given point")
    return GrassTangent(pt, H)


def lift_to_tangent(lift) -> GrassTangent:
    pt = lift.frame.pt
    return GrassTangent(pt, matmul_stack(lift.frame.W, lift.B, pt.field))


def emb_alpha(alpha_k: np.ndarray, N: int, field: Field) -> np.ndarray:
    """Embed a k×k anti-Hermitian block as diag(alpha, 0) in the N×N algebra."""
    out = zeros(field, N, N)
    k = alpha_k.shape[0]
    out[:k, :k] = alpha_k
    return out


def bracket(A: np.ndarray, B: np.ndarray, field: Field) -> np.ndarray:
    return matmul_stack(A, B, field) - matmul_stack(B, A, field)


def proj_p_block(A: np.ndarray, k: int) -> np.ndarray:
    """Lower-left (N−k)×k block, i.e. the B-coordinates of the p-part."""
    return A[k:, :k]


def geodesic(pt, t: GrassTangent, s: float, order: str = "standard"):
    """Point of the geodesic through pt with initial velocity t at time s."""
    frame = frame_lift(pt, order=order)
    g = matmul_stack(frame.g, expm_alg(lie_lift(frame, t).mat * s, pt.field), pt.field)
    return point_from_stiefel(g[:, : pt.k], pt.field)


def sectional_curvature_g0(x: GrassTangent, y: GrassTangent) -> float:
    """Unnormalized ambient sectional curvature k(X,Y) = |[X~,Y~]|₀²."""
    if x.base is not y.base and frob(x.base.P - y.base.P) > 1e-9:
        raise ValueError("tangents have different base points")
    Hx, Hy, f = x.H, y.H, x.base.field
    C1 = matmul_stack(ct_stack(Hy, f), Hx, f) - matmul_stack(ct_stack(Hx, f), Hy, f)
    C2 = matmul_stack(Hy, ct_stack(Hx, f), f) - matmul_stack(Hx, ct_stack(Hy, f), f)
    return 0.5 * (frob(C1) ** 2 + frob(C2) ** 2)


def imaginary_units(field: Field):
    if field not in _IMAG_UNITS:
        raise ValueError("J-structures exist only over C and H")
    return _IMAG_UNITS[field]


def j_apply(pt, q, t: GrassTangent) -> GrassTangent:
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
    """Angle θ(X) between the 𝔍-orbit of X and the span of the orthonormal
    `basis`.

    Complex: the angle of JX against the span.  Quaternion: the largest
    such angle over unit aI+bJ+cK, attained at the λ_min eigenvector a of
    the 3×3 Gram form of the projected images.  θ = atan2(|normal part of
    J_a X|, |tangential part of J_a X|), which resolves θ near 0, where
    arccos of the tangential part alone cannot.
    """
    pt = x.base
    nx = x.norm()
    if nx < 1e-13:
        raise ValueError("zero tangent vector")
    coords = np.array([e.inner(x) for e in basis])
    if abs(np.dot(coords, coords) - nx**2) > 1e-6 * nx**2:
        raise ValueError("x does not lie in the span of the basis")
    E = np.array([e.H for e in basis])
    jx = np.array([j_apply(pt, q, x).H for q in imaginary_units(pt.field)])
    proj = np.array([[inner_re(e, j) for e in E] for j in jx])
    if pt.field is Field.COMPLEX:
        a = np.ones(1)
    else:
        a = sym_eig_small(proj @ proj.T, check=False)[1][:, 0]
    tangential = a @ proj
    normal = np.tensordot(a, jx, axes=1) - np.tensordot(tangential, E, axes=1)
    return float(np.arctan2(frob(normal), np.linalg.norm(tangential)))


# ----------------------------------------------------------------------------
# finite-difference curvature of the connection and of the base
# ----------------------------------------------------------------------------

def covariant_derivative(chart, u, i: int, section, h: float = FD_STEP, richardson: bool = True):
    """P * (central difference of the section) along coordinate i."""
    u = np.asarray(u, dtype=float)
    P = chart(u).P

    def diff(step):
        e = np.zeros_like(u)
        e[i] = step
        return (section(u + e) - section(u - e)) / (2.0 * step)

    d = diff(h)
    if richardson:
        d = (4.0 * diff(h / 2.0) - d) / 3.0
    return matmul_stack(P, d, chart.field)


def curvature_raw(chart, u, i: int, j: int, w):
    """P [d_i P, d_j P] w — unbridged, exactly what holonomy measures; the
    differentials from the chart's jet."""
    V, H = (X[0] for X in chart_jet(chart, np.asarray(u, dtype=float)[None], 1)[:2])
    f = chart.field
    P = projector(V, f)
    dP = [projector_derivative(V, Hi, f) for Hi in H]
    return matmul_stack(P, matmul_stack(bracket(dP[i], dP[j], f), w, f), f)


def curvature_oracle(chart, u, i: int, j: int, w, method: str = "projector", h: float = FD_STEP2):
    """Bridged fibre curvature R(d_i, d_j) w by one of two routes."""
    if method == "projector":
        return bridge(chart.field) * curvature_raw(chart, u, i, j, w)
    if method != "commutator":
        raise ValueError(f"unknown method '{method}'")
    u = np.asarray(u, dtype=float)
    P0 = chart(u).P
    f = chart.field

    def grad_section(l, up, step):
        e = np.zeros_like(up)
        e[l] = step
        dP = (chart(up + e).P - chart(up - e).P) / (2.0 * step)
        return matmul_stack(chart(up).P, matmul_stack(dP, w, f), f)

    def nested(step):
        def second(i_, j_):
            e = np.zeros_like(u)
            e[i_] = step
            inner = (grad_section(j_, u + e, step) - grad_section(j_, u - e, step)) / (2.0 * step)
            return matmul_stack(P0, inner, f)

        return second(i, j) - second(j, i)

    val = nested(h)
    val = (4.0 * nested(h / 2.0) - val) / 3.0
    return bridge(chart.field) * val


def sectional_base_fd(chart, u, x_coords, y_coords, h: float = FD_STEP2) -> float:
    """Sectional curvature of the pulled-back metric from its Christoffels.

    Takes them from christoffel_nested, which reads only the order-1 jet
    (Gram matrices of the differentials), so the twin stays independent of
    the order-2 jet from which oracle's christoffel takes its symbols."""
    u = np.asarray(u, dtype=float)
    gam_all = christoffel_nested(chart, central_stencil(u[None], h)[0])
    dG = richardson_difference(gam_all[None], h)[0]   # dG[i] = ∂_i Gamma
    gam = gam_all[0]
    G = gram_at(chart, u)
    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #           + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    R = (
        np.einsum("iljk->lkij", dG)
        - np.einsum("jlik->lkij", dG)
        + np.einsum("lim,mjk->lkij", gam, gam)
        - np.einsum("ljm,mik->lkij", gam, gam)
    )
    Rlow = np.einsum("pl,lkij->pkij", G, R)
    x = np.asarray(x_coords, dtype=float)
    y = np.asarray(y_coords, dtype=float)
    num = np.einsum("pkij,p,k,i,j->", Rlow, x, y, x, y)
    den = (x @ G @ x) * (y @ G @ y) - (x @ G @ y) ** 2
    return float(num / den)


# ----------------------------------------------------------------------------
# finite-difference twins: the Richardson first-difference stencil, the
# second differences of P and the projector-model tangent map, kept apart
# from oracle's single stencil
# ----------------------------------------------------------------------------

def central_stencil(U: np.ndarray, h: float) -> np.ndarray:
    """Richardson central-difference stencil around each row of U (B, n).

    Returns (B, 1 + 4n, n): the centre, then u + h e_i, u − h e_i,
    u + (h/2) e_i and u − (h/2) e_i for i = 0..n−1.
    """
    E = np.eye(U.shape[-1])
    centre = U[:, None, :]
    return np.concatenate(
        [centre] + [centre + s * E for s in (h, -h, h / 2.0, -h / 2.0)], axis=1)


def richardson_difference(F: np.ndarray, h: float) -> np.ndarray:
    """Central differences of values F (B, 1 + 4n, ...) on a central_stencil,
    combined over the steps h and h/2: returns (B, n, ...) with [:, i] = ∂_i F."""
    n = (F.shape[1] - 1) // 4
    fp, fm, gp, gm = (F[:, 1 + q * n:1 + (q + 1) * n] for q in range(4))
    d1 = (fp - fm) / (2.0 * h)
    d2 = (gp - gm) / (2.0 * (h / 2.0))
    return (4.0 * d2 - d1) / 3.0


def projector_second_differences(chart, U: np.ndarray, h: float) -> np.ndarray:
    """Second differences dd (2, B, n, n, N, N[, 4]) of ∂_i∂_j P at the steps
    h and h/2 around every row of U (B, n), from one chart call; index 0 is
    step h, index 1 step h/2.

    The rows are the centre, u ± step e_i and the corners
    u ± step e_i ± step e_j (i < j), 1 + 4n² per row.  Diagonal second
    differences use the three-point stencil.
    """
    B, n = U.shape
    steps = np.array([h, h / 2.0])
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    corners = np.stack([eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i], -eye[i] - eye[j]],
                       axis=1)
    offsets = np.concatenate([eye, -eye, corners.reshape(-1, n)])
    rows = U[:, None, None] + steps[:, None, None] * offsets
    V = chart.eval_point(np.concatenate([U[:, None], rows.reshape(B, -1, n)], axis=1).reshape(-1, n))
    P = projector(V, chart.field)
    P = P.reshape((B, 1 + 2 * len(offsets)) + P.shape[1:])
    P0 = P[:, 0]
    P = np.moveaxis(P[:, 1:].reshape((B, 2, len(offsets)) + P0.shape[1:]), 1, 0)
    sq = (steps**2).reshape((2,) + (1,) * (P0.ndim + 1))
    pd = P[:, :, :2 * n].reshape((2, B, 2, n) + P0.shape[1:])
    pm = P[:, :, 2 * n:].reshape((2, B, len(i), 4) + P0.shape[1:])
    dd = np.empty((2, B, n, n) + P0.shape[1:], dtype=P.dtype)
    dd[:, :, np.arange(n), np.arange(n)] = (pd[:, :, 0] - 2.0 * P0[:, None] + pd[:, :, 1]) / sq
    dd[:, :, i, j] = dd[:, :, j, i] = (pm[:, :, :, 0] - pm[:, :, :, 1] - pm[:, :, :, 2]
                                       + pm[:, :, :, 3]) / (4.0 * sq)
    return dd


def horizontal_from_projector(P: np.ndarray, V: np.ndarray, M: np.ndarray, field) -> np.ndarray:
    """Ambient matrix-space direction → horizontal coordinates H = ΔV with
    Δ = PM(I−P) + (I−P)MP, the tangent part of M in the projector model;
    broadcasts over stacked P, V and M."""
    PM = matmul_stack(P, M, field)
    MP = matmul_stack(M, P, field)
    delta = PM + MP - 2.0 * matmul_stack(P, MP, field)
    return matmul_stack(delta, V, field)


# ----------------------------------------------------------------------------
# oracle twins: the nested Christoffel stencil and the per-entry loops that
# the stacked oracles replaced
# ----------------------------------------------------------------------------

def gram_at(chart, u) -> np.ndarray:
    """Gram matrices G_ab = Re tr(D_b* D_a) of the coordinate differentials
    at u of shape (..., n), one order-1 chart_jet call for all points."""
    U = np.asarray(u, dtype=float)
    n = chart.dim
    _, H, _ = chart_jet(chart, U.reshape(-1, n), 1)
    H = H.reshape(H.shape[0], n, -1)
    return np.real(np.einsum("bax,bcx->bac", H, np.conj(H))).reshape(U.shape[:-1] + (n, n))


def christoffel_nested(chart, u, h: float = FD_STEP) -> np.ndarray:
    """Gamma[..., l, i, j] at u of shape (..., n) by Richardson differences of
    gram_at, whose differentials are exact."""
    U = np.asarray(u, dtype=float)
    n = chart.dim
    G = gram_at(chart, central_stencil(U.reshape(-1, n), h))
    d = richardson_difference(G, h)          # d[b, i, j, m] = ∂_i g_jm
    T = d + np.swapaxes(d, 1, 2) - np.moveaxis(d, 1, -1)
    gamma = 0.5 * np.einsum("blm,bijm->blij", np.linalg.inv(G[:, 0]), T)
    return gamma.reshape(U.shape[:-1] + (n, n, n))


def holonomy_map_loop(chart, u, i: int, j: int, eps: float, steps_per_leg: int = 10,
                      order: str = "ij", centered: bool = False):
    """One square loop of one size, one parallel_transport call per leg."""
    u = np.asarray(u, dtype=float)
    ei = np.zeros_like(u)
    ei[i] = eps
    ej = np.zeros_like(u)
    ej[j] = eps
    first, second = (ei, ej) if order == "ij" else (ej, ei)
    c0 = u - 0.5 * (ei + ej) if centered else u
    corners = [c0, c0 + first, c0 + first + second, c0 + second, c0]
    pt0 = chart(corners[0])
    s = np.array(pt0.V, copy=True)
    for a, b in zip(corners[:-1], corners[1:]):
        s, _ = parallel_transport(chart, a, b, s, steps=steps_per_leg)
    return pt0, s


def lemma_omega_check_loop(field, N: int, k: int, trials: int = 20, eps: float = 0.01,
                           seed: int = 424242, steps_per_leg: int = 10) -> LoopGeneratorCheck:
    """lemma_omega_check one trial at a time: three draws, one exp_chart and
    one holonomy_generator per trial, and Python sums over the trials."""
    rng = np.random.default_rng(seed)
    omegas, refs, residuals = [], [], []
    for _ in range(trials):
        pt = point_from_stiefel(random_matrix(rng, field, N, k), field)
        X = random_horizontal(rng, pt)
        X = GrassTangent(pt, X.H / X.norm())
        Y = random_horizontal(rng, pt)
        Y = GrassTangent(pt, Y.H - X.H * inner_re(Y.H, X.H))
        Y = GrassTangent(pt, Y.H / Y.norm())
        chart = exp_chart(pt, X, Y, half_width=4.0 * eps)
        e = np.array([eps, eps / 2.0])
        G = holonomy_generator(chart, np.zeros(2), 0, 1, e, steps_per_leg=steps_per_leg,
                               order="ji", centered=True)
        G = G / e.reshape((-1,) + (1,) * field.matrix_ndim)**2
        G = (4.0 * G[1] - G[0]) / 3.0
        B = -G / 2.0
        omegas.append(0.5 * (B - ct_stack(B, field)))
        refs.append(bracket_m(X, Y))
        residuals.append(frob(0.5 * (B + ct_stack(B, field))))
    num = sum(inner_re(o, r) for o, r in zip(omegas, refs))
    den = sum(inner_re(r, r) for r in refs)
    c = float(num / den)
    dev = max(frob(o - c * r) for o, r in zip(omegas, refs))
    return LoopGeneratorCheck(c, float(dev), float(np.mean(residuals)), trials)


def expm_taylor(A: np.ndarray, field: Field) -> np.ndarray:
    """The scaled Taylor exponential of one matrix, scaled by its own norm."""
    nrm = frob(A)
    s = int(np.ceil(np.log2(nrm / 0.25))) if nrm > 0.25 else 0
    T = A / (2.0 ** s)
    out = term = eye(field, A.shape[0])
    for mdeg in range(1, 19):
        term = matmul_stack(term, T, field) / mdeg
        out = out + term
    for _ in range(s):
        out = matmul_stack(out, out, field)
    return out


def dr_oracle_loop(chart, u, x_coords, y_coords, z_coords, w0, v0) -> float:
    """dr_oracle with one transport pair and one pairing per curve parameter."""
    u = np.asarray(u, dtype=float)
    z = np.asarray(z_coords, dtype=float)
    xy0 = np.stack([np.asarray(x_coords, dtype=float), np.asarray(y_coords, dtype=float)], axis=1)
    k = w0.shape[1]
    wv0 = np.concatenate([w0, v0], axis=1)

    def f(t: float) -> float:
        ut = u + t * z
        xy = base_transport(chart, u, ut, xy0, steps=DR_BASE_STEPS)
        wv, _ = parallel_transport(chart, u, ut, wv0, steps=DR_TRANSPORT_STEPS)
        return curvature_pairing_fd(chart, ut, xy[:, 0], xy[:, 1], wv[:, :k], wv[:, k:])

    def slope(dl: float) -> float:
        return (f(dl) - f(-dl)) / (2.0 * dl)

    return (4.0 * slope(DR_DELTA / 2.0) - slope(DR_DELTA)) / 3.0


# ----------------------------------------------------------------------------
# frame brackets: the Lie-algebra form of the pairings
# ----------------------------------------------------------------------------

def curvature_pairing(xl, zl, alpha) -> float:
    """Half the g0 pairing of [X~, Z~] against the embedded probe."""
    if xl.frame is not zl.frame and frob(xl.frame.g - zl.frame.g) > 1e-12:
        raise ValueError("lifts live in different frames")
    pt = xl.frame.pt
    return 0.5 * inner_g0(bracket(xl.mat, zl.mat, pt.field), emb_alpha(alpha.mat, pt.N, pt.field),
                          pt.field)


def dr_component_bracket(pf, x, y, z, alpha, order: str = "standard") -> float:
    """The derivative component from frame brackets of lifted tangents,
    paired against the embedded probe, in the frame lift of the given
    completion order."""
    fr = frame_lift(pf.pt, order=order)
    xl = lie_lift(fr, pf.from_coords(x)).mat
    yl = lie_lift(fr, pf.from_coords(y)).mat
    iizy = lie_lift(fr, ii_apply(pf, z, y)).mat
    iizx = lie_lift(fr, ii_apply(pf, z, x)).mat
    f = pf.pt.field
    emb = emb_alpha(alpha.mat, pf.pt.N, f)
    return inner_g0(bracket(xl, iizy, f), emb, f) - inner_g0(bracket(yl, iizx, f), emb, f)


# ----------------------------------------------------------------------------
# loop references for the array frame layer
# ----------------------------------------------------------------------------

def orthonormalize_real_span(vectors, tol: float = 1e-12):
    """Modified Gram–Schmidt with real coefficients, one GrassTangent at a time."""
    out = []
    for v in vectors:
        H = np.array(v.H, copy=True)
        for _ in range(2):
            for q in out:
                H = H - q.H * inner_re(H, q.H)
        n = float(np.sqrt(max(inner_re(H, H), 0.0)))
        if n >= tol:
            out.append(GrassTangent(v.base, H / n))
    return out


def _normal_loop(pf, H: np.ndarray) -> np.ndarray:
    """H less its frame components, one pairing at a time."""
    coords = [inner_re(H, e.H) for e in pf.E]
    return H - sum(c * e.H for c, e in zip(coords, pf.E))


def _frame_contraction_loop(pf, raw) -> np.ndarray:
    """Σ_ij coeff[a, i] coeff[b, j] raw[i][j], entry by entry."""
    n, C = pf.n, pf.coeff
    return np.array([[sum(C[a, i] * C[b, j] * raw[i][j] for i in range(n) for j in range(n))
                      for b in range(n)] for a in range(n)])


def second_fundamental_form_loop(chart, u, pf) -> np.ndarray:
    """II(E_a, E_b) as an (n, n, N, k[, 4]) array, built entry by entry
    from the covariant second derivatives DD of chart_jet at u: the normal
    part of each DD[i, j] in pf's frame, then
    Σ_ij coeff[a, i] coeff[b, j] II(∂_i, ∂_j)."""
    DD = chart_jet(chart, np.asarray(u, dtype=float)[None])[2][0]
    return _frame_contraction_loop(pf, [[_normal_loop(pf, DD[i, j]) for j in range(pf.n)]
                                        for i in range(pf.n)])


def second_fundamental_form_fd(chart, u, pf, h: float = FD_STEP2) -> np.ndarray:
    """The finite-difference twin of II, in the layout of
    second_fundamental_form_loop: the normal part of the horizontal part of
    each ∂_i∂_j P from the second differences of P at the steps h and h/2,
    one Richardson level, contracted entry by entry."""
    pt, n = pf.pt, pf.n
    partials = projector_second_differences(chart, np.asarray(u, dtype=float)[None], h)[:, 0]

    def normal(M):
        return _normal_loop(pf, horizontal_from_projector(pt.P, pt.V, M, pt.field))

    return _frame_contraction_loop(pf, [[(4.0 * normal(partials[1, i, j])
                                          - normal(partials[0, i, j])) / 3.0
                                         for j in range(n)] for i in range(n)])


def jay_matrix(pf, alpha) -> np.ndarray:
    """L[b, a] = <E_b, J_alpha E_a>, one pairing at a time."""
    n = pf.n
    L = np.empty((n, n))
    for a in range(n):
        ja = alpha.jay(pf.E[a])
        for b in range(n):
            L[b, a] = inner_re(ja.H, pf.E[b].H)
    return L


def ii_apply(pf, x, y) -> GrassTangent:
    """II(X, Y) for frame-coordinate vectors x, y, summed entry by entry."""
    H = np.zeros_like(pf.II[0][0].H)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            H = H + (float(xa) * float(yb)) * pf.II[a][b].H
    return GrassTangent(pf.pt, H)


def dr_component_loop(pf, x, y, z, alpha) -> float:
    """<II(y, z), J x> − <II(x, z), J y> through ii_apply."""
    jx = alpha.jay(pf.from_coords(x))
    jy = alpha.jay(pf.from_coords(y))
    return inner_re(ii_apply(pf, y, z).H, jx.H) - inner_re(ii_apply(pf, x, z).H, jy.H)


def residual_loop(pf, probes, radial: bool):
    """(worst probe norm of dr_component_loop over triples with a ≠ b, count)."""
    n = pf.n
    eye = np.eye(n)
    worst, count = 0.0, 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for c in ([a] if radial else range(n)):
                vals = [dr_component_loop(pf, eye[a], eye[b], eye[c], al) for al in probes]
                worst = max(worst, float(np.linalg.norm(vals)))
                count += 1
    return worst, count


def base_sectional_loop(pf, x, y) -> float:
    """Gauss equation through sectional_curvature_g0 and ii_apply."""
    amb = sectional_curvature_g0(pf.from_coords(x), pf.from_coords(y))
    return amb + inner_re(ii_apply(pf, x, x).H, ii_apply(pf, y, y).H) \
        - inner_re(ii_apply(pf, x, y).H, ii_apply(pf, x, y).H)


def inequality_loop(pf, probes, extra: int = 6, seed: int = 20240):
    """(min margin, pair count): one 2-plane at a time, the frame pairs
    followed by `extra` seeded random rotations."""
    n = pf.n
    eye = np.eye(n)
    pairs = [(eye[a], eye[b]) for a in range(n) for b in range(n) if a != b]
    rng = np.random.default_rng(seed)
    for _ in range(extra):
        q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        pairs.append((q[:, 0], q[:, 1]))
    worst = np.inf
    for x, y in pairs:
        kb = base_sectional_loop(pf, x, y)
        jmat = np.stack([[inner_re(al.jay(pf.from_coords(x)).H, e.H) for e in pf.E]
                         for al in probes])
        drv = np.array([dr_component_loop(pf, x, y, x, al) for al in probes])
        M = kb * (jmat @ jmat.T) - np.outer(drv, drv)
        lam = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]) if len(probes) > 1 else float(M[0, 0])
        worst = min(worst, lam)
    return worst, len(pairs)


# ----------------------------------------------------------------------------
# cross-field twin: a quaternionic chart as a complex one
# ----------------------------------------------------------------------------

def chi(A: np.ndarray) -> np.ndarray:
    """Complex adjoint χ(Z₁ + Z₂j) = [[Z₁, Z₂], [−Z̄₂, Z̄₁]] of stacked
    quaternion matrices (..., N, k, 4), q = (w + xi) + (y + zi)j: a
    multiplicative map to (..., 2N, 2k) that doubles Re tr(A*A)
    (F. Zhang, "Quaternions and matrices of quaternions", LAA 251, 1997)."""
    Z1, Z2 = A[..., 0] + 1j * A[..., 1], A[..., 2] + 1j * A[..., 3]
    return np.block([[Z1, Z2], [-Z2.conj(), Z1.conj()]])


def lift(chart: ImmersionChart) -> ImmersionChart:
    """A quaternionic chart W read as the complex rank-2k chart χ(W) in
    C^{2N}: χ applied to every jet slot of cols."""
    return ImmersionChart(name=f"lift({chart.name})", field=Field.COMPLEX, N=2 * chart.N,
                          k=2 * chart.k, dim=chart.dim, box=chart.box,
                          cols=lambda J: chart.cols(J).lin(chi), params=chart.params)
