"""Reference computations that only the tests use.

Two kinds live here.  Independent oracles: brute-force finite-difference
curvature, the bracket form of the derivative component, geodesics,
Wirtinger angles and the g0 algebra helpers.  Loop references: the
per-frame-index loops that the array frame layer replaced, kept so the
tests can check the contractions against them entry by entry.
"""
from __future__ import annotations

import numpy as np

from pullconn.algebra import (
    QL,
    Field,
    ct_stack,
    expm_alg,
    frob,
    inner_re,
    matmul_stack,
    quat,
    zeros,
)
from pullconn.constants import FD_STEP, FD_STEP2, bridge
from pullconn.homogeneous import (
    GrassTangent,
    frame_lift,
    lie_lift,
    point_from_stiefel,
    projector_derivative,
)
from pullconn.immersion import (
    _projector_stencil,
    differential,
    differential_stack,
)
from pullconn.oracle import (
    DR_BASE_STEPS,
    DR_DELTA,
    DR_TRANSPORT_STEPS,
    base_transport,
    curvature_pairing_fd,
    left_mult_matrix,
    parallel_transport,
)

TOL_ALG = 1e-10  # exact linear algebra identities

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
    given as a (4,) array on a quaternion matrix A."""
    if np.ndim(q) == 1:
        return np.einsum("stu,mnt,u->mns", QL, np.asarray(A), np.asarray(q, dtype=float))
    return np.asarray(A) * q


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


def m_basis(field: Field, k: int):
    """Basis of anti-Hermitian k-by-k scalar matrices (the vertical algebra)."""
    one = quat(1.0) if field is Field.QUATERNION else 1.0
    imag = _IMAG_UNITS.get(field, ())
    out = []
    for q in imag:
        for a in range(k):
            M = zeros(field, k, k)
            M[a, a] = q
            out.append(M)
    for a in range(k):
        for b in range(a + 1, k):
            M = zeros(field, k, k)
            M[a, b], M[b, a] = one, -one
            out.append(M)
            for q in imag:
                M = zeros(field, k, k)
                M[a, b] = M[b, a] = q
                out.append(M)
    return out


def fit_m_generator_lstsq(field: Field, k: int, G: np.ndarray):
    """oracle.fit_m_generator by least squares over the coefficients of
    m_basis: (beta, residual), beta None where the algebra is zero."""
    basis = np.array(m_basis(field, k))
    if not len(basis):
        return None, float(np.linalg.norm(G))
    cols = left_mult_matrix(field, k, basis).reshape(len(basis), -1).T
    x, *_ = np.linalg.lstsq(cols, G.ravel(), rcond=None)
    return np.tensordot(x, basis, axes=1), float(np.linalg.norm(G.ravel() - cols @ x))


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
    if x.base.P is not y.base.P and frob(x.base.P - y.base.P) > 1e-9:
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


def curvature_raw(chart, u, i: int, j: int, w, h: float = FD_STEP):
    """P [d_i P, d_j P] w — unbridged, exactly what holonomy measures."""
    D = differential(chart, u, h=h)
    pt = D[0].base
    dP = [projector_derivative(pt.V, t.H, pt.field) for t in D]
    f = chart.field
    return matmul_stack(pt.P, matmul_stack(bracket(dP[i], dP[j], f), w, f), f)


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

    Takes them from christoffel_nested: a difference of the single-stencil
    christoffel of oracle would amplify its rounding, about 1e-9, to about
    1e-6 at this step."""
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
# finite-difference twins: the Richardson first-difference stencil and the
# projector-model tangent map, kept apart from immersion's single stencil
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
    at u of shape (..., n), one differential_stack call for all points."""
    U = np.asarray(u, dtype=float)
    n = chart.dim
    _, _, H = differential_stack(chart, U.reshape(-1, n))
    H = H.reshape(H.shape[0], n, -1)
    return np.real(np.einsum("bax,bcx->bac", H, np.conj(H))).reshape(U.shape[:-1] + (n, n))


def christoffel_nested(chart, u, h: float = FD_STEP) -> np.ndarray:
    """Gamma[..., l, i, j] at u of shape (..., n) by Richardson differences of
    gram_at, itself a Richardson stencil on charts without analytic
    differentials."""
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


def dr_component_bracket(pf, ff, x, y, z, alpha, order: str = "standard") -> float:
    """The derivative component from frame brackets of lifted tangents,
    paired against the embedded probe, in the frame lift of the given
    completion order."""
    fr = frame_lift(pf.pt, order=order)
    xl = lie_lift(fr, pf.from_coords(x)).mat
    yl = lie_lift(fr, pf.from_coords(y)).mat
    iizy = lie_lift(fr, ii_apply(ff, z, y)).mat
    iizx = lie_lift(fr, ii_apply(ff, z, x)).mat
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


def second_fundamental_form_loop(chart, u, pf, h: float = FD_STEP2) -> np.ndarray:
    """II(E_a, E_b) as an (n, n, N, k[, 4]) array, built entry by entry: the
    horizontal part of each ∂_i∂_j P, minus its frame components, one
    Richardson level, then Σ_ij coeff[a, i] coeff[b, j] II(∂_i, ∂_j)."""
    pt, n, C = pf.pt, pf.n, pf.coeff
    partials = _projector_stencil(chart, np.asarray(u, dtype=float)[None], h)[3][:, 0]

    def normal(M):
        H = horizontal_from_projector(pt.P, pt.V, M, pt.field)
        coords = [inner_re(H, e.H) for e in pf.E]
        return H - sum(c * e.H for c, e in zip(coords, pf.E))

    raw = [[(4.0 * normal(partials[1, i, j]) - normal(partials[0, i, j])) / 3.0
            for j in range(n)] for i in range(n)]
    return np.array([[sum(C[a, i] * C[b, j] * raw[i][j] for i in range(n) for j in range(n))
                      for b in range(n)] for a in range(n)])


def jay_matrix(pf, alpha) -> np.ndarray:
    """L[b, a] = <E_b, J_alpha E_a>, one pairing at a time."""
    n = pf.n
    L = np.empty((n, n))
    for a in range(n):
        ja = alpha.jay(pf.E[a])
        for b in range(n):
            L[b, a] = inner_re(ja.H, pf.E[b].H)
    return L


def ii_apply(ff, x, y) -> GrassTangent:
    """II(X, Y) for frame-coordinate vectors x, y, summed entry by entry."""
    H = np.zeros_like(ff.II[0][0].H)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            H = H + (float(xa) * float(yb)) * ff.II[a][b].H
    return GrassTangent(ff.pf.pt, H)


def dr_component_loop(pf, ff, x, y, z, alpha) -> float:
    """<II(y, z), J x> − <II(x, z), J y> through ii_apply."""
    jx = alpha.jay(pf.from_coords(x))
    jy = alpha.jay(pf.from_coords(y))
    return inner_re(ii_apply(ff, y, z).H, jx.H) - inner_re(ii_apply(ff, x, z).H, jy.H)


def residual_loop(pf, ff, probes, radial: bool):
    """(worst probe norm of dr_component_loop over triples with a ≠ b, count)."""
    n = pf.n
    eye = np.eye(n)
    worst, count = 0.0, 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for c in ([a] if radial else range(n)):
                vals = [dr_component_loop(pf, ff, eye[a], eye[b], eye[c], al) for al in probes]
                worst = max(worst, float(np.linalg.norm(vals)))
                count += 1
    return worst, count


def base_sectional_loop(pf, ff, x, y) -> float:
    """Gauss equation through sectional_curvature_g0 and ii_apply."""
    amb = sectional_curvature_g0(pf.from_coords(x), pf.from_coords(y))
    return amb + inner_re(ii_apply(ff, x, x).H, ii_apply(ff, y, y).H) \
        - inner_re(ii_apply(ff, x, y).H, ii_apply(ff, x, y).H)


def inequality_loop(pf, ff, probes, extra: int = 6, seed: int = 20240):
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
        kb = base_sectional_loop(pf, ff, x, y)
        jmat = np.stack([[inner_re(al.jay(pf.from_coords(x)).H, e.H) for e in pf.E]
                         for al in probes])
        drv = np.array([dr_component_loop(pf, ff, x, y, x, al) for al in probes])
        M = kb * (jmat @ jmat.T) - np.outer(drv, drv)
        lam = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]) if len(probes) > 1 else float(M[0, 0])
        worst = min(worst, lam)
    return worst, len(pairs)

