"""Brute-force reference computations: finite-difference curvature,
parallel transport, holonomy loops, transported derivatives.

Everything here is deliberately independent of the closed-form frame
expressions — projector stencils, RK4 integration and matrix logarithms
only — so agreement with the frame layer is evidence, not tautology.

Every oracle makes one chart call per batch.  Christoffel symbols come
from one projector stencil per node, never from analytic differentials.
A transport evaluates the RK4 nodes of all its segments at once:
`dr_oracle` stacks its four curve parameters, a holonomy loop its four
legs and every loop size.  Holonomy generators are the Gregory series
logarithm of the whole stack of return matrices.

Orientation note.  The fibre curvature operator that holonomy actually
measures is the raw projector bracket ``P [d_i P, d_j P]``;
``curvature_pairing_fd`` rescales it by ``bridge(field)`` so that pairings
against vertical-algebra elements use the same normalization as the frame
layer.  Loop traversal order matters: with the i-leg first, the loop
generator is ``-eps^2`` times the raw operator; the opposite traversal
flips the sign.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (
    Field,
    ct_stack,
    frob,
    from_real,
    inner_re,
    matmul_stack,
    random_matrix,
    scalar_right,
    skew_exp,
    to_real,
    units,
)
from .constants import FD_STEP, TRANSPORT_STEPS, bridge
from .homogeneous import (
    GrassPoint,
    GrassTangent,
    frame_lift,
    horizontal_stack,
    lie_lift,
    point_from_stiefel,
    proj_m,
    projector_derivative,
    random_horizontal,
    stiefel_points,
)
from .immersion import (
    ImmersionChart,
    _projector_stencil,
    differential_stack,
)

# ----------------------------------------------------------------------------
# fibre matrices of the vertical algebra
# ----------------------------------------------------------------------------

def left_mult_matrix(field: Field, k: int, beta) -> np.ndarray:
    """Real matrix of c -> beta c on fibre coefficients, basis e_a * unit_t:
    row b·d + s, column a·d + t holds component s of beta_ba unit_t.  beta
    may be a stack (..., k, k[, 4])."""
    blocks = np.stack([to_real(scalar_right(beta, q, field), field) for q in units(field)],
                      axis=-1).swapaxes(-3, -2)                      # [..., b, s, a, t]
    d = field.real_dim
    return blocks.reshape(blocks.shape[:-4] + (k * d, k * d)).astype(float, copy=False)


def fit_m_generator(field: Field, k: int, G: np.ndarray):
    """Least-squares fit of a real fibre matrix to a vertical-algebra action.

    Returns (beta, residual): the anti-Hermitian scalar matrix whose
    left-multiplication matrix best matches G, and the Frobenius residual.
    beta ↦ left_mult_matrix(beta) is √d times an isometry whose adjoint
    takes G to Σ_t G_t conj(unit_t), G_t the k×k images of unit_t; so the
    fit is the anti-Hermitian part of (1/d) Σ_t G_t conj(unit_t).
    """
    d = field.real_dim
    blocks = np.asarray(G, dtype=float).reshape(k, d, k, d).transpose(3, 0, 2, 1)   # [t, b, a, s]
    imag = sum(scalar_right(from_real(Gt, field), q, field)
               for Gt, q in zip(blocks[1:], units(field)[1:]))
    M = (from_real(blocks[0], field) - imag) / d
    beta = 0.5 * (M - ct_stack(M, field))
    return beta, float(np.linalg.norm(G - left_mult_matrix(field, k, beta)))


# ----------------------------------------------------------------------------
# curvature stencils
# ----------------------------------------------------------------------------

def curvature_pairing_fd(chart: ImmersionChart, u, x_coords, y_coords, w, v,
                         h: float = FD_STEP, use_analytic: bool = True):
    """Real pairing Re <R(X, Y) w, v> of the bridged fibre curvature, X and
    Y given by coordinate components, from finite differences alone.

    u (..., n), the coordinate vectors (..., n) and the fibre vectors
    (..., N, m[, 4]) may carry leading stack axes, which broadcast; the
    differentials at every row of u come from one differential_stack call.
    """
    U = np.asarray(u, dtype=float)
    f = chart.field
    tail = f.matrix_ndim
    V, P, H = differential_stack(chart, U.reshape(-1, chart.dim), h, use_analytic)
    dP = projector_derivative(V[:, None], H, f)
    dP = np.moveaxis(dP.reshape(U.shape[:-1] + dP.shape[1:]), -tail - 1, 0)   # dP[i] = ∂_i P
    P = P.reshape(U.shape[:-1] + P.shape[1:])
    x, y = (np.moveaxis(np.asarray(c, dtype=float), -1, 0)[(...,) + (None,) * tail]
            for c in (x_coords, y_coords))
    DX = sum(c * d for c, d in zip(x, dP))
    DY = sum(c * d for c, d in zip(y, dP))
    comm = matmul_stack(DX, DY, f) - matmul_stack(DY, DX, f)
    Rw = bridge(f) * matmul_stack(P, matmul_stack(comm, w, f), f)
    return np.add.reduce((np.conj(v) * Rw).real, axis=tuple(range(-tail, 0)))


# ----------------------------------------------------------------------------
# parallel transport and holonomy
# ----------------------------------------------------------------------------

def _rk4(A: np.ndarray, s: np.ndarray, mul: Callable, project: Optional[np.ndarray] = None):
    """Classical RK4 for s' = A(t) s on [0, 1], A given at 2·steps + 1 equal
    nodes, mul(M, s) the product; s ↦ mul(project[node], s) after each step."""
    steps = (len(A) - 1) // 2
    hstep = 1.0 / steps
    for n in range(steps):
        A1, A2, A4 = A[2 * n], A[2 * n + 1], A[2 * n + 2]
        k1 = mul(A1, s)
        k2 = mul(A2, s + (hstep / 2.0) * k1)
        k3 = mul(A2, s + (hstep / 2.0) * k2)
        k4 = mul(A4, s + hstep * k3)
        s = s + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project is not None:
            s = mul(project[2 * n + 2], s)
    return s


def _segment_nodes(u0, u1, steps: int):
    """du = u1 − u0 and the 2·steps + 1 equal RK4 nodes of every straight
    segment u0 → u1 (stacks (..., n)), node axis first."""
    u0 = np.asarray(u0, dtype=float)
    du = np.asarray(u1, dtype=float) - u0
    return du, u0 + np.linspace(0.0, 1.0, 2 * steps + 1).reshape((-1,) + (1,) * du.ndim) * du


def _transport_generator(chart: ImmersionChart, u0, u1, steps: int, h: float):
    """V, P and the generator A = [P', P] of the fibre transport s' = A s at
    the _segment_nodes of u0 → u1; one differential_stack call."""
    du, nodes = _segment_nodes(u0, u1, steps)
    V, P, H = differential_stack(chart, nodes.reshape(-1, chart.dim), h)
    lead = nodes.shape[:-1]
    V, P = V.reshape(lead + V.shape[1:]), P.reshape(lead + P.shape[1:])
    Hd = np.einsum("...i,...ix->...x", du, H.reshape(lead + (chart.dim, -1))).reshape(V.shape)
    f = chart.field
    Pd = projector_derivative(V, Hd, f)   # P' = Σ du_i ∂_i P
    return V, P, matmul_stack(Pd, P, f) - matmul_stack(P, Pd, f)


def parallel_transport(chart: ImmersionChart, u0, u1, w0,
                       steps: int = TRANSPORT_STEPS, h: float = FD_STEP):
    """Transport a fibre vector along the straight coordinate segment.

    Integrates s' = [P', P] s with classical RK4 and re-projects into the
    fibre after every step.  u1 may be a stack (S, n) of end points, with
    w0 broadcasting against it; the RK4 nodes of every segment are
    evaluated up front in one batch.  Returns (w1, endpoint).
    """
    V, P, A = _transport_generator(chart, u0, u1, steps, h)
    f = chart.field
    return (_rk4(A, np.asarray(w0), lambda M, v: matmul_stack(M, v, f), P),
            GrassPoint(f, chart.N, chart.k, V[-1], P[-1]))


LOG_TERMS = 60   # most odd terms of the series logarithm


def _series_log(M: np.ndarray) -> np.ndarray:
    """Real logarithm of a stack of real matrices near the identity, by
    Gregory's series log M = 2 artanh(Z) = 2 Σ_j Z^{2j+1}/(2j+1) with
    Z = (M − I)(M + I)⁻¹ (Higham, "Functions of Matrices", SIAM 2008,
    §11.3), summed until every term is below its sum's rounding.  Raises
    ValueError if M + I is singular, some ‖Z‖_F ≥ 1 or LOG_TERMS fall short."""
    eye = np.eye(M.shape[-1])
    Z = np.linalg.solve(M + eye, M - eye)   # M ± I commute
    if not np.all(np.linalg.norm(Z, axis=(-2, -1)) < 1.0):
        raise ValueError("return matrix too far from the identity for the series logarithm")
    Z2 = Z @ Z
    term = total = Z
    for j in range(1, LOG_TERMS):
        term = term @ Z2
        step = term / (2 * j + 1)
        total = total + step
        if np.all(np.abs(step).max(axis=(-2, -1))
                  <= np.finfo(float).eps * np.abs(total).max(axis=(-2, -1))):
            return 2.0 * total
    raise ValueError(f"series logarithm not converged in {LOG_TERMS} terms")


def holonomy_map(chart: ImmersionChart, u, i: int, j: int, eps,
                 steps_per_leg: int = 10, order: str = "ij",
                 centered: bool = False):
    """Transport the fibre frame around a coordinate square of side eps.

    Returns (start point, transported frame).  order "ij" walks the i leg
    first; "ji" walks the same square the other way around.  eps may be an
    array: one loop per entry, each with its own start point when
    centered, and the start point and frame are stacked likewise.  The RK4
    nodes of every leg of every loop come from one chart call.
    """
    u = np.asarray(u, dtype=float)
    E = np.atleast_1d(np.asarray(eps, dtype=float))[:, None]
    ei, ej = E * np.eye(len(u))[i], E * np.eye(len(u))[j]
    first, second = (ei, ej) if order == "ij" else (ej, ei)
    c0 = u - 0.5 * (ei + ej) if centered else np.broadcast_to(u, ei.shape)
    corners = np.stack([c0, c0 + first, c0 + first + second, c0 + second, c0])
    V, P, A = _transport_generator(chart, corners[:-1], corners[1:], steps_per_leg, FD_STEP)
    f = chart.field
    s = V0 = V[0, 0]
    for leg in range(4):
        s = _rk4(A[:, leg], s, lambda M, v: matmul_stack(M, v, f), P[:, leg])
    P0 = P[0, 0]
    if np.ndim(eps) == 0:
        V0, P0, s = V0[0], P0[0], s[0]
    return GrassPoint(f, chart.N, chart.k, V0, P0), s


def holonomy_generator(chart: ImmersionChart, u, i: int, j: int, eps,
                       steps_per_leg: int = 10, order: str = "ij",
                       centered: bool = False) -> np.ndarray:
    """log of the real fibre return matrix of the square loop: the real
    matrix of c ↦ (V0* T) c on fibre coefficients; stacked over an array
    eps, as holonomy_map."""
    pt0, T = holonomy_map(chart, u, i, j, eps, steps_per_leg, order, centered)
    f = pt0.field
    return _series_log(left_mult_matrix(f, pt0.k, matmul_stack(ct_stack(pt0.V, f), T, f)))


# ----------------------------------------------------------------------------
# two-parameter exponential charts and the loop-generator fit
# ----------------------------------------------------------------------------

def exp_chart(pt: GrassPoint, X: GrassTangent, Y: GrassTangent,
              half_width: float = 1.0) -> ImmersionChart:
    """Internal chart u -> span of (g e^{u1 X~} e^{u2 Y~})[:, :k]; both
    exponentials are computed once per coordinate row."""
    fr = frame_lift(pt)
    Xl = lie_lift(fr, X).mat
    Yl = lie_lift(fr, Y).mat
    g = fr.g
    k = pt.k
    f = pt.field
    expX, expY = skew_exp(Xl, f), skew_exp(Yl, f)

    def pieces(U):
        """g e^{u1 X~}, e^{u2 Y~} and the point (V, P) at every row of U."""
        gE = matmul_stack(g, expX(U[:, 0]), f)
        E1 = expY(U[:, 1])
        return (gE, E1) + stiefel_points(matmul_stack(gE, E1[:, :, :k], f), f)

    def ev(U):
        return pieces(U)[2:]

    def diff(U):
        gE, E1, V, P = pieces(U)
        dV = np.stack([matmul_stack(gE, matmul_stack(Xl, E1[:, :, :k], f), f),
                       matmul_stack(gE, matmul_stack(E1, Yl[:, :k], f), f)], axis=1)
        return V, P, horizontal_stack(V[:, None], dV, f)

    box = ((-half_width, half_width), (-half_width, half_width))
    return ImmersionChart(name="exp-pair", field=f, N=pt.N, k=k,
                          dim=2, box=box, eval_point=ev, analytic_diff=diff)


@dataclass(frozen=True)
class LoopGeneratorCheck:
    """Per-trial record of loop-generator versus bracket-projection."""

    c_fit: float
    max_deviation: float
    mean_residual: float
    trials: int


def lemma_omega_check(field, N: int, k: int, trials: int = 20,
                      eps: float = 0.01, seed: int = 424242,
                      steps_per_leg: int = 10) -> LoopGeneratorCheck:
    """Fit the constant relating loop generators to bracket projections.

    For random points and orthonormal horizontal pairs (X, Y), the square
    loop traversed with the second leg first has generator G with
    -G / (2 eps^2) proportional to the vertical projection of [X~, Y~].
    A Richardson pair in eps removes the O(eps^2) loop bias.  Returns the
    least-squares constant (expected 1/2), the worst absolute deviation of
    the fitted algebra element from c_fit times the bracket projection,
    and the mean fit residual.
    """
    field = Field.parse(field)
    rng = np.random.default_rng(seed)
    omegas = []
    refs = []
    residuals = []
    for _ in range(trials):
        pt = point_from_stiefel(random_matrix(rng, field, N, k), field)
        X = random_horizontal(rng, pt)
        X = GrassTangent(pt, X.H / X.norm())
        Y = random_horizontal(rng, pt)
        Y = GrassTangent(pt, Y.H - X.H * inner_re(Y.H, X.H))
        Y = GrassTangent(pt, Y.H / Y.norm())
        chart = exp_chart(pt, X, Y, half_width=4.0 * eps)
        fr = frame_lift(pt)
        Xl, Yl = lie_lift(fr, X).mat, lie_lift(fr, Y).mat
        beta_ref = proj_m(matmul_stack(Xl, Yl, field) - matmul_stack(Yl, Xl, field), k)

        e = np.array([eps, eps / 2.0])
        G = holonomy_generator(chart, np.zeros(2), 0, 1, e, steps_per_leg=steps_per_leg,
                               order="ji", centered=True) / e[:, None, None]**2
        G = (4.0 * G[1] - G[0]) / 3.0
        beta_fit, res = fit_m_generator(field, k, -G / 2.0)
        omegas.append(beta_fit)
        refs.append(beta_ref)
        residuals.append(res)
    num = sum(inner_re(o, r) for o, r in zip(omegas, refs))
    den = sum(inner_re(r, r) for r in refs)
    c = float(num / den)
    dev = max(frob(o - c * r) for o, r in zip(omegas, refs))
    return LoopGeneratorCheck(c, float(dev), float(np.mean(residuals)), trials)


# ----------------------------------------------------------------------------
# base transport (Levi-Civita of the pulled-back metric) and the
# transported derivative of the curvature pairing
# ----------------------------------------------------------------------------

def christoffel(chart: ImmersionChart, u, h: float = FD_STEP) -> np.ndarray:
    """Gamma[..., l, i, j] of the pulled-back metric at u of shape (..., n),
    from one chart call on one projector stencil per node.

    The stencil (immersion._projector_stencil) is the centre, u ± s e_i
    and the corners u ± s e_i ± s e_j (i < j) for s = h and h/2: 1 + 4n²
    rows.  With ∂_aP and ∂_k∂_aP Richardson differences over h and h/2,
    g_ab = ½ Re tr(∂_aP ∂_bP) and
    ∂_k g_ab = ½ Re tr(∂_k∂_aP ∂_bP + ∂_aP ∂_k∂_bP).
    """
    U = np.asarray(u, dtype=float)
    n = chart.dim
    X = U.reshape(-1, n)
    chart.check_rows(X, 2 * h)
    d, dd = ((4.0 * Z[1] - Z[0]) / 3.0 for Z in _projector_stencil(chart, X, h)[2:])
    d = d.reshape(len(X), n, -1)                          # d[b, a] = ∂_a P, flat
    dd = dd.reshape(len(X), n, n, -1)                     # dd[b, k, a] = ∂_k∂_a P, flat
    g = 0.5 * np.real(np.einsum("bax,bcx->bac", d, np.conj(d)))
    T = np.real(np.einsum("bkax,bcx->bkac", dd, np.conj(d)))
    dg = 0.5 * (T + np.swapaxes(T, 2, 3))                 # dg[b, i, j, m] = ∂_i g_jm
    T = dg + np.swapaxes(dg, 1, 2) - np.moveaxis(dg, 1, -1)
    gamma = 0.5 * np.einsum("blm,bijm->blij", np.linalg.inv(g), T)
    return gamma.reshape(U.shape[:-1] + (n, n, n))


def base_transport(chart: ImmersionChart, u0, u1, x0, steps: int = 40,
                   h: float = FD_STEP) -> np.ndarray:
    """Levi-Civita transport of coordinate components x0 (n,) or columns
    (n, m) along a straight segment; u1 may be a stack (S, n) of end points
    when x0 has columns.  The Christoffel symbols at every RK4 node come
    from one batched call."""
    du, nodes = _segment_nodes(u0, u1, steps)
    A = -np.einsum("...lij,...i->...lj", christoffel(chart, nodes, h), du)
    return _rk4(A, np.array(x0, dtype=float), np.matmul)


DR_DELTA = 0.02             # curve parameter step of dr_oracle's central differences
DR_TRANSPORT_STEPS = 24     # RK4 steps of the fibre transport per evaluation
DR_BASE_STEPS = 12          # RK4 steps of the Levi-Civita transport per evaluation


def dr_oracle(chart: ImmersionChart, u, x_coords, y_coords, z_coords, w0, v0,
              h: float = FD_STEP) -> float:
    """Transported derivative of t -> Re <R(X_t, Y_t) w_t, v_t> at t = 0.

    Base arguments ride Levi-Civita transport of the pulled-back metric,
    fibre arguments ride the connection, and the derivative direction is
    the coordinate line through u with velocity z_coords.  Central
    differences with one Richardson level, t ∈ {±δ, ±δ/2}; the four curve
    parameters are one stack, so the Christoffel symbols, the fibre
    transport and the end-point pairing take one chart call each.  h is
    the finite-difference step of all three.
    """
    u = np.asarray(u, dtype=float)
    ut = u + np.outer(DR_DELTA * np.array([1.0, -1.0, 0.5, -0.5]), z_coords)
    xy0 = np.stack([np.asarray(x_coords, dtype=float),
                    np.asarray(y_coords, dtype=float)], axis=1)
    k = w0.shape[1]
    xy = base_transport(chart, u, ut, xy0, steps=DR_BASE_STEPS, h=h)
    wv, _ = parallel_transport(chart, u, ut, np.concatenate([w0, v0], axis=1),
                               steps=DR_TRANSPORT_STEPS, h=h)
    f = curvature_pairing_fd(chart, ut, xy[..., 0], xy[..., 1], wv[:, :, :k], wv[:, :, k:], h=h)
    g1 = (f[0] - f[1]) / (2.0 * DR_DELTA)
    g2 = (f[2] - f[3]) / DR_DELTA
    return float((4.0 * g2 - g1) / 3.0)
