"""Brute-force reference computations: finite-difference curvature,
parallel transport, holonomy loops, transported derivatives.

Finite differences and the projector P = VV* live here and nowhere else:
`_projector_stencil` builds every finite-difference row, and only the
curvature pairing (the first differences of `differential_fd`) is a
finite difference; it does not read the chart's jet.
The transports take the chart's order-1 jet at the RK4 nodes, and the
Christoffel symbols its order-2 jet: the jet that also gives the frame
layer its differentials, which `tests/test_jets.py` holds to central
differences of the chart's values.  A tangent enters the isometry
algebra as its `ambient_lift` HV* − VH*, which is also the transport
generator [P', P].  Every oracle makes one chart call per batch:
`dr_oracle` stacks its four curve parameters, a holonomy loop its four
legs and every loop size, `lemma_omega_check` its trials in one `exp_chart`.
Holonomy generators are the Gregory series logarithm of the whole stack of
return matrices V0* T: k×k matrices over the field, so they lie in the
structure algebra m as `bracket_m` does.

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
    Jet,
    ct_stack,
    eye,
    inv_small,
    matmul_stack,
    random_matrix,
    re_dot,
    skew_exp,
    sq_norm,
)
from .constants import FD_STEP, TRANSPORT_STEPS, bridge
from .homogeneous import (
    GrassPoint,
    GrassTangent,
    ambient_lift,
    horizontal_stack,
    projector,
    projector_derivative,
    stiefel_points,
)
from .immersion import ImmersionChart, chart_jet

# ----------------------------------------------------------------------------
# finite differences of the projector map
# ----------------------------------------------------------------------------

def _projector_stencil(chart: ImmersionChart, U: np.ndarray, h: float):
    """Central differences of the projector map at the steps h and h/2 around
    every row of U (B, n), from one chart call on the 1 + 4n rows centre,
    u + step e_i and u − step e_i: (V, P, d) with V and P at the centres
    and d (2, B, n, N, N[, 4]) the differences of ∂_i P; index 0 is step h,
    index 1 step h/2."""
    B, n = U.shape
    steps = np.array([h, h / 2.0])
    basis = np.eye(n)
    rows = U[:, None, None] + steps[:, None, None] * np.concatenate([basis, -basis])
    V = chart.eval_point(np.concatenate([U[:, None], rows.reshape(B, -1, n)], axis=1).reshape(-1, n))
    P = projector(V, chart.field)
    V = V.reshape((B, -1) + V.shape[1:])[:, 0]
    P = P.reshape((B, 1 + 4 * n) + P.shape[1:])
    pd = np.moveaxis(P[:, 1:].reshape((B, 2, 2, n) + P.shape[2:]), 1, 0)   # [step, b, sign, i]
    d = (pd[:, :, 0] - pd[:, :, 1]) / (2.0 * steps.reshape((2,) + (1,) * (pd.ndim - 2)))
    return V, P[:, 0], d


def differential_fd(chart: ImmersionChart, U, h: float = FD_STEP):
    """Stacked (V, P, H) at every row of U (B, n), H[b, i] = ∂φ/∂u_i: the
    tangent horizontal_stack(V, M·V) of the Richardson difference M = ∂_i P
    from one stencil call, as (PM(I−P) + (I−P)MP)V = (I−P)MV when PV = V."""
    U = np.asarray(U, dtype=float)
    chart.check_rows(U, 2 * h)
    f = chart.field
    V, P, d = _projector_stencil(chart, U, h)
    dP = (4.0 * d[1] - d[0]) / 3.0
    return V, P, horizontal_stack(V[:, None], matmul_stack(dP, V[:, None], f), f)


def curvature_pairing_fd(chart: ImmersionChart, u, x_coords, y_coords, w, v,
                         h: float = FD_STEP):
    """Real pairing Re <R(X, Y) w, v> of the bridged fibre curvature, X and
    Y given by coordinate components, from finite differences alone.

    u (..., n), the coordinate vectors (..., n) and the fibre vectors
    (..., N, m[, 4]) may carry leading stack axes, which broadcast; the
    differentials at every row of u come from one differential_fd call.
    """
    U = np.asarray(u, dtype=float)
    f = chart.field
    tail = f.matrix_ndim
    V, P, H = differential_fd(chart, U.reshape(-1, chart.dim), h)
    dP = projector_derivative(V[:, None], H, f)
    dP = np.moveaxis(dP.reshape(U.shape[:-1] + dP.shape[1:]), -tail - 1, 0)   # dP[i] = ∂_i P
    P = P.reshape(U.shape[:-1] + P.shape[1:])
    x, y = (np.moveaxis(np.asarray(c, dtype=float), -1, 0)[(...,) + (None,) * tail]
            for c in (x_coords, y_coords))
    DX = sum(c * d for c, d in zip(x, dP))
    DY = sum(c * d for c, d in zip(y, dP))
    comm = matmul_stack(DX, DY, f) - matmul_stack(DY, DX, f)
    Rw = bridge(f) * matmul_stack(P, matmul_stack(comm, w, f), f)
    return re_dot(v, Rw, f)[(...,) + (0,) * tail]


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


def _transport_generator(chart: ImmersionChart, u0, u1, steps: int):
    """V, P = VV* and the generator A = [P', P] of the fibre transport
    s' = A s at the _segment_nodes of u0 → u1, the ambient_lift of the
    horizontal velocity Σ du_i D_i; one order-1 chart_jet call."""
    du, nodes = _segment_nodes(u0, u1, steps)
    V, H, _ = chart_jet(chart, nodes.reshape(-1, chart.dim), 1)
    lead, f = nodes.shape[:-1], chart.field
    V = V.reshape(lead + V.shape[1:])
    Hd = np.einsum("...i,...ix->...x", du, H.reshape(lead + (chart.dim, -1))).reshape(V.shape)
    return V, projector(V, f), ambient_lift(V, Hd, f)


def parallel_transport(chart: ImmersionChart, u0, u1, w0, steps: int = TRANSPORT_STEPS):
    """Transport a fibre vector along the straight coordinate segment.

    Integrates s' = [P', P] s with classical RK4 and re-projects into the
    fibre after every step.  u1 may be a stack (S, n) of end points, with
    w0 broadcasting against it; the RK4 nodes of every segment are
    evaluated up front in one batch.  Returns (w1, endpoint).
    """
    V, P, A = _transport_generator(chart, u0, u1, steps)
    f = chart.field
    return (_rk4(A, np.asarray(w0), lambda M, v: matmul_stack(M, v, f), P),
            GrassPoint(f, chart.N, chart.k, V[-1]))


LOG_TERMS = 60   # most odd terms of the series logarithm


def _series_log(M: np.ndarray, field: Field) -> np.ndarray:
    """Logarithm of a stack (..., k, k[, 4]) of matrices over the field near
    the identity, by Gregory's series log M = 2 artanh(Z) = 2 Σ_j Z^{2j+1}/(2j+1)
    with Z = (M + I)⁻¹(M − I) (Higham, "Functions of Matrices", SIAM 2008,
    §11.3), summed until every term is below its sum's rounding.  Raises
    ValueError if M + I is singular, some ‖Z‖_F ≥ 1 or LOG_TERMS fall short.
    Over H, k ≥ 2 raises NotImplementedError, as `inv_small` does; every
    quaternionic catalog chart has rank one."""
    one = eye(field, M.shape[-field.matrix_ndim])
    with np.errstate(divide="ignore", invalid="ignore"):
        Z = matmul_stack(inv_small(M + one, field), M - one, field)   # M ± I commute
    if not np.all(sq_norm(Z, field) < 1.0):
        raise ValueError("return matrix too far from the identity for the series logarithm")
    axes = tuple(range(-field.matrix_ndim, 0))
    Z2 = matmul_stack(Z, Z, field)
    term = total = Z
    for j in range(1, LOG_TERMS):
        term = matmul_stack(term, Z2, field)
        step = term / (2 * j + 1)
        total = total + step
        if np.all(np.abs(step).max(axis=axes)
                  <= np.finfo(float).eps * np.abs(total).max(axis=axes)):
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
    V, P, A = _transport_generator(chart, corners[:-1], corners[1:], steps_per_leg)
    f = chart.field
    s = V0 = V[0, 0]
    for leg in range(4):
        s = _rk4(A[:, leg], s, lambda M, v: matmul_stack(M, v, f), P[:, leg])
    if np.ndim(eps) == 0:
        V0, s = V0[0], s[0]
    return GrassPoint(f, chart.N, chart.k, V0), s


def holonomy_generator(chart: ImmersionChart, u, i: int, j: int, eps,
                       steps_per_leg: int = 10, order: str = "ij",
                       centered: bool = False) -> np.ndarray:
    """log of the return matrix V0* T of the square loop: a k×k matrix over
    the field, in the structure algebra m up to the transport error;
    stacked over an array eps, as holonomy_map."""
    pt0, T = holonomy_map(chart, u, i, j, eps, steps_per_leg, order, centered)
    f = pt0.field
    return _series_log(matmul_stack(ct_stack(pt0.V, f), T, f), f)


# ----------------------------------------------------------------------------
# two-parameter exponential charts and the loop-generator fit
# ----------------------------------------------------------------------------

def exp_chart(pt: GrassPoint, X: GrassTangent, Y: GrassTangent,
              half_width: float = 1.0) -> ImmersionChart:
    """Internal chart u -> span of e^{u1 A_X} e^{u2 A_Y} V, A the
    ambient_lift of each tangent; both exponentials are computed once per
    coordinate row.  The column jet is written out: each derivative along
    u1 brings down A_X after e^{u1 A_X}, each along u2 brings down A_Y
    after e^{u2 A_Y}.  Over a stack (trials, N, k[, 4]) of V, X.H and Y.H
    the columns are (rows, [2, [2,]] trials, N, k[, 4])."""
    f, V = pt.field, pt.V
    AX, AY = ambient_lift(V, X.H, f), ambient_lift(V, Y.H, f)
    expX, expY = skew_exp(AX, f), skew_exp(AY, f)
    YV = matmul_stack(AY, V, f)
    YYV = matmul_stack(AY, YV, f)

    def cols(J: Jet) -> Jet:
        """Columns at the rows of the seed jet J, to its order."""
        EX, EY = expX(J.v[:, 0]), expY(J.v[:, 1])
        right = [matmul_stack(EY, V, f)]          # the factors right of e^{u1 A_X}, per order
        if J.order >= 1:
            X1, Y1 = matmul_stack(AX, right[0], f), matmul_stack(EY, YV, f)
            right.append(np.stack([X1, Y1], axis=1))
        if J.order >= 2:
            XY = matmul_stack(AX, Y1, f)
            right.append(np.stack([np.stack([matmul_stack(AX, X1, f), XY], axis=1),
                                   np.stack([XY, matmul_stack(EY, YYV, f)], axis=1)], axis=1))
        return Jet(*(matmul_stack(EX[(slice(None),) + (None,) * m], R, f)
                     for m, R in enumerate(right)))

    box = ((-half_width, half_width), (-half_width, half_width))
    return ImmersionChart(name="exp-pair", field=f, N=pt.N, k=pt.k, dim=2, box=box, cols=cols)


def bracket_m(X: GrassTangent, Y: GrassTangent) -> np.ndarray:
    """V*[A_X, A_Y]V, the structure-algebra part of the bracket of the
    ambient lifts of two tangents at one point V."""
    V, f = X.base.V, X.base.field
    AX, AY = ambient_lift(V, X.H, f), ambient_lift(V, Y.H, f)
    C = matmul_stack(AX, AY, f) - matmul_stack(AY, AX, f)
    return matmul_stack(ct_stack(V, f), matmul_stack(C, V, f), f)


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
    -G / (2 eps^2) proportional to bracket_m(X, Y) = V*[A_X, A_Y]V.
    A Richardson pair in eps removes the O(eps^2) loop bias.  The algebra
    element of a trial is the anti-Hermitian part of -G / 2.  Returns the
    least-squares constant (expected 1/2), the worst absolute deviation of
    the algebra elements from c_fit times the bracket projection, and the
    mean Frobenius norm of the Hermitian parts of -G / 2: how far the
    generators fall outside m.  The trials are one stack (V, X, Y) of shape
    (trials, N, k[, 4]): one exp_chart, one holonomy_generator over eps ×
    trials, G (2, trials, k, k[, 4]), and Python sums in trial order.
    """
    field = Field.parse(field)
    rng = np.random.default_rng(seed)
    V, X, Y = np.moveaxis(random_matrix(rng, field, N, k, lead=(trials, 3)), 1, 0)
    pt = GrassPoint(field, N, k, stiefel_points(V, field))
    X, Y = horizontal_stack(pt.V, np.stack([X, Y]), field)
    X = X / np.sqrt(sq_norm(X, field))
    Y = Y - X * re_dot(X, Y, field)
    X, Y = GrassTangent(pt, X), GrassTangent(pt, Y / np.sqrt(sq_norm(Y, field)))
    chart = exp_chart(pt, X, Y, half_width=4.0 * eps)
    e = np.array([eps, eps / 2.0])
    G = holonomy_generator(chart, np.zeros(2), 0, 1, e, steps_per_leg=steps_per_leg,
                           order="ji", centered=True)
    G = G / e.reshape((-1,) + (1,) * (field.matrix_ndim + 1))**2
    B = -(4.0 * G[1] - G[0]) / 3.0 / 2.0
    omegas, refs = 0.5 * (B - ct_stack(B, field)), bracket_m(X, Y)
    residuals = np.sqrt(sq_norm(0.5 * (B + ct_stack(B, field)), field))
    c = float(sum(re_dot(refs, omegas, field).ravel().tolist())
              / sum(sq_norm(refs, field).ravel().tolist()))
    dev = np.sqrt(sq_norm(omegas - c * refs, field)).max()
    return LoopGeneratorCheck(c, float(dev), float(np.mean(residuals)), trials)


# ----------------------------------------------------------------------------
# base transport (Levi-Civita of the pulled-back metric) and the
# transported derivative of the curvature pairing
# ----------------------------------------------------------------------------

def christoffel(chart: ImmersionChart, u) -> np.ndarray:
    """Gamma[..., l, i, j] of the pulled-back metric at u of shape (..., n),
    from one order-2 chart_jet call: Γ^l_ij = g^lm Re⟨DD_ij, D_m⟩ with
    g_ij = Re⟨D_i, D_j⟩.  The tangential part of the covariant second
    derivative DD_ij is the Levi-Civita derivative of the pulled-back
    metric (Gauss formula), so the symbols are exact."""
    U = np.asarray(u, dtype=float)
    n = chart.dim
    _, D, DD = chart_jet(chart, U.reshape(-1, n))
    D = D.reshape(len(D), n, -1)                          # D[b, m] = ∂_m φ, flat
    g = np.real(np.einsum("bix,bjx->bij", D, np.conj(D)))
    T = np.real(np.einsum("bijx,bmx->bijm", DD.reshape(len(D), n, n, -1), np.conj(D)))
    gamma = np.einsum("blm,bijm->blij", np.linalg.inv(g), T)
    return gamma.reshape(U.shape[:-1] + (n, n, n))


def base_transport(chart: ImmersionChart, u0, u1, x0, steps: int = 40) -> np.ndarray:
    """Levi-Civita transport of coordinate components x0 (n,) or columns
    (n, m) along a straight segment; u1 may be a stack (S, n) of end points
    when x0 has columns.  The Christoffel symbols at every RK4 node come
    from one order-2 chart_jet call."""
    du, nodes = _segment_nodes(u0, u1, steps)
    A = -np.einsum("...lij,...i->...lj", christoffel(chart, nodes), du)
    return _rk4(A, np.array(x0, dtype=float), np.matmul)


DR_DELTA = 0.02             # curve parameter step of dr_oracle's central differences
DR_TRANSPORT_STEPS = 24     # RK4 steps of the fibre transport per evaluation
DR_BASE_STEPS = 12          # RK4 steps of the Levi-Civita transport per evaluation


def dr_centres(u, z_coords) -> np.ndarray:
    """The curve parameters u + t·z, t ∈ {±δ, ±δ/2}, at which dr_oracle pairs."""
    return np.asarray(u, dtype=float) + np.outer(DR_DELTA * np.array([1.0, -1.0, 0.5, -0.5]), z_coords)


def dr_oracle(chart: ImmersionChart, u, x_coords, y_coords, z_coords, w0, v0,
              h: float = FD_STEP) -> float:
    """Transported derivative of t -> Re <R(X_t, Y_t) w_t, v_t> at t = 0.

    Base arguments ride Levi-Civita transport of the pulled-back metric,
    fibre arguments ride the connection, and the derivative direction is
    the coordinate line through u with velocity z_coords.  Central
    differences with one Richardson level, t ∈ {±δ, ±δ/2}; the four curve
    parameters are one stack, so the Christoffel symbols, the fibre
    transport and the end-point pairing take one chart call each.  h is
    the finite-difference step of the pairing; the Christoffel symbols and
    the fibre transport take the chart's jet.
    """
    ut = dr_centres(u, z_coords)
    xy0 = np.stack([np.asarray(x_coords, dtype=float),
                    np.asarray(y_coords, dtype=float)], axis=1)
    k = w0.shape[1]
    xy = base_transport(chart, u, ut, xy0, steps=DR_BASE_STEPS)
    wv, _ = parallel_transport(chart, u, ut, np.concatenate([w0, v0], axis=1),
                               steps=DR_TRANSPORT_STEPS)
    f = curvature_pairing_fd(chart, ut, xy[..., 0], xy[..., 1], wv[:, :, :k], wv[:, :, k:], h=h)
    g1 = (f[0] - f[1]) / (2.0 * DR_DELTA)
    g2 = (f[2] - f[3]) / DR_DELTA
    return float((4.0 * g2 - g1) / 3.0)
