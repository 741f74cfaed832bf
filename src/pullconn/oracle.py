"""Brute-force reference computations: finite-difference curvature,
parallel transport, holonomy loops, transported derivatives.

Everything here is deliberately independent of the closed-form frame
expressions — projector stencils, RK4 integration and matrix logarithms
only — so agreement with the frame layer is evidence, not tautology.

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
import scipy.linalg as sla

from .algebra import (
    QL,
    Field,
    ct_stack,
    expm_alg,
    frob,
    inner_re,
    matmul_stack,
    random_matrix,
    zeros,
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
    random_horizontal,
    stiefel_points,
)
from .immersion import (
    ImmersionChart,
    central_stencil,
    differential,
    differential_stack,
    richardson_difference,
)

# ----------------------------------------------------------------------------
# scalar bookkeeping for fibre coefficients
# ----------------------------------------------------------------------------

_QUNITS = np.eye(4)


def scalar_units(field: Field):
    """Real basis of the scalar field, in the package's representation."""
    if field is Field.QUATERNION:
        return [np.array(_QUNITS[t]) for t in range(4)]
    if field is Field.COMPLEX:
        return [1.0 + 0.0j, 1.0j]
    return [1.0]


def m_basis(field: Field, k: int):
    """Basis of anti-Hermitian k-by-k scalar matrices (the vertical algebra)."""
    out = []
    units = scalar_units(field)[1:]  # imaginary units only
    if field is not Field.REAL:
        for q in units:
            for a in range(k):
                M = zeros(field, k, k)
                M[a, a] = q
                out.append(M)
    for a in range(k):
        for b in range(a + 1, k):
            M = zeros(field, k, k)
            if field is Field.QUATERNION:
                M[a, b] = _QUNITS[0]
                M[b, a] = -_QUNITS[0]
            else:
                M[a, b] = 1.0
                M[b, a] = -1.0
            out.append(M)
            for q in units:
                M = zeros(field, k, k)
                M[a, b] = q
                M[b, a] = q
                out.append(M)
    return out


def left_mult_matrix(field: Field, k: int, beta) -> np.ndarray:
    """Real matrix of c -> beta c on fibre coefficients, basis e_a * unit_t:
    row b·d + s, column a·d + t holds component s of beta_ba unit_t."""
    beta = np.asarray(beta)
    if field is Field.QUATERNION:
        blocks = np.einsum("sxt,bax->bsat", QL, beta)      # beta_ba e_t = Σ_s QL[s, x, t] beta_ba[x] e_s
    elif field is Field.COMPLEX:
        blocks = np.stack([np.stack([beta.real, -beta.imag], -1),
                           np.stack([beta.imag, beta.real], -1)], 1)   # [b, s, a, t]
    else:
        blocks = beta[:, None, :, None]
    d = blocks.shape[1]
    return blocks.reshape(k * d, k * d).astype(float)


def fit_m_generator(field: Field, k: int, G: np.ndarray):
    """Least-squares fit of a real fibre matrix to a vertical-algebra action.

    Returns (beta, residual): the anti-Hermitian scalar matrix whose
    left-multiplication matrix best matches G, and the Frobenius residual.
    """
    basis = m_basis(field, k)
    if not basis:
        return None, float(np.linalg.norm(G))
    cols = np.stack([left_mult_matrix(field, k, b).ravel() for b in basis], axis=1)
    x, *_ = np.linalg.lstsq(cols, G.ravel(), rcond=None)
    beta = basis[0] * 0.0
    for xe, b in zip(x, basis):
        beta = beta + float(xe) * b
    residual = float(np.linalg.norm(G.ravel() - cols @ x))
    return beta, residual


# ----------------------------------------------------------------------------
# curvature stencils
# ----------------------------------------------------------------------------

def _ambient_derivatives(chart: ImmersionChart, u, h: float = FD_STEP,
                         use_analytic: bool = True):
    """d_i P as ambient matrices, via the differential machinery."""
    D = differential(chart, u, h=h, use_analytic=use_analytic)
    return D[0].base, [t.delta for t in D]


def curvature_pairing_fd(chart: ImmersionChart, u, x_coords, y_coords, w, v,
                         h: float = FD_STEP, use_analytic: bool = True) -> float:
    """Real pairing Re <R(X, Y) w, v> of the bridged fibre curvature, X and
    Y given by coordinate components, from finite differences alone."""
    pt, dP = _ambient_derivatives(chart, u, h=h, use_analytic=use_analytic)
    DX = sum(float(c) * d for c, d in zip(x_coords, dP))
    DY = sum(float(c) * d for c, d in zip(y_coords, dP))
    f = chart.field
    comm = matmul_stack(DX, DY, f) - matmul_stack(DY, DX, f)
    return inner_re(bridge(f) * matmul_stack(pt.P, matmul_stack(comm, w, f), f), v)


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


def parallel_transport(chart: ImmersionChart, u0, u1, w0,
                       steps: int = TRANSPORT_STEPS):
    """Transport a fibre vector along the straight coordinate segment.

    Integrates s' = [P', P] s with classical RK4 and re-projects into the
    fibre after every step.  The 2·steps + 1 RK4 nodes are
    evaluated up front in one batch.  Returns (w1, endpoint).
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    du = u1 - u0
    V, P, H = differential_stack(chart, u0 + np.outer(np.linspace(0.0, 1.0, 2 * steps + 1), du))
    f = chart.field
    Hd = np.einsum("i,bi...->b...", du, H)   # horizontal form of P' = Σ du_i ∂_i P
    Pd = matmul_stack(Hd, ct_stack(V, f), f) + matmul_stack(V, ct_stack(Hd, f), f)
    A = matmul_stack(Pd, P, f) - matmul_stack(P, Pd, f)
    return (_rk4(A, np.asarray(w0), lambda M, v: matmul_stack(M, v, f), P),
            GrassPoint(f, chart.N, chart.k, V[-1], P[-1]))


def holonomy_map(chart: ImmersionChart, u, i: int, j: int, eps: float,
                 steps_per_leg: int = 10, order: str = "ij",
                 centered: bool = False):
    """Transport the fibre frame around a coordinate square of side eps.

    Returns (start point, transported frame).  order "ij" walks the i leg
    first; "ji" walks the same square the other way around.
    """
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


def holonomy_generator(chart: ImmersionChart, u, i: int, j: int, eps: float,
                       steps_per_leg: int = 10, order: str = "ij",
                       centered: bool = False) -> np.ndarray:
    """log of the real fibre return matrix of the square loop: the real
    matrix of c ↦ (V0* T) c on fibre coefficients."""
    pt0, T = holonomy_map(chart, u, i, j, eps, steps_per_leg, order, centered)
    f = pt0.field
    return np.real(sla.logm(left_mult_matrix(f, pt0.k, matmul_stack(ct_stack(pt0.V, f), T, f))))


# ----------------------------------------------------------------------------
# two-parameter exponential charts and the loop-generator fit
# ----------------------------------------------------------------------------

def _skew_exp(A: np.ndarray, field: Field):
    """u ↦ the stack e^{u_b A} over the entries of a column u, for one
    skew-Hermitian A.

    Over R and C from one eigendecomposition iA = Q diag(w) Q*, so that
    e^{uA} = Q diag(e^{−iuw}) Q* (Moler & Van Loan, "Nineteen dubious ways
    to compute the exponential of a matrix, twenty-five years later", SIAM
    Rev. 45, 2003, method 14); the real part over R.  Over H one expm_alg
    call per entry.
    """
    if field is Field.QUATERNION:
        return lambda u: np.array([expm_alg(A * float(t), field) for t in u])
    w, Q = np.linalg.eigh(1j * A)
    Qh = Q.conj().T

    def expo(u):
        E = (Q * np.exp(-1j * np.multiply.outer(u, w))[:, None, :]) @ Qh
        return E.real if field is Field.REAL else E
    return expo


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
    expX, expY = _skew_exp(Xl, f), _skew_exp(Yl, f)

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

        def gen(e):
            return holonomy_generator(chart, np.zeros(2), 0, 1, e,
                                      steps_per_leg=steps_per_leg,
                                      order="ji", centered=True) / e**2

        G = (4.0 * gen(eps / 2.0) - gen(eps)) / 3.0
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

def gram_at(chart: ImmersionChart, u) -> np.ndarray:
    """Gram matrices G_ab = Re tr(D_b* D_a) of the coordinate differentials
    at u of shape (..., n), one differential_stack call for all points."""
    U = np.asarray(u, dtype=float)
    n = chart.dim
    _, _, H = differential_stack(chart, U.reshape(-1, n))
    H = H.reshape(H.shape[0], n, -1)
    return np.real(np.einsum("bax,bcx->bac", H, np.conj(H))).reshape(U.shape[:-1] + (n, n))


def christoffel(chart: ImmersionChart, u, h: float = FD_STEP) -> np.ndarray:
    """Gamma[..., l, i, j] of the pulled-back metric at u of shape (..., n),
    by Richardson differences of the Gram matrix; one gram_at call."""
    U = np.asarray(u, dtype=float)
    n = chart.dim
    stencil = central_stencil(U.reshape(-1, n), h)
    G = gram_at(chart, stencil)
    d = richardson_difference(G, h)          # d[b, i, j, m] = ∂_i g_jm
    ginv = np.linalg.inv(G[:, 0])
    T = d + np.swapaxes(d, 1, 2) - np.moveaxis(d, 1, -1)
    gamma = 0.5 * np.einsum("blm,bijm->blij", ginv, T)
    return gamma.reshape(U.shape[:-1] + (n, n, n))


def base_transport(chart: ImmersionChart, u0, u1, x0, steps: int = 40) -> np.ndarray:
    """Levi-Civita transport of coordinate components along a straight
    segment; the Christoffel symbols at all 2·steps + 1 RK4 nodes come from
    one batched call."""
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    du = u1 - u0
    gamma = christoffel(chart, u0 + np.outer(np.linspace(0.0, 1.0, 2 * steps + 1), du))
    A = -np.einsum("blij,i->blj", gamma, du)
    return _rk4(A, np.array(x0, dtype=float), np.matmul)


DR_DELTA = 0.02             # curve parameter step of dr_oracle's central differences
DR_TRANSPORT_STEPS = 24     # RK4 steps of the fibre transport per evaluation
DR_BASE_STEPS = 12          # RK4 steps of the Levi-Civita transport per evaluation


def dr_oracle(chart: ImmersionChart, u, x_coords, y_coords, z_coords, w0, v0) -> float:
    """Transported derivative of t -> Re <R(X_t, Y_t) w_t, v_t> at t = 0.

    Base arguments ride Levi-Civita transport of the pulled-back metric,
    fibre arguments ride the connection, and the derivative direction is
    the coordinate line through u with velocity z_coords.  Central
    differences with one Richardson level.  Both base vectors share one
    transport integration, as do both fibre sections.
    """
    u = np.asarray(u, dtype=float)
    z = np.asarray(z_coords, dtype=float)
    xy0 = np.stack([np.asarray(x_coords, dtype=float),
                    np.asarray(y_coords, dtype=float)], axis=1)
    k = w0.shape[1]
    wv0 = np.concatenate([w0, v0], axis=1)

    def f(t: float) -> float:
        ut = u + t * z
        xy = base_transport(chart, u, ut, xy0, steps=DR_BASE_STEPS)
        wv, _ = parallel_transport(chart, u, ut, wv0, steps=DR_TRANSPORT_STEPS)
        return curvature_pairing_fd(chart, ut, xy[:, 0], xy[:, 1],
                                    wv[:, :k], wv[:, k:])

    def slope(dl: float) -> float:
        return (f(dl) - f(-dl)) / (2.0 * dl)

    g1 = slope(DR_DELTA)
    g2 = slope(DR_DELTA / 2.0)
    return (4.0 * g2 - g1) / 3.0
