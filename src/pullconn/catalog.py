"""Built-in example immersions.

Each builder returns an ImmersionChart with a vectorized closed-form
evaluation of a stack of coordinate rows and, where cheap, closed-form
differentials.  Registry names are the ones the command line accepts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, isfinite

import numpy as np

from .algebra import Field, ct_stack, frob_stack, from_real, matmul_stack, random_matrix
from .homogeneous import geodesic_stiefel_k1, horizontal_stack, stiefel_points
from .immersion import ImmersionChart


def _k1_chart(name: str, field: Field, N: int, box: tuple, cols, dcols,
              params: dict) -> ImmersionChart:
    """Rank-one chart u ↦ [W(u)] with analytic differentials.

    cols(U) gives the ambient columns W (B, N, 1[, 4]) of coordinate rows
    U, and dcols(U) their derivatives ∂_i W (B, dim, N, 1[, 4]), or a
    stack that broadcasts to it.  The differential of V = W/|W| at row b is
    the horizontal part of ∂_i W / |W|.
    """
    def ev(U: np.ndarray):
        return stiefel_points(cols(U), field)

    def diff(U: np.ndarray):
        W = cols(U)
        V, P = stiefel_points(W, field)
        H = horizontal_stack(V[:, None], dcols(U) / frob_stack(W)[:, None], field)
        return V, P, H

    return ImmersionChart(name=name, field=field, N=N, k=1, dim=len(box), box=box,
                          eval_point=ev, analytic_diff=diff, params=params)


def _affine_dcols(cols, n: int):
    """dcols of a chart whose columns are affine in u: ∂_i W = W(e_i) − W(0)."""
    dW = cols(np.eye(n)) - cols(np.zeros((1, n)))
    return lambda U: dW[None]


# ----------------------------------------------------------------------------
# linear: K P^{m-1} ⊂ G_1(K^N) via an affine chart
# ----------------------------------------------------------------------------

def linear_embedding(field: Field, m: int = 3, N: int = 4) -> ImmersionChart:
    field = Field.parse(field)
    if not 2 <= m <= N:
        raise ValueError("need 2 <= m <= N")
    n = field.real_dim * (m - 1)

    def cols(U: np.ndarray) -> np.ndarray:
        """Columns with entries 1, u-blocks, 0, ..., from real coordinates."""
        B = U.shape[0]
        R = np.zeros((B, N, 1, field.real_dim))
        R[:, 0, 0, 0] = 1.0
        R[:, 1:m, 0] = U.reshape(B, m - 1, field.real_dim)
        return from_real(R, field)

    box = tuple((-1.5, 1.5) for _ in range(n))
    return _k1_chart("linear", field, N, box, cols, _affine_dcols(cols, n),
                     {"m": m, "N": N})


# ----------------------------------------------------------------------------
# veronese: degree-d rational normal curve CP^1 → CP^d
# ----------------------------------------------------------------------------

def veronese(d: int = 2) -> ImmersionChart:
    if d < 1:
        raise ValueError("degree must be >= 1")
    coef = np.array([np.sqrt(comb(d, j)) for j in range(d + 1)])
    powers = np.arange(d + 1)

    def cols(U: np.ndarray) -> np.ndarray:
        """Columns coef_j z^j, z = u_0 + i u_1."""
        z = U[:, 0] + 1j * U[:, 1]
        return (coef * z[:, None] ** powers)[:, :, None]

    def dcols(U: np.ndarray) -> np.ndarray:
        """∂_0 W = dW/dz and ∂_1 W = i dW/dz."""
        z = U[:, 0] + 1j * U[:, 1]
        D = np.zeros((U.shape[0], 2, d + 1, 1), dtype=complex)
        D[:, 0, 1:, 0] = coef[1:] * powers[1:] * z[:, None] ** (powers[1:] - 1)
        D[:, 1] = 1j * D[:, 0]
        return D

    return _k1_chart("veronese", Field.COMPLEX, d + 1, ((-1.2, 1.2), (-1.2, 1.2)),
                     cols, dcols, {"d": d})


# ----------------------------------------------------------------------------
# totally-real: RP^n inside CP^n
# ----------------------------------------------------------------------------

def totally_real(n: int = 2) -> ImmersionChart:
    if n < 1:
        raise ValueError("need n >= 1")

    def cols(U: np.ndarray) -> np.ndarray:
        W = np.zeros((U.shape[0], n + 1, 1), dtype=complex)
        W[:, 0] = 1.0
        W[:, 1:, 0] = U
        return W

    box = tuple((-1.5, 1.5) for _ in range(n))
    return _k1_chart("totally-real", Field.COMPLEX, n + 1, box, cols,
                     _affine_dcols(cols, n), {"n": n})


# ----------------------------------------------------------------------------
# clifford: flat torus (u, v) ↦ [e^{iu} : e^{iv} : 1] in CP^2
# ----------------------------------------------------------------------------

def clifford_torus() -> ImmersionChart:
    def cols(U: np.ndarray) -> np.ndarray:
        W = np.ones((U.shape[0], 3, 1), dtype=complex)
        W[:, :2, 0] = np.exp(1j * U)
        return W

    def dcols(U: np.ndarray) -> np.ndarray:
        D = np.zeros((U.shape[0], 2, 3, 1), dtype=complex)
        D[:, [0, 1], [0, 1], 0] = 1j * np.exp(1j * U)
        return D

    return _k1_chart("clifford", Field.COMPLEX, 3, ((-3.0, 3.0), (-3.0, 3.0)),
                     cols, dcols, {})


# ----------------------------------------------------------------------------
# hline: quaternionic projective line HP^1 inside HP^{N-1}
# ----------------------------------------------------------------------------

def quaternionic_line(N: int = 3) -> ImmersionChart:
    """The linear chart of HP^1, under its own name."""
    if N < 2:
        raise ValueError("need N >= 2")
    return replace(linear_embedding(Field.QUATERNION, 2, N), name="hline", params={"N": N})


# ----------------------------------------------------------------------------
# grassmann-sub: G_k(R^m) inside G_k(R^N), standard affine patch
# ----------------------------------------------------------------------------

def grassmann_sub(k: int = 2, m: int = 4, N: int = 5) -> ImmersionChart:
    if not (1 <= k < m <= N):
        raise ValueError("need 1 <= k < m <= N")
    n = k * (m - k)

    def ev(U: np.ndarray):
        B = U.shape[0]
        A = np.zeros((B, N, k))
        A[:, :k] = np.eye(k)
        A[:, k:m] = U.reshape(B, m - k, k)
        return stiefel_points(A, Field.REAL)

    box = tuple((-1.0, 1.0) for _ in range(n))
    return ImmersionChart(
        name="grassmann-sub", field=Field.REAL, N=N, k=k, dim=n,
        box=box, eval_point=ev, analytic_diff=None,
        params={"k": k, "m": m, "N": N},
    )


# ----------------------------------------------------------------------------
# perturbed: geodesic-graph perturbation of a rank-one base chart
# ----------------------------------------------------------------------------

def perturbed(base: ImmersionChart = None, amplitude: float = 0.05,
              seed: int = 7, modes: int = 3) -> ImmersionChart:
    if base is None:
        base = veronese(2)
    if base.k != 1:
        raise ValueError("perturbation wrapper supports rank-one charts only")
    rng = np.random.default_rng(seed)
    n = base.dim
    field = base.field
    omegas = rng.integers(1, 3, size=(modes, n)) * rng.choice([-1.0, 1.0], size=(modes, n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    cvecs = np.expand_dims(random_matrix(rng, field, modes, base.N), 2)   # (modes, N, 1[, 4])
    for i in range(modes):
        cvecs[i] = cvecs[i] / np.sqrt(np.sum(np.abs(cvecs[i]) ** 2))

    def ev(U: np.ndarray):
        V0, _ = base.eval_point(U)
        V0h = ct_stack(V0, field)
        bcast = (-1,) + (1,) * (V0.ndim - 1)
        H = np.zeros_like(V0)
        for i in range(modes):
            c = cvecs[i] - matmul_stack(V0, matmul_stack(V0h, cvecs[i], field), field)
            H = H + np.sin(U @ omegas[i] + phases[i]).reshape(bcast) * c
        return stiefel_points(geodesic_stiefel_k1(V0, amplitude * H, 1.0), field)

    return ImmersionChart(
        name="perturbed", field=field, N=base.N, k=1, dim=n,
        box=base.box, eval_point=ev, analytic_diff=None,
        params={"base": base.name, "amplitude": amplitude, "seed": seed,
                **{f"base_{k}": v for k, v in base.params.items()}},
    )


# ----------------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    fields: tuple              # fields the chart exists over
    defaults: dict
    expected: dict             # headline properties for reports and tests

    def build(self, field: Field = None, **params) -> ImmersionChart:
        p = dict(self.defaults)
        p.update({k: v for k, v in params.items() if v is not None})
        for key, v in p.items():
            if isinstance(v, float) and not isfinite(v):
                raise ValueError(f"parameter '{key}' must be finite, got {v!r}")

        def whole(key: str) -> int:
            """An integer parameter; a fractional value is an error, not truncated."""
            if float(p[key]) != int(p[key]):
                raise ValueError(f"parameter '{key}' must be an integer, got {p[key]!r}")
            return int(p[key])

        if self.name == "linear":
            f = Field.parse(field) if field is not None else Field.COMPLEX
            return linear_embedding(f, m=whole("m"), N=whole("N"))
        if self.name == "veronese":
            return veronese(whole("d"))
        if self.name == "totally-real":
            return totally_real(whole("n"))
        if self.name == "clifford":
            return clifford_torus()
        if self.name == "hline":
            return quaternionic_line(whole("N"))
        if self.name == "grassmann-sub":
            return grassmann_sub(whole("k"), whole("m"), whole("N"))
        if self.name == "perturbed":
            base = CATALOG[p.get("base", "veronese")].build(
                field, **{k[5:]: v for k, v in p.items() if k.startswith("base_")}
            )
            return perturbed(base, amplitude=float(p["amplitude"]), seed=whole("seed"))
        raise KeyError(self.name)


CATALOG = {
    "linear": CatalogEntry(
        "linear", "projective subspace K P^{m-1} in G_1(K^N)",
        (Field.REAL, Field.COMPLEX, Field.QUATERNION),
        {"m": 3, "N": 4},
        {"totally_geodesic": True, "fat_expected": "field-dependent"},
    ),
    "veronese": CatalogEntry(
        "veronese", "degree-d rational normal curve in CP^d",
        (Field.COMPLEX,),
        {"d": 2},
        {"holomorphic": True, "parallel": True, "gram_ratio": "d"},
    ),
    "totally-real": CatalogEntry(
        "totally-real", "real projective space RP^n in CP^n",
        (Field.COMPLEX,),
        {"n": 2},
        {"totally_geodesic": True, "wirtinger": "pi/2"},
    ),
    "clifford": CatalogEntry(
        "clifford", "flat Lagrangian torus in CP^2",
        (Field.COMPLEX,),
        {},
        {"flat": True, "minimal": True, "wirtinger": "pi/2"},
    ),
    "hline": CatalogEntry(
        "hline", "quaternionic projective line in HP^{N-1}",
        (Field.QUATERNION,),
        {"N": 3},
        {"totally_geodesic": True, "quaternionic": True},
    ),
    "grassmann-sub": CatalogEntry(
        "grassmann-sub", "real sub-Grassmannian G_k(R^m) in G_k(R^N)",
        (Field.REAL,),
        {"k": 2, "m": 4, "N": 5},
        {"totally_geodesic": True},
    ),
    "perturbed": CatalogEntry(
        "perturbed", "seeded geodesic-graph perturbation of a base chart",
        (Field.REAL, Field.COMPLEX, Field.QUATERNION),
        {"base": "veronese", "amplitude": 0.05, "seed": 7, "base_d": 2},
        {"deterministic": True, "breaks_parallel": True},
    ),
}


def build_chart(name: str, field=None, **params) -> ImmersionChart:
    if name not in CATALOG:
        raise KeyError(f"unknown example '{name}'; known: {sorted(CATALOG)}")
    return CATALOG[name].build(field, **params)
