"""Built-in example immersions.

Each builder returns an ImmersionChart whose `cols` is written once with
the jet operations of `algebra`, so one call gives the columns of a stack
of coordinate rows with their first and second derivatives.  Registry
names are the ones the command line accepts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, isfinite
from numbers import Real
from typing import Callable

import numpy as np

from .algebra import Field, apply, combine, ct_stack, from_real, matmul_stack, random_matrix, sq_norm
from .homogeneous import geodesic_stiefel_k1
from .immersion import ImmersionChart


def _affine(name: str, field: Field, box: tuple, W: np.ndarray, params: dict) -> ImmersionChart:
    """The chart u ↦ span of W[0] + Σ_i u_i W[1 + i], for W (1 + dim, N, k[, 4])."""
    def cols(J):
        return J.lin(lambda x: combine(x, W[1:])) + W[0]

    return ImmersionChart(name=name, field=field, N=W.shape[1], k=W.shape[2], dim=len(W) - 1,
                          box=box, cols=cols, params=params)


# ----------------------------------------------------------------------------
# linear: K P^{m-1} ⊂ G_1(K^N) via an affine chart
# ----------------------------------------------------------------------------

def linear_embedding(field: Field, m: int = 3, N: int = 4) -> ImmersionChart:
    """Columns with entries 1, the u-blocks, 0, …: coordinate i is real
    component i mod d of entry 1 + i // d, d the field's real dimension."""
    field = Field.parse(field)
    if not 2 <= m <= N:
        raise ValueError("need 2 <= m <= N")
    d = field.real_dim
    n = d * (m - 1)
    R = np.zeros((1 + n, N, 1, d))   # the _affine columns in real components
    R[0, 0, 0, 0] = 1.0
    R[1 + np.arange(n), 1 + np.arange(n) // d, 0, np.arange(n) % d] = 1.0
    return _affine("linear", field, ((-1.5, 1.5),) * n, from_real(R, field), {"m": m, "N": N})


# ----------------------------------------------------------------------------
# veronese: degree-d rational normal curve CP^1 → CP^d
# ----------------------------------------------------------------------------

def veronese(d: int = 2) -> ImmersionChart:
    if d < 1:
        raise ValueError("degree must be >= 1")
    c = np.sqrt([[float(comb(d, j))] for j in range(d + 1)])   # float: C(d, j) passes 2⁶⁴ at 68
    p = np.arange(d + 1)[:, None]

    def cols(J):
        """Columns c_j z^j, z = u_0 + i u_1."""
        z = J.lin(lambda x: np.broadcast_to((x[..., 0] + 1j * x[..., 1])[..., None, None],
                                            x.shape[:-1] + (d + 1, 1)))
        return apply(z, lambda a: c * a**p, lambda a: c * p * a**np.maximum(p - 1, 0),
                     lambda a: c * p * (p - 1) * a**np.maximum(p - 2, 0))

    return ImmersionChart(name="veronese", field=Field.COMPLEX, N=d + 1, k=1, dim=2,
                          box=((-1.2, 1.2), (-1.2, 1.2)), cols=cols, params={"d": d})


# ----------------------------------------------------------------------------
# totally-real: RP^n inside CP^n
# ----------------------------------------------------------------------------

def totally_real(n: int = 2) -> ImmersionChart:
    if n < 1:
        raise ValueError("need n >= 1")
    return _affine("totally-real", Field.COMPLEX, ((-1.5, 1.5),) * n,
                   np.eye(n + 1, dtype=complex)[:, :, None], {"n": n})


# ----------------------------------------------------------------------------
# clifford: flat torus (u, v) ↦ [e^{iu} : e^{iv} : 1] in CP^2
# ----------------------------------------------------------------------------

def clifford_torus() -> ImmersionChart:
    one = np.array([[0.0], [0.0], [1.0]], dtype=complex)

    def cols(J):
        e = apply(J.lin(lambda x: 1j * x[..., None]), np.exp, np.exp, np.exp)   # e^{iu}, (2, 1)
        return e.lin(lambda x: np.concatenate([x, np.zeros_like(x[..., :1, :])], axis=-2)) + one

    return ImmersionChart(name="clifford", field=Field.COMPLEX, N=3, k=1, dim=2,
                          box=((-3.0, 3.0), (-3.0, 3.0)), cols=cols, params={})


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
    """Columns [I_k; U; 0] with U the (m − k)×k block of coordinates, row-major."""
    if not (1 <= k < m <= N):
        raise ValueError("need 1 <= k < m <= N")
    n = k * (m - k)
    W = np.zeros((1 + n, N, k))
    W[0, :k] = np.eye(k)
    W[1 + np.arange(n), k + np.arange(n) // k, np.arange(n) % k] = 1.0
    return _affine("grassmann-sub", Field.REAL, ((-1.0, 1.0),) * n, W, {"k": k, "m": m, "N": N})


# ----------------------------------------------------------------------------
# perturbed: geodesic-graph perturbation of a rank-one base chart
# ----------------------------------------------------------------------------

# the base chart `perturbed` wraps when none is given, by field (None: no field)
PERTURBED_BASES = {Field.REAL: "linear", Field.COMPLEX: "veronese", Field.QUATERNION: "hline",
                   None: "veronese"}


def perturbed(base: ImmersionChart, amplitude: float = 0.05,
              seed: int = 7, modes: int = 3) -> ImmersionChart:
    """The base point V0 = W0/|W0| moved along the geodesic of
    amplitude·Σ_t (c_t − V0V0*c_t)·sin(ω_t·u + φ_t) for seeded ω_t, φ_t and
    unit c_t."""
    if base.k != 1:
        raise ValueError("perturbation wrapper supports rank-one charts only")
    rng = np.random.default_rng(seed)
    n = base.dim
    field = base.field
    omegas = rng.integers(1, 3, size=(modes, n)) * rng.choice([-1.0, 1.0], size=(modes, n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    c = np.expand_dims(random_matrix(rng, field, modes, base.N), 2)   # the c_t, (modes, N, 1[, 4])
    C = np.swapaxes((c / np.sqrt(sq_norm(c, field)))[:, :, 0], 0, 1)  # unit c_t as columns
    spread = (..., None, slice(None)) + (None,) * (field.matrix_ndim - 2)   # waves to C's shape

    def cols(J):
        W0 = base.cols(J)
        V0 = W0 * apply(sq_norm(W0, field), lambda s: s**-0.5, lambda s: -0.5 * s**-1.5,
                        lambda s: 0.75 * s**-2.5)
        waves = apply(J.lin(lambda x: x @ omegas.T) + phases, np.sin, np.cos, lambda t: -np.sin(t))
        normal = C - matmul_stack(V0, matmul_stack(ct_stack(V0, field), C, field), field)
        H = (normal * waves.lin(lambda x: x[spread])).lin(
            lambda x: x.sum(axis=1 - field.matrix_ndim, keepdims=True))
        return geodesic_stiefel_k1(V0, amplitude * H, field)

    return ImmersionChart(
        name="perturbed", field=field, N=base.N, k=1, dim=n, box=base.box, cols=cols,
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
    expected: dict             # properties report.EXPECTATIONS checks on every sample
    make: Callable             # make(field or None, **every parameter) -> ImmersionChart
    bases: dict = None         # a wrapper's default `base` entry by field; base_* keys go to it

    def build(self, field=None, **params) -> ImmersionChart:
        """The one gate for a chart's parameters, checked in this order:
        unknown keys (a wrapper's base_* keys against its base entry),
        non-finite values, whole values where the default is an int (3.0
        is 3), a field the entry does not list, and a built chart over
        another field.  Each raises ValueError; None means the default."""
        field = None if field is None else Field.parse(field)
        p = {**self.defaults, **{k: v for k, v in params.items() if v is not None}}
        base = None
        if self.bases:
            p["base"] = base = self.bases[field] if p["base"] is None else p["base"]
            if base not in CATALOG:
                raise ValueError(f"unknown base {base!r}; known: {sorted(CATALOG)}")
        for key in params:
            if base and key.startswith("base_"):
                if key[5:] not in CATALOG[base].defaults:
                    raise ValueError(f"parameter '{key}' does not apply to base '{base}' "
                                     f"(known: {sorted('base_' + k for k in CATALOG[base].defaults)})")
            elif key not in self.defaults:
                raise ValueError(f"unknown parameter '{key}' for example '{self.name}' "
                                 f"(known: {sorted(self.defaults)})")
        for key, v in p.items():
            if isinstance(v, float) and not isfinite(v):
                raise ValueError(f"parameter '{key}' must be finite, got {v!r}")
        for key, default in self.defaults.items():
            if isinstance(default, int):   # a fractional value is an error, not truncated
                if not isinstance(p[key], Real) or float(p[key]) != int(p[key]):
                    raise ValueError(f"parameter '{key}' must be an integer, got {p[key]!r}")
                p[key] = int(p[key])
        if field is not None and field not in self.fields:
            raise ValueError(f"example '{self.name}' is not defined over {field.value!r}; "
                             f"fields: {[f.value for f in self.fields]}")
        chart = self.make(field, **p)
        if field is not None and chart.field is not field:
            raise ValueError(f"example '{self.name}' with {params or 'default parameters'} builds a "
                             f"chart over {chart.field.value!r}, not {field.value!r}")
        return chart


def _perturbed(field, base, amplitude, seed, **base_params) -> ImmersionChart:
    return perturbed(CATALOG[base].build(field, **{k[5:]: v for k, v in base_params.items()}),
                     amplitude=float(amplitude), seed=seed)


CATALOG = {
    "linear": CatalogEntry(
        "linear", "projective subspace K P^{m-1} in G_1(K^N)",
        (Field.REAL, Field.COMPLEX, Field.QUATERNION),
        {"m": 3, "N": 4},
        {"totally_geodesic": True},
        lambda field, m, N: linear_embedding(Field.COMPLEX if field is None else field, m, N),
    ),
    "veronese": CatalogEntry(
        "veronese", "degree-d rational normal curve in CP^d",
        (Field.COMPLEX,),
        {"d": 2},
        {"holomorphic": True, "parallel": True},
        lambda field, d: veronese(d),
    ),
    "totally-real": CatalogEntry(
        "totally-real", "real projective space RP^n in CP^n",
        (Field.COMPLEX,),
        {"n": 2},
        {"totally_geodesic": True, "wirtinger": "pi/2"},
        lambda field, n: totally_real(n),
    ),
    "clifford": CatalogEntry(
        "clifford", "flat Lagrangian torus in CP^2",
        (Field.COMPLEX,),
        {},
        {"flat": True, "wirtinger": "pi/2"},
        lambda field: clifford_torus(),
    ),
    "hline": CatalogEntry(
        "hline", "quaternionic projective line in HP^{N-1}",
        (Field.QUATERNION,),
        {"N": 3},
        {"totally_geodesic": True},
        lambda field, N: quaternionic_line(N),
    ),
    "grassmann-sub": CatalogEntry(
        "grassmann-sub", "real sub-Grassmannian G_k(R^m) in G_k(R^N)",
        (Field.REAL,),
        {"k": 2, "m": 4, "N": 5},
        {"totally_geodesic": True},
        lambda field, k, m, N: grassmann_sub(k, m, N),
    ),
    "perturbed": CatalogEntry(
        "perturbed", "seeded geodesic-graph perturbation of a base chart, by default "
        + ", ".join(f"{b} over {f.value}" for f, b in PERTURBED_BASES.items() if f)
        + f" and {PERTURBED_BASES[None]} with no field",
        (Field.REAL, Field.COMPLEX, Field.QUATERNION),
        {"base": None, "amplitude": 0.05, "seed": 7},
        {"breaks_parallel": True},
        _perturbed,
        PERTURBED_BASES,
    ),
}


def build_chart(name: str, field=None, **params) -> ImmersionChart:
    if name not in CATALOG:
        raise KeyError(f"unknown example '{name}'; known: {sorted(CATALOG)}")
    return CATALOG[name].build(field, **params)
