"""Shared numerical defaults and normalization constants.

The one piece of global convention lives here.  Curvature operators act on
the fibre in the orientation ``R(d_i, d_j) = bridge * P [d_i P, d_j P]``,
and closed-form frame expressions are matched to brute-force values
through a single per-field bridge factor::

    bridge(field) = 1 / (2 * kappa(field)),   kappa = 1 (R), 2 (C, H)

``kappa`` is the Gram factor of the pairing between a vertical-algebra
element and its embedded matrix realisation; the extra 1/2 is the usual
alternation normalisation for curvature 2-forms.  Every exported quantity
uses this bridge, so cross-checks against finite differences, holonomy and
transported derivatives are exact up to discretisation error.
"""
from __future__ import annotations

from .algebra import Field

# finite differencing, in the oracles only
FD_STEP = 1e-3          # central differences with one Richardson level

# structural tolerances
IMMERSION_EPS = 1e-8    # Gram matrix rank threshold for immersed charts
STRICT_EPS = 1e-6       # verdict thresholds (fat / parallel / radial)

# ODE integration
TRANSPORT_STEPS = 200

# per-point memory
STACK_BYTES = 16 * 2**20   # most bytes of one chunk of a sphere net or of the probe pairs


def kappa(field) -> float:
    """Gram factor of the vertical pairing: 1 over R, 2 over C and H."""
    f = Field.parse(field)
    return 1.0 if f is Field.REAL else 2.0


def bridge(field) -> float:
    """Scale applied to raw frame brackets before export: 1/(2 kappa)."""
    return 1.0 / (2.0 * kappa(field))
