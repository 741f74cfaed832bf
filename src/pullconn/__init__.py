"""Pulled-back tautological connections on Grassmannians over R, C and H.

Closed-form frame computations (curvature, fatness, parallelism, curvature
inequalities) for explicit charts into projector Grassmannians, each
cross-checkable against brute-force finite differences, parallel transport
and holonomy.
"""
from .algebra import Field
from .catalog import CATALOG, build_chart
from .connection import PointAnalysis, analyze_point
from .immersion import ImmersionChart, point_frame

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "Field",
    "ImmersionChart",
    "PointAnalysis",
    "analyze_point",
    "build_chart",
    "point_frame",
    "__version__",
]
