"""Isometries as words of reflections: rewriting, classification, verification.

Submodules, one per geometry:

- plane: isometries of the Euclidean plane (words of line reflections)
- sphere: isometries of the 2-sphere = O(3) (words of great-circle reflections)
- so3: rotations of 3-space (words of half-turns about lines)
- arrowarc: rotations as directed arcs and the triangle composition rule
- orthon: O(n) (words of hyperplane reflections)

plus numerics (tolerances, canonical directions), moves (the rewrite
trace vocabulary and the shared rewrite loop), kernels (the oracle
products: batched matmul trees and scalar recurrences), sampling (seeded random words) and cli (the command-line front
end).
"""

from . import arrowarc, kernels, moves, numerics, orthon, plane, sampling, so3, sphere
from .numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    DegenerateArc,
    DegenerateInput,
    DegenerateSteering,
    GeometryError,
    IdentityInput,
    NotConcurrent,
    NotOrthogonal,
    WrongLength,
    canonical_unit,
)

__version__ = "0.1.0"

__all__ = [
    "arrowarc",
    "kernels",
    "moves",
    "numerics",
    "orthon",
    "plane",
    "sampling",
    "so3",
    "sphere",
    "EPS_COINCIDE",
    "EPS_VERIFY",
    "GeometryError",
    "DegenerateInput",
    "DegenerateArc",
    "DegenerateSteering",
    "IdentityInput",
    "NotConcurrent",
    "NotOrthogonal",
    "WrongLength",
    "canonical_unit",
    "__version__",
]
