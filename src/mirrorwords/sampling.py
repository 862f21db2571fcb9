"""Seeded random mirrors and words for verification batches and tests.

Directions are normalized Gaussian vectors (uniform on the sphere); plane
offsets are uniform in [-10, 10]. Everything is driven by an explicit
numpy Generator so batches are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .arrowarc import Arc, rotation_to_arc, slide
from .orthon import Hyperplane
from .plane import Line
from .so3 import Axis, rotation
from .sphere import GreatCircle

OFFSET_RANGE = 10.0


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def random_line(rng: np.random.Generator) -> Line:
    return Line(_unit(rng, 2), rng.uniform(-OFFSET_RANGE, OFFSET_RANGE))


def random_circle(rng: np.random.Generator) -> GreatCircle:
    return GreatCircle(_unit(rng, 3))


def random_axis(rng: np.random.Generator) -> Axis:
    return Axis(_unit(rng, 3))


def random_hyperplane(rng: np.random.Generator, dim: int) -> Hyperplane:
    if dim < 1:
        # _unit would redraw a zero-length vector forever
        raise ValueError(f"hyperplanes need a dimension of at least 1, got {dim}")
    return Hyperplane(_unit(rng, dim))


def random_word(rng: np.random.Generator, group: str, length: int, dim: int = 3) -> list:
    if group == "e2":
        return [random_line(rng) for _ in range(length)]
    if group == "s2":
        return [random_circle(rng) for _ in range(length)]
    if group == "so3":
        return [random_axis(rng) for _ in range(length)]
    if group == "on":
        return [random_hyperplane(rng, dim) for _ in range(length)]
    raise ValueError(f"unknown group {group!r}")


def random_rotation(rng: np.random.Generator):
    angle = rng.uniform(-np.pi, np.pi)
    return rotation(_unit(rng, 3), angle)


def random_arc(rng: np.random.Generator) -> Arc:
    arc = rotation_to_arc(random_rotation(rng))
    if arc.is_identity:
        return arc
    return slide(arc, rng.uniform(0.0, 2.0 * np.pi))


def random_arc_on_axis(rng: np.random.Generator, axis) -> Arc:
    """Random non-degenerate arc on the great circle polar to the given axis."""
    r = rotation(axis, float(rng.uniform(0.05, np.pi - 0.05) * rng.choice([-1.0, 1.0])))
    return slide(rotation_to_arc(r), rng.uniform(0.0, 2.0 * np.pi))
