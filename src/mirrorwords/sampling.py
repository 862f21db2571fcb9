"""Seeded random mirrors and words for verification batches and tests.

Directions are normalized Gaussian vectors (uniform on the sphere); plane
offsets are uniform in [-10, 10]. Everything is driven by an explicit
numpy Generator so batches are reproducible bit for bit.

`random_word` draws the directions of an S2, SO(3) or O(n) word with one
`standard_normal((length, dim))` call. The Generator fills that array from
the same stream as `length` calls of size `dim`, and each row's norm is the
one `np.linalg.norm` gives, so the word is, value for value, the one the
per-mirror samplers (`random_circle`, `random_axis`, `random_hyperplane`)
would draw in turn. A row too short to normalize is dropped and the word
topped up by per-mirror draws, which continue the same stream. An E2 line
draws its normal pair and its offset in turn, so E2 words are drawn line
by line.
"""

from __future__ import annotations

import math

import numpy as np

from .arrowarc import Arc, rotation_to_arc, slide
from .numerics import dot_n
from .orthon import Hyperplane
from .plane import Line
from .so3 import Axis, rotation
from .sphere import GreatCircle

OFFSET_RANGE = 10.0
# a Gaussian direction this short is redrawn
_MIN_NORM = 1e-6


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        # the dot and square root np.linalg.norm takes, bit for bit
        n = math.sqrt(v.dot(v))
        if n > _MIN_NORM:
            return v / n


def random_line(rng: np.random.Generator) -> Line:
    nx, ny = _unit(rng, 2).tolist()
    # the constructor's floats, without its type checks on floats drawn here
    return Line.from_floats(nx, ny, rng.uniform(-OFFSET_RANGE, OFFSET_RANGE))


def random_circle(rng: np.random.Generator) -> GreatCircle:
    return GreatCircle(_unit(rng, 3))


def random_axis(rng: np.random.Generator) -> Axis:
    return Axis(_unit(rng, 3))


def _check_dimension(dim: int) -> None:
    if dim < 1:
        # _unit would redraw a zero-length vector forever
        raise ValueError(f"hyperplanes need a dimension of at least 1, got {dim}")


def random_hyperplane(rng: np.random.Generator, dim: int) -> Hyperplane:
    _check_dimension(dim)
    return Hyperplane(_unit(rng, dim))


def _row_norms(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of V, bit for bit.

    Each row's dot with itself goes through the same BLAS dot as
    np.linalg.norm; a left-to-right or einsum sum differs in the last bit
    on some rows.
    """
    return np.sqrt((V[:, None, :] @ V[:, :, None]).ravel())


def random_word(rng: np.random.Generator, group: str, length: int, dim: int = 3) -> list:
    if group == "e2":
        return [random_line(rng) for _ in range(length)]
    if group == "s2":
        cls, dim = GreatCircle, 3
    elif group == "so3":
        cls, dim = Axis, 3
    elif group == "on":
        cls = Hyperplane
        if length > 0:
            _check_dimension(dim)
    else:
        raise ValueError(f"unknown group {group!r}")
    if length < 1:
        return []
    V = rng.standard_normal((length, dim))
    norms = _row_norms(V)
    keep = norms > _MIN_NORM
    if not keep.all():
        V, norms = V[keep], norms[keep]
    rows = (V / norms[:, None]).tolist()
    # the constructor's floats, without its type checks on floats drawn here
    if cls is Hyperplane:
        word = [cls.from_square(row, dot_n(row, row)) for row in rows]
    else:
        word = [cls.from_floats(x, y, z) for x, y, z in rows]
    while len(word) < length:
        word.append(cls(_unit(rng, dim)))
    return word


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
