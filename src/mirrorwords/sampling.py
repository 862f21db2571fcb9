"""Seeded random mirrors and words for verification batches and tests.

Directions are normalized Gaussian vectors (uniform on the sphere); plane
offsets are uniform in [-10, 10]. Everything is driven by an explicit
numpy Generator so batches are reproducible bit for bit.

`random_word` draws the directions of an S2, SO(3) or O(n) word with one
`standard_normal((length, dim))` call. The Generator fills that array from
the same stream as `length` calls of size `dim`, and each row's norm is the
one `np.linalg.norm` gives, so the word is, value for value, the one that
drawing and normalizing one mirror at a time, through the constructors,
would give. A row too short to normalize is dropped and the word topped
up by such per-mirror draws, which continue the same stream. An E2 line
draws its normal pair and its offset in turn, so E2 words are drawn line
by line; the offset is -10 + 20 random(), the one uint64 and the two float
operations of `Generator.uniform(-10, 10)`.

Each row divided by its norm (an O(n) row by numpy, a 3-vector or a
line's normal one float at a time, the same IEEE division) becomes its
mirror through `from_unit`, which applies only the constructor's sign
rule and skips its type checks on floats drawn here. That is the
constructor's value bit for bit: a row of d components divided by its
norm has a norm within about (d + 4) 2^-53 of 1, below the 1e-13 at which
the constructor would divide it again, for every d up to MAX_DIMENSION
(64), so `random_word` refuses a larger dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import MAX_DIMENSION
from .orthon import Hyperplane
from .plane import Line
from .so3 import Axis
from .sphere import GreatCircle

OFFSET_RANGE = 10.0
# a Gaussian direction this short is redrawn
_MIN_NORM = 1e-6


def _gaussian(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, float]:
    """A standard normal vector not too short to normalize, and its norm."""
    while True:
        v = rng.standard_normal(dim)
        # the dot and square root np.linalg.norm takes, bit for bit
        n = math.sqrt(v.dot(v))
        if n > _MIN_NORM:
            return v, n


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v, n = _gaussian(rng, dim)
    return v / n


def _lines(rng: np.random.Generator, length: int) -> list[Line]:
    """length random lines, each drawing its normal pair, then its offset."""
    normal, uniform, make = rng.standard_normal, rng.random, Line.from_unit
    word = []
    for _ in range(length):
        v = normal(2)
        # _gaussian's first draw, inline
        n = math.sqrt(v.dot(v))
        if not n > _MIN_NORM:
            v, n = _gaussian(rng, 2)
        # _unit's division, one float at a time
        nx, ny = v.tolist()
        word.append(make(nx / n, ny / n, -OFFSET_RANGE + 2 * OFFSET_RANGE * uniform()))
    return word


def _row_norms(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of V, bit for bit.

    Each row's dot with itself goes through the same BLAS dot as
    np.linalg.norm, in a stacked matmul; a left-to-right or einsum sum
    differs in the last bit on some rows.
    """
    return np.sqrt((V[:, None, :] @ V[:, :, None]).ravel())


def random_word(rng: np.random.Generator, group: str, length: int, dim: int = 3) -> list:
    if group == "e2":
        return _lines(rng, length)
    if group == "s2":
        cls, dim = GreatCircle, 3
    elif group == "so3":
        cls, dim = Axis, 3
    elif group == "on":
        cls = Hyperplane
        # past MAX_DIMENSION, from_unit would no longer be the constructor
        if length > 0 and not 1 <= dim <= MAX_DIMENSION:
            raise ValueError(f"hyperplanes need a dimension from 1 to {MAX_DIMENSION}, got {dim}")
    else:
        raise ValueError(f"unknown group {group!r}")
    if length < 1:
        return []
    V = rng.standard_normal((length, dim))
    norms = _row_norms(V)
    if min(norms.tolist()) <= _MIN_NORM:
        keep = norms > _MIN_NORM
        V, norms = V[keep], norms[keep]
    if cls is Hyperplane:
        word = [cls.from_unit(row) for row in (V / norms[:, None]).tolist()]
    else:
        # the same division, one float at a time
        make = cls.from_unit
        word = [make(x / n, y / n, z / n) for (x, y, z), n in zip(V.tolist(), norms.tolist())]
    while len(word) < length:
        word.append(cls(_unit(rng, dim)))
    return word
