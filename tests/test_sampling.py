import math

import numpy as np
import pytest

from oracles import random_axis, random_circle, random_hyperplane
from mirrorwords import cli, sampling
from mirrorwords.numerics import EPS_COINCIDE, MAX_DIMENSION
from mirrorwords.orthon import Hyperplane
from mirrorwords.plane import Line
from mirrorwords.so3 import Axis
from mirrorwords.sphere import GreatCircle

# verify-mix's group configurations, then the CLI's other O(n) dimensions
# from the least to the largest
CONFIGS = [("e2", 2), ("s2", 3), ("so3", 3), ("on", 3), ("on", 5), ("on", 8)]
CONFIGS += [("on", 2), ("on", 16), ("on", cli.MAX_DIMENSION)]
LENGTHS = list(range(9)) + [64]


def _reference_line(rng):
    """A line built by its constructor from a unit pair and Generator.uniform."""
    return Line(sampling._unit(rng, 2), rng.uniform(-sampling.OFFSET_RANGE, sampling.OFFSET_RANGE))


def _per_mirror(rng, group, length, dim):
    """A word drawn one mirror at a time by the constructors, the reference stream."""
    draw = {
        "e2": _reference_line,
        "s2": random_circle,
        "so3": random_axis,
        "on": lambda r: random_hyperplane(r, dim),
    }[group]
    return [draw(rng) for _ in range(length)]


def _values(word):
    # repr tells -0.0 from 0.0, which == does not
    return [(type(m), repr(m.values)) for m in word]


@pytest.mark.parametrize("group, dim", CONFIGS)
@pytest.mark.parametrize("seed", [0, 1, 29, 4096])
def test_random_word_is_the_per_mirror_stream(group, dim, seed):
    batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
    for length in LENGTHS:
        assert _values(sampling.random_word(batch, group, length, dim=dim)) == _values(
            _per_mirror(single, group, length, dim)
        )
    # both Generators are left at the same point of the stream
    assert batch.standard_normal(4).tolist() == single.standard_normal(4).tolist()


class ScriptedRows:
    """A Generator stand-in whose standard_normal and random hand out fixed draws in order."""

    def __init__(self, rows, draws=()):
        self.rows = [np.array(r, dtype=float) for r in rows]
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)

    def uniform(self, low, high):
        # Generator.uniform's two float operations
        return low + (high - low) * self.random()

    def standard_normal(self, size):
        if isinstance(size, tuple):
            length, _ = size
            out, self.rows = self.rows[:length], self.rows[length:]
            return np.array(out)
        return self.rows.pop(0)


SHORT = [1e-7, 0.0, -2e-7]


@pytest.mark.parametrize("group", ["s2", "so3", "on"])
@pytest.mark.parametrize(
    "short_at",
    [[0], [2], [4], [0, 2, 4], [0, 1]],
    ids=["first", "middle", "last", "all-three", "two-first"],
)
def test_short_rows_are_dropped_and_the_word_topped_up(group, short_at):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((12, 3)).tolist()
    for i in short_at:
        rows[i] = SHORT
    rows[5] = SHORT  # a short row among the top-up draws
    batch, single = ScriptedRows(rows), ScriptedRows(rows)
    word = sampling.random_word(batch, group, 5, dim=3)
    assert len(word) == 5
    assert _values(word) == _values(_per_mirror(single, group, 5, 3))
    assert len(batch.rows) == len(single.rows)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, MAX_DIMENSION])
def test_row_norms_equal_numpy_norm_row_by_row(dim):
    V = np.random.default_rng(dim).standard_normal((20_000, dim))
    expected = [float(np.linalg.norm(v)) for v in V]
    assert sampling._row_norms(V).tolist() == expected


@pytest.mark.parametrize("short_at", [[0], [2], [0, 1]], ids=["first", "last", "two-first"])
def test_short_normal_pairs_are_redrawn_in_the_stream(short_at):
    rows = np.random.default_rng(4).standard_normal((8, 2)).tolist()
    for i in short_at:
        rows[i] = SHORT[:2]
    draws = np.random.default_rng(5).random(3).tolist()
    batch, single = ScriptedRows(rows, draws), ScriptedRows(rows, draws)
    assert _values(sampling.random_word(batch, "e2", 3)) == _values(_per_mirror(single, "e2", 3, 2))
    assert len(batch.rows) == len(single.rows)
    assert batch.draws == single.draws == []


def test_random_word_of_length_zero_draws_nothing():
    # a stand-in with no rows fails on any draw
    for group in ("e2", "s2", "so3", "on"):
        assert sampling.random_word(ScriptedRows([]), group, 0) == []


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_offset_formula_is_generator_uniform_bit_for_bit(seed):
    r = sampling.OFFSET_RANGE
    draws = np.random.default_rng(seed).random(100_000).tolist()
    offsets = [-r + 2 * r * u for u in draws]
    assert offsets == np.random.default_rng(seed).uniform(-r, r, 100_000).tolist()


def _unit_rows(rng, count, dim):
    """Gaussian rows divided by _row_norms, the first 1-3 components of some near 0.

    A near-zero leading component leaves the sign to a later one.
    """
    V = rng.standard_normal((count, dim))
    tiny = [0.0, -0.0, 1e-12, -1e-12, 0.5 * EPS_COINCIDE, -0.5 * EPS_COINCIDE]
    for k in range(1, min(dim - 1, 3) + 1):
        block = V[100 * k : 100 * (k + 1)]
        block[:, :k] = rng.choice(tiny, size=(len(block), k))
    return (V / sampling._row_norms(V)[:, None]).tolist()


@pytest.mark.parametrize("dim", range(2, MAX_DIMENSION + 1))
def test_from_unit_is_the_constructor_on_normalized_rows(dim):
    rng = np.random.default_rng(dim)
    for row in _unit_rows(rng, 1000, dim):
        assert _values([Hyperplane.from_unit(row)]) == _values([Hyperplane(row)])
        if dim == 3:
            for cls in (GreatCircle, Axis):
                assert _values([cls.from_unit(*row)]) == _values([cls(row)])


def test_line_from_unit_is_the_constructor_on_normalized_pairs():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((20_000, 2))
    V[:300, 0] = rng.choice([0.0, -0.0, 1e-12, -1e-12, 0.5 * EPS_COINCIDE], size=300)
    offsets = rng.uniform(-sampling.OFFSET_RANGE, sampling.OFFSET_RANGE, len(V)).tolist()
    for v, d in zip(V, offsets):
        # _lines' norm and division
        n = math.sqrt(v.dot(v))
        nx, ny = v.tolist()
        nx, ny = nx / n, ny / n
        assert _values([Line.from_unit(nx, ny, d)]) == _values([Line((nx, ny), d)])


def test_random_word_refuses_a_dimension_past_the_cap_and_draws_nothing():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="dimension"):
        sampling.random_word(rng, "on", 3, dim=MAX_DIMENSION + 1)
    assert rng.bit_generator.state == state
    # the per-mirror sampler builds through the constructor, with no cap
    assert len(random_hyperplane(rng, MAX_DIMENSION + 1).values) == MAX_DIMENSION + 1
