import numpy as np
import pytest

from mirrorwords import cli, sampling

# verify-mix's group configurations, then the CLI's other O(n) dimensions
# from the least to the largest
CONFIGS = [("e2", 2), ("s2", 3), ("so3", 3), ("on", 3), ("on", 5), ("on", 8)]
CONFIGS += [("on", 2), ("on", 16), ("on", cli.MAX_DIMENSION)]
LENGTHS = list(range(9)) + [64]


def _per_mirror(rng, group, length, dim):
    """A word drawn one mirror at a time, the reference stream."""
    draw = {
        "e2": sampling.random_line,
        "s2": sampling.random_circle,
        "so3": sampling.random_axis,
        "on": lambda r: sampling.random_hyperplane(r, dim),
    }[group]
    return [draw(rng) for _ in range(length)]


def _values(word):
    return [(type(m), m.values) for m in word]


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
    """A Generator stand-in whose standard_normal hands out fixed rows in order."""

    def __init__(self, rows):
        self.rows = [np.array(r, dtype=float) for r in rows]

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


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_row_norms_equal_numpy_norm_row_by_row(dim):
    V = np.random.default_rng(dim).standard_normal((20_000, dim))
    expected = [float(np.linalg.norm(v)) for v in V]
    assert sampling._row_norms(V).tolist() == expected


def test_random_word_of_length_zero_draws_nothing():
    # a stand-in with no rows fails on any draw
    for group in ("e2", "s2", "so3", "on"):
        assert sampling.random_word(ScriptedRows([]), group, 0) == []
