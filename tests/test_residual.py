"""cli.residual on the heads of two words, and the geometries' prefix oracles.

The residual cancels the longest common suffix of its two words, whose map
no oracle distance sees, and reads the input's prefix oracle from a memo.
These tests hold it to the unstripped formula, the distance between the
oracles of the whole words: within 1e-12 along every replay, with the same
error type on every input that formula rejects, and bit for bit whether the
memo is fresh or not.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorwords import cli, kernels, orthon, sampling

CASES = [("e2", None), ("s2", None), ("so3", None)] + [("on", n) for n in range(2, 9)]
_SETTINGS = settings(max_examples=15, derandomize=True, deadline=None)
_LENGTHS = st.integers(0, 70)
_SEEDS = st.integers(0, 2**32 - 1)


def _bits(oracle):
    """An oracle's floats as bytes: equal bits, not only equal values."""
    if isinstance(oracle, np.ndarray):
        return oracle.shape, oracle.tobytes()
    values = oracle if isinstance(oracle, tuple) else vars(oracle).values()
    return np.array(list(values), dtype=float).tobytes()


def _unstripped(group, word_in, word_out, dim):
    """The distance between the oracles of the whole words, or the error it raises."""
    geometry = cli.GEOMETRIES[group]
    try:
        return geometry.oracle_distance(
            geometry.word_oracle(word_in, dim), geometry.word_oracle(word_out, dim)
        )
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return exc


def _residual(group, word_in, word_out, dim):
    try:
        return cli.residual(group, word_in, word_out, dim)
    except Exception as exc:  # noqa: BLE001
        return exc


def _forget():
    """Empty the residual memo, so that the next call starts it afresh."""
    cli._input_memo = (None, None, False)


def _word(group, dim, length, seed):
    return sampling.random_word(np.random.default_rng(seed), group, length, dim=dim or 3)


@pytest.mark.parametrize("group, dim", CASES)
@_SETTINGS
@given(length=_LENGTHS, seed=_SEEDS)
def test_prefix_oracles_are_the_oracles_of_the_prefixes_bit_for_bit(group, dim, length, seed):
    geometry = cli.GEOMETRIES[group]
    word = _word(group, dim, length, seed)
    fresh = [_bits(geometry.word_oracle(word[:i], dim)) for i in range(length + 1)]
    for table in (False, True):
        prefix = geometry.prefix_oracles(word, dim, table)
        assert [_bits(prefix(i)) for i in range(length + 1)] == fresh


@pytest.mark.parametrize("n, length", [(64, 40), (3, 20)])
def test_prefix_oracles_of_a_word_past_one_chunk_are_fresh(monkeypatch, n, length):
    # 64 x 64 maps fill a chunk at 16 mirrors; at n = 3 the chunk is shrunk to 7
    if n == 3:
        monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 64)
    word = _word("on", n, length, 11)
    assert length > kernels._chunk(n)
    assert kernels.householder_word_levels(orthon._normals(word, n)) is None
    prefix = orthon.prefix_oracles(word, n)
    for i in range(length + 1):
        assert _bits(prefix(i)) == _bits(orthon.word_oracle(word[:i], n))


def test_prefix_levels_rebuild_every_prefix_of_one_chunk_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 8, 16):
        k = min(70, kernels._chunk(n))
        u = rng.standard_normal((k, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        levels = kernels.householder_word_levels(u)
        for i in range(1, k + 1):
            assert _bits(kernels.levels_prefix_product(levels, i)) == _bits(
                kernels.householder_word_matrix(u[:i])
            )


def _replay(group, dim, length, seed):
    geometry = cli.GEOMETRIES[group]
    word = _word(group, dim, length, seed)
    trace: list = []
    geometry.normalize_word(word, trace, dim)
    return word, geometry.replay_moves(word, trace)


@pytest.mark.parametrize("group, dim", CASES)
@_SETTINGS
@given(length=_LENGTHS, seed=_SEEDS)
def test_residual_along_a_replay_is_the_unstripped_distance(group, dim, length, seed):
    word, states = _replay(group, dim, length, seed)
    _forget()
    for state in states:
        res = cli.residual(group, word, state, dim)
        assert abs(res - _unstripped(group, word, state, dim)) <= 1e-12
    assert cli.residual(group, word, states[0], dim) == 0.0


@pytest.mark.parametrize("group, dim", CASES)
@_SETTINGS
@given(length=_LENGTHS, seed=_SEEDS)
def test_residual_is_a_function_of_its_words_alone(group, dim, length, seed):
    # the series reads the input's prefixes from the memo's table, a fresh
    # memo computes them: the bits are the same
    word, states = _replay(group, dim, length, seed)
    _forget()
    series = [cli.residual(group, word, state, dim).hex() for state in states]
    for state, res in zip(states, series):
        _forget()
        assert cli.residual(group, word, state, dim).hex() == res


# a head of the other dimension before a shared suffix, the same head alone,
# a mirror of the other dimension in the suffix, an empty output
@example(d=3, other=4, dim="none", parts=[[False], [True, True], [False, False]], seed=0)
@example(d=3, other=4, dim="none", parts=[[False], [True, True], []], seed=0)
@example(d=3, other=4, dim="own", parts=[[False], [False], [True, False]], seed=0)
@example(d=3, other=4, dim="none", parts=[[False], [], []], seed=0)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    d=st.integers(2, 5),
    other=st.integers(1, 6),
    dim=st.sampled_from(["none", "own", "other"]),
    parts=st.lists(st.lists(st.booleans(), max_size=4), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_rejects_what_the_unstripped_distance_rejects(d, other, dim, parts, seed):
    # O(n) words u.s and v.s of dimension d, where True marks a mirror of
    # the other dimension: in the input's head, the output's or the suffix
    rng = np.random.default_rng(seed)

    def mirrors(flags):
        return [sampling.random_word(rng, "on", 1, dim=other if f else d)[0] for f in flags]

    u, v, s = (mirrors(flags) for flags in parts)
    word_in, word_out = u + s, v + s
    dim = {"none": None, "own": d, "other": other}[dim]
    expected = _unstripped("on", word_in, word_out, dim)
    _forget()
    # the first call with an input, and a later one, which reads its table
    for _ in range(2):
        got = _residual("on", word_in, word_out, dim)
        if isinstance(expected, Exception):
            assert type(got) is type(expected)
        else:
            assert not isinstance(got, Exception)
            assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("group, dim", [("e2", None), ("s2", None), ("so3", None), ("on", 4)])
def test_residual_of_an_output_ending_in_the_whole_input_strips_the_input(group, dim):
    # v.word against word: the input's prefix is empty, the identity
    word = _word(group, dim, 6, 13)
    head = _word(group, dim, 2, 14)
    for d in {dim, None}:
        _forget()
        res = cli.residual(group, word, head + word, d)
        assert math.isclose(res, _unstripped(group, word, head + word, d), abs_tol=1e-12)
        assert abs(res - _unstripped(group, [], head, dim)) <= 1e-12
