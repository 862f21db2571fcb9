"""orthon.Hyperplane stores its normal as plain floats, in any dimension.

Its float tuple `values` is its one view (`normal` returns the same
tuple); its dimension is len(values).
The rules it shares, as a numerics.Direction, with the 3-vector mirrors
(equality, hash, repr, canonical_unit_n's vector rules, the no-numpy guard
of the rewrite path) are tested in test_mirrors3.py.
"""

import json
import math

import numpy as np
import pytest

from mirrorwords import orthon, sampling
from mirrorwords.numerics import DegenerateInput
from mirrorwords.orthon import Hyperplane


def test_values_are_the_canonical_unit_normal_as_floats():
    h = Hyperplane(np.array([0, -3, 4, 0]))
    assert h.values == (0.0, 0.6, -0.8, 0.0)
    assert all(type(x) is float for x in h.values)
    assert all(math.copysign(1.0, x) == 1.0 for x in h.values if x == 0.0)
    assert Hyperplane(np.array(h.values)) == h


def test_json_names_the_floats():
    assert json.dumps(orthon.mirror_json(Hyperplane((3, 4)))) == '{"normal": [0.6, 0.8]}'


@pytest.mark.parametrize(
    "v",
    [
        pytest.param([[1, 0], [0, 1]], id="nested-list"),
        pytest.param(np.ones((2, 2)), id="2x2-array"),
        pytest.param(np.ones((3, 1)), id="3x1-array"),
        pytest.param("ab", id="str"),
        pytest.param("12", id="digit-str"),
        pytest.param(b"ab", id="bytes"),
        pytest.param(["a", 1], id="str-component"),
        # float() reads a digit string as a number
        pytest.param(["1", "0"], id="digit-str-components"),
        pytest.param((1, "0"), id="digit-str-component"),
        pytest.param([b"1", 0], id="digit-bytes-component"),
        pytest.param([bytearray(b"1"), 0], id="digit-bytearray-component"),
        pytest.param(np.array(["1", "0"]), id="digit-str-array"),
        pytest.param(bytearray(b"12"), id="digit-bytearray"),
        pytest.param([None, 1.0], id="none-component"),
        pytest.param([1j, 0.0], id="complex-component"),
        pytest.param(5.0, id="scalar"),
        pytest.param(np.array(2.0), id="0d-array"),
        pytest.param([], id="empty-list"),
        pytest.param((), id="empty-tuple"),
        pytest.param(np.array([]), id="empty-array"),
        pytest.param([10**400, 0], id="huge-int-component"),
        pytest.param([10**5000, 0], id="int-past-repr-digit-limit"),
        pytest.param([[10**5000, 0]], id="nested-int-past-repr-digit-limit"),
        # float() reads a memoryview of digits as text too
        pytest.param([memoryview(b"1"), 0], id="digit-memoryview-component"),
        # a whole view of bytes would give the ints of the characters
        pytest.param(memoryview(b"12"), id="bytes-memoryview"),
        pytest.param(memoryview(bytearray(b"12")), id="bytearray-memoryview"),
    ],
)
def test_nested_non_numeric_or_empty_input_is_rejected(v):
    with pytest.raises(DegenerateInput):
        Hyperplane(v)


def test_oracle_gather_reads_the_floats():
    rng = np.random.default_rng(73)
    for n in (2, 3, 5):
        word = sampling.random_word(rng, "on", 6, dim=n)
        expected = np.eye(n)
        for h in word:
            expected = (np.eye(n) - 2.0 * np.outer(h.values, h.values)) @ expected
        np.testing.assert_allclose(orthon.word_to_matrix(word), expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(orthon.word_to_matrix([], 4), np.eye(4))
