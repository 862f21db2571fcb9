import math
import warnings

import numpy as np
import pytest

from oracles import angle_between_directions
from mirrorwords.numerics import (
    EPS_COINCIDE,
    DegenerateInput,
    canonical_unit3,
    canonical_unit_n,
    components_n,
    wrap_angle,
)


def canonical_unit(v) -> tuple[float, ...]:
    """canonical_unit_n of any flat vector: a list, a tuple or an array."""
    return canonical_unit_n(components_n(v))


def test_canonical_unit_sign_flip():
    np.testing.assert_allclose(canonical_unit([0.0, -2.0]), [0.0, 1.0])


def test_canonical_unit_normalizes():
    np.testing.assert_allclose(canonical_unit([3.0, 4.0]), [0.6, 0.8])


def test_canonical_unit_zero_vector():
    with pytest.raises(DegenerateInput):
        canonical_unit([0.0, 0.0])


@pytest.mark.parametrize("v", [[math.nan, 1.0, 0.0], [math.inf, 0.0, 0.0], [0.0, -math.inf, 1.0]])
def test_canonical_unit_rejects_non_finite(v):
    with pytest.raises(DegenerateInput):
        canonical_unit(v)


@pytest.mark.parametrize(
    "v, direction",
    [
        ([1e200, -1e200], [1, -1]),
        ([0.0, 1e300, 1e300, -3.0], [0, 1, 1, 0]),
        ([-1e308, 1e308, 1e308], [-1, 1, 1]),
    ],
)
def test_canonical_unit_rescales_an_overflowing_norm(v, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = canonical_unit(v)
    np.testing.assert_allclose(u, canonical_unit(direction), rtol=0, atol=1e-15)


def _outcome(f, v):
    try:
        return f(v)
    except DegenerateInput:
        return DegenerateInput


# canonical_unit3's overflow, eps and sign edges
EDGES3 = [
    (1e200, -1e200, 0.0),
    (-1e308, 1e308, 1e308),
    (1e308, -1e308, -1e308),
    (1.7e308, 0.0, -1.7e308),
    (-1e-12, 0.0, -5.0),
    (-1e-9, 1.0, 0.0),
    (-1.0000001e-9, 1.0, 0.0),
    (0.0, -1e-9, -1.0),
    (-0.0, 3.0, -4.0),
    (-0.0, -0.0, -2.0),
    (5e-324, -1.0, 0.0),
    (-1.0 - 1e-13, 0.0, 0.0),
    (-1.0 - 2e-13, 0.0, 0.0),
    (1e-9, 0.0, 0.0),
    (1.0000001e-9, 0.0, 0.0),
    (math.nan, 0.0, 1.0),
    (-math.inf, 0.0, 1.0),
]


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e150, 1e300, 1e308])
def test_canonical_unit3_agrees_with_canonical_unit(scale):
    rng = np.random.default_rng(4)
    with np.errstate(over="ignore"):  # at 1e308 some components overflow to inf
        vectors = (rng.standard_normal((2000, 3)) * scale).tolist()
        # first components near eps, where the sign rule moves to the next one
        near = rng.standard_normal((200, 3)) * scale
        near[:, 0] = rng.uniform(-2.0, 2.0, 200) * EPS_COINCIDE * scale
    for v in vectors + near.tolist() + EDGES3:
        u = _outcome(lambda v: canonical_unit3(*v), v)
        # the same floats, bit for bit, as the list path, from a list and from a tuple
        assert u == _outcome(canonical_unit_n, list(v))
        assert u == _outcome(canonical_unit, v)
        if u is not DegenerateInput:
            assert all(type(x) is float for x in u)
            assert canonical_unit3(*u) == u
            assert canonical_unit3(*(-x for x in v)) == u


@pytest.mark.parametrize(
    "v, expected",
    [
        ((0.0, -2.0, 0.0), (0.0, 1.0, 0.0)),
        ((-1e-12, 0.0, -5.0), (2e-13, 0.0, 1.0)),
        ((-0.0, 3.0, -4.0), (0.0, 0.6, -0.8)),
        ((1e200, -1e200, 0.0), canonical_unit3(1.0, -1.0, 0.0)),
    ],
)
def test_canonical_unit3_sign_and_zero_rules(v, expected):
    u = canonical_unit3(*v)
    assert u == pytest.approx(expected, abs=1e-16)
    assert all(math.copysign(1.0, x) == 1.0 for x in u if x == 0.0)


@pytest.mark.parametrize(
    "v", [(0.0, 0.0, 0.0), (1e-10, 0.0, 0.0), (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (1e400, 1.0, 0.0)]
)
def test_canonical_unit3_rejects_what_canonical_unit_rejects(v):
    with pytest.raises(DegenerateInput):
        canonical_unit(v)
    with pytest.raises(DegenerateInput):
        canonical_unit3(*v)


def _numpy_canonical_unit(v) -> np.ndarray:
    a = v / np.abs(v).max()
    a = a / np.linalg.norm(a)
    first = np.flatnonzero(np.abs(a) > EPS_COINCIDE)[0]
    return -a if a[first] < 0.0 else a


def test_canonical_unit_n_agrees_with_a_numpy_reference():
    rng = np.random.default_rng(5)
    for n in range(2, 65):
        for scale in (1e-6, 1.0, 1e150, 1e300):
            for _ in range(40):
                v = rng.standard_normal(n) * scale
                u = canonical_unit_n(v.tolist())
                assert type(u) is tuple and len(u) == n
                assert all(type(x) is float for x in u)
                np.testing.assert_allclose(u, _numpy_canonical_unit(v), rtol=0, atol=1e-15)
                assert canonical_unit_n(list(u)) == u
                assert canonical_unit_n((-v).tolist()) == u


@pytest.mark.parametrize(
    "v, expected",
    [
        ((0.0, -2.0), (0.0, 1.0)),
        ((-1e-12, 0.0, 0.0, -5.0), (2e-13, 0.0, 0.0, 1.0)),
        ((-0.0, 3.0, -4.0, -0.0), (0.0, 0.6, -0.8, 0.0)),
        ((1e200, -1e200, 0.0, 1e200, 0.0), canonical_unit_n([1.0, -1.0, 0.0, 1.0, 0.0])),
        ((-1e308,) * 8, canonical_unit_n([1.0] * 8)),
    ],
)
def test_canonical_unit_n_sign_and_zero_rules(v, expected):
    u = canonical_unit_n(list(v))
    assert u == pytest.approx(expected, abs=1e-16)
    assert all(math.copysign(1.0, x) == 1.0 for x in u if x == 0.0)
    np.testing.assert_allclose(u, canonical_unit(v), rtol=0, atol=1e-16)


@pytest.mark.parametrize(
    "v",
    [
        (0.0, 0.0),
        (1e-10, 0.0, 0.0, 0.0),
        (math.nan, 0.0, 1.0, 0.0),
        (math.inf, 0.0),
        (0.0, 0.0, 0.0, 0.0, -math.inf),
        (1e400, 1.0, 0.0, 0.0),
    ],
)
def test_canonical_unit_n_rejects_what_canonical_unit_rejects(v):
    with pytest.raises(DegenerateInput):
        canonical_unit(v)
    with pytest.raises(DegenerateInput):
        canonical_unit_n(list(v))


def test_components_n_takes_flat_numeric_vectors():
    assert components_n((1, 2.5, np.float64(3))) == [1.0, 2.5, 3.0]
    assert components_n(np.array([0.5, -1.0])) == [0.5, -1.0]
    assert components_n(x for x in (1, 2)) == [1.0, 2.0]
    assert all(type(x) is float for x in components_n(np.arange(3)))


def test_canonical_unit_exactly_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(500):
        v = rng.standard_normal(int(rng.integers(2, 7)))
        if np.linalg.norm(v) < 1e-6:
            continue
        once = canonical_unit(v)
        twice = canonical_unit(once)
        assert once == twice


def test_canonical_unit_sign_invariance():
    rng = np.random.default_rng(2)
    for _ in range(500):
        v = rng.standard_normal(3)
        assert canonical_unit(v) == canonical_unit(-v)


@pytest.mark.parametrize(
    "u,v,expected",
    [
        ((1, 0), (0, 1), math.pi / 2),
        ((1, 0), (-1, 0), 0.0),
        ((1, 0), (math.sqrt(2) / 2, math.sqrt(2) / 2), math.pi / 4),
    ],
)
def test_angle_between_directions_examples(u, v, expected):
    assert angle_between_directions(u, v) == pytest.approx(expected, abs=1e-12)


def test_angle_between_directions_symmetry_and_flips():
    rng = np.random.default_rng(3)
    for _ in range(300):
        u = np.array(canonical_unit(rng.standard_normal(3)))
        v = np.array(canonical_unit(rng.standard_normal(3)))
        a = angle_between_directions(u, v)
        assert a == pytest.approx(angle_between_directions(v, u), abs=1e-12)
        assert a == pytest.approx(angle_between_directions(-u, v), abs=1e-12)
        assert a == pytest.approx(angle_between_directions(u, -v), abs=1e-12)
        assert 0.0 <= a <= math.pi / 2 + 1e-12


def test_wrap_angle():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.0) == 0.0
