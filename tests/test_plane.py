import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import affine, classify_plane_map, plane_word_map, same_direction
from mirrorwords import cli, sampling
from mirrorwords.numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    DegenerateInput,
    GeometryError,
    NotConcurrent,
)
from mirrorwords.plane import (
    GLIDE,
    IDENTITY,
    REFLECTION,
    ROTATION,
    TRANSLATION,
    Line,
    classification_json,
    coincident,
    compose_reflections,
    isometry_distance,
    mirror_json,
    normalize_word,
    pencil_completion,
    replay_moves,
    verify_pencil_relation,
    word_to_isometry,
)

X_AXIS = Line((0, 1), 0)
Y_AXIS = Line((1, 0), 0)
SQ2 = math.sqrt(2) / 2


def vertical(x):
    return Line((1, 0), x)


def origin_line(theta_deg):
    """Line through the origin whose direction makes theta with the x-axis."""
    t = math.radians(theta_deg)
    return Line((-math.sin(t), math.cos(t)), 0.0)


def mirror_image(line, p):
    """Image of point p under the oracle map of the one-mirror word [line]."""
    A, t = affine(word_to_isometry([line]))
    return A @ np.asarray(p, dtype=float) + t


@pytest.mark.parametrize(
    "normal,offset",
    [
        ((math.inf, 0.0), 1.0),
        ((math.nan, 1.0), 0.0),
        ((1.0, 0.0), math.inf),
        ((0.0, 1.0), math.nan),
        # malformed: a normal of other than two numbers, or a non-numeric offset
        ([1, 2, 3], 0),
        ([1], 0),
        ("ab", 0),
        ([1, 0], "x"),
        ([1.0, None], 0),
        (1.0, 0),
        pytest.param("12", 0, id="digit-str"),
        pytest.param(b"12", 0, id="digit-bytes"),
        pytest.param((1, 0), "1", id="digit-str-offset"),
        pytest.param((1, 0), b"1", id="digit-bytes-offset"),
        ((1, 0), None),
        # ints past the float range
        pytest.param((10**400, 0), 0, id="huge-int-normal"),
        pytest.param((1, 0), 10**400, id="huge-int-offset"),
        pytest.param((1, 0), 10**5000, id="int-past-repr-digit-limit"),
        # malformed and holding such an int: the message must not repr it
        pytest.param((10**5000, 0, 0), 0, id="wrong-length-int-past-repr-digit-limit"),
        # digit strings as components, which float() reads as numbers
        pytest.param(("1", "0"), 0.0, id="digit-str-normal"),
        pytest.param([1, "0"], 0.0, id="digit-str-normal-component"),
        pytest.param((b"1", 0), 0.0, id="digit-bytes-normal-component"),
        pytest.param((1, 0), bytearray(b"1"), id="digit-bytearray-offset"),
        pytest.param(np.array(["1", "0"]), 0.0, id="digit-str-array"),
        pytest.param(bytearray(b"12"), 0.0, id="digit-bytearray"),
        # float() reads a memoryview of digits as text too
        pytest.param((memoryview(b"1"), 0), 0.0, id="digit-memoryview-normal-component"),
        pytest.param((1, 0), memoryview(b"2"), id="digit-memoryview-offset"),
        # a whole view of bytes would give the ints of the characters
        pytest.param(memoryview(b"12"), 0, id="bytes-memoryview-normal"),
        pytest.param(memoryview(bytearray(b"12")), 0, id="bytearray-memoryview-normal"),
    ],
)
def test_line_rejects_non_finite(normal, offset):
    with pytest.raises(DegenerateInput):
        Line(normal, offset)


@pytest.mark.parametrize(
    "nx, ny, d",
    [
        (0.6, 0.8, 2.0),
        (-3.0, 4.0, -10.0),
        (-0.0, 1.0, -0.0),
        (-0.0, -1.0, 0.5),
        (EPS_COINCIDE, -1.0, 1.0),
        (-EPS_COINCIDE, -1.0, 1.0),
        (-EPS_COINCIDE, 1.0, -0.0),
        (1.0 + 1e-14, 0.0, 3.0),
        (-(1.0 - 1e-14), -0.0, 3.0),
        (0.6 * (1.0 + 1e-14), -0.8, 1e-300),
        (1e308, -1e308, 1e308),
        (-1e200, 1e200, 5.0),
        (1e-10, 0.0, 1.0),
        (0.0, 0.0, 0.0),
        (math.inf, 0.0, 1.0),
        (0.0, 1.0, -math.inf),
        (math.nan, 1.0, 0.0),
        (1.0, 0.0, math.nan),
    ],
)
def test_line_from_floats_is_the_constructor(nx, ny, d):
    # the rewrite's float path: the same representative, or the same error
    try:
        expected = Line((nx, ny), d)
    except DegenerateInput as error:
        with pytest.raises(DegenerateInput) as raised:
            Line.from_floats(nx, ny, d)
        assert str(raised.value) == str(error)
        return
    line = Line.from_floats(nx, ny, d)
    assert type(line) is Line
    assert [x.hex() for x in line.values] == [x.hex() for x in expected.values]


@pytest.mark.parametrize("offset", [3, np.float64(3.0)])
def test_line_takes_any_real_offset(offset):
    line, expected = Line((-3, 4), offset), Line((-3, 4), 3.0)
    assert (line.nx, line.ny, line.offset) == (expected.nx, expected.ny, expected.offset)
    assert type(line.offset) is float


def test_line_canonicalization():
    assert Line((0, -1), 5) == Line((0, 1), -5)
    assert Line((-2, 0), 4) == Line((1, 0), -2)
    l = Line((3, 4), 10)
    assert (l.nx, l.ny) == (0.6, 0.8)
    assert l.offset == pytest.approx(2.0)


@pytest.mark.parametrize(
    "line,point,expected",
    [
        (X_AXIS, (3, 2), (3, -2)),
        (vertical(2), (0, 0), (4, 0)),
        (Line((1, -1), 0), (1, 0), (0, 1)),
    ],
)
def test_reflect_point_examples(line, point, expected):
    np.testing.assert_allclose(mirror_image(line, point), expected, atol=1e-12)


def test_reflect_point_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        (l,) = sampling.random_word(rng, "e2", 1)
        p = rng.uniform(-10, 10, 2)
        np.testing.assert_allclose(mirror_image(l, mirror_image(l, p)), p, atol=1e-9)


def test_word_to_isometry_empty_and_involution():
    A, t = affine(word_to_isometry([]))
    np.testing.assert_array_equal(A, np.eye(2))
    np.testing.assert_array_equal(t, np.zeros(2))
    l = Line((2, 1), 3)
    A, t = affine(word_to_isometry([l, l]))
    np.testing.assert_allclose(A, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t, np.zeros(2), atol=1e-12)


def test_word_to_isometry_translation():
    A, t = affine(word_to_isometry([vertical(0), vertical(1)]))
    np.testing.assert_allclose(A, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t, [2, 0], atol=1e-12)


def test_word_to_isometry_det_parity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = sampling.random_word(rng, "e2", int(rng.integers(0, 9)))
        iso = word_to_isometry(w)
        assert np.linalg.det(affine(iso)[0]) == pytest.approx((-1.0) ** len(w), abs=1e-10)


def test_compose_identity():
    l = Line((1, 2), 3)
    assert compose_reflections(l, Line((1, 2), 3)) == {"kind": IDENTITY}


def test_compose_translation():
    c = compose_reflections(vertical(0), vertical(1))
    assert c["kind"] == TRANSLATION
    np.testing.assert_allclose(c["vector"], [2, 0], atol=1e-12)


def test_compose_rotation():
    c = compose_reflections(X_AXIS, Line((1, -1), 0))
    assert c["kind"] == ROTATION
    np.testing.assert_allclose(c["center"], [0, 0], atol=1e-12)
    assert c["angle"] == pytest.approx(math.pi / 2)


def test_pencil_completion_parallel():
    m2 = pencil_completion(vertical(0), vertical(1), vertical(5))
    assert coincident(m2, vertical(6))


def test_pencil_completion_concurrent():
    m2 = pencil_completion(origin_line(0), origin_line(30), origin_line(45))
    assert coincident(m2, origin_line(75))


def test_pencil_completion_coincident_pair():
    l = origin_line(10)
    l2 = origin_line(77)
    assert pencil_completion(l, l, l2) == l2


def test_pencil_completion_rejects_outsiders():
    with pytest.raises(NotConcurrent):
        pencil_completion(vertical(0), vertical(1), X_AXIS)
    with pytest.raises(NotConcurrent):
        pencil_completion(X_AXIS, Y_AXIS, vertical(3))


def test_pencil_completion_oracle_equality():
    rng = np.random.default_rng(7)
    for _ in range(200):
        l, m = sampling.random_word(rng, "e2", 2)
        if abs(l.nx * m.ny - l.ny * m.nx) <= EPS_COINCIDE:
            l2 = Line((l.nx, l.ny), rng.uniform(-10, 10))
        else:
            # a line through the common point of l and m
            point = np.linalg.solve([[l.nx, l.ny], [m.nx, m.ny]], [l.offset, m.offset])
            theta = rng.uniform(0, math.pi)
            n = np.array([-math.sin(theta), math.cos(theta)])
            l2 = Line(n, float(n @ point))
        m2 = pencil_completion(l, m, l2)
        assert verify_pencil_relation(l, m, l2, m2)
        d = isometry_distance(word_to_isometry([l, m]), word_to_isometry([l2, m2]))
        assert d <= 1e-8


@pytest.mark.parametrize(
    "quad,expected",
    [
        ((vertical(0), vertical(1), vertical(5), vertical(6)), True),
        ((vertical(0), vertical(1), vertical(5), vertical(7)), False),
        ((origin_line(0), origin_line(45), origin_line(10), origin_line(55)), True),
        ((origin_line(0), origin_line(45), origin_line(10), origin_line(65)), False),
        # swapped pair shares the pencil and the unsigned gaps, but composes
        # to the inverse translation: the signed relation must reject it
        ((vertical(0), vertical(1), vertical(1), vertical(0)), False),
    ],
)
def test_verify_pencil_relation(quad, expected):
    assert verify_pencil_relation(*quad) is expected


def test_pencil_completion_rejects_random_triples():
    # three independent random lines share no pencil, almost surely
    rng = np.random.default_rng(8)
    for _ in range(100):
        l, m, l2 = sampling.random_word(rng, "e2", 3)
        with pytest.raises(NotConcurrent):
            pencil_completion(l, m, l2)


def _line_at(theta, offset):
    """The line {n . x = offset} with unit normal n at angle theta."""
    return Line((math.cos(theta), math.sin(theta)), offset)


def _through(point, theta):
    """The line through point whose unit normal is at angle theta."""
    n = (math.cos(theta), math.sin(theta))
    return Line(n, n[0] * point[0] + n[1] * point[1])


_COORD = st.floats(-100.0, 100.0)
_ANGLE = st.floats(0.0, math.pi)
_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@_SETTINGS
@given(x=_COORD, y=_COORD, thetas=st.tuples(_ANGLE, _ANGLE, _ANGLE))
def test_pencil_completion_keeps_the_product_of_a_concurrent_pencil(x, y, thetas):
    l, m, l2 = (_through((x, y), t) for t in thetas)
    m2 = pencil_completion(l, m, l2)
    assert verify_pencil_relation(l, m, l2, m2)
    if not coincident(l, m):  # else m2 is l2, within EPS_COINCIDE
        assert isometry_distance(word_to_isometry([l, m]), word_to_isometry([l2, m2])) <= 1e-12


@_SETTINGS
@given(theta=_ANGLE, offsets=st.tuples(_COORD, _COORD, _COORD))
def test_pencil_completion_keeps_the_product_of_a_parallel_pencil(theta, offsets):
    l, m, l2 = (_line_at(theta, d) for d in offsets)
    m2 = pencil_completion(l, m, l2)
    assert verify_pencil_relation(l, m, l2, m2)
    if not coincident(l, m):  # else m2 is l2, within EPS_COINCIDE
        assert isometry_distance(word_to_isometry([l, m]), word_to_isometry([l2, m2])) <= 1e-12


@_SETTINGS
@given(
    radius=st.floats(1e6, 1e9),
    phi=st.floats(0.0, 2.0 * math.pi),
    feet=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
)
def test_pencil_completion_keeps_the_product_of_near_parallel_lines_with_a_far_centre(
    radius, phi, feet
):
    # three lines through a centre 1e6 to 1e9 away, each through a point
    # within 10 of the origin: nearly parallel, with moderate offsets
    cx, cy = radius * math.cos(phi), radius * math.sin(phi)
    lines = []
    for d in feet:
        px, py = -d * math.sin(phi), d * math.cos(phi)
        nx, ny = -(cy - py), cx - px
        lines.append(Line((nx, ny), nx * px + ny * py))
    l, m, l2 = lines
    m2 = pencil_completion(l, m, l2)
    assert verify_pencil_relation(l, m, l2, m2)
    if not coincident(l, m):  # else m2 is l2, within EPS_COINCIDE
        assert isometry_distance(word_to_isometry([l, m]), word_to_isometry([l2, m2])) <= 1e-12


@_SETTINGS
@given(
    x=_COORD,
    y=_COORD,
    theta=_ANGLE,
    spread=st.floats(0.1, math.pi - 0.1),
    theta2=_ANGLE,
    miss=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
)
def test_pencil_completion_rejects_a_line_off_a_concurrent_pencil(x, y, theta, spread, theta2, miss):
    l, m = _through((x, y), theta), _through((x, y), theta + spread)
    off = _through((x, y), theta2)
    with pytest.raises(NotConcurrent):
        pencil_completion(l, m, Line((off.nx, off.ny), off.offset + miss))


@_SETTINGS
@given(
    theta=_ANGLE,
    d=st.floats(-10.0, 10.0),
    gap=st.floats(0.1, 20.0) | st.floats(-20.0, -0.1),
    tilt=st.floats(1e-3, math.pi / 2) | st.floats(-math.pi / 2, -1e-3),
    d2=st.floats(-10.0, 10.0),
)
def test_pencil_completion_rejects_a_tilted_line_off_a_parallel_pencil(theta, d, gap, tilt, d2):
    l, m = _line_at(theta, d), _line_at(theta, d + gap)
    with pytest.raises(NotConcurrent):
        pencil_completion(l, m, _line_at(theta + tilt, d2))


@_SETTINGS
@given(theta=_ANGLE, d=st.floats(-10.0, 10.0), d2=st.floats(-10.0, 10.0))
def test_pencil_completion_tests_parallel_pencils_relative_to_their_glide(theta, d, d2):
    # the glide of a tilted third line is 2 gap sin(tilt): 4e-9 for a gap
    # of 20 and a tilt of 1e-10, within EPS_COINCIDE (1 + |t|); 4e-5 at 1e-6
    l, m = _line_at(theta, d), _line_at(theta, d + 20.0)
    l2 = _line_at(theta + 1e-10, d2)
    assert verify_pencil_relation(l, m, l2, pencil_completion(l, m, l2))
    with pytest.raises(NotConcurrent):
        pencil_completion(l, m, _line_at(theta + 1e-6, d2))


def test_reduce_four_involution_case():
    k = Line((1, 2), 3)
    m, n = X_AXIS, vertical(4)
    out = normalize_word([k, k, m, n])
    assert out == [m, n]


def test_reduce_four_two_translations():
    # vertical pair then horizontal pair: net translation by (2, 2)
    w = [vertical(0), vertical(1), Line((0, 1), 0), Line((0, 1), 1)]
    out = normalize_word(w)
    assert len(out) == 2
    A, t = affine(word_to_isometry(out))
    np.testing.assert_allclose(A, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(t, [2, 2], atol=1e-9)


@pytest.mark.parametrize("jitter", [1e-9, 1e-10, 1e-11, 1e-12])
def test_two_parallel_pairs_jittered_meet_eps_verify_or_raise_in_few_moves(jitter):
    # the pairs' pencil points lie about 1/jitter away in two directions,
    # so their join is at or near infinity; the middle pair is turned by a
    # right angle at most once, then both pairs meet on a finite join
    rng = np.random.default_rng(17)
    fixed = [vertical(0), vertical(1), Line((0, 1), 0), Line((0, 1), 1)]
    for i in range(60):
        if i == 0:
            lines = fixed
        else:
            a, b = rng.uniform(0.0, math.pi, 2)
            lines = [_line_at(t, d) for t, d in zip((a, a, b, b), rng.uniform(-10.0, 10.0, 4))]
        w = []
        for line, turn in zip(lines, jitter * rng.standard_normal(4)):
            c, s = math.cos(turn), math.sin(turn)
            w.append(Line((line.nx * c - line.ny * s, line.nx * s + line.ny * c), line.offset))
        trace = []
        try:
            out = normalize_word(w, trace)
        except GeometryError:
            continue
        # a turn, two pencil moves and an involution, and at most one
        # cancellation of the two lines left
        assert len(trace) <= 5
        assert cli.residual("e2", w, out) <= EPS_VERIFY


@pytest.mark.parametrize("far", [1e6, 1e9, 1e10, 1e12])
def test_reduce_four_far_from_the_origin(far):
    # k is x = far; l passes through (far, 0) at 45 degrees, m and n through
    # (far, 100) at 30 and 60: the join x = far is a unit 3-vector whose
    # normal part is 1 / far, under Line's floor from 1e9 on
    w = [
        vertical(far),
        _through((far, 0), 3 * math.pi / 4),
        _through((far, 100), 2 * math.pi / 3),
        _through((far, 100), 5 * math.pi / 6),
    ]
    out = normalize_word(w)
    assert len(out) == 2
    assert cli.residual("e2", w, out) <= EPS_VERIFY * (1 + far)


def test_reduce_four_concurrent_rotation():
    w = [origin_line(0), origin_line(30), origin_line(60), origin_line(90)]
    out = normalize_word(w)
    assert len(out) == 2
    c = compose_reflections(out[0], out[1])
    assert c["kind"] == ROTATION
    np.testing.assert_allclose(c["center"], [0, 0], atol=1e-9)
    assert c["angle"] == pytest.approx(2 * math.pi / 3, abs=1e-9)


def test_reduce_four_random_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        w = sampling.random_word(rng, "e2", 4)
        out = normalize_word(w)
        assert len(out) <= 2
        assert isometry_distance(word_to_isometry(w), word_to_isometry(out)) <= 1e-8


def test_normalize_trivial_cases():
    assert normalize_word([]) == []
    l, m = Line((1, 1), 2), X_AXIS
    assert normalize_word([l, l, m]) == [m]


def test_normalize_random_words():
    rng = np.random.default_rng(10)
    for _ in range(400):
        n = int(rng.integers(0, 9))
        w = sampling.random_word(rng, "e2", n)
        out = normalize_word(w)
        assert len(out) <= 3
        if n % 2 == 0:
            assert len(out) <= 2
        assert len(out) % 2 == n % 2
        assert isometry_distance(word_to_isometry(w), word_to_isometry(out)) <= 1e-8


def test_odd_words_never_identity():
    rng = np.random.default_rng(11)
    identity = word_to_isometry([])
    for _ in range(200):
        w = sampling.random_word(rng, "e2", int(rng.integers(0, 4)) * 2 + 1)
        iso = word_to_isometry(w)
        assert np.linalg.det(affine(iso)[0]) < 0
        assert isometry_distance(iso, identity) > 0.5


def test_trace_replay_reproduces_normal_form():
    rng = np.random.default_rng(12)
    for _ in range(100):
        w = sampling.random_word(rng, "e2", int(rng.integers(0, 10)))
        trace = []
        out = normalize_word(w, trace)
        states = replay_moves(w, trace)
        assert states[-1] == out
        for st in states:
            iso = word_to_isometry(st)
            assert np.linalg.det(affine(iso)[0]) == pytest.approx(
                (-1.0) ** len(st), abs=1e-9
            )
            assert isometry_distance(iso, word_to_isometry(w)) <= 1e-8


def test_classify_single_mirror():
    c = classification_json([X_AXIS])
    assert c == {"kind": REFLECTION, "axis": mirror_json(X_AXIS)}


def test_classify_translation():
    c = classification_json([vertical(0), vertical(1)])
    assert c["kind"] == TRANSLATION
    np.testing.assert_allclose(c["vector"], [2, 0], atol=1e-12)


def test_classify_glide_example():
    # x-axis, then the diagonal y = x, then x = 3; frozen from the
    # eigen-analysis oracle: axis x - y = 3, glide vector (3, 3)
    w = [X_AXIS, Line((1, -1), 0), vertical(3)]
    c = classification_json(w)
    assert c["kind"] == GLIDE
    axis = Line(c["axis"]["normal"], c["axis"]["offset"])
    assert coincident(axis, Line((SQ2, -SQ2), 3 * SQ2))
    np.testing.assert_allclose(c["vector"], [3, 3], atol=1e-9)


def test_classify_matches_eigen_oracle():
    rng = np.random.default_rng(13)
    for _ in range(400):
        w = sampling.random_word(rng, "e2", int(rng.integers(0, 9)))
        c = classification_json(w)
        A, t = plane_word_map(w)
        ref = classify_plane_map(A, t)
        assert c["kind"] == ref[0]
        if c["kind"] == TRANSLATION:
            np.testing.assert_allclose(c["vector"], ref[1], atol=1e-8)
        elif c["kind"] == ROTATION:
            np.testing.assert_allclose(c["center"], ref[1], atol=1e-6)
            assert c["angle"] == pytest.approx(ref[2], abs=1e-8)
        elif c["kind"] == REFLECTION:
            assert same_direction(c["axis"]["normal"], ref[1])
        elif c["kind"] == GLIDE:
            assert same_direction(c["axis"]["normal"], ref[1])
            np.testing.assert_allclose(c["vector"], ref[3], atol=1e-7)
