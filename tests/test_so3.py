import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    IDENTITY_QUATERNION,
    householder,
    line_reflection_matrix,
    quaternion_matrix,
    rotation_from_matrix_eig,
    rotation_matrix,
    rotation_matrix_distance,
    rotation_to_quaternion,
    same_axis_angle,
    so3_word_matrix,
    vector,
)
from mirrorwords import cli, sampling
from mirrorwords.arrowarc import rotation_to_arc
from mirrorwords.numerics import EPS_VERIFY, DegenerateInput, GeometryError, NotOrthogonal
from mirrorwords.so3 import (
    IDENTITY_ROTATION,
    Axis,
    Quaternion,
    coincident,
    compose_line_reflections,
    normalize_word,
    projective_representative,
    quaternion_distance,
    quaternion_to_rotation,
    replay_moves,
    rotation,
    split_reflection,
    word_to_quaternion,
    word_to_rotation,
)

X = Axis((1, 0, 0))
Y = Axis((0, 1, 0))
Z = Axis((0, 0, 1))
SQ2 = math.sqrt(2) / 2


def rotation_to_line_pair(r):
    """The lines through the endpoints of r's arc, which compose to r."""
    arc = rotation_to_arc(r)
    return Axis(arc.tail), Axis(arc.head)


@pytest.mark.parametrize(
    "axis,expected",
    [
        (Z, np.diag([-1.0, -1.0, 1.0])),
        (X, np.diag([1.0, -1.0, -1.0])),
        (Axis((1, 1, 0)), np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, -1]])),
    ],
)
def test_line_reflection_matrix_examples(axis, expected):
    np.testing.assert_allclose(line_reflection_matrix(axis), expected, atol=1e-12)


def test_line_reflections_live_in_so3():
    rng = np.random.default_rng(20)
    for _ in range(200):
        M = line_reflection_matrix(sampling.random_axis(rng))
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(M @ M, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(M, M.T, atol=1e-12)


def test_compose_identity():
    assert compose_line_reflections(X, Axis((-1, 0, 0))).is_identity


def test_compose_perpendicular_axes():
    r = compose_line_reflections(X, Y)
    assert same_axis_angle(r.axis, r.angle, (0, 0, 1), math.pi)


def test_compose_half_angle():
    r = compose_line_reflections(X, Axis((1, 1, 0)))
    assert same_axis_angle(r.axis, r.angle, (0, 0, 1), math.pi / 2)
    np.testing.assert_allclose(r.axis, [0, 0, 1], atol=1e-12)
    assert r.angle == pytest.approx(math.pi / 2)


def test_compose_axis_is_perpendicular():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b = sampling.random_axis(rng), sampling.random_axis(rng)
        r = compose_line_reflections(a, b)
        if r.is_identity:
            continue
        assert abs(float(r.axis @ vector(a))) < 1e-9
        assert abs(float(r.axis @ vector(b))) < 1e-9
        M = rotation_matrix(r)
        np.testing.assert_allclose(
            M, line_reflection_matrix(b) @ line_reflection_matrix(a), atol=1e-12
        )


def test_rotation_to_line_pair_half_turn():
    a, b = rotation_to_line_pair(rotation((0, 0, 1), math.pi))
    assert a == X and coincident(b, Y)


def test_rotation_to_line_pair_quarter_turn():
    a, b = rotation_to_line_pair(rotation((0, 0, 1), math.pi / 2))
    assert a == X
    np.testing.assert_allclose(vector(b), [SQ2, SQ2, 0], atol=1e-12)


def test_rotation_to_line_pair_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(300):
        r = sampling.random_rotation(rng)
        if r.is_identity:
            continue
        a, b = rotation_to_line_pair(r)
        back = compose_line_reflections(a, b)
        assert quaternion_distance(
            rotation_to_quaternion(back), rotation_to_quaternion(r)
        ) <= 1e-9


@pytest.mark.parametrize(
    "k,normal,expected",
    [
        (X, (0, 0, 1), (Y, Z)),  # P = xy-plane
        (Z, (0, 0, 1), (X, Y)),  # degenerate P = k-perp
        (Z, (0, 1, 0), (X, Y)),  # P = xz-plane
    ],
)
def test_split_reflection_examples(k, normal, expected):
    b, c = split_reflection(k, normal)
    assert b == expected[0] and c == expected[1]


def test_split_reflection_algebra():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = sampling.random_axis(rng)
        n = vector(sampling.random_axis(rng))
        b, c = split_reflection(k, n)
        # b in the plane, b and c orthogonal to k and to each other
        assert abs(float(vector(b) @ n)) < 1e-9
        for u, v in ((b, k), (c, k), (b, c)):
            assert abs(float(vector(u) @ vector(v))) < 1e-9
        np.testing.assert_allclose(
            line_reflection_matrix(c) @ line_reflection_matrix(b),
            line_reflection_matrix(k),
            atol=1e-9,
        )


def test_reduce_three_orthogonal_frame_is_identity():
    out = normalize_word([X, Y, Z])
    q = word_to_quaternion(out)
    assert quaternion_distance(q, IDENTITY_QUATERNION) <= 1e-12


def test_reduce_three_involution():
    out = normalize_word([X, X, Z])
    assert out == [Z]


def test_reduce_three_random_oracle():
    rng = np.random.default_rng(24)
    for _ in range(300):
        w = sampling.random_word(rng, "so3", 3)
        out = normalize_word(w)
        assert len(out) <= 2
        assert quaternion_distance(word_to_quaternion(w), word_to_quaternion(out)) <= 1e-9


def test_normalize_trivial():
    assert normalize_word([]) == []
    a = Axis((1, 2, 3))
    assert normalize_word([a, a]) == []


def test_normalize_random_words():
    rng = np.random.default_rng(25)
    for _ in range(400):
        w = sampling.random_word(rng, "so3", int(rng.integers(0, 7)))
        out = normalize_word(w)
        assert len(out) <= 2
        assert quaternion_distance(word_to_quaternion(w), word_to_quaternion(out)) <= 1e-9


def test_trace_replay_det_stays_plus_one():
    rng = np.random.default_rng(26)
    for _ in range(100):
        w = sampling.random_word(rng, "so3", int(rng.integers(0, 7)))
        trace = []
        out = normalize_word(w, trace)
        states = replay_moves(w, trace)
        assert states[-1] == out
        for st in states:
            M = so3_word_matrix(st)
            assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-9)
            assert quaternion_distance(
                word_to_quaternion(st), word_to_quaternion(w)
            ) <= 1e-9


def test_polar_frame_relation():
    rng = np.random.default_rng(27)
    for _ in range(300):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a, b, c = (Axis(Q[:, i]) for i in range(3))
        M = (
            line_reflection_matrix(c)
            @ line_reflection_matrix(b)
            @ line_reflection_matrix(a)
        )
        assert float(np.abs(M - np.eye(3)).max()) <= 1e-12


def test_word_to_rotation_matches_eigen_oracle():
    rng = np.random.default_rng(28)
    for _ in range(300):
        w = sampling.random_word(rng, "so3", int(rng.integers(1, 7)))
        r = word_to_rotation(w)
        M = so3_word_matrix(w)
        if r.is_identity:
            np.testing.assert_allclose(M, np.eye(3), atol=1e-9)
            continue
        axis, angle = rotation_from_matrix_eig(M)
        assert same_axis_angle(r.axis, r.angle, axis, angle, eps=1e-7)


def test_projective_representative_examples():
    np.testing.assert_array_equal(projective_representative(np.eye(3)), np.eye(3))
    np.testing.assert_array_equal(projective_representative(-np.eye(3)), np.eye(3))
    np.testing.assert_allclose(
        projective_representative(np.diag([1.0, 1.0, -1.0])),
        np.diag([-1.0, -1.0, 1.0]),
    )
    with pytest.raises(NotOrthogonal):
        projective_representative(np.diag([2.0, 1.0, 1.0]))


def test_projective_representative_is_isomorphism():
    rng = np.random.default_rng(29)
    for _ in range(200):
        A, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        B, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ra = projective_representative(A)
        rb = projective_representative(B)
        assert np.linalg.det(ra) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_array_equal(projective_representative(ra), ra)
        np.testing.assert_allclose(
            projective_representative(A @ B), projective_representative(ra @ rb),
            atol=1e-10,
        )


@pytest.mark.parametrize(
    "r,expected",
    [
        (IDENTITY_ROTATION, (1, 0, 0, 0)),
        (rotation((0, 0, 1), math.pi), (0, 0, 0, 1)),
        (rotation((1, -1, 1), 2 * math.pi / 3), (0.5, 0.5, -0.5, 0.5)),
    ],
)
def test_rotation_quaternion_bridge_examples(r, expected):
    q = rotation_to_quaternion(r)
    np.testing.assert_allclose([q.w, q.x, q.y, q.z], expected, atol=1e-12)


def test_quaternion_round_trip():
    rng = np.random.default_rng(30)
    for _ in range(300):
        r = sampling.random_rotation(rng)
        back = quaternion_to_rotation(rotation_to_quaternion(r))
        assert same_axis_angle(back.axis, back.angle, r.axis, r.angle, eps=1e-10)


def test_quaternion_composition_matches_matrices():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r1 = sampling.random_rotation(rng)
        r2 = sampling.random_rotation(rng)
        q = rotation_to_quaternion(r2) * rotation_to_quaternion(r1)
        M = rotation_matrix(r2) @ rotation_matrix(r1)
        assert rotation_matrix_distance(quaternion_matrix(q), M) <= 1e-9


@pytest.mark.parametrize(
    "angle",
    [
        math.nan,
        math.inf,
        -math.inf,
        "1",
        b"1",
        None,
        pytest.param(10**400, id="huge-int"),
        pytest.param(10**5000, id="int-past-repr-digit-limit"),
    ],
)
def test_rotation_rejects_non_finite_angle(angle):
    with pytest.raises(DegenerateInput):
        rotation((0, 0, 1), angle)


@pytest.mark.parametrize("angle", [1, np.float64(1.0)])
def test_rotation_takes_any_real_angle(angle):
    r, expected = rotation((0, 0, -1), angle), rotation((0, 0, -1), 1.0)
    assert r.angle == expected.angle
    assert list(r.axis) == list(expected.axis)


def test_axis_canonical_sign():
    assert Axis((0, 0, -1)) == Z
    assert coincident(Axis((-1, 1e-12, 0)), X)


def _jittered_axes(rng, jitter, length):
    base = rng.standard_normal(3)
    base /= np.linalg.norm(base)
    return [Axis(base + jitter * rng.standard_normal(3)) for _ in range(length)]


@pytest.mark.parametrize("jitter", [1e-5, 1e-7, 1e-9, 1e-11])
def test_axes_jittered_about_one_direction_meet_eps_verify_or_raise(jitter):
    # every near-degenerate word is reduced within eps_verify or rejected
    # with a typed error, never silently off
    rng = np.random.default_rng(77)
    for length in (6, 7, 12):
        for _ in range(100):
            w = _jittered_axes(rng, jitter, length)
            try:
                out = normalize_word(w)
            except GeometryError:
                continue
            assert cli.residual("so3", w, out) <= EPS_VERIFY


def test_long_words_take_few_moves_per_mirror():
    # the four-to-two step removes two mirrors per three moves
    rng = np.random.default_rng(512)
    for _ in range(4):
        w = sampling.random_word(rng, "so3", 512)
        trace = []
        out = normalize_word(w, trace)
        assert len(out) <= 2
        assert len(trace) / len(w) <= 1.6
        assert replay_moves(w, trace)[-1] == out


# small integer directions give exactly perpendicular, coplanar and
# repeated axes; a seed gives a direction in general position
_DIRECTIONS = st.one_of(
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).standard_normal(3)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_DIRECTIONS, max_size=14))
def test_normal_form_matches_the_householder_product_of_the_normals(directions):
    # a half-turn about a is -H_a, so a word of k axes is (-1)^k times the
    # product of the reflections in the planes with normals a
    w = [Axis(d) for d in directions]
    out = normalize_word(w)
    assert len(out) <= 2
    H = np.eye(3)
    for a in w:
        H = householder(vector(a)) @ H
    R = quaternion_matrix(word_to_quaternion(out))
    assert float(np.abs((-1) ** len(w) * R - H).max()) <= 1e-12
