import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    angle_between_directions,
    classify_sphere_matrix,
    random_axis,
    random_circle,
    rotation_matrix,
    rotation_matrix_distance,
    same_axis_angle,
    same_direction,
    sphere_word_matrix,
    vector,
)
from mirrorwords import cli, orthon, sampling, so3
from mirrorwords.numerics import DegenerateSteering, NotConcurrent
from mirrorwords.sphere import (
    GLIDE,
    IDENTITY,
    REFLECTION,
    ROTATION,
    GreatCircle,
    classification_json,
    coincident,
    compose_reflections,
    mirror_json,
    normalize_word,
    oracle_distance,
    replay_moves,
    word_oracle,
    word_to_matrix,
)

EQUATOR = GreatCircle((0, 0, 1))
SQ2 = math.sqrt(2) / 2


def longitude(deg):
    """Great circle through the poles at the given longitude."""
    t = math.radians(deg)
    return GreatCircle((-math.sin(t), math.cos(t), 0.0))


def mirror_image(circle, p):
    """Image of point p under the oracle matrix of the one-mirror word [circle]."""
    return word_to_matrix([circle]) @ np.asarray(p, dtype=float)


@pytest.mark.parametrize(
    "circle,point,expected",
    [
        (EQUATOR, (0, 0, 1), (0, 0, -1)),
        (EQUATOR, (1, 0, 0), (1, 0, 0)),
        (GreatCircle((1, 0, 0)), (SQ2, SQ2, 0), (-SQ2, SQ2, 0)),
    ],
)
def test_reflect_point_examples(circle, point, expected):
    np.testing.assert_allclose(mirror_image(circle, point), expected, atol=1e-12)


def test_reflect_point_involution():
    rng = np.random.default_rng(40)
    for _ in range(200):
        c = random_circle(rng)
        p = vector(random_axis(rng))
        np.testing.assert_allclose(mirror_image(c, mirror_image(c, p)), p, atol=1e-12)
        assert np.linalg.norm(mirror_image(c, p)) == pytest.approx(1.0, abs=1e-12)


def test_compose_identity():
    assert compose_reflections(EQUATOR, GreatCircle((0, 0, -2))) == {"kind": IDENTITY}


def test_compose_orthogonal_circles():
    c = compose_reflections(EQUATOR, GreatCircle((1, 0, 0)))
    assert c["kind"] == ROTATION
    assert same_axis_angle(c["axis"], c["angle"], (0, 1, 0), math.pi)


def test_compose_longitudes():
    c = compose_reflections(longitude(0), longitude(45))
    assert c["kind"] == ROTATION
    assert same_axis_angle(c["axis"], c["angle"], (0, 0, 1), math.pi / 2)


def test_compose_matches_matrix_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        l, m = random_circle(rng), random_circle(rng)
        c = compose_reflections(l, m)
        if c["kind"] == IDENTITY:
            continue
        from mirrorwords.so3 import rotation

        M = rotation_matrix(rotation(c["axis"], c["angle"]))
        np.testing.assert_allclose(M, sphere_word_matrix([l, m]), atol=1e-9)


def turned(l, m, l2):
    """The m2 with (l, m) ~ (l2, m2) in one pencil: l2's pole by so3.pencil_turn."""
    return GreatCircle(so3.pencil_turn(l.values, m.values, l2.values))


def test_pencil_completion_longitudes():
    m2 = turned(longitude(0), longitude(30), longitude(45))
    assert coincident(m2, longitude(75))
    m3 = turned(longitude(0), longitude(90), longitude(10))
    assert coincident(m3, longitude(100))


def test_pencil_completion_coincident_pair():
    l, l2 = longitude(13), longitude(77)
    assert coincident(turned(l, l, l2), l2)


def test_pencil_completion_rejects_outsiders():
    # the four-step checks each circle it turns against the pair's common axis
    axis = so3._common_axis(longitude(0), longitude(30))
    so3._check_concurrent(longitude(45), axis)
    with pytest.raises(NotConcurrent):
        so3._check_concurrent(EQUATOR, axis)


def test_pencil_completion_angle_equalities():
    rng = np.random.default_rng(42)
    for _ in range(200):
        l, m = random_circle(rng), random_circle(rng)
        if coincident(l, m):
            continue
        from mirrorwords.so3 import rotation

        axis = np.cross(vector(l), vector(m))
        theta = rng.uniform(0, math.pi)
        # a circle through the same intersection pair
        l2 = GreatCircle(rotation_matrix(rotation(axis, theta)) @ vector(l))
        m2 = turned(l, m, l2)
        assert angle_between_directions(vector(l), vector(m)) == pytest.approx(
            angle_between_directions(vector(l2), vector(m2)), abs=1e-9
        )
        assert angle_between_directions(vector(l), vector(l2)) == pytest.approx(
            angle_between_directions(vector(m), vector(m2)), abs=1e-9
        )
        assert (
            rotation_matrix_distance(
                sphere_word_matrix([l, m]), sphere_word_matrix([l2, m2])
            )
            <= 1e-9
        )


def test_reduce_four_involution():
    k = GreatCircle((1, 2, 3))
    m, n = EQUATOR, longitude(30)
    assert normalize_word([k, k, m, n]) == [m, n]


def test_reduce_four_longitudes():
    out = normalize_word([longitude(0), longitude(30), longitude(60), longitude(90)])
    assert len(out) == 2
    c = compose_reflections(out[0], out[1])
    assert c["kind"] == ROTATION
    assert same_axis_angle(c["axis"], c["angle"], (0, 0, 1), 2 * math.pi / 3, eps=1e-9)


def test_reduce_four_double_cancellation():
    c = GreatCircle((3, 1, -2))
    out = normalize_word([EQUATOR, EQUATOR, c, c])
    assert out == []


def test_reduce_four_random_oracle():
    rng = np.random.default_rng(43)
    for _ in range(300):
        w = sampling.random_word(rng, "s2", 4)
        out = normalize_word(w)
        assert len(out) <= 2
        assert rotation_matrix_distance(word_to_matrix(w), word_to_matrix(out)) <= 1e-9


def test_normalize_trivial():
    assert normalize_word([]) == []
    c, d = GreatCircle((1, 1, 0)), GreatCircle((0, 1, 1))
    assert normalize_word([c, c, d]) == [d]


def test_normalize_random_words():
    rng = np.random.default_rng(44)
    for _ in range(400):
        n = int(rng.integers(0, 8))
        w = sampling.random_word(rng, "s2", n)
        out = normalize_word(w)
        assert len(out) <= 3
        if n % 2 == 0:
            assert len(out) <= 2
        assert len(out) % 2 == n % 2
        assert rotation_matrix_distance(word_to_matrix(w), word_to_matrix(out)) <= 1e-9


@pytest.mark.parametrize("length", [0, 1, 2, 3, 8, 64, 255, 512])
def test_word_to_matrix_matches_the_householder_product(length):
    # the quaternion recurrence gives (-1)^k R(q), the product of the I - 2pp^T
    rng = np.random.default_rng(47 + length)
    for _ in range(5):
        w = sampling.random_word(rng, "s2", length)
        M = word_to_matrix(w)
        assert type(M) is np.ndarray and M.shape == (3, 3)
        np.testing.assert_allclose(M, sphere_word_matrix(w), rtol=0, atol=1e-13)


def test_det_parity_through_replay():
    rng = np.random.default_rng(45)
    for _ in range(100):
        w = sampling.random_word(rng, "s2", int(rng.integers(0, 8)))
        trace = []
        out = normalize_word(w, trace)
        states = replay_moves(w, trace)
        assert states[-1] == out
        for st in states:
            M = word_to_matrix(st)
            assert np.linalg.det(M) == pytest.approx((-1.0) ** len(st), abs=1e-9)
            assert rotation_matrix_distance(M, word_to_matrix(w)) <= 1e-9


def test_classify_single_circle():
    c = classification_json([EQUATOR])
    assert c == {"kind": REFLECTION, "circle": mirror_json(EQUATOR)}


def test_classify_two_longitudes():
    c = classification_json([longitude(0), longitude(45)])
    assert c["kind"] == ROTATION
    assert same_axis_angle(c["axis"], c["angle"], (0, 0, 1), math.pi / 2)


def test_classify_antipodal_map():
    # three mutually orthogonal circles compose to -I, the glide of angle pi
    w = [GreatCircle((1, 0, 0)), GreatCircle((0, 1, 0)), GreatCircle((0, 0, 1))]
    np.testing.assert_allclose(word_to_matrix(w), -np.eye(3), atol=1e-12)
    c = classification_json(w)
    assert c["kind"] == GLIDE
    assert c["angle"] == pytest.approx(math.pi)


def test_classify_matches_eigen_oracle():
    rng = np.random.default_rng(46)
    for _ in range(400):
        w = sampling.random_word(rng, "s2", int(rng.integers(0, 8)))
        c = classification_json(w)
        ref = classify_sphere_matrix(sphere_word_matrix(w))
        assert c["kind"] == ref[0]
        if c["kind"] == ROTATION:
            assert same_axis_angle(c["axis"], c["angle"], ref[1], ref[2], eps=1e-7)
        elif c["kind"] == REFLECTION:
            assert same_direction(c["circle"]["pole"], ref[1], eps=1e-7)
        elif c["kind"] == GLIDE and ref[1] is not None:
            assert same_axis_angle(c["axis"], c["angle"], ref[1], ref[2], eps=1e-7)


@pytest.mark.parametrize(
    "word",
    [
        pytest.param([GreatCircle((0, 0, 1))], id="one-circle"),
        pytest.param(
            [GreatCircle((1, 0, 0)), GreatCircle((0, 1, 0)), GreatCircle((0, 0, 1))], id="x-y-z"
        ),
    ],
)
def test_oracle_distance_sees_a_dropped_circle(word):
    # A @ B^T is improper; its rotation angle would read 0
    d = oracle_distance(word_oracle(word), word_oracle([]))
    assert d >= 2.0 - 1e-12
    assert cli.residual("s2", word, []) == d


def test_oracle_distance_of_same_parity_words_is_the_rotation_angle():
    rng = np.random.default_rng(95)
    for _ in range(200):
        a = sampling.random_word(rng, "s2", int(rng.integers(0, 8)))
        b = sampling.random_word(rng, "s2", int(rng.integers(0, 4)) * 2 + len(a) % 2)
        A, B = word_oracle(a), word_oracle(b)
        assert oracle_distance(A, B) == so3.rotation_angle((A @ B.T).tolist())


# small integer poles give exactly perpendicular, coplanar and repeated
# circles; a seed gives a pole in general position
_POLES = st.one_of(
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).standard_normal(3)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_POLES, max_size=14))
def test_normal_form_matches_the_o3_rewrite_of_the_poles(poles):
    # a great circle and the O(3) hyperplane with normal = pole are one mirror,
    # so the two rewriters must reach words with one oracle matrix
    w = [GreatCircle(p) for p in poles]
    out = normalize_word(w)
    try:
        on_out = orthon.normalize_word([orthon.Hyperplane(c.values) for c in w], dim=3)
    except DegenerateSteering:
        assume(False)
    assert len(out) <= 3
    assert float(np.abs(word_to_matrix(out) - orthon.word_to_matrix(on_out, 3)).max()) <= 1e-12


# Poles on which the O(3) rewrite loses digits: against a 50-digit product
# of the input its normal form misses by 4.0e-13 in the largest entry (by
# 2.0e-12 when each step's dependency came from an SVD), the S2 one by
# 3.6e-16. The test above draws them only by chance.
_O3_DIGIT_LOSS_POLES = [
    (0.52011364, 2.58498848, 0.87868133),
    (1, 2, 2),
    (-0.80599184, 0.35200428, 1.02428273),
    (0.52011364, 2.58498848, 0.87868133),
    (-2, 3, 1),
    (0, 0, 1),
]


def test_normal_form_matches_the_o3_rewrite_of_the_digit_loss_poles():
    w = [GreatCircle(p) for p in _O3_DIGIT_LOSS_POLES]
    out = normalize_word(w)
    on_out = orthon.normalize_word([orthon.Hyperplane(c.values) for c in w], dim=3)
    assert len(out) <= 3
    assert float(np.abs(word_to_matrix(out) - orthon.word_to_matrix(on_out, 3)).max()) <= 1e-12
