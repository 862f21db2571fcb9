import math
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    random_arc,
    random_arc_on_axis,
    random_axis,
    random_rotation,
    rotation_to_quaternion,
    same_axis_angle,
    slide,
    vector,
)
from mirrorwords.arrowarc import (
    Arc,
    arcs_to_svg,
    identity_arc,
    rotation_to_arc,
    triangle_compose,
)
from mirrorwords.numerics import (
    DegenerateArc,
    DegenerateInput,
    canonical_unit_n,
    components_n,
    cross3,
    dot3,
)
from mirrorwords.so3 import quaternion_distance, rotation, twice_angle_rotation

SQ2 = math.sqrt(2) / 2
GOLDEN = Path(__file__).parent / "golden"


def arc_quaternion(arc):
    return rotation_to_quaternion(twice_angle_rotation(arc.tail, arc.head))


def assert_same_rotation(arc, axis, angle, eps=1e-9):
    r = twice_angle_rotation(arc.tail, arc.head)
    assert same_axis_angle(r.axis, r.angle, axis, angle, eps=eps)


def test_degenerate_arc_is_identity():
    arc = Arc((1, 0, 0), (1, 0, 0))
    assert twice_angle_rotation(arc.tail, arc.head).is_identity


def test_quarter_arc_is_half_turn():
    assert_same_rotation(Arc((1, 0, 0), (0, 1, 0)), (0, 0, 1), math.pi)


def test_eighth_arc_is_quarter_turn():
    assert_same_rotation(Arc((1, 0, 0), (SQ2, SQ2, 0)), (0, 0, 1), math.pi / 2)


def test_antipodal_endpoints_rejected():
    with pytest.raises(DegenerateArc):
        Arc((1, 0, 0), (-1, 0, 0))


@pytest.mark.parametrize(
    "tail,head",
    [
        ((math.nan, 0, 0), (1, 0, 0)),
        ((math.inf, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, -math.inf, 0)),
        ((1, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 0), (1, 0, 0)),
        ("abc", (1, 0, 0)),
        # float() reads a memoryview of digits as text too
        pytest.param((1, 0, 0), (memoryview(b"1"), 1, 0), id="digit-memoryview-component"),
        pytest.param(memoryview(b"123"), (0, 1, 0), id="bytes-memoryview-endpoint"),
    ],
)
def test_malformed_endpoints_rejected(tail, head):
    with pytest.raises(DegenerateInput):
        Arc(tail, head)


def test_endpoint_with_an_overflowing_norm_defines_a_point():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arc = Arc((1e200, 0, 0), (0, 1, 0))
    assert tuple(arc.tail) == (1.0, 0.0, 0.0)
    assert tuple(arc.head) == (0.0, 1.0, 0.0)


def test_rotation_to_arc_examples():
    arc = rotation_to_arc(rotation((0, 0, 1), math.pi / 2))
    np.testing.assert_allclose(arc.tail, [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(arc.head, [SQ2, SQ2, 0], atol=1e-12)

    arc = rotation_to_arc(rotation((0, 0, 1), math.pi))
    np.testing.assert_allclose(arc.tail, [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(arc.head, [0, 1, 0], atol=1e-12)

    arc = rotation_to_arc(rotation((1, 0, 0), math.pi / 2))
    np.testing.assert_allclose(arc.tail, [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(arc.head, [0, SQ2, SQ2], atol=1e-12)


def test_round_trip_rotation_arc_rotation():
    rng = np.random.default_rng(50)
    for _ in range(300):
        r = random_rotation(rng)
        arc = rotation_to_arc(r)
        back = twice_angle_rotation(arc.tail, arc.head)
        assert quaternion_distance(
            rotation_to_quaternion(back), rotation_to_quaternion(r)
        ) <= 1e-9


def test_arc_lies_on_polar_circle():
    rng = np.random.default_rng(51)
    for _ in range(200):
        r = random_rotation(rng)
        if r.is_identity:
            continue
        arc = rotation_to_arc(r)
        assert abs(dot3(arc.tail, r.axis)) <= 1e-9
        assert abs(dot3(arc.head, r.axis)) <= 1e-9


def test_slide_examples():
    arc = Arc((1, 0, 0), (0, 1, 0))
    out = slide(arc, math.pi / 2)
    np.testing.assert_allclose(out.tail, [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(out.head, [-1, 0, 0], atol=1e-12)

    same = slide(arc, 0.0)
    np.testing.assert_allclose(same.tail, arc.tail, atol=1e-15)
    np.testing.assert_allclose(same.head, arc.head, atol=1e-15)


def test_slide_inverse_restores():
    rng = np.random.default_rng(52)
    for _ in range(200):
        arc = random_arc(rng)
        if arc.is_identity:
            continue
        d = rng.uniform(-math.pi, math.pi)
        back = slide(slide(arc, d), -d)
        np.testing.assert_allclose(back.tail, arc.tail, atol=1e-12)
        np.testing.assert_allclose(back.head, arc.head, atol=1e-12)


def test_slide_keeps_rotation():
    rng = np.random.default_rng(53)
    for _ in range(300):
        arc = random_arc(rng)
        if arc.is_identity:
            continue
        d = rng.uniform(-2 * math.pi, 2 * math.pi)
        assert quaternion_distance(arc_quaternion(slide(arc, d)), arc_quaternion(arc)) <= 1e-9


def test_slide_and_rotation_to_arc_turn_about_the_axis():
    rng = np.random.default_rng(4)
    for _ in range(200):
        axis = canonical_unit_n(components_n(rng.standard_normal(3)))
        r = rotation(axis, rng.uniform(-math.pi, math.pi))
        arc = rotation_to_arc(r)
        assert np.linalg.norm(arc.head) == pytest.approx(1.0, abs=1e-12)
        assert dot3(cross3(arc.tail, arc.head), r.axis) == pytest.approx(
            math.sin(r.angle / 2.0), abs=1e-12
        )

        delta = rng.uniform(-math.pi, math.pi)
        out = slide(arc, delta)
        axis = arc.circle_axis()
        for before, after in ((arc.tail, out.tail), (arc.head, out.head)):
            assert np.linalg.norm(after) == pytest.approx(1.0, abs=1e-12)
            assert dot3(cross3(before, after), axis) == pytest.approx(math.sin(delta), abs=1e-12)
            assert dot3(before, after) == pytest.approx(math.cos(delta), abs=1e-12)


def test_antipode_head_keeps_rotation():
    # from the tail to the head's antipode is pi - t about the opposite
    # axis: the turn by 2 pi - 2t the other way, the same rotation
    rng = np.random.default_rng(54)
    for _ in range(300):
        arc = random_arc(rng)
        if arc.is_identity:
            continue
        antipode = tuple(-x for x in arc.head)
        q = rotation_to_quaternion(twice_angle_rotation(arc.tail, antipode))
        assert quaternion_distance(q, arc_quaternion(arc)) <= 1e-9


def test_triangle_identity_neutral():
    rng = np.random.default_rng(55)
    e = identity_arc()
    v = random_arc(rng)
    assert triangle_compose(e, v) is v
    assert triangle_compose(v, e) is v


def test_triangle_same_circle_angles_add():
    u = Arc((1, 0, 0), (SQ2, SQ2, 0))
    v = slide(u, 1.0)  # same quarter-turn, elsewhere on the equator
    w = triangle_compose(u, v)
    assert_same_rotation(w, (0, 0, 1), math.pi)


def test_triangle_worked_example():
    u = rotation_to_arc(rotation((0, 0, 1), math.pi / 2))
    v = rotation_to_arc(rotation((1, 0, 0), math.pi / 2))
    w = triangle_compose(u, v)
    qv_qu = rotation_to_quaternion(rotation((1, 0, 0), math.pi / 2)) * rotation_to_quaternion(
        rotation((0, 0, 1), math.pi / 2)
    )
    np.testing.assert_allclose(
        [qv_qu.w, qv_qu.x, qv_qu.y, qv_qu.z], [0.5, 0.5, -0.5, 0.5], atol=1e-12
    )
    assert_same_rotation(w, (1, -1, 1), 2 * math.pi / 3)


def test_triangle_matches_quaternion_oracle():
    rng = np.random.default_rng(56)
    for _ in range(1000):
        u, v = random_arc(rng), random_arc(rng)
        w = triangle_compose(u, v)
        assert quaternion_distance(arc_quaternion(w), arc_quaternion(v) * arc_quaternion(u)) <= 1e-9


def test_triangle_same_and_opposite_axis():
    rng = np.random.default_rng(57)
    for _ in range(300):
        axis = vector(random_axis(rng))
        u = random_arc_on_axis(rng, axis)
        v = random_arc_on_axis(rng, axis * float(rng.choice([-1.0, 1.0])))
        w = triangle_compose(u, v)
        assert quaternion_distance(arc_quaternion(w), arc_quaternion(v) * arc_quaternion(u)) <= 1e-9


def test_triangle_full_turn_collapses_to_identity():
    u = Arc((1, 0, 0), (0, 1, 0))  # half turn about z
    v = slide(u, 0.7)              # another half turn about z
    w = triangle_compose(u, v)
    assert w.is_identity


def test_svg_output_is_well_formed():
    rng = np.random.default_rng(58)
    arcs = [random_arc(rng) for _ in range(3)] + [identity_arc()]
    svg = arcs_to_svg(arcs)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "1.1" in svg


def test_svg_output_matches_golden():
    arcs = [
        rotation_to_arc(rotation((0.0, 0.0, 1.0), math.pi / 2)),  # quarter turn
        rotation_to_arc(rotation((1.0, 2.0, 2.0), math.pi - 1e-3)),  # near half-turn
        slide(Arc((0.6, 0.0, 0.8), (0.0, 0.6, 0.8)), 0.7),
        Arc((1.0, 0.0, 0.0), (-0.99, 0.1, 0.05)),  # nearly antipodal endpoints
        identity_arc(),
    ]
    assert arcs_to_svg(arcs) == (GOLDEN / "arcs_svg.txt").read_text()
