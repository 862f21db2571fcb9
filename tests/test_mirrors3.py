"""Mirrors stored as plain floats: so3.Axis, sphere.GreatCircle, orthon.Hyperplane.

All three are numerics.Direction: each stores its canonical unit vector as
the float tuple `values`, its one view (`direction`, `pole` and `normal`
return the same tuple, for the benchmark's checker), and computes the
rewrite on floats. numerics and plane import no numpy at all.
"""

import ast
import math
from array import array
from pathlib import Path

import numpy as np
import pytest

from mirrorwords import arrowarc, kernels, numerics, orthon, plane, sampling, so3, sphere
from mirrorwords.numerics import DegenerateInput

# each case is named by its class and its vector's mirror_json key
MIRRORS3 = [
    pytest.param(so3.Axis, id="Axis-direction"),
    pytest.param(sphere.GreatCircle, id="GreatCircle-pole"),
]
# a hyperplane of 3-space takes the same inputs as the 3-vector mirrors
MIRRORS = MIRRORS3 + [pytest.param(orthon.Hyperplane, id="Hyperplane-normal")]


@pytest.mark.parametrize("cls", MIRRORS)
def test_equality_and_hash_by_value(cls):
    rng = np.random.default_rng(70)
    for _ in range(100):
        v = rng.standard_normal(3)
        a, b = cls(v), cls(list(v))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert cls(-v) == a and hash(cls(-v)) == hash(a)
        assert cls(a.values) == a
    assert len({cls((1, 0, 0)), cls((-2, 0, 0)), cls((0, 1, 0))}) == 2
    assert cls((1, 0, 0)) != cls((0, 1, 0))


def test_an_axis_is_never_a_great_circle():
    assert so3.Axis((1, 0, 0)) != sphere.GreatCircle((1, 0, 0))
    assert sphere.GreatCircle((1, 0, 0)) != so3.Axis((1, 0, 0))


@pytest.mark.parametrize("cls", MIRRORS3)
@pytest.mark.parametrize(
    "v",
    [
        [1.0, 2.0],
        [1, 2, 3, 4],
        [],
        5.0,
        np.ones(4),
        np.ones((3, 3)),
        pytest.param("123", id="digit-str"),
        pytest.param(b"123", id="digit-bytes"),
        # float() reads a digit string as a number
        pytest.param(("1", "0", "0"), id="digit-str-components"),
        pytest.param(["1", 0, 0], id="digit-str-component"),
        pytest.param((b"1", 0, 0), id="digit-bytes-component"),
        pytest.param((0, bytearray(b"1"), 0), id="digit-bytearray-component"),
        pytest.param(np.array(["1", "0", "0"]), id="digit-str-array"),
        # unpacking bytes gives ints, which are no components either
        pytest.param(bytearray(b"123"), id="digit-bytearray"),
        pytest.param((10**400, 0, 0), id="huge-int"),
        pytest.param((10**5000, 0, 0), id="int-past-repr-digit-limit"),
        pytest.param((10**5000, 0), id="wrong-length-int-past-repr-digit-limit"),
        # float() reads a memoryview of digits as text too
        pytest.param((memoryview(b"1"), 0, 0), id="digit-memoryview-component"),
        # a whole view of bytes would give the ints of the characters
        pytest.param(memoryview(b"123"), id="bytes-memoryview"),
        pytest.param(memoryview(bytearray(b"123")), id="bytearray-memoryview"),
    ],
)
def test_wrong_number_of_components_is_rejected(cls, v):
    with pytest.raises(DegenerateInput):
        cls(v)


@pytest.mark.parametrize("cls", MIRRORS)
def test_vector_rules_of_canonical_unit_hold(cls):
    m = cls((0, -3, 4))
    assert m.values == (0.0, 0.6, -0.8)
    assert all(type(x) is float for x in m.values)
    assert math.copysign(1.0, m.values[0]) == 1.0  # +0.0, not -0.0
    with pytest.raises(DegenerateInput):
        cls((0.0, 0.0, 0.0))
    with pytest.raises(DegenerateInput):
        cls((float("nan"), 0.0, 1.0))
    with pytest.raises(DegenerateInput):
        cls((1e400, 0.0, 1.0))
    np.testing.assert_allclose(cls((1e200, 1e200, 0)).values, cls((1, 1, 0)).values, atol=1e-15)


def test_a_whole_memoryview_of_floats_builds_its_mirror():
    # a memoryview component is refused, a whole one is read as an array,
    # unless it views bytes
    assert orthon.Hyperplane(memoryview(np.array([1.0, 2.0]))) == orthon.Hyperplane((1.0, 2.0))
    assert so3.Axis(memoryview(np.array([1.0, 2.0, 2.0]))) == so3.Axis((1.0, 2.0, 2.0))
    uint8 = memoryview(np.array([1, 2, 2], dtype=np.uint8))
    assert sphere.GreatCircle(uint8) == sphere.GreatCircle((1.0, 2.0, 2.0))
    assert orthon.Hyperplane(memoryview(array("d", [3.0, 4.0]))) == orthon.Hyperplane((3.0, 4.0))


def test_wrong_length_input_fails_before_the_rewrite():
    # a two-component axis used to surface as a bare IndexError in cross3
    with pytest.raises(DegenerateInput):
        so3.normalize_word([so3.Axis([1.0, 0.0, 0.0]), so3.Axis([1.0, 2.0])])


def test_repr_names_the_floats():
    assert repr(so3.Axis((0, 0, -2))) == "Axis([0.0, 0.0, 1.0])"
    assert repr(sphere.GreatCircle((3, 4, 0))) == "GreatCircle([0.6, 0.8, 0.0])"
    assert repr(orthon.Hyperplane((0, 0, 0, -2))) == "Hyperplane([0.0, 0.0, 0.0, 1.0])"


def test_oracle_gathers_read_the_floats():
    rng = np.random.default_rng(71)
    word = sampling.random_word(rng, "on", 5, dim=4)
    np.testing.assert_array_equal(
        orthon.word_to_matrix(word), kernels.householder_word_matrix(np.array([h.values for h in word]))
    )
    circles = sampling.random_word(rng, "s2", 5)
    expected = np.eye(3)
    for c in circles:
        expected = (np.eye(3) - 2.0 * np.outer(c.values, c.values)) @ expected
    np.testing.assert_allclose(sphere.word_to_matrix(circles), expected, rtol=0, atol=1e-14)


# Functions of the E2, S2, SO(3) and O(n) rewrite paths, and of the
# classifiers, 3-space rotations and arcs that read their results, which
# compute on plain floats. The one exception is the SVD that finds the O(n)
# head's linear dependency, once per reduction.
FLOAT_PATH = {
    orthon: [
        "coincident",
        "_steer_moves",
        "_pair_product_distance",
        "_off_plane_residual",
        "validate_move",
    ],
    so3: [
        "rotation",
        "twice_angle_rotation",
        "quaternion_to_rotation",
        "word_to_rotation",
        "probe_perpendicular",
        "split_reflection",
        "pencil_turn",
        "_common_axis",
        "_check_concurrent",
        "reduce_leading_four",
        "_reduce_leading_three",
    ],
    plane: [
        "Line.from_floats",
        "Line._canonical",
        "coincident",
        "_cross",
        "_meet",
        "pencil_completion",
        "verify_pencil_relation",
        "_join",
        "_reduce_leading_four",
        "compose_reflections",
        "classification_json",
    ],
    sphere: ["compose_reflections", "classification_json"],
    arrowarc: [
        "Arc.__init__",
        "Arc.circle_axis",
        "_unit_point",
        "rotation_to_arc",
        "slide",
        "antipode_head",
        "triangle_compose",
    ],
    numerics: [
        "Direction.__init__",
        "Direction.from_square",
        "Direction.__eq__",
        "Direction3.__init__",
        "Direction3.from_floats",
        "canonical_unit3",
        "cross3",
        "dot3",
        "norm3",
        "coincident3",
        "components_n",
        "dot_n",
        "unit_n",
        "unit_from_square",
        "canonical_sign_n",
        "canonical_unit_n",
    ],
}


def test_only_numerics_reads_numbers_from_outside():
    # components_n is the one reader: no other module screens text or
    # memoryview components itself, or defines a reader of its own
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names}
        readers = [
            node.name
            for node in nodes
            if isinstance(node, ast.FunctionDef) and node.name.startswith("components")
        ]
        if path.stem == "numerics":
            assert readers == ["components_n"]
            continue
        assert names.isdisjoint({"TEXT_TYPES", "memoryview"}), path.name
        assert readers == [], path.name


def _functions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _is_svd_call(node) -> bool:
    f = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(f, ast.Attribute)
        and f.attr == "svd"
        and isinstance(f.value, ast.Attribute)
        and f.value.attr == "linalg"
        and isinstance(f.value.value, ast.Name)
        and f.value.value.id == "np"
    )


@pytest.mark.parametrize("module", list(FLOAT_PATH), ids=lambda m: m.__name__)
def test_rewrite_path_makes_no_numpy_call(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    functions = dict(_functions(tree))
    for name in FLOAT_PATH[module]:
        assert name in functions, f"{module.__name__} defines no function {name}"
        body = list(ast.walk(functions[name]))
        svds = [node for node in body if _is_svd_call(node)]
        # the SVD call may gather its argument with numpy too
        allowed = {id(node) for call in svds for node in ast.walk(call)}
        uses = [
            node.lineno
            for node in body
            if id(node) not in allowed
            and isinstance(node, ast.Name)
            and node.id == "np"
        ]
        assert uses == [], f"{module.__name__}.{name} uses numpy on lines {uses}"
        expected = (module, name) == (orthon, "_steer_moves")
        assert len(svds) == expected, f"{name} makes {len(svds)} SVD calls"


def _numpy_imports(module) -> list:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return [name for name in imported if name and name.split(".")[0] == "numpy"]


def test_arrowarc_imports_no_numpy():
    assert _numpy_imports(arrowarc) == []


@pytest.mark.parametrize("module", [numerics, plane, so3], ids=lambda m: m.__name__)
def test_float_module_imports_no_numpy(module):
    assert _numpy_imports(module) == []


def test_rotation_axes_and_arc_points_are_float_tuples():
    r = so3.word_to_rotation([so3.Axis((1, 2, 2)), so3.Axis((0, 0, 1))])
    arc = arrowarc.rotation_to_arc(r)
    for v in (r.axis, so3.IDENTITY_ROTATION.axis, arc.tail, arc.head, arc.circle_axis()):
        assert type(v) is tuple and len(v) == 3
        assert all(type(x) is float for x in v)
