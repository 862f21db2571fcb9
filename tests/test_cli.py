import ast
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorwords
from mirrorwords import cli, orthon, plane, sampling, so3, sphere
from mirrorwords.cli import (
    DimensionMismatch,
    ExpressionSyntaxError,
    Expression,
    parse_expression,
    pretty,
)
from mirrorwords.moves import Move
from mirrorwords.numerics import DegenerateInput, GeometryError

# the benchmark's traced run, whose wrappers look names up on each geometry
# module, and its independent checker, which reads the mirrors' coordinates
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402
import tracing  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def run_python(*args):
    # the child process imports the same mirrorwords as this one, also when
    # only pytest's `pythonpath` setting put it on sys.path
    src = str(Path(mirrorwords.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    return run_python("-m", "mirrorwords", *args)


def test_import_leaves_out_scipy_and_exports_every_name():
    # the package needs numpy only: importing it, and the O(n) paths that
    # once imported scipy for a Schur form, leave scipy unloaded. This runs
    # in a child process, where conftest.py does not block scipy.
    code = (
        "import sys, mirrorwords, mirrorwords.cli\n"
        "import numpy as np\n"
        "from mirrorwords import orthon, sampling\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "missing = [n for n in mirrorwords.__all__ if not hasattr(mirrorwords, n)]\n"
        "assert not missing, missing\n"
        "word = sampling.random_word(np.random.default_rng(0), 'on', 5, dim=5)\n"
        "assert orthon.classification_json(word, 5)['kind'] == 'orthogonal'\n"
        "assert len(orthon.decompose(orthon.word_to_matrix(word, 5))) <= 5\n"
        "e = 'ON: refl(hyper(1,0,0)) * refl(hyper(1,1,0)) * refl(hyper(0,1,1)) * refl(hyper(1,2,3))'\n"
        "assert mirrorwords.cli.main(['classify', e]) == 0\n"
        "assert mirrorwords.cli.main(['reduce', e]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert "orthogonal, det" in result.stdout


# ---------------------------------------------------------------- parser


def test_parse_two_mirror_expression():
    expr = parse_expression("E2: refl(line(1,0,2)) * refl(line(1,0,0))")
    assert expr.group == "e2"
    assert len(expr.word) == 2
    # rightmost term acts first: x = 0 before x = 2
    assert expr.word[0] == plane.Line((1, 0), 0)
    assert expr.word[1] == plane.Line((1, 0), 2)


def test_parse_single_axis():
    expr = parse_expression("SO3: refl(axis(0,0,1))")
    assert expr.group == "so3"
    assert expr.word == [so3.Axis((0, 0, 1))]


def test_parse_rejects_zero_normal():
    with pytest.raises(DegenerateInput):
        parse_expression("E2: refl(line(0,0,0))")


@pytest.mark.parametrize(
    "text, message",
    [
        ("E2: refl(line(0,0,1))", "zero normal cannot define a line: (0.0, 0.0)"),
        ("E2: refl(line(1,0,1e400))", "line needs a finite normal and offset: (1.0, 0.0), inf"),
    ],
)
def test_parse_of_a_line_that_fails_to_build_names_its_normal_as_a_tuple(text, message):
    # the fast reading raises the build error itself, as the walk would
    for parse in (parse_expression, cli._parse_terms, cli._parse_tokens):
        with pytest.raises(DegenerateInput) as err:
            parse(text, None)
        assert str(err.value) == message


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("E2: refl[line(1,0,0)]")
    assert err.value.position == 8


def test_parse_rejects_wrong_mirror_kind():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("E2: refl(axis(0,0,1))")


def test_parse_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        parse_expression("ON: refl(hyper(1,0,0)) * refl(hyper(1,0))")
    with pytest.raises(DimensionMismatch):
        parse_expression("ON(4): refl(hyper(1,0,0))")
    with pytest.raises(DimensionMismatch):
        parse_expression("ON: id")
    with pytest.raises(DimensionMismatch):
        pretty(Expression("on", []))


COMPONENT_COUNT_CASES = [
    ("E2: refl(line(1,2))", 9),
    ("S2: refl(circle(1,2,3,4))", 9),
    ("SO3: refl(axis(1))", 10),
    ("ON: refl(hyper(1))", 9),
]


@pytest.mark.parametrize("text, position", COMPONENT_COUNT_CASES)
def test_parse_rejects_wrong_component_count(text, position):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text)
    assert err.value.position == position


ERROR_CASES = [
    # an unexpected character anywhere beats the earlier missing ':' at 3
    ("E2 refl(line(1,0,0)) $", ExpressionSyntaxError, 21),
    ("E2 refl(line(1,0,0))", ExpressionSyntaxError, 3),
    ("E2: refl(line(1,,0))", ExpressionSyntaxError, 16),
    ("S2: refl(line(1,0,0))", ExpressionSyntaxError, 9),
    ("E2: id *", ExpressionSyntaxError, 7),
    ("E2: refl(line(1,0,0)) *", ExpressionSyntaxError, 23),
    ("", ExpressionSyntaxError, 0),
    ("ON(2.5): id", DimensionMismatch, None),
    ("ON(3): refl(hyper(1,0,0)) * refl(hyper(1,0))", DimensionMismatch, None),
    # digits are ASCII only: float() would read these as 1 and 3
    ("E2: refl(line(\u0661,0,0))", ExpressionSyntaxError, 14),
    ("ON(\u0663): id", ExpressionSyntaxError, 3),
    # "\u017f" (long s) is not "s", although it upper-cases to "S"
    ("SO3: refl(axi\u017f(0,0,1))", ExpressionSyntaxError, 13),
]


@pytest.mark.parametrize("text, error, position", ERROR_CASES)
def test_parse_error_type_and_position(text, error, position):
    with pytest.raises(error) as err:
        parse_expression(text)
    assert type(err.value) is error
    assert getattr(err.value, "position", None) == position


@st.composite
def _expression_tokens(draw):
    """The tokens of a valid expression of 0-3 terms, in mixed case."""
    group, keyword, arity = draw(
        st.sampled_from(
            [("E2", "line", 3), ("s2", "circle", 3), ("So3", "AXIS", 3), ("ON", "hyper", 2), ("ON ( 3 )", "hyper", 3)]
        )
    )
    number = st.sampled_from(["0", "1", "-2.5", ".5e-3", "1e400"])
    terms = draw(st.lists(st.lists(number, min_size=arity, max_size=arity), max_size=3))
    # the numbers with commas between them, the terms with stars between them
    texts = [f"Refl ( {keyword} ( {' , '.join(values)} ) )" for values in terms]
    return f"{group} : {' * '.join(texts) or 'id'}".split()


def _parse_or_geometry_error(text):
    # the CLI turns a GeometryError into exit 2 with a JSON line; any other
    # exception would surface as a traceback
    try:
        assert isinstance(parse_expression(text, default_dim=3), Expression)
    except GeometryError:
        pass
    _assert_parses_as_the_walk(text, default_dim=3)


def _parse_outcome(parse, text, default_dim):
    """What parse makes of text: its expression with every float in hex, its error, or None."""
    try:
        expr = parse(text, default_dim)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    if expr is None:
        return None
    word = [(type(m), tuple(map(float.hex, m.values))) for m in expr.word]
    return expr.group, expr.dim, word


def _assert_parses_as_the_walk(text, default_dim=None):
    # the token walk reads every text, and is the reference of the fast reading
    expected = _parse_outcome(cli._parse_tokens, text, default_dim)
    assert _parse_outcome(parse_expression, text, default_dim) == expected
    # the fast reading gives the walk's expression or error, and hands the
    # walk only text that the walk rejects
    fast = _parse_outcome(cli._parse_terms, text, default_dim)
    if fast is None:
        assert not isinstance(expected[0], str)
    else:
        assert fast == expected


_EQUIVALENCE_TEXTS = [
    "E2: refl(line(1,0,2)) * refl(line(1,0,0))",
    "so3 : REFL ( Axis ( 0 , 0 , 1 ) )",
    "S2:refl(circle(1,0,0))*refl(circle(0,1,0))",
    "ON: refl(hyper(1,2)) * refl(hyper(3,-4))",
    "ON ( 3.0 ) : refl(hyper(+1, .5e-3, 2.)) * refl(hyper(1e2,0,0))",
    "ON(3): id",
    "ON: id",
    "ON(65): id",
    "E2: ID",
    "E2: id\n",
    "E2: idx",
    "E2: refl(line(1,0,0)) * ",
    "E2: refl(line(1e400,0,0))",
    "E2: refl(line(-0.0,1,-0.0))",
    "E2: refl(line(0,0,1)) * refl(line(1,2))",
    "S2: refl(circle(0,0,0)) $",
    "ON: refl(hyper(1,0,0)) * refl(hyper(0,0))",
    "ON: refl(hyper(" + ",".join(["1"] * 65) + "))",
    "ON(2): refl(hyper(1,1,1))",
    "E2(3): id",
    "E3: id",
    "E2: refl(line(1_0,0,0))",
    "E2: refl(line(1.5.5,0,0))",
    "E2: refl(line(1e,0,0))",
    "E2: reflx(line(1,0,0))",
    "E2: refl(line1(1,0,0))",
    "E2: refl(line(1,0,0)) refl(line(1,0,0))",
    "E2: refl(line(1,0,0))) ",
    "E2: refl(line(\uff11,0,0))",
]


@pytest.mark.parametrize(
    "text",
    [text for text, _ in COMPONENT_COUNT_CASES]
    + [text for text, _, _ in ERROR_CASES]
    + _EQUIVALENCE_TEXTS,
)
@pytest.mark.parametrize("default_dim", [None, 4])
def test_parse_agrees_with_the_token_walk(text, default_dim):
    _assert_parses_as_the_walk(text, default_dim)


# every character str.isspace() accepts, which \s matches and float() strips
_WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]


@pytest.mark.parametrize("space", _WHITESPACE, ids=[f"U+{ord(c):04X}" for c in _WHITESPACE])
def test_parse_agrees_with_the_token_walk_on_every_whitespace(space):
    words = ["ON", "(", "3", ")", ":", "refl", "(", "hyper", "(", "1", ",", "-2.5", ",", "3", ")", ")"]
    _assert_parses_as_the_walk(space.join(words))
    _assert_parses_as_the_walk(space + space.join(words) + space)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    _expression_tokens(),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(list("0159.eE+-_,*():$ aAxsS") + ["\u017f", "\u0661", "\u00a0", "\n"]),
)
def test_parse_agrees_with_the_token_walk_after_one_edit(tokens, where, how, char):
    # delete, replace or insert one character of a valid expression
    text = " ".join(tokens)
    where %= len(text) + 1
    cut = text[where + 1:] if how < 2 else text[where:]
    _assert_parses_as_the_walk(text[:where] + ("" if how == 0 else char) + cut)


@pytest.mark.parametrize(
    "text",
    [
        # a repeated group of \d+\.?\d* numbers backtracks exponentially here
        "ON: refl(hyper(" + ",".join(["123456789012"] * 12) + ")) $",
        "ON: refl(hyper(" + ",".join(["12345678901234567890"] * 64) + ")",
    ],
)
def test_parse_of_long_numbers_fails_fast(text):
    start = time.perf_counter()
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(text)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_expression_tokens())
def test_broken_expressions_raise_only_geometry_errors(tokens):
    # cut after every token, put a token of the grammar there, and keep or
    # drop the rest: this reaches the end of the text from every state
    for cut in range(len(tokens) + 1):
        for token in ["", "(", ")", ":", ",", "*", "id", "refl", "1", "65", "$"]:
            head = tokens[:cut] + [token]
            _parse_or_geometry_error(" ".join(head))
            _parse_or_geometry_error(" ".join(head + tokens[cut:]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.text())
def test_any_text_raises_only_geometry_errors(text):
    _parse_or_geometry_error(text)


def test_parse_empty_words():
    assert parse_expression("E2: id").word == []
    assert parse_expression("ON(3): id").dim == 3
    assert parse_expression("ON: id", default_dim=5).dim == 5


def test_parse_is_whitespace_insensitive():
    a = parse_expression("S2:refl(circle(1,0,0))*refl(circle(0,1,0))")
    b = parse_expression("  S2 :  refl( circle( 1 , 0 , 0 ) ) * refl(circle(0,1,0))")
    assert a.word == b.word


def _random_expression(rng):
    group = ["e2", "s2", "so3", "on"][int(rng.integers(0, 4))]
    dim = int(rng.integers(2, 9)) if group == "on" else None
    word = sampling.random_word(rng, group, int(rng.integers(0, 65)), dim=dim or 3)
    if group == "on" and word and rng.integers(0, 2):
        dim = None  # the dimension is then the mirrors'
    return Expression(group, word, dim)


def _assert_round_trip(expr):
    text = pretty(expr)
    again = parse_expression(text)
    assert pretty(again) == text
    assert again.group == expr.group
    assert cli.word_json(expr.group, expr.word, expr.dim).get("dimension") == again.dim
    assert len(again.word) == len(expr.word)
    for a, b in zip(again.word, expr.word):
        assert type(a) is type(b)
        assert list(map(float.hex, a.values)) == list(map(float.hex, b.values))


def test_pretty_parse_round_trip_is_fixed_point():
    rng = np.random.default_rng(70)
    for _ in range(200):
        _assert_round_trip(_random_expression(rng))


@pytest.mark.parametrize(
    "group, mirror",
    [
        ("e2", plane.Line((1, 0), 1e300)),
        ("e2", plane.Line((0.6, 0.8), -1e300)),
        ("e2", plane.Line((1, 0), 5e-324)),
        ("e2", plane.Line((-0.0, 1.0), -0.0)),
        ("e2", plane.Line((1, 1e-300), 2.0)),
        ("s2", sphere.GreatCircle((1, 1e-300, 0))),
        ("s2", sphere.GreatCircle((-0.0, -0.0, 1.0))),
        ("so3", so3.Axis((1, 5e-324, -1e-300))),
        ("so3", so3.Axis((-0.0, 2.0, -0.0))),
        ("on", orthon.Hyperplane([1e-300, 1, 0, 0])),
        ("on", orthon.Hyperplane([1, 2.5e-320, -0.0])),
        ("on", orthon.Hyperplane([-0.0, -3.0])),
    ],
)
def test_pretty_parse_round_trip_of_extreme_floats(group, mirror):
    _assert_round_trip(Expression(group, [mirror, mirror]))


# ---------------------------------------------------------------- goldens


@pytest.mark.parametrize(
    "name,args",
    [
        ("normalize_involution", ["normalize", "E2: refl(line(0,1,0)) * refl(line(0,1,0))", "--trace"]),
        ("normalize_involution_json", ["normalize", "E2: refl(line(0,1,0)) * refl(line(0,1,0))", "--json"]),
        ("classify_translation", ["classify", "E2: refl(line(1,0,1)) * refl(line(1,0,0))"]),
        ("classify_glide_json", ["classify", "E2: refl(line(1,0,3)) * refl(line(1,-1,0)) * refl(line(0,1,0))", "--json"]),
        ("verify_so3_seed42", ["verify", "--group", "so3", "--count", "1000", "--max-len", "7", "--seed", "42"]),
        ("verify_e2_json", ["verify", "--group", "e2", "--count", "200", "--max-len", "8", "--seed", "7", "--json"]),
        ("compose_parallel", ["compose", "E2: refl(line(1,0,1))", "E2: refl(line(1,0,0))"]),
        ("arc_half_turn", ["arc", "SO3: refl(axis(0,1,0)) * refl(axis(1,0,0))"]),
        ("reduce_on2", ["reduce", "ON: refl(hyper(0,1)) * refl(hyper(1,1)) * refl(hyper(1,0))"]),
        ("normalize_sphere_antipodal", ["normalize", "S2: refl(circle(1,0,0)) * refl(circle(0,1,0)) * refl(circle(0,0,1))", "--trace"]),
        ("verify_on5_json", ["verify", "--group", "on", "--dim", "5", "--json"]),
        ("verify_s2", ["verify", "--group", "s2"]),
        ("arc_so3_json", ["arc", "SO3: refl(axis(1,2,2)) * refl(axis(0,0,1))", "--json"]),
        ("classify_s2_rotation_json", ["classify", "S2: refl(circle(1,0,0)) * refl(circle(0,1,1))", "--json"]),
        (
            "classify_s2_reflection_json",
            ["classify", "S2: refl(circle(1,0,0)) * refl(circle(0,1,0)) * refl(circle(1,0,0))", "--json"],
        ),
        ("classify_e2_rotation_json", ["classify", "E2: refl(line(1,1,0)) * refl(line(1,0,2))", "--json"]),
    ],
)
def test_golden_outputs(name, args):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert result.stdout == expected


def test_verify_is_byte_reproducible():
    args = ["verify", "--group", "so3", "--count", "1000", "--max-len", "7", "--seed", "42"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    residual = float(first.stdout.splitlines()[1].split(":")[1])
    assert residual <= 1e-8


# ---------------------------------------------------------------- behavior


def test_exit_code_parse_error():
    result = run_cli("normalize", "E2: refl(line(1,0")
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["status"] == "error"
    assert err["error"] == "ExpressionSyntaxError"


def test_exit_code_verification_failure():
    result = run_cli(
        "normalize",
        "E2: refl(line(1,0,1)) * refl(line(0,1,3)) * refl(line(1,1,0)) * refl(line(1,2,1)) * refl(line(3,1,0))",
        "--tol", "1e-300", "--json",
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["status"] == "residual-exceeded"


def test_distinct_parallel_lines_far_from_the_origin_do_not_cancel():
    # 1e-3 apart at offset 1e6: an involution there would leave a translation of 2e-3
    result = run_cli(
        "normalize", "E2: refl(line(1,0,1000000)) * refl(line(1,0,1000000.001))", "--json"
    )
    assert result.returncode == 0, result.stdout
    payload = json.loads(result.stdout)
    assert len(payload["normalized"]["mirrors"]) == 2
    assert payload["classification"]["kind"] == "translation"
    assert payload["residual"] <= 1e-8


def test_lines_meeting_far_from_the_origin_at_a_tiny_angle_do_not_cancel():
    # a rotation by 1.8e-9 about (1e6, 0) moves the origin by 1.8e-3: the
    # lines' angle test scales with their distance, as the offset test does
    expression = "E2: refl(line(1,0,1000000)) * refl(line(1,0.0000000009,1000000))"
    result = run_cli("normalize", expression, "--json")
    assert result.returncode == 0, result.stdout
    payload = json.loads(result.stdout)
    assert len(payload["normalized"]["mirrors"]) == 2
    assert payload["residual"] == 0.0
    classified = run_cli("classify", expression)
    assert classified.returncode == 0, classified.stderr
    assert "classification: rotation about (1000000, 0) by -1.8e-09\n" in classified.stdout


def test_non_finite_mirror_is_a_usage_error():
    result = run_cli("normalize", "E2: refl(line(1e400,0,1)) * refl(line(1,0,0))", "--json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    err = json.loads(result.stderr)
    assert err["status"] == "error"
    assert err["error"] == "DegenerateInput"


@pytest.mark.parametrize(
    "expression, same_as",
    [
        ("ON: refl(hyper(1e200,1e200))", "ON: refl(hyper(1,1))"),
        ("S2: refl(circle(1e200,1e200,0))", "S2: refl(circle(1,1,0))"),
        ("SO3: refl(axis(1e200,1e200,0))", "SO3: refl(axis(1,1,0))"),
    ],
)
def test_finite_mirror_with_overflowing_norm_defines_a_direction(expression, same_as):
    result = run_cli("normalize", expression, "--json")
    assert result.returncode == 0
    assert result.stderr == ""
    assert parse_expression(expression).word == parse_expression(same_as).word


def test_infinite_component_is_still_rejected():
    result = run_cli("normalize", "ON: refl(hyper(1e400,1))")
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "DegenerateInput"


@pytest.mark.parametrize("expression", ["SO3: refl(axis(1e400,0,1))", "S2: refl(circle(1e400,0,1))"])
def test_infinite_3vector_component_is_rejected(expression):
    result = run_cli("normalize", expression)
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "DegenerateInput"


@pytest.mark.parametrize("dim", ["0", "1", "65"])
def test_verify_rejects_dimension_outside_bounds(dim, capsys):
    code = cli.main(["verify", "--group", "on", "--dim", dim, "--count", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert "--dim" in payload["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["normalize", "ON(65): id"],
        ["normalize", "ON(1): id"],
        ["normalize", "ON: id", "--dim", "65"],
        ["normalize", f"ON: refl(hyper({','.join(['1'] * (cli.MAX_DIMENSION + 1))}))"],
    ],
)
def test_on_dimension_outside_bounds_is_rejected(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_on_dimension_at_the_cap_is_accepted():
    assert cli.MAX_DIMENSION == 64
    expr = parse_expression(f"ON({cli.MAX_DIMENSION}): id")
    assert expr.dim == cli.MAX_DIMENSION


@pytest.mark.parametrize("option", ["--max-len", "--count", "--seed"])
def test_verify_rejects_negative_sizes(option, capsys):
    code = cli.main(["verify", "--group", "e2", option, "-1", "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert option in payload["message"]


@pytest.mark.parametrize("max_len", [str(cli.MAX_WORD_LENGTH + 1), "99999999999999999999"])
def test_verify_rejects_a_max_len_past_the_cap_before_drawing(max_len, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("nothing may be drawn for a rejected --max-len")

    monkeypatch.setattr(cli.np.random, "default_rng", no_draw)
    monkeypatch.setattr(cli.sampling, "random_word", no_draw)
    code = cli.main(["verify", "--group", "on", "--dim", "64", "--count", "1", "--max-len", max_len, "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert "--max-len" in payload["message"]


def test_verify_accepts_max_len_at_the_cap(capsys):
    assert cli.MAX_WORD_LENGTH == 1 << 16
    code = cli.main(["verify", "--group", "e2", "--count", "0", "--max-len", str(cli.MAX_WORD_LENGTH), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["max_len"] == cli.MAX_WORD_LENGTH


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["normalize", "E2: refl(line(0,1,0))"],
        ["compose", "E2: refl(line(1,0,1))", "E2: refl(line(1,0,0))"],
        ["reduce", "ON: refl(hyper(0,1)) * refl(hyper(1,1)) * refl(hyper(1,0))"],
        ["verify", "--group", "e2", "--count", "5"],
    ],
    ids=lambda c: c[0],
)
def test_tolerance_must_be_finite_and_non_negative(command, tol, capsys):
    # a NaN or negative --tol failed every word and an infinite one passed every word
    code = cli.main([*command, "--json", f"--tol={tol}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert "--tol" in payload["message"]
    assert cli.main([*command, "--tol", "0"]) in (0, 1)


@pytest.mark.parametrize(
    "command, option",
    [
        (["classify", "E2: refl(line(1,0,1)) * refl(line(1,0,0))"], ["--tol", "1e-3"]),
        (["classify", "E2: refl(line(1,0,1)) * refl(line(1,0,0))"], ["--trace"]),
        (["reduce", "ON: refl(hyper(0,1)) * refl(hyper(1,1)) * refl(hyper(1,0))"], ["--trace"]),
    ],
    ids=["option0", "option1", "reduce-trace"],
)
def test_classify_rejects_the_rewriting_options(command, option, capsys):
    # classify checks no residual and lists no steps, and reduce always
    # lists its steps: argparse refuses the options they would ignore
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, *option])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err
    assert cli.main(["classify", "ON: refl(hyper(1,0))", "--json", "--dim", "2"]) == 0


@pytest.mark.parametrize(
    "command, expected",
    [
        (
            ["normalize", "E2: refl(line(1,0,100000000)) * refl(line(1,0,100000000.2))"],
            "translation by (-0.40000000596, 0)",
        ),
        (["classify", "E2: refl(line(1,0,0)) * refl(line(0,1,0))"], "rotation about (0, 0) by"),
        (
            ["classify", "E2: refl(line(0,1,0.5)) * refl(line(0,1,0)) * refl(line(1,0,0))"],
            "glide along line(normal (1, 0), offset 0) by (0, 1)",
        ),
    ],
    ids=["translation", "rotation", "glide"],
)
def test_e2_classification_has_no_negative_zero(command, expected, capsys):
    # a zero component of a vector or centre once came out as -0.0, shown as -0
    assert cli.main(command) == 0
    text = capsys.readouterr().out
    assert expected in text
    assert "-0," not in text and "-0)" not in text
    assert cli.main([*command, "--json"]) == 0
    c = json.loads(capsys.readouterr().out)["classification"]
    values = c.get("vector", c.get("center"))
    assert 0.0 in values
    assert all(math.copysign(1.0, x) == 1.0 for x in values if x == 0.0)


def test_verify_counts_nan_residual_as_violation(monkeypatch, capsys):
    calls = []

    def residual(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else 0.0

    monkeypatch.setattr(cli, "residual", residual)
    code = cli.main(["verify", "--group", "e2", "--count", "3", "--seed", "1", "--json"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert "NaN" not in out
    payload = json.loads(out)
    assert payload["violations"] == 1
    assert payload["status"] == "failed"
    assert payload["max_residual"] is None


def test_degenerate_steering_exits_2_with_a_json_error(capsys):
    # two clusters of three O(3) normals, each jittered by about 1e-9
    text = (
        "ON: refl(hyper(0.4405892751591639,-0.45276409187309086,0.7751682189854393))"
        " * refl(hyper(0.4405892767117977,-0.4527640938368297,0.7751682169559648))"
        " * refl(hyper(0.4405892731312615,-0.45276409635522424,0.7751682175201096))"
        " * refl(hyper(0.9711763196164271,-0.1713357683591672,0.16571243374311176))"
        " * refl(hyper(0.9711763203942653,-0.17133576630504838,0.16571243130832833))"
        " * refl(hyper(0.9711763199650971,-0.17133576670383258,0.16571243341119934))"
    )
    with pytest.raises(mirrorwords.DegenerateSteering):
        orthon.normalize_word(parse_expression(text).word)
    code = cli.main(["normalize", text])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DegenerateSteering"


def _compared_strings(func: ast.FunctionDef) -> set:
    found = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                seq = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                items = operand.elts if seq else [operand]
                found.update(x.value for x in items if isinstance(x, ast.Constant))
    return found


def test_cli_looks_groups_up_in_the_geometry_table():
    """Only O(n)-specific code in cli tests a group tag; the rest goes through GEOMETRIES."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            tags = _compared_strings(func) & {"e2", "s2", "so3"}
            allowed = {"so3"} if func.name == "_cmd_arc" else set()
            assert tags <= allowed, f"{func.name} compares with {sorted(tags - allowed)}"


# what the command line needs of each geometry module
GEOMETRY_RECORD = (
    "KEYWORD",
    "ARITY",
    "mirror_from_floats",
    "mirror_json",
    "normalize_word",
    "word_oracle",
    "prefix_oracles",
    "oracle_distance",
    "classification_json",
)


@pytest.mark.parametrize("group", cli.GROUPS)
def test_every_geometry_exports_its_record_and_the_traced_names(group):
    geometry = cli.GEOMETRIES[group]
    assert [name for name in GEOMETRY_RECORD if not hasattr(geometry, name)] == []
    # the traced run wraps `coincident` and `apply_move` on every geometry
    # module, as well as its layers (the rewrite, replay_moves, the oracle
    # gather); a module without one of them stops the traced run
    assert geometry in tracing.GEOMETRY
    traced = {"coincident", "apply_move"}
    traced.update(attr for module, attr, *_ in tracing.SPAN_LAYERS if module is geometry)
    assert {"normalize_word", "replay_moves"} < traced
    assert sorted(name for name in traced if not hasattr(geometry, name)) == []
    # one way to build a mirror
    assert not hasattr(geometry, "mirror_from_values")


@pytest.mark.parametrize("group, dim", [("e2", None), ("s2", None), ("so3", None), ("on", 4)])
def test_the_benchmark_checker_reads_the_mirrors(group, dim):
    # it reads a line's nx, ny and offset and a vector mirror's `pole`,
    # `direction` or `normal`, each the tuple `values`
    geometry = cli.GEOMETRIES[group]
    word = sampling.random_word(np.random.default_rng(96), group, 7, dim=dim or 3)
    out = geometry.normalize_word(word, dim=dim)
    res = cli.residual(group, word, out, dim)
    assert checker.check_normal_form(group, dim or 3, word, out, res) == []
    assert checker.check_normal_form(group, dim or 3, word, out[1:], res) != []


def test_arc_rejects_other_groups():
    result = run_cli("arc", "E2: refl(line(1,0,0))")
    assert result.returncode == 2


def test_reduce_rejects_wrong_length():
    result = run_cli("reduce", "ON: refl(hyper(1,0)) * refl(hyper(0,1))")
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"] == "WrongLength"


@pytest.mark.parametrize("args", [["ON(2): id"], ["ON: id", "--dim", "2"]])
def test_reduce_of_an_empty_word_uses_the_given_dimension(args, capsys):
    assert cli.main(["reduce", *args]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "WrongLength"
    assert err["message"] == "need exactly 3 mirrors in dimension 2, got 0"


def test_reduce_cancels_nested_pairs_to_the_identity(capsys):
    text = "ON(3): refl(hyper(1,2,3)) * refl(hyper(0,1,-1)) * refl(hyper(0,1,-1)) * refl(hyper(1,2,3))"
    assert cli.main(["reduce", text]) == 0
    out = capsys.readouterr().out
    assert "reduced:  ON(3): id\n" in out
    assert "length:   4 -> 0\n" in out
    assert out.endswith("  involution(1)\n  involution(0)\n")


def test_arc_svg_output(tmp_path):
    path = tmp_path / "arc.svg"
    result = run_cli("arc", "SO3: refl(axis(0,1,0)) * refl(axis(1,0,0))", "--svg", str(path))
    assert result.returncode == 0
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_arc_svg_to_an_unwritable_path_exits_2_with_a_json_error(tmp_path, where):
    path = tmp_path / "no" / "arc.svg" if where == "missing" else tmp_path
    result = run_cli("arc", "SO3: refl(axis(1,0,0)) * refl(axis(0,1,0))", "--svg", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert err["status"] == "error"
    assert err["error"] == "UsageError"
    assert err["message"].startswith(f"--svg cannot write {path}: ")


def test_compose_mixed_groups_rejected():
    result = run_cli("compose", "E2: refl(line(1,0,0))", "S2: refl(circle(1,0,0))")
    assert result.returncode == 2


def test_compose_applies_right_first():
    # rotation by +90 about origin composed with itself: half turn
    result = run_cli(
        "compose",
        "E2: refl(line(1,-1,0)) * refl(line(0,1,0))",
        "E2: refl(line(1,-1,0)) * refl(line(0,1,0))",
        "--json",
    )
    payload = json.loads(result.stdout)
    assert payload["classification"]["kind"] == "rotation"
    assert payload["classification"]["angle"] == pytest.approx(math.pi, abs=1e-9)


# --------------------------------------------------- trace as an interface


def _mirror_from_json(group, payload, dim=None):
    if group == "e2":
        return plane.Line(payload["normal"], payload["offset"])
    if group == "s2":
        return sphere.GreatCircle(payload["pole"])
    if group == "so3":
        return so3.Axis(payload["direction"])
    return orthon.Hyperplane(payload["normal"])


@pytest.mark.parametrize(
    "expression,group,replayer",
    [
        (
            "E2: refl(line(1,1,2)) * refl(line(0,1,3)) * refl(line(1,3,1)) * refl(line(1,0,1)) * refl(line(2,1,0))",
            "e2",
            plane.replay_moves,
        ),
        (
            "SO3: refl(axis(1,1,2)) * refl(axis(0,1,3)) * refl(axis(1,3,1)) * refl(axis(1,0,1))",
            "so3",
            so3.replay_moves,
        ),
        (
            "S2: refl(circle(1,1,2)) * refl(circle(0,1,3)) * refl(circle(1,3,1)) * refl(circle(1,0,1)) * refl(circle(2,1,1))",
            "s2",
            sphere.replay_moves,
        ),
        (
            "ON: refl(hyper(1,1,2,0)) * refl(hyper(0,1,3,1)) * refl(hyper(1,3,1,1)) * refl(hyper(1,0,1,2)) * refl(hyper(2,1,1,0)) * refl(hyper(1,2,0,1))",
            "on",
            orthon.replay_moves,
        ),
    ],
)
def test_json_trace_replays_to_normal_form(expression, group, replayer):
    result = run_cli("normalize", expression, "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    expr = parse_expression(expression)
    moves = [
        Move(m["move"], m["index"], tuple(_mirror_from_json(group, p) for p in m["mirrors"]))
        for m in payload["trace"]
    ]
    final = replayer(expr.word, moves)[-1]
    reported = [
        _mirror_from_json(group, p) for p in payload["normalized"]["mirrors"]
    ]
    assert len(final) == len(reported)
    for a, b in zip(final, reported):
        assert a == b


GROUP_DIMS = [("e2", None), ("s2", None), ("so3", None), ("on", 3), ("on", 5)]


def _oracle_distance(group, a, b, dim=None):
    geometry = cli.GEOMETRIES[group]
    return geometry.oracle_distance(geometry.word_oracle(a, dim), geometry.word_oracle(b, dim))


@pytest.mark.parametrize("group, dim", GROUP_DIMS)
def test_residual_against_one_input_is_the_oracle_distance_bit_for_bit(group, dim):
    # words that share no last mirror with the input: nothing is cancelled
    rng = np.random.default_rng(91)
    word = sampling.random_word(rng, group, 12, dim=dim or 3)
    outs = [sampling.random_word(rng, group, k, dim=dim or 3) for k in range(6)]
    for out in outs + [word[:7], word[:1], []]:
        assert cli.residual(group, word, out, dim) == _oracle_distance(group, word, out, dim)
    # the input itself cancels whole: no rounding is left to measure
    assert cli.residual(group, word, list(word), dim) == 0.0


@pytest.mark.parametrize("group, dim", GROUP_DIMS)
def test_residual_sees_an_input_list_mutated_in_place(group, dim):
    rng = np.random.default_rng(92)
    word = sampling.random_word(rng, group, 6, dim=dim or 3)
    out = sampling.random_word(rng, group, 2, dim=dim or 3)
    before = cli.residual(group, word, out, dim)
    word[2] = sampling.random_word(rng, group, 1, dim=dim or 3)[0]
    after = cli.residual(group, word, out, dim)
    assert after == _oracle_distance(group, word, out, dim)
    assert after != before
    del word[3:]
    assert cli.residual(group, word, out, dim) == _oracle_distance(group, word, out, dim)


# the oracle gather of each group, which perfbench's traced run counts
ORACLE_GATHERS = {
    "e2": "word_to_isometry",
    "s2": "word_to_matrix",
    "so3": "word_to_quaternion",
    "on": "word_to_matrix",
}


def _count_oracle_calls(monkeypatch, group):
    geometry = cli.GEOMETRIES[group]
    calls = []
    oracle = getattr(geometry, ORACLE_GATHERS[group])

    def counted(*args):
        calls.append(len(args[0]))
        return oracle(*args)

    monkeypatch.setattr(geometry, ORACLE_GATHERS[group], counted)
    # forget the input a previous residual() remembered
    monkeypatch.setattr(cli, "_input_memo", (None, None, False))
    return calls


@pytest.mark.parametrize("group, dim", GROUP_DIMS)
def test_residual_of_an_unchanged_word_is_zero_and_takes_no_oracle(group, dim, monkeypatch):
    rng = np.random.default_rng(94)
    for length in (0, 1, 3, 8):
        word = sampling.random_word(rng, group, length, dim=dim or 3)
        rebuilt = [cli.GEOMETRIES[group].mirror_from_floats(list(m.values)) for m in word]
        # a copy, as a rewrite that changes nothing returns it, and equal mirrors
        for out in (list(word), rebuilt):
            assert out == word
            calls = _count_oracle_calls(monkeypatch, group)
            assert cli.residual(group, word, out, dim) == 0.0
            assert calls == []
            monkeypatch.undo()


@pytest.mark.parametrize("group, dim", GROUP_DIMS)
def test_residual_of_a_changed_word_takes_two_oracles(group, dim, monkeypatch):
    # the input's, once for all the words checked against it, and its head's
    rng = np.random.default_rng(95)
    word = sampling.random_word(rng, group, 5, dim=dim or 3)
    other = sampling.random_word(rng, group, 2, dim=dim or 3)
    # (output, the oracles of its head: what is left of it without the
    # suffix it shares with word; a head cancelled whole takes none)
    outs = [
        (word[:4] + other[:1], [5]),
        (word[:3], [3]),
        (other[:1] + word[2:], [1]),
        (other + word[1:], [2]),
        (word[1:], []),
    ]
    expected = [_oracle_distance(group, word, out, dim) for out, _ in outs]
    calls = _count_oracle_calls(monkeypatch, group)
    for n, (out, head) in enumerate(outs):
        assert abs(cli.residual(group, word, out, dim) - expected[n]) <= 1e-12
        # the first call takes the input's oracle, whole, as no suffix is shared;
        # from the second on, the input's prefixes come from its table
        assert calls == ([5] if n == 0 else []) + head
        calls.clear()


def test_residual_of_empty_inputs_tells_groups_and_dimensions_apart():
    # one empty input after another: only the group and dim tell them apart
    rng = np.random.default_rng(93)
    for group, dim in GROUP_DIMS:
        out = sampling.random_word(rng, group, 3, dim=dim or 3)
        assert cli.residual(group, [], out, dim) == _oracle_distance(group, [], out, dim)


def test_residual_of_an_input_whose_oracle_raises_is_not_remembered():
    good = [orthon.Hyperplane((1, 0, 0))]
    out = [orthon.Hyperplane((0, 1, 0))]
    expected = _oracle_distance("on", good, out, 3)
    assert cli.residual("on", good, out, 3) == expected
    bad = [orthon.Hyperplane((1, 0, 0)), orthon.Hyperplane((1, 0))]
    for _ in range(2):
        with pytest.raises(mirrorwords.WrongLength):
            cli.residual("on", bad, out, 3)
    assert cli.residual("on", good, out, 3) == expected


@pytest.mark.parametrize(
    "group, module, attr, dim",
    [
        ("e2", plane, "word_to_isometry", None),
        ("s2", sphere, "word_to_matrix", None),
        ("so3", so3, "word_to_quaternion", None),
        ("on", orthon, "word_to_matrix", 4),
    ],
)
def test_residual_reaches_the_oracle_through_its_module_attribute(monkeypatch, group, module, attr, dim):
    # perfbench's traced run counts oracle calls by wrapping these attributes
    calls = []
    original = getattr(module, attr)

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(module, attr, counted)
    rng = np.random.default_rng(94)
    word = sampling.random_word(rng, group, 10, dim=dim or 3)
    k = 5
    for length in range(k):
        cli.residual(group, word, word[:length], dim)
    # k + 1 calls: the input's oracle once, then each output's
    assert calls == [10] + list(range(k))
