"""The shared rewrite loop: free reduction, trace indices and linear cost."""

import ast
import copy
import operator
import pickle
from pathlib import Path

import numpy as np
import pytest

import mirrorwords
from mirrorwords import moves, orthon, plane, sampling, so3, sphere
from mirrorwords.moves import INVOLUTION, PENCIL, POLAR_SPLIT, Move
from mirrorwords.numerics import GeometryError

PACKAGE = sorted(Path(mirrorwords.__file__).parent.glob("*.py"))

GEOMETRIES = {
    "e2": (plane, lambda w, trace: plane.normalize_word(w, trace), 2),
    "s2": (sphere, lambda w, trace: sphere.normalize_word(w, trace), 3),
    "so3": (so3, lambda w, trace: so3.normalize_word(w, trace), 3),
    "on3": (orthon, lambda w, trace: orthon.normalize_word(w, dim=3, trace=trace), 3),
}


@pytest.mark.parametrize(
    "word, move, expected",
    [
        ([1, 2, 3, 4], Move(INVOLUTION, -1), (IndexError, "involution index -1 out of range for length 4")),
        ([1, 2, 3, 4], Move(INVOLUTION, 3), (IndexError, "involution index 3 out of range for length 4")),
        ([1, 2, 3, 4], Move(PENCIL, -1, (5, 6)), (IndexError, "pencil index -1 out of range for length 4")),
        ([1, 2, 3, 4], Move(PENCIL, 3, (5, 6)), (IndexError, "pencil index 3 out of range for length 4")),
        (
            [1, 2, 3, 4],
            Move(POLAR_SPLIT, -1, (5, 6)),
            (IndexError, "polar_split index -1 out of range for length 4"),
        ),
        (
            [1, 2, 3, 4],
            Move(POLAR_SPLIT, 4, (5, 6)),
            (IndexError, "polar_split index 4 out of range for length 4"),
        ),
        ([1, 2, 3, 4], Move(INVOLUTION, 1), (ValueError, "involution at 1: mirrors do not coincide")),
        ([1, 2, 3, 4], Move(PENCIL, 1, (5,)), (ValueError, "pencil move must carry exactly two mirrors")),
        ([1, 2, 3, 4], Move(PENCIL, 1, (5, 6, 7)), (ValueError, "pencil move must carry exactly two mirrors")),
        (
            [1, 2, 3, 4],
            Move(POLAR_SPLIT, 1, (5,)),
            (ValueError, "polar_split move must carry exactly two mirrors"),
        ),
        (
            [1, 2, 3, 4],
            Move(POLAR_SPLIT, 1, (5, 6, 7)),
            (ValueError, "polar_split move must carry exactly two mirrors"),
        ),
        ([1, 2, 3, 4], Move("swap", 99), (ValueError, "unknown move kind 'swap'")),
        # an involution deletes its pair whatever mirrors it carries
        ([1, 2, 2, 3], Move(INVOLUTION, 1, (5, 6)), [1, 3]),
        ([1, 2, 3], Move(PENCIL, 1, (5, 6)), [1, 5, 6]),
        ([1, 2, 3], Move(POLAR_SPLIT, 2, (5, 6)), [1, 2, 5, 6]),
    ],
)
def test_apply_move_splices_or_names_the_broken_precondition(word, move, expected):
    if isinstance(expected, list):
        assert moves.apply_move(word, move, operator.eq) == expected
        return
    error, message = expected
    with pytest.raises(error) as exc:
        moves.apply_move(word, move, operator.eq)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_move_is_an_immutable_value():
    mirrors = (so3.Axis((1, 0, 0)), so3.Axis((0, 1, 0)))
    move = Move(PENCIL, 3, mirrors)
    assert (move.kind, move.index, move.mirrors) == (PENCIL, 3, mirrors)
    assert move == Move(PENCIL, 3, tuple(mirrors)) and hash(move) == hash(Move(PENCIL, 3, mirrors))
    assert hash(move) == hash((PENCIL, 3, mirrors))
    assert move != Move(PENCIL, 4, mirrors) and move != Move(INVOLUTION, 3)
    assert Move(INVOLUTION, 0) == Move(INVOLUTION, 0, ()) and Move(INVOLUTION, 0).mirrors == ()
    assert move != (PENCIL, 3, mirrors)
    assert len({move, Move(PENCIL, 3, mirrors), Move(INVOLUTION, 3)}) == 2
    assert repr(Move(INVOLUTION, 2)) == "Move(kind='involution', index=2, mirrors=())"
    assert repr(move) == f"Move(kind='pencil', index=3, mirrors={mirrors!r})"
    for name in ("kind", "index", "mirrors", "other"):
        with pytest.raises(AttributeError):
            setattr(move, name, 0)
    with pytest.raises(AttributeError):
        del move.kind
    assert move == Move(PENCIL, 3, mirrors)
    assert copy.deepcopy(move) == move and pickle.loads(pickle.dumps(move)) == move


def test_free_reduction_cascades_on_the_stack():
    trace = []
    out = moves.normalize([1, 2, 3, 3, 2, 4, 4, 1, 5], operator.eq, None, 10, trace)
    assert out == [5]
    assert trace == [Move(INVOLUTION, 2), Move(INVOLUTION, 1), Move(INVOLUTION, 1), Move(INVOLUTION, 0)]


def test_reduction_step_sees_only_the_leading_mirrors():
    # toy step: [a, b, c] -> [a, a, b + c - a], whose pair the loop cancels
    seen = []

    def step(w, sink):
        seen.append(list(w))
        moves.emit(w, sink, Move(PENCIL, 1, (w[0], w[1] + w[2] - w[0])))

    word = [1, 2, 3, 4, 5, 6]
    trace = []
    out = moves.normalize(word, operator.eq, step, 2, trace)
    # the step leaves 4, which cancels against the 4 that follows it
    assert seen == [[1, 2, 3]]
    assert out == [5, 6]
    assert trace == [Move(PENCIL, 1, (1, 4)), Move(INVOLUTION, 0), Move(INVOLUTION, 0)]
    assert moves.replay(word, trace, operator.eq)[-1] == out


def test_a_step_that_leaves_no_pair_raises_after_one_call():
    calls = 0

    def step(w, sink):
        # swaps the first pair, so no two neighbours of the head are equal
        nonlocal calls
        calls += 1
        if calls > 1:
            pytest.fail("the loop called again a step that left no coincident pair")
        moves.emit(w, sink, Move(PENCIL, 0, (w[1], w[0])))

    with pytest.raises(GeometryError, match="no coincident pair"):
        moves.normalize([1, 2, 3, 4, 5], operator.eq, step, 2)
    assert calls == 1


# (step, coincidence predicate, head length, group, dimension)
STEPS = {
    "e2": (plane._reduce_leading_four, plane.coincident, 4, "e2", 2),
    "s2": (so3.reduce_leading_four, sphere.coincident, 4, "s2", 3),
    "so3-four": (so3.reduce_leading_four, so3.coincident, 4, "so3", 3),
    "so3-three": (so3._reduce_leading_three, so3.coincident, 3, "so3", 3),
    **{f"on{n}": (orthon._steer_moves, orthon.coincident, n + 1, "on", n) for n in (2, 3, 5, 8)},
}


@pytest.mark.parametrize("name", list(STEPS))
def test_each_step_records_pencil_and_polar_split_moves_and_leaves_a_pair(name):
    # the rewrite loop is the only place that cancels: a step records no
    # involution, leaves the coincident pair it built in place and returns
    # nothing, since the loop finds the pair itself
    step, same, length, group, dim = STEPS[name]
    rng = np.random.default_rng(514)
    for _ in range(50):
        head = sampling.random_word(rng, group, length, dim=dim)
        assert not any(same(a, b) for a, b in zip(head, head[1:]))
        w, sink = list(head), []
        assert step(w, sink) is None
        assert sink and all(m.kind in (PENCIL, POLAR_SPLIT) for m in sink)
        assert moves.replay(head, sink, same)[-1] == w
        assert any(same(a, b) for a, b in zip(w, w[1:]))


def _builds_an_involution(node) -> bool:
    """Whether an AST node calls Move with the kind INVOLUTION (or its text)."""
    if not isinstance(node, ast.Call) or ast.unparse(node.func).rpartition(".")[2] != "Move":
        return False
    kinds = node.args[:1] + [k.value for k in node.keywords if k.arg == "kind"]
    return any(ast.unparse(k).rpartition(".")[2] in ("INVOLUTION", repr(INVOLUTION)) for k in kinds)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_rewrite_loop_builds_an_involution(path):
    # every cancellation goes through moves.normalize; a geometry may
    # compare a move's kind with INVOLUTION but never record one itself
    tree = ast.parse(path.read_text(encoding="utf-8"))
    built = [node.lineno for node in ast.walk(tree) if _builds_an_involution(node)]
    if path.name == "moves.py":
        assert built
    else:
        assert built == [], f"{path.name} builds an involution move on lines {built}"


def _palindrome(word):
    """u . v . rev(v) . w: the middle cancels in one cascade of involutions."""
    q = len(word) // 4
    u, v, w = word[:q], word[q : 2 * q], word[2 * q : 3 * q]
    return u + v + v[::-1] + w


@pytest.mark.parametrize("shape", ["random", "palindrome"])
@pytest.mark.parametrize("group", sorted(GEOMETRIES))
def test_coincident_calls_per_mirror_stay_bounded(group, shape, monkeypatch):
    module, normalize, dim = GEOMETRIES[group]
    rng = np.random.default_rng(512)
    g = "on" if group == "on3" else group
    word = sampling.random_word(rng, g, 512, dim=dim)
    if shape == "palindrome":
        word = _palindrome(word)
    assert len(word) == 512

    calls = 0
    original = module.coincident

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "coincident", counted)
    trace = []
    out = normalize(word, trace)
    assert len(out) <= dim
    assert calls / len(word) <= 10.0


@pytest.mark.parametrize("shape", ["random", "palindrome"])
@pytest.mark.parametrize("group", sorted(GEOMETRIES))
def test_reduction_step_gets_a_freely_reduced_head(group, shape, monkeypatch):
    # the steps rely on it: none of them looks for an involution in its head
    module, normalize, dim = GEOMETRIES[group]
    rng = np.random.default_rng(513)
    g = "on" if group == "on3" else group
    word = sampling.random_word(rng, g, 256, dim=dim)
    if shape == "palindrome":
        word = _palindrome(word)
    word[40:40] = [word[39], word[39]]
    targets = []

    def checked(word, same, reduce_leading, target, sink=None):
        targets.append(target)

        def step(head, sink):
            assert len(head) == target + 1
            assert not any(same(a, b) for a, b in zip(head, head[1:]))
            reduce_leading(head, sink)

        return moves.normalize(word, same, step, target, sink)

    monkeypatch.setattr(module, "normalize", checked)
    normalize(word, [])
    # again with a mirror that cancels against the first step's output at the junction
    t = targets[0]
    word[t + 1 : t + 1] = normalize(word[: t + 1], [])[-1:]
    assert len(normalize(word, [])) <= t


@pytest.mark.parametrize("group", sorted(GEOMETRIES))
def test_long_trace_replays_to_the_normal_form(group):
    module, normalize, dim = GEOMETRIES[group]
    rng = np.random.default_rng(257)
    g = "on" if group == "on3" else group
    word = _palindrome(sampling.random_word(rng, g, 257, dim=dim))
    word[40:40] = [word[39], word[39]]
    trace = []
    out = normalize(word, trace)
    assert module.replay_moves(word, trace)[-1] == out
