"""Elementary rewrite moves and the rewrite loop shared by all word normalizers.

A normalization is a sequence of these moves; recording them lets the CLI
emit a trace that can be replayed step by step, and lets tests check the
oracle invariants at every intermediate word. Each geometry hands
`normalize` its coincidence predicate, its leading reduction step and its
normal-form length; the loop itself is the same for all of them.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

from .numerics import GeometryError

INVOLUTION = "involution"  # delete an adjacent equal pair        (length -2)
PENCIL = "pencil"          # replace an adjacent pair in-pencil   (length 0)
POLAR_SPLIT = "polar_split"  # replace one line by an orthogonal pair (length +1)


class Move:
    """One recorded move: its kind, the word index it applies at, its new mirrors.

    An immutable record with value equality, hash and repr as a frozen
    dataclass gives them, at about half the cost to build: the rewrite
    builds one per move. Not a tuple, so that it counts as one move where
    a sequence of moves is counted by its length.
    """

    __slots__ = ("kind", "index", "mirrors")

    def __init__(self, kind: str, index: int, mirrors: tuple = ()):
        _set_kind(self, kind)
        _set_index(self, index)
        _set_mirrors(self, mirrors)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not Move:
            return NotImplemented
        return (self.kind, self.index, self.mirrors) == (other.kind, other.index, other.mirrors)

    def __hash__(self):
        return hash((self.kind, self.index, self.mirrors))

    def __repr__(self):
        return f"Move(kind={self.kind!r}, index={self.index!r}, mirrors={self.mirrors!r})"

    def __reduce__(self):  # copy and pickle, which would set the slots one by one
        return Move, (self.kind, self.index, self.mirrors)


# the slots' own setters, which __setattr__ does not block
_set_kind = Move.kind.__set__
_set_index = Move.index.__set__
_set_mirrors = Move.mirrors.__set__


# how many mirrors of the word a move of each kind replaces
_WIDTH = {INVOLUTION: 2, PENCIL: 2, POLAR_SPLIT: 1}


def apply_move(word, move: Move, same) -> list:
    """Apply one move to a word, returning a new list.

    Each kind replaces the `_WIDTH` mirrors at its index by the mirrors it
    carries, none for an involution. `same` is the mirror-coincidence
    predicate of the calling module, read only by an involution. The
    structural preconditions are asserted here; geometric validity (pencil
    membership, product preservation) is the business of each module's
    replay checker.
    """
    width = _WIDTH.get(move.kind)
    if width is None:
        raise ValueError(f"unknown move kind {move.kind!r}")
    i = move.index
    if not (0 <= i <= len(word) - width):
        raise IndexError(f"{move.kind} index {i} out of range for length {len(word)}")
    if move.kind == INVOLUTION:
        if not same(word[i], word[i + 1]):
            raise ValueError(f"involution at {i}: mirrors do not coincide")
    elif len(move.mirrors) != 2:
        raise ValueError(f"{move.kind} move must carry exactly two mirrors")
    w = list(word)
    w[i : i + width] = () if move.kind == INVOLUTION else move.mirrors
    return w


def replay(word, moves, same) -> list:
    """Apply a move sequence, returning every intermediate word (incl. start)."""
    states = [list(word)]
    for mv in moves:
        states.append(apply_move(states[-1], mv, same))
    return states


def emit(w: list, sink: list, move: Move) -> None:
    """Record a pencil or polar-split move and apply it to w in place.

    Only the rewrite loop records involutions, so no predicate is needed.
    """
    sink.append(move)
    w[:] = apply_move(w, move, None)


def _cancel_onto(stack: list, mirrors, same, sink: list) -> None:
    """Push mirrors onto a freely reduced stack, cancelling coincident neighbours."""
    for x in mirrors:
        if stack and same(stack[-1], x):
            sink.append(Move(INVOLUTION, len(stack) - 1))
            stack.pop()
        else:
            stack.append(x)


def normalize(word, same, reduce_leading, target: int, sink: list | None = None) -> list:
    """Rewrite a word to at most `target` mirrors by involutions and reduction steps.

    The word is kept as a freely reduced head plus the rest of the word,
    stored reversed so that its first mirror pops off the end. While the
    word is too long, the head is filled to target + 1 mirrors and
    `reduce_leading(head, sink)` rewrites its leading mirrors in place; the
    result is freely reduced again and cancelled against the rest only at
    the junction, since adjacent pairs inside the rest were already found
    distinct. The head is always a prefix of the current word, so every
    recorded move index is an index into the whole word. Every geometry's
    step shortens the head, so the work per input mirror does not grow
    with the word length.

    Contract with the step: the head it gets is freely reduced, so no two
    adjacent mirrors of it coincide. It records only pencil and polar-split
    moves and leaves a coincident pair, which this loop cancels with the
    rest of the result; a head still longer than `target` after that means
    the step broke the contract, and GeometryError is raised.
    """
    if sink is None:
        sink = []
    head: list = []
    _cancel_onto(head, word, same, sink)
    rest = head[target + 1 :]
    rest.reverse()
    del head[target + 1 :]
    while len(head) + len(rest) > target:
        while len(head) <= target:
            head.append(rest.pop())
        reduce_leading(head, sink)
        reduced, head = head, []
        _cancel_onto(head, reduced, same, sink)
        if len(head) > target:
            raise GeometryError("reduction step left no coincident pair")
        while head and rest and same(head[-1], rest[-1]):
            sink.append(Move(INVOLUTION, len(head) - 1))
            head.pop()
            rest.pop()
    head.extend(reversed(rest))
    return head
