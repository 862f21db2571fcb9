"""Elementary rewrite moves and the rewrite loop shared by all word normalizers.

A normalization is a sequence of these moves; recording them lets the CLI
emit a trace that can be replayed step by step, and lets tests check the
oracle invariants at every intermediate word. Each geometry hands
`normalize` its coincidence predicate, its leading reduction step and its
normal-form length; the loop itself is the same for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INVOLUTION = "involution"  # delete an adjacent equal pair        (length -2)
PENCIL = "pencil"          # replace an adjacent pair in-pencil   (length 0)
POLAR_SPLIT = "polar_split"  # replace one line by an orthogonal pair (length +1)


@dataclass(frozen=True)
class Move:
    kind: str
    index: int
    mirrors: tuple = field(default=())


def apply_move(word, move: Move, same) -> list:
    """Apply one move to a word, returning a new list.

    `same` is the mirror-coincidence predicate of the calling module. The
    structural preconditions are asserted here; geometric validity (pencil
    membership, product preservation) is the business of each module's
    replay checker.
    """
    w = list(word)
    i = move.index
    if move.kind == INVOLUTION:
        if not (0 <= i < len(w) - 1):
            raise IndexError(f"involution index {i} out of range for length {len(w)}")
        if not same(w[i], w[i + 1]):
            raise ValueError(f"involution at {i}: mirrors do not coincide")
        del w[i : i + 2]
    elif move.kind == PENCIL:
        if not (0 <= i < len(w) - 1):
            raise IndexError(f"pencil index {i} out of range for length {len(w)}")
        if len(move.mirrors) != 2:
            raise ValueError("pencil move must carry exactly two mirrors")
        w[i : i + 2] = list(move.mirrors)
    elif move.kind == POLAR_SPLIT:
        if not (0 <= i < len(w)):
            raise IndexError(f"polar_split index {i} out of range for length {len(w)}")
        if len(move.mirrors) != 2:
            raise ValueError("polar_split move must carry exactly two mirrors")
        w[i : i + 1] = list(move.mirrors)
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    return w


def replay(word, moves, same) -> list:
    """Apply a move sequence, returning every intermediate word (incl. start)."""
    states = [list(word)]
    for mv in moves:
        states.append(apply_move(states[-1], mv, same))
    return states


def emit(w: list, sink: list, move: Move, same) -> None:
    """Record a move and apply it to w in place."""
    sink.append(move)
    w[:] = apply_move(w, move, same)


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
    adjacent mirrors of it coincide, and it need not cancel a coincident
    pair it leaves behind, since this loop cancels the result again.
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
        while head and rest and same(head[-1], rest[-1]):
            sink.append(Move(INVOLUTION, len(head) - 1))
            head.pop()
            rest.pop()
    head.extend(reversed(rest))
    return head
