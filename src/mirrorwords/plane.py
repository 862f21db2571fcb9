"""Isometries of the Euclidean plane as words of line reflections.

A word is a plain list of Line mirrors, applied left to right (element 0
acts first); the composition written R_n . R_m . R_l . R_k is stored as
[k, l, m, n]. Rewriting uses two relations: the involution relation (a
mirror repeated twice cancels) and the pencil relation (an adjacent pair
may be replaced by any pair of the same pencil with the same signed gap).
Every rewrite is checked against the affine-map oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .moves import INVOLUTION, PENCIL, Move, emit, normalize, replay
# perfbench's traced run wraps `coincident` and `apply_move` on every geometry module
from .moves import apply_move  # noqa: F401
from .numerics import (
    EPS_COINCIDE,
    DegenerateInput,
    NotConcurrent,
    shown,
)

IDENTITY = "identity"
REFLECTION = "reflection"
TRANSLATION = "translation"
ROTATION = "rotation"
GLIDE = "glide"

_HALF_PI = math.pi / 2.0

KEYWORD = "line"
ARITY = 3


class Line:
    """Mirror line {x : normal . x = offset}, one stored representative per line.

    The normal is unit with canonical sign (first significant component
    positive); flipping the sign of the normal flips the offset, so the
    representative is unique per geometric line.
    """

    __slots__ = ("nx", "ny", "offset")

    def __init__(self, normal, offset: float = 0.0):
        try:
            # unpacking a string yields its characters, and float() reads digit strings
            if (type(normal) is not tuple and isinstance(normal, (str, bytes))) or (
                type(offset) is not float and isinstance(offset, (str, bytes))
            ):
                raise TypeError
            nx, ny = normal
            nx = float(nx)
            ny = float(ny)
            d = float(offset)
        except (TypeError, ValueError):
            raise DegenerateInput(
                "a line needs a normal of two numbers and a numeric offset: "
                f"{shown(normal)}, {shown(offset)}"
            ) from None
        except OverflowError:  # an int past the float range; its repr may exceed the digit limit
            raise DegenerateInput("a line needs a normal and an offset in the float range") from None
        norm = math.hypot(nx, ny)
        if norm <= EPS_COINCIDE:
            raise DegenerateInput(f"zero normal cannot define a line: {normal!r}")
        if abs(norm - 1.0) > 1e-13:
            nx /= norm
            ny /= norm
            d /= norm
        # a NaN norm fails both the test above and this one
        if not (norm < math.inf and math.isfinite(d)):
            raise DegenerateInput(f"line needs a finite normal and offset: {normal!r}, {offset!r}")
        if (nx < 0.0 and abs(nx) > EPS_COINCIDE) or (
            abs(nx) <= EPS_COINCIDE and ny < 0.0
        ):
            nx, ny, d = -nx, -ny, -d
        # +0.0 uniformly: -0.0 would display oddly and break hashing
        self.nx = nx + 0.0
        self.ny = ny + 0.0
        self.offset = d + 0.0

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.nx, self.ny])

    @property
    def direction(self) -> np.ndarray:
        return np.array([-self.ny, self.nx])

    @property
    def values(self) -> tuple[float, float, float]:
        return self.nx, self.ny, self.offset

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self.nx == other.nx and self.ny == other.ny and self.offset == other.offset

    def __hash__(self):
        return hash((self.nx, self.ny, self.offset))

    def __repr__(self):
        return f"Line(({self.nx!r}, {self.ny!r}), {self.offset!r})"


def mirror_from_values(values) -> Line:
    return Line(values[:2], values[2])


def mirror_json(l: Line) -> dict:
    return {"normal": [l.nx, l.ny], "offset": l.offset}


def coincident(a: Line, b: Line) -> bool:
    """True when a and b are the same geometric line, within EPS_COINCIDE."""
    cross = a.nx * b.ny - a.ny * b.nx
    if abs(cross) > EPS_COINCIDE:
        return False
    dot = a.nx * b.nx + a.ny * b.ny
    db = b.offset if dot > 0.0 else -b.offset
    scale = 1.0 + abs(a.offset) + abs(db)
    return abs(a.offset - db) <= EPS_COINCIDE * scale


def parallel(a: Line, b: Line) -> bool:
    return abs(a.nx * b.ny - a.ny * b.nx) <= EPS_COINCIDE


def _offset_in_frame(l: Line, frame: Line) -> float:
    """Offset of l re-expressed with frame's normal orientation."""
    dot = frame.nx * l.nx + frame.ny * l.ny
    return l.offset if dot > 0.0 else -l.offset


def _intersection(a: Line, b: Line) -> tuple[float, float]:
    det = a.nx * b.ny - a.ny * b.nx
    x = (a.offset * b.ny - a.ny * b.offset) / det
    y = (a.nx * b.offset - a.offset * b.nx) / det
    return x, y


def _passes_through(l: Line, px: float, py: float) -> bool:
    scale = 1.0 + math.hypot(px, py)
    return abs(l.nx * px + l.ny * py - l.offset) <= EPS_COINCIDE * scale


def _fold_half(delta: float) -> float:
    """Fold an angle to (-pi/2, pi/2] (line angles live mod pi)."""
    while delta > _HALF_PI:
        delta -= math.pi
    while delta <= -_HALF_PI:
        delta += math.pi
    return delta


def _signed_gap(a: Line, b: Line) -> float:
    """Signed line angle from a to b, in (-pi/2, pi/2]."""
    cross = a.nx * b.ny - a.ny * b.nx
    dot = a.nx * b.nx + a.ny * b.ny
    return _fold_half(math.atan2(cross, dot))


def _rotated_about(l: Line, px: float, py: float, delta: float) -> Line:
    """Rotate a line passing through (px, py) about that point by delta."""
    c = math.cos(delta)
    s = math.sin(delta)
    nx = l.nx * c - l.ny * s
    ny = l.nx * s + l.ny * c
    return Line((nx, ny), nx * px + ny * py)


def _parallel_through(l: Line, px: float, py: float) -> Line:
    return Line((l.nx, l.ny), l.nx * px + l.ny * py)


class Isometry(NamedTuple):
    """Oracle representation: x -> linear @ x + translation, kept as six floats."""

    a00: float
    a01: float
    a10: float
    a11: float
    t0: float
    t1: float

    @property
    def linear(self) -> np.ndarray:
        return np.array([[self.a00, self.a01], [self.a10, self.a11]])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.t0, self.t1])


def word_to_isometry(word) -> Isometry:
    return Isometry(*kernels.plane_word_map((l.nx, l.ny, l.offset) for l in word))


def isometry_distance(a: Isometry, b: Isometry) -> float:
    """Frobenius distance of linear parts plus Euclidean distance of translations."""
    d00 = a.a00 - b.a00
    d01 = a.a01 - b.a01
    d10 = a.a10 - b.a10
    d11 = a.a11 - b.a11
    dt0 = a.t0 - b.t0
    dt1 = a.t1 - b.t1
    return math.sqrt(d00 * d00 + d01 * d01 + d10 * d10 + d11 * d11) + math.sqrt(
        dt0 * dt0 + dt1 * dt1
    )


def word_oracle(word, dim: int | None = None) -> Isometry:
    # looked up at call time: perfbench's traced run wraps `word_to_isometry`
    return word_to_isometry(word)


oracle_distance = isometry_distance


@dataclass(frozen=True, eq=False)
class Classification:
    kind: str
    axis: Line | None = None
    vector: np.ndarray | None = None
    center: np.ndarray | None = None
    angle: float | None = None


def compose_reflections(l: Line, m: Line) -> Classification:
    """Classify R_m . R_l: identity, translation (parallel) or rotation (transverse).

    The translation moves by twice the line distance, perpendicular to the
    lines; the rotation angle is twice the signed angle from l to m about
    the intersection point.
    """
    cross = l.nx * m.ny - l.ny * m.nx
    if abs(cross) <= EPS_COINCIDE:
        gap = _offset_in_frame(m, l) - l.offset
        if abs(gap) <= EPS_COINCIDE:
            return Classification(IDENTITY)
        return Classification(
            TRANSLATION, vector=np.array([2.0 * gap * l.nx, 2.0 * gap * l.ny])
        )
    px, py = _intersection(l, m)
    return Classification(
        ROTATION, center=np.array([px, py]), angle=2.0 * _signed_gap(l, m)
    )


def pencil_completion(l: Line, m: Line, l2: Line) -> Line:
    """The unique m2 with R_m . R_l = R_m2 . R_l2, all four in one pencil.

    Transports the signed pencil gap from the pair (l, m) onto l2. Raises
    NotConcurrent when l2 does not belong to the pencil of l and m.
    """
    if coincident(l, m):
        return l2
    if parallel(l, m):
        if not parallel(l, l2):
            raise NotConcurrent("third line is not parallel to the pencil")
        gap = _offset_in_frame(m, l) - l.offset
        return Line((l.nx, l.ny), _offset_in_frame(l2, l) + gap)
    px, py = _intersection(l, m)
    if not _passes_through(l2, px, py):
        raise NotConcurrent("third line misses the pencil's common point")
    return _rotated_about(_parallel_through(l2, px, py), px, py, _signed_gap(l, m))


def verify_pencil_relation(l: Line, m: Line, l2: Line, m2: Line) -> bool:
    """True iff all four lines share a pencil with matching signed gaps.

    Signed gaps (offset differences in a parallel pencil, line angles mod
    pi in a concurrent one) characterize R_m . R_l = R_m2 . R_l2 exactly;
    the unsigned distances of the two-sided relation follow.
    """
    if coincident(l, m):
        return coincident(l2, m2)
    if coincident(l2, m2):
        return False
    if parallel(l, m):
        if not (parallel(l, l2) and parallel(l, m2)):
            return False
        gap1 = _offset_in_frame(m, l) - l.offset
        gap2 = _offset_in_frame(m2, l) - _offset_in_frame(l2, l)
        return abs(gap1 - gap2) <= EPS_COINCIDE * (1.0 + abs(gap1) + abs(gap2))
    if parallel(l2, m2):
        return False
    px, py = _intersection(l, m)
    if not (_passes_through(l2, px, py) and _passes_through(m2, px, py)):
        return False
    return abs(_fold_half(_signed_gap(l, m) - _signed_gap(l2, m2))) <= EPS_COINCIDE


def _reduce_leading_four(w: list, sink: list) -> None:
    """Rewrite the leading four mirrors of w down to two, recording moves.

    Follows the four-reflection case analysis: slide or rotate both pairs
    onto a common middle mirror and cancel it. The rewrite loop hands over
    a freely reduced head, so no two adjacent mirrors coincide.
    """
    k, l, m, n = w[0], w[1], w[2], w[3]
    kl_par = parallel(k, l)
    mn_par = parallel(m, n)

    if kl_par and mn_par:
        if parallel(l, m):
            # all four parallel: slide the pair (k, l) until l lands on m
            gap = _offset_in_frame(m, l) - l.offset
            k2 = Line((l.nx, l.ny), _offset_in_frame(k, l) + gap)
            emit(w, sink, Move(PENCIL, 0, (k2, m)), coincident)
            emit(w, sink, Move(INVOLUTION, 1), coincident)
            return
        # two parallel pairs in different directions: rotate the middle
        # pair by a right angle about its intersection, making both outer
        # pairs transverse, then fall through to the generic case
        px, py = _intersection(l, m)
        l2 = _rotated_about(l, px, py, _HALF_PI)
        m2 = _rotated_about(m, px, py, _HALF_PI)
        emit(w, sink, Move(PENCIL, 1, (l2, m2)), coincident)
        _reduce_leading_four(w, sink)
        return

    if kl_par:
        # slide k.l so that l passes through the intersection of m and n,
        # then rotate m.n so that its first mirror is that same line
        px, py = _intersection(m, n)
        mid = _parallel_through(l, px, py)
        gap = mid.offset - _offset_in_frame(l, mid)
        k2 = Line((mid.nx, mid.ny), _offset_in_frame(k, mid) + gap)
        emit(w, sink, Move(PENCIL, 0, (k2, mid)), coincident)
        n2 = pencil_completion(w[2], w[3], mid)
        emit(w, sink, Move(PENCIL, 2, (mid, n2)), coincident)
        emit(w, sink, Move(INVOLUTION, 1), coincident)
        return

    if mn_par:
        px, py = _intersection(k, l)
        mid = _parallel_through(m, px, py)
        gap = mid.offset - _offset_in_frame(m, mid)
        n2 = Line((mid.nx, mid.ny), _offset_in_frame(n, mid) + gap)
        emit(w, sink, Move(PENCIL, 2, (mid, n2)), coincident)
        k2 = pencil_completion(w[1], w[0], mid)
        emit(w, sink, Move(PENCIL, 0, (k2, mid)), coincident)
        emit(w, sink, Move(INVOLUTION, 1), coincident)
        return

    p1x, p1y = _intersection(k, l)
    p2x, p2y = _intersection(m, n)
    if math.hypot(p1x - p2x, p1y - p2y) <= EPS_COINCIDE * (
        1.0 + math.hypot(p1x, p1y) + math.hypot(p2x, p2y)
    ):
        # all four concurrent: rotate the pair (m, n) so that m lands on l
        n2 = pencil_completion(m, n, l)
        emit(w, sink, Move(PENCIL, 2, (l, n2)), coincident)
        emit(w, sink, Move(INVOLUTION, 1), coincident)
        return

    # generic case: rotate both pairs onto the line through both points
    dx, dy = p2x - p1x, p2y - p1y
    mid = Line((-dy, dx), -dy * p1x + dx * p1y)
    k2 = pencil_completion(l, k, mid)
    emit(w, sink, Move(PENCIL, 0, (k2, mid)), coincident)
    n2 = pencil_completion(w[2], w[3], mid)
    emit(w, sink, Move(PENCIL, 2, (mid, n2)), coincident)
    emit(w, sink, Move(INVOLUTION, 1), coincident)


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word to length at most 3 (2 for even length), oracle-equal."""
    return normalize(word, coincident, _reduce_leading_four, 3, trace)


def classify_word(word) -> Classification:
    """Normalize and classify: identity, reflection, translation, rotation or glide.

    Length three is split into reflection vs. glide by extracting the
    invariant axis from the oracle matrix: the linear part of an odd word
    is I - 2uu^T, the axis is the line {u.x = d} with d = u.t/2, and the
    glide vector is the component of the translation along the axis.
    """
    w = normalize_word(word)
    if len(w) == 0:
        return Classification(IDENTITY)
    if len(w) == 1:
        return Classification(REFLECTION, axis=w[0])
    if len(w) == 2:
        return compose_reflections(w[0], w[1])
    iso = word_to_isometry(w)
    B = (np.eye(2) - iso.linear) / 2.0  # = uu^T
    if B[0, 0] >= B[1, 1]:
        u = np.array([B[0, 0], B[1, 0]])
    else:
        u = np.array([B[0, 1], B[1, 1]])
    u /= math.hypot(u[0], u[1])
    t = iso.translation
    d = (u[0] * t[0] + u[1] * t[1]) / 2.0
    g = -u[1] * t[0] + u[0] * t[1]
    axis = Line(u, d)
    if abs(g) <= EPS_COINCIDE:
        return Classification(REFLECTION, axis=axis)
    return Classification(GLIDE, axis=axis, vector=np.array([-g * u[1], g * u[0]]))


def classification_json(word, dim: int | None = None) -> dict:
    c = classify_word(word)
    out = {"kind": c.kind}
    if c.axis is not None:
        out["axis"] = mirror_json(c.axis)
    if c.vector is not None:
        out["vector"] = list(c.vector)
    if c.center is not None:
        out["center"] = list(c.center)
    if c.angle is not None:
        out["angle"] = c.angle
    return out


def replay_moves(word, moves) -> list:
    """All intermediate words of a recorded rewrite, starting word included."""
    return replay(word, moves, coincident)
