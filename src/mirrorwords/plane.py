"""Isometries of the Euclidean plane as words of line reflections.

A word is a plain list of Line mirrors, applied left to right (element 0
acts first); the composition written R_n . R_m . R_l . R_k is stored as
[k, l, m, n]. Rewriting uses two relations: the involution relation (a
mirror repeated twice cancels) and the pencil relation (an adjacent pair
may be replaced by any pair with the same product R_m . R_l).
Every rewrite is checked against the affine-map oracle in tests.

A pencil is a projective point, as a pole pair is on the sphere: the
meet of its lines, or for parallel lines their direction at infinity.
The four-to-two step turns both pairs onto the join of their two points,
and a pencil move reads its new mirror off the product of three
reflections, with one formula for both kinds of pencil.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import kernels
from .moves import PENCIL, Move, emit, normalize, replay
# perfbench's traced run wraps `coincident` and `apply_move` on every geometry module
from .moves import apply_move  # noqa: F401
from .numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    _UNIT_SLACK,
    DegenerateInput,
    NotConcurrent,
    components_n,
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
        nx, ny = components_n(normal, 2)
        (d,) = components_n((offset,), 1)
        self._canonical(nx, ny, d, normal, offset)

    @classmethod
    def from_floats(cls, nx: float, ny: float, d: float) -> "Line":
        """Line((nx, ny), d), bit for bit, for three floats: it skips components_n.

        For a rewrite step, which builds its mirrors from floats it computed.
        """
        line = object.__new__(cls)
        line._canonical(nx, ny, d, (nx, ny), d)
        return line

    def _canonical(self, nx: float, ny: float, d: float, normal, offset) -> None:
        """Store the line's representative; normal and offset only name a rejected input."""
        norm = math.hypot(nx, ny)
        if norm <= EPS_COINCIDE:
            raise DegenerateInput(f"zero normal cannot define a line: {normal!r}")
        if abs(norm - 1.0) > _UNIT_SLACK:
            nx /= norm
            ny /= norm
            d /= norm
        # a NaN norm fails both the test above and this one
        if not (norm < math.inf and math.isfinite(d)):
            raise DegenerateInput(f"line needs a finite normal and offset: {normal!r}, {offset!r}")
        self._signed(nx, ny, d)

    @classmethod
    def from_unit(cls, nx: float, ny: float, d: float) -> "Line":
        """Line((nx, ny), d), bit for bit, for a normal divided by its norm and a finite d.

        Such a normal passes the constructor's unit test undivided, so
        only the sign rule is left.
        """
        line = object.__new__(cls)
        line._signed(nx, ny, d)
        return line

    def _signed(self, nx: float, ny: float, d: float) -> None:
        """Store the line of a unit normal, with the sign rule applied."""
        if (nx < 0.0 and abs(nx) > EPS_COINCIDE) or (
            abs(nx) <= EPS_COINCIDE and ny < 0.0
        ):
            nx, ny, d = -nx, -ny, -d
        # +0.0 uniformly: -0.0 would display oddly and break hashing
        self.nx = nx + 0.0
        self.ny = ny + 0.0
        self.offset = d + 0.0

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


def mirror_from_floats(values: list[float]) -> Line:
    """The line of three floats (normal_x, normal_y, offset)."""
    return Line.from_floats(*values)


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
    # both tests scale with the distance from the origin: two lines that
    # meet at distance D at angle |cross| are about |cross| D apart near the
    # origin. The offset slack is capped: cancelling parallel lines leaves
    # the translation 2|a.d - b.d|, which must stay within EPS_VERIFY / 2
    # however far they are from the origin
    cap = min(EPS_COINCIDE * scale, EPS_VERIFY / 4)
    return abs(cross) * scale <= EPS_COINCIDE and abs(a.offset - db) <= cap


def _offset_in_frame(l: Line, frame: Line) -> float:
    """Offset of l re-expressed with frame's normal orientation."""
    dot = frame.nx * l.nx + frame.ny * l.ny
    return l.offset if dot > 0.0 else -l.offset


def _cross(a: Line, b: Line) -> float:
    return a.nx * b.ny - a.ny * b.nx


def _meet(a: Line, b: Line) -> tuple[float, float, float]:
    """The common point of a and b as homogeneous (x, y, w), w = 0 when parallel.

    It is the cross product of (nx, ny, -offset) of both lines: for a
    parallel pair, the point at infinity in their direction.
    """
    return (
        a.offset * b.ny - a.ny * b.offset,
        a.nx * b.offset - a.offset * b.nx,
        _cross(a, b),
    )


def _signed_gap(a: Line, b: Line) -> float:
    """Signed line angle from a to b, in (-pi/2, pi/2] (line angles live mod pi)."""
    delta = math.atan2(_cross(a, b), a.nx * b.nx + a.ny * b.ny)
    if delta > _HALF_PI:
        return delta - math.pi
    if delta <= -_HALF_PI:
        return delta + math.pi
    return delta


class Isometry(NamedTuple):
    """Oracle representation: x -> A x + t with A = [[a00, a01], [a10, a11]], t = (t0, t1)."""

    a00: float
    a01: float
    a10: float
    a11: float
    t0: float
    t1: float


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


def prefix_oracles(word, dim: int | None = None, table: bool = True):
    """The function i -> word_oracle(word[:i]), bit for bit.

    With `table`, it reads the kernel's state after each mirror, computed
    once; without, it computes each prefix's oracle afresh.
    """
    if not table:
        return lambda i: word_to_isometry(word[:i])
    states = kernels.prefix_states(
        kernels.plane_word_map, [(l.nx, l.ny, l.offset) for l in word], kernels.PLANE_IDENTITY
    )
    return lambda i: Isometry(*states[i])


oracle_distance = isometry_distance


def compose_reflections(l: Line, m: Line) -> dict:
    """Classify R_m . R_l: identity, translation (parallel) or rotation (transverse).

    The translation moves by twice the line distance, perpendicular to the
    lines; the rotation angle is twice the signed angle from l to m about
    the intersection point. Lines count as parallel by coincident's scaled
    angle test.
    """
    dm = _offset_in_frame(m, l)
    if abs(_cross(l, m)) * (1.0 + abs(l.offset) + abs(dm)) <= EPS_COINCIDE:
        gap = dm - l.offset
        if abs(gap) <= EPS_COINCIDE:
            return {"kind": IDENTITY}
        # + 0.0 makes a -0.0 component 0.0, as canonical_sign_n does for mirrors
        return {"kind": TRANSLATION, "vector": [2.0 * gap * l.nx + 0.0, 2.0 * gap * l.ny + 0.0]}
    x, y, w = _meet(l, m)
    center = [x / w + 0.0, y / w + 0.0]
    return {"kind": ROTATION, "center": center, "angle": 2.0 * _signed_gap(l, m)}


def pencil_completion(l: Line, m: Line, l2: Line) -> Line:
    """The unique m2 with R_m . R_l = R_m2 . R_l2, all four in one pencil.

    R_m2 is read off the product R_m . R_l . R_l2, for a pencil of
    concurrent and of parallel lines alike. Its normal is
    n_m . conj(n_l) . n_l2 as complex numbers, rescaled to unit length so
    that the few ulps of norm each product leaves do not build up along a
    chain of completions. Its offset is half the normal component of t,
    the image of the origin under R_l2, R_l, then R_m. When l2 is off the
    pencil the product is a glide reflection; raises NotConcurrent when
    its glide |n_perp . t| exceeds EPS_COINCIDE (1 + |t|). For a parallel
    pencil the glide is 2 gap sin(angle between l and l2).
    """
    if coincident(l, m):
        return l2
    cx = m.nx * l.nx + m.ny * l.ny
    cy = m.ny * l.nx - m.nx * l.ny
    nx = cx * l2.nx - cy * l2.ny
    ny = cx * l2.ny + cy * l2.nx
    h = math.hypot(nx, ny)
    nx /= h
    ny /= h
    tx = 2.0 * l2.offset * l2.nx
    ty = 2.0 * l2.offset * l2.ny
    for line in (l, m):
        s = 2.0 * (line.nx * tx + line.ny * ty - line.offset)
        tx -= s * line.nx
        ty -= s * line.ny
    if abs(nx * ty - ny * tx) > EPS_COINCIDE * (1.0 + math.hypot(tx, ty)):
        raise NotConcurrent("third line is off the pencil of the first two")
    return Line.from_floats(nx, ny, 0.5 * (nx * tx + ny * ty))


def verify_pencil_relation(l: Line, m: Line, l2: Line, m2: Line) -> bool:
    """True iff R_m . R_l = R_m2 . R_l2 within EPS_VERIFY.

    Equal pair products are the pencil relation: both pairs then share a
    pencil with the same signed gap, and swapping a pair inverts its product.
    """
    return isometry_distance(word_to_isometry((l, m)), word_to_isometry((l2, m2))) <= EPS_VERIFY


def _join(k: Line, l: Line, m: Line, n: Line) -> tuple[float, float, float] | None:
    """The line through the pencil points p of (k, l) and q of (m, n), or None.

    Homogeneous (a, b, c) for a x + b y + c = 0, scaled to a unit 3-vector
    so that neither a near nor a far join leaves the float range: the cross
    product p x q, expanded as (k.q) l - (l.q) k with k and l as
    (nx, ny, -offset). As a combination of two lines through p it passes
    through p and q to rounding however close the two points are, and
    k.q, l.q come out exactly 0 for four lines with one normal. It
    is the line at infinity for two parallel pairs, and None when p and q
    are one point.
    """
    mn = _cross(m, n)
    kq = m.offset * _cross(k, n) - n.offset * _cross(k, m) - k.offset * mn
    lq = m.offset * _cross(l, n) - n.offset * _cross(l, m) - l.offset * mn
    a = kq * l.nx - lq * k.nx
    b = kq * l.ny - lq * k.ny
    c = lq * k.offset - kq * l.offset
    r = math.hypot(a, b, c)
    if r == 0.0:
        return None
    return a / r, b / r, c / r


def _reduce_leading_four(w: list, sink: list) -> None:
    """Turn the leading four mirrors of w so that two neighbours coincide.

    A pair's pencil is a projective point: the meet of its two lines, at
    infinity for a parallel pair. Both pairs are turned in their pencils
    onto the join of the two points, which the rewrite loop then cancels.
    When the points are one, (m, n) is turned onto l instead. When the join
    is the line at infinity (two parallel pairs of different directions),
    or too far out to carry a mirror, the middle pair is first turned by a
    right angle about its own meet, once, which brings both points near.
    The head it gets is freely reduced; it records pencil moves only.
    """
    k, l, m, n = w[0], w[1], w[2], w[3]
    join = _join(k, l, m, n)
    x, y, s = _meet(l, m)
    # too far out: the join's distance from the origin, |c| / |(a, b)|,
    # exceeds EPS_VERIFY / EPS_COINCIDE times the head's extent (its
    # largest offset and the distance of the middle meet (x, y) / s). A
    # mirror at distance D carries rounding and a coincidence slack of
    # EPS_COINCIDE D, kept under EPS_VERIFY per unit of extent.
    extent = abs(s) * (1.0 + max(abs(k.offset), abs(l.offset), abs(m.offset), abs(n.offset)))
    if join is not None and EPS_COINCIDE * abs(join[2] * s) > EPS_VERIFY * (
        extent + abs(x) + abs(y)
    ) * (abs(join[0]) + abs(join[1])):
        # turn both middle lines by +90 degrees about their meet: the
        # product keeps its centre and angle
        l = Line.from_floats(-l.ny, l.nx, (l.nx * y - l.ny * x) / s)
        m = Line.from_floats(-m.ny, m.nx, (m.nx * y - m.ny * x) / s)
        emit(w, sink, Move(PENCIL, 1, (l, m)))
        join = _join(k, l, m, n)
    h = 0.0 if join is None else math.hypot(join[0], join[1])
    if h == 0.0:
        # one pencil: turn (m, n) so that m lands on l
        emit(w, sink, Move(PENCIL, 2, (l, pencil_completion(m, n, l))))
        return
    # divided here, not in Line: a join 1e9 or more from the origin has a
    # normal part under Line's EPS_COINCIDE floor as a unit 3-vector
    mid = Line.from_floats(join[0] / h, join[1] / h, -join[2] / h)
    emit(w, sink, Move(PENCIL, 0, (pencil_completion(l, k, mid), mid)))
    emit(w, sink, Move(PENCIL, 2, (mid, pencil_completion(m, n, mid))))


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word to length at most 3 (2 for even length), oracle-equal."""
    return normalize(word, coincident, _reduce_leading_four, 3, trace)


def classification_json(word, dim: int | None = None) -> dict:
    """Normalize and classify: identity, reflection, translation, rotation or glide.

    Length three is split into reflection vs. glide by extracting the
    invariant axis from the oracle map: the linear part of an odd word
    is I - 2uu^T, the axis is the line {u.x = d} with d = u.t/2, and the
    glide vector is the component of the translation along the axis.
    """
    w = normalize_word(word)
    if len(w) == 0:
        return {"kind": IDENTITY}
    if len(w) == 1:
        return {"kind": REFLECTION, "axis": mirror_json(w[0])}
    if len(w) == 2:
        return compose_reflections(w[0], w[1])
    a00, a01, a10, a11, t0, t1 = word_to_isometry(w)
    # the column of (I - linear) / 2 = uu^T with the larger diagonal entry
    b00 = (1.0 - a00) / 2.0
    b11 = (1.0 - a11) / 2.0
    if b00 >= b11:
        ux, uy = b00, (0.0 - a10) / 2.0
    else:
        ux, uy = (0.0 - a01) / 2.0, b11
    h = math.hypot(ux, uy)
    ux, uy = ux / h, uy / h
    d = (ux * t0 + uy * t1) / 2.0
    g = -uy * t0 + ux * t1
    axis = mirror_json(Line((ux, uy), d))
    if abs(g) <= EPS_COINCIDE:
        return {"kind": REFLECTION, "axis": axis}
    return {"kind": GLIDE, "axis": axis, "vector": [-g * uy + 0.0, g * ux + 0.0]}


def replay_moves(word, moves) -> list:
    """All intermediate words of a recorded rewrite, starting word included."""
    return replay(word, moves, coincident)
