"""SO(3) as words of reflections in lines through the origin.

A reflection in a line is the half-turn about it (det +1, unlike plane
reflections), so words of any length stay inside SO(3). Three relations
rewrite words: involution, pencil (coplanar quadruples) and the polar
frame relation R_c . R_b . R_a = id for pairwise orthogonal lines. The
quaternion product is the independent oracle.

The half-turn about p is -H_p, minus the reflection in the plane with
normal p, and a pencil move or an involution keeps the product of two
mirrors, sign included. So the sphere's four-to-two step, which this
module holds for both groups (`reduce_leading_four`), rewrites axes as it
rewrites poles. It takes a word down to three lines; the polar-split step
`_reduce_leading_three` takes the last three to two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .moves import PENCIL, POLAR_SPLIT, Move, emit, normalize, replay
# perfbench's traced run wraps `coincident` and `apply_move` on every geometry module
from .moves import apply_move  # noqa: F401
from .numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    DegenerateInput,
    Direction3,
    IdentityInput,
    NotConcurrent,
    NotOrthogonal,
    canonical_unit3,
    coincident3,
    components3,
    cross3,
    dot3,
    norm3,
    wrap_angle,
)

_PROBES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

KEYWORD = "axis"
ARITY = 3


class Axis(Direction3):
    """A line through the origin, stored as a canonical-sign unit direction.

    The direction is kept as the float tuple `values` (see Direction3).
    """

    __slots__ = ()

    @property
    def direction(self) -> tuple[float, float, float]:
        """`values` under the name perfbench's independent checker reads."""
        return self.values


def mirror_from_floats(values: list[float]) -> Axis:
    """The axis whose direction is three floats."""
    return Axis.from_floats(*values)


def mirror_json(a: Axis) -> dict:
    return {"direction": list(a.values)}


coincident = coincident3


@dataclass(frozen=True, eq=False)
class Rotation:
    """Axis-angle rotation; axis has canonical sign, angle lies in (-pi, pi].

    The axis is a unit 3-vector as a float tuple, like a mirror's `values`.
    The identity is the canonical pair (axis (0,0,1), angle 0).
    """

    axis: tuple[float, float, float]
    angle: float

    @property
    def is_identity(self) -> bool:
        return self.angle == 0.0


IDENTITY_ROTATION = Rotation((0.0, 0.0, 1.0), 0.0)


def rotation(axis, angle: float) -> Rotation:
    """Canonicalize an axis-angle pair; (axis, angle) ~ (-axis, -angle)."""
    try:
        finite = math.isfinite(angle)
    except TypeError:  # not a real number: a string, bytes, None
        finite = False
    except OverflowError:  # an int past the float range; its repr may exceed the digit limit
        raise DegenerateInput("a rotation needs an angle in the float range") from None
    if not finite:
        raise DegenerateInput(f"a rotation needs a finite angle: {angle!r}")
    a = wrap_angle(angle)
    if abs(a) <= EPS_COINCIDE:
        return IDENTITY_ROTATION
    u = canonical_unit3(*components3(axis))
    if dot3(u, axis) < 0.0:
        a = wrap_angle(-a)
    return Rotation(u, a)


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)


def word_to_quaternion(word) -> Quaternion:
    return Quaternion(*kernels.line_word_quaternion(a.values for a in word))


def word_oracle(word, dim: int | None = None) -> Quaternion:
    # looked up at call time: perfbench's traced run wraps `word_to_quaternion`
    return word_to_quaternion(word)


def quaternion_to_rotation(q: Quaternion) -> Rotation:
    n = q.norm()
    w, x, y, z = q.w / n, q.x / n, q.y / n, q.z / n
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    angle = 2.0 * math.atan2(s, w)
    if s <= EPS_COINCIDE or abs(angle) <= EPS_COINCIDE:
        return IDENTITY_ROTATION
    return rotation((x / s, y / s, z / s), angle)


def quaternion_distance(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle separating two unit quaternions (sign-insensitive)."""
    r = a * b.conjugate()
    s = math.sqrt(r.x * r.x + r.y * r.y + r.z * r.z)
    return 2.0 * math.atan2(s, abs(r.w))


oracle_distance = quaternion_distance


def rotation_angle(R) -> float:
    """Rotation angle of a rotation matrix given as three rows, accurate near zero."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    wx = (r21 - r12) / 2.0
    wy = (r02 - r20) / 2.0
    wz = (r10 - r01) / 2.0
    s = math.sqrt(wx * wx + wy * wy + wz * wz)
    c = (r00 + r11 + r22 - 1.0) / 2.0
    return abs(math.atan2(s, c))


def twice_angle_rotation(u, v) -> Rotation:
    """The rotation about u x v by twice the angle from u to v; identity if parallel.

    It is R_b . R_a for two mirrors a, b through the origin with
    directions (or poles) u, v, and the rotation an arc from u to v encodes.
    """
    c = cross3(u, v)
    s = norm3(c)
    if s <= EPS_COINCIDE:
        return IDENTITY_ROTATION
    theta = math.atan2(s, dot3(u, v))
    return rotation((c[0] / s, c[1] / s, c[2] / s), 2.0 * theta)


def compose_line_reflections(a: Axis, b: Axis) -> Rotation:
    """R_b . R_a: rotation about the common perpendicular by twice the angle."""
    return twice_angle_rotation(a.values, b.values)


def probe_perpendicular(axis) -> tuple[float, float, float]:
    """Deterministic unit vector perpendicular to axis (probe-projection rule)."""
    for p in _PROBES:
        d = dot3(p, axis)
        w = (p[0] - d * axis[0], p[1] - d * axis[1], p[2] - d * axis[2])
        if norm3(w) > EPS_COINCIDE:
            return canonical_unit3(*w)
    raise IdentityInput("axis projection failed for every probe")  # pragma: no cover


def split_reflection(k: Axis, plane_normal) -> tuple[Axis, Axis]:
    """Write R_k = R_c . R_b with b inside the given plane through the origin.

    b is the line of the plane perpendicular to k; when the plane is k's
    orthogonal complement every line of it qualifies and the probe rule
    picks one. c completes (k, b) to an orthogonal triple.
    """
    n = canonical_unit3(*components3(plane_normal))
    d = k.values
    c = cross3(n, d)
    if norm3(c) > EPS_COINCIDE:
        b_dir = canonical_unit3(*c)
    else:
        b_dir = probe_perpendicular(d)
    return Axis.from_floats(*b_dir), Axis.from_floats(*cross3(d, b_dir))


def pencil_turn(l, m, l2) -> tuple[float, float, float]:
    """l2 turned about the common axis of l and m by the angle from l to m.

    It is (l.m) l2 + (l x m) x l2: for unit l and m at angle phi about
    their unit common axis u this is cos(phi) l2 + sin(phi) u x l2, the
    rotation of an l2 perpendicular to u, found with no trigonometry, no
    square root and no normalized axis. Used on mirrors of one pencil, it
    gives the m2 with (l, m) ~ (l2, m2).
    """
    c = dot3(l, m)
    t = cross3(cross3(l, m), l2)
    return c * l2[0] + t[0], c * l2[1] + t[1], c * l2[2] + t[2]


def _common_axis(a, b) -> tuple[float, float, float]:
    c = cross3(a.values, b.values)
    s = norm3(c)
    return c[0] / s, c[1] / s, c[2] / s


def _check_concurrent(mirror, axis) -> None:
    if abs(dot3(mirror.values, axis)) > EPS_COINCIDE:
        raise NotConcurrent("third mirror misses the pencil's common axis")


def reduce_leading_four(w: list, sink: list) -> None:
    """Turn the leading four mirrors of w so that two neighbours coincide.

    The step of both sphere.GreatCircle and Axis words, whose class it
    reads from w. Both pairs are turned in their pencils onto the mirror
    through both common axes (direction axis_kl x axis_mn), which the
    rewrite loop then cancels. The head it gets is freely reduced; it
    records pencil moves only.
    """
    k, l, m, n = w[0], w[1], w[2], w[3]
    cls = type(k)
    axis_kl = _common_axis(k, l)
    axis_mn = _common_axis(m, n)
    link = cross3(axis_kl, axis_mn)
    if norm3(link) <= EPS_COINCIDE:
        # both pairs share one pencil: turn (m, n) so that m lands on l
        n2 = cls.from_floats(*pencil_turn(m.values, l.values, n.values))
        emit(w, sink, Move(PENCIL, 2, (l, n2)))
        return

    # the mirror through both common axes
    mid = cls.from_floats(*link)
    _check_concurrent(mid, axis_kl)
    k2 = cls.from_floats(*pencil_turn(l.values, k.values, mid.values))
    emit(w, sink, Move(PENCIL, 0, (k2, mid)))
    _check_concurrent(mid, axis_mn)
    n2 = cls.from_floats(*pencil_turn(m.values, n.values, mid.values))
    emit(w, sink, Move(PENCIL, 2, (mid, n2)))


def _reduce_leading_three(w: list, sink: list) -> None:
    """Turn the leading three lines of w so that two neighbours coincide.

    Splits the first line into an orthogonal pair whose second member lies
    in the plane of the other two, then turns the coplanar triple by a
    pencil move so that the pair (b, b) is left for the rewrite loop to
    cancel. The head it gets is freely reduced.
    """
    k, l, m = w[0], w[1], w[2]
    plane_normal = canonical_unit3(*cross3(l.values, m.values))
    b, c = split_reflection(k, plane_normal)
    # R_k = R_c . R_b = R_b . R_c (orthogonal pair), insert as [c, b]
    # so the coplanar triple (b, l, m) sits adjacently
    emit(w, sink, Move(POLAR_SPLIT, 0, (c, b)))
    # turn the pair (l, m), now at positions 2 and 3, so that l lands on b
    m2_new = Axis.from_floats(*pencil_turn(w[2].values, b.values, w[3].values))
    emit(w, sink, Move(PENCIL, 2, (b, m2_new)))


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word of line reflections to length at most 2 (0 for identity).

    Two passes of the rewrite loop: the four-to-two step down to three
    lines, then the three-to-two step on what is left. The second pass
    gets the whole current word, so its trace indices stay valid.
    """
    w = normalize(word, coincident, reduce_leading_four, 3, trace)
    return normalize(w, coincident, _reduce_leading_three, 2, trace)


def word_to_rotation(word) -> Rotation:
    """Rotation of a word via normalization (empty: identity; pair: composition)."""
    w = normalize_word(word)
    if len(w) == 0:
        return IDENTITY_ROTATION
    if len(w) == 1:
        return rotation(w[0].values, math.pi)
    return compose_line_reflections(w[0], w[1])


def classification_json(word, dim: int | None = None) -> dict:
    r = word_to_rotation(word)
    if r.is_identity:
        return {"kind": "identity"}
    return {"kind": "rotation", "axis": list(r.axis), "angle": r.angle}


def projective_representative(M) -> np.ndarray:
    """The det +1 member of {M, -M} for an orthogonal 3x3 matrix.

    This realizes the isomorphism between isometries of the projective
    plane and orientation-preserving isometries of the sphere: it is
    idempotent and multiplicative on +-M classes.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or float(np.abs(M.T @ M - np.eye(3)).max()) > EPS_VERIFY:
        raise NotOrthogonal("projective representative needs an orthogonal 3x3 matrix")
    return M if np.linalg.det(M) > 0.0 else -M


def replay_moves(word, moves) -> list:
    return replay(word, moves, coincident)
