"""Isometries of the 2-sphere (= O(3)) as words of reflections in great circles.

A great circle is stored by its pole; the reflection is the restriction of
the 3-space reflection in the circle's 2-subspace. Any two distinct great
circles intersect, so only the doubly-transverse case of the plane
reduction survives here: rotate both pairs onto the circle through both
intersection axes and cancel. That step, `so3.reduce_leading_four`, is
shared with SO(3), whose half-turns are negated circle reflections.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels, so3
from .moves import normalize, replay
# perfbench's traced run wraps `coincident` and `apply_move` on every geometry module
from .moves import apply_move  # noqa: F401
from .numerics import EPS_COINCIDE, Direction3, coincident3, cross3, dot3, wrap_angle

IDENTITY = "identity"
REFLECTION = "reflection"
ROTATION = "rotation"
GLIDE = "glide"

KEYWORD = "circle"
ARITY = 3


class GreatCircle(Direction3):
    """Great circle {x on S2 : pole . x = 0}, pole stored with canonical sign.

    The pole is kept as the float tuple `values` (see Direction3).
    """

    __slots__ = ()

    @property
    def pole(self) -> tuple[float, float, float]:
        """`values` under the name perfbench's independent checker reads."""
        return self.values


def mirror_from_floats(values: list[float]) -> GreatCircle:
    """The great circle whose pole is three floats."""
    return GreatCircle.from_floats(*values)


def mirror_json(c: GreatCircle) -> dict:
    return {"pole": list(c.values)}


coincident = coincident3


def word_to_matrix(word) -> np.ndarray:
    """The 3x3 matrix of a word of circle reflections, first mirror applied first.

    The reflection in the circle with pole p is I - 2pp^T = -R_p, minus the
    half-turn about p, so a word of k circles maps to (-1)^k R(q), with q
    the quaternion of the half-turn word of its poles.
    """
    return _signed_rotation(kernels.line_word_quaternion([c.values for c in word]), len(word))


def _signed_rotation(q, k: int) -> np.ndarray:
    """(-1)^k R(q), the matrix of k circles whose poles' half-turn word has quaternion q."""
    w, x, y, z = q
    sign = -1.0 if k & 1 else 1.0
    # 2 / |q|^2 keeps R(q) a rotation when rounding has moved |q| off 1
    s = 2.0 * sign / (w * w + x * x + y * y + z * z)
    sx, sy, sz = s * x, s * y, s * z
    wx, wy, wz = sx * w, sy * w, sz * w
    xx, xy, xz = sx * x, sy * x, sz * x
    yy, yz, zz = sy * y, sz * y, sz * z
    return np.array(
        [
            [sign - (yy + zz), xy - wz, xz + wy],
            [xy + wz, sign - (xx + zz), yz - wx],
            [xz - wy, yz + wx, sign - (xx + yy)],
        ]
    )


def word_oracle(word, dim: int | None = None) -> np.ndarray:
    # looked up at call time: perfbench's traced run wraps `word_to_matrix`
    return word_to_matrix(word)


def prefix_oracles(word, dim: int | None = None, table: bool = True):
    """The function i -> word_oracle(word[:i]), bit for bit.

    With `table`, it reads the quaternion kernel's state after each mirror,
    computed once; without, it computes each prefix's oracle afresh.
    """
    if not table:
        return lambda i: word_to_matrix(word[:i])
    states = kernels.prefix_states(
        kernels.line_word_quaternion, [c.values for c in word], kernels.QUATERNION_IDENTITY
    )
    return lambda i: _signed_rotation(states[i], i)


def oracle_distance(A, B) -> float:
    """Rotation angle of A @ B^T, or the Frobenius distance |A - B| when A @ B^T is improper.

    A rotation angle cannot see a mirror dropped from one word: it reads a
    reflection as angle 0. An improper orthogonal A @ B^T has an eigenvalue
    -1, so its Frobenius distance from I, which |A - B| equals, is at least 2.
    """
    R = (A @ B.T).tolist()
    if dot3(R[0], cross3(R[1], R[2])) < 0.0:
        return float(np.linalg.norm(A - B))
    return so3.rotation_angle(R)


def compose_reflections(l: GreatCircle, m: GreatCircle) -> dict:
    """R_m . R_l: identity when the circles coincide, else a rotation about
    their intersection pair by twice the dihedral angle."""
    r = so3.twice_angle_rotation(l.values, m.values)
    if r.is_identity:
        return {"kind": IDENTITY}
    return {"kind": ROTATION, "axis": list(r.axis), "angle": r.angle}


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word to length at most 3 (2 for even length), oracle-equal."""
    return normalize(word, coincident, so3.reduce_leading_four, 3, trace)


def classification_json(word, dim: int | None = None) -> dict:
    """Normalize and classify: identity, reflection, rotation or glide reflection.

    An odd word is a rotoreflection M = Rot(u, psi) . S(u) with S the
    reflection in the circle polar to u; since -S(u) is the half-turn
    about u, -M is the rotation about u by psi + pi. -M is also R(q) for
    the quaternion q of the half-turn word of the poles (word_to_matrix),
    so axis and glide angle are read off q.
    """
    w = normalize_word(word)
    if len(w) == 0:
        return {"kind": IDENTITY}
    if len(w) == 1:
        return {"kind": REFLECTION, "circle": mirror_json(w[0])}
    if len(w) == 2:
        return compose_reflections(w[0], w[1])
    q = kernels.line_word_quaternion([c.values for c in w])
    r = so3.quaternion_to_rotation(so3.Quaternion(*q))
    psi = wrap_angle(r.angle - math.pi)
    if abs(psi) <= EPS_COINCIDE:
        return {"kind": REFLECTION, "circle": mirror_json(GreatCircle(r.axis))}
    return {"kind": GLIDE, "axis": list(r.axis), "angle": psi}


def replay_moves(word, moves) -> list:
    return replay(word, moves, coincident)
