"""Directed great-circle arcs encoding rotations, and the triangle rule.

An arc from tail to head encodes the rotation R_b . R_a where a and b are
the lines through the endpoints; the rotation angle is twice the arc
length. Sliding an arc along its great circle and replacing the head by
its antipode leave the rotation unchanged, which is exactly the freedom
the triangle rule exploits: slide two arcs until head meets tail on the
other circle and close the triangle.
"""

from __future__ import annotations

import math

from . import so3
from .numerics import (
    EPS_COINCIDE,
    DegenerateArc,
    canonical_unit3,
    components_n,
    cross3,
    dot3,
    norm3,
    unit_n,
)

_ANCHOR = (1.0, 0.0, 0.0)


def _unit_point(p) -> tuple[float, float, float]:
    return tuple(unit_n(components_n(p, 3)))


def _points_close(a, b, sign: float = 1.0) -> bool:
    """|a - sign b| <= EPS_COINCIDE; sign -1.0 tests for antipodal points."""
    d0 = a[0] - sign * b[0]
    d1 = a[1] - sign * b[1]
    d2 = a[2] - sign * b[2]
    return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2) <= EPS_COINCIDE


class Arc:
    """Directed arc on a great circle; tail and head must not be antipodal.

    The endpoints are unit 3-vectors as float tuples. The antipodal
    configuration would encode a full turn, i.e. the identity, whose
    canonical arc is the degenerate one with tail == head.
    """

    __slots__ = ("tail", "head")

    def __init__(self, tail, head):
        t = _unit_point(tail)
        h = _unit_point(head)
        if _points_close(t, h, -1.0):
            raise DegenerateArc("antipodal endpoints encode the identity; use tail == head")
        self.tail = t
        self.head = h

    @property
    def is_identity(self) -> bool:
        return _points_close(self.tail, self.head)

    def circle_axis(self) -> tuple[float, float, float]:
        """Unit axis of the arc's great circle, oriented tail towards head."""
        c = cross3(self.tail, self.head)
        n = norm3(c)
        if n <= EPS_COINCIDE:
            raise DegenerateArc("the degenerate arc lies on no unique great circle")
        return c[0] / n, c[1] / n, c[2] / n

    def __repr__(self):
        return f"Arc({list(self.tail)!r}, {list(self.head)!r})"


def identity_arc() -> Arc:
    """The degenerate arc of the identity, anchored at the probe point."""
    return Arc(_ANCHOR, _ANCHOR)


def arc_to_rotation(arc: Arc) -> so3.Rotation:
    """The rotation encoded by an arc: twice the arc length about its axis."""
    return so3.twice_angle_rotation(arc.tail, arc.head)


def _turn(v, axis, angle: float) -> tuple[float, float, float]:
    """v turned about the unit axis by angle, for a v perpendicular to the axis."""
    c, s = math.cos(angle), math.sin(angle)
    t = cross3(axis, v)
    return c * v[0] + s * t[0], c * v[1] + s * t[1], c * v[2] + s * t[2]


def rotation_to_arc(r: so3.Rotation) -> Arc:
    """A half-angle arc on the circle polar to the axis, tail chosen by probe."""
    if r.is_identity:
        return identity_arc()
    tail = so3.probe_perpendicular(r.axis)
    return Arc(tail, _turn(tail, r.axis, r.angle / 2.0))


def slide(arc: Arc, delta: float) -> Arc:
    """Glide the arc along its great circle; the encoded rotation is unchanged."""
    if arc.is_identity:
        return arc
    axis = arc.circle_axis()
    return Arc(_turn(arc.tail, axis, delta), _turn(arc.head, axis, delta))


def antipode_head(arc: Arc) -> Arc:
    """Replace the head by its antipodal point; an involution on arcs."""
    if arc.is_identity:
        raise DegenerateArc("the identity arc has no antipodal-head variant")
    return Arc(arc.tail, tuple(-x for x in arc.head))


def _closing_arc(a, d) -> Arc:
    # the closing pair may degenerate two ways: same point (zero rotation)
    # or antipodal points (the two boundary lines coincide, a full turn)
    if _points_close(a, d) or _points_close(a, d, -1.0):
        return Arc(a, a)
    return Arc(a, d)


def triangle_compose(u: Arc, v: Arc) -> Arc:
    """Arc of the composition (v after u) by the head-meets-tail triangle rule.

    On distinct circles both arcs slide so that u's head and v's tail meet
    at an intersection point of the circles; the closing arc from u's tail
    to v's head encodes the composite rotation. On a shared circle the
    slide alone suffices. Each slide is a pencil turn (so3.pencil_turn):
    the turn that takes one endpoint onto the meeting point, applied to
    the other endpoint, with no angle.
    """
    if u.is_identity:
        return v
    if v.is_identity:
        return u
    axis_u = u.circle_axis()
    axis_v = v.circle_axis()
    link = cross3(axis_u, axis_v)
    if norm3(link) <= EPS_COINCIDE:
        # same great circle: bring v's tail onto u's head
        return _closing_arc(u.tail, so3.pencil_turn(v.tail, u.head, v.head))
    meet = canonical_unit3(*link)
    tail = so3.pencil_turn(u.head, meet, u.tail)
    head = so3.pencil_turn(v.tail, meet, v.head)
    return _closing_arc(tail, head)


def arcs_to_svg(arcs) -> str:
    """Orthographic (view down +z) SVG rendering of arcs on the unit sphere."""
    size = 400
    cx = cy = size / 2.0
    radius = size * 0.42

    def project(p):
        return cx + radius * p[0], cy - radius * p[1]

    paths = []
    for arc in arcs:
        if arc.is_identity:
            x, y = project(arc.tail)
            paths.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#c0392b"/>'
            )
            continue
        axis = arc.circle_axis()
        total = math.atan2(norm3(cross3(arc.tail, arc.head)), dot3(arc.tail, arc.head))
        steps = 32
        pts = []
        for i in range(steps + 1):
            q = _turn(arc.tail, axis, total * i / steps)
            x, y = project(q)
            pts.append(f"{x:.2f} {y:.2f}")
        d = "M " + pts[0] + " L " + " L ".join(pts[1:])
        paths.append(
            '<path fill="none" stroke="#c0392b" stroke-width="2" '
            f'marker-end="url(#arrowhead)" d="{d}"/>'
        )
    body = "\n  ".join(paths)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" viewBox="0 0 {size} {size}">
  <defs>
    <marker id="arrowhead" markerWidth="8" markerHeight="6" refX="7" refY="3" orient="auto">
      <path d="M0,0 L8,3 L0,6 z" fill="#c0392b"/>
    </marker>
  </defs>
  <circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" stroke="#888" stroke-width="1"/>
  {body}
</svg>
"""
