"""Shared numeric substrate: tolerances, canonical directions, angle helpers.

Every mirror given by a unit vector up to sign is a Direction: it stores
canonical_unit_n of its input (canonical_unit3 in 3-space, the same floats)
as the tuple `values`, so that one geometric mirror has exactly one stored
representative, which is what makes exact equality usable in golden tests.
unit_n is the one normalization rule. Everything here computes in plain
floats; the module imports no numpy.
"""

from __future__ import annotations

import math

# Predicate tolerance (is this the same line? are these parallel?) must be
# stricter than the verification tolerance that bounds accumulated oracle
# residuals, otherwise a predicate could accept what verification rejects.
EPS_COINCIDE = 1e-9
EPS_VERIFY = 1e-8

# Relative norm deviation below which a vector is treated as already unit;
# skipping the redundant division makes unit_n exactly idempotent.
_UNIT_SLACK = 1e-13


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(GeometryError):
    """A vector was too short to define a direction."""


class NotConcurrent(GeometryError):
    """Mirrors do not belong to a common pencil."""


class NotOrthogonal(GeometryError):
    """A matrix claimed to be orthogonal is not, within tolerance."""


class WrongLength(GeometryError):
    """A word has the wrong number of mirrors for the requested operation."""


class IdentityInput(GeometryError):
    """The identity has no reflection-pair or arc representation here."""


class DegenerateArc(GeometryError):
    """The degenerate (identity) arc does not support this move."""


class DegenerateSteering(GeometryError):
    """O(n) steering found no pair to cancel: the input is too near degenerate."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t > math.pi:
        t -= 2.0 * math.pi
    elif t <= -math.pi:
        t += 2.0 * math.pi
    return t


def shown(v) -> str:
    """repr(v) for the message of a rejected input.

    repr of an int past 4 300 digits raises ValueError (the interpreter's
    limit on integer string conversion); such an input is named by its type.
    """
    try:
        return repr(v)
    except ValueError:
        return f"<{type(v).__name__} too long to print>"


# float() reads these as text ("1", b"1"), and a whole one unpacks into
# characters or ints, so neither a component nor a vector may be one
TEXT_TYPES = (str, bytes, bytearray)


def components3(v) -> tuple[float, float, float]:
    """The three components of a 3-vector as floats; DegenerateInput otherwise."""
    # a whole string or bytes would unpack into characters or ints
    if type(v) is not tuple and isinstance(v, TEXT_TYPES):
        raise DegenerateInput(f"a 3-vector needs numeric components: {shown(v)}")
    try:
        x, y, z = v
        if isinstance(x, TEXT_TYPES) or isinstance(y, TEXT_TYPES) or isinstance(z, TEXT_TYPES):
            raise TypeError
        return float(x), float(y), float(z)
    except (TypeError, ValueError):
        raise DegenerateInput(
            f"a 3-vector needs exactly three numeric components: {shown(v)}"
        ) from None
    except OverflowError:  # an int past the float range; its repr may exceed the digit limit
        raise DegenerateInput("a 3-vector needs components in the float range") from None


def canonical_unit3(x: float, y: float, z: float) -> tuple[float, float, float]:
    """canonical_unit_n of the 3-vector (x, y, z), without building lists.

    The same floats, bit for bit; it is kept because the S2 and SO(3)
    rewrites build a 3-vector mirror for every move they record.
    """
    norm = math.sqrt(x * x + y * y + z * z)
    # the common case first: a norm that passes both tests below
    if not EPS_COINCIDE < norm < math.inf:
        if norm == math.inf and math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            # finite components whose squares overflow still define a direction
            top = max(abs(x), abs(y), abs(z))
            x, y, z = x / top, y / top, z / top
            norm = math.sqrt(x * x + y * y + z * z)
        if norm <= EPS_COINCIDE:
            raise DegenerateInput(f"zero vector cannot define a direction: {(x, y, z)!r}")
        if not norm < math.inf:  # also false for NaN
            raise DegenerateInput(
                f"vector with a non-finite norm cannot define a direction: {(x, y, z)!r}"
            )
    if abs(norm - 1.0) > _UNIT_SLACK:
        x, y, z = x / norm, y / norm, z / norm
    # the first component above eps decides the sign; a unit vector has one
    if abs(x) > EPS_COINCIDE:
        flip = x < 0.0
    elif abs(y) > EPS_COINCIDE:
        flip = y < 0.0
    else:
        flip = z < 0.0
    if flip:
        x, y, z = -x, -y, -z
    # +0.0 uniformly, as in canonical_unit_n
    return x + 0.0, y + 0.0, z + 0.0


def components_n(v) -> list[float]:
    """The components of a flat, non-empty vector as floats; DegenerateInput otherwise."""
    if type(v) is not list:
        if isinstance(v, TEXT_TYPES):
            raise DegenerateInput(f"a vector needs numeric components: {shown(v)}")
        # an array's tolist() nests its rows, which float() then rejects
        tolist = getattr(v, "tolist", None)
        if tolist is not None:
            v = tolist()
    out = []
    try:
        for x in v:
            if isinstance(x, TEXT_TYPES):
                raise TypeError
            out.append(float(x))
    except (TypeError, ValueError):
        raise DegenerateInput(f"a vector needs flat, numeric components: {shown(v)}") from None
    except OverflowError:  # an int past the float range; its repr may exceed the digit limit
        raise DegenerateInput("a vector needs components in the float range") from None
    if not out:
        raise DegenerateInput("an empty vector cannot define a direction")
    return out


def dot_n(p, q) -> float:
    """Dot product of two float sequences, summed left to right.

    An explicit loop rather than sum(), which is compensated from Python
    3.12 on and would tie the result's last bits to the Python version.
    """
    d = 0.0
    for a, b in zip(p, q):
        d += a * b
    return d


def unit_n(v: list[float]) -> list[float]:
    """v scaled to unit length; DegenerateInput on a (near-)zero or non-finite norm.

    The squared norm is summed left to right (dot_n). v is divided only
    when its norm is off unit by more than _UNIT_SLACK, so a unit vector
    comes back as it is.
    """
    return unit_from_square(v, dot_n(v, v))


def unit_from_square(v: list[float], square: float) -> list[float]:
    """unit_n(v), bit for bit, for a caller that already has square = dot_n(v, v)."""
    norm = math.sqrt(square)
    # the common case first: a norm that passes both tests below
    if not EPS_COINCIDE < norm < math.inf:
        if square == math.inf and all(map(math.isfinite, v)):
            # finite components whose squares overflow still define a direction
            top = max(map(abs, v))
            v = [x / top for x in v]
            norm = math.sqrt(dot_n(v, v))
        if norm <= EPS_COINCIDE:
            raise DegenerateInput(f"zero vector cannot define a direction: {v!r}")
        if not norm < math.inf:  # also false for NaN
            raise DegenerateInput(f"vector with a non-finite norm cannot define a direction: {v!r}")
    if abs(norm - 1.0) > _UNIT_SLACK:
        v = [x / norm for x in v]
    return v


def canonical_sign_n(v: list[float]) -> tuple[float, ...]:
    """v with the sign fixed, as a tuple of +0.0-clean floats.

    The first component above EPS_COINCIDE is made positive, so v and -v
    give the same tuple.
    """
    # the first component above eps decides the sign; a unit vector has one
    for x in v:
        if abs(x) > EPS_COINCIDE:
            if x < 0.0:
                return tuple([-y + 0.0 for y in v])
            break
    # +0.0 uniformly: -0.0 components would display oddly
    return tuple([y + 0.0 for y in v])


def canonical_unit_n(v: list[float]) -> tuple[float, ...]:
    """unit_n of a list of floats with the sign fixed (canonical_sign_n)."""
    return canonical_sign_n(unit_n(v))


class Direction:
    """An unsigned direction: canonical_unit_n of the input, as a tuple of floats.

    Base of the mirrors given by a unit vector up to sign (orthon.Hyperplane,
    and through Direction3 so3.Axis and sphere.GreatCircle). The tuple
    `values` is what the rewrite computes with; equality and hash go by
    it, within one mirror class.
    """

    __slots__ = ("values",)

    def __init__(self, v):
        self.values = canonical_unit_n(components_n(v))

    @classmethod
    def from_square(cls, v: list[float], square: float):
        """cls(v), bit for bit, for a list of floats v whose dot_n(v, v) is square.

        For a rewrite that has summed the squares already: it skips
        components_n and the second sum.
        """
        d = object.__new__(cls)
        d.values = canonical_sign_n(unit_from_square(v, square))
        return d

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.values)!r})"


class Direction3(Direction):
    """A Direction in 3-space, built by the 3-vector path canonical_unit3."""

    __slots__ = ()

    def __init__(self, v):
        self.values = canonical_unit3(*components3(v))

    @classmethod
    def from_floats(cls, x: float, y: float, z: float):
        """cls((x, y, z)), bit for bit, for three floats: it skips components3.

        For a rewrite step, which builds its mirrors from floats it computed.
        """
        d = object.__new__(cls)
        d.values = canonical_unit3(x, y, z)
        return d


# The 3-vector helpers below take any indexable 3-vectors (tuples, arrays)
# and compute in plain floats: numpy's per-call overhead dominates on
# single 3-vectors. Vectors come back as tuples.


def cross3(a, b) -> tuple[float, float, float]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot3(a, b) -> float:
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def norm3(a) -> float:
    return math.sqrt(float(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]))


def coincident3(a: Direction3, b: Direction3) -> bool:
    """True when two 3-vector mirrors span the same line, within EPS_COINCIDE.

    so3 and sphere bind it as their `coincident`.
    """
    ax, ay, az = a.values
    bx, by, bz = b.values
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    return math.sqrt(cx * cx + cy * cy + cz * cz) <= EPS_COINCIDE
