"""Independent eigen-analysis oracles used to cross-check classifications.

These deliberately avoid the library's own code paths: affine maps are
composed with plain numpy, classification reads numpy eigendecompositions.
Helpers that only tests need live here too: a rotation's quaternion, the
angle between two unoriented lines, the matrix rebuilt from an O(n)
spectral split, and arrays of a mirror's floats and of a plane isometry.
"""

import math

import numpy as np

from mirrorwords.so3 import Quaternion

IDENTITY_QUATERNION = Quaternion(1.0, 0.0, 0.0, 0.0)


def vector(mirror) -> np.ndarray:
    """A mirror's float tuple `values` as an array: its pole, axis or normal."""
    return np.array(mirror.values)


def affine(iso):
    """(A, t) of a plane.Isometry x -> A x + t, as arrays."""
    return np.array([[iso.a00, iso.a01], [iso.a10, iso.a11]]), np.array([iso.t0, iso.t1])


def rotation_to_quaternion(r):
    """The unit quaternion of an (axis, angle) rotation."""
    h = r.angle / 2.0
    s = math.sin(h)
    return Quaternion(math.cos(h), s * r.axis[0], s * r.axis[1], s * r.axis[2])


def angle_between_directions(u, v) -> float:
    """Unsigned angle in [0, pi/2] between the unoriented lines spanned by u, v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = float(u @ v)
    w = u - c * v
    s = math.sqrt(float(w @ w))
    return math.atan2(s, abs(c))


def reassemble(split):
    """Rebuild the orthogonal matrix from its spectral blocks."""
    n = split.dimension
    M = np.zeros((n, n))
    for b in split.blocks:
        if b.kind == "fixed":
            M += b.basis.T @ b.basis
        elif b.kind == "negated":
            M -= b.basis.T @ b.basis
        else:
            c = math.cos(b.angle)
            s = math.sin(b.angle)
            R = np.array([[c, -s], [s, c]])
            M += b.basis.T @ R @ b.basis
    return M


def plane_mirror_map(normal, offset):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return np.eye(2) - 2.0 * np.outer(n, n), 2.0 * float(offset) * n


def plane_word_map(word):
    A, t = np.eye(2), np.zeros(2)
    for line in word:  # first mirror acts first
        Ai, ti = plane_mirror_map([line.nx, line.ny], line.offset)
        A = Ai @ A
        t = Ai @ t + ti
    return A, t


def classify_plane_map(A, t, eps=1e-8):
    """(kind, payload...) from eigen-analysis of an orthogonal affine map."""
    if np.linalg.det(A) > 0:
        if np.linalg.norm(A - np.eye(2)) <= eps:
            if np.linalg.norm(t) <= eps:
                return ("identity",)
            return ("translation", t)
        angle = math.atan2(A[1, 0], A[0, 0])
        center = np.linalg.solve(np.eye(2) - A, t)
        return ("rotation", center, angle)
    vals, vecs = np.linalg.eigh(A)
    assert vals[0] < 0 < vals[1]
    u = vecs[:, 0]  # eigenvalue -1: axis normal
    v = vecs[:, 1]  # eigenvalue +1: axis direction
    g = float(v @ t)
    d = float(u @ t) / 2.0
    if abs(g) <= eps:
        return ("reflection", u, d)
    return ("glide", u, d, g * v)


def rotation_matrix(r):
    """Rotation matrix of an (axis, angle) rotation, by the Rodrigues formula."""
    c = math.cos(r.angle)
    s = math.sin(r.angle)
    k = r.axis
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return c * np.eye(3) + s * K + (1.0 - c) * np.outer(k, k)


def householder(n):
    """Reflection in the hyperplane with unit normal n: I - 2nn^T."""
    n = np.asarray(n, dtype=float)
    return np.eye(n.shape[0]) - 2.0 * np.outer(n, n)


def pair_product_distance(a, b, c, d):
    """Frobenius distance |H_b H_a - H_d H_c| of two pairs of hyperplane normals."""
    return float(np.linalg.norm(householder(b) @ householder(a) - householder(d) @ householder(c)))


def plane_singular_value(a, b, c, d):
    """Third singular value of the four stacked normals: how far they leave a 2-plane."""
    sv = np.linalg.svd(np.array([a, b, c, d], dtype=float), compute_uv=False)
    return float(sv[2]) if len(sv) > 2 else 0.0


def line_reflection_matrix(axis):
    """Half-turn about a line through the origin: 2dd^T - I, det +1, squares to I."""
    d = vector(axis)
    return 2.0 * np.outer(d, d) - np.eye(3)


def so3_word_matrix(word):
    """Product of the half-turns of an SO(3) word, first mirror applied first."""
    M = np.eye(3)
    for a in word:
        M = line_reflection_matrix(a) @ M
    return M


def rotation_matrix_distance(A, B):
    """Rotation angle of A @ B^T, from its skew part and trace (accurate near zero)."""
    R = np.asarray(A) @ np.asarray(B).T
    s = float(np.linalg.norm([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])) / 2.0
    c = (float(np.trace(R)) - 1.0) / 2.0
    return abs(math.atan2(s, c))


def sphere_word_matrix(word):
    M = np.eye(3)
    for c in word:
        p = vector(c)
        M = (np.eye(3) - 2.0 * np.outer(p, p)) @ M
    return M


def _real_unit_eigenvector(M, eigenvalue, eps=1e-6):
    vals, vecs = np.linalg.eig(M)
    idx = int(np.argmin(np.abs(vals - eigenvalue)))
    assert abs(vals[idx] - eigenvalue) < eps
    v = np.real(vecs[:, idx])
    return v / np.linalg.norm(v)


def classify_sphere_matrix(M, eps=1e-8):
    """(kind, payload...) from eigen-analysis of an orthogonal 3x3 matrix."""
    skew = np.array(
        [M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]]
    ) / 2.0
    if np.linalg.det(M) > 0:
        if np.linalg.norm(M - np.eye(3)) <= eps:
            return ("identity",)
        axis = _real_unit_eigenvector(M, 1.0)
        s = float(skew @ axis)
        c = (np.trace(M) - 1.0) / 2.0
        return ("rotation", axis, math.atan2(s, c))
    if np.linalg.norm(M + np.eye(3)) <= eps:
        return ("glide", None, math.pi)  # the antipodal map: axis arbitrary
    axis = _real_unit_eigenvector(M, -1.0)
    s = float(skew @ axis)
    c = (np.trace(M) + 1.0) / 2.0
    psi = math.atan2(s, c)
    if abs(psi) <= eps:
        return ("reflection", axis)
    return ("glide", axis, psi)


def rotation_from_matrix_eig(M):
    """(axis, signed angle) of a rotation matrix via numpy eigendecomposition."""
    axis = _real_unit_eigenvector(M, 1.0)
    skew = np.array(
        [M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]]
    ) / 2.0
    s = float(skew @ axis)
    c = (np.trace(M) - 1.0) / 2.0
    return axis, math.atan2(s, c)


def same_direction(u, v, eps=1e-8):
    u = np.asarray(u)
    v = np.asarray(v)
    return min(np.linalg.norm(u - v), np.linalg.norm(u + v)) <= eps


def same_axis_angle(axis1, angle1, axis2, angle2, eps=1e-8):
    """Equality of rotations given as (axis, angle) pairs, sign-insensitive."""
    q1 = _quat(axis1, angle1)
    q2 = _quat(axis2, angle2)
    return min(np.linalg.norm(q1 - q2), np.linalg.norm(q1 + q2)) <= eps


def _quat(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    h = angle / 2.0
    return np.array([math.cos(h), *(math.sin(h) * axis)])


def quaternion_matrix(q):
    """Rotation matrix of a unit quaternion (w, x, y, z), by the textbook formula."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
