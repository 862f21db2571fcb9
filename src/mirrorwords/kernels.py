"""Oracle kernels: accumulate a reflection word into a matrix, map or quaternion.

The O(n) kernel builds every hyperplane reflection of the word at once, as
a (k, n, n) stack, and multiplies neighbouring pairs level by level, one
batched matmul per level, until one matrix is left. A long word is folded
in chunks whose stack holds at most _CHUNK_ELEMENTS numbers, so memory
stays bounded at any length. The plane and quaternion kernels are scalar
recurrences that take the mirrors' float triples and return plain floats;
the quaternion kernel serves both SO(3) and S2, whose circle reflections
are negated half-turns. No kernel calls the rewrite code, so each result
is an independent check of a normal form.
"""

from __future__ import annotations

import numpy as np

# Largest number of floats in one (c, n, n) stack of mirror maps (512 KB);
# a chunk still holds at least two mirrors when n * n exceeds it.
_CHUNK_ELEMENTS = 1 << 16


def plane_word_map(lines):
    """Affine map (a00, a01, a10, a11, t0, t1) of a word of plane mirrors.

    `lines` yields (nx, ny, d) per mirror, first mirror applied first; the
    map is x -> A x + t with A = [[a00, a01], [a10, a11]]. Mirror i maps x
    to x - 2*(n.x - d)*n, i.e. x -> (I - 2nn^T)x + 2dn.
    """
    a00 = 1.0
    a01 = 0.0
    a10 = 0.0
    a11 = 1.0
    t0 = 0.0
    t1 = 0.0
    for nx, ny, d in lines:
        # compose: new = H . old, H = (I - 2nn^T, 2dn)
        w0 = nx * t0 + ny * t1 - d
        t0 -= 2.0 * nx * w0
        t1 -= 2.0 * ny * w0
        c0 = nx * a00 + ny * a10
        c1 = nx * a01 + ny * a11
        a00 -= 2.0 * nx * c0
        a01 -= 2.0 * nx * c1
        a10 -= 2.0 * ny * c0
        a11 -= 2.0 * ny * c1
    return a00, a01, a10, a11, t0, t1


def _stack_product(H):
    """H[k-1] @ ... @ H[0] of a (k, n, n) stack, k >= 1, by pairwise levels.

    At a level of odd count the last matrix is carried up unchanged.
    """
    while H.shape[0] > 1:
        even = H.shape[0] & ~1
        P = H[1:even:2] @ H[0:even:2]
        if even < H.shape[0]:
            P = np.concatenate((P, H[even:]))
        H = P
    return H[0]


def householder_word_matrix(normals):
    """Product of hyperplane reflections I - 2nn^T, first row applied first."""
    k, n = normals.shape
    chunk = max(2, _CHUNK_ELEMENTS // (n * n))
    M = None
    for start in range(0, k, chunk):
        u = normals[start : start + chunk]
        H = u[:, :, None] * (-2.0 * u[:, None, :])
        # the diagonal of each flattened n x n map has stride n + 1
        H.reshape(len(u), n * n)[:, :: n + 1] += 1.0
        P = _stack_product(H)
        M = P if M is None else P @ M
    return np.eye(n) if M is None else M


def line_word_quaternion(directions):
    """Quaternion (w, x, y, z) of a word of 3D line reflections.

    `directions` yields the unit (x, y, z) of each line. A line reflection
    about unit d is the rotation by pi about d, i.e. the quaternion (0, d).
    The word product is q_k * ... * q_1 (first applied first, leftmost
    factor last).
    """
    qw = 1.0
    qx = 0.0
    qy = 0.0
    qz = 0.0
    for rx, ry, rz in directions:
        # (0, r) * (qw, qx, qy, qz)
        nw = -rx * qx - ry * qy - rz * qz
        nx = rx * qw + ry * qz - rz * qy
        ny = -rx * qz + ry * qw + rz * qx
        nz = rx * qy - ry * qx + rz * qw
        qw, qx, qy, qz = nw, nx, ny, nz
    return qw, qx, qy, qz
