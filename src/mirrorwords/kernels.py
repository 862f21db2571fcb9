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

Every kernel also gives the products of all prefixes of one word, each
equal to the kernel's result on that prefix bit for bit: the recurrences
keep their state after each mirror (`prefix_states`), and the O(n) kernel
keeps the levels of its pairwise product (`householder_word_levels`), from
which `levels_prefix_product` rebuilds the product of any prefix.
"""

from __future__ import annotations

import numpy as np

# Largest number of floats in one (c, n, n) stack of mirror maps (512 KB);
# a chunk still holds at least two mirrors when n * n exceeds it.
_CHUNK_ELEMENTS = 1 << 16


PLANE_IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
QUATERNION_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def plane_word_map(lines, start=PLANE_IDENTITY):
    """Affine map (a00, a01, a10, a11, t0, t1) of a word of plane mirrors.

    `lines` yields (nx, ny, d) per mirror, first mirror applied first; the
    map is x -> A x + t with A = [[a00, a01], [a10, a11]]. Mirror i maps x
    to x - 2*(n.x - d)*n, i.e. x -> (I - 2nn^T)x + 2dn. The mirrors act
    after the map `start`.
    """
    a00, a01, a10, a11, t0, t1 = start
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


def prefix_states(kernel, rows, start):
    """[start, kernel(rows[:1], start), ..., kernel(rows, start)], bit for bit.

    A recurrence's state after each row, for the plane and quaternion
    kernels: it runs the kernel one row at a time.
    """
    state = start
    states = [state]
    for row in rows:
        state = kernel((row,), state)
        states.append(state)
    return states


def _chunk(n: int) -> int:
    """The number of n x n mirror maps in one stack."""
    return max(2, _CHUNK_ELEMENTS // (n * n))


def _mirror_stack(u):
    """The (k, n, n) stack of the reflections I - 2uu^T of the rows of u."""
    k, n = u.shape
    H = u[:, :, None] * (-2.0 * u[:, None, :])
    # the diagonal of each flattened n x n map has stride n + 1
    H.reshape(k, n * n)[:, :: n + 1] += 1.0
    return H


def _stack_levels(H):
    """The levels of H[k-1] @ ... @ H[0] of a (k, n, n) stack, k >= 1.

    Level 0 is H; each next level multiplies the neighbouring pairs of the
    one before, one batched matmul, and carries the last matrix of an odd
    count up unchanged; the last level holds the product alone.
    """
    levels = [H]
    while H.shape[0] > 1:
        even = H.shape[0] & ~1
        P = H[1:even:2] @ H[0:even:2]
        if even < H.shape[0]:
            P = np.concatenate((P, H[even:]))
        H = P
        levels.append(H)
    return levels


def householder_word_matrix(normals):
    """Product of hyperplane reflections I - 2nn^T, first row applied first."""
    k, n = normals.shape
    chunk = _chunk(n)
    M = None
    for start in range(0, k, chunk):
        P = _stack_levels(_mirror_stack(normals[start : start + chunk]))[-1][0]
        M = P if M is None else P @ M
    return np.eye(n) if M is None else M


def householder_word_levels(normals):
    """The levels of householder_word_matrix(normals), or None past one chunk.

    A word longer than one stack is folded chunk by chunk, and the levels
    of its chunks do not give its prefixes' products.
    """
    k, n = normals.shape
    if not 0 < k <= _chunk(n):
        return None
    return _stack_levels(_mirror_stack(normals))


def levels_prefix_product(levels, i: int):
    """householder_word_matrix of the first i rows, from the levels of all rows, bit for bit.

    0 < i <= k. The pairwise product of the first i maps agrees with that of
    all k at every level but in its last matrix, which covers the i mod 2^L
    maps past the last whole block of 2^L; that matrix is carried up, or
    multiplied onto the whole block before it, as the levels of i maps
    would do, with at most one matmul a level.
    """
    tail = None
    level = 0
    count = i
    while count > 1:
        if count & 1:
            # the last matrix is carried up; it is whole when no tail is left over
            if tail is None:
                tail = levels[level][count - 1]
        elif tail is not None:
            tail = tail @ levels[level][count - 2]
        count = (count + 1) >> 1
        level += 1
    return levels[level][0] if tail is None else tail


def line_word_quaternion(directions, start=QUATERNION_IDENTITY):
    """Quaternion (w, x, y, z) of a word of 3D line reflections.

    `directions` yields the unit (x, y, z) of each line. A line reflection
    about unit d is the rotation by pi about d, i.e. the quaternion (0, d).
    The word product is q_k * ... * q_1 * start (first applied first,
    leftmost factor last).
    """
    qw, qx, qy, qz = start
    for rx, ry, rz in directions:
        # (0, r) * (qw, qx, qy, qz)
        nw = -rx * qx - ry * qy - rz * qz
        nx = rx * qw + ry * qz - rz * qy
        ny = -rx * qz + ry * qw + rz * qx
        nz = rx * qy - ry * qx + rz * qw
        qw, qx, qy, qz = nw, nx, ny, nz
    return qw, qx, qy, qz
