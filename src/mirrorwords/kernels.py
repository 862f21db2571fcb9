"""Oracle kernels: accumulate a reflection word into a matrix or quaternion.

Each kernel is a plain loop over the word that never calls the rewrite
code, so its result is an independent check of a normal form.
"""

from __future__ import annotations

import numpy as np


def plane_word_map(normals, offsets):
    """Affine map (A, t) of a word of plane mirrors, first mirror applied first.

    Mirror i maps x to x - 2*(n.x - d)*n, i.e. x -> (I - 2nn^T)x + 2dn.
    """
    a00 = 1.0
    a01 = 0.0
    a10 = 0.0
    a11 = 1.0
    t0 = 0.0
    t1 = 0.0
    for i in range(normals.shape[0]):
        nx = normals[i, 0]
        ny = normals[i, 1]
        d = offsets[i]
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
    A = np.empty((2, 2))
    A[0, 0] = a00
    A[0, 1] = a01
    A[1, 0] = a10
    A[1, 1] = a11
    t = np.empty(2)
    t[0] = t0
    t[1] = t1
    return A, t


def householder_word_matrix(normals):
    """Product of hyperplane reflections I - 2nn^T, first row applied first."""
    n = normals.shape[1]
    M = np.eye(n)
    for i in range(normals.shape[0]):
        u = normals[i]
        w = np.zeros(n)
        for c in range(n):
            acc = 0.0
            for r in range(n):
                acc += u[r] * M[r, c]
            w[c] = acc
        for r in range(n):
            ur2 = 2.0 * u[r]
            for c in range(n):
                M[r, c] -= ur2 * w[c]
    return M


def line_word_matrix(directions):
    """Product of 3D line reflections 2dd^T - I, first row applied first."""
    M = np.eye(3)
    for i in range(directions.shape[0]):
        u = directions[i]
        w = np.zeros(3)
        for c in range(3):
            acc = 0.0
            for r in range(3):
                acc += u[r] * M[r, c]
            w[c] = acc
        for r in range(3):
            ur2 = 2.0 * u[r]
            for c in range(3):
                M[r, c] = ur2 * w[c] - M[r, c]
    return M


def line_word_quaternion(directions):
    """Quaternion (w,x,y,z) of a word of 3D line reflections.

    A line reflection about unit d is the rotation by pi about d, i.e. the
    quaternion (0, d). The word product is q_k * ... * q_1 (first applied
    first, leftmost factor last).
    """
    qw = 1.0
    qx = 0.0
    qy = 0.0
    qz = 0.0
    for i in range(directions.shape[0]):
        rx = directions[i, 0]
        ry = directions[i, 1]
        rz = directions[i, 2]
        # (0, r) * (qw, qx, qy, qz)
        nw = -rx * qx - ry * qy - rz * qz
        nx = rx * qw + ry * qz - rz * qy
        ny = -rx * qz + ry * qw + rz * qx
        nz = rx * qy - ry * qx + rz * qw
        qw, qx, qy, qz = nw, nx, ny, nz
    q = np.empty(4)
    q[0] = qw
    q[1] = qx
    q[2] = qy
    q[3] = qz
    return q
