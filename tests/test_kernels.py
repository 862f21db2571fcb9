"""The oracle kernels must agree with plain numpy products of the mirror maps."""

import ast
from pathlib import Path

import numpy as np
import pytest

from mirrorwords import kernels

TOL = 1e-12


def _random_normals(rng, k, n):
    v = rng.standard_normal((k, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _plane_product(normals, offsets):
    """Homogeneous 3x3 product of x -> (I - 2nn^T)x + 2dn, first mirror first."""
    M = np.eye(3)
    for u, d in zip(normals, offsets):
        H = np.eye(3)
        H[:2, :2] -= 2.0 * np.outer(u, u)
        H[:2, 2] = 2.0 * d * u
        M = H @ M
    return M[:2, :2], M[:2, 2]


def _plane_kernel(normals, offsets):
    """kernels.plane_word_map on (nx, ny, d) triples, its six floats as (A, t)."""
    a00, a01, a10, a11, t0, t1 = kernels.plane_word_map(
        (nx, ny, d) for (nx, ny), d in zip(normals.tolist(), offsets.tolist())
    )
    return np.array([[a00, a01], [a10, a11]]), np.array([t0, t1])


def _matrix_product(normals, mirror):
    M = np.eye(normals.shape[1])
    for u in normals:
        M = mirror(u) @ M
    return M


def _quaternion_product(dirs):
    """Product q_k ... q_1 of the pure quaternions (0, d), via left-multiplication matrices."""
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for x, y, z in dirs:
        L = np.array([[0.0, -x, -y, -z], [x, 0.0, -z, y], [y, z, 0.0, -x], [z, -y, x, 0.0]])
        q = L @ q
    return q


def test_plane_word_map_matches_pure():
    rng = np.random.default_rng(10)
    for _ in range(100):
        k = int(rng.integers(0, 10))
        normals = _random_normals(rng, k, 2)
        offsets = rng.uniform(-10, 10, size=k)
        A, t = _plane_kernel(normals, offsets)
        A2, t2 = _plane_product(normals, offsets)
        np.testing.assert_allclose(A, A2, rtol=0, atol=TOL)
        np.testing.assert_allclose(t, t2, rtol=0, atol=TOL)


def test_householder_word_matrix_matches_pure():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        normals = _random_normals(rng, int(rng.integers(0, 8)), n)
        np.testing.assert_allclose(
            kernels.householder_word_matrix(normals),
            _matrix_product(normals, lambda u: np.eye(n) - 2.0 * np.outer(u, u)),
            rtol=0,
            atol=TOL,
        )


def test_line_word_kernels_match_pure():
    rng = np.random.default_rng(12)
    for _ in range(100):
        dirs = _random_normals(rng, int(rng.integers(0, 8)), 3)
        np.testing.assert_allclose(
            kernels.line_word_quaternion(dirs.tolist()), _quaternion_product(dirs), rtol=0, atol=TOL
        )


def test_empty_words_are_identities():
    assert kernels.plane_word_map([]) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    np.testing.assert_array_equal(
        kernels.householder_word_matrix(np.zeros((0, 4))), np.eye(4)
    )
    assert kernels.line_word_quaternion([]) == (1.0, 0.0, 0.0, 0.0)


def test_single_mirror_values():
    # the scalar kernels return plain floats, not numpy scalars
    m = kernels.plane_word_map([(1.0, 0.0, 2.0)])
    assert all(type(x) is float for x in m)
    np.testing.assert_allclose(m, [-1.0, 0.0, 0.0, 1.0, 4.0, 0.0])

    H = kernels.householder_word_matrix(np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(H, np.diag([1.0, 1.0, -1.0]))

    q = kernels.line_word_quaternion([(0.0, 0.0, 1.0)])
    assert all(type(x) is float for x in q)
    np.testing.assert_allclose(q, [0.0, 0.0, 0.0, 1.0])


def test_determinant_parity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(0, 9))
        normals = _random_normals(rng, k, 3)
        M = kernels.householder_word_matrix(normals)
        assert np.linalg.det(M) == (-1.0) ** k or abs(
            np.linalg.det(M) - (-1.0) ** k
        ) < 1e-12


LENGTHS = [0, 1, 2, 3, 5, 255, 1000]


def _chunk(n):
    """Mirrors per chunk of the matrix kernels at dimension n."""
    return max(2, kernels._CHUNK_ELEMENTS // (n * n))


def _householder(u):
    return np.eye(u.shape[0]) - 2.0 * np.outer(u, u)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("length", LENGTHS)
def test_householder_word_matrix_at_length(length, n):
    normals = _random_normals(np.random.default_rng(1000 * n + length), length, n)
    np.testing.assert_allclose(
        kernels.householder_word_matrix(normals),
        _matrix_product(normals, _householder),
        rtol=0,
        atol=TOL,
    )


@pytest.mark.parametrize("n", [3, 8, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_householder_word_matrix_at_chunk_boundary(n, offset):
    length = _chunk(n) + offset
    normals = _random_normals(np.random.default_rng(n + offset), length, n)
    np.testing.assert_allclose(
        kernels.householder_word_matrix(normals),
        _matrix_product(normals, _householder),
        rtol=0,
        atol=TOL,
    )


@pytest.mark.parametrize("length", LENGTHS + [_chunk(3) - 1, _chunk(3), _chunk(3) + 1])
def test_line_word_kernels_at_length(length):
    dirs = _random_normals(np.random.default_rng(length), length, 3)
    np.testing.assert_allclose(
        kernels.line_word_quaternion(dirs.tolist()), _quaternion_product(dirs), rtol=0, atol=TOL
    )


@pytest.mark.parametrize("length", LENGTHS)
def test_plane_word_map_at_length(length):
    rng = np.random.default_rng(length)
    normals = _random_normals(rng, length, 2)
    offsets = rng.uniform(-10, 10, size=length)
    A, t = _plane_kernel(normals, offsets)
    A2, t2 = _plane_product(normals, offsets)
    np.testing.assert_allclose(A, A2, rtol=0, atol=TOL)
    np.testing.assert_allclose(t, t2, rtol=0, atol=TOL)


def test_kernels_import_only_numpy():
    """The oracle stays independent of the rewrite code: kernels imports numpy alone."""
    tree = ast.parse(Path(kernels.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "kernels must not import from its own package"
            imported.add(node.module)
    assert imported - {"__future__"} == {"numpy"}
