"""O(n) as words of hyperplane reflections through the origin.

Decomposition rests on the spectral split of an orthogonal map into
fixed directions, negated directions and rotation planes, read off one
symmetric eigensolve of M + M^T (numpy only); each rotation plane costs
two mirrors, each negated direction one, so every element is a word of
at most n mirrors. The (n+1)-to-(n-1) reduction is performed
as an explicit chain of single pencil and involution moves, so the whole
rewrite can be replayed and audited step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernels
from .moves import INVOLUTION, PENCIL, Move, apply_move, emit, normalize, replay
from .numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    DegenerateSteering,
    Direction,
    NotOrthogonal,
    WrongLength,
    dot_n,
)

# Steering starts at the first mirror whose coefficient in the normals'
# linear dependency (a unit vector) exceeds this. It also sets where the
# dependency stops coming from cofactors (_dependency).
_RANK_TOL = 1e-12

_EPS = float(np.finfo(float).eps)

# Up to this dimension the dependency comes from cofactors. One batched LU
# of n+1 minors costs O(n^4) against the SVD's O(n^3); alone they cost the
# same at about n = 16. But the certificate of _dependency sends more heads
# back to the SVD as n grows (|c| of random heads falls with n: median 0.9
# at n = 3, 0.09 at n = 8, 0.002 at n = 16), so normalize_word gains from
# cofactors only up to about n = 9 (in-process on a shared 2-core Xeon:
# 0.80 of the SVD's time at n = 3, about 0.9 at n = 9, 1.0-1.1 at n = 10
# and 1.2 at n = 16).
_COFACTOR_MAX_DIM = 9


def _minor_rows(n: int) -> np.ndarray:
    """Row indices of the n+1 minors of an (n+1, n) stack; minor i drops row i.

    An odd minor has its first two rows swapped, which negates its
    determinant, so det of minor i is (-1)^i det(V without row i).
    """
    rows = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    for r in rows[1::2]:
        r[0], r[1] = r[1], r[0]
    return np.array(rows)


_MINOR_ROWS = {n: _minor_rows(n) for n in range(2, _COFACTOR_MAX_DIM + 1)}

KEYWORD = "hyper"
# a hyperplane takes as many components as its dimension
ARITY = None


class Hyperplane(Direction):
    """Mirror hyperplane {x : normal . x = 0}, canonical-sign unit normal.

    The normal is kept as the float tuple `values` (see Direction); its
    dimension is len(values).
    """

    __slots__ = ()

    @property
    def normal(self) -> tuple[float, ...]:
        """`values` under the name perfbench's independent checker reads."""
        return self.values


def mirror_from_floats(values: list[float]) -> Hyperplane:
    """The hyperplane whose normal is a list of floats."""
    return Hyperplane.from_square(values, dot_n(values, values))


def mirror_json(h: Hyperplane) -> dict:
    return {"normal": list(h.values)}


# The rewrite below computes on the normals' float tuples: numpy's per-call
# overhead dominates on vectors of a few components. Dot products are summed
# left to right, as dot_n does; the hottest functions inline its loop.


def coincident(a: Hyperplane, b: Hyperplane) -> bool:
    p, q = a.values, b.values
    c = 0.0
    for x, y in zip(p, q):
        c += x * y
    # p and q are unit within _UNIT_SLACK, so |p - c q|^2 = 1 - c^2 +- 4e-13:
    # below c^2 = 0.999999 it exceeds 1e-6, far above EPS_COINCIDE^2
    if c * c < 0.999999:
        return False
    square = 0.0
    for x, y in zip(p, q):
        d = x - c * y
        square += d * d
    return math.sqrt(square) <= EPS_COINCIDE


def _word_dimension(word, dim: int | None) -> int:
    if word:
        d = len(word[0].values)
        for h in word:
            if len(h.values) != d:
                raise WrongLength("mirrors of one word must share a dimension")
        if dim is not None and dim != d:
            raise WrongLength(f"word lives in dimension {d}, not {dim}")
        return d
    if dim is None:
        raise WrongLength("empty word needs an explicit dimension")
    return dim


def _normals(word, d: int) -> np.ndarray:
    """The (k, d) array of a word's normals."""
    rows = np.fromiter(chain.from_iterable([h.values for h in word]), float, len(word) * d)
    return rows.reshape(-1, d)


def word_to_matrix(word, dim: int | None = None) -> np.ndarray:
    d = _word_dimension(word, dim)
    return kernels.householder_word_matrix(_normals(word, d))


def word_oracle(word, dim: int | None = None) -> np.ndarray:
    # looked up at call time: perfbench's traced run wraps `word_to_matrix`
    return word_to_matrix(word, dim)


def prefix_oracles(word, dim: int | None = None, table: bool = True):
    """The function i -> word_oracle(word[:i], dim), bit for bit, for a word it checks.

    The word must be one it can take whole: one dimension, `dim` if given,
    so an empty prefix is the identity of that dimension. With `table`,
    and a word of at most one kernel chunk, it rebuilds each prefix's
    product from the levels of the word's product, computed once;
    otherwise it computes each prefix's oracle afresh.
    """
    d = _word_dimension(word, dim)
    levels = kernels.householder_word_levels(_normals(word, d)) if table else None
    if levels is None:
        return lambda i: word_to_matrix(word[:i], d)
    return lambda i: kernels.levels_prefix_product(levels, i) if i else np.eye(d)


def oracle_distance(A, B) -> float:
    """Frobenius distance between two oracle matrices of one dimension."""
    if A.shape != B.shape:
        raise WrongLength(f"oracles of dimensions {len(A)} and {len(B)} cannot be compared")
    return float(np.linalg.norm(A - B))


def _check_orthogonal(M) -> np.ndarray:
    """M as a float array, moved one Newton step toward orthogonality.

    The step M (3I - M^T M) / 2 squares the defect |M^T M - I|, which is
    allowed up to EPS_VERIFY sqrt(n): what is left, about 1e-16 n at most,
    is below the rounding of the eigensolve in spectral_split.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotOrthogonal(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    G = M.T @ M - np.eye(n)
    resid = float(np.linalg.norm(G))
    if resid > EPS_VERIFY * math.sqrt(n):
        raise NotOrthogonal(f"M^T M deviates from I by {resid:.3e}")
    return M - M @ G / 2.0


@dataclass(frozen=True, eq=False)
class Block:
    kind: str  # "fixed" | "negated" | "rotation"
    basis: np.ndarray  # rows span the block's subspace
    angle: float | None = None


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    dimension: int
    blocks: tuple


def _file_plane(rows, c: float, s: float, fixed: list, blocks: list) -> None:
    """File an invariant plane: rows (q1, q2) with M q1 = c q1 + s q2.

    When s < 0 the rows are swapped. An angle within EPS_COINCIDE of 0
    gives two fixed lines, one within EPS_COINCIDE of pi two negated
    lines, any other a rotation plane.
    """
    if s < 0.0:
        rows, s = rows[::-1], -s
    angle = math.atan2(s, c)
    if angle <= EPS_COINCIDE:
        fixed.append(rows)
    elif angle >= math.pi - EPS_COINCIDE:
        blocks.extend((Block("negated", rows[:1]), Block("negated", rows[1:])))
    else:
        blocks.append(Block("rotation", rows, angle))


def _file_lines(rows, cos: float, fixed: list, blocks: list) -> None:
    """File rows as fixed lines if cos > 0, else as negated lines."""
    if cos > 0.0:
        fixed.append(rows)
    else:
        blocks.extend(Block("negated", rows[k : k + 1]) for k in range(len(rows)))


def _split_cluster(B, T, fixed: list, blocks: list) -> None:
    """Split a cluster of nearly equal cosines into rotation planes and lines.

    B holds the cluster's orthonormal rows and T = B M B^T, with symmetric
    and skew parts S and K. A complex u with T u = e^{i phi} u has S u =
    cos(phi) u and K u = i sin(phi) u, so it is an eigenvector of the
    Hermitian S + i sign(cos) K with eigenvalue cos(phi) - sign(cos)
    sin(phi). For phi in (0, pi) that moves with phi at the rate |cos| +
    sin(phi) >= 1, so one eigh parts planes whose cosines alone, or whose
    sines alone, are equal. Each u with phi in (EPS_COINCIDE, pi -
    EPS_COINCIDE) spans a rotation plane by its real and imaginary parts;
    one QR makes the planes orthonormal and completes them with the lines.
    """
    m = len(T)
    cos = float(np.trace(T)) / m
    K = (T - T.T) / 2.0
    if float(np.linalg.norm(K)) <= EPS_COINCIDE * abs(cos):
        # every angle is within EPS_COINCIDE of 0 or pi: a cluster of lines,
        # the common case (a short word's fixed space), filed at about a
        # tenth of the cost of the eigensolve below
        _file_lines(B, cos, fixed, blocks)
        return
    _, Z = np.linalg.eigh((T + T.T) / 2.0 + (1j if cos >= 0.0 else -1j) * K)
    phi = np.angle(np.einsum("ij,ik,kj->j", Z.conj(), T, Z))
    U = Z[:, (EPS_COINCIDE < phi) & (phi < math.pi - EPS_COINCIDE)]
    planes = 2 * U.shape[1]
    C = np.empty((m, planes))
    C[:, 0::2] = U.real
    C[:, 1::2] = -U.imag
    Q = np.linalg.qr(C, mode="complete")[0]
    R = (Q.T @ T @ Q).tolist()
    rows = Q.T @ B
    for k in range(0, planes, 2):
        c = (R[k][k] + R[k + 1][k + 1]) / 2.0
        _file_plane(rows[k : k + 2], c, (R[k + 1][k] - R[k][k + 1]) / 2.0, fixed, blocks)
    if planes < m:
        _file_lines(rows[planes:], cos, fixed, blocks)


def spectral_split(M) -> SpectralSplit:
    """Split an orthogonal map into fixed lines, negated lines and rotation planes.

    M is normal, so it commutes with M + M^T, whose eigenvalues are twice
    the cosines of its rotation angles. One eigh(M + M^T) gives them with
    an orthonormal basis V, in which T = V^T M V is block diagonal up to
    rounding. A rotation plane is a pair (i, j) of equal cosines; there T
    reads [[c, -s], [s, c]], and the plane is (v_i, v_j) at angle
    atan2(s, c), or (v_j, v_i) when s < 0, with no second eigensolve.

    eigh's basis is exact for M + M^T moved by about 2 n eps, which tilts
    the vectors of two eigenvalues g apart into each other by up to
    2 n eps / g, in a direction that need not respect the skew part of M.
    So eigenvalues closer than 2 n eps / EPS_COINCIDE share a cluster:
    between clusters the tilt stays under EPS_COINCIDE. Clusters of more
    than two (repeated or close angles, or lines beside planes of small
    angle) go to _split_cluster, which splits them by the skew part too.

    A plane whose angle lies within EPS_COINCIDE of 0 is filed as two
    fixed lines, and one within EPS_COINCIDE of pi as two negated lines;
    either moves the reassembled map by at most about 2 EPS_COINCIDE. So
    the number of negated lines has the determinant's parity.
    """
    M = _check_orthogonal(M)
    n = M.shape[0]
    tol = 2.0 * n * _EPS / EPS_COINCIDE
    twice_cos, V = np.linalg.eigh(M + M.T)
    rows = V.T
    R = rows @ M @ V
    T = R.tolist()
    gaps = twice_cos.tolist()
    fixed = []
    blocks = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and gaps[j] - gaps[j - 1] <= tol:
            j += 1
        if j - i == 1:
            _file_lines(rows[i:j], T[i][i], fixed, blocks)
        elif j - i == 2:
            k = j - 1
            c = (T[i][i] + T[k][k]) / 2.0
            _file_plane(rows[i:j], c, (T[k][i] - T[i][k]) / 2.0, fixed, blocks)
        else:
            _split_cluster(rows[i:j], R[i:j, i:j], fixed, blocks)
        i = j
    if fixed:
        blocks.insert(0, Block("fixed", fixed[0] if len(fixed) == 1 else np.vstack(fixed)))
    return SpectralSplit(n, tuple(blocks))


def decompose(M) -> list:
    """Write an orthogonal matrix as a word of at most n mirrors.

    Each negated line contributes its normal; each rotation plane
    contributes two mirrors a half-angle apart, since a plane rotation is
    the composition of two reflections in lines.
    """
    split = spectral_split(M)
    word = []
    for b in split.blocks:
        if b.kind == "negated":
            word.append(Hyperplane(b.basis[0]))
        elif b.kind == "rotation":
            q1, q2 = b.basis
            half = b.angle / 2.0
            word.append(Hyperplane(q1))
            word.append(Hyperplane(math.cos(half) * q1 + math.sin(half) * q2))
    return word


def _dependency(w: list) -> list:
    """The unit linear dependency sum c_i v_i = 0 of the n+1 normals v_i of w.

    Its coefficients are the generalized cross product of the (n+1, n)
    stack V of normals, c_i = (-1)^i det(V without row i), taken by one
    batched determinant and divided by |c|; up to sign that is the unit
    null vector of V^T. By Cauchy-Binet |c|^2 = det(V^T V), the product of
    V's squared singular values, so |c| certifies the head's conditioning
    for free.

    LU leaves each cofactor of unit rows off by about n eps, so the unit
    dependency leaves a residual sum c_i v_i of up to about n eps / |c|,
    where the SVD's is about eps. Steering divides that residual by about
    the smallest singular value, which is about |c| when the others are of
    order 1 (their squares sum to n + 1). So cofactors serve while
    n eps / |c|^2 <= _RANK_TOL; below that (|c| < 0.026 at n = 3, 0.042 at
    n = 8) the head is nearly rank-deficient, and there, and above
    _COFACTOR_MAX_DIM, the dependency is the last right singular vector of
    V^T, from one SVD. On O(3) heads with one small singular value, the
    median error of one reduction from cofactors was 27 times the SVD's at
    1e-3, 1.5 times at 0.03 and equal at 0.1.
    """
    normals = np.array([h.values for h in w])
    n = len(w) - 1
    rows = _MINOR_ROWS.get(n)
    if rows is not None:
        c = np.linalg.det(normals.take(rows, axis=0)).tolist()
        square = 0.0
        for t in c:
            square += t * t
        if square * _RANK_TOL >= n * _EPS:
            norm = math.sqrt(square)
            return [t / norm for t in c]
    return np.linalg.svd(normals.T)[2][-1].tolist()


def _steer_moves(w: list, sink: list) -> None:
    """Steer two of the n+1 mirrors in w onto each other.

    No two adjacent mirrors of w coincide (the rewrite loop's contract).
    The n+1 normals obey one linear dependency sum c_i v_i = 0, from their
    cofactors or their SVD (_dependency). From the first c_s over
    _RANK_TOL on, each pencil move rotates the pair (s, s+1) so that its
    second mirror is x ~ c_s v_s + c_{s+1} v_{s+1}, which lies in the span
    of the normals after it; x carries the pair's share of the dependency
    to the right until two adjacent mirrors coincide; the rewrite loop
    cancels them. The first mirror of the pair is x turned back in the
    pair's plane by the angle from e1 to v, the pencil turn of S2 and SO(3)
    with its double cross product expanded, (v.e1) x + e1 (v.x) - v (e1.x),
    which holds in every dimension. Records pencil moves only.
    """
    c = _dependency(w)
    s = 0
    while abs(c[s]) <= _RANK_TOL:
        s += 1
    cs = c[s]
    from_square = Hyperplane.from_square
    while True:
        e1 = w[s].values
        v = w[s + 1].values
        cv = c[s + 1]
        y = [cs * a + cv * b for a, b in zip(e1, v)]
        square = 0.0
        for t in y:
            square += t * t
        share = math.sqrt(square)
        # no mirrors are left to carry the dependency, or the pair holds all of it
        if s >= len(w) - 2 or share <= EPS_COINCIDE:
            raise DegenerateSteering("steering invariant broken; input too degenerate")
        x = from_square(y, square)
        p = x.values
        # the four dots of the turn and the sign, each summed left to right
        ve1 = vx = e1x = xy = 0.0
        for a, b, q, t in zip(e1, v, p, y):
            ve1 += b * a
            vx += b * q
            e1x += a * q
            xy += q * t
        cs = math.copysign(share, xy)
        # x turned back by the angle from e1 to v, so (e1, v) ~ (u, x)
        u = [ve1 * q + vx * a - e1x * b for q, a, b in zip(p, e1, v)]
        square = 0.0
        for t in u:
            square += t * t
        emit(w, sink, Move(PENCIL, s, (from_square(u, square), x)))
        s += 1
        # only a pencil move can have made the next pair coincide
        if coincident(w[s], w[s + 1]):
            return


def reduce_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite n+1 mirrors into n-1 by single pencil and involution moves.

    The rewrite loop freely reduces the word first, so a word with more
    than one coincident pair comes out shorter.
    """
    n = _word_dimension(word, dim)
    if len(word) != n + 1:
        raise WrongLength(f"need exactly {n + 1} mirrors in dimension {n}, got {len(word)}")
    return normalize(word, coincident, _steer_moves, n, trace)


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word to length at most n, preserving length parity."""
    return normalize(word, coincident, _steer_moves, _word_dimension(word, dim), trace)


def classification_json(word, dim: int | None = None) -> dict:
    """Determinant and spectral blocks of the word's orthogonal map."""
    split = spectral_split(word_to_matrix(word, dim))
    blocks = []
    for b in split.blocks:
        entry = {"kind": b.kind, "dim": int(b.basis.shape[0])}
        if b.angle is not None:
            entry["angle"] = b.angle
        blocks.append(entry)
    return {
        "kind": "orthogonal",
        "det": -1 if sum(b.kind == "negated" for b in split.blocks) % 2 else 1,
        "blocks": blocks,
    }


def _pair_product_distance(a, b, c, d) -> float:
    """Frobenius distance |H_b H_a - H_d H_c| of two pairs of unit normals.

    The identity terms of the two products cancel exactly, so row i of the
    difference is p_i a + q_i b + r_i c + s_i d with p_i = 4(a.b) b_i - 2 a_i,
    q_i = -2 b_i, r_i = 2 c_i - 4(c.d) d_i and s_i = 2 d_i; the squares of
    its entries are summed left to right. The Gram form 2n - 2 tr(P1^T P2)
    would cancel to about 1e-16, and its square root would be good only to
    about 1e-8, which is EPS_VERIFY itself.
    """
    ab4 = 4.0 * dot_n(a, b)
    cd4 = 4.0 * dot_n(c, d)
    columns = list(zip(a, b, c, d))
    square = 0.0
    for ai, bi, ci, di in columns:
        p = ab4 * bi - 2.0 * ai
        q = -2.0 * bi
        r = 2.0 * ci - cd4 * di
        s = 2.0 * di
        for aj, bj, cj, dj in columns:
            e = p * aj + q * bj + r * cj + s * dj
            square += e * e
    return math.sqrt(square)


def _off_plane_residual(a, b, c, d) -> float:
    """How far the unit normals a, b, c, d leave one 2-plane.

    Pivoted Gram-Schmidt: the first basis vector is a, the second the
    residual off a that is longest among b, c and d. The result is the
    longest residual left after both pivots. When the second pivot is at
    most EPS_COINCIDE long, all four normals lie that close to a's line and
    no residual after it could be longer, so it is returned undivided.
    """
    residuals = []
    longest = -1.0
    for v in (b, c, d):
        t = 0.0
        for x, y in zip(v, a):
            t += x * y
        r = [x - t * y for x, y in zip(v, a)]
        square = 0.0
        for x in r:
            square += x * x
        residuals.append(r)
        if square > longest:
            longest, pivot = square, r
    top = math.sqrt(longest)
    if top <= EPS_COINCIDE:
        return top
    e = [x / top for x in pivot]
    worst = 0.0
    for r in residuals:
        if r is not pivot:
            t = 0.0
            for x, y in zip(r, e):
                t += x * y
            square = 0.0
            for x, y in zip(r, e):
                u = x - t * y
                square += u * u
            worst = max(worst, square)
    return math.sqrt(worst)


def validate_move(word, move: Move) -> list:
    """Check one replayed move: a genuine involution or a genuine pencil move.

    Pencil moves must keep all four normals in one 2-plane and preserve
    the product of the pair's mirror maps within EPS_VERIFY.
    """
    after = apply_move(word, move, coincident)
    if move.kind == INVOLUTION:
        return after
    if move.kind != PENCIL:
        raise ValueError(f"move kind {move.kind!r} is not part of the O(n) calculus")
    i = move.index
    a, b = word[i].values, word[i + 1].values
    c, d = (h.values for h in move.mirrors)
    n = len(a)
    if not len(b) == len(c) == len(d) == n:
        raise ValueError("pencil move mirrors must share the word's dimension")
    # in dimension 2 every normal lies in the plane; otherwise the four
    # normals of a pencil move must span no more than a 2-plane
    if n > 2:
        off = _off_plane_residual(a, b, c, d)
        if off > math.sqrt(EPS_VERIFY):
            raise ValueError(f"pencil move normals span more than a 2-plane: residual {off:.3e}")
    if _pair_product_distance(a, b, c, d) > EPS_VERIFY:
        raise ValueError("pencil move does not preserve the pair product")
    return after


def replay_moves(word, moves) -> list:
    return replay(word, moves, coincident)
