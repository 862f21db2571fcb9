"""O(n) as words of hyperplane reflections through the origin.

Decomposition rests on the spectral splitting of an orthogonal map into
fixed directions, negated directions and rotation planes; each rotation
plane costs two mirrors, each negated direction one, so every element is
a word of at most n mirrors. The (n+1)-to-(n-1) reduction is performed
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
# linear dependency (a unit null vector) exceeds this.
_RANK_TOL = 1e-12

# Half-width of the band about the tie |r1|^2 = |r2|^2 = 2 in which the
# steering step computes r2 as well (see _steer_moves).
_TIE_BAND = 1e-2

KEYWORD = "hyper"
# a hyperplane takes as many components as its dimension
ARITY = None


class Hyperplane(Direction):
    """Mirror hyperplane {x : normal . x = 0}, canonical-sign unit normal.

    The normal is kept as the float tuple `values` (see Direction); the
    public `normal` array is a read-only copy built on each access.
    """

    __slots__ = ()

    normal = property(Direction._array)

    @property
    def dimension(self) -> int:
        return len(self.values)


mirror_from_values = Hyperplane


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
    square = 0.0
    for x, y in zip(p, q):
        d = x - c * y
        square += d * d
    return math.sqrt(square) <= EPS_COINCIDE


def _word_dimension(word, dim: int | None) -> int:
    # len(values), not the `dimension` property: this runs on every oracle call
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


def word_to_matrix(word, dim: int | None = None) -> np.ndarray:
    d = _word_dimension(word, dim)
    rows = np.fromiter(chain.from_iterable([h.values for h in word]), float, len(word) * d)
    return kernels.householder_word_matrix(rows.reshape(-1, d))


def word_oracle(word, dim: int | None = None) -> np.ndarray:
    # looked up at call time: perfbench's traced run wraps `word_to_matrix`
    return word_to_matrix(word, dim)


def oracle_distance(A, B) -> float:
    """Frobenius distance between two oracle matrices."""
    return float(np.linalg.norm(A - B))


def _check_orthogonal(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotOrthogonal(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    resid = float(np.linalg.norm(M.T @ M - np.eye(n)))
    if resid > EPS_VERIFY * math.sqrt(n):
        raise NotOrthogonal(f"M^T M deviates from I by {resid:.3e}")
    return M


@dataclass(frozen=True, eq=False)
class Block:
    kind: str  # "fixed" | "negated" | "rotation"
    basis: np.ndarray  # rows span the block's subspace
    angle: float | None = None


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    dimension: int
    blocks: tuple


def spectral_split(M) -> SpectralSplit:
    """Split an orthogonal map into fixed lines, negated lines and rotation planes.

    Real Schur form of a normal matrix is quasi-diagonal: 1x1 blocks carry
    the +-1 eigenvalues, standardized 2x2 blocks carry the rotation
    planes. A 2x2 block with angle pi is kept as a rotation plane even
    though it equals two negated lines; the decomposition contract is on
    the reassembled product, not on the block bookkeeping.
    """
    import scipy.linalg  # deferred: importing scipy costs more than the rest of the package

    M = _check_orthogonal(M)
    n = M.shape[0]
    T, Q = scipy.linalg.schur(M, output="real")
    fixed_rows = []
    blocks = []
    i = 0
    while i < n:
        if i == n - 1 or abs(T[i + 1, i]) <= 1e-12:
            if T[i, i] > 0.0:
                fixed_rows.append(Q[:, i])
            else:
                blocks.append(Block("negated", Q[:, i].reshape(1, n)))
            i += 1
        else:
            s = (T[i + 1, i] - T[i, i + 1]) / 2.0
            c = (T[i, i] + T[i + 1, i + 1]) / 2.0
            angle = math.atan2(s, c)
            q1 = Q[:, i]
            q2 = Q[:, i + 1]
            if angle < 0.0:
                q1, q2 = q2, q1
                angle = -angle
            if angle <= EPS_COINCIDE:
                fixed_rows.append(q1)
                fixed_rows.append(q2)
            else:
                blocks.append(Block("rotation", np.vstack([q1, q2]), angle))
            i += 2
    if fixed_rows:
        blocks.insert(0, Block("fixed", np.vstack(fixed_rows)))
    return SpectralSplit(n, tuple(blocks))


def reassemble(split: SpectralSplit) -> np.ndarray:
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


def _reflect(n, p) -> list:
    d = 0.0
    for a, b in zip(n, p):
        d += a * b
    t = 2.0 * d
    return [b - t * a for a, b in zip(n, p)]


def _product_difference(x, v, e1, p) -> list:
    """p - H_x H_v H_e1 p for unit normals x, v, e1."""
    return [a - b for a, b in zip(p, _reflect(x, _reflect(v, _reflect(e1, p))))]


def _steer_moves(w: list, sink: list) -> None:
    """Cancel two mirrors of the n+1 in w by pencil steering.

    No two adjacent mirrors of w coincide (the rewrite loop's contract).
    The n+1 normals obey one linear dependency sum c_i v_i = 0, found as
    the null vector of their stack. From the first nonzero c_s on, each
    pencil move rotates the pair (s, s+1) so that its second mirror is
    x ~ c_s v_s + c_{s+1} v_{s+1}, which lies in the span of the normals
    after it; x carries the pair's share of the dependency to the right
    until two adjacent mirrors coincide. The first mirror of the pair is
    read off the product: H_x H_v H_e1 is the reflection in it.
    """
    c = np.linalg.svd(np.array([h.values for h in w]).T)[2][-1].tolist()
    s = 0
    while abs(c[s]) <= _RANK_TOL:
        s += 1
    cs = c[s]
    while True:
        e1 = w[s].values
        v = w[s + 1].values
        cv = c[s + 1]
        y = [cs * a + cv * b for a, b in zip(e1, v)]
        square = dot_n(y, y)
        share = math.sqrt(square)
        # no mirrors are left to carry the dependency, or the pair holds all of it
        if s >= len(w) - 2 or share <= EPS_COINCIDE:
            raise DegenerateSteering("steering invariant broken; input too degenerate")
        x = Hyperplane.from_square(y, square)
        cs = math.copysign(share, dot_n(x.values, y))
        # M = H_x H_v H_e1 is the reflection in u_s, so p - M p = 2 (u_s . p) u_s;
        # of the orthonormal pair p = e1, e2 the one nearer u_s gives the longer
        # vector. All three maps are applied, since for nearly parallel e1 and v
        # the computed e2 is orthogonal to e1 only to about ulp / angle(e1, v).
        u_s = _product_difference(x.values, v, e1, e1)  # r1
        q = dot_n(u_s, u_s)
        # |r1|^2 + |r2|^2 = 4 up to 4 (e1 . e2): about n ulp / angle(e1, v),
        # under n 1e-6 for a pair that does not coincide. Above the band r2
        # would lose the comparison, so it is not computed.
        if q < 2.0 + _TIE_BAND:
            d = dot_n(v, e1)
            u = [b - d * a for a, b in zip(e1, v)]
            norm = math.sqrt(dot_n(u, u))
            e2 = [a / norm for a in u]
            r2 = _product_difference(x.values, v, e1, e2)
            q2 = dot_n(r2, r2)
            if q < q2:
                u_s, q = r2, q2
        emit(w, sink, Move(PENCIL, s, (Hyperplane.from_square(u_s, q), x)), coincident)
        s += 1
        # only a pencil move can have made the next pair coincide
        if coincident(w[s], w[s + 1]):
            emit(w, sink, Move(INVOLUTION, s), coincident)
            return


def reduce_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite n+1 mirrors into n-1 by single pencil and involution moves."""
    w = list(word)
    n = _word_dimension(w, dim)
    if len(w) != n + 1:
        raise WrongLength(f"need exactly {n + 1} mirrors in dimension {n}, got {len(w)}")
    sink = []
    # a raw word may hold a coincident pair, which steering must not get
    for i in range(n):
        if coincident(w[i], w[i + 1]):
            emit(w, sink, Move(INVOLUTION, i), coincident)
            break
    else:
        _steer_moves(w, sink)
    if trace is not None:
        trace.extend(sink)
    return w


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word to length at most n, preserving length parity."""
    return normalize(word, coincident, _steer_moves, _word_dimension(word, dim), trace)


def classification_json(word, dim: int | None = None) -> dict:
    """Determinant and spectral blocks of the word's orthogonal map."""
    M = word_to_matrix(word, dim)
    split = spectral_split(M)
    blocks = []
    for b in split.blocks:
        entry = {"kind": b.kind, "dim": int(b.basis.shape[0])}
        if b.angle is not None:
            entry["angle"] = b.angle
        blocks.append(entry)
    return {
        "kind": "orthogonal",
        "det": round(float(np.linalg.det(M))),
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
