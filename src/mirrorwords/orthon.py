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

import numpy as np

from . import kernels
from .moves import INVOLUTION, PENCIL, Move, apply_move, emit, normalize, replay
from .numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    DegenerateSteering,
    NotCoplanarNormals,
    NotOrthogonal,
    WrongLength,
    canonical_unit,
)

# Rank decisions for the steering reduction: a suffix of normals counts as
# linearly dependent only when it is so almost exactly, otherwise the
# final cancellation could miss the coincidence tolerance.
_RANK_TOL = 1e-12

KEYWORD = "hyper"
# a hyperplane takes as many components as its dimension
ARITY = None


class Hyperplane:
    """Mirror hyperplane {x : normal . x = 0}, canonical-sign unit normal."""

    __slots__ = ("normal",)

    def __init__(self, normal):
        u = canonical_unit(normal)
        u.flags.writeable = False
        self.normal = u

    @property
    def dimension(self) -> int:
        return self.normal.shape[0]

    @property
    def values(self) -> tuple:
        return tuple(self.normal.tolist())

    def __eq__(self, other):
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return bool(np.array_equal(self.normal, other.normal))

    def __hash__(self):
        return hash(self.normal.tobytes())

    def __repr__(self):
        return f"Hyperplane({self.normal.tolist()!r})"


mirror_from_values = Hyperplane


def mirror_json(h: Hyperplane) -> dict:
    return {"normal": list(h.normal)}


def coincident(a: Hyperplane, b: Hyperplane, eps: float = EPS_COINCIDE) -> bool:
    c = float(a.normal @ b.normal)
    w = a.normal - c * b.normal
    return math.sqrt(float(w @ w)) <= eps


def householder(h: Hyperplane) -> np.ndarray:
    """The mirror map I - 2nn^T: symmetric, orthogonal, det -1."""
    n = h.normal
    return np.eye(n.shape[0]) - 2.0 * np.outer(n, n)


def _word_dimension(word, dim: int | None) -> int:
    if word:
        d = word[0].dimension
        for h in word:
            if h.dimension != d:
                raise WrongLength("mirrors of one word must share a dimension")
        if dim is not None and dim != d:
            raise WrongLength(f"word lives in dimension {d}, not {dim}")
        return d
    if dim is None:
        raise WrongLength("empty word needs an explicit dimension")
    return dim


def word_to_matrix(word, dim: int | None = None) -> np.ndarray:
    d = _word_dimension(word, dim)
    return kernels.householder_word_matrix(np.array([h.normal for h in word]).reshape(-1, d))


def word_distance(a, b, dim: int | None = None) -> float:
    """Frobenius distance between the oracle matrices of two words."""
    return float(np.linalg.norm(word_to_matrix(a, dim) - word_to_matrix(b, dim)))


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


def pencil_completion(l: Hyperplane, m: Hyperplane, l2: Hyperplane) -> Hyperplane:
    """The m2 with H_m . H_l = H_m2 . H_l2; all four normals in one 2-plane."""
    if coincident(l, m):
        return l2
    e1 = l.normal
    w = m.normal - float(m.normal @ e1) * e1
    e2 = w / np.linalg.norm(w)
    a = float(l2.normal @ e1)
    b = float(l2.normal @ e2)
    resid = l2.normal - a * e1 - b * e2
    if float(np.linalg.norm(resid)) > EPS_COINCIDE:
        raise NotCoplanarNormals("third normal leaves the pencil's 2-plane")
    delta = math.atan2(float(m.normal @ e2), float(m.normal @ e1))
    ca, sa = math.cos(delta), math.sin(delta)
    return Hyperplane((a * ca - b * sa) * e1 + (a * sa + b * ca) * e2)


def _suffix_dependent(V: np.ndarray, n: int) -> bool:
    if V.shape[0] > n:
        return True
    s = np.linalg.svd(V, compute_uv=False)
    return bool(s[-1] < _RANK_TOL)


def _steer_moves(w: list, sink: list, n: int, limit: int) -> None:
    """Cancel two mirrors among w[0:limit] by pencil steering.

    The suffix invariant: w[s] lies in the span of the normals after it.
    A pencil move rotates the pair (s, s+1) inside its own 2-plane until
    the second member lands in the span of the remaining normals, pushing
    the dependency right until two adjacent mirrors coincide.
    """
    for i in range(limit - 1):
        if coincident(w[i], w[i + 1]):
            emit(w, sink, Move(INVOLUTION, i), coincident)
            return

    V = np.array([h.normal for h in w[:limit]])
    s = 0
    # a suffix of one normal, or two the loop above found distinct, is never dependent
    for cand in range(limit - 3, -1, -1):
        if _suffix_dependent(V[cand:], n):
            s = cand
            break

    while True:
        if coincident(w[s], w[s + 1]):
            emit(w, sink, Move(INVOLUTION, s), coincident)
            return
        if s >= limit - 2:
            raise DegenerateSteering("steering invariant broken; input too degenerate")
        e1 = w[s].normal
        v = w[s + 1].normal
        u = v - float(v @ e1) * e1
        e2 = u / np.linalg.norm(u)
        rest = np.array([h.normal for h in w[s + 2 : limit]]).T
        U, sv, _ = np.linalg.svd(rest, full_matrices=False)
        cols = U[:, sv > _RANK_TOL]
        r1 = e1 - cols @ (cols.T @ e1)
        r2 = e2 - cols @ (cols.T @ e2)
        _, _, Vh = np.linalg.svd(np.column_stack([r1, r2]))
        ct, st = Vh[-1]
        x = ct * e1 + st * e2
        delta = math.atan2(st, ct) - math.atan2(float(v @ e2), float(v @ e1))
        u_s = math.cos(delta) * e1 + math.sin(delta) * e2
        emit(w, sink, Move(PENCIL, s, (Hyperplane(u_s), Hyperplane(x))), coincident)
        s += 1


def reduce_word(word, trace: list | None = None) -> list:
    """Rewrite n+1 mirrors into n-1 by single pencil and involution moves."""
    w = list(word)
    n = _word_dimension(w, None)
    if len(w) != n + 1:
        raise WrongLength(f"need exactly {n + 1} mirrors in dimension {n}, got {len(w)}")
    sink = []
    _steer_moves(w, sink, n, n + 1)
    if trace is not None:
        trace.extend(sink)
    return w


def normalize_word(word, trace: list | None = None, dim: int | None = None) -> list:
    """Rewrite a word to length at most n, preserving length parity."""
    n = _word_dimension(word, dim)
    return normalize(word, coincident, lambda w, sink: _steer_moves(w, sink, n, n + 1), n, trace)


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


def validate_move(word, move: Move, eps: float = EPS_VERIFY) -> list:
    """Check one replayed move: a genuine involution or a genuine pencil move.

    Pencil moves must keep all four normals in one 2-plane and preserve
    the product of the pair's mirror maps within eps.
    """
    after = apply_move(word, move, coincident)
    if move.kind == INVOLUTION:
        return after
    if move.kind != PENCIL:
        raise ValueError(f"move kind {move.kind!r} is not part of the O(n) calculus")
    i = move.index
    old_a, old_b = word[i], word[i + 1]
    new_a, new_b = move.mirrors
    four = np.array([old_a.normal, old_b.normal, new_a.normal, new_b.normal])
    sv = np.linalg.svd(four, compute_uv=False)
    # in dimension 2 every normal lies in the plane; otherwise the four
    # normals of a pencil move must span no more than a 2-plane
    if len(sv) > 2 and sv[2] > math.sqrt(eps):
        raise ValueError(f"pencil move normals span more than a 2-plane: s3={sv[2]:.3e}")
    before_prod = householder(old_b) @ householder(old_a)
    after_prod = householder(new_b) @ householder(new_a)
    if float(np.linalg.norm(before_prod - after_prod)) > eps:
        raise ValueError("pencil move does not preserve the pair product")
    return after


def replay_moves(word, moves) -> list:
    return replay(word, moves, coincident)
