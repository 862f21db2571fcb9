"""Independent output checker for the benchmark.

Every map here is composed with plain numpy from the mirrors' coordinates;
the checker never calls ``mirrorwords.kernels`` or ``cli.residual``. Each
``check_*`` function returns a list of problems; an empty list means the
output is correct. Run this file to execute the self-test, which feeds
the checker corrupted outputs and expects each to be reported.
"""

from __future__ import annotations

import math

import numpy as np

# The residual bound the program promises (mirrorwords' eps_verify).
TOL = 1e-8
# Classification boundaries: generic random words sit far from them.
KIND_TOL = 1e-6

MAX_LENGTH = {"e2": 3, "s2": 3, "so3": 2}


def _coords(group: str, word) -> np.ndarray:
    if group == "e2":
        return np.array([(m.nx, m.ny, m.offset) for m in word], dtype=float).reshape(-1, 3)
    attr = {"s2": "pole", "so3": "direction", "on": "normal"}[group]
    return np.array([np.asarray(getattr(m, attr), dtype=float) for m in word])


def _mirror_matrices(group: str, c: np.ndarray, dim: int) -> np.ndarray:
    """One matrix per mirror: homogeneous 3x3 for E2, else dim x dim."""
    k = c.shape[0]
    if group == "e2":
        n = c[:, :2]
        h = np.zeros((k, 3, 3))
        h[:, :2, :2] = np.eye(2) - 2.0 * n[:, :, None] * n[:, None, :]
        h[:, :2, 2] = 2.0 * c[:, 2:3] * n
        h[:, 2, 2] = 1.0
        return h
    outer = c[:, :, None] * c[:, None, :]
    if group == "so3":
        return 2.0 * outer - np.eye(3)
    return np.eye(dim) - 2.0 * outer


def word_maps(group: str, words, dim: int) -> np.ndarray:
    """Maps of many words at once, shape (len(words), m, m); first mirror acts first."""
    m = 3 if group == "e2" else dim
    longest = max((len(w) for w in words), default=0)
    mats = np.broadcast_to(np.eye(m), (len(words), longest, m, m)).copy()
    for i, w in enumerate(words):
        if w:
            mats[i, : len(w)] = _mirror_matrices(group, _coords(group, w), dim)
    out = np.broadcast_to(np.eye(m), (len(words), m, m)).copy()
    for j in range(longest):
        out = mats[:, j] @ out
    return out


def word_map(group: str, word, dim: int) -> np.ndarray:
    return word_maps(group, [word], dim)[0]


def _rotation_angle(r: np.ndarray) -> float:
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / 2.0
    return abs(math.atan2(math.sqrt(float(w @ w)), (float(np.trace(r)) - 1.0) / 2.0))


def map_distance(group: str, a: np.ndarray, b: np.ndarray) -> float:
    """The distance mirrorwords' verification uses, computed independently.

    E2: Frobenius distance of the linear parts plus the Euclidean distance
    of the translations. S2 and SO(3): rotation angle of a b^T. O(n):
    Frobenius distance.
    """
    if group == "e2":
        return float(np.linalg.norm(a[:2, :2] - b[:2, :2]) + np.linalg.norm(a[:2, 2] - b[:2, 2]))
    if group in ("s2", "so3"):
        return _rotation_angle(a @ b.T)
    return float(np.linalg.norm(a - b))


def _det(group: str, m: np.ndarray) -> float:
    return float(np.linalg.det(m[:2, :2] if group == "e2" else m))


def check_normal_form(group: str, dim: int, word, out, residual, reduced: bool = False) -> list:
    """Output word against input word: map, length bound, parity, residual."""
    problems = []
    if not (isinstance(residual, float) and residual <= TOL):
        problems.append(f"program residual {residual!r} is not a finite value <= {TOL}")
    a = word_map(group, word, dim)
    b = word_map(group, out, dim)
    d = map_distance(group, a, b)
    if not d <= TOL:
        problems.append(f"output map differs from input map by {d!r}")
    bound = dim if group == "on" else MAX_LENGTH[group]
    if reduced and len(out) != dim - 1:
        problems.append(f"reduce_word gave {len(out)} mirrors, expected {dim - 1}")
    elif len(out) > bound:
        problems.append(f"normal form has {len(out)} mirrors, bound is {bound}")
    if not np.sign(_det(group, a)) == np.sign(_det(group, b)):
        problems.append("determinant sign changed")
    return problems


def check_replay(group: str, dim: int, word, states, out) -> list:
    """Every replayed intermediate word has the input's map; the last is the output."""
    problems = []
    if not states or list(states[-1]) != list(out):
        problems.append("replay does not end at the normalized word")
    a = word_map(group, word, dim)
    maps = word_maps(group, states, dim)
    for i, m in enumerate(maps):
        d = map_distance(group, a, m)
        if not d <= TOL:
            problems.append(f"replayed word {i} differs from the input map by {d!r}")
            break
    return problems


def _eig_kind(group: str, m: np.ndarray) -> str:
    if group == "e2":
        lin, t = m[:2, :2], m[:2, 2]
        if np.linalg.det(lin) > 0.0:
            if np.linalg.norm(lin - np.eye(2)) > KIND_TOL:
                return "rotation"
            return "translation" if np.linalg.norm(t) > KIND_TOL else "identity"
        vals, vecs = np.linalg.eigh((lin + lin.T) / 2.0)
        u = vecs[:, int(np.argmax(vals))]
        return "glide" if abs(float(u @ t)) > KIND_TOL else "reflection"
    if np.linalg.det(m) > 0.0:
        return "identity" if np.linalg.norm(m - np.eye(3)) <= KIND_TOL else "rotation"
    ones = int(np.sum(np.abs(np.linalg.eigvals(m) - 1.0) <= KIND_TOL))
    return "reflection" if ones == 2 else "glide"


def check_classification(group: str, dim: int, word, cls: dict) -> list:
    """The reported kind agrees with an eigen-analysis of the word's map."""
    m = word_map(group, word, dim)
    if group != "on":
        kind = _eig_kind(group, m)
        return [] if cls.get("kind") == kind else [f"classified {cls.get('kind')!r}, map is {kind!r}"]
    problems = []
    if cls.get("kind") != "orthogonal" or cls.get("det") != round(float(np.linalg.det(m))):
        problems.append(f"orthogonal classification {cls!r} disagrees with det")
    angles = []
    for b in cls.get("blocks", []):
        if b["kind"] == "fixed":
            angles += [0.0] * b["dim"]
        elif b["kind"] == "negated":
            angles += [math.pi] * b["dim"]
        else:
            angles += [b["angle"], b["angle"]]
    eig = sorted(abs(math.atan2(v.imag, v.real)) for v in np.linalg.eigvals(m))
    if len(angles) != len(eig) or max(
        (abs(x - y) for x, y in zip(sorted(angles), eig)), default=0.0
    ) > KIND_TOL:
        problems.append(f"block angles {sorted(angles)} differ from eigen-angles {eig}")
    return problems


def check_arc(word, arc) -> list:
    """An SO(3) arc encodes R_head . R_tail, which must equal the word's map."""
    m = word_map("so3", word, 3)
    a = word_map("so3", [_Axis(arc.tail), _Axis(arc.head)], 3)
    d = _rotation_angle(m @ a.T)
    return [] if d <= TOL else [f"arc rotation differs from the word's by {d!r}"]


class _Axis:
    __slots__ = ("direction",)

    def __init__(self, p):
        self.direction = np.asarray(p, dtype=float) / np.linalg.norm(p)


def self_test() -> list:
    """Corrupt correct outputs and return the corruptions the checker missed."""
    from mirrorwords import cli, plane, sampling

    rng = np.random.default_rng(5)
    word = sampling.random_word(rng, "e2", 7)
    out = plane.normalize_word(word)
    res = cli.residual("e2", word, out)
    missed = []
    if check_normal_form("e2", 2, word, out, res):
        missed.append("a correct output was reported as failed")
    bumped = plane.Line((out[0].nx, out[0].ny), out[0].offset + 1e-6)
    corruptions = {
        "dropped mirror": (out[1:], res),
        "mirror perturbed by 1e-6": ([bumped] + out[1:], res),
        "NaN residual": (out, float("nan")),
    }
    for name, (bad, bad_res) in corruptions.items():
        if not check_normal_form("e2", 2, word, bad, bad_res):
            missed.append(name)
    return missed


if __name__ == "__main__":
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    missed = self_test()
    for name in missed:
        print(f"FAIL: checker missed {name}")
    print("checker self-test:", "FAIL" if missed else "ok")
    sys.exit(1 if missed else 0)
