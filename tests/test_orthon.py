import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import pair_product_distance, plane_singular_value, random_hyperplane, reassemble, vector
from mirrorwords import cli, kernels, orthon, sampling, so3, sphere
from mirrorwords.moves import INVOLUTION, PENCIL, POLAR_SPLIT, Move
from mirrorwords.numerics import (
    EPS_COINCIDE,
    EPS_VERIFY,
    DegenerateInput,
    DegenerateSteering,
    canonical_unit3,
    dot_n,
    NotOrthogonal,
    WrongLength,
)
from mirrorwords.orthon import (
    Hyperplane,
    decompose,
    normalize_word,
    reduce_word,
    replay_moves,
    spectral_split,
    validate_move,
    word_to_matrix,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import corpus_digest  # noqa: E402


def plane_mirror(theta_deg, dim=2):
    t = math.radians(theta_deg)
    n = np.zeros(dim)
    n[0], n[1] = math.cos(t), math.sin(t)
    return Hyperplane(n)


def householder(h):
    """The oracle matrix of the one-mirror word [h]."""
    return kernels.householder_word_matrix(np.array([h.values]))


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def test_householder_examples():
    np.testing.assert_allclose(householder(Hyperplane((1, 0))), np.diag([-1.0, 1.0]))
    np.testing.assert_allclose(
        householder(Hyperplane((0, 0, 1))), np.diag([1.0, 1.0, -1.0])
    )
    H = householder(Hyperplane([0.5, 0.5, 0.5, 0.5]))
    np.testing.assert_allclose(H, np.eye(4) - 0.5 * np.ones((4, 4)), atol=1e-12)


def test_householder_properties():
    rng = np.random.default_rng(60)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        H = householder(random_hyperplane(rng, n))
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        np.testing.assert_allclose(H @ H, np.eye(n), atol=1e-12)
        assert np.linalg.det(H) == pytest.approx(-1.0, abs=1e-10)


def test_spectral_split_identity():
    split = spectral_split(np.eye(5))
    assert len(split.blocks) == 1
    assert split.blocks[0].kind == "fixed"
    assert split.blocks[0].basis.shape == (5, 5)


def test_spectral_split_minus_identity():
    split = spectral_split(-np.eye(3))
    kinds = sorted(b.kind for b in split.blocks)
    # three negated lines, or equivalently a rotation plane of angle pi
    # plus one negated line; either rebuilds -I exactly
    np.testing.assert_allclose(reassemble(split), -np.eye(3), atol=1e-12)
    assert "fixed" not in kinds


def test_spectral_split_plane_rotation():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    split = spectral_split(R)
    assert len(split.blocks) == 1
    b = split.blocks[0]
    assert b.kind == "rotation"
    assert b.angle == pytest.approx(math.pi / 2)
    np.testing.assert_allclose(reassemble(split), R, atol=1e-12)


def test_spectral_split_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        spectral_split(np.diag([2.0, 1.0]))
    with pytest.raises(NotOrthogonal):
        decompose(np.ones((3, 3)))


def test_spectral_split_reassembly_random():
    rng = np.random.default_rng(61)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        M = random_orthogonal(rng, n)
        split = spectral_split(M)
        total = sum(b.basis.shape[0] for b in split.blocks)
        assert total == n
        assert float(np.linalg.norm(reassemble(split) - M)) <= 1e-8 * math.sqrt(n)


def test_decompose_identity_is_empty():
    assert decompose(np.eye(4)) == []


def test_decompose_minus_identity_three_mirrors():
    word = decompose(-np.eye(3))
    assert len(word) == 3
    np.testing.assert_allclose(word_to_matrix(word, 3), -np.eye(3), atol=1e-12)


def test_decompose_plane_rotation():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    word = decompose(R)
    assert len(word) == 2
    gap = abs(float(vector(word[0]) @ vector(word[1])))
    assert gap == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    np.testing.assert_allclose(word_to_matrix(word, 2), R, atol=1e-12)


def test_decompose_random_matrices():
    rng = np.random.default_rng(62)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            M = word_to_matrix([random_hyperplane(rng, n) for _ in range(n)], n)
        else:
            M = random_orthogonal(rng, n)
        word = decompose(M)
        assert len(word) <= n
        assert float(np.linalg.norm(word_to_matrix(word, n) - M)) <= 1e-8 * math.sqrt(n)
        assert np.linalg.det(M) == pytest.approx((-1.0) ** len(word), abs=1e-9)


def conjugated(rng, n, angles, fixed=None):
    """Q D Q^T for a random orthogonal Q: rotation planes at the given angles,
    then `fixed` fixed lines (by default a random share of what is left), the
    rest negated lines."""
    left = n - 2 * len(angles)
    if fixed is None:
        fixed = int(rng.integers(0, left + 1))
    D = np.diag([1.0] * (n - left) + [1.0] * fixed + [-1.0] * (left - fixed))
    for k, t in enumerate(angles):
        c, s = math.cos(t), math.sin(t)
        D[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    Q = random_orthogonal(rng, n)
    return Q @ D @ Q.T


def nearest_match_distance(a, b):
    """Largest distance when each of a is matched to its nearest unmatched b."""
    rest = list(b)
    worst = 0.0
    for x in a:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - x))
        worst = max(worst, abs(rest.pop(k) - x))
    return worst


def check_split(M):
    n = M.shape[0]
    split = spectral_split(M)
    assert sum(b.basis.shape[0] for b in split.blocks) == n
    implied = []
    for b in split.blocks:
        k = b.basis.shape[0]
        assert float(np.abs(b.basis @ b.basis.T - np.eye(k)).max()) <= 1e-12
        if b.kind == "fixed":
            implied += [1.0] * k
        elif b.kind == "negated":
            assert k == 1
            implied.append(-1.0)
        else:
            assert b.kind == "rotation" and k == 2
            assert EPS_COINCIDE < b.angle <= math.pi
            implied += [np.exp(1j * b.angle), np.exp(-1j * b.angle)]
    assert float(np.linalg.norm(reassemble(split) - M)) <= 1e-8 * math.sqrt(n)
    assert nearest_match_distance(implied, np.linalg.eigvals(M)) <= 1e-7
    negated = sum(b.kind == "negated" for b in split.blocks)
    assert np.linalg.det(M) == pytest.approx((-1.0) ** negated, abs=1e-9)
    return split


SPLIT_DIMENSIONS = (2, 3, 5, 8, 16, 64)


# repeated angles need room for two or three planes
SPLIT_CASES = [
    (kind, n)
    for kind, least in [
        ("random", 2),
        ("fixed_only", 2),
        ("negated_only", 2),
        ("repeated_two", 4),
        ("repeated_three", 6),
        ("near_zero", 2),
        ("near_pi", 2),
        ("shared_sine", 4),
        ("close_angles", 4),
    ]
    for n in SPLIT_DIMENSIONS
    if n >= least
]


def split_case(kind, rng, n):
    """A matrix of the named kind in dimension n."""
    half = n // 2
    if kind == "random":
        return random_orthogonal(rng, n)
    if kind == "fixed_only":
        return conjugated(rng, n, [], fixed=n)
    if kind == "negated_only":
        return conjugated(rng, n, [], fixed=0)
    if kind in ("repeated_two", "repeated_three"):
        r = 2 if kind == "repeated_two" else 3
        others = list(rng.uniform(0.1, 3.0, int(rng.integers(0, half - r + 1))))
        return conjugated(rng, n, [float(rng.uniform(0.1, 3.0))] * r + others)
    # planes that eigh(M + M^T) alone cannot part within rounding: pi/2 - e
    # and pi/2 + e share a sine and part by cosine by 2e only; planes 1e-6
    # apart near pi/2 - 1e-3 or near 1 part by cosine by about 1e-6
    h = math.pi / 2
    if kind == "shared_sine":
        return conjugated(rng, n, [h + t for t in (-1e-7, 1e-7, -1e-8, 1e-8, -1e-5, 1e-5)][:half])
    if kind == "close_angles":
        chains = [h - 1e-3, 1.0, h - 1e-3 + 1e-6, 1.0 + 1e-6, h - 1e-3 + 2e-6, 1.0 + 2e-6]
        return conjugated(rng, n, chains[:half])
    # planes within 1e-10 of 0 or of pi, beside fixed and negated lines
    offsets = [1e-10, 3e-11, 1e-12][: max(1, half - 1)]
    angles = offsets if kind == "near_zero" else [math.pi - t for t in offsets]
    return conjugated(rng, n, angles + list(rng.uniform(0.1, 3.0, half - len(angles))))


@pytest.mark.parametrize("kind, n", SPLIT_CASES)
def test_spectral_split_blocks_rebuild_the_map(kind, n):
    rng = np.random.default_rng([63, n, len(kind)])
    for _ in range(4):
        M = split_case(kind, rng, n)
        split = check_split(M)
        word = decompose(M)
        assert float(np.linalg.norm(word_to_matrix(word, n) - M)) <= 1e-8 * math.sqrt(n)
        kinds = [b.kind for b in split.blocks]
        if kind == "fixed_only":
            assert kinds == ["fixed"]
        if kind == "negated_only":
            assert kinds == ["negated"] * n


@pytest.mark.parametrize("n", (4, 8, 64))
def test_spectral_split_of_a_nearly_orthogonal_map(n):
    # M may miss orthogonality by up to EPS_VERIFY sqrt(n); its split and its
    # word stay as close to it as that, with planes 1e-3 to 1e-7 apart
    rng = np.random.default_rng([67, n])
    for gap in (1e-3, 1e-5, 1e-7):
        E = rng.standard_normal((n, n))
        E *= 0.5 * EPS_VERIFY * math.sqrt(n) / np.linalg.norm(E)
        M = conjugated(rng, n, [1.0, 1.0 + gap]) + E
        resid = float(np.linalg.norm(M.T @ M - np.eye(n)))
        assert float(np.linalg.norm(reassemble(spectral_split(M)) - M)) <= resid
        assert float(np.linalg.norm(word_to_matrix(decompose(M), n) - M)) <= resid


@pytest.mark.parametrize("n", SPLIT_DIMENSIONS)
def test_spectral_split_files_planes_near_pi_as_negated_lines(n):
    # a plane within EPS_COINCIDE of pi is two negated lines, as one within
    # EPS_COINCIDE of 0 is two fixed lines: no rotation block lies that close
    rng = np.random.default_rng([64, n])
    for offset in (1e-10, 1e-12, 5e-10):
        planes = [math.pi - offset] * (n // 2)
        split = check_split(conjugated(rng, n, planes, fixed=0))
        assert [b.kind for b in split.blocks] == ["negated"] * n
        word = decompose(conjugated(rng, n, planes, fixed=0))
        assert len(word) == n


def test_classification_det_is_the_parity_of_the_word():
    rng = np.random.default_rng(65)
    for n in (2, 3, 5, 8):
        for length in range(0, 2 * n):
            word = sampling.random_word(rng, "on", length, dim=n)
            assert orthon.classification_json(word, n)["det"] == (-1) ** length


def test_reduce_word_plane_examples():
    out = reduce_word([plane_mirror(0), plane_mirror(30), plane_mirror(90)])
    assert len(out) == 1
    lhs = word_to_matrix([plane_mirror(0), plane_mirror(30), plane_mirror(90)], 2)
    np.testing.assert_allclose(word_to_matrix(out, 2), lhs, atol=1e-9)

    out2 = reduce_word([plane_mirror(0), plane_mirror(0), plane_mirror(45)])
    assert out2 == [plane_mirror(45)]

    # a coincident pair anywhere in the input, equal or within EPS_COINCIDE,
    # is cancelled first, and alone
    rng = np.random.default_rng(65)
    for n in (2, 3, 5):
        w = sampling.random_word(rng, "on", n + 1, dim=n)
        for i in range(n):
            near = Hyperplane(vector(w[i]) + 1e-11 * rng.standard_normal(n))
            for twin in (w[i], near):
                v = list(w)
                v[i + 1] = twin
                trace = []
                assert reduce_word(v, trace) == v[:i] + v[i + 2 :]
                assert trace == [Move(INVOLUTION, i)]


def test_reduce_word_cancels_nested_pairs_in_a_cascade():
    # the rewrite loop cancels the middle pair, then the pair it exposes
    a, b = Hyperplane((1, 2, 3)), Hyperplane((0, 1, -1))
    trace = []
    assert reduce_word([a, b, b, a], trace) == []
    assert trace == [Move(INVOLUTION, 1), Move(INVOLUTION, 0)]


# a 4-mirror head of a random O(3) word of 512 mirrors (long-words, seed 2,
# item random/on3/L512, the 233rd round); its first three normals are
# dependent to 1.2e-7, the last entry of its dependency, yet the head is
# well conditioned (|c| = 0.94), so the dependency comes from cofactors
_STEERING_REPRODUCER = (
    (0.7589351096506605, 0.6018265722610345, 0.24864085798610147),
    (0.04813795008006205, -0.8597723380137424, -0.5084036433272997),
    (0.1844409600710452, 0.8594658917239223, 0.4767598066230775),
    (0.5347201832376084, -0.4304563564652687, 0.727173741836835),
)


@pytest.mark.xfail(raises=DegenerateSteering, strict=True)
def test_reduce_word_steers_a_nearly_dependent_triple():
    # steering starts at the first mirror: after two pencil moves the pair
    # (2, 3) is 1.03e-9 apart, over EPS_COINCIDE, and no mirror is left
    w = [orthon.mirror_from_floats(list(v)) for v in _STEERING_REPRODUCER]
    out = reduce_word(w)
    assert len(out) == 2
    assert orthon.oracle_distance(word_to_matrix(w), word_to_matrix(out, 3)) <= EPS_VERIFY


def test_reduce_word_wrong_length():
    with pytest.raises(WrongLength):
        reduce_word([plane_mirror(0), plane_mirror(30)])
    with pytest.raises(WrongLength):
        reduce_word([])


def test_reduce_word_random_with_replay():
    rng = np.random.default_rng(64)
    for n in range(2, 7):
        for _ in range(60):
            w = sampling.random_word(rng, "on", n + 1, dim=n)
            trace = []
            out = reduce_word(w, trace)
            assert len(out) <= n - 1
            assert (len(w) - len(out)) % 2 == 0
            assert float(
                np.linalg.norm(word_to_matrix(w, n) - word_to_matrix(out, n))
            ) <= 1e-8
            # replay: every step is a valid single move and never lengthens
            # the word beyond its starting size
            state = list(w)
            for mv in trace:
                state = validate_move(state, mv)
                assert len(state) <= n + 1
            assert state == out


def _counting(monkeypatch, *names) -> dict:
    """Count the calls of np.linalg functions by name, for the test's duration."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _takes_cofactors(w) -> bool:
    """Whether w's dependency may come from cofactors: a dimension up to the
    cap, and det(V^T V) = |c|^2 at least n eps / _RANK_TOL."""
    V = np.array([h.values for h in w])
    n = V.shape[1]
    gram = float(np.linalg.det(V.T @ V))
    return n <= orthon._COFACTOR_MAX_DIM and gram * orthon._RANK_TOL >= n * orthon._EPS


def test_reduction_makes_at_most_one_svd(monkeypatch):
    # one dependency per reduction: one batched determinant up to the cap,
    # and an SVD only below the certificate or above the cap
    rng = np.random.default_rng(68)
    heads = {n: [sampling.random_word(rng, "on", n + 1, dim=n) for _ in range(20)]
             for n in (2, 3, 5, 8, orthon._COFACTOR_MAX_DIM, orthon._COFACTOR_MAX_DIM + 1)}
    cofactors = {id(w): _takes_cofactors(w) for ws in heads.values() for w in ws}
    calls = _counting(monkeypatch, "det", "svd")
    for n, ws in heads.items():
        for w in ws:
            calls.update(det=0, svd=0)
            reduce_word(w)
            det = int(n <= orthon._COFACTOR_MAX_DIM)
            assert calls == {"det": det, "svd": 1 - cofactors[id(w)]}
            # a reduction that starts with an involution finds no dependency
            w[n - 1] = w[n]
            calls.update(det=0, svd=0)
            reduce_word(w)
            assert calls == {"det": 0, "svd": 0}
    # random heads of the benchmark's dimensions take cofactors
    assert all(cofactors[id(w)] for n in (2, 3, 5) for w in heads[n])

    steps = 0
    steer = orthon._steer_moves

    def counted_steer(w, sink):
        nonlocal steps
        steps += 1
        steer(w, sink)

    monkeypatch.setattr(orthon, "_steer_moves", counted_steer)
    calls.update(det=0, svd=0)
    normalize_word(sampling.random_word(rng, "on", 64, dim=5))
    assert steps > 0
    assert calls["det"] == steps
    assert calls["svd"] <= steps


def _no_svd(*args, **kwargs):
    raise AssertionError("the SVD was called")


@pytest.mark.parametrize("n", range(2, orthon._COFACTOR_MAX_DIM + 1))
def test_cofactor_dependency_is_the_svd_null_vector(monkeypatch, n):
    # above the certificate the cofactors give the SVD's null vector, up to sign
    rng = np.random.default_rng(80 + n)
    compared = 0
    for _ in range(100):
        w = sampling.random_word(rng, "on", n + 1, dim=n)
        if not _takes_cofactors(w):
            continue
        null = np.linalg.svd(np.array([h.values for h in w]).T)[2][-1]
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", _no_svd)
            unit = np.array(orthon._dependency(w))
        assert min(np.abs(unit - null).max(), np.abs(unit + null).max()) <= 1e-13
        compared += 1
    assert compared >= 50


@pytest.mark.parametrize("n", range(2, orthon._COFACTOR_MAX_DIM + 1))
def test_cofactors_are_a_dependency_whose_square_is_the_gram_determinant(n):
    # c_i = (-1)^i det(V without row i), and |c|^2 = det(V^T V) (Cauchy-Binet)
    rng = np.random.default_rng(90 + n)
    for _ in range(50):
        w = sampling.random_word(rng, "on", n + 1, dim=n)
        V = np.array([h.values for h in w])
        c = np.linalg.det(V[orthon._MINOR_ROWS[n]])
        expected = [(-1) ** i * np.linalg.det(np.delete(V, i, axis=0)) for i in range(n + 1)]
        assert np.abs(c - expected).max() <= 1e-14
        assert np.abs(V.T @ c).max() <= 1e-14
        gram = np.linalg.det(V.T @ V)
        assert abs(c @ c - gram) <= 1e-11 * gram


@pytest.mark.parametrize("label", ["on3", "on5"])
def test_near_degenerate_heads_take_the_svd(monkeypatch, label):
    # the near-parallel heads of the digest's jitter-1e-9 cells are far
    # below the certificate: their dependency is the SVD's null vector
    n = int(label[2:])
    heads = [word[: n + 1] for word in itertools.islice(corpus_digest.near_words(label, 1e-9, 6), 50)]
    calls = _counting(monkeypatch, "det", "svd")
    for w in heads:
        calls.update(det=0, svd=0)
        c = orthon._dependency(w)
        assert calls == {"det": 1, "svd": 1}
        assert c == np.linalg.svd(np.array([h.values for h in w]).T)[2][-1].tolist()


def test_heads_above_the_cofactor_cap_take_the_svd(monkeypatch):
    n = orthon._COFACTOR_MAX_DIM + 1
    rng = np.random.default_rng(91)
    calls = _counting(monkeypatch, "det", "svd")
    for _ in range(10):
        w = sampling.random_word(rng, "on", n + 1, dim=n)
        calls.update(det=0, svd=0)
        c = orthon._dependency(w)
        assert calls == {"det": 0, "svd": 1}
        assert c == np.linalg.svd(np.array([h.values for h in w]).T)[2][-1].tolist()


def _in_plane(n, *angles):
    """Unit normals at the given angles in the plane of the first two axes of R^n."""
    out = []
    for t in angles:
        v = [0.0] * n
        v[0], v[1] = math.cos(t), math.sin(t)
        out.append(v)
    return out


def test_validate_move_rejects_a_mirror_off_the_pencil_plane():
    for n in (3, 5):
        a, b, c, d = _in_plane(n, 0.0, 0.4, 0.9, 1.3)
        c[2] = 1e-2  # leaves span(a, b) by about 1e-2
        word = [Hyperplane(a), Hyperplane(b)]
        with pytest.raises(ValueError, match="span more than a 2-plane"):
            validate_move(word, Move(PENCIL, 0, (Hyperplane(c), Hyperplane(d))))


def test_validate_move_rejects_an_in_plane_move_that_changes_the_product():
    for n in (2, 3, 5):
        word = [Hyperplane(v) for v in _in_plane(n, 0.0, 0.4)]
        good = tuple(Hyperplane(v) for v in _in_plane(n, 0.5, 0.9))
        assert validate_move(word, Move(PENCIL, 0, good)) == list(good)
        # the pair's angle grows by 1e-7: the product moves by about 4e-7
        bad = tuple(Hyperplane(v) for v in _in_plane(n, 0.5, 0.9 + 1e-7))
        assert pair_product_distance(*(h.values for h in word + list(bad))) > EPS_VERIFY
        with pytest.raises(ValueError, match="does not preserve"):
            validate_move(word, Move(PENCIL, 0, bad))


def test_validate_move_refuses_a_polar_split():
    word = [Hyperplane(v) for v in _in_plane(3, 0.0, 0.4)]
    split = (Hyperplane((0, 0, 1)), Hyperplane((0, 1, 0)))
    with pytest.raises(ValueError, match="not part of the O\\(n\\) calculus"):
        validate_move(word, Move(POLAR_SPLIT, 0, split))


def test_validate_move_rejects_mirrors_of_another_dimension():
    word = [Hyperplane(v) for v in _in_plane(4, 0.0, 0.4)]
    move = Move(PENCIL, 0, tuple(Hyperplane(v) for v in _in_plane(3, 0.5, 0.9)))
    with pytest.raises(ValueError, match="share the word's dimension"):
        validate_move(word, move)


def test_validate_move_on_a_near_coincident_pair_does_not_divide_by_zero():
    for n in (2, 3, 5):
        a = [1.0] + [0.0] * (n - 1)
        near = [list(a) for _ in range(3)]
        for k, v in enumerate(near):
            v[1 + k % (n - 1)] = 1e-10
        h = [Hyperplane(v) for v in [a] + near]
        assert not h[0] == h[1]
        # every pivot after a is at most 1e-10 long, or exactly zero
        for four in ((h[0], h[1], h[0], h[1]), (h[0], h[0], h[0], h[0]), tuple(h)):
            move = Move(PENCIL, 0, four[2:])
            assert validate_move(list(four[:2]), move) == list(four[2:])


def _perturbed(rng, h, size):
    return Hyperplane(np.asarray(h.values) + size * rng.standard_normal(len(h.values)))


def _accepts(word, move) -> bool:
    try:
        validate_move(word, move)
    except ValueError:
        return False
    return True


def _reference_accepts(a, b, c, d) -> bool:
    if len(a) > 2 and plane_singular_value(a, b, c, d) > math.sqrt(EPS_VERIFY):
        return False
    return pair_product_distance(a, b, c, d) <= EPS_VERIFY


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_validate_move_agrees_with_householder_products(n):
    # near the plane threshold the residual and the third singular value may
    # name different reasons for one rejection; accepting is what must agree
    rng = np.random.default_rng(90 + n)
    decisions = []
    for _ in range(12):
        w = sampling.random_word(rng, "on", 3 * n, dim=n)
        trace = []
        normalize_word(w, dim=n, trace=trace)
        state = list(w)
        for mv in trace:
            if mv.kind == PENCIL:
                i = mv.index
                for size in (0.0, 1e-12, 1e-6, 1e-4, 1e-1):
                    c, d = mv.mirrors
                    if size:
                        c = _perturbed(rng, c, size)
                    four = [h.values for h in (state[i], state[i + 1], c, d)]
                    assert orthon._pair_product_distance(*four) == pytest.approx(
                        pair_product_distance(*four), rel=0, abs=1e-12
                    )
                    expected = _reference_accepts(*four)
                    assert _accepts(state, Move(PENCIL, i, (c, d))) == expected
                    decisions.append(expected)
            state = validate_move(state, mv)
    assert True in decisions and False in decisions


def test_validate_move_makes_no_numpy_call(monkeypatch):
    rng = np.random.default_rng(91)
    w = sampling.random_word(rng, "on", 64, dim=5)
    trace = []
    out = normalize_word(w, dim=5, trace=trace)
    assert any(mv.kind == PENCIL for mv in trace)
    calls = []
    for module, name in ((np.linalg, "svd"), (np, "eye"), (np, "outer")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    state = list(w)
    for mv in trace:
        state = validate_move(state, mv)
    assert state == out
    assert calls == []


def _jittered(rng, n, jitter, length):
    base = rng.standard_normal(n)
    base /= np.linalg.norm(base)
    return [Hyperplane(base + jitter * rng.standard_normal(n)) for _ in range(length)]


@pytest.mark.parametrize("jitter", [1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("n", [3, 5])
def test_normals_jittered_about_one_direction_meet_eps_verify(n, jitter):
    # six normals within ~jitter of each other, as in verify-mix's near-degenerate slice
    rng = np.random.default_rng(69)
    for _ in range(150):
        w = _jittered(rng, n, jitter, 6)
        out = normalize_word(w, dim=n)
        assert len(out) <= n
        assert cli.residual("on", w, out, n) <= EPS_VERIFY


@pytest.mark.parametrize("n", [3, 5])
def test_clustered_normals_meet_eps_verify_or_raise(n):
    # k clusters of three normals: the steering either reduces them within
    # eps_verify or gives up with a typed error, never silently off
    rng = np.random.default_rng(70)
    reduced = 0
    for k in range(1, n):
        for jitter in (1e-7, 1e-9, 3e-9):
            for _ in range(40):
                w = [h for _ in range(k) for h in _jittered(rng, n, jitter, 3)]
                try:
                    out = normalize_word(w, dim=n)
                except DegenerateSteering:
                    continue
                reduced += 1
                assert cli.residual("on", w, out, n) <= EPS_VERIFY
    assert reduced > 0


def test_normalize_trivial():
    assert normalize_word([], dim=4) == []
    h = Hyperplane((1, 2, 0, 0))
    assert normalize_word([h, h]) == []


def test_normalize_random_words():
    rng = np.random.default_rng(65)
    for n in (2, 3, 4, 5):
        for _ in range(80):
            k = int(rng.integers(0, 10))
            w = sampling.random_word(rng, "on", k, dim=n)
            out = normalize_word(w, dim=n)
            assert len(out) <= n
            assert (k - len(out)) % 2 == 0
            assert float(
                np.linalg.norm(word_to_matrix(w, n) - word_to_matrix(out, n))
            ) <= 1e-8


def test_normalize_nine_word_in_dim_four():
    rng = np.random.default_rng(66)
    w = sampling.random_word(rng, "on", 9, dim=4)
    out = normalize_word(w)
    assert len(out) <= 3  # parity: 9 is odd, so at most n-1 = 3
    assert float(np.linalg.norm(word_to_matrix(w, 4) - word_to_matrix(out, 4))) <= 1e-8


def test_det_parity_through_replay():
    rng = np.random.default_rng(67)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        w = sampling.random_word(rng, "on", int(rng.integers(0, 9)), dim=n)
        trace = []
        out = normalize_word(w, dim=n, trace=trace)
        states = replay_moves(w, trace)
        assert states[-1] == out
        for st in states:
            M = word_to_matrix(st, n)
            assert np.linalg.det(M) == pytest.approx((-1.0) ** len(st), abs=1e-9)


@pytest.mark.parametrize("dim", [0, -1])
def test_random_word_rejects_dimension_below_one(dim):
    # a zero-length Gaussian vector never passes the sampler's norm check
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="dimension"):
        sampling.random_word(rng, "on", 3, dim=dim)
    assert sampling.random_word(rng, "on", 0, dim=dim) == []


def _steering_move(monkeypatch, e1, v, cs, cv):
    """The pencil move _steer_moves records on the pair (e1, v) for the dependency's (cs, cv)."""
    y = [cs * a + cv * b for a, b in zip(e1, v)]
    # the third mirror is the move's x itself, so steering stops after one move
    w = [Hyperplane(e1), Hyperplane(v), Hyperplane(y)]
    sink = []
    # the chosen dependency
    with monkeypatch.context() as m:
        m.setattr(orthon, "_dependency", lambda w: [cs, cv, 0.0])
        orthon._steer_moves(w, sink)
    (move,) = sink
    return move


def test_pencil_turn_is_the_so3_turn(monkeypatch):
    # the first mirror of a steering move is x turned back by the angle from e1 to v
    rng = np.random.default_rng(73)
    for _ in range(500):
        e1, v = (Hyperplane(rng.standard_normal(3)).values for _ in range(2))
        cs, cv = rng.standard_normal(2)
        u, x = (h.values for h in _steering_move(monkeypatch, e1, v, cs, cv).mirrors)
        expected = canonical_unit3(*so3.pencil_turn(v, e1, x))
        assert max(abs(a - b) for a, b in zip(u, expected)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_steering_pencil_move_keeps_the_pair_product(monkeypatch, n):
    # one pencil move of _steer_moves, on pairs from far apart to nearly
    # coincident, carrying shares of the dependency down to 1e-8
    rng = np.random.default_rng(74)
    for angle in (1.0, 1e-2, 1e-4, 1e-6, 1e-8, 3e-9):
        for share in (1e-2, 1e-4, 1e-6, 1e-8):
            for _ in range(10):
                q = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
                e1 = Hyperplane(q[0]).values
                v = Hyperplane(math.cos(angle) * q[0] + math.sin(angle) * q[1]).values
                cs, cv = rng.standard_normal(2)
                scale = share / float(np.linalg.norm(cs * np.array(e1) + cv * np.array(v)))
                cs, cv = cs * scale, cv * scale
                u, x = (h.values for h in _steering_move(monkeypatch, e1, v, cs, cv).mirrors)
                assert orthon._pair_product_distance(e1, v, u, x) <= 1e-14
                assert orthon._off_plane_residual(e1, v, u, x) <= 1e-14


@pytest.mark.parametrize(
    "v",
    [
        [0.6, 0.8, 0.0],
        [3.0, -4.0, 12.0],
        [-1.0, 1e-12, 0.0],
        [0.0, -0.0, -2.0],
        [1.0 + 1e-14, 0.0],
        [1e200, -1e200, 3e199],
        [1e-5, 2e-5],
        [0.0, 0.0, 0.0],
        [1e-10, 0.0],
        [math.inf, 0.0],
        [math.nan, 1.0],
        [-0.0, 1.0, -0.0],
        [-0.0, -0.0, -1.0],
        [EPS_COINCIDE, -1.0, 0.0],
        [-EPS_COINCIDE, 1.0, 0.0],
        [-EPS_COINCIDE, -EPS_COINCIDE, 0.5],
        [1.0 + 1e-14, 0.0, 0.0],
        [1.0 - 1e-14, -0.0, 0.0],
        [-0.6 * (1.0 - 1e-14), 0.8, 0.0],
        [1e308, -1e308, 1e308],
        [-1e200, 1e200, 0.0],
        [1e-10, 0.0, 0.0],
        [0.0, -math.inf, 1.0],
        [1.0, math.nan, 0.0],
        [0.0, 0.0, 0.0],
    ],
)
def test_hyperplane_from_square_is_the_constructor(v):
    # the rewrite's float paths: every n through from_square, 3-vectors
    # through Direction3.from_floats too
    paths = [(Hyperplane, lambda: Hyperplane.from_square(list(v), dot_n(v, v)))]
    if len(v) == 3:
        for cls in (so3.Axis, sphere.GreatCircle):
            paths.append((cls, lambda cls=cls: cls.from_floats(*v)))
    for cls, build in paths:
        try:
            expected = cls(v).values
        except DegenerateInput:
            with pytest.raises(DegenerateInput):
                build()
            continue
        h = build()
        assert type(h) is cls
        assert [x.hex() for x in h.values] == [x.hex() for x in expected]


def _two_loop_coincident(a, b):
    p, q = a.values, b.values
    c = dot_n(p, q)
    return math.sqrt(sum((x - c * y) ** 2 for x, y in zip(p, q))) <= EPS_COINCIDE


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_coincident_is_the_two_loop_formula(n):
    # the early exit at c^2 < 0.999999 sits at the angle asin(1e-3)
    edge = math.asin(1e-3)
    angles = [1e-12, 1e-10, 9e-10, 1e-9, 1.1e-9, 1e-8, 1e-6, 1e-4, 1e-2]
    angles += [edge * (1.0 + k * 1e-7) for k in range(-3, 4)]
    rng = np.random.default_rng(75)
    for angle in angles:
        for _ in range(20):
            q = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
            a = Hyperplane(q[0])
            for sign in (1.0, -1.0):
                b = Hyperplane(sign * (math.cos(angle) * q[0] + math.sin(angle) * q[1]))
                assert orthon.coincident(a, b) == _two_loop_coincident(a, b)
                assert orthon.coincident(b, a) == _two_loop_coincident(b, a)
