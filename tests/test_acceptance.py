"""End-to-end acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every expected value is either pinned from an independent
oracle or checked against one inline (matrix products composed with plain
numpy, quaternion products, numpy eigendecompositions).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    affine,
    classify_plane_map,
    classify_sphere_matrix,
    line_reflection_matrix,
    plane_word_map,
    projective_representative,
    random_arc,
    random_arc_on_axis,
    random_axis,
    random_hyperplane,
    rotation_matrix,
    rotation_matrix_distance,
    rotation_to_quaternion,
    same_axis_angle,
    same_direction,
    so3_word_matrix,
    sphere_word_matrix,
    vector,
)
from mirrorwords import arrowarc, orthon, plane, sampling, so3, sphere
from test_cli import run_cli as _run_cli

GOLDEN = Path(__file__).parent / "golden"


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_plane_normalization():
    rng = np.random.default_rng(101)
    words = [
        sampling.random_word(rng, "e2", int(rng.integers(0, 13))) for _ in range(10_000)
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for w in words:
        out = plane.normalize_word(w)
        assert len(out) <= 3
        res = plane.isometry_distance(
            plane.word_to_isometry(w), plane.word_to_isometry(out)
        )
        assert res <= 1e-8
        worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"10000 E2 words: length <= 3, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_parity_soundness():
    rng = np.random.default_rng(102)
    checked = 0

    def det_e2(word):
        return float(np.linalg.det(affine(plane.word_to_isometry(word))[0]))

    for _ in range(2000):
        w = sampling.random_word(rng, "e2", int(rng.integers(0, 11)))
        trace = []
        plane.normalize_word(w, trace)
        for st in plane.replay_moves(w, trace):
            assert abs(det_e2(st) - (-1.0) ** len(st)) <= 1e-8
            checked += 1

    for _ in range(2000):
        w = sampling.random_word(rng, "s2", int(rng.integers(0, 11)))
        trace = []
        sphere.normalize_word(w, trace)
        for st in sphere.replay_moves(w, trace):
            d = float(np.linalg.det(sphere.word_to_matrix(st)))
            assert abs(d - (-1.0) ** len(st)) <= 1e-8
            checked += 1

    # SO(3) line reflections preserve orientation: det is +1 at every step
    for _ in range(2000):
        w = sampling.random_word(rng, "so3", int(rng.integers(0, 9)))
        trace = []
        so3.normalize_word(w, trace)
        for st in so3.replay_moves(w, trace):
            assert abs(float(np.linalg.det(so3_word_matrix(st))) - 1.0) <= 1e-8
            checked += 1

    for n in (2, 3, 4, 5):
        for _ in range(250):
            w = sampling.random_word(rng, "on", int(rng.integers(0, 9)), dim=n)
            trace = []
            orthon.normalize_word(w, dim=n, trace=trace)
            for st in orthon.replay_moves(w, trace):
                d = float(np.linalg.det(orthon.word_to_matrix(st, n)))
                assert abs(d - (-1.0) ** len(st)) <= 1e-8
                checked += 1

    _report(2, f"determinant parity held at every rewrite step ({checked} states)")


def test_criterion_3_sphere_normalization():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        w = sampling.random_word(rng, "s2", int(rng.integers(0, 13)))
        out = sphere.normalize_word(w)
        assert len(out) <= 3
        res = rotation_matrix_distance(
            sphere.word_to_matrix(w), sphere.word_to_matrix(out)
        )
        assert res <= 1e-8
        worst = max(worst, res)
    _report(3, f"10000 S2 words: length <= 3, worst rotation distance {worst:.2e}")


def test_criterion_4_so3_presentation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10_000):
        w = sampling.random_word(rng, "so3", int(rng.integers(0, 10)))
        out = so3.normalize_word(w)
        assert len(out) <= 2
        res = so3.quaternion_distance(
            so3.word_to_quaternion(w), so3.word_to_quaternion(out)
        )
        assert res <= 1e-8
        worst = max(worst, res)

    frame_worst = 0.0
    for _ in range(1000):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        M = np.eye(3)
        for i in range(3):
            M = line_reflection_matrix(so3.Axis(Q[:, i])) @ M
        dev = float(np.abs(M - np.eye(3)).max())
        assert dev <= 1e-12
        frame_worst = max(frame_worst, dev)
    _report(
        4,
        f"10000 SO3 words: length <= 2, worst distance {worst:.2e}; "
        f"polar frame identity worst deviation {frame_worst:.2e}",
    )


def test_criterion_5_triangle_rule():
    rng = np.random.default_rng(105)

    def check(u, v):
        w = arrowarc.triangle_compose(u, v)
        qu = rotation_to_quaternion(so3.twice_angle_rotation(u.tail, u.head))
        qv = rotation_to_quaternion(so3.twice_angle_rotation(v.tail, v.head))
        qw = rotation_to_quaternion(so3.twice_angle_rotation(w.tail, w.head))
        res = so3.quaternion_distance(qw, qv * qu)
        assert res <= 1e-8
        return res

    worst = 0.0
    for _ in range(10_000):
        worst = max(worst, check(random_arc(rng), random_arc(rng)))

    for _ in range(200):
        axis = vector(random_axis(rng))
        u = random_arc_on_axis(rng, axis)
        v = random_arc_on_axis(rng, axis * float(rng.choice([-1.0, 1.0])))
        worst = max(worst, check(u, v))

    for _ in range(200):
        axis1 = vector(random_axis(rng))
        perp = so3.probe_perpendicular(axis1)
        u = random_arc_on_axis(rng, axis1)
        v = random_arc_on_axis(rng, perp)
        worst = max(worst, check(u, v))

    u = arrowarc.rotation_to_arc(so3.rotation((0, 0, 1), math.pi / 2))
    v = arrowarc.rotation_to_arc(so3.rotation((1, 0, 0), math.pi / 2))
    w = arrowarc.triangle_compose(u, v)
    r = so3.twice_angle_rotation(w.tail, w.head)
    expected_axis = np.array([1.0, -1.0, 1.0]) / math.sqrt(3)
    assert same_axis_angle(r.axis, r.angle, expected_axis, 2 * math.pi / 3, eps=1e-9)
    _report(5, f"10400 arc compositions match the quaternion oracle, worst {worst:.2e}")


def test_criterion_6_on_decomposition():
    rng = np.random.default_rng(106)
    worst = 0.0
    for n in range(2, 9):
        for i in range(1000):
            if i % 2 == 0:
                M = orthon.word_to_matrix(
                    [random_hyperplane(rng, n) for _ in range(n)], n
                )
            else:
                M, _ = np.linalg.qr(rng.standard_normal((n, n)))
            word = orthon.decompose(M)
            assert len(word) <= n
            res = float(np.linalg.norm(orthon.word_to_matrix(word, n) - M))
            assert res <= 1e-8 * math.sqrt(n)
            worst = max(worst, res / math.sqrt(n))
    _report(6, f"7000 decompositions across n=2..8, worst residual/sqrt(n) {worst:.2e}")


def test_criterion_7_reduction_with_audited_steps():
    rng = np.random.default_rng(107)
    moves_checked = 0
    for n in range(2, 7):
        for _ in range(500):
            w = sampling.random_word(rng, "on", n + 1, dim=n)
            trace = []
            out = orthon.reduce_word(w, trace)
            assert len(out) <= n - 1
            res = float(
                np.linalg.norm(orthon.word_to_matrix(w, n) - orthon.word_to_matrix(out, n))
            )
            assert res <= 1e-8
            state = list(w)
            for mv in trace:
                state = orthon.validate_move(state, mv)
                moves_checked += 1
            assert state == out
    _report(7, f"2500 reductions n+1 -> n-1; {moves_checked} single moves replay-verified")


def test_criterion_8_classification_cross_check():
    rng = np.random.default_rng(108)

    for _ in range(1000):
        k = int(rng.integers(0, 11))
        w = sampling.random_word(rng, "e2", k)
        c = plane.classification_json(w)
        A, t = plane_word_map(w)
        ref = classify_plane_map(A, t)
        assert c["kind"] == ref[0]
        if k % 2 == 1:
            assert c["kind"] in (plane.REFLECTION, plane.GLIDE)

    for _ in range(1000):
        w = sampling.random_word(rng, "s2", int(rng.integers(0, 11)))
        c = sphere.classification_json(w)
        ref = classify_sphere_matrix(sphere_word_matrix(w))
        assert c["kind"] == ref[0]
        if c["kind"] == sphere.ROTATION:
            assert same_axis_angle(c["axis"], c["angle"], ref[1], ref[2], eps=1e-7)
        elif c["kind"] == sphere.REFLECTION:
            assert same_direction(c["circle"]["pole"], ref[1], eps=1e-7)

    for _ in range(1000):
        w = sampling.random_word(rng, "so3", int(rng.integers(1, 8)))
        r = so3.word_to_rotation(w)
        M = so3_word_matrix(w)
        assert rotation_matrix_distance(rotation_matrix(r), M) <= 1e-8

    for _ in range(1000):
        n = int(rng.integers(2, 7))
        w = sampling.random_word(rng, "on", int(rng.integers(0, 8)), dim=n)
        M = orthon.word_to_matrix(w, n)
        split = orthon.spectral_split(M)
        # block eigenvalues must reproduce numpy's spectrum
        implied = []
        for b in split.blocks:
            if b.kind == "fixed":
                implied.extend([1.0 + 0j] * b.basis.shape[0])
            elif b.kind == "negated":
                implied.append(-1.0 + 0j)
            else:
                implied.extend([np.exp(1j * b.angle), np.exp(-1j * b.angle)])
        got = np.sort_complex(np.array(implied))
        ref = np.sort_complex(np.linalg.eigvals(M))
        assert float(np.abs(got - ref).max()) <= 1e-7

    _report(8, "classification agrees with eigen-analysis on 1000 words per group")


def test_criterion_9_cross_module_consistency():
    rng = np.random.default_rng(109)
    even = {sphere.IDENTITY, sphere.ROTATION}
    for _ in range(500):
        k = int(rng.integers(0, 9))
        normals = [vector(random_axis(rng)) for _ in range(k)]
        circle_word = [sphere.GreatCircle(v) for v in normals]
        hyper_word = [orthon.Hyperplane(v) for v in normals]

        c = sphere.classification_json(circle_word)
        nw = orthon.normalize_word(hyper_word, dim=3)
        assert (len(nw) % 2 == 0) == (c["kind"] in even)

        M = sphere.word_to_matrix(circle_word)
        P = orthon.word_to_matrix(hyper_word, 3)
        assert float(np.abs(M - P).max()) <= 1e-8

        R = projective_representative(M)
        assert float(np.linalg.det(R) - 1.0) <= 1e-8
        # round trip: the representative of the representative is itself,
        # and it differs from M by at most a global sign
        np.testing.assert_array_equal(projective_representative(R), R)
        assert (
            float(np.abs(R - M).max()) <= 1e-8 or float(np.abs(R + M).max()) <= 1e-8
        )
    _report(9, "sphere/orthon/so3 agree on 500 random plane-reflection words")


def test_criterion_10_cli_conformance():
    cases = [
        (
            "normalize_involution",
            ["normalize", "E2: refl(line(0,1,0)) * refl(line(0,1,0))", "--trace"],
        ),
        (
            "classify_translation",
            ["classify", "E2: refl(line(1,0,1)) * refl(line(1,0,0))"],
        ),
        (
            "verify_so3_seed42",
            ["verify", "--group", "so3", "--count", "1000", "--max-len", "7", "--seed", "42"],
        ),
    ]
    for name, args in cases:
        result = _run_cli(*args)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / f"{name}.txt").read_text()

    twice = [
        _run_cli("verify", "--group", "so3", "--count", "1000", "--max-len", "7", "--seed", "42")
        for _ in range(2)
    ]
    assert twice[0].stdout == twice[1].stdout
    assert twice[0].returncode == 0

    check = json.loads(
        _run_cli(
            "classify", "E2: refl(line(1,0,1)) * refl(line(1,0,0))", "--json"
        ).stdout
    )
    assert check["classification"]["kind"] == "translation"
    assert check["classification"]["vector"] == [2.0, 0.0]
    _report(10, "documented invocations match goldens; verify output byte-identical")
