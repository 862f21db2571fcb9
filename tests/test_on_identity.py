import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
_spec = importlib.util.spec_from_file_location("on_identity", ROOT / "scripts" / "on_identity.py")
on_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(on_identity)

A, B, C = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]


def _word(out, moves, residual):
    """One digest record as the child process writes it (JSON lists)."""
    return [out, moves, residual, {"kind": "orthogonal"}]


def _family():
    return [
        _word([A], [["pencil", 0, [B, C]], ["involution", 1, []]], 1e-13),
        "DegenerateSteering",
        _word([], [["involution", 0, []]], 0.0),
    ]


def test_identical_families_have_no_mismatch_and_no_miss():
    report = on_identity.compare({"f": _family()}, {"f": _family()})
    assert report["f"] == {
        "words": 3,
        "mismatches": [],
        "max_mirror_distance": 0.0,
        "worst_residual": [1e-13, 1e-13],
    }
    assert on_identity.misses(report) == []


def test_moved_mirrors_and_residuals_are_measured_not_mismatched():
    change = _family()
    change[0] = _word([[1.0, 3e-9, 0.0]], [["pencil", 0, [B, [0.0, 4e-9, 1.0]]], ["involution", 1, []]], 3e-13)
    report = on_identity.compare({"f": _family()}, {"f": change})
    assert report["f"]["mismatches"] == []
    assert report["f"]["max_mirror_distance"] == pytest.approx(4e-9, rel=1e-15)
    assert report["f"]["worst_residual"] == [1e-13, 3e-13]
    lines = on_identity.misses(report)
    assert len(lines) == 3
    assert "mirrors moved" in lines[0] and "3.00x" in lines[1] and lines[2].startswith("corpus")


def test_kinds_indices_lengths_and_errors_must_match():
    cases = {
        "moves": _word([A], [["pencil", 1, [B, C]], ["involution", 1, []]], 1e-13),  # index
        "length": _word([A, B, C], [["pencil", 0, [B, C]]], 1e-13),
    }
    for what, word in cases.items():
        change = _family()
        change[0] = word
        report = on_identity.compare({"f": _family()}, {"f": change})
        assert report["f"]["mismatches"] == [(0, what)]
    change = _family()
    change[2] = _word([], [["pencil", 0, [A, B]]], 0.0)  # kind
    assert on_identity.compare({"f": _family()}, {"f": change})["f"]["mismatches"] == [(2, "moves")]
    for word in ("NotConcurrent", _word([A], [], 0.0)):
        change = _family()
        change[1] = word
        assert on_identity.compare({"f": _family()}, {"f": change})["f"]["mismatches"] == [(1, "error type")]
