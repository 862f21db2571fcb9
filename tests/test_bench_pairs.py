import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _verdict(parent, change, better="higher"):
    entry = bench_pairs.compare(parent, change, better)
    return bench_pairs.rule(entry, len(parent), better)


def test_rule_needs_nine_of_ten_wins_and_a_gap_above_the_parent_iqr():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]
    assert _verdict(parent, [p + 10.0 for p in parent])["met"]
    # nine wins, one loss: still met
    assert _verdict(parent, [p + 10.0 for p in parent[:9]] + [90.0])["met"]
    # eight wins: not met, however large the gap
    assert not _verdict(parent, [p + 10.0 for p in parent[:8]] + [90.0, 90.0])["met"]
    # ten wins by less than the parent's IQR of 2.0: not met
    verdict = _verdict(parent, [p + 1.0 for p in parent])
    assert verdict["change_better_in_pairs"] == 10 and verdict["parent_iqr"] == 2.0
    assert not verdict["met"]
    # fewer than ten pairs never meet it
    assert not _verdict(parent[:9], [p + 10.0 for p in parent[:9]])["met"]


def test_rule_on_a_lower_is_better_metric():
    parent = [50.0, 51.0, 52.0, 53.0, 54.0] * 2
    assert _verdict(parent, [p - 10.0 for p in parent], "lower")["met"]
    assert not _verdict(parent, [p + 10.0 for p in parent], "lower")["met"]


def test_export_writes_the_parent_commit(tmp_path):
    try:
        head = bench_pairs.git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    bench_pairs.export(head, tmp_path)
    tracked = bench_pairs.git("show", f"{head}:perfbench/run.py")
    assert (tmp_path / "perfbench" / "run.py").read_text(encoding="utf-8").rstrip("\n") == tracked
    assert not (tmp_path / ".git").exists()
