"""The near-degenerate families of scripts/corpus_digest.py: the ratchet and the record."""

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import corpus_digest  # noqa: E402

# (over, raised) on the first 100 words of each (group, jitter, length)
# cell; every cell not listed is (0, 0)
PINS = {
    ("s2", 1e-9, 36): (24, 12),
    ("so3", 1e-9, 36): (24, 12),
    ("on3", 1e-7, 36): (1, 0),
    ("on3", 1e-9, 12): (1, 0),
    ("on3", 1e-9, 36): (61, 0),
    ("on5", 1e-3, 12): (0, 96),
    ("on5", 1e-3, 36): (0, 100),
    ("on5", 1e-5, 36): (0, 3),
    ("on5", 1e-9, 12): (0, 2),
    ("on5", 1e-9, 36): (37, 1),
}
CELL_WORDS = 100


@pytest.mark.parametrize(
    "label, jitter", list(itertools.product(corpus_digest.NEAR_GROUPS, corpus_digest.JITTERS))
)
def test_near_words_stay_within_their_pins(label, jitter):
    # a ratchet: per length, the words silently over EPS_VERIFY and the
    # words rejected with a GeometryError may fall below their pins, never
    # rise above them. Any other exception fails the test.
    for length in corpus_digest.LENGTHS:
        cell = corpus_digest.new_cell()
        for word in itertools.islice(corpus_digest.near_words(label, jitter, length), CELL_WORDS):
            corpus_digest.count(cell, corpus_digest.record(label, word))
        over, raised = PINS.get((label, jitter, length), (0, 0))
        assert cell["over"] <= over and cell["raised"] <= raised, f"length {length}: {cell}"


def test_the_record_holds_one_cell_per_near_cell_of_the_digest():
    record = json.loads((ROOT / "BENCH_robust.json").read_text(encoding="utf-8"))
    assert (record["seed"], record["words_per_cell"]) == (corpus_digest.SEED, corpus_digest.NEAR_WORDS)
    keys = [(c["group"], c["jitter"], c["length"]) for c in record["cells"]]
    expected = itertools.product(corpus_digest.NEAR_GROUPS, corpus_digest.JITTERS, corpus_digest.LENGTHS)
    assert keys == list(expected)
    for c in record["cells"]:
        assert c["family"] == corpus_digest.NEAR_FAMILY
        assert c["within"] + c["raised"] + c["over"] == corpus_digest.NEAR_WORDS
