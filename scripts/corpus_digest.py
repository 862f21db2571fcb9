"""Digest of the rewrite's output on a fixed seeded corpus, one line per family.

Run it before and after a change that should leave the rewrite's output
as it is: a line that differs names a family in which a normal form, a
trace, a residual, an error or a classification moved. Each line gives
the family, its word count, the number of words that raised a
GeometryError, the number whose residual exceeds EPS_VERIFY, the worst
residual of the words that did not raise, and the first 16 hex digits of
two SHA-256 hashes over its words in order. For the first (`sha256`), a
word adds the mirror values of its normal form, each move of its trace
(kind, index and mirror values), its oracle residual and the
`classification_json` of its normal form, or the type name of the error
it raised. The second (`rewrite`) reads the same without the residual, so
a change that moves only residual digits leaves it as it was. Floats
enter by `repr`, so a digest changes with any bit.

Families (each restarts the generator at SEED):
  random <g> short     RANDOM_WORDS seeded words of lengths 0-12
  random <g> long      LONG_WORDS seeded words of lengths 64-256
  random <g> sandwich  LONG_WORDS words u.v.rev(v).w of seeded parts
                       of lengths 0-64, whose middle cancels
                       (g: e2, s2, so3, on2, on3, on5, on8)
  near <g> <jitter>    perfbench's near_degenerate_word, six mirrors
                       jittered about one direction, repeated to lengths
                       6, 12 and 36, NEAR_WORDS words a length (each
                       length restarts the generator); S2 circles are
                       the SO(3) axes' directions (g: e2, s2, so3, on3,
                       on5)

With --out PATH it also writes the near families' counts per length
(words within EPS_VERIFY, raised, over, and the worst residual of the
words that did not raise) to PATH in BENCH_robust.json's schema, one cell
per group, jitter and length; without it, it writes nothing.
tests/test_robust.py pins the raised and over counts of every cell, on
the first 100 words of each (near_words).

    python3 scripts/corpus_digest.py [--out BENCH_robust.json]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from mirrorwords import cli, sampling  # noqa: E402
from mirrorwords.numerics import EPS_VERIFY, GeometryError  # noqa: E402
from mirrorwords.sphere import GreatCircle  # noqa: E402

GROUPS = {
    "e2": ("e2", 2),
    "s2": ("s2", 3),
    "so3": ("so3", 3),
    "on2": ("on", 2),
    "on3": ("on", 3),
    "on5": ("on", 5),
    "on8": ("on", 8),
}
NEAR_GROUPS = ("e2", "s2", "so3", "on3", "on5")
NEAR_FAMILY = "near-parallel"
JITTERS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)
LENGTHS = (6, 12, 36)
RANDOM_WORDS = 600
LONG_WORDS = 20
NEAR_WORDS = 200
SEED = 77


def _random_words(label: str, low: int, high: int, count: int):
    group, dim = GROUPS[label]
    rng = np.random.default_rng(SEED)
    for _ in range(count):
        yield sampling.random_word(rng, group, int(rng.integers(low, high + 1)), dim=dim)


def _sandwiches(label: str, count: int):
    group, dim = GROUPS[label]
    rng = np.random.default_rng(SEED)
    for _ in range(count):
        u, v, w = (sampling.random_word(rng, group, int(n), dim=dim) for n in rng.integers(0, 65, 3))
        yield u + v + v[::-1] + w


def near_words(label: str, jitter: float, length: int):
    """The NEAR_WORDS words of one near cell, the generator restarted at SEED."""
    group, dim = GROUPS[label]
    source = "so3" if group == "s2" else group
    rng = np.random.default_rng(SEED)
    for _ in range(NEAR_WORDS):
        six = workloads.near_degenerate_word(rng, source, dim, jitter)
        if group == "s2":
            six = [GreatCircle(a.values) for a in six]
        yield [six[i % 6] for i in range(length)]


def families():
    """(name, group label, jitter, words) for every family, in output order.

    The jitter is None for the random families.
    """
    for label in GROUPS:
        yield f"random {label} short", label, None, _random_words(label, 0, 12, RANDOM_WORDS)
        yield f"random {label} long", label, None, _random_words(label, 64, 256, LONG_WORDS)
        yield f"random {label} sandwich", label, None, _sandwiches(label, LONG_WORDS)
    for label in NEAR_GROUPS:
        for jitter in JITTERS:
            words = itertools.chain.from_iterable(near_words(label, jitter, n) for n in LENGTHS)
            yield f"near {label} {jitter:.0e}", label, jitter, words


def record(label: str, word) -> tuple | str:
    """What the digest reads of one word: its results, or its error's name."""
    group, dim = GROUPS[label]
    geometry = cli.GEOMETRIES[group]
    trace = []
    try:
        out = geometry.normalize_word(word, trace, dim)
        residual = cli.residual(group, word, out, dim)
        classification = geometry.classification_json(out, dim)
    except GeometryError as exc:
        return type(exc).__name__
    moves = tuple((m.kind, m.index, tuple(x.values for x in m.mirrors)) for m in trace)
    return tuple(x.values for x in out), moves, residual, classification


def new_cell() -> dict:
    return {"within": 0, "raised": 0, "over": 0, "worst_residual": 0.0}


def count(cell: dict, r) -> None:
    """Add one word's record to a cell's counts."""
    if isinstance(r, str):
        cell["raised"] += 1
        return
    cell["over" if r[2] > EPS_VERIFY else "within"] += 1
    cell["worst_residual"] = max(cell["worst_residual"], r[2])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the near families' counts per length here")
    args = parser.parse_args()
    cells = []
    for name, label, jitter, words in families():
        digest = hashlib.sha256()
        rewrite = hashlib.sha256()
        total = new_cell()
        by_length = {}
        for word in words:
            r = record(label, word)
            count(total, r)
            if jitter is not None:  # a near word's length names its cell
                count(by_length.setdefault(len(word), new_cell()), r)
            rest = r if isinstance(r, str) else (r[0], r[1], r[3])
            digest.update(repr(r).encode())
            digest.update(b"\n")
            rewrite.update(repr(rest).encode())
            rewrite.update(b"\n")
        cells += [
            {"group": label, "family": NEAR_FAMILY, "jitter": jitter, "length": length, **cell}
            for length, cell in by_length.items()
        ]
        print(
            f"{name:24s} words {total['within'] + total['raised'] + total['over']:5d}  "
            f"raised {total['raised']:4d}  over {total['over']:4d}  "
            f"worst {total['worst_residual']:.3e}  sha256 {digest.hexdigest()[:16]}  "
            f"rewrite {rewrite.hexdigest()[:16]}"
        )
    if args.out is not None:
        result = {"seed": SEED, "words_per_cell": NEAR_WORDS, "bound": EPS_VERIFY, "cells": cells}
        args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
