"""Near-degenerate robustness sweep of the rewrite; writes BENCH_robust.json.

Each cell is one family of seeded near-degenerate words at one jitter and
one length. Every word is normalized and checked against its oracle; the
cell counts the words within EPS_VERIFY, the words rejected with a
GeometryError, and the words silently over the bound, and keeps the worst
residual of the words that were not rejected. Any other exception is a
defect and stops the sweep.

Families (each cell restarts the generator at SEED, WORDS words a cell):
  e2 / near-parallel   the benchmark's near-degenerate E2 words
                       (perfbench/workloads.py): six lines jittered about
                       one direction, offsets in [-10, 10], repeated to
                       the length

    python3 scripts/robustness.py [--out BENCH_robust.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from mirrorwords import cli  # noqa: E402
from mirrorwords.numerics import EPS_VERIFY, GeometryError  # noqa: E402


def near_parallel(rng: np.random.Generator, jitter: float, length: int) -> list:
    six = workloads.near_degenerate_word(rng, "e2", 2, jitter)
    return [six[i % 6] for i in range(length)]


FAMILIES = {("e2", "near-parallel"): near_parallel}
JITTERS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)
LENGTHS = (6, 12, 36)
WORDS = 200
SEED = 77


def sweep_cell(group: str, sample, jitter: float, length: int, words: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    within = raised = over = 0
    worst = 0.0
    for _ in range(words):
        word = sample(rng, jitter, length)
        try:
            out = cli.GEOMETRIES[group].normalize_word(word)
        except GeometryError:
            raised += 1
            continue
        residual = cli.residual(group, word, out)
        worst = max(worst, residual)
        if residual <= EPS_VERIFY:
            within += 1
        else:
            over += 1
    return {"within": within, "raised": raised, "over": over, "worst_residual": worst}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_robust.json")
    args = parser.parse_args(argv)
    cells = []
    for (group, family), sample in FAMILIES.items():
        for jitter in JITTERS:
            for length in LENGTHS:
                counts = sweep_cell(group, sample, jitter, length, WORDS, SEED)
                cells.append({"group": group, "family": family, "jitter": jitter, "length": length, **counts})
                print(
                    f"{group:4s} {family:14s} jitter {jitter:.0e} L{length:<3d} "
                    f"within {counts['within']:4d}  raised {counts['raised']:4d}  "
                    f"over {counts['over']:4d}  worst {counts['worst_residual']:.2e}"
                )
    result = {"seed": SEED, "words_per_cell": WORDS, "bound": EPS_VERIFY, "cells": cells}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
