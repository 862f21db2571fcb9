"""Compare the O(n) rewrite of a parent commit with this checkout's, word by word.

A change to O(n) arithmetic cannot match its parent's traces bit for bit,
because the rewrite amplifies last-bit differences. So it is held to an
identity bound instead, on the random O(n) families of
scripts/corpus_digest.py (`random on<n> short|long|sandwich`): move kinds,
indices, normal-form lengths and error types must be identical; mirrors
should stay within MIRROR_BOUND of the parent's, each family's worst
residual within RESIDUAL_RATIO times the parent's, and the corpus's worst
no larger. Each side's families are computed in a child process, by that
side's own corpus_digest.py on its own package; the parent's tracked files
are written to a temporary directory with bench_pairs.export.

It prints one line per family (structure mismatches, the largest distance
between corresponding mirrors of the normal forms and traces, the worst
residual of each side and their ratio) and the misses of the bound. It
exits 1 when a move kind, an index, a length or an error type differs,
and 0 otherwise: a mirror or residual miss is reported, not failed.

    python3 scripts/on_identity.py --parent HEAD~1
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export, git  # noqa: E402

MIRROR_BOUND = 1e-9
RESIDUAL_RATIO = 2.0

# run in a checkout: print its random O(n) families' records as JSON
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/scripts")
import corpus_digest as cd
out = {}
for name, label, jitter, words in cd.families():
    if jitter is None and label.startswith("on"):
        out[name] = [cd.record(label, w) for w in words]
json.dump(out, sys.stdout)
"""


def records(checkout: Path) -> dict:
    """Family name -> the digest record of each word, computed in checkout."""
    done = subprocess.run([sys.executable, "-c", _CHILD, str(checkout)], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the digest failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def _mirrors(r) -> list:
    """The mirror values of a record's normal form, then of its moves."""
    out, moves = r[0], r[1]
    return list(out) + [m for move in moves for m in move[2]]


def compare(parent: dict, change: dict) -> dict:
    """Per family: the words whose structure differs, the largest mirror
    distance and each side's worst residual.

    A record is an error's type name, or (normal form, moves, residual,
    classification) with each move (kind, index, mirrors). Mismatches are
    (word index, what differs): "error type", "length" or "moves" (a kind
    or an index); mirrors are compared only where the moves agree.
    """
    report = {}
    for name, old in parent.items():
        new = change.get(name, [])
        mismatches = [] if len(old) == len(new) else [(min(len(old), len(new)), "word count")]
        distance = 0.0
        worst = [0.0, 0.0]
        for i, (a, b) in enumerate(zip(old, new)):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    mismatches.append((i, "error type"))
                continue
            worst = [max(worst[0], a[2]), max(worst[1], b[2])]
            if len(a[0]) != len(b[0]):
                mismatches.append((i, "length"))
            elif [m[:2] for m in a[1]] != [m[:2] for m in b[1]]:
                mismatches.append((i, "moves"))
            else:
                for p, q in zip(_mirrors(a), _mirrors(b)):
                    distance = max(distance, math.dist(p, q))
        report[name] = {
            "words": len(old),
            "mismatches": mismatches,
            "max_mirror_distance": distance,
            "worst_residual": worst,
        }
    return report


def misses(report: dict) -> list:
    """The identity bound's misses, one line each."""
    lines = []
    for name, fam in report.items():
        old, new = fam["worst_residual"]
        if fam["max_mirror_distance"] > MIRROR_BOUND:
            lines.append(f"{name}: mirrors moved by {fam['max_mirror_distance']:.3e}")
        if new > RESIDUAL_RATIO * old:
            lines.append(f"{name}: worst residual {old:.3e} -> {new:.3e} ({new / old:.2f}x)"
                         if old else f"{name}: worst residual 0 -> {new:.3e}")
    old = max((f["worst_residual"][0] for f in report.values()), default=0.0)
    new = max((f["worst_residual"][1] for f in report.values()), default=0.0)
    if new > old:
        lines.append(f"corpus worst residual {old:.3e} -> {new:.3e}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    args = p.parse_args(argv)
    try:
        parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        p.error(f"--parent {args.parent} is not a commit of this repository")
    with tempfile.TemporaryDirectory(prefix="on-identity-") as tmp:
        export(parent, Path(tmp))
        report = compare(records(Path(tmp)), records(ROOT))
    print(f"parent {parent[:12]} against this checkout")
    for name, fam in report.items():
        old, new = fam["worst_residual"]
        ratio = f"{new / old:.2f}x" if old else "-"
        print(f"{name:24s} words {fam['words']:4d}  mismatches {len(fam['mismatches']):3d}  "
              f"mirrors {fam['max_mirror_distance']:.1e}  worst {old:.3e} -> {new:.3e} ({ratio})")
        for i, what in fam["mismatches"][:5]:
            print(f"  word {i}: {what} differ")
    lines = misses(report)
    print("identity bound: " + ("met" if not lines else "missed"))
    for line in lines:
        print(f"  {line}")
    return 1 if any(fam["mismatches"] for fam in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
