"""Alternating parent/change pairs of perfbench/run.py on one workload.

The change is the checkout this script sits in, as it is on disk. The
parent is a git revision, written with `git archive` into a temporary
directory that is removed afterwards; unlike a worktree, the copy leaves
nothing registered in the repository. Pair i runs both sides on seed
SEED + i, parent first when i is even and change first when it is odd.

It prints each side's median and quartiles of every end-to-end metric, the
pairs the change wins, and whether the performance rule holds for the
claimed metric: the change better in at least 9 of 10 pairs (and at least
10 pairs), and the gap between the medians larger than the parent's IQR.
The runs go into BENCH_<label>.json under a section (the workload by
default), so that several invocations fill one file, each section with the
parent's commit and the change's (its HEAD, and the tracked files that
differ from it on disk); --claim also records the rule's result there.

    python3 scripts/bench_pairs.py --workload long-words --parent HEAD~1 \\
        --pairs 10 --seed 701 --seconds 25 --label lean_rewrite --claim
    python3 scripts/bench_pairs.py --workload long-words --parent HEAD~1 \\
        --pairs 20 --seed 801 --seconds 0.001 --label lean_rewrite \\
        --section "setup_s pairs, long-words" --metric setup_s
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WIN_SHARE = 0.9
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the tracked files of commit into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)],
            "runs": [round(x, 4) for x in runs]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": summary(parent),
        "change": summary(change),
        "change_better_in_pairs": wins,
        "relative_change": round(c_med / p_med - 1.0, 4),
    }


def rule(entry: dict, pairs: int, better: str) -> dict:
    """The performance rule on one metric's comparison."""
    parent, change = entry["parent"], entry["change"]
    q1, q3 = parent["quartiles"]
    gap = change["median"] - parent["median"]
    if better != "higher":
        gap = -gap
    wins = entry["change_better_in_pairs"]
    return {
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": round(q3 - q1, 4),
        "median_gap": round(gap, 4),
        "relative_change": entry["relative_change"],
        "change_better_in_pairs": wins,
        "pairs": pairs,
        "met": pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gap > q3 - q1,
    }


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_pairs(parent_dir: Path, args) -> dict:
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent_dir if side == "parent" else ROOT
            sides[side].append(run_once(checkout, args.workload, seed, args.seconds))
        line = "  ".join(f"{s} {sides[s][-1]['metrics'][args.metric]['value']:.6g}" for s in sides)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: {line}", flush=True)
    section = {
        "seeds": [args.seed + i for i in range(args.pairs)],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "failed_of_attempted": {
            s: [f"{r['failed']}/{r['attempted']}" for r in runs] for s, runs in sides.items()
        },
        "metrics": {},
    }
    for name, spec in END_TO_END.items():
        values = {s: [r["metrics"][name]["value"] for r in runs] for s, runs in sides.items()}
        section["metrics"][name] = compare(values["parent"], values["change"], spec["better"])
    return section


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    p.add_argument("--metric", default="words_per_s", choices=list(END_TO_END))
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--section", help="the file's section for these runs (default: the workload)")
    p.add_argument("--claim", action="store_true", help="record the rule's result as the claim")
    args = p.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        p.error("--pairs must be at least 2 and --seconds positive")

    try:
        parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        p.error(f"--parent {args.parent} is not a commit of this repository")
    commits = {
        "parent": parent,
        "change": git("rev-parse", "HEAD"),
        "change_differs_in": git("diff", "--name-only", "HEAD").split(),
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export(parent, Path(tmp))
        section = run_pairs(Path(tmp), args)
    section["commits"] = commits

    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.seconds:g} s")
    for name, entry in section["metrics"].items():
        par, chg = entry["parent"], entry["change"]
        print(f"  {name:14s} parent {par['median']:.6g} {par['quartiles']}  "
              f"change {chg['median']:.6g} {chg['quartiles']}  "
              f"wins {entry['change_better_in_pairs']}/{args.pairs}  {entry['relative_change']:+.2%}")
    verdict = rule(section["metrics"][args.metric], args.pairs, END_TO_END[args.metric]["better"])
    print(f"rule on {args.metric}: wins {verdict['change_better_in_pairs']}/{args.pairs}, "
          f"median gap {verdict['median_gap']:.6g} vs parent IQR {verdict['parent_iqr']:.6g}: "
          f"{'met' if verdict['met'] else 'not met'}")

    out = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    bench.setdefault("label", args.label)
    bench["harness"] = ("python3 perfbench/run.py --workload W --seed S --seconds T --trace 0, "
                        "run by scripts/bench_pairs.py")
    bench["units"] = {name: spec["unit"] for name, spec in END_TO_END.items()}
    bench["machine"] = machine()
    bench["order"] = ("alternating: parent first on even pair index (0-based), change first on "
                      "odd; both sides of a pair use the same seed")
    if args.claim:
        bench["claim"] = {
            "workload": args.workload,
            "metric": args.metric,
            "rule": f">= {MIN_PAIRS} alternating pairs, change better in >= {WIN_SHARE:.0%} of "
                    "them, median gap > parent IQR",
            "result": verdict,
            "commits": commits,
        }
    bench[args.section or args.workload] = section
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
