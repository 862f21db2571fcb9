#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mirrorwords, in calibrated time.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 20 --trace 0

Workloads: verify-mix, long-words, audit-replay (see README.md). The
program is imported from ``src/`` of the checkout this script sits in.
Every time is a wall-clock time divided by the speed of the reference
computation in reference.py, which runs in alternation with the workload.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run measures untraced, then
installs the span and count wrappers of tracing.py and prints the
per-layer metrics instead. Details of each run go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported here or in a
# set-up interpreter (which inherits this environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed for setup_s, after one untimed warm-up that
# fills the bytecode cache; the median is reported. One interpreter's
# calibrated time spreads by 12-20% (IQR) here, so it takes about ten to
# bring the median's spread under a third of setup_s's bound.
SETUP_SAMPLES = 11
SETUP_REF_BLOCKS = 1200
# A phase never runs longer than this, whatever min_rounds asks for.
PHASE_LIMIT_S = 120.0
WORKLOAD_NAMES = ("verify-mix", "long-words", "audit-replay")


class Phase:
    """Words of one measuring phase, each calibrated by its slice's reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.lat_ref: list[float] = []
        self.lat_wall: list[float] = []
        self.total_ref = 0.0
        self.total_wall = 0.0
        self.factors: list[float] = []
        self.failures: Counter = Counter()
        self._pending: list[tuple[float, bool]] = []

    def record(self, item, wall: float, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            expected = item.kind == "near-degenerate"
            self.unexpected += not expected
            tag = "expected" if expected else "UNEXPECTED"
            self.failures[f"{tag} {item.label}: {problems[0]}"[:240]] += 1
        self._pending.append((wall, not problems))

    def close_slice(self, calibrator, before: float, span_s: float) -> float:
        after = calibrator.slice_after(span_s)
        f = calibrator.ref_s_per_wall_s(before, after)
        self.factors.append(f)
        for wall, ok in self._pending:
            self.total_ref += wall * f
            self.total_wall += wall
            if ok:
                self.lat_ref.append(wall * f)
                self.lat_wall.append(wall)
        self._pending.clear()
        return after

    def words_per_s(self, calibrated: bool = True) -> float:
        total = self.total_ref if calibrated else self.total_wall
        return (self.attempted - self.failed) / total


def run_phase(wl, calibrator, seconds: float, min_rounds: int, max_rounds=None, tracer=None) -> Phase:
    """Run whole rounds of the workload for about ``seconds``, alternating with reference slices."""
    ph = Phase()
    before = calibrator.slice()
    start = slice_start = time.perf_counter()
    rounds = 0
    while True:
        for item in wl.items:
            data = wl.prepare(item)
            if tracer is not None:
                tracer.begin(item.label, item.length)
            t0 = time.perf_counter()
            try:
                result = wl.run(item, data)
                error = None
            except Exception as exc:  # a word that raises is counted as failed
                result = None
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end()
            ph.record(item, t1 - t0, [error] if error else wl.check(item, data, result))
            span = time.perf_counter() - slice_start
            if span >= calibrator.workload_slice_s:
                before = ph.close_slice(calibrator, before, span)
                slice_start = time.perf_counter()
        rounds += 1
        elapsed = time.perf_counter() - start
        if max_rounds is not None and rounds >= max_rounds:
            break
        if (rounds >= min_rounds and elapsed >= seconds) or elapsed >= PHASE_LIMIT_S:
            break
    ph.close_slice(calibrator, before, time.perf_counter() - slice_start)
    return ph


def _importtime(stderr: str) -> Counter:
    """Import microseconds of numpy, scipy and mirrorwords from ``-X importtime``.

    Each module's own time goes to the outermost numpy or scipy import it
    happens under, else to its own package if that is one of the three,
    else to the package that imported it; so the totals do not overlap,
    and scipy's includes the parts of numpy that only scipy loads.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        head, _, name = line.split("|")
        own = head.split(":")[1].strip()
        if not own.isdigit():
            continue
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, int(own), name.strip().split(".")[0]))
    totals = Counter()
    stack: list[tuple[int, str | None]] = []
    # entries are printed children first; reversed, each parent precedes its children
    for level, own, top in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        outer = stack[-1][1] if stack else None
        if outer in ("numpy", "scipy") or top not in ("numpy", "scipy", "mirrorwords"):
            package = outer
        else:
            package = top
        totals[package] += own
        stack.append((level, package))
    return totals


def measure_setup(calibrator, workload: str, seed: int, importtime: bool) -> list:
    """Time fresh interpreters, one at a time, each between two reference slices."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_child.py"), str(ROOT), workload, str(seed)]

    def child():
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    child()
    samples = []
    before = calibrator.slice(SETUP_REF_BLOCKS)
    for _ in range(SETUP_SAMPLES):
        proc, rec = child()
        after = calibrator.slice(SETUP_REF_BLOCKS)
        f = calibrator.ref_s_per_wall_s(before, after)
        before = after
        sample = {
            "wall_s": rec["import_s"] + rec["first_word_s"],
            "ref_s": (rec["import_s"] + rec["first_word_s"]) * f,
            "first_word_s": rec["first_word_s"] * f,
            "module": rec["module"],
        }
        if importtime:
            us = _importtime(proc.stderr)
            for top in ("numpy", "scipy", "mirrorwords"):
                sample[f"{top}_s"] = us[top] * 1e-6 * f
        samples.append(sample)
    return samples


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _percentile(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def latency_metrics(ph: Phase, tail: float, calibrated: bool) -> dict:
    lat = ph.lat_ref if calibrated else ph.lat_wall
    return {
        "words_per_s": ph.words_per_s(calibrated),
        "word_p50_us": _percentile(lat, 50.0) * 1e6,
        "word_tail_us": _percentile(lat, tail) * 1e6,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mirrorwords" / "__init__.py").is_file():
        print(f"error: mirrorwords sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import reference

    calibrator = reference.Calibrator()
    try:
        setup = measure_setup(calibrator, args.workload, args.seed, importtime=bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import mirrorwords

    import checker
    import workloads

    for path in [mirrorwords.__file__] + [s["module"] for s in setup]:
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            print(f"error: mirrorwords imported from {path}, not from {SRC}", file=sys.stderr)
            return 2
    missed = checker.self_test()
    if missed:
        print(f"error: checker self-test missed: {', '.join(missed)}", file=sys.stderr)
        return 1

    wl = workloads.WORKLOADS[args.workload](args.seed)
    first = wl.items[0]
    wl.run(first, wl.prepare(first))  # untimed first word
    gc.collect()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "setup_samples": setup,
    }
    if not args.trace:
        ph = run_phase(wl, calibrator, args.seconds, wl.min_rounds)
        phases = [ph]
        metrics = latency_metrics(ph, wl.tail_percentile, calibrated=True)
        metrics["setup_s"] = _median(setup, "ref_s")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {
            "words_per_s": "1/ref_s",
            "word_p50_us": "ref_us",
            "word_tail_us": "ref_us",
            "setup_s": "s",
            "peak_rss_mb": "MB",
        }
        raw = latency_metrics(ph, wl.tail_percentile, calibrated=False)
        raw["setup_s"] = _median(setup, "wall_s")
        report["raw_wall_clock"] = raw
        report["tail_percentile"] = wl.tail_percentile
        report["completed_words"] = len(ph.lat_ref)
    else:
        import tracing

        untraced = run_phase(wl, calibrator, args.seconds / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            gc.collect()
            traced = run_phase(wl, calibrator, 0.0, wl.trace_rounds, wl.trace_rounds, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        ref_per_wall = statistics.median(traced.factors)
        metrics, calls = tracer.layer_metrics(ref_per_wall)
        for key in ("numpy_s", "scipy_s", "mirrorwords_s", "first_word_s"):
            metrics[f"setup.{key}"] = _median(setup, key)
        base = untraced.words_per_s()
        metrics["trace.words_per_s_untraced"] = base
        metrics["trace.words_per_s_traced"] = traced.words_per_s()
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced.words_per_s() / base)
        units = {k: _layer_unit(k) for k in metrics}
        report["layer_calls"] = calls
        report["by_word_kind"] = tracer.by_label(ref_per_wall)
        report["spans"] = len(tracer.span_start)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(p.unexpected == 0 for p in phases)
    failures = Counter()
    for p in phases:
        failures.update(p.failures)
    factors = [f for p in phases for f in p.factors]
    report.update(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failures": dict(failures.most_common()),
            "metrics": metrics,
            "units": units,
            "wall_s_per_ref_s": 1.0 / statistics.median(factors),
            "ref_slices": len(factors),
        }
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)

    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    for line, n in failures.most_common(8):
        print(f"  {n} x {line}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.startswith("setup."):
        return "ref_s"
    if name.startswith("trace.words_per_s"):
        return "1/ref_s"
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_per_mirror") or ".moves_per_mirror." in name:
        return "ref_us" if ".us_per_" in name else "count/mirror"
    if name.endswith("_per_word") and ".us_per_" not in name:
        return "count/word"
    return "ref_us"


if __name__ == "__main__":
    sys.exit(main())
