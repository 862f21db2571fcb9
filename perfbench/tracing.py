"""Span and count tracing for the traced benchmark run.

The wrappers are installed from here, on mirrorwords' module attributes,
never inside the program. Each geometry module imports ``apply_move`` by
name and looks ``coincident`` up as a module global, so the counting
wrappers go on each geometry module as well as on ``moves``.

Each call of a layer function records a span: layer, start, end, the span
that caused it and the benchmark word it belongs to. Spans stay in
compact arrays in memory and are written out when the run ends. The two
hottest predicates, ``coincident`` and ``apply_move``, are counted rather
than spanned: a span each would cost more than the calls themselves.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np
from mirrorwords import arrowarc, cli, moves, orthon, plane, sampling, so3, sphere

# (module, attribute, layer, what a call's size counts, metric suffix)
SPAN_LAYERS = (
    (sampling, "random_word", "sampling.random_word", "word", "us_per_word"),
    (plane, "normalize_word", "plane.normalize_word", "mirror", "us_per_mirror"),
    (sphere, "normalize_word", "sphere.normalize_word", "mirror", "us_per_mirror"),
    (so3, "normalize_word", "so3.normalize_word", "mirror", "us_per_mirror"),
    (orthon, "normalize_word", "orthon.normalize_word", "mirror", "us_per_mirror"),
    (plane, "word_to_isometry", "plane.word_to_isometry", "mirror", "us_per_mirror"),
    (sphere, "word_to_matrix", "sphere.word_to_matrix", "mirror", "us_per_mirror"),
    (so3, "word_to_quaternion", "so3.word_to_quaternion", "mirror", "us_per_mirror"),
    (orthon, "word_to_matrix", "orthon.word_to_matrix", "mirror", "us_per_mirror"),
    (cli, "residual", "cli.residual", "word", "us_per_word"),
    (plane, "replay_moves", "moves.replay_moves", "move", "us_per_move"),
    (sphere, "replay_moves", "moves.replay_moves", "move", "us_per_move"),
    (so3, "replay_moves", "moves.replay_moves", "move", "us_per_move"),
    (orthon, "replay_moves", "moves.replay_moves", "move", "us_per_move"),
    (orthon, "validate_move", "orthon.validate_move", "move", "us_per_move"),
    (orthon, "reduce_word", "orthon.reduce_word", "word", "us_per_word"),
    (cli, "parse_expression", "cli.parse_expression", "word", "us_per_word"),
    (cli, "pretty", "cli.pretty", "word", "us_per_word"),
    (cli, "classification_json", "cli.classification_json", "word", "us_per_word"),
    (arrowarc, "rotation_to_arc", "arrowarc.rotation_to_arc", "word", "us_per_word"),
)
ORACLES = (
    "plane.word_to_isometry",
    "sphere.word_to_matrix",
    "so3.word_to_quaternion",
    "orthon.word_to_matrix",
)
GEOMETRY = (plane, sphere, so3, orthon)
REWRITES = ("plane.normalize_word", "sphere.normalize_word", "so3.normalize_word",
            "orthon.normalize_word", "orthon.reduce_word")
MOVE_KINDS = (moves.INVOLUTION, moves.PENCIL, moves.POLAR_SPLIT)


def _size(unit: str, args) -> int:
    if unit == "mirror":
        return len(args[0])
    if unit == "move":
        return len(args[1]) if len(args) > 1 and isinstance(args[1], (list, tuple)) else 1
    return 1


class Tracer:
    """Records spans and counts while ``active``; a no-op pass-through otherwise."""

    def __init__(self):
        self.layers: list[str] = []
        self.layer_id: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_word = array("i")
        self.span_size = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.word = -1
        self.word_labels: list[str] = []
        self.word_mirrors: list[int] = []
        self.word_counts: list[Counter] = []
        self._restore: list[tuple] = []

    # -- words -------------------------------------------------------------

    def begin(self, label: str, mirrors: int) -> None:
        self.word = len(self.word_labels)
        self.word_labels.append(label)
        self.word_mirrors.append(mirrors)
        self.word_counts.append(Counter())
        self.active = True

    def end(self) -> None:
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        for module, attr, layer, unit, _ in SPAN_LAYERS:
            self._wrap(module, attr, self._spanned(getattr(module, attr), layer, unit))
        for module in GEOMETRY:
            self._wrap(module, "coincident", self._counted_coincident(module.coincident))
        rewrite_ids = {self.layer_id[n] for n in REWRITES}
        for module in (moves,) + GEOMETRY:
            self._wrap(module, "apply_move", self._counted_apply_move(module.apply_move, rewrite_ids))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, module, attr, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, fn, layer: str, unit: str):
        lid = self.layer_id.setdefault(layer, len(self.layer_id))
        if lid == len(self.layers):
            self.layers.append(layer)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.span_start)
            self.span_layer.append(lid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_word.append(self.word)
            self.span_size.append(_size(unit, args))
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[sid] = perf()
                self.span_start[sid] = t0
                self.stack.pop()

        return wrapper

    def _counted_coincident(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.word_counts[self.word]["coincident"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_apply_move(self, fn, rewrite_ids: set):
        @functools.wraps(fn)
        def wrapper(word, move, same):
            if self.active:
                counts = self.word_counts[self.word]
                counts["copied"] += len(word)
                if self.stack and self.span_layer[self.stack[-1]] in rewrite_ids:
                    counts["move." + move.kind] += 1
            return fn(word, move, same)

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part its child spans cover."""
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - child

    def layer_metrics(self, ref_per_wall: float) -> tuple[dict, dict]:
        """Per-layer self time in ref_us per unit of work, and the exact counts."""
        own = self.self_times() * ref_per_wall * 1e6
        lid = np.frombuffer(self.span_layer, dtype=np.int32)
        size = np.frombuffer(self.span_size, dtype=np.int32).astype(float)
        n = len(self.layers)
        time_by = np.bincount(lid, weights=own, minlength=n)
        size_by = np.bincount(lid, weights=size, minlength=n)
        calls_by = np.bincount(lid, minlength=n)
        metrics, calls = {}, {}
        for _, _, layer, _, suffix in SPAN_LAYERS:
            i = self.layer_id[layer]
            key = f"{layer}.{suffix}"
            metrics[key] = float(time_by[i] / size_by[i]) if size_by[i] else 0.0
            calls[layer] = int(calls_by[i])
        words = len(self.word_labels)
        mirrors = sum(self.word_mirrors)
        total = Counter()
        for c in self.word_counts:
            total.update(c)
        metrics["rewrite.coincident_per_mirror"] = total["coincident"] / mirrors
        metrics["moves.copied_per_mirror"] = total["copied"] / mirrors
        for kind in MOVE_KINDS:
            metrics[f"rewrite.moves_per_mirror.{kind}"] = total["move." + kind] / mirrors
        oracle_calls = sum(calls[o] for o in ORACLES)
        metrics["kernels.oracle_calls_per_word"] = oracle_calls / words
        return metrics, calls

    def by_label(self, ref_per_wall: float) -> dict:
        """Normalize time and counts per mirror for each kind of word."""
        own = self.self_times() * ref_per_wall * 1e6
        lid = np.frombuffer(self.span_layer, dtype=np.int32)
        word = np.frombuffer(self.span_word, dtype=np.int32)
        rewrite = np.isin(lid, [self.layer_id[n] for n in REWRITES])
        per_word = np.bincount(word[rewrite], weights=own[rewrite], minlength=len(self.word_labels))
        rows: dict[str, Counter] = {}
        for i, label in enumerate(self.word_labels):
            row = rows.setdefault(label, Counter())
            row["words"] += 1
            row["mirrors"] += self.word_mirrors[i]
            row["rewrite_us"] += float(per_word[i])
            row.update(self.word_counts[i])
        out = {}
        for label, row in rows.items():
            m = row["mirrors"] or 1
            out[label] = {
                "words": row["words"],
                "rewrite_ref_us_per_mirror": row["rewrite_us"] / m,
                "coincident_per_mirror": row["coincident"] / m,
                "copied_per_mirror": row["copied"] / m,
            }
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            word=np.frombuffer(self.span_word, dtype=np.int32),
            size=np.frombuffer(self.span_size, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            word_labels=np.array(self.word_labels),
        )
