"""The benchmark's three workloads, driven through mirrorwords' public functions.

A workload is a fixed round of items. ``prepare`` builds an item's input
outside the timed region, ``run`` is the timed pipeline of one word, and
``check`` returns the problems the independent checker finds in its
output. Item lengths and groups are the same in every round and for every
seed; the seed only moves the mirrors, so every run does the same amount
of work. Module attributes are looked up at call time, so the tracing
wrappers installed on them see every call.
"""

from __future__ import annotations

import math

import numpy as np
from mirrorwords import arrowarc, cli, orthon, plane, sampling, so3, sphere

import checker

MODULES = {"e2": plane, "s2": sphere, "so3": so3, "on": orthon}

# Seed of the near-degenerate slice of verify-mix. It is fixed, not taken
# from --seed, so that the slice and its failures are the same in every run.
NEAR_DEGENERATE_SEED = 1405


def normalize(group: str, word, dim: int, trace=None) -> list:
    if group == "e2":
        return plane.normalize_word(word, trace)
    if group == "s2":
        return sphere.normalize_word(word, trace)
    if group == "so3":
        return so3.normalize_word(word, trace)
    return orthon.normalize_word(word, dim=dim, trace=trace)


class Item:
    __slots__ = ("kind", "group", "dim", "length", "parts", "word")

    def __init__(self, kind, group, dim, length, parts=None, word=None):
        self.kind = kind
        self.group = group
        self.dim = dim
        self.length = length
        self.parts = parts
        self.word = word

    @property
    def label(self) -> str:
        g = f"on{self.dim}" if self.group == "on" else self.group
        return f"{self.kind}/{g}/L{self.length}"


class VerifyMix:
    """The ``mirrorwords verify`` loop on short words, plus a near-degenerate slice.

    Each random word is sampled by ``sampling.random_word`` inside the timed
    pipeline, then normalized and checked with ``cli.residual``.
    """

    name = "verify-mix"
    tail_percentile = 99.0
    min_rounds = 10
    trace_rounds = 12
    CONFIGS = (("e2", 2), ("s2", 3), ("so3", 3), ("on", 3), ("on", 5), ("on", 8))
    # (group, dim, jitter): mirrors jittered around one direction, six per word
    FAMILIES = (("e2", 2, 1e-7), ("e2", 2, 1e-9), ("so3", 3, 1e-9), ("on", 3, 1e-7), ("on", 5, 1e-7))
    PER_FAMILY = 4

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.items = [
            Item("random", g, d, length)
            for _ in range(2)
            for length in range(9)
            for g, d in self.CONFIGS
        ]
        fixed = np.random.default_rng(NEAR_DEGENERATE_SEED)
        slice_items = [
            Item("near-degenerate", g, d, 6, word=near_degenerate_word(fixed, g, d, jitter))
            for g, d, jitter in self.FAMILIES
            for _ in range(self.PER_FAMILY)
        ]
        # spread the slice evenly through the round
        step = len(self.items) // len(slice_items)
        for k, it in enumerate(slice_items):
            self.items.insert(k * (step + 1) + step, it)

    def prepare(self, item):
        return None

    def run(self, item, data):
        if item.word is None:
            word = sampling.random_word(self.rng, item.group, item.length, dim=item.dim)
        else:
            word = item.word
        out = normalize(item.group, word, item.dim)
        return word, out, cli.residual(item.group, word, out, item.dim)

    def check(self, item, data, result) -> list:
        word, out, res = result
        return checker.check_normal_form(item.group, item.dim, word, out, res)


def near_degenerate_word(rng, group: str, dim: int, jitter: float, length: int = 6) -> list:
    """Six mirrors whose directions are jittered by ``jitter`` around one direction."""
    if group == "e2":
        base = rng.uniform(0.0, math.pi)
        angles = base + jitter * rng.standard_normal(length)
        offsets = rng.uniform(-10.0, 10.0, length)
        return [plane.Line((math.cos(a), math.sin(a)), d) for a, d in zip(angles, offsets)]
    base = rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    cls = so3.Axis if group == "so3" else orthon.Hyperplane
    return [cls(base + jitter * rng.standard_normal(dim)) for _ in range(length)]


class LongWords:
    """``normalize_word`` on words of 64 to 512 mirrors, one ``cli.residual`` each.

    Per group: random words of four lengths and two cancellation-built
    words u.v.reverse(v).w, one with u and w empty (which must reduce to
    the empty word). One more E2 palindrome of 512 mirrors runs the longest
    involution cascade and makes the round odd, so that the median falls
    inside a class of equal words rather than between two.
    """

    name = "long-words"
    tail_percentile = 90.0
    min_rounds = 5
    trace_rounds = 2
    CONFIGS = (("e2", 2), ("s2", 3), ("so3", 3), ("on", 3))
    LENGTHS = (64, 128, 256, 512)
    SANDWICHES = ((0, 96, 0), (48, 48, 48))

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.items = []
        for g, d in self.CONFIGS:
            self.items += [Item("random", g, d, n) for n in self.LENGTHS]
            self.items += [Item("sandwich", g, d, sum(p) + p[1], parts=p) for p in self.SANDWICHES]
        self.items.append(Item("sandwich", "e2", 2, 512, parts=(0, 256, 0)))

    def prepare(self, item):
        if item.kind == "random":
            return sampling.random_word(self.rng, item.group, item.length, dim=item.dim)
        u, v, w = (sampling.random_word(self.rng, item.group, n, dim=item.dim) for n in item.parts)
        return u + v + v[::-1] + w

    def run(self, item, word):
        out = normalize(item.group, word, item.dim)
        return out, cli.residual(item.group, word, out, item.dim)

    def check(self, item, word, result) -> list:
        out, res = result
        problems = checker.check_normal_form(item.group, item.dim, word, out, res)
        if item.kind == "sandwich" and item.parts[0] == item.parts[2] == 0 and out:
            problems.append(f"palindrome reduced to {len(out)} mirrors, not the empty word")
        return problems


class AuditReplay:
    """The audited text path: parse, normalize with a trace, replay and re-verify.

    Each word enters as the pretty text of a random word and goes through
    ``cli.parse_expression``, ``normalize_word`` (or ``orthon.reduce_word``
    on n+1 mirrors) with a trace, the group's ``replay_moves``, the
    program's oracle on every intermediate word, ``orthon.validate_move``
    on every O(n) move, then ``cli.classification_json`` and ``cli.pretty``;
    SO(3) results also go through ``arrowarc.rotation_to_arc``.
    """

    name = "audit-replay"
    tail_percentile = 90.0
    min_rounds = 6
    trace_rounds = 2
    CONFIGS = (("e2", 2), ("s2", 3), ("so3", 3), ("on", 3), ("on", 5))
    LENGTHS = (16, 32, 64)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.items = [Item("text", g, d, n) for n in self.LENGTHS for g, d in self.CONFIGS]
        self.items += [Item("reduce", "on", d, d + 1) for d in (3, 5)]

    def prepare(self, item):
        word = sampling.random_word(self.rng, item.group, item.length, dim=item.dim)
        return word, cli.pretty(cli.Expression(item.group, word, item.dim))

    def run(self, item, data):
        g = item.group
        expr = cli.parse_expression(data[1])
        trace: list = []
        if item.kind == "reduce":
            out = orthon.reduce_word(expr.word, trace)
        else:
            out = normalize(g, expr.word, expr.dim, trace)
        states = MODULES[g].replay_moves(expr.word, trace)
        residuals = [cli.residual(g, expr.word, s, expr.dim) for s in states[1:]]
        validated = None
        if g == "on":
            validated = expr.word
            for mv in trace:
                validated = orthon.validate_move(validated, mv)
        out_expr = cli.Expression(g, out, expr.dim)
        cls = cli.classification_json(out_expr)
        text = cli.pretty(out_expr)
        arc = arrowarc.rotation_to_arc(so3.word_to_rotation(out)) if g == "so3" else None
        return expr, out, states, residuals, validated, cls, text, arc

    def check(self, item, data, result) -> list:
        word = data[0]
        expr, out, states, residuals, validated, cls, text, arc = result
        g, d = item.group, item.dim
        problems = []
        if list(expr.word) != list(word) or (g == "on" and expr.dim != d):
            problems.append("parse_expression(pretty(word)) is not the sampled word")
        final = residuals[-1] if residuals else 0.0
        problems += checker.check_normal_form(g, d, word, out, final, reduced=item.kind == "reduce")
        problems += checker.check_replay(g, d, word, states, out)
        bad = [r for r in residuals if not r <= checker.TOL]
        if bad:
            problems.append(f"{len(bad)} intermediate residuals exceed {checker.TOL}: {bad[0]!r}")
        if validated is not None and list(validated) != list(out):
            problems.append("validate_move chain does not end at the normalized word")
        problems += checker.check_classification(g, d, word, cls)
        if cli.pretty(cli.parse_expression(text)) != text:
            problems.append("pretty text of the result is not a parse fixed point")
        if arc is not None:
            problems += checker.check_arc(word, arc)
        return problems


WORKLOADS = {w.name: w for w in (VerifyMix, LongWords, AuditReplay)}
