"""Command-line front end: parse reflection-word expressions and run the library.

Expression grammar (whitespace-insensitive)::

    expr    := group ":" ( "id" | term { "*" term } )
    group   := "E2" | "S2" | "SO3" | "ON" [ "(" int ")" ]
    term    := "refl" "(" mirror ")"
    mirror  := "line"   "(" num "," num "," num ")"   -- E2: normal_x, normal_y, offset
             | "circle" "(" num "," num "," num ")"   -- S2: pole
             | "axis"   "(" num "," num "," num ")"   -- SO3: direction
             | "hyper"  "(" num { "," num } ")"       -- ON: normal

"*" composes right to left, matching operator notation: the leftmost term
in the text acts last, so the stored word (first mirror acts first) is the
reversed term list. Digits are ASCII only; names are ASCII and read
case-insensitively.

A text is read in one regex match per term and its mirrors are built from
floats (`_parse_terms`). Where every term matches and passes the arity and
dimension checks, a mirror that fails to build raises there, as the token
walk would at the same term. Any other text goes to the token walk
(`_parse_tokens`), which raises at its first fault, so error types,
messages, positions and their precedence are the walk's.

Exit codes: 0 success, 1 verification failure, 2 parse, usage or geometry error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import arrowarc, orthon, plane, sampling, so3, sphere
from .moves import Move
from .numerics import EPS_VERIFY, GeometryError

# The one place a group tag is looked up. Each geometry module exports
# KEYWORD, ARITY, mirror_from_floats (a mirror from its list of floats),
# mirror_json, normalize_word, word_oracle(word, dim) (the word's isometry,
# matrix or quaternion), oracle_distance(x, y) (between two such) and
# classification_json; each mirror is its float tuple `values`.
GEOMETRIES = {"e2": plane, "s2": sphere, "so3": so3, "on": orthon}
GROUPS = tuple(GEOMETRIES)

# Largest O(n) dimension accepted in ON(n), --dim and hyper(), checked
# before anything of that size is allocated.
MAX_DIMENSION = 64
# Largest verify --max-len: a word's directions are drawn as one array of
# max-len rows, checked before anything is drawn.
MAX_WORD_LENGTH = 1 << 16


class ExpressionSyntaxError(GeometryError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionMismatch(GeometryError):
    """Mirrors of inconsistent dimension inside one expression."""


class UsageError(GeometryError):
    """A command-line argument lies outside its valid range or names no writable file."""


@dataclass(frozen=True, eq=False)
class Expression:
    group: str
    word: list
    dim: int | None = None


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# ASCII digits only: float() would also read other scripts' digits. Each
# string it matches has one parse, so a repeated group of numbers cannot
# backtrack exponentially, as one of \d+\.?\d* can ("123" parses three ways).
_NUM = r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"

_TOKEN_RE = re.compile(rf"(?P<name>{_NAME})|(?P<num>{_NUM})|(?P<punct>[():,*])|(?P<bad>\S)")

# The fast reading: the header, then "id" or one whole term per match. Names
# are captured and compared lower-cased, as the walk does: re.IGNORECASE
# would let "ſ" match "s".
_HEADER_RE = re.compile(rf"\s*({_NAME})\s*(?:\(\s*({_NUM})\s*\)\s*)?:")
_ID_RE = re.compile(rf"\s*({_NAME})\s*")
_TERM_RE = re.compile(
    rf"\s*({_NAME})\s*\(\s*({_NAME})\s*\(\s*({_NUM}(?:\s*,\s*{_NUM})*)\s*\)\s*\)\s*"
)


def _check_dimension(dim: float) -> None:
    if not (2 <= dim <= MAX_DIMENSION and float(dim).is_integer()):
        raise DimensionMismatch(
            f"ON dimension must be an integer from 2 to {MAX_DIMENSION}, got {dim:g}"
        )


def _on_dimension(word, dim: int | None) -> int:
    """An ON word's dimension: the given one, else that of its mirrors."""
    if dim is not None:
        return dim
    if not word:
        raise DimensionMismatch("empty ON word needs an explicit dimension, e.g. ON(3): id")
    return len(word[0].values)


def parse_expression(text: str, default_dim: int | None = None) -> Expression:
    """Parse an expression into a group tag and a first-acts-first word."""
    return _parse_terms(text, default_dim) or _parse_tokens(text, default_dim)


def _parse_terms(text: str, default_dim: int | None) -> Expression | None:
    """parse_expression of a text the term grammar matches, else None.

    All terms are matched and checked before any mirror is built, in text
    order; the first that fails to build raises what the token walk would.
    """
    m = _HEADER_RE.match(text)
    if m is None:
        return None
    name, dim_text = m.groups()
    group = name.lower()
    geometry = GEOMETRIES.get(group)
    if geometry is None:
        return None
    dim = None
    if dim_text is not None:
        value = float(dim_text)
        if group != "on" or not (2 <= value <= MAX_DIMENSION and value.is_integer()):
            return None
        dim = int(value)
    pos = m.end()
    rows = []
    m = _ID_RE.fullmatch(text, pos)
    if m is None or m[1].lower() != "id":
        keyword = geometry.KEYWORD
        end = len(text)
        while True:
            m = _TERM_RE.match(text, pos)
            if m is None or m[1].lower() != "refl" or m[2].lower() != keyword:
                return None
            rows.append(m[3].split(","))
            pos = m.end()
            if pos == end:
                break
            if text[pos] != "*":
                return None
            pos += 1
    if geometry.ARITY is None:
        if rows:
            if dim is None:
                dim = len(rows[0])
            if not 2 <= dim <= MAX_DIMENSION or any(len(parts) != dim for parts in rows):
                return None
    elif any(len(parts) != geometry.ARITY for parts in rows):
        return None
    build = geometry.mirror_from_floats
    # float() strips only some of the whitespace \s lets in around a number
    terms = [build([float(x.strip()) for x in parts]) for parts in rows]
    if group == "on" and dim is None:
        dim = _on_dimension(terms, default_dim)
        _check_dimension(dim)
    terms.reverse()
    return Expression(group, terms, dim)


def _parse_tokens(text: str, default_dim: int | None) -> Expression:
    """parse_expression by a walk over the text's tokens; raises at the first fault."""
    # the whole text is scanned first: an unexpected character anywhere wins
    # over a grammar error before it. A token is its value (a lower-case name,
    # a punctuation mark or a float) and its position; None marks the end.
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {value!r}", m.start())
        tokens.append((float(value) if kind == "num" else value.lower(), m.start()))
    tokens.append((None, len(text)))
    i = 0

    # neither helper accepts the end token, so the walk never passes it
    def take(*wanted, message=None):
        nonlocal i
        value, pos = tokens[i]
        if value not in wanted:
            raise ExpressionSyntaxError(message or f"expected {wanted[0]!r}", pos)
        i += 1
        return value

    def number() -> float:
        nonlocal i
        value, pos = tokens[i]
        if type(value) is not float:
            raise ExpressionSyntaxError("expected a number", pos)
        i += 1
        return value

    group = take(*GROUPS, message="expected a group tag (E2, S2, SO3 or ON)")
    geometry = GEOMETRIES[group]
    keyword = geometry.KEYWORD
    dim = None
    if group == "on" and tokens[i][0] == "(":
        i += 1
        value = number()
        _check_dimension(value)
        dim = int(value)
        take(")")
    take(":")

    terms = []
    if tokens[i][0] == "id":
        i += 1
    else:
        while True:
            take("refl")
            take("(")
            pos = tokens[i][1]
            take(keyword, message=f"group {group.upper()} expects {keyword}() mirrors")
            take("(")
            values = [number()]
            while tokens[i][0] == ",":
                i += 1
                values.append(number())
            take(")")
            if geometry.ARITY is None:
                if len(values) < 2:
                    raise ExpressionSyntaxError(f"{keyword}() needs at least two components", pos)
                if len(values) > MAX_DIMENSION:
                    raise DimensionMismatch(
                        f"{keyword}() has {len(values)} components, at most {MAX_DIMENSION} are allowed"
                    )
            elif len(values) != geometry.ARITY:
                raise ExpressionSyntaxError(f"{keyword}() takes {geometry.ARITY} components", pos)
            terms.append(geometry.mirror_from_floats(values))
            take(")")
            if tokens[i][0] != "*":
                break
            i += 1
    take(None, message="trailing input after expression")

    word = list(reversed(terms))
    if group == "on":
        dims = {len(m.values) for m in word}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed mirror dimensions {sorted(dims)}")
        if dims:
            d = dims.pop()
            if dim is not None and dim != d:
                raise DimensionMismatch(f"ON({dim}) expression carries {d}-dimensional mirrors")
            dim = d
        elif dim is None:
            dim = _on_dimension(word, default_dim)
        _check_dimension(dim)
    return Expression(group, word, dim)


def _mirror_text(geometry, mirror) -> str:
    return f"{geometry.KEYWORD}({','.join(map(repr, mirror.values))})"


def pretty(expr: Expression) -> str:
    """Canonical text form; parse(pretty(parse(s))) is a fixed point."""
    tag = expr.group.upper()
    if expr.group == "on":
        tag = f"ON({_on_dimension(expr.word, expr.dim)})"
    if not expr.word:
        return f"{tag}: id"
    geometry = GEOMETRIES[expr.group]
    terms = [f"refl({_mirror_text(geometry, m)})" for m in reversed(expr.word)]
    return f"{tag}: " + " * ".join(terms)


def word_json(group: str, word, dim: int | None = None) -> dict:
    out = {"group": group, "mirrors": [GEOMETRIES[group].mirror_json(m) for m in word]}
    if group == "on":
        out["dimension"] = _on_dimension(word, dim)
    return out


def _move_json(geometry, mv: Move) -> dict:
    return {
        "move": mv.kind,
        "index": mv.index,
        "mirrors": [geometry.mirror_json(m) for m in mv.mirrors],
    }


def _move_text(geometry, mv: Move) -> str:
    if mv.mirrors:
        inner = "; ".join(_mirror_text(geometry, m) for m in mv.mirrors)
        return f"{mv.kind}({mv.index}; {inner})"
    return f"{mv.kind}({mv.index})"


# ((group, dim, tuple(word_in)), oracle) of the last input residual() saw.
# Mirrors compare by exact float values, so a hit is the oracle a
# recomputation would give, bit for bit; a replay checks many words against
# one input. It is replaced by one assignment, after the oracle succeeds.
_input_oracle: tuple = (None, None)


def residual(group: str, word_in, word_out, dim: int | None = None) -> float:
    """Oracle distance between two words of one group."""
    global _input_oracle
    geometry = GEOMETRIES[group]
    word = tuple(word_in)
    key = (group, dim, word)
    last_key, oracle = _input_oracle
    if key != last_key:
        oracle = geometry.word_oracle(word, dim)
        _input_oracle = (key, oracle)
    # a word the rewrite left as it was has the input's oracle, bit for bit
    if len(word_out) == len(word) and tuple(word_out) == word:
        return geometry.oracle_distance(oracle, oracle)
    return geometry.oracle_distance(oracle, geometry.word_oracle(word_out, dim))


def _vec(v) -> str:
    return "(" + ", ".join(f"{float(x):.12g}" for x in v) + ")"


def classification_json(expr: Expression) -> dict:
    return GEOMETRIES[expr.group].classification_json(expr.word, expr.dim)


def classification_text(c: dict) -> str:
    kind = c["kind"]
    if kind == "translation":
        return f"translation by {_vec(c['vector'])}"
    if kind == "rotation" and "center" in c:
        return f"rotation about {_vec(c['center'])} by {c['angle']:.12g}"
    if kind == "rotation":
        return f"rotation about axis {_vec(c['axis'])} by {c['angle']:.12g}"
    if kind == "reflection" and "axis" in c:
        a = c["axis"]
        return f"reflection in line(normal {_vec(a['normal'])}, offset {a['offset']:.12g})"
    if kind == "reflection" and "circle" in c:
        return f"reflection in circle(pole {_vec(c['circle']['pole'])})"
    if kind == "glide" and "vector" in c:
        a = c["axis"]
        return (
            f"glide along line(normal {_vec(a['normal'])}, offset {a['offset']:.12g}) "
            f"by {_vec(c['vector'])}"
        )
    if kind == "glide":
        return f"glide about axis {_vec(c['axis'])} by angle {c['angle']:.12g}"
    if kind == "orthogonal":
        parts = []
        for b in c["blocks"]:
            if b["kind"] == "rotation":
                parts.append(f"rotation({b['angle']:.12g})")
            else:
                parts.append(f"{b['kind']}[{b['dim']}]")
        return f"orthogonal, det {c['det']}, blocks: " + " + ".join(parts)
    return kind


def _json_residual(res: float) -> float | None:
    """The residual, or None when it is NaN or infinite: JSON has no token for those."""
    return res if math.isfinite(res) else None


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _normalize_and_report(expr: Expression, args) -> int:
    geometry = GEOMETRIES[expr.group]
    trace: list = []
    normalized = geometry.normalize_word(expr.word, trace=trace, dim=expr.dim)
    res = residual(expr.group, expr.word, normalized, expr.dim)
    status = "ok" if res <= args.tol else "residual-exceeded"
    norm_expr = Expression(expr.group, normalized, expr.dim)
    if args.json:
        _emit_json(
            {
                "status": status,
                "input": pretty(expr),
                "group": expr.group,
                "normalized": word_json(expr.group, normalized, expr.dim),
                "normalized_text": pretty(norm_expr),
                "classification": classification_json(norm_expr),
                "residual": _json_residual(res),
                "trace": [_move_json(geometry, m) for m in trace],
            }
        )
    else:
        print(f"input:          {pretty(expr)}")
        print(f"normalized:     {pretty(norm_expr)}")
        print(f"length:         {len(expr.word)} -> {len(normalized)}")
        print(f"classification: {classification_text(classification_json(norm_expr))}")
        print(f"residual:       {res:.6e}")
        if args.trace:
            for mv in trace:
                print(f"  {_move_text(geometry, mv)}")
        else:
            print(f"moves:          {len(trace)} (use --trace to list)")
    return 0 if status == "ok" else 1


def _cmd_normalize(args) -> int:
    expr = parse_expression(args.expression, default_dim=args.dim)
    return _normalize_and_report(expr, args)


def _cmd_classify(args) -> int:
    expr = parse_expression(args.expression, default_dim=args.dim)
    c = classification_json(expr)
    if args.json:
        _emit_json({"status": "ok", "input": pretty(expr), "classification": c})
    else:
        print(f"input:          {pretty(expr)}")
        print(f"classification: {classification_text(c)}")
    return 0


def _cmd_compose(args) -> int:
    a = parse_expression(args.left, default_dim=args.dim)
    b = parse_expression(args.right, default_dim=args.dim)
    if a.group != b.group:
        raise DimensionMismatch(f"cannot compose {a.group.upper()} with {b.group.upper()}")
    if a.group == "on" and a.dim != b.dim:
        raise DimensionMismatch(f"cannot compose ON({a.dim}) with ON({b.dim})")
    # compose LEFT . RIGHT: the right expression acts first
    word = list(b.word) + list(a.word)
    return _normalize_and_report(Expression(a.group, word, a.dim), args)


def _cmd_arc(args) -> int:
    expr = parse_expression(args.expression)
    if expr.group != "so3":
        raise DimensionMismatch("the arc subcommand works on SO3 expressions only")
    r = so3.word_to_rotation(expr.word)
    arc = arrowarc.rotation_to_arc(r)
    payload = {
        "status": "ok",
        "input": pretty(expr),
        "rotation": {"axis": list(r.axis), "angle": r.angle, "identity": r.is_identity},
        "arc": {"tail": list(arc.tail), "head": list(arc.head)},
    }
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(arrowarc.arcs_to_svg([arc]))
        except OSError as exc:
            raise UsageError(f"--svg cannot write {args.svg}: {exc.strerror}") from None
        payload["svg"] = args.svg
    if args.json:
        _emit_json(payload)
    else:
        print(f"input:    {pretty(expr)}")
        if r.is_identity:
            print("rotation: identity")
        else:
            print(f"rotation: axis {_vec(r.axis)} angle {r.angle:.12g}")
        print(f"arc:      {_vec(arc.tail)} -> {_vec(arc.head)}")
        if args.svg:
            print(f"svg:      {args.svg}")
    return 0


def _cmd_reduce(args) -> int:
    expr = parse_expression(args.expression, default_dim=args.dim)
    if expr.group != "on":
        raise DimensionMismatch("the reduce subcommand works on ON expressions only")
    trace: list = []
    reduced = orthon.reduce_word(expr.word, trace, expr.dim)
    res = residual("on", expr.word, reduced, expr.dim)
    status = "ok" if res <= args.tol else "residual-exceeded"
    out_expr = Expression("on", reduced, expr.dim)
    if args.json:
        _emit_json(
            {
                "status": status,
                "input": pretty(expr),
                "reduced": word_json("on", reduced, expr.dim),
                "reduced_text": pretty(out_expr),
                "residual": _json_residual(res),
                "trace": [_move_json(orthon, m) for m in trace],
            }
        )
    else:
        print(f"input:    {pretty(expr)}")
        print(f"reduced:  {pretty(out_expr)}")
        print(f"length:   {len(expr.word)} -> {len(reduced)}")
        print(f"residual: {res:.6e}")
        for mv in trace:
            print(f"  {_move_text(orthon, mv)}")
    return 0 if status == "ok" else 1


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be at least 0, got {args.count}")
    if not 0 <= args.max_len <= MAX_WORD_LENGTH:
        raise UsageError(f"--max-len must be from 0 to {MAX_WORD_LENGTH}, got {args.max_len}")
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    if args.group == "on" and not 2 <= args.dim <= MAX_DIMENSION:
        raise UsageError(f"--dim must be from 2 to {MAX_DIMENSION}, got {args.dim}")
    group = args.group
    rng = np.random.default_rng(args.seed)
    dim = args.dim
    worst = 0.0
    violations = 0
    for _ in range(args.count):
        length = int(rng.integers(0, args.max_len + 1))
        word = sampling.random_word(rng, group, length, dim=dim)
        normalized = GEOMETRIES[group].normalize_word(word, dim=dim)
        res = residual(group, word, normalized, dim)
        # comparisons with NaN are false: a NaN residual is a violation and,
        # once it is the worst, stays the worst
        if not res <= args.tol:
            violations += 1
        if res > worst or math.isnan(res):
            worst = res
    status = "ok" if violations == 0 else "failed"
    if args.json:
        _emit_json(
            {
                "group": group,
                "seed": args.seed,
                "count": args.count,
                "max_len": args.max_len,
                "dimension": dim if group == "on" else None,
                "max_residual": _json_residual(worst),
                "violations": violations,
                "status": status,
            }
        )
    else:
        extra = f"  dim: {dim}" if group == "on" else ""
        print(f"group: {group}  seed: {args.seed}  count: {args.count}  max-len: {args.max_len}{extra}")
        print(f"max residual: {worst:.6e}")
        print(f"violations: {violations}")
        print(f"status: {status}")
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorwords",
        description="Rewrite, classify and verify isometries given as words of reflections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--dim", type=int, help="dimension for empty ON words")

    # the rewriting commands also check a residual and can list their steps
    def add_common(p):
        add_output(p)
        p.add_argument("--tol", type=float, default=EPS_VERIFY, help="verification tolerance")
        p.add_argument("--trace", action="store_true", help="list rewrite steps")

    p = sub.add_parser("normalize", help="rewrite a word to normal form")
    p.add_argument("expression")
    add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("classify", help="classify the isometry of a word")
    p.add_argument("expression")
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compose", help="normalize the composition of two expressions (right acts first)")
    p.add_argument("left")
    p.add_argument("right")
    add_common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("arc", help="arrow-arc of an SO3 expression")
    p.add_argument("expression")
    p.add_argument("--svg", metavar="PATH", help="write an SVG rendering of the arc")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_arc)

    # reduce always lists its moves, so it takes no --trace
    p = sub.add_parser("reduce", help="run the (n+1) -> (n-1) reduction with its step trace")
    p.add_argument("expression")
    add_output(p)
    p.add_argument("--tol", type=float, default=EPS_VERIFY, help="verification tolerance")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="seeded randomized verification batch")
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=3, help="dimension for --group on")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--tol", type=float, default=EPS_VERIFY, help="verification tolerance")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a NaN or negative tolerance fails every word, an infinite one passes
        # every word; arc and classify have no --tol
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:
            raise UsageError(f"--tol must be finite and at least 0, got {args.tol}")
        return args.func(args)
    except GeometryError as exc:
        print(
            json.dumps({"status": "error", "error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
