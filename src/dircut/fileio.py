"""Plain-text graph files, DIMACS-inspired.

Edge-capacitated::

    c optional comment
    p edge-cap <n> <m>
    a <tail> <head> <capacity>     # 1-indexed vertices, decimal capacity

Vertex-capacitated::

    p vertex-cap <n> <m>
    a <tail> <head>
    w <vertex> <capacity>          # missing vertices default to capacity 1

Capacities are parsed exactly (decimal strings or p/q rationals) and
rescaled once to a common integer denominator.  Self-loops are folded out;
parallel arcs are preserved, merging is the algorithms' responsibility.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graph import DiGraph
from .vertexcut import VertexCapGraph


class GraphFileError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def format_value(x: Fraction) -> str:
    """Exact decimal string when the denominator allows it, else p/q."""
    if x.denominator == 1:
        return str(x.numerator)
    d = x.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(twos, fives)
    scaled = x.numerator * 10**digits // x.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[digits * -1:]}"


def _parse_capacity(token, lineno):
    try:
        cap = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise GraphFileError(f"bad capacity {token!r}", lineno) from None
    if cap < 0:
        raise GraphFileError(f"negative capacity {token!r}", lineno)
    return cap


def parse_text(text: str):
    """Parse file contents into a DiGraph or VertexCapGraph."""
    kind = None
    n = m = 0
    arcs = []  # (tail, head, Fraction|None)
    vcaps = {}
    arc_lines = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        tag = fields[0]
        if tag == "p":
            if kind is not None:
                raise GraphFileError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] not in ("edge-cap", "vertex-cap"):
                raise GraphFileError(
                    "expected 'p edge-cap|vertex-cap <n> <m>'", lineno
                )
            kind = fields[1]
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFileError("n and m must be integers", lineno) from None
            if n < 0 or m < 0:
                raise GraphFileError("n and m must be nonnegative", lineno)
        elif tag == "a":
            if kind is None:
                raise GraphFileError("arc before problem line", lineno)
            want = 4 if kind == "edge-cap" else 3
            if len(fields) != want:
                raise GraphFileError(f"expected {want} fields on arc line", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFileError("arc endpoints must be integers", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFileError(f"arc endpoint out of range 1..{n}", lineno)
            arc_lines += 1
            if u == v:
                continue  # self-loops never cross a cut
            cap = _parse_capacity(fields[3], lineno) if kind == "edge-cap" else None
            arcs.append((u - 1, v - 1, cap))
        elif tag == "w":
            if kind != "vertex-cap":
                raise GraphFileError("'w' line outside a vertex-cap file", lineno)
            if len(fields) != 3:
                raise GraphFileError("expected 'w <vertex> <capacity>'", lineno)
            try:
                v = int(fields[1])
            except ValueError:
                raise GraphFileError("vertex id must be an integer", lineno) from None
            if not (1 <= v <= n):
                raise GraphFileError(f"vertex id out of range 1..{n}", lineno)
            if v - 1 in vcaps:
                raise GraphFileError(f"duplicate capacity for vertex {v}", lineno)
            vcaps[v - 1] = _parse_capacity(fields[2], lineno)
        else:
            raise GraphFileError(f"unknown record type {tag!r}", lineno)
    if kind is None:
        raise GraphFileError("missing problem line")
    if arc_lines != m:
        raise GraphFileError(f"header promises {m} arcs, file has {arc_lines}")

    if kind == "edge-cap":
        scale = 1
        for _, _, cap in arcs:
            scale = math.lcm(scale, cap.denominator)
        return DiGraph(
            n, [(u, v, int(cap * scale)) for u, v, cap in arcs], scale=scale
        )
    caps = [vcaps.get(v, Fraction(1)) for v in range(n)]
    scale = 1
    for cap in caps:
        scale = math.lcm(scale, cap.denominator)
    return VertexCapGraph(
        n, [(u, v) for u, v, _ in arcs], [int(c * scale) for c in caps], scale=scale
    )


def parse_graph(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_text(handle.read())


def serialize_graph(g) -> str:
    """Inverse of parse_text on normalized graphs (round-trips exactly)."""
    if not isinstance(g, (DiGraph, VertexCapGraph)):
        raise TypeError(f"cannot serialize {type(g).__name__}")
    # a numerator at scale 1 is its own decimal text
    text = str if g.scale == 1 else (lambda c: format_value(g.value(c)))
    lines = []
    if isinstance(g, DiGraph):
        if g.inf_arcs:
            raise ValueError("cannot serialize infinite capacities")
        lines.append(f"p edge-cap {g.n} {g.m}")
        for t, h, c in g.arcs:
            lines.append(f"a {t + 1} {h + 1} {text(c)}")
    else:
        lines.append(f"p vertex-cap {g.n} {g.m}")
        for t, h in g.arcs:
            lines.append(f"a {t + 1} {h + 1}")
        for v in range(g.n):
            lines.append(f"w {v + 1} {text(g.vcaps[v])}")
    return "\n".join(lines) + "\n"
