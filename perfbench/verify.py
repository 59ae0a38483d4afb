"""Independent re-validation of returned certificates.

Every check here works from the instance text alone: the arcs and
capacities are read with a parser of its own, and cut values are re-summed
from them, so no library helper takes part in judging a library answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RawInstance:
    """Arcs as read from the text, 0-based; vertex capacities for
    vertex-capacitated files, None otherwise."""

    n: int
    arcs: tuple  # (tail, head, capacity or None)
    vcaps: tuple | None


def parse_raw(text: str) -> RawInstance:
    n = 0
    kind = None
    arcs = []
    vcaps = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            kind, n = fields[1], int(fields[2])
        elif fields[0] == "a":
            u, v = int(fields[1]) - 1, int(fields[2]) - 1
            cap = Fraction(fields[3]) if kind == "edge-cap" else None
            arcs.append((u, v, cap))
        elif fields[0] == "w":
            vcaps[int(fields[1]) - 1] = Fraction(fields[2])
        else:
            raise ValueError(f"unexpected record {fields[0]!r}")
    if kind == "vertex-cap":
        return RawInstance(n, tuple(arcs), tuple(vcaps.get(v, Fraction(1)) for v in range(n)))
    return RawInstance(n, tuple(arcs), None)


@dataclass(frozen=True)
class Answer:
    """A solver's answer in one shape for every mode.

    ``sink`` is the sink side (edge cuts) or sink component (vertex cuts);
    ``separator`` is None for edge cuts.  ``orientation`` is "reverse" when
    the cut was found in the reversed graph.  ``flow_calls`` and ``probes``
    are None where the library does not report them (the oracles).
    """

    value: Fraction
    sink: frozenset
    separator: frozenset | None
    orientation: str
    flow_calls: int | None
    probes: int | None


class CheckError(Exception):
    """A certificate that does not hold up against the instance text."""


def check_edge(raw: RawInstance, ans: Answer, root=None) -> Fraction:
    """Re-sum an edge certificate; return its value or raise CheckError."""
    sink = ans.sink
    if not sink or len(sink) >= raw.n or not all(0 <= v < raw.n for v in sink):
        raise CheckError("sink side is not a nonempty proper vertex subset")
    if root is not None and root in sink:
        raise CheckError("root lies in the sink side")
    forward = ans.orientation == "forward"
    total = Fraction(0)
    for u, v, cap in raw.arcs:
        if forward and v in sink and u not in sink:
            total += cap
        elif not forward and u in sink and v not in sink:
            total += cap
    if total != ans.value:
        raise CheckError(f"claimed value {ans.value} but arcs sum to {total}")
    return total


def check_vertex(raw: RawInstance, ans: Answer) -> Fraction:
    """Re-derive a global vertex certificate's separator and value."""
    sink, sep = ans.sink, ans.separator
    if not sink or not all(0 <= v < raw.n for v in sink):
        raise CheckError("sink component is empty or out of range")
    if sep & sink:
        raise CheckError("separator meets the sink component")
    if len(sink) + len(sep) >= raw.n:
        raise CheckError("no vertex is left on the source side")
    forward = ans.orientation == "forward"
    neighbours = set()
    for u, v, _ in raw.arcs:
        if forward and v in sink and u not in sink:
            neighbours.add(u)
        elif not forward and u in sink and v not in sink:
            neighbours.add(v)
    if neighbours != sep:
        raise CheckError("separator is not the neighbourhood of the sink component")
    total = sum((raw.vcaps[w] for w in sep), Fraction(0))
    if total != ans.value:
        raise CheckError(f"claimed value {ans.value} but capacities sum to {total}")
    return total
