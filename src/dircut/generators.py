"""Random instance families for experiments and acceptance runs.

Every family is deterministic for a fixed seed.  ``planted-sink`` embeds a
sink component with a controlled in-cut value and in-volume and reports
both in the metadata, which makes it a semi-oracle: the true minimum
rooted cut is at most the planted value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fileio import serialize_graph
from .graph import DiGraph
from .vertexcut import VertexCapGraph

@dataclass(frozen=True)
class GeneratedInstance:
    text: str
    meta: dict


def _instance(g, meta, extra_comments=()):
    """The instance whose text is one comment line per ``meta`` entry (the
    sink excepted), then ``extra_comments``, then the graph file of ``g``."""
    comments = [f"{k} {v}" for k, v in meta.items() if k != "sink"] + list(extra_comments)
    return GeneratedInstance("".join(f"c {c}\n" for c in comments) + serialize_graph(g), meta)


def _cycle(seed, n=3, caps=None, wmax=10, **extra):
    _reject_extra(extra)
    if n < 2:
        raise ValueError("cycle needs n >= 2")
    _at_least("wmax", wmax, 1)
    rng = random.Random(seed)
    if caps is None:
        caps = [rng.randint(1, wmax) for _ in range(n)]
    _at_least("len(caps)", len(caps), 1)
    for cap in caps:
        _at_least("caps", cap, 0)
    arcs = [(i, (i + 1) % n, caps[i % len(caps)]) for i in range(n)]
    meta = {"family": "cycle", "n": n, "seed": seed}
    return _instance(DiGraph(n, arcs), meta)


def _star(seed, n=4, cap=7, **extra):
    _reject_extra(extra)
    if n < 2:
        raise ValueError("star needs n >= 2")
    _at_least("cap", cap, 0)
    arcs = [(0, i, cap) for i in range(1, n)]
    meta = {"family": "star", "n": n, "seed": seed}
    return _instance(DiGraph(n, arcs), meta)


def _erdos_renyi(seed, n=10, p=0.3, wmax=10, ensure_strong=True,
                 kind="edge-cap", vcap_max=10, **extra):
    _reject_extra(extra)
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0, 1]")
    _at_least("wmax", wmax, 1)
    _at_least("vcap_max", vcap_max, 1)
    if kind not in ("edge-cap", "vertex-cap"):
        raise ValueError(f"kind must be 'edge-cap' or 'vertex-cap', got {kind!r}")
    rng = random.Random(seed)
    pairs = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                pairs.add((u, v))
    if ensure_strong:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            pairs.add((order[i], order[(i + 1) % n]))
    arcs = sorted(pairs)
    meta = {
        "family": "erdos-renyi-digraph", "n": n, "seed": seed,
        "strong": bool(ensure_strong),
    }
    if kind == "vertex-cap":
        vcaps = [rng.randint(1, vcap_max) for _ in range(n)]
        return _instance(VertexCapGraph(n, arcs, vcaps), meta)
    weighted = [(u, v, rng.randint(1, wmax)) for u, v in arcs]
    return _instance(DiGraph(n, weighted), meta)


def _planted_sink(seed, n=20, sink_size=4, volume=12, value=5,
                  out_degree=3, hub_out=None, **extra):
    _reject_extra(extra)
    ambient_size = n - sink_size
    if sink_size < 2 or ambient_size < 2:
        raise ValueError("need at least 2 ambient and 2 sink vertices")
    _at_least("out_degree", out_degree, 1)
    if hub_out is None:
        # vertex 0 doubles as the conventional root; give it a wide fan-out
        # so rooted runs are not supply-starved at the source
        hub_out = max(out_degree, ambient_size // 4)
    _at_least("hub_out", hub_out, 0)
    internal = volume - 1  # one crossing arc carries the whole planted value
    if internal < sink_size:
        raise ValueError("volume too small for a strongly connected sink")
    if internal > sink_size * (sink_size - 1):
        raise ValueError("volume too large for a simple sink component")
    _at_least("value", value, 1)
    rng = random.Random(seed)
    heavy = 5 * value + 10
    ambient = list(range(ambient_size))
    sink = list(range(ambient_size, n))
    pairs = set()
    order = ambient[:]
    rng.shuffle(order)
    for i in range(ambient_size):
        pairs.add((order[i], order[(i + 1) % ambient_size]))
    for u in ambient:
        for _ in range(out_degree - 1):
            v = rng.randrange(ambient_size)
            if v != u:
                pairs.add((u, v))
    for v in rng.sample(ambient[1:], min(hub_out, ambient_size - 1)):
        pairs.add((0, v))
    arcs = [(u, v, rng.randint(heavy, 2 * heavy)) for u, v in sorted(pairs)]
    # sink interior: a cycle plus extra arcs until the in-volume target
    interior = set()
    for i in range(sink_size):
        interior.add((sink[i], sink[(i + 1) % sink_size]))
    while len(interior) < internal:
        u, v = rng.sample(sink, 2)
        interior.add((u, v))
    arcs.extend((u, v, rng.randint(heavy, 2 * heavy)) for u, v in sorted(interior))
    entry = rng.randrange(ambient_size)
    arcs.append((entry, sink[0], value))  # the planted crossing arc
    # heavy return arcs keep the whole graph strongly connected
    arcs.append((sink[-1], ambient[0], rng.randint(heavy, 2 * heavy)))
    meta = {
        "family": "planted-sink", "n": n, "seed": seed,
        "planted_value": value, "sink": tuple(sink), "volume": volume,
    }
    return _instance(DiGraph(n, arcs), meta, [
        "planted-value " + str(value),
        "planted-sink " + " ".join(str(v + 1) for v in sink),
    ])


def _layered(seed, n=12, width=4, p=0.5, wmax=10, **extra):
    _reject_extra(extra)
    if n < 2 or width < 1:
        raise ValueError("need n >= 2 and width >= 1")
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0, 1]")
    _at_least("wmax", wmax, 1)
    rng = random.Random(seed)
    layers = [list(range(i, min(i + width, n))) for i in range(0, n, width)]
    pairs = set()
    for a, b in zip(layers, layers[1:]):
        for u in a:
            hit = False
            for v in b:
                if rng.random() < p:
                    pairs.add((u, v))
                    hit = True
            if not hit:
                pairs.add((u, rng.choice(b)))
    for i in range(n):  # back arcs: one global cycle
        pairs.add((i, (i + 1) % n))
    arcs = [(u, v, rng.randint(1, wmax)) for u, v in sorted(pairs)]
    meta = {"family": "layered-dag-backarcs", "n": n, "seed": seed}
    return _instance(DiGraph(n, arcs), meta)


def _at_least(name, value, low):
    """Reject a parameter that is not an int (a bool included) or is below
    ``low``, naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _reject_extra(extra):
    if extra:
        raise ValueError(f"unknown parameters: {sorted(extra)}")


_DISPATCH = {
    "erdos-renyi-digraph": _erdos_renyi,
    "planted-sink": _planted_sink,
    "cycle": _cycle,
    "star": _star,
    "layered-dag-backarcs": _layered,
}
FAMILIES = tuple(_DISPATCH)


def generate(family: str, seed: int = 0, **params) -> GeneratedInstance:
    """Produce one deterministic instance of the given family."""
    if family not in _DISPATCH:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    return _DISPATCH[family](seed, **params)
