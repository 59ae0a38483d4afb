"""Golden outputs of every probe-driven entry point.

For a fixed (graph, flags, seed) each solver must return the same
certificate, orientation, flow-call count and probe log.  The recorded
outputs live in ``golden_outputs.json`` next to this file; any refactor of
the probe and search machinery has to reproduce them exactly.

Regenerate the file only for a deliberate, documented behaviour change:

    PYTHONPATH=src python tests/test_golden.py --write

and list the entries that change, with the fields that differ, by running
the same command with ``--diff`` first (it writes nothing).
"""

import json
import random
import sys
from pathlib import Path

import pytest

from dircut import (
    DiGraph,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_small_edge_cut,
    exact_small_vertex_cut,
    generate,
    parse_text,
)

from conftest import golden_main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
EPSILON = "0.2"
SEED = 5


def _edge_random(seed, n, p, wmax, zero_share=0.0, scale=1):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs |= {(u, v) for u in range(n) for v in range(n)
              if u != v and rng.random() < p}
    arcs = []
    for u, v in sorted(pairs):
        cap = 0 if rng.random() < zero_share else rng.randint(1, wmax)
        arcs.append((u, v, cap))
    return DiGraph(n, arcs, scale=scale)


def _vertex_random(seed, n, p, vmax, zeros=(), scale=1):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs |= {(u, v) for u in range(n) for v in range(n)
              if u != v and rng.random() < p}
    vcaps = [0 if v in zeros else rng.randint(1, vmax) for v in range(n)]
    return VertexCapGraph(n, sorted(pairs), vcaps, scale=scale)


def edge_cases():
    planted = generate("planted-sink", seed=3, n=12, sink_size=3, volume=6, value=2)
    return {
        "g1": DiGraph(3, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 1, 1)]),
        "er7": _edge_random(1, 7, 0.3, 4),
        "er8": _edge_random(2, 8, 0.35, 6),
        "er10": _edge_random(3, 10, 0.25, 5),
        "rational": _edge_random(5, 6, 0.3, 7, scale=3),
        "planted12": parse_text(planted.text),
        "parallel": DiGraph(4, [(0, 1, 2), (0, 1, 1), (1, 2, 1), (1, 2, 2),
                                (2, 3, 1), (3, 0, 2), (2, 0, 1), (3, 1, 1),
                                (0, 3, 1), (2, 3, 2)]),
        "unreachable": DiGraph(4, [(0, 1, 2), (1, 2, 3), (2, 0, 1), (3, 0, 2)]),
        "zero-arc": DiGraph(3, [(0, 1, 0), (1, 2, 5), (2, 0, 5), (0, 2, 5)]),
        "zero-arcs-er7": _edge_random(4, 7, 0.35, 3, zero_share=0.3),
    }


def vertex_cases():
    return {
        "g2": VertexCapGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [5, 1, 2, 5]),
        "v6": _vertex_random(1, 6, 0.3, 4),
        "v7": _vertex_random(2, 7, 0.4, 3),
        "v8": _vertex_random(3, 8, 0.3, 4),
        "vrational": _vertex_random(5, 6, 0.35, 5, scale=2),
        "vparallel": VertexCapGraph(
            5, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 0), (1, 3)],
            [2, 1, 3, 2, 1],
        ),
        "vunreachable": VertexCapGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)],
                                       [1, 2, 1, 3, 1]),
        "vzero-some": _vertex_random(3, 7, 0.4, 3, zeros=(2,)),
        "vzero-singleton": _vertex_random(1, 7, 0.35, 3, zeros=(1, 5)),
    }


def _fraction(x):
    return str(x)


def _edge_record(res):
    cert = res.certificate
    return {
        "value": _fraction(cert.value),
        "sink": sorted(cert.sink_set),
        "orientation": res.orientation,
        "flow_calls": res.flow_calls,
        "probe_log": [[_fraction(level), vol, calls]
                      for level, vol, calls in res.probe_log],
    }


def _vertex_record(res):
    cert = res.certificate
    return {
        "value": _fraction(cert.value),
        "sink": sorted(cert.sink_component),
        "separator": sorted(cert.separator),
        "orientation": cert.orientation,
        "flow_calls": res.flow_calls,
        "probe_log": [[_fraction(level), vol, calls]
                      for level, vol, calls in res.probe_log],
    }


EDGE_SOLVERS = {
    "approx_rooted_edge_cut": lambda g: approx_rooted_edge_cut(g, 0, EPSILON, seed=SEED),
    "approx_global_edge_cut": lambda g: approx_global_edge_cut(g, EPSILON, seed=SEED),
    "exact_small_edge_cut/rooted": lambda g: exact_small_edge_cut(g, root=0, seed=SEED),
    "exact_small_edge_cut/global": lambda g: exact_small_edge_cut(g, seed=SEED),
}

VERTEX_SOLVERS = {
    "approx_rooted_vertex_cut": lambda g: approx_rooted_vertex_cut(g, 0, EPSILON, seed=SEED),
    "approx_global_vertex_cut": lambda g: approx_global_vertex_cut(g, EPSILON, seed=SEED),
    "exact_small_vertex_cut/rooted": lambda g: exact_small_vertex_cut(g, root=0, seed=SEED),
    "exact_small_vertex_cut/global": lambda g: exact_small_vertex_cut(g, seed=SEED),
}


def _run(solver, record, g):
    try:
        return record(solver(g))
    except ValueError as exc:  # NoCutExistsError
        return {"error": type(exc).__name__}


def entries():
    """(entry id, thunk) for every solver on every matching instance."""
    out = []
    for case, g in edge_cases().items():
        for name, solver in EDGE_SOLVERS.items():
            out.append((f"{name}:{case}", lambda s=solver, g=g: _run(s, _edge_record, g)))
    for case, g in vertex_cases().items():
        for name, solver in VERTEX_SOLVERS.items():
            out.append((f"{name}:{case}", lambda s=solver, g=g: _run(s, _vertex_record, g)))
    return out


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", [e for e, _ in entries()])
def test_golden_output(entry):
    thunk = dict(entries())[entry]
    assert thunk() == _golden()[entry]


def test_golden_file_covers_every_entry():
    assert sorted(_golden()) == sorted(e for e, _ in entries())


def test_golden_flow_calls_are_the_probe_log_total():
    """Every flow an entry point runs shows up in its probe log."""
    mismatched = [
        entry for entry, record in _golden().items()
        if "error" not in record
        and record["flow_calls"] != sum(calls for _, _, calls in record["probe_log"])
    ]
    assert mismatched == []



def test_readme_library_example_prints_what_it_says(capsys):
    """The python block of the README's ``## Library`` section, run as
    written, prints the lines that its comments give."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    said = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert said == ["frozenset({2}) 2", "2"]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == said

if __name__ == "__main__":
    golden_main(sys.argv[1:], GOLDEN, lambda: {entry: thunk() for entry, thunk in entries()})
