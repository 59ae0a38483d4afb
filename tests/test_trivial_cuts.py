"""The flow-free cuts: singleton tables, zero tests and sink evaluation.

The singleton cuts come from one pass over the arcs.  The reference
tests keep the per-vertex fold they replaced (one certificate per vertex,
combined with ``_better``) and check that both pick the same cut; the
counting tests check that no per-vertex certificate or neighbourhood
scan comes back.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dircut.edgecut
import dircut.vertexcut
from dircut import (
    NoCutExistsError,
    VertexCapGraph,
    approx_rooted_edge_cut,
    cut_certificate,
    generate,
    parse_text,
)
from dircut.edgecut import (
    ProbeConfig,
    RootedTopology,
    _better,
    _rooted_start,
    precondition_rooted,
    probe,
)
from dircut.graph import merge_parallel
from dircut.steiner import Below
from dircut.vertexcut import (
    _admissible_sinks,
    _c_min,
    _global_start,
    _global_trivial,
    _normalize,
    _positive_arcs,
    _reversal,
    _rooted_search,
    _singletons,
    _sink_certificate,
    _unreached,
    sample_roots,
)

from conftest import (
    brute_min_separator,
    probing_graphs,
    rand_vertex_graph,
    tiny_graphs,
    topo_reach,
    zero_heavy_vertex_graphs,
)

POSITIVE = st.integers(1, 9)


def _fold(certificates):
    """Per-vertex fold: the best certificate by ``_better``, or None."""
    best = None
    for cert in certificates:
        best = _better(best, cert)
    return best


@settings(max_examples=200)
@given(st.one_of(tiny_graphs(), probing_graphs()))
def test_edge_singleton_matches_per_vertex_fold(g):
    # the trivial cut is the zero cut onto the vertices the root cannot
    # reach along positive arcs, else the per-vertex fold's singleton, both
    # on the graph with its parallel arcs merged (or on g as it is); every
    # root of a probing graph reaches every vertex, so the fold runs there
    for graph in (g, merge_parallel(g)):
        for r in range(graph.n):
            gm, trivial, c_min = _rooted_start(graph, r)
            assert gm is graph or gm == merge_parallel(graph)
            assert c_min == Fraction(min((c for _, _, c in gm.arcs if c > 0), default=0), gm.scale)
            positive = [(t, h) for t, h, c in gm.arcs if c > 0]
            unreached = frozenset(range(graph.n)) - topo_reach(graph.n, positive, r)
            if unreached:
                assert trivial == cut_certificate(gm, unreached, root=r)
            else:
                assert trivial == _fold(cut_certificate(gm, [t], root=r)
                                        for t in range(graph.n) if t != r)


def _oriented(g, orientation):
    return g if orientation == "forward" else _reversal(g)


@settings(max_examples=200)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)))
def test_vertex_singleton_tables_match_per_vertex_certificates(g):
    for orientation in ("forward", "reverse"):
        graph = _oriented(g, orientation)
        assert _singletons(graph) == [
            _sink_certificate(graph, frozenset([v])) for v in range(g.n)
        ]


@settings(max_examples=200)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)))
def test_vertex_trivial_cuts_match_per_vertex_fold(g):
    ng = _normalize(g)
    admissible = _admissible_sinks(ng, 0)
    if admissible:
        start = _rooted_search(ng, 0, lambda probe_at, best, c_min: best).certificate
        expected = _unreached(ng, 0, _positive_arcs(ng, 0)) or _fold(
            _sink_certificate(ng, frozenset([t])) for t in admissible)
        # above c_min, the floor test answers first when a cut of value
        # c_min exists, which brute force decides; otherwise the fold stands
        c_min = _c_min(ng)
        if expected.value > c_min and min(
                brute_min_separator(ng, 0, t) for t in admissible) == c_min:
            assert start.value == c_min
        else:
            assert start == expected

    expected = _global_start(ng, _reversal(ng)) or _fold(
        cert
        for orientation in ("forward", "reverse")
        for cert in (replace(_sink_certificate(_oriented(ng, orientation), frozenset([v])),
                             orientation=orientation) for v in range(ng.n))
        if len(cert.separator) + 1 < ng.n
    )
    if expected is None:
        with pytest.raises(NoCutExistsError):
            _global_trivial(ng, _reversal(ng))
        return
    trivial = _global_trivial(ng, _reversal(ng))
    if expected.value > 0 and trivial.value == 0:
        return  # the exact zero test found a zero cut below the singleton
    assert trivial == expected


def _reference_sample_roots(g, eps, rng, bound):
    """Root sample with the slack bound taken in floats: every
    positive-capacity vertex once the count reaches n."""
    total = sum(g.vcaps)
    floor = bound * g.scale
    count = math.ceil(2 * math.log(g.n) / float(eps))
    if total > floor:
        alt = math.ceil(2 * total * math.log(g.n) / (total - floor))
        count = min(count, alt)
    count = max(1, min(count, g.n))
    if count == g.n:
        return [v for v, c in enumerate(g.vcaps) if c > 0]
    return rng.choices(range(g.n), weights=g.vcaps, k=count)


@settings(max_examples=200)
@given(zero_heavy_vertex_graphs(caps=POSITIVE), st.sampled_from(["1/100", "1/5", "1/2"]),
       st.integers(1, 3))
def test_sample_roots_matches_reference(g, eps, scale):
    g = VertexCapGraph(g.n, g.arcs, g.vcaps, scale)
    eps = Fraction(eps)
    ng = _normalize(g)
    try:
        bound = _global_trivial(ng, _reversal(ng)).value
    except NoCutExistsError:
        return  # a complete digraph has no cut to bound the draw
    assert (sample_roots(g, eps, random.Random(7), bound)
            == _reference_sample_roots(g, eps, random.Random(7), bound))


def test_rooted_start_builds_one_certificate(monkeypatch):
    """The singleton scan of a 400-vertex graph builds one certificate,
    not one per vertex."""
    g = parse_text(generate("planted-sink", seed=7, n=400, sink_size=4,
                            volume=12, value=5).text)
    calls = []
    real = dircut.edgecut.cut_certificate
    monkeypatch.setattr(dircut.edgecut, "cut_certificate",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    _, best, _ = _rooted_start(g, 0)
    assert best.value > 0 and len(best.sink_set) == 1
    assert len(calls) <= 1


def test_unmerged_rooted_solve_builds_two_certificates(monkeypatch):
    """An approx rooted solve on a graph without parallel arcs, which the
    floor test answers, builds the trivial cut's certificate and the floor
    cut's, and none again on the input graph."""
    g = parse_text(generate("planted-sink", seed=7, n=400, sink_size=4,
                            volume=12, value=5).text)
    calls = []
    real = dircut.edgecut.cut_certificate
    monkeypatch.setattr(dircut.edgecut, "cut_certificate",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    res = approx_rooted_edge_cut(g, 0, "0.2")
    assert res.value == 5 and res.flow_calls == 0
    assert len(calls) == 2


def test_vertex_trivial_cuts_scan_no_neighbourhood_per_vertex(monkeypatch):
    """``sample_roots`` and ``_global_trivial`` on a 30-vertex strongly
    connected graph with positive capacities (so no zero cut exists) make
    no neighbourhood scan at all, and ``sample_roots`` builds no singleton
    table: it draws against the trivial cut it is given."""
    g = _normalize(rand_vertex_graph(random.Random(5), 30, p=0.2))
    scans = []

    def counted(fn):
        return lambda *a, **k: scans.append(fn.__name__) or fn(*a, **k)

    monkeypatch.setattr(VertexCapGraph, "out_neighbors",
                        counted(VertexCapGraph.out_neighbors))
    monkeypatch.setattr(dircut.vertexcut, "_sink_certificate",
                        counted(dircut.vertexcut._sink_certificate))
    trivial = _global_trivial(g, _reversal(g))
    monkeypatch.setattr(dircut.vertexcut, "_singletons",
                        counted(dircut.vertexcut._singletons))
    roots = sample_roots(g, "0.2", random.Random(0), trivial.value)
    assert roots and trivial.value > 0
    assert scans == []


def test_probe_evaluates_each_sink_once(monkeypatch):
    """Every terminal of a planted sink comes back Below with the same
    sink set, which is evaluated once."""
    g = parse_text(generate("planted-sink", seed=0, n=12, sink_size=4,
                            volume=12, value=5).text)
    below = []
    real = dircut.edgecut.shrink_wrap

    def recording(*args):
        outcome, stats = real(*args)
        below.extend(o.cut.sink_set for o in outcome.values() if isinstance(o, Below))
        return outcome, stats

    monkeypatch.setattr(dircut.edgecut, "shrink_wrap", recording)
    cfg = ProbeConfig(level=Fraction(6), volume=16, epsilon=Fraction(1, 5))
    topology = RootedTopology(g, 0)
    h = precondition_rooted(topology, cfg.level, cfg.volume, cfg.epsilon)
    extracted = []
    rep = probe(h, topology, frozenset(range(1, g.n)), cfg,
                lambda sink: extracted.append(sink) or cut_certificate(g, sink, root=0))
    assert len(below) > len(set(below)) >= 1
    assert sorted(map(sorted, extracted)) == sorted(map(sorted, set(below)))
    assert rep.certificate.value == 5
