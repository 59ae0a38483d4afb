import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import INFINITE, DiGraph
from dircut.maxflow import _network, max_flow, min_cut_sink_side

from conftest import (
    arc_flows,
    brute_min_st_cut,
    brute_minimal_source_side,
    capacities,
    g1,
    rand_digraph,
    tiny_graphs,
    verify_flow,
)


def test_single_arc_network():
    g = DiGraph(2, [(0, 1, 5)])
    res = max_flow(g, 0, 1)
    assert res.value == 5
    assert res.source_side == frozenset([0])
    cert = min_cut_sink_side(res)
    assert cert.sink_set == frozenset([1]) and cert.value == 5


def test_g1_flows():
    g = g1()
    rb = max_flow(g, 0, 2)
    assert rb.value == 2 and rb.source_side == frozenset([0, 1])
    cert = min_cut_sink_side(rb)
    assert cert.sink_set == frozenset([2]) and cert.value == 2
    assert [g.arcs[i] for i in cert.crossing] == [(0, 2, 1), (1, 2, 1)]

    ra = max_flow(g, 0, 1)
    assert ra.value == 3 and ra.source_side == frozenset([0])
    cert = min_cut_sink_side(ra)
    assert cert.sink_set == frozenset([1, 2]) and cert.value == 3
    assert [g.arcs[i] for i in cert.crossing] == [(0, 1, 2), (0, 2, 1)]


def test_source_equals_sink_rejected():
    with pytest.raises(ValueError):
        max_flow(g1(), 1, 1)


def test_oracle_equivalence_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = rand_digraph(rng, n, rng.randint(0, 14), wmax=10, strong=False)
        s, t = rng.sample(range(n), 2)
        res = max_flow(g, s, t)
        assert res.graph.value(res.value) == brute_min_st_cut(g, s, t)


def test_duality_arc_by_arc():
    rng = random.Random(8)
    for _ in range(30):
        g = rand_digraph(rng, rng.randint(2, 8), rng.randint(0, 14), strong=False)
        s, t = rng.sample(range(g.n), 2)
        res = max_flow(g, s, t)
        side = res.source_side
        assert s in side and t not in side
        for (u, v, c), f in zip(g.arcs, arc_flows(res)):
            if u in side and v not in side:
                assert f == c, "forward cut arc must be saturated"
            if u not in side and v in side:
                assert f == 0, "reverse cut arc must carry nothing"


def test_integrality_and_feasibility():
    rng = random.Random(9)
    for _ in range(30):
        g = rand_digraph(rng, rng.randint(2, 7), rng.randint(0, 12), strong=False)
        s, t = rng.sample(range(g.n), 2)
        res = max_flow(g, s, t)
        assert isinstance(res.value, int)
        assert all(isinstance(f, int) for f in arc_flows(res))
        assert verify_flow(g, arc_flows(res), s, t)


def test_verify_flow_rejects_corruptions():
    g = DiGraph(3, [(0, 1, 2), (1, 2, 2)])
    res = max_flow(g, 0, 2)
    assert verify_flow(g, arc_flows(res), 0, 2)
    over = list(arc_flows(res))
    over[0] += 1  # exceeds capacity by one scale unit
    assert not verify_flow(g, tuple(over), 0, 2)
    broken = list(arc_flows(res))
    broken[1] -= 1  # violates conservation at vertex 1
    assert not verify_flow(g, tuple(broken), 0, 2)
    assert not verify_flow(g, arc_flows(res)[:1], 0, 2)


def test_infinite_arcs_participate():
    g = DiGraph(3, [(0, 1, INFINITE), (1, 2, 4)])
    res = max_flow(g, 0, 2)
    assert res.value == 4
    cert = min_cut_sink_side(res)
    assert cert.sink_set == frozenset([2])


@st.composite
def flow_problems(draw):
    """A tiny graph, a source and a sink, sometimes joined by direct arcs."""
    g = draw(tiny_graphs())
    s, t = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    direct = draw(st.lists(capacities, max_size=2))
    if direct:
        g = DiGraph(g.n, g.arcs_as_input() + [(s, t, c) for c in direct], scale=g.scale)
    return g, s, t


@settings(max_examples=400)
@given(flow_problems())
def test_max_flow_matches_brute_force(problem):
    g, s, t = problem
    res = max_flow(g, s, t)
    assert g.value(res.value) == brute_min_st_cut(g, s, t)
    assert res.source_side == brute_minimal_source_side(g, s, t)
    assert verify_flow(g, arc_flows(res), s, t)
    net = 0
    for (u, v, _), f in zip(g.arcs, arc_flows(res)):
        net += f if u == s else -f if v == s else 0
    assert net == res.value


def test_demand_arcs_validated():
    g = g1()
    with pytest.raises(ValueError):
        max_flow(g, 0, 3, demands=[(3, 1)])
    with pytest.raises(ValueError):
        max_flow(g, 0, 3, demands=[(1, -1)])
    with pytest.raises(ValueError):
        max_flow(g, 0, 3)
    with pytest.raises(ValueError):
        max_flow(g, 3, 0)
    # the source must be a vertex of g, and the sink the supersink g.n
    with pytest.raises(ValueError):
        max_flow(g, 3, 0, demands=[(1, 1)])
    with pytest.raises(ValueError):
        max_flow(g, 0, 2, demands=[(1, 1)])


def test_rejected_demands_leave_the_shared_arrays_alone():
    g = g1()
    first = max_flow(g, 0, g.n, demands=[(1, 2), (2, 1)])
    head, _, adj, _ = _network(g)
    before = (len(head), [edges[:] for edges in adj])
    with pytest.raises(ValueError):
        max_flow(g, 0, g.n, demands=[(1, 1), (2, 1), (g.n, 1)])
    assert (len(head), adj) == before
    fresh = DiGraph(g.n, g.arcs_as_input(), scale=g.scale)
    again = max_flow(g, 0, g.n, demands=[(2, 1), (1, 2)])
    theirs = max_flow(fresh, 0, g.n, demands=[(2, 1), (1, 2)])
    assert (again.value, again.source_side, again.residual) == \
        (theirs.value, theirs.source_side, theirs.residual)
    assert first.source_side == frozenset([0])


#: Demand numerators, and capacities of arcs into a sink: zero, small and
#: near 2**70.
finite_capacities = st.one_of(st.integers(0, 4), st.integers(2**70 - 3, 2**70 + 3))


@st.composite
def full_sink_problems(draw):
    """A tiny graph, a source s and a sink t with one more arc into t, plus
    an INFINITE arc from s to the tail of every arc into t, so the flow
    fills t's in-arcs whenever they are all finite.  In half the draws
    INFINITE arcs into t become finite, so t's finite in-arcs sit next to
    INFINITE arcs elsewhere."""
    g = draw(tiny_graphs())
    s, t = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    tail = draw(st.integers(0, g.n - 1).filter(lambda v: v != t))
    arcs = g.arcs_as_input() + [(tail, t, draw(finite_capacities))]
    if draw(st.booleans()):
        arcs = [(u, v, 2**70 if v == t and c is INFINITE else c) for u, v, c in arcs]
    feeders = sorted({u for u, v, _ in arcs if v == t and u != s})
    return DiGraph(g.n, arcs + [(s, u, INFINITE) for u in feeders], scale=g.scale), s, t


@settings(max_examples=300)
@given(full_sink_problems())
def test_flow_stops_at_a_full_sink(problem):
    g, s, t = problem
    res = max_flow(g, s, t)
    into_t = [i for i, (_, v, _) in enumerate(g.arcs) if v == t]
    if not g.inf_arcs.intersection(into_t):
        # t's in-capacity is a minimum cut, so the flow ends with it full
        assert res.value == sum(g.arcs[i][2] for i in into_t)
    assert g.value(res.value) == brute_min_st_cut(g, s, t)
    assert res.source_side == brute_minimal_source_side(g, s, t)
    assert verify_flow(g, arc_flows(res), s, t)


@st.composite
def saturating_demand_problems(draw):
    """A tiny graph with an INFINITE arc from the source 0 to each of its
    terminals, and one demand per terminal, so every demand saturates."""
    g = draw(tiny_graphs())
    terminals = draw(st.lists(st.integers(1, g.n - 1), min_size=1, unique=True))
    arcs = g.arcs_as_input() + [(0, v, INFINITE) for v in terminals]
    return DiGraph(g.n, arcs, scale=g.scale), [(v, draw(finite_capacities)) for v in terminals]


@settings(max_examples=300)
@given(saturating_demand_problems())
def test_demand_flow_stops_once_every_demand_is_met(problem):
    g, demand_arcs = problem
    res = max_flow(g, 0, g.n, demands=demand_arcs)
    assert res.value == sum(c for _, c in demand_arcs)
    # the same network built as a graph: g's arcs, then the demand arcs
    # into the supersink g.n, in the order of the flow's residual edges
    ext = DiGraph(g.n + 1, g.arcs_as_input() + [(v, g.n, c) for v, c in demand_arcs],
                  scale=g.scale)
    assert ext.value(res.value) == brute_min_st_cut(ext, 0, g.n)
    assert res.source_side == brute_minimal_source_side(ext, 0, g.n)
    assert verify_flow(ext, tuple(res.residual[1::2]), 0, g.n)


@st.composite
def demand_problems(draw):
    """A tiny graph, a source and demands of any size, repeats allowed, so
    some demand arcs stay unsaturated and some vertices carry two.  On a
    graph with INFINITE arcs half the draws cut the demands down to a
    total of one below, at or one above ``g.inf_value``, where
    ``max_flow`` starts to raise those arcs to the extended graph's
    sentinel."""
    g = draw(tiny_graphs())
    s = draw(st.integers(0, g.n - 1))
    demand_arcs = draw(st.lists(st.tuples(st.integers(0, g.n - 1), finite_capacities),
                                min_size=1, max_size=4))
    if g.inf_arcs and draw(st.booleans()):
        left = g.inf_value + draw(st.sampled_from([-1, 0, 1]))
        for i, (v, c) in enumerate(demand_arcs):
            c = left if i == len(demand_arcs) - 1 else min(c, left)
            demand_arcs[i] = (v, c)
            left -= c
    return g, s, demand_arcs


@settings(max_examples=300)
@given(demand_problems())
def test_demand_flow_matches_brute_force_on_the_extended_graph(problem):
    g, s, demand_arcs = problem
    head, _, adj, _ = _network(g)
    before = (head[:], [edges[:] for edges in adj])
    res = max_flow(g, s, g.n, demands=demand_arcs)
    # another demand flow runs before the source side is first read
    max_flow(g, s, g.n, demands=demand_arcs[::-1])
    assert (head, adj) == before
    ext = DiGraph(g.n + 1, g.arcs_as_input() + [(v, g.n, c) for v, c in demand_arcs],
                  scale=g.scale)
    assert ext.value(res.value) == brute_min_st_cut(ext, s, g.n)
    assert res.source_side == brute_minimal_source_side(ext, s, g.n)
    assert verify_flow(ext, tuple(res.residual[1::2]), s, g.n)


def test_demands_totalling_the_sentinel_raise_the_infinite_arcs():
    # the finite arcs total 3, so the sentinel is 4, and so is the demand
    # total.  No finite cut of the extended graph lies below 4: the demand
    # arcs alone cost 4, and the sink {2, 3} costs 5.  The cut onto {1, 2, 3}
    # crosses only the INFINITE arc (0, 1); at the graph's own sentinel it
    # would tie the demand arcs and empty the minimal source side, so the
    # flow must raise that arc to the extended graph's sentinel, 4 + 4
    g = DiGraph(3, [(0, 1, INFINITE), (1, 2, 3)])
    assert g.inf_value == 4
    demand_arcs = [(1, 2), (2, 2)]
    res = max_flow(g, 0, g.n, demands=demand_arcs)
    ext = DiGraph(g.n + 1, g.arcs_as_input() + [(v, g.n, c) for v, c in demand_arcs])
    assert res.value == 4 == brute_min_st_cut(ext, 0, g.n)
    assert res.source_side == brute_minimal_source_side(ext, 0, g.n) == frozenset([0, 1, 2])
    assert res.residual[0] == 8 - 4  # the raised arc less its flow
    assert verify_flow(ext, tuple(res.residual[1::2]), 0, g.n)
