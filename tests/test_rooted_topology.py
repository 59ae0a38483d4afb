"""One conditioned topology per rooted instance.

Every probe of a rooted instance conditions the same arcs (the base arcs,
then a root arc to every vertex with positive in-degree) and differs only
in capacities and scale.  ``RootedTopology`` keeps those arcs, which the
base validated; its supply arcs are computed at their first read.  Each
conditioned graph owns its residual arrays, built at its first flow.
These tests check that a graph conditioned on a shared topology equals
the one built from scratch and flows the same, that a probe which credit
settles runs no flow and builds no arrays, that every conditioned graph
that flows builds its own arrays once, sharing none with another, and
that a probe does not depend on what earlier probes built.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dircut.edgecut
import dircut.steiner
import dircut.vertexcut
from dircut import INFINITE, DiGraph, VertexCapGraph, cut_certificate
from dircut.edgecut import (
    ProbeConfig,
    RootedTopology,
    _edge_prober,
    condition_rooted,
    precondition_rooted,
    probe,
)
from dircut.maxflow import _network, max_flow
from dircut.steiner import shrink_wrap
from dircut.vertexcut import (
    _admissible_sinks,
    _normalize,
    _sink_certificate,
    _split_prober,
    prune_for_root,
    split_transform,
)

from conftest import probing_graphs, tiny_graphs, zero_heavy_vertex_graphs

LEVELS = st.sampled_from([Fraction(1), Fraction(7, 3), Fraction(2**70)])
VOLUMES = st.sampled_from([1, 4, 64])
EPSILONS = st.sampled_from([Fraction(1, 100), Fraction(1, 5), Fraction(99, 100)])
#: the floor as a share of the level
FLOOR_SHARES = st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 7), Fraction(1)])


def _from_scratch(base, r, level, volume, epsilon, aux_divisor, floor):
    """The conditioned graph built arc by arc and validated by ``DiGraph``."""
    quantum = epsilon * level / (aux_divisor * volume)
    scale = base.scale
    for q in (quantum, floor, level, epsilon * level):
        scale = math.lcm(scale, q.denominator)
    factor = scale // base.scale
    arcs = [
        (t, h, INFINITE if i in base.inf_arcs
         else min(max(c * factor, int(floor * scale)), int(2 * level * scale)))
        for i, (t, h, c) in enumerate(base.arcs)
    ]
    arcs += [(r, v, int(quantum * scale) * deg)
             for v, deg in enumerate(base.in_degrees()) if v != r and deg > 0]
    return DiGraph(base.n, arcs, scale=scale)


def _root_supply(h, r):
    """The root's effective out-capacity, summed arc by arc: finite arcs
    out of ``r`` at their capacity, infinite ones at the finite
    out-capacity of their head."""
    finite_out = [0] * h.n
    for i, (t, _, c) in enumerate(h.arcs):
        if i not in h.inf_arcs:
            finite_out[t] += c
    return sum(finite_out[head] if i in h.inf_arcs else c
               for i, (t, head, c) in enumerate(h.arcs) if t == r)


def _same_as_from_scratch(base, r, aux_divisor, probes, terminals):
    """Condition ``base`` at each (level, volume, epsilon, floor share) of
    ``probes`` on one shared topology, and check each graph against the one
    built from scratch: equal, with the same infinite sentinel, root supply
    and demand flow to ``terminals``."""
    topology = RootedTopology(base, r)
    for level, volume, epsilon, share in probes:
        floor = share * level
        shared = condition_rooted(topology, level, volume, epsilon, aux_divisor, floor)
        scratch = _from_scratch(base, r, level, volume, epsilon, aux_divisor, floor)
        assert shared == scratch
        assert shared == condition_rooted(RootedTopology(base, r), level, volume, epsilon,
                                          aux_divisor, floor)
        assert shared.inf_value == scratch.inf_value
        assert sum(shared.arcs[i][2] for i in topology.supply_arcs) == _root_supply(scratch, r)
        level_num = int(level * scratch.scale)
        if terminals:
            demands = [(t, level_num) for t in sorted(terminals)]
            head, _, adj, _ = _network(shared)
            before = (head[:], [edges[:] for edges in adj])
            ours = max_flow(shared, r, shared.n, demands=demands)
            theirs = max_flow(scratch, r, scratch.n, demands=demands)
            assert (ours.value, ours.source_side) == (theirs.value, theirs.source_side)
            # the flows left the shared arrays as they were
            assert (head, adj) == before
            assert max_flow(shared, r, shared.n, demands=demands).value == ours.value


PROBES = st.lists(st.tuples(LEVELS, VOLUMES, EPSILONS, FLOOR_SHARES), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tiny_graphs(), probing_graphs()), PROBES, st.data())
def test_shared_topology_conditions_like_a_fresh_build_edge(g, probes, data):
    terminals = data.draw(st.sets(st.integers(1, g.n - 1)))
    _same_as_from_scratch(g, 0, 2, probes, terminals)


@settings(max_examples=150, deadline=None)
@given(zero_heavy_vertex_graphs(caps=st.sampled_from([0, 1, 2, 2**70])), PROBES, st.data())
def test_shared_topology_conditions_like_a_fresh_build_split(g, probes, data):
    # the pruned split graph every vertex mode probes, rooted at 0's out-copy
    split = split_transform(prune_for_root(_normalize(g), 0))
    terminals = data.draw(st.sets(st.integers(1, g.n - 1)))
    _same_as_from_scratch(split, g.n, 6, probes, terminals)


def _conditioned_flows(prober, levels, tag):
    """Probe ``levels``; return the number of ``max_flow`` calls and, per
    conditioned graph built, (graph, the ``_flow_network`` that each flow
    on it found at its start).  Graphs that the recursion contracts are
    left out."""
    conditioned, found, flows = [], {}, []
    real_condition, real_flow = condition_rooted, dircut.steiner.max_flow

    def condition(*args):
        g = real_condition(*args)
        conditioned.append(g)  # keeps every id in ``found`` unique
        found[id(g)] = []
        return g

    def flow(g, *args, **kwargs):
        flows.append(g)
        if id(g) in found:
            found[id(g)].append(g._flow_network)
        return real_flow(g, *args, **kwargs)

    # both modules call conditioning by name; the edge prober through
    # ``precondition_rooted``
    with mock.patch.object(dircut.edgecut, "condition_rooted", condition), \
            mock.patch.object(dircut.vertexcut, "condition_rooted", condition), \
            mock.patch.object(dircut.steiner, "max_flow", flow):
        for i, level in enumerate(levels):
            prober(level, Fraction(1, 5), (tag, i))
    return len(flows), [(g, found[id(g)]) for g in conditioned]


def _topologies_built():
    """Patch ``RootedTopology`` to record every topology built while the
    patch holds, in the list it returns alongside the patch."""
    built, init = [], RootedTopology.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    return built, mock.patch.object(RootedTopology, "__init__", record)


def _probe_levels(make_prober, settled, flowing):
    """Probe the levels ``settled``, then ``flowing``, on the prober that
    ``make_prober(log)`` builds, and check that the first run no flow and
    build neither residual arrays nor supply arcs, and that the second
    flow and read the supply arcs."""
    log = []
    built, patch = _topologies_built()
    with patch:
        prober = make_prober(log)
    (topology,) = built
    calls, graphs = _conditioned_flows(prober, settled, "settled")
    # credit certified every terminal: no flow ran, and nothing flow-related exists
    assert log and all(c == 0 for _, _, c in log)
    assert calls == 0
    assert len(graphs) == len(log)
    assert all(g._flow_network is None for g, _ in graphs)
    assert "supply_arcs" not in vars(topology)
    calls, _ = _conditioned_flows(prober, flowing, "flowing")
    assert calls > 0
    assert "supply_arcs" in vars(topology)


# (make_prober, levels that credit settles, levels that flow) on two cycles.
# The bidirectional 8-cycle with capacities 5, whose rooted cuts are at
# least 10: levels 5 and 8 miss at several volume guesses, levels 12 and 30
# hit.  At level 4 the threshold is 24/5, below the capacities 5, so the
# arcs from the root and from certified vertices certify every terminal.
# The bidirectional 7-cycle with vertex capacities 3, whose rooted vertex
# cuts are at least 6: at levels 2 and 5/2 the threshold is at most its
# capacities 3; at level 3 it is 18/5
CYCLE_8 = DiGraph(8, [(v, (v + d) % 8, 5) for v in range(8) for d in (1, 7)])
VERTEX_CYCLE_7 = VertexCapGraph(7, [(v, (v + d) % 7) for v in range(7) for d in (1, 6)],
                                [3] * 7)
CYCLE_PROBERS = [
    (lambda log: _edge_prober(CYCLE_8, 0, log),
     [Fraction(4)], [Fraction(5), Fraction(8), Fraction(12), Fraction(30)]),
    (lambda log: _split_prober(VERTEX_CYCLE_7, 0, log),
     [Fraction(2), Fraction(5, 2)], [Fraction(3), Fraction(5), Fraction(9), Fraction(20)]),
]


def test_a_probe_that_credit_settles_builds_no_flow_arrays():
    for make_prober, settled, flowing in CYCLE_PROBERS:
        _probe_levels(make_prober, settled, flowing)


def test_each_conditioned_graph_builds_its_own_residual_arrays_once():
    for make_prober, _, flowing in CYCLE_PROBERS:
        _, graphs = _conditioned_flows(make_prober([]), flowing, "own")
        flowed = [g for g, found in graphs if found]
        assert len(flowed) >= 4
        for g, found in graphs:
            if found:
                assert found[0] is None  # built at the first flow
                assert all(net is g._flow_network for net in found[1:])  # and only then
            else:
                assert g._flow_network is None
        # no two conditioned graphs share a head array or an edge list
        heads = [g._flow_network[0] for g in flowed]
        assert len({id(head) for head in heads}) == len(heads)
        edge_lists = [edges for g in flowed for edges in g._flow_network[2]]
        assert len({id(edges) for edges in edge_lists}) == len(edge_lists)


def _cold_and_warm(make_topology, condition, extract, candidates, cfg, warm_cfg, terminals):
    """Probe ``cfg`` on a fresh topology and on one that a probe of every
    candidate at ``warm_cfg`` flowed on first, and check the two reports
    are the same.  Should credit settle that probe, a flow of all the
    candidates on its conditioned graph stands in for it."""
    warm = make_topology()
    h = condition(warm, warm_cfg)
    if not probe(h, warm, candidates, warm_cfg, extract).flow_calls:
        level_num = (1 + warm_cfg.epsilon) * warm_cfg.level * h.scale
        shrink_wrap(h, warm.root, candidates, int(level_num))
    assert h._flow_network is not None
    assert warm.supply_arcs is not None
    cold = make_topology()
    reports = [probe(condition(t, cfg), t, terminals, cfg, extract) for t in (cold, warm)]
    assert reports[0] == reports[1]


CONFIGS = st.builds(ProbeConfig, LEVELS, VOLUMES, EPSILONS)


@settings(max_examples=150, deadline=None)
@given(probing_graphs(), CONFIGS, CONFIGS, st.data())
def test_cold_and_warm_topologies_probe_alike_edge(g, cfg, warm_cfg, data):
    candidates = frozenset(range(1, g.n))
    terminals = data.draw(st.frozensets(st.sampled_from(sorted(candidates)), min_size=1))
    _cold_and_warm(lambda: RootedTopology(g, 0),
                   lambda t, c: precondition_rooted(t, c.level, c.volume, c.epsilon),
                   lambda sink: cut_certificate(g, sink, root=0),
                   candidates, cfg, warm_cfg, terminals)


@settings(max_examples=150, deadline=None)
@given(zero_heavy_vertex_graphs(caps=st.sampled_from([0, 1, 2, 2**70])), CONFIGS, CONFIGS,
       st.data())
def test_cold_and_warm_topologies_probe_alike_split(g, cfg, warm_cfg, data):
    # pruned, conditioned and extracted as the vertex prober does
    ng = prune_for_root(_normalize(g), 0)
    admissible = frozenset(_admissible_sinks(ng, 0))
    assume(admissible)
    terminals = data.draw(st.frozensets(st.sampled_from(sorted(admissible)), min_size=1))
    _cold_and_warm(lambda: RootedTopology(split_transform(ng), ng.n),
                   lambda t, c: condition_rooted(t, c.level, c.volume, c.epsilon, 6,
                                                 c.epsilon * c.level / (4 * ng.n)),
                   lambda sink: _sink_certificate(ng, sink & admissible),
                   admissible, cfg, warm_cfg, terminals)
