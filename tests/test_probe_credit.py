"""Terminals certified by credit before any flow.

``probe`` closes the set of certified vertices of its conditioned graph
under credit (``credit_closure``) from the root, at the probe's threshold
numerator, and drops those terminals before it runs a flow.  One rule
builds the credit (``RootedTopology``): an arc t→y credits y and, once
each, the head of every infinite arc out of y.  These tests check that
the closure certifies exactly the least fixpoint of its rule, also across
calls that share its state, that it is sound on edge graphs and on split
graphs, that a probe still hits exactly when one of its terminals lies
below the threshold, that on split graphs the rule gives the credit of
the edge rule plus the vertex rule it replaced, and pin the flows that
passing credit through infinite arcs saves, on an edge graph and on a
vertex Erdős–Rényi graph.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    INFINITE,
    DiGraph,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    cut_certificate,
    exact_rooted_edge_cut_oracle,
    exact_vertex_cut_oracle,
    generate,
    parse_text,
)
from dircut.edgecut import (
    ProbeConfig,
    RootedTopology,
    condition_rooted,
    credit_closure,
    precondition_rooted,
    probe,
)
from dircut.maxflow import max_flow
from dircut.vertexcut import (
    _admissible_sinks,
    _normalize,
    _sink_certificate,
    prune_for_root,
    split_transform,
)

from conftest import (
    probing_graphs,
    probing_vertex_graphs,
    tiny_graphs,
    zero_heavy_vertex_graphs,
)

LEVELS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(3),
                          Fraction(5), Fraction(2**70)])
VOLUMES = st.sampled_from([1, 4, 64])
EPSILONS = st.sampled_from([Fraction(1, 100), Fraction(1, 5), Fraction(99, 100)])
VERTEX_CAPS = st.sampled_from([0, 1, 2, 3, 2**70])
VERTEX_GRAPHS = st.one_of(zero_heavy_vertex_graphs(caps=VERTEX_CAPS),
                          probing_vertex_graphs(caps=VERTEX_CAPS))


def _level_num(h, cfg):
    """The probe's threshold (1+epsilon)*level as a numerator at h's scale."""
    level_num = (1 + cfg.epsilon) * cfg.level * h.scale
    assert level_num.denominator == 1
    return int(level_num)


def _certified(topology, h, level_num):
    certified = set()
    credit_closure(topology.credit, h.arcs, level_num, [0] * h.n, certified, [topology.root])
    return certified


def _check(topology, h, cfg, terminals, extract):
    """Every vertex the closure certifies fills its demand arc, and the
    probe of ``terminals`` hits exactly when one of them does not."""
    r, level_num = topology.root, _level_num(h, cfg)

    def fills(v):
        return max_flow(h, r, h.n, demands=[(v, level_num)]).value == level_num

    for v in _certified(topology, h, level_num) - {r}:
        assert fills(v), f"vertex {v} certified by credit lies below the threshold"
    report = probe(h, topology, terminals, cfg, extract)
    assert (report.certificate is not None) == (not all(map(fills, terminals)))
    if report.certificate is not None:
        assert report.certificate.value < (1 + cfg.epsilon) * cfg.level


def _least_fixpoint(credit, arcs, threshold, starts):
    """The certified set and support that ``credit_closure`` must reach
    from ``starts``, by the rule repeated until nothing changes: each
    round sums every certified vertex's credit afresh and certifies every
    vertex whose support reaches ``threshold``."""
    certified = set(starts)
    while True:
        support = [0] * len(credit)
        for t in certified:
            for w, i in credit[t]:
                support[w] += arcs[i][2]
        more = {w for w, total in enumerate(support) if total >= threshold} - certified
        if not more:
            return certified, support
        certified |= more


def _closes_to_the_least_fixpoint(topology, h, level_num, batches, data):
    """Close from the root, then from each batch in turn on the same
    ``support`` and ``certified``, as ``probe`` does group after group,
    and compare both with the least fixpoint after every call.  The
    threshold is the probe's ``level_num`` or a capacity of ``h``, which
    some support then meets exactly."""
    level_num = data.draw(st.sampled_from(sorted({level_num}.union(
        c for _, _, c in h.arcs if c > 0))))
    support, certified, starts = [0] * h.n, set(), set()
    for batch in [[topology.root], *batches]:
        credit_closure(topology.credit, h.arcs, level_num, support, certified, batch)
        starts.update(batch)
        assert (certified, support) == _least_fixpoint(topology.credit, h.arcs, level_num,
                                                       starts)


BATCHES = st.lists(st.lists(st.integers(0, 20)), max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tiny_graphs(), probing_graphs()), LEVELS, VOLUMES, EPSILONS, BATCHES,
       st.data())
def test_closure_is_the_least_fixpoint_edge(g, level, volume, epsilon, batches, data):
    # tiny graphs carry INFINITE, zero and parallel arcs
    topology = RootedTopology(g, data.draw(st.integers(0, g.n - 1)))
    h = precondition_rooted(topology, level, volume, epsilon)
    cfg = ProbeConfig(level=level, volume=volume, epsilon=epsilon)
    _closes_to_the_least_fixpoint(topology, h, _level_num(h, cfg),
                                  [[v % g.n for v in batch] for batch in batches], data)


@settings(max_examples=150, deadline=None)
@given(VERTEX_GRAPHS, LEVELS, VOLUMES, EPSILONS, BATCHES, st.data())
def test_closure_is_the_least_fixpoint_split(g, level, volume, epsilon, batches, data):
    r = data.draw(st.integers(0, g.n - 1))
    ng = prune_for_root(_normalize(g), r)
    topology = RootedTopology(split_transform(ng), ng.n + r)
    h = condition_rooted(topology, level, volume, epsilon, 6, epsilon * level / (4 * ng.n))
    cfg = ProbeConfig(level=level, volume=volume, epsilon=epsilon)
    _closes_to_the_least_fixpoint(topology, h, _level_num(h, cfg),
                                  [[v % h.n for v in batch] for batch in batches], data)


@settings(max_examples=150, deadline=None)
@given(probing_graphs(), LEVELS, VOLUMES, EPSILONS, st.data())
def test_credit_certifies_only_terminals_at_the_threshold_edge(g, level, volume, epsilon, data):
    r = data.draw(st.integers(0, g.n - 1))
    topology = RootedTopology(g, r)
    cfg = ProbeConfig(level=level, volume=volume, epsilon=epsilon)
    h = precondition_rooted(topology, level, volume, epsilon)
    others = [v for v in range(g.n) if v != r]
    terminals = data.draw(st.frozensets(st.sampled_from(others), min_size=1))
    _check(topology, h, cfg, terminals, lambda sink: cut_certificate(g, sink, root=r))


@settings(max_examples=150, deadline=None)
@given(VERTEX_GRAPHS, LEVELS, VOLUMES, EPSILONS, st.data())
def test_credit_certifies_only_terminals_at_the_threshold_split(g, level, volume, epsilon, data):
    # conditioned as the vertex prober conditions: aux divisor 6 and the
    # floor epsilon*level/(4n), on the split graph pruned for the root
    r = data.draw(st.integers(0, g.n - 1))
    ng = prune_for_root(_normalize(g), r)
    admissible = frozenset(_admissible_sinks(ng, r))
    topology = RootedTopology(split_transform(ng), ng.n + r)
    cfg = ProbeConfig(level=level, volume=volume, epsilon=epsilon)
    h = condition_rooted(topology, level, volume, epsilon, 6, epsilon * level / (4 * ng.n))
    terminals = data.draw(st.frozensets(st.sampled_from(sorted(admissible)), min_size=1)
                          if admissible else st.just(frozenset()))
    _check(topology, h, cfg, terminals, lambda sink: _sink_certificate(ng, sink & admissible))


def test_a_probe_whose_terminals_credit_certifies_runs_no_flow():
    # the bidirectional 8-cycle with capacities 5: at level 4 the arcs from
    # the root carry the threshold 24/5 to its neighbours, and the cycle
    # arcs from there carry it on round the cycle
    n = 8
    g = DiGraph(n, [(v, (v + d) % n, 5) for v in range(n) for d in (1, n - 1)])
    topology = RootedTopology(g, 0)
    cfg = ProbeConfig(level=Fraction(4), volume=1, epsilon=Fraction(1, 5))
    h = precondition_rooted(topology, cfg.level, cfg.volume, cfg.epsilon)
    assert _certified(topology, h, _level_num(h, cfg)) == set(range(n))
    report = probe(h, topology, frozenset(range(1, n)), cfg, None)
    assert (report.certificate, report.flow_calls, report.steiner_stats) == (None, 0, ())


def test_credit_passes_through_an_infinite_arc():
    # at level 3 the threshold is 18/5: the arc 0→1 of capacity 3 credits
    # 1 too little, but it also crosses every cut below the threshold whose
    # sink holds 2, which then holds 1 (or the cut would cross 1→2), so
    # with the arc 0→2 it credits 2 past the threshold; without passing
    # through 1→2 the probe of {2} runs a flow
    g = DiGraph(3, [(0, 1, 3), (1, 2, INFINITE), (0, 2, 2)])
    topology = RootedTopology(g, 0)
    cfg = ProbeConfig(level=Fraction(3), volume=64, epsilon=Fraction(1, 5))
    h = precondition_rooted(topology, cfg.level, cfg.volume, cfg.epsilon)
    assert _certified(topology, h, _level_num(h, cfg)) == {0, 2}

    def extract(sink):
        return cut_certificate(g, sink, root=0)

    report = probe(h, topology, frozenset([2]), cfg, extract)
    assert (report.certificate, report.flow_calls) == (None, 0)
    report = probe(h, topology, frozenset([1]), cfg, extract)
    assert report.certificate.sink_set == {1} and report.certificate.value == 3


def test_credit_through_infinite_arcs_below_the_sentinel_is_sound():
    # every base arc is infinite, so the conditioned graph's sentinel is the
    # root arcs' total + 1, below the threshold, and the cut {2} weighs one
    # sentinel plus a root arc, below the threshold too; still no flow puts
    # that cut below it, since ``max_flow`` raises infinite arcs above its
    # demands, so 2 fills its demand arc, the closure certifies it with no
    # flow, and the probe of {2} misses, as the edge rule alone does after
    # 1 flow; the rooted solve still returns the cut {2} through 1→2, of
    # value 1, the base graph's sentinel
    g = DiGraph(3, [(0, 1, INFINITE), (2, 1, INFINITE), (1, 2, INFINITE)])
    topology = RootedTopology(g, 0)
    cfg = ProbeConfig(level=Fraction(1), volume=1, epsilon=Fraction(99, 100))
    h = precondition_rooted(topology, cfg.level, cfg.volume, cfg.epsilon)
    level_num = _level_num(h, cfg)
    assert h.inf_value + h.arcs[-1][2] < level_num
    assert _certified(topology, h, level_num) == {0, 1, 2}
    _check(topology, h, cfg, frozenset([2]), None)
    report = probe(h, topology, frozenset([2]), cfg, None)
    assert (report.certificate, report.flow_calls) == (None, 0)
    res = approx_rooted_edge_cut(g, 0, cfg.epsilon, seed=1)
    assert res.certificate.sink_set == {2}
    assert res.value == 1 == exact_rooted_edge_cut_oracle(g, 0).value


def _edge_and_vertex_rule(ng, r):
    """The credit lists of the split graph of ``ng`` rooted at r's
    out-copy, built as the edge rule plus the vertex rule, the two rules
    that the one rule of ``RootedTopology`` replaced, each pair as (vertex,
    arc index) of the conditioned arcs: the split graph's arcs, then a
    root arc to every non-root vertex of positive in-degree."""
    split, root = split_transform(ng), ng.n + r
    degrees = split.in_degrees()
    arcs = [(t, h) for t, h, _ in split.arcs]
    arcs += [(root, v) for v in range(split.n) if v != root and degrees[v] > 0]
    credit = [[] for _ in range(split.n)]
    for i, (t, w) in enumerate(arcs):  # the edge rule
        if w != root:
            credit[t].append((w, i))
    into_out = {h: i for i, (t, h) in enumerate(arcs) if t == root and i >= split.m}
    for u, w in ng.arcs:  # the vertex rule: split arc u, and the root's arc into u_out
        credit[u].append((w, u))
        if u != r:
            credit[root].append((w, into_out[ng.n + u]))
    return arcs, credit


@settings(max_examples=200, deadline=None)
@given(VERTEX_GRAPHS)
def test_split_credit_is_the_edge_rule_plus_the_vertex_rule(g):
    for r in range(g.n):
        for ng in (_normalize(g), prune_for_root(_normalize(g), r)):
            topology = RootedTopology(split_transform(ng), ng.n + r)
            arcs, credit = _edge_and_vertex_rule(ng, r)
            assert list(zip(topology.tails, topology.heads)) == arcs
            assert list(map(sorted, topology.credit)) == list(map(sorted, credit))


def test_the_vertex_rule_removes_most_flows_on_vertex_er_40():
    # without passing credit through infinite arcs every terminal of the
    # split graph still ran its flows here (426 flows): an out-copy's only
    # finite in-arc is its own split arc, and the infinite arcs out of the
    # out-copy carry that arc's credit on to the out-neighbours' in-copies
    text = generate("erdos-renyi-digraph", seed=1, n=40, p=0.5, kind="vertex-cap",
                    vcap_max=3).text
    g = parse_text(text)
    res = approx_global_vertex_cut(g, "0.2", seed=1)
    assert res.value == 21 == exact_vertex_cut_oracle(g).value
    assert res.flow_calls == 14
