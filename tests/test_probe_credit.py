"""Terminals certified by credit before any flow.

``probe`` closes the set of certified vertices of its conditioned graph
under credit (``credit_closure``) from the root, at the probe's threshold
numerator, and drops those terminals before it runs a flow.  These tests
check that the closure is sound on edge graphs and on split graphs with
the vertex rule, that a probe still hits exactly when one of its
terminals lies below the threshold, and pin the flows the vertex rule
saves on a vertex Erdős–Rényi graph.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    DiGraph,
    approx_global_vertex_cut,
    cut_certificate,
    exact_vertex_cut_oracle,
    generate,
    max_flow,
    parse_text,
    prune_for_root,
)
from dircut.edgecut import (
    ProbeConfig,
    RootedTopology,
    condition_rooted,
    credit_closure,
    precondition_rooted,
    probe,
)
from dircut.vertexcut import _admissible_sinks, _normalize, _sink_certificate, _split_topology

from conftest import probing_graphs, probing_vertex_graphs, zero_heavy_vertex_graphs

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
    topology = _split_topology(ng, r)
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


def test_the_vertex_rule_removes_most_flows_on_vertex_er_40():
    # with the edge rule alone every terminal of the split graph still ran
    # its flows here (426 flows); an out-copy's only finite in-arc is its
    # own split arc, so the vertex rule credits in-copies through it
    text = generate("erdos-renyi-digraph", seed=1, n=40, p=0.5, kind="vertex-cap",
                    vcap_max=3).text
    g = parse_text(text)
    res = approx_global_vertex_cut(g, "0.2", seed=1)
    assert res.value == 21 == exact_vertex_cut_oracle(g).value
    assert res.flow_calls == 14
