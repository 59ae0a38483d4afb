import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import INFINITE, DiGraph
from dircut.edgecut import RootedTopology, precondition_rooted, sample_terminals
from dircut.maxflow import max_flow, min_cut_sink_side
from dircut.steiner import (
    Below,
    build_steiner_network,
    partition_terminals,
    shrink_wrap,
)

from conftest import (
    conditioning_ratio,
    cut_value,
    g1,
    probing_graphs,
    rand_digraph,
    tiny_graphs,
)


def test_network_construction_g1():
    net, supersink = build_steiner_network(g1(), frozenset([1, 2]), 3)
    assert supersink == 3 and net.n == 4
    added = sorted(net.arcs[-2:])
    assert added == [(1, 3, 3), (2, 3, 3)]


def test_network_singleton_equals_capped_flow():
    rng = random.Random(11)
    for _ in range(15):
        g = rand_digraph(rng, rng.randint(3, 7), rng.randint(0, 10))
        t = rng.randrange(1, g.n)
        level = rng.randint(1, 8)
        net, supersink = build_steiner_network(g, frozenset([t]), level)
        capped = max_flow(net, 0, supersink).value
        direct = max_flow(g, 0, t).value
        assert capped == min(direct, level)


def _same_flow_as_built_network(g, r, terminals, level):
    net, supersink = build_steiner_network(g, terminals, level)
    built = max_flow(net, r, supersink)
    suffix = max_flow(g, r, g.n, demands=[(t, level) for t in sorted(terminals)])
    assert suffix.value == built.value
    assert suffix.source_side == built.source_side


@settings(max_examples=300)
@given(st.data())
def test_demand_suffix_matches_built_network_tiny(data):
    g = data.draw(tiny_graphs())
    r = data.draw(st.integers(0, g.n - 1))
    others = [v for v in range(g.n) if v != r]
    terminals = data.draw(st.frozensets(st.sampled_from(others), min_size=1))
    level = data.draw(st.one_of(st.integers(1, 6), st.integers(2**70 - 3, 2**70 + 3)))
    _same_flow_as_built_network(g, r, terminals, level)


def test_demand_suffix_matches_built_network_random():
    rng = random.Random(12)
    for _ in range(60):
        h = rand_digraph(rng, rng.randint(3, 24), rng.randint(0, 60), strong=rng.random() < 0.5)
        arcs = [(u, v, INFINITE if rng.random() < 0.1 else c) for u, v, c in h.arcs]
        g = DiGraph(h.n, arcs)
        r = rng.randrange(g.n)
        others = [v for v in range(g.n) if v != r]
        terminals = frozenset(rng.sample(others, rng.randint(1, len(others))))
        level = rng.choice([1, rng.randint(1, 30), 2**70])
        _same_flow_as_built_network(g, r, terminals, level)


def _leaf_matches_uncapped_flow(g, r, t, level):
    """The one-terminal leaf stops its flow at ``level``; below it, its cut
    is the minimum (r, t)-cut with the minimal source side.  A flow of
    ``g.inf_value`` or more crosses an infinite arc in every cut, which the
    leaf certifies whatever the level."""
    outcome, stats = shrink_wrap(g, r, frozenset([t]), level)
    assert stats.raw_flow_calls == stats.leaf_flow_calls == 1
    uncapped = max_flow(g, r, t)
    if uncapped.value < min(level, g.inf_value):
        assert outcome[t] == Below(min_cut_sink_side(uncapped))
    else:
        assert outcome[t] is None


@settings(max_examples=300)
@given(st.data())
def test_capped_leaf_matches_uncapped_flow_tiny(data):
    g = data.draw(tiny_graphs())
    r = data.draw(st.integers(0, g.n - 1))
    t = data.draw(st.sampled_from([v for v in range(g.n) if v != r]))
    level = data.draw(st.one_of(st.integers(1, 6), st.integers(2**70 - 3, 2**70 + 3)))
    _leaf_matches_uncapped_flow(g, r, t, level)


def test_capped_leaf_matches_uncapped_flow_random():
    rng = random.Random(13)
    for _ in range(80):
        h = rand_digraph(rng, rng.randint(3, 24), rng.randint(0, 60), strong=rng.random() < 0.5)
        arcs = [(u, v, INFINITE if rng.random() < 0.1 else c) for u, v, c in h.arcs]
        g = DiGraph(h.n, arcs)
        r, t = rng.sample(range(g.n), 2)
        _leaf_matches_uncapped_flow(g, r, t, rng.choice([1, rng.randint(1, 30), 2**70]))


def test_shrink_wrap_g1_examples():
    out, _ = shrink_wrap(g1(), 0, frozenset([1, 2]), 3)
    assert out[1] is None
    assert isinstance(out[2], Below)
    assert out[2].cut.sink_set == frozenset([2]) and out[2].cut.value == 2

    out, _ = shrink_wrap(g1(), 0, frozenset([2]), 1)
    assert out[2] is None

    # no path from the root: the empty cut separates
    g = DiGraph(3, [(1, 2, 5)])
    out, _ = shrink_wrap(g, 0, frozenset([2]), 1)
    assert isinstance(out[2], Below) and out[2].cut.value == 0


@pytest.mark.parametrize("g, terminals, level, flows, contractions, certified", [
    # both demand arcs fill in the root's one flow
    (DiGraph(3, [(0, 1, 5), (0, 2, 5), (1, 2, 1)]), [1, 2], 2, 1, 0, {1, 2}),
    (DiGraph(5, [(0, v, 5) for v in range(1, 5)]), [1, 2, 3, 4], 2, 1, 0, {1, 2, 3, 4}),
    # both demand arcs fill, but the flow saturates the root's only arc,
    # so the minimal source side is the root alone
    (DiGraph(3, [(0, 2, 2), (2, 1, 3)]), [1, 2], 1, 1, 0, {1, 2}),
    # the root's flow certifies neither; one contraction, then two leaves
    (g1(), [1, 2], 3, 3, 1, {1}),
    # the unit path certifies nothing: a full binary tree of 7 flows
    (DiGraph(5, [(v, v + 1, 1) for v in range(4)]), [1, 2, 3, 4], 2, 7, 3, set()),
], ids=["fan", "star", "full-root-arc", "g1", "unit-path"])
def test_one_flow_per_recursion_node(g, terminals, level, flows, contractions, certified):
    outcome, stats = shrink_wrap(g, 0, frozenset(terminals), level)
    assert stats.raw_flow_calls == flows
    assert len(stats.contraction_log) == contractions
    assert {t for t, result in outcome.items() if result is None} == certified


def _multi_terminal_outcomes_exact(g, r, terminals, level):
    """Every terminal is certified exactly when its root connectivity (an
    infinite one counting as ``g.inf_value``) reaches the level, each Below
    cut is a minimum (r, t)-cut of ``g`` itself, and the k-terminal
    recursion runs at most 2k - 1 flows, one per node."""
    outcome, stats = shrink_wrap(g, r, terminals, level)
    assert set(outcome) == set(terminals)
    for t, result in outcome.items():
        flow = max_flow(g, r, t).value
        if flow >= min(level, g.inf_value):
            assert result is None
        else:
            cert = result.cut
            assert t in cert.sink_set and r not in cert.sink_set
            assert cert.value == cut_value(g, cert.sink_set) == g.value(flow)
    assert stats.raw_flow_calls <= 2 * len(terminals) - 1


@settings(max_examples=300)
@given(st.data())
def test_multi_terminal_outcomes_exact(data):
    g = data.draw(st.one_of(tiny_graphs(), probing_graphs()))
    r = data.draw(st.integers(0, g.n - 1))
    others = [v for v in range(g.n) if v != r]
    terminals = data.draw(st.frozensets(st.sampled_from(others),
                                        min_size=min(2, len(others))))
    level = data.draw(st.one_of(st.integers(1, 6), st.integers(2**70 - 3, 2**70 + 3)))
    _multi_terminal_outcomes_exact(g, r, terminals, level)


def test_outcomes_cover_all_terminals_and_are_sound():
    rng = random.Random(12)
    for _ in range(25):
        g = rand_digraph(rng, rng.randint(3, 9), rng.randint(2, 16))
        terminals = frozenset(
            v for v in range(1, g.n) if rng.random() < 0.6
        ) or frozenset([1])
        level = rng.randint(1, 12)
        out, _ = shrink_wrap(g, 0, terminals, level)
        assert set(out) == set(terminals)
        for t, result in out.items():
            true_value = max_flow(g, 0, t).value
            if result is None:
                assert true_value >= level
            else:
                cert = result.cut
                assert t in cert.sink_set and 0 not in cert.sink_set
                assert cert.value < level
                assert cert.value == cut_value(g, cert.sink_set)
                assert cert.value == g.value(true_value)  # base case is exact


def test_wrap_invariant_value_preserved_in_contraction():
    # for uncertified terminals, the exact min (r,t)-cut value is the same
    # in the graph and in the contraction by the auxiliary cut's source side
    rng = random.Random(13)
    for _ in range(25):
        g = rand_digraph(rng, rng.randint(4, 10), rng.randint(3, 18))
        terminals = sorted(
            v for v in range(1, g.n) if rng.random() < 0.5
        ) or [1]
        level = rng.randint(2, 10)
        net, supersink = build_steiner_network(g, frozenset(terminals), level)
        res = max_flow(net, 0, supersink)
        block = [v for v in range(g.n) if v in res.source_side]
        uncertified = [t for t in terminals if t not in res.source_side]
        if not uncertified:
            continue
        from dircut.graph import contract_into_root

        contracted, _ = contract_into_root(g, 0, block)
        for t in uncertified:
            before = max_flow(g, 0, t).value
            after = max_flow(contracted, 0, t).value
            assert before == after


def test_shrink_bound_on_conditioned_instances():
    rng = random.Random(14)
    checked = 0
    for _ in range(15):
        g = rand_digraph(rng, rng.randint(5, 10), rng.randint(5, 20))
        eps = Fraction(1, 2)
        level = Fraction(rng.randint(1, 6))
        volume = 2 ** rng.randint(0, 4)
        h = precondition_rooted(RootedTopology(g, 0), level, volume, eps)
        rng2 = random.Random(rng.random())
        terminals = sample_terminals(g.in_degrees(), 0, 1, rng2)  # dense sample
        if not terminals:
            continue
        level_num = (1 + eps) * level * h.scale
        _, stats = shrink_wrap(h, 0, terminals, int(level_num))
        bound_level = Fraction(int(level_num), h.scale)
        phi = conditioning_ratio(level, volume, eps)
        for depth, edges, survivors in stats.contraction_log:
            assert edges <= bound_level * survivors / phi
            checked += 1
    assert checked > 0


def test_partition_examples():
    assert [len(grp) for grp in partition_terminals(range(10), 4)] == [4, 4, 2]
    assert [len(grp) for grp in partition_terminals(range(3), 8)] == [3]
    assert [len(grp) for grp in partition_terminals(range(5), 1)] == [1] * 5
    groups = partition_terminals([5, 3, 9], 2)
    assert sorted(t for grp in groups for t in grp) == [3, 5, 9]
    # a cap of 0 has no groups: range() rejects the zero step
    with pytest.raises(ValueError):
        partition_terminals(range(3), 0)


def test_flow_call_budget():
    rng = random.Random(15)
    for _ in range(20):
        g = rand_digraph(rng, rng.randint(4, 12), rng.randint(4, 24))
        terminals = frozenset(
            v for v in range(1, g.n) if rng.random() < 0.7
        ) or frozenset([1])
        level = rng.randint(1, 10)
        _, stats = shrink_wrap(g, 0, terminals, level)
        k = len(terminals)
        bound = 2 * (math.ceil(math.log2(k)) if k > 1 else 0)
        assert stats.paper_flow_calls <= bound + stats.leaf_flow_calls
        assert stats.max_depth <= (math.ceil(math.log2(k)) if k > 1 else 0)
        assert stats.leaf_flow_calls <= k
