import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dircut.edgecut
import dircut.vertexcut
from dircut import (
    INFINITE,
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    VertexCutCertificate,
    approx_global_vertex_cut,
    approx_rooted_vertex_cut,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
)
from dircut.edgecut import RootedTopology, condition_rooted
from dircut.graph import in_volume
from dircut.maxflow import max_flow
from dircut.vertexcut import _normalize, _reversal, prune_for_root, sample_roots, split_transform

from conftest import (
    brute_global_vertex_cut,
    brute_min_separator,
    conditioning_ratio,
    cut_value,
    g2,
    in_neighbors,
    iter_sink_sets,
    rand_vertex_graph,
    topo_reach,
    zero_heavy_vertex_graphs,
)


def _assert_valid_vertex_cut(g, cert, root=None):
    arcs = g.arcs if cert.orientation == "forward" else [(v, u) for u, v in g.arcs]
    sink = cert.sink_component
    sep = cert.separator
    assert sink, "sink component must be nonempty"
    assert not (sink & sep)
    expected = {u for u, v in arcs if v in sink and u not in sink}
    assert expected == set(sep), "separator must be exactly the sink in-neighborhood"
    assert cert.value == Fraction(sum(g.vcaps[w] for w in sep), g.scale)
    if root is not None:
        assert root not in sink and root not in sep


def test_split_counts():
    h = split_transform(g2())
    assert h.n == 8 and h.m == 8  # 2n vertices, m+n arcs


@settings(max_examples=200)
@given(zero_heavy_vertex_graphs(caps=st.sampled_from([0, 1, 2**70])), st.sampled_from([1, 3]))
@example(VertexCapGraph(2, [], [0, 2**70]), 1)
def test_split_graph_equals_the_validated_build(g, scale):
    # built unchecked, it equals the graph that DiGraph validates from the
    # split arcs with explicit INFINITE arcs, sentinel included
    g = VertexCapGraph(g.n, g.arcs, g.vcaps, scale)
    arcs = [(v, g.n + v, g.vcaps[v]) for v in range(g.n)]
    arcs += [(g.n + u, v, INFINITE) for u, v in g.arcs]
    validated = DiGraph(2 * g.n, arcs, scale=scale)
    split = split_transform(g)
    assert split == validated
    assert (split.arcs, split.inf_arcs, split.inf_value, split.scale) == (
        validated.arcs, validated.inf_arcs, validated.inf_value, validated.scale)
    assert split._flow_network is None


def test_split_path_example():
    path = VertexCapGraph(3, [(0, 1), (1, 2)], [9, 3, 9])
    h = split_transform(path)
    res = max_flow(h, 3 + 0, 2)  # 0_out to 2_in
    assert res.value == 3


def test_split_g2_example():
    h = split_transform(g2())
    res = max_flow(h, 4 + 0, 3)  # 0_out to 3_in
    assert res.value == 3
    assert brute_min_separator(g2(), 0, 3) == 3


def test_split_equivalence_random():
    rng = random.Random(31)
    for _ in range(25):
        g = rand_vertex_graph(rng, rng.randint(3, 7), p=0.35, strong=False)
        h = split_transform(g)
        adjacent = set(g.arcs)
        for s in range(g.n):
            for t in range(g.n):
                if s == t or (s, t) in adjacent:
                    continue
                flow = max_flow(h, g.n + s, t)  # s_out to t_in
                assert g.value(flow.value) == brute_min_separator(g, s, t)


def test_finite_split_cuts_use_only_split_arcs():
    rng = random.Random(32)
    for _ in range(10):
        g = rand_vertex_graph(rng, 6, p=0.3, strong=False)
        h = split_transform(g)
        adjacent = set(g.arcs)
        for s in range(g.n):
            for t in range(g.n):
                if s == t or (s, t) in adjacent:
                    continue
                res = max_flow(h, g.n + s, t)
                from dircut.maxflow import min_cut_sink_side

                cert = min_cut_sink_side(res)
                for i in cert.crossing:
                    assert i not in h.inf_arcs
                    tail, head, _ = h.arcs[i]
                    assert tail % g.n == head % g.n  # v_in = v, v_out = n + v


def test_vertex_conditioning_ratio_exhaustive():
    """The split-graph conditioning of the vertex prober (root arcs over
    aux divisor 6, floor eps*level/(4n)) keeps every rooted cut at least
    eps*level/(12*volume) times its in-volume in the conditioned graph."""
    rng = random.Random(33)
    sink_sets = 0
    for _ in range(12):
        n = rng.randint(3, 5)
        g = rand_vertex_graph(rng, n, p=0.4, strong=rng.random() < 0.5)
        r = rng.randrange(n)
        split = split_transform(prune_for_root(g, r))
        eps = Fraction(rng.randint(1, 3), 4)
        level = Fraction(rng.randint(1, 9))
        volume = 2 ** rng.randint(0, 4)
        h = condition_rooted(RootedTopology(split, n + r), level, volume, eps, 6,
                             eps * level / (4 * n))
        phi = conditioning_ratio(level, volume, eps, aux_divisor=6)
        for sink in iter_sink_sets(h.n, n + r):
            assert cut_value(h, sink) >= phi * in_volume(h, sink)
            sink_sets += 1
    assert sink_sets > 1000


def test_rooted_g2_unique_separator():
    for seed in range(10):
        res = approx_rooted_vertex_cut(g2(), 0, "0.2", seed=seed)
        assert res.certificate.separator == frozenset([1, 2])
        assert res.certificate.value == 3
        _assert_valid_vertex_cut(g2(), res.certificate, root=0)


def test_rooted_path():
    path = VertexCapGraph(3, [(0, 1), (1, 2)], [9, 3, 9])
    res = approx_rooted_vertex_cut(path, 0, "0.5", seed=1)
    assert res.certificate.separator == frozenset([1])
    assert res.certificate.value == 3


def test_rooted_degenerate_dominating_root():
    g = VertexCapGraph(3, [(0, 1), (0, 2)], [1, 1, 1])
    with pytest.raises(NoCutExistsError):
        approx_rooted_vertex_cut(g, 0, "0.2")


def test_rooted_unreachable_zero():
    g = VertexCapGraph(4, [(0, 1), (2, 3), (3, 2)], [1, 1, 1, 1])
    res = approx_rooted_vertex_cut(g, 0, "0.2", seed=0)
    assert res.certificate.value == 0
    assert res.certificate.sink_component == frozenset([2, 3])
    _assert_valid_vertex_cut(g, res.certificate, root=0)


def test_extraction_always_valid():
    rng = random.Random(33)
    for i in range(20):
        g = rand_vertex_graph(rng, rng.randint(5, 9), p=0.35)
        try:
            res = approx_rooted_vertex_cut(g, 0, "0.25", seed=i)
        except NoCutExistsError:
            continue
        _assert_valid_vertex_cut(g, res.certificate, root=0)


def test_sample_roots_cycle_table():
    # cycle r->a->b->r with caps 3,1,2: the least singleton, 1, is a cut
    # (sink {0} in the reversal) and bounds the draw
    g = VertexCapGraph(3, [(0, 1), (1, 2), (2, 0)], [3, 1, 2])
    floors = []
    for v in range(3):
        inn = sum(g.vcaps[u] for u in in_neighbors(g, v))
        out = sum(g.vcaps[u] for u in g.out_neighbors(v))
        floors.append(min(inn, out))
    assert floors == [1, 2, 1] and min(floors) == 1
    roots = sample_roots(g, "0.2", random.Random(0), 1)
    assert 1 <= len(roots) <= 3
    assert all(0 <= r < 3 for r in roots)


def test_sample_roots_bounds_and_proportionality():
    g = VertexCapGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 1, 1, 1])
    eps = Fraction(1, 100)
    roots = sample_roots(g, eps, random.Random(1), 1)
    assert len(roots) <= math.ceil(2 * math.log(4) / float(eps))
    assert len(roots) <= 4  # clamped to n
    # zero-capacity vertices are never drawn
    g2w = VertexCapGraph(3, [(0, 1), (1, 2), (2, 0)], [0, 5, 0])
    drawn = sample_roots(g2w, "0.5", random.Random(2), 0)
    assert set(drawn) == {1}
    with pytest.raises(ValueError):
        sample_roots(VertexCapGraph(2, [(0, 1)], [0, 0]), "0.5", random.Random(0), 0)
    with pytest.raises(ValueError):
        sample_roots(VertexCapGraph(1, [], [1]), "0.5", random.Random(0), 0)
    for eps in ("0", "-1/2"):
        with pytest.raises(ValueError):
            sample_roots(g, eps, random.Random(0), 1)


def _hub_graph():
    """Vertex 0, of capacity 1000, has arcs to and from every other vertex;
    vertices 1..10 and 11..20, of capacity 5, form two complete digraphs
    with no arc between them.  The optimum is {0} at 1000, the best valid
    singleton 1045, and vertex 0's neighbourhood, 100, is not a cut."""
    arcs = [(0, v) for v in range(1, 21)] + [(v, 0) for v in range(1, 21)]
    arcs += [(base + u, base + v) for base in (1, 11)
             for u in range(10) for v in range(10) if u != v]
    return VertexCapGraph(21, arcs, [1000] + [5] * 20)


def test_sample_roots_takes_every_positive_vertex_at_n():
    # the slack bound at the trivial cut 1045 asks for more than n draws
    roots = sample_roots(_hub_graph(), Fraction(1, 100), random.Random(0), 1045)
    assert roots == list(range(21))


def test_global_approx_finds_the_hub_separator():
    # vertex 0's neighbourhood, 100, is not a cut: a draw bounded by it takes
    # 7 roots, and a draw of clique vertices alone misses the optimum
    g = _hub_graph()
    for seed in range(20):
        res = approx_global_vertex_cut(g, Fraction(1, 100), seed=seed)
        assert res.value == 1000 and res.certificate.separator == {0}


def test_prune_examples():
    g = g2()
    assert prune_for_root(g, 0).arcs == g.arcs  # nothing to prune
    extra = VertexCapGraph(4, list(g.arcs) + [(3, 1)], g.vcaps, g.scale)
    pruned = prune_for_root(extra, 0)
    assert (3, 1) not in pruned.arcs
    assert set(pruned.arcs) == set(g.arcs)


def test_prune_star_with_backedges():
    n = 6
    arcs = [(0, v) for v in range(1, n)]
    arcs += [(u, v) for u in range(1, n) for v in range(1, n) if u != v]
    g = VertexCapGraph(n, arcs, [1] * n)
    pruned = prune_for_root(g, 0)
    assert len(pruned.arcs) == n - 1
    assert all(u == 0 for u, _ in pruned.arcs)


def test_prune_safety_oracle_equal():
    rng = random.Random(34)
    for _ in range(20):
        g = rand_vertex_graph(rng, rng.randint(4, 8), p=0.4)
        r = rng.randrange(g.n)
        try:
            before = exact_vertex_cut_oracle(g, root=r).value
        except NoCutExistsError:
            with pytest.raises(NoCutExistsError):
                exact_vertex_cut_oracle(prune_for_root(g, r), root=r)
            continue
        after = exact_vertex_cut_oracle(prune_for_root(g, r), root=r).value
        assert before == after


def test_rooted_solves_probe_the_pruned_instance(monkeypatch):
    # the bidirectional 7-cycle with vertex capacities 3: every singleton
    # cut is 6, above the least capacity, so both solvers probe
    n, r = 7, 3
    g = VertexCapGraph(n, [(v, (v + d) % n) for v in range(n) for d in (1, n - 1)], [3] * n)
    fanout = g.out_neighbors(r)
    received = []
    real = dircut.vertexcut.split_transform

    def spy(graph):
        received.append(graph)
        return real(graph)

    monkeypatch.setattr(dircut.vertexcut, "split_transform", spy)
    approx_rooted_vertex_cut(g, r, "0.2", seed=1)
    exact_small_vertex_cut(g, root=r, seed=1)
    assert len(received) == 2
    for graph in received:
        assert all(v != r and (v not in fanout or u == r) for u, v in graph.arcs)


def test_prune_yield_matches_probability_calculation():
    rng = random.Random(35)
    total_emp = total_exact = total_floor = 0.0
    draws_per_graph = 60
    for _ in range(8):
        g = rand_vertex_graph(rng, 10, p=0.35)
        caps = g.vcaps
        cv = sum(caps)
        exact = 0.0
        for u, v in g.arcs:
            inn = sum(caps[w] for w in in_neighbors(g, v))
            exact += (caps[v] + inn - caps[u]) / cv
        floor = min(
            min(
                sum(caps[w] for w in in_neighbors(g, v)),
                sum(caps[w] for w in g.out_neighbors(v)),
            )
            for v in range(g.n)
        )
        emp = 0.0
        rng2 = random.Random(rng.random())
        for _ in range(draws_per_graph):
            root = rng2.choices(range(g.n), weights=caps, k=1)[0]
            emp += g.m - prune_for_root(g, root).m
        emp /= draws_per_graph
        total_emp += emp
        total_exact += exact
        total_floor += g.m * floor / cv
    assert abs(total_emp - total_exact) <= 0.15 * total_exact
    assert total_emp >= 0.85 * total_floor


def test_global_not_strongly_connected_zero():
    res = approx_global_vertex_cut(g2(), "0.2", seed=0)
    assert res.certificate.value == 0
    _assert_valid_vertex_cut(g2(), res.certificate)


def test_global_four_cycle():
    g = VertexCapGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [5, 1, 5, 1])
    oracle = exact_vertex_cut_oracle(g)
    assert oracle.value == brute_global_vertex_cut(g) == 1
    for seed in range(5):
        res = approx_global_vertex_cut(g, "0.2", seed=seed)
        assert res.certificate.value == 1
        _assert_valid_vertex_cut(g, res.certificate)


def test_global_complete_digraph_errors():
    k4 = VertexCapGraph(
        4, [(u, v) for u in range(4) for v in range(4) if u != v], [1] * 4
    )
    with pytest.raises(NoCutExistsError):
        approx_global_vertex_cut(k4, "0.2")
    with pytest.raises(NoCutExistsError):
        exact_small_vertex_cut(k4)
    with pytest.raises(NoCutExistsError):
        exact_vertex_cut_oracle(k4)
    single = VertexCapGraph(1, [], [1])
    for solve in (partial(approx_global_vertex_cut, epsilon="0.2"), exact_small_vertex_cut,
                  exact_vertex_cut_oracle):
        with pytest.raises(NoCutExistsError):
            solve(single)


def test_global_oracle_finds_a_sink_holding_the_first_root_in_the_reversal():
    # the optimal separator {1} has the sink {2, 3} and the source side {0};
    # the heaviest vertex 2 lies in that sink, so its forward run finds only
    # the separator {0} of value 3, and its reverse run the optimum with
    # sink {0}.  Its capacity 10 already outweighs the cut, so no other
    # root runs
    g = VertexCapGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2), (2, 0), (3, 0)],
                       [3, 1, 10, 3])
    assert dircut.vertexcut._vertex_oracle(g, 2).value == 3
    res = dircut.vertexcut._vertex_oracle(g)
    assert res.value == brute_global_vertex_cut(g) == 1
    assert res.certificate.orientation == "reverse"
    assert res.certificate.sink_component == frozenset([0])
    assert res.flow_calls == 2
    _assert_valid_vertex_cut(g, res.certificate)


def test_global_oracle_zero_cut_lowers_the_shared_cap_to_one():
    # vertices 1 and 2 weigh 0, so the heaviest root 0's first forward flow
    # finds the zero separator {1, 2} with sink {3, 4}.  That ends the run
    # at cap 1, and the reverse run's first flow finds the zero separator
    # {4} with sink {1, 2, 3}, which wins the rank.  Root 0's weight 10
    # reaches cap 1, so no other root runs: a cap left above 1 let root 3
    # run and win with the forward zero separator {4} with sink {0, 1}
    g = VertexCapGraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 0)], [10, 0, 0, 1, 0])
    res = dircut.vertexcut._vertex_oracle(g)
    assert res.certificate == VertexCutCertificate(
        frozenset([4]), frozenset([1, 2, 3]), Fraction(0), "reverse")
    assert res.flow_calls == 2
    _assert_valid_vertex_cut(g, res.certificate)


def test_global_oracle_stops_after_kappa_plus_one_unit_roots(monkeypatch):
    # the bidirectional 6-cycle with unit capacities has kappa = 2, so the
    # roots 0, 1 and 2 run, each with three admissible sinks per orientation.
    # Every such sink's minimum cut is the optimum 2, below the cap, so none
    # is certified without its flow.  The flows run in the one sink loop of
    # dircut.edgecut
    n = 6
    g = VertexCapGraph(n, [(v, (v + d) % n) for v in range(n) for d in (1, n - 1)], [1] * n)
    sources = []
    real = dircut.edgecut.max_flow

    def counting(split, source, *args, **kwargs):
        sources.append(source - n)
        return real(split, source, *args, **kwargs)

    monkeypatch.setattr(dircut.edgecut, "max_flow", counting)
    res = dircut.vertexcut._vertex_oracle(g)
    assert res.value == 2
    assert sorted(set(sources)) == [0, 1, 2]
    assert res.flow_calls == len(sources) == 3 * 2 * 3


def test_global_oracle_returns_the_zero_cut_of_zero_capacities():
    # strongly connected, so only the root loop finds the zero cut; no
    # root has positive capacity, so every root runs
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    g = VertexCapGraph(4, cycle, [0, 0, 0, 0])
    cert = exact_vertex_cut_oracle(g)
    assert cert.value == 0
    _assert_valid_vertex_cut(g, cert)


def test_global_vs_oracle_statistical():
    rng = random.Random(36)
    good = 0
    trials = 12
    done = 0
    while done < trials:
        g = rand_vertex_graph(rng, rng.randint(5, 8), p=0.3)
        try:
            oracle = exact_vertex_cut_oracle(g)
        except NoCutExistsError:
            continue
        res = approx_global_vertex_cut(g, "0.2", seed=done)
        _assert_valid_vertex_cut(g, res.certificate)
        assert res.certificate.value >= oracle.value
        if res.certificate.value <= oracle.value * Fraction(6, 5):
            good += 1
        done += 1
    assert good >= trials - 1


def test_exact_small_rooted_path():
    path = VertexCapGraph(3, [(0, 1), (1, 2)], [1, 1, 1])
    res = exact_small_vertex_cut(path, root=0, seed=0)
    assert res.certificate.separator == frozenset([1])
    assert res.certificate.value == 1


def test_exact_small_unit_caps_vs_oracle():
    rng = random.Random(37)
    hits = 0
    trials = 12
    done = 0
    while done < trials:
        g = rand_vertex_graph(rng, rng.randint(5, 8), p=0.4, vmax=1)
        try:
            oracle = exact_vertex_cut_oracle(g, root=0)
        except NoCutExistsError:
            continue
        res = exact_small_vertex_cut(g, root=0, seed=done)
        _assert_valid_vertex_cut(g, res.certificate, root=0)
        if res.certificate.value == oracle.value:
            hits += 1
        done += 1
    assert hits >= trials - 1


def test_exact_small_global_searches_to_answer():
    g = VertexCapGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [2, 1, 2, 1])
    res = exact_small_vertex_cut(g, seed=3)
    assert res.certificate.value == exact_vertex_cut_oracle(g).value == 1


def test_singleton_at_smallest_capacity_runs_no_flow():
    # a 5-cycle with every capacity 2: each singleton's in-neighborhood is
    # one vertex of capacity 2
    g = VertexCapGraph(5, [(v, (v + 1) % 5) for v in range(5)], [2] * 5)
    for res in (approx_rooted_vertex_cut(g, 0, "0.2", seed=1),
                approx_global_vertex_cut(g, "0.2", seed=1),
                exact_small_vertex_cut(g, root=0, seed=1),
                exact_small_vertex_cut(g, seed=1)):
        assert res.value == 2 and res.flow_calls == 0 and res.probe_log == ()


def test_exact_small_on_fractional():
    # capacities of 1/2: the numerators at scale 2 are searched
    g = VertexCapGraph(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1], scale=2)
    for root in (0, None):
        res = exact_small_vertex_cut(g, root=root)
        assert res.value == exact_vertex_cut_oracle(g, root=root).value == Fraction(1, 2)
        _assert_valid_vertex_cut(g, res.certificate, root=root)


def test_oracle_examples():
    assert exact_vertex_cut_oracle(g2(), root=0).separator == frozenset([1, 2])
    path = VertexCapGraph(3, [(0, 1), (1, 2)], [9, 3, 9])
    cert = exact_vertex_cut_oracle(path, root=0)
    assert cert.separator == frozenset([1]) and cert.value == 3


def test_oracle_matches_brute_force():
    rng = random.Random(38)
    for _ in range(15):
        g = rand_vertex_graph(rng, rng.randint(4, 7), p=0.35, strong=False)
        blocked = g.out_neighbors(0) | {0}
        admissible = [v for v in range(g.n) if v not in blocked]
        if not admissible:
            continue
        reach = topo_reach(g.n, g.arcs, 0)
        cert = exact_vertex_cut_oracle(g, root=0)
        best = None
        for t in admissible:
            val = brute_min_separator(g, 0, t)
            if val is not None and (best is None or val < best):
                best = val
        if len(reach) < g.n:
            assert cert.value == 0
        else:
            assert cert.value == best


def test_determinism():
    rng = random.Random(39)
    g = rand_vertex_graph(rng, 8, p=0.35)
    a = approx_rooted_vertex_cut(g, 0, "0.2", seed=4)
    b = approx_rooted_vertex_cut(g, 0, "0.2", seed=4)
    assert a.certificate == b.certificate


def test_global_zero_singleton_returns_without_probing():
    # strongly connected, but vertex 1's only in-neighbor has capacity 0
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    for vcaps in ([0, 1, 1, 1], [0, 0, 0, 0]):
        g = VertexCapGraph(4, cycle, vcaps)
        res = approx_global_vertex_cut(g, "0.2", seed=1)
        assert res.value == 0 and res.flow_calls == 0 and res.probe_log == ()
        _assert_valid_vertex_cut(g, res.certificate)


def _splits_and_roots(monkeypatch, solve):
    """Run ``solve`` on a 10-vertex ER graph and return the result, the
    number of split graphs built and the set of roots drawn.  The roots
    are drawn once, against the value of the trivial cut."""
    import dircut.vertexcut as vc
    from dircut import generate, parse_text

    g = parse_text(generate("erdos-renyi-digraph", seed=3, n=10, p=0.5,
                            kind="vertex-cap", vcap_max=3).text)
    splits, roots, bounds = [], set(), []
    real_split, real_sample = vc.split_transform, vc.sample_roots

    def counting_split(graph):
        splits.append(graph)
        return real_split(graph)

    def recording_sample(graph, epsilon, rng, bound):
        picked = real_sample(graph, epsilon, rng, bound)
        roots.update(picked)
        bounds.append(bound)
        return picked

    monkeypatch.setattr(vc, "split_transform", counting_split)
    monkeypatch.setattr(vc, "sample_roots", recording_sample)
    res = solve(g)
    monkeypatch.undo()
    ng = vc._normalize(g)
    assert bounds == [vc._global_trivial(ng, vc._reversal(ng)).value]
    return res, exact_vertex_cut_oracle(g).value, len(splits), roots


@st.composite
def parallel_vertex_graphs(draw, max_n=6):
    """A validated vertex graph with parallel arcs, zero capacities and a
    scale of 1-4."""
    n = draw(st.integers(2, max_n))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda arc: arc[0] != arc[1]), max_size=14))
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), min_size=1, max_size=6))
    arcs = draw(st.permutations(arcs))
    vcaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return VertexCapGraph(n, arcs, vcaps, draw(st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(parallel_vertex_graphs())
def test_derived_vertex_graphs_equal_their_validated_builds(g):
    """``_normalize``, ``_reversal`` and ``prune_for_root`` build unchecked;
    each equals the graph that ``VertexCapGraph`` validates from the same
    arcs, the capacities given as a list, in every field, ``==`` and hash,
    and shares its parent's capacity tuple."""
    ng = _normalize(g)
    derived = [(g, ng, sorted(set(g.arcs))), (ng, _reversal(ng), [(v, u) for u, v in ng.arcs])]
    for r in range(ng.n):
        fanout = {v for u, v in ng.arcs if u == r}
        derived.append((ng, prune_for_root(ng, r), [
            (u, v) for u, v in ng.arcs if v != r and (u == r or v not in fanout)]))
    for parent, graph, arcs in derived:
        checked = VertexCapGraph(parent.n, arcs, list(parent.vcaps), parent.scale)
        assert (graph.n, graph.arcs, graph.vcaps, graph.scale) == (
            checked.n, checked.arcs, checked.vcaps, checked.scale)
        assert graph == checked and hash(graph) == hash(checked)
        assert graph.vcaps is parent.vcaps


def _reversals(monkeypatch, solve, g):
    """Run ``solve(g)`` and count the vertex graphs it derives whose arcs
    are those of ``g``'s reversal, in order.  The library derives every
    vertex graph through ``VertexCapGraph._unchecked``."""
    reversal = [(v, u) for u, v in g.arcs]
    built = []
    real = VertexCapGraph._unchecked

    def recording(n, arcs, vcaps, scale):
        arcs = list(arcs)
        built.append(arcs == reversal)
        return real(n, arcs, vcaps, scale)

    monkeypatch.setattr(VertexCapGraph, "_unchecked", recording)
    solve(g)
    monkeypatch.undo()
    return sum(built)


@pytest.mark.parametrize("solve", [
    lambda g: approx_global_vertex_cut(g, "0.2", seed=1),
    lambda g: exact_small_vertex_cut(g, seed=1),
    exact_vertex_cut_oracle,
], ids=["approx", "exact_small", "oracle"])
def test_a_global_vertex_solve_builds_the_reversal_once(monkeypatch, solve):
    # the 10-vertex ER graph of _splits_and_roots is strongly connected and
    # its optimum lies above its smallest capacity, so each solve reaches
    # its search, or its root loop, in both orientations; its arcs come
    # sorted and without parallels, so normalizing keeps them
    from dircut import generate, parse_text

    g = parse_text(generate("erdos-renyi-digraph", seed=3, n=10, p=0.5,
                            kind="vertex-cap", vcap_max=3).text)
    assert list(g.arcs) == sorted(set(g.arcs))
    assert _reversals(monkeypatch, solve, g) == 1


def test_global_exact_small_builds_one_split_graph_per_root_and_orientation(monkeypatch):
    res, optimum, splits, roots = _splits_and_roots(
        monkeypatch, lambda g: exact_small_vertex_cut(g, seed=1))
    assert res.value == optimum
    assert roots and splits <= 2 * len(roots)


def test_global_approx_builds_one_split_graph_per_root_and_orientation(monkeypatch):
    res, optimum, splits, roots = _splits_and_roots(
        monkeypatch, lambda g: approx_global_vertex_cut(g, "0.2", seed=1))
    assert optimum <= res.value <= optimum * Fraction(6, 5)
    assert roots and splits <= 2 * len(roots)
