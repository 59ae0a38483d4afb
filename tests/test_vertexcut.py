import math
import random
from fractions import Fraction

import pytest

from dircut import (
    NoCutExistsError,
    VertexCapGraph,
    approx_global_vertex_cut,
    approx_rooted_vertex_cut,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
    max_flow,
    prune_for_root,
    sample_roots,
    split_transform,
)

from conftest import (
    brute_global_vertex_cut,
    brute_min_separator,
    g2,
    rand_vertex_graph,
    topo_reach,
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
    h, _ = split_transform(g2())
    assert h.n == 8 and h.m == 8  # 2n vertices, m+n arcs


def test_split_path_example():
    path = VertexCapGraph(3, [(0, 1), (1, 2)], [9, 3, 9])
    h, maps = split_transform(path)
    res = max_flow(h, maps.to_out(0), maps.to_in(2))
    assert res.value == 3


def test_split_g2_example():
    h, maps = split_transform(g2())
    res = max_flow(h, maps.to_out(0), maps.to_in(3))
    assert res.value == 3
    assert brute_min_separator(g2(), 0, 3) == 3


def test_split_equivalence_random():
    rng = random.Random(31)
    for _ in range(25):
        g = rand_vertex_graph(rng, rng.randint(3, 7), p=0.35, strong=False)
        h, maps = split_transform(g)
        adjacent = set(g.arcs)
        for s in range(g.n):
            for t in range(g.n):
                if s == t or (s, t) in adjacent:
                    continue
                flow = max_flow(h, maps.to_out(s), maps.to_in(t))
                assert g.value(flow.value) == brute_min_separator(g, s, t)


def test_finite_split_cuts_use_only_split_arcs():
    rng = random.Random(32)
    for _ in range(10):
        g = rand_vertex_graph(rng, 6, p=0.3, strong=False)
        h, maps = split_transform(g)
        adjacent = set(g.arcs)
        for s in range(g.n):
            for t in range(g.n):
                if s == t or (s, t) in adjacent:
                    continue
                res = max_flow(h, maps.to_out(s), maps.to_in(t))
                from dircut import min_cut_sink_side

                cert = min_cut_sink_side(res)
                for i in cert.crossing:
                    assert not h.is_infinite(i)
                    tail, head, _ = h.arcs[i]
                    assert maps.original(tail) == maps.original(head)


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
    # cycle r->a->b->r with caps 3,1,2: the singleton floor is 1
    g = VertexCapGraph(3, [(0, 1), (1, 2), (2, 0)], [3, 1, 2])
    floors = []
    for v in range(3):
        inn = sum(g.vcaps[u] for u in g.in_neighbors(v))
        out = sum(g.vcaps[u] for u in g.out_neighbors(v))
        floors.append(min(inn, out))
    assert floors == [1, 2, 1] and min(floors) == 1
    roots = sample_roots(g, "0.2", random.Random(0))
    assert 1 <= len(roots) <= 3
    assert all(0 <= r < 3 for r in roots)


def test_sample_roots_bounds_and_proportionality():
    g = VertexCapGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 1, 1, 1])
    eps = Fraction(1, 100)
    roots = sample_roots(g, eps, random.Random(1))
    assert len(roots) <= math.ceil(2 * math.log(4) / float(eps))
    assert len(roots) <= 4  # clamped to n
    # zero-capacity vertices are never drawn
    g2w = VertexCapGraph(3, [(0, 1), (1, 2), (2, 0)], [0, 5, 0])
    drawn = sample_roots(g2w, "0.5", random.Random(2))
    assert set(drawn) == {1}
    with pytest.raises(ValueError):
        sample_roots(VertexCapGraph(2, [(0, 1)], [0, 0]), "0.5", random.Random(0))


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
            inn = sum(caps[w] for w in g.in_neighbors(v))
            exact += (caps[v] + inn - caps[u]) / cv
        floor = min(
            min(
                sum(caps[w] for w in g.in_neighbors(v)),
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
        exact_vertex_cut_oracle(k4)


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


def test_exact_small_global_doubles_to_answer():
    g = VertexCapGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [2, 1, 2, 1])
    res = exact_small_vertex_cut(g, seed=3)
    assert res.certificate.value == exact_vertex_cut_oracle(g).value == 1


def test_exact_small_rejects_fractional():
    g = VertexCapGraph(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1], scale=2)
    with pytest.raises(ValueError):
        exact_small_vertex_cut(g, root=0)


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
    a = approx_rooted_vertex_cut(g, 0, "0.2", seed=4, threads=1)
    b = approx_rooted_vertex_cut(g, 0, "0.2", seed=4, threads=3)
    assert a.certificate == b.certificate


def test_global_zero_singleton_returns_without_probing():
    # strongly connected, but vertex 1's only in-neighbor has capacity 0
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    for vcaps in ([0, 1, 1, 1], [0, 0, 0, 0]):
        g = VertexCapGraph(4, cycle, vcaps)
        res = approx_global_vertex_cut(g, "0.2", seed=1)
        assert res.value == 0 and res.flow_calls == 0 and res.probe_log == ()
        _assert_valid_vertex_cut(g, res.certificate)
