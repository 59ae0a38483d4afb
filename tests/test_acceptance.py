"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so the pytest outcome mirrors the printed verdict.  Statistical
criteria use the stated tolerances; sizes stay within the stated bounds
and are chosen so the whole suite finishes in a few minutes.
"""

import math
import random
from fractions import Fraction

from dircut import (
    DiGraph,
    NoCutExistsError,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_rooted_edge_cut_oracle,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
    generate,
    parse_text,
)
from dircut.cli import main
from dircut.edgecut import RootedTopology, precondition_rooted, sample_terminals
from dircut.graph import contract_into_root, in_volume
from dircut.maxflow import max_flow
from dircut.steiner import build_steiner_network, shrink_wrap
from dircut.vertexcut import prune_for_root, split_transform

from conftest import (
    brute_min_separator,
    brute_min_st_cut,
    conditioning_ratio,
    cut_value,
    in_neighbors,
    iter_sink_sets,
    rand_digraph,
    rand_vertex_graph,
)


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_maxflow_oracle_equivalence():
    rng = random.Random(101)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        g = rand_digraph(rng, n, rng.randint(0, 14), wmax=10, strong=False)
        s, t = rng.sample(range(n), 2)
        flow = max_flow(g, s, t)
        if g.value(flow.value) != brute_min_st_cut(g, s, t):
            failures += 1
    _report(1, "max-flow oracle equivalence", failures == 0,
            f"200 graphs, {failures} mismatches")


def test_criterion_2_wrap_invariant():
    rng = random.Random(102)
    instances = 0
    checked = 0
    failures = 0
    while instances < 100:
        g = rand_digraph(rng, rng.randint(6, 14), rng.randint(6, 30))
        terminals = sorted(v for v in range(1, g.n) if rng.random() < 0.5) or [1]
        level = rng.randint(2, 12)
        net, supersink = build_steiner_network(g, frozenset(terminals), level)
        res = max_flow(net, 0, supersink)
        block = [v for v in range(g.n) if v in res.source_side]
        uncertified = [t for t in terminals if t not in res.source_side]
        instances += 1
        if not uncertified:
            continue
        contracted, _ = contract_into_root(g, 0, block)
        for t in uncertified:
            checked += 1
            before = max_flow(g, 0, t).value
            after = max_flow(contracted, 0, t).value
            if before != after:
                failures += 1
    _report(2, "wrap invariant (sink component survives contraction)",
            failures == 0,
            f"100 instances, {checked} uncertified terminals, {failures} mismatches")


def test_criterion_3_shrink_bound():
    rng = random.Random(103)
    instances = 0
    nodes = 0
    violations = 0
    while instances < 100:
        g = rand_digraph(rng, rng.randint(6, 12), rng.randint(6, 28))
        eps = Fraction(rng.randint(1, 3), 4)
        level = Fraction(rng.randint(1, 8))
        volume = 2 ** rng.randint(0, 4)
        h = precondition_rooted(RootedTopology(g, 0), level, volume, eps)
        terminals = sample_terminals(g.in_degrees(), 0, 1, random.Random(rng.random()))
        if not terminals:
            continue
        level_num = (1 + eps) * level * h.scale
        _, stats = shrink_wrap(h, 0, terminals, int(level_num))
        instances += 1
        bound_level = Fraction(int(level_num), h.scale)
        phi = conditioning_ratio(level, volume, eps)
        for _, edges, survivors in stats.contraction_log:
            nodes += 1
            if edges > bound_level * survivors / phi:
                violations += 1
    _report(3, "shrink bound edges <= level*|T cap B|/phi", violations == 0,
            f"100 conditioned instances, {nodes} recursion nodes, "
            f"{violations} violations")


def test_criterion_4_conditioning_exhaustive():
    rng = random.Random(104)
    graphs = 0
    violations = 0
    while graphs < 30:
        g = rand_digraph(rng, rng.randint(4, 10), rng.randint(4, 24))
        eps = Fraction(rng.randint(1, 3), 4)
        level = Fraction(rng.randint(1, 9))
        volume = 2 ** rng.randint(0, 5)
        h = precondition_rooted(RootedTopology(g, 0), level, volume, eps)
        phi = conditioning_ratio(level, volume, eps)
        graphs += 1
        for sink in iter_sink_sets(g.n, 0):
            if cut_value(h, sink) < phi * in_volume(h, sink):
                violations += 1
    _report(4, "rooted conditioning c(cut) >= phi*vol", violations == 0,
            f"30 preconditioned graphs, all sink sets enumerated, "
            f"{violations} violations")


def test_criterion_5_approx_edge_cut():
    rng = random.Random(105)
    target = Fraction(6, 5)
    trials = valid = good = 0
    for i in range(60):  # rooted runs
        g = rand_digraph(rng, rng.randint(8, 12), rng.randint(10, 34))
        res = approx_rooted_edge_cut(g, 0, "0.2", seed=i)
        oracle = exact_rooted_edge_cut_oracle(g, 0)
        trials += 1
        if res.certificate.value == cut_value(g, res.certificate.sink_set):
            valid += 1
        if res.certificate.value <= oracle.value * target:
            good += 1
    for i in range(40):  # global runs
        g = rand_digraph(rng, rng.randint(8, 10), rng.randint(10, 28))
        res = approx_global_edge_cut(g, "0.2", seed=1000 + i)
        fwd = exact_rooted_edge_cut_oracle(g, 0)
        from dircut import reverse

        bwd = exact_rooted_edge_cut_oracle(reverse(g), 0)
        oracle_value = min(fwd.value, bwd.value)
        base = g if res.orientation == "forward" else reverse(g)
        trials += 1
        if res.certificate.value == cut_value(base, res.certificate.sink_set):
            valid += 1
        if res.certificate.value <= oracle_value * target:
            good += 1
    _report(5, "approximate rooted/global edge cut",
            valid == trials and good >= math.ceil(0.95 * trials),
            f"{trials} runs, {valid} valid, {good} within 1.2x oracle")


def _vertex_cert_is_valid(g, cert):
    arcs = g.arcs if cert.orientation == "forward" else [(v, u) for u, v in g.arcs]
    sink = cert.sink_component
    if not sink or (sink & cert.separator):
        return False
    expected = {u for u, v in arcs if v in sink and u not in sink}
    if expected != set(cert.separator):
        return False
    return cert.value == Fraction(
        sum(g.vcaps[w] for w in cert.separator), g.scale
    )


def test_criterion_6_approx_vertex_cut():
    rng = random.Random(106)
    target = Fraction(6, 5)
    trials = valid = good = 0
    done = 0
    while done < 70:  # rooted runs
        g = rand_vertex_graph(rng, rng.randint(8, 12), p=0.3)
        try:
            oracle = exact_vertex_cut_oracle(g, root=0)
        except NoCutExistsError:
            continue
        res = approx_rooted_vertex_cut(g, 0, "0.2", seed=done)
        trials += 1
        done += 1
        if _vertex_cert_is_valid(g, res.certificate):
            valid += 1
        if res.certificate.value <= oracle.value * target:
            good += 1
    done = 0
    while done < 30:  # global runs
        g = rand_vertex_graph(rng, rng.randint(6, 8), p=0.3)
        try:
            oracle = exact_vertex_cut_oracle(g)
        except NoCutExistsError:
            continue
        res = approx_global_vertex_cut(g, "0.2", seed=2000 + done)
        trials += 1
        done += 1
        if _vertex_cert_is_valid(g, res.certificate):
            valid += 1
        if res.certificate.value <= oracle.value * target:
            good += 1
    _report(6, "approximate rooted/global vertex cut",
            valid == trials and good >= math.ceil(0.95 * trials),
            f"{trials} runs, {valid} valid, {good} within 1.2x oracle")


def test_criterion_7_split_reduction():
    rng = random.Random(107)
    instances = 0
    pairs = 0
    failures = 0
    while instances < 200:
        g = rand_vertex_graph(rng, rng.randint(4, 6), p=0.35, strong=False)
        split = split_transform(g)
        adjacent = set(g.arcs)
        instances += 1
        for s in range(g.n):
            for t in range(g.n):
                if s == t or (s, t) in adjacent:
                    continue
                pairs += 1
                flow = max_flow(split, g.n + s, t)  # s_out to t_in
                if g.value(flow.value) != brute_min_separator(g, s, t):
                    failures += 1
    _report(7, "split reduction equals brute-force separator", failures == 0,
            f"200 instances, {pairs} nonadjacent pairs, {failures} mismatches")


def test_criterion_8_prune_safety_and_yield():
    rng = random.Random(108)
    # safety: rooted connectivity identical before and after pruning
    safety_failures = 0
    checked = 0
    while checked < 100:
        g = rand_vertex_graph(rng, rng.randint(6, 10), p=0.35)
        r = rng.randrange(g.n)
        try:
            before = exact_vertex_cut_oracle(g, root=r).value
        except NoCutExistsError:
            continue
        after = exact_vertex_cut_oracle(prune_for_root(g, r), root=r).value
        checked += 1
        if before != after:
            safety_failures += 1
    # yield: mean arcs deleted per capacity-sampled root matches the
    # per-arc deletion probabilities and clears the m*delta/c(V) floor
    total_emp = total_exact = total_floor = 0.0
    draws_per_graph = 50
    for _ in range(20):
        g = rand_vertex_graph(rng, 10, p=0.35)
        caps = g.vcaps
        cv = sum(caps)
        exact = sum(
            (caps[v] + sum(caps[w] for w in in_neighbors(g, v)) - caps[u]) / cv
            for u, v in g.arcs
        )
        floor = min(
            min(
                sum(caps[w] for w in in_neighbors(g, v)),
                sum(caps[w] for w in g.out_neighbors(v)),
            )
            for v in range(g.n)
        )
        rng2 = random.Random(rng.random())
        emp = sum(
            g.m - prune_for_root(g, rng2.choices(range(g.n), weights=caps, k=1)[0]).m
            for _ in range(draws_per_graph)
        ) / draws_per_graph
        total_emp += emp
        total_exact += exact
        total_floor += g.m * floor / cv
    yield_ok = (
        abs(total_emp - total_exact) <= 0.15 * total_exact
        and total_emp >= 0.85 * total_floor
    )
    _report(8, "prune safety and yield",
            safety_failures == 0 and yield_ok,
            f"100 safety checks ({safety_failures} failures); "
            f"1000 draws, mean {total_emp:.1f} vs expectation {total_exact:.1f} "
            f"and floor {total_floor:.1f}")


def test_criterion_9_exact_small_vertex():
    rng = random.Random(109)
    trials = valid = exact = 0
    done = 0
    while done < 100:  # rooted, unit capacities, small optimum
        g = rand_vertex_graph(rng, rng.randint(8, 12), p=0.30, vmax=1)
        try:
            oracle = exact_vertex_cut_oracle(g, root=0)
        except NoCutExistsError:
            continue
        if oracle.value > 4:
            continue
        res = exact_small_vertex_cut(g, root=0, seed=done)
        trials += 1
        done += 1
        if _vertex_cert_is_valid(g, res.certificate):
            valid += 1
        if res.certificate.value == oracle.value:
            exact += 1
    done = 0
    while done < 10:  # global sub-sweep
        g = rand_vertex_graph(rng, rng.randint(6, 8), p=0.35, vmax=1)
        try:
            oracle = exact_vertex_cut_oracle(g)
        except NoCutExistsError:
            continue
        if oracle.value > 4:
            continue
        res = exact_small_vertex_cut(g, seed=3000 + done)
        trials += 1
        done += 1
        if _vertex_cert_is_valid(g, res.certificate):
            valid += 1
        if res.certificate.value == oracle.value:
            exact += 1
    _report(9, "exact small vertex connectivity",
            valid == trials and exact >= math.ceil(0.95 * trials),
            f"{trials} runs, {valid} valid, {exact} exactly optimal")


def test_criterion_10_flow_call_accounting():
    # (a) per-group budget, enforced by the shrink-wrap counter
    rng = random.Random(110)
    budget_failures = 0
    for _ in range(50):
        g = rand_digraph(rng, rng.randint(5, 14), rng.randint(5, 30))
        terminals = frozenset(
            v for v in range(1, g.n) if rng.random() < 0.7
        ) or frozenset([1])
        _, stats = shrink_wrap(g, 0, terminals, rng.randint(1, 10))
        k = len(terminals)
        bound = 2 * (math.ceil(math.log2(k)) if k > 1 else 0)
        if stats.paper_flow_calls > bound + stats.leaf_flow_calls:
            budget_failures += 1
    # (b) the planted value is the smallest positive capacity, so the floor
    # test answers it without a flow.  One unit arc from the second sink
    # vertex to ambient vertex 1 puts that capacity below the optimum, so
    # the search runs; its whole-run flow counts grow at most
    # polylogarithmically with n
    sizes = (50, 100, 200, 400)
    floor_misses = 0
    counts = []
    for n in sizes:
        total = 0
        for seed in (0, 1):
            inst = generate(
                "planted-sink", seed=seed, n=n, sink_size=5,
                volume=14, value=5, out_degree=3,
            )
            g = parse_text(inst.text)
            res = approx_rooted_edge_cut(g, 0, "0.2", seed=seed)
            floor_misses += res.value != inst.meta["planted_value"] or res.flow_calls != 0
            g = DiGraph(g.n, g.arcs_as_input() + [(n - 4, 1, 1)])
            total += approx_rooted_edge_cut(g, 0, "0.2", seed=seed).flow_calls
        counts.append(total / 2)
    table = ", ".join(f"n={n}: {c:.1f}" for n, c in zip(sizes, counts))
    trend_ok = counts[-1] <= 5 * counts[0]
    _report(10, "flow-call accounting",
            budget_failures == 0 and floor_misses == 0 and trend_ok,
            f"50 groups within budget ({budget_failures} over); "
            f"{floor_misses} of 8 planted runs not answered at the floor without "
            f"a flow; run totals with c_min 1 [{table}], 400/50 ratio "
            f"{counts[-1] / counts[0]:.2f} <= 5")


def test_criterion_11_determinism(tmp_path, capsys):
    inst = generate("erdos-renyi-digraph", seed=17, n=12)
    edge_path = tmp_path / "edge.gr"
    edge_path.write_text(inst.text)
    vinst = generate("erdos-renyi-digraph", seed=18, n=9, kind="vertex-cap")
    vertex_path = tmp_path / "vertex.gr"
    vertex_path.write_text(vinst.text)

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return "\n".join(
            line for line in out.splitlines()
            if not line.startswith("wall_time")
        )

    edge_reports = [
        run(["edge-cut", "--global", "--epsilon", "0.2", "--seed", "5", str(edge_path)])
        for _ in range(3)
    ]
    vertex_reports = [
        run(["vertex-cut", "--rooted", "1", "--epsilon", "0.2", "--seed", "5",
             str(vertex_path)])
        for _ in range(3)
    ]
    small_reports = [
        run(["vertex-cut", "--global", "--exact-small", "--seed", "5", str(vertex_path)])
        for _ in range(2)
    ]
    ok = (
        edge_reports[0] == edge_reports[1] == edge_reports[2]
        and vertex_reports[0] == vertex_reports[1] == vertex_reports[2]
        and small_reports[0] == small_reports[1]
    )
    _report(11, "determinism across runs", ok,
            "edge global, vertex rooted, vertex exact-small")
