import bisect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    INFINITE,
    CutCertificate,
    DiGraph,
    approx_global_edge_cut,
    approx_rooted_edge_cut,
    exact_global_edge_cut_oracle,
    exact_rooted_edge_cut_oracle,
    exact_small_edge_cut,
    generate,
    parse_text,
    reverse,
)
from dircut.edgecut import (
    ProbeConfig,
    ProbeReport,
    RootedTopology,
    _edge_oracle,
    _edge_sample,
    _grid_levels,
    derive_seed,
    integer_search,
    level_prober,
    level_search,
    precondition_rooted,
    probe_rooted_edge,
    sample_terminals,
    union_prober,
)
from dircut.graph import in_volume

from conftest import (
    brute_min_rooted_cut,
    conditioning_ratio,
    cut_value,
    g1,
    iter_sink_sets,
    probing_graphs,
    rand_digraph,
    time_bound,
    tiny_graphs,
)


def test_precondition_g1_numbers():
    g = g1()
    h = precondition_rooted(RootedTopology(g, 0), 2, 4, Fraction(1, 2))
    aux = [(t, head, h.value(c)) for t, head, c in h.arcs[g.m:]]
    # both non-root vertices have in-degree 2: eps*level*deg/(2*volume) = 1/4
    assert sorted(aux) == [(0, 1, Fraction(1, 4)), (0, 2, Fraction(1, 4))]


def test_precondition_truncates_into_band():
    g = DiGraph(3, [(0, 1, 1000), (1, 2, 1)])
    eps = Fraction(1, 2)
    h = precondition_rooted(RootedTopology(g, 0), 4, 2, eps)
    floor = eps * 4 / (2 * g.m)
    originals = [h.value(c) for _, _, c in h.arcs[:g.m]]
    assert max(originals) == 8  # clamped to 2*level
    assert min(originals) >= floor
    assert all(floor <= v <= 8 for v in originals)


def test_conditioning_invariant_exhaustive():
    rng = random.Random(21)
    for _ in range(12):
        g = rand_digraph(rng, rng.randint(3, 8), rng.randint(2, 14))
        eps = Fraction(rng.randint(1, 3), 4)
        level = Fraction(rng.randint(1, 9))
        volume = 2 ** rng.randint(0, 4)
        h = precondition_rooted(RootedTopology(g, 0), level, volume, eps)
        phi = conditioning_ratio(level, volume, eps)
        for sink in iter_sink_sets(g.n, 0):
            assert cut_value(h, sink) >= phi * in_volume(h, sink)


def test_sampling_clamps_and_zero_degree():
    g = DiGraph(4, [(0, 1, 1), (1, 2, 1), (2, 1, 1)])  # vertex 3 has in-degree 0
    for seed in range(40):
        picked = sample_terminals(g.in_degrees(), 0, 1, random.Random(seed))
        assert picked == frozenset([1, 2])  # probability clamps to 1; 3 never


def test_sampling_empirical_mean():
    # in-degrees of 3 everywhere, volume high enough that nothing clamps
    n, volume = 20, 64
    arcs = []
    for v in range(1, n):
        tails = [(v + k) % n for k in (1, 2, 3) if (v + k) % n != v]
        for t in tails[:3]:
            arcs.append((t, v, 1))
    g = DiGraph(n, arcs)
    deg = g.in_degrees()
    exact = sum(
        min(1.0, 2 * math.log(n) * deg[v] / volume) for v in range(1, n)
    )
    draws = 1000
    total = 0
    for seed in range(draws):
        total += len(sample_terminals(g.in_degrees(), 0, volume, random.Random(seed)))
    mean = total / draws
    assert abs(mean - exact) <= 0.10 * exact


def _sampled_probe(g, cfg):
    """``probe_rooted_edge`` at root 0 of ``g`` on the terminals that
    ``cfg.seed`` draws, as a prober draws them."""
    topology = RootedTopology(g, 0)
    return probe_rooted_edge(topology, cfg, _edge_sample(topology.degrees, 0, cfg))


def test_probe_g1_guarantee_window():
    # min r-cut of G1 is 2 with sink in-volume 2, inside the window of mu=4
    for seed in range(10):
        cfg = ProbeConfig(
            level=Fraction(2), volume=4, epsilon=Fraction(1, 2), seed=seed,
        )
        report = _sampled_probe(g1(), cfg)
        cert = report.certificate
        assert cert is not None
        assert cert.value < Fraction(3)
        assert 2 in cert.sink_set


def test_probe_soundness_unconditional():
    rng = random.Random(22)
    for _ in range(25):
        g = rand_digraph(rng, rng.randint(3, 9), rng.randint(2, 16))
        cfg = ProbeConfig(
            level=Fraction(rng.randint(1, 8)),
            volume=2 ** rng.randint(0, 4),
            epsilon=Fraction(rng.randint(1, 3), 4),
            seed=rng.randrange(2**32),
        )
        report = _sampled_probe(g, cfg)
        if report.certificate is None:
            continue
        cert = report.certificate
        assert cert.value == cut_value(g, cert.sink_set)
        assert 0 not in cert.sink_set
        assert cert.value < (1 + cfg.epsilon) * cfg.level


def test_approx_rooted_g1_sweep():
    hits = 0
    for seed in range(30):
        res = approx_rooted_edge_cut(g1(), 0, "0.2", seed=seed)
        assert res.certificate.value <= Fraction(12, 5)  # always within 1.2x
        if res.certificate.value == 2:
            hits += 1
    assert hits >= 28


def test_approx_star_exact_by_fallback():
    g = DiGraph(6, [(0, v, 7) for v in range(1, 6)])
    res = approx_rooted_edge_cut(g, 0, "0.3", seed=0)
    assert res.certificate.value == 7


def test_approx_unreachable_returns_zero_cut():
    g = DiGraph(4, [(0, 1, 3), (2, 3, 1), (3, 2, 1)])
    res = approx_rooted_edge_cut(g, 0, "0.2", seed=0)
    assert res.certificate.value == 0
    assert res.certificate.sink_set == frozenset([2, 3])


def test_singleton_at_smallest_capacity_runs_no_flow():
    # every arc has capacity 3, and vertex 1's only in-arc is 0 -> 1
    g = DiGraph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3), (0, 2, 3),
                    (1, 3, 3), (2, 0, 3)])
    for res in (approx_rooted_edge_cut(g, 0, "0.2", seed=1),
                approx_global_edge_cut(g, "0.2", seed=1),
                exact_small_edge_cut(g, root=0, seed=1),
                exact_small_edge_cut(g, seed=1)):
        assert res.value == 3 and res.flow_calls == 0 and res.probe_log == ()


def _stub_prober(optimum, levels):
    """Prober that records each level and finds a cut of value ``optimum``
    exactly at the levels that reach it."""
    def probe_at(level, _epsilon, _seed_parts):
        levels.append(level)
        if level >= optimum:
            return CutCertificate(frozenset([1]), (), Fraction(optimum))
        return None
    return probe_at


def test_integer_search_probes_no_ruled_out_level():
    # a miss at level L rules out every level up to L, and a cut of value
    # v rules out every level from v up; the floor itself is never probed
    singleton = CutCertificate(frozenset([2]), (), Fraction(20))
    levels = []
    assert integer_search(_stub_prober(7, levels), singleton, Fraction(1),
                          scale=1, seed_parts=()).value == 7
    assert levels == [19, 5, 6]
    levels = []
    assert integer_search(_stub_prober(100, levels), singleton, Fraction(1),
                          scale=1, seed_parts=()) is singleton
    assert levels == [19]


def test_integer_search_keeps_a_better_singleton():
    # every level below the singleton's value 20 misses the cut of value 30
    singleton = CutCertificate(frozenset([2]), (), Fraction(20))
    levels = []
    assert integer_search(_stub_prober(30, levels), singleton, Fraction(1),
                          scale=1, seed_parts=()) is singleton
    assert levels == [19]


@given(st.integers(1, 2**200), st.integers(1, 2**200), st.integers(1, 2**200))
def test_integer_search_probes_only_open_levels_above_the_floor(floor, above, gap):
    # optimum > floor, since the solvers answer a cut at the floor without
    # a search, and the singleton lies above the floor, as the solvers
    # search only then.  A miss at L rules out every level up to L, and a
    # cut of value v rules out every level from v up
    optimum = floor + above
    singleton = CutCertificate(frozenset([2]), (), Fraction(floor + gap))
    levels = []
    res = integer_search(_stub_prober(optimum, levels), singleton, Fraction(floor),
                         scale=1, seed_parts=())
    for k, level in enumerate(levels):
        assert floor < level < singleton.value
        assert all(level > miss for miss in levels[:k] if miss < optimum)
        assert level < optimum or all(hit < optimum for hit in levels[:k])
    assert len(levels) <= gap.bit_length()
    assert res.value == min(optimum, singleton.value)
    if singleton.value < optimum:
        assert res is singleton


def _descending_prober(optimum, drop, probes):
    """Prober that records each (level, value found or None) in ``probes``
    and, at the integer levels L that reach ``optimum``, finds a cut just
    below L, of value max(optimum, L - drop), so a search that gallops
    down keeps finding cuts."""
    def probe_at(level, _epsilon, _seed_parts):
        value = max(optimum, level - drop) if level >= optimum else None
        probes.append((level, value))
        return None if value is None else CutCertificate(frozenset([1]), (), value)
    return probe_at


@given(st.integers(1, 2**200), st.integers(1, 2**200), st.integers(1, 2**200),
       st.integers(0, 3))
def test_integer_search_gallops_through_open_levels_only(floor, above, gap, drop):
    # each hit rules out the levels from its value up, each miss the
    # levels up to its own, and the gallop's hits and the bisection after
    # its first miss take at most two probes per bit of the gap
    optimum = floor + above
    singleton = CutCertificate(frozenset([2]), (), Fraction(floor + gap))
    probes = []
    res = integer_search(_descending_prober(optimum, drop, probes), singleton,
                         Fraction(floor), scale=1, seed_parts=())
    for k, (level, _) in enumerate(probes):
        assert floor < level < singleton.value
        assert all(level > miss for miss, value in probes[:k] if value is None)
        assert all(level < value for _, value in probes[:k] if value is not None)
    assert len(probes) <= 1 + 2 * gap.bit_length()
    assert res.value == min(optimum, singleton.value)
    if singleton.value < optimum:
        assert res is singleton


def test_level_search_probes_logarithmically_many_levels():
    # about 1.8e15 grid levels lie between 1 and 10^400 at epsilon 1e-12
    best = CutCertificate(frozenset([2]), (), Fraction(10**400))
    epsilon = Fraction("1e-12")
    _, top = _grid_levels(Fraction(1), epsilon / (2 + epsilon), best.value)
    levels = []
    with time_bound(10):
        cert = level_search(_stub_prober(10**200, levels), best, Fraction(1), epsilon, ())
    assert cert.value == 10**200
    assert all(1 <= level < best.value for level in levels)
    assert len(levels) <= top.bit_length()  # = ceil(log2(top + 1))


@pytest.mark.parametrize("epsilon", ["0.2", "1e-9", "2.3e-16"])
@pytest.mark.parametrize("scale", [Fraction(1, 10**400), Fraction(10**400)])
def test_grid_levels(scale, epsilon):
    floor, value = scale * Fraction(3, 7), scale * 5
    eps = Fraction(epsilon)
    eps_in = eps / (2 + eps)
    level_at, top = _grid_levels(floor, eps_in, value)
    # anchored at the value; index 0 is the only level at or below the floor
    assert level_at(top) == value > level_at(top - 1)
    assert level_at(0) <= floor < level_at(1)
    # consecutive pairs at both ends, where the power of two steps down, and
    # at random indices
    steps = {bisect.bisect_left(range(top + 1), value / 2**k, key=level_at) - 1
             for k in range(1, 4)}
    rng = random.Random(1)
    pairs = sorted({*range(min(top, 40)), *range(max(0, top - 40), top), *steps,
                    *(rng.randrange(top) for _ in range(200))})
    bound = (1 + eps_in) * (1 + Fraction(1, 2**50))  # float rounding
    levels = [level_at(i) for i in pairs]
    assert levels == sorted(levels)
    for i, level in zip(pairs, levels):
        assert level <= level_at(i + 1) <= level * bound, i


def _stub_run_probe(hits, configs, probed=None):
    """``run_probe`` that records each ProbeConfig, and in ``probed`` when
    given the terminals it is passed, and finds a cut of value
    ``hits[volume]`` at the volumes in ``hits``, 5 flows a probe."""
    def run_probe(cfg, terminals):
        configs.append(cfg)
        if probed is not None:
            probed.append(terminals)
        cert = None
        if cfg.volume in hits:
            cert = CutCertificate(frozenset([cfg.volume]), (), Fraction(hits[cfg.volume]))
        return ProbeReport(cert, 5, ())
    return run_probe


def _stub_sample(samples=None, configs=None):
    """``sample`` that draws ``samples[volume]``, by default a terminal of
    its own per volume, so no sample is covered by the others; records each
    ProbeConfig in ``configs`` when given."""
    def sample(cfg):
        if configs is not None:
            configs.append(cfg)
        return frozenset([cfg.volume]) if samples is None else frozenset(samples[cfg.volume])
    return sample


VOLUMES = [1, 2, 4, 8, 16]
POOL = 16  # the stub samples draw their terminals from 1..16


def test_level_prober_misses_at_every_uncovered_volume_largest_first():
    # no sample is a subset of the others, so a miss probes every volume
    configs, probed, log = [], [], []
    probe_at = level_prober(_stub_sample(), _stub_run_probe({}, configs, probed),
                            VOLUMES, log, POOL)
    assert probe_at(Fraction(3), Fraction(1, 4), ("s", 2)) is None
    # every volume, largest first, each seeded by its index in VOLUMES
    assert [c.volume for c in configs] == [16, 8, 4, 2, 1]
    assert [c.seed for c in configs] == [derive_seed("s", 2, j) for j in (4, 3, 2, 1, 0)]
    assert all((c.level, c.epsilon) == (3, Fraction(1, 4)) for c in configs)
    assert log == [(3, v, 5) for v in (16, 8, 4, 2, 1)]
    # each sample is disjoint from the missed union, so it is probed whole
    assert probed == [frozenset([v]) for v in (16, 8, 4, 2, 1)]


def test_level_prober_skips_volumes_whose_sample_already_missed():
    # 4 draws {2}, inside the misses {1} and {1, 2} of 16 and 8; 1 draws
    # nothing; 2 draws the new terminal 3, so it runs
    samples = {16: [1], 8: [1, 2], 4: [2], 2: [1, 3], 1: []}
    drawn, configs, probed, log = [], [], [], []
    probe_at = level_prober(_stub_sample(samples, drawn),
                            _stub_run_probe({}, configs, probed), VOLUMES, log, POOL)
    assert probe_at(Fraction(3), Fraction(1, 4), ("s", 2)) is None
    # every volume is sampled with its own seed; only the uncovered ones run
    assert [c.seed for c in drawn] == [derive_seed("s", 2, j) for j in (4, 3, 2, 1, 0)]
    assert [c.volume for c in configs] == [16, 8, 2]
    assert [c.seed for c in configs] == [derive_seed("s", 2, j) for j in (4, 3, 1)]
    assert log == [(3, v, 5) for v in (16, 8, 2)]
    # each probe gets its sample minus the union of the terminals missed
    # before it: 8 probes {1, 2} - {1}, and 2 probes {1, 3} - {1, 2}
    assert probed == [frozenset([1]), frozenset([2]), frozenset([3])]
    # the union is kept per call: the next level starts afresh
    log.clear()
    probed.clear()
    assert probe_at(Fraction(4), Fraction(1, 4), ("s", 3)) is None
    assert log == [(4, v, 5) for v in (16, 8, 2)]
    assert probed == [frozenset([1]), frozenset([2]), frozenset([3])]


def test_level_prober_stops_drawing_once_its_pool_has_missed():
    # the samples of test_level_prober_skips_volumes_whose_sample_already_missed
    # from a pool of the 3 terminals 1..3: once volume 2 has missed, all
    # three have, so volume 1 is not drawn
    samples = {16: [1], 8: [1, 2], 4: [2], 2: [1, 3], 1: []}
    drawn, configs, log = [], [], []
    probe_at = level_prober(_stub_sample(samples, drawn), _stub_run_probe({}, configs),
                            VOLUMES, log, 3)
    assert probe_at(Fraction(3), Fraction(1, 4), ("s", 2)) is None
    assert [c.volume for c in drawn] == [16, 8, 4, 2]
    assert log == [(3, v, 5) for v in (16, 8, 2)]


def test_level_prober_returns_the_first_certificate():
    # volume 2 holds a better cut, but volume 4 is probed first
    configs, log = [], []
    probe_at = level_prober(_stub_sample(), _stub_run_probe({4: 7, 2: 6}, configs),
                            VOLUMES, log, POOL)
    cert = probe_at(Fraction(6), Fraction(1, 4), ("s",))
    assert cert.sink_set == frozenset([4]) and cert.value == 7
    assert [c.volume for c in configs] == [16, 8, 4]
    assert [c.seed for c in configs] == [derive_seed("s", j) for j in (4, 3, 2)]
    assert log == [(6, 16, 5), (6, 8, 5), (6, 4, 5)]


def _stub_member(calls, built, k, value, orientation="forward", bound=Fraction(0)):
    """Union member ``k`` whose prober records each call in ``calls`` and
    returns a cut of ``value`` into {k} (None for no cut); each build
    records k and its log in ``built``."""
    def build(log):
        built.append((k, log))

        def probe_at(level, epsilon, seed_parts):
            calls.append((k, level, epsilon, seed_parts))
            return None if value is None else CutCertificate(frozenset([k]), (), Fraction(value))
        return probe_at
    return orientation, bound, build


def test_union_prober_stops_at_the_first_member_with_a_certificate():
    calls, built, log = [], [], []
    probe_at = union_prober([_stub_member(calls, built, 0, None),
                             _stub_member(calls, built, 1, 5, "reverse"),
                             _stub_member(calls, built, 2, 4)], log)
    cert = probe_at(Fraction(5), Fraction(1, 8), ("s", 3))
    assert cert.sink_set == frozenset([1]) and cert.orientation == "reverse"
    assert calls == [(0, 5, Fraction(1, 8), ("s", 3, 0)), (1, 5, Fraction(1, 8), ("s", 3, 1))]
    # each prober is built at its first probe, with the union's log, and kept
    assert built == [(0, log), (1, log)]
    probe_at(Fraction(6), Fraction(1, 8), ("s", 4))
    assert len(built) == 2
    calls.clear()
    none = union_prober([_stub_member(calls, [], 0, None),
                         _stub_member(calls, [], 1, None, "reverse")], [])
    assert none(Fraction(5), Fraction(1, 8), ("s",)) is None
    assert [k for k, *_ in calls] == [0, 1]
    # not indexed, as a rooted solve probes its one instance
    calls.clear()
    lone = union_prober([_stub_member(calls, [], 0, None)], [], indexed=False)
    assert lone(Fraction(5), Fraction(1, 8), ("s",)) is None
    assert calls == [(0, 5, Fraction(1, 8), ("s",))]


def test_union_prober_skips_members_whose_bound_reaches_the_threshold():
    # thresholds (1 + 1/4) * level: 5 at level 4, 15/4 at level 3
    calls, built = [], []
    probe_at = union_prober([_stub_member(calls, built, 0, 4, bound=Fraction(5)),
                             _stub_member(calls, built, 1, None, "reverse", Fraction(3)),
                             _stub_member(calls, built, 2, 3, bound=Fraction(15, 4))], [])
    # member 0's bound reaches the threshold 5, so member 1 is probed first
    # and member 2 answers, with its own index in the seed parts
    cert = probe_at(Fraction(4), Fraction(1, 4), ("s",))
    assert cert.sink_set == frozenset([2])
    assert [(k, parts) for k, _, _, parts in calls] == [(1, ("s", 1)), (2, ("s", 2))]
    # at threshold 15/4 only member 1 is below it; a skipped member is never built
    calls.clear()
    assert probe_at(Fraction(3), Fraction(1, 4), ("s",)) is None
    assert [k for k, *_ in calls] == [1]
    assert [k for k, _ in built] == [1, 2]


@pytest.mark.parametrize("graph_seed", [7, 8])
def test_planted_sink_approx_runs_fewer_flows_than_the_oracle(graph_seed):
    # the benchmark's planted-rooted parameters at n=400: of the n-1 = 399
    # sinks, the oracle runs a flow only into those that the arcs from the
    # root and from sinks already certified do not certify
    g = parse_text(generate("planted-sink", seed=graph_seed, n=400,
                            sink_size=4, volume=12, value=5).text)
    oracle = _edge_oracle(g, root=0)
    assert oracle.flow_calls == {7: 9, 8: 7}[graph_seed]
    approx = approx_rooted_edge_cut(g, 0, "0.2", seed=1)
    assert approx.value == oracle.value
    assert approx.flow_calls < oracle.flow_calls
    assert exact_small_edge_cut(g, root=0, seed=1).value == oracle.value


#: A 7-cycle with chords, capacities 2-6, plus vertex 7 with out-arcs
#: only, so the forward instance rooted at 0 has a zero cut onto {7}.
SOURCE_ONLY_VERTEX = DiGraph(8, [
    (0, 1, 3), (1, 2, 5), (2, 3, 2), (3, 4, 6), (4, 5, 4), (5, 6, 3), (6, 0, 5),
    (0, 3, 2), (1, 5, 4), (2, 6, 3), (3, 0, 6), (4, 1, 2), (5, 2, 5), (6, 3, 4),
    (0, 4, 3), (2, 5, 6), (6, 1, 2), (3, 5, 4), (7, 0, 4), (7, 2, 3),
])


def test_global_forward_zero_cut_skips_the_reversal():
    g = SOURCE_ONLY_VERTEX
    for res in (approx_global_edge_cut(g, "0.2", seed=1), exact_small_edge_cut(g, seed=1)):
        assert (res.value, res.orientation, res.flow_calls) == (0, "forward", 0)
        assert res.certificate.sink_set == frozenset([7])
    res = _edge_oracle(g)
    assert res.value == 0 and res.orientation == "forward"
    # the root reaches every vertex but 7, whose flow therefore runs first
    assert res.flow_calls == _edge_oracle(g, root=0).flow_calls == 1


def test_global_cycle_and_two_vertex():
    cyc = DiGraph(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])
    for seed in range(10):
        res = approx_global_edge_cut(cyc, "0.2", seed=seed)
        assert res.certificate.value == 1
    two = DiGraph(2, [(0, 1, 4), (1, 0, 9)])
    assert approx_global_edge_cut(two, "0.5", seed=1).certificate.value == 4


def test_approx_vs_oracle_statistical():
    rng = random.Random(23)
    good = 0
    trials = 30
    for i in range(trials):
        g = rand_digraph(rng, rng.randint(6, 10), rng.randint(6, 20))
        res = approx_rooted_edge_cut(g, 0, "0.2", seed=i)
        oracle = exact_rooted_edge_cut_oracle(g, 0)
        assert res.certificate.value == cut_value(g, res.certificate.sink_set)
        assert res.certificate.value >= oracle.value
        if res.certificate.value <= oracle.value * Fraction(6, 5):
            good += 1
    assert good >= trials - 1


def test_oracle_examples():
    oracle = exact_rooted_edge_cut_oracle(g1(), 0)
    assert oracle.value == 2 and oracle.sink_set == frozenset([2])
    star = DiGraph(5, [(0, v, 7) for v in range(1, 5)])
    assert exact_rooted_edge_cut_oracle(star, 0).value == 7
    split = DiGraph(3, [(1, 2, 4)])
    assert exact_rooted_edge_cut_oracle(split, 0).value == 0
    # every vertex is reachable, but vertex 1 only through a zero-capacity arc
    hidden = DiGraph(3, [(0, 1, 0), (1, 2, 5), (2, 0, 5), (0, 2, 5)])
    oracle = exact_rooted_edge_cut_oracle(hidden, 0)
    assert oracle.value == 0 and oracle.sink_set == frozenset([1])


def test_oracle_matches_enumeration():
    rng = random.Random(24)
    for _ in range(20):
        g = rand_digraph(rng, rng.randint(2, 7), rng.randint(0, 12), strong=False)
        zeroed = DiGraph(g.n, [(t, h, c if i % 3 else 0)
                               for i, (t, h, c) in enumerate(g.arcs)])
        for h in (g, zeroed):
            value, _ = brute_min_rooted_cut(h, 0)
            assert exact_rooted_edge_cut_oracle(h, 0).value == value


def test_global_oracle_orientation():
    two = DiGraph(2, [(0, 1, 9), (1, 0, 4)])
    cert, orientation = exact_global_edge_cut_oracle(two)
    assert cert.value == 4 and orientation == "reverse"
    hidden = DiGraph(3, [(0, 1, 0), (1, 2, 5), (2, 0, 5), (0, 2, 5)])
    cert, orientation = exact_global_edge_cut_oracle(hidden)
    assert cert.value == 0 and orientation == "forward"


def test_exact_small_matches_oracle_unit_caps():
    rng = random.Random(25)
    exact_hits = 0
    trials = 20
    for i in range(trials):
        g = rand_digraph(rng, rng.randint(5, 9), rng.randint(6, 18), wmax=1)
        res = exact_small_edge_cut(g, root=0, seed=i)
        oracle = exact_rooted_edge_cut_oracle(g, 0)
        assert res.certificate.value >= oracle.value
        if res.certificate.value == oracle.value:
            exact_hits += 1
    assert exact_hits >= trials - 1


def test_exact_small_on_fractional_caps():
    # a capacity of 1/2, rooted (value 1/2) and global (the zero cut back)
    g = DiGraph(2, [(0, 1, 1)], scale=2)
    for res, oracle in ((exact_small_edge_cut(g, root=0), exact_rooted_edge_cut_oracle(g, 0)),
                        (exact_small_edge_cut(g), exact_global_edge_cut_oracle(g)[0])):
        assert res.value == oracle.value
        sink = res.certificate.sink_set
        assert sink and 0 not in sink
        assert cut_value(g if res.orientation == "forward" else reverse(g), sink) == res.value


def test_epsilon_handling():
    with pytest.raises(ValueError):
        approx_rooted_edge_cut(g1(), 0, 0)
    for tiny in ("1e-300", "2.2e-16"):  # the grid ratio rounds to 1
        with pytest.raises(ValueError):
            approx_global_edge_cut(g1(), tiny)
    res = approx_rooted_edge_cut(g1(), 0, 5, seed=0)  # clamped to 0.99
    assert res.certificate.value >= 2
    # a float is read as its shortest decimal string
    res, same = (approx_rooted_edge_cut(g1(), 0, eps, seed=0) for eps in (0.2, "0.2"))
    assert (res.certificate, res.probe_log) == (same.certificate, same.probe_log)


def test_determinism_same_seed_and_threads():
    rng = random.Random(26)
    g = rand_digraph(rng, 9, 16)
    a = approx_rooted_edge_cut(g, 0, "0.2", seed=11, threads=1)
    b = approx_rooted_edge_cut(g, 0, "0.2", seed=11, threads=1)
    c = approx_rooted_edge_cut(g, 0, "0.2", seed=11, threads=4)
    assert a.certificate == b.certificate == c.certificate
    assert a.probe_log == b.probe_log == c.probe_log
    d = approx_rooted_edge_cut(g, 0, "0.2", seed=12)
    assert d.certificate.value >= 0  # different seed still valid


def test_probe_cost_decreases_with_volume():
    rng = random.Random(27)
    g = rand_digraph(rng, 12, 30)
    level = exact_rooted_edge_cut_oracle(g, 0).value
    small = large = 0
    for seed in range(10):
        small += _sampled_probe(g, ProbeConfig(level, 2, Fraction(1, 4), seed=seed)).flow_calls
        large += _sampled_probe(g, ProbeConfig(level, 64, Fraction(1, 4), seed=seed)).flow_calls
    assert large <= small


def test_infinite_arcs_keep_their_cut_value():
    # the finite arc parallel to the infinite one counts in its sentinel 7
    g = DiGraph(2, [(0, 1, INFINITE), (0, 1, 5), (1, 0, 1)])
    assert exact_rooted_edge_cut_oracle(g, 0).value == 12
    assert approx_rooted_edge_cut(g, 0, "0.2", seed=1).value == 12
    assert exact_small_edge_cut(g, root=0, seed=1).value == 12


I = INFINITE


@pytest.mark.parametrize("g, root, optimum", [
    (DiGraph(4, [(0, 1, I), (1, 2, I), (2, 1, I), (1, 3, I), (3, 1, I), (2, 3, I), (3, 2, I),
                 (0, 2, 1), (0, 3, 1)]), 0, 5),
    (DiGraph(3, [(0, 1, 3), (1, 0, I), (1, 2, 2), (2, 1, I), (2, 0, 2), (1, 0, 2), (2, 1, 1),
                 (1, 2, 3)]), 2, 17),
])
def test_cuts_that_must_cross_an_infinite_arc(g, root, optimum):
    # the root reaches every vertex along infinite arcs, which conditioning
    # gives the conditioned graph's own sentinel, so no probe sees a cut;
    # the searches answer with the capped oracle instead (they gave 7 and
    # 18 before)
    assert _edge_oracle(g, root).value == optimum
    best = _edge_oracle(g).value
    for seed in range(1, 6):
        assert approx_rooted_edge_cut(g, root, "0.2", seed=seed).value <= Fraction(6, 5) * optimum
        assert exact_small_edge_cut(g, root=root, seed=seed).value == optimum
        assert approx_global_edge_cut(g, "0.2", seed=seed).value <= Fraction(6, 5) * best
        assert exact_small_edge_cut(g, seed=seed).value == best


@st.composite
def infinite_arborescence_graphs(draw):
    """``tiny_graphs`` or ``probing_graphs`` plus an infinite arc into every
    vertex other than 0 from one before it in a drawn order that starts at
    0, so every rooted cut at 0 crosses an infinite arc.  Some tree arcs
    between other vertices also get an infinite reverse arc, so that a
    large sink can cross fewer infinite arcs than any singleton."""
    g = draw(st.one_of(tiny_graphs(), probing_graphs()))
    order = [0, *draw(st.permutations(range(1, g.n)))]
    tree = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, g.n)]
    back = [(v, u) for u, v in tree if u != 0 and draw(st.booleans())]
    return DiGraph(g.n, g.arcs_as_input() + [(u, v, I) for u, v in tree + back],
                   scale=g.scale)


@settings(max_examples=100)
@given(infinite_arborescence_graphs())
def test_searches_on_an_infinite_spanning_arborescence(g):
    def optimum(graph, root=None):
        if root is not None:
            return brute_min_rooted_cut(graph, root)[0]
        return min(optimum(graph, 0), optimum(reverse(graph), 0))

    eps = Fraction(1, 5)
    assert approx_rooted_edge_cut(g, 0, eps, seed=1).value <= (1 + eps) * optimum(g, 0)
    assert approx_global_edge_cut(g, eps, seed=1).value <= (1 + eps) * optimum(g)
    integral = DiGraph(g.n, g.arcs_as_input())
    assert exact_small_edge_cut(integral, root=0, seed=1).value == optimum(integral, 0)
    assert exact_small_edge_cut(integral, seed=1).value == optimum(integral)


def _assert_crossing_indexes(g, res):
    """The crossing arcs of ``res`` are exactly the arcs of ``g`` (or of
    its reversal) that enter the sink, and they sum to the value."""
    graph = reverse(g) if res.orientation == "reverse" else g
    sink = res.certificate.sink_set
    entering = [i for i, (t, h, _) in enumerate(graph.arcs) if h in sink and t not in sink]
    assert list(res.certificate.crossing) == entering
    assert graph.value(sum(graph.arcs[i][2] for i in entering)) == res.value


def test_certificates_index_the_callers_arcs():
    # merging the parallel arcs (0, 1) shifts every later arc's index
    g = DiGraph(3, [(0, 1, 1), (0, 1, 1), (2, 1, 5), (1, 2, 2), (2, 0, 3), (0, 2, 4)])
    for res in (approx_rooted_edge_cut(g, 0, "0.2", seed=1),
                exact_small_edge_cut(g, root=0, seed=1)):
        assert res.certificate.sink_set == frozenset([2])
        assert res.certificate.crossing == (3, 5)
    for res in (approx_global_edge_cut(g, "0.2", seed=1), exact_small_edge_cut(g, seed=1)):
        _assert_crossing_indexes(g, res)


@settings(max_examples=80, deadline=None)
@given(st.one_of(tiny_graphs(), probing_graphs()))
def test_certificates_index_the_callers_arcs_property(g):
    integral = DiGraph(g.n, g.arcs_as_input())
    runs = ((g, approx_rooted_edge_cut(g, 0, "0.2", seed=1)),
            (g, approx_global_edge_cut(g, "0.2", seed=1)),
            (integral, exact_small_edge_cut(integral, root=0, seed=1)),
            (integral, exact_small_edge_cut(integral, seed=1)))
    for graph, res in runs:
        _assert_crossing_indexes(graph, res)


@st.composite
def _graphs_without_parallel_finite_arcs(draw):
    """``tiny_graphs`` keeping only the first finite arc of each ordered
    pair, so that the solvers use the graph unmerged."""
    g = draw(tiny_graphs())
    pairs, arcs = set(), []
    for t, h, c in g.arcs_as_input():
        if c is not INFINITE:
            if (t, h) in pairs:
                continue
            pairs.add((t, h))
        arcs.append((t, h, c))
    return DiGraph(g.n, arcs, scale=g.scale)


@settings(max_examples=100, deadline=None)
@given(_graphs_without_parallel_finite_arcs())
def test_solvers_do_not_depend_on_the_arc_order(g):
    # a graph without parallel finite arcs is searched as it is, not in
    # merge_parallel's sorted order; the order must not change any answer
    flipped = DiGraph(g.n, g.arcs_as_input()[::-1], scale=g.scale)

    def answers(graph):
        return [(res.value, res.certificate.sink_set, res.orientation, res.flow_calls,
                 res.probe_log)
                for res in (approx_rooted_edge_cut(graph, 0, "0.2", seed=1),
                            approx_global_edge_cut(graph, "0.2", seed=1),
                            exact_small_edge_cut(graph, root=0, seed=1),
                            exact_small_edge_cut(graph, seed=1))]

    assert answers(g) == answers(flipped)
