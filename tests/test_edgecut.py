import math
import random
from fractions import Fraction

import pytest

from dircut import (
    DiGraph,
    ProbeConfig,
    approx_global_edge_cut,
    approx_rooted_edge_cut,
    exact_global_edge_cut_oracle,
    exact_rooted_edge_cut_oracle,
    exact_small_edge_cut,
    in_volume,
    precondition_rooted,
    probe_rooted_edge,
    sample_terminals,
)

from conftest import (
    brute_min_rooted_cut,
    cut_value,
    g1,
    iter_sink_sets,
    rand_digraph,
)


def test_precondition_g1_numbers():
    cond = precondition_rooted(g1(), 0, 2, 4, Fraction(1, 2))
    aux = [
        (t, h, cond.h.value(c))
        for i, (t, h, c) in enumerate(cond.h.arcs)
        if not cond.original_arc[i]
    ]
    # both non-root vertices have in-degree 2: eps*level*deg/(2*volume) = 1/4
    assert sorted(aux) == [(0, 1, Fraction(1, 4)), (0, 2, Fraction(1, 4))]
    assert cond.phi == Fraction(1, 16)


def test_precondition_truncates_into_band():
    g = DiGraph(3, [(0, 1, 1000), (1, 2, 1)])
    eps = Fraction(1, 2)
    cond = precondition_rooted(g, 0, 4, 2, eps)
    floor = eps * 4 / (2 * g.m)
    originals = [
        cond.h.value(c)
        for i, (_, _, c) in enumerate(cond.h.arcs)
        if cond.original_arc[i]
    ]
    assert max(originals) == 8  # clamped to 2*level
    assert min(originals) >= floor
    assert all(floor <= v <= 8 for v in originals)


def test_precondition_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        precondition_rooted(g1(), 0, 0, 2, Fraction(1, 2))


def test_conditioning_invariant_exhaustive():
    rng = random.Random(21)
    for _ in range(12):
        g = rand_digraph(rng, rng.randint(3, 8), rng.randint(2, 14))
        eps = Fraction(rng.randint(1, 3), 4)
        level = Fraction(rng.randint(1, 9))
        volume = 2 ** rng.randint(0, 4)
        cond = precondition_rooted(g, 0, level, volume, eps)
        for sink in iter_sink_sets(g.n, 0):
            assert cut_value(cond.h, sink) >= cond.phi * in_volume(cond.h, sink)


def test_sampling_clamps_and_zero_degree():
    g = DiGraph(4, [(0, 1, 1), (1, 2, 1), (2, 1, 1)])  # vertex 3 has in-degree 0
    cond = precondition_rooted(g, 0, 1, 1, Fraction(1, 2))
    for seed in range(40):
        picked = sample_terminals(cond, 0, 1, 2, random.Random(seed))
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
    cond = precondition_rooted(g, 0, 1, volume, Fraction(1, 2))
    deg = g.in_degrees()
    exact = sum(
        min(1.0, 2 * math.log(n) * deg[v] / volume) for v in range(1, n)
    )
    draws = 1000
    total = 0
    for seed in range(draws):
        total += len(sample_terminals(cond, 0, volume, 2, random.Random(seed)))
    mean = total / draws
    assert abs(mean - exact) <= 0.10 * exact


def test_probe_g1_guarantee_window():
    # min r-cut of G1 is 2 with sink in-volume 2, inside the window of mu=4
    for seed in range(10):
        cfg = ProbeConfig(
            level=Fraction(2), volume=4, epsilon=Fraction(1, 2),
            sample_const=Fraction(50), seed=seed,
        )
        report = probe_rooted_edge(g1(), 0, cfg)
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
        report = probe_rooted_edge(g, 0, cfg)
        if report.certificate is None:
            continue
        cert = report.certificate
        assert cert.value == cut_value(g, cert.sink_set)
        assert 0 not in cert.sink_set
        assert cert.value < (1 + cfg.epsilon) * cfg.level


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(level=Fraction(1), volume=3, epsilon=Fraction(1, 2))
    with pytest.raises(ValueError):
        ProbeConfig(level=Fraction(1), volume=2, epsilon=Fraction(2))


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


def test_exact_small_rejects_fractional_caps():
    g = DiGraph(2, [(0, 1, 1)], scale=2)
    with pytest.raises(ValueError):
        exact_small_edge_cut(g, root=0)


def test_epsilon_handling():
    with pytest.raises(ValueError):
        approx_rooted_edge_cut(g1(), 0, 0)
    res = approx_rooted_edge_cut(g1(), 0, 5, seed=0)  # clamped to 0.99
    assert res.certificate.value >= 2


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
        small += probe_rooted_edge(
            g, 0, ProbeConfig(level, 2, Fraction(1, 4), seed=seed)
        ).flow_calls
        large += probe_rooted_edge(
            g, 0, ProbeConfig(level, 64, Fraction(1, 4), seed=seed)
        ).flow_calls
    assert large <= small
