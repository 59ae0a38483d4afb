"""The volume-guess trim of ``level_prober``: within one level, a guess
probes only its sampled terminals that no probe before it has probed
(they all missed), and is not run when none is left.

The conditioned graph of a smaller in-volume guess dominates that of a
larger one arc by arc, so a terminal that missed would miss again.  The
soundness tests force-run every probe the rule skips and check that it
returns no certificate, check that every probe it runs hits exactly when
its untrimmed sample would, and check the domination lemma directly on
fixed terminal sets.  The counting tests check that a level ends once a
probe has sampled every eligible terminal: no smaller guess draws a
sample, runs a probe or builds a conditioned graph.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import dircut.edgecut
import dircut.vertexcut
from dircut import DiGraph, VertexCapGraph
from dircut.edgecut import ProbeConfig, _edge_prober, _volume_schedule, derive_seed, level_prober
from dircut.graph import merge_parallel
from dircut.vertexcut import _admissible_sinks, _normalize, _split_prober, prune_for_root

from conftest import (
    brute_min_rooted_cut,
    brute_min_separator,
    tiny_graphs,
    zero_heavy_vertex_graphs,
)

EPSILONS = st.sampled_from([Fraction(1, 100), Fraction(1, 5), Fraction(1, 2), Fraction(99, 100)])
POSITIVE = st.integers(1, 9)


def _prober_parts(module, build):
    """The (sample, run_probe, volumes, pool) that ``build()`` hands to
    ``module.level_prober``."""
    captured = []
    with mock.patch.object(module, "level_prober", lambda *args: captured.append(args)):
        build()
    (sample, run_probe, volumes, _log, pool), = captured
    return sample, run_probe, volumes, pool


def _skipped_probes_miss(parts, levels, epsilon):
    """Probe each of ``levels`` with one real ``level_prober``, then
    force-run every guess it sampled but did not run and check that each
    misses."""
    sample, run_probe, volumes, pool = parts
    drawn, ran = [], []

    def spy_sample(cfg):
        terminals = sample(cfg)
        drawn.append((cfg, terminals))
        return terminals

    def spy_run(cfg, terminals):
        ran.append(cfg)
        return run_probe(cfg, terminals)

    probe_at = level_prober(spy_sample, spy_run, volumes, [], pool)
    for level in levels:
        probe_at(level, epsilon, ("skip",))
    for cfg, terminals in drawn:
        if cfg not in ran:
            assert run_probe(cfg, terminals).certificate is None, cfg


def _trim_keeps_hits(parts, levels, epsilon):
    """Probe each of ``levels`` with one real ``level_prober``, then check
    at every probe it ran that the whole sample hits exactly when the
    trimmed terminals did."""
    sample, run_probe, volumes, pool = parts
    ran = []

    def spy_run(cfg, terminals):
        report = run_probe(cfg, terminals)
        ran.append((cfg, report.certificate is None))
        return report

    probe_at = level_prober(sample, spy_run, volumes, [], pool)
    for level in levels:
        probe_at(level, epsilon, ("trim",))
    for cfg, missed in ran:
        assert (run_probe(cfg, sample(cfg)).certificate is None) == missed, cfg


def _misses_go_down(parts, terminals, level, epsilon):
    """For the fixed ``terminals``, a miss at one volume guess implies a
    miss at every smaller guess."""
    _, run_probe, volumes, _ = parts
    missed = False
    for j in reversed(range(len(volumes))):
        cfg = ProbeConfig(level=level, volume=volumes[j], epsilon=epsilon,
                          seed=derive_seed("lemma", j))
        hit = run_probe(cfg, terminals).certificate is not None
        assert not (missed and hit), (volumes[j], terminals)
        missed = missed or not hit


def _levels(optimum):
    """Levels around the optimum, where probes both hit and miss, plus two
    fixed ones, in increasing order."""
    levels = {Fraction(1), Fraction(2**70)}
    if optimum > 0:
        levels |= {optimum / 2, optimum, 2 * optimum}
    return sorted(levels)


@settings(max_examples=150, deadline=None)
@given(tiny_graphs(), EPSILONS, st.data())
def test_edge_skip_is_sound(g, epsilon, data):
    optimum = brute_min_rooted_cut(g, 0)[0]
    for base in (g, merge_parallel(g)):
        parts = _prober_parts(dircut.edgecut, lambda: _edge_prober(base, 0, []))
        eligible = [v for v, d in enumerate(base.in_degrees()) if v and d]
        terminals = frozenset(data.draw(st.sets(st.sampled_from(eligible)))
                              if eligible else ())
        _skipped_probes_miss(parts, _levels(optimum), epsilon)
        for level in _levels(optimum) if terminals else ():
            _misses_go_down(parts, terminals, level, epsilon)


@settings(max_examples=100, deadline=None)
@given(tiny_graphs(), EPSILONS)
def test_edge_trim_keeps_every_hit(g, epsilon):
    levels = _levels(brute_min_rooted_cut(g, 0)[0])
    for base in (g, merge_parallel(g)):
        parts = _prober_parts(dircut.edgecut, lambda: _edge_prober(base, 0, []))
        _trim_keeps_hits(parts, levels, epsilon)


def _vertex_instances(g: VertexCapGraph):
    """(graph, admissible sinks) of the rooted instance at vertex 0 as
    every vertex mode probes it: the normalized graph pruned for the root,
    when it has an admissible sink."""
    pruned = prune_for_root(_normalize(g), 0)
    admissible = _admissible_sinks(pruned, 0)
    if admissible:
        yield pruned, admissible


@settings(max_examples=150, deadline=None)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)),
       EPSILONS, st.data())
def test_vertex_skip_is_sound(g, epsilon, data):
    for graph, admissible in _vertex_instances(g):
        levels = _levels(min(brute_min_separator(graph, 0, t) for t in admissible))
        parts = _prober_parts(
            dircut.vertexcut, lambda: _split_prober(graph, 0, []))
        # split in-copies keep the vertex ids, so a vertex is its own terminal
        terminals = frozenset(data.draw(st.sets(st.sampled_from(admissible))))
        _skipped_probes_miss(parts, levels, epsilon)
        for level in levels if terminals else ():
            _misses_go_down(parts, terminals, level, epsilon)


@settings(max_examples=100, deadline=None)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)),
       EPSILONS)
def test_vertex_trim_keeps_every_hit(g, epsilon):
    for graph, admissible in _vertex_instances(g):
        levels = _levels(min(brute_min_separator(graph, 0, t) for t in admissible))
        parts = _prober_parts(dircut.vertexcut, lambda: _split_prober(graph, 0, []))
        _trim_keeps_hits(parts, levels, epsilon)


def _full_sample_volume(volumes, n, degrees):
    """The largest guess at which every eligible terminal is sampled for
    certain: min(1, 2 ln(n) deg / volume) is 1 for the least degree."""
    least = min(degrees)
    return max(v for v in volumes if v <= 2 * math.log(n) * least)


def _counting(module, name, volume_at):
    """Wrap ``module.<name>`` and record the volume guess, its positional
    argument ``volume_at``, of each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args[volume_at])
        return real(*args)

    return calls, mock.patch.object(module, name, counted)


def test_edge_level_ends_at_a_full_sample():
    # the bidirectional 8-cycle with capacities 5: every rooted cut is at
    # least 10, so level 1 misses at every guess
    n = 8
    g = DiGraph(n, [(v, (v + d) % n, 5) for v in range(n) for d in (1, n - 1)])
    volumes = _volume_schedule(g.m)
    full = _full_sample_volume(volumes, n, [2] * (n - 1))
    assert full > volumes[0]  # smaller guesses remain after it
    log = []
    calls, patch = _counting(dircut.edgecut, "condition_rooted", 2)
    drawn, sample_patch = _counting(dircut.edgecut, "sample_terminals", 2)
    with patch, sample_patch:
        assert _edge_prober(g, 0, log)(Fraction(1), Fraction(1, 5), ("guard",)) is None
    # no guess below the first one whose sample is full draws a sample,
    # runs a probe or builds a conditioned graph; the guess at ``full``
    # runs unless a larger one already drew every terminal
    probed = [volume for _, volume, _ in log]
    assert min(probed) >= full
    assert calls == probed
    assert min(drawn) >= full


def test_vertex_level_ends_at_a_full_sample():
    # the bidirectional 7-cycle with vertex capacities 3: every rooted
    # vertex cut is at least 6, so level 1 misses at every guess
    n = 7
    g = VertexCapGraph(n, [(v, (v + d) % n) for v in range(n) for d in (1, n - 1)], [3] * n)
    # the prober probes the instance pruned for the root
    pruned = prune_for_root(g, 0)
    admissible = _admissible_sinks(pruned, 0)
    volumes = _volume_schedule(pruned.m)
    full = _full_sample_volume(volumes, n, [2] * len(admissible))
    assert full > volumes[0]
    log = []
    calls, patch = _counting(dircut.vertexcut, "condition_rooted", 2)
    drawn, sample_patch = _counting(dircut.edgecut, "sample_terminals", 2)
    with patch, sample_patch:
        assert _split_prober(g, 0, log)(Fraction(1), Fraction(1, 5), ("guard",)) is None
    probed = [volume for _, volume, _ in log]
    assert min(probed) >= full
    assert calls == probed
    assert min(drawn) >= full
