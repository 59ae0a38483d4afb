"""The solvers hand their lower layers valid arguments.

The probe, Steiner and root-draw layers take the values that the solvers
compute from checked input and check none of them again.  This file
checks them at test time instead: it wraps the module-level names that
the solvers look up at call time (``edgecut.shrink_wrap``,
``edgecut.partition_terminals``, ``edgecut.condition_rooted``,
``vertexcut.condition_rooted`` and ``vertexcut.sample_roots``) and runs
every approx and exact-small mode through them.
"""

from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import dircut.edgecut
import dircut.vertexcut
from dircut import (
    NoCutExistsError,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_small_edge_cut,
    exact_small_vertex_cut,
    generate,
    parse_text,
)
from dircut.edgecut import as_fraction

from conftest import (
    probing_graphs,
    probing_vertex_graphs,
    tiny_graphs,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)


def _steiner(graph, root, terminals, level):
    assert terminals, "shrink-wrap got no terminal"
    assert root not in terminals and 0 <= root < graph.n
    assert all(0 <= t < graph.n for t in terminals)
    assert isinstance(level, int) and level >= 1


def _groups(terminals, cap):
    assert isinstance(cap, int) and cap >= 1


def _conditioning(topology, level, volume, epsilon, aux_divisor, floor):
    assert level > 0
    assert volume >= 1 and volume & (volume - 1) == 0, "volume is not a power of two"
    assert 0 < epsilon < 1


def _roots(g, epsilon, rng, bound):
    assert g.n >= 2
    assert as_fraction(epsilon) > 0
    assert sum(g.vcaps) > 0, "every vertex capacity is zero"


CHECKS = (
    (dircut.edgecut, "shrink_wrap", _steiner),
    (dircut.edgecut, "partition_terminals", _groups),
    (dircut.edgecut, "condition_rooted", _conditioning),
    (dircut.vertexcut, "condition_rooted", _conditioning),
    (dircut.vertexcut, "sample_roots", _roots),
)


def _checked(calls):
    """A context that wraps every name of ``CHECKS`` with its check and
    counts its calls in ``calls`` by (module, name)."""
    stack = ExitStack()
    for module, name, check in CHECKS:
        def wrapper(*args, _real=getattr(module, name), _check=check,
                    _key=(module.__name__, name)):
            _check(*args)
            calls[_key] += 1
            return _real(*args)
        stack.enter_context(mock.patch.object(module, name, wrapper))
    return stack


def _edge_modes(g, root, epsilon, seed):
    approx_rooted_edge_cut(g, root, epsilon, seed=seed)
    approx_global_edge_cut(g, epsilon, seed=seed)
    exact_small_edge_cut(g, root=root, seed=seed)
    exact_small_edge_cut(g, seed=seed)


def _vertex_modes(g, root, epsilon, seed):
    for solve in (lambda: approx_rooted_vertex_cut(g, root, epsilon, seed=seed),
                  lambda: approx_global_vertex_cut(g, epsilon, seed=seed),
                  lambda: exact_small_vertex_cut(g, root=root, seed=seed),
                  lambda: exact_small_vertex_cut(g, seed=seed)):
        try:
            solve()
        except NoCutExistsError:
            pass


EPSILONS = st.one_of(st.fractions(Fraction(1, 100), Fraction(3), max_denominator=100),
                     st.sampled_from(["0.2", "0.99", "1"]))
EDGE_GRAPHS = st.one_of(tiny_graphs(), probing_graphs(), zero_heavy_graphs())
VERTEX_GRAPHS = st.one_of(zero_heavy_vertex_graphs(), probing_vertex_graphs(st.integers(1, 3)))


@settings(max_examples=300)
@given(st.data(), EPSILONS, st.integers(0, 2**32))
def test_solvers_pass_valid_layer_arguments(data, epsilon, seed):
    edge = data.draw(EDGE_GRAPHS)
    vertex = data.draw(VERTEX_GRAPHS)
    with _checked(Counter()):
        _edge_modes(edge, data.draw(st.integers(0, edge.n - 1)), epsilon, seed)
        _vertex_modes(vertex, data.draw(st.integers(0, vertex.n - 1)), epsilon, seed)


def test_every_wrapped_layer_runs():
    """The property above is not vacuous: on two fixed graphs whose
    searches probe, every wrapped name is called."""
    edge = parse_text(generate("erdos-renyi-digraph", seed=1, n=16, p=0.3, wmax=3).text)
    vertex = parse_text(generate("erdos-renyi-digraph", seed=1, n=16, p=0.3,
                                 kind="vertex-cap", vcap_max=3).text)
    calls = Counter()
    with _checked(calls):
        _edge_modes(edge, 0, "0.2", 1)
        _vertex_modes(vertex, 0, "0.2", 1)
    assert set(calls) == {(module.__name__, name) for module, name, _ in CHECKS}
