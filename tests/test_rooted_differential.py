"""Differential test of the four rooted entry points against brute force.

On small graphs, half of them with half the capacities zero and half
with positive capacities only (so that the searches run), every
certificate re-sums to its value and keeps the root out of its sink;
exact-small returns the brute-force optimum; approx lies in
[opt, (1+epsilon)*opt]; both also at a rational scale; and
NoCutExistsError is raised exactly when no admissible sink exists.  The
edge entry points also run on graphs with parallel, zero, near-2^70 and
infinite arcs at scales 1-3, half of them drawn so that the searches
probe, and the vertex entry points on capacities up to 2^70+2.  A root outside 0..n-1 is a ValueError at all
six rooted entry points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_rooted_edge_cut_oracle,
    exact_small_edge_cut,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
)

from conftest import (
    brute_min_rooted_cut,
    brute_min_separator,
    cut_value,
    probing_graphs,
    probing_vertex_graphs,
    tiny_graphs,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)

EPSILON = "0.2"
FACTOR = 1 + Fraction(EPSILON)
POSITIVE = st.integers(1, 9)
#: Vertex capacities up to 2^70+2, zero-heavy and positive.
HUGE = st.sampled_from([0, 0, 1, 2**70])
HUGE_POSITIVE = st.sampled_from([1, 2**70, 2**70 + 1, 2**70 + 2])


def _assert_valid_edge_cut(g, res):
    sink = res.certificate.sink_set
    assert sink and 0 not in sink
    assert res.orientation == "forward"
    assert cut_value(g, sink) == res.value


@settings(max_examples=300)
@given(st.one_of(zero_heavy_graphs(), zero_heavy_graphs(caps=POSITIVE)))
def test_rooted_edge_entry_points(g):
    opt = brute_min_rooted_cut(g, 0)[0]
    approx = approx_rooted_edge_cut(g, 0, EPSILON, seed=1)
    small = exact_small_edge_cut(g, root=0, seed=1)
    for res in (approx, small):
        _assert_valid_edge_cut(g, res)
    assert small.value == opt
    assert opt <= approx.value <= opt * FACTOR


@settings(max_examples=100)
@given(zero_heavy_graphs(caps=POSITIVE), st.integers(2, 7))
def test_rooted_edge_approx_at_a_rational_scale(g, scale):
    g = DiGraph(g.n, g.arcs, scale=scale)
    opt = brute_min_rooted_cut(g, 0)[0]
    approx = approx_rooted_edge_cut(g, 0, EPSILON, seed=1)
    _assert_valid_edge_cut(g, approx)
    assert opt <= approx.value <= opt * FACTOR


@settings(max_examples=150, deadline=None)
@given(st.one_of(tiny_graphs(), probing_graphs()), st.booleans())
def test_rooted_edge_entry_points_on_infinite_and_huge_arcs(g, cycle):
    # zero, near-2^70, INFINITE and parallel arcs reach every probe's
    # infinite sentinel; a cycle of unit arcs rules out zero cuts, so the
    # searches run
    if cycle:
        g = DiGraph(g.n, g.arcs_as_input() + [(v, (v + 1) % g.n, g.scale) for v in range(g.n)],
                    scale=g.scale)
    opt = brute_min_rooted_cut(g, 0)[0]
    runs = ((approx_rooted_edge_cut(g, 0, EPSILON, seed=1), FACTOR),
            (exact_small_edge_cut(g, root=0, seed=1), 1))
    for res, factor in runs:
        sink = res.certificate.sink_set
        assert sink and 0 not in sink
        assert res.orientation == "forward"
        if opt < g.value(g.inf_value):
            # a finite cut exists, and the answer is one within the factor
            assert cut_value(g, sink) == res.value
            assert opt <= res.value <= opt * factor
        else:
            # every cut crosses an infinite arc, and so does the answer
            assert any(i in g.inf_arcs for i, (t, h, _) in enumerate(g.arcs)
                       if h in sink and t not in sink)


def _assert_valid_rooted_vertex_cut(g, cert):
    sink, sep = cert.sink_component, cert.separator
    assert sink and 0 not in sink and 0 not in sep and not sink & sep
    assert cert.orientation == "forward"
    assert {u for u, v in g.arcs if v in sink and u not in sink} == set(sep)
    assert Fraction(sum(g.vcaps[w] for w in sep), g.scale) == cert.value


def _check_rooted_vertex_entry_points(g):
    # separators exist only for sinks that are not out-neighbours of the root
    values = [brute_min_separator(g, 0, t) for t in range(1, g.n)]
    values = [v for v in values if v is not None]
    if not values:
        with pytest.raises(NoCutExistsError):
            approx_rooted_vertex_cut(g, 0, EPSILON, seed=1)
        with pytest.raises(NoCutExistsError):
            exact_small_vertex_cut(g, root=0, seed=1)
        return
    opt = min(values)
    approx = approx_rooted_vertex_cut(g, 0, EPSILON, seed=1)
    small = exact_small_vertex_cut(g, root=0, seed=1)
    for res in (approx, small):
        _assert_valid_rooted_vertex_cut(g, res.certificate)
    assert small.value == opt
    assert opt <= approx.value <= opt * FACTOR


@settings(max_examples=300)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)))
def test_rooted_vertex_entry_points(g):
    _check_rooted_vertex_entry_points(g)


@settings(max_examples=100, deadline=None)
@given(st.one_of(zero_heavy_vertex_graphs(caps=HUGE),
                 zero_heavy_vertex_graphs(caps=HUGE_POSITIVE),
                 probing_vertex_graphs(caps=HUGE_POSITIVE)))
def test_rooted_vertex_entry_points_on_huge_capacities(g):
    _check_rooted_vertex_entry_points(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE),
                 probing_vertex_graphs(caps=POSITIVE)), st.integers(2, 7))
def test_rooted_vertex_entry_points_at_a_rational_scale(g, scale):
    _check_rooted_vertex_entry_points(VertexCapGraph(g.n, g.arcs, g.vcaps, scale))


ROOTED_ENTRY_POINTS = {
    "approx edge": lambda g, r: approx_rooted_edge_cut(g, r, EPSILON),
    "exact-small edge": lambda g, r: exact_small_edge_cut(g, root=r),
    "oracle edge": exact_rooted_edge_cut_oracle,
    "approx vertex": lambda g, r: approx_rooted_vertex_cut(g, r, EPSILON),
    "exact-small vertex": lambda g, r: exact_small_vertex_cut(g, root=r),
    "oracle vertex": lambda g, r: exact_vertex_cut_oracle(g, root=r),
}


def _root_check_graph(entry):
    if entry.endswith("edge"):
        return DiGraph(4, [(0, 1, 5), (1, 2, 5), (2, 3, 1), (3, 0, 5), (0, 2, 5), (1, 0, 5)])
    return VertexCapGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 0)], [5, 5, 1, 5])


@pytest.mark.parametrize("root", [-1, 4])
@pytest.mark.parametrize("entry", sorted(ROOTED_ENTRY_POINTS))
def test_root_out_of_range_is_a_value_error(entry, root):
    # a root of -1 would index vertex 3, whose best cut (value 5) differs
    # from the sink {3} of value 1 that root 0 sees
    with pytest.raises(ValueError, match=rf"^root {root} out of range 0\.\.3$"):
        ROOTED_ENTRY_POINTS[entry](_root_check_graph(entry), root)


@pytest.mark.parametrize("root", [1.0, True])
@pytest.mark.parametrize("entry", sorted(ROOTED_ENTRY_POINTS))
def test_root_that_is_not_an_int_is_a_type_error(entry, root):
    # a float root would fail deep inside the solve, and True would be
    # solved as vertex 1
    with pytest.raises(TypeError, match=rf"^root must be int, not {type(root).__name__}$"):
        ROOTED_ENTRY_POINTS[entry](_root_check_graph(entry), root)
