"""Zero optima are found exactly.

Whenever the exact oracle says a cut of value zero exists, every approx and
exact-small entry point must return value zero as well: the solvers test
for zero cuts through positive-capacity arcs and vertices exactly instead
of leaving them to the probes.
"""

from hypothesis import example, given, settings

from dircut import (
    NoCutExistsError,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_global_edge_cut_oracle,
    exact_rooted_edge_cut_oracle,
    exact_small_edge_cut,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
)

from conftest import zero_heavy_graphs, zero_heavy_vertex_graphs

EPSILON = "0.2"


@settings(max_examples=150)
@given(zero_heavy_graphs())
def test_edge_zero_optimum_is_exact(g):
    if exact_rooted_edge_cut_oracle(g, 0).value == 0:
        assert approx_rooted_edge_cut(g, 0, EPSILON, seed=1).value == 0
        assert exact_small_edge_cut(g, root=0, seed=1).value == 0
    if exact_global_edge_cut_oracle(g)[0].value == 0:
        assert approx_global_edge_cut(g, EPSILON, seed=1).value == 0
        assert exact_small_edge_cut(g, seed=1).value == 0


def _vertex_oracle_value(g, root):
    try:
        return exact_vertex_cut_oracle(g, root).value
    except NoCutExistsError:
        return None


#: Removing zero-capacity vertex 1 cuts {2, 3, 4, 5} off from 0 and 6,
#: while every singleton has a positive in-neighborhood.
HIDDEN_GLOBAL_ZERO = VertexCapGraph(
    7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 6), (1, 0), (4, 2)],
    [1, 0, 1, 2, 2, 2, 1],
)


@settings(max_examples=150)
@given(zero_heavy_vertex_graphs())
@example(HIDDEN_GLOBAL_ZERO)
def test_vertex_zero_optimum_is_exact(g):
    if _vertex_oracle_value(g, 0) == 0:
        assert approx_rooted_vertex_cut(g, 0, EPSILON, seed=1).value == 0
        assert exact_small_vertex_cut(g, root=0, seed=1).value == 0
    if _vertex_oracle_value(g, None) == 0:
        assert approx_global_vertex_cut(g, EPSILON, seed=1).value == 0
        assert exact_small_vertex_cut(g, seed=1).value == 0
