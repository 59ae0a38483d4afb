"""Every solver and the command line on capacities beyond float range.

Capacities of 10^400 overflow a float, so the level grid, the root-count
bounds and the capacity-weighted root draw must stay in exact integers
or rationals.  Every mode runs on the bidirectional 6-cycle, whose
optimum 2 * 10^400 is its trivial cut.  The exact small-optimum modes
answer a cut at the smallest capacity from a dominator tree and
otherwise gallop down the capacity numerators from one below the
trivial cut, so on that cycle they run 9 edge and 30 vertex flows in
the global modes, pinned here, and stay under a bound of 200 on the
same cycle with capacities (10^400 + 1) / 10^400, whose numerators lie
at scale 10^400.  They also run on bridged graphs whose optimum is their
smallest capacity; the global vertex mode still draws its roots at the
tolerance 1/(1 + 2 * 10^400) there.  Both searches also run over index
ranges longer than 2^63: the integer levels between 2^70 and 4 * 2^70,
and a grid of more than 2^63 levels up to 10^500.
"""

from fractions import Fraction

import pytest

from conftest import brute_min_rooted_cut, cut_value, time_bound
from dircut import (
    DiGraph,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_small_edge_cut,
    exact_small_vertex_cut,
)
from dircut.cli import main

HUGE = 10**400


def _both_ways(pairs):
    return [arc for u, v in pairs for arc in ((u, v), (v, u))]


CYCLE = _both_ways([(i, (i + 1) % 6) for i in range(6)])
EDGE_CYCLE = DiGraph(6, [(u, v, HUGE) for u, v in CYCLE])
VERTEX_CYCLE = VertexCapGraph(6, CYCLE, [HUGE] * 6)
# the same cycle with capacities (10^400 + 1) / 10^400
FINE = Fraction(HUGE + 1, HUGE)
EDGE_FINE = DiGraph(6, [(u, v, HUGE + 1) for u, v in CYCLE], scale=HUGE)
VERTEX_FINE = VertexCapGraph(6, CYCLE, [HUGE + 1] * 6, scale=HUGE)
# two bidirectional triangles joined by one arc pair, or sharing vertex 2
EDGE_BRIDGED = DiGraph(6, [(u, v, HUGE) for u, v in _both_ways(
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])])
VERTEX_BRIDGED = VertexCapGraph(5, _both_ways(
    [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), [HUGE] * 5)
# rooted at 0: smallest capacity 2^70, optimum 3 * 2^70 into {1, 3}, and
# best singleton 4 * 2^70, so 3 * 2^70 integer levels lie between them
WIDE = 2**70
EDGE_WIDE = DiGraph(4, [(0, 2, 4 * WIDE), (1, 2, WIDE), (1, 3, 4 * WIDE),
                        (2, 3, 3 * WIDE), (3, 1, 4 * WIDE)])


def _check_edge(res, g, value):
    sink = res.certificate.sink_set
    if res.orientation == "reverse":
        sink = frozenset(range(g.n)) - sink
    assert res.value == value == cut_value(g, sink)


def _check_vertex(res, g, value):
    cert = res.certificate
    assert res.value == value == Fraction(sum(g.vcaps[w] for w in cert.separator), g.scale)
    assert cert.separator and cert.sink_component
    assert not cert.separator & cert.sink_component


def test_approx_edge_cuts():
    _check_edge(approx_rooted_edge_cut(EDGE_CYCLE, 0, "0.2"), EDGE_CYCLE, 2 * HUGE)
    _check_edge(approx_global_edge_cut(EDGE_CYCLE, "0.2"), EDGE_CYCLE, 2 * HUGE)


def test_approx_vertex_cuts():
    _check_vertex(approx_rooted_vertex_cut(VERTEX_CYCLE, 0, "0.2"), VERTEX_CYCLE, 2 * HUGE)
    _check_vertex(approx_global_vertex_cut(VERTEX_CYCLE, "0.2"), VERTEX_CYCLE, 2 * HUGE)


@pytest.mark.parametrize("root", [0, None], ids=["rooted", "global"])
def test_exact_small_cuts(root):
    _check_edge(exact_small_edge_cut(EDGE_BRIDGED, root=root), EDGE_BRIDGED, HUGE)
    _check_vertex(exact_small_vertex_cut(VERTEX_BRIDGED, root=root), VERTEX_BRIDGED, HUGE)


@pytest.mark.parametrize("root", [0, None], ids=["rooted", "global"])
def test_exact_small_cuts_on_the_cycle(root):
    # the trivial cut is optimal, so the search misses once below it
    with time_bound(10):
        edge = exact_small_edge_cut(EDGE_CYCLE, root=root)
        vertex = exact_small_vertex_cut(VERTEX_CYCLE, root=root)
    _check_edge(edge, EDGE_CYCLE, 2 * HUGE)
    _check_vertex(vertex, VERTEX_CYCLE, 2 * HUGE)
    assert edge.flow_calls <= 200 and vertex.flow_calls <= 200


def test_exact_small_flows_on_the_cycle():
    # the counts that the docstrings of exact_small_edge_cut and
    # exact_small_vertex_cut give for the global cut
    assert exact_small_edge_cut(EDGE_CYCLE).flow_calls == 9
    assert exact_small_vertex_cut(VERTEX_CYCLE).flow_calls == 30


@pytest.mark.parametrize("root", [0, None], ids=["rooted", "global"])
def test_exact_small_cuts_at_a_huge_scale(root):
    # the trivial cut 2 * FINE is optimal, so the search misses once below
    # its numerator
    with time_bound(10):
        edge = exact_small_edge_cut(EDGE_FINE, root=root)
        vertex = exact_small_vertex_cut(VERTEX_FINE, root=root)
    _check_edge(edge, EDGE_FINE, 2 * FINE)
    _check_vertex(vertex, VERTEX_FINE, 2 * FINE)
    assert edge.flow_calls <= 200 and vertex.flow_calls <= 200


def test_exact_small_bisects_more_than_2_to_the_63_levels():
    _check_edge(exact_small_edge_cut(EDGE_WIDE, root=0, seed=2), EDGE_WIDE, 3 * WIDE)


def test_approx_grid_of_more_than_2_to_the_63_levels():
    # about 10^19 grid levels at this tolerance lie between the smallest
    # capacity 1 and the trivial cut 10^500 + 1
    g = DiGraph(3, [(u, v, 1 if (u, v) == (0, 1) else 10**500)
                    for u in range(3) for v in range(3) if u != v])
    epsilon = "2.3e-16"
    opt = brute_min_rooted_cut(g, 0)[0]
    res = approx_rooted_edge_cut(g, 0, epsilon)
    assert cut_value(g, res.certificate.sink_set) == res.value
    assert opt <= res.value <= opt * (1 + Fraction(epsilon))


def test_cli(tmp_path, capsys):
    edge = tmp_path / "edge.gr"
    edge.write_text("p edge-cap 6 12\n" + "".join(
        f"a {u + 1} {v + 1} {HUGE}\n" for u, v in CYCLE))
    vertex = tmp_path / "vertex.gr"
    vertex.write_text("p vertex-cap 5 12\n" + "".join(
        f"a {u + 1} {v + 1}\n" for u, v in VERTEX_BRIDGED.arcs) + "".join(
        f"w {v} {HUGE}\n" for v in range(1, 6)))
    wide = tmp_path / "wide.gr"
    wide.write_text("p edge-cap 4 5\n" + "".join(
        f"a {u + 1} {v + 1} {c}\n" for u, v, c in EDGE_WIDE.arcs))
    for argv, value in ((["edge-cut", "--rooted", "1", str(edge)], 2 * HUGE),
                        (["edge-cut", "--global", str(edge)], 2 * HUGE),
                        (["vertex-cut", "--global", str(vertex)], HUGE),
                        (["vertex-cut", "--global", "--exact-small", str(vertex)], HUGE),
                        (["edge-cut", "--rooted", "1", "--exact-small", "--seed", "2",
                          str(wide)], 3 * WIDE)):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and err == "", (argv, err)
        assert f"value: {value}\n" in out
