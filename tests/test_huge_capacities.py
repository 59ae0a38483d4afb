"""Every solver and the command line on capacities beyond float range.

Capacities of 10^400 overflow a float, so the level grid, the root-count
bounds and the capacity-weighted root draw must stay in exact integers
or rationals.  The approximate modes run on the bidirectional 6-cycle.
The exact small-optimum modes binary search one integer level at a time,
which takes about 1330 probes on that cycle, so they run on bridged
graphs whose optimum is their smallest capacity; the global vertex mode
still draws its roots at the tolerance 1/(1 + 2 * 10^400) there.
"""

import pytest

from conftest import cut_value
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
# two bidirectional triangles joined by one arc pair, or sharing vertex 2
EDGE_BRIDGED = DiGraph(6, [(u, v, HUGE) for u, v in _both_ways(
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])])
VERTEX_BRIDGED = VertexCapGraph(5, _both_ways(
    [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), [HUGE] * 5)


def _check_edge(res, g, value):
    sink = res.certificate.sink_set
    if res.orientation == "reverse":
        sink = frozenset(range(g.n)) - sink
    assert res.value == value == cut_value(g, sink)


def _check_vertex(res, g, value):
    cert = res.certificate
    assert res.value == value == sum(g.vcaps[w] for w in cert.separator)
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


def test_cli(tmp_path, capsys):
    edge = tmp_path / "edge.gr"
    edge.write_text("p edge-cap 6 12\n" + "".join(
        f"a {u + 1} {v + 1} {HUGE}\n" for u, v in CYCLE))
    vertex = tmp_path / "vertex.gr"
    vertex.write_text("p vertex-cap 5 12\n" + "".join(
        f"a {u + 1} {v + 1}\n" for u, v in VERTEX_BRIDGED.arcs) + "".join(
        f"w {v} {HUGE}\n" for v in range(1, 6)))
    for argv, value in ((["edge-cut", "--rooted", "1", str(edge)], 2 * HUGE),
                        (["edge-cut", "--global", str(edge)], 2 * HUGE),
                        (["vertex-cut", "--global", str(vertex)], HUGE),
                        (["vertex-cut", "--global", "--exact-small", str(vertex)], HUGE)):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and err == "", (argv, err)
        assert f"value: {value}\n" in out
