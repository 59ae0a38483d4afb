import random
from fractions import Fraction

import pytest

from dircut import (
    DiGraph,
    VertexCapGraph,
    GraphFileError,
    exact_rooted_edge_cut_oracle,
    generate,
    parse_text,
    serialize_graph,
)
from dircut.cli import main
from dircut.fileio import format_value

from conftest import rand_digraph, rand_vertex_graph


def test_parse_minimal_edge_file():
    g = parse_text("p edge-cap 2 1\na 1 2 3.5\n")
    assert isinstance(g, DiGraph)
    assert g.n == 2 and g.scale == 2
    assert g.arcs == ((0, 1, 7),)
    assert g.value(g.arcs[0][2]) == Fraction(7, 2)


def test_parse_vertex_file_with_default_caps():
    text = "c sample\np vertex-cap 4 4\na 1 2\na 1 3\na 2 4\na 3 4\nw 2 1\nw 3 2\n"
    g = parse_text(text)
    assert isinstance(g, VertexCapGraph)
    assert g.vcaps == (1, 1, 2, 1)  # unlisted vertices default to 1


def test_parse_errors_name_lines():
    with pytest.raises(GraphFileError) as err:
        parse_text("p edge-cap 2 1\na 1 2 -3\n")
    assert err.value.line == 2
    with pytest.raises(GraphFileError) as err:
        parse_text("p edge-cap 2 1\na 1 5 1\n")
    assert err.value.line == 2
    with pytest.raises(GraphFileError) as err:
        parse_text("x nonsense\n")
    assert err.value.line == 1
    with pytest.raises(GraphFileError):
        parse_text("p edge-cap 2 2\na 1 2 1\n")  # header promises two arcs
    with pytest.raises(GraphFileError):
        parse_text("a 1 2 1\n")  # arc before header
    with pytest.raises(GraphFileError):
        parse_text("p vertex-cap 2 1\na 1 2\nw 1 1\nw 1 2\n")  # duplicate w


def test_self_loops_folded_out():
    g = parse_text("p edge-cap 2 2\na 1 1 5\na 1 2 1\n")
    assert g.arcs == ((0, 1, 1),)


def test_round_trip_edge_and_vertex():
    rng = random.Random(41)
    for _ in range(10):
        g = rand_digraph(rng, rng.randint(2, 8), rng.randint(0, 12))
        assert parse_text(serialize_graph(g)) == g
    for _ in range(10):
        g = rand_vertex_graph(rng, rng.randint(2, 8))
        assert parse_text(serialize_graph(g)) == g


def test_round_trip_fractional_capacities():
    text = "p edge-cap 3 3\na 1 2 0.25\na 2 3 1.5\na 3 1 2\n"
    g = parse_text(text)
    assert g.scale == 4
    assert parse_text(serialize_graph(g)) == g


def test_format_value():
    assert format_value(Fraction(9, 4)) == "2.25"
    assert format_value(Fraction(3)) == "3"
    assert format_value(Fraction(1, 3)) == "1/3"
    assert format_value(Fraction(7, 10)) == "0.7"


def test_generate_deterministic():
    a = generate("erdos-renyi-digraph", seed=5, n=8)
    b = generate("erdos-renyi-digraph", seed=5, n=8)
    assert a.text == b.text and a.meta == b.meta
    c = generate("erdos-renyi-digraph", seed=6, n=8)
    assert c.text != a.text


def test_generate_cycle_matches_example():
    inst = generate("cycle", seed=0, n=3, caps=[1, 2, 3])
    g = parse_text(inst.text)
    assert sorted(g.arcs) == [(0, 1, 1), (1, 2, 2), (2, 0, 3)]


def test_generate_unknown_family():
    with pytest.raises(ValueError):
        generate("no-such-family")
    with pytest.raises(ValueError):
        generate("cycle", n=3, bogus=1)


def test_planted_sink_is_semi_oracle():
    for seed in range(5):
        inst = generate("planted-sink", seed=seed, n=14, sink_size=4,
                        volume=10, value=5)
        g = parse_text(inst.text)
        planted = inst.meta["planted_value"]
        sink = set(inst.meta["sink"])
        oracle = exact_rooted_edge_cut_oracle(g, 0)
        assert oracle.value <= planted
        assert 0 not in sink
        # the planted component itself cuts at exactly the planted value
        from conftest import cut_value

        assert cut_value(g, sink) == planted
        from dircut import in_volume

        assert in_volume(g, sink) == inst.meta["volume"]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _strip_time(out):
    return "\n".join(
        line for line in out.splitlines() if not line.startswith("wall_time")
    )


def test_cli_edge_cut_report(tmp_path, capsys):
    path = tmp_path / "c3.gr"
    path.write_text("p edge-cap 3 3\na 1 2 1\na 2 3 2\na 3 1 3\n")
    code, out = _run(capsys, "edge-cut", "--global", "--epsilon", "0.2",
                     "--seed", "7", str(path))
    assert code == 0
    assert "value: 1" in out
    assert "problem: edge-cut" in out


def test_cli_vertex_cut_report(tmp_path, capsys):
    path = tmp_path / "g2.gr"
    path.write_text(
        "p vertex-cap 4 4\na 1 2\na 1 3\na 2 4\na 3 4\n"
        "w 1 5\nw 2 1\nw 3 2\nw 4 5\n"
    )
    code, out = _run(capsys, "vertex-cut", "--rooted", "1", str(path))
    assert code == 0
    assert "value: 3" in out
    assert "separator: 2 3" in out


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.gr"
    assert main(["edge-cut", "--global", str(missing)]) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.gr"
    bad.write_text("p edge-cap 2 1\na 1 2 -1\n")
    assert main(["edge-cut", "--global", str(bad)]) == 1
    capsys.readouterr()

    k3 = tmp_path / "k3.gr"
    k3.write_text(
        "p vertex-cap 3 6\na 1 2\na 2 1\na 1 3\na 3 1\na 2 3\na 3 2\n"
        "w 1 1\nw 2 1\nw 3 1\n"
    )
    assert main(["vertex-cut", "--global", str(k3)]) == 2
    capsys.readouterr()

    both = tmp_path / "c.gr"
    both.write_text("p edge-cap 2 1\na 1 2 1\n")
    assert main(["edge-cut", "--rooted", "1", "--global", str(both)]) == 1
    capsys.readouterr()


def test_cli_exact_modes(tmp_path, capsys):
    path = tmp_path / "g.gr"
    path.write_text("p edge-cap 3 3\na 1 2 1\na 2 3 2\na 3 1 3\n")
    code, out = _run(capsys, "edge-cut", "--rooted", "1", "--exact", str(path))
    assert code == 0 and "algorithm: exact" in out and "value: 1" in out
    code, out = _run(capsys, "edge-cut", "--global", "--exact-small", str(path))
    assert code == 0 and "value: 1" in out


def test_cli_exact_zero_capacity_cut(tmp_path, capsys):
    path = tmp_path / "zero.gr"
    path.write_text("p edge-cap 3 4\na 1 2 0\na 2 3 5\na 3 1 5\na 1 3 5\n")
    for mode in (("--rooted", "1"), ("--global",)):
        code, out = _run(capsys, "edge-cut", *mode, "--exact", str(path))
        assert code == 0
        assert "value: 0" in out.splitlines()


def test_cli_reports_clamped_epsilon(tmp_path, capsys):
    edge = tmp_path / "c3.gr"
    edge.write_text("p edge-cap 3 3\na 1 2 1\na 2 3 2\na 3 1 3\n")
    vertex = tmp_path / "v.gr"
    vertex.write_text("p vertex-cap 4 4\na 1 2\na 1 3\na 2 4\na 3 4\nw 2 1\nw 3 2\n")
    for command, path in (("edge-cut", edge), ("vertex-cut", vertex)):
        code, out = _run(capsys, command, "--rooted", "1", "--epsilon", "5", str(path))
        assert code == 0 and "epsilon: 99/100" in out.splitlines()
        code, out = _run(capsys, command, "--rooted", "1", "--epsilon", "0.2", str(path))
        assert code == 0 and "epsilon: 1/5" in out.splitlines()


def test_cli_determinism_across_runs_and_threads(tmp_path, capsys):
    inst = generate("erdos-renyi-digraph", seed=9, n=10)
    path = tmp_path / "er.gr"
    path.write_text(inst.text)
    runs = []
    for threads in ("1", "1", "4"):
        code, out = _run(capsys, "edge-cut", "--global", "--epsilon", "0.2",
                         "--seed", "3", "--threads", threads, str(path))
        assert code == 0
        runs.append(_strip_time(out))
    assert runs[0] == runs[1] == runs[2]


def test_cli_generate_and_json_report(tmp_path, capsys):
    out_path = tmp_path / "gen.gr"
    code = main(["generate", "--family", "planted-sink", "--out", str(out_path),
                 "--seed", "2", "--n", "14", "--sink-size", "4",
                 "--vol", "10", "--value", "4"])
    assert code == 0
    capsys.readouterr()
    assert out_path.exists()
    json_path = tmp_path / "report.json"
    code, out = _run(capsys, "edge-cut", "--rooted", "1", "--seed", "1",
                     "--report", str(json_path), str(out_path))
    assert code == 0
    import json as jsonlib

    data = jsonlib.loads(json_path.read_text())
    assert data["problem"] == "edge-cut"
    assert f"value: {data['value']}" in out


def test_cli_verify_smoke(capsys):
    code = main(["verify", "--problem", "edge", "--mode", "rooted",
                 "--trials", "5", "--epsilon", "0.2", "--n", "8", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gate=pass" in out
