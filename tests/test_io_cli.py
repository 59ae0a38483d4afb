import argparse
import hashlib
import random
from fractions import Fraction

import pytest

import dircut.cli
from dircut import (
    INFINITE,
    DiGraph,
    VertexCapGraph,
    GraphFileError,
    cut_certificate,
    exact_rooted_edge_cut_oracle,
    generate,
    parse_text,
    serialize_graph,
)
from dircut.cli import _build_parser, main
from dircut.generators import FAMILIES, GeneratedInstance
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


#: One call per input check, with the error it raises and its full message.
INPUT_CHECKS = [
    pytest.param(lambda: generate("cycle", n=1), ValueError, "cycle needs n >= 2",
                 id="cycle n=1"),
    pytest.param(lambda: generate("star", n=1), ValueError, "star needs n >= 2", id="star n=1"),
    pytest.param(lambda: generate("planted-sink", sink_size=1), ValueError,
                 "need at least 2 ambient and 2 sink vertices", id="planted sink_size=1"),
    pytest.param(lambda: generate("planted-sink", sink_size=4, volume=4), ValueError,
                 "volume too small for a strongly connected sink", id="planted volume small"),
    pytest.param(lambda: generate("planted-sink", sink_size=4, volume=14), ValueError,
                 "volume too large for a simple sink component", id="planted volume large"),
    pytest.param(lambda: generate("layered-dag-backarcs", width=0), ValueError,
                 "need n >= 2 and width >= 1", id="layered width=0"),
    pytest.param(lambda: parse_text("p edge-cap 2 x\n"), GraphFileError,
                 "line 1: n and m must be integers", id="p line m not an integer"),
    pytest.param(lambda: parse_text("p vertex-cap 2.5 0\n"), GraphFileError,
                 "line 1: n and m must be integers", id="p line n not an integer"),
    pytest.param(lambda: parse_text("p vertex-cap 2 1\na 1 2\nw 1\n"), GraphFileError,
                 "line 3: expected 'w <vertex> <capacity>'", id="short w line"),
    pytest.param(lambda: parse_text("p vertex-cap 2 1\na 1 2\nw 1 2 3\n"), GraphFileError,
                 "line 3: expected 'w <vertex> <capacity>'", id="long w line"),
    pytest.param(lambda: serialize_graph("p edge-cap 2 0\n"), TypeError,
                 "cannot serialize str", id="serialize a non-graph"),
    pytest.param(lambda: serialize_graph(DiGraph(2, [(0, 1, INFINITE)])), ValueError,
                 "cannot serialize infinite capacities", id="serialize an infinite arc"),
]


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

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


#: Every family at the low and high ends of its parameters' ranges.
FAMILY_BOUNDS = [
    ("cycle", dict(n=2, wmax=1)),
    ("cycle", dict(n=9, wmax=2**70)),
    ("star", dict(n=2, cap=0)),
    ("star", dict(n=9, cap=2**70)),
    ("erdos-renyi-digraph", dict(n=2, p=0, wmax=1, ensure_strong=False)),
    ("erdos-renyi-digraph", dict(n=6, p=1, wmax=2**70)),
    ("erdos-renyi-digraph", dict(n=2, p=0, kind="vertex-cap", vcap_max=1,
                                 ensure_strong=False)),
    ("erdos-renyi-digraph", dict(n=6, p=1, kind="vertex-cap", vcap_max=2**70)),
    ("planted-sink", dict(n=4, sink_size=2, volume=3, value=1, out_degree=1, hub_out=0)),
    ("planted-sink", dict(n=12, sink_size=4, volume=13, value=2**70, out_degree=9)),
    ("layered-dag-backarcs", dict(n=2, width=1, p=0, wmax=1)),
    ("layered-dag-backarcs", dict(n=9, width=9, p=1, wmax=2**70)),
    ("layered-dag-backarcs", dict(n=12, width=4, p=0.5, wmax=10)),
]


def test_family_bounds_cover_every_family():
    assert {family for family, _ in FAMILY_BOUNDS} == set(FAMILIES)


def test_family_names_keep_their_order():
    # FAMILIES is read off the generators' dispatch table; its order is
    # that of --help and of the "choose from" message
    assert FAMILIES == ("erdos-renyi-digraph", "planted-sink", "cycle", "star",
                        "layered-dag-backarcs")
    with pytest.raises(ValueError, match=r"choose from \('erdos-renyi-digraph', "
                                         r"'planted-sink', 'cycle', 'star', "
                                         r"'layered-dag-backarcs'\)"):
        generate("torus")


@pytest.mark.parametrize("family, params", FAMILY_BOUNDS)
def test_generated_files_parse_back(family, params):
    for seed in range(3):
        g = parse_text(generate(family, seed=seed, **params).text)
        assert g.n == params["n"]
        kind = VertexCapGraph if params.get("kind") == "vertex-cap" else DiGraph
        assert isinstance(g, kind)


#: sha256 prefixes of the seed-1 text of each FAMILY_BOUNDS entry, in order.
FAMILY_TEXT_SHA256 = [
    "53f51db30d244410", "319bc0709ce76e1b", "e6feb219eea68bf9", "bb692dc519ff894a",
    "2d30b2e7b223459b", "9ef926aec8f173df", "b2d71927b2c31ddc", "6546e80ecf1aca2f",
    "91ebfdc7e6dddfa5", "9dae28e817982945", "81771d3890c89b40", "fdbb5e92540be53c",
    "66606c8bddd29aad",
]


@pytest.mark.parametrize("family, params, digest", [
    (family, params, digest)
    for (family, params), digest in zip(FAMILY_BOUNDS, FAMILY_TEXT_SHA256, strict=True)
])
def test_generated_texts_pinned(family, params, digest):
    text = generate(family, seed=1, **params).text
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_layered_arcs_go_one_layer_on_or_round_the_cycle():
    # layers {0..3}, {4..7}, {8..11}: each vertex of a layer but the last
    # sends an arc into the next one, and at p = 0.5 some vertex whose
    # cycle arc stays in its layer sends two
    n, width = 12, 4
    for seed in range(5):
        g = parse_text(generate("layered-dag-backarcs", seed=seed, n=n, width=width, p=0.5).text)
        forward = [(u, v) for u, v, _ in g.arcs if v // width == u // width + 1]
        assert all((u, v) in forward or v == (u + 1) % n for u, v, _ in g.arcs)
        fanout = [sum(u == w for u, _ in forward) for w in range(n - width)]
        assert min(fanout) >= 1, (seed, fanout)
        assert any(fanout[w] >= 2 for w in range(n - width) if (w + 1) % width), (seed, fanout)


def test_generated_texts_exact():
    assert generate("planted-sink", seed=1, n=6, sink_size=2, volume=3, value=1).text == (
        "c family planted-sink\nc n 6\nc seed 1\nc planted_value 1\nc volume 3\n"
        "c planted-value 1\nc planted-sink 5 6\np edge-cap 6 12\n"
        "a 1 2 28\na 1 3 15\na 1 4 29\na 2 4 23\na 3 2 22\na 3 4 18\na 4 1 25\n"
        "a 4 2 15\na 5 6 15\na 6 5 15\na 1 5 1\na 6 1 27\n"
    )
    assert generate("erdos-renyi-digraph", seed=1, n=3, kind="vertex-cap").text == (
        "c family erdos-renyi-digraph\nc n 3\nc seed 1\nc strong True\n"
        "p vertex-cap 3 3\na 1 2\na 2 3\na 3 1\nw 1 4\nw 2 2\nw 3 8\n"
    )


@pytest.mark.parametrize("family, params, name", [
    ("star", {"cap": -1}, "cap"),
    ("cycle", {"wmax": 0}, "wmax"),
    ("erdos-renyi-digraph", {"wmax": 0}, "wmax"),
    ("layered-dag-backarcs", {"wmax": -3}, "wmax"),
    ("erdos-renyi-digraph", {"kind": "vertex-cap", "vcap_max": 0}, "vcap_max"),
    ("planted-sink", {"hub_out": -1}, "hub_out"),
    ("layered-dag-backarcs", {"p": 2}, "p"),
    ("layered-dag-backarcs", {"p": -0.5}, "p"),
    ("planted-sink", {"out_degree": -3}, "out_degree"),
    ("cycle", {"caps": []}, "len(caps)"),
    ("cycle", {"caps": [-1, 2]}, "caps"),
    ("erdos-renyi-digraph", {"kind": "vertex"}, "kind"),
    ("planted-sink", {"value": 2.5}, "value"),
    ("erdos-renyi-digraph", {"n": 5, "wmax": 2.5}, "wmax"),
    ("cycle", {"caps": [1.5, 2]}, "caps"),
    ("cycle", {"caps": [2, 1.5]}, "caps"),
    ("star", {"cap": 1.5}, "cap"),
    ("star", {"cap": True}, "cap"),
])
def test_generate_rejects_capacity_parameters_out_of_range(family, params, name, tmp_path,
                                                           capsys):
    # p is a probability and kind one of two names; every other parameter
    # here is an integer with a lower bound
    value = params.get(name)
    integral = type(value) is int or (
        isinstance(value, list) and all(type(c) is int for c in value))
    message = {"p": "p must lie in [0, 1]",
               "kind": "kind must be 'edge-cap' or 'vertex-cap'"}.get(
        name, f"{name} must be at least" if integral or name == "len(caps)"
        else f"{name} must be an integer")
    with pytest.raises(ValueError) as info:
        generate(family, **params)
    assert str(info.value).startswith(message)
    if name in ("len(caps)", "caps", "kind") or message.endswith("an integer"):
        # caps is library-only, --kind accepts only the two names, and the
        # CLI parses the integer options as ints
        return
    argv = ["generate", "--family", family, "--out", str(tmp_path / "g.gr")]
    for key, value in params.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "g.gr").exists()


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
        from dircut.graph import in_volume

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


def test_cli_usage_errors_are_input_errors(tmp_path, capsys):
    """Exit code 2 is reserved for "no cut exists"; a malformed flag is an
    input error and ``--help`` succeeds."""
    path = tmp_path / "c.gr"
    path.write_text("p edge-cap 2 1\na 1 2 1\n")
    for argv in (["edge-cut", "--rooted", "abc", str(path)],
                 ["edge-cut", "--global", "--bogus", str(path)],
                 ["vertex-cut", str(path), "--seed"],
                 ["verify", "--problem", "hyper"],
                 []):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err.splitlines()[-1] and "Traceback" not in err
    assert main(["edge-cut", "--help"]) == 0
    assert "usage: dircut edge-cut" in capsys.readouterr().out


def test_cli_verify_needs_one_trial(capsys):
    for trials in ("0", "-5"):
        assert main(["verify", "--trials", trials, "--n", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trials must be at least 1\n"


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


def test_cli_exact_reports_counted_flow_calls(tmp_path, capsys, monkeypatch):
    import dircut.edgecut

    # both oracles run their flows in the one sink loop of dircut.edgecut
    calls = []
    flow = dircut.edgecut.max_flow
    monkeypatch.setattr(
        dircut.edgecut, "max_flow", lambda *a, **k: calls.append(1) or flow(*a, **k)
    )
    zero = tmp_path / "zero.gr"
    zero.write_text("p edge-cap 3 4\na 1 2 0\na 2 3 5\na 3 1 5\na 1 3 5\n")
    code, out = _run(capsys, "edge-cut", "--rooted", "1", "--exact", str(zero))
    assert code == 0 and "flow_calls: 1" in out.splitlines() and len(calls) == 1

    vertex = tmp_path / "g2.gr"
    vertex.write_text(
        "p vertex-cap 4 4\na 1 2\na 1 3\na 2 4\na 3 4\n"
        "w 1 5\nw 2 1\nw 3 2\nw 4 5\n"
    )
    vcycle = tmp_path / "vc4.gr"
    vcycle.write_text("p vertex-cap 4 5\na 1 2\na 2 3\na 3 4\na 4 1\na 1 3\n")
    c4 = tmp_path / "c4.gr"
    c4.write_text("p edge-cap 4 4\na 1 2 1\na 2 3 2\na 3 4 3\na 4 1 4\n")
    for command, mode, path in (
        ("vertex-cut", ("--rooted", "1"), vertex),
        ("vertex-cut", ("--global",), vcycle),
        ("edge-cut", ("--global",), c4),
    ):
        calls.clear()
        code, out = _run(capsys, command, *mode, "--exact", str(path))
        assert code == 0 and calls
        assert f"flow_calls: {len(calls)}" in out.splitlines()


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


def test_cli_verify_gates_at_the_clamped_epsilon(capsys, monkeypatch):
    """An approximation three times the optimum passes 1+5 but not the
    1+99/100 that the solvers actually run at."""
    from types import SimpleNamespace

    from dircut import cli

    problem = cli._PROBLEMS["edge-cut"]

    def three_times_optimal(g, root, eps, seed):
        # on a directed cycle of unit arcs the optimum is 1, and each of
        # the three runs of this sink costs one arc
        return SimpleNamespace(certificate=cut_certificate(g, [2, 4, 6], root=root))

    monkeypatch.setitem(cli._PROBLEMS, "edge-cut",
                        problem._replace(approx_rooted=three_times_optimal))
    code, out = _run(capsys, "verify", "--problem", "edge", "--mode", "rooted",
                     "--family", "cycle", "--wmax", "1",
                     "--trials", "2", "--n", "7", "--epsilon", "5")
    lines = out.splitlines()
    assert code == 3 and lines[0] == "epsilon: 99/100"
    assert lines[-1] == "summary: 0/2 within 1+epsilon, 2/2 valid, gate=FAIL"


def test_cli_verify_resums_each_certificate(capsys, monkeypatch):
    """A certificate whose claimed value exceeds its real cut, or whose
    separator is not its sink's in-neighbourhood, is not valid, although
    its value is at least the oracle's and within 1+epsilon of it."""
    from dataclasses import replace
    from types import SimpleNamespace

    from dircut import cli

    def overclaimed(problem):
        def approx(g, root, eps, seed):
            cert = problem.oracle(g, root).certificate
            return SimpleNamespace(certificate=replace(cert, value=cert.value * Fraction(11, 10)))
        return approx

    def moved_separator(problem):
        # every capacity is 1, so trading a separator vertex for the root
        # keeps the value
        def approx(g, root, eps, seed):
            cert = problem.oracle(g, root).certificate
            separator = cert.separator - {min(cert.separator)} | {root}
            return SimpleNamespace(certificate=replace(cert, separator=separator))
        return approx

    for kind, stub, flags in (("edge", overclaimed, ()),
                              ("vertex", overclaimed, ()),
                              ("vertex", moved_separator, ("--vcap-max", "1"))):
        problem = cli._PROBLEMS[f"{kind}-cut"]
        monkeypatch.setitem(cli._PROBLEMS, f"{kind}-cut",
                            problem._replace(approx_rooted=stub(problem)))
        code, out = _run(capsys, "verify", "--problem", kind, "--mode", "rooted",
                         "--trials", "3", "--n", "6", *flags)
        assert code == 3, (kind, stub)
        assert out.splitlines()[-1] == "summary: 3/3 within 1+epsilon, 0/3 valid, gate=FAIL"
        monkeypatch.setitem(cli._PROBLEMS, f"{kind}-cut", problem)


@pytest.mark.parametrize("mode, p, trials, seed, skipped", [
    ("rooted", "0.7", 20, 0, [4, 9, 12, 17]),  # the root's out-neighbors cover all
    ("global", "0.95", 5, 0, [0, 4]),  # complete digraphs
], ids=["rooted", "global"])
def test_cli_verify_skips_trials_without_a_cut(capsys, mode, p, trials, seed, skipped):
    """A trial whose graph has no vertex cut is listed as skipped and left
    out of both gate counts; the sweep goes on to the summary."""
    code, out = _run(capsys, "verify", "--problem", "vertex", "--mode", mode, "--n", "6",
                     "--p", p, "--trials", str(trials), "--seed", str(seed))
    lines = out.splitlines()
    assert [int(line.split()[0]) for line in lines if " skipped: " in line] == skipped
    counted = trials - len(skipped)
    assert code == 0 and lines[-1] == (
        f"summary: {counted}/{counted} within 1+epsilon, {counted}/{counted} valid, "
        f"{len(skipped)} skipped, gate=pass")


def test_cli_verify_without_any_cut_exits_2(capsys):
    code = main(["verify", "--problem", "vertex", "--mode", "global", "--n", "3",
                 "--p", "1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 2 and "summary" not in captured.out
    assert captured.err == "no cut exists: no trial has a cut\n"


def test_cli_zero_denominator_epsilon_is_an_input_error(tmp_path, capsys):
    edge = tmp_path / "c3.gr"
    edge.write_text("p edge-cap 3 3\na 1 2 1\na 2 3 2\na 3 1 3\n")
    vertex = tmp_path / "v.gr"
    vertex.write_text("p vertex-cap 4 4\na 1 2\na 1 3\na 2 4\na 3 4\nw 2 1\nw 3 2\n")
    for argv in (("edge-cut", "--global", str(edge)),
                 ("vertex-cut", "--rooted", "1", str(vertex)),
                 ("verify", "--trials", "1", "--n", "5")):
        code = main([*argv, "--epsilon", "1/0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_cli_determinism_across_runs(tmp_path, capsys):
    inst = generate("erdos-renyi-digraph", seed=9, n=10)
    path = tmp_path / "er.gr"
    path.write_text(inst.text)
    runs = []
    for _ in range(3):
        code, out = _run(capsys, "edge-cut", "--global", "--epsilon", "0.2",
                         "--seed", "3", str(path))
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


def test_every_generate_option_reaches_the_generator(tmp_path, monkeypatch, capsys):
    # each generator option of the generate command, given alone, reaches
    # ``generate`` under its dest, so an option added without plumbing fails
    (commands,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = [a for a in commands.choices["generate"]._actions
               if a.option_strings and a.dest not in ("help", "family", "out", "seed")]
    assert len(options) >= 13
    calls = []

    def record(family, seed, **params):
        calls.append(params)
        return GeneratedInstance("", {})

    monkeypatch.setattr(dircut.cli, "generate", record)
    for action in options:
        if action.nargs == 0:  # a flag
            values, expected = [], action.const
        else:
            expected = action.choices[0] if action.choices else action.type("3")
            values = [str(expected)]
        argv = ["generate", "--family", "cycle", "--out", str(tmp_path / "g.gr"),
                action.option_strings[0], *values]
        assert main(argv) == 0
        assert calls.pop() == {action.dest: expected}
    capsys.readouterr()


def test_cli_verify_smoke(capsys):
    code = main(["verify", "--problem", "edge", "--mode", "rooted",
                 "--trials", "5", "--epsilon", "0.2", "--n", "8", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gate=pass" in out
