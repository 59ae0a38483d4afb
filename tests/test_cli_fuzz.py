"""The command line on malformed files and flags.

Every run must end with exit code 0, 1 (input error) or 2 (no cut
exists), never with a traceback.  A failing run writes exactly one
``error:`` or ``no cut exists:`` line to stderr, and exit code 2 comes
only from a well-formed file on which the exact oracle finds no cut
either.  Header vertex counts stay small, so every run is quick.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dircut import NoCutExistsError, parse_text
from dircut.cli import _PROBLEMS, main

from conftest import time_bound

EDGE = "p edge-cap 4 5\na 1 2 3\na 2 3 2\na 3 4 5\na 4 1 1\na 1 3 2\n"
VERTEX = "p vertex-cap 4 5\na 1 2\na 2 3\na 3 4\na 4 1\na 1 3\nw 1 3\nw 2 2\n"

#: Files that are malformed in one way each, by name.
MALFORMED = {
    "nan capacity": "p edge-cap 2 1\na 1 2 nan\n",
    "inf capacity": "p edge-cap 2 1\na 1 2 inf\n",
    "zero denominator": "p edge-cap 2 1\na 1 2 1/0\n",
    "negative capacity": "p edge-cap 2 1\na 1 2 -1\n",
    "negative vertex capacity": "p vertex-cap 2 1\na 1 2\nw 1 -2\n",
    "nan vertex capacity": "p vertex-cap 2 1\na 1 2\nw 2 nan\n",
    "arc id out of range": "p edge-cap 2 1\na 1 3 1\n",
    "arc id zero": "p edge-cap 2 1\na 0 1 1\n",
    "vertex id out of range": "p vertex-cap 2 1\na 1 2\nw 3 1\n",
    "non-integer id": "p edge-cap 2 1\na 1 x 1\n",
    "duplicate p line": "p edge-cap 2 1\np edge-cap 2 1\na 1 2 1\n",
    "duplicate w line": "p vertex-cap 2 1\na 1 2\nw 1 1\nw 1 2\n",
    "w line in an edge file": "p edge-cap 2 1\na 1 2 1\nw 1 1\n",
    "too few arcs": "p edge-cap 3 3\na 1 2 1\na 2 3 1\n",
    "too many arcs": "p edge-cap 3 1\na 1 2 1\na 2 3 1\n",
    "arc before p": "a 1 2 1\np edge-cap 2 1\n",
    "missing p": "c only a comment\n",
    "empty file": "",
    "bad kind": "p flow-cap 2 1\na 1 2 1\n",
    "negative header": "p edge-cap -2 0\n",
    "short arc line": "p edge-cap 2 1\na 1 2\n",
    "long vertex arc line": "p vertex-cap 2 1\na 1 2 5\n",
    "unknown record": "p edge-cap 2 1\na 1 2 1\nz 1\n",
}

#: Argument lists for the cut commands, the file path last.
CUT_MODES = (
    ("edge-cut", "--global"),
    ("edge-cut", "--rooted", "1"),
    ("edge-cut", "--rooted", "2", "--exact-small"),
    ("edge-cut", "--global", "--exact"),
    ("vertex-cut", "--global"),
    ("vertex-cut", "--rooted", "1"),
    ("vertex-cut", "--global", "--exact-small"),
    ("vertex-cut", "--rooted", "2", "--exact"),
)

#: Malformed flags of the cut commands, run on a well-formed file.
BAD_CUT_FLAGS = (
    ("--rooted", "abc"),
    ("--rooted", "0"),
    ("--rooted", "99"),
    ("--rooted", "1", "--global"),
    (),
    ("--global", "--exact", "--exact-small"),
    ("--global", "--epsilon", "nan"),
    ("--global", "--epsilon", "inf"),
    ("--global", "--epsilon", "1/0"),
    ("--global", "--epsilon", "-1"),
    ("--global", "--epsilon", "0"),
    ("--global", "--epsilon", "abc"),
    ("--global", "--seed", "abc"),
    ("--global", "--threads", "two"),  # no such flag
    ("--global", "--bogus"),
    ("--global", "--report"),
    ("--global", "--report", "/nonexistent-dir/report.json"),
)

#: Malformed flags of ``verify``.
BAD_VERIFY_FLAGS = (
    ("--trials", "0"),
    ("--trials", "-5"),
    ("--trials", "abc"),
    ("--n", "abc"),
    ("--n", "1"),
    ("--p", "2"),
    ("--wmax", "0"),
    ("--epsilon", "nan"),
    ("--epsilon", "0"),
    ("--epsilon", "1/0"),
    ("--problem", "hyper"),
    ("--mode", "sideways"),
    ("--family", "no-such-family"),
    ("--problem", "vertex", "--family", "cycle"),
    ("--bogus",),
)


def _run(capsys, argv):
    """Exit code, stdout and stderr of one command-line run."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_error_line(err):
    assert "Traceback" not in err
    lines = [line for line in err.splitlines()
             if "error:" in line or line.startswith("no cut exists:")]
    assert len(lines) == 1, err


def _check_run(capsys, argv, data: bytes):
    """Run the cut command ``argv`` on the file ``argv[-1]`` holding
    ``data`` and check its exit code and stderr."""
    code, _, err = _run(capsys, argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code != 0:
        _assert_one_error_line(err)
    if code == 2:
        assert err.startswith("no cut exists:")
        g = parse_text(data.decode("utf-8"))  # the file is well-formed
        problem = _PROBLEMS[argv[0]]
        root = int(argv[argv.index("--rooted") + 1]) - 1 if "--rooted" in argv else None
        with pytest.raises(NoCutExistsError):
            problem.oracle(g, root)
    return code


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_are_input_errors(name, tmp_path, capsys):
    path = tmp_path / "bad.gr"
    path.write_text(MALFORMED[name])
    for mode in CUT_MODES:
        code, out, err = _run(capsys, [*mode, str(path)])
        assert code == 1 and out == "", (mode, code, err)
        _assert_one_error_line(err)
        assert err.startswith("error:"), err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bytes.gr"
    path.write_bytes(b"p edge-cap 2 1\na 1 2 \xff\xfe\n")
    for mode in CUT_MODES:
        code, out, err = _run(capsys, [*mode, str(path)])
        assert code == 1 and out == ""
        _assert_one_error_line(err)


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, out, err = _run(capsys, ["edge-cut", "--global", str(tmp_path / "none.gr")])
    assert code == 1 and out == ""
    _assert_one_error_line(err)


@pytest.mark.parametrize("command,text", [("edge-cut", EDGE), ("vertex-cut", VERTEX)],
                         ids=["edge", "vertex"])
def test_malformed_cut_flags_are_input_errors(command, text, tmp_path, capsys):
    path = tmp_path / "ok.gr"
    path.write_text(text)
    for flags in BAD_CUT_FLAGS:
        code, _, err = _run(capsys, [command, *flags, str(path)])
        assert code == 1, (flags, code, err)
        _assert_one_error_line(err)


@pytest.mark.parametrize("flags", BAD_VERIFY_FLAGS, ids=" ".join)
def test_malformed_verify_flags_are_input_errors(flags, capsys):
    code, _, err = _run(capsys, ["verify", "--trials", "1", "--n", "4", *flags])
    assert code == 1, (flags, code, err)
    _assert_one_error_line(err)


def test_well_formed_files_without_a_cut_exit_2(tmp_path, capsys):
    complete = tmp_path / "k3.gr"
    complete.write_text("p vertex-cap 3 6\na 1 2\na 2 1\na 1 3\na 3 1\na 2 3\na 3 2\n")
    single = tmp_path / "k1.gr"
    single.write_text("p edge-cap 1 0\n")
    for command, mode, path in (("vertex-cut", ("--global",), complete),
                                ("vertex-cut", ("--rooted", "1", "--exact"), complete),
                                ("edge-cut", ("--global",), single),
                                ("edge-cut", ("--rooted", "1", "--exact-small"), single)):
        assert _check_run(capsys, [command, *mode, str(path)], path.read_bytes()) == 2


#: The bidirectional 6-cycle with unit capacities, arcs as 1-based pairs.
CYCLE_ARCS = [arc for u in range(1, 7) for arc in ((u, u % 6 + 1), (u % 6 + 1, u))]
CYCLE_FILES = {
    "edge-cut": "p edge-cap 6 12\n" + "".join(f"a {u} {v} 1\n" for u, v in CYCLE_ARCS),
    "vertex-cut": "p vertex-cap 6 12\n" + "".join(f"a {u} {v}\n" for u, v in CYCLE_ARCS)
    + "".join(f"w {v} 1\n" for v in range(1, 7)),
}


@pytest.mark.parametrize("epsilon", ["1e-400", "1e-300"])
@pytest.mark.parametrize("command", sorted(CYCLE_FILES))
def test_tolerance_below_float_grid_is_an_input_error(command, epsilon, tmp_path, capsys):
    # 1 + eps/(2+eps) rounds to 1.0 as a float, so the level grid could not
    # move, and 1e-400 itself floats to 0.0
    path = tmp_path / "cycle.gr"
    path.write_text(CYCLE_FILES[command])
    with time_bound(10):
        code, out, err = _run(capsys, [command, "--global", "--epsilon", epsilon, str(path)])
    assert code == 1 and out == "", (code, err)
    _assert_one_error_line(err)


@pytest.mark.parametrize("epsilon", ["1e-9", "1e-15"])
@pytest.mark.parametrize("command", sorted(CYCLE_FILES))
def test_tiny_tolerance_is_quick(command, epsilon, tmp_path, capsys):
    # about 2 ln(2)/eps grid levels lie between the floor 1 and the value 2,
    # but the search computes only the few it probes
    path = tmp_path / "cycle.gr"
    path.write_text(CYCLE_FILES[command])
    with time_bound(10):
        code, out, err = _run(capsys, [command, "--global", "--epsilon", epsilon, str(path)])
    assert code == 0, (code, err)
    assert "value: 2\n" in out, out


#: Tokens that make a well-formed line malformed.
BAD_TOKENS = st.sampled_from(["nan", "inf", "-1", "1/0", "0", "5", "x", "1.5", ""])


@st.composite
def fuzzed_files(draw):
    """A well-formed file on at most four vertices, often with one or two
    malformations: a bad token, a duplicate ``p``, ``a`` or ``w`` line, a
    wrong arc count, a line moved before ``p``, or a non-UTF-8 byte pair."""
    kind = draw(st.sampled_from(["edge-cap", "vertex-cap"]))
    n = draw(st.integers(1, 4))
    vertex = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    if kind == "edge-cap":
        caps = st.sampled_from(["0", "1", "2", "3/2", "0.25"])
        lines = [f"a {u} {v} {draw(caps)}" for u, v in arcs]
    else:
        lines = [f"a {u} {v}" for u, v in arcs]
        weighted = draw(st.lists(vertex, unique=True))
        lines += [f"w {v} {draw(st.sampled_from(['0', '1', '2', '1/3']))}" for v in weighted]
    lines.insert(0, f"p {kind} {n} {len(arcs)}")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["token", "duplicate", "count", "move"]))
        fields = lines[i].split()
        if how == "token":
            fields[draw(st.integers(1, len(fields) - 1))] = draw(BAD_TOKENS)
            lines[i] = " ".join(fields)
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "count" and fields[0] == "p":
            lines[i] = f"p {kind} {n} {len(arcs) + draw(st.sampled_from([-1, 1]))}"
        elif how == "move":
            lines.insert(0, lines.pop(i))
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    return data


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=fuzzed_files(), mode=st.sampled_from(CUT_MODES))
def test_fuzzed_files_never_trace_back(data, mode, tmp_path, capsys):
    # each example overwrites the file and reads (so resets) the capture
    path = tmp_path / "fuzz.gr"
    path.write_bytes(data)
    _check_run(capsys, [*mode, str(path)], data)
