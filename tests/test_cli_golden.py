"""Golden output of the command-line front end.

For every cut command, mode and algorithm on a few small files, plus every
``verify`` problem/mode pair and the wrong-file-kind errors, the exit code
and the printed output must stay the same.  The ``wall_time_s`` line is
dropped because it is the one field that varies between runs.  The
recorded outputs live in ``cli_golden.json`` next to this file.

Regenerate the file only for a deliberate, documented behaviour change:

    PYTHONPATH=src python tests/test_cli_golden.py --write

and list the entries that change, with the fields that differ, by running
the same command with ``--diff`` first (it writes nothing).
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dircut.cli import main

from conftest import golden_main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FILES = {
    "edge-six": (
        "p edge-cap 6 11\na 1 2 3\na 2 3 1\na 3 4 2\na 4 5 4\na 5 6 1\n"
        "a 6 1 2\na 1 4 1\na 3 1 2\na 5 2 3\na 2 6 1\na 6 4 2\n"
    ),
    "edge-zero-parallel": (
        "p edge-cap 5 9\na 1 2 0\na 1 2 2\na 2 3 2\na 3 4 2\na 4 5 1\n"
        "a 5 1 3\na 2 4 0\na 4 2 1\na 3 5 2\n"
    ),
    # capacities at scale 4, whose exact-small searches run flows
    "edge-rational": (
        "p edge-cap 6 11\na 1 2 0.25\na 2 3 3/2\na 3 4 1/2\na 4 5 3/4\na 5 6 1/2\n"
        "a 6 1 1\na 1 4 1\na 3 1 1\na 5 2 5/4\na 2 6 1\na 6 4 0.25\n"
    ),
    "vertex-seven": (
        "p vertex-cap 7 14\na 1 2\na 2 3\na 3 4\na 4 5\na 5 6\na 6 7\na 7 1\n"
        "a 1 4\na 2 5\na 3 6\na 6 2\na 7 3\na 5 1\na 4 7\n"
        "w 1 2\nw 2 1\nw 3 3\nw 4 2\nw 5 1\nw 6 2\nw 7 3\n"
    ),
    "vertex-diamond": (
        "p vertex-cap 5 7\na 1 2\na 1 3\na 2 4\na 3 4\na 4 5\na 5 1\na 2 3\n"
        "w 1 5\nw 2 1\nw 3 2\nw 4 3\nw 5 1\n"
    ),
    "vertex-rational": (
        "p vertex-cap 7 14\na 1 2\na 2 3\na 3 4\na 4 5\na 5 6\na 6 7\na 7 1\n"
        "a 1 4\na 2 5\na 3 6\na 6 2\na 7 3\na 5 1\na 4 7\n"
        "w 1 3/2\nw 2 1/2\nw 3 0.75\nw 4 3/4\nw 5 1/2\nw 6 1\nw 7 0.25\n"
    ),
}

COMMANDS = {"edge-cut": ("edge-six", "edge-zero-parallel", "edge-rational"),
            "vertex-cut": ("vertex-seven", "vertex-diamond", "vertex-rational")}
MODES = {"rooted": ("--rooted", "1"), "global": ("--global",)}
ALGORITHMS = {"approx": (), "exact": ("--exact",), "exact-small": ("--exact-small",)}


def cases():
    """(entry id, argv with file names for paths) of every pinned run."""
    out = []
    for command, files in COMMANDS.items():
        for name in files:
            for mode, mode_args in MODES.items():
                for algorithm, algorithm_args in ALGORITHMS.items():
                    argv = (command, *mode_args, *algorithm_args, "--seed", "3", name)
                    out.append((f"{command}/{mode}/{algorithm}:{name}", argv))
    for problem in ("edge", "vertex"):
        for mode in MODES:
            argv = ("verify", "--problem", problem, "--mode", mode, "--trials", "3",
                    "--n", "7", "--seed", "2")
            out.append((f"verify/{problem}/{mode}", argv))
    out.append(("edge-cut/wrong-kind", ("edge-cut", "--global", "vertex-seven")))
    out.append(("vertex-cut/wrong-kind", ("vertex-cut", "--global", "edge-six")))
    return out


def run(argv):
    """Exit code, stdout lines without the timing line, and stderr lines."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in FILES.items():
            paths[name] = Path(tmp) / f"{name}.gr"
            paths[name].write_text(text)
        args = [str(paths[a]) if a in paths else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
    lines = [line for line in stdout.getvalue().splitlines()
             if not line.startswith("wall_time_s")]
    return {"exit": code, "stdout": lines, "stderr": stderr.getvalue().splitlines()}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", [e for e, _ in cases()])
def test_cli_golden_output(entry):
    assert run(dict(cases())[entry]) == _golden()[entry]


def test_cli_golden_file_covers_every_entry():
    assert sorted(_golden()) == sorted(e for e, _ in cases())


if __name__ == "__main__":
    golden_main(sys.argv[1:], GOLDEN, lambda: {entry: run(argv) for entry, argv in cases()})
