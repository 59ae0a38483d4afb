"""Self-test of the benchmark harness at tiny instance sizes.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few small graphs, traced and untraced, and
checks that the harness itself works: metric names match BENCHMARK.json,
answers are checked and deterministic, a corrupted certificate or a raised
exception is counted as a failure, a missing trace target is reported as
absent, and the command fails without a result when the library is absent.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from tracing import TARGETS, Tracer
from verify import CheckError, check_edge, check_vertex, parse_raw
from workloads import WORKLOADS, Instance, solve

TINY = {
    "planted-rooted": {"sizes": (16, 20)},
    "er-global": {"sizes": (6, 7)},
    "vertex-global": {"sizes": (6, 7)},
}


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def rejects(verifier, *args):
    try:
        verifier(*args)
    except CheckError:
        return True
    return False


def test_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {name: w.why for name, w in WORKLOADS.items()},
          "BENCHMARK.json lists every workload with its reason")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "end-to-end metrics match BENCHMARK.json")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
          "per-layer metrics match BENCHMARK.json")


def test_workloads():
    for name, shrink in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], **shrink)
        report, result = run.run(w, 3, 0, 0)
        check(result["correct"] and result["attempted"] == len(run.MODES) * len(w.sizes),
              f"{name}: untraced run answers every operation correctly")
        check(list(result["metrics"]) == [m for m, _ in run.END_TO_END]
              and all(v["value"] > 0 for v in result["metrics"].values()),
              f"{name}: untraced run reports every end-to-end metric, none zero")
        again, _ = run.run(w, 3, 0, 0)
        check(again["deterministic_sha256"] == report["deterministic_sha256"],
              f"{name}: deterministic section repeats")
        other, _ = run.run(w, 4, 0, 0)
        check(other["deterministic"]["instances_sha256"]
              != report["deterministic"]["instances_sha256"],
              f"{name}: another seed gives other instances")
        traced, result = run.run(w, 3, 0, 1)
        metrics = result["metrics"]
        check(result["correct"] and list(metrics) == [m for m, _ in run.per_layer_names()],
              f"{name}: traced run reports every per-layer metric")
        check(metrics["trace.flow_call_mismatches"]["value"] == 0
              and metrics["approx.maxflow.calls"]["value"] > 0,
              f"{name}: wrapped max_flow calls equal the library's flow_calls")
        answers = {k: v for k, v in traced["deterministic"]["answers"].items()
                   if not k.endswith("/approx_t2")}
        check(answers == report["deterministic"]["answers"],
              f"{name}: traced answers equal untraced answers")


def test_verifier():
    w = dataclasses.replace(WORKLOADS["planted-rooted"], **TINY["planted-rooted"])
    dc = run.import_dircut()
    text = dc.generate(w.family, seed=1, n=16, **w.params).text
    raw = parse_raw(text)
    ans = solve(dc, w, "oracle", dc.parse_text(text), 1)
    check(check_edge(raw, ans, 0) == ans.value, "verifier accepts a true edge certificate")
    for bad, what in (
        (dataclasses.replace(ans, value=ans.value + 1), "a wrong value"),
        (dataclasses.replace(ans, sink=ans.sink | {0}), "a sink side holding the root"),
        (dataclasses.replace(ans, orientation="reverse"), "a wrong orientation"),
    ):
        check(rejects(check_edge, raw, bad, 0), f"verifier rejects an edge certificate with {what}")

    w = dataclasses.replace(WORKLOADS["vertex-global"], **TINY["vertex-global"])
    text = dc.generate(w.family, seed=1, n=7, **w.params).text
    raw = parse_raw(text)
    ans = solve(dc, w, "oracle", dc.parse_text(text), 1)
    check(check_vertex(raw, ans) == ans.value, "verifier accepts a true vertex certificate")
    check(rejects(check_vertex, raw, dataclasses.replace(ans, separator=frozenset())),
          "verifier rejects a vertex certificate with a wrong separator")


def test_failures_are_counted():
    w = dataclasses.replace(WORKLOADS["er-global"], **TINY["er-global"])
    dc = run.import_dircut()
    instances = run.generate_texts(dc, w, 1)
    graphs = [dc.parse_text(inst.text) for inst in instances]
    _, _, answers = run.run_pass(dc, w, instances, graphs, run.MODES, 1)
    first = instances[0].label
    answers[first, "oracle"] = (None, ValueError("sink set must be nonempty"))
    exact = answers[first, "exact_small"][0]
    answers[first, "exact_small"] = (dataclasses.replace(exact, value=exact.value + 1), None)
    ledger = run.Ledger(w, instances)
    ledger.check(answers)
    causes = {(f["mode"], f["cause"]) for f in ledger.report()["failures"]}
    check(("oracle", "ValueError: sink set must be nonempty") in causes,
          "an exception is recorded as a failure with its type")
    check(any(mode == "exact_small" and "invalid certificate" in cause for mode, cause in causes),
          "a certificate whose value does not re-sum is a failure")
    check(ledger.attempted == len(run.MODES) * len(instances) and ledger.failed == 2,
          "the other operations still run and pass")


def test_zero_capacity_cut():
    """A graph whose zero-value cut hides behind a zero-capacity arc: every
    mode runs, and whatever raises is listed with its cause."""
    w = dataclasses.replace(WORKLOADS["planted-rooted"], sizes=(3,))
    dc = run.import_dircut()
    inst = Instance("zero-cap", "p edge-cap 3 4\na 1 2 0\na 2 3 5\na 3 1 5\na 1 3 5\n", 1)
    _, _, answers = run.run_pass(dc, w, [inst], [dc.parse_text(inst.text)], run.MODES, 1)
    ledger = run.Ledger(w, [inst])
    ledger.check(answers)
    failures = [f"{f['mode']}: {f['cause']}" for f in ledger.report()["failures"]]
    check(ledger.attempted == len(run.MODES) and len(failures) == ledger.failed,
          f"a zero-capacity cut runs every mode; failures: {failures or 'none'}")


def test_absent_target():
    dc = run.import_dircut()
    original = dc.steiner.max_flow
    tracer = Tracer(TARGETS + (("maxflow", "renamed_flow", "maxflow", None),
                               ("nomodule", "solve", "ghost", None)))
    tracer.install()
    try:
        check(dc.steiner.max_flow is not original and dc.edgecut.max_flow is not original,
              "max_flow is wrapped in every module that binds it")
    finally:
        tracer.uninstall()
    check(tracer.absent == ["maxflow.renamed_flow", "nomodule.solve"]
          and tracer.absent_layers() == ["ghost"],
          "a missing target is reported as absent, not raised")
    check(dc.steiner.max_flow is original and dc.DiGraph.__init__.__name__ == "__init__",
          "uninstall restores every binding")


def test_without_library():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "er-global",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/dircut the command fails and prints no result")


def main():
    test_benchmark_json()
    test_verifier()
    test_failures_are_counted()
    test_zero_capacity_cut()
    test_absent_target()
    test_workloads()
    test_without_library()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
