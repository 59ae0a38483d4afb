"""dircut benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  The
instances come from ``dircut.generate`` and ``parse_text``; every solve
goes through a public solver with ``threads=1``.

``--trace 0`` repeats passes over the workload's instance set until the
next pass would end after ``--seconds``, and reports for each mode the sum
over instances of the median time per instance, in reference seconds
(wall time rescaled by a calibration kernel, see calibrate.py).  ``--trace 1`` times one
untraced approx pass with one and with two threads, then one traced pass
of every mode, whatever ``--seconds`` says, and reports the per-layer
counters and self times.  Every answer is re-validated against
the instance text (see verify.py) and exact answers are compared with the
oracle.

Stdout ends with a report (deterministic fields apart from timings, and
every failure with its operation and cause) followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

from calibrate import kernel_time, to_reference
from tracing import LAYERS, Tracer
from verify import CheckError, check_edge, check_vertex, parse_raw
from workloads import EPSILON, MODES, WORKLOADS, generate_texts, solve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11

END_TO_END = (
    ("approx_s", "s"),
    ("exact_small_s", "s"),
    ("oracle_s", "s"),
    ("within_eps_share", "ratio"),
    ("approx_ratio_mean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-mode layer metrics; each is reported as "<mode>.<name>".
LAYER_METRICS = (
    ("maxflow.calls", "count"),
    ("maxflow.arcs", "count"),
    ("maxflow.self_s", "s"),
    ("graph.builds", "count"),
    ("graph.arcs_built", "count"),
    ("graph.contractions", "count"),
    ("graph.contracted_arcs", "count"),
    ("graph.certificates", "count"),
    ("graph.self_s", "s"),
    ("steiner.groups", "count"),
    ("steiner.networks", "count"),
    ("steiner.certified", "count"),
    ("steiner.below", "count"),
    ("steiner.self_s", "s"),
    ("edgecut.probes", "count"),
    ("edgecut.probe_hits", "count"),
    ("edgecut.probe_hit_share", "ratio"),
    ("edgecut.empty_probes", "count"),
    ("edgecut.terminals", "count"),
    ("edgecut.precondition_s", "s"),
    ("edgecut.self_s", "s"),
    ("vertexcut.rooted_calls", "count"),
    ("vertexcut.probes", "count"),
    ("vertexcut.splits", "count"),
    ("vertexcut.prunes", "count"),
    ("vertexcut.roots_sampled", "count"),
    ("vertexcut.self_s", "s"),
)

RUN_METRICS = (
    ("fileio.parse_s", "s"),
    ("fileio.bytes", "bytes"),
    ("generators.generate_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.flow_call_mismatches", "count"),
    ("pool.approx_t2_s", "s"),
    ("pool.t2_over_t1", "ratio"),
)


def per_layer_names():
    """Every per-layer metric (name, unit) a traced run reports."""
    named = [(f"{mode}.{name}", unit) for mode in MODES for name, unit in LAYER_METRICS]
    return named + list(RUN_METRICS)


def import_dircut():
    """Import the library from this checkout's ``src`` afresh."""
    for name in [m for m in sys.modules if m == "dircut" or m.startswith("dircut.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    dc = importlib.import_module("dircut")
    where = os.path.realpath(dc.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"dircut was imported from {where}, not from {SRC}")
    return dc


def setup(w, seed):
    """Import, generate and parse the instance set; returns its time too."""
    t0 = perf_counter()
    dc = import_dircut()
    instances = generate_texts(dc, w, seed)
    graphs = [dc.parse_text(inst.text) for inst in instances]
    return perf_counter() - t0, dc, instances, graphs


def describe(exc) -> str:
    """Exception type and message, plus where it was raised."""
    text = f"{type(exc).__name__}: {exc}"
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        text += f" ({os.path.basename(frames[-1].filename)}:{frames[-1].lineno})"
    return text


def short_hash(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()[:16]


class Ledger:
    """Checks every answer and keeps the deterministic record of a run."""

    def __init__(self, w, instances):
        self.w = w
        self.instances = instances
        self.raw = [parse_raw(inst.text) for inst in instances]
        self.attempted = 0
        self.failures = {}  # (instance, mode, cause) -> occurrences
        self.record = None  # deterministic fields of the first pass
        self.ratios = []  # approx value / oracle value, first pass
        self.within = []

    @property
    def failed(self):
        return sum(self.failures.values())

    def fail(self, label, mode, cause):
        key = (label, mode, cause)
        self.failures[key] = self.failures.get(key, 0) + 1

    def check(self, answers):
        """Check one pass worth of ``answers[label, mode] = (answer, error)``."""
        record = {}
        first = self.record is None
        for inst, raw in zip(self.instances, self.raw):
            values = {}
            modes = sorted(mode for label, mode in answers if label == inst.label)
            for mode in modes:
                self.attempted += 1
                ans, err = answers[inst.label, mode]
                if err is not None:
                    self.fail(inst.label, mode, describe(err))
                    continue
                try:
                    if self.w.kind == "edge":
                        values[mode] = check_edge(raw, ans, 0 if self.w.rooted else None)
                    else:
                        values[mode] = check_vertex(raw, ans)
                except CheckError as exc:
                    self.fail(inst.label, mode, f"invalid certificate: {exc}")
                    continue
                record[f"{inst.label}/{mode}"] = {
                    "value": str(ans.value),
                    "sink_sha": short_hash(ans.sink),
                    "orientation": ans.orientation,
                    "flow_calls": ans.flow_calls,
                    "probes": ans.probes,
                }
            self._compare(inst.label, answers, values, first)
        if first:
            self.record = record
        elif record != self.record:
            self.fail("*", "*", "answers changed between passes")

    def _compare(self, label, answers, values, first):
        if "approx_t2" in values and "approx" in values:
            a, b = answers[label, "approx"][0], answers[label, "approx_t2"][0]
            if (a.value, a.sink, a.orientation) != (b.value, b.sink, b.orientation):
                self.fail(label, "approx_t2", "answer differs from threads=1")
        oracle = values.get("oracle")
        if oracle is None:
            return
        exact = values.get("exact_small")
        if exact is not None and exact > oracle:
            self.fail(label, "exact_small", f"value {exact} above oracle {oracle}")
        for mode in ("exact_small", "approx"):
            if values.get(mode) is not None and values[mode] < oracle:
                self.fail(label, "oracle", f"{mode} found {values[mode]} below oracle {oracle}")
        approx = values.get("approx")
        if first and approx is not None:
            self.within.append(approx <= (1 + Fraction(EPSILON)) * oracle)
            self.ratios.append(approx / oracle if oracle else Fraction(approx == 0))

    def report(self):
        failures = [
            {"instance": label, "mode": mode, "cause": cause, "count": count}
            for (label, mode, cause), count in sorted(self.failures.items())
        ]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / self.attempted if self.attempted else 1.0,
            "failures": failures,
        }


def solve_timed(dc, w, mode, g, seed, reps):
    t0 = perf_counter()
    try:
        for _ in range(reps):
            ans = solve(dc, w, mode, g, seed)
    except Exception as exc:  # recorded as a failed operation; the run goes on
        return perf_counter() - t0, (None, exc)
    return (perf_counter() - t0) / reps, (ans, None)


def run_pass(dc, w, instances, graphs, modes, oracle_reps):
    """Solve every instance in every mode once.  Returns raw wall times,
    the same rescaled to reference seconds (see calibrate.py), and the
    answers."""
    raw = {mode: [] for mode in modes}
    ref = {mode: [] for mode in modes}
    answers = {}
    before = kernel_time()
    for inst, g in zip(instances, graphs):
        for mode in modes:
            reps = oracle_reps if mode == "oracle" else 1
            elapsed, answers[inst.label, mode] = solve_timed(dc, w, mode, g, inst.algo_seed, reps)
            after = kernel_time()
            raw[mode].append(elapsed)
            ref[mode].append(to_reference(elapsed, before, after))
            before = after
    return raw, ref, answers


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(w, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = kernel_time()
        elapsed, dc, instances, graphs = setup(w, seed)
        setups.append((elapsed, to_reference(elapsed, before, kernel_time())))
    ledger = Ledger(w, instances)
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        raw, ref, answers = run_pass(dc, w, instances, graphs, MODES, w.oracle_reps)
        ledger.check(answers)
        passes.append((raw, ref))
        now = perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    totals = {
        mode: sum(
            statistics.median(ref[mode][i] for _, ref in passes) for i in range(len(instances))
        )
        for mode in MODES
    }
    within = ledger.within
    values = {
        "approx_s": totals["approx"],
        "exact_small_s": totals["exact_small"],
        "oracle_s": totals["oracle"],
        "within_eps_share": sum(within) / len(within) if within else 0.0,
        "approx_ratio_mean": float(statistics.fmean(ledger.ratios)) if ledger.ratios else 0.0,
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "passes": len(passes),
        "pass_wall_s": {mode: [sum(raw[mode]) for raw, _ in passes] for mode in MODES},
        "pass_reference_s": {mode: [sum(ref[mode]) for _, ref in passes] for mode in MODES},
        "setup_wall_s": [raw for raw, _ in setups],
        "crossover_oracle_over_approx": totals["oracle"] / totals["approx"],
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return ledger, instances, report, metrics


def traced_run(w, seed, seconds):
    _, dc, instances, graphs = setup(w, seed)
    ledger = Ledger(w, instances)
    untraced = {}
    answers = {}
    for mode in ("approx", "approx_t2"):
        gc.collect()
        raw, _, found = run_pass(dc, w, instances, graphs, (mode,), 1)
        untraced[mode] = sum(raw[mode])
        answers.update(found)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_mode("setup")
        traced_texts = generate_texts(dc, w, seed)
        for inst in traced_texts:
            dc.parse_text(inst.text)
        mismatches = []
        gc.collect()
        for inst, g in zip(instances, graphs):
            for mode in MODES:
                tracer.set_mode(mode)
                counts = tracer.counts[mode]
                before = counts["maxflow.calls"]
                with tracer.span(f"mode.{mode}", "bench"):
                    _, found = solve_timed(dc, w, mode, g, inst.algo_seed, 1)
                if mode == "approx" and found[0] != answers[inst.label, mode][0]:
                    ledger.fail(inst.label, mode, "traced answer differs from untraced")
                answers[inst.label, mode] = found
                wrapped = counts["maxflow.calls"] - before
                ans = found[0]
                if mode != "oracle" and ans is not None and ans.flow_calls != wrapped:
                    mismatches.append({
                        "workload": w.name, "instance": inst.label, "mode": mode,
                        "flow_calls": ans.flow_calls, "wrapped_max_flow_calls": wrapped,
                    })
                    ledger.fail(inst.label, mode, f"flow_calls {ans.flow_calls} but max_flow ran {wrapped} times")
    finally:
        tracer.uninstall()
    ledger.check(answers)
    if [i.text for i in traced_texts] != [i.text for i in instances]:
        ledger.fail("*", "setup", "generation is not deterministic")

    self_time, inclusive = tracer.times()
    metrics = {}
    for mode in MODES:
        c = tracer.counts[mode]
        c["edgecut.probe_hit_share"] = c["edgecut.probe_hits"] / c["edgecut.probes"] if c["edgecut.probes"] else 0.0
        c["edgecut.precondition_s"] = inclusive[mode, "edgecut.precondition_rooted"]
        for layer in LAYERS:
            c[f"{layer}.self_s"] = self_time[mode, layer]
        for name, unit in LAYER_METRICS:
            metrics[f"{mode}.{name}"] = metric(c[name], unit)
    traced_approx = inclusive["approx", "mode.approx"]
    run_values = {
        "fileio.parse_s": inclusive["setup", "fileio.parse_text"],
        "fileio.bytes": tracer.counts["setup"]["fileio.bytes"],
        "generators.generate_s": inclusive["setup", "generators.generate"],
        "trace.overhead_s": traced_approx - untraced["approx"],
        "trace.flow_call_mismatches": len(mismatches),
        "pool.approx_t2_s": untraced["approx_t2"],
        "pool.t2_over_t1": untraced["approx_t2"] / untraced["approx"],
    }
    for name, unit in RUN_METRICS:
        metrics[name] = metric(run_values[name], unit)
    report = {
        "spans": len(tracer.start),
        "untraced_s": untraced,
        "traced_approx_s": traced_approx,
        "absent_targets": tracer.absent,
        "absent_layers": tracer.absent_layers(),
        "flow_call_mismatches": mismatches,
        "counts": {
            mode: {k: v for k, v in sorted(tracer.counts[mode].items()) if not k.endswith("_s")}
            for mode in (*MODES, "setup")
        },
    }
    return ledger, instances, report, metrics


def run(w, seed, seconds, trace):
    """Run one workload; returns (report, result line)."""
    runner = traced_run if trace else untraced_run
    ledger, instances, timing, metrics = runner(w, seed, seconds)
    checks = ledger.report()
    deterministic = {
        "instances_sha256": hashlib.sha256("".join(i.text for i in instances).encode()).hexdigest(),
        "answers": ledger.record,
    }
    if trace:
        deterministic["layer_counts"] = timing.pop("counts")
    report = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "deterministic": deterministic,
        "deterministic_sha256": hashlib.sha256(
            json.dumps(deterministic, sort_keys=True).encode()
        ).hexdigest(),
        "timing": timing,
        "checks": checks,
    }
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        import_dircut()
    except ImportError as exc:
        print(f"cannot import dircut from {SRC}: {exc}", file=sys.stderr)
        return 2
    report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
