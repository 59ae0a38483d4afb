"""The benchmark's workloads: which instances each one generates from the
seed, and which public solver each mode calls on them.

Instance sizes are fixed per workload; only the generator seeds vary with
the workload seed, so runs with different seeds do the same amount of work
on different graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from verify import Answer

EPSILON = "0.2"

#: Modes every run times, in the order each instance runs them.  A traced
#: run also times "approx_t2", approx with threads=2.
MODES = ("approx", "exact_small", "oracle")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    params: dict
    sizes: tuple  # vertex count of each instance in the set
    kind: str  # "edge" or "vertex"
    rooted: bool
    oracle_reps: int  # oracle calls per instance and pass; oracle_s is per call


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-rooted",
            why="large flow networks where the max-flow kernel and graph builds "
            "dominate, on the family where approx should overtake the per-sink oracle",
            family="planted-sink",
            params={"sink_size": 4, "volume": 12, "value": 5},
            sizes=(400,) * 3,
            kind="edge",
            rooted=True,
            oracle_reps=1,
        ),
        Workload(
            name="er-global",
            why="many small global edge cuts with tiny flows, so per-call setup "
            "and search-loop overhead show; supplies the quality metrics",
            family="erdos-renyi-digraph",
            params={"p": 0.3},
            sizes=(12, 14, 16) * 14,
            kind="edge",
            rooted=False,
            oracle_reps=10,
        ),
        Workload(
            name="vertex-global",
            why="vertex-capacitated global cuts, the only workload that runs the "
            "split graph, root sampling, pruning and thousands of tiny groups",
            family="erdos-renyi-digraph",
            params={"p": 0.5, "kind": "vertex-cap", "vcap_max": 3},
            sizes=(10,) * 32,
            kind="vertex",
            rooted=False,
            oracle_reps=16,
        ),
    )
}


def sub_seed(*parts) -> int:
    """Stable 32-bit seed from a label path."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Instance:
    label: str
    text: str
    algo_seed: int


def generate_texts(dc, w: Workload, seed: int) -> list:
    """The workload's instance set for ``seed``, as generated file texts."""
    out = []
    for i, n in enumerate(w.sizes):
        gen_seed = sub_seed(w.name, seed, i, "graph")
        text = dc.generate(w.family, seed=gen_seed, n=n, **w.params).text
        out.append(Instance(f"{w.name}/{seed}/{i}/n{n}", text, sub_seed(w.name, seed, i, "algo")))
    return out


def _edge_answer(cert, orientation, flow_calls=None, probes=None) -> Answer:
    return Answer(cert.value, frozenset(cert.sink_set), None, orientation, flow_calls, probes)


def _vertex_answer(cert, flow_calls=None, probes=None) -> Answer:
    return Answer(
        cert.value, frozenset(cert.sink_component), frozenset(cert.separator),
        cert.orientation, flow_calls, probes,
    )


def solve(dc, w: Workload, mode: str, g, seed: int) -> Answer:
    """Run one mode of the workload on one parsed graph."""
    threads = 2 if mode == "approx_t2" else 1
    if w.kind == "edge" and w.rooted:
        if mode in ("approx", "approx_t2"):
            res = dc.approx_rooted_edge_cut(g, 0, EPSILON, seed=seed, threads=threads)
        elif mode == "exact_small":
            res = dc.exact_small_edge_cut(g, root=0, seed=seed)
        else:
            return _edge_answer(dc.exact_rooted_edge_cut_oracle(g, 0), "forward")
        return _edge_answer(res.certificate, res.orientation, res.flow_calls, len(res.probe_log))
    if w.kind == "edge":
        if mode in ("approx", "approx_t2"):
            res = dc.approx_global_edge_cut(g, EPSILON, seed=seed, threads=threads)
        elif mode == "exact_small":
            res = dc.exact_small_edge_cut(g, seed=seed)
        else:
            return _edge_answer(*dc.exact_global_edge_cut_oracle(g))
        return _edge_answer(res.certificate, res.orientation, res.flow_calls, len(res.probe_log))
    if mode in ("approx", "approx_t2"):
        res = dc.approx_global_vertex_cut(g, EPSILON, seed=seed, threads=threads)
    elif mode == "exact_small":
        res = dc.exact_small_vertex_cut(g, seed=seed)
    else:
        return _vertex_answer(dc.exact_vertex_cut_oracle(g))
    return _vertex_answer(res.certificate, res.flow_calls, len(res.probe_log))
