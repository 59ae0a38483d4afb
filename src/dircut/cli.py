"""Command-line front end.

``dircut edge-cut|vertex-cut`` runs one cut computation on a graph file and
prints a line-oriented report (optionally mirrored to a JSON sidecar).
``dircut generate`` writes instances of the built-in families, and
``dircut verify`` sweeps approximation quality against the exact oracle.

Every emitted certificate is re-validated against the raw input file by an
independent re-summation before it is printed.  Exit codes: 0 success,
1 input error (a usage error too), 2 no cut exists, 3 verify gate failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .edgecut import (
    _edge_oracle,
    approx_global_edge_cut,
    approx_rooted_edge_cut,
    as_fraction,
    clamp_epsilon,
    derive_seed,
    exact_small_edge_cut,
)
from .fileio import GraphFileError, format_value, parse_graph, parse_text
from .generators import FAMILIES, generate
from .graph import DiGraph, NoCutExistsError
from .vertexcut import (
    VertexCapGraph,
    _vertex_oracle,
    approx_global_vertex_cut,
    approx_rooted_vertex_cut,
    exact_small_vertex_cut,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (argparse's exit 2) or --help
        return 1 if exc.code else 0
    try:
        return args.handler(args)
    except NoCutExistsError as exc:
        print(f"no cut exists: {exc}", file=sys.stderr)
        return 2
    except (GraphFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dircut",
        description="minimum rooted/global edge and vertex cuts in directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("edge-cut", "vertex-cut"):
        p = sub.add_parser(name, help=f"compute a {name.split('-')[0]} cut")
        p.add_argument("file", help="graph file")
        p.add_argument("--rooted", type=int, metavar="ID",
                       help="rooted mode with this 1-indexed root")
        p.add_argument("--global", dest="global_", action="store_true",
                       help="global minimum cut")
        p.add_argument("--epsilon", default="0.2",
                       help="approximation tolerance (exact rational, default 0.2)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--exact", action="store_true",
                       help="exact oracle (one flow per candidate sink, each stopped "
                            "one above the best cut so far)")
        p.add_argument("--exact-small", action="store_true",
                       help="exact mode for an optimum with a small numerator; "
                            "it finds a cut of the smallest capacity without a flow, "
                            "else searches the levels above it down from the trivial "
                            "cut")
        p.add_argument("--report", metavar="PATH",
                       help="also write the report as JSON")
        p.set_defaults(handler=_cmd_cut)

    g = sub.add_parser("generate", help="write a random instance")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--wmax", type=int)
    g.add_argument("--cap", type=int)
    g.add_argument("--vcap-max", type=int, dest="vcap_max")
    g.add_argument("--kind", choices=("edge-cap", "vertex-cap"))
    g.add_argument("--sink-size", type=int, dest="sink_size")
    g.add_argument("--vol", type=int, dest="volume")
    g.add_argument("--value", type=int)
    g.add_argument("--width", type=int)
    g.add_argument("--out-degree", type=int, dest="out_degree")
    g.add_argument("--hub-out", type=int, dest="hub_out")
    g.add_argument("--no-ensure-strong", dest="ensure_strong",
                   action="store_false", default=None)
    g.set_defaults(handler=_cmd_generate)

    v = sub.add_parser("verify", help="compare approximations to the oracle")
    v.add_argument("--problem", choices=("edge", "vertex"), default="edge")
    v.add_argument("--mode", choices=("rooted", "global"), default="rooted")
    v.add_argument("--family", default="erdos-renyi-digraph", choices=FAMILIES)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--epsilon", default="0.2")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--n", type=int, default=10)
    v.add_argument("--p", type=float)
    v.add_argument("--wmax", type=int)
    v.add_argument("--vcap-max", type=int, dest="vcap_max")
    v.set_defaults(handler=_cmd_verify)
    return parser


# -- run commands ------------------------------------------------------------


def _pick_mode(args, g):
    if (args.rooted is None) == (not args.global_):
        raise ValueError("choose exactly one of --rooted ID / --global")
    if args.exact and args.exact_small:
        raise ValueError("--exact and --exact-small are mutually exclusive")
    if args.rooted is not None:
        if not (1 <= args.rooted <= g.n):
            raise ValueError(f"root {args.rooted} out of range 1..{g.n}")
        return args.rooted - 1
    return None


def _cmd_cut(args) -> int:
    problem = _PROBLEMS[args.command]
    g = parse_graph(args.file)
    if not isinstance(g, problem.graph_type):
        raise ValueError(f"{args.command} needs {problem.file_kind} file")
    root = _pick_mode(args, g)
    eps = as_fraction(args.epsilon)
    started = time.perf_counter()
    if args.exact:
        res = problem.oracle(g, root)
        algorithm = "exact"
    elif args.exact_small:
        res = problem.exact_small(g, root=root, seed=args.seed)
        algorithm = "exact-small"
    else:
        res = problem.approx(g, root, eps, args.seed)
        algorithm = "approx"
    elapsed = time.perf_counter() - started

    orientation, value, rows = problem.revalidate(parse_graph(args.file), res.certificate)
    if value != res.certificate.value:
        raise RuntimeError("internal error: certificate failed file re-validation")
    report = [
        ("problem", args.command),
        ("mode", "rooted" if root is not None else "global"),
        ("algorithm", algorithm),
        ("root", str(root + 1) if root is not None else "-"),
        ("orientation", orientation),
        ("epsilon", str(clamp_epsilon(eps)) if algorithm == "approx" else "-"),
        ("seed", str(args.seed)),
        ("value", format_value(value)),
        *rows,
        ("flow_calls", str(res.flow_calls)),
        ("wall_time_s", f"{elapsed:.6f}"),
    ]
    _emit(report, args.report)
    return 0


def _ids(vertices) -> str:
    return " ".join(str(v + 1) for v in sorted(vertices))


def _emit(report, json_path):
    for key, value in report:
        print(f"{key}: {value}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(dict(report), handle, indent=2, sort_keys=False)
            handle.write("\n")


# -- independent re-validation against the raw file --------------------------


def _revalidate_edge(raw, cert):
    """Recompute the cut value straight from the parsed file ``raw``, no
    library helpers."""
    sink_set = cert.sink_set
    crossing = []
    total = Fraction(0)
    for t, h, c in raw.arcs:
        if cert.orientation == "reverse":
            t, h = h, t
        if h in sink_set and t not in sink_set:
            crossing.append((t, h, raw.value(c)))
            total += raw.value(c)
    return cert.orientation, total, [
        ("sink_size", str(len(sink_set))),
        ("sink", _ids(sink_set)),
        ("crossing", " ".join(f"{u + 1}->{v + 1}={format_value(c)}"
                              for u, v, c in crossing)),
    ]


def _revalidate_vertex(raw, cert):
    """Recompute the separator's value straight from the parsed file
    ``raw``; the value is None unless the separator is the in-neighbourhood
    of the sink."""
    expected = set()
    for t, h in raw.arcs:
        if cert.orientation == "reverse":
            t, h = h, t
        if h in cert.sink_component and t not in cert.sink_component:
            expected.add(t)
    value = sum((raw.value(raw.vcaps[w]) for w in cert.separator), Fraction(0))
    if expected != set(cert.separator):
        value = None
    return cert.orientation, value, [
        ("separator_size", str(len(cert.separator))),
        ("separator", _ids(cert.separator)),
        ("sink", _ids(cert.sink_component)),
    ]


class _Problem(NamedTuple):
    """What the cut commands and ``verify`` need to know about one problem:
    its file kind, its solvers, and its re-validation against the file."""

    graph_type: type
    file_kind: str
    approx_rooted: Callable
    approx_global: Callable
    exact_small: Callable
    oracle: Callable  # (g, root or None) -> result with counted flows
    revalidate: Callable  # (parsed file, certificate) -> (orientation, value, rows)

    def approx(self, g, root, eps, seed):
        """Approximate solve: rooted at ``root``, or global when it is None."""
        if root is None:
            return self.approx_global(g, eps, seed=seed)
        return self.approx_rooted(g, root, eps, seed=seed)


_PROBLEMS = {
    "edge-cut": _Problem(
        DiGraph, "an edge-capacitated", approx_rooted_edge_cut, approx_global_edge_cut,
        exact_small_edge_cut, _edge_oracle, _revalidate_edge,
    ),
    "vertex-cut": _Problem(
        VertexCapGraph, "a vertex-capacitated", approx_rooted_vertex_cut,
        approx_global_vertex_cut, exact_small_vertex_cut, _vertex_oracle,
        _revalidate_vertex,
    ),
}


# -- generate / verify -------------------------------------------------------


def _cmd_generate(args) -> int:
    # every option but the command's own fields is a generator parameter
    params = {key: v for key, v in vars(args).items()
              if v is not None and key not in ("command", "handler", "family", "out", "seed")}
    instance = generate(args.family, seed=args.seed, **params)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(instance.text)
    print(f"generated {args.family} -> {args.out}")
    for key, value in instance.meta.items():
        print(f"{key}: {value}")
    return 0


def _cmd_verify(args) -> int:
    eps = clamp_epsilon(args.epsilon)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    params = {"n": args.n}
    if args.p is not None:
        params["p"] = args.p
    if args.wmax is not None:
        params["wmax"] = args.wmax
    if args.problem == "vertex":
        params["kind"] = "vertex-cap"
        if args.vcap_max is not None:
            params["vcap_max"] = args.vcap_max
        if args.family != "erdos-renyi-digraph":
            raise ValueError("vertex verification uses the erdos-renyi family")
    problem = _PROBLEMS[f"{args.problem}-cut"]
    root = 0 if args.mode == "rooted" else None
    ok = valid = skipped = 0
    print(f"epsilon: {eps}")
    print("trial oracle approx ratio")
    for i in range(args.trials):
        inst = generate(args.family, seed=derive_seed(args.seed, "gen", i), **params)
        g = parse_text(inst.text)
        run_seed = derive_seed(args.seed, "run", i)
        try:
            approx = problem.approx(g, root, eps, run_seed).certificate
            oracle = problem.oracle(g, root).certificate
        except NoCutExistsError as exc:
            print(f"{i} skipped: {exc}")
            skipped += 1
            continue
        _, resummed, _ = problem.revalidate(parse_text(inst.text), approx)
        if resummed == approx.value and approx.value >= oracle.value:
            valid += 1
        if oracle.value == 0:
            ratio = Fraction(1) if approx.value == 0 else None
        else:
            ratio = approx.value / oracle.value
        if ratio is not None and ratio <= 1 + eps:
            ok += 1
        shown = float(ratio) if ratio is not None else float("nan")
        print(f"{i} {format_value(oracle.value)} {format_value(approx.value)} "
              f"{shown:.4f}")
    trials = args.trials - skipped
    if not trials:
        raise NoCutExistsError("no trial has a cut")
    gate = ok >= trials * 0.95 and valid == trials
    skips = f"{skipped} skipped, " if skipped else ""
    print(f"summary: {ok}/{trials} within 1+epsilon, {valid}/{trials} valid, "
          f"{skips}gate={'pass' if gate else 'FAIL'}")
    return 0 if gate else 3


if __name__ == "__main__":
    sys.exit(main())
