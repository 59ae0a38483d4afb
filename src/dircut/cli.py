"""Command-line front end.

``dircut edge-cut|vertex-cut`` runs one cut computation on a graph file and
prints a line-oriented report (optionally mirrored to a JSON sidecar).
``dircut generate`` writes instances of the built-in families, and
``dircut verify`` sweeps approximation quality against the exact oracle.

Every emitted certificate is re-validated against the raw input file by an
independent re-summation before it is printed.  Exit codes: 0 success,
1 input error, 2 no cut exists, 3 verify gate failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .edgecut import (
    approx_global_edge_cut,
    approx_rooted_edge_cut,
    as_fraction,
    clamp_epsilon,
    derive_seed,
    exact_global_edge_cut_oracle,
    exact_rooted_edge_cut_oracle,
    exact_small_edge_cut,
)
from .fileio import GraphFileError, format_value, parse_graph, parse_text
from .generators import FAMILIES, generate
from .graph import DiGraph, NoCutExistsError
from .vertexcut import (
    VertexCapGraph,
    approx_global_vertex_cut,
    approx_rooted_vertex_cut,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
                       help="exact oracle (one flow per candidate sink)")
        p.add_argument("--exact-small", action="store_true",
                       help="exact mode for integer capacities with a small optimum")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; solves run single-threaded")
        p.add_argument("--report", metavar="PATH",
                       help="also write the report as JSON")
        p.set_defaults(handler=_cmd_edge if name == "edge-cut" else _cmd_vertex)

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
    v.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored; solves run single-threaded")
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


def _cmd_edge(args) -> int:
    g = parse_graph(args.file)
    if not isinstance(g, DiGraph):
        raise ValueError("edge-cut needs an edge-capacitated file")
    root = _pick_mode(args, g)
    eps = as_fraction(args.epsilon)
    started = time.perf_counter()
    if args.exact:
        if root is not None:
            cert, orient = exact_rooted_edge_cut_oracle(g, root), "forward"
            calls = g.n - 1
        else:
            cert, orient = exact_global_edge_cut_oracle(g)
            calls = 2 * (g.n - 1)
        algorithm = "exact"
    elif args.exact_small:
        res = exact_small_edge_cut(g, root=root, seed=args.seed)
        cert, orient, calls = res.certificate, res.orientation, res.flow_calls
        algorithm = "exact-small"
    else:
        if root is not None:
            res = approx_rooted_edge_cut(g, root, eps, seed=args.seed)
        else:
            res = approx_global_edge_cut(g, eps, seed=args.seed)
        cert, orient, calls = res.certificate, res.orientation, res.flow_calls
        algorithm = "approx"
    elapsed = time.perf_counter() - started

    value, crossing = _revalidate_edge(args.file, orient, cert.sink_set)
    if value != cert.value:
        raise RuntimeError("internal error: certificate failed file re-validation")
    report = [
        ("problem", "edge-cut"),
        ("mode", "rooted" if root is not None else "global"),
        ("algorithm", algorithm),
        ("root", str(root + 1) if root is not None else "-"),
        ("orientation", orient),
        ("epsilon", str(clamp_epsilon(eps)) if algorithm == "approx" else "-"),
        ("seed", str(args.seed)),
        ("value", format_value(value)),
        ("sink_size", str(len(cert.sink_set))),
        ("sink", _ids(cert.sink_set)),
        ("crossing", " ".join(f"{u + 1}->{v + 1}={format_value(c)}"
                              for u, v, c in crossing)),
        ("flow_calls", str(calls)),
        ("wall_time_s", f"{elapsed:.6f}"),
    ]
    _emit(report, args.report)
    return 0


def _cmd_vertex(args) -> int:
    g = parse_graph(args.file)
    if not isinstance(g, VertexCapGraph):
        raise ValueError("vertex-cut needs a vertex-capacitated file")
    root = _pick_mode(args, g)
    eps = as_fraction(args.epsilon)
    started = time.perf_counter()
    if args.exact:
        cert = exact_vertex_cut_oracle(g, root=root)
        calls = 0
        algorithm = "exact"
    elif args.exact_small:
        res = exact_small_vertex_cut(g, root=root, seed=args.seed)
        cert, calls = res.certificate, res.flow_calls
        algorithm = "exact-small"
    else:
        if root is not None:
            res = approx_rooted_vertex_cut(g, root, eps, seed=args.seed)
        else:
            res = approx_global_vertex_cut(g, eps, seed=args.seed)
        cert, calls = res.certificate, res.flow_calls
        algorithm = "approx"
    elapsed = time.perf_counter() - started

    value = _revalidate_vertex(args.file, cert)
    if value != cert.value:
        raise RuntimeError("internal error: certificate failed file re-validation")
    report = [
        ("problem", "vertex-cut"),
        ("mode", "rooted" if root is not None else "global"),
        ("algorithm", algorithm),
        ("root", str(root + 1) if root is not None else "-"),
        ("orientation", cert.orientation),
        ("epsilon", str(clamp_epsilon(eps)) if algorithm == "approx" else "-"),
        ("seed", str(args.seed)),
        ("value", format_value(value)),
        ("separator_size", str(len(cert.separator))),
        ("separator", _ids(cert.separator)),
        ("sink", _ids(cert.sink_component)),
        ("flow_calls", str(calls)),
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


def _revalidate_edge(path, orientation, sink_set):
    """Recompute the cut value straight from the file, no library helpers."""
    raw = parse_graph(path)
    crossing = []
    total = Fraction(0)
    for t, h, c in raw.arcs:
        if orientation == "reverse":
            t, h = h, t
        if h in sink_set and t not in sink_set:
            crossing.append((t, h, raw.value(c)))
            total += raw.value(c)
    return total, crossing


def _revalidate_vertex(path, cert):
    raw = parse_graph(path)
    expected = set()
    for t, h in raw.arcs:
        if cert.orientation == "reverse":
            t, h = h, t
        if h in cert.sink_component and t not in cert.sink_component:
            expected.add(t)
    if expected != set(cert.separator):
        raise RuntimeError("internal error: separator is not the sink in-neighborhood")
    return sum((raw.value(raw.vcaps[w]) for w in cert.separator), Fraction(0))


# -- generate / verify -------------------------------------------------------


def _cmd_generate(args) -> int:
    params = {}
    for key in ("n", "p", "wmax", "cap", "vcap_max", "kind", "sink_size",
                "volume", "value", "width", "out_degree", "hub_out",
                "ensure_strong"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    instance = generate(args.family, seed=args.seed, **params)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(instance.text)
    print(f"generated {args.family} -> {args.out}")
    for key, value in instance.meta.items():
        print(f"{key}: {value}")
    return 0


def _cmd_verify(args) -> int:
    eps = as_fraction(args.epsilon)
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
    ok = 0
    valid = 0
    print(f"trial oracle approx ratio")
    for i in range(args.trials):
        inst = generate(args.family, seed=derive_seed(args.seed, "gen", i), **params)
        g = parse_text(inst.text)
        run_seed = derive_seed(args.seed, "run", i)
        if args.problem == "edge":
            if args.mode == "rooted":
                approx = approx_rooted_edge_cut(g, 0, eps, seed=run_seed).certificate
                oracle = exact_rooted_edge_cut_oracle(g, 0)
            else:
                approx = approx_global_edge_cut(g, eps, seed=run_seed).certificate
                oracle = exact_global_edge_cut_oracle(g)[0]
        else:
            if args.mode == "rooted":
                approx = approx_rooted_vertex_cut(g, 0, eps, seed=run_seed).certificate
                oracle = exact_vertex_cut_oracle(g, root=0)
            else:
                approx = approx_global_vertex_cut(g, eps, seed=run_seed).certificate
                oracle = exact_vertex_cut_oracle(g)
        if approx.value >= oracle.value:
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
    gate = ok >= args.trials * 0.95 and valid == args.trials
    print(f"summary: {ok}/{args.trials} within 1+epsilon, "
          f"{valid}/{args.trials} valid, gate={'pass' if gate else 'FAIL'}")
    return 0 if gate else 3


if __name__ == "__main__":
    sys.exit(main())
