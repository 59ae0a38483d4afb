"""Per-layer tracing by wrapping the library's functions from outside.

Each target is a function of one dircut module (its layer).  Installing
the tracer replaces every binding of that function in every ``dircut``
module namespace (the modules import each other's functions by name and
look them up at call time), plus the class attribute for methods.  Each
call records a span (name, mode, start, end, parent) in flat arrays and
updates the counters of the mode being run.  A layer's self time is the
time of its spans minus the time of their child spans.

A target that no longer exists is recorded as absent and skipped, so a
renamed function shows up as a missing layer instead of a crash.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("maxflow", "graph", "steiner", "edgecut", "vertexcut")


def _maxflow_calls(c, site, args, result):
    c["maxflow.calls"] += 1
    c["maxflow.arcs"] += args[0].m


def _graph_build(c, site, args, result):
    c["graph.builds"] += 1
    c["graph.arcs_built"] += args[0].m  # args[0] is the new DiGraph


def _contraction(c, site, args, result):
    c["graph.contractions"] += 1
    c["graph.contracted_arcs"] += result[0].m


def _certificate(c, site, args, result):
    c["graph.certificates"] += 1


def _groups(c, site, args, result):
    c["steiner.groups"] += 1
    for outcome in result[0].values():
        if type(outcome).__name__ == "Below":
            c["steiner.below"] += 1
        else:
            c["steiner.certified"] += 1


def _network(c, site, args, result):
    c["steiner.networks"] += 1


def _probe(c, site, args, result):
    c["edgecut.probes"] += 1
    c["edgecut.probe_hits"] += result.certificate is not None
    c["edgecut.empty_probes"] += not result.steiner_stats


def _terminals(c, site, args, result):
    c["edgecut.terminals"] += len(result)


def _conditioning(c, site, args, result):
    if site == "dircut.vertexcut":
        c["vertexcut.probes"] += 1


def _rooted_vertex(c, site, args, result):
    c["vertexcut.rooted_calls"] += 1


def _split(c, site, args, result):
    c["vertexcut.splits"] += 1


def _prune(c, site, args, result):
    c["vertexcut.prunes"] += 1


def _roots(c, site, args, result):
    c["vertexcut.roots_sampled"] += len(result)


def _parse(c, site, args, result):
    c["fileio.bytes"] += len(args[0].encode())


#: (module, attribute path, layer, counter hook)
TARGETS = (
    ("maxflow", "max_flow", "maxflow", _maxflow_calls),
    ("maxflow", "min_cut_sink_side", "maxflow", None),
    ("graph", "DiGraph.__init__", "graph", _graph_build),
    ("graph", "contract_into_root", "graph", _contraction),
    ("graph", "cut_certificate", "graph", _certificate),
    ("graph", "merge_parallel", "graph", None),
    ("graph", "reverse", "graph", None),
    ("graph", "reachable", "graph", None),
    ("steiner", "shrink_wrap", "steiner", _groups),
    ("steiner", "build_steiner_network", "steiner", _network),
    ("steiner", "partition_terminals", "steiner", None),
    ("edgecut", "approx_rooted_edge_cut", "edgecut", None),
    ("edgecut", "approx_global_edge_cut", "edgecut", None),
    ("edgecut", "exact_small_edge_cut", "edgecut", None),
    ("edgecut", "exact_rooted_edge_cut_oracle", "edgecut", None),
    ("edgecut", "exact_global_edge_cut_oracle", "edgecut", None),
    ("edgecut", "probe_rooted_edge", "edgecut", _probe),
    ("edgecut", "precondition_rooted", "edgecut", None),
    ("edgecut", "condition_rooted", "edgecut", _conditioning),
    ("edgecut", "sample_terminals", "edgecut", _terminals),
    ("vertexcut", "approx_global_vertex_cut", "vertexcut", None),
    ("vertexcut", "approx_rooted_vertex_cut", "vertexcut", _rooted_vertex),
    ("vertexcut", "exact_small_vertex_cut", "vertexcut", None),
    ("vertexcut", "exact_vertex_cut_oracle", "vertexcut", None),
    ("vertexcut", "split_transform", "vertexcut", _split),
    ("vertexcut", "prune_for_root", "vertexcut", _prune),
    ("vertexcut", "sample_roots", "vertexcut", _roots),
    ("fileio", "parse_text", "fileio", _parse),
    ("generators", "generate", "generators", None),
)


class Tracer:
    """Spans and counters for one traced run; ``mode`` names the work
    that calls made now belong to."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []  # span name index -> (name, layer)
        self.modes = []
        self.mode = None
        self.counts = defaultdict(Counter)
        self.name_id = array("i")
        self.mode_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.absent = []

    def set_mode(self, mode):
        if mode not in self.modes:
            self.modes.append(mode)
        self.mode = mode
        self._mode_index = self.modes.index(mode)

    def span(self, name, layer):
        """Open a span around a block; use as a context manager."""
        return _Span(self, self._name_index(name, layer))

    def _name_index(self, name, layer):
        self.names.append((name, layer))
        return len(self.names) - 1

    def _open(self, name_index):
        i = len(self.start)
        self.name_id.append(name_index)
        self.mode_id.append(self._mode_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name, layer, hook, site):
        index = self._name_index(name, layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                hook(self.counts[self.mode], site, args, result)
            return result

        return traced

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "dircut" or name.startswith("dircut.")
        }
        for module, path, layer, hook in self.targets:
            name = f"{module}.{path}"
            home = modules.get(f"dircut.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if owner_name:  # a method: one binding, on its class
                self._patch(owner, attr, self._wrapper(original, name, layer, hook, home.__name__))
                continue
            for site, mod in modules.items():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, self._wrapper(original, name, layer, hook, site))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def absent_layers(self):
        """Layers none of whose targets could be found."""
        present = {layer for module, path, layer, _ in self.targets
                   if f"{module}.{path}" not in self.absent}
        return sorted({target[2] for target in self.targets} - present)

    def times(self):
        """(self seconds, inclusive seconds) keyed by (mode, layer) and by
        (mode, span name) respectively."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_time = defaultdict(float)
        inclusive = defaultdict(float)
        for i in range(n):
            name, layer = self.names[self.name_id[i]]
            mode = self.modes[self.mode_id[i]]
            duration = end[i] - start[i]
            self_time[mode, layer] += duration - child[i]
            inclusive[mode, name] += duration
        return self_time, inclusive


class _Span:
    def __init__(self, tracer, name_index):
        self.tracer = tracer
        self.name_index = name_index

    def __enter__(self):
        self.i = self.tracer._open(self.name_index)

    def __exit__(self, *exc):
        self.tracer._close(self.i)
