"""The package's public surface, and the library functions that the
benchmark's tracer wraps.

``dircut`` exports the solvers and their types; every lower layer is
imported from its module.  ``perfbench/tracing.py`` looks each of its
``TARGETS`` up in its ``dircut`` module and reports a missing one as
absent, so a renamed layer would silently drop out of a traced run; the
test here fails on it on every Python instead.
"""

import importlib
import importlib.util
from pathlib import Path

import dircut

PUBLIC = (
    "INFINITE", "CutCertificate", "DiGraph", "NoCutExistsError", "cut_certificate", "reverse",
    "CutResult", "approx_global_edge_cut", "approx_rooted_edge_cut",
    "exact_global_edge_cut_oracle", "exact_rooted_edge_cut_oracle", "exact_small_edge_cut",
    "VertexCapGraph", "VertexCutCertificate", "approx_global_vertex_cut",
    "approx_rooted_vertex_cut", "exact_small_vertex_cut", "exact_vertex_cut_oracle",
    "GraphFileError", "parse_graph", "parse_text", "serialize_graph", "generate",
)


def test_package_exports_the_solvers_and_their_types():
    assert len(PUBLIC) == 23
    assert sorted(dircut.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from dircut import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # the lookup of Tracer.install: the module dircut.<module>, then each
    # dotted part of the path (a class, then its method)
    absent = []
    for module, path, _, _ in _tracing().TARGETS:
        owner = importlib.import_module(f"dircut.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            absent.append(f"{module}.{path}")
    assert absent == []
