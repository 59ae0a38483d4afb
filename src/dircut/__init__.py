"""Approximate and exact minimum rooted/global edge and vertex cuts in
weighted directed graphs, with exact rational arithmetic throughout.

The package exports the solvers and the types they take and return, the
graph-file functions and the generator.  The layers beneath them (max
flow, the Steiner recursion, preconditioning, the split graph, ...) are
imported from their modules, such as ``dircut.maxflow.max_flow`` or
``dircut.steiner.shrink_wrap``; they are not part of the public surface
and may change from one release to the next."""

from .graph import INFINITE, CutCertificate, DiGraph, NoCutExistsError, cut_certificate, reverse
from .edgecut import (
    CutResult,
    approx_global_edge_cut,
    approx_rooted_edge_cut,
    exact_global_edge_cut_oracle,
    exact_rooted_edge_cut_oracle,
    exact_small_edge_cut,
)
from .vertexcut import (
    VertexCapGraph,
    VertexCutCertificate,
    approx_global_vertex_cut,
    approx_rooted_vertex_cut,
    exact_small_vertex_cut,
    exact_vertex_cut_oracle,
)
from .fileio import GraphFileError, parse_graph, parse_text, serialize_graph
from .generators import generate

__all__ = [
    "INFINITE",
    "CutCertificate",
    "DiGraph",
    "NoCutExistsError",
    "cut_certificate",
    "reverse",
    "CutResult",
    "approx_global_edge_cut",
    "approx_rooted_edge_cut",
    "exact_global_edge_cut_oracle",
    "exact_rooted_edge_cut_oracle",
    "exact_small_edge_cut",
    "VertexCapGraph",
    "VertexCutCertificate",
    "approx_global_vertex_cut",
    "approx_rooted_vertex_cut",
    "exact_small_vertex_cut",
    "exact_vertex_cut_oracle",
    "GraphFileError",
    "parse_graph",
    "parse_text",
    "serialize_graph",
    "generate",
]
