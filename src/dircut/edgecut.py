"""Approximate rooted and global minimum edge cuts, and the probe and
search drivers that the vertex-cut module shares.

The pipeline for one probe: precondition the graph with cheap root-to-vertex
arcs so every rooted cut value dominates its sink in-volume, truncate the
original weights into a polynomial band, sample terminals with probability
proportional to in-degree, and run the shrink-wrap recursion at a slightly
inflated connectivity target (``probe``).  Any cut that comes back is
re-evaluated against the untruncated input capacities, so returned
certificates are always valid regardless of randomness; the probability
statements only govern how good they are.

``probe_level`` runs the probe at every in-volume guess of one level.  The
approximate modes binary search a geometric grid of levels
(``level_search``); the grid ratio and the per-probe inflation are both
set to epsilon/(2+epsilon) so that their product stays within the
requested (1+epsilon) factor end to end.  The exact small-optimum modes
search integer levels instead (``integer_search``).  Vertex cuts run the
same drivers with a probe on the split graph.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    INFINITE,
    CutCertificate,
    DiGraph,
    NoCutExistsError,
    cut_certificate,
    merge_parallel,
    reachable,
    reverse,
)
from .maxflow import max_flow, min_cut_sink_side
from .steiner import Below, SteinerInstance, partition_terminals, shrink_wrap

DEFAULT_SAMPLE_CONST = Fraction(2)


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def as_fraction(x) -> Fraction:
    """Exact rational from int, str, Fraction, or (via repr) float."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def clamp_epsilon(epsilon) -> Fraction:
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if eps >= 1:
        eps = Fraction(99, 100)
    return eps


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of one well-conditioned probe: connectivity guess,
    in-volume guess (a power of two), tolerance, sampling constant, seed."""

    level: Fraction
    volume: int
    epsilon: Fraction
    sample_const: Fraction = DEFAULT_SAMPLE_CONST
    seed: int = 0

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError("level must be positive")
        if self.volume < 1 or self.volume & (self.volume - 1):
            raise ValueError("volume must be a power of two")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class ConditionedGraph:
    """Preconditioned graph plus the conditioning ratio it provably satisfies.

    ``original_arc[i]`` is False exactly for the auxiliary root arcs.  For
    every sink set U the cut into U has capacity at least ``phi`` times the
    in-volume of U measured in ``h`` itself.
    """

    h: DiGraph
    phi: Fraction
    original_arc: tuple
    level: Fraction
    epsilon: Fraction

    def original_in_degrees(self) -> list:
        deg = [0] * self.h.n
        for i, (_, head, _) in enumerate(self.h.arcs):
            if self.original_arc[i]:
                deg[head] += 1
        return deg


def condition_rooted(
    base: DiGraph,
    r: int,
    level: Fraction,
    volume: int,
    epsilon: Fraction,
    aux_divisor: int,
    floor: Fraction,
) -> ConditionedGraph:
    """Shared preconditioning: per-vertex root arcs plus weight truncation.

    Adds an arc (r, v) of capacity epsilon*level*indeg(v)/(aux_divisor*volume)
    for every non-root vertex with positive in-degree, and clamps finite
    original weights into [floor, 2*level].  Infinite arcs are exempt.  The
    provable conditioning ratio, measured against in-volumes of the output
    graph, is epsilon*level/(2*aux_divisor*volume).
    """
    if level <= 0:
        raise ValueError("level must be positive")
    quantum = epsilon * level / (aux_divisor * volume)
    needed = [quantum, floor, level, epsilon * level]
    new_scale = base.scale
    for q in needed:
        new_scale = math.lcm(new_scale, q.denominator)
    factor = new_scale // base.scale
    floor_num = int(floor * new_scale)
    cap_num = int(2 * level * new_scale)
    quantum_num = int(quantum * new_scale)

    arcs = []
    flags = []
    for i, (t, h, c) in enumerate(base.arcs):
        if i in base.inf_arcs:
            arcs.append((t, h, INFINITE))
        else:
            arcs.append((t, h, min(max(c * factor, floor_num), cap_num)))
        flags.append(True)
    for v, deg in enumerate(base.in_degrees()):
        if v != r and deg > 0:
            arcs.append((r, v, quantum_num * deg))
            flags.append(False)
    h = DiGraph(base.n, arcs, scale=new_scale, root=base.root)
    phi = epsilon * level / (2 * aux_divisor * volume)
    return ConditionedGraph(h, phi, tuple(flags), level, epsilon)


def precondition_rooted(
    g: DiGraph, r: int, level, volume: int, epsilon
) -> ConditionedGraph:
    """Edge-cut preconditioning: aux weight eps*level*indeg/(2*volume),
    original weights clamped into [eps*level/(2m), 2*level]."""
    level = as_fraction(level)
    epsilon = as_fraction(epsilon)
    floor = epsilon * level / (2 * max(g.m, 1))
    return condition_rooted(g, r, level, volume, epsilon, 2, floor)


def sample_terminals(cond: ConditionedGraph, r: int, volume: int, sample_const, rng):
    """Each non-root vertex independently with probability
    min(1, sample_const * ln(n) * indeg(v) / volume), using in-degrees of
    the original (non-auxiliary) arcs.  Deterministic given the rng state."""
    n = cond.h.n
    scale = float(as_fraction(sample_const)) * math.log(n) / volume
    picked = []
    deg = cond.original_in_degrees()
    for v in range(n):
        if v == r or deg[v] == 0:
            continue
        if rng.random() < min(1.0, scale * deg[v]):
            picked.append(v)
    return frozenset(picked)


@dataclass
class ProbeReport:
    certificate: object
    flow_calls: int
    steiner_stats: tuple


def group_capacity(h: DiGraph, r: int, level_num: int) -> int:
    """Terminal group size for one probe.

    One group's total demand (level per terminal) is kept within half the
    root's effective out-capacity, so groups that are fully connected at
    the probe level certify at the top of the recursion in two flows
    instead of splitting all the way down.  Infinite arcs out of the root
    contribute the finite out-capacity of their heads (in a split graph
    that is the head's own split arc).  Never below the classic
    conditioning-based group size, which this dominates.
    """
    finite_out = [0] * h.n
    for i, (t, _, c) in enumerate(h.arcs):
        if i not in h.inf_arcs:
            finite_out[t] += c
    supply = 0
    for i, (t, head, c) in enumerate(h.arcs):
        if t != r:
            continue
        supply += finite_out[head] if i in h.inf_arcs else c
    return max(1, supply // (2 * level_num))


def _better(a, b):
    """Deterministic minimum of two certificates (None allowed)."""
    if a is None:
        return b
    if b is None:
        return a
    ka = (a.value, len(a.sink_set), tuple(sorted(a.sink_set)))
    kb = (b.value, len(b.sink_set), tuple(sorted(b.sink_set)))
    return a if ka <= kb else b


def probe(h: DiGraph, r: int, terminals, threshold: Fraction, extract,
          better) -> ProbeReport:
    """Shrink-wrap every terminal group of one probe on the conditioned
    graph ``h`` at connectivity target ``threshold``.

    ``extract`` maps the sink set of each cut found to a certificate
    evaluated on the caller's own graph (or None); only certificates of
    value strictly below ``threshold`` are kept, and ``better`` picks the
    best of them.
    """
    if not terminals:
        return ProbeReport(None, 0, ())
    level_num = threshold * h.scale
    assert level_num.denominator == 1
    level_num = int(level_num)
    best = None
    calls = 0
    all_stats = []
    for group in partition_terminals(terminals, group_capacity(h, r, level_num)):
        outcome, stats = shrink_wrap(SteinerInstance(h, r, frozenset(group), level_num))
        calls += stats.raw_flow_calls
        all_stats.append(stats)
        for t in sorted(outcome):
            result = outcome[t]
            if isinstance(result, Below):
                cert = extract(result.cut.sink_set)
                if cert is not None and cert.value < threshold:
                    best = better(best, cert)
    return ProbeReport(best, calls, tuple(all_stats))


def probe_rooted_edge(g: DiGraph, r: int, cfg: ProbeConfig) -> ProbeReport:
    """One preconditioned shrink-wrap probe.

    If a certificate is returned it is a valid rooted cut in ``g`` itself,
    re-evaluated against untruncated capacities, with value strictly below
    (1+epsilon)*level.  Returning nothing is a legitimate outcome.
    """
    cond = precondition_rooted(g, r, cfg.level, cfg.volume, cfg.epsilon)
    rng = random.Random(cfg.seed)
    terminals = sample_terminals(cond, r, cfg.volume, cfg.sample_const, rng)
    threshold = (1 + cfg.epsilon) * as_fraction(cfg.level)
    return probe(
        cond.h, r, terminals, threshold,
        lambda sink: cut_certificate(g, sink, root=r), _better,
    )


def _volume_schedule(m: int) -> list:
    """Powers of two whose half-open windows [v/2, v) cover volumes 1..m."""
    vols = [1]
    while vols[-1] <= m:
        vols.append(vols[-1] * 2)
    return vols


def _geometric_grid(lo: Fraction, hi: Fraction, ratio: Fraction) -> list:
    """Increasing grid from lo to at least hi with consecutive ratio about
    ``ratio``.  Points are exact dyadic snapshots of float arithmetic so
    downstream rescaling stays within small denominators."""
    points = [lo]
    x = float(lo)
    step = float(ratio)
    while points[-1] < hi:
        x *= step
        nxt = Fraction(x)
        if nxt <= points[-1]:  # float stall; exact fallback
            nxt = points[-1] * ratio
        points.append(nxt)
    return points


def _min_singleton_cut(g: DiGraph, r: int) -> CutCertificate:
    best = None
    for t in range(g.n):
        if t == r:
            continue
        best = _better(best, cut_certificate(g, [t], root=r))
    return best


@dataclass
class EdgeCutResult:
    certificate: CutCertificate
    orientation: str
    flow_calls: int
    probe_log: tuple

    @property
    def value(self) -> Fraction:
        return self.certificate.value


def probe_level(run_probe, level, volumes, epsilon, sample_const, seed_parts,
                better, log):
    """Probe one level at every in-volume guess; returns the best
    certificate found (or None) and appends (level, volume, flow calls) per
    probe to ``log``.  ``run_probe`` maps a ProbeConfig to a ProbeReport."""
    best = None
    for j, vol in enumerate(volumes):
        rep = run_probe(ProbeConfig(
            level=level, volume=vol, epsilon=epsilon,
            sample_const=sample_const, seed=derive_seed(*seed_parts, j),
        ))
        log.append((level, vol, rep.flow_calls))
        best = better(best, rep.certificate)
    return best


def level_search(run_probe, best, floor, epsilon, volumes, sample_const,
                 seed_parts, better, log):
    """Binary search a geometric grid of levels for the lowest one whose
    probe finds a cut, improving on the certificate ``best``.

    The grid runs from ``floor * eps_in`` up to ``best.value`` with ratio
    1+eps_in, and each probe runs at tolerance eps_in, where
    eps_in = epsilon/(2+epsilon).  Probes at grid index i are seeded by
    ``(*seed_parts, i)``.
    """
    eps_in = epsilon / (2 + epsilon)
    grid = _geometric_grid(floor * eps_in, best.value, 1 + eps_in)
    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        cert = probe_level(run_probe, grid[mid], volumes, eps_in, sample_const,
                           (*seed_parts, mid), better, log)
        if cert is not None:
            best = better(best, cert)
            hi = mid
        else:
            lo = mid + 1
    return best


def integer_search(probe_at, singleton, better):
    """Exact search over integer levels for integer capacities.

    ``probe_at(level, tag)`` probes at tolerance 1/(1+level), so any
    certificate it returns has a value below level + level/(1+level), that
    is at most ``level``.  Double the level from 1 until a probe returns a
    certificate or the level reaches the positive singleton bound, then
    binary search the integers below the best value found.
    """
    delta = int(singleton.value)
    level = 1
    while (best := probe_at(level, "up")) is None and level < delta:
        level *= 2
    if best is None:
        best = singleton
    lo, hi = 1, int(best.value)
    while lo < hi:
        mid = (lo + hi) // 2
        cert = probe_at(mid, "bin")
        if cert is not None:
            best = better(best, cert)
            hi = int(cert.value)
        else:
            lo = mid + 1
    return best


def _small_probe(run_probe, volumes, sample_const, seed, better, log):
    """``probe_at`` for integer_search on one rooted instance: all volume
    guesses at the integer level, tolerance 1/(1+level), seeded by
    ``(seed, "small", tag, level)``."""
    def probe_at(level, tag):
        return probe_level(run_probe, Fraction(level), volumes, Fraction(1, 1 + level),
                           sample_const, (seed, "small", tag, level), better, log)
    return probe_at


def _total_flow_calls(log) -> int:
    """Total flow calls of a probe log."""
    return sum(calls for _, _, calls in log)


def _rooted_start(g: DiGraph, r: int):
    """Parallel arcs merged, plus the best trivial rooted cut: the zero cut
    onto the vertices the root cannot reach, else the best singleton."""
    gm = merge_parallel(g)
    missing = frozenset(range(gm.n)) - reachable(gm, r)
    if missing:
        return gm, cut_certificate(gm, missing, root=r)
    return gm, _min_singleton_cut(gm, r)


def approx_rooted_edge_cut(
    g: DiGraph,
    r: int,
    epsilon,
    seed: int = 0,
    threads: int = 1,
    sample_const=DEFAULT_SAMPLE_CONST,
) -> EdgeCutResult:
    """Rooted cut of value at most (1+epsilon) times optimal, w.h.p.

    The returned certificate is always a valid rooted cut of ``g``.  If some
    vertex is unreachable from the root the exact zero cut is returned.
    ``threads`` is accepted for compatibility and ignored.
    """
    eps = clamp_epsilon(epsilon)
    sample_const = as_fraction(sample_const)
    if g.n < 2:
        raise NoCutExistsError("graph has no non-root vertex")
    gm, best = _rooted_start(g, r)
    log = []
    positive = [
        c for i, (_, _, c) in enumerate(gm.arcs) if c > 0 and i not in gm.inf_arcs
    ]
    if best.value > 0 and positive:
        best = level_search(
            lambda cfg: probe_rooted_edge(gm, r, cfg), best,
            Fraction(min(positive), gm.scale) / (2 * gm.m), eps,
            _volume_schedule(gm.m), sample_const, (seed, "edge"), _better, log,
        )
    return EdgeCutResult(best, "forward", _total_flow_calls(log), tuple(log))


def _both_orientations(solve_rooted, g: DiGraph, seed) -> EdgeCutResult:
    """Global cut from rooted solves at vertex 0 of the graph and of its
    reversal; the certificate is tagged with its orientation."""
    forward = solve_rooted(g, derive_seed(seed, "fwd"))
    backward = solve_rooted(reverse(g), derive_seed(seed, "rev"))
    total = forward.flow_calls + backward.flow_calls
    log = forward.probe_log + backward.probe_log
    if _better(forward.certificate, backward.certificate) is forward.certificate:
        return EdgeCutResult(forward.certificate, "forward", total, log)
    return EdgeCutResult(backward.certificate, "reverse", total, log)


def approx_global_edge_cut(
    g: DiGraph,
    epsilon,
    seed: int = 0,
    threads: int = 1,
    sample_const=DEFAULT_SAMPLE_CONST,
) -> EdgeCutResult:
    """Global minimum cut: best rooted cut over the graph and its reversal,
    rooted at vertex 0.  The certificate is tagged with its orientation.
    ``threads`` is accepted for compatibility and ignored."""
    if g.n < 2:
        raise NoCutExistsError("need at least two vertices")
    return _both_orientations(
        lambda h, sub_seed: approx_rooted_edge_cut(
            h, 0, epsilon, sub_seed, sample_const=sample_const
        ),
        g, seed,
    )


def exact_rooted_edge_cut_oracle(g: DiGraph, r: int) -> CutCertificate:
    """Exact minimum rooted cut via one max-flow per non-root vertex.  Each
    flow's cut is read from its residual source side, so a zero cut hidden
    behind zero-capacity arcs is found too."""
    if g.n < 2:
        raise NoCutExistsError("graph has no non-root vertex")
    best = None
    for t in range(g.n):
        if t == r:
            continue
        cut = min_cut_sink_side(max_flow(g, r, t))
        if cut.value == 0:
            return cut
        best = _better(best, cut)
    return best


def exact_global_edge_cut_oracle(g: DiGraph):
    """Exact global minimum cut; returns (certificate, orientation)."""
    forward = exact_rooted_edge_cut_oracle(g, 0)
    backward = exact_rooted_edge_cut_oracle(reverse(g), 0)
    if _better(forward, backward) is forward:
        return forward, "forward"
    return backward, "reverse"


def _require_integer_capacities(g: DiGraph):
    for i, (_, _, c) in enumerate(g.arcs):
        if i not in g.inf_arcs and c % g.scale != 0:
            raise ValueError("exact small-connectivity mode needs integer capacities")


def _exact_small_rooted_edge(g, r, seed, sample_const):
    gm, singleton = _rooted_start(g, r)
    if singleton.value == 0:
        return EdgeCutResult(singleton, "forward", 0, ())
    log = []
    probe_at = _small_probe(
        lambda cfg: probe_rooted_edge(gm, r, cfg), _volume_schedule(gm.m),
        sample_const, seed, _better, log,
    )
    best = integer_search(probe_at, singleton, _better)
    return EdgeCutResult(best, "forward", _total_flow_calls(log), tuple(log))


def exact_small_edge_cut(
    g: DiGraph,
    root=None,
    seed: int = 0,
    threads: int = 1,
    sample_const=DEFAULT_SAMPLE_CONST,
) -> EdgeCutResult:
    """Exact minimum cut w.h.p. for integer capacities, efficient when the
    optimum is small: double the level with per-level tolerance 1/(1+level),
    then binary search the integers below the first witnessed level.  At
    integer granularity a (1+1/(1+level))-approximate answer is exact.  A
    probe can miss, so the value is exact only w.h.p.; the certificate is
    always a valid cut.  ``threads`` is accepted for compatibility and
    ignored."""
    _require_integer_capacities(g)
    if g.n < 2:
        raise NoCutExistsError("need at least two vertices")
    sample_const = as_fraction(sample_const)
    if root is not None:
        return _exact_small_rooted_edge(g, root, seed, sample_const)
    return _both_orientations(
        lambda h, sub_seed: _exact_small_rooted_edge(h, 0, sub_seed, sample_const),
        g, seed,
    )
