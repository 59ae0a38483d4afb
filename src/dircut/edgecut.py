"""Approximate rooted and global minimum edge cuts, and the probe and
search drivers that the vertex-cut module shares.

The pipeline for one probe: precondition the graph with cheap root-to-vertex
arcs so every rooted cut value dominates its sink in-volume, truncate the
original weights into a polynomial band, sample terminals with probability
proportional to in-degree, and run the shrink-wrap recursion at a slightly
inflated connectivity target (``probe``).  Any cut that comes back is
re-evaluated against the untruncated input capacities, so returned
certificates are always valid regardless of randomness; the probability
statements only govern how good they are.  The probe functions take one
rooted instance as its ``RootedTopology``: every probe of it conditions
the same arcs and computes only its capacities.  Each conditioned graph
owns its residual arrays, built at its first flow, so a probe that runs
no flow builds none.
Before any flow, a probe certifies terminals by credit
(``credit_closure``), the rule by which the exact oracles skip sinks
(``capped_sinks``): starting from the root, a vertex whose arcs from
the root and from certified vertices carry the probe's threshold in the
conditioned graph is certified, since every cut below the threshold
keeps the certified vertices on its source side.  Only the terminals
left run shrink-wrap, and each group's Certified terminals extend the
closure for the groups after it.  Almost every probe misses, so most
need no flow at all; the topology builds the credit lists once, by one
rule that the split graph of the vertex prober shares.

A prober (``level_prober``) binds one rooted instance's sample, probe,
in-volume guesses and probe log once, and probes a level at its in-volume
guesses, largest (cheapest) first, until one returns a certificate.  The
searches only ask whether a cut below the inflated level exists, and any
returned certificate is valid and below it, so the first one answers.
Each guess probes only the sampled terminals that no larger guess of the
same level has probed, and is skipped when none is left: the floor, the
cap and the level do not depend on the volume, and the root arcs grow as
it shrinks, so the conditioned graph of a smaller guess dominates that of
a larger one arc by arc.  A missed terminal has connectivity at least the
probe's threshold, so it misses at every smaller guess too.  A probe hits
exactly when one of its terminals lies below the threshold, so trimming
the sample keeps every probe's hit or miss, and the miss probability is
that of probing every guess in full.  Only which certificate a hit
returns can change, because the terminal groups change.
One search (``bisect_levels``) serves both modes.  It starts at the
trivial cut and gallops down while probes find cuts, so when the trivial
cut is optimal, as it is on most random graphs, one missed probe just
below it ends the search.  After the first miss it bisects the levels
left, which lie above a lower bound on the optimum: the smallest
positive capacity, since zero cuts are found exactly beforehand and
every other cut crosses a positive arc.  Every mode answers that lower
bound first, without a flow: a cut of the smallest positive capacity
crosses one positive arc, whose head dominates the whole sink, so the
preorder dominator tree of the root's positive arcs (``dominator_tree``)
finds it (``_edge_floor_cut``).  Only when there is none does the search
run.  The approximate modes run it on a geometric grid of levels
computed by index and anchored at the trivial cut's value
(``level_search``); the grid ratio and the per-probe inflation are both
epsilon/(2+epsilon), so their product stays within the requested
(1+epsilon) factor.  The exact small-optimum modes run it over the
levels k/scale above the lower bound for integers k, since every cut
value is a multiple of 1/scale (``integer_search``).
Conditioning gives infinite arcs the conditioned graph's own sentinel,
so no probe sees a cut that must cross one; when every cut does, the
searches hand the instance to the capped oracle.  Vertex cuts run the
same drivers with a prober on the split graph.  Certificates of either
kind are compared by their ``rank``.  A global cut runs one search over
a ``union_prober`` of rooted instances (vertex 0 of the graph and of its
reversal, or sampled vertex roots), which stops at the first instance
that returns a certificate and tags it with that instance's orientation.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial

from .graph import (
    CutCertificate,
    DiGraph,
    NoCutExistsError,
    cut_certificate,
    dominator_tree,
    merge_parallel,
    reach,
    reverse,
)
from .maxflow import max_flow, min_cut_sink_side
from .steiner import Below, SteinerInstance, partition_terminals, shrink_wrap


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def as_fraction(x) -> Fraction:
    """Exact rational from int, str, Fraction, or (via repr) float.
    Raises ValueError on malformed input, a zero denominator included."""
    if isinstance(x, float):
        return Fraction(str(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {x!r}: zero denominator") from None


def clamp_epsilon(epsilon) -> Fraction:
    """The tolerance actually used: ``epsilon`` capped at 99/100.  Raises
    ValueError unless it is positive and the level grid's ratio
    1 + epsilon/(2+epsilon) exceeds 1 as a float."""
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if eps >= 1:
        eps = Fraction(99, 100)
    if float(1 + eps / (2 + eps)) == 1.0:
        raise ValueError("epsilon is too small: the level grid ratio rounds to 1")
    return eps


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of one well-conditioned probe: connectivity guess,
    in-volume guess (a power of two), tolerance, seed."""

    level: Fraction
    volume: int
    epsilon: Fraction
    seed: int = 0

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError("level must be positive")
        if self.volume < 1 or self.volume & (self.volume - 1):
            raise ValueError("volume must be a power of two")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")


class RootedTopology:
    """One rooted instance (``base``, ``root``), the handle that every
    probe-layer function takes, and the arcs that all its conditioned
    graphs share, as ``tails`` and ``heads``: the base arcs, in order,
    then a root arc (root, v) to every non-root v of positive in-degree.
    The base validated them.  Each conditioned graph builds its own
    residual arrays at its first flow, ``supply_arcs`` is computed at its
    first read, and a probe computes each distinct capacity once.
    ``degrees`` holds the base in-degrees, and ``credit[t]`` the (vertex,
    arc index) pairs whose capacities, read from a conditioned graph, a
    certified t credits to the vertex (``credit_closure``): an arc t→y
    credits y and, once each, the head w ≠ root of every infinite base arc
    y→w, since a cut below the threshold that holds w holds y too: a flow
    gives an infinite arc more than its demands' total (``max_flow``), so
    no cut below the threshold crosses one, however small the conditioned
    graph's sentinel.  On a split graph that carries a certified
    in-copy's split arc, and the root's arc into an out-copy, on to the
    out-neighbours' in-copies."""

    def __init__(self, base: DiGraph, root: int):
        self.degrees = base.in_degrees()
        fed = [v for v, deg in enumerate(self.degrees) if v != root and deg > 0]
        self.base, self.root = base, root
        tails, heads, self.base_caps = zip(*base.arcs) if base.arcs else ((), (), ())
        self.tails, self.heads = (*tails, *[root] * len(fed)), (*heads, *fed)
        self.root_degrees = [self.degrees[v] for v in fed]
        self.cap_values, self.degree_values = set(self.base_caps), set(self.root_degrees)
        credit = self.credit = [[] for _ in range(base.n)]
        through = [[] for _ in range(base.n)]  # y's infinite heads w != root
        # once each: the infinite arcs share one sentinel, so equal ones are parallel
        for y, w, _ in dict.fromkeys(base.arcs[i] for i in sorted(base.inf_arcs)):
            if w != root:
                through[y].append(w)
        for i, (t, y) in enumerate(zip(self.tails, self.heads)):
            if y != root:
                credit[t].append((y, i))
            for w in through[y]:
                credit[t].append((w, i))

    @cached_property
    def supply_arcs(self) -> list:
        """The arcs whose capacities sum to the root's effective
        out-capacity (``group_capacity``): every finite arc out of the root,
        and the finite arcs out of the head of each infinite one."""
        tails, inf_arcs = self.tails, self.base.inf_arcs
        finite_out = [[] for _ in range(self.base.n)]
        for i, t in enumerate(tails):
            if i not in inf_arcs:
                finite_out[t].append(i)
        return [j for i, (t, head) in enumerate(zip(tails, self.heads)) if t == self.root
                for j in (finite_out[head] if i in inf_arcs else (i,))]


def condition_rooted(
    topology: RootedTopology,
    level: Fraction,
    volume: int,
    epsilon: Fraction,
    aux_divisor: int,
    floor: Fraction,
) -> DiGraph:
    """Shared preconditioning of the rooted instance ``topology``: per-vertex
    root arcs plus weight truncation.

    Adds an arc (r, v) of capacity epsilon*level*indeg(v)/(aux_divisor*volume)
    for every non-root vertex with positive in-degree, and clamps finite
    original weights into [floor, 2*level].  Infinite arcs are exempt.  The
    output's arcs are the base arcs first, in their order and with their
    endpoints, then the root arcs.  For every sink set U the cut into U is
    at least epsilon*level/(2*aux_divisor*volume) times the in-volume of U
    measured in the output graph (the conditioning ratio).  The output
    builds its own residual arrays at its first flow.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    # the root arcs' quantum epsilon*level/(aux_divisor*volume) is num/den
    num = epsilon.numerator * level.numerator
    den = epsilon.denominator * level.denominator * aux_divisor * volume
    if num * den < 0:
        raise ValueError("negative capacity")
    scale = topology.base.scale
    new_scale = math.lcm(scale, den // math.gcd(num, den), floor.denominator, level.denominator)
    factor = new_scale // scale
    floor_num = floor.numerator * (new_scale // floor.denominator)
    cap_num = 2 * level.numerator * (new_scale // level.denominator)
    quantum_num = num * new_scale // den
    # ``DiGraph._unchecked`` overwrites the entries at infinite arcs
    clamped = {c: min(max(c * factor, floor_num), cap_num) for c in topology.cap_values}
    root_caps = {deg: quantum_num * deg for deg in topology.degree_values}
    caps = [*map(clamped.__getitem__, topology.base_caps),
            *map(root_caps.__getitem__, topology.root_degrees)]
    return DiGraph._unchecked(topology.base.n, topology.tails, topology.heads, caps, new_scale,
                              topology.base.inf_arcs)


def precondition_rooted(topology: RootedTopology, level, volume: int, epsilon) -> DiGraph:
    """Edge-cut preconditioning of ``topology``: aux weight
    eps*level*indeg/(2*volume), original weights clamped into
    [eps*level/(2m), 2*level]."""
    level = as_fraction(level)
    epsilon = as_fraction(epsilon)
    floor = epsilon * level / (2 * max(topology.base.m, 1))
    return condition_rooted(topology, level, volume, epsilon, 2, floor)


def sample_terminals(deg, r: int, volume: int, rng):
    """Each non-root vertex independently with probability
    min(1, 2 * ln(n) * deg[v] / volume), where ``deg`` holds the in-degrees
    of the base graph, before conditioning adds its root arcs.
    Deterministic given the rng state."""
    n = len(deg)
    scale = 2 * math.log(n) / volume
    picked = []
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


def group_capacity(h: DiGraph, supply: list, level_num: int) -> int:
    """Terminal group size for one probe.

    One group's total demand (level per terminal) is kept within half the
    root's effective out-capacity, the capacities of the arcs ``supply``
    (``supply_arcs``), so groups that are fully connected at the probe
    level certify at the top of the recursion in one flow instead of
    splitting all the way down.  Never below the classic
    conditioning-based group size, which this dominates.
    """
    arcs = h.arcs
    return max(1, sum(arcs[i][2] for i in supply) // (2 * level_num))


def _better(a, b):
    """Deterministic minimum of two certificates (None allowed) by rank."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.rank <= b.rank else b


def _tag(cert, orientation):
    """``cert`` (None allowed) tagged with ``orientation``; a "forward"
    tag leaves it as it is, since every certificate is built forward."""
    if cert is None or orientation == "forward":
        return cert
    return replace(cert, orientation=orientation)


def credit_closure(credit, arcs, threshold, support, certified, new) -> None:
    """Certify the vertices ``new``, and close the set ``certified`` under
    credit at ``threshold``, in one loop: each certified t adds the
    capacity ``arcs[i]`` of every (vertex, arc index i) pair of
    ``credit[t]`` to the vertex's ``support`` and tests the vertex at
    once: one whose support reaches ``threshold`` is certified, with no
    flow.  The closure is the least fixpoint of that rule, so the order
    in which the vertices credit does not change it.

    Sound for the ``credit`` of ``RootedTopology``: a cut below the
    threshold with w in its sink crosses every arc that the certified
    vertices outside it credit to w, each credited to w once, so by
    induction no such cut holds a certified vertex, and each has
    connectivity at least the threshold.  An infinite arc counts at its
    graph's sentinel, a lower bound on what ``max_flow`` gives it, and no
    cut below the threshold crosses one, since ``max_flow`` gives it more
    than its demands' total."""
    stack = list(set(new).difference(certified))  # each credits once
    certified.update(stack)
    while stack:
        for w, i in credit[stack.pop()]:
            support[w] += arcs[i][2]
            if support[w] >= threshold and w not in certified:
                certified.add(w)
                stack.append(w)


def probe(h: DiGraph, topology: RootedTopology, terminals, cfg: ProbeConfig,
          extract) -> ProbeReport:
    """Shrink-wrap every terminal group of one probe on ``h``, a conditioned
    graph of ``topology``, at connectivity target threshold =
    (1+epsilon)*level.

    ``extract`` maps the sink set of each cut found to a certificate
    evaluated on the caller's own graph, once per distinct sink set; only
    certificates of value strictly below ``threshold`` are kept, and the
    best of them by rank is returned.  The topology's ``supply_arcs`` size
    the terminal groups.

    Before any flow, the root and the topology's ``credit`` certify
    terminals in ``credit_closure`` at the threshold's numerator; those
    are dropped before the groups are formed.  Each group's Certified
    terminals join the closure after its shrink-wrap, so later groups
    shrink, and a group left empty runs no flow.  Every cut below the
    threshold keeps the certified vertices on its source side, and
    ``shrink_wrap`` classifies each terminal exactly, so every terminal's
    outcome and the probe's hit or miss stay those of probing every
    terminal; only which Below sinks a hit finds can change.
    """
    threshold = (1 + cfg.epsilon) * as_fraction(cfg.level)
    level_num = threshold * h.scale
    assert level_num.denominator == 1
    level_num = int(level_num)
    sinks = {}  # distinct Below sink sets, in first-seen order
    calls = 0
    all_stats = []
    r = topology.root
    certified = set()
    certify = partial(credit_closure, topology.credit, h.arcs, level_num, [0] * h.n, certified)
    certify([r])
    left = [t for t in terminals if t not in certified]
    if not left:
        return ProbeReport(None, 0, ())
    for group in partition_terminals(left, group_capacity(h, topology.supply_arcs, level_num)):
        group = frozenset(t for t in group if t not in certified)
        if not group:
            continue
        outcome, stats = shrink_wrap(SteinerInstance(h, r, group, level_num))
        calls += stats.raw_flow_calls
        all_stats.append(stats)
        for t in sorted(outcome):
            result = outcome[t]
            if isinstance(result, Below):
                sinks.setdefault(result.cut.sink_set)
        certify([t for t, result in outcome.items() if not isinstance(result, Below)])
    best = None
    for sink in sinks:
        cert = extract(sink)
        if cert.value < threshold:
            best = _better(best, cert)
    return ProbeReport(best, calls, tuple(all_stats))


def _edge_sample(deg, r: int, cfg: ProbeConfig) -> frozenset:
    """The terminals of the probe ``cfg``, given the base in-degrees (the
    vertex prober passes 0 for every vertex that may not be a terminal)."""
    return sample_terminals(deg, r, cfg.volume, random.Random(cfg.seed))


def probe_rooted_edge(topology: RootedTopology, cfg: ProbeConfig, terminals) -> ProbeReport:
    """One preconditioned shrink-wrap probe of ``terminals`` on the rooted
    edge instance ``topology``.

    If a certificate is returned it is a valid rooted cut in the base graph
    itself, re-evaluated against untruncated capacities, with value strictly
    below (1+epsilon)*level.  Returning nothing is a legitimate outcome.
    """
    h = precondition_rooted(topology, cfg.level, cfg.volume, cfg.epsilon)
    return probe(h, topology, terminals, cfg,
                 lambda sink: cut_certificate(topology.base, sink, root=topology.root))


def _volume_schedule(m: int) -> list:
    """Powers of two whose half-open windows [v/2, v) cover volumes 1..m."""
    vols = [1]
    while vols[-1] <= m:
        vols.append(vols[-1] * 2)
    return vols


def _min_singleton_cut(g: DiGraph, r: int) -> CutCertificate:
    """The best singleton cut by rank, from one pass over the arcs: the
    least in-weight (an infinite arc at its sentinel), ties to the smaller
    vertex."""
    weight = [0] * g.n
    for _, h, c in g.arcs:
        weight[h] += c
    t = min((v for v in range(g.n) if v != r), key=lambda v: (weight[v], v))
    return cut_certificate(g, [t], root=r)


@dataclass
class CutResult:
    """A solver's answer: the certificate (an edge ``CutCertificate`` or a
    ``VertexCutCertificate``), the max-flow calls run and the probe log of
    (level, volume, flow calls) entries."""

    certificate: object
    flow_calls: int
    probe_log: tuple

    @property
    def value(self) -> Fraction:
        return self.certificate.value

    @property
    def orientation(self) -> str:
        return self.certificate.orientation


def level_prober(sample, run_probe, volumes, log, pool):
    """Prober of one rooted instance: ``probe_at(level, epsilon,
    seed_parts)`` probes ``level`` at tolerance ``epsilon`` at the in-volume
    guesses in ``volumes``, largest (and so cheapest, with the fewest
    terminals) first, the j-th of ``volumes`` seeded by ``(*seed_parts,
    j)``.  It returns the first certificate a probe gives, or None once
    every guess has missed.  ``sample`` maps a ProbeConfig to its terminals,
    drawn from ``pool`` vertices, and ``run_probe`` maps a ProbeConfig and
    those terminals to a ProbeReport; each probe run appends (level,
    volume, flow calls) to ``log``.  A guess probes only its terminals
    that no probe earlier in the same call has probed, and is not run when
    none is left: every earlier probe missed, and the guess's conditioned
    graph dominates theirs arc by arc, so those terminals would miss again
    (see the module docstring).  Once every vertex of the pool has missed,
    no smaller guess is drawn."""
    def probe_at(level, epsilon, seed_parts):
        missed = set()
        for j in reversed(range(len(volumes))):
            if len(missed) >= pool:
                break
            cfg = ProbeConfig(level=level, volume=volumes[j], epsilon=epsilon,
                              seed=derive_seed(*seed_parts, j))
            terminals = sample(cfg) - missed
            if not terminals:
                continue
            rep = run_probe(cfg, terminals)
            log.append((level, volumes[j], rep.flow_calls))
            if rep.certificate is not None:
                return rep.certificate
            missed |= terminals
        return None
    return probe_at


def union_prober(probers):
    """Prober of a union of rooted instances given as ``(orientation,
    level_prober)`` pairs: probes the k-th pair with seed parts
    ``(*seed_parts, k)``, in order, and returns the first certificate
    found, tagged with the orientation of its instance (or None once
    every instance has missed)."""
    def probe_at(level, epsilon, seed_parts):
        for k, (orientation, prober) in enumerate(probers):
            cert = prober(level, epsilon, (*seed_parts, k))
            if cert is not None:
                return _tag(cert, orientation)
        return None
    return probe_at


def _first_at_least(level_at, lo, hi, value):
    """First index in lo..hi-1 of a nondecreasing ``level_at`` with level at
    least ``value``, else hi; plain integers, so ranges beyond ssize_t work."""
    while lo < hi:
        mid = (lo + hi) // 2
        if level_at(mid) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bisect_levels(probe_at, best, level_at, lo, hi, tolerance, seed_parts):
    """Search indices ``lo..hi`` of a nondecreasing ``level_at`` for the lowest
    level whose probe finds a cut, improving on ``best``, whose value is at
    most ``level_at(hi)``.  Index mid is probed at ``level_at(mid)`` and
    ``tolerance(level)`` with seed parts ``(*seed_parts, mid)``.

    The search gallops down from the top: it probes hi-1, hi-2, hi-4, ...,
    each step counted from the current ``hi``, while probes find cuts, and
    binary searches what is left after the first miss.  A certificate drops
    ``hi`` to the first index whose level is at least the best value, so no
    level that a certificate already beats is probed."""
    step = 1  # the gallop's next step, 0 once a probe has missed
    while lo < hi:
        mid = max(lo, hi - step) if step else (lo + hi) // 2
        level = level_at(mid)
        cert = probe_at(level, tolerance(level), (*seed_parts, mid))
        if cert is None:
            lo, step = mid + 1, 0
        else:
            best = _better(best, cert)
            hi, step = _first_at_least(level_at, lo, mid, best.value), 2 * step
    return best


def _grid_levels(floor: Fraction, eps_in: Fraction, value: Fraction):
    """Level function and top index of the geometric grid anchored at
    ``value``: index i is value * 2^(-(top - i) * log2(1+eps_in)), a float
    mantissa times an exact power of two, so levels beyond float range stay
    exact.  Index ``top`` is ``value`` itself, and index 0 is the only one
    at or below ``floor``: ``top`` is the first k with value/(1+eps_in)^k
    at most ``floor``."""
    p, q = (math.log1p(eps_in) / math.log(2)).as_integer_ratio()

    def below(k):  # value / (1+eps_in)^k
        whole, part = divmod(-k * p, q)  # of the exact -k * log2(1+eps_in)
        return value * Fraction(2.0 ** (part / q)) / (1 << -whole)

    top = 1
    while below(top) > floor:
        top *= 2
    top = _first_at_least(lambda k: -below(k), 0, top, -floor)
    return (lambda i: below(top - i)), top


def level_search(probe_at, best, floor, epsilon, seed_parts):
    """Search a geometric grid of levels down from the value of the
    certificate ``best`` for the lowest one whose probe finds a cut.

    ``floor`` is a lower bound on the optimum that no cut attains (the
    smallest positive capacity, once zero cuts and a cut of that value are
    ruled out, see ``_search_tail``).  The grid (``_grid_levels``)
    runs with ratio 1+eps_in from ``best.value`` down to the first level at
    most ``floor``, and every probe, index i seeded by ``(*seed_parts,
    i)``, runs at tolerance eps_in = epsilon/(2+epsilon), so a cut at the
    bottom level is within 1+eps_in of the optimum.  ``bisect_levels``
    gallops down from the top: when the trivial cut is optimal, the probe
    one level below it misses and ends the search."""
    eps_in = epsilon / (2 + epsilon)
    level_at, top = _grid_levels(floor, eps_in, best.value)
    return bisect_levels(probe_at, best, level_at, 0, top, lambda _: eps_in, seed_parts)


def integer_search(probe_at, singleton, floor, scale, seed_parts):
    """Exact search over the levels above ``floor`` for capacities at
    ``scale``, whose cut values are all multiples of 1/scale.

    ``probe_at`` probes level k/scale at tolerance 1/(1+k), so any
    certificate it returns has a numerator of at most k.  ``floor`` is a
    positive lower bound on the optimum, below ``singleton``'s value, that
    no cut attains: every mode answers a cut of the smallest positive
    capacity without a flow (``_search_tail``) before it searches.  So
    the optimum's numerator lies in lo+1..the singleton's for lo the
    floor's, and ``bisect_levels`` searches those numerators, seeded by
    ``(*seed_parts, "bin", k)``: it gallops down from one below the
    singleton's, so an optimal singleton costs one probe, and any other
    optimum at most about two probes per bit of the gap."""
    return bisect_levels(probe_at, singleton, lambda k: Fraction(k, scale),
                         int(floor * scale) + 1, int(singleton.value * scale),
                         lambda level: 1 / (1 + level * scale), (*seed_parts, "bin"))


def _search_tail(make_prober, best, floor, search, floor_cut) -> CutResult:
    """``search(make_prober(log), best, floor)`` unless the trivial cut
    ``best`` is at most the lower bound ``floor`` on the optimum, as a
    CutResult with the flow calls and entries of the probe log ``log``.
    ``floor_cut()`` is asked first, before any prober is built: a cut it
    returns has value ``floor``, so it is optimal and no flow runs, and
    when it returns None no cut attains ``floor``."""
    log = []
    if best.value > floor:
        cut = floor_cut()
        if cut is not None:
            return CutResult(_better(best, cut), 0, ())
        best = search(make_prober(log), best, floor)
    return CutResult(best, sum(calls for _, _, calls in log), tuple(log))


def _edge_floor_cut(gm: DiGraph, r: int, c_min: Fraction):
    """The rank-best rooted cut of value ``c_min``, the smallest positive
    capacity, among the largest sinks of such cuts, or None when no cut
    has that value; no flow runs.  ``gm`` has its parallel arcs merged,
    and ``r`` reaches every vertex along positive arcs.

    Such a cut crosses exactly one positive arc, and its head x then
    dominates every sink vertex in the flow graph of the positive arcs.
    The vertices x dominates form subtree(x) of the dominator tree, every
    positive arc that enters subtree(x) from outside ends at x, and when
    exactly one does, at numerator ``c_min``, subtree(x) is a floor cut's
    largest sink.  Equal-size subtrees are disjoint, so only those of the
    least size among the candidates have their vertices listed."""
    c = int(c_min * gm.scale)
    order, first, size = dominator_tree(gm.n, [(t, h) for t, h, cap in gm.arcs if cap > 0], r)
    entering = [0] * gm.n
    last = [0] * gm.n  # the capacity of an arc entering subtree(v)
    for t, h, cap in gm.arcs:
        if cap > 0 and not first[h] <= first[t] < first[h] + size[h]:
            entering[h] += 1
            last[h] = cap
    candidates = [v for v in range(gm.n) if entering[v] == 1 and last[v] == c]
    if not candidates:
        return None
    least = min(size[v] for v in candidates)
    sink = min(sorted(order[first[v]:first[v] + least]) for v in candidates if size[v] == least)
    cert = cut_certificate(gm, sink, root=r)
    assert cert.value == c_min, "a dominator subtree's cut is not at the floor"
    return cert


def _global_edge_floor_cut(gm: DiGraph, rm: DiGraph, c_min: Fraction):
    """``_edge_floor_cut`` at vertex 0 of ``gm`` and of its merged reversal
    ``rm``, tagged "reverse", whichever is better by rank."""
    return _better(_edge_floor_cut(gm, 0, c_min), _tag(_edge_floor_cut(rm, 0, c_min), "reverse"))


def _spans_by_infinite_arcs(g: DiGraph, r: int) -> bool:
    """Whether ``r`` reaches every vertex along infinite arcs alone, so
    that every rooted cut at ``r`` crosses one.  The probes cannot see
    such a cut: conditioning gives infinite arcs the conditioned graph's
    own sentinel, above every threshold."""
    arcs = [(t, h) for i, (t, h, _) in enumerate(g.arcs) if i in g.inf_arcs]
    return len(reach(g.n, arcs, r)) == g.n


def _edge_prober(gm: DiGraph, r: int, log):
    """``level_prober`` of the rooted edge instance (gm, r), whose probes
    share one ``RootedTopology``."""
    topology = RootedTopology(gm, r)
    return level_prober(
        lambda cfg: _edge_sample(topology.degrees, r, cfg),
        lambda cfg, terminals: probe_rooted_edge(topology, cfg, terminals),
        _volume_schedule(gm.m), log, len(topology.root_degrees),
    )


def _rooted_start(g: DiGraph, r: int):
    """Parallel arcs merged, the best trivial rooted cut and the smallest
    positive arc capacity ``c_min`` (an infinite arc counts at its sentinel).
    A graph without parallel finite arcs is used as it is: no cut value,
    flow value or minimal source side depends on the order of the arcs.

    The trivial cut is the zero cut onto the vertices the root cannot
    reach along positive-capacity arcs, else the best singleton; ``reach``
    rejects a root outside 0..n-1.  When no zero cut exists every rooted
    cut crosses a positive arc, so the optimum is at least ``c_min``."""
    finite = [(t, h) for i, (t, h, _) in enumerate(g.arcs) if i not in g.inf_arcs]
    gm = g if len(set(finite)) == len(finite) else merge_parallel(g)
    positive = [(t, h) for t, h, c in gm.arcs if c > 0]
    c_min = Fraction(min((c for _, _, c in gm.arcs if c > 0), default=0), gm.scale)
    missing = frozenset(range(gm.n)) - reach(gm.n, positive, r)
    if missing:
        return gm, cut_certificate(gm, missing, root=r), c_min
    return gm, _min_singleton_cut(gm, r), c_min


def _on_input(result: CutResult, g: DiGraph, r: int) -> CutResult:
    """``result`` with its certificate, found on ``g`` (or its reversal)
    with parallel arcs merged, rebuilt on ``g`` itself, so that its
    crossing arcs index ``g``'s arcs; the value does not change."""
    cert = result.certificate
    rebuilt = replace(cut_certificate(g, cert.sink_set, root=r), orientation=cert.orientation)
    assert rebuilt.value == cert.value, "merging parallel arcs changed a cut value"
    return replace(result, certificate=rebuilt)


def _rooted_search(g: DiGraph, r: int, search) -> CutResult:
    """Rooted cut: the best trivial cut when it is at most ``c_min``, else
    a cut of value ``c_min`` from ``_edge_floor_cut``, else the trivial
    cut improved by ``search(probe_at, best, c_min)`` with the instance's
    prober.  When every rooted cut crosses an infinite arc the capped
    oracle answers, with its flows counted."""
    gm, best, c_min = _rooted_start(g, r)
    if best.value > c_min and _spans_by_infinite_arcs(gm, r):
        return _rooted_oracle(g, r)
    return _on_input(_search_tail(lambda log: _edge_prober(gm, r, log), best, c_min, search,
                                  partial(_edge_floor_cut, gm, r, c_min)), g, r)


def approx_rooted_edge_cut(
    g: DiGraph,
    r: int,
    epsilon,
    seed: int = 0,
    threads: int = 1,
) -> CutResult:
    """Rooted cut of value at most (1+epsilon) times optimal, w.h.p.

    The returned certificate is always a valid rooted cut of ``g``.  If some
    vertex is unreachable from the root along positive-capacity arcs the
    exact zero cut is returned without probing, and a cut of the smallest
    positive capacity without a flow.  ``threads`` is accepted for
    compatibility and ignored.
    """
    eps = clamp_epsilon(epsilon)
    if g.n < 2:
        raise NoCutExistsError("graph has no non-root vertex")
    search = partial(level_search, epsilon=eps, seed_parts=(seed, "edge"))
    return _rooted_search(g, r, search)


def _global_search(g: DiGraph, search) -> CutResult:
    """Global cut as one search over the union of the instances rooted at
    vertex 0 of ``g`` and of its reversal, started from the best trivial
    cut of either.  A zero cut is returned without probing, and a forward
    one without looking at the reversal.  A cut of value ``c_min`` from
    ``_global_edge_floor_cut`` is returned without a flow; else
    ``search(probe_at, best, c_min)`` runs with the union prober.  When the
    infinite arcs alone strongly connect ``g``, every cut crosses one, and
    the capped oracle answers, with its flows counted."""
    gm, best, c_min = _rooted_start(g, 0)
    if best.value == 0:
        return _on_input(CutResult(best, 0, ()), g, 0)
    rg = reverse(g)
    rm, rev_best, _ = _rooted_start(rg, 0)
    best = _better(best, _tag(rev_best, "reverse"))
    if best.value > c_min and _spans_by_infinite_arcs(gm, 0) and _spans_by_infinite_arcs(rm, 0):
        return _edge_oracle(g)
    result = _search_tail(lambda log: union_prober([("forward", _edge_prober(gm, 0, log)),
                                                    ("reverse", _edge_prober(rm, 0, log))]),
                          best, c_min, search, partial(_global_edge_floor_cut, gm, rm, c_min))
    return _on_input(result, rg if result.orientation == "reverse" else g, 0)


def approx_global_edge_cut(
    g: DiGraph,
    epsilon,
    seed: int = 0,
    threads: int = 1,
) -> CutResult:
    """Global minimum cut within (1+epsilon) of optimal w.h.p.: one level
    search over the instances rooted at vertex 0 of the graph and of its
    reversal.  The certificate is tagged with its orientation.  A zero
    cut is returned without probing, and a cut of the smallest positive
    capacity without a flow.  ``threads`` is accepted for compatibility
    and ignored."""
    if g.n < 2:
        raise NoCutExistsError("need at least two vertices")
    eps = clamp_epsilon(epsilon)
    search = partial(level_search, epsilon=eps, seed_parts=(seed, "edge"))
    return _global_search(g, search)


def _sink_order(sinks, credit, start) -> list:
    """``sinks`` that no chain of positive ``credit`` pairs reaches from
    the vertices ``start``, in their given order, then the others in
    breadth-first order along those pairs, each at its first enqueue.  Both
    callers pass ``sinks`` in increasing order.  The first group have zero
    cuts, so the first of them ends the sink loop."""
    order = list(dict.fromkeys(start))
    seen = set(order)
    for v in order:
        for w, amount in credit[v]:
            if amount and w not in seen:
                seen.add(w)
                order.append(w)
    wanted = set(sinks)
    return [t for t in sinks if t not in seen] + [v for v in order if v in wanted]


def capped_sinks(flow_graph: DiGraph, source: int, sinks, cap: int, credit, start, extract):
    """The capped sink loop of both exact oracles: ``(best, flows, cap)``,
    the rank-best of the cuts of numerator below ``cap`` into ``sinks``
    (None when there is none), the flows run and the final cap.

    Sink t's flow runs from ``source`` into the supersink through one
    demand arc (t, cap), which stops it once cap units arrive.  A flow
    below ``cap`` is t's minimum cut, read by ``extract`` from the same
    minimal source side as an uncapped flow, and lowers ``cap`` to its
    value + 1, which keeps ties; the first zero cut ends the loop at cap
    1, since every zero flow leaves the same source side.  The best flow
    so far stays pending, and ``extract`` runs on it once, at the end: a
    lower flow supersedes it unread, and a tie from a sink in its sink
    side leaves the same largest minimum sink, so only a tie from its
    source side is extracted, and both are ranked.  A sink whose flow
    reaches ``cap`` is certified: no cut below the cap has it in its sink.
    So are the vertices ``start`` from the outset.  Each certified t adds
    the ``(vertex, amount)`` pairs of ``credit[t]`` to ``support``, which
    the caller builds so that every cut below the cap with u in its sink
    is worth at least ``support[u]``.  Once that reaches the cap, u is
    certified without a flow: its minimum cut is at least the cap in
    force, above every cut the loop keeps.  A sink whose minimum cut is
    the optimum always runs its flow, so the rank-best cut does not
    change.  Sinks are visited in ``_sink_order``.  Support is summed as
    in ``probe``'s ``credit_closure``, which tests each vertex against a
    fixed threshold as it credits; this loop tests each sink when it is
    visited, against the cap then in force."""
    support = [0] * len(credit)
    for v in start:
        for w, amount in credit[v]:
            support[w] += amount
    pending, best, flows = None, None, 0  # best: pending's certificate, once built
    for t in _sink_order(sinks, credit, start):
        if support[t] < cap:
            res = max_flow(flow_graph, source, flow_graph.n, demands=[(t, cap)])
            flows += 1
            if res.value < cap:
                if pending is None or res.value < pending.value:
                    pending, best = res, None
                elif t in pending.source_side:
                    if best is None:
                        best = extract(pending)
                    cert = extract(res)
                    if cert.rank < best.rank:
                        pending, best = res, cert
                cap = res.value + 1
                if res.value == 0:
                    break
                continue
        for w, amount in credit[t]:
            support[w] += amount
    if pending is not None and best is None:
        best = extract(pending)
    return best, flows, cap


def _rooted_oracle(g: DiGraph, r: int, cap=None) -> CutResult:
    """Exact minimum rooted cut at ``r`` among those of numerator below
    ``cap``, which is lowered to one above the best singleton's, so that
    without a given ``cap`` some cut always is; the certificate is None
    when no cut lies below the ``cap`` given.  ``capped_sinks`` runs the
    non-root sinks, crediting every arc out of a certified tail t or out
    of r: a cut below the cap keeps t on its source side, so it crosses
    every arc (t, u) into a sink vertex u.  On a graph with infinite arcs
    the flows run on a copy where they are plain arcs at their sentinel,
    which a cap reaching it would otherwise raise, hiding the cuts that
    cross them, and the credit counts them there too; the copy has g's
    arcs, so its certificates are g's."""
    if g.n < 2:
        raise NoCutExistsError("graph has no non-root vertex")
    if not 0 <= r < g.n:
        raise ValueError(f"root {r} out of range 0..{g.n - 1}")
    flow_graph = DiGraph._unchecked(g.n, *zip(*g.arcs), g.scale, frozenset()) if g.inf_arcs else g
    credit = [[] for _ in range(g.n)]
    weight = [0] * g.n
    for t, h, c in g.arcs:
        credit[t].append((h, c))
        weight[h] += c
    singleton = min(w for v, w in enumerate(weight) if v != r) + 1
    cap = singleton if cap is None else min(cap, singleton)
    best, flows, _ = capped_sinks(flow_graph, r, [t for t in range(g.n) if t != r], cap,
                                  credit, [r], min_cut_sink_side)
    return CutResult(best, flows, ())


def _edge_oracle(g: DiGraph, root=None) -> CutResult:
    """Exact oracle with the flows it ran counted: rooted at ``root``, or
    global (rooted at vertex 0 of the graph and of its reversal; a forward
    zero cut skips the reversal).  Each flow stops one above the best cut
    so far, a sink that certified vertices' arcs prove at least that cap
    runs none, and the reversal starts from the forward best."""
    if root is not None:
        return _rooted_oracle(g, root)
    forward = _rooted_oracle(g, 0)
    if forward.value == 0:
        return forward
    backward = _rooted_oracle(reverse(g), 0, int(forward.value * g.scale) + 1)
    best = _better(forward.certificate, _tag(backward.certificate, "reverse"))
    return CutResult(best, forward.flow_calls + backward.flow_calls, ())


def exact_rooted_edge_cut_oracle(g: DiGraph, r: int) -> CutCertificate:
    """Exact minimum rooted cut via at most one max-flow per non-root
    vertex, in breadth-first order from ``r``, each stopped one above the
    best cut so far.  A vertex whose arcs from r and from vertices already
    certified (their flows reached the cap) carry at least the cap needs
    no flow.  A cut is read from its flow's residual source side, so a
    zero cut hidden behind zero-capacity arcs is found too; the first zero
    cut ends the search.  Only the best flow's cut, and ties from outside
    its sink, are read."""
    return _rooted_oracle(g, r).certificate


def exact_global_edge_cut_oracle(g: DiGraph):
    """Exact global minimum cut; returns (certificate, orientation)."""
    res = _edge_oracle(g)
    return res.certificate, res.orientation


def exact_small_edge_cut(
    g: DiGraph,
    root=None,
    seed: int = 0,
) -> CutResult:
    """Exact minimum cut w.h.p., efficient when the optimum's numerator at
    the graph's scale is small.  A zero cut, and a cut of the smallest
    positive capacity (``_edge_floor_cut``, one dominator tree per
    orientation), are found exactly, without a flow; else
    ``integer_search`` searches the numerators k above that capacity's
    down from the trivial cut (10 flows on the bidirectional 6-cycle with
    capacities 10^400, whose trivial cut is optimal), level k/scale at
    tolerance 1/(1+k), which makes every answer exact.  A probe can miss,
    so the value is exact only w.h.p.; the certificate is always a valid
    cut.  When every cut crosses an infinite arc the capped oracle
    answers."""
    if g.n < 2:
        raise NoCutExistsError("need at least two vertices")
    search = partial(integer_search, scale=g.scale, seed_parts=(seed, "small"))
    if root is not None:
        return _rooted_search(g, root, search)
    return _global_search(g, search)
