"""Deterministic unique-shortest-path machinery.

Ties between equal-length paths are broken by a fixed total order:
``(length, hop count, lexicographic arc-id sequence)``.  This order is
prefix- and suffix-compatible: any subpath of an order-minimal path is itself
order-minimal between its endpoints, which downstream solvers rely on.
One label search, ``ordered_paths``, enumerates elementary paths in that
order with an extra cost before the hop count; it serves both k-shortest
seeding (at zero cost) and MSPND pricing.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .model import Activation, Network, TrafficMatrix


class Disconnected(RuntimeError):
    def __init__(self, s: int, t: int):
        super().__init__(f"no active path from {s} to {t}")
        self.pair = (s, t)


@dataclass(frozen=True)
class Path:
    """Elementary arc sequence with its total length."""

    source: int
    target: int
    arcs: tuple[int, ...]
    length: int

    @property
    def hops(self) -> int:
        return len(self.arcs)

    def order_key(self) -> tuple:
        return (self.length, len(self.arcs), self.arcs)


def make_path(net: Network, arc_ids: tuple[int, ...]) -> Path:
    if not arc_ids:
        raise ValueError("empty path")
    verts = [net.arcs[arc_ids[0]].tail]
    length = 0
    for aid in arc_ids:
        arc = net.arcs[aid]
        if arc.tail != verts[-1]:
            raise ValueError("arc sequence is not contiguous")
        verts.append(arc.head)
        length += arc.length
    if len(set(verts)) != len(verts):
        raise ValueError("path repeats a vertex")
    return Path(verts[0], verts[-1], tuple(arc_ids), length)


def shortest_path_unique(
    net: Network, activation: Activation, s: int, t: int
) -> Path | None:
    """The order-minimal s-t path among active arcs, or None if disconnected.

    Heap keys carry (length, hops, arc ids) so the first settlement of each
    vertex is its unique order-minimal path.
    """
    counts = activation.counts
    if s == t:
        return None
    heap: list[tuple[int, int, tuple[int, ...], int]] = [(0, 0, (), s)]
    settled: set[int] = set()
    while heap:
        length, hops, arcs, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == t:
            return Path(s, t, arcs, length)
        for arc in net.out_arcs[v]:
            if counts[arc.id] <= 0 or arc.head in settled:
                continue
            heapq.heappush(heap, (length + arc.length, hops + 1, arcs + (arc.id,), arc.head))
    return None


def costs_to(net: Network, cost, t: int) -> dict[int, object]:
    """Cheapest total ``cost`` (per arc id) from each vertex into t, by one
    reverse Dijkstra (missing = cannot reach t)."""
    best: dict[int, object] = {t: 0}
    heap: list[tuple[object, int]] = [(0, t)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > best[v]:
            continue
        for arc in net.in_arcs[v]:
            nd = d + cost[arc.id]
            u = arc.tail
            if u not in best or nd < best[u]:
                best[u] = nd
                heapq.heappush(heap, (nd, u))
    return best


def ordered_paths(net: Network, s: int, t: int, len_to_t, cost, bound):
    """Every elementary s-t path whose total ``cost`` (nonnegative, per arc
    id) stays below ``bound``, as arc-id tuples in (length, cost, hops, arc
    ids) order; ``len_to_t`` maps each vertex to its full-network shortest
    length into t (``costs_to`` over arc lengths).

    Best-first label setting over elementary labels (a visited-vertex mask),
    keyed by (length + length on to t, cost, hops, arc ids).  That length is
    exact, so keys never decrease along an extension and labels at t pop in
    the order above.  A label is dropped once its cost plus the cheapest cost
    on to t reaches the bound.  With s == t the one path is ``()``.
    """
    cost_to_t = costs_to(net, cost, t)
    heap = [(0, 0, 0, (), 0, s, 1 << s)]  # (key..., length, vertex, mask)
    while heap:
        _, c, hops, arcs, length, v, mask = heapq.heappop(heap)
        if v == t:
            yield arcs
            continue
        for arc in net.out_arcs[v]:
            w = arc.head
            if (mask >> w) & 1:
                continue
            nc = c + cost[arc.id]
            rest = cost_to_t.get(w)
            if rest is None or not nc + rest < bound:
                continue
            nlen = length + arc.length
            heapq.heappush(
                heap,
                (nlen + len_to_t[w], nc, hops + 1, arcs + (arc.id,), nlen, w, mask | (1 << w)),
            )


def k_shortest_paths(net: Network, s: int, t: int, k: int) -> list[Path]:
    """First min(k, #paths) elementary s-t paths of the full network in the
    (length, hops, arc ids) order: ``ordered_paths`` at zero cost."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if s == t:
        return []
    len_to_t = costs_to(net, [a.length for a in net.arcs], t)
    found = ordered_paths(net, s, t, len_to_t, [0] * net.n_arcs, inf)
    return [make_path(net, arcs) for arcs in itertools.islice(found, k)]


@dataclass(frozen=True)
class RoutingResult:
    path_of: dict[tuple[int, int], Path]
    load: dict[int, Fraction]


def spr_route(net: Network, activation: Activation, traffic: TrafficMatrix) -> RoutingResult:
    """Route every demand along its unique shortest active path; no capacity check."""
    path_of: dict[tuple[int, int], Path] = {}
    load: dict[int, Fraction] = {}
    for (s, t) in traffic.terminals:
        path = shortest_path_unique(net, activation, s, t)
        if path is None:
            raise Disconnected(s, t)
        path_of[(s, t)] = path
        d = traffic.demand(s, t)
        for aid in path.arcs:
            load[aid] = load.get(aid, Fraction(0)) + d
    return RoutingResult(path_of, load)


def is_spr_routable(net: Network, activation: Activation, traffic: TrafficMatrix) -> bool:
    """True iff routing succeeds and every arc load fits ccap(a) * chi(a)."""
    return mlu(net, activation, traffic) <= 1


def mlu(net: Network, activation: Activation, traffic: TrafficMatrix):
    """Max over arcs of load / active capacity under SPR; inf when disconnected.

    Arcs with chi = 0 are excluded from the routing graph and carry no load.
    Returns an exact Fraction, or math.inf, or Fraction(0) for empty traffic.
    """
    if not traffic.demands:
        return Fraction(0)
    try:
        routed = spr_route(net, activation, traffic)
    except Disconnected:
        return inf
    worst = Fraction(0)
    for aid, ld in routed.load.items():
        arc = net.arcs[aid]
        ratio = ld / (arc.ccap * activation.counts[aid])
        if ratio > worst:
            worst = ratio
    return worst
