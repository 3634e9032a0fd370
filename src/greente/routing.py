"""Deterministic unique-shortest-path machinery.

Ties between equal-length paths are broken by a fixed total order:
``(length, hop count, lexicographic arc-id sequence)``.  This order is
prefix- and suffix-compatible: any subpath of an order-minimal path is itself
order-minimal between its endpoints, which downstream solvers rely on.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .model import Activation, Network, TrafficMatrix, full_activation


class EndpointMismatch(ValueError):
    pass


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

    def vertices(self, net: Network) -> tuple[int, ...]:
        verts = [self.source]
        for aid in self.arcs:
            verts.append(net.arcs[aid].head)
        return tuple(verts)


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


def path_order_less(p: Path, q: Path) -> bool:
    """Strict comparison under (length, hops, lexicographic arc ids)."""
    if (p.source, p.target) != (q.source, q.target):
        raise EndpointMismatch("paths do not share endpoints")
    return p.order_key() < q.order_key()


def _dijkstra(
    net: Network,
    counts,
    s: int,
    t: int,
    banned_vertices: frozenset[int] = frozenset(),
    banned_arcs: frozenset[int] = frozenset(),
) -> Path | None:
    """Order-minimal s-t path over arcs with counts > 0, or None.

    Heap keys carry (length, hops, arc ids) so the first settlement of each
    vertex is its unique order-minimal path.
    """
    if s == t or s in banned_vertices:
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
            if counts[arc.id] <= 0 or arc.id in banned_arcs:
                continue
            w = arc.head
            if w in settled or w in banned_vertices:
                continue
            heapq.heappush(heap, (length + arc.length, hops + 1, arcs + (arc.id,), w))
    return None


def shortest_path_unique(
    net: Network, activation: Activation, s: int, t: int
) -> Path | None:
    """The order-minimal s-t path among active arcs, or None if disconnected."""
    return _dijkstra(net, activation.counts, s, t)


def k_shortest_paths(net: Network, s: int, t: int, k: int) -> list[Path]:
    """First min(k, #paths) elementary s-t paths of the full network in order.

    Yen-style deviation enumeration driven by the deterministic path order;
    every returned path is elementary and the output is strictly increasing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = full_activation(net).counts
    first = _dijkstra(net, counts, s, t)
    if first is None:
        return []
    found = [first]
    seen = {first.arcs}
    candidates: list[tuple[tuple, tuple[int, ...], Path]] = []
    while len(found) < k:
        prev = found[-1]
        prev_verts = prev.vertices(net)
        for i in range(prev.hops):
            root_arcs = prev.arcs[:i]
            spur_node = prev_verts[i]
            banned_arcs = {
                p.arcs[i] for p in found if p.hops > i and p.arcs[:i] == root_arcs
            }
            banned_vertices = frozenset(prev_verts[:i])
            spur = _dijkstra(
                net, counts, spur_node, t,
                banned_vertices=banned_vertices,
                banned_arcs=frozenset(banned_arcs),
            )
            if spur is None:
                continue
            cand = make_path(net, root_arcs + spur.arcs)
            if cand.arcs not in seen:
                seen.add(cand.arcs)
                heapq.heappush(candidates, (cand.order_key(), cand.arcs, cand))
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        found.append(best)
    return found


@dataclass(frozen=True)
class RoutingResult:
    path_of: dict[tuple[int, int], Path]
    load: dict[int, Fraction]

    def load_on(self, arc_id: int) -> Fraction:
        return self.load.get(arc_id, Fraction(0))


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
