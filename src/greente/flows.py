"""Max-flow with early termination and residual-graph cut extraction.

Flows are exact: capacities run as given, ``int`` or
:class:`fractions.Fraction` (a float becomes its exact Fraction), so
separation on fractional LP points stays exact, and callers that scale
capacities to integers get plain integer arithmetic.  Cut extraction walks
the same cached residual graph as Dinic and returns the front cut (near the
source) or the back cut (near the sink, the front cut of the reversed graph);
both are full delta-out sets of a vertex bipartition, so the emitted
constraints are valid for the cut family.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .model import Network, Rational


class NotMaximum(RuntimeError):
    """Cut extraction requires a completed (not early-terminated) max flow."""


@dataclass(frozen=True)
class FlowResult:
    flow: dict[int, Rational]
    value: Rational
    terminated_early: bool


@dataclass(frozen=True)
class Cut:
    arc_ids: frozenset[int]
    capacity: Rational


def _exact(value) -> Rational:
    """``value`` as given if exact; a float becomes its exact Fraction."""
    return Fraction(value) if isinstance(value, float) else value


class _Dinic:
    """Dinic on the network's cached residual graph; only capacities are
    per flow (``cap[2a]`` along arc ``a``, ``cap[2a + 1]`` against it)."""

    def __init__(self, net: Network, ecap):
        self.n = net.n_vertices
        self.to, self.adj = net.residual_edges
        self.cap: list[Rational] = [0] * (2 * net.n_arcs)
        self.cap[::2] = [_exact(ecap.get(a, 0)) for a in range(net.n_arcs)]

    def _levels(self, s: int) -> list[int]:
        """BFS distance from s over edges with residual capacity (-1: unreached)."""
        to, adj, cap = self.to, self.adj, self.cap
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for eid in adj[v]:
                w = to[eid]
                if cap[eid] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    q.append(w)
        return level

    def run(self, s: int, t: int, target) -> tuple[Rational, bool]:
        """Augment along shortest paths until none is left or ``target`` is met.

        Each augmentation is the first path of a depth-first search from s
        in the level graph that resumes every vertex at its current edge
        (``it``) and retreats past dead vertices.
        """
        to, adj, cap = self.to, self.adj, self.cap
        total = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total, False
            it = [0] * self.n
            path: list[int] = []  # edge ids from s to v
            v = s
            while True:
                if v == t:
                    got = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= got
                        cap[eid ^ 1] += got
                    total += got
                    if target is not None and total >= target:
                        return total, True
                    path.clear()
                    v = s
                    continue
                edges, i, nxt = adj[v], it[v], level[v] + 1
                while i < len(edges) and not (cap[edges[i]] > 0 and level[to[edges[i]]] == nxt):
                    i += 1
                it[v] = i
                if i < len(edges):
                    path.append(edges[i])
                    v = to[edges[i]]
                elif path:  # v is dead: retreat and skip the edge into it
                    v = to[path.pop() ^ 1]
                    it[v] += 1
                else:  # s is dead: the level graph is blocked
                    break

    def flows(self) -> dict[int, Rational]:
        # the reverse residual of an arc's edge equals the flow sent along it
        return {a: f for a, f in enumerate(self.cap[1::2]) if f > 0}


def max_flow(net: Network, ecap, s: int, t: int, target=None) -> FlowResult:
    """Maximum s-t flow under effective capacities, stopping early at ``target``.

    With a reachable target the result is any feasible flow of value >= target
    and ``terminated_early`` is set; otherwise the flow is maximum.
    """
    if s == t:
        raise ValueError("source equals sink")
    if target is not None:
        target = _exact(target)
    dinic = _Dinic(net, ecap)
    value, early = dinic.run(s, t, target)
    return FlowResult(dinic.flows(), value, early)


def _reach(net: Network, start: int, usable, blocked) -> set[int]:
    """Vertices reached from ``start`` over the residual edges ``e`` with
    ``usable[e]``, never entering ``blocked``."""
    heads, adj = net.residual_edges
    seen = {start} - blocked
    stack = list(seen)
    while stack:
        for eid in adj[stack.pop()]:
            w = heads[eid]
            if usable[eid] and w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def extract_cut(
    net: Network, ecap, flow_result: FlowResult, s: int, t: int, side: str
) -> Cut:
    """Front or back minimum cut from the residual graph of a maximum flow.

    Front: mark the vertices residual-reachable from s, walk the original
    graph backwards from t through unmarked vertices, and collect the arcs
    from marked to walked vertices.  The back cut of ``(G, s, t)`` is the
    front cut of ``(reverse G, t, s)``: on the residual edges that swaps the
    usable flags of ``2a`` and ``2a + 1``, and the original-graph walk
    follows ``2a`` instead of ``2a + 1``.  Either arc set is the full
    boundary of a bipartition, and its capacity equals the max-flow value.
    """
    if flow_result.terminated_early:
        raise NotMaximum("flow was early-terminated; rerun without a target")
    if side not in ("front", "back"):
        raise ValueError("side must be 'front' or 'back'")
    back = int(side == "back")
    if back:
        s, t = t, s
    m = net.n_arcs
    flow = [flow_result.flow.get(a, 0) for a in range(m)]
    # edge 2a + back runs along arc a of the walked graph (reversed for back);
    # Python compares a float capacity with an exact flow exactly
    residual = [False] * (2 * m)
    residual[back::2] = [ecap.get(a, 0) > f for a, f in enumerate(flow)]
    residual[1 - back::2] = [f > 0 for f in flow]
    marked = _reach(net, s, residual, set())
    walked = _reach(net, t, (back, 1 - back) * m, marked)
    heads = net.residual_edges[0]
    cut = frozenset(
        eid >> 1 for eid in range(back, 2 * m, 2)
        if heads[eid ^ 1] in marked and heads[eid] in walked
    )
    return Cut(cut, sum(_exact(ecap.get(a, 0)) for a in cut))


def all_pairs_maxflow(net: Network) -> dict[tuple[int, int], Fraction]:
    """lambda_G(s,t) for every ordered vertex pair under full capacities.

    A full-duplex link's arcs share ``ccap`` and ``mu``, so reversing every
    arc maps the network onto itself and lambda(t,s) = lambda(s,t): one
    max-flow per unordered pair gives both.  The flows run on integers, the
    capacities scaled by ``net.ccap_scale``; dividing the values back keeps
    them exact."""
    scale = net.ccap_scale
    icap = {arc.id: int(arc.fcap * scale) for arc in net.arcs}
    duplex = net.link_pair is not None
    lam: dict[tuple[int, int], Fraction] = {}
    for s, t in permutations(range(net.n_vertices), 2):  # (t,s) comes first if t < s
        mirrored = duplex and t < s
        lam[s, t] = lam[t, s] if mirrored else Fraction(max_flow(net, icap, s, t).value, scale)
    return lam
