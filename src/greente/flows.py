"""Max-flow with early termination and residual-graph cut extraction.

Flows are exact: capacities run as given, ``int`` or
:class:`fractions.Fraction` (a float becomes its exact Fraction), so
separation on fractional LP points stays exact, and callers that scale
capacities to integers get plain integer arithmetic.  Cut extraction returns
the front cut (near the source) and the back cut (near the sink); both are
full delta-out sets of a vertex bipartition, so the emitted constraints are
valid for the cut family.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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


def _residual_forward_reach(net: Network, ecap, flow, s: int) -> set[int]:
    marked = {s}
    stack = [s]
    fl = lambda a: flow.get(a, 0)
    while stack:
        v = stack.pop()
        for arc in net.out_arcs[v]:
            cap = _exact(ecap.get(arc.id, 0))
            if cap - fl(arc.id) > 0 and arc.head not in marked:
                marked.add(arc.head)
                stack.append(arc.head)
        for arc in net.in_arcs[v]:
            if fl(arc.id) > 0 and arc.tail not in marked:
                marked.add(arc.tail)
                stack.append(arc.tail)
    return marked


def _residual_backward_reach(net: Network, ecap, flow, t: int) -> set[int]:
    """Vertices that can reach t in the residual graph."""
    marked = {t}
    stack = [t]
    fl = lambda a: flow.get(a, 0)
    while stack:
        v = stack.pop()
        for arc in net.in_arcs[v]:
            cap = _exact(ecap.get(arc.id, 0))
            if cap - fl(arc.id) > 0 and arc.tail not in marked:
                marked.add(arc.tail)
                stack.append(arc.tail)
        for arc in net.out_arcs[v]:
            if fl(arc.id) > 0 and arc.head not in marked:
                marked.add(arc.head)
                stack.append(arc.head)
    return marked


def extract_cut(
    net: Network, ecap, flow_result: FlowResult, s: int, t: int, side: str
) -> Cut:
    """Front or back minimum cut from the residual graph of a maximum flow.

    Front: mark residual-reachable vertices from s, then collect arcs uv with
    u marked and v on a backwards original-graph walk from t through unmarked
    vertices only.  Back is the same with the roles of s and t swapped and the
    searches run in the opposite directions.  Either arc set is the full
    boundary of a bipartition, and its capacity equals the max-flow value.
    """
    if flow_result.terminated_early:
        raise NotMaximum("flow was early-terminated; rerun without a target")
    if side not in ("front", "back"):
        raise ValueError("side must be 'front' or 'back'")
    flow = flow_result.flow
    if side == "front":
        marked = _residual_forward_reach(net, ecap, flow, s)
        # backwards DFS from t in the original graph through unmarked vertices
        reach = {t} - marked
        stack = list(reach)
        while stack:
            v = stack.pop()
            for arc in net.in_arcs[v]:
                u = arc.tail
                if u not in marked and u not in reach:
                    reach.add(u)
                    stack.append(u)
        cut = frozenset(
            a.id for a in net.arcs if a.tail in marked and a.head in reach
        )
    else:
        marked = _residual_backward_reach(net, ecap, flow, t)
        reach = {s} - marked
        stack = list(reach)
        while stack:
            v = stack.pop()
            for arc in net.out_arcs[v]:
                w = arc.head
                if w not in marked and w not in reach:
                    reach.add(w)
                    stack.append(w)
        cut = frozenset(
            a.id for a in net.arcs if a.tail in reach and a.head in marked
        )
    capacity = sum(_exact(ecap.get(a, 0)) for a in cut)
    return Cut(cut, capacity)


def full_capacities(net: Network) -> dict[int, Fraction]:
    return {arc.id: arc.fcap for arc in net.arcs}


def all_pairs_maxflow(net: Network) -> dict[tuple[int, int], Rational]:
    """lambda_G(s,t) for every ordered vertex pair under full capacities."""
    fcap = full_capacities(net)
    out: dict[tuple[int, int], Rational] = {}
    for s in range(net.n_vertices):
        for t in range(net.n_vertices):
            if s == t:
                continue
            out[(s, t)] = max_flow(net, fcap, s, t).value
    return out
