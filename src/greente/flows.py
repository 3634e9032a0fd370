"""Max-flow with early termination and residual-graph cut extraction.

Flows are exact: capacities and targets run as given, ``int`` or
:class:`fractions.Fraction`, so separation on fractional LP points stays
exact, and callers that scale capacities to integers get plain integer
arithmetic.  ``max_flow`` augments along shortest paths (Edmonds-Karp), at
most |V|.|E|/2 times whatever the capacities, and returns its residual
graph.  Cut extraction reads that residual graph (Picard & Queyranne 1980):
the front cut is the arcs that leave the vertices residual-reachable from
the source, the back cut the arcs that enter the vertices that residually
reach the sink.  These are the two extreme minimum cuts, so they do not
depend on which maximum flow was found.  Both are full delta-out sets of a
vertex bipartition, so the emitted constraints are valid for the cut family.
Under capacities that are symmetric per full-duplex link, ``cut_tree`` gives
every pair's min-cut value from n - 1 max-flows (Gusfield's flow-equivalent
tree), and ``all_pairs_maxflow`` uses it on full-duplex networks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .model import Network, Rational


class NotMaximum(RuntimeError):
    """Cut extraction requires a completed (not early-terminated) max flow."""


@dataclass(frozen=True)
class FlowResult:
    """A flow with its residual graph: ``residual[2a]`` is the residual
    along arc ``a``, ``residual[2a + 1]`` the residual against it, which is
    the flow on ``a``."""

    residual: list[Rational]
    value: Rational
    terminated_early: bool

    @property
    def flow(self) -> dict[int, Rational]:
        """The flow on each arc that carries any."""
        return {a: f for a, f in enumerate(self.residual[1::2]) if f > 0}


@dataclass(frozen=True)
class Cut:
    arc_ids: frozenset[int]
    capacity: Rational


def max_flow(net: Network, ecap, s: int, t: int, target=None) -> FlowResult:
    """Maximum s-t flow under effective capacities, stopping early at ``target``.

    Shortest augmenting paths (Edmonds-Karp): each augmentation is one
    breadth-first search from s over the network's cached residual edges,
    cut short once t is reached, and at most |V|.|E|/2 augmentations run
    whatever the capacities.  Only the capacities are per flow, and they are
    returned as the result's ``residual``.

    ``terminated_early`` is set iff ``target`` is at most the maximum value;
    the flow then has value >= target.  Otherwise the flow is maximum.
    """
    if s == t:
        raise ValueError("source equals sink")
    heads, adj = net.residual_edges
    cap: list[Rational] = [0] * (2 * net.n_arcs)
    cap[::2] = [ecap.get(a, 0) for a in range(net.n_arcs)]
    total = 0
    while target is None or total < target:
        into = [-1] * net.n_vertices  # the residual edge a BFS reached each vertex by
        into[s] = 0  # reached; the walk back from t stops before reading it
        frontier = [s]
        for v in frontier:
            for eid in adj[v]:
                w = heads[eid]
                if into[w] < 0 and cap[eid] > 0:
                    into[w] = eid
                    frontier.append(w)
            if into[t] >= 0:
                break
        if into[t] < 0:
            break  # no augmenting path: the flow is maximum
        path = []
        v = t
        while v != s:
            path.append(into[v])
            v = heads[into[v] ^ 1]
        got = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= got
            cap[eid ^ 1] += got
        total += got
    return FlowResult(cap, total, target is not None and total >= target)


def _reach(net: Network, start: int, flow_result: FlowResult, back: int) -> set[int]:
    """The vertices ``start`` reaches in a flow's residual graph (``back``
    0), or those that reach ``start`` (``back`` 1): edge ``e`` is walked
    when ``residual[e ^ back]`` is positive, the edge itself or its reverse."""
    heads, adj = net.residual_edges
    residual = flow_result.residual
    seen = {start}
    stack = [start]
    while stack:
        for eid in adj[stack.pop()]:
            w = heads[eid]
            if residual[eid ^ back] > 0 and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def extract_cut(
    net: Network, ecap, flow_result: FlowResult, s: int, t: int, side: str
) -> Cut:
    """Front or back minimum cut from the residual graph of a maximum flow.

    Front: the arcs that leave the vertices residual-reachable from s.
    Back: the arcs that enter the vertices that residually reach t.  Either
    arc set is the full boundary of a bipartition, and its capacity, the
    sum of ``ecap`` over it, equals the max-flow value.  Under positive
    capacities each cut holds only arcs on some s-t route; a zero-capacity
    arc off every route may join it at no capacity.
    """
    if flow_result.terminated_early:
        raise NotMaximum("flow was early-terminated; rerun without a target")
    if side not in ("front", "back"):
        raise ValueError("side must be 'front' or 'back'")
    back = int(side == "back")
    inside = _reach(net, t if back else s, flow_result, back)
    heads, adj = net.residual_edges
    # edge 2a leaves arc a's tail along it, edge 2a + 1 leaves its head against it
    cut = frozenset(
        eid >> 1 for v in inside for eid in adj[v]
        if eid & 1 == back and heads[eid] not in inside
    )
    return Cut(cut, sum(ecap.get(a, 0) for a in cut))


def cut_tree(net: Network, ecap) -> dict[tuple[int, int], Rational]:
    """lambda(s,t) for every vertex pair s < t under capacities that are
    symmetric per full-duplex link, from n - 1 max-flows (Gusfield's
    flow-equivalent tree).

    With ``cap(u,v) = cap(v,u)`` every cut function is symmetric, so
    lambda(s,t) = lambda(t,s) and the minimum over the tree path between two
    vertices is their min-cut value (Gomory & Hu 1961).  Vertex s hangs below
    ``parent[s] < s``: its flow runs from ``parent[s]`` to s, and the later
    vertices on s's side of that minimum cut (the vertices that reach s in
    the residual graph) that shared s's parent move below s.  A subtree thus
    holds only higher ids, and the path from s to any j < s leaves through
    ``parent[s]``, which gives the values row by row."""
    n = net.n_vertices
    parent = [0] * n
    lam: dict[tuple[int, int], Rational] = {}
    for s in range(1, n):
        p = parent[s]
        result = max_flow(net, ecap, p, s)
        side = _reach(net, s, result, 1)
        for j in range(s + 1, n):
            if parent[j] == p and j in side:
                parent[j] = s
        for j in range(s):
            lam[j, s] = result.value if j == p else min(result.value, lam[min(j, p), max(j, p)])
    return lam


def all_pairs_maxflow(net: Network) -> dict[tuple[int, int], Fraction]:
    """lambda_G(s,t) for every ordered vertex pair under full capacities.

    A full-duplex link's arcs share ``ccap`` and ``mu``, so the capacities are
    link-symmetric and one cut tree gives every value; a simplex network runs
    one max-flow per ordered pair.  The flows run on integers, the capacities
    scaled by ``net.ccap_scale``; dividing the values back keeps them exact."""
    scale = net.ccap_scale
    icap = {arc.id: int(arc.fcap * scale) for arc in net.arcs}
    pairs = list(permutations(range(net.n_vertices), 2))
    if net.link_pair is None:
        values = [max_flow(net, icap, s, t).value for s, t in pairs]
    else:
        tree = cut_tree(net, icap)
        values = [tree[min(pair), max(pair)] for pair in pairs]
    return {pair: Fraction(value, scale) for pair, value in zip(pairs, values)}
