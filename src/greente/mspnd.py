"""Exact shortest-path network design via branch-and-price.

The path-based ILP keeps an integer activation count and a binary indicator
per link (a full-duplex link's two arcs share both), and one nonnegative
column per candidate routing path.  Path columns are priced on demand through
the branch-and-bound ``refine`` hook: each round reads every terminal pair's
connectivity dual (its bound) and per-arc dual costs straight from the LP
solution, and ``routing.ordered_paths``, the label search that also seeds
the root at zero cost, returns the order-first new path below that bound.
Optional subpath rows (a chosen path forces its prefixes and suffixes to be
chosen between their endpoints too) tighten the relaxation.  A strengthened
model leaves out the rows that others imply (see ``add_path_column``): each
path is tied to its longest prefix and suffix, which ties it to every
shorter one by transitivity; an ordering row waits for its pair's first
longer path, as ``y <= 1`` implies it until then; and a subpath-only pair
gets an arc's edge-buying row once two of its columns use the arc, since
one column is held below ``y`` by the paths it is tied to.  A path of more
than ``EAGER_HOPS`` hops gets those ties, and with them its subpath columns,
only once its column is positive at an optimal LP (Muter, Birbil & Bülbül,
Math. Prog. 2013: rows that exist once their columns are needed); until
then the model holds a subset of the eager model's rows, so it is a
relaxation and every bound stays valid.  On full-duplex
networks ``solve_mspnd`` adds Steiner-forest connectivity rows on the link
indicators, which close the gap that the paper's relaxation leaves there
(it can spread ``y`` thinly over a cycle).  The trivial fixed-routing solver
and a brute-force oracle live here as well.

Every row a path column enters is oriented so that its dual is nonnegative
at an optimum, which the pricing bound relies on.
"""
from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .bnb import branch_and_bound
from .lp import EQ, GE, INT_TOL, LpModel, LpSolution, frac_dist
from .lp import solve_lp  # noqa: F401 -- unused here; perfbench/layers.py wraps mspnd.solve_lp
from .model import (
    FULL_DUPLEX,
    Activation,
    Network,
    Result,
    TrafficMatrix,
    decode_activation,
    full_activation,
)
from .routing import (
    Disconnected,
    Path,
    RoutingResult,
    is_spr_routable,
    k_shortest_paths,
    make_path,
    ordered_paths,
    shortest_path_unique,
    spr_route,
)

INITIAL_PATHS = 5
EAGER_HOPS = 4  # longer paths get their subpath closure once their column is positive


class NotRoutableInFull(RuntimeError):
    pass


class DisconnectedPair(NotRoutableInFull):
    pass


class DuplicatePath(ValueError):
    pass


class TooLarge(RuntimeError):
    pass


@dataclass
class _PathEntry:
    column: int
    short_row: int | None  # None until the pair has a longer column


class _PairData:
    def __init__(self, s: int, t: int, demand: Fraction, conn_row: int | None):
        self.s = s
        self.t = t
        self.demand = demand
        self.conn_row = conn_row
        self.eb_row: dict[int, int] = {}
        self.eb_first: dict[int, int] = {}  # auxiliary pair: arc -> its one column
        self.entries: dict[tuple[int, ...], _PathEntry] = {}
        self.order: list[tuple[tuple, tuple[int, ...]]] = []  # (order key, arcs)


class MspndModel:
    """LP model plus the registry of priced paths per (terminal or auxiliary) pair."""

    def __init__(self, net: Network, traffic: TrafficMatrix, strengthening: bool):
        self.net = net
        self.traffic = traffic
        self.strengthening = strengthening
        self.lp = LpModel()
        # per arc, so a link's arcs repeat its columns
        self.x_col: list[int] = [0] * net.n_arcs
        self.y_col: list[int] = [0] * net.n_arcs
        self.cap_row: list[int] = [0] * net.n_arcs
        self.pairs: dict[tuple[int, int], _PairData] = {}
        self.deferred: dict[int, Path] = {}  # column -> its path, closure not yet added
        # no arc has a strictly shorter parallel route
        self.one_shortest = all(net.lengths_to[a.head][a.tail] == a.length for a in net.arcs)
        for link in net.links:
            mu = net.arcs[link[0]].mu
            x = self.lp.add_column(obj=len(link), lb=0, ub=mu)
            y = self.lp.add_column(obj=0, lb=0, ub=1)
            for a in link:
                self.x_col[a], self.y_col[a] = x, y
                self.cap_row[a] = self.lp.add_row({x: net.arcs[a].ccap}, GE, 0)
            self.lp.add_row({x: 1, y: -1}, GE, 0)
            self.lp.add_row({y: mu, x: -1}, GE, 0)

    @property
    def terminal_pairs(self) -> list[tuple[int, int]]:
        return [p for p in sorted(self.pairs) if self.pairs[p].conn_row is not None]

    def ensure_pair(self, pair: tuple[int, int]) -> _PairData:
        pd = self.pairs.get(pair)
        if pd is None:
            demand = self.traffic.demand(*pair)
            conn = None
            if demand > 0:
                conn = self.lp.add_row({}, GE, 1)
            pd = _PairData(pair[0], pair[1], demand, conn)
            self.pairs[pair] = pd
        return pd


def build_root_model(net: Network, traffic: TrafficMatrix, strengthening: bool = True) -> MspndModel:
    """Root model: all activation columns, plus the five shortest paths per pair."""
    model = MspndModel(net, traffic, strengthening)
    for pair in traffic.terminals:
        model.ensure_pair(pair)
    for pair in traffic.terminals:
        paths = k_shortest_paths(net, pair[0], pair[1], INITIAL_PATHS)
        if not paths:
            raise DisconnectedPair(f"no path for terminal pair {pair}")
        pd = model.pairs[pair]
        for path in paths:
            if path.arcs not in pd.entries:
                add_path_column(model, pair, path)
    return model


def add_path_column(model: MspndModel, pair: tuple[int, int], path: Path) -> int:
    """Add one path column, updating the rows it couples to.

    The new column enters the pair's connectivity row, its arcs' edge-buying
    and capacity rows, and the ordering rows of the pair's shorter paths; its
    own ordering row caps the longer ones.  With strengthening on, three
    rules leave out rows that other rows or bounds imply, so every LP over
    the same columns and bounds keeps its optimal value:

    - An ordering row is created just before the pair's first longer column
      is added.  Until then it reads ``sum of y <= hops``, which ``y <= 1``
      implies.
    - On an auxiliary pair (no connectivity row) the edge-buying row of an
      arc is created only when a second column of the pair uses it, as
      ``y_a >= first + second``.  An auxiliary column S has no connectivity
      row and no capacity coefficient, so lowering ``x_S`` to the largest
      column tied to it relaxes every row S is in; each of those columns
      holds the arc too and keeps ``y_a`` above itself the same way.
    - A path of h >= 2 hops is tied (``sub >= path``) to its longest prefix
      and its longest suffix only, each added first if missing.  The
      recursion through those two still adds every contiguous subpath as a
      column, and the other 2h - 4 prefix and suffix ties follow by
      transitivity.  Single-arc subpaths get no tie under one-shortest
      lengths.  A path of more than ``EAGER_HOPS`` hops waits in
      ``model.deferred`` until ``_refine_round`` sees its column positive
      at an optimal LP; it then gets these ties, and its long subpaths
      wait in turn.  Leaving rows out only relaxes the LP, and integral
      nodes are still checked exactly, so no optimum is lost.
    """
    lp = model.lp
    pd = model.ensure_pair(pair)
    if path.arcs in pd.entries:
        raise DuplicatePath(f"path {path.arcs} already priced for pair {pair}")
    key = path.order_key()
    coefs: dict[int, object] = {}
    if pd.conn_row is not None:
        coefs[pd.conn_row] = 1
    alone = []  # arcs of an auxiliary pair that no other column uses yet
    for aid in path.arcs:
        row = pd.eb_row.get(aid)
        if row is None:
            eb = {model.y_col[aid]: 1}
            if pd.conn_row is None:
                if aid not in pd.eb_first:
                    alone.append(aid)
                    continue
                eb[pd.eb_first.pop(aid)] = -1
            row = pd.eb_row[aid] = lp.add_row(eb, GE, 0)
        coefs[row] = -1
        if pd.demand > 0:
            coefs[model.cap_row[aid]] = -pd.demand
    at = bisect_left(pd.order, (key,))  # pd.order[:at] are the shorter paths
    for _, arcs in pd.order[:at]:
        entry = pd.entries[arcs]
        if entry.short_row is None:
            entry.short_row = lp.add_row({model.y_col[a]: -1 for a in arcs}, GE, -len(arcs))
        coefs[entry.short_row] = -1
    column = lp.add_column(obj=0, lb=0, ub=None, coefs=coefs)
    pd.eb_first.update(dict.fromkeys(alone, column))
    longer = [pd.entries[arcs].column for _, arcs in pd.order[at:]]
    short_row = None
    if longer or not model.strengthening:
        short_coefs: dict[int, object] = {model.y_col[aid]: -1 for aid in path.arcs}
        short_coefs.update(dict.fromkeys(longer, -1))
        short_row = lp.add_row(short_coefs, GE, -path.hops)
    pd.entries[path.arcs] = _PathEntry(column, short_row)
    pd.order.insert(at, (key, path.arcs))

    if model.strengthening and path.hops >= 2:
        if path.hops <= EAGER_HOPS:
            _expand(model, path, column)
        else:
            model.deferred[column] = path
    return column


def _expand(model: MspndModel, path: Path, column: int) -> None:
    """Tie ``column`` (holding ``path``) to its longest prefix and suffix,
    adding either first if the model lacks it."""
    arcs = model.net.arcs
    first, last = arcs[path.arcs[0]], arcs[path.arcs[-1]]
    prefix = Path(path.source, last.tail, path.arcs[:-1], path.length - last.length)
    suffix = Path(first.head, path.target, path.arcs[1:], path.length - first.length)
    for sub in (prefix, suffix):
        if sub.hops == 1 and model.one_shortest:
            continue
        sub_pd = model.ensure_pair((sub.source, sub.target))
        if sub.arcs not in sub_pd.entries:
            add_path_column(model, (sub.source, sub.target), sub)
        model.lp.add_row({sub_pd.entries[sub.arcs].column: 1, column: -1}, GE, 0)


def _refine_round(model: MspndModel, sol: LpSolution) -> list[int]:
    """One pricing round, then, at an optimal master, the closure of every
    deferred column the LP uses (above ``INT_TOL``); returns the columns
    priced and expanded."""
    added = _price_round(model, sol)
    if sol.status == "optimal":
        used = [j for j in model.deferred if sol.primal.get(j, 0) > INT_TOL]
        for j in used:
            _expand(model, model.deferred.pop(j), j)
        added += used
    return added


def price_paths(model: MspndModel, pair: tuple[int, int], bound, dcost) -> Path | None:
    """The first new elementary path for ``pair`` in (length, dual cost, hops,
    arc ids) order whose dual cost (``dcost`` per arc id) stays below
    ``bound``, or None when no such path exists: the first path of
    ``routing.ordered_paths`` that the model does not hold yet.  With
    nonnegative costs a bound <= 0 finds nothing, so callers skip such pairs.
    """
    pd = model.pairs[pair]
    paths = ordered_paths(model.net, pd.s, pd.t, model.net.lengths_to[pd.t], dcost, bound)
    arcs = next((arcs for arcs in paths if arcs not in pd.entries), None)
    return None if arcs is None else make_path(model.net, arcs)


def _price_round(model: MspndModel, sol: LpSolution) -> list[int]:
    """One new path per terminal pair against an optimal master's duals or an
    infeasible one's Farkas ray, added once every pair is priced.

    A pair's bound is its connectivity dual alpha; an arc costs its
    edge-buying dual plus demand times its capacity dual.  Path columns cost
    0 with bounds [0, inf), so both statuses ask for a path cheaper than
    alpha.  The entries pricing ignores (ordering rows of shorter paths) only
    raise a column's reduced cost: finding nothing keeps the duals optimal,
    or the ray a proof that the full master is infeasible.  Float duals clamp
    tiny negatives to zero and must beat alpha by 1e-9.
    """
    dual = sol.dual
    exact = not isinstance(next(iter(dual.values()), 0), float)
    eps = 0 if exact else 1e-9

    def y(row):
        v = dual.get(row, 0)
        return v if exact or v > 0 else 0.0

    gamma = [y(row) for row in model.cap_row]
    found = []
    for pair in model.terminal_pairs:
        pd = model.pairs[pair]
        bound = y(pd.conn_row) - eps
        if bound <= 0:  # path costs are nonnegative, so none is cheaper
            continue
        # a Fraction times a float is float(Fraction) times it, so in float
        # mode the demand converts once per pair, not once per arc
        demand = pd.demand if exact else float(pd.demand)
        dcost = [
            (y(pd.eb_row[a]) if a in pd.eb_row else 0) + demand * g
            for a, g in enumerate(gamma)
        ]
        path = price_paths(model, pair, bound, dcost)
        if path is not None:
            found.append((pair, path))
    # a subpath column of an earlier pair's path may already hold a later path
    return [
        add_path_column(model, pair, path)
        for pair, path in found
        if path.arcs not in model.pairs[pair].entries
    ]


def _complete_spr_paths(model: MspndModel, sol: LpSolution) -> list[int]:
    """At integral nodes, pull the decoded network's true routing paths in.

    The relaxation only constrains paths present in the model; if the unique
    shortest active path of some pair is missing, its ordering row is what
    cuts the bogus point off, so adding the column restores correctness.
    """
    activation = decode_activation(model.net, sol.primal, model.x_col)
    added = []
    for pair in model.terminal_pairs:
        path = shortest_path_unique(model.net, activation, pair[0], pair[1])
        if path is not None and path.arcs not in model.pairs[pair].entries:
            added.append(add_path_column(model, pair, path))
    return added


def _fewest_connections(net: Network, load, link) -> int:
    """Fewest connections that carry ``load`` on ``link``: the largest ceil(load / ccap)."""
    return max(-(-load.get(a, 0) // net.arcs[a].ccap) for a in link)


def _lp_drop(model: MspndModel, routed: RoutingResult, sol: LpSolution) -> tuple[int, dict]:
    """LP-guided drop heuristic: from full activation, set every link, once
    each in ascending LP ``x`` order (ties by lowest arc id), to the fewest
    connections that carry its current load, or to 0 if it needs at most one
    and the network stays SPR-routable without it.  Returns ``(value,
    primal)``.  ``routed`` is the full network's routing, which must fit at
    full activation: routability is not monotone in the counts.

    A link left active changes no path, and its load fits at ``mu``, where
    every unvisited link still is.  A drop to zero re-routes only the pairs
    whose path used the link: an order-minimal path stays order-minimal when
    arcs it does not use go away.
    """
    net, traffic = model.net, model.traffic
    path_of, load = dict(routed.path_of), dict(routed.load)
    counts = list(full_activation(net).counts)

    def drop_to_zero(link) -> bool:
        """Re-route the pairs that used ``link`` (now at count 0) and keep
        their new paths and loads if they fit."""
        active = Activation(tuple(counts))
        moved, changed = {}, {}
        for pair, path in path_of.items():
            if not any(b in link for b in path.arcs):
                continue
            new = shortest_path_unique(net, active, *pair)
            if new is None:
                return False
            moved[pair] = new
            d = traffic.demand(*pair)
            for b in path.arcs:
                changed[b] = changed.get(b, load[b]) - d
            for b in new.arcs:
                changed[b] = changed.get(b, load.get(b, 0)) + d
        if any(ld > net.arcs[b].ccap * counts[b] for b, ld in changed.items()):
            return False
        path_of.update(moved)
        load.update(changed)
        return True

    x = sol.primal
    for link in sorted(net.links, key=lambda link: (x[model.x_col[link[0]]], link[0])):
        need = _fewest_connections(net, load, link)
        for b in link:
            counts[b] = 0
        if need > 1 or not drop_to_zero(link):
            for b in link:
                counts[b] = max(need, 1)
    return sum(counts), _activation_primal(model, counts)


def _activation_primal(model: MspndModel, counts) -> dict:
    """The x and y columns of an activation, as a B&B primal point."""
    primal = {model.x_col[a]: chi for a, chi in enumerate(counts)}
    primal.update({model.y_col[a]: int(chi > 0) for a, chi in enumerate(counts)})
    return primal


def root_lp_value(net: Network, traffic: TrafficMatrix, strengthening: bool, mode: str = "exact"):
    """Root relaxation value once pricing is exhausted (no branching); an
    infeasible restricted master is priced against its Farkas ray."""
    model = build_root_model(net, traffic, strengthening)
    result = branch_and_bound(model.lp, [], mode=mode, refine=lambda _, s: _refine_round(model, s))
    if result.incumbent is None:
        raise NotRoutableInFull("relaxation infeasible: no activation can route the demands")
    return result.incumbent.objective


def solve_f_mspnd(net: Network, traffic: TrafficMatrix) -> Activation:
    """Fixed-routing baseline: route in the full network, then set every link
    to the fewest connections that carry its load (0 on an unused link); kept
    arcs still carry the same unique shortest paths."""
    try:
        routed = spr_route(net, full_activation(net), traffic)
    except Disconnected as exc:
        raise NotRoutableInFull(str(exc)) from exc
    counts = [0] * net.n_arcs
    for link in net.links:
        need = _fewest_connections(net, routed.load, link)
        if need > net.arcs[link[0]].mu:
            raise NotRoutableInFull(f"link {link} overloaded even at full activation")
        for a in link:
            counts[a] = need
    activation = Activation(tuple(counts))
    activation.validate(net)
    return activation


def _add_steiner_rows(model: MspndModel) -> None:
    """Full-duplex connectivity rows on the link indicators ``y``: the count
    row, then per demand component, in ascending order of its lowest terminal
    r, one block of arc columns ``z`` and one block of arc columns ``f^t``
    per other terminal t in ascending order (see ``solve_mspnd``)."""
    net, lp = model.net, model.lp
    components: list[set[int]] = []  # of the undirected demand graph
    for pair in model.traffic.terminals:
        touching = [c for c in components if not c.isdisjoint(pair)]
        components = [c for c in components if c not in touching]
        components.append(set(pair).union(*touching))
    components.sort(key=min)
    n_terminals = sum(len(c) for c in components)
    lp.add_row({model.y_col[a]: 1 for a, _ in net.links}, GE, n_terminals - len(components))
    for component in components:
        r, *others = sorted(component)
        z = [lp.add_column() for _ in net.arcs]
        for a, rev in net.links:
            lp.add_row({model.y_col[a]: 1, z[a]: -1, z[rev]: -1}, GE, 0)
        for t in others:
            f = [lp.add_column() for _ in net.arcs]
            for a in net.arcs:
                lp.add_row({z[a.id]: 1, f[a.id]: -1}, GE, 0)
            for v in range(net.n_vertices):
                coefs = {f[a.id]: 1 for a in net.out_arcs[v]}
                coefs.update({f[a.id]: -1 for a in net.in_arcs[v]})
                lp.add_row(coefs, EQ, int(v == r) - int(v == t))


def solve_mspnd(
    net: Network,
    traffic: TrafficMatrix,
    strengthening: bool = True,
    time_limit: float | None = None,
) -> Result:
    """Exact minimum-activation design with shortest-path routability.

    Branch-and-price over the activation columns only (path columns stay
    continuous); every incumbent is re-verified exactly against the routing
    semantics before acceptance.  Raises NotRoutableInFull when the search
    proves that no activation at all can route the demands.  ``time_limit``
    counts from entry, so the root build and the F-MSPND start spend it too.

    On full-duplex networks the root model gets connectivity rows on the
    link indicators ``y``, with T the terminal vertices and c the number of
    components of the undirected demand graph:

    - the count row: the sum of ``y`` over links is at least |T| - c;
    - per demand component, with r its lowest terminal, zero-cost continuous
      arc columns ``z >= 0`` with ``z_a + z_reverse(a) <= y_link``, and for
      every other terminal t one unit of r -> t flow ``f^t <= z``.

    They are valid because every demand pair is routed, so each demand
    component lies in one component of the active network.  A connected
    subgraph spanning k terminals has at least k - 1 links, so the active
    links number at least |T| - c; and a tree of active links spanning a
    demand component, oriented away from r, carries each r -> t unit using
    one direction per link.  The search is otherwise unchanged.  The rows touch
    only ``y`` and the new columns, so pricing reads exactly the duals it
    reads without them (connectivity, edge-buying and capacity rows); the new
    columns cost 0, so ``objective_step()`` stays 2; they are not integer
    columns, so branching ignores them.  The heuristics and ``root_lp_value``
    (the paper's relaxation) never see them.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    if not traffic.demands:
        act = Activation((0,) * net.n_arcs)
        return Result(act, "optimal", 0.0)
    model = build_root_model(net, traffic, strengthening)
    if net.duplex_mode == FULL_DUPLEX:
        _add_steiner_rows(model)
    int_cols = sorted(set(model.x_col + model.y_col))

    def refine(lp_model, sol):  # optimal or infeasible; SPR completion needs a primal
        added = _refine_round(model, sol)
        if not added and sol.status == "optimal":
            if all(frac_dist(sol.primal[j]) <= INT_TOL for j in int_cols):
                added = _complete_spr_paths(model, sol)
        return added

    def accept(sol):
        return is_spr_routable(net, decode_activation(net, sol.primal, model.x_col), traffic)

    initial, drop = None, None
    try:
        warm = solve_f_mspnd(net, traffic)
    except NotRoutableInFull:
        pass  # the fixed-routing bound and the drop start need full-network routing
    else:
        routed = spr_route(net, warm, traffic)  # F-MSPND keeps every full-network path
        initial = (warm.value, _activation_primal(model, warm.counts))
        drop = lambda sol: _lp_drop(model, routed, sol)
    result = branch_and_bound(
        model.lp, int_cols, deadline=deadline, refine=refine, heuristic=drop,
        accept_incumbent=accept, initial_incumbent=initial,
    )
    if result.incumbent is None:
        if result.status == "infeasible":
            raise NotRoutableInFull("no activation can route the demands")
        raise RuntimeError("time limit reached before any feasible activation was found")
    activation = decode_activation(net, result.incumbent.primal, model.x_col)
    if not is_spr_routable(net, activation, traffic):
        raise RuntimeError("the final activation does not route its traffic")
    return Result(activation, result.status, float(result.bound))


def brute_force_mspnd(net: Network, traffic: TrafficMatrix) -> Activation:
    """Exhaustive oracle over one count per link; guarded against oversized
    search spaces."""
    mus = [net.arcs[link[0]].mu for link in net.links]
    size = 1
    for mu in mus:
        size *= mu + 1
        if size > 10_000_000:
            raise TooLarge("activation space exceeds 1e7 vectors")
    best: Activation | None = None
    for combo in itertools.product(*(range(mu + 1) for mu in mus)):
        counts = [0] * net.n_arcs
        for link, chi in zip(net.links, combo):
            for a in link:
                counts[a] = chi
        value = sum(counts)
        if best is not None and value >= best.value:
            continue
        candidate = Activation(tuple(counts))
        if is_spr_routable(net, candidate, traffic):
            best = candidate
    if best is None:
        raise NotRoutableInFull("no feasible activation exists")
    return best
