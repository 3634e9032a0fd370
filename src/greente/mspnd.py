"""Exact shortest-path network design via branch-and-price.

The path-based ILP keeps an integer activation count and a binary indicator
per link (a full-duplex link's two arcs share both), and one nonnegative
column per candidate routing path.  Path columns are priced on demand through
the branch-and-bound ``refine`` hook: each round reads every terminal pair's
connectivity dual (its bound) and per-arc dual costs straight from the LP
solution, and ``routing.ordered_paths``, the label search that also seeds
the root at zero cost, returns the order-first new path below that bound.
Optional subpath rows (a chosen path forces its prefixes and suffixes to be
chosen between their endpoints too) tighten the relaxation.  The trivial
fixed-routing solver and a brute-force oracle live here as well.

All rows are oriented so that their duals are nonnegative at an optimum,
which the pricing bound relies on.
"""
from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .bnb import BnbConfig, branch_and_bound
from .lp import GE, INT_TOL, LpModel, LpSolution, frac_dist
from .lp import solve_lp  # noqa: F401 -- unused here; perfbench/layers.py wraps mspnd.solve_lp
from .model import (
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
    costs_to,
    is_spr_routable,
    k_shortest_paths,
    make_path,
    ordered_paths,
    shortest_path_unique,
    spr_route,
)

INITIAL_PATHS = 5


class NotRoutableInFull(RuntimeError):
    pass


class DisconnectedPair(RuntimeError):
    pass


class DuplicatePath(ValueError):
    pass


class TooLarge(RuntimeError):
    pass


@dataclass
class _PathEntry:
    column: int
    short_row: int


class _PairData:
    def __init__(self, s: int, t: int, demand: Fraction, conn_row: int | None):
        self.s = s
        self.t = t
        self.demand = demand
        self.conn_row = conn_row
        self.eb_row: dict[int, int] = {}
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
        # full-network shortest lengths into every vertex, dist_to[v][u] from u
        lengths = [a.length for a in net.arcs]
        self.dist_to = [costs_to(net, lengths, v) for v in range(net.n_vertices)]
        # no arc has a strictly shorter parallel route
        self.one_shortest = all(self.dist_to[a.head][a.tail] == a.length for a in net.arcs)
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
    """Add one path column with its ordering row, updating coupled rows.

    The new column enters the pair's connectivity row, its arcs' edge-buying
    rows (created on first use) and capacity rows, and the ordering rows of
    all shorter model paths; its own ordering row caps the longer ones.  With
    strengthening on, prefix/suffix subpaths at every interior vertex are
    added recursively and tied to the new column; single-arc subpath rows are
    dropped under one-shortest lengths.
    """
    net = model.net
    pd = model.ensure_pair(pair)
    if path.arcs in pd.entries:
        raise DuplicatePath(f"path {path.arcs} already priced for pair {pair}")
    key = path.order_key()
    coefs: dict[int, object] = {}
    if pd.conn_row is not None:
        coefs[pd.conn_row] = 1
    for aid in path.arcs:
        row = pd.eb_row.get(aid)
        if row is None:
            row = model.lp.add_row({model.y_col[aid]: 1}, GE, 0)
            pd.eb_row[aid] = row
        coefs[row] = -1
        if pd.demand > 0:
            coefs[model.cap_row[aid]] = -pd.demand
    for okey, arcs in pd.order:
        if okey < key:
            coefs[pd.entries[arcs].short_row] = -1
    column = model.lp.add_column(obj=0, lb=0, ub=None, coefs=coefs)
    short_coefs: dict[int, object] = {model.y_col[aid]: -1 for aid in path.arcs}
    for okey, arcs in pd.order:
        if okey > key:
            short_coefs[pd.entries[arcs].column] = -1
    short_row = model.lp.add_row(short_coefs, GE, -path.hops)
    pd.entries[path.arcs] = _PathEntry(column, short_row)
    insort(pd.order, (key, path.arcs))

    if model.strengthening and path.hops >= 2:
        for cut in range(1, path.hops):
            for sub_arcs in (path.arcs[:cut], path.arcs[cut:]):
                if len(sub_arcs) == 1 and model.one_shortest:
                    continue
                sub = make_path(net, sub_arcs)
                sub_pd = model.ensure_pair((sub.source, sub.target))
                if sub.arcs not in sub_pd.entries:
                    add_path_column(model, (sub.source, sub.target), sub)
                model.lp.add_row({sub_pd.entries[sub.arcs].column: 1, column: -1}, GE, 0)
    return column


def price_paths(model: MspndModel, pair: tuple[int, int], bound, dcost) -> Path | None:
    """The first new elementary path for ``pair`` in (length, dual cost, hops,
    arc ids) order whose dual cost (``dcost`` per arc id) stays below
    ``bound``, or None when no such path exists: the first path of
    ``routing.ordered_paths`` that the model does not hold yet.  With
    nonnegative costs a bound <= 0 finds nothing, so callers skip such pairs.
    """
    pd = model.pairs[pair]
    paths = ordered_paths(model.net, pd.s, pd.t, model.dist_to[pd.t], dcost, bound)
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
        dcost = [
            (y(pd.eb_row[a]) if a in pd.eb_row else 0) + pd.demand * g
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
    activation = decode_activation(sol.primal, model.x_col)
    added = []
    for pair in model.terminal_pairs:
        path = shortest_path_unique(model.net, activation, pair[0], pair[1])
        if path is not None and path.arcs not in model.pairs[pair].entries:
            added.append(add_path_column(model, pair, path))
    return added


def _lp_drop(model: MspndModel, routed: RoutingResult, sol: LpSolution) -> tuple[int, dict]:
    """LP-guided drop heuristic: from full activation, lower each link's count
    while the network stays SPR-routable, visiting every link once in
    ascending LP ``x`` order (ties by lowest arc id).  Returns
    ``(value, primal)``.  ``routed`` is the full network's routing, which must
    fit at full activation: routability is not monotone in the counts, so the
    start has to be routable.

    Each trial is checked exactly and incrementally.  A drop that leaves an
    arc active changes no path, so only that arc's capacity can break.  A drop
    to zero re-routes only the pairs whose path used the arc: an order-minimal
    path stays order-minimal when arcs it does not use go away.
    """
    net, traffic = model.net, model.traffic
    path_of, load = dict(routed.path_of), dict(routed.load)
    counts = list(full_activation(net).counts)

    def over(loads) -> bool:
        return any(ld > net.arcs[b].ccap * counts[b] for b, ld in loads.items())

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
        if over(changed):
            return False
        path_of.update(moved)
        load.update(changed)
        return True

    x = sol.primal
    for link in sorted(net.links, key=lambda link: (x[model.x_col[link[0]]], link[0])):
        a = link[0]
        while counts[a] > 0:
            for b in link:
                counts[b] -= 1
            if counts[a] > 0 and not over({b: load.get(b, 0) for b in link}):
                continue
            if counts[a] == 0 and drop_to_zero(link):
                continue
            for b in link:
                counts[b] += 1
            break
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
    config = BnbConfig(mode=mode, refine=lambda _, sol: _price_round(model, sol))
    result = branch_and_bound(model.lp, [], config)
    if result.incumbent is None:
        raise NotRoutableInFull("relaxation infeasible: no activation can route the demands")
    return result.incumbent.objective


def solve_f_mspnd(net: Network, traffic: TrafficMatrix) -> Activation:
    """Fixed-routing baseline: route in the full network, then drop spare
    connections; kept arcs still carry the same unique shortest paths."""
    try:
        routed = spr_route(net, full_activation(net), traffic)
    except Disconnected as exc:
        raise NotRoutableInFull(str(exc)) from exc
    counts = [0] * net.n_arcs
    for aid, load in routed.load.items():
        arc = net.arcs[aid]
        need = -(-load // arc.ccap)  # exact ceiling of load / ccap
        if need > arc.mu:
            raise NotRoutableInFull(f"arc {aid} overloaded even at full activation")
        counts[aid] = int(need)
    for link in net.links:
        for a in link:
            counts[a] = max(counts[b] for b in link)
    activation = Activation(tuple(counts))
    activation.validate(net)
    return activation


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
    proves that no activation at all can route the demands.
    """
    if not traffic.demands:
        act = Activation((0,) * net.n_arcs)
        return Result(act, "optimal", 0.0)
    model = build_root_model(net, traffic, strengthening)
    int_cols = sorted(set(model.x_col + model.y_col))
    x_set = set(model.x_col)
    y_set = set(model.y_col)

    def refine(lp_model, sol):  # optimal or infeasible; SPR completion needs a primal
        added = _price_round(model, sol)
        if not added and sol.status == "optimal":
            if all(frac_dist(sol.primal[j]) <= INT_TOL for j in int_cols):
                added = _complete_spr_paths(model, sol)
        return added

    def accept(sol):
        return is_spr_routable(net, decode_activation(sol.primal, model.x_col), traffic)

    def branch_select(sol, fractional):
        ys = [j for j in fractional if j in y_set]
        pool = ys if ys else [j for j in fractional if j in x_set]
        return max(pool, key=lambda j: (frac_dist(sol.primal[j]), -j))

    config = BnbConfig(
        time_limit=time_limit,
        refine=refine,
        accept_incumbent=accept,
        branch_select=branch_select,
    )
    try:
        warm = solve_f_mspnd(net, traffic)
    except NotRoutableInFull:
        pass  # the fixed-routing bound and the drop start need full-network routing
    else:
        routed = spr_route(net, warm, traffic)  # F-MSPND keeps every full-network path
        config.initial_incumbent = (warm.value, _activation_primal(model, warm.counts))
        config.heuristic = lambda sol: _lp_drop(model, routed, sol)
    result = branch_and_bound(model.lp, int_cols, config)
    if result.incumbent is None:
        if result.status == "infeasible":
            raise NotRoutableInFull("no activation can route the demands")
        raise RuntimeError("time limit reached before any feasible activation was found")
    activation = decode_activation(result.incumbent.primal, model.x_col)
    activation.validate(net)
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
