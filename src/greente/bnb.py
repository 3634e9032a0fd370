"""Exact branch-and-bound driver over an LpModel with callback hooks.

At every node one refine callback runs until it adds nothing, before any
branching: it prices in columns, separates rows, or both.  What it adds must
be globally valid, since it stays in the shared model for the rest of the
search.  It sees infeasible relaxations too, with their Farkas ray, since
columns can restore feasibility.  The root starts at the zero-dual bound
(every column at the bound its cost prefers), so a search cut off before its
first solve still reports a finite bound; columns refine adds must not lower it.
The heuristic callback sees every optimal relaxation, before refine; a
feasible point it returns that beats the incumbent replaces it, so the node's
prune check already uses it.

When every costed column is an integer column with an integer cost, every
feasible value is a multiple of g, the gcd of the costs, so a node's bound
rounds up to a multiple of g before it is compared with the incumbent (a
full-duplex link costs 2 per count).
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .lp import INT_TOL, LpModel, LpSolution, _dual_bound, frac_dist, solve_lp


class IncumbentRejected(RuntimeError):
    """An integral node passed all callbacks yet the incumbent filter said no."""


@dataclass
class BnbConfig:
    time_limit: float | None = None
    mode: str = "float"
    # sees optimal and infeasible relaxations; returns the columns or rows it added
    refine: Callable[[LpModel, LpSolution], list[int]] | None = None
    # a feasible (value, primal) read off an optimal relaxation, or None
    heuristic: Callable[[LpSolution], tuple[object, dict] | None] | None = None
    accept_incumbent: Callable[[LpSolution], bool] | None = None
    branch_select: Callable[[LpSolution, list[int]], int] | None = None
    initial_incumbent: tuple[object, dict] | None = None  # (value, primal)


@dataclass
class BnbResult:
    status: str  # optimal | infeasible | timeout
    incumbent: LpSolution | None
    bound: object
    nodes: int = 0
    bound_history: list = field(default_factory=list)


def branch_and_bound(model: LpModel, integer_columns, config: BnbConfig) -> BnbResult:
    """Exact optimum over integer assignments of ``integer_columns``."""
    integer_columns = list(integer_columns)
    start = time.perf_counter()
    deadline = None if config.time_limit is None else start + config.time_limit

    incumbent: LpSolution | None = None
    incumbent_value = math.inf

    def offer(value, primal) -> None:
        """Keep (value, primal) as the incumbent if it is strictly better."""
        nonlocal incumbent, incumbent_value
        if float(value) < incumbent_value - 1e-12:
            incumbent = LpSolution("optimal", dict(primal), {}, value)
            incumbent_value = float(value)

    if config.initial_incumbent is not None:
        offer(*config.initial_incumbent)

    integer_set = set(integer_columns)

    def objective_step() -> int:
        """The gcd g of the costs when every costed column is an integer
        column with an integer cost, so every feasible value is a multiple of
        g; 0 otherwise.  Read at prune time, since pricing may add costed
        continuous columns."""
        step = 0
        for j, c in enumerate(model.objective):
            if c != 0:
                if j not in integer_set or c % 1 != 0:
                    return 0
                step = math.gcd(step, int(c))
        return step

    def prunable(bound) -> bool:
        """The bound, rounded up to a multiple of the objective's step when
        it has one, reaches the incumbent."""
        if incumbent is None:
            return False
        b = float(bound)
        if math.isinf(b):
            return b > 0
        g = objective_step()
        if g:
            return math.ceil(b / g - INT_TOL) * g >= incumbent_value - 1e-9
        return b >= incumbent_value - 1e-9 * (1 + abs(incumbent_value))

    # nodes: (bound estimate, seq, {col: (lb, ub)})
    seq = 0
    root, finite = _dual_bound(model, {}, model.objective, config.mode == "exact")
    open_nodes: list[tuple[float, int, dict]] = [(float(root) if finite else -math.inf, seq, {})]
    nodes_done = 0
    history: list[float] = []

    def global_bound() -> float:
        """No solution beats the least open bound or the incumbent, whichever
        is lower; an open node may sit above the incumbent until it is popped."""
        return min(open_nodes[0][0], incumbent_value) if open_nodes else incumbent_value

    def record_bound():
        history.append(global_bound())

    def finish(status: str) -> BnbResult:
        return BnbResult(status, incumbent, global_bound(), nodes_done, history)

    while open_nodes:
        if deadline is not None and time.perf_counter() > deadline:
            return finish("timeout")
        bound_est, _, overrides = heapq.heappop(open_nodes)
        if prunable(bound_est):
            continue
        saved = {col: model.bounds(col) for col in overrides}
        for col, (lo, hi) in overrides.items():
            model.set_bounds(col, lo, hi)
        try:
            while True:
                sol = solve_lp(model, config.mode)
                if sol.status == "unbounded":
                    raise RuntimeError("node relaxation is unbounded")
                optimal = sol.status == "optimal"
                if optimal and deadline is not None and time.perf_counter() > deadline:
                    seq += 1
                    heapq.heappush(open_nodes, (bound_est, seq, overrides))
                    return finish("timeout")  # finally still restores the bounds
                if optimal and config.heuristic is not None:
                    found = config.heuristic(sol)
                    if found is not None:
                        offer(*found)
                if config.refine is not None and config.refine(model, sol):
                    continue
                break
            nodes_done += 1
            if sol.status != "optimal":
                record_bound()
                continue
            node_bound = max(float(bound_est), float(sol.objective))
            if prunable(node_bound):
                record_bound()
                continue
            fractional = [j for j in integer_columns if frac_dist(sol.primal[j]) > INT_TOL]
            if not fractional:
                ok = True
                if config.accept_incumbent is not None:
                    ok = config.accept_incumbent(sol)
                if not ok:
                    raise IncumbentRejected(
                        "integral node rejected with no remaining refinement"
                    )
                offer(sol.objective, sol.primal)
                record_bound()
                continue
            if config.branch_select is not None:
                col = config.branch_select(sol, fractional)
            else:
                col = max(fractional, key=lambda j: (frac_dist(sol.primal[j]), -j))
            x = float(sol.primal[col])
            lo, hi = overrides.get(col, model.bounds(col))
            down = dict(overrides)
            down[col] = (lo, math.floor(x + INT_TOL))
            up = dict(overrides)
            up[col] = (math.ceil(x - INT_TOL), hi)
            for child in (down, up):
                seq += 1
                heapq.heappush(open_nodes, (node_bound, seq, child))
            record_bound()
        finally:
            for col, (lo, hi) in saved.items():
                model.set_bounds(col, lo, hi)

    if incumbent is not None:
        return BnbResult("optimal", incumbent, incumbent.objective, nodes_done, history)
    return BnbResult("infeasible", None, math.inf, nodes_done, history)
