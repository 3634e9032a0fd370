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
prune check already uses it.  The hooks are keyword arguments, and so is the
``deadline``: an instant, which each solver fixes once at its entry.

When every costed column is an integer column with an integer cost, every
feasible value is a multiple of g, the gcd of the costs, so a node's bound
rounds up to a multiple of g before it is compared with the incumbent (a
full-duplex link costs 2 per count).

A node that is not integral branches on its most fractional integer column,
ties going to the lowest column id; the down child is pushed first.

Node LPs are solved cold without presolve (``solve_lp(..., presolve=False)``):
each differs from the one before by a few columns, rows or bounds.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .lp import INT_TOL, LpModel, LpSolution, _dual_bound, frac_dist, solve_lp

PRUNE_SLACK = 1e-9  # a float bound this close below the incumbent still prunes


class IncumbentRejected(RuntimeError):
    """An integral node passed all callbacks yet the incumbent filter said no."""


@dataclass
class BnbResult:
    status: str  # optimal | infeasible | timeout
    incumbent: LpSolution | None
    bound: object
    nodes: int = 0
    bound_history: list = field(default_factory=list)


def branch_and_bound(
    model: LpModel, integer_columns, *, deadline: float | None = None, mode: str = "float",
    refine: Callable[[LpModel, LpSolution], list[int]] | None = None,
    heuristic: Callable[[LpSolution], tuple[object, dict] | None] | None = None,
    accept_incumbent: Callable[[LpSolution], bool] | None = None,
    initial_incumbent: tuple[object, dict] | None = None,
) -> BnbResult:
    """Exact optimum over integer assignments of ``integer_columns``.

    ``deadline`` is a ``time.perf_counter()`` instant after which the search
    stops with status ``timeout`` (None: no limit); ``mode`` goes to every
    ``solve_lp``.  ``refine(model, sol)`` sees optimal and infeasible
    relaxations and returns the columns or rows it added; ``heuristic(sol)``
    returns a feasible ``(value, primal)`` or None; ``accept_incumbent(sol)``
    judges an integral node that refine left alone (``IncumbentRejected`` if
    it says no); ``initial_incumbent`` is a known feasible ``(value, primal)``.
    """
    integer_columns = list(integer_columns)

    incumbent: LpSolution | None = None
    incumbent_value = math.inf

    def offer(value, primal) -> None:
        """Keep (value, primal) as the incumbent if it is strictly better."""
        nonlocal incumbent, incumbent_value
        if float(value) < incumbent_value - 1e-12:
            incumbent = LpSolution("optimal", dict(primal), {}, value)
            incumbent_value = float(value)

    if initial_incumbent is not None:
        offer(*initial_incumbent)

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
            return math.ceil(b / g - INT_TOL) * g >= incumbent_value - PRUNE_SLACK
        return b >= incumbent_value - PRUNE_SLACK * (1 + abs(incumbent_value))

    # nodes: (bound estimate, seq, {col: (lb, ub)})
    seq = 0
    root, finite = _dual_bound(model, {}, model.objective, mode == "exact")
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
                sol = solve_lp(model, mode, presolve=False)
                if sol.status == "unbounded":
                    raise RuntimeError("node relaxation is unbounded")
                optimal = sol.status == "optimal"
                if optimal and deadline is not None and time.perf_counter() > deadline:
                    seq += 1
                    heapq.heappush(open_nodes, (bound_est, seq, overrides))
                    return finish("timeout")  # finally still restores the bounds
                if optimal and heuristic is not None:
                    found = heuristic(sol)
                    if found is not None:
                        offer(*found)
                if refine is not None and refine(model, sol):
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
                if accept_incumbent is not None and not accept_incumbent(sol):
                    raise IncumbentRejected("integral node rejected with no remaining refinement")
                offer(sol.objective, sol.primal)
                record_bound()
                continue
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
