"""Traffic-oblivious cable activation via multicommodity-flow LP rounding.

The LP embeds the network into itself: one commodity per arc a = uv carries a
demand of rho * fcap(a) from u to v, so any matrix routable in the full
network stays routable (scaled by rho) in the activated subnetwork.  ALG-MCF
rounds the fractional activations up; ALG-MCF++ re-solves while fixing, one
at a time, the variable closest to its next integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lp import EQ, GE, INT_TOL, LpModel, frac_dist, solve_lp
from .model import Activation, Network, as_fraction, decode_activation


class InfeasibleAfterFix(RuntimeError):
    """Raised if a ceiling fix makes the LP infeasible (must not happen)."""


@dataclass
class TocaLp:
    model: LpModel
    x_col: list[int]  # per arc, so a link's arcs repeat its activation column


def build_toca_lp(net: Network, rho) -> TocaLp:
    """Utilization LP: route every arc's scaled full capacity as its own commodity."""
    rho = as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie strictly between 0 and 1")
    model = LpModel(name="toca")
    x_col = [0] * net.n_arcs
    for link in net.links:
        col = model.add_column(obj=len(link), lb=0, ub=net.arcs[link[0]].mu, name=f"x_{link[0]}")
        for a in link:
            x_col[a] = col
    cap_row = {
        a.id: model.add_row({x_col[a.id]: a.ccap}, GE, 0, name=f"cap_{a.id}")
        for a in net.arcs
    }
    for com in net.arcs:
        demand = rho * com.fcap
        cons_row = {}
        for v in range(net.n_vertices):
            b = demand if v == com.tail else (-demand if v == com.head else Fraction(0))
            cons_row[v] = model.add_row({}, EQ, b, name=f"ns_{com.id}_{v}")
        for edge in net.arcs:
            model.add_column(
                obj=0, lb=0, ub=None,
                coefs={
                    cons_row[edge.tail]: 1,
                    cons_row[edge.head]: -1,
                    cap_row[edge.id]: -1,
                },
                name=f"f_{com.id}_{edge.id}",
            )
    return TocaLp(model, x_col)


def _ceil_tol(v: float, mu: int) -> int:
    return min(mu, max(0, math.ceil(float(v) - INT_TOL)))


def alg_mcf(net: Network, rho, mode: str = "float") -> Activation:
    """Solve the utilization LP once and round every activation up."""
    t = build_toca_lp(net, rho)
    sol = solve_lp(t.model, mode)
    if sol.status != "optimal":
        raise RuntimeError(f"activation LP is {sol.status}")
    chi = tuple(
        _ceil_tol(sol.primal[t.x_col[a.id]], a.mu) for a in net.arcs
    )
    activation = Activation(chi)
    activation.validate(net)
    return activation


def alg_mcf_pp(net: Network, rho, mode: str = "float") -> Activation:
    """Iterative fixing: repeatedly pin the smallest-gap variable to its ceiling.

    Bounds first tighten to [floor, ceil] of the initial optimum, so the final
    value never exceeds the plain round-up; ceiling fixes keep the previous
    point feasible, so every re-solve succeeds.
    """
    t = build_toca_lp(net, rho)
    sol = solve_lp(t.model, mode)
    if sol.status != "optimal":
        raise RuntimeError(f"activation LP is {sol.status}")
    for a in net.arcs:
        v = float(sol.primal[t.x_col[a.id]])
        t.model.set_bounds(
            t.x_col[a.id],
            max(0, math.floor(v + INT_TOL)),
            _ceil_tol(v, a.mu),
        )
    while True:
        gaps = []
        for a in net.arcs:
            v = float(sol.primal[t.x_col[a.id]])
            if frac_dist(v) > INT_TOL:
                gaps.append((math.ceil(v - INT_TOL) - v, a.id))
        if not gaps:
            break
        _, arc_id = min(gaps)  # smallest gap, ties by lowest arc id
        v = float(sol.primal[t.x_col[arc_id]])
        fix = _ceil_tol(v, net.arcs[arc_id].mu)
        t.model.set_bounds(t.x_col[arc_id], fix, fix)
        sol = solve_lp(t.model, mode)
        if sol.status != "optimal":
            raise InfeasibleAfterFix(f"LP {sol.status} after fixing arc {arc_id}")
    activation = decode_activation(sol.primal, t.x_col)
    activation.validate(net)
    return activation


def supports_scaled_traffic(net: Network, rho, activation: Activation, mode: str = "float") -> bool:
    """Feasibility audit: the fixed activation still routes every arc's
    rho-scaled full capacity as a simultaneous multicommodity flow.  Raises
    ValueError for an activation that is not valid on ``net``."""
    activation.validate(net)  # a link's arcs share one column, so one count
    t = build_toca_lp(net, rho)
    for a in net.arcs:
        chi = activation.counts[a.id]
        t.model.set_bounds(t.x_col[a.id], chi, chi)
    return solve_lp(t.model, mode).status == "optimal"
