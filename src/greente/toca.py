"""Traffic-oblivious cable activation via multicommodity-flow LP rounding.

The LP embeds the network into itself: every arc a = uv must carry a demand
of rho * fcap(a) from u to v, so any matrix routable in the full network stays
routable (scaled by rho) in the activated subnetwork.  The demands of the
arcs leaving one vertex travel as one single-source commodity: a single-source
flow splits into paths to its sinks, so the LP value is that of one commodity
per arc, with a flow block per source vertex instead of per arc.  ALG-MCF
rounds the fractional activations up; ALG-MCF++ re-solves, warm from the
previous basis, while fixing one at a time the variable closest to its next
integer.

ALG-MCF++ starts from the optimum ALG-MCF rounds, so the two share one LP:
``alg_mcf`` hands its solved model on, and an ``alg_mcf_pp`` call that comes
next, on the same ``Network`` object and an equal ``Fraction(rho)``, takes it
instead of building and cold-solving the same LP again.  Its fixing chain
then makes the same solver calls on the same model as it would on its own
cold solve, so the activations do not change.  Each call of either one
clears the hand-off first, so it holds at most one model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lp import EQ, GE, INT_TOL, LpModel, LpSolution, frac_dist, solve_lp
from .model import Activation, Network, decode_activation


class InfeasibleAfterFix(RuntimeError):
    """Raised if a ceiling fix makes the LP infeasible (must not happen)."""


@dataclass
class TocaLp:
    model: LpModel
    x_col: list[int]  # per arc, so a link's arcs repeat its activation column


def build_toca_lp(net: Network, rho) -> TocaLp:
    """Utilization LP: one commodity per source vertex routes the scaled full
    capacity of each of its out-arcs to that arc's head.  All columns come
    first (flows per (source, arc) after the activations), then each row whole."""
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie strictly between 0 and 1")
    model = LpModel()
    x_col = [0] * net.n_arcs
    for link in net.links:
        col = model.add_column(obj=len(link), lb=0, ub=net.arcs[link[0]].mu)
        for a in link:
            x_col[a] = col
    sources = [s for s, out in enumerate(net.out_arcs) if out]
    flow_col = [[model.add_column() for _ in net.arcs] for _ in sources]
    for a in net.arcs:
        coefs = {x_col[a.id]: a.ccap}
        for cols in flow_col:
            coefs[cols[a.id]] = -1
        model.add_row(coefs, GE, 0)
    for source, cols in zip(sources, flow_col):
        supply = [Fraction(0)] * net.n_vertices
        for com in net.out_arcs[source]:
            demand = rho * com.fcap
            supply[source] += demand
            supply[com.head] -= demand
        cons = [{} for _ in supply]
        for edge in net.arcs:
            cons[edge.tail][cols[edge.id]] = 1
            cons[edge.head][cols[edge.id]] = -1
        for coefs, b in zip(cons, supply):
            model.add_row(coefs, EQ, b)
    return TocaLp(model, x_col)


def _ceil_tol(v: float, mu: int) -> int:
    return min(mu, max(0, math.ceil(float(v) - INT_TOL)))


# The last alg_mcf call's (net, Fraction(rho), TocaLp, optimal solution),
# which the next call takes; see the module docstring.
_handoff: tuple | None = None


def _solved_lp(net: Network, rho, hand_on: bool) -> tuple[TocaLp, LpSolution]:
    """The utilization LP at its first (cold) optimum: the hand-off's if it
    matches ``(net, rho)`` and ``hand_on`` is false, else built and solved
    here, and handed on if ``hand_on`` is true."""
    global _handoff
    rho = Fraction(rho)
    entry, _handoff = _handoff, None
    if not hand_on and entry is not None and entry[0] is net and entry[1] == rho:
        return entry[2], entry[3]
    t = build_toca_lp(net, rho)
    sol = solve_lp(t.model)
    if sol.status != "optimal":
        raise RuntimeError(f"activation LP is {sol.status}")
    if hand_on:
        _handoff = (net, rho, t, sol)
    return t, sol


def alg_mcf(net: Network, rho) -> Activation:
    """Solve the utilization LP once and round every activation up."""
    t, sol = _solved_lp(net, rho, hand_on=True)
    up = {t.x_col[a]: _ceil_tol(sol.primal[t.x_col[a]], net.arcs[a].mu) for a, *_ in net.links}
    return decode_activation(net, up, t.x_col)


def alg_mcf_pp(net: Network, rho) -> Activation:
    """Iterative fixing: repeatedly pin the smallest-gap variable to its ceiling.

    Bounds first tighten to [floor, ceil] of the initial optimum, so the final
    value never exceeds the plain round-up; ceiling fixes keep the previous
    point feasible, so every re-solve succeeds.  Each re-solve changes bounds
    only, so it starts warm from the previous basis.  Called right after
    ``alg_mcf`` on the same net and rho, it continues from that call's solved
    LP instead of building and solving its own.
    """
    t, sol = _solved_lp(net, rho, hand_on=False)
    for a, *_ in net.links:
        v = float(sol.primal[t.x_col[a]])
        t.model.set_bounds(t.x_col[a], max(0, math.floor(v + INT_TOL)), _ceil_tol(v, net.arcs[a].mu))
    while True:
        gaps = []
        for a, *_ in net.links:
            v = float(sol.primal[t.x_col[a]])
            if frac_dist(v) > INT_TOL:
                gaps.append((math.ceil(v - INT_TOL) - v, a))
        if not gaps:
            break
        _, arc_id = min(gaps)  # smallest gap, ties by lowest arc id
        col = t.x_col[arc_id]
        fix = _ceil_tol(sol.primal[col], net.arcs[arc_id].mu)
        t.model.set_bounds(col, fix, fix)
        sol = solve_lp(t.model, warm=True)
        if sol.status != "optimal":
            raise InfeasibleAfterFix(f"LP {sol.status} after fixing arc {arc_id}")
    return decode_activation(net, sol.primal, t.x_col)


def supports_scaled_traffic(net: Network, rho, activation: Activation) -> bool:
    """Feasibility audit: the fixed activation still routes every arc's
    rho-scaled full capacity as a simultaneous multicommodity flow.  Raises
    ValueError for an activation that is not valid on ``net``."""
    activation.validate(net)  # a link's arcs share one column, so one count
    t = build_toca_lp(net, rho)
    for a, *_ in net.links:
        chi = activation.counts[a]
        t.model.set_bounds(t.x_col[a], chi, chi)
    return solve_lp(t.model).status == "optimal"
