"""Exact minimum capacity-preserving subgraphs via branch-and-cut.

The cut family is exponential, so constraints are separated lazily: for each
pending pair an early-terminating max-flow certifies the retention target or
yields two violated cuts (front and back).  Cut selection prefers fewer arcs
through an integer-arithmetic capacity perturbation that never reorders cuts
of different unperturbed capacity.  Preprocessing and the retention audit run
their max-flows on integers too, in units of ``1 / net.ccap_scale``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bnb import BnbConfig, branch_and_bound
from .flows import all_pairs_maxflow, extract_cut, max_flow
from .lp import GE, LpModel
from .model import Activation, Network, Result, as_fraction, decode_activation


@dataclass(frozen=True)
class McpsInstance:
    net: Network
    rho: Fraction
    lam: dict[tuple[int, int], Fraction]  # all-pairs max-flow at full activation


@dataclass(frozen=True)
class CutConstraint:
    pair: tuple[int, int]
    arc_ids: frozenset[int]
    rhs: Fraction

    def violated_by(self, net: Network, xhat) -> bool:
        lhs = sum(
            (net.arcs[a].ccap * as_fraction(xhat.get(a, 0)) for a in self.arc_ids),
            Fraction(0),
        )
        return lhs < self.rhs


def make_instance(net: Network, rho) -> McpsInstance:
    rho = as_fraction(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie strictly between 0 and 1")
    return McpsInstance(net, rho, all_pairs_maxflow(net))


def _relevant_pairs(instance: McpsInstance) -> list[tuple[int, int]]:
    return sorted(pair for pair, lam in instance.lam.items() if lam > 0)


def _connection_caps(net: Network) -> list[int]:
    """Each arc's ccap in units of ``1 / net.ccap_scale``, an integer."""
    return [int(arc.ccap * net.ccap_scale) for arc in net.arcs]


def _scaled_target(instance: McpsInstance, pair: tuple[int, int]) -> int:
    """``rho * lambda(pair)`` in units of ``1 / net.ccap_scale``, rounded up:
    an integer flow meets it iff the unscaled flow meets the unscaled target."""
    return math.ceil(instance.rho * instance.lam[pair] * instance.net.ccap_scale)


def precompute_lower_bounds(instance: McpsInstance):
    """Per-arc minimum retained connections, plus pairs already covered by them.

    For arc a = st the bound is the smallest chi(a), all other arcs fully
    active, that keeps the s-t max-flow at or above rho * lambda(s,t); pairs
    whose target is met with every arc at its bound never enter separation.
    Every s-t cut holds a, so that flow is chi(a) times a's connection
    capacity plus the flow with a off: one max-flow per arc gives the bound.
    The flows run on integer capacities (see ``_connection_caps``).
    """
    net = instance.net
    unit = _connection_caps(net)
    ecap = {a.id: unit[a.id] * a.mu for a in net.arcs}
    lb: dict[int, int] = {}
    for arc in net.arcs:
        target = _scaled_target(instance, (arc.tail, arc.head))
        ecap[arc.id] = 0
        rest = max_flow(net, ecap, arc.tail, arc.head, target=target).value
        ecap[arc.id] = unit[arc.id] * arc.mu
        lb[arc.id] = max(0, -((rest - target) // unit[arc.id]))  # exact ceiling
    ecap_lb = {a.id: unit[a.id] * lb[a.id] for a in net.arcs}
    satisfied = set()
    for pair in _relevant_pairs(instance):
        target = _scaled_target(instance, pair)
        if max_flow(net, ecap_lb, pair[0], pair[1], target=target).value >= target:
            satisfied.add(pair)
    return lb, satisfied


def separate_cuts(
    instance: McpsInstance, xhat, pending_pairs
) -> list[CutConstraint]:
    """Violated front/back cut constraints for the given fractional point.

    Empty result certifies that every pending pair meets its target, hence
    (with the preprocessing bounds) every constraint of the full family holds.

    The flows run on integer capacities: the point's capacities and every
    pending pair's target are scaled by ``(n_arcs + 1)`` times the lcm of all
    their denominators, and every arc gains 1 so that min cuts break ties by
    cardinality.  The test is exact for any common multiple of the
    denominators: the perturbed flow meets the scaled target iff the
    unperturbed flow meets ``target``.  The front and back cuts are the
    unique extreme ones among the fewest-arc minimum cuts, so the scale does
    not change them either.
    """
    net, rho = instance.net, instance.rho
    pairs = sorted(pending_pairs)
    targets = [rho * instance.lam[pair] for pair in pairs]
    ecap = [a.ccap * as_fraction(xhat.get(a.id, 0)) for a in net.arcs]
    scale = (net.n_arcs + 1) * math.lcm(*(c.denominator for c in ecap + targets))
    pcap = {a: c.numerator * (scale // c.denominator) + 1 for a, c in enumerate(ecap)}
    cuts: list[CutConstraint] = []
    for pair, target in zip(pairs, targets):
        ptarget = target.numerator * (scale // target.denominator)
        result = max_flow(net, pcap, pair[0], pair[1], target=ptarget)
        if result.value >= ptarget:
            continue
        front = extract_cut(net, pcap, result, pair[0], pair[1], "front")
        back = extract_cut(net, pcap, result, pair[0], pair[1], "back")
        cuts.append(CutConstraint(pair, front.arc_ids, target))
        if back.arc_ids != front.arc_ids:
            cuts.append(CutConstraint(pair, back.arc_ids, target))
    return cuts


def audit_retention(instance: McpsInstance, activation: Activation) -> bool:
    """Independent all-pairs check lambda_H(s,t) >= rho * lambda_G(s,t)."""
    net = instance.net
    unit = _connection_caps(net)
    ecap = {a.id: unit[a.id] * activation.counts[a.id] for a in net.arcs}
    for pair in _relevant_pairs(instance):
        target = _scaled_target(instance, pair)
        if max_flow(net, ecap, pair[0], pair[1], target=target).value < target:
            return False
    return True


def solve_mcps(net: Network, rho, time_limit: float | None = None) -> Result:
    """Minimum total connections keeping every pair's min-cut above rho times its
    full-network value; always feasible (full activation qualifies)."""
    instance = make_instance(net, rho)
    lb, satisfied = precompute_lower_bounds(instance)
    pending = [p for p in _relevant_pairs(instance) if p not in satisfied]

    model = LpModel()
    x_col = [0] * net.n_arcs  # per arc, so a link's arcs repeat its column
    for link in net.links:
        col = model.add_column(obj=len(link), lb=0, ub=net.arcs[link[0]].mu)
        for a in link:
            x_col[a] = col
    for link in net.links:
        bound = max(lb[a] for a in link)
        if bound > 0:
            model.add_row({x_col[link[0]]: 1}, GE, bound)

    added_cuts: set[tuple[tuple[int, int], frozenset[int]]] = set()

    def separate(lp_model, sol):
        if sol.status != "optimal":
            return []
        xhat = {a.id: sol.primal[x_col[a.id]] for a in net.arcs}
        new_rows = []
        for cut in separate_cuts(instance, xhat, pending):
            key = (cut.pair, cut.arc_ids)
            if key in added_cuts:
                continue
            added_cuts.add(key)
            # a cut crosses its bipartition one way, so it holds one arc per link at most
            coefs = {x_col[a]: net.arcs[a].ccap for a in cut.arc_ids}
            new_rows.append(lp_model.add_row(coefs, GE, cut.rhs))
        return new_rows

    def accept(sol):
        return audit_retention(instance, decode_activation(sol.primal, x_col))

    config = BnbConfig(
        time_limit=time_limit,
        refine=separate,
        accept_incumbent=accept,
        initial_incumbent=(
            sum(a.mu for a in net.arcs),
            {x_col[a.id]: a.mu for a in net.arcs},
        ),
    )
    result = branch_and_bound(model, sorted(set(x_col)), config)
    assert result.incumbent is not None  # full activation is always feasible
    activation = decode_activation(result.incumbent.primal, x_col)
    activation.validate(net)
    return Result(activation, result.status, float(result.bound))
