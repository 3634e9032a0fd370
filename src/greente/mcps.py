"""Exact minimum capacity-preserving subgraphs via branch-and-cut.

The cut family is exponential, so constraints are separated lazily: for each
pending pair an early-terminating max-flow certifies the retention target or
yields two violated cuts (front and back).  Separation, the all-pairs
values and the retention audit run their max-flows once per unordered pair
on full-duplex networks, whose capacities are link-symmetric: the cuts of
(t,s) are the reversed cuts of (s,t).  Cut selection prefers fewer arcs
through an integer-arithmetic capacity perturbation that never reorders cuts
of different unperturbed capacity.  Each pair's integer target lives on the
instance, in units of ``1 / net.ccap_scale``; preprocessing and the retention
audit run their max-flows on integers against it, and the preprocessing
bounds are lower bounds on the activation columns.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bnb import BnbConfig, branch_and_bound, time_left
from .flows import all_pairs_maxflow, extract_cut, max_flow, mirror
from .lp import GE, LpModel
from .model import Activation, Network, Result, decode_activation


@dataclass(frozen=True)
class McpsInstance:
    net: Network
    rho: Fraction
    lam: dict[tuple[int, int], Fraction]  # all-pairs max-flow at full activation
    # rho * lam in units of 1 / net.ccap_scale, rounded up, for each pair with
    # lam > 0 in pair order: an integer flow meets it iff the unscaled flow
    # meets rho * lam
    targets: dict[tuple[int, int], int]


@dataclass(frozen=True)
class CutConstraint:
    pair: tuple[int, int]
    arc_ids: frozenset[int]
    rhs: Fraction

    def violated_by(self, net: Network, xhat) -> bool:
        lhs = sum(
            (net.arcs[a].ccap * Fraction(xhat.get(a, 0)) for a in self.arc_ids),
            Fraction(0),
        )
        return lhs < self.rhs


def make_instance(net: Network, rho) -> McpsInstance:
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie strictly between 0 and 1")
    lam = all_pairs_maxflow(net)
    targets = {
        pair: math.ceil(rho * lam[pair] * net.ccap_scale) for pair in sorted(lam) if lam[pair] > 0
    }
    return McpsInstance(net, rho, lam, targets)


def _unmet(instance: McpsInstance, counts):
    """Pairs, in order, whose integer max-flow misses its target when arc a
    has ``counts[a]`` connections; (s,t) reuses (t,s) when the counts mirror."""
    net = instance.net
    ecap = {a.id: int(a.ccap * net.ccap_scale) * counts[a.id] for a in net.arcs}
    symmetric = mirror(net, ecap) is not None
    met: dict[tuple[int, int], bool] = {}
    for (s, t), target in instance.targets.items():
        if symmetric and (t, s) in met:
            met[(s, t)] = met[(t, s)]
        else:
            met[(s, t)] = max_flow(net, ecap, s, t, target=target).value >= target
        if not met[(s, t)]:
            yield (s, t)


def precompute_lower_bounds(instance: McpsInstance):
    """Per-arc minimum retained connections, plus pairs already covered by them.

    For arc a = st the bound is the smallest chi(a), all other arcs fully
    active, that keeps the s-t max-flow at or above rho * lambda(s,t); pairs
    whose target is met with every arc at its bound never enter separation.
    Every s-t cut holds a, so that flow is chi(a) times a's connection
    capacity plus the flow with a off: one max-flow per arc gives the bound.
    The flows run on integer capacities against the instance's targets, and
    ``solve_mcps`` puts the bounds on the activation columns.  Both arcs of a
    full-duplex link get one bound from one max-flow: the reversed network is
    the network itself.
    """
    net, targets = instance.net, instance.targets
    unit = [int(a.ccap * net.ccap_scale) for a in net.arcs]
    ecap = {a.id: unit[a.id] * a.mu for a in net.arcs}
    rev = mirror(net, ecap)
    lb: dict[int, int] = {}
    for arc in net.arcs:
        if rev is not None and rev[arc.id] in lb:
            lb[arc.id] = lb[rev[arc.id]]
            continue
        target = targets[(arc.tail, arc.head)]
        ecap[arc.id] = 0
        rest = max_flow(net, ecap, arc.tail, arc.head, target=target).value
        ecap[arc.id] = unit[arc.id] * arc.mu
        lb[arc.id] = max(0, -((rest - target) // unit[arc.id]))  # exact ceiling
    return lb, set(targets) - set(_unmet(instance, lb))


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

    When the point's capacities mirror (see ``flows.mirror``), the front cut
    of (s,t) is the reversed back cut of (t,s) and the back cut the reversed
    front cut, so each unordered pair needs one max-flow and two extractions.
    """
    net, rho = instance.net, instance.rho
    pairs = sorted(pending_pairs)
    targets = [rho * instance.lam[pair] for pair in pairs]
    ecap = [a.ccap * Fraction(xhat.get(a.id, 0)) for a in net.arcs]
    scale = (net.n_arcs + 1) * math.lcm(*(c.denominator for c in ecap + targets))
    pcap = {a: c.numerator * (scale // c.denominator) + 1 for a, c in enumerate(ecap)}
    rev = mirror(net, pcap)
    sides: dict[tuple[int, int], tuple[frozenset[int], ...] | None] = {}  # None: target met
    cuts: list[CutConstraint] = []
    for (s, t), target in zip(pairs, targets):
        if rev is not None and (t, s) in sides:
            # front of (s,t) = reversed back of (t,s), and back = reversed front
            other = sides[(t, s)]
            sides[(s, t)] = other and tuple(
                frozenset(rev[a] for a in arcs) for arcs in reversed(other)
            )
        else:
            ptarget = target.numerator * (scale // target.denominator)
            result = max_flow(net, pcap, s, t, target=ptarget)
            sides[(s, t)] = None if result.value >= ptarget else tuple(
                extract_cut(net, pcap, result, s, t, side).arc_ids for side in ("front", "back")
            )
        if sides[(s, t)]:
            front, back = sides[(s, t)]
            cuts.append(CutConstraint((s, t), front, target))
            if back != front:
                cuts.append(CutConstraint((s, t), back, target))
    return cuts


def audit_retention(instance: McpsInstance, activation: Activation) -> bool:
    """Independent all-pairs check lambda_H(s,t) >= rho * lambda_G(s,t)."""
    return next(_unmet(instance, activation.counts), None) is None


def solve_mcps(net: Network, rho, time_limit: float | None = None) -> Result:
    """Minimum total connections keeping every pair's min-cut above rho times its
    full-network value; always feasible (full activation qualifies).  The
    time limit counts from entry, so it covers the all-pairs max-flows and
    the preprocessing too."""
    start = time.perf_counter()
    instance = make_instance(net, rho)
    lb, satisfied = precompute_lower_bounds(instance)
    pending = [p for p in instance.targets if p not in satisfied]

    model = LpModel()
    x_col = [0] * net.n_arcs  # per arc, so a link's arcs repeat its column
    for link in net.links:
        col = model.add_column(
            obj=len(link), lb=max(lb[a] for a in link), ub=net.arcs[link[0]].mu
        )
        for a in link:
            x_col[a] = col

    # pairs that share a bipartition and a target give the same row
    added_rows: set[tuple[frozenset, Fraction]] = set()

    def separate(lp_model, sol):
        if sol.status != "optimal":
            return []
        xhat = {a.id: sol.primal[x_col[a.id]] for a in net.arcs}
        new_rows = []
        for cut in separate_cuts(instance, xhat, pending):
            # a cut crosses its bipartition one way, so it holds one arc per link at most
            coefs = {x_col[a]: net.arcs[a].ccap for a in cut.arc_ids}
            row = (frozenset(coefs.items()), cut.rhs)
            if row in added_rows:
                continue
            added_rows.add(row)
            new_rows.append(lp_model.add_row(coefs, GE, cut.rhs))
        return new_rows

    def accept(sol):
        return audit_retention(instance, decode_activation(sol.primal, x_col))

    config = BnbConfig(
        time_limit=time_left(time_limit, start),
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
