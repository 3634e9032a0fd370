"""Exact minimum capacity-preserving subgraphs via branch-and-cut.

The cut family is exponential, so constraints are separated lazily: for each
pending pair an early-terminating max-flow certifies the retention target or
yields two violated cuts (front and back).  ``make_instance`` decides once
which pairs are checked: every ordered pair with lambda > 0 on a simplex
network, only those with s < t on a full-duplex one.  There a link's arcs
share ``ccap``, ``mu`` and one LP column, so every capacity vector checked is
link-symmetric: reversing every arc maps the network onto itself, lambda(t,s)
equals lambda(s,t), and the cuts of (t,s) are the reversed cuts of (s,t),
which give the same LP rows.  There separation first builds one cut tree
per LP point and runs a directed flow only for the pairs whose tree value
misses the target.  Cut selection prefers fewer arcs through an
integer-arithmetic capacity perturbation that never reorders cuts of
different unperturbed capacity.  Each pair's integer target lives on the
instance, in units of ``1 / net.ccap_scale``; preprocessing and the retention
audit run their max-flows on integers against it, and the preprocessing
bounds are lower bounds on the activation columns.  On a full-duplex network
the audit's counts are per link, so one cut tree on the integer capacities
gives every pair's max-flow; a simplex network runs one directed flow per
pair.  The instance also keeps every pair's exact goal rho * lambda, which
separation scales to integers together with the point's capacities, built
from integer ratios.

A round-up heuristic (simple rounding) supplies incumbents: at every
fractional LP point it sets each link to ceil(x), capped at mu, and offers
that activation if it beats the best value known and passes the audit.
After a separation round that finds no cut, ceil(x) meets every cut, so it
is feasible.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bnb import branch_and_bound
from .flows import all_pairs_maxflow, cut_tree, extract_cut, max_flow
from .lp import GE, INT_TOL, LpModel, frac_dist
from .model import Activation, Network, Result, decode_activation


@dataclass(frozen=True)
class McpsInstance:
    net: Network
    rho: Fraction
    lam: dict[tuple[int, int], Fraction]  # all-pairs max-flow at full activation
    goals: dict[tuple[int, int], Fraction]  # rho * lam, for every pair of lam
    # rho * lam in units of 1 / net.ccap_scale, rounded up, for each checked
    # pair (lam > 0, and s < t on full-duplex nets) in pair order: an integer
    # flow meets it iff the unscaled flow meets rho * lam
    targets: dict[tuple[int, int], int]


@dataclass(frozen=True)
class CutConstraint:
    pair: tuple[int, int]
    arc_ids: frozenset[int]
    rhs: Fraction


def make_instance(net: Network, rho) -> McpsInstance:
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie strictly between 0 and 1")
    lam = all_pairs_maxflow(net)
    goals = {pair: rho * value for pair, value in lam.items()}
    duplex = net.link_pair is not None  # (t,s) is checked by (s,t)
    targets = {
        (s, t): math.ceil(goals[s, t] * net.ccap_scale)
        for s, t in sorted(lam) if lam[s, t] > 0 and (s < t or not duplex)
    }
    return McpsInstance(net, rho, lam, goals, targets)


def _unmet(instance: McpsInstance, counts):
    """The instance's pairs, in order, whose integer max-flow misses its
    target when arc a has ``counts[a]`` connections.

    A simplex network runs one directed flow per pair, each stopping at its
    target.  On a full-duplex network ``counts`` must be per link, as
    ``audit_retention`` (after ``Activation.validate``), the preprocessing
    bounds and the round-up heuristic all give them: the capacities are then
    link-symmetric, so one cut tree (n - 1 flows) gives every pair's max-flow
    exactly."""
    net = instance.net
    ecap = {a.id: int(a.ccap * net.ccap_scale) * counts[a.id] for a in net.arcs}
    tree = None if net.link_pair is None else cut_tree(net, ecap)
    for (s, t), target in instance.targets.items():
        value = max_flow(net, ecap, s, t, target=target).value if tree is None else tree[s, t]
        if value < target:
            yield (s, t)


def precompute_lower_bounds(instance: McpsInstance):
    """Per-arc minimum retained connections, plus pairs already covered by them.

    For arc a = st the bound is the smallest chi(a), all other arcs fully
    active, that keeps the s-t max-flow at or above rho * lambda(s,t); pairs
    whose target is met with every arc at its bound never enter separation.
    Every s-t cut holds a, so that flow is chi(a) times a's connection
    capacity plus the flow with a off: one max-flow gives the bound.  Each
    link gets one bound, from its arc with tail < head: on a full-duplex
    link the reversed network is the network itself.  The flows run on
    integer capacities against the instance's targets, and ``solve_mcps``
    puts the bounds on the activation columns.
    """
    net, targets = instance.net, instance.targets
    unit = [int(a.ccap * net.ccap_scale) for a in net.arcs]
    ecap = {a.id: unit[a.id] * a.mu for a in net.arcs}
    lb: dict[int, int] = {}
    for link in net.links:
        arc = min((net.arcs[a] for a in link), key=lambda a: a.tail)
        target = targets[(arc.tail, arc.head)]
        ecap[arc.id] = 0
        rest = max_flow(net, ecap, arc.tail, arc.head, target=target).value
        ecap[arc.id] = unit[arc.id] * arc.mu
        bound = max(0, -((rest - target) // unit[arc.id]))  # exact ceiling
        lb.update((a, bound) for a in link)
    return lb, set(targets) - set(_unmet(instance, lb))


def separate_cuts(
    instance: McpsInstance, xhat, pending_pairs
) -> list[CutConstraint]:
    """Violated front/back cut constraints for the given fractional point.

    An empty result certifies that every pending pair meets its target.
    ``solve_mcps`` passes the instance's pairs that the preprocessing bounds
    leave unmet, so there it certifies every constraint of the full family.
    On a full-duplex network that needs a link-symmetric point, since the
    instance checks (s,t) for (t,s); ``solve_mcps``'s shared link columns
    make every point so.

    The flows run on integer capacities: the point's capacities, ccap * x
    reduced from the integer ratios of ccap and of x (a float x is the binary
    fraction it holds), and every pending pair's goal rho * lambda are scaled
    by ``(n_arcs + 1)`` times the lcm of all their denominators, and every
    arc gains 1 so that min cuts break ties by cardinality.  The test is
    exact for any common multiple of the denominators: the perturbed flow
    meets the scaled target iff the unperturbed flow meets ``target``.  The
    front and back cuts are the unique extreme ones among the fewest-arc
    minimum cuts, so the scale does not change them either.  The +1 also
    keeps every capacity positive, and the cuts rely on it: then every arc of
    a front or back cut lies on some s-t route, whereas ``flows.extract_cut``
    would let an arc at capacity 0 off every route join a cut, at no
    capacity, and weaken its row.

    On a full-duplex network one cut tree (``flows.cut_tree``, n - 1 flows)
    screens the pairs first.  It is built with both arcs of a link at the
    smaller of their perturbed capacities, so a pair's tree value is at most
    its directed max-flow either way, and a pair whose tree value meets the
    scaled target is met at any point.  On a link-symmetric point the tree
    value is the max-flow itself: the screen passes exactly the pairs the
    directed flow would, and the cuts do not change.
    """
    net = instance.net
    pairs = sorted(pending_pairs)
    targets = [instance.goals[pair] for pair in pairs]
    ecap = []  # ccap * x per arc, as (numerator, denominator) in lowest terms
    for a in net.arcs:
        num, den = xhat.get(a.id, 0).as_integer_ratio()
        num *= a.ccap.numerator
        den *= a.ccap.denominator
        g = math.gcd(num, den)
        ecap.append((num // g, den // g))
    scale = (net.n_arcs + 1) * math.lcm(
        *(den for _, den in ecap), *(target.denominator for target in targets)
    )
    pcap = {a: num * (scale // den) + 1 for a, (num, den) in enumerate(ecap)}
    screen = {}
    if net.link_pair is not None and pairs:
        screen = cut_tree(net, {a: min(c, pcap[net.link_pair[a]]) for a, c in pcap.items()})
    cuts: list[CutConstraint] = []
    for (s, t), target in zip(pairs, targets):
        ptarget = target.numerator * (scale // target.denominator)
        if screen.get((min(s, t), max(s, t)), 0) >= ptarget:
            continue
        result = max_flow(net, pcap, s, t, target=ptarget)
        if result.value >= ptarget:
            continue
        front, back = (
            extract_cut(net, pcap, result, s, t, side).arc_ids for side in ("front", "back")
        )
        cuts.append(CutConstraint((s, t), front, target))
        if back != front:
            cuts.append(CutConstraint((s, t), back, target))
    return cuts


def audit_retention(instance: McpsInstance, activation: Activation) -> bool:
    """All-pairs check lambda_H(s,t) >= rho * lambda_G(s,t).

    The activation is validated first (``ValueError`` if it is not one of
    the network's): on a full-duplex network a link's arcs then carry one
    count, so checking (s,t) checks (t,s) too."""
    activation.validate(instance.net)
    return next(_unmet(instance, activation.counts), None) is None


def solve_mcps(net: Network, rho, time_limit: float | None = None) -> Result:
    """Minimum total connections keeping every pair's min-cut above rho times its
    full-network value; always feasible (full activation qualifies).  The
    time limit counts from entry, so it covers the all-pairs max-flows and
    the preprocessing too."""
    deadline = None if time_limit is None else time.perf_counter() + time_limit
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

    # the value a rounding must beat: full activation, then every incumbent
    best = sum(a.mu for a in net.arcs)

    def accept(sol):
        nonlocal best
        activation = decode_activation(net, sol.primal, x_col)
        if not audit_retention(instance, activation):
            return False
        best = min(best, activation.value)
        return True

    def round_up(sol):
        """ceil(x) per link, capped at mu, if the point is fractional and the
        rounding beats ``best`` and passes the audit (branch-and-bound keeps
        a heuristic's result unchecked)."""
        nonlocal best
        x = sol.primal
        if all(frac_dist(x[x_col[link[0]]]) <= INT_TOL for link in net.links):
            return None  # accept judges integral points
        counts = [0] * net.n_arcs
        for link in net.links:
            chi = min(net.arcs[link[0]].mu, math.ceil(x[x_col[link[0]]] - INT_TOL))
            for a in link:
                counts[a] = chi
        value = sum(counts)
        if value >= best or next(_unmet(instance, counts), None) is not None:
            return None
        best = value
        return value, {x_col[a]: chi for a, chi in enumerate(counts)}

    result = branch_and_bound(
        model, sorted(set(x_col)), deadline=deadline, refine=separate, heuristic=round_up,
        accept_incumbent=accept,
        initial_incumbent=(best, {x_col[a.id]: a.mu for a in net.arcs}),
    )
    assert result.incumbent is not None  # full activation is always feasible
    activation = decode_activation(net, result.incumbent.primal, x_col)
    return Result(activation, result.status, float(result.bound))
