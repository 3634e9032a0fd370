import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greente import SIMPLEX, all_pairs_maxflow, build_network, extract_cut, max_flow
from greente.flows import Cut, NotMaximum, cut_tree
from conftest import digraphs, duplex_digraphs, random_net


def unit_caps(net):
    return {a.id: Fraction(1) for a in net.arcs}


def brute_force_min_cut(net, ecap, s, t):
    """Minimum over all vertex bipartitions with s inside and t outside."""
    others = [v for v in range(net.n_vertices) if v not in (s, t)]
    best = None
    for k in range(len(others) + 1):
        for inside in itertools.combinations(others, k):
            side = {s, *inside}
            cap = sum(
                (Fraction(ecap.get(a.id, 0)) for a in net.arcs
                 if a.tail in side and a.head not in side),
                Fraction(0),
            )
            if best is None or cap < best:
                best = cap
    return best


def test_single_arc_flow(single_arc):
    assert max_flow(single_arc, {0: Fraction(5)}, 0, 1).value == 5


def test_diamond_flow_matches_cut_enumeration(diamond):
    caps = unit_caps(diamond)
    result = max_flow(diamond, caps, 0, 3)
    assert result.value == 2
    assert brute_force_min_cut(diamond, caps, 0, 3) == 2


def test_early_termination_contract(diamond):
    result = max_flow(diamond, unit_caps(diamond), 0, 3, target=1)
    assert result.terminated_early
    assert result.value >= 1


def test_early_termination_unreachable_target(single_arc):
    result = max_flow(single_arc, {0: Fraction(5)}, 0, 1, target=9)
    assert not result.terminated_early
    assert result.value == 5


def test_cut_requires_completed_flow(diamond):
    partial = max_flow(diamond, unit_caps(diamond), 0, 3, target=1)
    with pytest.raises(NotMaximum):
        extract_cut(diamond, unit_caps(diamond), partial, 0, 3, "front")


def test_single_arc_cuts(single_arc):
    caps = {0: Fraction(5)}
    flow = max_flow(single_arc, caps, 0, 1)
    front = extract_cut(single_arc, caps, flow, 0, 1, "front")
    back = extract_cut(single_arc, caps, flow, 0, 1, "back")
    assert front.arc_ids == back.arc_ids == frozenset({0})
    assert front.capacity == back.capacity == 5


def test_two_hop_front_and_back_cuts():
    net = build_network([(0, 1, 1, 1, 1), (1, 2, 1, 1, 1)])
    caps = unit_caps(net)
    flow = max_flow(net, caps, 0, 2)
    assert extract_cut(net, caps, flow, 0, 2, "front").arc_ids == frozenset({0})
    assert extract_cut(net, caps, flow, 0, 2, "back").arc_ids == frozenset({1})


def test_cuts_take_zero_capacity_arcs_off_every_s_t_route():
    """Zero-capacity arcs 0->3 (into a dead end) and 4->2 (from a vertex s
    cannot reach) lie on no s-t route, but the front cut holds every arc
    that leaves s's residual side, and the back cut every arc that enters
    t's; they add nothing to either cut's capacity."""
    net = build_network([(0, 1, 1, 1, 1), (1, 2, 1, 1, 1), (0, 3, 1, 1, 1), (4, 2, 1, 1, 1)])
    caps = {0: 1, 1: 1, 2: 0, 3: 0}
    flow = max_flow(net, caps, 0, 2)
    assert extract_cut(net, caps, flow, 0, 2, "front") == Cut(frozenset({0, 2}), 1)
    assert extract_cut(net, caps, flow, 0, 2, "back") == Cut(frozenset({1, 3}), 1)


def test_diamond_front_cut_is_source_side(diamond):
    caps = unit_caps(diamond)
    flow = max_flow(diamond, caps, 0, 3)
    assert extract_cut(diamond, caps, flow, 0, 3, "front").arc_ids == frozenset({0, 1})


def test_all_pairs_maxflow(single_arc, diamond, triangle):
    lam = all_pairs_maxflow(single_arc)
    assert lam[(0, 1)] == 5 and lam[(1, 0)] == 0
    assert all_pairs_maxflow(diamond)[(0, 3)] == 2
    assert all_pairs_maxflow(triangle)[(0, 2)] == 6


def test_cut_duality_on_random_graphs():
    rng = random.Random(31)
    for trial in range(60):
        net = random_net(rng, n_max=6, arcs_max=10)
        caps = {a.id: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for a in net.arcs}
        s, t = 0, net.n_vertices - 1
        flow = max_flow(net, caps, s, t)
        front = extract_cut(net, caps, flow, s, t, "front")
        back = extract_cut(net, caps, flow, s, t, "back")
        assert front.capacity == flow.value == back.capacity
        assert brute_force_min_cut(net, caps, s, t) == flow.value
        for cut in (front, back):
            remaining = dict(caps)
            for aid in cut.arc_ids:
                remaining[aid] = Fraction(0)
            assert max_flow(net, remaining, s, t).value == 0


def assert_feasible(net, caps, s, t, result):
    """The flow keeps within capacities and is conserved outside s and t,
    where it leaves and enters ``result.value``."""
    net_out = {v: 0 for v in range(net.n_vertices)}
    for a in net.arcs:
        f = result.flow.get(a.id, 0)
        assert 0 <= f <= caps.get(a.id, 0)
        net_out[a.tail] += f
        net_out[a.head] -= f
    for v in range(net.n_vertices):
        assert net_out[v] == {s: result.value, t: -result.value}.get(v, 0)


def test_flow_respects_capacities_and_conservation():
    rng = random.Random(8)
    for _ in range(30):
        net = random_net(rng, n_max=6, arcs_max=10)
        caps = {a.id: Fraction(rng.randint(0, 5)) for a in net.arcs}
        s, t = 0, net.n_vertices - 1
        assert_feasible(net, caps, s, t, max_flow(net, caps, s, t))


def test_residual_edges_follow_the_arcs(diamond, triangle):
    for net in (diamond, triangle, build_network([(0, 1, 1, 1, 1), (1, 0, 2, 1, 1)])):
        heads, adj = net.residual_edges
        assert len(heads) == 2 * net.n_arcs
        for arc in net.arcs:
            assert (heads[2 * arc.id], heads[2 * arc.id + 1]) == (arc.head, arc.tail)
        for v in range(net.n_vertices):
            assert adj[v] == tuple(sorted(
                [2 * a.id for a in net.out_arcs[v]] + [2 * a.id + 1 for a in net.in_arcs[v]]
            ))


@st.composite
def flow_problems(draw, min_cap=0):
    net = draw(digraphs())
    caps = {a.id: draw(st.integers(min_cap, 9)) for a in net.arcs}
    s, t = draw(st.lists(st.integers(0, net.n_vertices - 1), min_size=2, max_size=2, unique=True))
    target = draw(st.none() | st.integers(0, 20))
    return net, caps, s, t, target


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_problems())
def test_int_and_fraction_capacities_flow_alike(problem):
    """The same numbers as int or as Fraction give the same flow, augmentation
    for augmentation, and a maximum flow equals both extracted cuts."""
    net, caps, s, t, target = problem
    fcaps = {a: Fraction(c) for a, c in caps.items()}
    for goal in (None, target):
        whole = max_flow(net, caps, s, t, target=goal)
        frac = max_flow(net, fcaps, s, t, target=None if goal is None else Fraction(goal))
        assert (whole.value, whole.flow, whole.terminated_early) == (
            frac.value, frac.flow, frac.terminated_early
        )
        assert type(whole.value) is int
        assert all(type(f) is int for f in whole.flow.values())
    full = max_flow(net, caps, s, t)
    full_frac = max_flow(net, fcaps, s, t)
    for side in ("front", "back"):
        cut = extract_cut(net, caps, full, s, t, side)
        assert cut == extract_cut(net, fcaps, full_frac, s, t, side)
        assert cut.capacity == full.value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_problems())
def test_back_cut_is_the_front_cut_of_the_reversed_graph(problem):
    """The residual-reachable side of a maximum flow does not depend on which
    maximum flow was found, so each cut of (G, s, t) is the other cut of
    (reverse G, t, s), even where the search finds a different flow there."""
    net, caps, s, t, _ = problem
    rev = build_network(
        [(a.head, a.tail, a.ccap, a.length, a.mu) for a in net.arcs],
        SIMPLEX, vertices=range(net.n_vertices),
    )
    flow = max_flow(net, caps, s, t)
    rev_flow = max_flow(rev, caps, t, s)
    for side, mirror in (("back", "front"), ("front", "back")):
        assert extract_cut(net, caps, flow, s, t, side) == extract_cut(
            rev, caps, rev_flow, t, s, mirror
        )


def walked_cut(net, caps, result, s, t, side):
    """The cut that a walk back from t picks: the arcs from the vertices s
    reaches in the residual graph to the vertices that reach t in the graph
    without passing through them.  The back cut is the front cut of
    (reverse G, t, s)."""
    arcs = [(a.id, a.tail, a.head) for a in net.arcs]
    if side == "back":
        arcs = [(a, v, u) for a, u, v in arcs]
        s, t = t, s
    residual, into = {}, {}
    for a, u, v in arcs:
        f = result.flow.get(a, 0)
        if caps.get(a, 0) > f:
            residual.setdefault(u, []).append(v)
        if f > 0:
            residual.setdefault(v, []).append(u)
        into.setdefault(v, []).append(u)

    def reach(start, steps, blocked):
        seen = {start} - blocked
        stack = list(seen)
        while stack:
            for w in steps.get(stack.pop(), ()):
                if w not in seen and w not in blocked:
                    seen.add(w)
                    stack.append(w)
        return seen

    marked = reach(s, residual, set())
    walked = reach(t, into, marked)
    cut = frozenset(a for a, u, v in arcs if u in marked and v in walked)
    return Cut(cut, sum(caps[a] for a in cut))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_problems(min_cap=1))
def test_cuts_on_positive_capacities_are_the_walked_cuts(problem):
    """With every capacity positive, an arc that leaves s's residual side
    carries flow that cannot come back, so its head reaches t: both cuts
    are the walked ones, which MCPS separation (every arc at least 1)
    relies on."""
    net, caps, s, t, _ = problem
    flow = max_flow(net, caps, s, t)
    for side in ("front", "back"):
        assert extract_cut(net, caps, flow, s, t, side) == walked_cut(net, caps, flow, s, t, side)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_problems())
def test_early_termination_contract_on_random_graphs(problem):
    """A flow stops early iff its target is at most the maximum value, and then
    reaches the target; a flow that runs to the end is maximum.  MCPS's
    separation and preprocessing read a met target off exactly this."""
    net, caps, s, t, target = problem
    full = max_flow(net, caps, s, t)
    assert not full.terminated_early
    assert_feasible(net, caps, s, t, full)
    for goal in (full.value, full.value + 1) if target is None else (target,):
        result = max_flow(net, caps, s, t, target=goal)
        assert result.terminated_early == (goal <= full.value)
        if result.terminated_early:
            assert result.value >= goal
        else:
            assert result.value == full.value
        assert_feasible(net, caps, s, t, result)


@st.composite
def duplex_capacities(draw, symmetric):
    """A full-duplex network and integer arc capacities, one per link or, if
    not ``symmetric``, one per arc."""
    net = draw(duplex_digraphs(n_max=7, links_max=10))
    caps = {}
    for link in net.links:
        value = draw(st.integers(0, 9))
        for a in link:
            caps[a] = value if symmetric else draw(st.integers(0, 9))
    return net, caps


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(duplex_capacities(symmetric=True))
def test_cut_tree_gives_every_pairs_max_flow_on_link_symmetric_capacities(problem):
    net, caps = problem
    lam = cut_tree(net, caps)
    assert sorted(lam) == list(itertools.combinations(range(net.n_vertices), 2))
    for (s, t), value in lam.items():
        assert value == max_flow(net, caps, s, t).value == max_flow(net, caps, t, s).value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(duplex_capacities(symmetric=False))
def test_cut_tree_on_per_link_minima_bounds_both_directed_flows(problem):
    """MCPS separation screens pairs with this bound on any point."""
    net, caps = problem
    lam = cut_tree(net, {a: min(c, caps[net.link_pair[a]]) for a, c in caps.items()})
    for (s, t), value in lam.items():
        assert value <= min(max_flow(net, caps, s, t).value, max_flow(net, caps, t, s).value)
