import itertools
import math
import random
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greente import Activation, build_network, extract_cut, flows, full_activation, max_flow, mcps
from greente.bnb import branch_and_bound
from greente.lp import LpModel, LpSolution
from greente.mcps import (
    CutConstraint,
    audit_retention,
    make_instance,
    precompute_lower_bounds,
    separate_cuts,
    solve_mcps,
)
from conftest import complete_digraph, digraphs, duplex_digraphs, random_net


RING5 = [(i, (i + 1) % 5, 1, 1, 2) for i in range(5)]
RING5_DUPLEX = RING5 + [(v, u, c, l, m) for u, v, c, l, m in RING5]


def brute_force_mcps_value(net, rho):
    """Exhaustive minimum over activation vectors passing the all-pairs audit."""
    inst = make_instance(net, rho)
    best = None
    for combo in itertools.product(*(range(net.arcs[link[0]].mu + 1) for link in net.links)):
        counts = [0] * net.n_arcs
        for link, chi in zip(net.links, combo):
            for a in link:
                counts[a] = chi
        if best is not None and sum(counts) >= best:
            continue
        if audit_retention(inst, Activation(tuple(counts))):
            best = sum(counts)
    return best


def test_rho_must_be_interior():
    net = build_network([(0, 1, 1, 1, 1)])
    with pytest.raises(ValueError):
        make_instance(net, 1)
    with pytest.raises(ValueError):
        make_instance(net, 0)


def test_lower_bounds_single_arc(single_arc):
    inst = make_instance(single_arc, Fraction(1, 2))
    lb, satisfied = precompute_lower_bounds(inst)
    assert lb == {0: 3}  # flow 2 < 2.5 <= flow 3
    assert (0, 1) in satisfied


def test_lower_bounds_diamond_high_retention(diamond):
    inst = make_instance(diamond, Fraction(7, 10))
    lb, _ = precompute_lower_bounds(inst)
    assert lb == {0: 1, 1: 1, 2: 1, 3: 1}


def test_lower_bounds_cover_every_pair_requirement(diamond):
    # each arc is the only route between its own endpoints, so any retention
    # ratio forces one connection everywhere
    inst = make_instance(diamond, Fraction(3, 10))
    lb, satisfied = precompute_lower_bounds(inst)
    assert lb == {0: 1, 1: 1, 2: 1, 3: 1}
    assert satisfied == set(p for p, lam in inst.lam.items() if lam > 0)


def test_separation_on_zero_point(single_arc):
    inst = make_instance(single_arc, Fraction(1, 2))
    cuts = separate_cuts(inst, {0: Fraction(0)}, [(0, 1)])
    assert len(cuts) == 1  # front and back coincide and deduplicate
    assert cuts[0].arc_ids == frozenset({0})
    assert cuts[0].rhs == Fraction(5, 2)


def test_separation_quiet_when_satisfied(diamond):
    inst = make_instance(diamond, Fraction(7, 10))
    xhat = {a.id: Fraction(1) for a in diamond.arcs}
    assert separate_cuts(inst, xhat, [(0, 3)]) == []


def test_separation_front_and_back_sides(diamond):
    inst = make_instance(diamond, Fraction(7, 10))
    xhat = {0: Fraction(1), 1: Fraction(0), 2: Fraction(1), 3: Fraction(0)}
    cuts = separate_cuts(inst, xhat, [(0, 3)])
    sides = {c.arc_ids for c in cuts}
    assert sides == {frozenset({0, 1}), frozenset({2, 3})}
    assert all(c.rhs == Fraction(7, 5) for c in cuts)


def test_duplex_separation_screens_pairs_with_one_cut_tree(monkeypatch):
    # link 0-1 off and link 1-2 at half: only the pairs split by {1} miss
    # their target, and the n - 1 tree flows clear the other six
    net = build_network(RING5_DUPLEX, duplex_mode="full-duplex")
    inst = make_instance(net, Fraction(1, 2))
    xhat = {a.id: a.mu for a in net.arcs} | {0: 0, 5: 0, 1: 1, 6: 1}
    calls = []

    def counting(flow):
        def spy(net, ecap, s, t, target=None):
            calls.append((s, t))
            return flow(net, ecap, s, t, target=target)
        return spy

    for module in (mcps, flows):  # the tree's flows run through flows.max_flow
        monkeypatch.setattr(module, "max_flow", counting(module.max_flow))
    cuts = separate_cuts(inst, xhat, list(inst.targets))
    cut_pairs = {cut.pair for cut in cuts}
    assert cut_pairs == {(0, 1), (1, 2), (1, 3), (1, 4)}
    assert len(calls) <= net.n_vertices - 1 + len(cut_pairs) < len(inst.targets)


def test_emitted_cuts_are_violated_by_their_point():
    rng = random.Random(13)
    for _ in range(30):
        net = random_net(rng, n_max=5, arcs_max=7)
        inst = make_instance(net, Fraction(rng.choice([3, 5, 7]), 10))
        pending = [p for p, lam in inst.lam.items() if lam > 0]
        xhat = {
            a.id: Fraction(rng.randint(0, 2 * a.mu), 2) for a in net.arcs
        }
        xhat = {aid: min(v, net.arcs[aid].mu) for aid, v in xhat.items()}
        for cut in separate_cuts(inst, xhat, pending):
            lhs = sum(net.arcs[a].ccap * xhat[a] for a in cut.arc_ids)
            assert lhs < cut.rhs


def test_solver_fixture_values(single_arc, diamond):
    assert solve_mcps(single_arc, Fraction(1, 2)).value == 3
    assert solve_mcps(diamond, Fraction(7, 10)).value == 4
    # all-pairs retention forces every diamond arc on even at low rho
    assert solve_mcps(diamond, Fraction(3, 10)).value == 4


def test_solver_matches_enumeration_on_random_digraphs():
    rng = random.Random(41)
    rhos = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    for i in range(30):
        net = random_net(rng, n_max=5, arcs_max=7)
        rho = rhos[i % 3]
        res = solve_mcps(net, rho)
        assert res.status == "optimal"
        assert res.value == brute_force_mcps_value(net, rho)
        assert audit_retention(make_instance(net, rho), res.activation)


def test_solver_duplex_outputs_are_symmetric():
    net = build_network(
        [(0, 1, 2, 1, 2), (1, 0, 2, 1, 2), (1, 2, 1, 1, 2), (2, 1, 1, 1, 2)],
        duplex_mode="full-duplex",
    )
    res = solve_mcps(net, Fraction(1, 2))
    assert res.status == "optimal"
    for a in net.arcs:
        assert res.activation.counts[a.id] == res.activation.counts[net.link_pair[a.id]]
    assert res.value == brute_force_mcps_value(net, Fraction(1, 2))


def test_full_activation_always_feasible():
    rng = random.Random(6)
    net = random_net(rng, n_max=5, arcs_max=6)
    inst = make_instance(net, Fraction(7, 10))
    assert audit_retention(inst, full_activation(net))


def test_quiet_separation_certifies_the_whole_cut_family():
    import itertools as it

    rng = random.Random(97)
    certified = 0
    while certified < 10:
        net = random_net(rng, n_max=5, arcs_max=7)
        inst = make_instance(net, Fraction(1, 2))
        pending = [p for p, lam in inst.lam.items() if lam > 0]
        xhat = {a.id: Fraction(rng.randint(0, a.mu)) for a in net.arcs}
        if separate_cuts(inst, xhat, pending):
            continue
        certified += 1
        for (s, t) in pending:
            target = inst.rho * inst.lam[(s, t)]
            others = [v for v in range(net.n_vertices) if v not in (s, t)]
            for k in range(len(others) + 1):
                for inside in it.combinations(others, k):
                    side = {s, *inside}
                    cap = sum(
                        (net.arcs[a.id].ccap * xhat[a.id] for a in net.arcs
                         if a.tail in side and a.head not in side),
                        Fraction(0),
                    )
                    assert cap >= target


def test_solver_matches_enumeration_on_denser_duplex_graphs():
    rng = random.Random(9090)
    done = 0
    while done < 15:
        net = random_net(rng, n_max=5, arcs_max=8, mu_max=3, duplex_prob=0.6)
        space = 1
        for link in net.links:
            space *= net.arcs[link[0]].mu + 1
        if space > 30000:
            continue
        rho = Fraction(rng.choice([3, 5, 7]), 10)
        res = solve_mcps(net, rho)
        assert res.status == "optimal"
        assert res.value == brute_force_mcps_value(net, rho)
        done += 1


def _perturbed_caps(net, ecap, target):
    """Reference: per-pair scaling on Fractions, as separation first did it."""
    denoms = [Fraction(v).denominator for v in ecap.values()]
    denoms.append(target.denominator)
    scale = (net.n_arcs + 1) * math.lcm(*denoms)
    pcap = {a: Fraction(v) * scale + 1 for a, v in ecap.items()}
    for arc in net.arcs:
        pcap.setdefault(arc.id, Fraction(1))
    return pcap, target * scale


def reference_separate_cuts(instance, xhat, pending_pairs):
    net, rho = instance.net, instance.rho
    ecap = {a.id: a.ccap * Fraction(xhat.get(a.id, 0)) for a in net.arcs}
    cuts = []
    for pair in sorted(pending_pairs):
        target = rho * instance.lam[pair]
        pcap, ptarget = _perturbed_caps(net, ecap, target)
        result = max_flow(net, pcap, pair[0], pair[1], target=ptarget)
        if result.value >= ptarget:
            continue
        front = extract_cut(net, pcap, result, pair[0], pair[1], "front")
        back = extract_cut(net, pcap, result, pair[0], pair[1], "back")
        cuts.append(CutConstraint(pair, front.arc_ids, target))
        if back.arc_ids != front.arc_ids:
            cuts.append(CutConstraint(pair, back.arc_ids, target))
    return cuts


def fraction_separate_cuts(instance, xhat, pending_pairs):
    """Reference: separation with the point's capacities and the goals in
    Fraction arithmetic, as it ran before the integer ratios, through the
    same module-level flows and cut tree."""
    net, rho = instance.net, instance.rho
    pairs = sorted(pending_pairs)
    targets = [rho * instance.lam[pair] for pair in pairs]
    ecap = [a.ccap * Fraction(xhat.get(a.id, 0)) for a in net.arcs]
    scale = (net.n_arcs + 1) * math.lcm(*(c.denominator for c in ecap + targets))
    pcap = {a: c.numerator * (scale // c.denominator) + 1 for a, c in enumerate(ecap)}
    screen = {}
    if net.link_pair is not None and pairs:
        screen = mcps.cut_tree(net, {a: min(c, pcap[net.link_pair[a]]) for a, c in pcap.items()})
    cuts = []
    for (s, t), target in zip(pairs, targets):
        ptarget = target.numerator * (scale // target.denominator)
        if screen.get((min(s, t), max(s, t)), 0) >= ptarget:
            continue
        result = mcps.max_flow(net, pcap, s, t, target=ptarget)
        if result.value >= ptarget:
            continue
        front, back = (
            mcps.extract_cut(net, pcap, result, s, t, side).arc_ids for side in ("front", "back")
        )
        cuts.append(CutConstraint((s, t), front, target))
        if back != front:
            cuts.append(CutConstraint((s, t), back, target))
    return cuts


def _with_flow_arguments(separate, *args):
    """``separate``'s cuts, and the capacities, pair and target of every
    max-flow and cut tree that it runs through the mcps module."""
    calls = []

    def spy(name, fn):
        def recorded(net, ecap, *rest, **kwargs):
            calls.append((name, dict(ecap), rest, kwargs))
            return fn(net, ecap, *rest, **kwargs)
        return recorded

    with patch.object(mcps, "max_flow", spy("max_flow", mcps.max_flow)), \
            patch.object(mcps, "cut_tree", spy("cut_tree", mcps.cut_tree)):
        return separate(*args), calls


# LP point coordinates in [0, 1]: ints and fractions; dyadic floats k / 2^m,
# such as the integral and half-integral values of LP vertices; floats of
# non-dyadic values such as 0.1 and 1/3; and floats with long binary expansions
_coordinates = (
    st.integers(0, 1)
    | st.fractions(0, 1, max_denominator=12)
    | st.integers(0, 6).flatmap(lambda m: st.integers(0, 2**m).map(lambda k: k / 2**m))
    | st.fractions(0, 1, max_denominator=12).map(float)
    | st.floats(0, 1)
)


def _assert_separation_matches_reference(net, tenths, xhat):
    """The same cuts as the per-pair Fraction reference, and the same cuts
    from the same integer flows as separation in Fraction arithmetic."""
    inst = make_instance(net, Fraction(tenths, 10))
    pending = [p for p, lam in inst.lam.items() if lam > 0]
    cuts, calls = _with_flow_arguments(separate_cuts, inst, xhat, pending)
    assert (cuts, calls) == _with_flow_arguments(fraction_separate_cuts, inst, xhat, pending)
    assert all(type(c) is int for _, ecap, _, _ in calls for c in ecap.values())
    assert cuts == reference_separate_cuts(inst, xhat, pending)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(digraphs(n_max=5, arcs_max=10), st.sampled_from([3, 5, 7]), st.data())
def test_integer_separation_matches_fraction_reference(net, tenths, data):
    xhat = {a.id: data.draw(_coordinates) * a.mu for a in net.arcs}
    _assert_separation_matches_reference(net, tenths, xhat)


def _per_link(net, draw_value):
    """One drawn value per link, given to both arcs of a duplex link as an
    LP point or an activation gives it."""
    values = [None] * net.n_arcs
    for link in net.links:
        value = draw_value(net.arcs[link[0]])
        for a in link:
            values[a] = value
    return values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(duplex_digraphs(n_max=6, links_max=7), st.sampled_from([3, 5, 7]), st.data())
def test_integer_separation_matches_fraction_reference_on_duplex_nets(net, tenths, data):
    # link-symmetric points, as the shared link columns of solve_mcps give them
    xhat = dict(enumerate(_per_link(net, lambda arc: data.draw(_coordinates) * arc.mu)))
    _assert_separation_matches_reference(net, tenths, xhat)


def reference_preprocessing(net, rho):
    """Reference: lambda, lower bounds and satisfied pairs from max-flows on
    the unscaled Fraction capacities, as preprocessing first computed them."""
    fcap = {a.id: a.fcap for a in net.arcs}
    n = net.n_vertices
    lam = {(s, t): max_flow(net, fcap, s, t).value for s in range(n) for t in range(n) if s != t}
    lb = {}
    for arc in net.arcs:
        target = rho * lam[(arc.tail, arc.head)]
        lb[arc.id] = next(
            k for k in range(arc.mu + 1)
            if max_flow(net, {**fcap, arc.id: arc.ccap * k}, arc.tail, arc.head).value >= target
        )
    lb_cap = {a.id: a.ccap * lb[a.id] for a in net.arcs}
    satisfied = {
        pair for pair, value in lam.items()
        if value > 0 and max_flow(net, lb_cap, *pair).value >= rho * value
    }
    return lam, lb, satisfied


def reference_audit(net, rho, lam, counts):
    ecap = {a.id: a.ccap * counts[a.id] for a in net.arcs}
    return all(
        max_flow(net, ecap, *pair).value >= rho * value
        for pair, value in lam.items() if value > 0
    )


def _assert_preprocessing_matches_reference(net, tenths, counts):
    """Preprocessing gives the reference's satisfied pairs among the
    instance's pairs; returns the reference's whole set."""
    rho = Fraction(tenths, 10)
    inst = make_instance(net, rho)
    lam, lb, satisfied = reference_preprocessing(net, rho)
    assert inst.lam == lam
    assert precompute_lower_bounds(inst) == (lb, satisfied & set(inst.targets))
    assert audit_retention(inst, Activation(counts)) == reference_audit(net, rho, lam, counts)
    return satisfied


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(digraphs(n_max=5, arcs_max=10, mu_max=3), st.sampled_from([3, 5, 7]), st.data())
def test_integer_preprocessing_matches_fraction_reference(base, tenths, data):
    # fractional ccaps, so that the integer flows run on scaled capacities
    ccaps = st.fractions(Fraction(1, 6), 3, max_denominator=6)
    net = build_network(
        [(a.tail, a.head, data.draw(ccaps), a.length, a.mu) for a in base.arcs],
        vertices=range(base.n_vertices),
    )
    counts = tuple(data.draw(st.integers(0, a.mu)) for a in net.arcs)
    _assert_preprocessing_matches_reference(net, tenths, counts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    duplex_digraphs(n_max=5, links_max=5, mu_max=3,
                    ccaps=st.fractions(Fraction(1, 6), 3, max_denominator=6)),
    st.sampled_from([3, 5, 7]),
    st.data(),
)
def test_integer_preprocessing_matches_fraction_reference_on_duplex_nets(net, tenths, data):
    counts = tuple(_per_link(net, lambda arc: data.draw(st.integers(0, arc.mu))))
    satisfied = _assert_preprocessing_matches_reference(net, tenths, counts)
    # so checking s < t only leaves out no answer
    assert satisfied == {(t, s) for s, t in satisfied}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(digraphs(n_max=5, arcs_max=10))
def test_simplex_instances_check_every_ordered_pair(net):
    inst = make_instance(net, Fraction(1, 2))
    assert list(inst.targets) == sorted(p for p, lam in inst.lam.items() if lam > 0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(duplex_digraphs(n_max=6, links_max=7))
def test_duplex_instances_check_each_unordered_pair_once(net):
    inst = make_instance(net, Fraction(1, 2))
    assert list(inst.targets) == sorted(
        (s, t) for (s, t), lam in inst.lam.items() if lam > 0 and s < t
    )
    assert all(lam == inst.lam[t, s] for (s, t), lam in inst.lam.items())


def test_audit_rejects_an_invalid_activation():
    inst = make_instance(build_network(RING5_DUPLEX, duplex_mode="full-duplex"), Fraction(1, 2))
    with pytest.raises(ValueError, match="asymmetry"):
        audit_retention(inst, Activation((2,) * 5 + (0,) * 5))
    with pytest.raises(ValueError, match="length"):
        audit_retention(inst, Activation((2,) * 9))


def test_a_timeout_before_the_first_solve_reports_the_zero_dual_bound():
    # every column costs 1 from a lower bound of 0, so 0 bounds the optimum
    # before any LP is solved; the full activation is the incumbent
    net = complete_digraph(4)
    res = solve_mcps(net, Fraction(1, 2), time_limit=1e-9)
    assert res.status == "timeout" and res.bound == 0
    assert res.activation == full_activation(net)


def test_a_timeout_before_the_first_solve_counts_the_preprocessing_bounds():
    # the single arc keeps at least 3 of its 5 connections, and that lower
    # bound on its column is what the zero-dual root bound sees
    res = solve_mcps(build_network([(0, 1, 1, 1, 5)]), Fraction(1, 2), time_limit=1e-9)
    assert res.status == "timeout" and res.bound == 3
    assert res.activation == Activation((5,))


def test_the_time_limit_counts_the_preprocessing(monkeypatch):
    # preprocessing that outlasts the limit leaves the search no time, so the
    # full activation (12) stands although 8 connections keep every min-cut
    net = complete_digraph(4)
    preprocess = mcps.precompute_lower_bounds

    def slow_preprocess(instance):
        time.sleep(0.2)
        return preprocess(instance)

    monkeypatch.setattr(mcps, "precompute_lower_bounds", slow_preprocess)
    res = solve_mcps(net, Fraction(1, 2), time_limit=0.1)
    assert res.status == "timeout" and res.activation == full_activation(net)


@pytest.mark.parametrize("mode", ["simplex", "full-duplex"])
def test_preprocessing_bounds_are_column_lower_bounds(monkeypatch, mode):
    net = build_network(
        [(0, 1, 2, 1, 2), (1, 0, 2, 1, 2), (1, 2, 1, 1, 2), (2, 1, 1, 1, 2),
         (0, 2, 1, 3, 2), (2, 0, 1, 3, 2)],
        duplex_mode=mode,
    )
    rho = Fraction(1, 2)
    lb, _ = precompute_lower_bounds(make_instance(net, rho))
    seen = []

    def spy(model, integer_columns, **hooks):
        seen.append((model.n_rows, [model.bounds(j)[0] for j in integer_columns]))
        return branch_and_bound(model, integer_columns, **hooks)

    monkeypatch.setattr(mcps, "branch_and_bound", spy)
    solve_mcps(net, rho)
    # the link columns come in link order
    expected = [max(lb[a] for a in link) for link in net.links]
    assert seen == [(0, expected)] and 0 < max(expected)


@pytest.mark.parametrize("net", [
    build_network(RING5_DUPLEX, duplex_mode="full-duplex"),
    complete_digraph(4, ccap=1, mu=2),
], ids=["duplex-ring", "simplex-k4"])
def test_each_distinct_cut_row_enters_the_lp_once(monkeypatch, net):
    # every pair separated by one bipartition, at one target, gives one row
    rows = []
    add_row = LpModel.add_row

    def spy(model, coefs, sense, rhs):
        rows.append((dict(coefs), sense, rhs))
        return add_row(model, coefs, sense, rhs)

    monkeypatch.setattr(LpModel, "add_row", spy)
    res = solve_mcps(net, Fraction(1, 2))
    assert res.status == "optimal" and rows
    assert all(rows[i] != rows[j] for j in range(len(rows)) for i in range(j))


def test_duplex_max_flows_run_from_the_lower_vertex(monkeypatch):
    # (t,s) is checked by (s,t), so neither the preprocessing, separation nor
    # the audit runs a flow from a higher vertex to a lower one
    calls = []
    flow = mcps.max_flow

    def spy(net, ecap, s, t, target=None):
        calls.append((s, t))
        return flow(net, ecap, s, t, target=target)

    monkeypatch.setattr(mcps, "max_flow", spy)
    res = solve_mcps(build_network(RING5_DUPLEX, duplex_mode="full-duplex"), Fraction(1, 2))
    assert res.status == "optimal" and calls
    assert all(s < t for s, t in calls)


def _solve_recording_offers(net, rho):
    """solve_mcps's result and the (value, counts) of every incumbent its
    round-up heuristic offers; the link columns come in link order."""
    offers = []

    def spy(model, integer_columns, heuristic, **hooks):
        def recorded(sol):
            found = heuristic(sol)
            if found is not None:
                value, primal = found
                counts = [0] * net.n_arcs
                for col, link in enumerate(net.links):
                    for a in link:
                        counts[a] = primal[col]
                offers.append((value, tuple(counts)))
            return found
        return branch_and_bound(model, integer_columns, heuristic=recorded, **hooks)

    with patch.object(mcps, "branch_and_bound", spy):
        return solve_mcps(net, rho), offers


def _assert_offers_are_audited_incumbents(net, tenths):
    rho = Fraction(tenths, 10)
    res, offers = _solve_recording_offers(net, rho)
    inst = make_instance(net, rho)
    values = [sum(a.mu for a in net.arcs)]
    for value, counts in offers:
        assert value == sum(counts) < values[-1]  # each offer beats the one before
        assert audit_retention(inst, Activation(counts))
        values.append(value)
    assert res.status == "optimal"
    assert res.value == brute_force_mcps_value(net, rho) <= values[-1]
    return offers


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(digraphs(n_max=5, arcs_max=7), st.sampled_from([3, 5, 7]))
def test_round_up_offers_pass_the_audit_on_simplex_nets(net, tenths):
    _assert_offers_are_audited_incumbents(net, tenths)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(duplex_digraphs(n_max=5, links_max=5, mu_max=3), st.sampled_from([3, 5, 7]))
def test_round_up_offers_pass_the_audit_on_duplex_nets(net, tenths):
    _assert_offers_are_audited_incumbents(net, tenths)


@pytest.mark.parametrize("specs, mode, tenths, offered", [
    ([(0, 1, 2, 1, 1), (1, 0, 2, 1, 1), (1, 2, 3, 1, 1), (2, 1, 3, 1, 1),
      (0, 2, 2, 1, 3), (2, 0, 2, 1, 3)], "full-duplex", 3, [6]),
    ([(2, 3, 2, 1, 3), (3, 2, 2, 1, 2), (1, 3, 2, 1, 2), (3, 1, 2, 1, 3),
      (0, 2, 3, 1, 3), (1, 2, 1, 1, 2)], "simplex", 5, [10]),  # the optimum is 9
], ids=["duplex-triangle", "simplex"])
def test_round_up_offers_incumbents(specs, mode, tenths, offered):
    # the property tests above would also pass with a heuristic that never offers
    net = build_network(specs, duplex_mode=mode, vertices=range(4))
    offers = _assert_offers_are_audited_incumbents(net, tenths)
    assert [value for value, _ in offers] == offered


def test_round_up_audits_only_fractional_points_that_improve():
    net = build_network(RING5_DUPLEX, duplex_mode="full-duplex")  # 5 links of mu 2, value 20
    audits, answers = [], []
    unmet = mcps._unmet

    def counting(instance, counts):
        audits.append(tuple(counts))
        return unmet(instance, counts)

    def probe(model, integer_columns, heuristic, **hooks):
        del audits[:]  # the preprocessing's
        for point in [
            {j: 2.0 for j in integer_columns},  # integral: accept's to judge
            {j: 1.5 for j in integer_columns},  # rounds up to the full activation
            {j: 1.0 + 1e-7 for j in integer_columns},  # integral within INT_TOL
            {j: 0.5 if j == 0 else 2.0 for j in integer_columns},  # rounds to 18: audited
        ]:
            answers.append(heuristic(LpSolution("optimal", point, {}, sum(point.values()))))
            probed.append(list(audits))
        return branch_and_bound(model, integer_columns, **hooks)

    probed = []
    with patch.object(mcps, "_unmet", counting), patch.object(mcps, "branch_and_bound", probe):
        assert solve_mcps(net, Fraction(1, 2)).value == 10
    assert probed == [[], [], [], [(1, 2, 2, 2, 2) * 2]]
    assert answers == [None, None, None, (18, {0: 1, 1: 2, 2: 2, 3: 2, 4: 2})]


def _directed_unmet(instance, counts):
    """Reference: the instance's pairs whose directed integer max-flow, in
    either direction, misses the target."""
    net = instance.net
    ecap = {a.id: int(a.ccap * net.ccap_scale) * counts[a.id] for a in net.arcs}
    return [
        (s, t) for (s, t), target in instance.targets.items()
        if min(max_flow(net, ecap, s, t).value, max_flow(net, ecap, t, s).value) < target
    ]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    duplex_digraphs(n_max=6, links_max=8, mu_max=3,
                    ccaps=st.fractions(Fraction(1, 6), 3, max_denominator=6)),
    st.sampled_from([3, 5, 7]),
    st.data(),
)
def test_cut_tree_audit_finds_the_pairs_directed_flows_find(net, tenths, data):
    inst = make_instance(net, Fraction(tenths, 10))
    counts = _per_link(net, lambda arc: data.draw(st.integers(0, arc.mu)))
    assert list(mcps._unmet(inst, counts)) == _directed_unmet(inst, counts)
