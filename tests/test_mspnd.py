import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greente import (
    TrafficMatrix,
    build_network,
    is_spr_routable,
)
from greente import mspnd
from greente.lp import LpSolution, solve_lp
from greente.mspnd import (
    DisconnectedPair,
    DuplicatePath,
    MspndModel,
    NotRoutableInFull,
    TooLarge,
    _price_round,
    add_path_column,
    build_root_model,
    brute_force_mspnd,
    price_paths,
    root_lp_value,
    solve_f_mspnd,
    solve_mspnd,
)
from greente.model import Activation, full_activation
from greente.routing import make_path, spr_route
from conftest import (
    all_pairs_traffic,
    complete_digraph,
    digraphs,
    enumerate_paths,
    random_routable_instance,
)


def test_fixed_routing_keeps_only_loaded_arcs(triangle, single_arc):
    act = solve_f_mspnd(triangle, TrafficMatrix({(0, 2): 3}))
    assert act.counts == (3, 0, 0)
    act = solve_f_mspnd(single_arc, TrafficMatrix({(0, 1): 3}))
    assert act.counts == (3,)


def test_fixed_routing_rejects_overload(single_arc):
    with pytest.raises(NotRoutableInFull):
        solve_f_mspnd(single_arc, TrafficMatrix({(0, 1): 6}))
    with pytest.raises(NotRoutableInFull):
        solve_f_mspnd(single_arc, TrafficMatrix({(1, 0): 1}))


def test_fixed_routing_on_complete_digraph_keeps_every_link():
    n = 4
    net = complete_digraph(n)
    act = solve_f_mspnd(net, all_pairs_traffic(n))
    assert act.value == n * (n - 1)
    res = solve_mspnd(net, all_pairs_traffic(n), time_limit=60)
    assert res.value <= n


def test_a_timeout_before_the_first_solve_reports_the_zero_dual_bound():
    # F-MSPND is the incumbent; every activation column costs 1 from a lower
    # bound of 0 and every path column 0, so 0 bounds the optimum
    net, traffic = complete_digraph(4), all_pairs_traffic(4)
    res = solve_mspnd(net, traffic, time_limit=1e-9)
    assert res.status == "timeout" and res.bound == 0
    assert res.activation == solve_f_mspnd(net, traffic)


def test_root_model_path_counts(overlap_gadget, overlap_traffic, single_arc, diamond):
    model = build_root_model(overlap_gadget, overlap_traffic, strengthening=False)
    assert len(model.pairs[(0, 5)].entries) == 3
    assert len(model.pairs[(0, 2)].entries) == 2
    model = build_root_model(single_arc, TrafficMatrix({(0, 1): 1}), strengthening=False)
    assert len(model.pairs[(0, 1)].entries) == 1
    model = build_root_model(diamond, TrafficMatrix({(0, 3): 1}), strengthening=False)
    assert len(model.pairs[(0, 3)].entries) == 2


def test_root_model_rejects_disconnected_pair(single_arc):
    with pytest.raises(DisconnectedPair):
        build_root_model(single_arc, TrafficMatrix({(1, 0): 1}))


def test_pricing_returns_nothing_when_all_paths_known(single_arc):
    traffic = TrafficMatrix({(0, 1): 1})
    model = build_root_model(single_arc, traffic, strengthening=False)
    assert price_paths(model, (0, 1), Fraction(5), [0]) is None


def test_pricing_finds_second_diamond_path(diamond):
    traffic = TrafficMatrix({(0, 3): 1})
    model = MspndModel(diamond, traffic, strengthening=False)
    pair = (0, 3)
    model.ensure_pair(pair)
    add_path_column(model, pair, make_path(diamond, (0, 2)))
    found = price_paths(model, pair, Fraction(1), [0] * diamond.n_arcs)
    assert found is not None and found.arcs == (1, 3)


def test_pricing_respects_strict_bound(diamond):
    traffic = TrafficMatrix({(0, 3): 1})
    model = MspndModel(diamond, traffic, strengthening=False)
    pair = (0, 3)
    model.ensure_pair(pair)
    add_path_column(model, pair, make_path(diamond, (0, 2)))
    assert price_paths(model, pair, Fraction(0), [0] * diamond.n_arcs) is None


@st.composite
def pricing_cases(draw):
    """A digraph, a pair (connected when some pair is), some of its paths
    already known, per-arc dual costs and a bound."""
    net = draw(digraphs(n_max=5, arcs_max=10, len_max=2))
    pairs = [(u, v) for u in range(net.n_vertices) for v in range(net.n_vertices) if u != v]
    pair = draw(st.sampled_from([p for p in pairs if enumerate_paths(net, *p)] or pairs))
    known = [arcs for arcs in enumerate_paths(net, *pair) if draw(st.booleans())]
    costs = [draw(st.fractions(0, 2, max_denominator=4)) for _ in net.arcs]
    return net, pair, known, costs, draw(st.fractions(0, 5, max_denominator=4))


# the known arc 0->3 is shorter and cheaper than the new 0->1->3 (length 3),
# which must still beat the cheaper but longer 0->2->3 (length 4)
SHORT_BEHIND_KNOWN = build_network([
    (0, 2, 1, 2, 1), (0, 3, 1, 1, 1), (0, 1, 1, 1, 1),
    (2, 3, 1, 2, 1), (1, 2, 1, 1, 1), (1, 3, 1, 2, 1),
])
# 0->2->3 and 0->1->3 tie on length and dual cost; arc ids decide
TIED_ROUTES = build_network([(0, 2, 1, 2, 1), (2, 3, 1, 1, 1), (0, 1, 1, 1, 1), (1, 3, 1, 2, 1)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pricing_cases())
@example((SHORT_BEHIND_KNOWN, (0, 3), [(1,)], [1, 2, 2, 0, 0, 2], 100))
@example((TIED_ROUTES, (0, 3), [], [0, 3, 1, 2], 100))
def test_pricing_is_complete(case):
    """A path comes back exactly when some new elementary path costs less
    than the bound, and it is the first such path in (length, dual cost,
    hops, arc ids) order."""
    net, (s, t), known, costs, bound = case
    model = MspndModel(net, TrafficMatrix({(s, t): 1}), strengthening=False)
    model.ensure_pair((s, t))
    for arcs in known:
        add_path_column(model, (s, t), make_path(net, arcs))
    found = price_paths(model, (s, t), bound, costs)
    cheap_new = [
        make_path(net, arcs) for arcs in enumerate_paths(net, s, t)
        if arcs not in known and sum(costs[a] for a in arcs) < bound
    ]
    assert (found is not None) == bool(cheap_new)
    if found is not None:
        def order(p):
            return p.length, sum(costs[a] for a in p.arcs), p.hops, p.arcs

        first = min(cheap_new, key=order)
        assert found == first  # new, elementary, s to t, under the bound and order-first


def test_duplicate_path_rejected(single_arc):
    model = build_root_model(single_arc, TrafficMatrix({(0, 1): 1}), strengthening=False)
    with pytest.raises(DuplicatePath):
        add_path_column(model, (0, 1), make_path(single_arc, (0,)))


def test_no_subpath_rows_for_single_arcs_under_one_shortest(diamond):
    traffic = TrafficMatrix({(0, 3): 1})
    plain = build_root_model(diamond, traffic, strengthening=False)
    strengthened = build_root_model(diamond, traffic, strengthening=True)
    # both diamond paths have only single-arc subpaths; unit lengths are
    # one-shortest, so strengthening adds nothing at all
    assert strengthened.lp.n_rows == plain.lp.n_rows
    assert strengthened.lp.n_cols == plain.lp.n_cols


def test_subpath_columns_materialize(overlap_gadget, overlap_traffic):
    model = build_root_model(overlap_gadget, overlap_traffic, strengthening=True)
    # the five-hop s-t path forces its two-hop s-v prefix into the model and
    # ties them; auxiliary pairs appear for the interior subpaths
    aux = [p for p, pd in model.pairs.items() if pd.conn_row is None]
    assert aux
    assert (1, 2) in model.pairs[(0, 2)].entries
    long_path = model.pairs[(0, 5)].entries[(1, 2, 3, 4, 5)]
    prefix = model.pairs[(0, 2)].entries[(1, 2)]
    tie_rows = [
        i
        for i in range(model.lp.n_rows)
        if model.lp.row_coefs[i] == {prefix.column: 1, long_path.column: -1}
    ]
    assert len(tie_rows) == 1


def test_root_value_single_arc_is_integral(single_arc):
    traffic = TrafficMatrix({(0, 1): 3})
    assert root_lp_value(single_arc, traffic, strengthening=False, mode="exact") == 3


def test_root_value_gap_closes_with_subpath_rows(overlap_gadget, overlap_traffic):
    plain = root_lp_value(overlap_gadget, overlap_traffic, strengthening=False, mode="exact")
    assert plain == Fraction(17, 2)
    strengthened = root_lp_value(overlap_gadget, overlap_traffic, strengthening=True, mode="float")
    assert strengthened >= 9 - 1e-9


def test_solver_fixture_values(overlap_gadget, overlap_traffic, single_arc, triangle):
    assert solve_mspnd(overlap_gadget, overlap_traffic).value == 9
    assert solve_mspnd(single_arc, TrafficMatrix({(0, 1): 3})).value == 3
    res = solve_mspnd(triangle, TrafficMatrix({(0, 2): 3}))
    assert res.value == 2
    assert res.activation.counts == (0, 1, 1)


def test_solver_accepts_empty_traffic(single_arc):
    res = solve_mspnd(single_arc, TrafficMatrix({}))
    assert res.value == 0 and res.status == "optimal"


def test_solutions_route_and_match_oracle():
    rng = random.Random(101)
    for _ in range(25):
        net, traffic = random_routable_instance(rng)
        res = solve_mspnd(net, traffic)
        assert res.status == "optimal"
        assert is_spr_routable(net, res.activation, traffic)
        res.activation.validate(net)
        assert res.value == brute_force_mspnd(net, traffic).value


def test_column_generation_reaches_full_model_value():
    rng = random.Random(55)
    for _ in range(10):
        net, traffic = random_routable_instance(rng, n_max=5, arcs_max=8)
        model = MspndModel(net, traffic, strengthening=False)
        for pair in traffic.terminals:
            model.ensure_pair(pair)
        for pair in traffic.terminals:
            for arcs in sorted(
                enumerate_paths(net, *pair), key=lambda a: make_path(net, a).order_key()
            ):
                add_path_column(model, pair, make_path(net, arcs))
        full_value = solve_lp(model.lp, "exact").objective
        assert root_lp_value(net, traffic, strengthening=False, mode="exact") == full_value


def test_subpath_rows_never_change_the_optimum_and_never_lower_the_root():
    rng = random.Random(202)
    for _ in range(12):
        net, traffic = random_routable_instance(rng, n_max=5, arcs_max=7)
        plain = solve_mspnd(net, traffic, strengthening=False)
        strengthened = solve_mspnd(net, traffic, strengthening=True)
        assert plain.value == strengthened.value
        r0 = root_lp_value(net, traffic, strengthening=False, mode="float")
        r1 = root_lp_value(net, traffic, strengthening=True, mode="float")
        assert r1 >= r0 - 1e-7


def test_path_choices_become_binary_once_activation_is_fixed():
    rng = random.Random(303)
    for _ in range(8):
        net, traffic = random_routable_instance(rng, n_max=5, arcs_max=7)
        res = solve_mspnd(net, traffic)
        model = build_root_model(net, traffic, strengthening=False)
        for a in net.arcs:
            chi = res.activation.counts[a.id]
            model.lp.set_bounds(model.x_col[a.id], chi, chi)
            model.lp.set_bounds(model.y_col[a.id], int(chi > 0), int(chi > 0))
        while True:
            sol = solve_lp(model.lp, "exact")
            assert sol.status == "optimal"
            if not _price_round(model, sol):
                break
        for pair, pd in model.pairs.items():
            for entry in pd.entries.values():
                z = sol.primal[entry.column]
                assert z == 0 or z == 1


def test_solver_is_deterministic():
    rng = random.Random(404)
    net, traffic = random_routable_instance(rng)
    a = solve_mspnd(net, traffic)
    b = solve_mspnd(net, traffic)
    assert a.activation.counts == b.activation.counts


def test_duplex_solutions_are_symmetric():
    net = build_network(
        [
            (0, 1, 2, 1, 2), (1, 0, 2, 1, 2),
            (1, 2, 2, 1, 2), (2, 1, 2, 1, 2),
            (0, 2, 1, 3, 2), (2, 0, 1, 3, 2),
        ],
        duplex_mode="full-duplex",
    )
    traffic = TrafficMatrix({(0, 2): 2, (2, 0): 1})
    res = solve_mspnd(net, traffic)
    assert res.status == "optimal"
    for a in net.arcs:
        assert res.activation.counts[a.id] == res.activation.counts[net.link_pair[a.id]]
    assert res.value == brute_force_mspnd(net, traffic).value


def test_brute_force_guard():
    net = complete_digraph(4, ccap=5, mu=9)
    with pytest.raises(TooLarge):
        brute_force_mspnd(net, all_pairs_traffic(4))


def test_two_arc_path_gets_both_subpath_rows_without_one_shortest():
    # direct a->c is much longer than the two-hop route, so unit subpaths are
    # not automatically shortest and both tie rows must appear
    net = build_network([(0, 1, 1, 5, 1), (1, 2, 1, 5, 1), (0, 2, 1, 20, 1)])
    traffic = TrafficMatrix({(0, 2): 1})
    model = build_root_model(net, traffic, strengthening=True)
    assert not model.one_shortest
    two_hop = model.pairs[(0, 2)].entries[(0, 1)]
    prefix = model.pairs[(0, 1)].entries[(0,)]
    suffix = model.pairs[(1, 2)].entries[(1,)]
    ties = [
        model.lp.row_coefs[i]
        for i in range(model.lp.n_rows)
        if model.lp.row_coefs[i] in (
            {prefix.column: 1, two_hop.column: -1},
            {suffix.column: 1, two_hop.column: -1},
        )
    ]
    assert len(ties) == 2


def test_brute_force_fixture_values(triangle, overlap_gadget, overlap_traffic):
    assert brute_force_mspnd(triangle, TrafficMatrix({(0, 2): 3})).value == 2
    assert brute_force_mspnd(overlap_gadget, overlap_traffic).value == 9


def wide_pair_net():
    """Five thin two-hop routes (the seeds) plus a cheap fat detour."""
    specs = []
    for i in range(5):
        mid = 2 + i
        specs.append((0, mid, 1, 1, 1))
        specs.append((mid, 1, 1, 1, 1))
    specs.append((0, 7, 100, 1, 1))
    specs.append((7, 1, 100, 2, 1))
    return build_network(specs)


def _spy_on_pricing(monkeypatch):
    """Record each price_paths call of a pricing round as (pair, bound, dcost, path)."""
    calls = []

    def spy(model, pair, bound, dcost):
        found = price_paths(model, pair, bound, dcost)
        calls.append((pair, bound, dcost, found))
        return found

    monkeypatch.setattr(mspnd, "price_paths", spy)
    return calls


def test_priced_paths_are_new_and_within_the_dual_bound(monkeypatch):
    net = wide_pair_net()
    traffic = TrafficMatrix({(0, 1): 2})
    model = build_root_model(net, traffic, strengthening=False)
    sol = solve_lp(model.lp, "exact")
    pair = (0, 1)
    pd = model.pairs[pair]
    before = set(pd.entries)
    calls = _spy_on_pricing(monkeypatch)
    added = _price_round(model, sol)
    [(priced_pair, bound, dcost, path)] = calls
    assert priced_pair == pair and bound == sol.dual.get(pd.conn_row, 0)
    assert path is not None and path.arcs == (10, 11)
    assert path.arcs not in before
    assert added == [pd.entries[path.arcs].column]

    # per-arc dual cost: edge-buying dual plus demand times capacity dual
    def arc_cost(a):
        eb = sol.dual.get(pd.eb_row[a], 0) if a in pd.eb_row else 0
        return eb + pd.demand * sol.dual.get(model.cap_row[a], 0)

    assert dcost == [arc_cost(a) for a in range(net.n_arcs)]
    assert sum(arc_cost(a) for a in path.arcs) < bound
    # pricing closes the gap between the restricted master and the full value
    assert float(sol.objective) > 2
    assert root_lp_value(net, traffic, strengthening=False, mode="exact") == 2
    assert solve_mspnd(net, traffic).value == 2


def thin_routes_net():
    """Five thin two-hop routes (the seeds) that cannot carry 10 units even
    fractionally, plus a longer fat route that can."""
    specs = []
    for i in range(5):
        mid = 2 + i
        specs.append((0, mid, 1, 1, 1))   # thin, len 1
        specs.append((mid, 1, 1, 1, 1))
    specs.append((0, 7, 10, 1, 1))        # fat, len 1 + 2 = 3
    specs.append((7, 1, 10, 2, 1))
    return build_network(specs), TrafficMatrix({(0, 1): 10})


def test_infeasible_restricted_master_recovers_via_feasibility_pricing():
    # the fat route must be priced in from an infeasible restricted master
    net, traffic = thin_routes_net()
    res = solve_mspnd(net, traffic)
    assert res.status == "optimal"
    assert res.value == 2
    assert res.activation.counts[10] == 1 and res.activation.counts[11] == 1
    assert res.value == brute_force_mspnd(net, traffic).value
    assert root_lp_value(net, traffic, strengthening=False, mode="exact") == 2


def test_exact_farkas_ray_prices_the_fat_route_in_exact_arithmetic(monkeypatch):
    net, traffic = thin_routes_net()
    model = build_root_model(net, traffic, strengthening=False)
    sol = solve_lp(model.lp, "exact")
    assert sol.status == "infeasible" and sol.objective is None
    calls = _spy_on_pricing(monkeypatch)
    _price_round(model, sol)
    [(_, bound, dcost, path)] = calls
    assert all(isinstance(v, (int, Fraction)) for v in [bound, *dcost])
    assert path.arcs == (10, 11)
    assert (10, 11) in model.pairs[(0, 1)].entries


def test_solver_agrees_with_oracle_beyond_full_routability():
    # no routability filter: instances may need rerouting through deactivation
    # to become feasible, or may be infeasible outright
    from greente import full_activation
    from greente.routing import Disconnected, spr_route
    from conftest import random_net

    rng = random.Random(31337)
    outcomes = {"solved": 0, "infeasible": 0}
    for _ in range(60):
        net = random_net(rng, n_max=6, arcs_max=9, mu_max=2)
        cand = [(s, t) for s in range(net.n_vertices) for t in range(net.n_vertices) if s != t]
        rng.shuffle(cand)
        traffic = TrafficMatrix({
            pair: Fraction(rng.randint(1, 12), rng.randint(1, 3))
            for pair in cand[: rng.randint(1, 3)]
        })
        try:
            spr_route(net, full_activation(net), traffic)
        except Disconnected:
            continue
        try:
            expected = brute_force_mspnd(net, traffic).value
        except NotRoutableInFull:
            expected = None
        try:
            result = solve_mspnd(net, traffic)
            got = result.value if result.status == "optimal" else None
        except NotRoutableInFull:
            got = None
        assert got == expected
        outcomes["solved" if expected is not None else "infeasible"] += 1
    assert outcomes["solved"] > 0 and outcomes["infeasible"] > 0


def test_grid_networks_with_many_alternative_routes():
    # grids give pairs far more paths than the seeded five, so the search
    # leans on pricing rather than enumeration
    rng = random.Random(808)

    def grid_net():
        def vid(r, c):
            return r * 3 + c

        specs = []
        for r in range(2):
            for c in range(3):
                if c + 1 < 3:
                    specs.append((vid(r, c), vid(r, c + 1), rng.choice([1, 2, 3]), rng.randint(1, 2), 1))
                    specs.append((vid(r, c + 1), vid(r, c), rng.choice([1, 2, 3]), rng.randint(1, 2), 1))
                if r + 1 < 2:
                    specs.append((vid(r, c), vid(r + 1, c), rng.choice([1, 2, 3]), rng.randint(1, 2), 1))
                    specs.append((vid(r + 1, c), vid(r, c), rng.choice([1, 2, 3]), rng.randint(1, 2), 1))
        return build_network(specs)

    outcomes = {"solved": 0, "infeasible": 0}
    for _ in range(8):
        net = grid_net()
        cand = [(s, t) for s in range(6) for t in range(6) if s != t]
        rng.shuffle(cand)
        traffic = TrafficMatrix({p: Fraction(rng.randint(1, 6), rng.randint(1, 2)) for p in cand[:2]})
        try:
            expected = brute_force_mspnd(net, traffic).value
        except NotRoutableInFull:
            expected = None
        try:
            res = solve_mspnd(net, traffic)
            got = res.value if res.status == "optimal" else None
        except NotRoutableInFull:
            got = None
        assert got == expected
        outcomes["solved" if expected is not None else "infeasible"] += 1
    assert outcomes["solved"] > 0


def _reference_drop(net, traffic, order):
    """The LP-order drop over links with a full SPR check at every step."""
    counts = list(full_activation(net).counts)
    if not is_spr_routable(net, Activation(tuple(counts)), traffic):
        return None
    for link in order:
        while counts[link[0]] > 0:
            trial = list(counts)
            for b in link:
                trial[b] -= 1
            if not is_spr_routable(net, Activation(tuple(trial)), traffic):
                break
            counts = trial
    return counts


def _fake_lp_point(model, rng):
    """An optimal-looking LP point with many ties among the x values."""
    primal = {col: rng.choice([0, 0.25, 0.5, 1.0]) for col in model.x_col}
    return LpSolution("optimal", primal, {}, 0.0)


def test_lp_drop_matches_a_drop_that_checks_routability_at_every_step():
    rng = random.Random(4242)
    duplex = dropped = partial = 0
    for _ in range(150):
        net, traffic = random_routable_instance(rng, n_max=6, arcs_max=10, mu_max=3, pairs_max=4)
        model = MspndModel(net, traffic, strengthening=False)
        sol = _fake_lp_point(model, rng)
        order = sorted(net.links, key=lambda link: (sol.primal[model.x_col[link[0]]], link[0]))
        expected = _reference_drop(net, traffic, order)
        value, primal = mspnd._lp_drop(model, spr_route(net, full_activation(net), traffic), sol)
        counts = [primal[model.x_col[a]] for a in range(net.n_arcs)]
        assert counts == expected
        assert value == sum(counts)
        assert all(primal[model.y_col[a]] == (chi > 0) for a, chi in enumerate(counts))
        duplex += len(net.links) < net.n_arcs
        dropped += value < full_activation(net).value
        partial += any(0 < chi < arc.mu for chi, arc in zip(counts, net.arcs))
    assert duplex > 20 and dropped > 100 and partial > 50


def test_lp_drop_needs_a_routable_full_activation(monkeypatch):
    # full activation sends s->v over the thin direct arc, which overloads;
    # only without it does the fat detour carry the demand.  With no F-MSPND
    # to start from, the drop heuristic is never registered.
    net = build_network([(0, 2, 1, 1, 1), (0, 1, 3, 1, 1), (1, 2, 3, 1, 1)])
    traffic = TrafficMatrix({(0, 2): 2})
    with pytest.raises(NotRoutableInFull):
        solve_f_mspnd(net, traffic)
    drops = []
    monkeypatch.setattr(mspnd, "_lp_drop", lambda *args: drops.append(args))
    assert solve_mspnd(net, traffic).value == brute_force_mspnd(net, traffic).value == 2
    assert drops == []


def test_lp_drop_runs_from_the_one_full_network_routing(monkeypatch):
    # every call of one solve gets the same routing: the full network's
    net, traffic = complete_digraph(4), all_pairs_traffic(4)
    drop, routings = mspnd._lp_drop, []

    def spy(model, routed, sol):
        routings.append(routed)
        return drop(model, routed, sol)

    monkeypatch.setattr(mspnd, "_lp_drop", spy)
    assert solve_mspnd(net, traffic).status == "optimal"
    assert routings and all(r is routings[0] for r in routings)
    assert routings[0] == spr_route(net, full_activation(net), traffic)


def test_an_unroutable_heuristic_incumbent_is_caught(monkeypatch):
    # the final activation is re-verified, so a faulty hook cannot pass
    # off an all-off network as optimal
    def all_off(model, routed, sol):
        return 0, mspnd._activation_primal(model, [0] * model.net.n_arcs)

    monkeypatch.setattr(mspnd, "_lp_drop", all_off)
    with pytest.raises(RuntimeError, match="does not route"):
        solve_mspnd(complete_digraph(3), all_pairs_traffic(3))


def test_spr_completion_adds_the_missing_routing_path(monkeypatch):
    # the root holds only the direct arc; an integral point that switches it
    # off routes over the detour, a path the model lacks until completion
    monkeypatch.setattr(mspnd, "INITIAL_PATHS", 1)
    net = build_network([(0, 2, 1, 1, 1), (0, 1, 1, 1, 1), (1, 2, 1, 1, 1)])
    model = build_root_model(net, TrafficMatrix({(0, 2): 1}))
    assert list(model.pairs[(0, 2)].entries) == [(0,)]
    point = {model.x_col[a]: chi for a, chi in enumerate((0, 1, 1))}
    point.update({model.y_col[a]: chi for a, chi in enumerate((0, 1, 1))})
    sol = LpSolution("optimal", point, {}, 2)
    n_cols = model.lp.n_cols
    assert len(mspnd._complete_spr_paths(model, sol)) == 1
    assert model.lp.n_cols == n_cols + 1
    assert (1, 2) in model.pairs[(0, 2)].entries
    assert mspnd._complete_spr_paths(model, sol) == []
