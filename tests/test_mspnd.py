import itertools
import math
import random
import time
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
from greente.lp import GE, INT_TOL, LpModel, LpSolution, solve_lp
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
    duplex_digraphs,
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


@pytest.mark.parametrize("solve", [
    solve_mspnd,
    lambda net, traffic: root_lp_value(net, traffic, strengthening=True),
    solve_f_mspnd,
    brute_force_mspnd,
], ids=["solve_mspnd", "root_lp_value", "solve_f_mspnd", "brute_force_mspnd"])
def test_a_pair_with_no_path_is_not_routable_in_full(solve):
    net = build_network([(0, 1, 1, 1, 1), (1, 2, 1, 1, 1)])
    with pytest.raises(NotRoutableInFull):
        solve(net, TrafficMatrix({(2, 0): 1}))


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


def _rows(model):
    """The model's rows as sorted (coefficients, sense, rhs) triples."""
    lp = model.lp
    return sorted((sorted(c.items()), s, r) for c, s, r in zip(lp.row_coefs, lp.senses, lp.rhs))


def test_no_subpath_rows_for_single_arcs_under_one_shortest(diamond):
    traffic = TrafficMatrix({(0, 3): 1})
    plain = build_root_model(diamond, traffic, strengthening=False)
    strengthened = build_root_model(diamond, traffic, strengthening=True)
    # both diamond paths have only single-arc subpaths; unit lengths are
    # one-shortest, so strengthening adds no column and no tie row.  It only
    # leaves out the longer path's ordering row, sum of y <= 2, which y <= 1
    # implies.
    assert strengthened.lp.n_cols == plain.lp.n_cols
    longer = plain.pairs[(0, 3)].entries[(1, 3)]
    assert strengthened.pairs[(0, 3)].entries[(1, 3)].short_row is None
    skipped = plain.lp.row_coefs[longer.short_row]
    assert skipped == {plain.y_col[1]: -1, plain.y_col[3]: -1}
    rows = _rows(plain)
    rows.remove((sorted(skipped.items()), GE, -2))
    assert _rows(strengthened) == rows


def _entry(model, arcs):
    path = make_path(model.net, arcs)
    return model.pairs[(path.source, path.target)].entries[arcs]


def test_subpath_columns_materialize(overlap_gadget, overlap_traffic):
    model = build_root_model(overlap_gadget, overlap_traffic, strengthening=True)
    # the five-hop s-t path is longer than EAGER_HOPS: the root holds its
    # column without its closure until an optimal LP uses it
    long_arcs = (1, 2, 3, 4, 5)
    assert mspnd.EAGER_HOPS < len(long_arcs)
    column = _entry(model, long_arcs).column
    assert model.deferred[column].arcs == long_arcs
    assert (0, 4) in model.pairs and long_arcs[:-1] not in model.pairs[(0, 4)].entries
    assert (1, 5) not in model.pairs
    # one expansion forces every subpath of two or more arcs into the model,
    # auxiliary pairs included; tie rows lead from the path down to its
    # two-hop s-v prefix through its four- and three-hop prefixes
    used = LpSolution("optimal", {column: 1.0}, {}, 0.0)
    assert mspnd._refine_round(model, used) == [column]
    assert column not in model.deferred
    aux = [p for p, pd in model.pairs.items() if pd.conn_row is None]
    assert aux
    for i, j in itertools.combinations(range(len(long_arcs) + 1), 2):
        sub = make_path(overlap_gadget, long_arcs[i:j])
        if sub.hops >= 2:
            assert sub.arcs in model.pairs[(sub.source, sub.target)].entries
    assert (1, 2) in model.pairs[(0, 2)].entries
    chain = [_entry(model, long_arcs[:k]).column for k in (5, 4, 3, 2)]
    for longer, shorter in zip(chain, chain[1:]):
        assert {shorter: 1, longer: -1} in model.lp.row_coefs


def test_an_ordering_row_appears_with_the_first_longer_path():
    # direct 0->3 (one hop) and two-hop routes 0->1->3 and 0->2->3
    net = build_network([(0, 3, 1, 1, 1), (0, 1, 1, 1, 1), (1, 3, 1, 1, 1), (0, 2, 1, 1, 1), (2, 3, 1, 1, 1)])
    model = MspndModel(net, TrafficMatrix({(0, 3): 1}), strengthening=True)
    y = model.y_col
    pd = model.ensure_pair((0, 3))
    middle = add_path_column(model, (0, 3), make_path(net, (1, 2)))
    assert pd.entries[(1, 2)].short_row is None
    add_path_column(model, (0, 3), make_path(net, (0,)))
    # a shorter path gets its row at once, since a longer one exists
    direct_row = pd.entries[(0,)].short_row
    assert model.lp.row_coefs[direct_row] == {y[0]: -1, middle: -1}
    assert pd.entries[(1, 2)].short_row is None
    n_rows = model.lp.n_rows
    longest = add_path_column(model, (0, 3), make_path(net, (3, 4)))
    middle_row = pd.entries[(1, 2)].short_row
    assert middle_row is not None and middle_row >= n_rows
    assert model.lp.row_coefs[middle_row] == {y[1]: -1, y[2]: -1, longest: -1}
    assert model.lp.rhs[middle_row] == -2
    assert model.lp.row_coefs[direct_row] == {y[0]: -1, middle: -1, longest: -1}
    assert pd.entries[(3, 4)].short_row is None


def test_an_auxiliary_edge_buying_row_appears_with_the_second_column_on_its_arc():
    # arcs 0: 0->1, 1: 1->2, 2: 2->3, 3: 1->4, 4: 4->2; the s-t paths
    # 0->1->2->3 and 0->1->4->2->3 have the auxiliary pairs (0, 2) and (1, 3)
    net = build_network([(0, 1, 1, 1, 1), (1, 2, 1, 1, 1), (2, 3, 1, 1, 1), (1, 4, 1, 1, 1), (4, 2, 1, 1, 1)])
    model = MspndModel(net, TrafficMatrix({(0, 3): 1}), strengthening=True)
    y = model.y_col
    add_path_column(model, (0, 3), make_path(net, (0, 1, 2)))
    front, back = model.pairs[(0, 2)], model.pairs[(1, 3)]
    assert front.conn_row is None and back.conn_row is None
    assert front.eb_row == {} and back.eb_row == {}
    add_path_column(model, (0, 3), make_path(net, (0, 3, 4, 2)))
    # only the arc both columns of an auxiliary pair use gets a row
    assert list(front.eb_row) == [0] and list(back.eb_row) == [2]
    assert model.lp.row_coefs[front.eb_row[0]] == {
        y[0]: 1, front.entries[(0, 1)].column: -1, front.entries[(0, 3, 4)].column: -1,
    }
    assert model.lp.row_coefs[back.eb_row[2]] == {
        y[2]: 1, back.entries[(1, 2)].column: -1, back.entries[(3, 4, 2)].column: -1,
    }
    assert model.pairs[(1, 2)].eb_row == {}  # one column, 1->4->2
    # the terminal pair keeps a row on every arc it uses
    assert sorted(model.pairs[(0, 3)].eb_row) == [0, 1, 2, 3, 4]


def _priced_strengthened_root(net, traffic, mode):
    """The strengthened root, priced out with every deferred closure added."""
    model = build_root_model(net, traffic, strengthening=True)
    while True:
        while model.deferred:  # an expansion may defer long subpaths in turn
            column, path = model.deferred.popitem()
            mspnd._expand(model, path, column)
        if not _price_round(model, solve_lp(model.lp, mode)):
            return model


def _copy_with_eager_rows(model) -> tuple[LpModel, int]:
    """A copy of the model's LP plus the rows an eager build would have: all
    prefix and suffix tie rows, every path's full ordering row, and every
    edge-buying row of an auxiliary pair.  Rows already there are not added
    again; also returns how many were added."""
    lp = model.lp
    full = LpModel()
    for j in range(lp.n_cols):
        full.add_column(obj=lp.objective[j], lb=lp.lower[j], ub=lp.upper[j])
    have = set()

    def add(coefs, sense, rhs):
        key = (tuple(sorted(coefs.items())), sense, rhs)
        if key not in have:
            have.add(key)
            full.add_row(coefs, sense, rhs)

    for i in range(lp.n_rows):
        add(lp.row_coefs[i], lp.senses[i], lp.rhs[i])
    n_rows = full.n_rows
    for pd in model.pairs.values():
        for key, arcs in pd.order:
            column = pd.entries[arcs].column
            for cut in range(1, len(arcs)):
                for sub in (arcs[:cut], arcs[cut:]):
                    if len(sub) > 1 or not model.one_shortest:
                        add({_entry(model, sub).column: 1, column: -1}, GE, 0)
            short = {model.y_col[a]: -1 for a in arcs}
            short.update({pd.entries[b].column: -1 for k, b in pd.order if k > key})
            add(short, GE, -len(arcs))
        if pd.conn_row is None:
            for a in sorted({a for arcs in pd.entries for a in arcs}):
                eb = {model.y_col[a]: 1}
                eb.update({e.column: -1 for arcs, e in pd.entries.items() if a in arcs})
                add(eb, GE, 0)
    return full, full.n_rows - n_rows


def _lowered_point(model, primal) -> dict:
    """``primal`` with every auxiliary column lowered, longest first, to the
    largest column tied to it as its longest prefix or suffix (0 if none)."""
    point = dict(primal)
    tied_to: dict[int, list[int]] = {}
    aux = []
    for pd in model.pairs.values():
        for arcs, entry in pd.entries.items():
            if pd.conn_row is None:
                aux.append((len(arcs), entry.column))
            for sub in (arcs[:-1], arcs[1:]) if len(arcs) >= 2 else ():
                if len(sub) > 1 or not model.one_shortest:
                    tied_to.setdefault(_entry(model, sub).column, []).append(entry.column)
    for _, column in sorted(aux, reverse=True):
        point[column] = max((point[j] for j in tied_to.get(column, ())), default=0)
    return point


def _assert_skipped_rows_are_implied(net, traffic, mode, rng, fixings):
    """The lean root and its copy with the eager rows reach the same status
    and value, at the root and under random fixings of x and y.
    In exact mode the lean optimum, lowered by ``_lowered_point``, must also
    satisfy every row of the copy at the same value.
    """
    model = _priced_strengthened_root(net, traffic, mode)
    full, added = _copy_with_eager_rows(model)
    bounds = [
        (col, ub)
        for link in net.links
        for col, ub in ((model.x_col[link[0]], net.arcs[link[0]].mu), (model.y_col[link[0]], 1))
    ]
    statuses = []
    for k in range(fixings + 1):  # the root first, then one to four columns fixed
        fixed = dict(rng.sample(bounds, rng.randint(1, min(4, len(bounds))))) if k else {}
        for col, ub in bounds:
            v = rng.choice([0, ub]) if col in fixed else None
            for m in (model.lp, full):
                m.set_bounds(col, *((0, ub) if v is None else (v, v)))
        lean, eager = solve_lp(model.lp, mode), solve_lp(full, mode)
        statuses.append(lean.status)
        assert lean.status == eager.status
        if lean.status != "optimal":
            continue
        if mode == "float":
            assert lean.objective == pytest.approx(eager.objective, abs=1e-7)
        else:
            assert lean.objective == eager.objective
            point = _lowered_point(model, lean.primal)
            assert sum(c * point[j] for j, c in enumerate(full.objective)) == lean.objective
            for coefs, sense, rhs in zip(full.row_coefs, full.senses, full.rhs):
                assert _holds(sum(v * point[j] for j, v in coefs.items()), sense, rhs)
    return added, statuses


def test_skipped_rows_are_implied_on_the_gadget(overlap_gadget, overlap_traffic):
    added, statuses = _assert_skipped_rows_are_implied(
        overlap_gadget, overlap_traffic, "exact", random.Random(5), fixings=3,
    )
    assert added > 100 and statuses.count("optimal") >= 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_skipped_rows_are_implied(seed):
    rng = random.Random(seed)
    net, traffic = random_routable_instance(rng, n_max=7, arcs_max=12, pairs_max=4)
    if rng.random() < 0.5:  # longer arcs may have a shorter parallel route
        specs = [(a.tail, a.head, a.ccap, rng.randint(1, 4), a.mu) for a in net.arcs]
        net = build_network(specs, net.duplex_mode, vertices=range(net.n_vertices))
    _assert_skipped_rows_are_implied(net, traffic, "float", rng, fixings=4)


def test_root_value_single_arc_is_integral(single_arc):
    traffic = TrafficMatrix({(0, 1): 3})
    assert root_lp_value(single_arc, traffic, strengthening=False, mode="exact") == 3


def test_root_value_gap_closes_with_subpath_rows(overlap_gadget, overlap_traffic):
    plain = root_lp_value(overlap_gadget, overlap_traffic, strengthening=False, mode="exact")
    assert plain == Fraction(17, 2)
    # the five-hop s-t path starts deferred, so this is the lazy root
    assert root_lp_value(overlap_gadget, overlap_traffic, strengthening=True, mode="exact") == 9


def test_k6_plain_root_is_exactly_six():
    net, traffic = complete_digraph(6, ccap=1000), all_pairs_traffic(6, Fraction(1, 100))
    start = time.perf_counter()
    assert root_lp_value(net, traffic, strengthening=False, mode="exact") == 6
    assert time.perf_counter() - start < 10


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_a_deferred_closure_keeps_the_root_between_plain_and_eager(seed, eager_hops):
    rng = random.Random(seed)
    net, traffic = random_routable_instance(rng, n_max=6, arcs_max=9)
    plain = root_lp_value(net, traffic, strengthening=False, mode="float")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mspnd, "EAGER_HOPS", net.n_arcs)  # every closure at once
        eager = root_lp_value(net, traffic, strengthening=True, mode="float")
        mp.setattr(mspnd, "EAGER_HOPS", eager_hops)
        lazy = root_lp_value(net, traffic, strengthening=True, mode="float")
        value = solve_mspnd(net, traffic).value
    assert plain - 1e-7 <= lazy <= eager + 1e-7
    assert value == brute_force_mspnd(net, traffic).value


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


def _demand_components(traffic):
    """Terminal sets of the undirected demand graph, by lowest terminal."""
    components = {v: {v} for pair in traffic.terminals for v in pair}
    for s, t in traffic.terminals:
        if components[s] is not components[t]:
            merged = components[s] | components[t]
            for v in merged:
                components[v] = merged
    return sorted({id(c): c for c in components.values()}.values(), key=min)


def _steiner_point(model, activation, n_cols):
    """The oracle's activation as a point of the full-duplex rows: y from the
    active links, and per demand component a BFS tree of the active network
    oriented away from its lowest terminal r, z on the tree arcs and f^t on
    the tree path from r to t.  Columns follow ``_add_steiner_rows``'s
    layout from ``n_cols`` on."""
    net = model.net
    point = {model.y_col[a]: int(chi > 0) for a, chi in enumerate(activation.counts)}
    col = n_cols
    for component in _demand_components(model.traffic):
        r, *others = sorted(component)
        parent_arc, queue = {r: None}, [r]
        for v in queue:
            for arc in net.out_arcs[v]:
                if activation.counts[arc.id] and arc.head not in parent_arc:
                    parent_arc[arc.head] = arc.id
                    queue.append(arc.head)
        z_col, col = col, col + net.n_arcs
        for a in parent_arc.values():
            if a is not None:
                point[z_col + a] = 1
        for t in others:
            v = t
            while parent_arc[v] is not None:
                point[col + parent_arc[v]] = 1
                v = net.arcs[parent_arc[v]].tail
            col += net.n_arcs
    return point


def _holds(lhs, sense, rhs) -> bool:
    return {">=": lhs >= rhs, "<=": lhs <= rhs, "=": lhs == rhs}[sense]


@settings(max_examples=150, deadline=None)
@given(duplex_digraphs(n_max=5, links_max=5), st.data())
def test_steiner_rows_hold_at_the_oracle_optimum(net, data):
    n = net.n_vertices
    pairs = data.draw(st.lists(
        st.sampled_from([(s, t) for s in range(n) for t in range(n) if s != t]),
        min_size=1, max_size=4, unique=True,
    ))
    traffic = TrafficMatrix({p: data.draw(st.sampled_from([Fraction(1, 2), 1, 2])) for p in pairs})
    try:
        best = brute_force_mspnd(net, traffic)
    except NotRoutableInFull:
        return
    model = build_root_model(net, traffic)
    n_rows, n_cols = model.lp.n_rows, model.lp.n_cols
    mspnd._add_steiner_rows(model)
    y_cols = {model.y_col[a] for a, _ in net.links}
    point = _steiner_point(model, best, n_cols)
    for i in range(n_rows, model.lp.n_rows):
        coefs = model.lp.row_coefs[i]
        assert all(j in y_cols or j >= n_cols for j in coefs)  # y and new columns only
        lhs = sum(v * point.get(j, 0) for j, v in coefs.items())
        assert _holds(lhs, model.lp.senses[i], model.lp.rhs[i])
    assert all(model.lp.objective[j] == 0 for j in range(n_cols, model.lp.n_cols))
    assert solve_mspnd(net, traffic).value == best.value


def four_cycle_three_neighbour_demands():
    """A full-duplex 4-cycle 0-1-2-3-0 with demands on three of its links:
    every demand needs its own link, but the paper's root spreads y over the
    cycle at 4 against an optimum of 6."""
    specs = []
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        specs += [(u, v, 1, 1, 1), (v, u, 1, 1, 1)]
    net = build_network(specs, "full-duplex")
    return net, TrafficMatrix({(2, 1): Fraction(1, 4), (3, 0): Fraction(1, 4), (0, 1): Fraction(1, 4)})


def test_steiner_rows_lift_the_first_node_bound_to_the_optimum(monkeypatch):
    net, traffic = four_cycle_three_neighbour_demands()
    assert brute_force_mspnd(net, traffic).value == 6
    assert root_lp_value(net, traffic, strengthening=True, mode="exact") == 4
    real, roots = mspnd.branch_and_bound, []

    def spy(lp_model, int_cols, **hooks):
        # the first node's relaxation, priced out, on the model the search gets
        roots.append(real(lp_model, [], refine=hooks["refine"]).incumbent.objective)
        return real(lp_model, int_cols, **hooks)

    monkeypatch.setattr(mspnd, "branch_and_bound", spy)
    res = solve_mspnd(net, traffic)
    assert res.status == "optimal" and res.value == 6
    [root] = roots
    assert 4 < root and math.ceil(root / 2 - INT_TOL) * 2 == 6


@pytest.mark.parametrize("instance", ["gadget", "k6"])
def test_simplex_models_get_no_steiner_rows(monkeypatch, instance, overlap_gadget, overlap_traffic):
    net, traffic = {
        "gadget": (overlap_gadget, overlap_traffic),
        "k6": (complete_digraph(6), all_pairs_traffic(6)),
    }[instance]
    real, sizes = mspnd.branch_and_bound, []

    def spy(lp_model, int_cols, **hooks):
        sizes.append((lp_model.n_rows, lp_model.n_cols))
        return real(lp_model, int_cols, **hooks)

    monkeypatch.setattr(mspnd, "branch_and_bound", spy)
    solve_mspnd(net, traffic)
    root = build_root_model(net, traffic).lp
    assert sizes == [(root.n_rows, root.n_cols)]


def test_the_time_limit_counts_from_entry(monkeypatch, triangle):
    # a root build that outlasts the limit leaves the search no time, so the
    # F-MSPND start (3) stands although the optimum (2) is one node away
    traffic = TrafficMatrix({(0, 2): 3})
    build = mspnd.build_root_model

    def slow_build(*args):
        time.sleep(0.2)
        return build(*args)

    monkeypatch.setattr(mspnd, "build_root_model", slow_build)
    res = solve_mspnd(triangle, traffic, time_limit=0.1)
    assert res.status == "timeout" and res.bound == 0
    assert res.activation == solve_f_mspnd(triangle, traffic) and res.value == 3
