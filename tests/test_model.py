import dataclasses

import pytest
from fractions import Fraction

from greente import (
    Activation,
    FULL_DUPLEX,
    Result,
    TrafficMatrix,
    build_network,
    full_activation,
    scale_traffic,
)
from greente import mcps, routing
from greente.bnb import branch_and_bound
from greente.lp import EQ
from greente.model import (
    SIMPLEX,
    DuplicateArc,
    InconsistentDuplexArc,
    MissingReverseArc,
    NetworkError,
    NonPositiveParameter,
)
from greente.mspnd import MspndModel, build_root_model
from greente.toca import build_toca_lp


def test_single_arc_network(single_arc):
    assert single_arc.n_arcs == 1
    arc = single_arc.arcs[0]
    assert (arc.tail, arc.head, arc.ccap, arc.length, arc.mu) == (0, 1, 1, 1, 5)
    assert arc.fcap == 5


def test_duplicate_ordered_pair_rejected():
    with pytest.raises(DuplicateArc):
        build_network([(0, 1, 1, 1, 1), (0, 1, 2, 1, 1)])


def test_full_duplex_pairs_arcs():
    net = build_network(
        [(0, 1, 2, 3, 1), (1, 0, 2, 3, 1)], duplex_mode=FULL_DUPLEX
    )
    assert net.link_pair == (1, 0)
    assert net.links == ((0, 1),)


def test_duplex_mode_follows_the_pairing():
    # the mode is not stored beside the pairing, so the two cannot disagree
    net = build_network([(0, 1, 2, 3, 1), (1, 0, 2, 3, 1)], duplex_mode=FULL_DUPLEX)
    assert net.duplex_mode == FULL_DUPLEX
    unpaired = dataclasses.replace(net, link_pair=None)
    assert unpaired.duplex_mode == SIMPLEX
    assert unpaired.links == ((0,), (1,))
    assert build_network([(0, 1, 2, 3, 1)]).duplex_mode == SIMPLEX


def test_shortest_length_table_is_built_once_per_network(monkeypatch, overlap_gadget):
    net = overlap_gadget
    lengths = [a.length for a in net.arcs]
    expected = [routing.costs_to(net, lengths, v) for v in range(net.n_vertices)]
    calls = []
    costs_to = routing.costs_to

    def spy(net, cost, t):
        calls.append(list(cost) == lengths)
        return costs_to(net, cost, t)

    monkeypatch.setattr(routing, "costs_to", spy)
    for demand in (1, 2):  # two matrices on one network
        build_root_model(net, TrafficMatrix({(0, 5): demand, (0, 2): 1}))
    assert list(net.lengths_to) == expected
    assert calls.count(True) == net.n_vertices  # the table's Dijkstra runs only


def test_duplex_pairs_in_arc_order(diamond):
    net = build_network(
        [(0, 1, 1, 1, 1), (2, 0, 1, 1, 1), (1, 0, 1, 1, 1), (0, 2, 1, 1, 1)],
        duplex_mode=FULL_DUPLEX,
    )
    assert net.links == ((0, 2), (1, 3))
    assert diamond.links == ((0,), (1,), (2,), (3,))


@pytest.mark.parametrize("mode", [SIMPLEX, FULL_DUPLEX])
def test_solver_models_have_one_activation_column_per_link(monkeypatch, mode):
    net = build_network(
        [(0, 1, 2, 1, 2), (1, 0, 2, 1, 2), (1, 2, 1, 1, 2), (2, 1, 1, 1, 2),
         (0, 2, 1, 3, 2), (2, 0, 1, 3, 2)],
        duplex_mode=mode,
    )
    seen = []

    def spy(model, integer_columns, **hooks):
        seen.append((model, list(integer_columns)))
        return branch_and_bound(model, integer_columns, **hooks)

    monkeypatch.setattr(mcps, "branch_and_bound", spy)
    mcps.solve_mcps(net, Fraction(1, 2))
    m = MspndModel(net, TrafficMatrix({(0, 2): 2}), strengthening=False)
    t = build_toca_lp(net, Fraction(1, 2))
    for lp, activation in (
        (m.lp, (m.x_col, m.y_col)), (t.model, (t.x_col,)), (seen[0][0], (seen[0][1],))
    ):
        assert all(len(set(cols)) == len(net.links) for cols in activation)
        columns = set().union(*activation)
        assert not any(
            sense == EQ and len(coefs) > 1 and set(coefs) <= columns
            for coefs, sense in zip(lp.row_coefs, lp.senses)
        )


def test_full_duplex_requires_reverse():
    with pytest.raises(MissingReverseArc):
        build_network([(0, 1, 1, 1, 1)], duplex_mode=FULL_DUPLEX)


def test_full_duplex_length_harmonizes_to_min():
    net = build_network(
        [(0, 1, 2, 7, 1), (1, 0, 2, 3, 1)], duplex_mode=FULL_DUPLEX
    )
    assert net.arcs[0].length == 3
    assert net.arcs[1].length == 3


def test_full_duplex_rejects_capacity_mismatch():
    with pytest.raises(InconsistentDuplexArc):
        build_network([(0, 1, 2, 1, 1), (1, 0, 3, 1, 1)], duplex_mode=FULL_DUPLEX)
    with pytest.raises(InconsistentDuplexArc):
        build_network([(0, 1, 2, 1, 1), (1, 0, 2, 1, 4)], duplex_mode=FULL_DUPLEX)


def test_parameter_validation():
    with pytest.raises(NonPositiveParameter):
        build_network([(0, 1, 0, 1, 1)])
    with pytest.raises(NonPositiveParameter):
        build_network([(0, 1, 1, 0, 1)])
    with pytest.raises(NonPositiveParameter):
        build_network([(0, 1, 1, 1, 0)])
    with pytest.raises(NetworkError):
        build_network([(0, 0, 1, 1, 1)])
    with pytest.raises(NetworkError):
        build_network([])


@pytest.mark.parametrize("ccap, mu", [
    (1, 10**15), (Fraction(10**16), 1), (Fraction(10**15, 7), 7), (Fraction(10**999), 1),
    (1, float("inf")), (1, float("nan")),
])
def test_parameters_highs_cannot_take_are_rejected(ccap, mu):
    with pytest.raises(NetworkError, match="below 1e"):
        build_network([(0, 1, ccap, 1, mu)])


def test_mu_an_indicator_counted_as_zero_could_switch_on_is_rejected():
    # mu * y >= x with y = INT_TOL allows x = 1/2 at mu = 1 / (2 * INT_TOL)
    assert build_network([(0, 1, 1, 1, 499_999)]).arcs[0].mu == 499_999
    for mu in (500_000, 10**10):
        with pytest.raises(NetworkError, match="mu must be below 500000"):
            build_network([(0, 1, Fraction(1, mu), 1, mu)])


def test_a_ccap_highs_would_drop_is_rejected():
    # HiGHS drops a matrix entry of at most its small_matrix_value as zero
    assert build_network([(0, 1, 2e-9, 1, 1)]).arcs[0].ccap == Fraction(2e-9)
    for ccap in (1e-9, Fraction(1, 10**10), 2e-13):
        with pytest.raises(NetworkError, match="ccap must be above 1e-09"):
            build_network([(0, 1, ccap, 1, 1000)])


def test_named_vertices_first_appearance_order():
    net = build_network([("ams", "lon", 1, 1, 1), ("lon", "par", 1, 1, 1)])
    assert net.vertex_names == ("ams", "lon", "par")
    assert net.arcs[1].tail == 1 and net.arcs[1].head == 2


def test_full_activation_values(single_arc, diamond, overlap_gadget):
    assert full_activation(single_arc).counts == (5,)
    assert full_activation(single_arc).value == 5
    assert full_activation(diamond).value == 4
    assert full_activation(overlap_gadget).value == 14


def test_activation_bounds_checked(single_arc):
    Activation((5,)).validate(single_arc)
    with pytest.raises(ValueError):
        Activation((6,)).validate(single_arc)
    with pytest.raises(ValueError):
        Activation((-1,)).validate(single_arc)
    with pytest.raises(ValueError):
        Activation((1, 1)).validate(single_arc)


def test_activation_duplex_symmetry():
    net = build_network(
        [(0, 1, 1, 1, 2), (1, 0, 1, 1, 2)], duplex_mode=FULL_DUPLEX
    )
    Activation((2, 2)).validate(net)
    with pytest.raises(ValueError):
        Activation((2, 1)).validate(net)


def test_result_value_follows_activation():
    assert Result(Activation((2, 0, 1)), "optimal", 3.0).value == 3


def test_traffic_matrix_drops_zeros_and_rejects_bad_entries():
    t = TrafficMatrix({(0, 1): 3, (1, 2): 0})
    assert t.terminals == ((0, 1),)
    with pytest.raises(ValueError):
        TrafficMatrix({(0, 0): 1})
    with pytest.raises(ValueError):
        TrafficMatrix({(0, 1): -1})


def test_scale_traffic():
    t = TrafficMatrix({(0, 1): 3})
    assert scale_traffic(t, Fraction(1, 2)).demand(0, 1) == Fraction(3, 2)
    assert scale_traffic(t, 1) == t
    t2 = TrafficMatrix({(0, 1): 3, (2, 3): 1})
    scaled = scale_traffic(t2, Fraction(3, 10))
    assert scaled.demand(0, 1) == Fraction(9, 10)
    assert scaled.demand(2, 3) == Fraction(3, 10)


def test_scale_traffic_round_trips_exactly():
    t = TrafficMatrix({(0, 1): Fraction(7, 3), (1, 2): Fraction(5, 11)})
    assert scale_traffic(scale_traffic(t, Fraction(13, 9)), Fraction(9, 13)) == t
