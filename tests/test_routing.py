import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greente import (
    Activation,
    TrafficMatrix,
    full_activation,
    is_spr_routable,
    k_shortest_paths,
    mlu,
    shortest_path_unique,
    spr_route,
)
from greente.routing import Disconnected, Path, costs_to, make_path, ordered_paths
from conftest import digraphs, enumerate_paths, random_net, random_routable_instance


def test_order_compares_length_first():
    p = Path(0, 1, (0,), 3)
    q = Path(0, 1, (1, 2), 5)
    assert p.order_key() < q.order_key()
    assert not q.order_key() < p.order_key()


def test_order_ties_break_on_hops_then_ids():
    assert Path(0, 1, (4,), 2).order_key() < Path(0, 1, (0, 1), 2).order_key()
    assert Path(0, 1, (0, 3), 2).order_key() < Path(0, 1, (1, 2), 2).order_key()


def test_shortest_path_single_arc(single_arc):
    p = shortest_path_unique(single_arc, full_activation(single_arc), 0, 1)
    assert p.arcs == (0,) and p.length == 1


def test_shortest_path_prefers_lower_arc_ids(diamond):
    p = shortest_path_unique(diamond, full_activation(diamond), 0, 3)
    assert p.arcs == (0, 2)


def test_shortest_path_absent_when_deactivated(single_arc):
    assert shortest_path_unique(single_arc, Activation((0,)), 0, 1) is None


def test_k_shortest_paths_fixtures(single_arc, diamond, overlap_gadget):
    assert [p.arcs for p in k_shortest_paths(single_arc, 0, 1, 5)] == [(0,)]
    assert [p.arcs for p in k_shortest_paths(diamond, 0, 3, 5)] == [(0, 2), (1, 3)]
    hops = [p.hops for p in k_shortest_paths(overlap_gadget, 0, 5, 3)]
    assert hops == [4, 5, 8]


def test_k_shortest_matches_full_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        net = random_net(rng, n_max=5, arcs_max=8)
        s, t = 0, net.n_vertices - 1
        expect = sorted(
            (make_path(net, arcs) for arcs in enumerate_paths(net, s, t)),
            key=Path.order_key,
        )
        got = k_shortest_paths(net, s, t, len(expect) + 3)
        assert [p.arcs for p in got] == [p.arcs for p in expect]
        keys = [p.order_key() for p in got]
        assert keys == sorted(set(keys))  # strictly increasing, no duplicates


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ordered_paths_yields_every_path_below_the_bound_in_order(data):
    """The whole sequence: exactly the elementary s-t paths that cost less
    than the bound, in (length, cost, hops, arc ids) order."""
    net = data.draw(digraphs(n_max=5, arcs_max=10, len_max=2))
    vertex = st.integers(0, net.n_vertices - 1)
    s, t = data.draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    costs = [data.draw(st.fractions(0, 2, max_denominator=4)) for _ in net.arcs]
    bound = data.draw(st.one_of(st.fractions(0, 5, max_denominator=4), st.just(inf)))
    len_to_t = costs_to(net, [a.length for a in net.arcs], t)
    got = list(ordered_paths(net, s, t, len_to_t, costs, bound))

    def key(arcs):
        return make_path(net, arcs).length, sum(costs[a] for a in arcs), len(arcs), arcs

    cheap = [p for p in enumerate_paths(net, s, t) if sum(costs[a] for a in p) < bound]
    assert got == sorted(cheap, key=key)


def test_spr_route_loads(single_arc, triangle):
    rr = spr_route(single_arc, Activation((3,)), TrafficMatrix({(0, 1): 3}))
    assert rr.load.get(0, 0) == 3
    t = TrafficMatrix({(0, 2): 3})
    rr = spr_route(triangle, full_activation(triangle), t)
    assert rr.path_of[(0, 2)].arcs == (0,)
    assert rr.load.get(0, 0) == 3 and rr.load.get(1, 0) == 0
    rr = spr_route(triangle, Activation((0, 1, 1)), t)
    assert rr.path_of[(0, 2)].arcs == (1, 2)
    assert rr.load.get(1, 0) == rr.load.get(2, 0) == 3


def test_spr_route_raises_on_disconnection(single_arc):
    with pytest.raises(Disconnected):
        spr_route(single_arc, Activation((0,)), TrafficMatrix({(0, 1): 1}))


def test_is_spr_routable(single_arc, triangle):
    t3 = TrafficMatrix({(0, 1): 3})
    assert is_spr_routable(single_arc, Activation((3,)), t3)
    assert not is_spr_routable(single_arc, Activation((2,)), t3)
    assert is_spr_routable(triangle, Activation((3, 0, 0)), TrafficMatrix({(0, 2): 3}))


def test_mlu_values(single_arc, triangle):
    assert mlu(single_arc, Activation((5,)), TrafficMatrix({(0, 1): 3})) == Fraction(3, 5)
    assert mlu(single_arc, full_activation(single_arc), TrafficMatrix({})) == 0
    assert mlu(triangle, Activation((0, 1, 1)), TrafficMatrix({(0, 2): 3})) == 1
    assert mlu(single_arc, Activation((0,)), TrafficMatrix({(0, 1): 1})) == inf


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_shortest_path_prefix_and_suffix_property(data):
    """Every prefix and suffix of an order-minimal path is order-minimal
    between its own endpoints, under any activation."""
    net = data.draw(digraphs(n_max=6, arcs_max=10, len_max=2))
    act = Activation(tuple(data.draw(st.integers(0, a.mu)) for a in net.arcs))
    for s in range(net.n_vertices):
        for t in range(net.n_vertices):
            if s == t:
                continue
            p = shortest_path_unique(net, act, s, t)
            if p is None:
                continue
            verts = [s] + [net.arcs[a].head for a in p.arcs]
            for i in range(1, len(verts) - 1):
                prefix = shortest_path_unique(net, act, s, verts[i])
                assert prefix is not None and prefix.arcs == p.arcs[:i]
                suffix = shortest_path_unique(net, act, verts[i], t)
                assert suffix is not None and suffix.arcs == p.arcs[i:]


def test_route_load_matches_path_decomposition():
    rng = random.Random(12)
    for _ in range(25):
        net, traffic = random_routable_instance(rng)
        rr = spr_route(net, full_activation(net), traffic)
        recomputed = {}
        for pair, path in rr.path_of.items():
            for aid in path.arcs:
                recomputed[aid] = recomputed.get(aid, Fraction(0)) + traffic.demand(*pair)
        assert recomputed == rr.load


def test_routing_is_deterministic():
    rng = random.Random(21)
    net, traffic = random_routable_instance(rng)
    a = spr_route(net, full_activation(net), traffic)
    b = spr_route(net, full_activation(net), traffic)
    assert {k: p.arcs for k, p in a.path_of.items()} == {k: p.arcs for k, p in b.path_of.items()}
