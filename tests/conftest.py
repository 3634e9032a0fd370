"""Shared fixtures: tiny benchmark networks and random instance generators."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from greente import (
    FULL_DUPLEX,
    SIMPLEX,
    TrafficMatrix,
    build_network,
    full_activation,
    mlu,
    scale_traffic,
    spr_route,
)
from greente.routing import Disconnected


@pytest.fixture
def single_arc():
    """One arc s->t: ccap 1, len 1, mu 5."""
    return build_network([(0, 1, 1, 1, 5)])


@pytest.fixture
def diamond():
    """s->a->t and s->b->t, unit capacity/length, mu 1.

    Arcs: 0 = s->a, 1 = s->b, 2 = a->t, 3 = b->t.
    """
    return build_network([
        (0, 1, 1, 1, 1),
        (0, 2, 1, 1, 1),
        (1, 3, 1, 1, 1),
        (2, 3, 1, 1, 1),
    ])


@pytest.fixture
def triangle():
    """Direct arc s->v (ccap 1, mu 3) against a fat two-hop detour s->u->v.

    Arcs: 0 = s->v (d), 1 = s->u (e1), 2 = u->v (e2).
    """
    return build_network([
        (0, 2, 1, 1, 3),
        (0, 1, 3, 1, 1),
        (1, 2, 3, 1, 1),
    ])


OVERLAP_SPECS = [
    (0, 2, 1, 1, 1),    # 0: s->v, the short s-v route
    (0, 1, 1, 1, 1),    # 1: s->b
    (1, 2, 1, 1, 1),    # 2: b->v, second s-v route
    (2, 3, 2, 1, 1),    # 3: v->d, shared tail towards t
    (3, 4, 2, 1, 1),    # 4: d->e
    (4, 5, 2, 1, 1),    # 5: e->t
    (0, 6, 2, 1, 1),    # 6..13: eight-arc top detour s -> ... -> t
    (6, 7, 2, 1, 1),
    (7, 8, 2, 1, 1),
    (8, 9, 2, 1, 1),
    (9, 10, 2, 1, 1),
    (10, 11, 2, 1, 1),
    (11, 12, 2, 1, 1),
    (12, 5, 2, 1, 1),
]


@pytest.fixture
def overlap_gadget():
    """13 vertices / 14 arcs: two overlapping s-v routes feed a shared tail to
    t, plus a long disjoint detour; the LP gap closes only with subpath rows.

    s=0, b=1, v=2, t=5; demands go s->t (2 units) and s->v (1 unit).
    """
    return build_network(OVERLAP_SPECS)


@pytest.fixture
def overlap_traffic():
    return TrafficMatrix({(0, 5): 2, (0, 2): 1})


def complete_digraph(n: int, ccap=1000, mu: int = 1):
    specs = [(u, v, ccap, 1, mu) for u in range(n) for v in range(n) if u != v]
    return build_network(specs)


def all_pairs_traffic(n: int, demand=Fraction(1, 100)) -> TrafficMatrix:
    return TrafficMatrix({(u, v): demand for u in range(n) for v in range(n) if u != v})


def random_net(rng: random.Random, n_max=6, arcs_max=8, mu_max=2, duplex_prob=0.3):
    """Random loop-free digraph; roughly a third come out full-duplex.

    Short lengths and mixed small capacities keep alternative routes in play,
    which is where the solvers actually have decisions to make.
    """
    while True:
        n = rng.randint(3, n_max)
        duplex = rng.random() < duplex_prob
        pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
        rng.shuffle(pairs)
        specs = []
        budget = rng.randint(3, arcs_max)
        for (u, v) in pairs:
            if len(specs) >= budget:
                break
            ccap = rng.choice([1, 2, 2, 3])
            length = rng.randint(1, 2)
            mu = rng.randint(1, mu_max)
            if duplex:
                if len(specs) + 2 > arcs_max:
                    break
                specs.append((u, v, ccap, length, mu))
                specs.append((v, u, ccap, length, mu))
            else:
                specs.append((u, v, ccap, length, mu))
                if rng.random() < 0.6 and len(specs) < budget:
                    specs.append((v, u, rng.choice([1, 2, 3]), rng.randint(1, 2), rng.randint(1, mu_max)))
        if not specs:
            continue
        return build_network(specs, FULL_DUPLEX if duplex else SIMPLEX)


@st.composite
def digraphs(draw, n_max=6, arcs_max=12, mu_max=2, len_max=1):
    """Hypothesis strategy: a simplex digraph on 2..n_max vertices with any
    arc set (isolated vertices included), small ccap, length and mu."""
    n = draw(st.integers(2, n_max))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=arcs_max, unique=True))
    specs = [
        (u, v, draw(st.integers(1, 3)), draw(st.integers(1, len_max)), draw(st.integers(1, mu_max)))
        for u, v in chosen
    ]
    return build_network(specs, SIMPLEX, vertices=range(n))


@st.composite
def duplex_digraphs(draw, n_max=6, links_max=6, mu_max=2, ccaps=st.integers(1, 3)):
    """Hypothesis strategy: a full-duplex network on 2..n_max vertices with
    any link set, each link's ccap drawn from ``ccaps``."""
    n = draw(st.integers(2, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=links_max, unique=True))
    specs = []
    for u, v in chosen:
        ccap, mu = draw(ccaps), draw(st.integers(1, mu_max))
        specs += [(u, v, ccap, 1, mu), (v, u, ccap, 1, mu)]
    return build_network(specs, FULL_DUPLEX, vertices=range(n))


def random_routable_instance(rng: random.Random, n_max=6, arcs_max=8, mu_max=2, pairs_max=3):
    """Network plus traffic that routes in the full network at utilization <= 1.

    Utilization is usually pinned to exactly 1 so capacities bind somewhere.
    """
    while True:
        net = random_net(rng, n_max, arcs_max, mu_max)
        vertices = list(range(net.n_vertices))
        candidates = [(s, t) for s in vertices for t in vertices if s != t]
        rng.shuffle(candidates)
        demands = {}
        for (s, t) in candidates[: rng.randint(1, pairs_max)]:
            demands[(s, t)] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if not demands:
            continue
        traffic = TrafficMatrix(demands)
        try:
            spr_route(net, full_activation(net), traffic)
        except Disconnected:
            continue
        util = mlu(net, full_activation(net), traffic)
        if util > 0:
            safety = rng.choice([Fraction(1)] * 3 + [Fraction(3, 4), Fraction(1, 2)])
            traffic = scale_traffic(traffic, safety / util)
        return net, traffic


def enumerate_paths(net, s: int, t: int):
    """All elementary s-t paths by DFS in arc-id order (test oracle)."""
    paths = []
    stack = [(s, (), 1 << s)]
    while stack:
        v, arcs, mask = stack.pop()
        if v == t:
            paths.append(arcs)
            continue
        for arc in reversed(net.out_arcs[v]):
            if (mask >> arc.head) & 1:
                continue
            stack.append((arc.head, arcs + (arc.id,), mask | (1 << arc.head)))
    return paths
