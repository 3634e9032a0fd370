import random
from fractions import Fraction

import pytest

from greente import Activation, build_network, lp
from greente.lp import EQ, GE, LpModel, solve_lp
from greente.toca import (
    alg_mcf,
    alg_mcf_pp,
    build_toca_lp,
    supports_scaled_traffic,
)
from conftest import random_net


def test_lp_single_arc(single_arc):
    t = build_toca_lp(single_arc, Fraction(1, 2))
    sol = solve_lp(t.model, "exact")
    assert sol.status == "optimal"
    assert sol.primal[t.x_col[0]] == Fraction(5, 2)  # demand rho * fcap = 2.5


def test_lp_diamond_each_arc_carries_itself(diamond):
    t = build_toca_lp(diamond, Fraction(1, 2))
    sol = solve_lp(t.model, "exact")
    assert sol.objective == 2
    for a in diamond.arcs:
        assert sol.primal[t.x_col[a.id]] == Fraction(1, 2)


def test_lp_scales_with_rho(single_arc):
    t = build_toca_lp(single_arc, Fraction(1, 10))
    sol = solve_lp(t.model, "exact")
    assert sol.primal[t.x_col[0]] == Fraction(1, 2)  # 5 * rho


def _per_arc_lp_value(net, rho):
    """Reference LP value with one commodity per arc: each arc's own scaled
    capacity rho * fcap(a) travels from its tail to its head."""
    model = LpModel()
    x_col = [0] * net.n_arcs
    for link in net.links:
        col = model.add_column(obj=len(link), lb=0, ub=net.arcs[link[0]].mu)
        for a in link:
            x_col[a] = col
    cap_row = {a.id: model.add_row({x_col[a.id]: a.ccap}, GE, 0) for a in net.arcs}
    for com in net.arcs:
        demand = rho * com.fcap
        cons_row = {}
        for v in range(net.n_vertices):
            b = demand if v == com.tail else (-demand if v == com.head else Fraction(0))
            cons_row[v] = model.add_row({}, EQ, b)
        for edge in net.arcs:
            model.add_column(
                obj=0, lb=0, ub=None,
                coefs={cons_row[edge.tail]: 1, cons_row[edge.head]: -1, cap_row[edge.id]: -1},
            )
    sol = solve_lp(model, "exact")
    assert sol.status == "optimal"
    return sol.objective


@pytest.mark.parametrize("duplex_prob", [0, 1])
def test_one_commodity_per_source_keeps_the_per_arc_lp_value(duplex_prob):
    rng = random.Random(41 + duplex_prob)
    for _ in range(6):
        net = random_net(rng, n_max=5, arcs_max=7, mu_max=3, duplex_prob=duplex_prob)
        sources = sum(1 for out in net.out_arcs if out)
        for rho in (Fraction(1, 5), Fraction(1, 2), Fraction(7, 10)):
            t = build_toca_lp(net, rho)
            assert t.model.n_cols == len(net.links) + net.n_arcs * sources
            assert t.model.n_rows == net.n_arcs + net.n_vertices * sources
            sol = solve_lp(t.model, "exact")
            assert sol.status == "optimal"
            assert sol.objective == _per_arc_lp_value(net, rho)


def test_rho_validation(single_arc):
    with pytest.raises(ValueError):
        build_toca_lp(single_arc, 1)


def test_round_up_fixture_values(single_arc, diamond):
    assert alg_mcf(single_arc, Fraction(1, 2)).counts == (3,)
    assert alg_mcf(diamond, Fraction(1, 2)).counts == (1, 1, 1, 1)
    assert alg_mcf(single_arc, Fraction(9999, 10000)).counts == (5,)


def test_iterative_fixing_fixture_values(single_arc, diamond):
    assert alg_mcf_pp(single_arc, Fraction(1, 2)).counts == (3,)
    assert alg_mcf_pp(diamond, Fraction(1, 2)).value == 4


def test_integral_lp_means_no_extra_work(single_arc):
    # rho chosen so the fractional optimum is already integral
    rho = Fraction(2, 5)  # demand 2.0 on a ccap-1 arc
    assert alg_mcf(single_arc, rho).counts == alg_mcf_pp(single_arc, rho).counts == (2,)


def test_scaled_traffic_audit_rejects_an_asymmetric_duplex_activation():
    net = build_network([(0, 1, 1, 1, 2), (1, 0, 1, 1, 2)], duplex_mode="full-duplex")
    with pytest.raises(ValueError):
        supports_scaled_traffic(net, Fraction(1, 2), Activation((2, 1)))


def test_outputs_support_scaled_traffic_and_ordering():
    rng = random.Random(19)
    for _ in range(20):
        net = random_net(rng, n_max=5, arcs_max=8, mu_max=3)
        rho = Fraction(rng.choice([3, 5, 7]), 10)
        rounded = alg_mcf(net, rho)
        fixed = alg_mcf_pp(net, rho)
        assert fixed.value <= rounded.value
        for a in net.arcs:
            assert 0 <= fixed.counts[a.id] <= a.mu
        assert supports_scaled_traffic(net, rho, rounded)
        assert supports_scaled_traffic(net, rho, fixed)
        if net.duplex_mode == "full-duplex":
            for a in net.arcs:
                assert fixed.counts[a.id] == fixed.counts[net.link_pair[a.id]]


@pytest.mark.parametrize("alg", [alg_mcf, alg_mcf_pp])
def test_activation_lps_solve_with_presolve(monkeypatch, alg):
    """Both algorithms round the LP vertex, and on this net HiGHS reaches
    another vertex without presolve; unlike branch-and-bound's node solves,
    theirs keep it."""
    real, settings = lp.linprog, []

    def spy(highs):
        settings.append(highs.getOptionValue("presolve")[1])
        return real(highs)

    monkeypatch.setattr(lp, "linprog", spy)
    net = random_net(random.Random(1), n_max=6, arcs_max=12, mu_max=3, duplex_prob=0.5)
    alg(net, Fraction(3, 10))
    assert settings and set(settings) == {"on"}


def test_deterministic_tie_breaking():
    net = build_network(
        [(0, 1, 1, 1, 2), (1, 2, 1, 1, 2), (0, 2, 1, 1, 2)]
    )
    rho = Fraction(1, 2)
    assert alg_mcf_pp(net, rho).counts == alg_mcf_pp(net, rho).counts


def test_oblivious_to_any_traffic_matrix():
    # the activation is a function of (topology, rho, mu) only: traffic never
    # enters the computation, so any permutation of demands leaves it fixed
    rng = random.Random(29)
    net = random_net(rng, n_max=5, arcs_max=8)
    rho = Fraction(1, 2)
    first = alg_mcf(net, rho)
    again = alg_mcf(net, rho)
    assert first.counts == again.counts


def brute_force_oblivious_value(net, rho):
    """Smallest integral activation that still embeds every arc's scaled
    capacity as a simultaneous flow (tiny instances only)."""
    import itertools

    best = None
    for combo in itertools.product(*(range(net.arcs[link[0]].mu + 1) for link in net.links)):
        counts = [0] * net.n_arcs
        for link, chi in zip(net.links, combo):
            for a in link:
                counts[a] = chi
        if best is not None and sum(counts) >= best:
            continue
        if supports_scaled_traffic(net, rho, Activation(tuple(counts))):
            best = sum(counts)
    return best


def test_round_up_respects_the_approximation_ratio():
    rng = random.Random(71)
    for _ in range(10):
        net = random_net(rng, n_max=4, arcs_max=5, mu_max=2)
        rho = Fraction(rng.choice([3, 5, 7]), 10)
        mu_min = min(a.mu for a in net.arcs)
        ratio = max(Fraction(1, 1) / (rho * mu_min), Fraction(2))
        optimum = brute_force_oblivious_value(net, rho)
        value = alg_mcf(net, rho).value
        assert optimum is not None
        assert value <= ratio * optimum
        assert alg_mcf_pp(net, rho).value <= value
