import random
from fractions import Fraction

import pytest

from greente import FULL_DUPLEX, Activation, build_network, lp, toca
from greente.lp import EQ, GE, LpModel, LpSolution, solve_lp
from greente.toca import (
    InfeasibleAfterFix,
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


def reference_toca_lp(net, rho):
    """The utilization LP built column by column: each flow column enters
    its rows as it is added, after the rows of its source exist."""
    rho = Fraction(rho)
    model = LpModel()
    x_col = [0] * net.n_arcs
    for link in net.links:
        col = model.add_column(obj=len(link), lb=0, ub=net.arcs[link[0]].mu)
        for a in link:
            x_col[a] = col
    cap_row = {a.id: model.add_row({x_col[a.id]: a.ccap}, GE, 0) for a in net.arcs}
    for source, out in enumerate(net.out_arcs):
        if not out:
            continue
        supply = [Fraction(0)] * net.n_vertices
        for com in out:
            demand = rho * com.fcap
            supply[source] += demand
            supply[com.head] -= demand
        cons_row = [model.add_row({}, EQ, b) for b in supply]
        for edge in net.arcs:
            model.add_column(
                obj=0, lb=0, ub=None,
                coefs={cons_row[edge.tail]: 1, cons_row[edge.head]: -1, cap_row[edge.id]: -1},
            )
    return model, x_col


def _duplex_ring(rng, n, chords):
    """Full-duplex ring on n vertices plus ``chords`` random chords (at most
    n(n-3)/2 exist), with random ccap and mu."""
    links = {(v, (v + 1) % n) for v in range(n)}
    while len(links) < n + chords:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in links:
            links.add((u, v))
    specs = []
    for u, v in sorted(links):
        ccap, mu = rng.choice([1, 2, Fraction(5, 2), 4]), rng.randint(1, 4)
        specs += [(u, v, ccap, 1, mu), (v, u, ccap, 1, mu)]
    return build_network(specs, FULL_DUPLEX)


def _assert_same_toca_lp(net, rho):
    t = build_toca_lp(net, rho)
    model, x_col = reference_toca_lp(net, rho)
    assert t.x_col == x_col
    for name in ("objective", "lower", "upper", "senses", "rhs"):
        assert getattr(t.model, name) == getattr(model, name), name
    in_order = [list(c.items()) for c in model.row_coefs]
    assert [list(c.items()) for c in t.model.row_coefs] == in_order


def test_build_matches_the_column_by_column_reference(single_arc, diamond, triangle,
                                                       overlap_gadget):
    for net in (single_arc, diamond, triangle, overlap_gadget):
        for rho in (Fraction(1, 2), Fraction(3, 10)):
            _assert_same_toca_lp(net, rho)
    rng = random.Random(53)
    for n, chords in ((4, 1), (6, 2), (9, 3), (20, 10)):
        _assert_same_toca_lp(_duplex_ring(rng, n, chords), Fraction(7, 10))
    for _ in range(10):
        _assert_same_toca_lp(random_net(rng, n_max=6, arcs_max=10, mu_max=3), Fraction(1, 5))


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


# ---------------------------------------------------------------------------
# alg_mcf hands its solved LP on to the next alg_mcf_pp on the same (net, rho)
# ---------------------------------------------------------------------------

@pytest.fixture
def lp_calls(monkeypatch):
    """Counts of TOCA model builds and of cold and warm HiGHS runs (a cold run
    starts from a fresh load, which has no valid basis), from an empty hand-off."""
    monkeypatch.setattr(toca, "_handoff", None)
    calls = {"build": 0, "cold": 0, "warm": 0}
    build, linprog = toca.build_toca_lp, lp.linprog

    def build_spy(net, rho):
        calls["build"] += 1
        return build(net, rho)

    def linprog_spy(highs):
        calls["warm" if highs.getBasis().valid else "cold"] += 1
        return linprog(highs)

    monkeypatch.setattr(toca, "build_toca_lp", build_spy)
    monkeypatch.setattr(lp, "linprog", linprog_spy)
    return calls


def _handoff_nets(single_arc, diamond, triangle, overlap_gadget):
    rng = random.Random(61)
    yield from (single_arc, diamond, triangle, overlap_gadget)
    for n, chords in ((4, 1), (6, 2), (9, 3), (14, 5), (20, 10)):
        yield _duplex_ring(rng, n, chords)
    for _ in range(8):
        yield random_net(rng, n_max=6, arcs_max=10, mu_max=3, duplex_prob=0.5)


def test_mcf_pp_after_mcf_gives_the_counts_of_mcf_pp_alone(
        monkeypatch, single_arc, diamond, triangle, overlap_gadget):
    for net in _handoff_nets(single_arc, diamond, triangle, overlap_gadget):
        for rho in (Fraction(3, 10), Fraction(7, 10), 0.5, 0.3):
            monkeypatch.setattr(toca, "_handoff", None)
            alone = alg_mcf_pp(net, rho)
            rounded = alg_mcf(net, rho)
            assert toca._handoff is not None
            after = alg_mcf_pp(net, rho)
            assert toca._handoff is None
            assert after.counts == alone.counts, (net, rho)
            assert after.value <= rounded.value


def test_the_pair_builds_and_cold_solves_once(lp_calls):
    net = _duplex_ring(random.Random(67), 8, 3)
    rho = Fraction(1, 2)
    alg_mcf(net, rho)
    assert lp_calls == {"build": 1, "cold": 1, "warm": 0}
    alg_mcf_pp(net, rho)
    assert lp_calls["build"] == 1 and lp_calls["cold"] == 1
    assert lp_calls["warm"] > 0


def test_each_pass_of_the_sweep_builds_once_per_rho(lp_calls):
    """The toca-sweep call order, twice: no pass gains from the one before it."""
    net = _duplex_ring(random.Random(71), 8, 3)
    passes = []
    for _ in range(2):
        before = dict(lp_calls)
        for rho in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
            alg_mcf(net, rho)
            alg_mcf_pp(net, rho)
        passes.append({k: lp_calls[k] - before[k] for k in lp_calls})
    assert passes[0]["build"] == passes[0]["cold"] == 3
    assert passes[1] == passes[0]


def _builds(calls, *steps):
    before = calls["build"]
    for alg, net, rho in steps:
        alg(net, rho)
    return calls["build"] - before


def test_the_handoff_is_taken_once_and_only_by_the_same_net_and_rho(lp_calls):
    specs = [(0, 1, 1, 1, 2), (1, 2, 1, 1, 2), (0, 2, 1, 1, 2)]
    net, twin = build_network(specs), build_network(specs)
    assert net == twin and net is not twin
    half = Fraction(1, 2)
    assert _builds(lp_calls, (alg_mcf, net, half), (alg_mcf_pp, net, half)) == 1
    assert _builds(lp_calls, (alg_mcf_pp, net, half)) == 1  # the first took the entry
    assert _builds(lp_calls, (alg_mcf, net, half), (alg_mcf_pp, twin, half)) == 2
    assert _builds(lp_calls, (alg_mcf, net, 0.3), (alg_mcf_pp, net, Fraction(3, 10))) == 2
    assert _builds(lp_calls, (alg_mcf, net, 0.3), (alg_mcf_pp, net, 0.3)) == 1
    assert _builds(lp_calls, (alg_mcf, net, half), (alg_mcf, net, half),
                   (alg_mcf_pp, net, half)) == 2
    assert toca._handoff is None


def test_a_failed_fixing_chain_leaves_no_handoff(monkeypatch):
    net = _duplex_ring(random.Random(67), 8, 3)
    rho = Fraction(1, 2)
    monkeypatch.setattr(toca, "_handoff", None)
    real = toca.solve_lp

    def solve(model, *args, warm=False, **kwargs):
        return LpSolution("infeasible") if warm else real(model, *args, **kwargs)

    monkeypatch.setattr(toca, "solve_lp", solve)
    alg_mcf(net, rho)
    assert toca._handoff is not None
    with pytest.raises(InfeasibleAfterFix):
        alg_mcf_pp(net, rho)
    assert toca._handoff is None
