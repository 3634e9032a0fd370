import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from greente.bnb import branch_and_bound
from greente.lp import GE, LE, LpModel


def test_fractional_bound_rounds_up():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=5)
    m.add_row({x: 1}, GE, 2.5)
    res = branch_and_bound(m, [x])
    assert res.status == "optimal"
    assert round(res.incumbent.primal[x]) == 3


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("x_min, y_min, branched", [
    (Fraction(3, 10), Fraction(1, 2), "y"),  # y is the more fractional
    (Fraction(1, 2), Fraction(1, 2), "x"),  # a tie goes to the lower id
])
def test_branches_on_the_most_fractional_column(monkeypatch, mode, x_min, y_min, branched):
    """min x + y s.t. x >= x_min, y >= y_min over integers in [0, 1]: the
    root sits at (x_min, y_min), and the first child popped is the down
    branch of the column the rule picks."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    y = m.add_column(obj=1, lb=0, ub=1)
    m.add_row({x: 1}, GE, x_min)
    m.add_row({y: 1}, GE, y_min)
    calls = []
    real = LpModel.set_bounds

    def spy(self, col, lb, ub):
        calls.append((col, lb, ub))
        real(self, col, lb, ub)

    monkeypatch.setattr(LpModel, "set_bounds", spy)
    res = branch_and_bound(m, [y, x], mode=mode)
    assert res.status == "optimal" and float(res.incumbent.objective) == 2
    assert calls[0] == ({"x": x, "y": y}[branched], 0, 0)


def test_integral_relaxation_solves_at_root():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=5)
    m.add_row({x: 1}, GE, 2)
    res = branch_and_bound(m, [x])
    assert res.status == "optimal" and res.nodes == 1
    assert round(res.incumbent.primal[x]) == 2


def knapsack_model(values, weights, budget):
    m = LpModel()
    cols = [m.add_column(obj=-v, lb=0, ub=1) for v in values]
    m.add_row({c: w for c, w in zip(cols, weights)}, LE, budget)
    return m, cols


def test_knapsack_matches_enumeration():
    values, weights, budget = (6, 5, 4), (5, 4, 3), 7
    m, cols = knapsack_model(values, weights, budget)
    res = branch_and_bound(m, cols)
    best = min(
        -sum(v for v, take in zip(values, combo) if take)
        for combo in itertools.product((0, 1), repeat=3)
        if sum(w for w, take in zip(weights, combo) if take) <= budget
    )
    assert res.status == "optimal"
    assert float(res.incumbent.objective) == pytest.approx(best)


def _enumeration_optimum(model, cols):
    best = None
    ranges = [range(int(model.lower[c]), int(model.upper[c]) + 1) for c in cols]
    for combo in itertools.product(*ranges):
        feasible = True
        for i in range(model.n_rows):
            lhs = sum(float(model.row_coefs[i].get(c, 0)) * v for c, v in zip(cols, combo))
            rhs = float(model.rhs[i])
            sense = model.senses[i]
            if sense == GE and lhs < rhs - 1e-9:
                feasible = False
            if sense == LE and lhs > rhs + 1e-9:
                feasible = False
        if feasible:
            value = sum(float(model.objective[c]) * v for c, v in zip(cols, combo))
            if best is None or value < best:
                best = value
    return best


def test_random_integer_models_match_enumeration():
    rng = random.Random(77)
    solved = 0
    for _ in range(40):
        n = rng.randint(4, 8)
        m = LpModel()
        cols = [m.add_column(obj=rng.randint(-5, 5), lb=0, ub=rng.randint(1, 3)) for _ in range(n)]
        for _ in range(rng.randint(1, 4)):
            coefs = {c: rng.randint(-3, 3) for c in rng.sample(cols, rng.randint(1, n))}
            coefs = {c: v for c, v in coefs.items() if v}
            if coefs:
                m.add_row(coefs, rng.choice([GE, LE]), rng.randint(-4, 6))
        expected = _enumeration_optimum(m, cols)
        res = branch_and_bound(m, cols)
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert float(res.incumbent.objective) == pytest.approx(expected, abs=1e-6)
            solved += 1
    assert solved > 20


def test_bound_history_is_monotone():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(4, 7)
        m = LpModel()
        cols = [m.add_column(obj=rng.randint(1, 5), lb=0, ub=2) for _ in range(n)]
        m.add_row({c: rng.randint(1, 3) for c in cols}, GE, rng.randint(4, 9))
        res = branch_and_bound(m, cols)
        hist = res.bound_history
        assert all(a <= b + 1e-12 for a, b in zip(hist, hist[1:]))
        if res.status == "optimal":
            optimum = float(res.incumbent.objective)
            # an open node above the incumbent does not lift the bound past it
            assert all(b <= optimum + 1e-12 for b in hist)
            assert float(res.bound) == pytest.approx(optimum)


def test_time_limit_statuses():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=5)
    m.add_row({x: 1}, GE, 2.5)
    res = branch_and_bound(m, [x], deadline=time.perf_counter())
    assert res.status == "timeout" and res.incumbent is None
    res = branch_and_bound(m, [x], deadline=time.perf_counter(), initial_incumbent=(4, {x: 4}))
    assert res.status == "timeout"
    assert res.incumbent.objective == 4


def test_timeout_inside_a_node_keeps_the_node_open_and_restores_its_bounds():
    """min x + y s.t. 2x + 2y >= 5 (root 2.5, integer optimum 3): refine
    stalls past the deadline at the first child, so the re-solve after its
    row is the one that sees the deadline."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    y = m.add_column(obj=1, lb=0, ub=3)
    m.add_row({x: 2, y: 2}, GE, 5)
    original = [m.bounds(x), m.bounds(y)]
    stalled = []

    def refine(model, sol):
        if stalled or [model.bounds(x), model.bounds(y)] == original:
            return []
        time.sleep(0.3)
        stalled.append(model.add_row({x: 1}, GE, 0))  # redundant
        return stalled

    res = branch_and_bound(m, [x, y], deadline=time.perf_counter() + 0.2, refine=refine)
    assert stalled and res.status == "timeout" and res.incumbent is None
    assert math.isfinite(res.bound) and res.bound <= 3
    assert [m.bounds(x), m.bounds(y)] == original


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_unbounded_relaxation_raises(mode):
    """min x - y with y >= 0 unbounded above: no node has a finite bound."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    m.add_column(obj=-1, lb=0, ub=None)
    m.add_row({x: 1}, GE, 0.5)
    with pytest.raises(RuntimeError, match="unbounded"):
        branch_and_bound(m, [x], mode=mode)


def test_initial_incumbent_prunes_to_optimality():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=5)
    m.add_row({x: 1}, GE, 3)
    res = branch_and_bound(m, [x], initial_incumbent=(3, {x: 3}))
    assert res.status == "optimal"
    assert float(res.bound) == pytest.approx(3)


def test_bound_rounds_up_to_a_multiple_of_the_cost_step():
    """min 2x + 2y s.t. x + y >= 5.37 over integers: every value is even, so
    the root bound 10.74 rounds up to 12 and meets the incumbent at once,
    where rounding up to 11 would branch."""
    m = LpModel()
    x = m.add_column(obj=2, lb=0, ub=10)
    y = m.add_column(obj=2, lb=0, ub=10)
    m.add_row({x: 1, y: 1}, GE, 5.37)
    res = branch_and_bound(m, [x, y], initial_incumbent=(12, {x: 6, y: 0}))
    assert res.status == "optimal" and res.nodes == 1
    assert float(res.bound) == 12


def test_separation_callback_refines_to_exactness():
    # lazily add x + y >= 3 only when violated
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    y = m.add_column(obj=1, lb=0, ub=3)
    added = []

    def separate(model, sol):
        if added:
            return []
        if float(sol.primal[x]) + float(sol.primal[y]) < 3 - 1e-9:
            added.append(model.add_row({x: 1, y: 1}, GE, 3))
            return [added[-1]]
        return []

    res = branch_and_bound(m, [x, y], refine=separate)
    assert res.status == "optimal"
    assert float(res.incumbent.objective) == pytest.approx(3)


def _infeasible_until_priced(offer, heuristic=None):
    """min x s.t. x >= 2 with x <= 1: infeasible until ``price`` adds a column
    y (cost 3) into the row; with ``offer`` off, it never does."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    r = m.add_row({x: 1}, GE, 2)
    seen = []

    def price(model, sol):
        seen.append(sol)
        if offer and model.n_cols == 1:
            return [model.add_column(obj=3, lb=0, ub=5, coefs={r: 1})]
        return []

    return branch_and_bound(m, [x], refine=price, heuristic=heuristic), seen


def test_price_runs_on_an_infeasible_relaxation_and_restores_it():
    res, seen = _infeasible_until_priced(offer=True)
    assert seen[0].status == "infeasible" and seen[0].dual
    assert res.status == "optimal"
    assert float(res.incumbent.objective) == pytest.approx(4)


def test_infeasible_relaxation_with_nothing_to_price_is_pruned():
    res, seen = _infeasible_until_priced(offer=False)
    assert [sol.status for sol in seen] == ["infeasible"]
    assert res.status == "infeasible" and res.incumbent is None


def test_priced_continuous_cost_stops_integral_rounding():
    """min x s.t. x >= 1.7, x integer; price adds y (cost 1/2, at most 1) into
    the row.  The objective stops being integral once y is in: rounding the
    root bound 1.2 up to 2 would prune against the incumbent 2 and miss the
    optimum 1.35 (x = 1, y = 0.7)."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    r = m.add_row({x: 1}, GE, Fraction(17, 10))

    def price(model, sol):
        if model.n_cols == 1:
            return [model.add_column(obj=Fraction(1, 2), lb=0, ub=1, coefs={r: 1})]
        return []

    res = branch_and_bound(m, [x], refine=price, initial_incumbent=(2, {x: 2}))
    assert res.status == "optimal"
    assert float(res.incumbent.objective) == pytest.approx(1.35)


def _half_model():
    """min x + y s.t. 2x + 2y >= 3 over integers in [0, 2]: the root LP is
    1.5, so without help the search branches before it finds the optimum 2."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=2)
    y = m.add_column(obj=1, lb=0, ub=2)
    m.add_row({x: 2, y: 2}, GE, 3)
    return m, x, y


def test_heuristic_at_the_root_closes_the_search_in_one_node():
    m, x, y = _half_model()
    assert branch_and_bound(m, [x, y]).nodes > 1
    res = branch_and_bound(m, [x, y], heuristic=lambda sol: (2, {x: 1, y: 1}))
    assert res.status == "optimal" and res.nodes == 1
    assert res.incumbent.primal == {x: 1, y: 1}


@pytest.mark.parametrize("offered", [2, 3])
def test_heuristic_value_no_better_than_the_incumbent_is_ignored(offered):
    m, x, y = _half_model()
    calls = []

    def heuristic(sol):
        calls.append(sol.status)
        return offered, {x: 1, y: 1}

    res = branch_and_bound(m, [x, y], heuristic=heuristic, initial_incumbent=(2, {x: 2, y: 0}))
    assert calls and res.status == "optimal"
    assert res.incumbent.primal == {x: 2, y: 0}


def test_heuristic_never_sees_an_infeasible_relaxation():
    statuses = []

    def heuristic(sol):
        statuses.append(sol.status)
        return None

    res, seen = _infeasible_until_priced(offer=True, heuristic=heuristic)
    assert seen[0].status == "infeasible" and res.status == "optimal"
    assert statuses and set(statuses) == {"optimal"}
