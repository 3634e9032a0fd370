import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greente import lp, mspnd, toca
from greente.lp import (
    EQ,
    GE,
    LE,
    BadReference,
    LpModel,
    NumericalFailure,
    solve_lp,
)
from greente.mspnd import solve_mspnd
from conftest import all_pairs_traffic, complete_digraph, random_net


def test_lower_bounded_variable_and_dual():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=10)
    r = m.add_row({x: 1}, GE, 3)
    for mode in ("exact", "float"):
        sol = solve_lp(m, mode)
        assert sol.status == "optimal"
        assert float(sol.primal[x]) == pytest.approx(3)
        assert float(sol.dual[r]) == pytest.approx(1)
        assert float(sol.objective) == pytest.approx(3)


def test_box_constrained_sum():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    y = m.add_column(obj=1, lb=0, ub=1)
    m.add_row({x: 1, y: 1}, GE, 2)
    for mode in ("exact", "float"):
        assert float(solve_lp(m, mode).objective) == pytest.approx(2)


def test_infeasible_detected():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    m.add_row({x: 1}, GE, 5)
    for mode in ("exact", "float"):
        assert solve_lp(m, mode).status == "infeasible"


def test_unbounded_detected():
    m = LpModel()
    m.add_column(obj=-1, lb=0, ub=None)
    for mode in ("exact", "float"):
        assert solve_lp(m, mode).status == "unbounded"


def test_column_and_row_ids_are_dense():
    m = LpModel()
    assert m.add_column(obj=0, lb=0, ub=1) == 0
    assert m.add_column(obj=0, lb=0, ub=1) == 1
    assert m.add_row({0: 1, 1: 1}, LE, 1) == 0
    m2 = LpModel()
    assert m2.add_column() == 0


def test_added_row_is_respected_by_later_solve():
    m = LpModel()
    x = m.add_column(obj=-1, lb=0, ub=5)
    assert float(solve_lp(m, "float").objective) == pytest.approx(-5)
    m.add_row({x: 1}, LE, 2)
    assert float(solve_lp(m, "float").objective) == pytest.approx(-2)


def test_new_column_can_enter_existing_rows():
    m = LpModel()
    x = m.add_column(obj=2, lb=0, ub=None)
    r = m.add_row({x: 1}, GE, 4)
    y = m.add_column(obj=1, lb=0, ub=None, coefs={r: 1})
    sol = solve_lp(m, "exact")
    assert sol.primal[y] == 4 and sol.primal[x] == 0
    assert sol.objective == 4


def test_bad_references_rejected():
    m = LpModel()
    with pytest.raises(BadReference):
        m.add_row({0: 1}, GE, 1)
    m.add_column()
    with pytest.raises(BadReference):
        m.add_column(coefs={5: 1})


def test_exact_mode_returns_fractions():
    m = LpModel()
    x = m.add_column(obj=Fraction(1, 3), lb=0, ub=None)
    y = m.add_column(obj=1, lb=0, ub=None)
    m.add_row({x: 1, y: 2}, EQ, Fraction(7, 2))
    sol = solve_lp(m, "exact")
    assert sol.primal[x] == Fraction(7, 2)
    assert sol.objective == Fraction(7, 6)


def test_exact_strong_duality_holds():
    rng = random.Random(3)
    for _ in range(40):
        m = _random_model(rng)
        sol = solve_lp(m, "exact")
        if sol.status != "optimal":
            continue
        dual_obj = sum(sol.dual[i] * Fraction(m.rhs[i]) for i in range(m.n_rows))
        reduced = {j: Fraction(m.objective[j]) for j in range(m.n_cols)}
        for i in range(m.n_rows):
            for j, a in m.row_coefs[i].items():
                reduced[j] -= sol.dual[i] * Fraction(a)
        for j, rc in reduced.items():
            if rc > 0:
                dual_obj += rc * Fraction(m.lower[j])
            elif rc < 0:
                assert m.upper[j] is not None
                dual_obj += rc * Fraction(m.upper[j])
        assert dual_obj == sol.objective


def _random_model(rng):
    n = rng.randint(1, 6)
    m = LpModel()
    for _ in range(n):
        lb = rng.choice([0, 0, -2])
        ub = rng.choice([None, lb + rng.randint(0, 4), 5])
        if ub is not None and ub < lb:
            ub = lb
        m.add_column(obj=Fraction(rng.randint(-4, 4)), lb=lb, ub=ub)
    for _ in range(rng.randint(0, 6)):
        coefs = {
            j: Fraction(rng.randint(-3, 3))
            for j in rng.sample(range(n), rng.randint(1, n))
        }
        coefs = {j: v for j, v in coefs.items() if v != 0}
        if coefs:
            m.add_row(coefs, rng.choice([GE, LE, EQ]), Fraction(rng.randint(-5, 5)))
    return m


def test_backends_agree_on_random_models():
    rng = random.Random(17)
    for _ in range(120):
        m = _random_model(rng)
        exact = solve_lp(m, "exact")
        approx = solve_lp(m, "float")
        assert exact.status == approx.status
        if exact.status == "optimal":
            assert float(exact.objective) == pytest.approx(approx.objective, abs=1e-7)


def test_solves_are_deterministic():
    rng = random.Random(23)
    m = _random_model(rng)
    a = solve_lp(m, "exact")
    b = solve_lp(m, "exact")
    assert a.primal == b.primal and a.dual == b.dual


def test_float_statuses_and_dual_signs_through_one_mirror():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=10)
    y = m.add_column(obj=3, lb=0, ub=10)
    z = m.add_column(obj=1, lb=0, ub=10)
    ge = m.add_row({x: 1, y: 1}, GE, 4)
    le = m.add_row({x: 1}, LE, 1)
    eq = m.add_row({y: 1, z: -1}, EQ, 0)
    sol = solve_lp(m, "float")
    mirror = m._mirror
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(13)
    assert sol.dual[ge] == pytest.approx(4)
    assert sol.dual[le] == pytest.approx(-3)
    assert sol.dual[eq] == pytest.approx(-1)
    assert sol.dual == pytest.approx(solve_lp(m, "exact").dual)
    m.set_bounds(y, 0, 1)
    assert solve_lp(m, "float").status == "infeasible"
    m.set_bounds(y, 0, 10)
    assert solve_lp(m, "float").objective == pytest.approx(13)
    w = m.add_column(obj=-1, lb=0, ub=None)
    assert solve_lp(m, "float").status == "unbounded"
    m.set_bounds(w, None, 5)
    assert solve_lp(m, "float").objective == pytest.approx(8)
    assert m._mirror is mirror


class _NoRayHighs:
    """Just enough of a HiGHS object for ``lp.linprog``: infeasible, no usable ray."""

    def __init__(self, ray):
        self.ray = ray

    def run(self):
        return lp._highs.HighsStatus.kOk

    def getModelStatus(self):
        return lp._highs.HighsModelStatus.kInfeasible

    def getDualRay(self):
        return lp._highs.HighsStatus.kOk, bool(self.ray), self.ray


@pytest.mark.parametrize("ray", [[], [0.0]])
def test_infeasible_without_a_dual_ray_raises_numerical_failure(monkeypatch, ray):
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    m.add_row({x: 1}, GE, 5)
    real = lp.linprog
    monkeypatch.setattr(lp, "linprog", lambda highs: real(_NoRayHighs(ray)))
    with pytest.raises(NumericalFailure, match="infeasibility not proven"):
        solve_lp(m, "float")


@pytest.mark.parametrize("sense, rhs, ray", [(GE, 2, 1), (LE, -1, -1), (EQ, -3, -1), (EQ, 1, 1)])
def test_an_empty_infeasible_row_is_its_own_ray(sense, rhs, ray):
    # HiGHS finds no ray here: the one column is fixed and the one row is empty
    m = LpModel()
    m.add_column(obj=0, lb=0, ub=0)
    m.add_row({}, sense, rhs)
    for mode in ("float", "exact"):
        sol = solve_lp(m, mode)
        assert sol.status == "infeasible"
        assert sol.dual == {0: ray} and _proves_infeasible(m, sol.dual)


@pytest.mark.parametrize("ub, rhs, ray", [
    (10, 5, {0: 1.0}),     # feasible model: the bound 5 - 10 is not positive
    (10, -5, {0: -1.0}),   # bound 5 > 0, but a >=-row with a negative entry
    (None, 5, {0: 1.0}),   # d_x = -1 meets x's infinite upper bound
])
def test_infeasible_ray_that_fails_the_audit_raises(monkeypatch, ub, rhs, ray):
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=ub)
    m.add_row({x: 1}, GE, rhs)
    monkeypatch.setattr(lp, "linprog", lambda highs: lp.LpSolution("infeasible", dual=ray))
    with pytest.raises(NumericalFailure, match="infeasibility not proven"):
        solve_lp(m, "float")


def test_tiny_reduced_cost_on_a_large_finite_bound_still_counts(monkeypatch):
    # the ray's bound is 1 only if d_x = -1e-8 is dropped; with x's upper
    # bound it is 1 - 1e-8 * 1e10 = -99, and x = 1e8 is feasible
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1e10)
    m.add_row({x: 1e-8}, GE, 1)
    monkeypatch.setattr(lp, "linprog", lambda highs: lp.LpSolution("infeasible", dual={0: 1.0}))
    with pytest.raises(NumericalFailure, match="infeasibility not proven"):
        solve_lp(m, "float")


def test_float_ray_is_scaled_to_max_norm_one():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    y = m.add_column(obj=1, lb=0, ub=1)
    m.add_row({x: 1000, y: 1000}, GE, 5000)  # HiGHS's own ray here is 0.001
    sol = solve_lp(m, "float")
    assert sol.status == "infeasible"
    assert sol.dual == {0: 1.0}


def test_coefficient_highs_rejects_raises_numerical_failure():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    assert solve_lp(m, "float").status == "optimal"
    m.add_row({x: 1e20}, GE, 1)
    with pytest.raises(NumericalFailure, match="addRows"):
        solve_lp(m, "float")


def test_highs_rejects_matrix_entries_from_highs_max_coef_up():
    assert lp._highs._Highs().getOptionValue("large_matrix_value")[1] == lp.HIGHS_MAX_COEF
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    m.add_row({x: lp.HIGHS_MAX_COEF / 2}, GE, 1)
    assert solve_lp(m, "float").status == "optimal"
    m.add_row({x: lp.HIGHS_MAX_COEF}, GE, 1)
    with pytest.raises(NumericalFailure, match="addRows"):
        solve_lp(m, "float")


def test_highs_min_coef_is_highs_small_matrix_value():
    assert lp._highs._Highs().getOptionValue("small_matrix_value")[1] == lp.HIGHS_MIN_COEF


def test_exact_mode_raises_where_highs_drops_a_coefficient():
    # HiGHS drops the 1e-12 (below HIGHS_MIN_COEF) and finds x = 1; with it,
    # y = 1e12 meets the row and the optimum is 0.  The basis certificate fails.
    m = LpModel()
    x = m.add_column(obj=1, lb=0)
    y = m.add_column(obj=0, lb=0, ub=1e13)
    m.add_row({x: 1, y: 1e-12}, GE, 1)
    for presolve in (True, False):
        with pytest.raises(NumericalFailure, match="certificate failed"):
            solve_lp(m, "exact", presolve=presolve)


def test_crossed_bounds_are_rejected_and_leave_the_model_as_it_was():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=1)
    m.add_row({x: 1}, GE, 1)
    assert solve_lp(m, "float").status == "optimal"  # the live model exists
    with pytest.raises(ValueError, match="inconsistent bounds"):
        m.set_bounds(x, 2, 1)
    with pytest.raises(ValueError, match="inconsistent bounds"):
        m.add_column(obj=1, lb=2, ub=1)
    assert m.n_cols == 1 and m.bounds(x) == (0, 1)
    for mode in ("exact", "float"):
        sol = solve_lp(m, mode)
        assert sol.status == "optimal"
        assert float(sol.primal[x]) == pytest.approx(1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_are_rejected(bad):
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=3)
    r = m.add_row({x: 1}, GE, 1)
    with pytest.raises(ValueError, match="non-finite"):
        m.add_row({x: bad}, GE, 1)
    with pytest.raises(ValueError, match="non-finite"):
        m.add_column(obj=1, lb=0, ub=1, coefs={r: bad})
    with pytest.raises(ValueError, match="non-finite"):
        m.add_column(obj=bad, lb=0, ub=1)
    assert (m.n_cols, m.n_rows, m.row_coefs) == (1, 1, [{x: 1}])
    for mode in ("exact", "float"):
        assert float(solve_lp(m, mode).objective) == pytest.approx(1)


def _fresh_copy(m):
    copy = LpModel()
    for j in range(m.n_cols):
        copy.add_column(obj=m.objective[j], lb=m.lower[j], ub=m.upper[j])
    for i in range(m.n_rows):
        copy.add_row(m.row_coefs[i], m.senses[i], m.rhs[i])
    return copy


def _proves_infeasible(m, ray, roundoff=0):
    """Reference bounded-Farkas check in exact arithmetic: a sign-feasible ray
    y with y.b + sum_j min(d_j * l_j, d_j * u_j) > 0, where d = -A^T y, leaves
    no feasible point.  Float roundoff of the wrong sign (<= 1e-9) is dropped,
    which keeps the check a proof.  A d_j that meets an infinite bound must
    be 0; with ``roundoff``, a float ray's d_j up to it is forgiven there, as
    the float audit forgives it."""
    y = {}
    for i, v in ray.items():
        wrong = (m.senses[i] == GE and v < 0) or (m.senses[i] == LE and v > 0)
        assert not wrong or abs(v) <= 1e-9
        if v and not wrong:
            y[i] = Fraction(v)
    d = [Fraction(0)] * m.n_cols
    for i, v in y.items():
        for j, a in m.row_coefs[i].items():
            d[j] -= v * Fraction(a)
    value = sum((v * Fraction(m.rhs[i]) for i, v in y.items()), Fraction(0))
    for j, dj in enumerate(d):
        bound = m.lower[j] if dj > 0 else m.upper[j]
        if bound is not None:
            value += dj * Fraction(bound)
        elif abs(dj) > roundoff:
            return False
    return value > 0


def _assert_mirror_matches(m):
    live = solve_lp(m, "float")
    if live.status == "optimal":  # the audit's value is _dual_bound's, to the last bit
        audited = m._mirror.dual_objective(m, live.dual)
        assert audited == lp._dual_bound(m, live.dual, m.objective, exact=False)[0]
    fresh = solve_lp(_fresh_copy(m), "float")
    exact = solve_lp(m, "exact")
    assert live.status == fresh.status == exact.status
    # the same vertex, whatever order the model grew in
    assert live.primal == pytest.approx(fresh.primal, abs=1e-9)
    if exact.status == "optimal":
        tol = 1e-6 * (1 + abs(float(exact.objective)))
        assert abs(live.objective - float(exact.objective)) <= tol
        assert abs(fresh.objective - float(exact.objective)) <= tol
    elif exact.status == "infeasible":
        assert _proves_infeasible(m, exact.dual)
        for sol in (live, fresh):
            assert _proves_infeasible(m, sol.dual, roundoff=lp.ROUNDOFF_TOL)
        for sol in (live, fresh):  # float rays come scaled to max-norm 1
            assert max(abs(v) for v in sol.dual.values()) == 1


_small = st.integers(-3, 3)


@st.composite
def _column(draw):
    """(obj, lb, ub): a box, possibly below 0; fixed at 0; or open on one or
    both sides, with a cost that keeps the LP bounded below."""
    kind = draw(st.sampled_from(["box", "zero", "no-ub", "no-lb", "free"]))
    lb = draw(st.integers(-2, 1))
    ub = lb + draw(st.integers(0, 3))
    if kind == "box":
        return draw(_small), lb, ub
    if kind == "zero":
        return draw(_small), 0, 0
    if kind == "no-ub":
        return draw(st.integers(0, 3)), lb, None
    if kind == "no-lb":
        return draw(st.integers(-3, 0)), None, ub
    return 0, None, None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mirror_never_drifts_from_the_model(data):
    """Random LPs grown step by step: after every column, row or bound change
    the live HiGHS model solves like a fresh copy and like exact mode, and the
    float audit's dual objective is _dual_bound's."""
    m = LpModel()
    for _ in range(data.draw(st.integers(1, 3))):
        obj, lb, ub = data.draw(_column())
        m.add_column(obj=obj, lb=lb, ub=ub)
    _assert_mirror_matches(m)
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["column", "row", "bounds", "bounded-later"]))
        if op in ("column", "bounded-later"):
            rows = []
            if m.n_rows:
                rows = data.draw(st.lists(st.integers(0, m.n_rows - 1), unique=True))
            coefs = {i: data.draw(_small) for i in rows}
            if op == "column":
                obj, lb, ub = data.draw(_column())
                m.add_column(obj=obj, lb=lb, ub=ub, coefs=coefs)
            else:  # a column with no finite bound gains one after its rows exist, then loses it
                j = m.add_column(obj=data.draw(st.integers(0, 3)), lb=0, ub=None, coefs=coefs)
                _assert_mirror_matches(m)
                m.set_bounds(j, data.draw(st.integers(-2, 0)), data.draw(st.integers(1, 3)))
                _assert_mirror_matches(m)
                m.set_bounds(j, 0, None)
        elif op == "row":
            cols = data.draw(st.lists(st.integers(0, m.n_cols - 1), min_size=1, unique=True))
            m.add_row({j: data.draw(_small) for j in cols},
                      data.draw(st.sampled_from([LE, GE, EQ])), data.draw(st.integers(-4, 4)))
        else:  # fix one column, often at a value no row allows, then restore it
            j = data.draw(st.integers(0, m.n_cols - 1))
            saved = m.bounds(j)
            v = data.draw(st.integers(-6, 6))
            m.set_bounds(j, v, v)
            _assert_mirror_matches(m)
            m.set_bounds(j, *saved)
        _assert_mirror_matches(m)


@pytest.mark.parametrize("later", [False, True])
def test_float_audit_catches_duals_that_overshoot_through_a_bounded_column(monkeypatch, later):
    """x >= 1 with x in [2, 10] at cost 1: the optimum is 2.  The row dual -1
    gives x the reduced cost 2, so the dual objective is -1 + 2 * 2 = 3 > 2;
    only x's entry in the row and its lower bound carry the excess.  x is
    bounded from creation, or only after a first solve has synced its row."""
    m = LpModel()
    x = m.add_column(obj=1, lb=0 if later else 2, ub=None if later else 10)
    m.add_row({x: 1}, GE, 1)
    if later:
        assert solve_lp(m, "float").objective == pytest.approx(1)
        m.set_bounds(x, 2, 10)
    overshoot = lp.LpSolution("optimal", {x: 2.0}, {0: -1.0}, 2.0)
    monkeypatch.setattr(lp, "linprog", lambda highs: overshoot)
    with pytest.raises(NumericalFailure, match="weak duality violated: dual 3.0 > primal 2.0"):
        solve_lp(m, "float")


def test_branch_and_price_solves_like_fresh_loads(monkeypatch):
    """Pricing adds columns and rows and branching moves bounds, yet every
    float solve of the live HiGHS model lands on the vertex a fresh load of
    the same model finds, with the same presolve setting.  The LP-guided drop
    heuristic is off, since it closes K5 in about ten solves.  A directed
    5-cycle loads each of its arcs with 1, so ccap 9/10 rules that optimum
    out and keeps the search long."""
    monkeypatch.setattr(mspnd, "_lp_drop", lambda model, routed, sol: None)
    solve_float = lp._solve_float
    solves = []

    def checked(model, warm=False, presolve=True):
        live = solve_float(model, warm=warm, presolve=presolve)
        fresh = solve_float(_fresh_copy(model), presolve=presolve)
        assert live.status == fresh.status
        assert live.primal == pytest.approx(fresh.primal, abs=1e-9)
        solves.append(presolve)
        return live

    monkeypatch.setattr(lp, "_solve_float", checked)
    net, traffic = complete_digraph(5, ccap=Fraction(9, 10)), all_pairs_traffic(5, Fraction(1, 10))
    assert solve_mspnd(net, traffic).value == 6
    assert len(solves) > 30
    assert not any(solves)  # every node LP skipped presolve


def test_presolve_is_set_per_solve_not_per_model():
    """Node solves without presolve and plain solves with it alternate on one
    live model, with bounds moving in between, and each lands where a fresh
    load with the same setting does.  On this LP the two settings reach
    different vertices, so a setting kept from the solve before would show."""
    net = random_net(random.Random(1), n_max=6, arcs_max=12, mu_max=3, duplex_prob=0.5)
    t = toca.build_toca_lp(net, Fraction(3, 10))
    first = {}
    for a, *_ in net.links:
        for presolve in (False, True, False):
            live = solve_lp(t.model, presolve=presolve)
            fresh = solve_lp(_fresh_copy(t.model), presolve=presolve)
            assert live.status == fresh.status == "optimal"
            assert live.primal == pytest.approx(fresh.primal, abs=1e-9)
            first.setdefault(presolve, live.primal)
        col = t.x_col[a]
        fix = math.ceil(live.primal[col] - lp.INT_TOL)
        t.model.set_bounds(col, fix, fix)
    assert first[True] != pytest.approx(first[False], abs=1e-6)


@pytest.mark.parametrize("duplex_prob", [0, 1])
def test_warm_resolve_after_bound_fixes_matches_a_cold_solve(duplex_prob):
    """A chain of ceiling fixes, as in ALG-MCF++: every warm re-solve reaches
    the optimal value a cold solve of a fresh load reaches."""
    rng = random.Random(5 + duplex_prob)
    net = random_net(rng, n_max=6, arcs_max=12, mu_max=3, duplex_prob=duplex_prob)
    t = toca.build_toca_lp(net, Fraction(3, 10))
    sol = solve_lp(t.model)
    values = {sol.objective}
    for a, *_ in net.links:
        col = t.x_col[a]
        fix = math.ceil(sol.primal[col] - lp.INT_TOL)
        t.model.set_bounds(col, fix, fix)
        sol = solve_lp(t.model, warm=True)
        cold = solve_lp(_fresh_copy(t.model))
        assert sol.status == cold.status == "optimal"
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
        values.add(sol.objective)
    assert len(values) > 2  # the fixes moved the optimum


def test_warm_start_is_float_only():
    m = LpModel()
    x = m.add_column(obj=1, lb=0, ub=10)
    m.add_row({x: 1}, GE, 3)
    with pytest.raises(ValueError, match="float"):
        solve_lp(m, "exact", warm=True)


# Each import test runs in a fresh interpreter: which modules an import loads
# depends on what the process has imported before.
def _run_fresh(code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_highs_without_scipy_optimize():
    _run_fresh("""
import sys
import greente
assert "scipy.optimize" not in sys.modules
assert "numpy" in sys.modules
""")


def test_scipy_optimize_still_imports_after_greente():
    _run_fresh("""
import greente
import scipy.optimize
res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], method="highs")
assert res.fun == 1.0, res
from scipy.optimize._highspy import _core
assert _core is greente.lp._highs
""")


def test_greente_reuses_a_loaded_highs_extension():
    _run_fresh("""
import scipy.optimize
from scipy.optimize._highspy import _core
import greente
assert greente.lp._highs is _core
""")


def test_highs_falls_back_to_the_package_import():
    _run_fresh("""
import importlib.machinery
import sys
importlib.machinery.EXTENSION_SUFFIXES.clear()  # the direct file lookup finds nothing
from greente.lp import GE, LpModel, solve_lp
assert "scipy.optimize" in sys.modules
m = LpModel()
x = m.add_column(obj=1, lb=0, ub=10)
m.add_row({x: 1}, GE, 3)
assert solve_lp(m, "float").objective == 3
""")
