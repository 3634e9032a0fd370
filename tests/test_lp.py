import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greente import lp, mspnd
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
from conftest import all_pairs_traffic, complete_digraph


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

    def clearSolver(self):
        pass

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


def _proves_infeasible(m, ray):
    """Reference bounded-Farkas check in exact arithmetic: a sign-feasible ray
    y with y.b + sum_j min(d_j * l_j, d_j * u_j) > 0, where d = -A^T y, leaves
    no feasible point.  Float roundoff of the wrong sign (<= 1e-9) is dropped,
    which keeps the check a proof."""
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
    for j, dj in enumerate(d):  # columns in these tests are boxed
        value += min(dj * Fraction(m.lower[j]), dj * Fraction(m.upper[j]))
    return value > 0


def _assert_mirror_matches(m):
    live = solve_lp(m, "float")
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
        for sol in (live, fresh, exact):
            assert _proves_infeasible(m, sol.dual)
        for sol in (live, fresh):  # float rays come scaled to max-norm 1
            assert max(abs(v) for v in sol.dual.values()) == 1


_small = st.integers(-3, 3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mirror_never_drifts_from_the_model(data):
    """Random boxed LPs grown step by step: after every column, row or bound
    change the live HiGHS model solves like a fresh copy and like exact mode."""
    m = LpModel()
    for _ in range(data.draw(st.integers(1, 3))):
        lb = data.draw(st.integers(-2, 1))
        m.add_column(obj=data.draw(_small), lb=lb, ub=lb + data.draw(st.integers(0, 3)))
    _assert_mirror_matches(m)
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["column", "row", "bounds"]))
        if op == "column":
            rows = []
            if m.n_rows:
                rows = data.draw(st.lists(st.integers(0, m.n_rows - 1), unique=True))
            lb = data.draw(st.integers(-2, 1))
            m.add_column(obj=data.draw(_small), lb=lb, ub=lb + data.draw(st.integers(0, 3)),
                         coefs={i: data.draw(_small) for i in rows})
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


def test_branch_and_price_solves_like_fresh_loads(monkeypatch):
    """Pricing adds columns and rows and branching moves bounds, yet every
    float solve of the live HiGHS model lands on the vertex a fresh load of
    the same model finds.  The LP-guided drop heuristic is off, since it
    closes K5 in about ten solves."""
    monkeypatch.setattr(mspnd, "_lp_drop", lambda model, routed, sol: None)
    solve_float = lp._solve_float
    solves = []

    def checked(model):
        live, fresh = solve_float(model), solve_float(_fresh_copy(model))
        assert live.status == fresh.status
        assert live.primal == pytest.approx(fresh.primal, abs=1e-9)
        solves.append(live)
        return live

    monkeypatch.setattr(lp, "_solve_float", checked)
    assert solve_mspnd(complete_digraph(5), all_pairs_traffic(5)).value == 5
    assert len(solves) > 30
