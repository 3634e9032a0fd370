"""LP substrate: row/column models solved to optimality with duals.

Two interchangeable backends sit behind one model type:

* ``exact`` -- a bounded-variable two-phase revised simplex over rationals
  (gmpy2.mpq when available).  Deterministic, exact duals, meant for small
  fixtures where values like 17/2 must come out exactly.
* ``float`` -- HiGHS dual simplex for larger models.  Each model keeps one
  live HiGHS instance (scipy's bundled ``_highspy``), loaded on its first
  float solve.  Later solves push only what changed since the last one --
  new columns, new rows, changed bounds -- and re-solve cold, with presolve,
  so every solve runs the same algorithm on the same data.

Dual sign convention: a >=-row of a minimization has a nonnegative dual, a
<=-row a nonpositive one.  An infeasible solve carries a Farkas ray in
``dual``, in the same convention.  Every solve is audited -- weak duality at
an optimum, a proof of infeasibility from the ray -- or raises NumericalFailure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from scipy.optimize._highspy import _core as _highs

try:
    from gmpy2 import mpq as _Q
except ImportError:  # gmpy2 is the optional "fast" extra
    _Q = Fraction

LE, GE, EQ = "<=", ">=", "="

INT_TOL = 1e-6  # a value within INT_TOL of an integer counts as integral


def frac_dist(v) -> float:
    """Distance from ``v`` to the nearest integer."""
    return abs(float(v) - round(float(v)))


class NumericalFailure(RuntimeError):
    pass


class BadReference(ValueError):
    pass


def _check_bounds(lb, ub, col) -> None:
    if lb is not None and ub is not None and lb > ub:
        raise ValueError(f"inconsistent bounds [{lb},{ub}] on column {col}")


def _check_finite(kind, index, coefs) -> None:
    for v in coefs:  # ints and rationals are finite; only a float can be nan or inf
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"non-finite coefficient {v} in {kind} {index}")


@dataclass
class LpModel:
    """Minimization LP built incrementally from columns and rows."""

    objective: list = field(default_factory=list)
    lower: list = field(default_factory=list)
    upper: list = field(default_factory=list)  # None = +inf
    row_coefs: list = field(default_factory=list)  # dict col -> coef
    senses: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    _mirror: _HighsMirror | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_cols(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_column(self, obj=0, lb=0, ub=None, coefs: Mapping | None = None) -> int:
        """New column; ``coefs`` maps existing row ids to coefficients."""
        j = self.n_cols
        _check_bounds(lb, ub, j)
        kept = {}
        for i, v in (coefs or {}).items():
            if not 0 <= i < self.n_rows:
                raise BadReference(f"row {i} does not exist")
            if v != 0:
                kept[i] = v
        _check_finite("column", j, [obj, *kept.values()])
        self.objective.append(obj)
        self.lower.append(lb)
        self.upper.append(ub)
        for i, v in kept.items():
            self.row_coefs[i][j] = v
        if self._mirror is not None:
            self._mirror.col_coefs[j] = kept
        return j

    def add_row(self, coefs: Mapping, sense: str, rhs) -> int:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        i = self.n_rows
        clean = {}
        for j, v in coefs.items():
            if not 0 <= j < self.n_cols:
                raise BadReference(f"column {j} does not exist")
            if v != 0:
                clean[j] = v
        _check_finite("row", i, clean.values())
        self.row_coefs.append(clean)
        self.senses.append(sense)
        self.rhs.append(rhs)
        return i

    def set_bounds(self, col: int, lb, ub) -> None:
        if not 0 <= col < self.n_cols:
            raise BadReference(f"column {col} does not exist")
        _check_bounds(lb, ub, col)
        self.lower[col] = lb
        self.upper[col] = ub
        if self._mirror is not None:
            self._mirror.dirty.add(col)

    def bounds(self, col: int):
        return self.lower[col], self.upper[col]


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    primal: dict[int, object] = field(default_factory=dict)
    dual: dict[int, object] = field(default_factory=dict)  # row duals; a Farkas ray if infeasible
    objective: object = None


# ---------------------------------------------------------------------------
# exact backend: bounded-variable two-phase revised simplex
# ---------------------------------------------------------------------------

_BLAND_AFTER = 400


class _ExactSimplex:
    """Dense-inverse revised simplex over exact rationals.

    Columns = structurals, then one slack per row, then one artificial per
    row.  Phase 1 minimizes the artificial sum from the all-artificial basis;
    phase 2 restores true costs with artificials fixed to zero.  Dantzig
    pricing with a Bland fallback guarantees termination.
    """

    def __init__(self, model: LpModel):
        n, m = model.n_cols, model.n_rows
        self.n, self.m = n, m
        self.total = n + 2 * m
        q = lambda v: _Q(v) if not isinstance(v, float) else _Q(Fraction(v))
        self.cost = [q(c) for c in model.objective] + [_Q(0)] * (2 * m)
        self.lb: list = [None if v is None else q(v) for v in model.lower]
        self.ub: list = [None if v is None else q(v) for v in model.upper]
        self.b = [q(v) for v in model.rhs]
        # column-sparse matrix: structural columns from the row dicts
        cols: list[list[tuple[int, object]]] = [[] for _ in range(self.total)]
        for i in range(m):
            for j, v in model.row_coefs[i].items():
                cols[j].append((i, q(v)))
        for i, sense in enumerate(model.senses):
            sj = n + i
            cols[sj] = [(i, _Q(1))]
            if sense == LE:
                self.lb.append(_Q(0)); self.ub.append(None)
            elif sense == GE:
                self.lb.append(None); self.ub.append(_Q(0))
            else:
                self.lb.append(_Q(0)); self.ub.append(_Q(0))
        self.art0 = n + m
        for i in range(m):
            cols[self.art0 + i] = [(i, _Q(1))]  # sign fixed in solve()
            self.lb.append(_Q(0)); self.ub.append(None)
        self.cols = cols

    def solve(self) -> tuple[str, list, list, object]:
        n, m = self.n, self.m
        # nonbasic start: every non-artificial column at a finite bound
        self.status = []
        self.value = []
        for j in range(self.art0):
            lo, hi = self.lb[j], self.ub[j]
            if lo is not None:
                self.status.append("L"); self.value.append(lo)
            elif hi is not None:
                self.status.append("U"); self.value.append(hi)
            else:
                self.status.append("F"); self.value.append(_Q(0))
        resid = list(self.b)
        for j in range(self.art0):
            v = self.value[j]
            if v != 0:
                for i, a in self.cols[j]:
                    resid[i] -= a * v
        # artificial basis with signs matching the residuals
        self.basis = []
        self.xb = []
        self.binv = [[_Q(0)] * m for _ in range(m)]
        for i in range(m):
            sigma = _Q(1) if resid[i] >= 0 else _Q(-1)
            self.cols[self.art0 + i] = [(i, sigma)]
            self.basis.append(self.art0 + i)
            self.xb.append(abs(resid[i]))
            self.binv[i][i] = sigma
            self.status.append("B"); self.value.append(abs(resid[i]))
        self.in_basis = [False] * self.total
        for j in self.basis:
            self.in_basis[j] = True

        phase1 = [_Q(0)] * self.art0 + [_Q(1)] * m
        res = self._iterate(phase1, phase=1)
        if res == "unbounded":  # pragma: no cover - phase 1 is bounded below
            raise NumericalFailure("phase 1 reported unbounded")
        if sum((self.xb[i] for i in range(m) if self.basis[i] >= self.art0), _Q(0)) > 0:
            return "infeasible", [], self._duals(phase1), None
        for i in range(m):  # artificials pinned at zero for phase 2
            self.ub[self.art0 + i] = _Q(0)
        res = self._iterate(self.cost, phase=2)
        if res == "unbounded":
            return "unbounded", [], [], None
        primal = [self._col_value(j) for j in range(n)]
        y = self._duals(self.cost)
        objective = sum((self.cost[j] * primal[j] for j in range(n)), _Q(0))
        return "optimal", primal, y, objective

    def _col_value(self, j):
        if self.in_basis[j]:
            return self.xb[self.basis.index(j)]
        return self.value[j]

    def _duals(self, cost):
        m = self.m
        y = [_Q(0)] * m
        for r in range(m):
            cb = cost[self.basis[r]]
            if cb != 0:
                row = self.binv[r]
                for i in range(m):
                    if row[i] != 0:
                        y[i] += cb * row[i]
        return y

    def _iterate(self, cost, phase: int) -> str:
        m = self.m
        iters = 0
        while True:
            iters += 1
            if iters > 200_000:
                raise NumericalFailure("simplex iteration limit exceeded")
            bland = iters > _BLAND_AFTER
            if phase == 1 and all(
                self.xb[i] == 0 or self.basis[i] < self.art0 for i in range(m)
            ):
                return "optimal"
            y = self._duals(cost)
            enter, direction, best = -1, 0, _Q(0)
            for j in range(self.total):
                if self.in_basis[j]:
                    continue
                lo, hi = self.lb[j], self.ub[j]
                if lo is not None and hi is not None and lo == hi:
                    continue
                rc = cost[j]
                for i, a in self.cols[j]:
                    rc -= y[i] * a
                st = self.status[j]
                if st == "L" and rc < 0:
                    cand, d = -rc, 1
                elif st == "U" and rc > 0:
                    cand, d = rc, -1
                elif st == "F" and rc != 0:
                    cand, d = abs(rc), (1 if rc < 0 else -1)
                else:
                    continue
                if bland:
                    enter, direction = j, d
                    break
                if cand > best:
                    best, enter, direction = cand, j, d
            if enter < 0:
                return "optimal"
            # direction of basic change: x_B -= sigma * d * t
            dvec = [_Q(0)] * m
            for i, a in self.cols[enter]:
                if a != 0:
                    for r in range(m):
                        brv = self.binv[r][i]
                        if brv != 0:
                            dvec[r] += a * brv
            sigma = direction
            lo_e, hi_e = self.lb[enter], self.ub[enter]
            span = None
            if lo_e is not None and hi_e is not None:
                span = hi_e - lo_e
            t_best, blocker, leave_to = span, -1, ""
            for r in range(m):
                g = -sigma * dvec[r]
                if g > 0:
                    hb = self.ub[self.basis[r]]
                    if hb is None:
                        continue
                    lim = (hb - self.xb[r]) / g
                    side = "U"
                elif g < 0:
                    lb_ = self.lb[self.basis[r]]
                    if lb_ is None:
                        continue
                    lim = (self.xb[r] - lb_) / (-g)
                    side = "L"
                else:
                    continue
                if (
                    t_best is None
                    or lim < t_best
                    or (lim == t_best and (blocker < 0 or self.basis[r] < self.basis[blocker]))
                ):
                    t_best, blocker, leave_to = lim, r, side
            if t_best is None:
                return "unbounded"
            if t_best > 0:
                for r in range(m):
                    if dvec[r] != 0:
                        self.xb[r] -= sigma * dvec[r] * t_best
                self.value[enter] = self.value[enter] + sigma * t_best
            if blocker < 0:  # bound flip: entering hit its other bound
                self.status[enter] = "U" if self.status[enter] == "L" else "L"
                continue
            leaving = self.basis[blocker]
            self.status[leaving] = leave_to
            self.value[leaving] = self.lb[leaving] if leave_to == "L" else self.ub[leaving]
            self.in_basis[leaving] = False
            piv = dvec[blocker]
            prow = self.binv[blocker]
            inv_piv = _Q(1) / piv
            self.binv[blocker] = [v * inv_piv for v in prow]
            prow = self.binv[blocker]
            for r in range(m):
                if r != blocker and dvec[r] != 0:
                    f = dvec[r]
                    row = self.binv[r]
                    for i in range(m):
                        if prow[i] != 0:
                            row[i] -= f * prow[i]
            self.basis[blocker] = enter
            self.xb[blocker] = self.value[enter]
            self.in_basis[enter] = True
            self.status[enter] = "B"


def _to_fraction(v) -> Fraction:
    return Fraction(v.numerator, v.denominator) if not isinstance(v, Fraction) else v


def _solve_exact(model: LpModel) -> LpSolution:
    status, primal, y, obj = _ExactSimplex(model).solve()
    if status == "unbounded":
        return LpSolution(status)
    primal_f = {j: _to_fraction(v) for j, v in enumerate(primal)}
    dual_f = {i: _to_fraction(v) for i, v in enumerate(y)}
    sol = LpSolution(status, primal_f, dual_f, None if obj is None else _to_fraction(obj))
    _audit(model, sol, exact=True)
    return sol


# ---------------------------------------------------------------------------
# float backend: one live HiGHS model per LpModel
# ---------------------------------------------------------------------------

_INF = _highs.kHighsInf
_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}


def _col_bounds(model: LpModel, cols) -> tuple[list, list]:
    return (
        [-_INF if model.lower[j] is None else float(model.lower[j]) for j in cols],
        [_INF if model.upper[j] is None else float(model.upper[j]) for j in cols],
    )


def _check(status, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise NumericalFailure(f"LP solver failed: HiGHS {what} returned an error")


class _HighsMirror:
    """A HiGHS copy of an LpModel, brought up to date by deltas.

    ``n_cols``/``n_rows`` count what HiGHS holds.  Columns added since the
    last sync carry their coefficients in already-mirrored rows in
    ``col_coefs``; their entries in newer rows travel with those rows.
    ``dirty`` holds the columns whose bounds changed.  HiGHS ends up storing
    the matrix exactly as a fresh load of the model would, so a solve does
    not depend on the order in which the model grew.
    """

    def __init__(self):
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "on")
        self.n_cols = 0
        self.n_rows = 0
        self.col_coefs: dict[int, dict] = {}
        self.dirty: set[int] = set()

    def sync(self, model: LpModel) -> None:
        highs, old_rows = self.highs, self.n_rows
        new_cols = range(self.n_cols, model.n_cols)
        if new_cols:
            starts, index, value = [], [], []
            for j in new_cols:
                starts.append(len(index))
                for i, v in sorted(self.col_coefs.get(j, {}).items()):  # row order
                    if i < old_rows:
                        index.append(i)
                        value.append(float(v))
            _check(highs.addCols(
                len(new_cols),
                [float(model.objective[j]) for j in new_cols],
                *_col_bounds(model, new_cols),
                len(index), starts, index, value,
            ), "addCols")
        new_rows = range(old_rows, model.n_rows)
        if new_rows:
            lower, upper, starts, index, value = [], [], [], [], []
            for i in new_rows:
                rhs, sense = float(model.rhs[i]), model.senses[i]
                lower.append(-_INF if sense == LE else rhs)
                upper.append(_INF if sense == GE else rhs)
                starts.append(len(index))
                for j, v in model.row_coefs[i].items():
                    index.append(j)
                    value.append(float(v))
            _check(highs.addRows(len(new_rows), lower, upper, len(index), starts, index, value),
                   "addRows")
        if self.dirty:
            cols = sorted(self.dirty)
            _check(highs.changeColsBounds(len(cols), cols, *_col_bounds(model, cols)),
                   "changeColsBounds")
        self.n_cols, self.n_rows = model.n_cols, model.n_rows
        self.col_coefs.clear()
        self.dirty.clear()


def _solve_float(model: LpModel) -> LpSolution:
    if model._mirror is None:
        model._mirror = _HighsMirror()
    model._mirror.sync(model)
    sol = linprog(model._mirror.highs)
    if sol.status == "infeasible" and not sol.dual:
        sol.dual = _empty_row_ray(model)
    if sol.status != "unbounded":
        _audit(model, sol, exact=False)
    return sol


def _empty_row_ray(model: LpModel) -> dict:
    """HiGHS can find no ray when an empty row alone makes the LP infeasible;
    that row's unit vector, signed like its right-hand side, is one."""
    for i, coefs in enumerate(model.row_coefs):
        rhs, sense = model.rhs[i], model.senses[i]
        if not coefs and rhs != 0 and (sense == EQ or (rhs > 0) == (sense == GE)):
            return {i: 1.0 if rhs > 0 else -1.0}
    return {}


# The name is the benchmark's span hook: perfbench times ``greente.lp.linprog`` as lp.highs.
def linprog(highs) -> LpSolution:
    """Re-solve a loaded HiGHS model cold and read back the answer."""
    highs.clearSolver()  # no warm start: presolve + dual simplex every time
    _check(highs.run(), "run")
    model_status = highs.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        raise NumericalFailure(f"LP solver failed: {highs.modelStatusToString(model_status)}")
    if status == "infeasible":
        ray_status, has_ray, ray = highs.getDualRay()
        _check(ray_status, "getDualRay")
        ray = [float(v) for v in ray] if has_ray else []
        scale = max(map(abs, ray), default=0.0)
        # max-norm 1: the ray's scale is arbitrary, and its users compare against absolute tolerances
        return LpSolution(status, dual={i: v / scale for i, v in enumerate(ray)} if scale else {})
    if status != "optimal":
        return LpSolution(status)
    solution = highs.getSolution()
    return LpSolution(
        "optimal",
        dict(enumerate(solution.col_value)),
        dict(enumerate(solution.row_dual)),
        highs.getObjectiveValue(),
    )


def _dual_bound(model: LpModel, dual: dict, costs, exact: bool) -> tuple[object, bool]:
    """Bounded-variable dual objective y.b + sum_j d_j * (l_j if d_j > 0 else u_j)
    with d = costs - A^T y.  A term whose bound is infinite is left out, so the
    second value says whether none was: only then is the first a true bound."""
    q = Fraction if exact else float
    zero = q(0)
    dual_obj = zero
    rc = [q(c) for c in costs]
    for i in range(model.n_rows):
        y = dual.get(i, zero)
        if not y:
            continue
        dual_obj += y * q(model.rhs[i])
        for j, a in model.row_coefs[i].items():
            rc[j] -= y * q(a)
    finite = True
    for j, r in enumerate(rc):
        if r == zero or (not exact and abs(r) <= 1e-7):
            continue
        bound = model.lower[j] if r > zero else model.upper[j]
        if bound is None:
            finite = False
        else:
            dual_obj += r * q(bound)
    return dual_obj, finite


def _audit(model: LpModel, sol: LpSolution, exact: bool) -> None:
    """An optimum obeys weak duality; an infeasible solve's ray proves it."""
    tol = 0 if exact else 1e-7
    if sol.status == "optimal":
        dual_obj, _ = _dual_bound(model, sol.dual, model.objective, exact)
        if dual_obj > sol.objective + tol * (1 + abs(sol.objective)):
            raise NumericalFailure(
                f"weak duality violated: dual {dual_obj} > primal {sol.objective}"
            )
        return
    # a sign-feasible ray with a positive bound under zero costs: every feasible
    # point would have objective 0, below that bound
    for i, y in sol.dual.items():
        sense = model.senses[i]
        if (sense == GE and y < -tol) or (sense == LE and y > tol):
            raise NumericalFailure(f"infeasibility not proven: ray has the wrong sign on row {i}")
    dual_obj, finite = _dual_bound(model, sol.dual, [0] * model.n_cols, exact)
    if not (finite and dual_obj > tol):
        raise NumericalFailure(f"infeasibility not proven: Farkas bound {dual_obj}")


def solve_lp(model: LpModel, mode: str = "float") -> LpSolution:
    """Solve to a basic optimum with duals; deterministic given equal models."""
    if mode == "exact":
        return _solve_exact(model)
    if mode == "float":
        return _solve_float(model)
    raise ValueError(f"unknown mode {mode!r}")
