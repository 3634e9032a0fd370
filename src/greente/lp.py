"""LP substrate: row/column models solved to optimality with duals.

Two interchangeable backends sit behind one model type:

* ``float`` -- HiGHS dual simplex.  Each model keeps one live HiGHS instance
  (scipy's bundled ``_highspy``), created on its first solve in either mode.
  Later solves push only what changed since the last one -- new columns,
  new rows, changed bounds -- and re-solve cold.  A cold solve reloads the
  model, so it reaches the vertex a fresh load with the same presolve
  setting reaches.  HiGHS presolve runs unless the solve is called
  with ``presolve=False``, as branch-and-bound's node LPs are; the setting
  holds for one solve, not for the model.  The one exception to cold solves
  is ``solve_lp(..., warm=True)``: HiGHS then starts from its last basis, and
  the vertex it reaches may depend on the solves before.  Branch-and-bound
  stays cold, so a node's bound and the vertex the heuristics see do not
  depend on the order in which nodes were visited.
* ``exact`` -- the same cold HiGHS solve, then a certificate in rationals:
  the vertex and row duals of HiGHS's final basis are rebuilt in
  ``Fraction``s from the model's own data, and returned only if they prove
  optimality exactly (a feasible point, sign-feasible duals, a finite dual
  bound equal to the point's value).  An infeasible model is proven so by
  the row duals of an elastic copy, a Farkas ray.  "Unbounded" is HiGHS's
  status, unchecked.  A failed check raises NumericalFailure, so exact mode
  never returns a value it has not proven.  HiGHS drops matrix entries up to
  ``HIGHS_MIN_COEF`` and rejects entries from ``HIGHS_MAX_COEF`` up, in both
  modes; where a dropped entry moves the optimum, float mode returns the
  wrong value and exact mode raises.  ``model.build_network`` keeps every
  ``ccap``, ``mu`` and ``ccap * mu`` of a network LP inside this range, and
  the CLI and ``bench`` solve in float mode only.

Dual sign convention: a >=-row of a minimization has a nonnegative dual, a
<=-row a nonpositive one.  An infeasible solve carries a Farkas ray in
``dual``, in the same convention.  Every solve is audited -- weak duality at
an optimum, a proof of infeasibility from the ray -- or raises NumericalFailure.
A float optimum's audit reuses the HiGHS mirror's floats and skips columns bounded
only by 0 or None, which add nothing; exact mode, rays and ``bnb`` use ``_dual_bound``.

The HiGHS bindings are scipy's bundled extension, loaded alone at import, not
through the ``scipy.optimize`` package, whose import also loads
``scipy.linalg`` and takes about half a second more.  It is loaded under its
canonical name ``scipy.optimize._highspy._core``, so a later ``import
scipy.optimize`` reuses it; if the file cannot be found, the package import
is the fallback.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy  # noqa: F401 -- the extension imports it on the first addCols; pay that here


def _load_highs():
    """scipy's HiGHS extension module, without importing ``scipy.optimize``.

    The name must be the canonical one: pybind11 registers the extension's
    types once per process, so after a load under another name a later
    ``import scipy.optimize`` fails with ``generic_type: type "ObjSense" is
    already registered!``.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.origin:
        folder = os.path.join(os.path.dirname(scipy.origin), "optimize", "_highspy")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                return module
    from scipy.optimize._highspy import _core
    return _core


_highs = _load_highs()

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
        j, n_rows = self.n_cols, self.n_rows
        _check_bounds(lb, ub, j)
        kept = {}
        if coefs:
            for i, v in coefs.items():
                if not 0 <= i < n_rows:
                    raise BadReference(f"row {i} does not exist")
                if v != 0:
                    kept[i] = v
        _check_finite("column", j, (obj,))
        if kept:
            _check_finite("column", j, kept.values())
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
        i, n_cols = self.n_rows, self.n_cols
        clean = {}
        for j, v in coefs.items():
            if not 0 <= j < n_cols:
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
# HiGHS: one live model per LpModel, behind both backends
# ---------------------------------------------------------------------------

_INF = _highs.kHighsInf
HIGHS_MAX_COEF = 1e15  # HiGHS's large_matrix_value: addRows/addCols reject an entry this large
HIGHS_MIN_COEF = 1e-9  # HiGHS's small_matrix_value: an entry this small is dropped as zero
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

    For the float audit it keeps floats it sends: row right-hand sides in ``rhs``
    and, in ``entries``, the (row, coefficient) pairs of each column ever sent with
    a bound other than 0 or None, from one row scan if ``set_bounds`` gave it one.
    """

    def __init__(self):
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
        self.n_cols = 0
        self.n_rows = 0
        self.col_coefs: dict[int, dict] = {}
        self.dirty: set[int] = set()
        self.rhs: list[float] = []
        self.entries: dict[int, list] = {}  # column -> [(row, float coef)], columns ascending

    def sync(self, model: LpModel) -> None:
        highs, old_rows, entries = self.highs, self.n_rows, self.entries
        new_cols = range(self.n_cols, model.n_cols)
        if new_cols:
            starts, index, value = [], [], []
            for j in new_cols:
                starts.append(len(index))
                for i, v in sorted(self.col_coefs.get(j, {}).items()):  # row order
                    if i < old_rows:
                        index.append(i)
                        value.append(float(v))
                if _bounded(model, j):
                    entries[j] = list(zip(index[starts[-1]:], value[starts[-1]:]))
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
                self.rhs.append(rhs)
                lower.append(-_INF if sense == LE else rhs)
                upper.append(_INF if sense == GE else rhs)
                starts.append(len(index))
                for j, v in model.row_coefs[i].items():
                    v = float(v)
                    index.append(j)
                    value.append(v)
                    if j in entries:
                        entries[j].append((i, v))
            _check(highs.addRows(len(new_rows), lower, upper, len(index), starts, index, value),
                   "addRows")
        if self.dirty:
            cols = sorted(self.dirty)
            _check(highs.changeColsBounds(len(cols), cols, *_col_bounds(model, cols)),
                   "changeColsBounds")
            for j in cols:
                if j not in entries and _bounded(model, j):
                    entries[j] = [(i, float(c[j])) for i, c in enumerate(model.row_coefs) if j in c]
            self.entries = dict(sorted(entries.items()))  # column order, as _dual_bound sums
        self.n_cols, self.n_rows = model.n_cols, model.n_rows
        self.col_coefs.clear()
        self.dirty.clear()

    def dual_objective(self, model: LpModel, dual: dict) -> float:
        """``_dual_bound(model, dual, model.objective, exact=False)[0]`` for a ``dual``
        in row order, as ``linprog`` lists it, summed over ``entries`` only: any other
        column, bounded by 0 or None, adds r * 0 or nothing, and y = 0 leaves r as it is."""
        dual_obj, rhs, get = 0.0, self.rhs, dual.get
        for i, y in dual.items():
            if y:
                dual_obj += y * rhs[i]
        for j, pairs in self.entries.items():
            r = float(model.objective[j])
            for i, a in pairs:
                r -= get(i, 0.0) * a
            bound = model.lower[j] if r > 0.0 else model.upper[j]
            if r and bound is not None:
                dual_obj += r * float(bound)
        return dual_obj


def _bounded(model: LpModel, j: int) -> bool:  # a bound other than 0 or None
    return not (model.lower[j] in (0, None) and model.upper[j] in (0, None))


def _run_highs(model: LpModel, warm: bool, presolve: bool) -> LpSolution:
    """Bring the model's live HiGHS copy up to date and solve it."""
    if model._mirror is None:
        model._mirror = _HighsMirror()
    model._mirror.sync(model)
    highs = model._mirror.highs
    highs.setOptionValue("presolve", "on" if presolve else "off")  # per solve, not per model
    if not warm:  # reload: the vertex of a fresh load with the same presolve setting
        _check(highs.passModel(highs.getLp()), "passModel")
    return linprog(highs)


def _solve_float(model: LpModel, warm: bool = False, presolve: bool = True) -> LpSolution:
    sol = _run_highs(model, warm, presolve)
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
    """Run HiGHS on a loaded model and read back the answer.  The solve is
    cold unless the caller kept the basis (``solve_lp(..., warm=True)``)."""
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


ROUNDOFF_TOL = 1e-7  # float mode: the roundoff the dual bound and the audit forgive


def _dual_bound(model: LpModel, dual: dict, costs, exact: bool) -> tuple[object, bool]:
    """Bounded-variable dual objective y.b + sum_j d_j * (l_j if d_j > 0 else u_j)
    with d = costs - A^T y.  A term whose bound is infinite is left out, so the
    second value says whether none was: only then is the first a true bound.
    In float mode a d_j within ``ROUNDOFF_TOL`` of zero counts as roundoff,
    which excuses an infinite bound but not a finite one: times a large bound
    it may not be small."""
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
        if r == zero:
            continue
        bound = model.lower[j] if r > zero else model.upper[j]
        if bound is not None:
            dual_obj += r * q(bound)
        elif exact or abs(r) > ROUNDOFF_TOL:
            finite = False
    return dual_obj, finite


def _audit(model: LpModel, sol: LpSolution, exact: bool) -> None:
    """An optimum obeys weak duality; an infeasible solve's ray proves it.
    Only float optima reach the first check (exact mode certifies its own); it
    reads the dual objective from the mirror the solve just synced.  Rays, exact
    certificates and branch-and-bound's zero-dual root bound call ``_dual_bound``."""
    tol = 0 if exact else ROUNDOFF_TOL
    if sol.status == "optimal":
        dual_obj = model._mirror.dual_objective(model, sol.dual)
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


# ---------------------------------------------------------------------------
# exact backend: HiGHS's final basis, certified in rationals
# ---------------------------------------------------------------------------

def _solve_exact(model: LpModel, presolve: bool) -> LpSolution:
    sol = _run_highs(model, warm=False, presolve=presolve)
    if sol.status == "unbounded":
        return sol
    if sol.status == "optimal":
        return _certified_vertex(model)
    elastic = _elastic_copy(model)
    if _run_highs(elastic, warm=False, presolve=presolve).status != "optimal":
        raise NumericalFailure("certificate failed: HiGHS did not solve the elastic copy")
    sol = LpSolution("infeasible", dual=_certified_vertex(elastic).dual)
    _audit(model, sol, exact=True)
    return sol


def _elastic_copy(model: LpModel) -> LpModel:
    """The model with zero costs and one unit-cost slack column per direction
    in which a row can be violated.  The copy is feasible and bounded below
    by 0; its optimum is positive exactly when the model is infeasible, and
    its row duals are then a Farkas ray of the model."""
    copy = LpModel([0] * model.n_cols, list(model.lower), list(model.upper),
                   [dict(coefs) for coefs in model.row_coefs], list(model.senses), list(model.rhs))
    for i, sense in enumerate(model.senses):
        for sign in {GE: (1,), LE: (-1,), EQ: (1, -1)}[sense]:
            copy.add_column(obj=1, coefs={i: sign})
    return copy


def _certified_vertex(model: LpModel) -> LpSolution:
    """The vertex of HiGHS's last basis and its row duals, rebuilt in
    rationals from the model's own data.  Each nonbasic column sits at the
    bound its status names and each nonbasic row is tight; the basic columns
    solve the tight rows, and the transposed system gives the duals of the
    tight rows (0 on basic rows).  Returned only as a proof of optimality: a
    feasible point, sign-feasible duals, and a finite dual bound equal to the
    point's value.  Otherwise raises NumericalFailure."""
    basis = model._mirror.highs.getBasis()
    if not basis.valid:
        raise NumericalFailure("certificate failed: HiGHS kept no basis")
    status = _highs.HighsBasisStatus
    x, basic = {}, {}
    for j, st in enumerate(basis.col_status):
        if st == status.kBasic:
            basic[j] = {}  # the column's entries in the tight rows
            continue
        at = {status.kLower: model.lower[j], status.kUpper: model.upper[j], status.kZero: 0}.get(st)
        if at is None:
            raise NumericalFailure(f"certificate failed: column {j} is nonbasic at no finite bound")
        x[j] = Fraction(at)
    tight = []  # B x_B = b - N x_N, one equation per nonbasic row
    for i, st in enumerate(basis.row_status):
        if st == status.kBasic:
            continue
        coefs, rhs = {}, Fraction(model.rhs[i])
        for j, a in model.row_coefs[i].items():
            if j in basic:
                coefs[j] = basic[j][i] = Fraction(a)
            else:
                rhs -= Fraction(a) * x[j]
        tight.append((coefs, rhs))
    if len(tight) != len(basic):
        raise NumericalFailure("certificate failed: the basis is not square")
    x.update(_solve_square(tight))
    y = dict.fromkeys(range(model.n_rows), Fraction(0))
    y.update(_solve_square([(coefs, Fraction(model.objective[j])) for j, coefs in basic.items()]))

    for j, v in x.items():
        lo, hi = model.lower[j], model.upper[j]
        if (lo is not None and v < Fraction(lo)) or (hi is not None and v > Fraction(hi)):
            raise NumericalFailure(f"certificate failed: column {j} leaves its bounds")
    for i, coefs in enumerate(model.row_coefs):
        sense, rhs = model.senses[i], Fraction(model.rhs[i])
        activity = sum((Fraction(a) * x[j] for j, a in coefs.items()), Fraction(0))
        if (sense != LE and activity < rhs) or (sense != GE and activity > rhs):
            raise NumericalFailure(f"certificate failed: row {i} is violated")
        if (sense == GE and y[i] < 0) or (sense == LE and y[i] > 0):
            raise NumericalFailure(f"certificate failed: the dual of row {i} has the wrong sign")
    objective = sum((Fraction(c) * x[j] for j, c in enumerate(model.objective)), Fraction(0))
    bound, finite = _dual_bound(model, y, model.objective, exact=True)
    if not (finite and bound == objective):
        raise NumericalFailure(f"certificate failed: dual bound {bound} is not the primal {objective}")
    return LpSolution("optimal", {j: x[j] for j in range(model.n_cols)}, y, objective)


def _solve_square(equations: list[tuple[dict, Fraction]]) -> dict:
    """The unique solution of a square system of (coefficients by unknown,
    right-hand side) equations, by exact Gaussian elimination.  The pivot is
    the shortest equation left and, in it, the unknown that the fewest other
    equations hold, which keeps network bases sparse.  Raises NumericalFailure
    if the system is singular."""
    holders: dict = {}  # unknown -> the equations not yet pivoted that hold it
    for e, (coefs, _) in enumerate(equations):
        for v in coefs:
            holders.setdefault(v, set()).add(e)
    left, pivots = set(range(len(equations))), []
    while left:
        e = min(left, key=lambda e: len(equations[e][0]))
        coefs, rhs = equations[e]
        if not coefs:
            raise NumericalFailure("certificate failed: the basis is singular")
        left.remove(e)
        for v in coefs:
            holders[v].discard(e)
        pivot = min(coefs, key=lambda v: len(holders[v]))
        for f in list(holders[pivot]):
            other, other_rhs = equations[f]
            ratio = other[pivot] / coefs[pivot]
            for v, a in coefs.items():
                new = other.get(v, 0) - ratio * a
                if new:
                    holders[v].add(f)
                    other[v] = new
                else:
                    holders[v].discard(f)
                    del other[v]
            equations[f] = (other, other_rhs - ratio * rhs)
        pivots.append((e, pivot))
    solution = {}
    for e, pivot in reversed(pivots):
        coefs, rhs = equations[e]
        rest = sum((a * solution[v] for v, a in coefs.items() if v != pivot), Fraction(0))
        solution[pivot] = (rhs - rest) / coefs[pivot]
    return solution


def solve_lp(model: LpModel, mode: str = "float", *, warm: bool = False,
             presolve: bool = True) -> LpSolution:
    """Solve to a basic optimum with duals; deterministic given equal models
    and ``presolve`` (with ``warm=True``, float only, given equal models and
    solve histories).  ``presolve`` applies to both modes."""
    if mode == "exact":
        if warm:
            raise ValueError("warm starts exist only in float mode")
        return _solve_exact(model, presolve)
    if mode == "float":
        return _solve_float(model, warm=warm, presolve=presolve)
    raise ValueError(f"unknown mode {mode!r}")
