"""Experiment orchestration across (algorithm x rho x mu x duplex x matrix).

Traffic-aware algorithms solve once per matrix on the rho-scaled demand and
are evaluated for utilization against every matrix of the instance; oblivious
algorithms run once per parameter cell.  An instance is preprocessed once per
(duplex mode, mu), and every rho reuses that network.  Failures become per-row
statuses, never batch aborts.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from typing import Callable

from .mcps import solve_mcps
from .model import FULL_DUPLEX, SIMPLEX, Result, full_activation, scale_traffic
from .mspnd import solve_f_mspnd, solve_mspnd
from .repetita import LENGTH_MODES, GraphPrecursor, preprocess
from .routing import mlu
from .toca import alg_mcf, alg_mcf_pp


@dataclass(frozen=True)
class Solver:
    """One algorithm of the study.  ``run(net, rho, traffic, time_limit,
    strengthening)`` takes the rho-scaled traffic; oblivious solvers ignore it."""

    traffic_aware: bool
    run: Callable[..., Result]


# Each run looks its solver up among this module's globals at call time, so
# that rebinding e.g. ``bench.solve_mspnd`` reaches every caller.
SOLVERS: dict[str, Solver] = {
    "mspnd": Solver(True, lambda net, rho, traffic, time_limit, strengthening: solve_mspnd(
        net, traffic, strengthening=strengthening, time_limit=time_limit)),
    "f-mspnd": Solver(True, lambda net, rho, traffic, *_: Result(
        solve_f_mspnd(net, traffic), "optimal", None)),
    "mcps": Solver(False, lambda net, rho, traffic, time_limit, _: solve_mcps(
        net, rho, time_limit=time_limit)),
    "mcf": Solver(False, lambda net, rho, *_: Result(alg_mcf(net, rho), "optimal", None)),
    "mcf++": Solver(False, lambda net, rho, *_: Result(alg_mcf_pp(net, rho), "optimal", None)),
}
ALGORITHMS = tuple(SOLVERS)
TRAFFIC_AWARE = tuple(name for name, solver in SOLVERS.items() if solver.traffic_aware)
MODES = (SIMPLEX, FULL_DUPLEX)


class ConfigError(ValueError):
    pass


def _finite_number(name: str, value) -> bool:
    """Whether ``value`` is finite as a float; it must be an int or a float
    (a JSON number, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def as_rho(value) -> Fraction:
    """rho as every solver takes it: the nearest fraction with denominator at
    most 10**6, which must lie strictly between 0 and 1."""
    if not _finite_number("rho", value):
        raise ConfigError(f"rho {value} outside (0,1)")
    rho = Fraction(value).limit_denominator(10**6)
    if not 0 < rho < 1:
        rounded = "" if rho == value else f" rounds to {rho} at denominator 10**6,"
        raise ConfigError(f"rho {value}{rounded} outside (0,1)")
    return rho


@dataclass(frozen=True)
class RepetitaInstance:
    instance_id: str
    precursor: GraphPrecursor
    matrices: tuple  # raw TrafficMatrix per demand file


@dataclass
class ExperimentConfig:
    algorithms: tuple[str, ...] = ALGORITHMS
    rhos: tuple[float, ...] = (0.3, 0.5, 0.7)
    mus: tuple[int, ...] = (1, 5)
    modes: tuple[str, ...] = (SIMPLEX,)
    time_limit: float = 600.0
    length_mode: str = "asGiven"
    strengthening: bool = True

    def validate(self) -> None:
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}")
        for rho in self.rhos:
            as_rho(rho)
        for mu in self.mus:
            if isinstance(mu, bool) or not isinstance(mu, int) or mu < 1:
                raise ConfigError(f"mu {mu!r} must be an integer >= 1")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown mode {mode!r}")
        # the solvers add the limit to a float clock, so it must be finite as a float
        if not (_finite_number("time_limit", self.time_limit) and self.time_limit > 0):
            raise ConfigError("time limit must be positive and finite")
        if self.length_mode not in LENGTH_MODES:
            raise ConfigError(f"unknown length mode {self.length_mode!r}")
        if not isinstance(self.strengthening, bool):
            raise ConfigError("strengthening must be a JSON true or false")


def _round6(v: float) -> float:
    return round(float(v), 6)


@dataclass
class ReportRow:
    instance: str
    matrix: str
    algorithm: str
    rho: float
    mu: int
    mode: str
    status: str
    active_connections: int | None
    deactivated_fraction: float | None
    runtime_seconds: float
    mlu: tuple[float, ...]
    bound: float | None

    def sort_key(self):
        return (self.instance, self.matrix, self.algorithm, self.rho, self.mu, self.mode)


CSV_HEADER = ",".join(f.name for f in fields(ReportRow))


def make_row(
    instance, matrix, algorithm, rho, mu, mode, status,
    activation=None, full_value=None, runtime=0.0, mlus=(), bound=None,
) -> ReportRow:
    active = None if activation is None else activation.value
    frac = None
    if active is not None and full_value:
        frac = _round6(1 - active / full_value)
    return ReportRow(
        instance=instance,
        matrix=matrix,
        algorithm=algorithm,
        rho=_round6(rho),
        mu=mu,
        mode=mode,
        status=status,
        active_connections=active,
        deactivated_fraction=frac,
        runtime_seconds=_round6(runtime),
        mlu=tuple(_round6(v) for v in mlus),  # round keeps an infinity as it is
        bound=None if bound is None else _round6(bound),
    )


def solve_row(key, net, rho, traffic, scaled, time_limit, strengthening) -> tuple[Result, ReportRow]:
    """Run the algorithm ``key[2]`` and time it, then evaluate its activation
    against every matrix in ``scaled``.  ``key`` is the row's first six fields
    (see :meth:`ReportRow.sort_key`); ``rho`` is the exact value to solve at."""
    start = time.perf_counter()
    res = SOLVERS[key[2]].run(net, rho, traffic, time_limit, strengthening)
    runtime = time.perf_counter() - start
    row = make_row(
        *key, res.status, activation=res.activation, full_value=full_activation(net).value,
        runtime=runtime, mlus=[mlu(net, res.activation, t) for t in scaled], bound=res.bound,
    )
    return res, row


def run_experiment(config: ExperimentConfig, instances) -> list[ReportRow]:
    config.validate()
    rows: list[ReportRow] = []
    for inst in sorted(instances, key=lambda i: i.instance_id):
        for mode, mu in itertools.product(config.modes, config.mus):
            try:
                net, normalized = preprocess(
                    inst.precursor, inst.matrices, mode, config.length_mode, mu
                )
            except Exception as exc:
                status = f"error:{type(exc).__name__}"
                rows.extend(
                    make_row(inst.instance_id, "-", alg, rho, mu, mode, status)
                    for rho in config.rhos for alg in config.algorithms
                )
                continue
            for rho in config.rhos:
                rows.extend(_run_cell(config, inst, net, normalized, mode, mu, rho))
    rows.sort(key=ReportRow.sort_key)
    return rows


def _run_cell(config, inst, net, normalized, mode, mu, rho) -> list[ReportRow]:
    rho_frac = as_rho(rho)
    scaled = [scale_traffic(traffic, rho_frac) for traffic in normalized]
    rows = []
    for alg in config.algorithms:
        runs = enumerate(scaled) if SOLVERS[alg].traffic_aware else [("-", None)]
        for matrix, traffic in runs:
            key = (inst.instance_id, str(matrix), alg, rho, mu, mode)
            rows.append(_run_one(config, key, net, rho_frac, traffic, scaled))
    return rows


def _run_one(config, key, net, rho, traffic, scaled) -> ReportRow:
    start = time.perf_counter()
    try:
        return solve_row(key, net, rho, traffic, scaled, config.time_limit, config.strengthening)[1]
    except Exception as exc:
        return make_row(*key, f"error:{type(exc).__name__}", runtime=time.perf_counter() - start)


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(map(_render, value))
    if isinstance(value, float):
        return str(value) if math.isinf(value) else f"{value:.6f}"
    return str(value)


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return str(value) if isinstance(value, float) and math.isinf(value) else value


def emit_table(columns, records, fmt: str = "csv") -> str:
    """Records (one value per column) as csv under a header line, or as a json
    array of objects; an infinity renders as ``inf``."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(map(_render, record)) for record in records)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [{c: _jsonable(v) for c, v in zip(columns, record)} for record in records]
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def emit_report(rows, fmt: str = "csv") -> str:
    """Report text, one row per run: csv under ``CSV_HEADER``, or json."""
    return emit_table(CSV_HEADER.split(","), map(astuple, rows), fmt)

