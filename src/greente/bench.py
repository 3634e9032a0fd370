"""Experiment orchestration across (algorithm x rho x mu x duplex x matrix).

Traffic-aware algorithms solve once per matrix on the rho-scaled demand and
are evaluated for utilization against every matrix of the instance; oblivious
algorithms run once per parameter cell.  Failures become per-row statuses,
never batch aborts.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from .mcps import solve_mcps
from .model import FULL_DUPLEX, SIMPLEX, Result, full_activation, scale_traffic
from .mspnd import solve_f_mspnd, solve_mspnd
from .repetita import GraphPrecursor, preprocess
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

CSV_HEADER = (
    "instance,matrix,algorithm,rho,mu,mode,status,"
    "active_connections,deactivated_fraction,runtime_seconds,mlu,bound"
)


class ConfigError(ValueError):
    pass


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
            if not 0 < rho < 1:
                raise ConfigError(f"rho {rho} outside (0,1)")
        for mu in self.mus:
            if mu < 1:
                raise ConfigError(f"mu {mu} must be >= 1")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown mode {mode!r}")
        if not self.time_limit > 0:  # also true for nan
            raise ConfigError("time limit must be positive")


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
        mlu=tuple(math.inf if math.isinf(float(v)) else _round6(v) for v in mlus),
        bound=None if bound is None else (float(bound) if math.isinf(bound) else _round6(bound)),
    )


def run_experiment(config: ExperimentConfig, instances) -> list[ReportRow]:
    config.validate()
    rows: list[ReportRow] = []
    for inst in sorted(instances, key=lambda i: i.instance_id):
        for mode in config.modes:
            for mu in config.mus:
                for rho in config.rhos:
                    rows.extend(_run_cell(config, inst, mode, mu, rho))
    rows.sort(key=ReportRow.sort_key)
    return rows


def _run_cell(config, inst, mode, mu, rho) -> list[ReportRow]:
    rows: list[ReportRow] = []
    rho_frac = rho if isinstance(rho, Fraction) else Fraction(rho).limit_denominator(10**6)
    try:
        prepped = [
            preprocess(inst.precursor, raw, mode, config.length_mode, mu)
            for raw in inst.matrices
        ]
    except Exception as exc:
        for alg in config.algorithms:
            rows.append(
                make_row(inst.instance_id, "-", alg, rho, mu, mode,
                         f"error:{type(exc).__name__}")
            )
        return rows
    net = prepped[0][0]
    scaled = [scale_traffic(traffic, rho_frac) for _, traffic in prepped]
    full_value = full_activation(net).value
    for alg in config.algorithms:
        if SOLVERS[alg].traffic_aware:
            for k in range(len(scaled)):
                rows.append(
                    _run_one(config, inst, net, alg, rho, rho_frac, mu, mode,
                             str(k), scaled[k], scaled, full_value)
                )
        else:
            rows.append(
                _run_one(config, inst, net, alg, rho, rho_frac, mu, mode,
                         "-", None, scaled, full_value)
            )
    return rows


def _run_one(config, inst, net, alg, rho, rho_frac, mu, mode, matrix_id, traffic, scaled, full_value):
    start = time.perf_counter()
    try:
        res = SOLVERS[alg].run(net, rho_frac, traffic, config.time_limit, config.strengthening)
    except Exception as exc:
        return make_row(
            inst.instance_id, matrix_id, alg, rho, mu, mode,
            f"error:{type(exc).__name__}", runtime=time.perf_counter() - start,
        )
    runtime = time.perf_counter() - start
    mlus = [mlu(net, res.activation, t) for t in scaled]
    return make_row(
        inst.instance_id, matrix_id, alg, rho, mu, mode, res.status,
        activation=res.activation, full_value=full_value,
        runtime=runtime, mlus=mlus, bound=res.bound,
    )


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return str(value) if math.isinf(value) else f"{value:.6f}"
    return str(value)


def emit_report(rows, fmt: str = "csv") -> str:
    """Report text; csv keeps the fixed header, json renders an object array."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        row.instance,
                        row.matrix,
                        row.algorithm,
                        f"{row.rho:.6f}",
                        str(row.mu),
                        row.mode,
                        row.status,
                        _render(row.active_connections),
                        _render(row.deactivated_fraction),
                        _render(row.runtime_seconds),
                        ";".join(_render(v) for v in row.mlu),
                        _render(row.bound),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = []
        for row in rows:
            d = asdict(row)
            d["mlu"] = ["inf" if math.isinf(v) else v for v in row.mlu]
            if d["bound"] is not None and math.isinf(d["bound"]):
                d["bound"] = str(d["bound"])
            payload.append(d)
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def parse_report_json(text: str) -> list[ReportRow]:
    rows = []
    for d in json.loads(text):
        d["mlu"] = tuple(math.inf if v == "inf" else v for v in d["mlu"])
        if isinstance(d["bound"], str):
            d["bound"] = float(d["bound"])
        rows.append(ReportRow(**d))
    return rows
