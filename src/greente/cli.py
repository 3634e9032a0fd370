"""Command-line workbench: solve / bench / evaluate / oracle.

Activation vectors serialize as ``arc_id,chi`` csv.  Exit code 0 on batch
completion, 2 on configuration or input errors (argparse uses 2 for bad flags
too).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .bench import (
    ALGORITHMS,
    TRAFFIC_AWARE,
    ConfigError,
    ExperimentConfig,
    RepetitaInstance,
    as_rho,
    emit_report,
    emit_table,
    run_experiment,
    solve_row,
)
from .model import Activation, FULL_DUPLEX, SIMPLEX, Network, NetworkError, scale_traffic
from .mspnd import NotRoutableInFull, TooLarge, brute_force_mspnd
from .repetita import (
    DisconnectedDemand,
    ParseError,
    UnknownNode,
    parse_repetita_demands,
    parse_repetita_graph,
    preprocess,
)
from .routing import mlu

MODE_NAMES = {"simplex": SIMPLEX, "duplex": FULL_DUPLEX}
LENGTH_NAMES = {"given": "asGiven", "unit": "unit", "invcap": "inverseCapacity"}


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text}")
    return value


def _add_instance_args(p: argparse.ArgumentParser, multi_demands: bool) -> None:
    p.add_argument("--graph", required=True, help="REPETITA topology file")
    p.add_argument(
        "--demands", required=True, nargs="+" if multi_demands else None,
        help="REPETITA demand file" + ("(s)" if multi_demands else ""),
    )
    p.add_argument("--mu", type=_positive_int, default=1, help="connections per link")
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="simplex")
    p.add_argument("--lengths", choices=sorted(LENGTH_NAMES), default="given")


def _load_preprocessed(args, demand_paths: list[str]):
    """The network and each demand file's normalized traffic: one parse, one build."""
    precursor = parse_repetita_graph(Path(args.graph).read_text())
    n = len(precursor.nodes)
    matrices = [parse_repetita_demands(Path(p).read_text(), num_nodes=n) for p in demand_paths]
    return preprocess(
        precursor, matrices, MODE_NAMES[args.mode], LENGTH_NAMES[args.lengths], args.mu
    )


def _activation_csv(activation: Activation) -> str:
    lines = ["arc_id,chi"]
    lines.extend(f"{aid},{chi}" for aid, chi in enumerate(activation.counts))
    return "\n".join(lines) + "\n"


def _read_activation_csv(text: str, net: Network) -> Activation:
    """Inverse of :func:`_activation_csv`: every arc exactly once, with an
    integer count valid for ``net``."""
    counts: dict[int, int] = {}
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines[:1] != ["arc_id,chi"]:
        header = lines[0] if lines else ""
        raise ConfigError(f"activation csv: expected the header 'arc_id,chi', got {header!r}")
    for ln in lines[1:]:
        try:
            aid, chi = (int(field) for field in ln.split(","))
        except ValueError:
            raise ConfigError(f"activation csv: expected 'arc_id,chi', got {ln!r}") from None
        if not 0 <= aid < net.n_arcs or aid in counts:
            raise ConfigError(f"activation csv: arc id {aid} out of range or repeated")
        counts[aid] = chi
    missing = [a for a in range(net.n_arcs) if a not in counts]
    if missing:
        raise ConfigError(f"activation csv: no count for arcs {missing}")
    activation = Activation(tuple(counts[a] for a in range(net.n_arcs)))
    try:
        activation.validate(net)
    except ValueError as exc:
        raise ConfigError(f"activation csv: {exc}") from None
    return activation


def _parse_rho(value: float) -> Fraction:
    try:
        return as_rho(value)
    except ConfigError as exc:
        raise ConfigError(f"--{exc}") from None


# bench config key -> (ExperimentConfig field, conversion); a key the config
# leaves out keeps the field's default
CONFIG_KEYS = {
    "algorithms": ("algorithms", tuple),
    "rho": ("rhos", tuple),
    "mu": ("mus", tuple),
    "modes": ("modes", lambda names: tuple(MODE_NAMES[m] for m in names)),
    "time_limit": ("time_limit", lambda value: value),  # validate checks the type
    "lengths": ("length_mode", LENGTH_NAMES.__getitem__),
    "strengthening": ("strengthening", lambda value: value),  # validate checks the type
}


def _write(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_solve(args) -> int:
    rho = _parse_rho(args.rho)
    net, [traffic] = _load_preprocessed(args, [args.demands])
    scaled = scale_traffic(traffic, rho)
    matrix = "0" if args.algorithm in TRAFFIC_AWARE else "-"  # as bench names it
    key = (Path(args.graph).stem, matrix, args.algorithm, rho, args.mu, MODE_NAMES[args.mode])
    res, row = solve_row(
        key, net, rho, scaled, [scaled], args.time_limit, args.strengthening == "on"
    )
    _write(_activation_csv(res.activation), args.out)
    if args.out not in (None, "-"):
        sys.stdout.write(emit_report([row], args.format))
    return 0


def _cmd_bench(args) -> int:
    text = Path(args.config).read_text()
    try:
        spec = json.loads(text)
        instances = []
        for inst in spec["instances"]:
            precursor = parse_repetita_graph(Path(inst["graph"]).read_text())
            demands = inst["demands"]
            if not isinstance(demands, list) or not demands:
                raise ConfigError(f"demands must be a non-empty list of files, got {demands!r}")
            matrices = tuple(
                parse_repetita_demands(Path(p).read_text(), num_nodes=len(precursor.nodes))
                for p in demands
            )
            instances.append(
                RepetitaInstance(str(inst.get("id", Path(inst["graph"]).stem)), precursor, matrices)
            )
        for key in ("algorithms", "rho", "mu", "modes"):  # the list-valued CONFIG_KEYS
            if key in spec and not isinstance(spec[key], list):
                raise ConfigError(f"{key} must be a list, got {spec[key]!r}")
        config = ExperimentConfig(**{
            field: convert(spec[key])
            for key, (field, convert) in CONFIG_KEYS.items() if key in spec
        })
        config.validate()
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad bench config: {exc}") from exc
    rows = run_experiment(config, instances)
    _write(emit_report(rows, args.format), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    rho = _parse_rho(args.rho)
    net, traffics = _load_preprocessed(args, args.demands)
    activation = _read_activation_csv(Path(args.chi).read_text(), net)
    records = [
        (str(k), round(float(mlu(net, activation, scale_traffic(traffic, rho))), 6))
        for k, traffic in enumerate(traffics)
    ]
    _write(emit_table(("matrix", "mlu"), records, args.format), args.out)
    return 0


def _cmd_oracle(args) -> int:
    rho = _parse_rho(args.rho)
    net, [traffic] = _load_preprocessed(args, [args.demands])
    activation = brute_force_mspnd(net, scale_traffic(traffic, rho))
    _write(_activation_csv(activation), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greente",
        description="Minimum-active-connection subnetwork workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_instance_args(p, multi_demands=False)
    p.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--time-limit", type=_positive_float, default=600.0)
    p.add_argument("--strengthening", choices=("on", "off"), default="on")
    p.add_argument("--out", default=None, help="activation csv destination ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run an experiment batch from a config file")
    p.add_argument("--config", required=True, help="json config driving the batch")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("evaluate", help="utilization of a stored activation")
    _add_instance_args(p, multi_demands=True)
    p.add_argument("--chi", required=True, help="activation csv file")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("oracle", help="brute-force exact optimum for small tests")
    _add_instance_args(p, multi_demands=False)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:  # unreadable path or text
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        ParseError, UnknownNode, DisconnectedDemand, NetworkError, TooLarge, NotRoutableInFull
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
