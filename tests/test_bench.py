import dataclasses
import json
import math

import pytest

from greente import Activation, bench, repetita, toca
from greente.bench import (
    ALGORITHMS,
    CSV_HEADER,
    SOLVERS,
    ConfigError,
    ExperimentConfig,
    RepetitaInstance,
    emit_report,
    make_row,
    run_experiment,
)
from greente.model import FULL_DUPLEX, SIMPLEX
from greente.repetita import parse_repetita_demands, parse_repetita_graph

RING_GRAPH = """\
NODES 4
label x y
n0 0 0
n1 1 0
n2 1 1
n3 0 1

EDGES 8
label src dest weight bw delay
e0 0 1 1 10 0
e1 1 0 1 10 0
e2 1 2 1 10 0
e3 2 1 1 10 0
e4 2 3 1 10 0
e5 3 2 1 10 0
e6 3 0 1 10 0
e7 0 3 1 10 0
"""

def ring_instance(n_matrices=2):
    g = parse_repetita_graph(RING_GRAPH)
    matrices = []
    for k in range(n_matrices):
        text = f"DEMANDS 2\nlabel src dest bw\nd0 0 2 {4 + k}\nd1 1 3 {2 + k}\n"
        matrices.append(parse_repetita_demands(text, num_nodes=4))
    return RepetitaInstance("ring", g, tuple(matrices))


def test_single_cell_single_algorithm():
    config = ExperimentConfig(
        algorithms=("f-mspnd",), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,), time_limit=60
    )
    rows = run_experiment(config, [ring_instance(1)])
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "optimal"
    assert row.algorithm == "f-mspnd"
    assert len(row.mlu) == 1
    assert row.mlu[0] <= 1.0
    assert row.active_connections is not None
    assert row.deactivated_fraction is not None


def test_traffic_aware_rows_per_matrix_and_mlu_across_all():
    config = ExperimentConfig(
        algorithms=("f-mspnd", "mcf"), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,),
        time_limit=60,
    )
    rows = run_experiment(config, [ring_instance(2)])
    aware = [r for r in rows if r.algorithm == "f-mspnd"]
    oblivious = [r for r in rows if r.algorithm == "mcf"]
    assert [r.matrix for r in aware] == ["0", "1"]
    assert [r.matrix for r in oblivious] == ["-"]
    for r in rows:
        assert len(r.mlu) == 2  # evaluated against every matrix of the instance


def test_forced_timeout_reports_status_and_bound():
    config = ExperimentConfig(
        algorithms=("mspnd",), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,),
        time_limit=1e-9,  # expires before the first B&B node
    )
    rows = run_experiment(config, [ring_instance(1)])
    assert rows[0].status == "timeout"
    assert rows[0].bound is not None


def test_mcf_pp_row_is_the_same_after_mcf_as_alone(monkeypatch):
    """In a cell that runs mcf first, mcf++ continues from mcf's solved LP."""
    builds = []
    build = toca.build_toca_lp
    monkeypatch.setattr(toca, "build_toca_lp", lambda net, rho: builds.append(rho) or build(net, rho))
    monkeypatch.setattr(toca, "_handoff", None)

    def run(algorithms):
        config = ExperimentConfig(
            algorithms=algorithms, rhos=(0.3, 0.5, 0.7), mus=(1, 5),
            modes=(SIMPLEX, FULL_DUPLEX), time_limit=60,
        )
        builds.clear()
        rows = [r for r in run_experiment(config, [ring_instance(2)]) if r.algorithm == "mcf++"]
        return [dataclasses.replace(r, runtime_seconds=0.0) for r in rows], len(builds)

    alone, alone_builds = run(("mcf++",))
    after, after_builds = run(("mcf", "mcf++"))
    assert len(alone) == 12 and {r.status for r in alone} == {"optimal"}
    assert after == alone
    assert alone_builds == after_builds == 12  # mcf++ built none of its own after mcf
    assert toca._handoff is None


def test_oblivious_rows_ignore_matrix_content():
    config = ExperimentConfig(
        algorithms=("mcf",), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,), time_limit=60
    )
    inst = ring_instance(2)
    swapped = RepetitaInstance("ring", inst.precursor, tuple(reversed(inst.matrices)))
    a = run_experiment(config, [inst])[0]
    b = run_experiment(config, [swapped])[0]
    assert a.active_connections == b.active_connections
    assert sorted(a.mlu) == sorted(b.mlu)


def test_error_rows_do_not_abort_the_batch():
    # a demand against the arc direction cannot be routed at all
    from fractions import Fraction
    from greente.repetita import GraphPrecursor

    line = GraphPrecursor(("a", "b"), (("e0", 0, 1, 1, Fraction(1)),))
    broken = RepetitaInstance(
        "broken",
        line,
        (parse_repetita_demands("DEMANDS 1\nheader\nd0 1 0 2\n", num_nodes=2),),
    )
    config = ExperimentConfig(
        algorithms=("f-mspnd", "mcf"), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,),
        time_limit=60,
    )
    rows = run_experiment(config, [broken, ring_instance(1)])
    broken_rows = [r for r in rows if r.instance == "broken"]
    good_rows = [r for r in rows if r.instance == "ring"]
    assert broken_rows and all(r.status.startswith("error:") for r in broken_rows)
    assert good_rows and all(not r.status.startswith("error:") for r in good_rows)


def test_a_solver_that_raises_gives_one_timed_error_row(monkeypatch):
    config = ExperimentConfig(
        algorithms=("f-mspnd", "mcps", "mcf"), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,),
        time_limit=60,
    )

    def untimed(rows):
        return [dataclasses.replace(r, runtime_seconds=0.0) for r in rows]

    before = run_experiment(config, [ring_instance(2)])

    def broken(*args, **kwargs):
        raise ArithmeticError("solver failed")

    monkeypatch.setattr(bench, "solve_mcps", broken)
    after = run_experiment(config, [ring_instance(2)])
    [failed] = [r for r in after if r.algorithm == "mcps"]
    assert failed.status == "error:ArithmeticError" and failed.runtime_seconds >= 0
    assert failed.active_connections is None and failed.mlu == () and failed.bound is None
    assert untimed(r for r in after if r.algorithm != "mcps") == untimed(
        r for r in before if r.algorithm != "mcps"
    )


def test_one_network_per_mode_and_mu_serves_every_matrix_and_rho(monkeypatch):
    built, build = [], repetita.build_network

    def spy(*args, **kwargs):
        built.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(repetita, "build_network", spy)
    config = ExperimentConfig(
        algorithms=("f-mspnd", "mcf"), rhos=(0.3, 0.5), mus=(1, 2),
        modes=(SIMPLEX, FULL_DUPLEX), time_limit=60,
    )
    rows = run_experiment(config, [ring_instance(3)])
    assert sorted(built) == sorted([SIMPLEX, SIMPLEX, FULL_DUPLEX, FULL_DUPLEX])
    assert len(rows) == 2 * 2 * 2 * (3 + 1)  # mode x mu x rho x (3 matrices + mcf)
    assert all(r.status == "optimal" and len(r.mlu) == 3 for r in rows)


def test_full_duplex_without_reverse_arcs_gives_one_error_row_per_rho_and_algorithm():
    one_way = parse_repetita_graph(
        "NODES 2\nlabel x y\na 0 0\nb 1 0\n\n"
        "EDGES 1\nlabel src dest weight bw delay\ne0 0 1 1 10 0\n"
    )
    matrix = parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 2\n", num_nodes=2)
    config = ExperimentConfig(
        algorithms=("mspnd", "mcps", "mcf"), rhos=(0.3, 0.5), mus=(1,),
        modes=(FULL_DUPLEX,), time_limit=60,
    )
    rows = run_experiment(config, [RepetitaInstance("one-way", one_way, (matrix, matrix))])
    assert sorted((r.algorithm, r.rho) for r in rows) == sorted(
        (alg, rho) for alg in ("mspnd", "mcps", "mcf") for rho in (0.3, 0.5)
    )
    assert {(r.matrix, r.status) for r in rows} == {("-", "error:MissingReverseArc")}


@pytest.mark.parametrize("field, value, message", [
    ("length_mode", "bogus", "unknown length mode 'bogus'"),
    ("strengthening", "off", "strengthening must be a JSON true or false"),
    ("strengthening", 0, "strengthening must be a JSON true or false"),
    ("strengthening", None, "strengthening must be a JSON true or false"),
])
def test_config_rejects_a_bad_length_mode_or_strengthening(field, value, message):
    config = ExperimentConfig(**{field: value})
    with pytest.raises(ConfigError, match=message):
        config.validate()
    with pytest.raises(ConfigError, match=message):
        run_experiment(config, [ring_instance(1)])


@pytest.mark.parametrize("limit, message", [
    (True, "time_limit must be a number, got True"),
    ("5", "time_limit must be a number, got '5'"),
    (None, "time_limit must be a number, got None"),
    (0, "time limit must be positive"),
    (float("nan"), "time limit must be positive"),
    # 10**400 < math.inf holds in Python, but the solvers' float clock overflows on it
    pytest.param(10**400, "^time limit must be positive and finite$", id="int-beyond-float"),
    pytest.param(float("inf"), "^time limit must be positive and finite$", id="inf"),
])
def test_config_rejects_a_time_limit_that_is_no_positive_number(limit, message):
    config = ExperimentConfig(time_limit=limit)
    with pytest.raises(ConfigError, match=message):
        config.validate()
    with pytest.raises(ConfigError, match=message):
        run_experiment(config, [ring_instance(1)])


@pytest.mark.parametrize("rho, message", [
    ("0.5", "^rho must be a number, got '0.5'$"),
    (True, "^rho must be a number, got True$"),
    (None, "^rho must be a number, got None$"),
    (10**400, r"^rho 1000*0 outside \(0,1\)$"),
], ids=["str", "bool", "none", "int-beyond-float"])
def test_config_rejects_a_rho_that_is_no_number_in_range(rho, message):
    config = ExperimentConfig(rhos=(rho,))
    with pytest.raises(ConfigError, match=message):
        config.validate()


def test_rows_sorted_deterministically():
    config = ExperimentConfig(
        algorithms=("mcf", "f-mspnd"), rhos=(0.5, 0.3), mus=(1,), modes=(SIMPLEX,),
        time_limit=60,
    )
    rows = run_experiment(config, [ring_instance(1)])
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)


def test_csv_report_is_deterministic_modulo_runtime():
    config = ExperimentConfig(
        algorithms=("f-mspnd", "mcf"), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,),
        time_limit=60,
    )
    a = emit_report(run_experiment(config, [ring_instance(2)]), "csv")
    b = emit_report(run_experiment(config, [ring_instance(2)]), "csv")
    lines_a, lines_b = a.splitlines(), b.splitlines()
    assert len(lines_a) == len(lines_b)
    for la, lb in zip(lines_a, lines_b):
        ca, cb = la.split(","), lb.split(",")
        ca[9] = cb[9] = "T"  # mask the runtime column
        assert ca == cb


def test_csv_header_and_empty_report():
    assert CSV_HEADER == (
        "instance,matrix,algorithm,rho,mu,mode,status,"
        "active_connections,deactivated_fraction,runtime_seconds,mlu,bound"
    )
    assert emit_report([], "csv") == CSV_HEADER + "\n"


def test_infinite_utilization_renders_inf():
    row = make_row(
        "i", "0", "f-mspnd", 0.5, 1, SIMPLEX, "optimal",
        mlus=[math.inf, 0.25],
    )
    text = emit_report([row], "csv")
    assert "inf;0.250000" in text


def test_json_report_round_trips():
    config = ExperimentConfig(
        algorithms=("f-mspnd", "mcf"), rhos=(0.5,), mus=(1,), modes=(SIMPLEX,),
        time_limit=60,
    )
    rows = run_experiment(config, [ring_instance(1)])
    rows.append(
        make_row("i", "0", "mcf", 0.3, 1, SIMPLEX, "optimal", mlus=[math.inf])
    )
    text = emit_report(rows, "json")
    assert json.loads(text) == [
        {**dataclasses.asdict(row), "mlu": [v if math.isfinite(v) else "inf" for v in row.mlu]}
        for row in rows
    ]
    assert json.loads(text)[-1]["mlu"] == ["inf"]


SOLVER_FUNCTIONS = {
    "mspnd": "solve_mspnd",
    "f-mspnd": "solve_f_mspnd",
    "mcps": "solve_mcps",
    "mcf": "alg_mcf",
    "mcf++": "alg_mcf_pp",
}


def test_solver_table_lists_every_algorithm():
    assert ALGORITHMS == tuple(SOLVER_FUNCTIONS)
    assert bench.TRAFFIC_AWARE == ("mspnd", "f-mspnd")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solver_runs_look_up_the_module_function(monkeypatch, algorithm):
    """Rebinding ``bench.<solver>`` must reach the table, so wrappers see every call."""
    calls = []

    def fake(*args, **kwargs):
        calls.append(args)
        return Activation((0,))

    monkeypatch.setattr(bench, SOLVER_FUNCTIONS[algorithm], fake)
    SOLVERS[algorithm].run("net", "rho", "traffic", 1.0, True)
    assert len(calls) == 1
