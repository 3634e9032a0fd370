import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greente.cli
import greente.repetita
from greente.bench import (
    ALGORITHMS,
    TRAFFIC_AWARE,
    ExperimentConfig,
    RepetitaInstance,
    run_experiment,
)
from greente.cli import main
from greente.model import build_network
from greente.mspnd import NotRoutableInFull
from greente.repetita import parse_repetita_demands, parse_repetita_graph

GRAPH = """\
NODES 3
label x y
n0 0 0
n1 1 0
n2 2 0

EDGES 3
label src dest weight bw delay
e0 0 2 1 2 0
e1 0 1 1 6 0
e2 1 2 1 6 0
"""

DEMANDS = "DEMANDS 1\nlabel src dest bw\nd0 0 2 2\n"


def total(path):
    return sum(int(line.split(",")[1]) for line in path.read_text().splitlines()[1:])


@pytest.fixture
def instance_files(tmp_path):
    graph = tmp_path / "topo.graph"
    graph.write_text(GRAPH)
    demands = tmp_path / "matrix.0.demands"
    demands.write_text(DEMANDS)
    return graph, demands


def test_solve_writes_activation_csv(tmp_path, instance_files, capsys):
    graph, demands = instance_files
    out = tmp_path / "chi.csv"
    code = main([
        "solve", "--algorithm", "f-mspnd", "--graph", str(graph),
        "--demands", str(demands), "--rho", "0.5", "--out", str(out),
        "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "arc_id,chi"
    assert len(lines) == 4
    report = capsys.readouterr().out
    assert report.startswith("instance,matrix,algorithm")
    assert ",f-mspnd," in report


def test_solve_stdout_when_no_out(instance_files, capsys):
    graph, demands = instance_files
    code = main([
        "solve", "--algorithm", "mcf", "--graph", str(graph),
        "--demands", str(demands), "--rho", "0.5",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("arc_id,chi")


def test_oracle_agrees_with_exact_solver(tmp_path, instance_files):
    graph, demands = instance_files
    a = tmp_path / "oracle.csv"
    b = tmp_path / "exact.csv"
    assert main(["oracle", "--graph", str(graph), "--demands", str(demands),
                 "--rho", "0.5", "--out", str(a)]) == 0
    assert main(["solve", "--algorithm", "mspnd", "--graph", str(graph),
                 "--demands", str(demands), "--rho", "0.5", "--out", str(b)]) == 0
    assert total(a) == total(b)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solve_matches_bench_cell(tmp_path, instance_files, capsys, algorithm):
    graph, demands = instance_files
    out = tmp_path / "chi.csv"
    assert main(["solve", "--algorithm", algorithm, "--graph", str(graph),
                 "--demands", str(demands), "--rho", "0.5", "--out", str(out),
                 "--format", "json"]) == 0
    [solved] = json.loads(capsys.readouterr().out)
    precursor = parse_repetita_graph(graph.read_text())
    matrix = parse_repetita_demands(demands.read_text(), num_nodes=len(precursor.nodes))
    rows = run_experiment(
        ExperimentConfig(algorithms=(algorithm,), rhos=(0.5,), mus=(1,)),
        [RepetitaInstance("topo", precursor, (matrix,))],
    )
    assert [row.status for row in rows] == ["optimal"]
    assert total(out) == rows[0].active_connections
    assert rows[0].matrix == ("0" if algorithm in TRAFFIC_AWARE else "-")
    assert solved == {
        **dataclasses.asdict(rows[0]), "mlu": list(rows[0].mlu),
        "runtime_seconds": solved["runtime_seconds"],
    }


def test_evaluate_reports_mlu(tmp_path, instance_files, capsys):
    graph, demands = instance_files
    chi = tmp_path / "chi.csv"
    main(["solve", "--algorithm", "f-mspnd", "--graph", str(graph),
          "--demands", str(demands), "--rho", "0.5", "--out", str(chi)])
    capsys.readouterr()
    code = main(["evaluate", "--graph", str(graph), "--demands", str(demands),
                 "--chi", str(chi), "--rho", "0.5"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "matrix,mlu"
    assert float(out[1].split(",")[1]) <= 1.0


def test_evaluate_parses_the_graph_once_for_all_demand_files(
    tmp_path, instance_files, capsys, monkeypatch
):
    graph, demands = instance_files
    other = tmp_path / "matrix.1.demands"
    other.write_text("DEMANDS 1\nlabel src dest bw\nd0 0 1 1\n")
    chi = tmp_path / "chi.csv"
    chi.write_text("arc_id,chi\n0,1\n1,1\n2,1\n")
    calls = []

    def spy(text):
        calls.append(text)
        return parse_repetita_graph(text)

    monkeypatch.setattr(greente.cli, "parse_repetita_graph", spy)
    code = main(["evaluate", "--graph", str(graph), "--demands", str(demands), str(other),
                 "--chi", str(chi), "--rho", "0.5"])
    assert code == 0
    assert calls == [GRAPH]
    assert capsys.readouterr().out.splitlines() == ["matrix,mlu", "0,0.500000", "1,0.500000"]


def test_evaluate_builds_the_network_once_for_all_demand_files(
    tmp_path, instance_files, capsys, monkeypatch
):
    graph, demands = instance_files
    other = tmp_path / "matrix.1.demands"
    other.write_text("DEMANDS 1\nlabel src dest bw\nd0 0 1 1\n")
    chi = tmp_path / "chi.csv"
    chi.write_text("arc_id,chi\n0,1\n1,1\n2,1\n")
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return build_network(*args, **kwargs)

    monkeypatch.setattr(greente.repetita, "build_network", spy)
    code = main(["evaluate", "--graph", str(graph), "--demands", str(demands), str(other),
                 str(demands), "--chi", str(chi), "--rho", "0.5"])
    assert code == 0
    assert len(built) == 1
    assert capsys.readouterr().out.splitlines() == [
        "matrix,mlu", "0,0.500000", "1,0.500000", "2,0.500000"
    ]


def test_bench_runs_config(tmp_path, instance_files, capsys):
    graph, demands = instance_files
    config = {
        "instances": [{"id": "tiny", "graph": str(graph), "demands": [str(demands)]}],
        "algorithms": ["f-mspnd", "mcf"],
        "rho": [0.5],
        "mu": [1],
        "modes": ["simplex"],
        "time_limit": 60,
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.csv"
    code = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("instance,matrix,algorithm")
    assert "tiny" in text


def test_bench_config_defaults_are_experiment_config_defaults(tmp_path, instance_files, monkeypatch):
    graph, demands = instance_files
    configs = []
    monkeypatch.setattr(
        greente.cli, "run_experiment", lambda config, instances: configs.append(config) or []
    )
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"instances": [{"graph": str(graph), "demands": [str(demands)]}]}))
    assert main(["bench", "--config", str(cfg)]) == 0
    assert configs == [ExperimentConfig()]


@pytest.mark.parametrize("value", ["off", 0, None])
def test_bench_strengthening_must_be_a_json_boolean(tmp_path, capsys, value):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"instances": [], "strengthening": value}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_bench_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instances": [], "rho": [1.5]}))
    assert main(["bench", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key, value", [
    ("algorithms", "mcf"), ("rho", 0.5), ("mu", 2), ("modes", "simplex"), ("rho", None),
])
def test_bench_list_key_given_a_scalar_names_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instances": [], key: value}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad bench config: {key} must be a list, got {value!r}\n"
    )


def test_bench_unknown_algorithm_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instances": [], "algorithms": ["bogus"]}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: bad bench config: unknown algorithm 'bogus'\n"
    )


@pytest.mark.parametrize("config, rule", [
    ({"instances": [], "modes": ["bogus"]}, "modes must be one of duplex, simplex, got 'bogus'"),
    ({"instances": [], "lengths": "bogus"},
     "lengths must be one of given, invcap, unit, got 'bogus'"),
    ({"instances": [], "lengths": ["unit"]},
     "lengths must be one of given, invcap, unit, got ['unit']"),
    ({"instances": ["a"]}, "instances entry must be an object, got 'a'"),
    ({"instances": [{"graph": 5, "demands": ["d"]}]},
     "instances entry graph must be a string, got 5"),
    ({"instances": 5}, "instances must be a list, got 5"),
], ids=["unknown-mode", "unknown-lengths", "list-lengths", "string-instance", "number-graph",
        "scalar-instances"])
def test_bench_config_errors_name_the_key(tmp_path, capsys, config, rule):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: bad bench config: {rule}\n"


@pytest.mark.parametrize("mu", [1.5, True, "2"])
def test_bench_mu_must_be_a_json_integer(tmp_path, instance_files, capsys, mu):
    graph, demands = instance_files
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "instances": [{"graph": str(graph), "demands": [str(demands)]}], "mu": [mu],
    }))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_file_exits_2(tmp_path):
    assert main(["bench", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("case", ["graph-directory", "graph-not-utf8", "chi-directory"])
def test_unreadable_input_path_exits_2(tmp_path, instance_files, capsys, case):
    graph, demands = instance_files
    if case == "graph-not-utf8":
        graph.write_bytes(b"NODES 3\n\xff\n")
    if case.startswith("graph"):
        args = ["solve", "--algorithm", "mcf"]
    else:
        args = ["evaluate", "--chi", str(tmp_path)]
    args += ["--graph", str(tmp_path if case == "graph-directory" else graph),
             "--demands", str(demands)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_bad_flag_exits_2(instance_files):
    graph, demands = instance_files
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algorithm", "nonsense", "--graph", str(graph),
              "--demands", str(demands)])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_nonpositive_mu_exits_2(instance_files, capsys, command):
    graph, demands = instance_files
    args = [command, "--graph", str(graph), "--demands", str(demands), "--mu", "0"]
    if command == "solve":
        args += ["--algorithm", "mcf"]
    assert main(args) == 2
    assert capsys.readouterr().err == "config error: mu 0 must be an integer >= 1\n"


def test_malformed_graph_exits_2(instance_files, capsys):
    graph, demands = instance_files
    graph.write_text("NODES three\n")
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands)]) == 2
    assert "input error" in capsys.readouterr().err


def test_non_integer_edge_weight_exits_2(instance_files, capsys):
    graph, demands = instance_files
    graph.write_text(GRAPH.replace("e1 0 1 1 6 0", "e1 0 1 1.5 6 0"))
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands)]) == 2
    assert capsys.readouterr().err == "input error: line 10: malformed edge fields\n"


def test_repeated_node_label_exits_2(instance_files, capsys):
    graph, demands = instance_files
    graph.write_text(GRAPH.replace("n0 0 0", "a 0 0").replace("n1 1 0", "a 1 0"))
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands)]) == 2
    assert capsys.readouterr().err == "input error: duplicate vertex 'a'\n"


@pytest.mark.parametrize("lengths", ["given", "unit", "invcap"])
def test_zero_bandwidth_edge_exits_2(instance_files, capsys, lengths):
    graph, demands = instance_files
    graph.write_text(GRAPH.replace("e0 0 2 1 2 0", "e0 0 2 1 0 0"))
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands), "--lengths", lengths]) == 2
    assert capsys.readouterr().err.startswith("input error: ccap must be positive")


def test_bandwidth_beyond_the_float_range_exits_2(instance_files, capsys):
    graph, demands = instance_files
    graph.write_text(GRAPH.replace("e0 0 2 1 2 0", "e0 0 2 1 1e999 0"))
    assert main(["solve", "--algorithm", "mspnd", "--graph", str(graph),
                 "--demands", str(demands)]) == 2
    assert capsys.readouterr().err.startswith("input error: mu and ccap*mu must be finite")


def test_mu_too_large_for_highs_exits_2(instance_files, capsys):
    graph, demands = instance_files
    assert main(["solve", "--algorithm", "mspnd", "--graph", str(graph),
                 "--demands", str(demands), "--mu", "100000000000000000000"]) == 2
    assert capsys.readouterr().err.startswith("input error: mu and ccap*mu must be finite")


def test_mspnd_at_a_large_mu_sets_link_counts_at_once(tmp_path, instance_files):
    # a drop heuristic that lowered each link one connection at a time from
    # mu would take tens of seconds here
    graph, demands = instance_files
    out = tmp_path / "chi.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "greente", "solve", "--algorithm", "mspnd", "--graph", str(graph),
         "--demands", str(demands), "--rho", "0.5", "--mu", "499999", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert ",optimal,166668," in proc.stdout
    assert total(out) == 166_668


@pytest.mark.parametrize("mu", ["500000", "10000000000"])
def test_mu_an_indicator_counted_as_zero_could_switch_on_exits_2(instance_files, capsys, mu):
    graph, demands = instance_files
    assert main(["solve", "--algorithm", "mspnd", "--graph", str(graph),
                 "--demands", str(demands), "--mu", mu]) == 2
    assert capsys.readouterr().err.startswith("input error: mu must be below 500000")


@pytest.mark.parametrize("algorithm", ["mspnd", "mcps", "mcf"])
def test_bandwidths_highs_reads_as_zero_exit_2(tmp_path, algorithm):
    # every bandwidth and the demand scaled by 1e-10: ccap = bw / mu is about
    # 2e-13, below HiGHS's smallest matrix entry, so the LPs would lose it
    graph = tmp_path / "topo.graph"
    graph.write_text(GRAPH.replace("1 2 0\n", "1 2e-10 0\n").replace("1 6 0\n", "1 6e-10 0\n"))
    demands = tmp_path / "matrix.0.demands"
    demands.write_text(DEMANDS.replace(" 2\n", " 2e-10\n"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "greente", "solve", "--algorithm", algorithm, "--graph", str(graph),
         "--demands", str(demands), "--rho", "0.5", "--mu", "1000"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: ccap must be above 1e-09")


def test_demand_to_unknown_vertex_exits_2(instance_files, capsys):
    graph, demands = instance_files
    demands.write_text("DEMANDS 1\nlabel src dest bw\nd0 0 7 2\n")
    assert main(["solve", "--algorithm", "f-mspnd", "--graph", str(graph),
                 "--demands", str(demands)]) == 2
    assert "input error" in capsys.readouterr().err


def test_oracle_rejects_rho_outside_unit_interval(instance_files, capsys):
    graph, demands = instance_files
    assert main(["oracle", "--graph", str(graph), "--demands", str(demands),
                 "--rho", "1.5"]) == 2
    assert capsys.readouterr().err == "config error: rho 1.5 outside (0,1)\n"


@pytest.mark.parametrize("chi_text, error", [
    ("arc_id,chi\n0,1\n1,1\n9,1\n", "activation csv: arc id 9"),
    ("arc_id,chi\n0,5\n1,1\n2,1\n", "activation csv: chi(0)=5"),
    ("arc_id,chi\n", "activation csv: no count"),
    ("arc_id,chi\n0,1\n0,1\n1,1\n2,1\n", "activation csv: arc id 0"),
    ("arc_id,chi\n0,1\n1,0.5\n2,1\n", "activation csv: expected 'arc_id,chi'"),
    # the header is checked, not skipped: without one, arc 0's count is not lost
    ("0,0\n1,1\n2,0\n", "activation csv: expected the header 'arc_id,chi', got '0,0'"),
    ("arc,count\n0,1\n1,1\n2,1\n", "activation csv: expected the header 'arc_id,chi'"),
], ids=["arc-out-of-range", "chi-above-mu", "header-only", "repeated-arc", "fractional-chi",
        "no-header", "wrong-header"])
def test_evaluate_rejects_bad_activation_csv(tmp_path, instance_files, capsys, chi_text, error):
    graph, demands = instance_files
    chi = tmp_path / "chi.csv"
    chi.write_text(chi_text)
    assert main(["evaluate", "--graph", str(graph), "--demands", str(demands),
                 "--chi", str(chi)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {error}")


def test_oracle_on_too_large_instance_exits_2(instance_files, capsys):
    graph, demands = instance_files
    # 301 counts on each of 3 arcs is 2.7e7 activation vectors
    assert main(["oracle", "--graph", str(graph), "--demands", str(demands),
                 "--mu", "300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_oracle_on_unroutable_instance_exits_2(instance_files, capsys, monkeypatch):
    # preprocessing scales traffic to utilization 1 at full activation and rho
    # stays below 1, so no file reaches this error; raise it from the oracle
    def unroutable(net, traffic):
        raise NotRoutableInFull("no feasible activation exists")

    monkeypatch.setattr(greente.cli, "brute_force_mspnd", unroutable)
    graph, demands = instance_files
    assert main(["oracle", "--graph", str(graph), "--demands", str(demands)]) == 2
    assert capsys.readouterr().err == "input error: no feasible activation exists\n"


@pytest.mark.parametrize("rho, rounded", [("0.99999999", "1"), ("0.00000001", "0")])
def test_rho_that_rounds_to_an_end_says_so(instance_files, capsys, rho, rounded):
    # rho is taken at denominator 10**6, so these lie inside (0,1) but round out
    graph, demands = instance_files
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands), "--rho", rho]) == 2
    assert capsys.readouterr().err == (
        f"config error: rho {float(rho)} rounds to {rounded} at denominator 10**6,"
        " outside (0,1)\n"
    )


@pytest.mark.parametrize("rho", ["nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "evaluate", "oracle"])
def test_non_finite_rho_exits_2(tmp_path, instance_files, capsys, command, rho):
    graph, demands = instance_files
    args = [command, "--graph", str(graph), "--demands", str(demands), "--rho", rho]
    if command == "solve":
        args += ["--algorithm", "mcf"]
    if command == "evaluate":
        chi = tmp_path / "chi.csv"
        chi.write_text("arc_id,chi\n0,1\n1,1\n2,1\n")
        args += ["--chi", str(chi)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: rho {rho} outside (0,1)\n"


def test_solve_takes_a_time_limit(instance_files, capsys, monkeypatch):
    graph, demands = instance_files
    limits, solve = [], greente.bench.solve_mspnd

    def spy(*args, time_limit, **kwargs):
        limits.append(time_limit)
        return solve(*args, time_limit=time_limit, **kwargs)

    monkeypatch.setattr(greente.bench, "solve_mspnd", spy)
    assert main(["solve", "--algorithm", "mspnd", "--graph", str(graph),
                 "--demands", str(demands), "--time-limit", "5"]) == 0
    assert limits == [5.0]
    assert capsys.readouterr().out.startswith("arc_id,chi\n")


@pytest.mark.parametrize("limit", ["nan", "-5", "0", "inf"])
def test_bad_time_limit_exits_2(instance_files, capsys, limit):
    graph, demands = instance_files
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands), "--time-limit", limit]) == 2
    assert capsys.readouterr().err == "config error: time limit must be positive and finite\n"


def test_bench_nan_time_limit_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"instances": [], "time_limit": NaN}')
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("limit", [True, False, "5", None, [5]])
def test_bench_time_limit_must_be_a_json_number(tmp_path, capsys, limit):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instances": [], "time_limit": limit}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad bench config: time_limit must be a number, got {limit!r}\n"
    )


def test_bench_time_limit_beyond_the_float_range_exits_2(tmp_path, instance_files, capsys):
    # a 400-digit JSON integer is finite, but the solvers' float clock overflows on it
    graph, demands = instance_files
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "instances": [{"graph": str(graph), "demands": [str(demands)]}],
        "algorithms": ["mspnd", "mcps"], "time_limit": 10**400,
    }))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: bad bench config: time limit must be positive and finite\n"
    )


@pytest.mark.parametrize("rho", ["0.5", True])
def test_bench_rho_must_be_a_json_number(tmp_path, capsys, rho):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instances": [], "rho": [rho]}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad bench config: rho must be a number, got {rho!r}\n"
    )


@pytest.mark.parametrize("flag, value, rule", [
    ("--rho", "1.5", "rho 1.5 outside (0,1)"),
    ("--rho", "0.99999999", "rho 0.99999999 rounds to 1 at denominator 10**6, outside (0,1)"),
    ("--rho", "nan", "rho nan outside (0,1)"),
    ("--rho", "inf", "rho inf outside (0,1)"),
    ("--mu", "0", "mu 0 must be an integer >= 1"),
    ("--mu", "-3", "mu -3 must be an integer >= 1"),
    ("--time-limit", "0", "time limit must be positive and finite"),
    ("--time-limit", "-5", "time limit must be positive and finite"),
    ("--time-limit", "nan", "time limit must be positive and finite"),
    ("--time-limit", "inf", "time limit must be positive and finite"),
    ("--time-limit", "1e400", "time limit must be positive and finite"),
])
def test_solve_flag_and_bench_key_obey_one_rule(tmp_path, instance_files, capsys, flag, value, rule):
    graph, demands = instance_files
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands), flag, value]) == 2
    assert capsys.readouterr().err == f"config error: {rule}\n"
    key = flag[2:].replace("-", "_")
    number = {"nan": "NaN", "inf": "Infinity"}.get(value, value)  # as JSON spells it
    instances = json.dumps([{"graph": str(graph), "demands": [str(demands)]}])
    cfg = tmp_path / "bench.json"
    cfg.write_text(f'{{"instances": {instances}, "algorithms": ["mcf"], '
                   f'"{key}": {number if key == "time_limit" else f"[{number}]"}}}')
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: bad bench config: {rule}\n"


def test_bench_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"instances": [')
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_graph_without_edges_exits_2(instance_files, capsys):
    graph, demands = instance_files
    graph.write_text(GRAPH.split("EDGES")[0] + "EDGES 0\nlabel src dest weight bw delay\n")
    assert main(["solve", "--algorithm", "mcf", "--graph", str(graph),
                 "--demands", str(demands)]) == 2
    assert capsys.readouterr().err.startswith("input error: empty arc list")


@pytest.mark.parametrize("value", [[], "matrix.0.demands", None])
def test_bench_instance_demands_must_be_a_non_empty_list(tmp_path, instance_files, capsys, value):
    graph, _ = instance_files
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instances": [{"graph": str(graph), "demands": value}]}))
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
