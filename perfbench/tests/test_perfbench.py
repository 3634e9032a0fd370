"""Tiny-size tests of the benchmark itself: metric names and units, the
failure count, the tracer, and the refusal to run without the package.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAKERS = dict(workloads.WORKLOADS)


def tiny(name, reference=None):
    def build(seed):
        wl = MAKERS[name](seed, tiny=True)
        wl.reference = reference
        return wl
    return build


def run_main(monkeypatch, tmp_path, capsys, name, trace, build=None):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, name, build or tiny(name))
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_are_printed_with_units(monkeypatch, tmp_path, capsys, name):
    out, result = run_main(monkeypatch, tmp_path, capsys, name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                   for line in out)
        assert result["metrics"][metric]["value"] > 0
    assert any(line.startswith(f"{name} failed_frac 0 ratio") for line in out)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_are_printed_with_units(monkeypatch, tmp_path, capsys, name):
    out, result = run_main(monkeypatch, tmp_path, capsys, name, trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                   for line in out)
    spans = (tmp_path / f"{name}-seed3-trace1.spans.jsonl").read_text().splitlines()
    assert len(spans) >= result["metrics"]["trace.spans"]["value"] > 0


def test_layer_counts_repeat_across_traced_runs(monkeypatch, tmp_path, capsys):
    counts = []
    for _ in range(2):
        _, result = run_main(monkeypatch, tmp_path, capsys, "tz-batch", trace=1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["lp.solves"] > 0 and counts[0]["flows.maxflow_calls"] > 0


def test_a_wrong_reference_raises_failed_frac(monkeypatch, tmp_path, capsys):
    good = workloads.ring_mcps(0, tiny=True)
    results = [call() for _, call in good.calls]
    value = results[0].value
    assert not any(good.audit(results, {"solve_mcps": value}).values())
    build = tiny("ring-mcps", reference={"solve_mcps": value + 1})
    out, result = run_main(monkeypatch, tmp_path, capsys, "ring-mcps", 0, build)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("ring-mcps failed_frac 1 ratio") for line in out)
    assert any(line.startswith("FAILED solve_mcps: value") for line in out)


def test_seeds_change_only_fields_the_solvers_ignore():
    for name, build in workloads.WORKLOADS.items():
        answers = []
        for seed in (0, 1):
            wl = build(seed, tiny=True)
            answers.append(wl.summarize([call() for _, call in wl.calls]))
        assert answers[0] == answers[1], name
    assert workloads._tz_texts(0, 4, 1, 2) != workloads._tz_texts(1, 4, 1, 2)


def test_tracer_nests_recursive_spans_and_restores_modules():
    from greente import mspnd

    original = mspnd.add_path_column
    wl = workloads.tz_batch(0, tiny=True)
    tracer = layers.Tracer()
    with tracer:
        assert mspnd.add_path_column is not original
        run.run_pass(wl, tracer)
    assert mspnd.add_path_column is original
    by_id = {s[0]: s for s in tracer.spans}
    names = {s[1] for s in tracer.spans}
    assert {"bench", "solver", "lp.solve", "lp.highs", "flows.maxflow"} <= names
    nested = [s for s in tracer.spans
              if s[1] == "mspnd.column" and by_id[s[4]][1] == "mspnd.column"]
    assert nested, "subpath columns should nest inside their parent column"
    assert all(s[6] >= 0 for s in tracer.spans)
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["call:run_experiment"]
    assert all(s[5] == roots[0][5] for s in tracer.spans)


def test_benchmark_spec_matches_the_layer_table():
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    table = {name: (unit, better) for name, (unit, better, _) in layers.LAYER_METRICS.items()}
    name, unit, better = layers.OVERHEAD_METRIC
    table[name] = (unit, better)
    assert per_layer == table
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "k6-mspnd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
