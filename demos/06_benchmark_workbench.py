"""End-to-end benchmark runs over REPETITA-format instances.

Writes a tiny topology and two demand files, preprocesses them (parallel-arc
merging, length modes, scaling traffic to utilization exactly 1), runs all
five algorithms over a parameter grid, and emits the report.  The same flow
is scriptable from the shell:

    greente bench --config bench.json --format csv
    greente solve --algorithm mspnd --graph topo.graph --demands m.demands \
        --rho 0.5 --out chi.csv
    greente evaluate --graph topo.graph --demands m.demands --chi chi.csv
"""
import tempfile
from pathlib import Path

from greente.bench import ExperimentConfig, RepetitaInstance, emit_report, run_experiment
from greente.repetita import parse_repetita_demands, parse_repetita_graph, preprocess

GRAPH = """\
NODES 5
label x y
n0 0 0
n1 1 0
n2 2 0
n3 2 1
n4 1 1

EDGES 12
label src dest weight bw delay
e0 0 1 1 40 0
e1 1 0 1 40 0
e2 1 2 1 40 0
e3 2 1 1 40 0
e4 2 3 1 10 0
e5 3 2 1 10 0
e6 3 4 1 10 0
e7 4 3 1 10 0
e8 4 0 1 40 0
e9 0 4 1 40 0
e10 1 4 2 10 0
e11 4 1 2 10 0
"""

MATRICES = [
    "DEMANDS 3\nlabel src dest bw\nd0 0 2 9\nd1 3 0 4\nd2 1 3 5\n",
    "DEMANDS 3\nlabel src dest bw\nd0 2 0 7\nd1 0 3 6\nd2 4 2 3\n",
]

precursor = parse_repetita_graph(GRAPH)
matrices = tuple(parse_repetita_demands(m, num_nodes=5) for m in MATRICES)

# Preprocessing builds the network once per (duplex mode, length mode, mu) and
# normalizes each matrix so the full network sits exactly at utilization 1; the
# experiment then scales by rho to emulate off-peak load.
net, (scaled,) = preprocess(precursor, matrices[:1], "simplex", "unit", 5)
print("preprocessed ccap per arc:", str(net.arcs[0].ccap), "| mu:", net.arcs[0].mu)

instance = RepetitaInstance("demo", precursor, matrices)
config = ExperimentConfig(
    algorithms=("mspnd", "f-mspnd", "mcps", "mcf", "mcf++"),
    rhos=(0.5,),
    mus=(1, 5),
    modes=("simplex",),
    time_limit=120,
    length_mode="unit",
)
rows = run_experiment(config, [instance])
print()
print(emit_report(rows, "csv"))

# The same report serializes as json and can be written through the CLI.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.json"
    out.write_text(emit_report(rows, "json"))
    print(f"json report: {len(out.read_text().splitlines())} lines")
