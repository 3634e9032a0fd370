"""Scale probe: strengthened MSPND on a 20-node TZ-like REPETITA instance.

The MSPND cells of the ``tz-batch`` benchmark pipeline at 20 nodes instead
of 10: ``_tz_texts(3, 20, 8, 3)`` gives 3 demand matrices, solved at rho
1/2, mu 1 and unit lengths in both duplex modes, with a time limit of 60 s
per cell.  Prints one line per cell: time, status, value and bound.  A
report, not a test.  Run from the repository root:

    PYTHONPATH=src python3 scripts/scale_probe.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from greente import bench, repetita  # noqa: E402
from perfbench.workloads import _tz_texts  # noqa: E402

N = 20
graph, demand_texts = _tz_texts(3, N, 8, 3)
instance = bench.RepetitaInstance(
    "tz-like-20",
    repetita.parse_repetita_graph(graph),
    tuple(repetita.parse_repetita_demands(t, num_nodes=N) for t in demand_texts),
)
config = bench.ExperimentConfig(
    algorithms=("mspnd",), rhos=(0.5,), mus=(1,), modes=bench.MODES,
    time_limit=60, length_mode="unit",
)
for row in bench.run_experiment(config, [instance]):
    print(f"{row.mode} matrix {row.matrix}: {row.runtime_seconds:.2f} s "
          f"{row.status} value {row.active_connections} bound {row.bound}", flush=True)
