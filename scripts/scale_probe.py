"""Scale probe: MSPND and MCPS on a TZ-like REPETITA instance of N nodes.

The MSPND and MCPS cells of the ``tz-batch`` benchmark pipeline at N nodes
(default 20) with CHORDS chords (default 8) instead of 10 and 3:
``_tz_texts(3, N, CHORDS, 3)`` gives 3 demand matrices, solved at rho 1/2,
mu 1 and unit lengths in both duplex modes, with a time limit of 60 s per
cell.  Strengthened and plain MSPND solve each matrix; MCPS, which ignores
the matrices, solves once per mode.  FAMILY (``mspnd`` or ``mcps``) keeps
only that algorithm's cells; MSPND's are both the strengthened and the plain
ones.  Prints one line per cell: time, status, value and bound.  A report,
not a test.  Run from the repository root:

    PYTHONPATH=src python3 scripts/scale_probe.py [N [CHORDS [FAMILY]]]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from greente import bench, repetita  # noqa: E402
from perfbench.workloads import _tz_texts  # noqa: E402

N = int(sys.argv[1]) if len(sys.argv) > 1 else 20
CHORDS = int(sys.argv[2]) if len(sys.argv) > 2 else 8
CELLS = [("mspnd", "mspnd", True), ("plain mspnd", "mspnd", False), ("mcps", "mcps", True)]
FAMILY = sys.argv[3] if len(sys.argv) > 3 else None
if FAMILY not in (None, "mspnd", "mcps"):
    sys.exit(f"unknown family {FAMILY!r}: expected mspnd or mcps")
graph, demand_texts = _tz_texts(3, N, CHORDS, 3)
instance = bench.RepetitaInstance(
    f"tz-like-{N}",
    repetita.parse_repetita_graph(graph),
    tuple(repetita.parse_repetita_demands(t, num_nodes=N) for t in demand_texts),
)
for label, algorithm, strengthening in CELLS:
    if FAMILY not in (None, algorithm):
        continue
    config = bench.ExperimentConfig(
        algorithms=(algorithm,), rhos=(0.5,), mus=(1,), modes=bench.MODES,
        time_limit=60, length_mode="unit", strengthening=strengthening,
    )
    for row in bench.run_experiment(config, [instance]):
        print(f"{label} {row.mode} matrix {row.matrix}: {row.runtime_seconds:.2f} s "
              f"{row.status} value {row.active_connections} bound {row.bound}", flush=True)
