"""Seeded inputs, timed solver calls and answer checks for the four workloads.

Each workload solves one pinned instance.  The seed draws only input fields
that the measured solvers do not read: arc lengths for MCPS and TOCA (both
work on capacities alone), and for the REPETITA batch, which runs with unit
lengths, the link weights, node coordinates, delays and the order of edge and
demand lines.  The answers are therefore the same for every seed and are
checked against pinned references for every seed, next to the audits.

Seeds do not redraw topologies or relabel vertices because the work would
then change with the seed: MCPS on six random 10-node rings took 0.5 s to
6.5 s a solve, and relabelled copies of one ring still ranged 1.4 s to 3.4 s.
The spread across ten seeds would then measure instance difficulty, not the
code.  The solvers receive only the generated inputs, and every check runs
outside the timed region.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from greente import bench, mcps, mspnd, repetita, routing, toca
from greente.model import FULL_DUPLEX, SIMPLEX, TrafficMatrix, build_network

RHO_HALF = Fraction(1, 2)
TOCA_RHOS = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))

# Answers pinned from the solvers at the commit that added this benchmark.
REFERENCES: dict[str, dict] = {
    "k6-mspnd": {"solve_mspnd": 6},
    "ring-mcps": {"solve_mcps": 32},
    "toca-sweep": {
        "mcf@3/10": 112, "mcf++@3/10": 102,
        "mcf@1/2": 172, "mcf++@1/2": 162,
        "mcf@7/10": 230, "mcf++@7/10": 220,
    },
    "tz-batch": {  # active connections per report row
        "simplex/mspnd/0": 7, "simplex/mspnd/1": 7, "simplex/mspnd/2": 7,
        "simplex/mspnd/3": 7, "simplex/mspnd/4": 8, "simplex/f-mspnd/0": 7,
        "simplex/f-mspnd/1": 7, "simplex/f-mspnd/2": 9, "simplex/f-mspnd/3": 7,
        "simplex/f-mspnd/4": 8, "simplex/mcps/-": 19, "simplex/mcf/-": 22,
        "simplex/mcf++/-": 20, "full-duplex/mspnd/0": 12, "full-duplex/mspnd/1": 12,
        "full-duplex/mspnd/2": 12, "full-duplex/mspnd/3": 10, "full-duplex/mspnd/4": 12,
        "full-duplex/f-mspnd/0": 12, "full-duplex/f-mspnd/1": 14, "full-duplex/f-mspnd/2": 16,
        "full-duplex/f-mspnd/3": 10, "full-duplex/f-mspnd/4": 14, "full-duplex/mcps/-": 20,
        "full-duplex/mcf/-": 22, "full-duplex/mcf++/-": 20,
    },
}


@dataclass
class Workload:
    """One workload at one seed: the timed calls and how to judge them.

    ``calls`` run back to back inside the timed region.  ``summarize`` maps
    their results to one hashable answer per solver run (a ``run_experiment``
    call stands for all the rows it reports), and ``audit`` returns the
    problems found per solver run, given the pinned references or None; both
    run outside the timed region.
    """

    calls: list[tuple[str, Callable[[], object]]]
    units: tuple[str, ...]
    summarize: Callable[[list], dict[str, object]]
    audit: Callable[[list, dict | None], dict[str, list[str]]]
    reference: dict | None


def _ring_links(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """Undirected ring on n vertices plus distinct random chords, as (u, v), u < v."""
    links = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while len(links) < n + chords:
        links.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(links)


def _duplex_ring(base_seed: int, seed: int, n: int, chords: int, ccaps, mu: int):
    """Full-duplex ring plus chords; topology and ccap from ``base_seed``,
    lengths 1-3 from ``seed``."""
    base, lengths = random.Random(base_seed), random.Random(seed)
    specs = []
    for (u, v) in _ring_links(base, n, chords):
        ccap, length = base.choice(ccaps), lengths.randint(1, 3)
        specs += [(u, v, ccap, length, mu), (v, u, ccap, length, mu)]
    return build_network(specs, FULL_DUPLEX)


def _check_value(problems: list, label: str, value, ref) -> None:
    if ref is not None and value != ref.get(label):
        problems.append(f"value {value} != pinned {ref.get(label)}")


def _solver_result(label: str):
    """Answer summary of a solver returning an MspndResult/McpsResult."""
    return lambda results: {label: (results[0].status, results[0].activation.counts)}


# ---------------------------------------------------------------------------
# k6-mspnd: branch-and-price, LP-bound
# ---------------------------------------------------------------------------


def k6_mspnd(seed: int, tiny: bool = False) -> Workload:
    """Complete digraph, ccap 1000, mu 1, every ordered pair at demand 1/100.

    The same input for every seed: MSPND reads every field of it, and neither
    relabelling (the complete digraph maps onto itself) nor reordering arcs
    (one solve then moved between 6.9 s and 13.7 s) is a steady variation.
    """
    n = 3 if tiny else 6
    net = build_network([(u, v, 1000, 1, 1) for u in range(n) for v in range(n) if u != v])
    traffic = TrafficMatrix(
        {(u, v): Fraction(1, 100) for u in range(n) for v in range(n) if u != v}
    )

    def audit(results, ref):
        res, problems = results[0], []
        if res.status != "optimal":
            problems.append(f"status {res.status}")
        if not routing.is_spr_routable(net, res.activation, traffic):
            problems.append("design does not route the demands")
        fixed = mspnd.solve_f_mspnd(net, traffic).value
        if fixed != n * (n - 1):
            problems.append(f"fixed-routing value {fixed} != {n * (n - 1)}")
        _check_value(problems, "solve_mspnd", res.value, ref)
        return {"solve_mspnd": problems}

    return Workload(
        [("solve_mspnd", lambda: mspnd.solve_mspnd(net, traffic, time_limit=115))],
        ("solve_mspnd",),
        _solver_result("solve_mspnd"),
        audit,
        None if tiny else REFERENCES["k6-mspnd"],
    )


# ---------------------------------------------------------------------------
# ring-mcps: branch-and-cut, max-flow-bound
# ---------------------------------------------------------------------------

RING_MCPS_BASE = 5


def ring_mcps(seed: int, tiny: bool = False) -> Workload:
    """Duplex ring plus chords, ccap in {1,2,4}, lengths 1-3, mu 2, rho 1/2."""
    n, chords = (5, 1) if tiny else (10, 6)
    net = _duplex_ring(RING_MCPS_BASE, seed, n, chords, (1, 2, 4), 2)

    def audit(results, ref):
        res, problems = results[0], []
        if res.status != "optimal":
            problems.append(f"status {res.status}")
        if not mcps.audit_retention(mcps.make_instance(net, RHO_HALF), res.activation):
            problems.append("retention audit failed")
        _check_value(problems, "solve_mcps", res.value, ref)
        return {"solve_mcps": problems}

    return Workload(
        [("solve_mcps", lambda: mcps.solve_mcps(net, RHO_HALF))],
        ("solve_mcps",),
        _solver_result("solve_mcps"),
        audit,
        None if tiny else REFERENCES["ring-mcps"],
    )


# ---------------------------------------------------------------------------
# toca-sweep: one large LP, bound changes only
# ---------------------------------------------------------------------------

TOCA_BASE = 20


def toca_sweep(seed: int, tiny: bool = False) -> Workload:
    """Duplex ring plus chords, bandwidth in {10,40,100} split into mu=5
    connections (ccap = bw/mu), ALG-MCF and ALG-MCF++ at three rho values."""
    n, chords, mu = (5, 2, 2) if tiny else (20, 10, 5)
    net = _duplex_ring(TOCA_BASE, seed, n, chords, [Fraction(bw, mu) for bw in (10, 40, 100)], mu)
    calls = []
    for rho in TOCA_RHOS:
        calls.append((f"mcf@{rho}", lambda rho=rho: toca.alg_mcf(net, rho)))
        calls.append((f"mcf++@{rho}", lambda rho=rho: toca.alg_mcf_pp(net, rho)))
    units = tuple(label for label, _ in calls)
    rhos = [rho for rho in TOCA_RHOS for _ in range(2)]

    def audit(results, ref):
        problems = {label: [] for label in units}
        for label, rho, act in zip(units, rhos, results):
            if not toca.supports_scaled_traffic(net, rho, act):
                problems[label].append("does not carry the rho-scaled capacities")
            _check_value(problems[label], label, act.value, ref)
        for k in range(0, len(units), 2):
            if results[k + 1].value > results[k].value:
                problems[units[k + 1]].append(
                    f"mcf++ {results[k + 1].value} > mcf {results[k].value}"
                )
        return problems

    return Workload(
        calls,
        units,
        lambda results: {label: act.counts for label, act in zip(units, results)},
        audit,
        None if tiny else REFERENCES["toca-sweep"],
    )


# ---------------------------------------------------------------------------
# tz-batch: the paper's pipeline, parse -> preprocess -> solve -> MLU
# ---------------------------------------------------------------------------

TZ_BASE = 909
TZ_ALGORITHMS = ("mspnd", "f-mspnd", "mcps", "mcf", "mcf++")
TZ_MODES = (SIMPLEX, FULL_DUPLEX)


def _tz_texts(seed: int, n: int, chords: int, matrices: int):
    """REPETITA graph and demand texts: ring plus chords, symmetric links.

    Topology, bandwidths and demands come from ``TZ_BASE``; weights, node
    coordinates, delays and line order, all unread under unit lengths, from
    ``seed``.
    """
    base, extra = random.Random(TZ_BASE), random.Random(seed)
    links = {(i, (i + 1) % n) for i in range(n)}
    while len(links) < n + chords:
        links.add(tuple(base.sample(range(n), 2)))
    edges = []
    for (u, v) in sorted(links):
        bw, weight = base.choice([10, 40, 100]), extra.randint(1, 5)
        edges += [(u, v, weight, bw), (v, u, weight, bw)]
    demand_sets = [
        [(*base.sample(range(n), 2), base.randint(1, 20)) for _ in range(base.randint(3, 6))]
        for _ in range(matrices)
    ]
    extra.shuffle(edges)
    for demands in demand_sets:
        extra.shuffle(demands)
    graph = "\n".join(
        [f"NODES {n}", "label x y"]
        + [f"n{i} {extra.randint(0, 999)} {extra.randint(0, 999)}" for i in range(n)]
        + ["", f"EDGES {len(edges)}", "label src dest weight bw delay"]
        + [f"e{k} {u} {v} {w} {bw} {extra.randint(0, 50)}"
           for k, (u, v, w, bw) in enumerate(edges)]
    ) + "\n"
    demand_texts = [
        "\n".join(
            [f"DEMANDS {len(demands)}", "label src dest bw"]
            + [f"d{k} {s} {t} {bw}" for k, (s, t, bw) in enumerate(demands)]
        ) + "\n"
        for demands in demand_sets
    ]
    return graph, demand_texts


def tz_batch(seed: int, tiny: bool = False) -> Workload:
    """TZ-like REPETITA batch through ``run_experiment``: all five algorithms,
    rho 0.5, mu 1, simplex and full-duplex, unit lengths."""
    n, chords, matrices = (4, 1, 2) if tiny else (10, 3, 5)
    graph, demand_texts = _tz_texts(seed, n, chords, matrices)
    instance = bench.RepetitaInstance(
        "tz-like",
        repetita.parse_repetita_graph(graph),
        tuple(repetita.parse_repetita_demands(t, num_nodes=n) for t in demand_texts),
    )
    config = bench.ExperimentConfig(
        algorithms=TZ_ALGORITHMS,
        rhos=(0.5,),
        mus=(1,),
        modes=TZ_MODES,
        time_limit=600,
        length_mode="unit",
    )
    matrix_ids = [str(k) for k in range(matrices)]
    units = tuple(
        f"{mode}/{alg}/{matrix}"
        for mode in TZ_MODES
        for alg in TZ_ALGORITHMS
        for matrix in (matrix_ids if alg in bench.TRAFFIC_AWARE else ["-"])
    )

    def rows_by_unit(results):
        return {f"{r.mode}/{r.algorithm}/{r.matrix}": r for r in results[0]}

    def audit(results, ref):
        rows = rows_by_unit(results)
        problems = {label: [] for label in units}
        for label in units:
            row = rows.get(label)
            if row is None:
                problems[label].append("row missing")
                continue
            if row.status != "optimal":
                problems[label].append(f"status {row.status}")
                continue
            if len(row.mlu) != matrices:
                problems[label].append(f"{len(row.mlu)} MLU values, expected {matrices}")
            elif row.algorithm in bench.TRAFFIC_AWARE and not row.mlu[int(row.matrix)] <= 1:
                problems[label].append(f"MLU {row.mlu[int(row.matrix)]} > 1 on its own matrix")
            _check_value(problems[label], label, row.active_connections, ref)
        for mode in TZ_MODES:
            pairs = [(f"{mode}/mcf++/-", f"{mode}/mcf/-")]
            pairs += [(f"{mode}/mspnd/{k}", f"{mode}/f-mspnd/{k}") for k in matrix_ids]
            for small, large in pairs:
                a, b = rows.get(small), rows.get(large)
                if a and b and a.status == b.status == "optimal" \
                        and a.active_connections > b.active_connections:
                    problems[small].append(
                        f"{a.active_connections} connections > {large} {b.active_connections}"
                    )
        extra = sorted(set(rows) - set(units))
        if extra:
            problems[units[0]].append(f"unexpected rows {extra}")
        return problems

    return Workload(
        [("run_experiment", lambda: bench.run_experiment(config, [instance]))],
        units,
        lambda results: {
            label: (row.status, row.active_connections)
            for label, row in rows_by_unit(results).items()
        },
        audit,
        None if tiny else REFERENCES["tz-batch"],
    )


WORKLOADS = {
    "k6-mspnd": k6_mspnd,
    "ring-mcps": ring_mcps,
    "toca-sweep": toca_sweep,
    "tz-batch": tz_batch,
}
