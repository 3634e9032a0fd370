"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""
import random
import time
from fractions import Fraction

from greente import (
    TrafficMatrix,
    build_network,
    extract_cut,
    is_spr_routable,
    max_flow,
    mlu,
    scale_traffic,
)
from greente.bench import CSV_HEADER, ExperimentConfig, RepetitaInstance, emit_report, run_experiment
from greente.lp import solve_lp
from greente.mcps import audit_retention, make_instance, solve_mcps
from greente.mspnd import (
    MspndModel,
    add_path_column,
    brute_force_mspnd,
    root_lp_value,
    solve_f_mspnd,
    solve_mspnd,
)
from greente.repetita import parse_repetita_demands, parse_repetita_graph
from greente.routing import make_path
from greente.toca import alg_mcf, alg_mcf_pp, supports_scaled_traffic
from conftest import (
    OVERLAP_SPECS,
    all_pairs_traffic,
    complete_digraph,
    enumerate_paths,
    random_net,
    random_routable_instance,
)
from test_mcps import brute_force_mcps_value
from test_flows import brute_force_min_cut


def test_criterion_1_overlap_gadget_lp_values():
    start = time.perf_counter()
    net = build_network(OVERLAP_SPECS)
    traffic = TrafficMatrix({(0, 5): 2, (0, 2): 1})
    plain = root_lp_value(net, traffic, strengthening=False, mode="exact")
    assert plain == Fraction(17, 2)
    strengthened = root_lp_value(net, traffic, strengthening=True, mode="exact")
    assert strengthened == 9
    result = solve_mspnd(net, traffic)
    assert result.status == "optimal" and result.value == 9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: root {plain} / strengthened {strengthened} / "
          f"optimum {result.value} in {elapsed:.2f}s")


def test_criterion_2_exact_solver_matches_oracle_on_100_instances():
    rng = random.Random(20260809)
    start = time.perf_counter()
    for i in range(100):
        net, traffic = random_routable_instance(rng, n_max=6, arcs_max=8, mu_max=2)
        result = solve_mspnd(net, traffic)
        oracle = brute_force_mspnd(net, traffic)
        assert result.status == "optimal", f"instance {i} not solved"
        assert result.value == oracle.value, f"instance {i}: {result.value} != {oracle.value}"
        assert is_spr_routable(net, result.activation, traffic)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nCRITERION 2 PASS: 100/100 oracle matches in {elapsed:.1f}s")


def test_criterion_3_pricing_reaches_the_full_model_value():
    rng = random.Random(33)
    start = time.perf_counter()
    for i in range(25):
        net, traffic = random_routable_instance(rng, n_max=5, arcs_max=8)
        model = MspndModel(net, traffic, strengthening=False)
        for pair in traffic.terminals:
            model.ensure_pair(pair)
        for pair in traffic.terminals:
            for arcs in sorted(
                enumerate_paths(net, *pair),
                key=lambda a: make_path(net, a).order_key(),
            ):
                add_path_column(model, pair, make_path(net, arcs))
        full_value = solve_lp(model.lp, "exact").objective
        cg_value = root_lp_value(net, traffic, strengthening=False, mode="exact")
        assert cg_value == full_value, f"instance {i}"
    print(f"\nCRITERION 3 PASS: 25/25 column-generation values equal full enumeration "
          f"in {time.perf_counter()-start:.1f}s")


def test_criterion_4_mcps_matches_enumeration_with_retention_audit():
    rng = random.Random(404)
    rhos = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    start = time.perf_counter()
    for i in range(100):
        net = random_net(rng, n_max=5, arcs_max=7, mu_max=2)
        rho = rhos[i % 3]
        result = solve_mcps(net, rho)
        assert result.status == "optimal", f"instance {i}"
        assert result.value == brute_force_mcps_value(net, rho), f"instance {i}"
        assert audit_retention(make_instance(net, rho), result.activation), f"instance {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nCRITERION 4 PASS: 100/100 enumeration matches + retention audits in {elapsed:.1f}s")


def test_criterion_5_min_cut_duality_on_200_digraphs():
    rng = random.Random(505)
    start = time.perf_counter()
    for i in range(200):
        net = random_net(rng, n_max=6, arcs_max=10, mu_max=2)
        caps = {a.id: Fraction(rng.randint(0, 8), rng.randint(1, 3)) for a in net.arcs}
        s, t = 0, net.n_vertices - 1
        flow = max_flow(net, caps, s, t)
        front = extract_cut(net, caps, flow, s, t, "front")
        back = extract_cut(net, caps, flow, s, t, "back")
        assert front.capacity == flow.value == back.capacity, f"instance {i}"
        assert brute_force_min_cut(net, caps, s, t) == flow.value, f"instance {i}"
    print(f"\nCRITERION 5 PASS: 200/200 front = back = max flow = enumerated min cut "
          f"in {time.perf_counter()-start:.1f}s")


def test_criterion_6_oblivious_activation_properties():
    rng = random.Random(606)
    start = time.perf_counter()
    for i in range(50):
        net = random_net(rng, n_max=5, arcs_max=8, mu_max=3)
        rho = Fraction(rng.choice([3, 5, 7]), 10)
        rounded = alg_mcf(net, rho)
        fixed = alg_mcf_pp(net, rho)
        assert supports_scaled_traffic(net, rho, rounded), f"instance {i} round-up"
        assert supports_scaled_traffic(net, rho, fixed), f"instance {i} fixing"
        assert fixed.value <= rounded.value, f"instance {i} ordering"
        # oblivious: recomputing under any permuted traffic context changes nothing
        assert alg_mcf(net, rho).counts == rounded.counts
    print(f"\nCRITERION 6 PASS: 50/50 routable, ordered, oblivious in "
          f"{time.perf_counter()-start:.1f}s")


def test_criterion_7_fixed_routing_guarantees():
    rng = random.Random(707)
    start = time.perf_counter()
    checked = 0
    for i in range(40):
        net, traffic = random_routable_instance(rng, n_max=6, arcs_max=9, mu_max=2)
        for rho in (Fraction(3, 10), Fraction(7, 10)):
            scaled = scale_traffic(traffic, rho)
            act = solve_f_mspnd(net, scaled)
            assert mlu(net, act, scaled) <= 1, f"instance {i} rho {rho}"
            exact = solve_mspnd(net, scaled)
            if exact.status == "optimal":
                assert act.value >= exact.value, f"instance {i} rho {rho}"
                checked += 1
    assert checked > 0
    print(f"\nCRITERION 7 PASS: fixed routing never exceeds utilization 1 and "
          f"never beats the optimum ({checked} comparisons) in {time.perf_counter()-start:.1f}s")


def test_criterion_8_complete_digraph_gap():
    start = time.perf_counter()
    n = 6
    net = complete_digraph(n, ccap=1000)
    traffic = all_pairs_traffic(n, Fraction(1, 100))
    fixed = solve_f_mspnd(net, traffic)
    assert fixed.value == n * (n - 1) == 30
    result = solve_mspnd(net, traffic, time_limit=115)
    assert result.value <= n
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"\nCRITERION 8 PASS: fixed routing keeps {fixed.value}, exact design "
          f"{result.value} ({result.status}) in {elapsed:.1f}s")


TZ_LIKE_GRAPH_HEADER = """\
NODES {n}
label x y
{nodes}

EDGES {m}
label src dest weight bw delay
{edges}
"""


def _tz_like_instance(rng: random.Random, n: int, matrices: int) -> RepetitaInstance:
    """Ring plus random chords, symmetric arcs, five matrices - TZ texture."""
    links = set()
    for i in range(n):
        links.add((i, (i + 1) % n))
    while len(links) < n + 3:
        u, v = rng.sample(range(n), 2)
        links.add((u, v))
    edges = []
    for (u, v) in sorted(links):
        bw = rng.choice([10, 40, 100])
        weight = rng.randint(1, 5)
        edges.append((u, v, weight, bw))
        edges.append((v, u, weight, bw))
    edge_lines = "\n".join(
        f"e{k} {u} {v} {w} {bw} 0" for k, (u, v, w, bw) in enumerate(edges)
    )
    node_lines = "\n".join(f"n{i} 0 {i}" for i in range(n))
    text = TZ_LIKE_GRAPH_HEADER.format(n=n, m=len(edges), nodes=node_lines, edges=edge_lines)
    precursor = parse_repetita_graph(text)
    mats = []
    for _ in range(matrices):
        count = rng.randint(3, 6)
        lines = [f"DEMANDS {count}", "label src dest bw"]
        for k in range(count):
            s, t = rng.sample(range(n), 2)
            lines.append(f"d{k} {s} {t} {rng.randint(1, 20)}")
        mats.append(parse_repetita_demands("\n".join(lines) + "\n", num_nodes=n))
    return RepetitaInstance("tz-like", precursor, tuple(mats))


def test_criterion_9_tz_subset_runs_end_to_end():
    rng = random.Random(909)
    inst = _tz_like_instance(rng, n=10, matrices=5)
    config = ExperimentConfig(
        algorithms=("mspnd", "f-mspnd", "mcps", "mcf", "mcf++"),
        rhos=(0.5,),
        mus=(1,),
        modes=("simplex", "full-duplex"),
        time_limit=600,
        length_mode="unit",
    )
    start = time.perf_counter()
    rows = run_experiment(config, [inst])
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    aware_rows = 2 * 2 * 5   # two modes, two traffic-aware algorithms, five matrices
    oblivious_rows = 2 * 3
    assert len(rows) == aware_rows + oblivious_rows
    for row in rows:
        assert not row.status.startswith("error:"), row
        assert len(row.mlu) == 5
    text = emit_report(rows, "csv")
    assert text.splitlines()[0] == CSV_HEADER
    print(f"\nCRITERION 9 PASS: {len(rows)} report rows, all metric columns emitted, "
          f"batch completed in {elapsed:.1f}s")
