"""Exact minimum-activation design under shortest-path routing.

The hard part: deactivating a link *changes* the shortest paths, so routing
and network design must be decided together.  The exact solver works on a
path-based integer program whose path columns are generated on demand by a
constrained-shortest-path search; subpath tie rows strengthen the relaxation.
"""
import time
from fractions import Fraction

from greente import TrafficMatrix, build_network
from greente.mspnd import (
    brute_force_mspnd,
    root_lp_value,
    solve_f_mspnd,
    solve_mspnd,
)

# The fixed-routing baseline cannot touch any link its routes use; the exact
# solver may reroute.  Here the whole direct arc can be switched off.
triangle = build_network([(0, 2, 1, 1, 3), (0, 1, 3, 1, 1), (1, 2, 3, 1, 1)])
traffic = TrafficMatrix({(0, 2): 3})
print("fixed routing keeps:", solve_f_mspnd(triangle, traffic).counts)
print("exact design keeps: ", solve_mspnd(triangle, traffic).activation.counts)
print("oracle agrees:      ", brute_force_mspnd(triangle, traffic).counts)

# A 14-arc gadget where the plain relaxation is fractional (17/2) and the
# subpath rows close the gap to the integer optimum of 9.
gadget = build_network([
    (0, 2, 1, 1, 1), (0, 1, 1, 1, 1), (1, 2, 1, 1, 1),
    (2, 3, 2, 1, 1), (3, 4, 2, 1, 1), (4, 5, 2, 1, 1),
    (0, 6, 2, 1, 1), (6, 7, 2, 1, 1), (7, 8, 2, 1, 1), (8, 9, 2, 1, 1),
    (9, 10, 2, 1, 1), (10, 11, 2, 1, 1), (11, 12, 2, 1, 1), (12, 5, 2, 1, 1),
])
demands = TrafficMatrix({(0, 5): 2, (0, 2): 1})
print("\nroot relaxation, plain:       ", root_lp_value(gadget, demands, strengthening=False, mode="exact"))
print("root relaxation, strengthened:", root_lp_value(gadget, demands, strengthening=True, mode="exact"))
print("integer optimum:              ", solve_mspnd(gadget, demands).value)

# Complete digraph: fixed routing must keep every link alive, while a single
# spanning cycle suffices for the exact design - a factor-|V| gap.
n = 6
complete = build_network(
    [(u, v, 1000, 1, 1) for u in range(n) for v in range(n) if u != v]
)
tiny_all_pairs = TrafficMatrix(
    {(u, v): Fraction(1, 100) for u in range(n) for v in range(n) if u != v}
)
start = time.perf_counter()
fixed = solve_f_mspnd(complete, tiny_all_pairs)
exact = solve_mspnd(complete, tiny_all_pairs, time_limit=110)
print(f"\ncomplete digraph on {n}: fixed keeps {fixed.value}, "
      f"exact keeps {exact.value} ({exact.status}, {time.perf_counter()-start:.1f}s)")
