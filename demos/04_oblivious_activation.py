"""Traffic-oblivious cable activation by LP rounding.

No traffic matrix at all: the guarantee is that any matrix the full network
can carry as a multicommodity flow stays carriable, scaled by rho, in the
activated subnetwork.  The LP routes every arc's own scaled capacity from its
tail to its head, one commodity per tail vertex; rounding its activation
variables up is already a good solution, and iteratively re-solving while
fixing the variable closest to its next integer trims it further.
"""
from fractions import Fraction

from greente import build_network
from greente.lp import solve_lp
from greente.toca import alg_mcf, alg_mcf_pp, build_toca_lp, supports_scaled_traffic

net = build_network([
    (0, 1, 2, 1, 3), (1, 0, 2, 1, 3),
    (1, 2, 2, 1, 3), (2, 1, 2, 1, 3),
    (0, 2, 1, 2, 3), (2, 0, 1, 2, 3),
])
rho = Fraction(1, 2)

lp = build_toca_lp(net, rho)
sol = solve_lp(lp.model, "exact")
print("fractional activations:")
for arc in net.arcs:
    print(f"  arc {arc.tail}->{arc.head}: x = {sol.primal[lp.x_col[arc.id]]}")
print("fractional total:", sol.objective)

rounded = alg_mcf(net, rho)
print("round-up activation:   ", rounded.counts, "total", rounded.value)

fixed = alg_mcf_pp(net, rho)
print("iterative fixing yields:", fixed.counts, "total", fixed.value)
assert fixed.value <= rounded.value

# Both subnetworks still admit the simultaneous rho-scaled embedding flow.
print("round-up keeps the guarantee:", supports_scaled_traffic(net, rho, rounded))
print("fixing keeps the guarantee:  ", supports_scaled_traffic(net, rho, fixed))
