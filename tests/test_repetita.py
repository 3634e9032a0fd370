from fractions import Fraction

import pytest

from greente import FULL_DUPLEX, SIMPLEX, full_activation, mlu
from greente.model import MissingReverseArc
from greente.repetita import (
    DisconnectedDemand,
    ParseError,
    UnknownNode,
    merge_parallel_edges,
    parse_repetita_demands,
    parse_repetita_graph,
    preprocess,
)

TWO_NODE_GRAPH = """\
NODES 2
label x y
A 0.0 0.0
B 1.0 0.0

EDGES 1
label src dest weight bw delay
edge_0 0 1 3 10 5
"""

SQUARE_GRAPH = """\
NODES 4
label x y
n0 0 0
n1 1 0
n2 1 1
n3 0 1

EDGES 6
label src dest weight bw delay
e0 0 1 2 10 0
e1 1 3 2 10 0
e2 0 2 1 4 0
e3 2 3 1 4 0
e4 0 1 2 6 0
e5 1 0 2 16 0
"""


def test_parse_graph_basics():
    g = parse_repetita_graph(TWO_NODE_GRAPH)
    assert g.nodes == ("A", "B")
    assert g.edges == (("edge_0", 0, 1, 3, Fraction(10)),)


def test_parse_graph_keeps_parallel_edges():
    g = parse_repetita_graph(SQUARE_GRAPH)
    assert len(g.edges) == 6
    merged = merge_parallel_edges(g)
    assert merged[(0, 1)] == (2, Fraction(16))  # min weight, summed bandwidth


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_repetita_graph("NODES x\nheader\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_repetita_graph("NODES 1\nlabel x y\nA 0 0\nEDGES 1\nheader\nbad line\n")
    with pytest.raises(ParseError):
        parse_repetita_graph(TWO_NODE_GRAPH.replace("edge_0 0 1", "edge_0 0 9"))


DEMANDS = """\
DEMANDS 3
label src dest bw
d0 0 1 4
d1 0 1 2
d2 1 0 5
"""


def test_parse_demands_sums_per_pair():
    t = parse_repetita_demands(DEMANDS, num_nodes=2)
    assert t.demand(0, 1) == 6
    assert t.demand(1, 0) == 5


def test_parse_demands_unknown_node():
    with pytest.raises(UnknownNode):
        parse_repetita_demands("DEMANDS 1\nheader\nd0 0 7 3\n", num_nodes=2)


def test_parse_demands_malformed():
    with pytest.raises(ParseError):
        parse_repetita_demands("DEMAND 1\nheader\nd0 0 1 3\n")
    with pytest.raises(ParseError) as err:
        parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 1/0\n")
    assert err.value.line == 3


def test_preprocess_scales_to_unit_utilization():
    g = parse_repetita_graph(TWO_NODE_GRAPH)
    t = parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 6\n", num_nodes=2)
    net, [traffic] = preprocess(g, [t], SIMPLEX, "asGiven", 5)
    assert net.arcs[0].mu == 5
    assert net.arcs[0].ccap == 2  # 10 / 5
    assert traffic.demand(0, 1) == 10  # rescaled from 6 so utilization is 1
    assert mlu(net, full_activation(net), traffic) == 1


def _arc(net, tail, head):
    return next(a for a in net.arcs if (a.tail, a.head) == (tail, head))


def test_preprocess_merges_parallel_arcs():
    g = parse_repetita_graph(SQUARE_GRAPH)
    t = parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 1\n", num_nodes=4)
    net, _ = preprocess(g, [t], SIMPLEX, "asGiven", 5)
    arc = _arc(net, 0, 1)
    assert arc.fcap == 16 and arc.ccap == Fraction(16, 5)


def test_preprocess_length_modes():
    g = parse_repetita_graph(SQUARE_GRAPH)
    t = parse_repetita_demands("DEMANDS 1\nheader\nd0 0 3 1\n", num_nodes=4)
    net, _ = preprocess(g, [t], SIMPLEX, "unit", 1)
    assert all(a.length == 1 for a in net.arcs)
    net, _ = preprocess(g, [t], SIMPLEX, "inverseCapacity", 1)
    # max fcap is 16, so lengths are ceil(16 / fcap)
    assert _arc(net, 0, 1).length == 1
    assert _arc(net, 0, 2).length == 4


def test_preprocess_duplex_requires_reverse():
    g = parse_repetita_graph(TWO_NODE_GRAPH)
    t = parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 1\n", num_nodes=2)
    with pytest.raises(MissingReverseArc):
        preprocess(g, [t], FULL_DUPLEX, "asGiven", 1)


def test_preprocess_rejects_disconnected_demand():
    g = parse_repetita_graph(TWO_NODE_GRAPH)
    t = parse_repetita_demands("DEMANDS 1\nheader\nd0 1 0 2\n", num_nodes=2)
    with pytest.raises(DisconnectedDemand):
        preprocess(g, [t], SIMPLEX, "asGiven", 1)


def test_preprocess_parallel_merge_splits_capacity_over_connections():
    text = (
        "NODES 2\nlabel x y\nA 0 0\nB 1 0\n\n"
        "EDGES 2\nlabel src dest weight bw delay\n"
        "e0 0 1 2 3 0\ne1 0 1 4 7 0\n"
    )
    g = parse_repetita_graph(text)
    t = parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 1\n", num_nodes=2)
    net, _ = preprocess(g, [t], SIMPLEX, "asGiven", 5)
    arc = net.arcs[0]
    assert arc.fcap == 10 and arc.ccap == 2 and arc.mu == 5 and arc.length == 2



@pytest.mark.parametrize("text, line", [
    (TWO_NODE_GRAPH + "edge_1 1 0 3 10 5\n", 9),
    (TWO_NODE_GRAPH + "\nNODES 1\n", 10),
], ids=["edge-line-beyond-count", "extra-block"])
def test_parse_graph_rejects_content_after_the_last_block(text, line):
    with pytest.raises(ParseError) as err:
        parse_repetita_graph(text)
    assert err.value.line == line


def test_parse_demands_count_is_strict():
    with pytest.raises(ParseError):
        parse_repetita_demands("DEMANDS 2\nheader\nd0 0 1 3\n", num_nodes=2)
    with pytest.raises(ParseError):
        parse_repetita_demands("DEMANDS -1\nheader\n", num_nodes=2)
    with pytest.raises(ParseError) as err:
        parse_repetita_demands("DEMANDS 1\nheader\nd0 0 1 3\nd1 1 0 2\n", num_nodes=2)
    assert err.value.line == 4


def test_parse_demands_rejects_negative_volume_but_drops_zero_and_self_pairs():
    t = parse_repetita_demands("DEMANDS 3\nheader\nd0 0 1 0\nd1 1 1 5\nd2 1 0 2\n", num_nodes=2)
    assert t.terminals == ((1, 0),) and t.demand(1, 0) == 2
    with pytest.raises(ParseError) as err:
        parse_repetita_demands("DEMANDS 2\nheader\nd0 0 1 3\n\nd1 1 0 -4\n", num_nodes=2)
    assert err.value.line == 5
