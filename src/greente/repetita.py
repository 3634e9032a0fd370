"""REPETITA topology/demand ingestion and instance preprocessing.

Each file is a sequence of blocks, and every count is strict: a block holds
exactly its declared number of lines, each with exactly its listed fields,
and nothing but blank lines may follow the last block.

Graph files::

    NODES <n>
    label x y
    <label> <x> <y>          (n lines)

    EDGES <m>
    label src dest weight bw delay
    <label> <src> <dest> <weight> <bw> <delay>

Demand files::

    DEMANDS <k>
    label src dest bw
    <label> <src> <dest> <bw>

Preprocessing merges parallel arcs (capacities add, weights take the min) and
applies the requested duplex mode, length mode and per-link connection count
once per network, then scales each matrix so the fully active network runs at
a maximum utilization of exactly one.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .model import (
    Network,
    SIMPLEX,
    TrafficMatrix,
    build_network,
    full_activation,
    scale_traffic,
)
from .routing import Disconnected, mlu, spr_route

LENGTH_MODES = ("asGiven", "unit", "inverseCapacity")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownNode(ValueError):
    pass


class DisconnectedDemand(RuntimeError):
    pass


@dataclass(frozen=True)
class GraphPrecursor:
    """Parsed topology before preprocessing; parallel edges are preserved."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, int, int, int, Fraction], ...]  # label, src, dst, weight, bw


def _read_blocks(text: str, *layouts: tuple[str, str]) -> list[list[tuple[int, list[str]]]]:
    """Each ``(keyword, columns)`` block in turn: a ``<KEYWORD> <count>``
    header, one column-header line, then exactly ``count`` lines of the fields
    ``columns`` names.  Blank lines are skipped; any content after the last
    block is an error.  Returns each block's (line number, fields) rows."""
    lines = ((n, raw.split()) for n, raw in enumerate(text.splitlines(), start=1) if raw.strip())

    def next_line(what: str) -> tuple[int, list[str]]:
        try:
            return next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected {what}", 0) from None

    blocks = []
    for keyword, columns in layouts:
        lineno, parts = next_line(f"{keyword} header")
        if len(parts) != 2 or parts[0].upper() != keyword:
            raise ParseError(f"expected '{keyword} <count>'", lineno)
        try:
            count = int(parts[1])
        except ValueError:
            raise ParseError(f"{keyword} count is not an integer", lineno) from None
        if count < 0:
            raise ParseError(f"{keyword} count is negative", lineno)
        next_line(f"{keyword} column header")
        rows = []
        for _ in range(count):
            lineno, fields = next_line(f"{count} {keyword} lines")
            if len(fields) != len(columns.split()):
                raise ParseError(f"expected '{columns}'", lineno)
            rows.append((lineno, fields))
        blocks.append(rows)
    for lineno, _ in lines:
        raise ParseError(f"content after the {layouts[-1][0]} block", lineno)
    return blocks


def parse_repetita_graph(text: str) -> GraphPrecursor:
    node_rows, edge_rows = _read_blocks(
        text,
        ("NODES", "<label> <x> <y>"),
        ("EDGES", "<label> <src> <dest> <weight> <bw> <delay>"),
    )
    n_nodes, edges = len(node_rows), []
    for lineno, (label, src, dst, weight, bw, _) in edge_rows:
        try:
            src, dst, weight, bw = int(src), int(dst), int(weight), Fraction(bw)
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
            raise ParseError("malformed edge fields", lineno) from None
        if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise ParseError(f"edge endpoint out of range on edge {label}", lineno)
        edges.append((label, src, dst, weight, bw))
    return GraphPrecursor(tuple(fields[0] for _, fields in node_rows), tuple(edges))


def parse_repetita_demands(text: str, num_nodes: int | None = None) -> TrafficMatrix:
    """Demands summed per ordered pair; zero-volume and self-pair lines drop
    out, a negative volume is an error."""
    [rows] = _read_blocks(text, ("DEMANDS", "<label> <src> <dest> <bw>"))
    demands: dict[tuple[int, int], Fraction] = {}
    for lineno, (_, src, dst, bw) in rows:
        try:
            src, dst, bw = int(src), int(dst), Fraction(bw)
        except (ValueError, ZeroDivisionError):
            raise ParseError("malformed demand fields", lineno) from None
        if bw < 0:
            raise ParseError(f"negative demand volume {bw}", lineno)
        if num_nodes is not None and not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise UnknownNode(f"demand endpoint {src}->{dst} outside the topology")
        if src != dst and bw > 0:
            demands[(src, dst)] = demands.get((src, dst), Fraction(0)) + bw
    return TrafficMatrix(demands)


def merge_parallel_edges(precursor: GraphPrecursor) -> dict[tuple[int, int], tuple[int, Fraction]]:
    """Per ordered pair: (min weight, summed bandwidth)."""
    merged: dict[tuple[int, int], tuple[int, Fraction]] = {}
    for _, src, dst, weight, bw in precursor.edges:
        if (src, dst) in merged:
            w0, b0 = merged[(src, dst)]
            merged[(src, dst)] = (min(w0, weight), b0 + bw)
        else:
            merged[(src, dst)] = (weight, bw)
    return merged


def preprocess(
    precursor: GraphPrecursor,
    matrices: Iterable[TrafficMatrix],
    duplex_mode: str = SIMPLEX,
    length_mode: str = "asGiven",
    mu: int = 1,
) -> tuple[Network, tuple[TrafficMatrix, ...]]:
    """Build the benchmark network once, and normalize each traffic matrix in
    ``matrices`` to a full-network utilization of exactly one, in order."""
    if length_mode not in LENGTH_MODES:
        raise ValueError(f"unknown length mode {length_mode!r}")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    merged = merge_parallel_edges(precursor)
    max_fcap = max((bw for _, bw in merged.values()), default=0)  # no arcs: build_network rejects
    specs = []
    for (src, dst), (weight, bw) in sorted(merged.items()):
        if length_mode == "unit":
            length = 1
        elif length_mode == "inverseCapacity" and bw > 0:  # build_network rejects bw <= 0
            length = int(-(-max_fcap // bw))  # ceil(C_max / fcap), positive integer
        else:
            length = weight
        specs.append((src, dst, bw / mu, length, mu))
    net = build_network(specs, duplex_mode, vertices=precursor.nodes)
    full = full_activation(net)
    normalized = []
    for traffic in matrices:
        for (s, t) in traffic.terminals:
            if not (0 <= s < net.n_vertices and 0 <= t < net.n_vertices):
                raise UnknownNode(f"demand endpoint {s}->{t} outside the topology")
        utilization = mlu(net, full, traffic)
        if utilization == inf:  # routing again names the disconnected pair
            try:
                spr_route(net, full, traffic)
            except Disconnected as exc:
                raise DisconnectedDemand(str(exc)) from exc
        normalized.append(scale_traffic(traffic, 1 / utilization) if utilization > 0 else traffic)
    return net, tuple(normalized)
