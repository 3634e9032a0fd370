"""Network, traffic, and activation data model shared by all solvers.

Capacities and demands are exact rationals (:class:`fractions.Fraction`);
lengths and connection counts are positive integers.  Vertex and arc ids are
dense integers assigned in input order, so all tie-breaking downstream is
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

from .lp import HIGHS_MAX_COEF, HIGHS_MIN_COEF, INT_TOL

Rational = Union[int, Fraction]


class NetworkError(ValueError):
    """Base class for network construction/validation failures."""


class DuplicateArc(NetworkError):
    pass


class MissingReverseArc(NetworkError):
    pass


class NonPositiveParameter(NetworkError):
    pass


class InconsistentDuplexArc(NetworkError):
    """Paired full-duplex arcs disagree on ccap or mu."""


SIMPLEX = "simplex"
FULL_DUPLEX = "full-duplex"


@dataclass(frozen=True)
class Arc:
    """One directed link: ``mu`` connections of ``ccap`` capacity units each."""

    id: int
    tail: int
    head: int
    ccap: Fraction
    length: int
    mu: int

    @property
    def fcap(self) -> Fraction:
        return self.ccap * self.mu


@dataclass(frozen=True)
class Network:
    vertex_names: tuple[str, ...]
    arcs: tuple[Arc, ...]
    link_pair: tuple[int, ...] | None = None  # arc id -> reverse arc id; None in simplex mode

    @property
    def duplex_mode(self) -> str:
        return SIMPLEX if self.link_pair is None else FULL_DUPLEX

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_arcs(self) -> tuple[tuple[Arc, ...], ...]:
        buckets: list[list[Arc]] = [[] for _ in range(self.n_vertices)]
        for arc in self.arcs:
            buckets[arc.tail].append(arc)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def in_arcs(self) -> tuple[tuple[Arc, ...], ...]:
        buckets: list[list[Arc]] = [[] for _ in range(self.n_vertices)]
        for arc in self.arcs:
            buckets[arc.head].append(arc)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def residual_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Static residual graph for max-flow: each vertex's residual edges,
        in arc order, as (edge id, head) pairs; edge ``2a`` runs along arc
        ``a``, edge ``2a + 1`` against it."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for a, arc in enumerate(self.arcs):
            adj[arc.tail].append((2 * a, arc.head))
            adj[arc.head].append((2 * a + 1, arc.tail))
        return tuple(tuple(edges) for edges in adj)

    @cached_property
    def lengths_to(self) -> tuple[dict[int, int], ...]:
        """Full-network shortest lengths into every vertex: ``lengths_to[v][u]``
        from u, for every u that reaches v (``routing.costs_to`` over arc
        lengths).  Built once per network, for every traffic matrix on it."""
        from .routing import costs_to  # routing imports this module

        lengths = [a.length for a in self.arcs]
        return tuple(costs_to(self, lengths, v) for v in range(self.n_vertices))

    @cached_property
    def ccap_scale(self) -> int:
        """Lcm of the ccap denominators: every ccap times it is an integer."""
        return math.lcm(*(arc.ccap.denominator for arc in self.arcs))

    @cached_property
    def links(self) -> tuple[tuple[int, ...], ...]:
        """The units of activation, in lowest-arc-id order: ``(a, reverse)``
        per full-duplex link (``a < reverse``), ``(a,)`` per simplex arc."""
        if self.link_pair is None:
            return tuple((a.id,) for a in self.arcs)
        return tuple((a, rev) for a, rev in enumerate(self.link_pair) if a < rev)


@dataclass(frozen=True)
class TrafficMatrix:
    """Nonnegative demand per ordered terminal pair; zero entries are dropped."""

    demands: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        clean = {}
        for (s, t), d in self.demands.items():
            d = Fraction(d)
            if d < 0:
                raise ValueError(f"negative demand for pair ({s},{t})")
            if s == t:
                raise ValueError(f"self-demand at vertex {s}")
            if d > 0:
                clean[(s, t)] = d
        object.__setattr__(self, "demands", clean)

    @property
    def terminals(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.demands))

    def demand(self, s: int, t: int) -> Fraction:
        return self.demands.get((s, t), Fraction(0))


@dataclass(frozen=True)
class Activation:
    """Per-arc count of active connections; the universal solution type."""

    counts: tuple[int, ...]

    @property
    def value(self) -> int:
        return sum(self.counts)

    def validate(self, net: Network) -> None:
        if len(self.counts) != net.n_arcs:
            raise ValueError("activation length does not match arc count")
        for arc in net.arcs:
            chi = self.counts[arc.id]
            if not 0 <= chi <= arc.mu:
                raise ValueError(f"chi({arc.id})={chi} outside [0,{arc.mu}]")
        for link in net.links:
            if len({self.counts[a] for a in link}) > 1:
                raise ValueError(f"duplex asymmetry on arc {link[0]}")


def decode_activation(net: Network, primal: Mapping, columns: Iterable[int]) -> Activation:
    """Nearest-integer counts of an LP point, validated on ``net``; ``columns``
    lists each arc's column."""
    activation = Activation(tuple(int(round(float(primal.get(j, 0)))) for j in columns))
    activation.validate(net)
    return activation


@dataclass(frozen=True)
class Result:
    """One solver's answer: the activation, ``optimal`` or ``timeout``, and
    the proven lower bound on the optimum (None where none is proven)."""

    activation: Activation
    status: str
    bound: float | None

    @property
    def value(self) -> int:
        return self.activation.value


def _fits_highs(value) -> bool:
    """True if ``value`` is a float that HiGHS accepts as a matrix entry."""
    try:
        return float(value) < HIGHS_MAX_COEF  # False for nan
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def build_network(
    arc_specs: Sequence[tuple],
    duplex_mode: str = SIMPLEX,
    vertices: Iterable[str] | None = None,
) -> Network:
    """Validate arc specs ``(tail, head, ccap, length, mu)`` into a Network.

    Vertices may be referenced by name or integer id; unseen names are
    assigned dense ids in first-appearance order unless ``vertices`` fixes
    the order up front.  In full-duplex mode every arc must have a reverse
    arc; disagreeing lengths harmonize to the minimum, disagreeing
    ccap/mu are rejected.  ``mu`` and ``ccap * mu`` must stay below
    ``lp.HIGHS_MAX_COEF`` and ``ccap`` above ``lp.HIGHS_MIN_COEF``, as the
    LPs carry all three as coefficients, and ``mu`` below
    ``1 / (2 * lp.INT_TOL)`` (500,000).
    """
    if duplex_mode not in (SIMPLEX, FULL_DUPLEX):
        raise ValueError(f"unknown duplex mode {duplex_mode!r}")
    if not arc_specs:
        raise NetworkError("empty arc list")

    names: list[str] = []
    index: dict[str, int] = {}
    if vertices is None and all(
        isinstance(spec[0], int) and isinstance(spec[1], int) for spec in arc_specs
    ):
        # bare integer endpoints are literal vertex ids
        top = max(max(spec[0], spec[1]) for spec in arc_specs)
        vertices = [str(i) for i in range(top + 1)]
    if vertices is not None:
        for name in vertices:
            name = str(name)
            if name in index:
                raise NetworkError(f"duplicate vertex {name!r}")
            index[name] = len(names)
            names.append(name)
    explicit = vertices is not None

    def vid(ref) -> int:
        if isinstance(ref, int) and explicit:
            if not 0 <= ref < len(names):
                raise NetworkError(f"vertex id {ref} out of range")
            return ref
        name = str(ref)
        if name not in index:
            if explicit:
                raise NetworkError(f"unknown vertex {name!r}")
            index[name] = len(names)
            names.append(name)
        return index[name]

    raw: list[tuple[int, int, Fraction, int, int]] = []
    seen_pairs: dict[tuple[int, int], int] = {}
    for spec in arc_specs:
        tail_ref, head_ref, ccap, length, mu = spec
        tail, head = vid(tail_ref), vid(head_ref)
        if tail == head:
            raise NetworkError(f"self-loop arc at vertex {tail}")
        ccap = Fraction(ccap)
        if ccap <= 0:
            raise NonPositiveParameter(f"ccap must be positive on arc {tail}->{head}")
        if int(length) != length or length < 1:
            raise NonPositiveParameter(f"length must be a positive integer on arc {tail}->{head}")
        # mu and ccap enter the LPs as coefficients; ccap <= ccap * mu, as mu >= 1
        if not (_fits_highs(mu) and _fits_highs(ccap * mu)):
            raise NetworkError(
                f"mu and ccap*mu must be finite and below {HIGHS_MAX_COEF:g} on arc {tail}->{head}"
            )
        if int(mu) != mu or mu < 1:
            raise NonPositiveParameter(f"mu must be a positive integer on arc {tail}->{head}")
        # MSPND's row mu*y >= x: a y within INT_TOL of 0 must keep x below 1/2
        if mu >= 1 / (2 * INT_TOL):
            raise NetworkError(f"mu must be below {1 / (2 * INT_TOL):g} on arc {tail}->{head}")
        if float(ccap) <= HIGHS_MIN_COEF:  # HiGHS would read the coefficient as 0
            raise NetworkError(f"ccap must be above {HIGHS_MIN_COEF:g} on arc {tail}->{head}")
        if (tail, head) in seen_pairs:
            raise DuplicateArc(f"parallel arc {tail}->{head}")
        seen_pairs[(tail, head)] = len(raw)
        raw.append((tail, head, ccap, int(length), int(mu)))

    link_pair: tuple[int, ...] | None = None
    if duplex_mode == FULL_DUPLEX:
        pairing = []
        harmonized = []
        for i, (tail, head, ccap, length, mu) in enumerate(raw):
            j = seen_pairs.get((head, tail))
            if j is None:
                raise MissingReverseArc(f"arc {tail}->{head} lacks a reverse arc")
            rt, rh, rccap, rlength, rmu = raw[j]
            if rccap != ccap or rmu != mu:
                raise InconsistentDuplexArc(
                    f"arcs {tail}->{head} / {head}->{tail} disagree on ccap or mu"
                )
            pairing.append(j)
            harmonized.append((tail, head, ccap, min(length, rlength), mu))
        raw = harmonized
        link_pair = tuple(pairing)

    arcs = tuple(
        Arc(id=i, tail=t, head=h, ccap=c, length=l, mu=m)
        for i, (t, h, c, l, m) in enumerate(raw)
    )
    return Network(tuple(names), arcs, link_pair)


def full_activation(net: Network) -> Activation:
    """All connections on: chi(a) = mu(a)."""
    return Activation(tuple(arc.mu for arc in net.arcs))


def scale_traffic(traffic: TrafficMatrix, factor: Rational) -> TrafficMatrix:
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return TrafficMatrix({pair: d * factor for pair, d in traffic.demands.items()})
