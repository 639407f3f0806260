"""Exact connectivity computations backing Corollary 1's claims.

``vertex_connectivity`` computes the exact vertex connectivity of any
(small enough to sweep) topology with Even's flow-based algorithm over the
native disjoint-path kernel of :mod:`repro.routing.flows`;
``connectivity_certificate`` produces the two-sided certificate used by the
Figure 1/2 harness — degree upper bound plus a Menger lower bound witnessed
by explicit disjoint-path families over sampled pairs — so the tables can
report fault tolerance for instances too large for the full flow
computation, flagged as certified-exact or witnessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable

from repro.errors import InvalidParameterError
from repro.faults.model import FaultSet
from repro.routing.flows import vertex_disjoint_paths
from repro.topologies.base import Topology

__all__ = [
    "vertex_connectivity",
    "is_maximally_fault_tolerant",
    "connectivity_certificate",
    "connected_under_faults",
]


def vertex_connectivity(topology: Topology) -> int:
    """Exact vertex connectivity (use on small instances — the Figure 2
    harness switches to certificates beyond that).

    Even's algorithm, as in :func:`networkx.node_connectivity`: ``κ`` is at
    most the minimum degree ``K`` of some vertex ``v``; any minimum
    separator either misses ``v`` — then it separates ``v`` from a
    non-neighbour — or contains it, and then it separates two non-adjacent
    neighbours of ``v``.  Each local ``κ`` is a disjoint-path family size,
    cut off at the best bound so far.  A disconnected graph has ``κ = 0``.
    """
    if not connected_under_faults(topology, ()):
        return 0
    nodes = list(topology.nodes())
    v = min(nodes, key=topology.degree)
    neighbors = topology.neighbors(v)
    k = len(neighbors)
    adjacent = set(neighbors)
    for w in nodes:
        if w != v and w not in adjacent:
            k = min(k, len(vertex_disjoint_paths(topology, v, w, cutoff=k)))
    for x, y in combinations(neighbors, 2):
        if not topology.has_edge(x, y):
            k = min(k, len(vertex_disjoint_paths(topology, x, y, cutoff=k)))
    return k


def is_maximally_fault_tolerant(topology: Topology) -> bool:
    """Whether connectivity equals minimum degree (paper Section 5)."""
    return vertex_connectivity(topology) == topology.degree_stats()[0]


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Two-sided evidence about a topology's vertex connectivity.

    ``upper`` is the minimum degree (always a valid upper bound);
    ``lower_witnessed`` is the smallest disjoint-path family size observed
    over the sampled pairs — a true lower bound on the connectivity of the
    *sampled pairs*, and equal to connectivity when it meets ``upper``.
    """

    upper: int
    lower_witnessed: int
    pairs_sampled: int

    @property
    def tight(self) -> bool:
        return self.upper == self.lower_witnessed


def connectivity_certificate(
    topology: Topology,
    *,
    pairs: int = 16,
    rng: random.Random | None = None,
) -> ConnectivityCertificate:
    """Degree upper bound + sampled Menger lower bound (see class doc)."""
    if pairs < 1:
        raise InvalidParameterError("pairs must be >= 1")
    rng = rng or random.Random(0)
    nodes = list(topology.nodes())
    min_degree = min(topology.degree(v) for v in nodes)
    lower = min_degree
    for _ in range(pairs):
        u, v = rng.sample(nodes, 2)
        family = vertex_disjoint_paths(topology, u, v)
        lower = min(lower, len(family))
    return ConnectivityCertificate(
        upper=min_degree, lower_witnessed=lower, pairs_sampled=pairs
    )


def connected_under_faults(
    topology: Topology,
    faults: FaultSet | Iterable[Hashable],
    *,
    backend: str | None = None,
) -> bool:
    """Whether the topology minus the faulty nodes remains connected.

    One fault-masked BFS from any survivor, counted: the ``sum`` of
    :meth:`~repro.topologies.base.Topology.source_histogram` (CSR,
    implicit or label BFS per ``backend``), never a distance dict.
    """
    fault_nodes = faults.nodes if isinstance(faults, FaultSet) else frozenset(faults)
    start = next((v for v in topology.nodes() if v not in fault_nodes), None)
    if start is None:
        return True  # the empty graph is vacuously connected
    histogram = topology.source_histogram(start, blocked=fault_nodes, backend=backend)
    return sum(histogram.values()) == topology.num_nodes - len(fault_nodes)
