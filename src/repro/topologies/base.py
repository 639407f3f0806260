"""Common interface for every topology in the library.

A :class:`Topology` is an implicitly represented undirected graph: nodes are
hashable labels and adjacency is computed from the label, never stored.
This keeps construction ``O(1)`` and lets algorithms work on instances far
larger than what an explicit adjacency structure would allow, while
``to_networkx()`` materialises an explicit graph when exact global analysis
(bisection, isomorphism checks) is needed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

import networkx as nx

from repro.errors import DisconnectedError, InvalidLabelError

if TYPE_CHECKING:
    from repro.fastgraph.backend import FastGraph

__all__ = ["Topology"]


def _fastgraph(
    topology: "Topology", backend: str | None = None
) -> "FastGraph | None":
    """Fast-backend view of ``topology`` for ``backend``, or ``None`` for
    the label BFS (see :func:`repro.fastgraph.backend.resolve_backend`).

    Deferred import: topologies sit *below* fastgraph in the layer DAG —
    the acceleration layer knows about topologies, never the reverse
    (reprolint HB401); binding it here at import time would also cycle.
    """
    from repro.fastgraph.backend import resolve_backend

    return resolve_backend(topology, backend)


class Topology(ABC):
    """Implicit undirected graph with computed adjacency."""

    #: short human-readable family name, e.g. ``"H_4"`` or ``"HB(2,3)"``
    name: str = "topology"

    @property
    def is_vertex_transitive(self) -> bool:
        """Whether the automorphism group acts transitively on vertices.

        Declared per family (conservative default ``False``) instead of
        inferred from class names or attribute probing: algorithms such as
        :func:`repro.analysis.metrics.exact_diameter` use it to collapse
        all-sources sweeps into a single BFS, so a wrong ``True`` silently
        produces wrong numbers.  Cayley-backed topologies override this
        with ``True`` (every Cayley graph is vertex transitive); Cartesian
        products are transitive exactly when every factor is.
        """
        return False

    # Core interface -------------------------------------------------------

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of vertices."""

    @abstractmethod
    def nodes(self) -> Iterator[Hashable]:
        """Iterate over all vertex labels."""

    @abstractmethod
    def neighbors(self, v: Hashable) -> list[Hashable]:
        """Adjacent vertices of ``v`` (no duplicates, no self-loops)."""

    @abstractmethod
    def has_node(self, v: Hashable) -> bool:
        """Whether ``v`` is a valid vertex label of this topology."""

    # Derived helpers --------------------------------------------------------

    def validate_node(self, v: Hashable) -> None:
        """Raise :class:`InvalidLabelError` unless ``v`` is a vertex."""
        if not self.has_node(v):
            raise InvalidLabelError(f"{v!r} is not a node of {self.name}")

    def degree(self, v: Hashable) -> int:
        """Degree of vertex ``v``."""
        return len(self.neighbors(v))

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``{u, v}`` is an edge — short-circuit scan of ``u``'s
        neighbor list, no per-probe set allocation."""
        return any(w == v for w in self.neighbors(u))

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Iterate each undirected edge exactly once.

        With a fast-backend codec the rank order replaces the ``seen`` set
        (an edge is emitted from its lower-ranked endpoint), so the walk
        holds O(1) extra state instead of a set of every vertex.
        """
        fast = _fastgraph(self)
        if fast is not None:
            yield from fast.edges()
            return
        seen: set[Hashable] = set()
        for u in self.nodes():
            seen.add(u)
            for v in self.neighbors(u):
                if v not in seen:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        """Number of edges (computed by degree sum; override when closed-form)."""
        return sum(self.degree(v) for v in self.nodes()) // 2

    def degree_stats(self) -> tuple[int, int]:
        """``(min degree, max degree)`` over all vertices."""
        degrees = [self.degree(v) for v in self.nodes()]
        return (min(degrees), max(degrees))

    def is_regular(self) -> bool:
        """Whether all vertices have equal degree."""
        lo, hi = self.degree_stats()
        return lo == hi

    def to_networkx(self) -> nx.Graph:
        """Materialise as an explicit :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        for u in self.nodes():
            for v in self.neighbors(u):
                graph.add_edge(u, v)
        return graph

    def subgraph_networkx(self, vertices: Iterable[Hashable]) -> nx.Graph:
        """Explicit induced subgraph on ``vertices`` (validated)."""
        keep = set(vertices)
        for v in keep:
            self.validate_node(v)
        graph = nx.Graph()
        graph.add_nodes_from(keep)
        for u in keep:
            for v in self.neighbors(u):
                if v in keep:
                    graph.add_edge(u, v)
        return graph

    # BFS utilities shared by routing/analysis -------------------------------

    def bfs_distances(
        self,
        source: Hashable,
        *,
        blocked: frozenset | set | None = None,
        backend: str | None = None,
    ) -> dict[Hashable, int]:
        """Unweighted distances from ``source`` (skipping ``blocked`` nodes).

        ``backend`` pins the BFS substrate: ``"python"`` forces the label
        BFS, ``"csr"``/``"implicit"`` force a fast-backend substrate
        (:class:`~repro.errors.InvalidParameterError` when the family has
        no codec), ``None``/``"auto"`` picks the cheapest valid one.
        """
        self.validate_node(source)
        blocked = blocked or frozenset()
        if source in blocked:
            raise InvalidLabelError("source node is blocked")
        fast = _fastgraph(self, backend)
        if fast is not None:
            return fast.bfs_distances(source, blocked, backend=backend)
        return self._bfs_distances_python(source, blocked)

    def _bfs_distances_python(
        self, source: Hashable, blocked: frozenset | set
    ) -> dict[Hashable, int]:
        """Pure-Python label BFS — fallback for codec-less topologies and the
        reference the fast backend is property-tested against."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.neighbors(u):
                if w not in dist and w not in blocked:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def bfs_shortest_path(
        self,
        source: Hashable,
        target: Hashable,
        *,
        blocked: frozenset | set | None = None,
    ) -> list[Hashable] | None:
        """A shortest path ``source → target`` avoiding ``blocked``; ``None``
        if unreachable.  Bidirectional-free plain BFS: simple and adequate for
        the instance sizes used in verification."""
        self.validate_node(source)
        self.validate_node(target)
        blocked = blocked or frozenset()
        if source in blocked or target in blocked:
            return None
        if source == target:
            return [source]
        fast = _fastgraph(self)
        if fast is not None:
            return fast.shortest_path(source, target, blocked=blocked)
        return self._bfs_shortest_path_python(source, target, blocked)

    def _bfs_shortest_path_python(
        self, source: Hashable, target: Hashable, blocked: frozenset | set
    ) -> list[Hashable] | None:
        parent: dict[Hashable, Hashable] = {source: source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.neighbors(u):
                if w in parent or w in blocked:
                    continue
                parent[w] = u
                if w == target:
                    path = [w]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(w)
        return None

    def source_histogram(
        self,
        source: Hashable,
        *,
        blocked: frozenset | set | None = None,
        backend: str | None = None,
    ) -> dict[int, int]:
        """``{distance: node count}`` over the survivors reached from
        ``source`` (0 included), skipping ``blocked`` nodes.

        The single-source level of the distance pipeline: its ``max`` is
        the (fault-masked) eccentricity, its ``sum`` the reached count.
        ``backend`` as in :meth:`bfs_distances`; the implicit substrate
        answers in ``O(num_nodes / 8)`` memory, past CSR scale.
        """
        self.validate_node(source)
        blocked = blocked or frozenset()
        if source in blocked:
            raise InvalidLabelError("source node is blocked")
        fast = _fastgraph(self, backend)
        if fast is not None:
            return fast.source_histogram(source, blocked=blocked, backend=backend)
        counts: dict[int, int] = {}
        # label BFS discovers nodes level by level: keys arrive sorted
        for d in self._bfs_distances_python(source, blocked).values():
            counts[d] = counts.get(d, 0) + 1
        return counts

    def eccentricity(self, v: Hashable, *, backend: str | None = None) -> int:
        """Eccentricity of ``v`` — the largest key of
        :meth:`source_histogram`; the graph must be connected."""
        histogram = self.source_histogram(v, backend=backend)
        if sum(histogram.values()) != self.num_nodes:
            raise DisconnectedError(f"{self.name} is not connected from {v!r}")
        return max(histogram)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}: {self.num_nodes} nodes>"
