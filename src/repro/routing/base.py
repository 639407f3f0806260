"""Shared path types, validation and disjointness predicates.

A *path* is a list of node labels, inclusive of both endpoints; its length
is its edge count.  Theorem 5 of the paper is about families of
**node-disjoint** paths between a fixed pair ``(u, v)`` — paths that share
the endpoints and nothing else — which the literature calls *internally
disjoint*; both predicates are provided.
"""

from __future__ import annotations

from typing import Hashable, Sequence, TypeVar

from repro.errors import RoutingError
from repro.topologies.base import Topology

__all__ = [
    "Path",
    "validate_path",
    "path_length",
    "loop_erase",
    "paths_vertex_disjoint",
    "paths_internally_disjoint",
]


_Node = TypeVar("_Node", bound=Hashable)


def loop_erase(path: Sequence[_Node]) -> list[_Node]:
    """Remove cycles from a walk, keeping endpoints; the result is simple.

    Whenever a vertex repeats, the intervening loop is cut.  Used to turn
    covering walks and flow decompositions into simple paths; cutting loops
    never lengthens a path, so a shortest walk stays shortest.
    """
    out: list[_Node] = []
    index: dict[_Node, int] = {}
    for v in path:
        if v in index:
            cut = index[v]
            for w in out[cut + 1 :]:
                del index[w]
            del out[cut + 1 :]
        else:
            index[v] = len(out)
            out.append(v)
    return out

Path = list  # list[Hashable]; alias for signature readability


def path_length(path: Sequence[Hashable]) -> int:
    """Edge count of a path."""
    return len(path) - 1


def validate_path(
    topology: Topology,
    path: Sequence[Hashable],
    *,
    source: Hashable | None = None,
    target: Hashable | None = None,
    simple: bool = True,
) -> None:
    """Raise :class:`RoutingError` unless ``path`` is a valid walk.

    Checks: non-empty, endpoints (when given), every consecutive pair is an
    edge of ``topology``, and (with ``simple=True``) no repeated vertex.
    """
    if not path:
        raise RoutingError("empty path")
    for v in path:
        topology.validate_node(v)
    if source is not None and path[0] != source:
        raise RoutingError(f"path starts at {path[0]!r}, expected {source!r}")
    if target is not None and path[-1] != target:
        raise RoutingError(f"path ends at {path[-1]!r}, expected {target!r}")
    for a, b in zip(path, path[1:], strict=False):
        if not topology.has_edge(a, b):
            raise RoutingError(f"{a!r} -> {b!r} is not an edge of {topology.name}")
    if simple and len(set(path)) != len(path):
        raise RoutingError("path revisits a vertex")


def paths_vertex_disjoint(paths: Sequence[Sequence[Hashable]]) -> bool:
    """True iff no vertex appears in two of the paths (endpoints included)."""
    seen: set[Hashable] = set()
    for path in paths:
        for v in path:
            if v in seen:
                return False
            seen.add(v)
    return True


def paths_internally_disjoint(paths: Sequence[Sequence[Hashable]]) -> bool:
    """True iff the paths share only their common endpoints.

    All paths must run between the same two endpoints; interior vertices
    must be pairwise distinct across paths (the Menger notion used in
    Theorem 5).
    """
    if not paths:
        return True
    source = paths[0][0]
    target = paths[0][-1]
    seen: set[Hashable] = set()
    for path in paths:
        if path[0] != source or path[-1] != target:
            return False
        interior = path[1:-1]
        for v in interior:
            if v in seen or v == source or v == target:
                return False
            seen.add(v)
    return True
