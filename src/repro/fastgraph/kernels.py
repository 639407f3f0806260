"""Array-backed BFS kernels over :class:`~repro.fastgraph.csr.CSRAdjacency`.

Two kernels cover every CSR BFS the library runs:

* :func:`bfs_levels` — single-source level/parent arrays using frontier
  arrays instead of a dict+deque; supports blocked-node masks and early
  exit at a target.  One numpy pass per BFS level.
* :func:`sweep_chunk` — multi-source boolean BFS from one chunk of
  sources as sparse-matrix × dense-boolean products, reducing per-source
  eccentricities and per-depth newly-visited counts in the same pass.
  :func:`repro.fastgraph.parallel.parallel_sweep` is its only driver:
  ``jobs=1`` loops the chunks in-process, ``jobs > 1`` runs the same
  kernel inside pool workers, so serial and pooled sweeps are
  bit-identical for any job count.

All distances are ``int32`` with ``-1`` meaning unreached.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fastgraph.csr import CSRAdjacency

__all__ = [
    "bfs_levels",
    "path_from_parents",
    "sweep_chunk",
]


def bfs_levels(
    csr: CSRAdjacency,
    source: int,
    *,
    forbidden: np.ndarray | None = None,
    want_parents: bool = False,
    target: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Single-source BFS → ``(dist, parents)`` arrays.

    ``forbidden`` is a boolean mask of blocked nodes (never entered, left at
    distance ``-1``).  With ``target`` the sweep stops as soon as the target
    level is complete.  ``parents`` (when requested) holds the rank of the
    BFS-tree parent, ``-1`` for the source and unreached nodes.
    """
    n = csr.num_nodes
    dist = np.full(n, -1, dtype=np.int32)
    parents = np.full(n, -1, dtype=np.int64) if want_parents else None
    visited = forbidden.copy() if forbidden is not None else np.zeros(n, dtype=bool)
    visited[source] = True
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    table = csr.table()
    depth = 0
    while frontier.size:
        if target is not None and dist[target] >= 0:
            break
        depth += 1
        if table is not None:
            nbrs = table[frontier].ravel()
            origins = np.repeat(frontier, csr.uniform_degree)
        else:
            starts = csr.indptr[frontier]
            counts = csr.indptr[frontier + 1] - starts
            total = int(counts.sum())
            offsets = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            )
            nbrs = csr.indices[offsets + np.arange(total)]
            origins = np.repeat(frontier, counts)
        fresh = ~visited[nbrs]
        nbrs = nbrs[fresh]
        if nbrs.size == 0:
            break
        # dedupe while retaining one parent per node (first occurrence)
        uniq, first = np.unique(nbrs, return_index=True)
        dist[uniq] = depth
        if parents is not None:
            parents[uniq] = origins[fresh][first]
        visited[uniq] = True
        frontier = uniq
    return dist, parents


def path_from_parents(parents: np.ndarray, source: int, target: int) -> list[int]:
    """The rank path ``source → target`` along a BFS parent array."""
    path = [target]
    while path[-1] != source:
        path.append(int(parents[path[-1]]))
    path.reverse()
    return path


def sweep_chunk(
    adjacency: Any, total: int, chunk: np.ndarray
) -> tuple[np.ndarray, dict[int, int], bool]:
    """One batched boolean BFS from the ``chunk`` source ranks.

    The inner kernel of every CSR all-sources sweep, in-process and
    pooled alike (:mod:`repro.fastgraph.parallel`), so the pooled
    reduction is bit-identical to the serial loop by construction.

    Returns ``(eccentricities, depth_counts, all_visited)``:
    per-source eccentricities (``int64``, aligned with ``chunk``),
    ``{depth >= 1: newly-visited count}`` summed over the chunk's sources,
    and whether every BFS in the chunk reached the whole graph.
    """
    width = len(chunk)
    visited = np.zeros((total, width), dtype=bool)
    visited[chunk, np.arange(width)] = True
    frontier = visited.copy()
    depth = 0
    ecc = np.zeros(width, dtype=np.int64)
    depth_counts: dict[int, int] = {}
    while frontier.any():
        # int32, not uint8: @ accumulates in the operand dtype, and a node
        # whose frontier in-degree is a multiple of 256 would wrap to 0
        # and read as unreached (HB605)
        reached = (adjacency @ frontier.astype(np.int32)) > 0
        frontier = reached & ~visited
        visited |= frontier
        depth += 1
        newly = int(frontier.sum())
        if newly:
            depth_counts[depth] = newly
            ecc[frontier.any(axis=0)] = depth
    return ecc, depth_counts, bool(visited.all())
