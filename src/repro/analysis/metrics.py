"""Exact graph metrics, read off the distance pipeline.

:func:`exact_diameter` is the largest key of the pair histogram from
:func:`repro.analysis.decompose.dispatch_pair_counts` — product
decomposition (sum of factor diameters, Remark 6/8, exact at any scale),
one BFS for vertex-transitive graphs, or the all-sources sweep (pooled
with ``jobs > 1``; a label-BFS sweep without scipy) — and raises
:class:`~repro.errors.DisconnectedError` whenever the counts miss a pair.

Average distance is **exact at any scale** for product topologies (factor
histogram convolution); for everything else it is exact below a node
budget and sampled (with a fixed seed) beyond it, sampled pairs grouped
by source so each unique source costs exactly one BFS.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Hashable

from repro.analysis.decompose import leaf_factors
from repro.analysis.distance_stats import distance_profile
from repro.errors import DisconnectedError
from repro.fastgraph.backend import get_fastgraph
from repro.topologies.base import Topology

__all__ = ["exact_diameter", "average_distance", "degree_profile"]


def exact_diameter(
    topology: Topology,
    *,
    force_generic: bool = False,
    jobs: int = 1,
    backend: str | None = None,
) -> int:
    """The exact diameter, using the cheapest valid engine.

    Keywords as in :func:`~repro.analysis.decompose.dispatch_pair_counts`:
    ``force_generic=True`` pins the all-sources sweep (tests use it to
    confirm every engine agrees), ``jobs`` spreads that sweep over a
    process pool, and ``backend`` (``"csr"``, ``"implicit"``,
    ``"python"``) pins the BFS substrate, skipping the BFS-free
    decomposition so the requested engine actually runs.
    """
    profile = distance_profile(
        topology, jobs=jobs, force_generic=force_generic, backend=backend
    )
    if not profile.connected:
        raise DisconnectedError(f"{topology.name} is disconnected")
    return profile.diameter


def average_distance(
    topology: Topology,
    *,
    exact_node_budget: int = 2000,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Mean pairwise distance over distinct ordered pairs.

    Exact — :attr:`DistanceProfile.average_distance
    <repro.analysis.distance_stats.DistanceProfile.average_distance>` —
    for product topologies at any scale and for everything else up to
    ``exact_node_budget`` nodes.  Beyond the budget, sampled pairs are
    drawn first and grouped by source, so a source drawn ``k`` times
    costs one BFS instead of ``k``.
    """
    if (
        topology.num_nodes <= exact_node_budget
        or leaf_factors(topology) is not None
    ):
        return distance_profile(topology).average_distance
    rng = random.Random(seed)
    nodes = list(topology.nodes())
    targets_by_source: dict[Hashable, list[Hashable]] = defaultdict(list)
    for _ in range(samples):
        u, v = rng.sample(nodes, 2)
        targets_by_source[u].append(v)
    fast = get_fastgraph(topology)
    total = 0
    for u, targets in targets_by_source.items():
        if fast is not None:
            dist = fast.distances_array(u)
            total += int(sum(dist[fast.rank(v)] for v in targets))
        else:
            label_dist = topology.bfs_distances(u)
            total += sum(label_dist[v] for v in targets)
    return total / samples


def degree_profile(topology: Topology) -> dict[int, int]:
    """Histogram ``{degree: node count}`` — Figure 1's regularity evidence."""
    profile: dict[int, int] = {}
    for v in topology.nodes():
        d = topology.degree(v)
        profile[d] = profile.get(d, 0) + 1
    return dict(sorted(profile.items()))
