"""Distance-profile analytics (experiment E11).

Diameter is a worst-case number; sustained network performance tracks the
*average* distance and the full distance distribution.  A
:class:`DistanceProfile` is the derived level of the distance pipeline
(:mod:`repro.analysis.decompose`): it keeps the exact pair counts and the
engine that produced them, and reads every statistic off the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.decompose import dispatch_pair_counts, pair_distance_counts
from repro.topologies.base import Topology

__all__ = [
    "DistanceProfile",
    "distance_profile",
    "pair_distance_counts",
    "profile_table",
]


@dataclass(frozen=True)
class DistanceProfile:
    """Exact distance distribution of a topology."""

    name: str
    nodes: int
    counts: dict[int, int]  # distance -> ordered-pair count (incl. 0)
    engine: str  # "decomposition", "transitive-bfs" or "bfs-sweep"

    @property
    def histogram(self) -> dict[int, float]:
        """Distance -> fraction of (reachable) ordered pairs."""
        total = sum(self.counts.values())
        return {d: c / total for d, c in self.counts.items()}

    @property
    def mean(self) -> float:
        """Mean distance over ordered pairs, the 0-diagonal included."""
        return sum(d * c for d, c in self.counts.items()) / sum(
            self.counts.values()
        )

    @property
    def average_distance(self) -> float:
        """Mean distance over *distinct* ordered pairs (the diagonal
        excluded) — integer sums divided once."""
        distinct = sum(self.counts.values()) - self.nodes
        if distinct <= 0:
            return 0.0
        return sum(d * c for d, c in self.counts.items()) / distinct

    @property
    def diameter(self) -> int:
        """Largest finite distance."""
        return max(self.counts)

    @property
    def connected(self) -> bool:
        """Whether every ordered pair was reachable."""
        return sum(self.counts.values()) == self.nodes**2

    def percentile(self, q: float) -> int:
        """Smallest distance d with cumulative mass >= q (0 < q <= 1)."""
        total = 0.0
        for d, fraction in self.histogram.items():
            total += fraction
            if total >= q - 1e-12:
                return d
        return self.diameter


def distance_profile(
    topology: Topology,
    *,
    jobs: int = 1,
    force_generic: bool = False,
    backend: str | None = None,
) -> DistanceProfile:
    """Exact profile via :func:`~repro.analysis.decompose.dispatch_pair_counts`
    (same keywords); distances include the 0 self-distance mass."""
    engine, counts = dispatch_pair_counts(
        topology, jobs=jobs, force_generic=force_generic, backend=backend
    )
    return DistanceProfile(
        name=topology.name, nodes=topology.num_nodes, counts=counts, engine=engine
    )


def profile_table(profiles: list[DistanceProfile]) -> str:
    """Side-by-side summary rows for the E11 bench."""
    lines = ["network    nodes   mean-dist  median  p95  diameter"]
    for p in profiles:
        lines.append(
            f"{p.name:10s} {p.nodes:6d} {p.mean:10.3f} "
            f"{p.percentile(0.5):7d} {p.percentile(0.95):4d} {p.diameter:9d}"
        )
    return "\n".join(lines)
