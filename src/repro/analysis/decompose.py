"""The distance pipeline: exact pair-distance histograms, three engines.

Every exact distance number in the library — diameter, average distance,
eccentricity, the whole distribution — is a statistic of a distance
histogram, computed in three levels:

1. **single source** —
   :meth:`~repro.topologies.base.Topology.source_histogram`, ``{distance:
   count}`` over the (fault-masked) survivors reached from one node; its
   ``max`` is an eccentricity, its ``sum`` the reached count;
2. **all pairs** — :func:`dispatch_pair_counts`, the one function that
   picks an engine for the ``{distance: ordered-pair count}`` histogram:

   * ``"decomposition"`` — distances in a Cartesian product are sums of
     factor distances (paper Remarks 6 & 8), so the product histogram is
     the **convolution** of the factor histograms; each leaf factor is
     profiled once (a closed-form binomial for the hypercube, the
     pipeline itself for anything else) and the ``n·2^{m+n}``-node
     product is never materialized — ``HB(8, 10)`` (2.6M nodes) costs
     one BFS of the 2048-node ``B_10`` factor;
   * ``"transitive-bfs"`` — a vertex-transitive graph's histogram is
     ``num_nodes`` × one single-source histogram;
   * ``"bfs-sweep"`` — everything else: the all-sources
     :func:`~repro.fastgraph.parallel.parallel_sweep` (CSR or implicit,
     ``jobs`` processes), or a label-BFS sweep when no fast backend (or
     no scipy for the CSR product) is available;
3. **derived** — diameters, averages and profiles read the counts
   (:mod:`repro.analysis.distance_stats`, :mod:`repro.analysis.metrics`).

Product dispatch is structural — any topology exposing a ``factors()``
accessor participates — never by class name.  All arithmetic stays in
exact integers until the caller divides, so every engine is bit-identical
to brute-force BFS aggregation (pinned by
``tests/analysis/test_decompose.py`` over a grid of small instances).
"""

from __future__ import annotations

from math import comb
from typing import Callable

from repro.errors import DisconnectedError
from repro.fastgraph.backend import resolve_backend
from repro.topologies.base import Topology
from repro.topologies.hypercube import Hypercube

__all__ = [
    "leaf_factors",
    "factor_pair_histogram",
    "convolve_pair_histograms",
    "product_pair_histogram",
    "dispatch_pair_counts",
    "pair_distance_counts",
]

#: memoization attribute for the convolved product histogram
_HIST_ATTR = "_decompose_pair_histogram"


def leaf_factors(topology: Topology) -> tuple[Topology, ...] | None:
    """The flattened Cartesian factors of ``topology``, or ``None``.

    Structural dispatch: a topology participates by exposing a
    ``factors()`` accessor (``CartesianProduct``, ``HyperButterfly``,
    ``HyperDeBruijn``); factors that are themselves products are flattened
    recursively.  ``None`` means "not a product" — the caller should fall
    back to whole-graph algorithms.
    """
    accessor: Callable[[], tuple[Topology, ...]] | None = getattr(
        topology, "factors", None
    )
    if accessor is None:
        return None
    flattened: list[Topology] = []
    for factor in accessor():
        sub = leaf_factors(factor)
        if sub is None:
            flattened.append(factor)
        else:
            flattened.extend(sub)
    return tuple(flattened)


def factor_pair_histogram(topology: Topology) -> dict[int, int]:
    """Exact ``{distance: ordered-pair count}`` of one (non-product) factor.

    Includes the ``distance == 0`` diagonal (``num_nodes`` pairs).  A
    :class:`~repro.topologies.hypercube.Hypercube` has the closed form
    ``C(m, d) · 2^m`` pairs at distance ``d`` (no BFS at all); any other
    factor goes through :func:`pair_distance_counts` (factors are small
    by design: the product's scale lives in the *combination*).  Raises
    :class:`~repro.errors.DisconnectedError` for a disconnected factor.
    """
    if isinstance(topology, Hypercube):
        m = topology.m
        return {d: comb(m, d) << m for d in range(m + 1)}
    counts = pair_distance_counts(topology)
    if sum(counts.values()) != topology.num_nodes**2:
        raise DisconnectedError(f"{topology.name} is not connected")
    return counts


def convolve_pair_histograms(
    left: dict[int, int], right: dict[int, int]
) -> dict[int, int]:
    """Ordered-pair histogram of a product from its factor histograms.

    A product pair is a pair of factor pairs, and its distance is the sum
    of the factor distances (Remark 6/8), so counts multiply and distances
    add — an integer convolution.
    """
    out: dict[int, int] = {}
    for d1, c1 in sorted(left.items()):
        for d2, c2 in sorted(right.items()):
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return dict(sorted(out.items()))


def product_pair_histogram(topology: Topology) -> dict[int, int] | None:
    """The exact full distance histogram of a product topology.

    ``None`` when ``topology`` exposes no ``factors()`` accessor — the
    caller falls back to whole-graph BFS.  The result is memoized on the
    topology instance (the underlying factor BFS is the only real cost).
    """
    cached = topology.__dict__.get(_HIST_ATTR)
    if cached is not None:
        return dict(cached)
    factors = leaf_factors(topology)
    if factors is None:
        return None
    histogram = factor_pair_histogram(factors[0])
    for factor in factors[1:]:
        histogram = convolve_pair_histograms(
            histogram, factor_pair_histogram(factor)
        )
    try:
        setattr(topology, _HIST_ATTR, dict(histogram))
    except (AttributeError, TypeError):
        pass  # slots/frozen instances: recompute next call
    return histogram


def _transitive_counts(topology: Topology, backend: str | None) -> dict[int, int]:
    """One single-source histogram scaled to ordered pairs."""
    anchor = next(iter(topology.nodes()))
    total = topology.num_nodes
    histogram = topology.source_histogram(anchor, backend=backend)
    return {d: c * total for d, c in histogram.items()}


def _sweep_counts(
    topology: Topology, jobs: int, backend: str | None
) -> dict[int, int]:
    """All-sources sweep over the reachable ordered pairs."""
    fast = resolve_backend(topology, backend, allow_enumeration=True)
    if fast is not None:
        from repro.fastgraph.parallel import parallel_sweep

        implicit = fast.select_backend(backend) == "implicit"
        try:
            return parallel_sweep(
                fast.codec if implicit else fast.csr,
                jobs=jobs,
                check_connected=False,
                name=topology.name,
            ).histogram
        except ImportError:
            if backend in ("csr", "implicit"):
                raise  # pinned engine can't run: don't silently degrade
            # no scipy for the CSR product: label-BFS sweep below
    counts: dict[int, int] = {}
    for v in topology.nodes():
        for d, c in topology.source_histogram(v, backend="python").items():
            counts[d] = counts.get(d, 0) + c
    return dict(sorted(counts.items()))


def dispatch_pair_counts(
    topology: Topology,
    *,
    jobs: int = 1,
    force_generic: bool = False,
    backend: str | None = None,
) -> tuple[str, dict[int, int]]:
    """``(engine, {distance: ordered-pair count})`` — the one engine choice.

    Cheapest valid engine first: ``"decomposition"`` for products,
    ``"transitive-bfs"`` for vertex-transitive graphs, ``"bfs-sweep"``
    otherwise (see the module docstring).  ``force_generic=True`` pins the
    sweep — tests and the metrics CLI use it to cross-check the fast
    engines against brute force.  ``backend`` pins the BFS substrate and
    (like ``force_generic``) skips the BFS-free decomposition so the
    requested engine actually runs; ``jobs`` spreads the sweep over a
    process pool (bit-identical for any job count).  Counts cover the
    reachable pairs only — a disconnected graph sums below
    ``num_nodes ** 2`` instead of raising.
    """
    if not force_generic:
        if backend in (None, "auto"):
            decomposed = product_pair_histogram(topology)
            if decomposed is not None:
                return "decomposition", decomposed
        if topology.is_vertex_transitive:
            return "transitive-bfs", _transitive_counts(topology, backend)
    return "bfs-sweep", _sweep_counts(topology, jobs, backend)


def pair_distance_counts(
    topology: Topology,
    *,
    jobs: int = 1,
    force_generic: bool = False,
    backend: str | None = None,
) -> dict[int, int]:
    """Exact ``{distance: ordered-pair count}`` (0-diagonal included) —
    :func:`dispatch_pair_counts` without the engine name."""
    return dispatch_pair_counts(
        topology, jobs=jobs, force_generic=force_generic, backend=backend
    )[1]
