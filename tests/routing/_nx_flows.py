"""Reference networkx implementation of :mod:`repro.routing.flows`.

This is the max-flow disjoint-path code the library shipped before the
native Edmonds–Karp kernel, kept verbatim below this docstring as the test
oracle: ``test_flow_oracle.py`` asserts the native kernel returns exactly
the same path lists and the same :class:`RoutingError` messages.  It takes
an explicit :class:`networkx.Graph` (``topology.to_networkx()``).

The construction is the textbook node-splitting reduction: every vertex
``v`` becomes an arc ``v_in → v_out`` of capacity 1 (endpoints get capacity
``k``), every undirected edge ``{u, v}`` becomes ``u_out → v_in`` and
``v_out → u_in``.  Integral max-flow then decomposes into vertex-disjoint
paths.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.errors import RoutingError
from repro.routing.base import loop_erase

__all__ = [
    "vertex_disjoint_paths",
    "node_to_set_disjoint_paths",
]

_IN = 0
_OUT = 1


def _split_digraph(
    graph: nx.Graph,
    *,
    unlimited: set,
    blocked: set,
) -> nx.DiGraph:
    dg = nx.DiGraph()
    for v in graph.nodes():
        if v in blocked:
            continue
        cap = graph.number_of_nodes() if v in unlimited else 1
        dg.add_edge((v, _IN), (v, _OUT), capacity=cap)
    for a, b in graph.edges():
        if a in blocked or b in blocked:
            continue
        dg.add_edge((a, _OUT), (b, _IN), capacity=1)
        dg.add_edge((b, _OUT), (a, _IN), capacity=1)
    return dg


_SUPER = "__super_source__"


def _decompose_paths(
    flow: dict, source_out: tuple, target_in: tuple
) -> list[list[Hashable]]:
    """Walk unit flow from ``source_out`` greedily, yielding node paths.

    Each walk collects the underlying graph node of every split vertex it
    passes (deduplicating the ``v_in → v_out`` pair) and is loop-erased at
    the end: preflow-push max-flow may leave flow cycles, which the walk
    consumes harmlessly.
    """
    residual = {
        u: {v: f for v, f in nbrs.items() if f > 0} for u, nbrs in flow.items()
    }

    def take_step(cur: tuple) -> tuple | None:
        nbrs = residual.get(cur, {})
        nxt = next((v for v, f in nbrs.items() if f > 0), None)
        if nxt is not None:
            nbrs[nxt] -= 1
        return nxt

    paths = []
    while True:
        cur = take_step(source_out)
        if cur is None:
            break
        node_path: list[Hashable] = []
        if source_out[0] != _SUPER:
            node_path.append(source_out[0])
        while True:
            node = cur[0]
            if node != _SUPER and (not node_path or node_path[-1] != node):
                node_path.append(node)
            if cur == target_in:
                break
            cur = take_step(cur)
            if cur is None:
                raise RoutingError("flow decomposition failed (internal bug)")
        paths.append(loop_erase(node_path))
    return paths


def vertex_disjoint_paths(
    graph: nx.Graph,
    source: Hashable,
    target: Hashable,
    *,
    k: int | None = None,
    blocked: Iterable[Hashable] = (),
    cutoff: int | None = None,
) -> list[list[Hashable]]:
    """A maximum family of internally disjoint ``source → target`` paths.

    ``k`` truncates the family (and raises :class:`RoutingError` when the
    graph cannot supply ``k`` paths).  ``blocked`` vertices are removed
    first (endpoints may not be blocked).  ``cutoff`` stops augmenting once
    that many paths are found — disjoint-path families are bounded by the
    minimum degree, so a cutoff makes large-instance witnesses cheap
    (defaults to ``k``, or to ``min(deg(source), deg(target))`` otherwise,
    both of which are exact bounds rather than approximations).
    """
    blocked = set(blocked)
    if source in blocked or target in blocked:
        raise RoutingError("endpoints may not be blocked")
    if source == target:
        raise RoutingError("disjoint paths require distinct endpoints")
    dg = _split_digraph(graph, unlimited={source, target}, blocked=blocked)
    s, t = (source, _OUT), (target, _IN)
    if s not in dg or t not in dg:
        raise RoutingError("endpoint missing from graph")
    # no path may pass *through* an endpoint: sever their transit halves
    dg.remove_node((source, _IN))
    dg.remove_node((target, _OUT))
    if cutoff is None:
        cutoff = k if k is not None else min(
            graph.degree(source), graph.degree(target)
        )
    value, flow = nx.maximum_flow(
        dg, s, t, flow_func=nx.algorithms.flow.edmonds_karp, cutoff=cutoff
    )
    paths = _decompose_paths(flow, s, t)
    if k is not None:
        if len(paths) < k:
            raise RoutingError(
                f"requested {k} disjoint paths, graph supports only {len(paths)}"
            )
        paths = paths[:k]
    return paths


def node_to_set_disjoint_paths(
    graph: nx.Graph,
    sources: Sequence[Hashable],
    target: Hashable,
    *,
    blocked: Iterable[Hashable] = (),
) -> list[list[Hashable]]:
    """One path per source to ``target``, pairwise sharing only ``target``.

    This is the node-to-set disjoint path problem (cf. Latifi, Ko &
    Srimani for hypercubes); Theorem 5's tails need exactly this.  A source
    equal to ``target`` gets the trivial path ``[target]``.  Sources must be
    distinct.  Raises :class:`RoutingError` if no such family exists under
    ``blocked``.
    """
    if len(set(sources)) != len(sources):
        raise RoutingError("sources must be distinct")
    blocked = set(blocked)
    if target in blocked or any(s in blocked for s in sources):
        raise RoutingError("endpoints may not be blocked")
    real_sources = [s for s in sources if s != target]
    result_by_source: dict[Hashable, list[Hashable]] = {
        s: [target] for s in sources if s == target
    }
    if real_sources:
        dg = _split_digraph(graph, unlimited={target}, blocked=blocked)
        super_source = (_SUPER, _OUT)
        for s in real_sources:
            # feed each source at its _OUT side and sever its _IN side so
            # no other path can pass through a source vertex
            dg.add_edge(super_source, (s, _OUT), capacity=1)
            dg.remove_node((s, _IN))
        t = (target, _IN)
        if (target, _OUT) in dg:
            dg.remove_node((target, _OUT))
        value, flow = nx.maximum_flow(
            dg,
            super_source,
            t,
            flow_func=nx.algorithms.flow.edmonds_karp,
            cutoff=len(real_sources),
        )
        if value < len(real_sources):
            raise RoutingError(
                f"only {value} of {len(real_sources)} node-to-set paths exist"
            )
        raw = _decompose_paths(flow, super_source, t)
        for path in raw:
            result_by_source[path[0]] = path
    missing = [s for s in sources if s not in result_by_source]
    if missing:
        raise RoutingError(f"flow produced no path for sources {missing!r}")
    return [result_by_source[s] for s in sources]
