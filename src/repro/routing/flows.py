"""Menger-style disjoint-path extraction via max-flow (node-splitting).

Used as the exact substrate for the "4 disjoint paths in ``B_n`` [4]" and
node-to-set families that Theorem 5's construction consumes as black boxes,
as the last-resort fallback for the full ``m + 4`` family, and by the exact
connectivity computations of :mod:`repro.faults.connectivity`.

The construction is the textbook node-splitting reduction: every vertex
``v`` becomes an arc ``v_in → v_out`` of capacity 1, every undirected edge
``{u, v}`` becomes ``u_out → v_in`` and ``v_out → u_in``.  Integral
max-flow then decomposes into vertex-disjoint paths.  The endpoints' own
transit halves (``source_in``, ``target_out``) are removed, so every
remaining arc has capacity 1 and one unit-capacity Edmonds–Karp kernel
serves both entry points.

**Index layout.**  The split graph is never materialised as objects: the
vertex of rank ``r`` (the fastgraph codec rank, i.e. its position in
``topology.nodes()``) has split nodes ``IN = 2r`` and ``OUT = 2r + 1``,
and arcs come in forward/reverse pairs so the reverse of arc ``a`` is
``a ^ 1``.  The layout is built once per topology from the CSR rows (or
from ``nodes()``/``neighbors()`` without a codec — the same order) and
cached on it; a call copies the residual capacities and masks the split
nodes it removes (``source_in``, ``target_out``, blocked vertices) by
zeroing their arcs.

**Residual order.**  Each split node lists its residual arcs in exactly
the order a :func:`networkx.algorithms.flow.build_residual_network` over
the split digraph of ``topology.to_networkx()`` would:

* ``OUT_v``: the reverse arc to ``IN_v``, then the arcs to ``IN_x`` for
  lower-rank neighbours ``x`` in ascending rank, then for higher-rank
  neighbours in CSR-row (generator) order;
* ``IN_v``: the reverse arcs to ``OUT_x`` for lower-rank ``x`` ascending,
  then ``OUT_v``, then higher-rank ``x`` ascending;
* a node-to-set super source's reverse arcs go last on each ``OUT_s``.

Together with the same bidirectional BFS (the smaller frontier expands,
ties to the source side) and the same greedy flow decomposition, this
makes every family identical to the one the networkx implementation
returned; ``tests/routing/test_flow_oracle.py`` pins that on a property
grid against the networkx reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from repro.errors import RoutingError
from repro.routing.base import loop_erase

if TYPE_CHECKING:
    from repro.topologies.base import Topology

__all__ = [
    "vertex_disjoint_paths",
    "node_to_set_disjoint_paths",
]

_ATTR = "_flow_layout"


class _SplitLayout:
    """Node-split residual arcs of one topology, in networkx order.

    ``adj[x]`` holds the arc ids leaving split node ``x`` in residual
    order, ``fwd[x]`` its forward (capacity-1) arcs in flow-dict order,
    ``head[a]`` the split node arc ``a`` enters.  Forward arcs are even,
    reverses odd; arc ``2v`` is the internal arc ``IN_v → OUT_v``.
    """

    __slots__ = ("adj", "fwd", "head", "num_arcs", "rank", "unrank")

    def __init__(
        self,
        rows: list[list[int]],
        rank: Callable[[Hashable], int],
        unrank: Callable[[int], Hashable],
    ) -> None:
        n = len(rows)
        head = [0] * (2 * n)
        head[0::2] = range(1, 2 * n, 2)  # internal arc 2v enters OUT_v
        head[1::2] = range(0, 2 * n, 2)  # its reverse enters IN_v
        in_lo: list[list[int]] = [[] for _ in range(n)]
        in_hi: list[list[int]] = [[] for _ in range(n)]
        out_lo: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        out_hi: list[list[int]] = [[] for _ in range(n)]
        a = 2 * n
        for u, row in enumerate(rows):
            out_u = 2 * u + 1
            for w in row:
                # forward a: OUT_u → IN_w; reverse a + 1: IN_w → OUT_u
                head.append(2 * w)
                head.append(out_u)
                if w < u:
                    out_lo[u].append((w, a))
                    in_hi[w].append(a + 1)
                else:
                    out_hi[u].append(a)
                    in_lo[w].append(a + 1)
                a += 2
        adj: list[list[int]] = []
        fwd: list[list[int]] = []
        for v in range(n):
            out_arcs = [arc for _, arc in sorted(out_lo[v])] + out_hi[v]
            adj.append(in_lo[v] + [2 * v] + in_hi[v])
            adj.append([2 * v + 1] + out_arcs)
            fwd.append([2 * v])
            fwd.append(out_arcs)
        self.adj = adj
        self.fwd = fwd
        self.head = head
        self.num_arcs = a
        self.rank = rank
        self.unrank = unrank


def _layout(topology: Topology) -> _SplitLayout:
    """The memoized split layout of ``topology``."""
    cached = topology.__dict__.get(_ATTR)
    if cached is not None:
        return cached
    # Deferred import: routing sits below fastgraph in the layer DAG
    # (reprolint HB401), exactly as in topologies/base.py.
    from repro.fastgraph.backend import get_fastgraph

    fast = get_fastgraph(topology)
    if fast is not None:
        csr = fast.csr
        flat = csr.indices.tolist()
        ptr = csr.indptr.tolist()
        rows = [flat[ptr[i] : ptr[i + 1]] for i in range(csr.num_nodes)]
        layout = _SplitLayout(rows, fast.rank, fast.unrank)
    else:
        labels = list(topology.nodes())
        index = {v: i for i, v in enumerate(labels)}
        rows = [[index[w] for w in topology.neighbors(v)] for v in labels]
        layout = _SplitLayout(rows, index.__getitem__, labels.__getitem__)
    try:
        setattr(topology, _ATTR, layout)
    except (AttributeError, TypeError):
        pass  # slots/frozen instances: rebuild next call
    return layout


def _max_flow(
    adj: list[list[int]],
    head: list[int],
    res: list[int],
    s: int,
    t: int,
    cutoff: int,
) -> int:
    """Unit-capacity Edmonds–Karp from ``s`` to ``t`` on residuals ``res``
    (updated in place); stops after ``cutoff`` augmentations."""
    value = 0
    while value < cutoff:
        # bidirectional BFS; pred/succ map a split node to the arc that
        # reached it from the source side / leads from it toward t
        pred = {s: -1}
        succ = {t: -1}
        q_s = [s]
        q_t = [t]
        meet = -1
        while meet < 0:
            q = []
            if len(q_s) <= len(q_t):
                for u in q_s:
                    for a in adj[u]:
                        if res[a]:
                            v = head[a]
                            if v not in pred:
                                pred[v] = a
                                if v in succ:
                                    meet = v
                                    break
                                q.append(v)
                    if meet >= 0:
                        break
                q_s = q
            else:
                for u in q_t:
                    for a in adj[u]:
                        b = a ^ 1
                        if res[b]:
                            v = head[a]
                            if v not in succ:
                                succ[v] = b
                                if v in pred:
                                    meet = v
                                    break
                                q.append(v)
                    if meet >= 0:
                        break
                q_t = q
            if meet < 0 and not q:
                return value
        a = pred[meet]
        while a >= 0:
            res[a] -= 1
            res[a ^ 1] += 1
            a = pred[head[a ^ 1]]
        a = succ[meet]
        while a >= 0:
            res[a] -= 1
            res[a ^ 1] += 1
            a = succ[head[a]]
        value += 1
    return value


def _decompose(
    fwd: list[list[int]],
    head: list[int],
    res: list[int],
    s: int,
    t: int,
) -> list[list[int]]:
    """Walk unit flow from ``s`` greedily, yielding vertex-rank paths.

    The flow on forward arc ``a`` is the residual of its reverse ``a ^ 1``;
    each walk takes the first forward arc still carrying flow, collects
    the vertex of every split node it passes (deduplicating the
    ``IN → OUT`` pair) and is loop-erased at the end: the flow may contain
    cycles, which a walk consumes harmlessly.
    """

    def take_step(cur: int) -> int:
        for a in fwd[cur]:
            if res[a ^ 1] > 0:
                res[a ^ 1] -= 1
                return head[a]
        return -1

    paths: list[list[int]] = []
    while True:
        cur = take_step(s)
        if cur < 0:
            break
        path = [s >> 1]
        while True:
            node = cur >> 1
            if path[-1] != node:
                path.append(node)
            if cur == t:
                break
            cur = take_step(cur)
            if cur < 0:
                raise RoutingError("flow decomposition failed (internal bug)")
        paths.append(loop_erase(path))
    return paths


def _residuals(
    topology: Topology,
    layout: _SplitLayout,
    dead: list[int],
    blocked: Iterable[Hashable],
    extra_arcs: int = 0,
) -> list[int]:
    """Fresh unit residuals with the ``dead`` split nodes and both halves
    of every ``blocked`` vertex masked (all their arcs zeroed)."""
    masked = list(dead)
    for v in blocked:
        if topology.has_node(v):
            r = layout.rank(v)
            masked += (2 * r, 2 * r + 1)
    res = [1, 0] * ((layout.num_arcs >> 1) + extra_arcs)
    adj = layout.adj
    for x in masked:
        for a in adj[x]:
            res[a] = 0
            res[a ^ 1] = 0
    return res


def vertex_disjoint_paths(
    topology: Topology,
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
    if not (topology.has_node(source) and topology.has_node(target)):
        raise RoutingError("endpoint missing from graph")
    layout = _layout(topology)
    src, dst = layout.rank(source), layout.rank(target)
    if cutoff is None:
        cutoff = k if k is not None else min(
            len(layout.fwd[2 * src + 1]), len(layout.fwd[2 * dst + 1])
        )
    # no path may pass *through* an endpoint: mask their transit halves
    res = _residuals(topology, layout, [2 * src, 2 * dst + 1], blocked)
    s, t = 2 * src + 1, 2 * dst
    _max_flow(layout.adj, layout.head, res, s, t, cutoff)
    unrank = layout.unrank
    paths = [
        [unrank(r) for r in path]
        for path in _decompose(layout.fwd, layout.head, res, s, t)
    ]
    if k is not None:
        if len(paths) < k:
            raise RoutingError(
                f"requested {k} disjoint paths, graph supports only {len(paths)}"
            )
        paths = paths[:k]
    return paths


def node_to_set_disjoint_paths(
    topology: Topology,
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
        has_node = topology.has_node
        if not (has_node(target) and all(has_node(s) for s in real_sources)):
            raise RoutingError("endpoint missing from graph")
        layout = _layout(topology)
        rank = layout.rank
        ranks = [rank(s) for s in real_sources]
        # a super source feeds each source at its OUT side; its arcs follow
        # the layout's, and their reverses go last on each source's OUT list
        super_source = len(layout.adj)
        first = layout.num_arcs
        super_arcs = list(range(first, first + 2 * len(ranks), 2))
        adj = list(layout.adj)
        head = layout.head.copy()
        for r, a in zip(ranks, super_arcs, strict=True):
            adj[2 * r + 1] = adj[2 * r + 1] + [a + 1]
            head += (2 * r + 1, super_source)
        adj.append(super_arcs)
        fwd = layout.fwd + [super_arcs]
        # sever each source's IN side so no other path can pass through a
        # source vertex, and the target's OUT side
        dead = [2 * rank(target) + 1] + [2 * r for r in ranks]
        res = _residuals(topology, layout, dead, blocked, len(ranks))
        t = 2 * rank(target)
        value = _max_flow(adj, head, res, super_source, t, len(ranks))
        if value < len(ranks):
            raise RoutingError(
                f"only {value} of {len(ranks)} node-to-set paths exist"
            )
        unrank = layout.unrank
        for path in _decompose(fwd, head, res, super_source, t):
            # drop the super source's own (vertex-less) rank
            result_by_source[unrank(path[1])] = [unrank(r) for r in path[1:]]
    return [result_by_source[s] for s in sources]
