"""Oracle grid: the native Edmonds–Karp kernel against networkx.

:mod:`repro.routing.flows` promises the *same* path families the networkx
implementation returned (``_nx_flows`` keeps that implementation verbatim),
not merely valid ones: identical path lists, identical
:class:`RoutingError` messages.  The grid covers Cayley families (HB, B_n,
H_m), the irregular hyper-deBruijn and de Bruijn graphs and a codec-less
mesh of trees, with ``k``, ``cutoff`` and ``blocked``, on both layout
builds — from the fastgraph CSR and, with ``REPRO_FASTGRAPH=0``, from
``nodes()``/``neighbors()``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import RoutingError
from repro.routing import flows
from repro.topologies import (
    CayleyButterfly,
    DeBruijn,
    Hypercube,
    HyperDeBruijn,
    MeshOfTrees,
)

from . import _nx_flows

FAMILIES = {
    "HB(1,3)": lambda: HyperButterfly(1, 3),
    "HB(2,3)": lambda: HyperButterfly(2, 3),
    "HB(3,3)": lambda: HyperButterfly(3, 3),
    "HB(3,4)": lambda: HyperButterfly(3, 4),
    "B_3": lambda: CayleyButterfly(3),
    "B_4": lambda: CayleyButterfly(4),
    "H_4": lambda: Hypercube(4),
    "HD(2,3)": lambda: HyperDeBruijn(2, 3),
    "D_5": lambda: DeBruijn(5),
    "MT(2,2)": lambda: MeshOfTrees(2, 2),
}
PAIRS = 4


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RoutingError as exc:
        return ("RoutingError", str(exc))


def _assert_native_matches(family, cases, native_call, reference_call, monkeypatch):
    """Run every case on the reference once, then natively on a fresh
    instance per layout build: fastgraph CSR, then ``REPRO_FASTGRAPH=0``
    (the split layout is cached per instance, so each build starts cold)."""
    graph = FAMILIES[family]().to_networkx()
    expected = [_outcome(reference_call, graph, *args, **kw) for args, kw in cases]
    for fastgraph in ("1", "0"):
        monkeypatch.setenv("REPRO_FASTGRAPH", fastgraph)
        topology = FAMILIES[family]()
        for (args, kw), reference in zip(cases, expected, strict=True):
            native = _outcome(native_call, topology, *args, **kw)
            assert native == reference, (fastgraph, args, kw)
    return sum(isinstance(outcome, list) for outcome in expected)


@pytest.mark.parametrize("family", FAMILIES)
def test_vertex_disjoint_paths_match_reference(family, monkeypatch):
    topology = FAMILIES[family]()
    nodes = list(topology.nodes())
    rng = random.Random(f"vdp-{family}")
    cases = []
    for _ in range(PAIRS):
        u, v = rng.sample(nodes, 2)
        blocked = set(rng.sample(nodes, 3)) - {u, v}
        degree = min(topology.degree(u), topology.degree(v))
        for kwargs in (
            {},
            {"k": degree},
            {"k": degree + 1},
            {"cutoff": 2},
            {"k": 2, "cutoff": 3},
            {"blocked": blocked},
            {"blocked": blocked | set(topology.neighbors(u)[:1]), "k": degree},
        ):
            cases.append(((u, v), kwargs))
    found = _assert_native_matches(
        family,
        cases,
        flows.vertex_disjoint_paths,
        _nx_flows.vertex_disjoint_paths,
        monkeypatch,
    )
    assert found >= 4 * PAIRS  # the grid mostly compares families, not errors


@pytest.mark.parametrize("family", FAMILIES)
def test_node_to_set_paths_match_reference(family, monkeypatch):
    topology = FAMILIES[family]()
    nodes = list(topology.nodes())
    rng = random.Random(f"nts-{family}")
    cases = []
    for _ in range(PAIRS):
        target = rng.choice(nodes)
        sources = topology.neighbors(rng.choice(nodes))
        # an anchor adjacent to the target puts the target among the sources
        near = topology.neighbors(rng.choice(topology.neighbors(target)))
        far = [w for w in nodes if w != target]
        infeasible = rng.sample(far, topology.degree(target) + 1)
        blocked = set(rng.sample(nodes, 3)) - {target, *sources}
        starved = set(topology.neighbors(target)[1:]) - set(sources)
        for srcs, kwargs in (
            (sources, {}),
            (near, {}),
            (sources, {"blocked": blocked}),
            (sources[:2], {"blocked": starved}),
            (infeasible, {}),
        ):
            cases.append(((srcs, target), kwargs))
    found = _assert_native_matches(
        family,
        cases,
        flows.node_to_set_disjoint_paths,
        _nx_flows.node_to_set_disjoint_paths,
        monkeypatch,
    )
    assert found >= 2 * PAIRS


U, V, W = (0, (0, 0)), (1, (0, 0)), (1, (1, 0))


@pytest.mark.parametrize(
    ("call", "args", "kwargs"),
    [
        ("vertex_disjoint_paths", (U, V), {"blocked": [U]}),
        ("vertex_disjoint_paths", (U, U), {}),
        ("vertex_disjoint_paths", (U, (9, (0, 0))), {}),
        ("node_to_set_disjoint_paths", ([V, V], U), {}),
        ("node_to_set_disjoint_paths", ([V, W], U), {"blocked": [V]}),
    ],
)
def test_argument_errors_match_reference(call, args, kwargs):
    hb = HyperButterfly(1, 3)
    native = _outcome(getattr(flows, call), hb, *args, **kwargs)
    reference = _outcome(getattr(_nx_flows, call), hb.to_networkx(), *args, **kwargs)
    assert native == reference
    assert native[0] == "RoutingError"
