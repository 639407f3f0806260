"""Max-flow disjoint-path extraction tests."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import RoutingError
from repro.routing.base import paths_internally_disjoint, validate_path
from repro.routing.flows import node_to_set_disjoint_paths, vertex_disjoint_paths
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube


class _PathGraph(Topology):
    """The path ``0 - 1 - … - (n-1)``: a codec-less, non-Cayley topology."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.name = f"P_{n}"

    @property
    def num_nodes(self) -> int:
        return self.n

    def nodes(self):
        return iter(range(self.n))

    def has_node(self, v) -> bool:
        return isinstance(v, int) and 0 <= v < self.n

    def neighbors(self, v):
        self.validate_node(v)
        return [w for w in (v - 1, v + 1) if self.has_node(w)]


class TestVertexDisjointPaths:
    def test_matches_local_connectivity(self, rng):
        h = Hypercube(4)
        g = h.to_networkx()
        nodes = list(g.nodes())
        for _ in range(15):
            u, v = rng.sample(nodes, 2)
            family = vertex_disjoint_paths(h, u, v)
            assert len(family) == nx.connectivity.local_node_connectivity(g, u, v)
            assert paths_internally_disjoint(family)
            for p in family:
                validate_path(h, p, source=u, target=v)

    def test_k_truncates(self):
        g = Hypercube(4)
        family = vertex_disjoint_paths(g, 0, 0b1111, k=2)
        assert len(family) == 2

    def test_k_too_large_raises(self):
        g = Hypercube(3)
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(g, 0, 7, k=4)

    def test_blocked_nodes_avoided(self):
        g = Hypercube(3)
        family = vertex_disjoint_paths(g, 0, 0b111, blocked={0b001})
        for p in family:
            assert 0b001 not in p
        assert len(family) == 2  # one neighbor of the source is gone

    def test_blocked_endpoint_rejected(self):
        g = Hypercube(3)
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(g, 0, 7, blocked={0})

    def test_same_endpoints_rejected(self):
        g = Hypercube(3)
        with pytest.raises(RoutingError):
            vertex_disjoint_paths(g, 1, 1)

    def test_cutoff_still_yields_requested_family(self):
        g = CayleyButterfly(4)
        family = vertex_disjoint_paths(g, (0, 0), (2, 0b1010), k=4, cutoff=4)
        assert len(family) == 4
        assert paths_internally_disjoint(family)


class TestNodeToSet:
    def test_hypercube_neighbors_to_antipode(self):
        h = Hypercube(4)
        sources = [1 << i for i in range(4)]
        family = node_to_set_disjoint_paths(h, sources, 0b1111)
        assert [p[0] for p in family] == sources
        seen = set()
        for p in family:
            assert p[-1] == 0b1111
            for x in p[:-1]:
                assert x not in seen
                seen.add(x)
            validate_path(h, p, target=0b1111)

    def test_source_equal_to_target_gets_trivial_path(self):
        g = Hypercube(3)
        family = node_to_set_disjoint_paths(g, [0b111, 0b011], 0b111)
        assert family[0] == [0b111]
        assert family[1][0] == 0b011 and family[1][-1] == 0b111

    def test_butterfly_neighbors_to_far_node(self, bf4, rng):
        for _ in range(10):
            target = rng.choice(list(bf4.nodes()))
            anchor = rng.choice(list(bf4.nodes()))
            sources = bf4.neighbors(anchor)
            if target in sources or target == anchor:
                continue
            family = node_to_set_disjoint_paths(bf4, sources, target)
            assert len(family) == 4
            seen = set()
            for p in family:
                for x in p[:-1]:
                    assert x not in seen
                    seen.add(x)

    def test_paths_never_pass_through_other_sources(self):
        g = Hypercube(4)
        sources = [1, 2, 4, 8]
        family = node_to_set_disjoint_paths(g, sources, 0b1111)
        for i, p in enumerate(family):
            for j, s in enumerate(sources):
                if i != j:
                    assert s not in p

    def test_duplicate_sources_rejected(self):
        g = Hypercube(3)
        with pytest.raises(RoutingError):
            node_to_set_disjoint_paths(g, [1, 1], 7)

    def test_infeasible_raises(self):
        # a path graph cannot route 2 disjoint paths into its end vertex
        g = _PathGraph(5)
        with pytest.raises(RoutingError):
            node_to_set_disjoint_paths(g, [0, 2], 4)

    def test_blocked_respected(self):
        g = Hypercube(3)
        family = node_to_set_disjoint_paths(g, [1, 2], 7, blocked={5})
        for p in family:
            assert 5 not in p
