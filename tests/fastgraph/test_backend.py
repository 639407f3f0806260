"""Fast backend vs. pure-Python reference: bit-identical results.

The acceptance bar for the CSR backend is exactness: on a grid of small
instances of every topology family, distances, eccentricities, diameters,
shortest-path lengths, edges, and oracle services must match the
pure-Python label-walking implementations value for value.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.metrics import exact_diameter
from repro.cayley.graph import DistanceOracle
from repro.core.hyperbutterfly import HyperButterfly
from repro.fastgraph import get_fastgraph
from repro.fastgraph.backend import FastGraph
from repro.fastgraph.parallel import parallel_sweep
from repro.topologies.butterfly import WrappedButterfly
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.cycle import Cycle
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh, Torus
from repro.topologies.tree import CompleteBinaryTree

GRID = [
    Hypercube(1),
    Hypercube(4),
    WrappedButterfly(3),
    WrappedButterfly(4),
    CayleyButterfly(4),
    HyperButterfly(0, 3),
    HyperButterfly(2, 3),
    HyperButterfly(1, 4),
    DeBruijn(4),
    HyperDeBruijn(2, 3),
    Cycle(9),
    Torus(3, 4),
    Mesh(4, 3),
    CompleteBinaryTree(4),
]


def _sample_nodes(topology, k, seed=0):
    nodes = list(topology.nodes())
    rng = random.Random(seed)
    return rng.sample(nodes, min(k, len(nodes)))


@pytest.mark.parametrize("topology", GRID, ids=lambda t: t.name)
class TestFastMatchesPython:
    def test_backend_engages(self, topology):
        assert isinstance(get_fastgraph(topology), FastGraph)

    def test_bfs_distances_identical(self, topology):
        for source in _sample_nodes(topology, 4):
            fast = topology.bfs_distances(source)
            slow = topology._bfs_distances_python(source, frozenset())
            assert fast == slow

    def test_bfs_distances_blocked_identical(self, topology):
        nodes = _sample_nodes(topology, 6, seed=1)
        source, blocked = nodes[0], frozenset(nodes[1:4])
        if source in blocked:
            blocked = blocked - {source}
        fast = topology.bfs_distances(source, blocked=blocked)
        slow = topology._bfs_distances_python(source, blocked)
        assert fast == slow

    def test_eccentricity_identical(self, topology):
        for source in _sample_nodes(topology, 3, seed=2):
            reference = max(topology._bfs_distances_python(source, frozenset()).values())
            assert topology.eccentricity(source) == reference

    def test_shortest_paths_are_shortest_and_valid(self, topology):
        nodes = _sample_nodes(topology, 6, seed=3)
        for u in nodes[:2]:
            reference = topology._bfs_distances_python(u, frozenset())
            for v in nodes[2:]:
                path = topology.bfs_shortest_path(u, v)
                assert path is not None
                assert path[0] == u and path[-1] == v
                assert len(path) - 1 == reference[v]
                for a, b in zip(path, path[1:], strict=False):
                    assert b in topology.neighbors(a)

    def test_edges_identical(self, topology):
        fast = {frozenset(e) for e in topology.edges()}
        seen: set = set()
        slow = set()
        for u in topology.nodes():
            seen.add(u)
            for v in topology.neighbors(u):
                if v not in seen:
                    slow.add(frozenset((u, v)))
        assert fast == slow
        assert len(fast) == topology.num_edges

    def test_batched_eccentricities_match_per_source(self, topology):
        fg = get_fastgraph(topology)
        ecc = parallel_sweep(fg.csr, batch=32, name=topology.name).eccentricities
        for idx in range(0, topology.num_nodes, max(1, topology.num_nodes // 5)):
            source = fg.unrank(idx)
            expected = max(topology._bfs_distances_python(source, frozenset()).values())
            assert int(ecc[idx]) == expected

    def test_exact_diameter_generic_vs_transitive_agree(self, topology):
        assert exact_diameter(topology, force_generic=True) == max(
            max(topology._bfs_distances_python(v, frozenset()).values())
            for v in topology.nodes()
        )

    def test_distance_histogram_matches_python(self, topology):
        fg = get_fastgraph(topology)
        counts: dict[int, int] = {}
        for v in topology.nodes():
            for d in topology._bfs_distances_python(v, frozenset()).values():
                counts[d] = counts.get(d, 0) + 1
        sweep = parallel_sweep(fg.csr, check_connected=False)
        assert sweep.histogram == dict(sorted(counts.items()))


class TestBlockedSemantics:
    def test_blocked_source_raises(self, hb13):
        from repro.errors import InvalidLabelError

        u = hb13.identity_node()
        with pytest.raises(InvalidLabelError):
            hb13.bfs_distances(u, blocked=frozenset({u}))

    def test_blocked_target_path_none(self, hb13):
        u = hb13.identity_node()
        v = next(n for n in hb13.nodes() if n != u)
        assert hb13.bfs_shortest_path(u, v, blocked=frozenset({v})) is None

    def test_blocked_cut_disconnects(self):
        cycle = Cycle(8)
        blocked = frozenset({1, 7})
        dist = cycle.bfs_distances(0, blocked=blocked)
        assert dist == {0: 0}
        assert cycle.bfs_shortest_path(0, 4, blocked=blocked) is None

    def test_foreign_labels_in_blocked_are_ignored(self):
        h = Hypercube(3)
        assert h.bfs_distances(0, blocked=frozenset({"nope"})) == h.bfs_distances(0)


class TestOracleBackends:
    @pytest.mark.parametrize("m,n", [(0, 3), (1, 3), (2, 4)])
    def test_oracle_fast_matches_python(self, m, n):
        hb = HyperButterfly(m, n)
        fast = DistanceOracle(hb.group, hb.gens)
        slow = DistanceOracle(hb.group, hb.gens, backend="python")
        # default backend splits HB into factor oracles (product fast path)
        assert fast._left is not None and fast._right is not None
        assert slow._left is None and slow._dist_arr is None
        for v in hb.group.elements():
            assert fast.distance_from_identity(v) == slow.distance_from_identity(v)
            word = fast.generator_word(v)
            assert len(word) == fast.distance_from_identity(v)
            cursor = hb.group.identity()
            for i in word:
                cursor = hb.gens.apply(cursor, i)
            assert cursor == v
        assert fast.eccentricity_of_identity() == slow.eccentricity_of_identity()
        assert fast.distance_distribution() == slow.distance_distribution()
        assert fast.average_distance() == pytest.approx(slow.average_distance())

    def test_oracle_shortest_path_lengths_match(self, hb23):
        fast = DistanceOracle(hb23.group, hb23.gens)
        slow = DistanceOracle(hb23.group, hb23.gens, backend="python")
        nodes = _sample_nodes(hb23, 8, seed=5)
        for u in nodes[:4]:
            for v in nodes[4:]:
                pf, ps = fast.shortest_path(u, v), slow.shortest_path(u, v)
                assert len(pf) == len(ps) == fast.distance(u, v) + 1
                assert pf[0] == u and pf[-1] == v

    def test_invalid_element_raises(self, hb13):
        from repro.errors import InvalidLabelError

        oracle = DistanceOracle(hb13.group, hb13.gens)
        with pytest.raises(InvalidLabelError):
            oracle.distance_from_identity(("bogus", "label"))


class TestMemoization:
    def test_backend_memoized_per_instance(self):
        h = Hypercube(3)
        assert get_fastgraph(h) is get_fastgraph(h)

    def test_csr_built_once(self):
        h = Hypercube(3)
        fg = get_fastgraph(h)
        assert fg.csr is fg.csr
