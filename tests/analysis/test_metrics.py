"""Metrics tests: both diameter paths must agree; profiles must be exact."""

from __future__ import annotations

import sys

import networkx as nx
import pytest

from repro.analysis.distance_stats import pair_distance_counts
from repro.analysis.metrics import average_distance, degree_profile, exact_diameter
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import DisconnectedError
from repro.fastgraph.backend import get_fastgraph
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.mesh import Mesh


class TestExactDiameter:
    @pytest.mark.parametrize(
        "topology",
        [Hypercube(4), CayleyButterfly(3), HyperDeBruijn(2, 3)],
        ids=["H_4", "B_3", "HD(2,3)"],
    )
    def test_agrees_with_networkx(self, topology):
        assert exact_diameter(topology) == nx.diameter(topology.to_networkx())

    def test_fast_path_equals_generic_path(self, hb13):
        assert exact_diameter(hb13) == exact_diameter(hb13, force_generic=True)

    def test_batched_bfs_on_irregular_graph(self):
        hd = HyperDeBruijn(1, 4)
        assert exact_diameter(hd, force_generic=True) == nx.diameter(hd.to_networkx())

    def test_hb_diameter_formula(self, hb24):
        assert exact_diameter(hb24) == hb24.diameter_formula()


class _TwoIslands(Topology):
    name = "islands"
    num_nodes = 2

    def nodes(self):
        return iter([0, 1])

    def neighbors(self, v):
        self.validate_node(v)
        return []

    def has_node(self, v):
        return v in (0, 1)


class TestWithoutScipy:
    """The label-BFS sweep is the one fallback when scipy is missing."""

    FACTORIES = [lambda: DeBruijn(5), lambda: Mesh(4, 3), lambda: HyperButterfly(1, 3)]

    @staticmethod
    def _numbers(topology):
        return (
            exact_diameter(topology, force_generic=True),
            pair_distance_counts(topology, force_generic=True),
            average_distance(topology),
        )

    @pytest.mark.parametrize("factory", FACTORIES, ids=["D_5", "Mesh(4,3)", "HB(1,3)"])
    def test_numbers_equal_the_scipy_backed_ones(self, factory, monkeypatch):
        expected = self._numbers(factory())
        monkeypatch.setitem(sys.modules, "scipy", None)
        topology = factory()  # fresh instance: nothing memoized
        with pytest.raises(ImportError):
            get_fastgraph(topology, allow_enumeration=True).csr.to_scipy()
        assert self._numbers(topology) == expected

    def test_disconnected_raises_disconnected_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        islands = _TwoIslands()
        for force_generic in (False, True):
            with pytest.raises(DisconnectedError):
                exact_diameter(islands, force_generic=force_generic)
        with pytest.raises(DisconnectedError):
            islands.eccentricity(0)
        assert pair_distance_counts(islands) == {0: 2}


class TestAverageDistance:
    def test_exact_on_small(self):
        h = Hypercube(3)
        # mean Hamming distance between distinct words: m*2^(m-1)/(2^m -1)
        expected = 3 * 4 / 7
        assert average_distance(h) == pytest.approx(expected)

    def test_sampled_mode_close_to_exact(self):
        h = Hypercube(6)
        exact = average_distance(h)
        sampled = average_distance(h, exact_node_budget=1, samples=400, seed=1)
        assert abs(sampled - exact) < 0.35

    def test_deterministic_sampling(self, hb13):
        a = average_distance(hb13, exact_node_budget=1, samples=50, seed=2)
        b = average_distance(hb13, exact_node_budget=1, samples=50, seed=2)
        assert a == b


class TestDegreeProfile:
    def test_regular_profile(self, hb23):
        assert degree_profile(hb23) == {6: 96}

    def test_irregular_profile_hd(self):
        profile = degree_profile(HyperDeBruijn(2, 3))
        assert set(profile) == {4, 5, 6}
        assert sum(profile.values()) == 32
        # exactly the two loop words (000, 111) lose 2 degrees
        assert profile[4] == 2 * 2**2
