"""Connectivity analysis tests (Section 5 claims, exactly)."""

from __future__ import annotations

import pytest

from repro.core.hyperbutterfly import HyperButterfly
from repro.faults.connectivity import (
    connected_under_faults,
    connectivity_certificate,
    is_maximally_fault_tolerant,
    vertex_connectivity,
)
from repro.faults.model import FaultSet
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn


class TestExactConnectivity:
    def test_hypercube_kappa_m(self):
        """[5]: kappa(H_m) = m; maximally fault tolerant."""
        for m in (2, 3, 4):
            h = Hypercube(m)
            assert vertex_connectivity(h) == m
            assert is_maximally_fault_tolerant(h)

    def test_butterfly_kappa_4(self):
        """Remark 1: kappa(B_n) = 4; maximally fault tolerant."""
        b = CayleyButterfly(3)
        assert vertex_connectivity(b) == 4
        assert is_maximally_fault_tolerant(b)

    @pytest.mark.parametrize(("m", "n"), [(0, 3), (1, 3), (2, 3)])
    def test_corollary1_hb_kappa_m_plus_4(self, m, n):
        """Corollary 1: kappa(HB(m,n)) = m + 4 — exact, not just witnessed."""
        hb = HyperButterfly(m, n)
        assert vertex_connectivity(hb) == m + 4
        assert is_maximally_fault_tolerant(hb)

    @pytest.mark.parametrize(("m", "n"), [(1, 3), (2, 3)])
    def test_hd_is_not_maximally_fault_tolerant(self, m, n):
        """The HD shortcoming the paper fixes: kappa = m+2 < max degree."""
        hd = HyperDeBruijn(m, n)
        assert vertex_connectivity(hd) == m + 2
        lo, hi = hd.degree_stats()
        assert m + 2 == lo < hi  # limited by its minimum-degree nodes


@pytest.mark.parametrize(
    "make",
    [
        lambda: HyperButterfly(1, 3),
        lambda: HyperButterfly(2, 3),
        lambda: HyperButterfly(3, 3),
        lambda: HyperDeBruijn(2, 3),
        lambda: Hypercube(4),
        lambda: CayleyButterfly(3),
        lambda: CayleyButterfly(4),
    ],
    ids=["HB(1,3)", "HB(2,3)", "HB(3,3)", "HD(2,3)", "H_4", "B_3", "B_4"],
)
def test_vertex_connectivity_matches_networkx(make):
    """Even's algorithm on the native kernel equals nx.node_connectivity."""
    import networkx as nx

    topology = make()
    assert vertex_connectivity(topology) == nx.node_connectivity(
        topology.to_networkx()
    )


def test_vertex_connectivity_of_disconnected_graph_is_zero():
    from repro.topologies.base import Topology

    class TwoEdges(Topology):
        """The disjoint edges 0-1 and 2-3: codec-less and disconnected."""

        name = "2K_2"
        num_nodes = 4

        def nodes(self):
            return iter(range(4))

        def has_node(self, v):
            return v in range(4)

        def neighbors(self, v):
            return [v ^ 1]

    assert vertex_connectivity(TwoEdges()) == 0


class TestCertificates:
    def test_certificate_tight_on_hb(self, hb23):
        cert = connectivity_certificate(hb23, pairs=10)
        assert cert.upper == hb23.m + 4
        assert cert.lower_witnessed == hb23.m + 4
        assert cert.tight

    def test_certificate_pairs_recorded(self, hb13):
        cert = connectivity_certificate(hb13, pairs=4)
        assert cert.pairs_sampled == 4

    def test_invalid_pairs(self, hb13):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            connectivity_certificate(hb13, pairs=0)


class TestConnectedUnderFaults:
    def test_below_connectivity_never_disconnects(self, hb13, rng):
        """Corollary 1 consequence: any m+3 faults leave HB connected."""
        from repro.faults.model import random_node_faults

        for _ in range(10):
            faults = random_node_faults(hb13, hb13.m + 3, rng=rng)
            assert connected_under_faults(hb13, faults)

    def test_isolating_a_node_disconnects(self, hb13):
        victim = (1, (1, 0b010))
        faults = FaultSet(hb13, hb13.neighbors(victim))
        assert not connected_under_faults(hb13, faults)

    def test_all_faulty_is_vacuously_connected(self):
        h = Hypercube(1)
        assert connected_under_faults(h, FaultSet(h, [0, 1]))

    def test_backends_agree_on_verdicts(self, hb13):
        """The fast reachability count is pinned to the python fallback."""
        import random

        from repro.faults.model import random_node_faults

        victim = (1, (1, 0b010))
        cases = [
            random_node_faults(hb13, count, rng=random.Random(count))
            for count in (0, hb13.m + 3, 10, 20)
        ]
        cases.append(FaultSet(hb13, hb13.neighbors(victim)))  # disconnects
        verdicts = []
        for faults in cases:
            per_backend = {
                backend: connected_under_faults(hb13, faults, backend=backend)
                for backend in ("python", "csr", "implicit")
            }
            assert len(set(per_backend.values())) == 1
            verdicts.append(per_backend["python"])
        assert verdicts[0] and verdicts[1]  # <= m+3 can never disconnect
        assert not verdicts[-1]

    def test_unknown_backend_rejected(self, hb13):
        """Rejected whether or not the fast backend is enabled."""
        from repro.analysis.distance_stats import pair_distance_counts
        from repro.errors import InvalidParameterError

        source = hb13.identity_node()
        for call in (
            lambda: connected_under_faults(hb13, FaultSet(hb13), backend="quantum"),
            lambda: hb13.bfs_distances(source, backend="quantum"),
            lambda: hb13.eccentricity(source, backend="quantum"),
            lambda: pair_distance_counts(hb13, backend="quantum"),
        ):
            with pytest.raises(InvalidParameterError):
                call()
