"""Core hyper-butterfly tests: Definitions 3–4, Theorems 1–3, Remarks 3–8."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.cayley.transitivity import verify_vertex_transitivity
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidLabelError, InvalidParameterError


class TestTheorem2Counts:
    @pytest.mark.parametrize(("m", "n"), [(0, 3), (1, 3), (2, 3), (3, 3), (2, 4)])
    def test_node_and_edge_formulas(self, m, n):
        hb = HyperButterfly(m, n)
        assert hb.num_nodes == n * 2 ** (m + n)
        assert hb.num_edges == (m + 4) * n * 2 ** (m + n - 1)
        g = hb.to_networkx()
        assert g.number_of_nodes() == hb.num_nodes
        assert g.number_of_edges() == hb.num_edges

    @pytest.mark.parametrize(("m", "n"), [(0, 3), (2, 3), (3, 4)])
    def test_regular_of_degree_m_plus_4(self, m, n):
        hb = HyperButterfly(m, n)
        g = hb.to_networkx()
        assert all(d == m + 4 for _, d in g.degree())
        assert hb.degree_formula == m + 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            HyperButterfly(-1, 3)
        with pytest.raises(InvalidParameterError):
            HyperButterfly(2, 2)


class TestTheorem1Cayley:
    def test_generator_set_size_and_names(self, hb23):
        assert len(hb23.gens) == hb23.m + 4
        assert list(hb23.gens.names) == ["h_0", "h_1", "g", "f", "g^-1", "f^-1"]

    def test_generators_closed_under_inverse(self, hb23):
        # GeneratorSet construction validates this; assert the pairing too
        inv = hb23.gens.inverse_index
        assert inv[0] == 0 and inv[1] == 1  # h_i are involutions
        assert inv[2] == 4 and inv[4] == 2  # g <-> g^-1
        assert inv[3] == 5 and inv[5] == 3  # f <-> f^-1

    def test_remark3_fixed_point_free(self, hb23, hb24):
        for hb in (hb23, hb24):
            sample = [hb.identity_node(), (1, (1, 3))]
            assert hb.gens.is_fixed_point_free(sample=sample)

    def test_vertex_transitive(self, hb23):
        assert verify_vertex_transitivity(hb23.group, hb23.gens)

    def test_is_product_of_factors(self, hb13):
        """HB(m, n) must be isomorphic to the Cartesian product H_m x B_n."""
        ours = hb13.to_networkx()
        product = nx.cartesian_product(
            hb13.hypercube.to_networkx(), hb13.butterfly.to_networkx()
        )
        assert nx.is_isomorphic(ours, product)


class TestDefinition4Neighbors:
    def test_neighbor_partition(self, hb23):
        v = (1, (2, 0b011))
        cube = hb23.hypercube_neighbors(v)
        fly = hb23.butterfly_neighbors(v)
        assert len(cube) == hb23.m
        assert len(fly) == 4
        assert sorted(map(repr, cube + fly)) == sorted(map(repr, hb23.neighbors(v)))

    def test_remark4_edge_kinds(self, hb23):
        v = (1, (2, 0b011))
        for w in hb23.hypercube_neighbors(v):
            assert hb23.edge_kind(v, w) == "hypercube"
            assert w[1] == v[1]  # butterfly part unchanged
        for w in hb23.butterfly_neighbors(v):
            assert hb23.edge_kind(v, w) == "butterfly"
            assert w[0] == v[0]  # hypercube part unchanged

    def test_edge_kind_rejects_non_edges(self, hb23):
        with pytest.raises(InvalidLabelError):
            hb23.edge_kind((0, (0, 0)), (3, (0, 0)))

    def test_has_edge_matches_neighbour_scan(self, hb23):
        """The O(1) quotient probe answers exactly like the inherited scan
        over every node pair, invalid labels included (an invalid ``u``
        raises, an invalid ``v`` is never adjacent)."""
        from repro.topologies.base import Topology

        invalid = [(4, (0, 0)), (0, (3, 0)), (0, (0, 8)), (0, 0), "junk", None]
        labels = list(hb23.nodes()) + invalid

        def probe(has_edge, u, v):
            try:
                return has_edge(hb23, u, v)
            except InvalidLabelError:
                return "invalid"

        edges = 0
        for u in labels:
            for v in labels:
                fast = probe(HyperButterfly.has_edge, u, v)
                assert fast == probe(Topology.has_edge, u, v), (u, v)
                edges += fast is True
        assert edges == 2 * hb23.num_edges


class TestRemark5Copies:
    def test_hypercube_copy_is_hypercube(self, hb23):
        nodes = list(hb23.hypercube_copy((1, 0b010)))
        assert len(nodes) == 2**hb23.m
        sub = hb23.subgraph_networkx(nodes)
        assert nx.is_isomorphic(sub, nx.hypercube_graph(hb23.m))

    def test_butterfly_copy_is_butterfly(self, hb23):
        nodes = list(hb23.butterfly_copy(2))
        assert len(nodes) == hb23.n * 2**hb23.n
        sub = hb23.subgraph_networkx(nodes)
        assert nx.is_isomorphic(sub, hb23.butterfly.to_networkx())

    def test_copy_counts(self, hb23):
        # n*2^n disjoint hypercube copies and 2^m disjoint butterfly copies
        assert sum(1 for _ in hb23.fly_group.elements()) == 24
        assert 2**hb23.m == 4


class TestTheorem3Diameter:
    @pytest.mark.parametrize(
        ("m", "n"), [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 3)]
    )
    def test_diameter_formula_exact(self, m, n):
        """Exact BFS settles the floor/ceil ambiguity: m + floor(3n/2)."""
        hb = HyperButterfly(m, n)
        assert hb.diameter() == m + (3 * n) // 2 == hb.diameter_formula()

    def test_diameter_agrees_with_networkx(self, hb13):
        assert hb13.diameter() == nx.diameter(hb13.to_networkx())


class TestRemark8Distance:
    def test_distance_is_sum_of_parts(self, hb23, rng):
        g = hb23.to_networkx()
        nodes = list(hb23.nodes())
        for _ in range(60):
            u, v = rng.sample(nodes, 2)
            expected = nx.shortest_path_length(g, u, v)
            assert hb23.distance(u, v) == expected
            cube_part = (u[0] ^ v[0]).bit_count()
            fly_part = hb23.butterfly.distance(u[1], v[1])
            assert expected == cube_part + fly_part


class TestLabels:
    def test_identity_node_format(self, hb23):
        assert hb23.format_node(hb23.identity_node()) == "(00;abc)"

    def test_validate_rejects_foreign_labels(self, hb23):
        assert not hb23.has_node((4, (0, 0)))
        assert not hb23.has_node((0, (3, 0)))
        with pytest.raises(InvalidLabelError):
            hb23.validate_node("x")
