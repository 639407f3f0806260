"""Product-decomposition engine tests: bit-identical to brute-force BFS.

The engine's whole claim is exactness — factor-histogram convolution must
reproduce the all-pairs BFS aggregation *bit for bit* (integer counts,
and the floats derived from them) on every product family, including
nested generic products.  The grid here is the acceptance gate.
"""

from __future__ import annotations

import pytest

from repro.analysis.decompose import (
    convolve_pair_histograms,
    factor_pair_histogram,
    leaf_factors,
    product_pair_histogram,
)
from repro.analysis.distance_stats import distance_profile, pair_distance_counts
from repro.analysis.metrics import average_distance, exact_diameter
from repro.core.hyperbutterfly import HyperButterfly
from repro.topologies.cycle import Cycle
from repro.topologies.debruijn import DeBruijn
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn
from repro.topologies.product import CartesianProduct

PRODUCT_GRID = [
    HyperButterfly(0, 3),
    HyperButterfly(1, 3),
    HyperButterfly(2, 3),
    HyperButterfly(1, 4),
    HyperButterfly(2, 4),
    HyperDeBruijn(1, 3),
    HyperDeBruijn(2, 3),
    HyperDeBruijn(1, 4),
    CartesianProduct(Cycle(5), Hypercube(2)),
    CartesianProduct(Cycle(4), DeBruijn(2)),
    CartesianProduct(
        CartesianProduct(Cycle(4), DeBruijn(2)), Hypercube(1)
    ),
]


def _brute_force_counts(topology) -> dict[int, int]:
    """Per-source dict BFS aggregation — the reference the engine replaces."""
    counts: dict[int, int] = {}
    for v in topology.nodes():
        for d in topology.bfs_distances(v).values():
            counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


class TestFactorHistograms:
    def test_hypercube_closed_form_matches_bfs(self):
        for m in range(5):
            cube = Hypercube(m)
            assert factor_pair_histogram(cube) == _brute_force_counts(cube)

    def test_irregular_factor_matches_bfs(self):
        db = DeBruijn(3)
        assert not db.is_vertex_transitive
        assert factor_pair_histogram(db) == _brute_force_counts(db)

    def test_convolution_identity(self):
        point = {0: 1}  # the single-node graph's histogram
        hist = factor_pair_histogram(Cycle(5))
        assert convolve_pair_histograms(hist, point) == hist


class TestLeafFactors:
    def test_non_product_is_none(self):
        assert leaf_factors(Hypercube(3)) is None
        assert product_pair_histogram(DeBruijn(2)) is None
        assert product_pair_histogram(Cycle(5)) is None
        assert distance_profile(Cycle(5)).engine != "decomposition"

    def test_nested_products_flatten(self):
        nested = CartesianProduct(
            CartesianProduct(Cycle(4), DeBruijn(2)), Hypercube(1)
        )
        factors = leaf_factors(nested)
        assert factors is not None
        assert [type(f).__name__ for f in factors] == [
            "Cycle",
            "DeBruijn",
            "Hypercube",
        ]

    def test_hb_factors_are_cube_and_butterfly(self, hb23):
        factors = leaf_factors(hb23)
        assert factors is not None
        assert factors == (hb23.hypercube, hb23.butterfly)


class TestBitIdenticalGrid:
    """The acceptance grid: decomposition == brute force, exactly."""

    @pytest.mark.parametrize(
        "topology", PRODUCT_GRID, ids=lambda t: t.name
    )
    def test_histogram_bit_identical(self, topology):
        assert product_pair_histogram(topology) == _brute_force_counts(
            topology
        )

    @pytest.mark.parametrize(
        "topology", PRODUCT_GRID, ids=lambda t: t.name
    )
    def test_derived_metrics_bit_identical(self, topology):
        counts = _brute_force_counts(topology)
        assert max(product_pair_histogram(topology)) == max(counts)
        total = sum(counts.values())
        distinct = total - topology.num_nodes
        brute_average = (
            sum(d * c for d, c in counts.items()) / distinct
        )
        profile = distance_profile(topology)
        assert profile.engine == "decomposition"
        # == not approx: same integer sums, same single division
        assert profile.average_distance == brute_average

    @pytest.mark.parametrize(
        "topology", PRODUCT_GRID[:5], ids=lambda t: t.name
    )
    def test_public_entry_points_use_decomposition_consistently(
        self, topology
    ):
        assert exact_diameter(topology) == exact_diameter(
            topology, force_generic=True
        )
        assert pair_distance_counts(topology) == pair_distance_counts(
            topology, force_generic=True
        )
        counts = _brute_force_counts(topology)
        distinct = sum(counts.values()) - topology.num_nodes
        brute = sum(d * c for d, c in counts.items()) / distinct
        assert average_distance(topology) == brute


class TestScale:
    def test_huge_instance_is_exact_and_instant(self):
        """HB(8,10): 2.6M nodes resolved from one 2048-node factor BFS."""
        hb = HyperButterfly(8, 10)
        assert hb.num_nodes == 2_621_440
        assert exact_diameter(hb) == hb.diameter_formula() == 23
        average = average_distance(hb)
        assert 0 < average < hb.diameter_formula()

    def test_histogram_memoized_on_instance(self, hb23):
        first = product_pair_histogram(hb23)
        assert product_pair_histogram(hb23) == first
        assert getattr(hb23, "_decompose_pair_histogram") == first
