"""Graph-property analytics and the paper's comparison tables.

* :mod:`repro.analysis.decompose` — the distance pipeline: one dispatch
  (:func:`dispatch_pair_counts`) between product decomposition by
  factor-histogram convolution, vertex-transitive single BFS and the
  pooled all-sources sweep, yielding exact pair-distance histograms.
* :mod:`repro.analysis.distance_stats` — :class:`DistanceProfile`, the
  diameter / means / percentiles read off those histograms.
* :mod:`repro.analysis.metrics` — exact diameter and average distance
  (sampled past a node budget for non-products), regularity.
* :mod:`repro.analysis.formulas` — closed-form property formulas for the
  four families of Figure 1.
* :mod:`repro.analysis.compare` — the Figure 1 and Figure 2 table builders
  (experiments E1 and E2).
"""

from repro.analysis.decompose import (
    convolve_pair_histograms,
    factor_pair_histogram,
    dispatch_pair_counts,
    leaf_factors,
    product_pair_histogram,
)
from repro.analysis.metrics import (
    exact_diameter,
    average_distance,
    degree_profile,
)
from repro.analysis.formulas import (
    FamilyFormulas,
    hypercube_formulas,
    butterfly_formulas,
    hyperdebruijn_formulas,
    hyperbutterfly_formulas,
)
from repro.analysis.compare import (
    Cell,
    figure1_table,
    figure2_table,
    render_table,
)
from repro.analysis.distance_stats import (
    DistanceProfile,
    distance_profile,
    pair_distance_counts,
    profile_table,
)
from repro.analysis.bisection import (
    BisectionReport,
    bisection_report,
    cube_cut_width,
    spectral_lower_bound,
    kernighan_lin_upper_bound,
)

__all__ = [
    "convolve_pair_histograms",
    "factor_pair_histogram",
    "dispatch_pair_counts",
    "leaf_factors",
    "product_pair_histogram",
    "exact_diameter",
    "average_distance",
    "degree_profile",
    "FamilyFormulas",
    "hypercube_formulas",
    "butterfly_formulas",
    "hyperdebruijn_formulas",
    "hyperbutterfly_formulas",
    "Cell",
    "figure1_table",
    "figure2_table",
    "render_table",
    "BisectionReport",
    "bisection_report",
    "cube_cut_width",
    "spectral_lower_bound",
    "kernighan_lin_upper_bound",
    "DistanceProfile",
    "distance_profile",
    "pair_distance_counts",
    "profile_table",
]
