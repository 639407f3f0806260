"""E13 — product-decomposition metrics vs. all-pairs BFS sweeps.

Emits ``BENCH_metrics.json``.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_product_metrics.py [output.json] [--quick]

Two measurement campaigns:

* **speedup table** — exact diameter / average distance / full distance
  histogram per instance, timed on both engines where feasible: the
  factor-histogram convolution (:mod:`repro.analysis.decompose`) and the
  all-sources batched BFS sweep it replaces.  The two histograms are
  asserted **bit-identical** before any speedup is reported; the
  acceptance bar of this subsystem's PR is ≥50× on ``HB(5,8)``
  (65536 nodes).  ``HB(8,10)`` (2.6M nodes) runs decomposition-only —
  the sweep would take days at that scale, which is the point.
* **diameter sweep** — exact ``HB(m,n)`` diameters over a parameter grid,
  compared against the two readings of the paper: Theorem 3's
  ``m + ceil(3n/2)`` and the ``m + floor(3n/2)`` implied by Remark 1's
  butterfly diameter ``floor(3n/2)``.  The grid records, per ``(m, n)``,
  which reading matches (they differ only for odd ``n``).

``--quick`` keeps everything under a few seconds for CI smoke: the big
both-engine instance and the large grid rows are skipped.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from typing import Callable


def _clock(fn: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_speedup_instance(m: int, n: int, *, sweep: bool = True) -> dict:
    """Time decomposition vs. the all-sources sweep on a fresh ``HB(m,n)``.

    Fresh instances per engine so each timing includes its true one-time
    costs (factor BFS for decomposition, CSR build for the sweep) and no
    memoized histogram leaks between engines.
    """
    from repro.analysis.distance_stats import distance_profile
    from repro.core.hyperbutterfly import HyperButterfly

    hb = HyperButterfly(m, n)
    decomposed, decomposition_s = _clock(
        lambda: distance_profile(HyperButterfly(m, n))
    )
    assert decomposed.engine == "decomposition"
    entry: dict = {
        "instance": hb.name,
        "nodes": hb.num_nodes,
        "decomposition_s": round(decomposition_s, 6),
        "diameter": decomposed.diameter,
        "average_distance": decomposed.average_distance,
    }
    if sweep:
        swept, sweep_s = _clock(
            lambda: distance_profile(HyperButterfly(m, n), force_generic=True)
        )
        assert swept.counts == decomposed.counts, f"{hb.name}: engines disagree"
        entry["bfs_sweep_s"] = round(sweep_s, 6)
        entry["speedup"] = round(sweep_s / decomposition_s, 1)
        entry["identical_to_sweep"] = True
    return entry


def bench_diameter_sweep(grid: list[tuple[int, int]]) -> list[dict]:
    """Exact decomposition diameters vs. the ceil/floor formula readings."""
    from repro.analysis.distance_stats import distance_profile
    from repro.core.hyperbutterfly import HyperButterfly

    rows = []
    for m, n in grid:
        profile = distance_profile(HyperButterfly(m, n))
        assert profile.engine == "decomposition"
        exact = profile.diameter
        ceil_reading = m + math.ceil(3 * n / 2)
        floor_reading = m + (3 * n) // 2
        if ceil_reading == floor_reading:
            matches = "both" if exact == floor_reading else "neither"
        elif exact == floor_reading:
            matches = "floor"
        elif exact == ceil_reading:
            matches = "ceil"
        else:
            matches = "neither"
        rows.append(
            {
                "m": m,
                "n": n,
                "nodes": HyperButterfly(m, n).num_nodes,
                "exact_diameter": exact,
                "theorem3_ceil": ceil_reading,
                "remark1_floor": floor_reading,
                "matches": matches,
            }
        )
    return rows


def main(out_path: str = "BENCH_metrics.json", *flags: str) -> dict:
    from repro import __version__

    quick = "--quick" in flags
    speedup_instances: list[tuple[int, int, bool]] = [
        (2, 4, True),  # 256 nodes
        (3, 6, True),  # 3072 nodes
    ]
    if not quick:
        speedup_instances.append((5, 8, True))  # 65536 nodes — acceptance bar
    speedup_instances.append((8, 10, False))  # 2.6M nodes, decomposition only

    grid = [(m, n) for m in range(0, 4) for n in (3, 4, 5, 6)]
    if not quick:
        grid += [(m, n) for m in (2, 5, 8) for n in (7, 8, 9, 10)]

    report = {
        "generated_by": "benchmarks/bench_product_metrics.py",
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mode": "quick" if quick else "full",
        "speedup_table": [
            bench_speedup_instance(m, n, sweep=sweep)
            for m, n, sweep in speedup_instances
        ],
        "diameter_sweep": bench_diameter_sweep(grid),
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for entry in report["speedup_table"]:
        line = (
            f"{entry['instance']:>9s}  {entry['nodes']:>8d} nodes  "
            f"decomposition {entry['decomposition_s']*1e3:9.2f} ms"
        )
        if "bfs_sweep_s" in entry:
            line += (
                f"  sweep {entry['bfs_sweep_s']:8.3f} s"
                f"  x{entry['speedup']}"
            )
        else:
            line += "  (sweep skipped: decomposition-only scale)"
        print(line)
    floor_rows = [r for r in report["diameter_sweep"] if r["matches"] == "floor"]
    neither = [r for r in report["diameter_sweep"] if r["matches"] == "neither"]
    print(
        f"diameter sweep: {len(report['diameter_sweep'])} points, "
        f"{len(floor_rows)} odd-n points match the floor reading, "
        f"{len(neither)} match neither"
    )
    assert not neither, "exact diameter matched neither formula reading"
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    main(*sys.argv[1:])
