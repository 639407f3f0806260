"""Figure 1 and Figure 2 table builders (experiments E1 and E2).

Every cell records its *provenance*:

* ``exact``   — computed from an explicit instance built by this library;
* ``formula`` — the paper's closed form (cross-checked against ``exact``
  cells wherever an explicit instance is feasible);
* ``cited``   — a claim of the paper (or of [1] for hyper-deBruijn rows)
  that this library does not independently verify.

``figure1_table(m, n)`` reproduces the parametric comparison; with
``verify=True`` it builds all four graphs and replaces formula cells by
exact measurements (sizes permitting).  ``figure2_table()`` reproduces the
concrete comparison of ``HB(3,8)`` vs ``HD(3,11)`` vs ``HD(6,8)`` — three
networks of 16384-ish nodes — computing every numeric entry exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.formulas import (
    FamilyFormulas,
    butterfly_formulas,
    hypercube_formulas,
    hyperbutterfly_formulas,
    hyperdebruijn_formulas,
)
from repro.analysis.metrics import degree_profile, exact_diameter
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import InvalidParameterError
from repro.topologies.base import Topology
from repro.topologies.butterfly_cayley import CayleyButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.hyperdebruijn import HyperDeBruijn

__all__ = ["Cell", "figure1_table", "figure2_table", "render_table"]


@dataclass(frozen=True)
class Cell:
    """One table entry plus where its value came from."""

    value: object
    source: str  # "exact" | "formula" | "cited"

    def __str__(self) -> str:
        marker = {"exact": "", "formula": "*", "cited": "†"}[self.source]
        return f"{self.value}{marker}"


_ROWS = [
    "Nodes",
    "Edges",
    "Regular",
    "Degree",
    "Diameter",
    "Fault-tolerance",
    "Cycles",
    "Mesh",
    "Binary Tree",
    "Mesh of Trees",
]


def _formula_column(f: FamilyFormulas) -> dict[str, Cell]:
    degree = str(f.degree_min) if f.degree_min == f.degree_max else (
        f"{f.degree_min}..{f.degree_max}"
    )
    return {
        "Nodes": Cell(f.nodes, "formula"),
        "Edges": Cell(f.edges if f.edges is not None else "(computed)", "formula"),
        "Regular": Cell("yes" if f.regular else "no", "formula"),
        "Degree": Cell(degree, "formula"),
        "Diameter": Cell(f.diameter, "formula"),
        "Fault-tolerance": Cell(f.fault_tolerance, "formula"),
        "Cycles": Cell(f.cycles, "cited"),
        "Mesh": Cell("yes" if f.mesh else "no", "cited"),
        "Binary Tree": Cell(f.binary_tree, "cited"),
        "Mesh of Trees": Cell(f.mesh_of_trees, "cited"),
    }


def _build_topology(family: str, m: int, n: int) -> Topology:
    if family.startswith("H_"):
        return Hypercube(m + n)
    if family.startswith("B_"):
        return CayleyButterfly(m + n)
    if family.startswith("HD"):
        return HyperDeBruijn(m, n)
    return HyperButterfly(m, n)


def _exactify_column(
    column: dict[str, Cell], topology: Topology, *, connectivity: Callable | None
) -> None:
    """Replace size/degree/diameter/FT formula cells with measured values."""
    profile = degree_profile(topology)
    degrees = sorted(profile)
    degree = str(degrees[0]) if len(degrees) == 1 else f"{degrees[0]}..{degrees[-1]}"
    column["Nodes"] = Cell(topology.num_nodes, "exact")
    column["Edges"] = Cell(
        sum(d * c for d, c in profile.items()) // 2, "exact"
    )
    column["Regular"] = Cell("yes" if len(degrees) == 1 else "no", "exact")
    column["Degree"] = Cell(degree, "exact")
    column["Diameter"] = Cell(exact_diameter(topology), "exact")
    if connectivity is not None:
        column["Fault-tolerance"] = Cell(connectivity(topology), "exact")


def figure1_table(
    m: int, n: int, *, verify: bool = False, verify_node_budget: int = 40_000
) -> dict[str, dict[str, Cell]]:
    """The Figure 1 comparison at design point ``(m, n)``.

    Returns ``{family: {row: Cell}}``.  With ``verify=True``, families whose
    instances fit in ``verify_node_budget`` nodes get exact measurements
    (including flow-computed vertex connectivity on instances small enough).
    """
    if n < 3:
        raise InvalidParameterError("Figure 1 requires n >= 3")
    columns = {
        f.family: _formula_column(f)
        for f in (
            hypercube_formulas(m, n),
            butterfly_formulas(m, n),
            hyperdebruijn_formulas(m, n),
            hyperbutterfly_formulas(m, n),
        )
    }
    if verify:
        from repro.faults.connectivity import vertex_connectivity

        for family, column in columns.items():
            topology = _build_topology(family, m, n)
            if topology.num_nodes > verify_node_budget:
                continue
            connectivity = (
                vertex_connectivity if topology.num_nodes <= 2048 else None
            )
            _exactify_column(column, topology, connectivity=connectivity)
    return columns


def figure2_table(
    *,
    exact_diameters: bool = True,
    connectivity_pairs: int = 8,
) -> dict[str, dict[str, Cell]]:
    """The Figure 2 concrete comparison: ``HB(3,8)`` vs ``HD(3,11)`` vs
    ``HD(6,8)`` (all ≈16384 processors).

    Numeric structure cells are exact.  Diameters are exact (product
    decomposition for both ``HB`` and ``HD``) unless
    ``exact_diameters=False`` (formula values, for quick runs).
    Fault tolerance is reported as the paper's formula value together with
    a sampled Menger certificate (``connectivity_pairs`` disjoint-path
    witnesses; see ``repro.faults.connectivity``); exact flow connectivity
    at 16k nodes is impractical, and tests verify it exactly on scaled-down
    instances instead.
    """
    from repro.faults.connectivity import connectivity_certificate

    instances: dict[str, object] = {
        "HB(3,8)": HyperButterfly(3, 8),
        "HD(3,11)": HyperDeBruijn(3, 11),
        "HD(6,8)": HyperDeBruijn(6, 8),
    }
    embeddings = {
        "HB(3,8)": {
            "Cycles": Cell("even cycles 4..16384", "exact"),
            "Mesh": Cell("yes", "exact"),
            "Binary Tree": Cell("T(10)", "exact"),
            "Mesh of Trees": Cell("MT(2^1,2^8)", "exact"),
        },
        "HD(3,11)": {
            "Cycles": Cell("pancyclic", "cited"),
            "Mesh": Cell("yes", "cited"),
            "Binary Tree": Cell("T(13)", "cited"),
            "Mesh of Trees": Cell("MT(2^1,2^10)", "cited"),
        },
        "HD(6,8)": {
            "Cycles": Cell("pancyclic", "cited"),
            "Mesh": Cell("yes", "cited"),
            "Binary Tree": Cell("T(13)", "cited"),
            "Mesh of Trees": Cell("MT(2^4,2^6)", "cited"),
        },
    }
    table: dict[str, dict[str, Cell]] = {}
    for name, topology in instances.items():
        profile = degree_profile(topology)
        degrees = sorted(profile)
        degree = (
            str(degrees[0]) if len(degrees) == 1 else f"{degrees[0]}..{degrees[-1]}"
        )
        if exact_diameters:
            diameter = Cell(exact_diameter(topology), "exact")
        else:
            diameter = Cell(topology.diameter_formula(), "formula")
        certificate = connectivity_certificate(topology, pairs=connectivity_pairs)
        ft_formula = topology.fault_tolerance_formula()
        ft_note = (
            f"{ft_formula} (witnessed >= {certificate.lower_witnessed})"
        )
        table[name] = {
            "Nodes": Cell(topology.num_nodes, "exact"),
            "Edges": Cell(topology.num_edges, "exact"),
            "Regular": Cell("yes" if len(degrees) == 1 else "no", "exact"),
            "Degree": Cell(degree, "exact"),
            "Diameter": diameter,
            "Fault-tolerance": Cell(ft_note, "formula"),
            **embeddings[name],
        }
    return table


def render_table(table: dict[str, dict[str, Cell]], *, title: str = "") -> str:
    """Render ``{column: {row: Cell}}`` in the paper's layout (rows =
    parameters, columns = families).  ``*`` marks formula cells, ``†``
    marks cited-only cells."""
    columns = list(table)
    rows = [r for r in _ROWS if any(r in col for col in table.values())]
    widths = [max(len("Parameter"), max(len(r) for r in rows))]
    for name in columns:
        width = max(len(name), max(len(str(table[name].get(r, ""))) for r in rows))
        widths.append(width)
    lines = []
    if title:
        lines.append(title)
    header = ["Parameter"] + columns
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths, strict=True)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        cells = [row.ljust(widths[0])]
        for name, width in zip(columns, widths[1:], strict=True):
            cells.append(str(table[name].get(row, "")).ljust(width))
        lines.append(" | ".join(cells))
    lines.append("(* = paper formula, † = cited claim, plain = computed exactly)")
    return "\n".join(lines)
