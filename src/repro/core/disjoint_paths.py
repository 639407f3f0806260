"""The ``m + 4`` node-disjoint paths of Theorem 5 (and Corollary 1).

Between any two distinct nodes ``u = (h, b)`` and ``v = (h', b')`` of
``HB(m, n)`` there are ``m + 4`` internally disjoint paths.  The paper's
proof is constructive with three cases:

* **Case 1** (``h ≠ h'``, ``b = b'``): the ``m`` hypercube-disjoint paths
  inside the copy ``(H_m, b)``, plus 4 detours through the butterfly
  neighbors ``(h, b^{(j)})`` that cross their own hypercube copy.
* **Case 2** (``h = h'``, ``b ≠ b'``): the 4 butterfly-disjoint paths
  inside ``(h, B_n)``, plus ``m`` detours through the hypercube neighbors
  ``(h^{(i)}, b)`` that cross their own butterfly copy.
* **Case 3** (both differ): ``m`` cube-first paths
  ``u → (h^{(i)}, b) → [butterfly route] → (h^{(i)}, b') → [cube tail] → v``
  and 4 fly-first paths
  ``u → (h, b^{(j)}) → [cube route] → (h', b^{(j)}) → [fly tail] → v``.

Reproduction note (recorded in EXPERIMENTS.md): the paper asserts the
case 3 family is "easy to see" disjoint, but the construction as literally
stated can fail in two corner situations:

1. ``dist(h, h') = 1``: the cube-first path through ``h^{(i)} = h'`` ends
   with a butterfly hop into ``v``, so 5 paths would enter ``v`` through
   its 4 butterfly edges;
2. ``b'`` adjacent to ``b``: symmetrically, ``m + 1`` paths would enter
   ``v`` through its ``m`` hypercube edges.

Theorem 5 itself is still true (``HB`` is ``(m+4)``-connected — verified
exactly by max-flow on small instances), so this module implements the
paper's construction for the generic case — with the node-to-set tail
families extracted by copy-local max-flow, exactly the black boxes the
proof invokes — detects the corner cases, and falls back to an exact
global Menger (max-flow) family whenever the constructive skeleton cannot
be completed.  Every returned family is verified before being handed back.
"""

from __future__ import annotations

from typing import Literal

from repro._bits import set_bits
from repro.core.hyperbutterfly import HBNode, HyperButterfly
from repro.errors import RoutingError
from repro.routing.base import paths_internally_disjoint, validate_path
from repro.routing.butterfly import butterfly_route_walk
from repro.routing.flows import node_to_set_disjoint_paths, vertex_disjoint_paths
from repro.routing.hypercube import hypercube_disjoint_paths, hypercube_route

__all__ = [
    "construction_case",
    "disjoint_paths",
    "disjoint_paths_with_info",
    "verify_disjoint_paths",
]


def construction_case(u: HBNode, v: HBNode) -> int:
    """Which Theorem 5 case the pair ``(u, v)`` falls into (1, 2 or 3)."""
    if u == v:
        raise RoutingError("disjoint paths require distinct endpoints")
    h_differs = u[0] != v[0]
    b_differs = u[1] != v[1]
    if h_differs and not b_differs:
        return 1
    if b_differs and not h_differs:
        return 2
    return 3


def _lift_cube(path_words: list[int], b: tuple[int, int]) -> list[HBNode]:
    return [(x, b) for x in path_words]


def _lift_fly(h: int, path_fly: list[tuple[int, int]]) -> list[HBNode]:
    return [(h, y) for y in path_fly]


# --------------------------------------------------------------------------
# Case 1: same butterfly part
# --------------------------------------------------------------------------


def _case1(hb: HyperButterfly, u: HBNode, v: HBNode) -> list[list[HBNode]]:
    h, b = u
    h2, _ = v
    paths = [
        _lift_cube(p, b) for p in hypercube_disjoint_paths(hb.m, h, h2)
    ]
    cube_route = hypercube_route(hb.m, h, h2)
    for s in hb.fly_group.butterfly_generators():
        bj = hb.fly_group.multiply(b, s)
        paths.append([u] + _lift_cube(cube_route, bj) + [v])
    return paths


# --------------------------------------------------------------------------
# Case 2: same hypercube part
# --------------------------------------------------------------------------


def _case2(hb: HyperButterfly, u: HBNode, v: HBNode) -> list[list[HBNode]]:
    h, b = u
    _, b2 = v
    fly_paths = vertex_disjoint_paths(hb.butterfly, b, b2, k=4)
    paths = [_lift_fly(h, p) for p in fly_paths]
    fly_route = butterfly_route_walk(hb.n, b, b2)
    for i in range(hb.m):
        hi = h ^ (1 << i)
        paths.append([u] + _lift_fly(hi, fly_route) + [v])
    return paths


# --------------------------------------------------------------------------
# Case 3: both parts differ
# --------------------------------------------------------------------------


class _Case3Builder:
    """Builds the case-3 family, including corner-case repairs.

    The generic skeleton (see module docstring) fails in two corners; both
    admit local *repairs* that keep the construction copy-local:

    * ``dist(h, h') = 1`` with differing dimension ``i*``: the cube-first
      path for ``i*`` is rerouted as ``u → (h', b) → (h'', b) →
      [fly route in copy h''] → (h'', b') → v`` where ``h'' = h' ⊕ e_k``
      (``k ≠ i*``) is a fresh cube word at distance 2 from ``h``.  The path
      then enters ``v`` through hypercube neighbor ``h''`` (reserved from
      the cube-tail flow), restoring the 4-butterfly/m-hypercube entry
      balance at ``v``.  Requires ``m ≥ 2``.

    * ``b'`` adjacent to ``b`` (``b_{j*} = b'``): the fly-first path for
      ``j*`` is rerouted as ``u → (h, b') → (h, b''') → [cube route in copy
      b'''] → (h', b''') → v`` where ``b''' ∈ N(b') \\ ({b} ∪ N(b))`` is a
      fresh butterfly word at distance 2 from ``b``; the path enters ``v``
      through butterfly neighbor ``b'''`` (blocked from the fly-tail flow).

    If a repair's preconditions fail (``m = 1``, or no fresh ``b'''``
    exists), :class:`RoutingError` propagates and the caller falls back to
    the exact max-flow family.
    """

    def __init__(self, hb: HyperButterfly, u: HBNode, v: HBNode) -> None:
        self.hb = hb
        self.u, self.v = u, v
        self.h, self.b = u
        self.h2, self.b2 = v
        self.m, self.n = hb.m, hb.n
        self.b_neighbors = [
            hb.fly_group.multiply(self.b, s)
            for s in hb.fly_group.butterfly_generators()
        ]
        self.h_neighbors = [self.h ^ (1 << i) for i in range(self.m)]
        self.diff = set_bits(self.h ^ self.h2)

        # corner detection
        self.i_star = (
            self.h_neighbors.index(self.h2) if self.h2 in self.h_neighbors else None
        )
        self.j_star = (
            self.b_neighbors.index(self.b2) if self.b2 in self.b_neighbors else None
        )

        # repair resources (chosen in _plan_repairs)
        self.h_fresh: int | None = None  # h'' for the dist-1 repair
        self.b_fresh: tuple[int, int] | None = None  # b''' for the adjacency repair

    # -- planning ---------------------------------------------------------

    def _plan_repairs(self) -> None:
        if self.i_star is not None:
            if self.m < 2:
                raise RoutingError(
                    "case-3 dist-1 corner with m = 1 has no copy-local repair"
                )
            k = next(i for i in range(self.m) if i != self.i_star)
            self.h_fresh = self.h2 ^ (1 << k)
        if self.j_star is not None:
            fly = self.hb.butterfly
            candidates = [
                y
                for y in fly.neighbors(self.b2)
                if y != self.b and y not in self.b_neighbors
            ]
            if not candidates:
                raise RoutingError(
                    "case-3 adjacency corner: no fresh butterfly word near b'"
                )
            self.b_fresh = candidates[0]

    # -- fly-first paths ---------------------------------------------------

    def _cube_segment_order(self, j: int) -> list[int]:
        d = len(self.diff)
        return self.diff[j % d :] + self.diff[: j % d]

    def _build_fly_first(self) -> list[list[HBNode]]:
        hb = self.hb
        # cube segments, each in its own copy; record (copy word, segment)
        self.cube_segments: list[tuple[tuple[int, int], list[int]]] = []
        for j, bj in enumerate(self.b_neighbors):
            copy = self.b_fresh if j == self.j_star else bj
            self.cube_segments.append(
                (copy, hypercube_route(self.m, self.h, self.h2, order=self._cube_segment_order(j)))
            )

        # fly tails inside (h', B_n); the repaired j* supplies its own entry
        tail_sources = [
            bj for j, bj in enumerate(self.b_neighbors) if j != self.j_star
        ]
        blocked: set = set()
        if self.i_star is not None:
            blocked.add(self.b)  # (h', b) is owned by the repaired cube-first path
        if self.b_fresh is not None:
            blocked.add(self.b_fresh)  # (h', b''') is the repaired path's entry
        fly_tails = node_to_set_disjoint_paths(
            hb.butterfly, tail_sources, self.b2, blocked=blocked
        )
        tail_by_source = dict(zip(tail_sources, fly_tails, strict=True))

        paths: list[list[HBNode]] = []
        for j, bj in enumerate(self.b_neighbors):
            copy, segment = self.cube_segments[j]
            if j == self.j_star:
                # u → (h, b') → (h, b''') → cube route in copy b''' → (h', b''') → v
                path = (
                    [self.u, (self.h, self.b2)]
                    + _lift_cube(segment, copy)
                    + [self.v]
                )
            else:
                path = (
                    [self.u]
                    + _lift_cube(segment, copy)
                    + _lift_fly(self.h2, tail_by_source[bj])[1:]
                )
            paths.append(path)
        return paths

    # -- cube-first paths ---------------------------------------------------

    def _fly_collision_blocks(self, hi: int) -> frozenset:
        """Butterfly words owned by a fly-first cube segment passing ``hi``."""
        return frozenset(
            copy for copy, segment in self.cube_segments if hi in segment
        )

    def _build_cube_first(self) -> list[list[HBNode]]:
        hb = self.hb
        fly_segments: dict[int, list] = {}
        for i, hi in enumerate(self.h_neighbors):
            if i == self.i_star:
                continue
            seg = hb.butterfly.bfs_shortest_path(
                self.b, self.b2, blocked=self._fly_collision_blocks(hi)
            )
            if seg is None:
                raise RoutingError(
                    "butterfly copy disconnected under collision avoidance"
                )
            fly_segments[i] = seg

        tail_sources = [
            hi for i, hi in enumerate(self.h_neighbors) if i != self.i_star
        ]
        blocked: set = set()
        if self.h_fresh is not None:
            blocked.add(self.h_fresh)  # reserved entry of the repaired path
        if self.j_star is not None:
            blocked.add(self.h)  # (h, b') is owned by the repaired fly-first path
        cube_tails = node_to_set_disjoint_paths(
            hb.hypercube, tail_sources, self.h2, blocked=blocked
        )
        tail_by_source = dict(zip(tail_sources, cube_tails, strict=True))

        paths: list[list[HBNode]] = []
        for i, hi in enumerate(self.h_neighbors):
            if i == self.i_star:
                # u → (h', b) → (h'', b) → fly route in copy h'' → (h'', b') → v
                seg = hb.butterfly.bfs_shortest_path(
                    self.b, self.b2, blocked=self._fly_collision_blocks(self.h_fresh)
                )
                if seg is None:
                    raise RoutingError(
                        "repair copy disconnected under collision avoidance"
                    )
                path = (
                    [self.u, (self.h2, self.b)]
                    + _lift_fly(self.h_fresh, seg)
                    + [self.v]
                )
            else:
                path = (
                    [self.u]
                    + _lift_fly(hi, fly_segments[i])
                    + _lift_cube(tail_by_source[hi], self.b2)[1:]
                )
            paths.append(path)
        return paths

    def build(self) -> list[list[HBNode]]:
        self._plan_repairs()
        return self._build_fly_first() + self._build_cube_first()


def _case3(hb: HyperButterfly, u: HBNode, v: HBNode) -> list[list[HBNode]]:
    """Theorem 5 case 3 (both parts differ), with corner repairs."""
    return _Case3Builder(hb, u, v).build()


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------


def verify_disjoint_paths(
    hb: HyperButterfly, u: HBNode, v: HBNode, paths: list[list[HBNode]]
) -> None:
    """Raise :class:`RoutingError` unless ``paths`` is a valid Theorem 5
    family: ``m + 4`` simple ``u → v`` paths, internally disjoint."""
    expected = hb.m + 4
    if len(paths) != expected:
        raise RoutingError(f"expected {expected} paths, got {len(paths)}")
    for path in paths:
        validate_path(hb, path, source=u, target=v, simple=True)
    if not paths_internally_disjoint(paths):
        raise RoutingError("paths are not internally disjoint")


def disjoint_paths_with_info(
    hb: HyperButterfly,
    u: HBNode,
    v: HBNode,
    *,
    method: Literal["auto", "constructive", "flow"] = "auto",
) -> tuple[list[list[HBNode]], dict]:
    """Compute the Theorem 5 family plus provenance info.

    ``info`` records the construction ``case`` (1/2/3), the ``method`` that
    produced the family (``"constructive"`` or ``"flow"``), and — when the
    constructive skeleton was abandoned — the ``fallback_reason``.
    """
    hb.validate_node(u)
    hb.validate_node(v)
    case = construction_case(u, v)
    info: dict = {"case": case}

    if method in ("auto", "constructive"):
        try:
            builder = {1: _case1, 2: _case2, 3: _case3}[case]
            paths = builder(hb, u, v)
            verify_disjoint_paths(hb, u, v, paths)
            info["method"] = "constructive"
            return paths, info
        except RoutingError as exc:
            if method == "constructive":
                raise
            info["fallback_reason"] = str(exc)

    paths = vertex_disjoint_paths(hb, u, v, k=hb.m + 4)
    verify_disjoint_paths(hb, u, v, paths)
    info["method"] = "flow"
    return paths, info


def disjoint_paths(
    hb: HyperButterfly,
    u: HBNode,
    v: HBNode,
    *,
    method: Literal["auto", "constructive", "flow"] = "auto",
) -> list[list[HBNode]]:
    """``m + 4`` internally disjoint ``u → v`` paths (Theorem 5).

    ``method="constructive"`` insists on the paper's construction (raises
    :class:`RoutingError` on its corner cases); ``method="flow"`` always
    uses global max-flow; ``"auto"`` tries the construction first.
    """
    paths, _ = disjoint_paths_with_info(hb, u, v, method=method)
    return paths
