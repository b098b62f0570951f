"""Grid graph representation and the dense complex linear algebra built on it.

Buses are nodes, branches are edges carrying a series impedance in per-unit.
Distribution graphs are rooted spanning trees (the root is the substation);
transmission graphs are connected and may be meshed.  The nodal admittance
matrix of the in-service branches doubles as the graph shift operator once
normalized by its largest singular value, which keeps powers of the operator
bounded when it is used inside polynomial graph filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DanglingBranch,
    DegenerateMatrix,
    DimensionMismatch,
    Disconnected,
    InvalidGraph,
    NotRadial,
    ZeroImpedance,
)

IMPEDANCE_FLOOR = 1e-12

DISTRIBUTION = "distribution"
TRANSMISSION = "transmission"


@dataclass(frozen=True)
class Branch:
    """One series branch; out-of-service branches stay in the record."""

    from_bus: int
    to_bus: int
    impedance: complex
    in_service: bool = True

    def key(self) -> frozenset:
        return frozenset((self.from_bus, self.to_bus))


class BfsTree(NamedTuple):
    """Breadth-first traversal of the in-service graph, by bus position."""

    order: np.ndarray        # positions in visit order, root first
    parent: np.ndarray       # parent position per bus, -1 at the root
    depth: np.ndarray        # hop count from the root
    parent_branch: np.ndarray  # index into graph.branches of the edge to the parent, -1 at root


@dataclass(frozen=True)
class GridGraph:
    """Immutable bus/branch graph with structural invariants enforced on build."""

    bus_ids: tuple[int, ...]
    branches: tuple[Branch, ...]
    kind: str = DISTRIBUTION
    root: int | None = None
    _pos: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "bus_ids", tuple(int(b) for b in self.bus_ids))
        object.__setattr__(self, "branches", tuple(self.branches))
        if self.kind not in (DISTRIBUTION, TRANSMISSION):
            raise InvalidGraph(f"unknown graph kind {self.kind!r}")
        if len(set(self.bus_ids)) != len(self.bus_ids):
            raise InvalidGraph("duplicate bus ids")
        object.__setattr__(self, "_pos", {b: i for i, b in enumerate(self.bus_ids)})
        self._validate()

    def _validate(self):
        seen = set()
        for br in self.branches:
            if br.from_bus == br.to_bus:
                raise InvalidGraph(f"self-loop at bus {br.from_bus}")
            for end in (br.from_bus, br.to_bus):
                if end not in self._pos:
                    raise DanglingBranch(end)
            if br.in_service:
                if abs(br.impedance) <= 0.0:
                    raise ZeroImpedance(f"branch {br.from_bus}-{br.to_bus} has zero impedance")
                k = br.key()
                if k in seen:
                    raise InvalidGraph(f"duplicate in-service branch {br.from_bus}-{br.to_bus}")
                seen.add(k)
        if self.kind == DISTRIBUTION:
            if self.root is None:
                raise InvalidGraph("distribution graph requires a root bus")
            if self.root not in self._pos:
                raise DanglingBranch(self.root)
            live = self.in_service()
            if len(live) != self.n - 1 or len(self.reach(self.root)) < self.n:
                raise NotRadial(
                    f"{self.n} buses with {len(live)} in-service branches do not form a spanning tree"
                )
        elif self.n == 0 or len(self.reach(self.bus_ids[0])) < self.n:
            raise Disconnected("transmission graph is not connected")

    @property
    def n(self) -> int:
        return len(self.bus_ids)

    def pos(self, bus_id: int) -> int:
        return self._pos[bus_id]

    def in_service(self) -> list[Branch]:
        return [br for br in self.branches if br.in_service]

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per bus position: (neighbor position, branch index) over in-service branches."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, br in enumerate(self.branches):
            if not br.in_service:
                continue
            i, j = self._pos[br.from_bus], self._pos[br.to_bus]
            adj[i].append((j, idx))
            adj[j].append((i, idx))
        return adj

    def reach(self, start: int, skip_branch: int = -1) -> set[int]:
        """Bus ids reachable from bus `start` over in-service branches, the
        branch of index `skip_branch` left out."""
        adj = self.adjacency()
        seen = {self._pos[start]}
        frontier = list(seen)
        for u in frontier:                 # grows while it is walked: breadth first
            for v, idx in adj[u]:
                if idx != skip_branch and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return {self.bus_ids[i] for i in seen}

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for br in self.in_service():
            deg[self._pos[br.from_bus]] += 1
            deg[self._pos[br.to_bus]] += 1
        return deg

    def leaves(self) -> list[int]:
        """Bus ids with in-service degree one, excluding the root."""
        deg = self.degrees()
        return [b for b, d in zip(self.bus_ids, deg) if d == 1 and b != self.root]

    def slack_bus(self) -> int:
        return self.root if self.root is not None else self.bus_ids[0]

    def bfs(self) -> BfsTree:
        """Breadth-first tree from the root/slack; neighbor order follows bus order."""
        s = self._pos[self.slack_bus()]
        adj = self.adjacency()
        order = [s]
        parent = np.full(self.n, -1, dtype=int)
        parent_branch = np.full(self.n, -1, dtype=int)
        depth = np.full(self.n, -1, dtype=int)
        depth[s] = 0
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v, bidx in sorted(adj[u]):
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    parent_branch[v] = bidx
                    order.append(v)
        if len(order) < self.n:
            raise Disconnected("graph is not connected from the slack bus")
        return BfsTree(np.array(order), parent, depth, parent_branch)

    @cached_property
    def path_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The radial sweep's read-only (sub, drop), built once per graph (Teng, IEEE TPWRD 2003).

        sub[p, q] = 1 when q lies in the subtree of p, so the backward sweep's branch
        currents are sub @ i_bus and the forward sweep's drops are drop @ i_branch with
        drop = sub^T diag(z_to_parent).  The graph is immutable, so the pair never goes stale.
        """
        tree = self.bfs()
        z_to_parent = np.zeros(self.n, dtype=np.complex128)
        # Row p of `anc` marks p and its ancestors; parents precede children in BFS order.
        anc = np.zeros((self.n, self.n), dtype=np.complex128)
        for p in tree.order:
            par = tree.parent[p]
            if par >= 0:
                z_to_parent[p] = self.branches[tree.parent_branch[p]].impedance
                anc[p] = anc[par]
            anc[p, p] = 1.0
        drop = anc * z_to_parent
        anc.flags.writeable = False
        drop.flags.writeable = False
        return anc.T, drop


def build_admittance(graph: GridGraph) -> np.ndarray:
    """Nodal admittance matrix of the in-service branches (no shunts)."""
    n = graph.n
    y = np.zeros((n, n), dtype=np.complex128)
    for br in graph.in_service():
        if abs(br.impedance) < IMPEDANCE_FLOOR:
            raise ZeroImpedance(f"branch {br.from_bus}-{br.to_bus}: |z| < {IMPEDANCE_FLOOR}")
        adm = 1.0 / br.impedance
        i, j = graph.pos(br.from_bus), graph.pos(br.to_bus)
        y[i, i] += adm
        y[j, j] += adm
        y[i, j] -= adm
        y[j, i] -= adm
    if not np.all(np.isfinite(y.view(np.float64))):
        raise DegenerateMatrix("admittance matrix has non-finite entries")
    return y


def build_gso(admittance: np.ndarray) -> np.ndarray:
    """Shift operator from an admittance matrix, scaled to unit spectral norm."""
    y = np.asarray(admittance, dtype=np.complex128)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {y.shape}")
    if np.max(np.abs(y - y.T)) > 1e-9:
        raise InvalidGraph("admittance matrix must be symmetric")
    top = float(np.linalg.norm(y, 2))
    if top < 1e-12:
        raise DegenerateMatrix("admittance matrix is numerically zero")
    return y / top
