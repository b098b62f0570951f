"""Topology augmentation: derive families of reconfigured systems from a base grid.

Five operators cover realistic switching events on radial feeders: removing a
feeder endpoint, attaching a new feeder bus, perturbing a branch impedance,
breaking a line (which drops the stranded subtree), and re-attaching a stored
subtree through a tie branch.  Transmission variants are restricted to line
outages that keep the network connected plus parameter changes.  Generation is
deterministic: each output graph draws from its own RNG stream keyed by
(seed, index), so serial and parallel runs produce identical families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    ConfigError,
    CycleCreated,
    Disconnected,
    ExhaustedRetries,
    InvalidGraph,
    UnknownElement,
    WouldDisconnectRoot,
    ZeroImpedance,
)
from .grid import DISTRIBUTION, TRANSMISSION, Branch, GridGraph

MIN_IMPEDANCE_AFTER_CHANGE = 1e-6
RETRY_BUDGET = 50                  # op sequences drawn per system before giving up
PARAM_SPREAD = 0.3                 # uniform +-spread on re/im of z for ParamChange
SYNTH_SUBTREE_NODES = (1, 3)       # size range of a subtree made up when none is stored


@dataclass(frozen=True)
class SubtreePayload:
    """A detached subtree: node ids, internal branches, and its local root."""

    nodes: tuple[int, ...]
    branches: tuple[Branch, ...]
    root: int


@dataclass(frozen=True)
class FeederDisconnect:
    node: int


@dataclass(frozen=True)
class NewFeeder:
    attach_at: int
    new_bus: int
    impedance: complex


@dataclass(frozen=True)
class ParamChange:
    from_bus: int
    to_bus: int
    delta: complex


@dataclass(frozen=True)
class LineBreak:
    from_bus: int
    to_bus: int


@dataclass(frozen=True)
class SubtreeMerge:
    subtree: SubtreePayload
    attach_at: int
    tie_impedance: complex


ReconfigOp = Union[FeederDisconnect, NewFeeder, ParamChange, LineBreak, SubtreeMerge]


@dataclass(frozen=True)
class AugmentConfig:
    q_count: int
    seed: int = 0
    ops_range: tuple[int, int] = (1, 4)
    node_bounds: tuple[int, int] = (1, 10_000)

    def __post_init__(self):
        if self.q_count < 1:
            raise ConfigError(f"q_count must be at least 1, got {self.q_count}")
        if self.ops_range[0] > self.ops_range[1] or self.ops_range[0] < 0:
            raise ConfigError(f"bad ops_range {self.ops_range}: need 0 <= ops_min <= ops_max")
        if self.node_bounds[0] > self.node_bounds[1]:
            raise ConfigError(f"bad node_bounds {self.node_bounds}: need node_min <= node_max")


@dataclass(frozen=True)
class AugmentedSystem:
    graph: GridGraph
    ops: tuple[ReconfigOp, ...]


def _find_branch(g: GridGraph, a: int, b: int) -> int:
    for idx, br in enumerate(g.branches):
        if br.in_service and {br.from_bus, br.to_bus} == {a, b}:
            return idx
    raise UnknownElement(f"no in-service branch {a}-{b}")


def apply_op(g: GridGraph, op: ReconfigOp) -> GridGraph:
    """Apply one reconfiguration and return the new graph."""
    return _apply(g, op)[0]


def _apply(g: GridGraph, op: ReconfigOp) -> tuple[GridGraph, SubtreePayload | None]:
    if isinstance(op, FeederDisconnect):
        return _disconnect(g, op), None
    if isinstance(op, NewFeeder):
        return _new_feeder(g, op), None
    if isinstance(op, ParamChange):
        return _param_change(g, op), None
    if isinstance(op, LineBreak):
        return _line_break(g, op)
    if isinstance(op, SubtreeMerge):
        return _merge(g, op), None
    raise UnknownElement(f"unknown op {op!r}")


def _disconnect(g: GridGraph, op: FeederDisconnect) -> GridGraph:
    if op.node not in g.bus_ids:
        raise UnknownElement(f"no bus {op.node}")
    if op.node == g.root:
        raise WouldDisconnectRoot("cannot disconnect the root bus")
    if g.kind == DISTRIBUTION and g.degrees()[g.pos(op.node)] > 1:
        raise WouldDisconnectRoot(f"disconnecting non-leaf bus {op.node} would strand its subtree")
    return GridGraph(
        bus_ids=tuple(b for b in g.bus_ids if b != op.node),
        branches=tuple(br for br in g.branches if op.node not in (br.from_bus, br.to_bus)),
        kind=g.kind,
        root=g.root,
    )


def _new_feeder(g: GridGraph, op: NewFeeder) -> GridGraph:
    if op.attach_at not in g.bus_ids:
        raise UnknownElement(f"no bus {op.attach_at}")
    if op.new_bus in g.bus_ids:
        raise InvalidGraph(f"bus {op.new_bus} already exists")
    return GridGraph(
        bus_ids=g.bus_ids + (op.new_bus,),
        branches=g.branches + (Branch(op.attach_at, op.new_bus, op.impedance),),
        kind=g.kind,
        root=g.root,
    )


def _param_change(g: GridGraph, op: ParamChange) -> GridGraph:
    idx = _find_branch(g, op.from_bus, op.to_bus)
    old = g.branches[idx]
    new_z = old.impedance + op.delta
    if abs(new_z) < MIN_IMPEDANCE_AFTER_CHANGE:
        raise ZeroImpedance(
            f"parameter change would leave |z| = {abs(new_z):.2e} on {op.from_bus}-{op.to_bus}"
        )
    branches = list(g.branches)
    branches[idx] = Branch(old.from_bus, old.to_bus, new_z, old.in_service)
    return GridGraph(bus_ids=g.bus_ids, branches=tuple(branches), kind=g.kind, root=g.root)


def _line_break(g: GridGraph, op: LineBreak) -> tuple[GridGraph, SubtreePayload | None]:
    idx = _find_branch(g, op.from_bus, op.to_bus)
    if g.kind == TRANSMISSION:
        reachable = g.reach(g.slack_bus(), skip_branch=idx)
        if len(reachable) != g.n:
            raise Disconnected(
                f"breaking {op.from_bus}-{op.to_bus} would disconnect the network"
            )
        branches = tuple(br for i, br in enumerate(g.branches) if i != idx)
        return GridGraph(g.bus_ids, branches, kind=g.kind, root=g.root), None
    # Distribution: the side without the root is stranded and removed whole.
    kept = g.reach(g.root, skip_branch=idx)
    removed = [b for b in g.bus_ids if b not in kept]
    sub_root = op.from_bus if op.from_bus in removed else op.to_bus
    payload = SubtreePayload(
        nodes=tuple(removed),
        branches=tuple(
            br for i, br in enumerate(g.branches)
            if i != idx and br.from_bus in removed and br.to_bus in removed
        ),
        root=sub_root,
    )
    branches = tuple(
        br for i, br in enumerate(g.branches)
        if i != idx and br.from_bus in kept and br.to_bus in kept
    )
    graph = GridGraph(tuple(b for b in g.bus_ids if b in kept), branches,
                      kind=g.kind, root=g.root)
    return graph, payload


def _merge(g: GridGraph, op: SubtreeMerge) -> GridGraph:
    if op.attach_at not in g.bus_ids:
        raise UnknownElement(f"no bus {op.attach_at}")
    overlap = set(op.subtree.nodes) & set(g.bus_ids)
    if overlap:
        raise CycleCreated(f"subtree buses {sorted(overlap)} already present")
    tie = Branch(op.attach_at, op.subtree.root, op.tie_impedance)
    return GridGraph(
        bus_ids=g.bus_ids + op.subtree.nodes,
        branches=g.branches + op.subtree.branches + (tie,),
        kind=g.kind,
        root=g.root,
    )


# --------------------------------------------------------------------------
# Random families

_DIST_VARIANTS = ("disconnect", "new_feeder", "param_change", "line_break", "subtree_merge")
_TRANS_VARIANTS = ("param_change", "line_break")


class _OpSampler:
    """Draws applicable ops for one graph family; owns fresh-id allocation and the subtree pool."""

    def __init__(self, base: GridGraph, rng: np.random.Generator):
        self.rng = rng
        self.pool: list[SubtreePayload] = []
        self.base_impedances = [br.impedance for br in base.in_service()]
        self.next_id = max(base.bus_ids) + 1

    def fresh_id(self) -> int:
        bus = self.next_id
        self.next_id += 1
        return bus

    def sample(self, g: GridGraph) -> ReconfigOp | None:
        variants = _DIST_VARIANTS if g.kind == DISTRIBUTION else _TRANS_VARIANTS
        for _ in range(20):
            name = variants[self.rng.integers(0, len(variants))]
            op = getattr(self, "_" + name)(g)
            if op is not None:
                return op
        return None

    def _pick(self, seq):
        return seq[self.rng.integers(0, len(seq))]

    def _disconnect(self, g: GridGraph) -> ReconfigOp | None:
        leaves = g.leaves()
        if not leaves or g.n <= 2:
            return None
        return FeederDisconnect(self._pick(leaves))

    def _new_feeder(self, g: GridGraph) -> ReconfigOp | None:
        return NewFeeder(
            attach_at=self._pick(g.bus_ids),
            new_bus=self.fresh_id(),
            impedance=self._pick(self.base_impedances),
        )

    def _param_change(self, g: GridGraph) -> ReconfigOp | None:
        live = g.in_service()
        if not live:
            return None
        br = self._pick(live)
        s = PARAM_SPREAD
        for _ in range(10):
            u = self.rng.uniform(-s, s, size=2)
            delta = complex(br.impedance.real * u[0], br.impedance.imag * u[1])
            if abs(br.impedance + delta) >= MIN_IMPEDANCE_AFTER_CHANGE:
                return ParamChange(br.from_bus, br.to_bus, delta)
        return None

    def _line_break(self, g: GridGraph) -> ReconfigOp | None:
        live = g.in_service()
        if not live:
            return None
        if g.kind == TRANSMISSION:
            for _ in range(10):
                br = self._pick(live)
                idx = _find_branch(g, br.from_bus, br.to_bus)
                if len(g.reach(g.slack_bus(), skip_branch=idx)) == g.n:
                    return LineBreak(br.from_bus, br.to_bus)
            return None
        if g.n <= 2:
            return None
        br = self._pick(live)
        return LineBreak(br.from_bus, br.to_bus)

    def _subtree_merge(self, g: GridGraph) -> ReconfigOp | None:
        if self.pool:
            payload = self.pool.pop(int(self.rng.integers(0, len(self.pool))))
        else:
            lo, hi = SYNTH_SUBTREE_NODES
            count = int(self.rng.integers(lo, hi + 1))
            nodes = tuple(self.fresh_id() for _ in range(count))
            branches = tuple(
                Branch(nodes[i], nodes[i + 1], self._pick(self.base_impedances))
                for i in range(count - 1)
            )
            payload = SubtreePayload(nodes=nodes, branches=branches, root=nodes[0])
        return SubtreeMerge(
            subtree=payload,
            attach_at=self._pick(g.bus_ids),
            tie_impedance=self._pick(self.base_impedances),
        )


def _generate_one(base: GridGraph, cfg: AugmentConfig, index: int) -> AugmentedSystem:
    rng = np.random.default_rng([cfg.seed, index])
    lo, hi = cfg.node_bounds
    for _ in range(RETRY_BUDGET):
        sampler = _OpSampler(base, rng)
        g = base
        ops: list[ReconfigOp] = []
        n_ops = int(rng.integers(cfg.ops_range[0], cfg.ops_range[1] + 1))
        ok = True
        for _ in range(n_ops):
            op = sampler.sample(g)
            if op is None:
                ok = False
                break
            try:
                g, removed = _apply(g, op)
            except (WouldDisconnectRoot, CycleCreated, Disconnected, ZeroImpedance,
                    InvalidGraph, UnknownElement):
                ok = False
                break
            if removed is not None:
                sampler.pool.append(removed)
            ops.append(op)
        if ok and lo <= g.n <= hi:
            return AugmentedSystem(graph=g, ops=tuple(ops))
    raise ExhaustedRetries(
        f"could not generate system {index} within {RETRY_BUDGET} retries"
    )


def augment(base: GridGraph, cfg: AugmentConfig) -> list[AugmentedSystem]:
    """Generate cfg.q_count reconfigured systems with op logs, by the operators of base.kind."""
    return [_generate_one(base, cfg, q) for q in range(cfg.q_count)]


# --------------------------------------------------------------------------
# Op-log serialization (JSON records next to the datasets)


def op_to_dict(op: ReconfigOp) -> dict:
    if isinstance(op, FeederDisconnect):
        return {"type": "feeder_disconnect", "node": op.node}
    if isinstance(op, NewFeeder):
        return {"type": "new_feeder", "attach_at": op.attach_at, "new_bus": op.new_bus,
                "z": [op.impedance.real, op.impedance.imag]}
    if isinstance(op, ParamChange):
        return {"type": "param_change", "from": op.from_bus, "to": op.to_bus,
                "delta": [op.delta.real, op.delta.imag]}
    if isinstance(op, LineBreak):
        return {"type": "line_break", "from": op.from_bus, "to": op.to_bus}
    if isinstance(op, SubtreeMerge):
        return {
            "type": "subtree_merge",
            "attach_at": op.attach_at,
            "tie_z": [op.tie_impedance.real, op.tie_impedance.imag],
            "subtree": {
                "nodes": list(op.subtree.nodes),
                "root": op.subtree.root,
                "branches": [
                    [b.from_bus, b.to_bus, b.impedance.real, b.impedance.imag, int(b.in_service)]
                    for b in op.subtree.branches
                ],
            },
        }
    raise UnknownElement(f"unknown op {op!r}")
