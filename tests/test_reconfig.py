"""Reconfiguration operators and family generation."""

import json

import numpy as np
import pytest

from ugcn.caseio import load_case, to_grid_graph
from ugcn.errors import (
    CycleCreated,
    Disconnected,
    UnknownElement,
    WouldDisconnectRoot,
    ZeroImpedance,
)
from ugcn.grid import Branch, GridGraph, build_admittance
from ugcn.reconfig import (
    AugmentConfig,
    FeederDisconnect,
    LineBreak,
    NewFeeder,
    ParamChange,
    SubtreeMerge,
    SubtreePayload,
    apply_op,
    augment,
    op_to_dict,
)


class TestApplyOp:
    def test_line_break_strands_subtree(self, chain4):
        g = apply_op(chain4, LineBreak(2, 3))
        assert set(g.bus_ids) == {1, 2}
        assert len(g.in_service()) == 1

    def test_disconnect_leaf(self, chain4):
        g = apply_op(chain4, FeederDisconnect(4))
        assert g.n == 3
        assert set(g.bus_ids) == {1, 2, 3}

    def test_disconnect_root_rejected(self, chain4):
        with pytest.raises(WouldDisconnectRoot):
            apply_op(chain4, FeederDisconnect(1))

    def test_disconnect_interior_rejected(self, chain4):
        with pytest.raises(WouldDisconnectRoot):
            apply_op(chain4, FeederDisconnect(2))

    def test_new_feeder_extends(self, chain4):
        g = apply_op(chain4, NewFeeder(attach_at=3, new_bus=9, impedance=0.02 + 0.01j))
        assert g.n == 5
        assert 9 in g.bus_ids

    def test_param_change_adjusts_impedance(self, chain4):
        g = apply_op(chain4, ParamChange(1, 2, delta=0.005 + 0.0j))
        z = [b for b in g.branches if {b.from_bus, b.to_bus} == {1, 2}][0].impedance
        assert z == pytest.approx(0.015 + 0.02j)

    def test_param_change_zero_delta_keeps_admittance(self, chain4):
        g = apply_op(chain4, ParamChange(2, 3, delta=0.0))
        assert np.max(np.abs(build_admittance(g) - build_admittance(chain4))) < 1e-12

    def test_param_change_near_zero_rejected(self, chain4):
        with pytest.raises(ZeroImpedance):
            apply_op(chain4, ParamChange(1, 2, delta=-(0.01 + 0.02j)))

    def test_subtree_merge_tree_arithmetic(self):
        base = GridGraph(
            bus_ids=tuple(range(1, 11)),
            branches=tuple(Branch(i, i + 1, 0.01 + 0.01j) for i in range(1, 10)),
            root=1,
        )
        sub = SubtreePayload(
            nodes=(20, 21, 22),
            branches=(Branch(20, 21, 0.01j), Branch(21, 22, 0.01j)),
            root=20,
        )
        g = apply_op(base, SubtreeMerge(subtree=sub, attach_at=5, tie_impedance=0.02j))
        assert g.n == 13
        assert len(g.in_service()) == 12

    def test_subtree_merge_collision_rejected(self, chain4):
        sub = SubtreePayload(nodes=(3,), branches=(), root=3)
        with pytest.raises(CycleCreated):
            apply_op(chain4, SubtreeMerge(subtree=sub, attach_at=1, tie_impedance=0.01j))

    def test_unknown_elements(self, chain4):
        with pytest.raises(UnknownElement):
            apply_op(chain4, FeederDisconnect(99))
        with pytest.raises(UnknownElement):
            apply_op(chain4, LineBreak(1, 99))

    def test_transmission_bridge_break_rejected(self, ieee30):
        # 25-26 is the only line into bus 26
        with pytest.raises(Disconnected):
            apply_op(ieee30, LineBreak(25, 26))

    def test_transmission_loop_break_keeps_nodes(self, ieee30):
        g = apply_op(ieee30, LineBreak(1, 2))
        assert g.n == ieee30.n
        assert len(g.in_service()) == len(ieee30.in_service()) - 1


class TestAugment:
    def test_identity_augmentation(self, chain4):
        out = augment(chain4, AugmentConfig(q_count=1, ops_range=(0, 0), seed=1))
        assert len(out) == 1
        assert out[0].graph.bus_ids == chain4.bus_ids
        assert out[0].ops == ()

    def test_node_bounds_respected(self, ieee33):
        cfg = AugmentConfig(q_count=40, seed=7, ops_range=(1, 6), node_bounds=(22, 38))
        family = augment(ieee33, cfg)
        assert len(family) == 40
        for member in family:
            g = member.graph
            assert 22 <= g.n <= 38
            assert g.kind == "distribution"
            assert g.root == 1
            assert len(g.in_service()) == g.n - 1   # tree: validated on build too

    def test_deterministic_in_seed(self, ieee33):
        cfg = AugmentConfig(q_count=6, seed=11, ops_range=(1, 4), node_bounds=(22, 38))
        a = augment(ieee33, cfg)
        b = augment(ieee33, cfg)
        for x, y in zip(a, b):
            assert x.graph.bus_ids == y.graph.bus_ids
            assert x.ops == y.ops
            assert np.array_equal(
                build_admittance(x.graph), build_admittance(y.graph)
            )

    def test_surviving_ids_joinable_to_base(self, ieee33):
        cfg = AugmentConfig(q_count=10, seed=3, ops_range=(1, 5), node_bounds=(22, 38))
        base_ids = set(ieee33.bus_ids)
        for member in augment(ieee33, cfg):
            survivors = set(member.graph.bus_ids) & base_ids
            # surviving buses keep their identity: any shared id is the same bus
            assert survivors
            assert len(survivors) >= 20

    def test_transmission_variants_stay_connected(self, ieee30):
        cfg = AugmentConfig(q_count=25, seed=13, ops_range=(1, 4), node_bounds=(30, 30))
        for member in augment(ieee30, cfg):
            assert member.graph.n == 30
            member.graph._validate()   # connectivity invariant
            for op in member.ops:
                assert isinstance(op, (LineBreak, ParamChange))


class TestOpLog:
    def test_round_trip_every_variant(self, ieee33):
        cfg = AugmentConfig(q_count=20, seed=23, ops_range=(2, 5), node_bounds=(20, 40))
        seen = set()
        for member in augment(ieee33, cfg):
            for op in member.ops:
                doc = op_to_dict(op)
                seen.add(doc["type"])
                assert json.loads(json.dumps(doc)) == doc
        assert len(seen) >= 4
