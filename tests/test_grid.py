"""Admittance, shift operator, and graph invariant contracts."""

import numpy as np
import pytest

from conftest import random_tree
from ugcn.errors import (
    DegenerateMatrix,
    Disconnected,
    InvalidGraph,
    NotRadial,
    ZeroImpedance,
)
from ugcn.grid import Branch, GridGraph, build_admittance, build_gso


def two_bus():
    return GridGraph(bus_ids=(1, 2), branches=(Branch(1, 2, 1j),), root=1)


class TestAdmittance:
    def test_two_bus_reactance(self):
        y = build_admittance(two_bus())
        expected = np.array([[-1j, 1j], [1j, -1j]])
        assert np.allclose(y, expected, atol=1e-15)

    def test_three_bus_chain_unit_resistance(self):
        g = GridGraph(bus_ids=(1, 2, 3),
                      branches=(Branch(1, 2, 1.0), Branch(2, 3, 1.0)), root=1)
        y = build_admittance(g)
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=complex)
        assert np.allclose(y, expected, atol=1e-15)

    def test_ieee33_structure(self, ieee33):
        y = build_admittance(ieee33)
        assert y.shape == (33, 33)
        off = np.abs(y - np.diag(np.diag(y))) > 0
        assert np.array_equal(off, off.T)
        assert off.sum() == 2 * 32

    def test_row_sums_vanish_without_shunts(self):
        for seed in range(8):
            g = random_tree(int(np.random.default_rng(seed).integers(4, 40)), seed)
            y = build_admittance(g)
            assert np.max(np.abs(y.sum(axis=1))) < 1e-12

    def test_out_of_service_branches_excluded(self):
        g = GridGraph(
            bus_ids=(1, 2, 3),
            branches=(Branch(1, 2, 1.0), Branch(2, 3, 1.0), Branch(1, 3, 1.0, in_service=False)),
            root=1,
        )
        y = build_admittance(g)
        assert y[0, 2] == 0

    def test_zero_impedance_rejected(self):
        g = GridGraph(bus_ids=(1, 2), branches=(Branch(1, 2, 1e-13),), root=1)
        with pytest.raises(ZeroImpedance):
            build_admittance(g)


class TestGso:
    def test_scalar_matrix(self):
        assert np.allclose(build_gso(2.0 * np.eye(3)), np.eye(3))

    def test_two_bus_scale_is_two(self):
        # singular values of [[-j, j], [j, -j]] are {2, 0}
        y = build_admittance(two_bus())
        assert np.allclose(build_gso(y), y / 2.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_spectral_norm(self, seed):
        g = random_tree(12 + seed, seed)
        assert abs(np.linalg.norm(build_gso(build_admittance(g)), 2) - 1.0) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMatrix):
            build_gso(np.zeros((3, 3)))

    def test_symmetry_required(self):
        with pytest.raises(InvalidGraph):
            build_gso(np.array([[0, 1], [2, 0]], dtype=complex))


class TestGraphInvariants:
    def test_distribution_must_be_tree(self):
        with pytest.raises(NotRadial):
            GridGraph(bus_ids=(1, 2, 3),
                      branches=(Branch(1, 2, 1.0), Branch(2, 3, 1.0), Branch(1, 3, 1.0)),
                      root=1)
        with pytest.raises(NotRadial):
            GridGraph(bus_ids=(1, 2, 3), branches=(Branch(1, 2, 1.0),), root=1)

    def test_transmission_must_connect(self):
        with pytest.raises(Disconnected):
            GridGraph(bus_ids=(1, 2, 3, 4),
                      branches=(Branch(1, 2, 1j), Branch(3, 4, 1j)),
                      kind="transmission")

    @pytest.mark.parametrize("case", ["ieee33", "ieee30"])
    def test_reach_matches_union_find_oracle(self, case, request):
        """Every branch skipped in turn, and none: the buses `reach` finds are
        those a union-find over the other in-service branches joins to the start."""
        g = request.getfixturevalue(case)
        start = g.bus_ids[len(g.bus_ids) // 2]
        for skip in (-1, *range(len(g.branches))):
            parent = {b: b for b in g.bus_ids}

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for idx, br in enumerate(g.branches):
                if br.in_service and idx != skip:
                    parent[find(br.from_bus)] = find(br.to_bus)
            oracle = {b for b in g.bus_ids if find(b) == find(start)}
            assert g.reach(start, skip_branch=skip) == oracle, skip
        # a graph without buses has nothing to reach from, and is refused
        with pytest.raises(Disconnected):
            GridGraph(bus_ids=(), branches=(), kind="transmission")

    def test_transmission_allows_cycles(self, ieee30):
        assert len(ieee30.in_service()) > ieee30.n - 1

    def test_self_loop_and_duplicates_rejected(self):
        with pytest.raises(InvalidGraph):
            GridGraph(bus_ids=(1, 2), branches=(Branch(1, 1, 1.0), Branch(1, 2, 1.0)), root=1)
        with pytest.raises(InvalidGraph):
            GridGraph(bus_ids=(1, 2),
                      branches=(Branch(1, 2, 1.0), Branch(2, 1, 2.0)), root=1)

    def test_bfs_order_covers_all(self, ieee33):
        tree = ieee33.bfs()
        assert sorted(tree.order.tolist()) == list(range(33))
        assert tree.parent[ieee33.pos(1)] == -1
        assert (tree.depth >= 0).all()
