"""Power flow physics, estimation, profiles, and feature windows."""

import numpy as np
import pytest

from conftest import random_tree
from ugcn.caseio import load_case
from ugcn.errors import (
    MissingCell,
    NoConvergence,
    NonNumeric,
    WindowOutOfRange,
)
from ugcn.estimation import (
    PmuOperator,
    ami_cost,
    ami_placement,
    estimate_ami,
    fdi_sensor_count,
    measure_ami,
    pmu_placement,
)
from ugcn.grid import Branch, GridGraph, build_admittance
from ugcn.powerflow import nodal_mismatch, solve_powerflow
from ugcn.scenarios import (
    ScenarioConfig,
    build_features,
    build_scenario,
    feature_window,
    ingest_profiles_csv,
    synth_profiles,
)


def case_injections(name, graph):
    loads = load_case(name).loads_pu()
    s = -np.array([loads[b] for b in graph.bus_ids])
    s[graph.pos(graph.slack_bus())] = 0
    return s


class TestPowerFlow:
    def test_zero_load_flat_exactly(self, ieee33):
        v = solve_powerflow(ieee33, np.zeros(33, dtype=complex))
        assert np.array_equal(v, np.ones(33, dtype=complex))

    def test_two_bus_reactance_drop(self):
        g = GridGraph(bus_ids=(1, 2), branches=(Branch(1, 2, 0.1j),), root=1)
        s = np.array([0, -(0.1 + 0j)])
        v = solve_powerflow(g, s)
        assert abs(v[1]) < 1.0
        y = build_admittance(g)
        assert abs(nodal_mismatch(y, v, s)[1]) < 1e-8

    @pytest.mark.parametrize("name,fixture", [("ieee33", "ieee33"), ("ieee69", "ieee69")])
    def test_radial_balance_tight(self, name, fixture, request):
        g = request.getfixturevalue(fixture)
        s = case_injections(name, g)
        y = build_admittance(g)
        v = solve_powerflow(g, s, y)
        mism = nodal_mismatch(y, v, s)
        mism[g.pos(g.root)] = 0
        assert np.max(np.abs(mism)) < 1e-8
        assert 0.85 < np.min(np.abs(v)) <= 1.0

    def test_meshed_balance_tight(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        y = build_admittance(ieee30)
        v = solve_powerflow(ieee30, s, y)
        mism = nodal_mismatch(y, v, s)
        mism[0] = 0
        assert np.max(np.abs(mism)) < 1e-8

    def test_absurd_load_diverges(self, chain4):
        s = np.array([0, 0, 0, -100.0 + 0j])
        with pytest.raises(NoConvergence):
            solve_powerflow(chain4, s)


class TestProfiles:
    def test_daily_cycle_peak_trough_ratio(self):
        prof = synth_profiles(8, 24, seed=4)
        for col in range(8):
            series = prof.p[:, col]
            ratio = series.max() / series.min()
            assert 1.5 <= ratio <= 3.0

    def test_seed_repeatable(self):
        a = synth_profiles(5, 48, seed=9)
        b = synth_profiles(5, 48, seed=9)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.pv, b.pv)

    def test_zero_noise_periodic(self):
        prof = synth_profiles(4, 72, seed=2, ar_sigma=0.0)
        assert np.allclose(prof.p[:24], prof.p[24:48])
        assert np.allclose(prof.p[:24], prof.p[48:72])

    def test_pv_nonnegative_and_midday(self):
        prof = synth_profiles(20, 48, seed=6, pv_fraction=1.0)
        assert prof.pv.min() >= 0
        night = prof.pv[[0, 1, 2, 3, 22, 23]].sum()
        assert night == 0

    def test_csv_round_trip(self):
        text = "t,bus,p,q,pv\n0,1,0.1,0.05,0\n0,2,0.2,0.1,0.01\n1,1,0.11,0.05,0\n1,2,0.19,0.1,0.02\n"
        prof = ingest_profiles_csv(text)
        assert prof.p.shape == (2, 2)
        assert prof.pv[1, 1] == pytest.approx(0.02)

    def test_csv_missing_cell(self):
        text = "t,bus,p,q,pv\n0,1,0.1,0.05,0\n0,2,0.2,0.1,0\n1,1,0.11,0.05,0\n"
        with pytest.raises(MissingCell) as err:
            ingest_profiles_csv(text)
        assert (err.value.t, err.value.bus) == (1, 2)

    def test_csv_non_numeric(self):
        text = "t,bus,p,q,pv\n0,1,abc,0.05,0\n"
        with pytest.raises(NonNumeric):
            ingest_profiles_csv(text)


class TestSensorPlacement:
    def test_ami_covers_leaves_and_fraction(self, ieee33):
        buses = ami_placement(ieee33, 0.4)
        for leaf in ieee33.leaves():
            assert leaf in buses
        assert len(buses) >= int(np.ceil(0.4 * 33))
        assert ieee33.root not in buses

    def test_pmu_fraction_and_determinism(self, ieee30):
        a = pmu_placement(ieee30, 0.3, seed=3)
        b = pmu_placement(ieee30, 0.3, seed=3)
        assert a == b
        assert len(a) == int(np.ceil(0.3 * 30))

    def test_fdi_sensor_counts_standard_systems(self):
        assert fdi_sensor_count(30) == 15
        assert fdi_sensor_count(39) == 20
        assert fdi_sensor_count(57) == 25
        assert fdi_sensor_count(28) == 14


class TestAmiEstimation:
    def test_full_metering_zero_noise_recovers(self, chain4):
        s = np.array([0, -0.02 - 0.01j, -0.03 - 0.015j, -0.02 - 0.01j])
        v = solve_powerflow(chain4, s)
        buses = (1, 2, 3, 4)
        z = measure_ami(chain4, v, buses)
        est = estimate_ami(chain4, z, buses, lam=0.0)
        assert np.max(np.abs(est - v)) < 1e-6

    def test_sparse_estimate_beats_truth_on_objective(self, ieee33):
        s = case_injections("ieee33", ieee33)
        v = solve_powerflow(ieee33, s)
        buses = ami_placement(ieee33, 0.4)
        z = measure_ami(ieee33, v, buses)
        est, info = estimate_ami(ieee33, z, buses, lam=1e-3, info=True)
        assert ami_cost(ieee33, est, z, buses, lam=1e-3) <= \
            ami_cost(ieee33, v, z, buses, lam=1e-3) + 1e-12
        assert info["iterations"] <= 50

    def test_huge_regularization_shrinks_to_zero(self, chain4):
        s = np.array([0, -0.02j, -0.02j, -0.02j])
        v = solve_powerflow(chain4, s)
        z = measure_ami(chain4, v, (1, 2, 3, 4))
        est = estimate_ami(chain4, z, (1, 2, 3, 4), lam=1e9)
        assert np.max(np.abs(est)) < 1e-3


class TestPmuEstimation:
    def test_all_buses_zero_noise_exact(self, chain4):
        s = np.array([0, -0.02 - 0.01j, -0.03 - 0.015j, -0.02 - 0.01j])
        v = solve_powerflow(chain4, s)
        op = PmuOperator.build(chain4, (1, 2, 3, 4), mu1=0.0)
        est = op.estimate(op.measure(v))
        assert np.max(np.abs(est - v)) < 1e-8

    def test_sparse_matches_dense_oracle(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        v = solve_powerflow(ieee30, s)
        buses = pmu_placement(ieee30, 0.3, seed=1)
        op = PmuOperator.build(ieee30, buses, mu1=1e-3)
        z = op.measure(v)
        est = op.estimate(z)
        # oracle: explicit SVD pseudoinverse in the permuted coordinates
        a = op.h.conj().T @ op.h + 1e-3 * op.s_perm
        u, sv, vh = np.linalg.svd(a)
        keep = sv > 1e-10 * sv[0]
        inv = vh[keep].conj().T @ np.diag(1.0 / sv[keep]) @ u[:, keep].conj().T
        expected = np.empty_like(v)
        expected[op.perm] = inv @ op.h.conj().T @ z
        assert np.max(np.abs(est - expected)) < 1e-8

    def test_mu1_sweep_is_finite(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        v = solve_powerflow(ieee30, s)
        buses = pmu_placement(ieee30, 0.3, seed=2)
        errs = []
        for mu1 in (1e-4, 1e-3, 1e-2):
            op = PmuOperator.build(ieee30, buses, mu1=mu1)
            est = op.estimate(op.measure(v))
            errs.append(float(np.linalg.norm(est - v)))
        assert all(np.isfinite(e) for e in errs)


class TestScenarioBuild:
    def test_ami_scenario_has_sane_states(self, ieee33):
        cfg = ScenarioConfig(t_total=24, scenario="ami", seed=1, noise_sigma=0.001)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        mags = np.abs(system.true_states)
        assert 0.5 < mags.min() and mags.max() < 1.5
        assert system.estimates.shape == system.true_states.shape
        assert system.ami_buses
        assert not system.pmu_buses

    def test_deterministic_generation(self, ieee33):
        cfg = ScenarioConfig(t_total=16, scenario="pmu", seed=8, noise_sigma=0.002)
        loads = load_case("ieee33").loads_pu()
        a = build_scenario(ieee33, cfg, 2, loads)
        b = build_scenario(ieee33, cfg, 2, loads)
        assert np.array_equal(a.true_states, b.true_states)
        assert np.array_equal(a.estimates, b.estimates)


class TestFeatureWindows:
    def test_window_shape_and_alignment(self, ieee33):
        cfg = ScenarioConfig(t_total=20, scenario="pmu", seed=3, noise_sigma=0.0)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        x = feature_window(system.estimates, t=12, window=10)
        assert x.shape == (33, 10)
        assert np.array_equal(x[:, -1], system.estimates[12])
        assert np.array_equal(x[:, 0], system.estimates[3])

    def test_horizon_zero_targets_current_truth(self, ieee33):
        cfg = ScenarioConfig(t_total=20, scenario="pmu", seed=3, noise_sigma=0.0)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        _, target = build_features(system, t=12, horizon=0)
        assert np.array_equal(target, system.true_states[12])

    def test_out_of_range_windows(self, ieee33):
        cfg = ScenarioConfig(t_total=20, scenario="pmu", seed=3, noise_sigma=0.0)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        with pytest.raises(WindowOutOfRange):
            feature_window(system.estimates, t=5, window=10)
        with pytest.raises(WindowOutOfRange):
            build_features(system, t=18, horizon=5)
