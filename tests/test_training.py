"""Losses, optimizer, training loop contracts, metrics, and the dense baseline."""

import hashlib
import json

import numpy as np
import pytest

from ugcn.caseio import load_case, to_grid_graph
from ugcn.errors import DimensionMismatch
from ugcn.model import fdi_config, forecast_config, init_params
from ugcn.reconfig import AugmentConfig, augment, transmission_augment
from ugcn.scenarios import ScenarioConfig, build_scenario
from ugcn.training import (
    Adam,
    MetricsReport,
    TrainConfig,
    UgcnPredictor,
    dense_predict,
    eval_fdi,
    eval_forecast,
    init_dense,
    loss_fdi,
    loss_forecast,
    train,
    train_dense,
)


class TestLosses:
    def test_forecast_zero_at_match(self):
        y = np.array([1 + 1j, 2.0, -3j])
        assert loss_forecast(y, y) == 0.0

    def test_forecast_single_unit_error(self):
        target = np.zeros(5, dtype=complex)
        pred = target.copy()
        pred[2] += 1.0
        assert loss_forecast(pred, target) == pytest.approx(1 / 5)

    def test_forecast_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        target = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        oracle = sum(abs(p - t) ** 2 for p, t in zip(pred, target)) / 8
        assert loss_forecast(pred, target) == pytest.approx(oracle, abs=1e-12)

    def test_fdi_extreme_logits(self):
        logits = np.array([50.0, -50.0, 50.0])
        labels = np.array([1.0, 0.0, 1.0])
        assert loss_fdi(logits, labels) < 1e-9

    def test_fdi_uniform_logits_ln2(self):
        assert loss_fdi(np.zeros(7), np.ones(7)) == pytest.approx(np.log(2))
        assert loss_fdi(np.zeros(7), np.zeros(7)) == pytest.approx(np.log(2))

    def test_fdi_matches_naive_formula(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(9) * 3
        labels = (rng.random(9) > 0.6).astype(float)
        sig = 1 / (1 + np.exp(-logits))
        naive = -np.mean(labels * np.log(sig) + (1 - labels) * np.log(1 - sig))
        assert loss_fdi(logits, labels) == pytest.approx(naive, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loss_forecast(np.zeros(3, dtype=complex), np.zeros(4, dtype=complex))
        with pytest.raises(DimensionMismatch):
            loss_fdi(np.zeros(3), np.zeros(4))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        rng = np.random.default_rng(2)
        tensors = {"a": rng.standard_normal((3, 4)),
                   "c": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))}
        before = {k: v.copy() for k, v in tensors.items()}
        opt = Adam(lr=0.1)
        for _ in range(3):
            opt.step(tensors, {"a": np.zeros((3, 4)), "c": np.zeros((2, 2), dtype=complex)})
        for k in tensors:
            assert np.array_equal(tensors[k], before[k])

    def test_descends_a_quadratic(self):
        x = {"x": np.array([5.0, -3.0])}
        opt = Adam(lr=0.1)
        for _ in range(500):
            opt.step(x, {"x": 2 * x["x"]})
        assert np.max(np.abs(x["x"])) < 1e-3

    def test_state_round_trip(self):
        x = {"x": np.array([1.0, 2.0])}
        opt = Adam(lr=0.05)
        opt.step(x, {"x": np.array([0.5, -0.5])})
        clone = Adam.from_state(json.loads(json.dumps(opt.state())))
        x2 = {"x": x["x"].copy()}
        opt.step(x, {"x": np.array([1.0, 1.0])})
        clone.step(x2, {"x": np.array([1.0, 1.0])})
        assert np.array_equal(x["x"], x2["x"])


@pytest.fixture(scope="module")
def tiny_family():
    case = load_case("ieee33")
    base = to_grid_graph(case)
    loads = case.loads_pu()
    scfg = ScenarioConfig(t_total=40, scenario="ami", seed=3, noise_sigma=0.002)
    fam = augment(base, AugmentConfig(q_count=3, seed=3, ops_range=(1, 3),
                                      node_bounds=(22, 38)))
    return [build_scenario(m.graph, scfg, i, loads) for i, m in enumerate(fam)]


@pytest.fixture(scope="module")
def tiny_fdi_family():
    case = load_case("ieee30")
    base = to_grid_graph(case, kind="transmission")
    loads = case.loads_pu()
    scfg = ScenarioConfig(t_total=30, scenario="pmu", seed=4, noise_sigma=0.005,
                          demand_scale=0.55, attacks_per_system=6)
    fam = transmission_augment(base, AugmentConfig(q_count=2, seed=4, ops_range=(1, 3),
                                                   node_bounds=(30, 30)))
    return [build_scenario(m.graph, scfg, i, loads, task="fdi") for i, m in enumerate(fam)]


def params_digest(params):
    blob = b"".join(np.ascontiguousarray(v).tobytes() for v in params.tensors().values())
    return hashlib.sha256(blob).hexdigest()


class TestTrainLoop:
    CFG = forecast_config(widths=(10, 8, 8), pooled_nodes=4, hidden=16)

    def test_single_system_reduces_to_plain_training(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=3, batch_systems=4,
                           windows_per_system=2, seed=0)
        params, history = train(init_params(self.CFG, 0), tiny_family[:1], tcfg, self.CFG)
        assert len(history) == 3
        assert all(np.isfinite(row[1]) for row in history)

    def test_loss_decreases_on_smoke_run(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=12, batch_systems=3,
                           windows_per_system=4, seed=0, lr=2e-3)
        _, history = train(init_params(self.CFG, 0), tiny_family, tcfg, self.CFG)
        losses = [row[1] for row in history]
        smooth = np.convolve(losses, np.ones(3) / 3, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_training_deterministic_in_seed(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=4, batch_systems=2,
                           windows_per_system=3, seed=9)
        p1, h1 = train(init_params(self.CFG, 1), tiny_family, tcfg, self.CFG)
        p2, h2 = train(init_params(self.CFG, 1), tiny_family, tcfg, self.CFG)
        assert params_digest(p1) == params_digest(p2)
        assert h1 == h2

    def test_eval_never_mutates_params(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=2, batch_systems=2,
                           windows_per_system=2, seed=0)
        params, _ = train(init_params(self.CFG, 0), tiny_family, tcfg, self.CFG)
        digest = params_digest(params)
        eval_forecast(UgcnPredictor(params, self.CFG), tiny_family, horizons=(0, 1), stride=8)
        assert params_digest(params) == digest

    @pytest.mark.parametrize("kind", ["ugcn", "dense"])
    def test_eval_forecast_one_forward_per_time_step(self, tiny_family, monkeypatch, kind):
        import ugcn.training as training
        from ugcn.scenarios import feature_window

        if kind == "ugcn":
            predictor = UgcnPredictor(init_params(self.CFG, 0), self.CFG)
            predict = predictor.forecast
            monkeypatch.setattr(predictor, "forecast",
                                lambda ctx, x: calls.append(1) or predict(ctx, x))
        else:
            predictor = init_dense(tiny_family[0].graph.bus_ids, task="forecast", seed=0,
                                   hidden=8, depth=1)
            monkeypatch.setattr(training, "dense_predict",
                                lambda m, sys, x: calls.append(1) or dense_predict(m, sys, x))
            predict = None
        calls = []
        horizons, stride = (2, 0, 5), 4
        rep = eval_forecast(predictor, tiny_family, horizons=horizons, stride=stride)
        assert len(calls) == sum(len(range(9, s.t_total, stride)) for s in tiny_family)
        for system, entry in zip(tiny_family, rep.per_system):
            ctx = training.SystemContext(system)
            for h in horizons:
                errs = []
                for t in range(9, system.t_total - h, stride):
                    x = feature_window(system.estimates, t, 10)
                    pred = predict(ctx, x) if predict else dense_predict(predictor, system, x)
                    d = pred - system.true_states[t + h]
                    errs.append(float(np.mean(d.real ** 2 + d.imag ** 2)))
                assert entry["mse"][str(h)] == float(np.mean(errs))

    def test_batch_loss_is_mean_of_system_losses(self, tiny_family):
        # one window per system, full batch: the epoch loss must equal the
        # mean of independently computed per-system losses
        from ugcn.training import SystemContext, _sample_loss_and_grads, _split_times

        tcfg = TrainConfig(task="forecast", epochs=1, batch_systems=3,
                           windows_per_system=1, seed=5)
        params = init_params(self.CFG, 2)
        _, history = train(params, tiny_family, tcfg, self.CFG)
        rng = np.random.default_rng([tcfg.seed, 101, 0])
        batch = rng.choice(3, size=3, replace=False)
        total = 0.0
        for q in batch:
            ctx = SystemContext(tiny_family[q])
            times = _split_times(tiny_family[q], tcfg)[0]
            t = int(times[rng.integers(0, len(times))])
            total += _sample_loss_and_grads(params, tcfg, self.CFG, ctx, t, None, None)
        assert history[0][1] == pytest.approx(total / 3, rel=1e-10)


class TestFdiTraining:
    CFG = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)

    def test_fdi_smoke(self, tiny_fdi_family):
        tcfg = TrainConfig(task="fdi", epochs=4, batch_systems=2, windows_per_system=3,
                           seed=0, input_gain=20.0)
        params, history = train(init_params(self.CFG, 0), tiny_fdi_family, tcfg, self.CFG)
        assert len(history) == 4
        rep = eval_fdi(UgcnPredictor(params, self.CFG, input_gain=20.0),
                       tiny_fdi_family, omegas=(0.5,), stride=12, max_attacks=2)
        assert 0.0 <= rep.omegas[0.5]["accuracy"] <= 1.0
        assert rep.zeros_accuracy is not None


class TestDenseBaseline:
    def test_train_and_predicts_all_sizes(self, tiny_family):
        base = tiny_family[0]
        model = init_dense(base.graph.bus_ids, task="forecast", seed=0,
                           hidden=32, depth=2)
        tcfg = TrainConfig(task="forecast", epochs=5, batch_systems=1,
                           windows_per_system=4, seed=0)
        model, history = train_dense(model, [base], tcfg)
        assert history[-1][1] < history[0][1] * 1.5
        from ugcn.scenarios import feature_window

        for system in tiny_family:
            x = feature_window(system.estimates, 12, 10)
            pred = dense_predict(model, system, x)
            assert pred.shape == (system.n,)

    def test_unmapped_buses_get_flat_prediction(self, tiny_family):
        base = tiny_family[0]
        model = init_dense((9991, 9992), task="forecast", seed=0, hidden=8, depth=1)
        from ugcn.scenarios import feature_window

        x = feature_window(base.estimates, 12, 10)
        pred = dense_predict(model, base, x)
        assert np.allclose(pred, 1.0 + 0.0j)

    def test_base_mse_below_target_variance(self, tiny_family):
        base = tiny_family[0]
        model = init_dense(base.graph.bus_ids, task="forecast", seed=0,
                           hidden=64, depth=2)
        tcfg = TrainConfig(task="forecast", epochs=40, batch_systems=1,
                           windows_per_system=8, seed=0, lr=2e-3)
        model, _ = train_dense(model, [base], tcfg)
        rep = eval_forecast(model, [base], horizons=(1,), stride=4, model_name="dense")
        variance = float(np.mean(np.abs(base.true_states - base.true_states.mean(0)) ** 2))
        flat = float(np.mean(np.abs(base.true_states - 1.0) ** 2))
        assert rep.horizons[1] < max(variance, flat)


class TestMetricsReport:
    def test_round_trip(self):
        rep = MetricsReport(model="ugcn", task="forecast",
                            horizons={0: 1e-4, 5: 2e-4},
                            per_system=[{"index": 0, "mse": {"0": 1e-4}}],
                            wall_clock_s=1.5, config={"stride": 4})
        back = MetricsReport.from_dict(json.loads(rep.to_json()))
        assert back.horizons == rep.horizons
        assert back.model == rep.model

    def test_rates_in_valid_ranges(self, tiny_fdi_family):
        cfg = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)
        rep = eval_fdi(UgcnPredictor(init_params(cfg, 0), cfg),
                       tiny_fdi_family, omegas=(0.1, 0.9), stride=12, max_attacks=2)
        for metrics in rep.omegas.values():
            for key in ("accuracy", "precision", "recall", "f1"):
                assert 0.0 <= metrics[key] <= 1.0

    def test_all_clean_split_accuracy_equals_specificity(self, tiny_fdi_family):
        # with every label zero, accuracy is the true-negative rate by definition
        cfg = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)
        predictor = UgcnPredictor(init_params(cfg, 3), cfg)
        from ugcn.scenarios import feature_window
        from ugcn.training import contexts_for

        ctx = contexts_for(tiny_fdi_family)[0]
        x = feature_window(ctx.system.estimates, 12, 10)
        logits = predictor.logits(ctx, x)
        pred = logits > 0
        tn = int(np.sum(~pred))
        assert tn / ctx.system.n == pytest.approx(1.0 - pred.mean())
