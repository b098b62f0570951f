"""Losses, optimizer, training loop contracts, metrics, and the dense baseline."""

import hashlib
import json

import numpy as np
import pytest

from ugcn.caseio import load_case, load_container, save_container, to_grid_graph
from ugcn.errors import DimensionMismatch, DivergedLoss
from ugcn.model import fdi_config, forecast_config, init_params
from ugcn.reconfig import AugmentConfig, augment
from ugcn.scenarios import ScenarioConfig, build_scenario
from ugcn.training import (
    CENTER,
    Adam,
    MetricsReport,
    SystemContext,
    TrainConfig,
    TrainState,
    UgcnPredictor,
    eval_fdi,
    eval_forecast,
    init_dense,
    loss_fdi,
    loss_forecast,
    train,
    train_dense,
)


def fit(model, systems, tcfg, run=train):
    """(best model, history) of a fresh run of `run` from `model`."""
    state = run(TrainState.start(model, tcfg), systems, tcfg)
    return state.result(), state.history


def adam_step(opt, tensors, grads):
    """One optimizer step over a tensor dict, tensor by tensor."""
    opt.begin(tensors)
    for name, g in grads.items():
        opt.step(name, tensors[name], g)


def one_line_adam(p, g, m, v, t, lr):
    """The textbook Adam update of float arrays, whole-array expressions in place."""
    m *= Adam.BETA1
    m += (1 - Adam.BETA1) * g
    v *= Adam.BETA2
    v += (1 - Adam.BETA2) * g * g
    p -= lr * (m / (1.0 - Adam.BETA1 ** t)) / (np.sqrt(v / (1.0 - Adam.BETA2 ** t)) + Adam.EPS)


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
            adam_step(opt, tensors, {"a": np.zeros((3, 4)), "c": np.zeros((2, 2), dtype=complex)})
        for k in tensors:
            assert np.array_equal(tensors[k], before[k])

    def test_descends_a_quadratic(self):
        x = {"x": np.array([5.0, -3.0])}
        opt = Adam(lr=0.1)
        for _ in range(500):
            adam_step(opt, x, {"x": 2 * x["x"]})
        assert np.max(np.abs(x["x"])) < 1e-3

    def test_state_round_trip(self, tmp_path):
        x = {"x": np.array([1.0, 2.0])}
        opt = Adam(lr=0.05)
        adam_step(opt, x, {"x": np.array([0.5, -0.5])})
        path = str(tmp_path / "adam.ckpt.json")
        save_container(path, {"optimizer": opt.state()})
        clone = Adam.from_state(load_container(path)["optimizer"])
        x2 = {"x": x["x"].copy()}
        adam_step(opt, x, {"x": np.array([1.0, 1.0])})
        adam_step(clone, x2, {"x": np.array([1.0, 1.0])})
        assert np.array_equal(x["x"], x2["x"])

    def test_step_matches_one_line_update(self):
        """The in-place, chunked step gives the bits of the textbook
        expressions: on tensors within one chunk, on a real tensor of three
        chunks and 7 values, and on a complex tensor whose float view crosses
        a chunk boundary."""
        rng = np.random.default_rng(11)
        tensors = {"real": rng.standard_normal((7, 5)),
                   "complex": rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
                   "chunks": rng.standard_normal(3 * Adam.CHUNK + 7),
                   "across": rng.standard_normal((3, Adam.CHUNK // 4 + 5))
                             + 1j * rng.standard_normal((3, Adam.CHUNK // 4 + 5))}
        expected = {k: t.copy() for k, t in tensors.items()}
        moments = {k: (np.zeros(Adam._view(t).shape), np.zeros(Adam._view(t).shape))
                   for k, t in tensors.items()}
        opt = Adam(lr=0.03)
        for t in range(1, 6):
            scale = 10.0 ** rng.integers(-9, 3)
            grads = {k: scale * rng.standard_normal(a.shape).astype(a.dtype)
                        + (1j * rng.standard_normal(a.shape) if np.iscomplexobj(a) else 0)
                     for k, a in tensors.items()}
            adam_step(opt, tensors, grads)
            for k in tensors:
                one_line_adam(Adam._view(expected[k]), Adam._view(grads[k]), *moments[k], t, 0.03)
                assert np.array_equal(tensors[k].view(np.uint8), expected[k].view(np.uint8)), (k, t)
                assert np.array_equal(opt.m[k].view(np.uint8), moments[k][0].view(np.uint8)), (k, t)
                assert np.array_equal(opt.v[k].view(np.uint8), moments[k][1].view(np.uint8)), (k, t)


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
    fam = augment(base, AugmentConfig(q_count=2, seed=4, ops_range=(1, 3),
                                                   node_bounds=(30, 30)))
    return [build_scenario(m.graph, scfg, i, loads, task="fdi") for i, m in enumerate(fam)]


def params_digest(params):
    blob = b"".join(np.ascontiguousarray(v).tobytes() for v in params.params.values())
    return hashlib.sha256(blob).hexdigest()


class TestTrainLoop:
    CFG = forecast_config(widths=(10, 8, 8), pooled_nodes=4, hidden=16)

    def model(self, seed):
        return UgcnPredictor(init_params(self.CFG, seed), self.CFG)

    def test_optimizer_step_leaves_no_stale_decoder_constant(self, tiny_family):
        from ugcn.scenarios import feature_window
        from ugcn.training import contexts_for

        model = self.model(0)
        ctx = contexts_for(tiny_family)[0]
        x = feature_window(ctx.system.estimates, 12)[None]
        before, = model.forward([(ctx, x)])
        rng = np.random.default_rng(0)
        grads = {}
        for name, t in model.params.items():
            g = rng.standard_normal(t.shape)
            grads[name] = g + 1j * rng.standard_normal(t.shape) if np.iscomplexobj(t) else g
        adam_step(Adam(lr=1e-2), model.params, grads)
        after, = model.forward([(ctx, x)])
        fresh, = UgcnPredictor(model.params.copy(), self.CFG).forward([(ctx, x)])
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh)

    def test_single_system_reduces_to_plain_training(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=3, batch_systems=4,
                           windows_per_system=2, seed=0)
        _, history = fit(self.model(0), tiny_family[:1], tcfg)
        assert len(history) == 3
        assert all(np.isfinite(row[1]) for row in history)

    def test_loss_decreases_on_smoke_run(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=12, batch_systems=3,
                           windows_per_system=4, seed=0, lr=2e-3)
        _, history = fit(self.model(0), tiny_family, tcfg)
        losses = [row[1] for row in history]
        smooth = np.convolve(losses, np.ones(3) / 3, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_training_deterministic_in_seed(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=4, batch_systems=2,
                           windows_per_system=3, seed=9)
        p1, h1 = fit(self.model(1), tiny_family, tcfg)
        p2, h2 = fit(self.model(1), tiny_family, tcfg)
        assert params_digest(p1) == params_digest(p2)
        assert h1 == h2

    def test_eval_never_mutates_params(self, tiny_family):
        tcfg = TrainConfig(task="forecast", epochs=2, batch_systems=2,
                           windows_per_system=2, seed=0)
        model, _ = fit(self.model(0), tiny_family, tcfg)
        digest = params_digest(model)
        eval_forecast(model, tiny_family, horizons=(0, 1), stride=8)
        assert params_digest(model) == digest

    @pytest.mark.parametrize("kind", ["ugcn", "dense"])
    def test_eval_forecast_one_forward_per_system(self, tiny_family, monkeypatch, kind):
        """One forward per system over all its windows, against a loop over
        the windows one at a time; the baselines against the same loop."""
        from ugcn.scenarios import feature_window

        if kind == "ugcn":
            predictor = self.model(0)
        else:
            predictor = init_dense(tiny_family[0].graph.bus_ids, task="forecast", seed=0,
                                   hidden=8, depth=1)
        forward = predictor.forward
        monkeypatch.setattr(predictor, "forward",
                            lambda batch, record=False: calls.append(1) or forward(batch, record))
        calls = []
        horizons, stride = (2, 0, 5), 4
        rep = eval_forecast(predictor, tiny_family, horizons=horizons, stride=stride)
        assert len(calls) == len(tiny_family)
        oracle = {name: {h: [] for h in horizons} for name in ("ugcn", "flat", "carry")}
        for system, entry in zip(tiny_family, rep.per_system):
            ctx = SystemContext(system)
            for h in horizons:
                errs = {name: [] for name in oracle}
                for t in range(9, system.t_total - h, stride):
                    x = feature_window(system.estimates, t)
                    target = system.true_states[t + h]
                    preds = {"ugcn": forward([(ctx, x[None])])[0][0] + CENTER,
                             "flat": np.full(system.n, 1.0 + 0.0j), "carry": x[:, -1]}
                    for name, pred in preds.items():
                        errs[name].append(float(np.mean(np.abs(pred - target) ** 2)))
                for name in oracle:
                    oracle[name][h].append(np.mean(errs[name]))
                assert entry["mse"][str(h)] == pytest.approx(oracle["ugcn"][h][-1], rel=1e-12)
        got = {"ugcn": rep.horizons, "flat": rep.baselines["flat"],
               "carry": rep.baselines["carry_forward"]}
        for name in oracle:
            assert got[name].keys() == set(horizons)
            for h in horizons:
                assert got[name][h] == pytest.approx(np.mean(oracle[name][h]), rel=1e-12), name

    def test_batch_loss_is_mean_of_system_losses(self, tiny_family):
        # one window per system, full batch: the epoch loss must equal the
        # mean of independently computed per-system losses
        from ugcn.training import _batch_losses, _split_times

        tcfg = TrainConfig(task="forecast", epochs=1, batch_systems=3,
                           windows_per_system=1, seed=5)
        model = self.model(2)
        _, history = fit(model, tiny_family, tcfg)
        rng = np.random.default_rng([tcfg.seed, 101, 0])
        batch = rng.choice(3, size=3, replace=False)
        total = 0.0
        for q in batch:
            ctx = SystemContext(tiny_family[q])
            times = _split_times(tiny_family[q], tcfg)[0]
            t = int(times[rng.integers(0, len(times))])
            total += _batch_losses(model, tcfg, [(ctx, [(t, None)])])[0]
        assert history[0][1] == pytest.approx(total / 3, rel=1e-10)


class TestTrainState:
    CFG = forecast_config(widths=(10, 8, 8), pooled_nodes=4, hidden=16)

    def model(self):
        return UgcnPredictor(init_params(self.CFG, 3), self.CFG)

    @staticmethod
    def tcfg(epochs, **overrides):
        return TrainConfig(task="forecast", epochs=epochs, batch_systems=2,
                           windows_per_system=3, seed=4, **overrides)

    def test_record_trained_in_two_calls_equals_one_run(self, tiny_family):
        whole = train(TrainState.start(self.model(), self.tcfg(7)), tiny_family, self.tcfg(7))
        half = train(TrainState.start(self.model(), self.tcfg(4)), tiny_family, self.tcfg(4))
        assert (half.epoch, len(half.history)) == (4, 4)
        assert train(half, tiny_family, self.tcfg(7)) is half
        assert half.history == whole.history
        assert (half.epoch, half.best_val, half.bad) == (whole.epoch, whole.best_val, whole.bad)
        assert params_digest(half.model) == params_digest(whole.model)
        assert params_digest(half.best) == params_digest(whole.best)
        assert half.optimizer.t == whole.optimizer.t == 7
        for moments in ("m", "v"):
            a, b = getattr(half.optimizer, moments), getattr(whole.optimizer, moments)
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_start_copies_and_result_is_live_model_before_validation(self):
        model = self.model()
        state = TrainState.start(model, self.tcfg(1))
        assert state.model is not model and state.best is not state.model
        assert (state.epoch, state.history, state.best_val) == (0, [], float("inf"))
        assert state.result() is state.model
        state.model.params["w_out"] += 1.0
        assert params_digest(model) == params_digest(self.model())

    def test_divergence_keeps_the_epochs_before_it(self, tiny_family):
        tcfg = self.tcfg(5, lr=1e60, lr_decay=1.0)
        state = TrainState.start(self.model(), tcfg)
        with np.errstate(all="ignore"), pytest.raises(DivergedLoss) as exc:
            train(state, tiny_family, tcfg)
        k = exc.value.epoch
        assert k >= 1
        assert [row[0] for row in state.history] == list(range(k)) and state.epoch == k
        assert state.best.finite()


def unfused_run(model, systems, cfg):
    """(live, best, m, v, history) of `train` written as one unfused loop:
    forward, every gradient collected into a dict and scaled, one whole-dict
    Adam update, and a fresh copy for each new best.  No early stop."""
    from ugcn.training import (FDI, _batch_losses, _pick_attack, _split_times,
                               _validation_loss, contexts_for)

    contexts = contexts_for(systems)
    splits = [_split_times(s, cfg) for s in systems]
    model = model.copy()
    best, best_val = model.copy(), float("inf")
    m = {k: np.zeros_like(Adam._view(p)) for k, p in model.params.items()}
    v = {k: np.zeros_like(a) for k, a in m.items()}
    history = []
    size = min(cfg.batch_systems, len(systems))
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 101, epoch])
        batch = []
        for q in rng.choice(len(systems), size=size, replace=False):
            times, picks = splits[q][0], []
            for _ in range(cfg.windows_per_system):
                t = int(times[rng.integers(0, len(times))])
                picks.append((t, _pick_attack(contexts[q].live_attacks, rng, cfg.attack_prob)
                                 if cfg.task == FDI else None))
            batch.append((contexts[q], picks))
        losses, tape, gs = _batch_losses(model, cfg, batch, record=True)
        grads = model.backward(tape, gs)
        for g in grads.values():
            g *= 1.0 / size
        for k, p in model.params.items():
            one_line_adam(Adam._view(p), Adam._view(np.ascontiguousarray(grads[k])), m[k], v[k],
                          epoch + 1, cfg.lr * cfg.lr_decay ** epoch)
        val = _validation_loss(model, cfg, contexts, splits)
        history.append((epoch, sum(loss / size for loss in losses), val))
        if val < best_val - 1e-12:
            best, best_val = model.copy(), val
    return model, best, m, v, history


class TestFusedStep:
    """Each gradient goes to Adam as backward finishes it, and the best model
    is copied into place: the run's bits are the unfused loop's, and no
    parameter-sized temporary is made."""

    @staticmethod
    def case(kind, tiny_family, tiny_fdi_family):
        """(model, systems, train config) of a 3-epoch run; with hidden 96
        the largest tensors span two Adam chunks."""
        if kind == "dense":
            return (init_dense(tiny_family[0].graph.bus_ids, task="forecast", seed=1,
                               hidden=160, depth=2),
                    tiny_family[:1], TrainConfig(task="forecast", epochs=3, windows_per_system=4,
                                                 seed=2, lr=2e-3))
        if kind == "fdi":
            cfg = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=160)
            return (UgcnPredictor(init_params(cfg, 1), cfg), tiny_fdi_family,
                    TrainConfig(task="fdi", epochs=3, windows_per_system=3, seed=2, lr=2e-3))
        cfg = forecast_config(widths=(10, 8, 8), pooled_nodes=4, hidden=160)
        return (UgcnPredictor(init_params(cfg, 1), cfg), tiny_family,
                TrainConfig(task="forecast", epochs=3, windows_per_system=3, seed=2, lr=2e-3))

    @pytest.mark.parametrize("kind", ["forecast", "fdi", "dense"])
    def test_matches_unfused_oracle_bit_for_bit(self, tiny_family, tiny_fdi_family, kind):
        model, systems, tcfg = self.case(kind, tiny_family, tiny_fdi_family)
        assert max(t.size for t in model.params.values()) > Adam.CHUNK
        state = (train_dense if kind == "dense" else train)(
            TrainState.start(model, tcfg), systems, tcfg)
        live, best, m, v, history = unfused_run(model, systems, tcfg)
        assert state.history == history
        for got, want in ((state.model.params, live.params), (state.best.params, best.params),
                          (state.optimizer.m, m), (state.optimizer.v, v)):
            assert list(got) == list(want)
            for k in want:
                assert np.array_equal(got[k].view(np.uint8), want[k].view(np.uint8)), k

    # Measured with numpy 2.4: the peak is 0.37 MB (dense) and 0.50 MB (ugcn)
    # above the largest tensor.
    SLACK = 2.0e6

    @pytest.mark.parametrize("kind", ["dense", "ugcn"])
    def test_one_epoch_stays_within_its_memory_bound(self, kind):
        """One epoch on one base ieee33 system, at the CLI's default sizes,
        peaks at the run's live tensors (model, best, m and v) plus the
        largest single tensor and a fixed slack, in traced allocations."""
        import tracemalloc

        case = load_case("ieee33")
        system = build_scenario(to_grid_graph(case), ScenarioConfig(t_total=40, seed=3), 0,
                                case.loads_pu())
        if kind == "dense":
            model = init_dense(system.graph.bus_ids, task="forecast", hidden=512, depth=4)
        else:
            cfg = forecast_config(k_spatial=3, k_temporal=2, pooled_nodes=12, hidden=256)
            model = UgcnPredictor(init_params(cfg), cfg)
        tcfg = TrainConfig(task="forecast", epochs=1, windows_per_system=2)
        sizes = [t.nbytes for t in model.params.values()]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = train(TrainState.start(model, tcfg), [system], tcfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert state.epoch == 1
        excess = peak - 4 * sum(sizes)
        assert excess <= max(sizes) + self.SLACK, (
            f"{excess / 1e6:.2f} MB above the live tensors: the largest tensor "
            f"({max(sizes) / 1e6:.2f} MB) and {(excess - max(sizes)) / 1e6:.2f} MB of slack, "
            f"over the {self.SLACK / 1e6:.2f} MB allowed")

    # Measured with numpy 2.4: backward peaks 0.02 MB above the largest
    # tensor.  Holding the decoder's gradients until its backward returns
    # peaks 1.08 MB above.
    BACKWARD_SLACK = 0.25e6

    def test_ugcn_backward_stays_within_its_memory_bound(self):
        """`model_backward` at the CLI's default sizes, with each gradient
        handed to Adam, peaks at the largest tensor plus a fixed slack in
        traced allocations: every decoder gradient is released once taken."""
        import tracemalloc

        from ugcn.training import _batch_losses, _split_times, contexts_for

        case = load_case("ieee33")
        system = build_scenario(to_grid_graph(case), ScenarioConfig(t_total=40, seed=3), 0,
                                case.loads_pu())
        cfg = forecast_config(k_spatial=3, k_temporal=2, pooled_nodes=12, hidden=256)
        model = UgcnPredictor(init_params(cfg), cfg)
        tcfg = TrainConfig(task="forecast", epochs=1, windows_per_system=2)
        times = _split_times(system, tcfg)[0]
        picks = [(int(times[0]), None), (int(times[-1]), None)]
        _, tape, gs = _batch_losses(model, tcfg, [(contexts_for([system])[0], picks)],
                                    record=True)
        opt = Adam(tcfg.lr)
        opt.begin(model.params)
        taken = []

        def take(name, g):
            taken.append(name)
            opt.step(name, model.params[name], g)

        largest = max(t.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.backward(tape, gs, take)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sorted(taken) == sorted(model.params)
        assert peak <= largest + self.BACKWARD_SLACK, (
            f"{peak / 1e6:.2f} MB: {(peak - largest) / 1e6:.2f} MB above the largest tensor "
            f"({largest / 1e6:.2f} MB), over the {self.BACKWARD_SLACK / 1e6:.2f} MB allowed")


class TestFdiTraining:
    CFG = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)

    def test_fdi_smoke(self, tiny_fdi_family):
        tcfg = TrainConfig(task="fdi", epochs=4, batch_systems=2, windows_per_system=3,
                           seed=0)
        model, history = fit(UgcnPredictor(init_params(self.CFG, 0), self.CFG),
                             tiny_fdi_family, tcfg)
        assert len(history) == 4
        rep = eval_fdi(model, tiny_fdi_family, omegas=(0.5,), stride=12, max_attacks=2)
        assert 0.0 <= rep.omegas[0.5]["accuracy"] <= 1.0
        assert rep.zeros_accuracy is not None


class TestDenseBaseline:
    def test_train_and_predicts_all_sizes(self, tiny_family):
        base = tiny_family[0]
        model = init_dense(base.graph.bus_ids, task="forecast", seed=0,
                           hidden=32, depth=2)
        tcfg = TrainConfig(task="forecast", epochs=5, batch_systems=1,
                           windows_per_system=4, seed=0)
        model, history = fit(model, [base], tcfg, train_dense)
        assert history[-1][1] < history[0][1] * 1.5
        from ugcn.scenarios import feature_window

        for system in tiny_family:
            x = feature_window(system.estimates, 12)[None]
            pred = model.uncentered(model.forward([(SystemContext(system), x)])[0])
            assert pred.shape == (1, system.n)

    @pytest.mark.parametrize("task", ["forecast", "fdi"])
    def test_gradients_match_finite_differences(self, tiny_family, task):
        from ugcn.scenarios import feature_window
        from ugcn.training import _loss_fdi_grad, _loss_forecast_grad

        system = tiny_family[0]
        ctx = SystemContext(system)
        # the base layout lacks two of the system's buses and has one the system lacks
        model = init_dense(tuple(system.graph.bus_ids[2:]) + (9999,), task=task, seed=1,
                           hidden=6, depth=2)
        # a stack of two windows, the loss their mean
        x = np.stack([feature_window(system.estimates, t) for t in (12, 20)])
        rng = np.random.default_rng(0)
        if task == "forecast":
            loss, loss_grad = loss_forecast, _loss_forecast_grad
            target = system.true_states[[13, 21]] - CENTER
        else:
            loss, loss_grad = loss_fdi, _loss_fdi_grad
            target = (rng.random((2, system.n)) > 0.5) * 1.0
        (y,), tape = model.forward([(ctx, x)], record=True)
        grads = model.backward(tape, [loss_grad(y, target)[1]])
        assert grads.keys() == model.params.keys()
        for name, tensor in model.params.items():
            flat = tensor.reshape(-1)
            for i in rng.choice(flat.size, 3, replace=False):
                keep = flat[i]
                flat[i] = keep + 1e-6
                up = loss(model.forward([(ctx, x)])[0], target)
                flat[i] = keep - 1e-6
                down = loss(model.forward([(ctx, x)])[0], target)
                flat[i] = keep
                assert grads[name].reshape(-1)[i] == pytest.approx((up - down) / 2e-6,
                                                                   rel=1e-5, abs=1e-9), name

    @pytest.mark.parametrize("task", ["forecast", "fdi"])
    def test_batch_matches_each_system_alone(self, tiny_family, task):
        """Systems that lack different base buses, in one forward and one
        backward, against each system alone: the outputs, and the gradients
        against their sum."""
        from ugcn.scenarios import feature_window

        slots = sorted(set().union(*(s.graph.bus_ids for s in tiny_family)) | {9999})
        missing = [frozenset(slots) - set(s.graph.bus_ids) for s in tiny_family]
        assert len(set(missing)) == len(tiny_family)
        model = init_dense(tuple(slots), task=task, seed=2, hidden=8, depth=2)
        rng = np.random.default_rng(1)
        batch, gs = [], []
        for system, times in zip(tiny_family, ((12,), (14, 20), (16, 22, 30))):
            batch.append((SystemContext(system),
                          np.stack([feature_window(system.estimates, t) for t in times])))
            g = rng.standard_normal((len(times), system.n))
            gs.append(g + 1j * rng.standard_normal(g.shape) if task == "forecast" else g)
        ys, tape = model.forward(batch, record=True)
        grads, ref = model.backward(tape, gs), {}
        for pair, y, g in zip(batch, ys, gs):
            (alone,), pair_tape = model.forward([pair], record=True)
            assert y.shape == alone.shape
            assert np.max(np.abs(y - alone)) <= 1e-12 * np.max(np.abs(alone))
            for name, arr in model.backward(pair_tape, [g]).items():
                ref[name] = ref[name] + arr if name in ref else arr
        assert grads.keys() == ref.keys() == model.params.keys()
        for name in ref:
            assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12 * np.max(np.abs(ref[name]))

    def test_history_val_loss_is_held_out_loss(self, tiny_family):
        from ugcn.training import _split_times, _validation_loss, contexts_for

        base = tiny_family[0]
        model = init_dense(base.graph.bus_ids, task="forecast", seed=0, hidden=32, depth=2)
        tcfg = TrainConfig(task="forecast", epochs=12, batch_systems=1,
                           windows_per_system=4, seed=0, lr=1e-2)
        model, history = fit(model, [base], tcfg, train_dense)
        assert len(history) == 12
        assert all(row[1] != row[2] for row in history)
        val = [row[2] for row in history]
        assert val.index(min(val)) < len(val) - 1      # the best epoch is not the last
        held_out = _validation_loss(model, tcfg, contexts_for([base]), [_split_times(base, tcfg)])
        assert held_out == min(val)

    def test_lr_decays_per_epoch(self, tiny_family):
        base = tiny_family[0]
        model = init_dense(base.graph.bus_ids, task="forecast", seed=0, hidden=8, depth=1)
        tcfg = TrainConfig(task="forecast", epochs=3, batch_systems=1, windows_per_system=2,
                           seed=0, lr=1e-3, lr_decay=0.5)
        state = train(TrainState.start(model, tcfg), [base], tcfg)
        assert state.epoch == 3
        assert state.optimizer.lr == 1e-3 * 0.5 ** 2

    def test_unmapped_buses_get_flat_prediction(self, tiny_family):
        base = tiny_family[0]
        model = init_dense((9991, 9992), task="forecast", seed=0, hidden=8, depth=1)
        from ugcn.scenarios import feature_window

        x = feature_window(base.estimates, 12)[None]
        pred = model.uncentered(model.forward([(SystemContext(base), x)])[0])
        assert np.allclose(pred, 1.0 + 0.0j)

    def test_unmapped_buses_get_clean_logit(self, tiny_fdi_family):
        from ugcn.scenarios import feature_window

        system = tiny_fdi_family[0]
        model = init_dense((9991, system.graph.bus_ids[0]), task="fdi", seed=0,
                           hidden=8, depth=1)
        logits, = model.forward([(SystemContext(system), feature_window(system.estimates, 12)[None])])
        assert logits.shape == (1, system.n)
        assert np.all(logits[0, 1:] == -10.0) and logits[0, 0] != -10.0

    def test_base_mse_below_target_variance(self, tiny_family):
        base = tiny_family[0]
        model = init_dense(base.graph.bus_ids, task="forecast", seed=0,
                           hidden=64, depth=2)
        tcfg = TrainConfig(task="forecast", epochs=40, batch_systems=1,
                           windows_per_system=8, seed=0, lr=2e-3)
        model, _ = fit(model, [base], tcfg, train_dense)
        rep = eval_forecast(model, [base], horizons=(1,), stride=4, model_name="dense")
        variance = float(np.mean(np.abs(base.true_states - base.true_states.mean(0)) ** 2))
        flat = float(np.mean(np.abs(base.true_states - 1.0) ** 2))
        assert rep.horizons[1] < max(variance, flat)


class TestMetricsReport:
    def test_round_trip(self):
        rep = MetricsReport(model="ugcn", task="forecast",
                            horizons={0: 1e-4, 5: 2e-4},
                            per_system=[{"index": 0, "mse": {"0": 1e-4}}],
                            config={"stride": 4})
        back = MetricsReport.from_dict(json.loads(rep.to_json()))
        assert back.horizons == rep.horizons
        assert back.model == rep.model

    def test_older_report_with_wall_clock_loads_without_it(self):
        rep = MetricsReport(model="ugcn", task="forecast", horizons={1: 1e-4},
                            config={"stride": 4, "trained_horizon": 1})
        back = MetricsReport.from_dict({**rep.to_dict(), "wall_clock_s": 1.5})
        assert back.to_json() == rep.to_json()
        assert "wall_clock_s" not in back.to_dict()

    def test_rates_in_valid_ranges(self, tiny_fdi_family):
        cfg = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)
        rep = eval_fdi(UgcnPredictor(init_params(cfg, 0), cfg),
                       tiny_fdi_family, omegas=(0.1, 0.9), stride=12, max_attacks=2)
        for metrics in rep.omegas.values():
            for key in ("accuracy", "precision", "recall", "f1"):
                assert 0.0 <= metrics[key] <= 1.0

    def test_eval_fdi_one_forward_per_attack(self, tiny_fdi_family, monkeypatch):
        """One forward per attack over its (omega, t) windows, against a loop
        over the windows one at a time; the sensor-bus baseline against the
        same loop.  Counts must agree exactly."""
        from ugcn.scenarios import feature_window

        cfg = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)
        predictor = UgcnPredictor(init_params(cfg, 5), cfg)
        forward = predictor.forward
        monkeypatch.setattr(predictor, "forward", lambda batch, record=False:
                            calls.append(len(batch[0][1])) or forward(batch, record))
        calls = []
        omegas, stride, threshold = (0.1, 0.5, 0.9), 8, 0.4
        rep = eval_fdi(predictor, tiny_fdi_family, omegas=omegas, stride=stride,
                       threshold=threshold, max_attacks=3)
        cut = np.log(threshold / (1 - threshold))
        keys = ("tp", "tn", "fp", "fn")
        model = {w: dict.fromkeys(keys, 0) for w in omegas}
        sensor = {w: dict.fromkeys(keys, 0) for w in omegas}
        windows = []
        for system in tiny_fdi_family:
            ctx = SystemContext(system)
            sensors = {system.graph.pos(b) for b in system.pmu_buses}
            times = range(9, system.t_total, stride)
            for ai in [i for i, a in enumerate(system.attacks) if not a.is_null][:3]:
                windows.append(len(omegas) * len(times))
                labels = system.attacks[ai].labels
                for w in omegas:
                    for t in times:
                        x = feature_window(system.estimates, t) + w * ctx.attack_shift(ai)[:, None]
                        flags = forward([(ctx, x[None])])[0][0] > cut
                        for i in range(system.n):
                            for counts, flag in ((model, flags[i]), (sensor, i in sensors)):
                                key = ("t" if bool(flag) == bool(labels[i]) else "f") + \
                                      ("p" if flag else "n")
                                counts[w][key] += 1
        assert calls == windows
        for w in omegas:
            assert {k: rep.omegas[w][k] for k in keys} == model[w]
            assert {k: rep.baselines["sensor_buses"][w][k] for k in keys} == sensor[w]
        assert rep.baselines["sensor_buses"][0.5]["recall"] == 1.0

    def test_all_clean_split_accuracy_equals_specificity(self, tiny_fdi_family):
        # with every label zero, accuracy is the true-negative rate by definition
        cfg = fdi_config(widths=(10, 8), pooled_nodes=6, hidden=16)
        predictor = UgcnPredictor(init_params(cfg, 3), cfg)
        from ugcn.scenarios import feature_window
        from ugcn.training import contexts_for

        ctx = contexts_for(tiny_fdi_family)[0]
        x = feature_window(ctx.system.estimates, 12)[None]
        logits, = predictor.forward([(ctx, x)])
        pred = logits > 0
        tn = int(np.sum(~pred))
        assert tn / ctx.system.n == pytest.approx(1.0 - pred.mean())
