"""Training across sampled systems, losses, metrics, and the dense baseline.

One parameter set is optimized over a family of reconfigured systems: each
epoch samples a batch of systems, averages their per-window losses, and takes
an Adam step on the shared tensors.  Evaluation is zero-shot: trained
parameters run unchanged on systems never seen in training.  The dense
baseline is the conventional fixed-input network trained on the base topology
only; other topologies are mapped onto its input slots by bus id.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .caseio import decode_array, encode_array
from .errors import ConfigError, DimensionMismatch, DivergedLoss
from .grid import build_admittance, build_gso
from .model import (
    GradientSum,
    LayerConfig,
    UgcnParams,
    model_backward,
    model_forward,
)
from .scenarios import ScenarioSet, build_features, feature_window
from .estimation import PmuOperator

FORECAST = "forecast"
FDI = "fdi"
CENTER = 1.0 + 0.0j   # estimates and states hover around the flat profile


# --------------------------------------------------------------------------
# Losses


def loss_forecast(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared modulus error over buses."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DimensionMismatch(f"pred {pred.shape} vs target {target.shape}")
    d = pred - target
    return float(np.mean(d.real ** 2 + d.imag ** 2))


def _loss_forecast_grad(pred: np.ndarray, target: np.ndarray):
    d = pred - target
    n = pred.shape[0]
    return float(np.mean(d.real ** 2 + d.imag ** 2)), (2.0 / n) * d


def loss_fdi(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy on sigmoid(logits), in the stable log-sum-exp form."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if logits.shape != labels.shape:
        raise DimensionMismatch(f"logits {logits.shape} vs labels {labels.shape}")
    return float(np.mean(np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))))


def _loss_fdi_grad(logits: np.ndarray, labels: np.ndarray, pos_weight: float = 1.0):
    sig = 1.0 / (1.0 + np.exp(-logits))
    if pos_weight == 1.0:
        return loss_fdi(logits, labels), (sig - labels) / logits.shape[0]
    w = np.where(labels > 0.5, pos_weight, 1.0)
    per = np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    val = float(np.mean(w * per))
    return val, w * (sig - labels) / logits.shape[0]


# --------------------------------------------------------------------------
# Optimizer


class Adam:
    """Elementwise Adam over a named tensor dict; complex tensors update via
    their interleaved float view, i.e. real and imaginary parts independently."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    @staticmethod
    def _view(a: np.ndarray) -> np.ndarray:
        return a.view(np.float64) if np.iscomplexobj(a) else a

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name in tensors:
            p = self._view(tensors[name])
            g = self._view(np.ascontiguousarray(grads[name]))
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state(self) -> dict:
        return {
            "t": self.t, "lr": self.lr, "beta1": self.beta1, "beta2": self.beta2,
            "eps": self.eps,
            "m": {k: encode_array(a) for k, a in self.m.items()},
            "v": {k: encode_array(a) for k, a in self.v.items()},
        }

    @classmethod
    def from_state(cls, doc: dict) -> "Adam":
        opt = cls(lr=doc["lr"], beta1=doc["beta1"], beta2=doc["beta2"], eps=doc["eps"])
        opt.t = doc["t"]
        opt.m = {k: decode_array(a) for k, a in doc["m"].items()}
        opt.v = {k: decode_array(a) for k, a in doc["v"].items()}
        return opt


# --------------------------------------------------------------------------
# Per-system context


class SystemContext:
    """Precomputed shift operator, pooling order, and attack footprints."""

    def __init__(self, system: ScenarioSet):
        self.system = system
        y = build_admittance(system.graph)
        self.s = build_gso(y).matrix
        self.order = system.graph.bfs().order
        self._op: PmuOperator | None = None
        self._shifts: dict[int, np.ndarray] = {}
        self._y = y

    def pmu_operator(self) -> PmuOperator:
        if self._op is None:
            self._op = PmuOperator.build(
                self.system.graph, self.system.pmu_buses, mu1=self.system.mu1, y=self._y
            )
        return self._op

    def attack_shift(self, attack_idx: int) -> np.ndarray:
        if attack_idx not in self._shifts:
            attack = self.system.attacks[attack_idx]
            self._shifts[attack_idx] = self.pmu_operator().estimate_shift(attack.delta_v)
        return self._shifts[attack_idx]


def contexts_for(systems: list[ScenarioSet]) -> list[SystemContext]:
    return [SystemContext(s) for s in systems]


# --------------------------------------------------------------------------
# Train configuration and loop


@dataclass(frozen=True)
class TrainConfig:
    task: str = FORECAST
    horizon: int = 1
    epochs: int = 60
    batch_systems: int = 16
    windows_per_system: int = 6
    lr: float = 1e-3
    lr_decay: float = 0.98             # per-epoch multiplicative decay
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    window: int = 10
    center: bool = True
    input_gain: float = 1.0            # scales centered inputs to a workable range
    pos_weight: float = 1.0            # FDI class weighting (1 = no reweighting)
    attack_prob: float = 0.7
    val_fraction: float = 0.1
    early_stop_patience: int = 10

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.task not in (FORECAST, FDI):
            raise ConfigError(f"unknown task {self.task!r}")

    @property
    def lead(self) -> int:
        """Steps between a window's newest estimate and its target."""
        return self.horizon if self.task == FORECAST else 0


def _usable_times(system: ScenarioSet, cfg: TrainConfig) -> np.ndarray:
    return np.arange(cfg.window - 1, system.t_total - cfg.lead)


def check_series_lengths(systems: list[ScenarioSet], cfg: TrainConfig) -> None:
    """Reject a system whose series cannot supply one training window and one
    validation window, i.e. two usable time steps."""
    minimum = cfg.window + cfg.lead + 1
    for system in systems:
        if system.t_total < minimum:
            raise ConfigError(
                f"system {system.index} has t_total {system.t_total}, but a window of "
                f"{cfg.window} with lead {cfg.lead} needs at least {minimum} steps "
                "for one training and one validation window"
            )


def _split_times(system: ScenarioSet, cfg: TrainConfig):
    times = _usable_times(system, cfg)
    n_val = max(1, int(np.ceil(cfg.val_fraction * len(times))))
    return times[:-n_val], times[-n_val:]


def _sample_loss_and_grads(
    params: UgcnParams,
    cfg: TrainConfig,
    model_cfg: LayerConfig,
    ctx: SystemContext,
    t: int,
    attack_idx: int | None,
    accumulate: GradientSum | None,
):
    system = ctx.system
    if cfg.task == FORECAST:
        x, target = build_features(system, t, window=cfg.window, horizon=cfg.horizon)
        if cfg.center:
            x = x - CENTER
            target = target - CENTER
    else:
        attack = system.attacks[attack_idx] if attack_idx is not None else None
        if attack is not None:
            x, target = build_features(
                system, t, window=cfg.window, attack=attack,
                estimate_shift=ctx.attack_shift(attack_idx),
            )
        else:
            x = feature_window(system.estimates, t, cfg.window)
            target = np.zeros(system.n)
        if cfg.center:
            x = x - CENTER
    if cfg.input_gain != 1.0:
        x = x * cfg.input_gain
    if accumulate is None:
        y = model_forward(ctx.s, x, params, model_cfg, node_order=ctx.order)
        if cfg.task == FORECAST:
            return loss_forecast(y, target)
        return loss_fdi(y, target)
    y, tape = model_forward(ctx.s, x, params, model_cfg, node_order=ctx.order, record=True)
    if cfg.task == FORECAST:
        val, g = _loss_forecast_grad(y, target)
    else:
        val, g = _loss_fdi_grad(y, target, cfg.pos_weight)
    model_backward(tape, g, into=accumulate)
    return val


def _pick_attack(system: ScenarioSet, rng: np.random.Generator, prob: float):
    live = [i for i, a in enumerate(system.attacks) if not a.is_null]
    if not live or rng.random() > prob:
        return None
    return live[int(rng.integers(0, len(live)))]


def train(
    params: UgcnParams,
    systems: list[ScenarioSet],
    cfg: TrainConfig,
    model_cfg: LayerConfig,
    optimizer: Adam | None = None,
    start_epoch: int = 0,
    history: list | None = None,
    best: dict | None = None,
    state_out: dict | None = None,
):
    """Optimize shared parameters over the system family; returns (params, history).

    Deterministic in cfg.seed: epoch e always draws from the stream
    (seed, 101, e), so a resumed run continues exactly where it left off;
    pass state_out to capture the live parameters, optimizer, and
    early-stopping state for checkpointing.  Raises DivergedLoss (carrying
    the last finite parameters) on NaN/Inf.
    """
    if not systems:
        raise DimensionMismatch("need at least one training system")
    params = params.copy()
    contexts = contexts_for(systems)
    splits = [_split_times(s, cfg) for s in systems]
    opt = optimizer if optimizer is not None else Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    history = [] if history is None else list(history)
    best = dict(best) if best else {"val": float("inf"), "params": params.copy(), "bad": 0}

    q_total = len(systems)
    batch_size = min(cfg.batch_systems, q_total)
    epoch_next = start_epoch
    for epoch in range(start_epoch, cfg.epochs):
        epoch_next = epoch + 1
        rng = np.random.default_rng([cfg.seed, 101, epoch])
        batch = rng.choice(q_total, size=batch_size, replace=False)
        grads: dict[str, np.ndarray] = {}
        batch_loss = 0.0
        for q in batch:
            ctx = contexts[q]
            train_times = splits[q][0]
            sys_grads = GradientSum()
            sys_loss = 0.0
            for _ in range(cfg.windows_per_system):
                t = int(train_times[rng.integers(0, len(train_times))])
                attack_idx = (
                    _pick_attack(ctx.system, rng, cfg.attack_prob) if cfg.task == FDI else None
                )
                sys_loss += _sample_loss_and_grads(
                    params, cfg, model_cfg, ctx, t, attack_idx, sys_grads
                )
            scale = 1.0 / cfg.windows_per_system
            sys_loss *= scale
            for name, g in sys_grads.total().items():
                g = g * (scale / batch_size)
                grads[name] = grads[name] + g if name in grads else g
            batch_loss += sys_loss / batch_size
        if not np.isfinite(batch_loss):
            raise DivergedLoss(epoch, best["params"])
        opt.lr = cfg.lr * cfg.lr_decay ** epoch   # function of epoch: resume-safe
        opt.step(params.tensors(), grads)
        if not params.finite():
            raise DivergedLoss(epoch, best["params"])

        val_loss = _validation_loss(params, cfg, model_cfg, contexts, splits)
        history.append((epoch, batch_loss, val_loss))
        if val_loss < best["val"] - 1e-12:
            best.update(val=val_loss, params=params.copy(), bad=0)
        else:
            best["bad"] += 1
            if best["bad"] >= cfg.early_stop_patience:
                break
    if state_out is not None:
        state_out.update(
            last_params=params, best=best, epoch_next=epoch_next, optimizer=opt
        )
    return best["params"] if best["val"] < float("inf") else params, history


def _validation_loss(params, cfg, model_cfg, contexts, splits) -> float:
    total = 0.0
    count = 0
    for q, ctx in enumerate(contexts):
        val_times = splits[q][1]
        picks = val_times if len(val_times) <= 4 else val_times[:: max(1, len(val_times) // 4)][:4]
        for t in picks:
            attack_idx = None
            if cfg.task == FDI and ctx.system.attacks:
                live = [i for i, a in enumerate(ctx.system.attacks) if not a.is_null]
                attack_idx = live[int(t) % len(live)] if live else None
            total += _sample_loss_and_grads(
                params, cfg, model_cfg, ctx, int(t), attack_idx, None
            )
            count += 1
    return total / max(count, 1)


# --------------------------------------------------------------------------
# Predictors


class UgcnPredictor:
    def __init__(self, params: UgcnParams, model_cfg: LayerConfig,
                 center: bool = True, input_gain: float = 1.0):
        self.params = params
        self.cfg = model_cfg
        self.center = center
        self.input_gain = input_gain

    def _prep(self, x: np.ndarray) -> np.ndarray:
        if self.center:
            x = x - CENTER
        return x * self.input_gain if self.input_gain != 1.0 else x

    def forecast(self, ctx: SystemContext, x: np.ndarray) -> np.ndarray:
        y = model_forward(ctx.s, self._prep(x), self.params, self.cfg, node_order=ctx.order)
        return y + CENTER if self.center else y

    def logits(self, ctx: SystemContext, x: np.ndarray) -> np.ndarray:
        return model_forward(ctx.s, self._prep(x), self.params, self.cfg, node_order=ctx.order)


@dataclass
class DenseModel:
    """Fixed-input fully connected baseline bound to one base bus layout."""

    bus_slots: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    task: str
    window: int
    center: bool = True

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    def copy(self) -> "DenseModel":
        return DenseModel(
            bus_slots=self.bus_slots,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            task=self.task, window=self.window, center=self.center,
        )


def init_dense(
    bus_slots: tuple[int, ...],
    task: str,
    window: int = 10,
    hidden: int = 512,
    depth: int = 4,
    seed: int = 0,
    center: bool = True,
) -> DenseModel:
    n = len(bus_slots)
    n_in = 2 * n * window
    n_out = 2 * n if task == FORECAST else n
    rng = np.random.default_rng([seed, 53])
    dims = [n_in] + [hidden] * depth + [n_out]
    weights = [rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
               for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return DenseModel(bus_slots=tuple(bus_slots), weights=weights, biases=biases,
                      task=task, window=window, center=center)


def _dense_input(model: DenseModel, system: ScenarioSet, x: np.ndarray) -> np.ndarray:
    """Map a [N, window] window onto the base slots: shared bus ids map by id,
    slots absent from the system are zero (the centered flat profile)."""
    if model.center:
        x = x - CENTER
    n = len(model.bus_slots)
    slot = np.zeros((n, model.window), dtype=np.complex128)
    pos = {b: i for i, b in enumerate(system.graph.bus_ids)}
    for i, b in enumerate(model.bus_slots):
        if b in pos:
            slot[i] = x[pos[b]]
    return np.concatenate([slot.real.ravel(), slot.imag.ravel()])


def _dense_forward(model: DenseModel, vec: np.ndarray, record: bool = False):
    acts = [vec]
    pres = []
    h = vec
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pres.append(z)
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    if record:
        return h, (acts, pres)
    return h


def _dense_backward(model: DenseModel, tape, g_out: np.ndarray) -> dict[str, np.ndarray]:
    acts, pres = tape
    grads: dict[str, np.ndarray] = {}
    g = g_out
    for i in range(len(model.weights) - 1, -1, -1):
        if i != len(model.weights) - 1:
            g = g * (pres[i] > 0)
        grads[f"w{i}"] = np.outer(acts[i], g)
        grads[f"b{i}"] = g
        g = g @ model.weights[i].T
    return grads


def dense_predict(model: DenseModel, system: ScenarioSet, x: np.ndarray):
    """Forecast phasors (complex [N]) or logits (real [N]) for any system,
    routing unknown buses to the flat profile / a confident 'clean' logit."""
    vec = _dense_input(model, system, x)
    out = _dense_forward(model, vec)
    n_slots = len(model.bus_slots)
    slot_index = {b: i for i, b in enumerate(model.bus_slots)}
    if model.task == FORECAST:
        per_slot = out[:n_slots] + 1j * out[n_slots:]
        result = np.full(system.n, 0.0 + 0.0j, dtype=np.complex128)
        for j, b in enumerate(system.graph.bus_ids):
            if b in slot_index:
                result[j] = per_slot[slot_index[b]]
        return result + CENTER if model.center else result
    logits = np.full(system.n, -10.0)
    for j, b in enumerate(system.graph.bus_ids):
        if b in slot_index:
            logits[j] = out[slot_index[b]]
    return logits


def train_dense(
    model: DenseModel,
    systems: list[ScenarioSet],
    cfg: TrainConfig,
) -> tuple[DenseModel, list]:
    """Train the baseline on its own (base-topology) systems."""
    model = model.copy()
    contexts = contexts_for(systems)
    splits = [_split_times(s, cfg) for s in systems]
    opt = Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    history = []
    slot_index = {b: i for i, b in enumerate(model.bus_slots)}

    def target_vec(system, t, attack_idx, ctx):
        if cfg.task == FORECAST:
            tgt = system.true_states[t + cfg.horizon]
            if model.center:
                tgt = tgt - CENTER
            n = len(model.bus_slots)
            out = np.zeros(2 * n)
            for j, b in enumerate(system.graph.bus_ids):
                if b in slot_index:
                    out[slot_index[b]] = tgt[j].real
                    out[slot_index[b] + n] = tgt[j].imag
            return out
        labels = np.zeros(len(model.bus_slots))
        if attack_idx is not None:
            att = system.attacks[attack_idx]
            for j, b in enumerate(system.graph.bus_ids):
                if b in slot_index:
                    labels[slot_index[b]] = att.labels[j]
        return labels

    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 103, epoch])
        grads: dict[str, np.ndarray] = {}
        loss_sum = 0.0
        draws = 0
        for q, ctx in enumerate(contexts):
            sys = ctx.system
            times = splits[q][0]
            for _ in range(cfg.windows_per_system):
                t = int(times[rng.integers(0, len(times))])
                attack_idx = _pick_attack(sys, rng, cfg.attack_prob) if cfg.task == FDI else None
                x = feature_window(sys.estimates, t, cfg.window)
                if attack_idx is not None:
                    x = x + sys.attacks[attack_idx].omega * ctx.attack_shift(attack_idx)[:, None]
                vec = _dense_input(model, sys, x)
                out, tape = _dense_forward(model, vec, record=True)
                tgt = target_vec(sys, t, attack_idx, ctx)
                if cfg.task == FORECAST:
                    d = out - tgt
                    loss = float(np.mean(d * d))
                    g = 2.0 * d / len(d)
                else:
                    loss, g = _loss_fdi_grad(out, tgt)
                loss_sum += loss
                draws += 1
                for name, arr in _dense_backward(model, tape, g).items():
                    grads[name] = grads[name] + arr if name in grads else arr
        for name in grads:
            grads[name] /= draws
        mean_loss = loss_sum / draws
        if not np.isfinite(mean_loss):
            raise DivergedLoss(epoch, model)
        opt.step(model.tensors(), grads)
        history.append((epoch, mean_loss, mean_loss))
    return model, history


# --------------------------------------------------------------------------
# Metrics and evaluation


@dataclass
class MetricsReport:
    model: str
    task: str
    horizons: dict = field(default_factory=dict)       # {H: mse}
    omegas: dict = field(default_factory=dict)         # {omega: {...rates}}
    per_system: list = field(default_factory=list)
    zeros_accuracy: float | None = None
    wall_clock_s: float = 0.0
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model, "task": self.task,
            "horizons": {str(k): v for k, v in self.horizons.items()},
            "omegas": {str(k): v for k, v in self.omegas.items()},
            "per_system": self.per_system,
            "zeros_accuracy": self.zeros_accuracy,
            "wall_clock_s": self.wall_clock_s,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        return cls(
            model=doc["model"], task=doc["task"],
            horizons={int(k): v for k, v in doc.get("horizons", {}).items()},
            omegas={float(k): v for k, v in doc.get("omegas", {}).items()},
            per_system=doc.get("per_system", []),
            zeros_accuracy=doc.get("zeros_accuracy"),
            wall_clock_s=doc.get("wall_clock_s", 0.0),
            config=doc.get("config", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def eval_forecast(
    predictor,
    systems: list[ScenarioSet],
    horizons=(0, 1, 2, 3, 4, 5),
    window: int = 10,
    stride: int = 4,
    model_name: str = "ugcn",
) -> MetricsReport:
    """Zero-shot per-horizon MSE over unseen systems; parameters are never touched."""
    start = time.time()
    contexts = contexts_for(systems)
    mse = {int(h): [] for h in horizons}
    per_system = []
    for ctx in contexts:
        system = ctx.system
        sys_entry = {"index": system.index, "n": system.n, "mse": {}}
        # The prediction depends on t alone, so each horizon reads the same
        # forward pass; the shortest horizon needs the most time steps.
        preds = {}
        for t in range(window - 1, system.t_total - min(horizons, default=0), stride):
            x = feature_window(system.estimates, t, window)
            if hasattr(predictor, "forecast"):
                preds[t] = predictor.forecast(ctx, x)
            else:
                preds[t] = dense_predict(predictor, system, x)
        for h in horizons:
            errs = []
            for t in range(window - 1, system.t_total - h, stride):
                pred = preds[t]
                target = system.true_states[t + h]
                d = pred - target
                errs.append(float(np.mean(d.real ** 2 + d.imag ** 2)))
            val = float(np.mean(errs))
            mse[int(h)].append(val)
            sys_entry["mse"][str(h)] = val
        per_system.append(sys_entry)
    report = MetricsReport(
        model=model_name,
        task=FORECAST,
        horizons={h: float(np.mean(v)) for h, v in mse.items()},
        per_system=per_system,
        wall_clock_s=time.time() - start,
        config={"stride": stride, "window": window, "n_systems": len(systems)},
    )
    return report


def _rates(tp, tn, fp, fn) -> dict:
    total = tp + tn + fp + fn
    acc = (tp + tn) / total if total else 0.0
    prec = tp / (tp + fp) if (tp + fp) else 0.0
    rec = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
    return {"accuracy": acc, "precision": prec, "recall": rec, "f1": f1,
            "tp": tp, "tn": tn, "fp": fp, "fn": fn}


def eval_fdi(
    predictor,
    systems: list[ScenarioSet],
    omegas=(0.1, 0.3, 0.5, 0.7, 0.9),
    threshold: float = 0.5,
    window: int = 10,
    stride: int = 24,
    max_attacks: int | None = None,
    model_name: str = "ugcn",
) -> MetricsReport:
    """Bus-level detection rates per attack magnitude on unseen systems.

    Every stored non-null attack pattern is replayed at each requested omega
    over strided windows; the all-zeros predictor's accuracy on the identical
    sample set is reported alongside.
    """
    start = time.time()
    contexts = contexts_for(systems)
    logit_cut = np.log(threshold / (1.0 - threshold))
    counts = {float(w): [0, 0, 0, 0] for w in omegas}   # tp, tn, fp, fn
    per_system = {}
    zeros_correct = 0
    total_labels = 0
    for ctx in contexts:
        system = ctx.system
        live = [i for i, a in enumerate(system.attacks) if not a.is_null]
        if max_attacks is not None:
            live = live[:max_attacks]
        sys_counts = {float(w): [0, 0, 0, 0] for w in omegas}
        times = list(range(window - 1, system.t_total, stride))
        for ai in live:
            attack = system.attacks[ai]
            shift = ctx.attack_shift(ai)
            labels = attack.labels.astype(bool)
            for w in omegas:
                for t in times:
                    x = feature_window(system.estimates, t, window) + float(w) * shift[:, None]
                    if hasattr(predictor, "logits"):
                        logits = predictor.logits(ctx, x)
                    else:
                        logits = dense_predict(predictor, system, x)
                    pred = logits > logit_cut
                    tp = int(np.sum(pred & labels))
                    tn = int(np.sum(~pred & ~labels))
                    fp = int(np.sum(pred & ~labels))
                    fn = int(np.sum(~pred & labels))
                    for acc in (counts[float(w)], sys_counts[float(w)]):
                        acc[0] += tp
                        acc[1] += tn
                        acc[2] += fp
                        acc[3] += fn
            zeros_correct += int(np.sum(~labels)) * len(times) * len(omegas)
            total_labels += labels.size * len(times) * len(omegas)
        per_system[str(system.index)] = {
            str(w): _rates(*sys_counts[float(w)]) for w in omegas
        }
    report = MetricsReport(
        model=model_name,
        task=FDI,
        omegas={float(w): _rates(*counts[float(w)]) for w in omegas},
        per_system=[{"index": k, "omegas": v} for k, v in per_system.items()],
        zeros_accuracy=(zeros_correct / total_labels) if total_labels else None,
        wall_clock_s=time.time() - start,
        config={"threshold": threshold, "stride": stride, "n_systems": len(systems)},
    )
    return report
