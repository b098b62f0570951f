"""Training across sampled systems, losses, metrics, and the dense baseline.

One parameter set is optimized over a family of reconfigured systems: each
epoch samples a batch of systems, averages their per-window losses, and takes
an Adam step on the shared tensors.  Evaluation is zero-shot: trained
parameters run unchanged on systems never seen in training.  The dense
baseline is the conventional fixed-input network trained on the base topology
only; other topologies are mapped onto its input slots by bus id.  Both
models implement the protocol of `Model`, so one loop trains them and the
same evaluators score them.
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


def _loss_fdi_grad(logits: np.ndarray, labels: np.ndarray):
    sig = 1.0 / (1.0 + np.exp(-logits))
    return loss_fdi(logits, labels), (sig - labels) / logits.shape[0]


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
# Train configuration


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


def check_series_lengths(systems: list[ScenarioSet], minimum: int, purpose: str) -> None:
    """Reject the first system whose series is shorter than `minimum` steps;
    `purpose` names what the steps are needed for."""
    for system in systems:
        if system.t_total < minimum:
            raise ConfigError(
                f"system {system.index} has t_total {system.t_total}, but at least "
                f"{minimum} steps are needed for {purpose}"
            )


def _split_times(system: ScenarioSet, cfg: TrainConfig):
    times = _usable_times(system, cfg)
    n_val = max(1, int(np.ceil(cfg.val_fraction * len(times))))
    return times[:-n_val], times[-n_val:]


# --------------------------------------------------------------------------
# Models


class Model:
    """What `train`, `eval_forecast` and `eval_fdi` need of a model.

    forward(ctx, x, record=False)
        A raw [N, window] estimate window of the system in `ctx` in, the
        centered per-bus output out: complex phasors for forecasting, real
        logits for FDI.  With `record`, (output, tape).
    backward(tape, g, into)
        Adds the window's parameter gradients for the output cogradient `g`
        to the GradientSum `into`.
    tensors()
        The learnable tensors by name; the optimizer updates them in place.
    copy(), finite()
        An independent copy; whether every tensor is finite.

    Centering is decided here: with `center` set, inputs and forecast
    targets are taken relative to the flat profile, and forecasts are
    shifted back before they are scored.
    """

    center: bool

    def centered(self, a: np.ndarray) -> np.ndarray:
        return a - CENTER if self.center else a

    def uncentered(self, y: np.ndarray) -> np.ndarray:
        return y + CENTER if self.center else y

    def finite(self) -> bool:
        return all(np.all(np.isfinite(np.asarray(t).view(np.float64)))
                   for t in self.tensors().values())


class UgcnPredictor(Model):
    """The graph network: one parameter set and its architecture, for any system."""

    def __init__(self, params: UgcnParams, model_cfg: LayerConfig, center: bool = True):
        self.params = params
        self.cfg = model_cfg
        self.center = center

    def forward(self, ctx: SystemContext, x: np.ndarray, record: bool = False):
        return model_forward(ctx.s, self.centered(x), self.params, self.cfg,
                             node_order=ctx.order, record=record)

    def backward(self, tape: dict, g: np.ndarray, into: GradientSum) -> None:
        model_backward(tape, g, into=into)

    def tensors(self) -> dict[str, np.ndarray]:
        return self.params.tensors()

    def copy(self) -> "UgcnPredictor":
        return UgcnPredictor(self.params.copy(), self.cfg, self.center)


@dataclass
class DenseModel(Model):
    """Fixed-input fully connected baseline bound to one base bus layout.

    Buses map to the input and output slots of the base layout by id.  A slot
    whose bus the system lacks reads the flat profile; a bus without a slot
    is predicted at the flat profile (forecast) or as confidently clean
    (FDI), and passes no gradient.
    """

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

    def _shared(self, ctx: SystemContext) -> np.ndarray:
        """[2, k]: positions of the buses the system shares with the base, and their slots."""
        slot_of = {b: i for i, b in enumerate(self.bus_slots)}
        pairs = [(j, slot_of[b]) for j, b in enumerate(ctx.system.graph.bus_ids) if b in slot_of]
        return np.array(pairs, dtype=int).reshape(-1, 2).T

    def forward(self, ctx: SystemContext, x: np.ndarray, record: bool = False):
        buses, slots = self._shared(ctx)
        n = len(self.bus_slots)
        grid = np.zeros((n, self.window), dtype=np.complex128)
        grid[slots] = self.centered(x)[buses]
        h = np.concatenate([grid.real.ravel(), grid.imag.ravel()])
        acts = []                                  # the input of each layer
        for w, b in zip(self.weights, self.biases):
            if acts:
                h = np.maximum(h, 0.0)
            acts.append(h)
            h = h @ w + b
        if self.task == FORECAST:
            y = np.zeros(ctx.system.n, dtype=np.complex128)
            y[buses] = h[slots] + 1j * h[n + slots]
        else:
            y = np.full(ctx.system.n, -10.0)
            y[buses] = h[slots]
        return (y, (acts, buses, slots)) if record else y

    def backward(self, tape, g: np.ndarray, into: GradientSum) -> None:
        acts, buses, slots = tape
        n = len(self.bus_slots)
        g_out = np.zeros(2 * n if self.task == FORECAST else n)
        g_out[slots] = g[buses].real
        if self.task == FORECAST:
            g_out[n + slots] = g[buses].imag
        grads, outer = {}, {}
        for i in range(len(self.weights) - 1, -1, -1):
            grads[f"b{i}"] = g_out
            outer[f"w{i}"] = (acts[i], g_out)      # w_i's gradient is their outer product
            if i:
                g_out = (g_out @ self.weights[i].T) * (acts[i] > 0)
        into.add(grads, outer)


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


# --------------------------------------------------------------------------
# Training loop


def _sample_loss_and_grads(
    model: Model,
    cfg: TrainConfig,
    ctx: SystemContext,
    t: int,
    attack_idx: int | None,
    accumulate: GradientSum | None,
):
    """Loss of one window; with `accumulate`, also adds its gradients there."""
    system = ctx.system
    if cfg.task == FORECAST:
        x, target = build_features(system, t, window=cfg.window, horizon=cfg.horizon)
        target = model.centered(target)
        loss, loss_grad = loss_forecast, _loss_forecast_grad
    else:
        if attack_idx is not None:
            x, target = build_features(
                system, t, window=cfg.window, attack=system.attacks[attack_idx],
                estimate_shift=ctx.attack_shift(attack_idx),
            )
        else:
            x = feature_window(system.estimates, t, cfg.window)
            target = np.zeros(system.n)
        loss, loss_grad = loss_fdi, _loss_fdi_grad
    if accumulate is None:
        return loss(model.forward(ctx, x), target)
    y, tape = model.forward(ctx, x, record=True)
    val, g = loss_grad(y, target)
    model.backward(tape, g, accumulate)
    return val


def _pick_attack(system: ScenarioSet, rng: np.random.Generator, prob: float):
    live = [i for i, a in enumerate(system.attacks) if not a.is_null]
    if not live or rng.random() > prob:
        return None
    return live[int(rng.integers(0, len(live)))]


def train(
    model: Model,
    systems: list[ScenarioSet],
    cfg: TrainConfig,
    optimizer: Adam | None = None,
    start_epoch: int = 0,
    history: list | None = None,
    best: dict | None = None,
    state_out: dict | None = None,
):
    """Optimize a model's shared tensors over the system family; returns
    (model, history), the model a copy holding the tensors of the epoch with
    the lowest validation loss.

    Deterministic in cfg.seed: epoch e always draws from the stream
    (seed, 101, e), so a resumed run continues exactly where it left off;
    pass state_out to capture the live model, optimizer, and early-stopping
    state for checkpointing.  Raises DivergedLoss (carrying the best finite
    model) on NaN/Inf.
    """
    if not systems:
        raise DimensionMismatch("need at least one training system")
    model = model.copy()
    contexts = contexts_for(systems)
    splits = [_split_times(s, cfg) for s in systems]
    opt = optimizer if optimizer is not None else Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    history = [] if history is None else list(history)
    best = dict(best) if best else {"val": float("inf"), "model": model.copy(), "bad": 0}

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
                sys_loss += _sample_loss_and_grads(model, cfg, ctx, t, attack_idx, sys_grads)
            scale = 1.0 / cfg.windows_per_system
            sys_loss *= scale
            for name, g in sys_grads.total().items():
                g = g * (scale / batch_size)
                grads[name] = grads[name] + g if name in grads else g
            batch_loss += sys_loss / batch_size
        if not np.isfinite(batch_loss):
            raise DivergedLoss(epoch, best["model"])
        opt.lr = cfg.lr * cfg.lr_decay ** epoch   # function of epoch: resume-safe
        opt.step(model.tensors(), grads)
        if not model.finite():
            raise DivergedLoss(epoch, best["model"])

        val_loss = _validation_loss(model, cfg, contexts, splits)
        history.append((epoch, batch_loss, val_loss))
        if val_loss < best["val"] - 1e-12:
            best.update(val=val_loss, model=model.copy(), bad=0)
        else:
            best["bad"] += 1
            if best["bad"] >= cfg.early_stop_patience:
                break
    if state_out is not None:
        state_out.update(last=model, best=best, epoch_next=epoch_next, optimizer=opt)
    return best["model"] if best["val"] < float("inf") else model, history


def train_dense(
    model: DenseModel,
    systems: list[ScenarioSet],
    cfg: TrainConfig,
) -> tuple[DenseModel, list]:
    """Train the baseline on its own (base-topology) systems.

    `ugcn train --model dense` enters here rather than at `train`, so a trace
    that wraps entry points by name (benchmarks/tracer.py) can time the two
    models apart.
    """
    return train(model, systems, cfg)


def _validation_loss(model: Model, cfg: TrainConfig, contexts, splits) -> float:
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
            total += _sample_loss_and_grads(model, cfg, ctx, int(t), attack_idx, None)
            count += 1
    return total / max(count, 1)


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
    predictor: Model,
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
            preds[t] = predictor.uncentered(predictor.forward(ctx, x))
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
    predictor: Model,
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
                    logits = predictor.forward(ctx, x)
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
