"""Training across sampled systems, losses, metrics, and the dense baseline.

One parameter set is optimized over a family of reconfigured systems: each
epoch samples a batch of systems, averages their per-window losses, and takes
an Adam step on the shared tensors.  The epoch's systems run through the
model as one batch, in one forward and one backward, and validation is one
forward over every system.

The Adam step is fused into backward.  Once the batch loss is known to be
finite, backward hands each tensor's gradient to the step as soon as the
gradient is final, and the tensor is updated at once, in chunks through two
chunk-sized buffers; a new best model is copied into the best arrays in
place.  A training run thus holds four parameter-sized sets (live, best and
Adam's two moments) and, beyond them, at most the gradients of the tensors
that backward has finished and not yet handed over: one layer's of the
dense baseline, the decoder's of the graph network.  The step makes no
whole gradient set, no tensor-sized Adam temporary and no fresh best copy,
which would otherwise set the peak memory of training the dense baseline.

Evaluation is zero-shot: trained parameters run unchanged on systems never
seen in training, one system (forecasting) or one attack (FDI) per forward.
The dense baseline is the conventional fixed-input network trained on the
base topology only; other topologies are mapped onto its input slots by bus
id.  Both models implement the protocol of `Model`, so one loop trains them
and the same evaluators score them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .caseio import decode_array, encode_array
from .errors import ConfigError, DimensionMismatch, DivergedLoss
from .grid import build_admittance, build_gso
from .model import LayerConfig, model_backward, model_forward
from .scenarios import WINDOW, ScenarioSet, build_features, feature_window
from .estimation import PmuOperator

FORECAST = "forecast"
FDI = "fdi"
CENTER = 1.0 + 0.0j   # estimates and states hover around the flat profile
VAL_FRACTION = 0.1    # trailing share of each series held out for validation


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
    """(loss, its gradient) for a [B, N] stack of windows, the loss their mean."""
    d = pred - target
    return float(np.mean(d.real ** 2 + d.imag ** 2)), (2.0 / d.size) * d


def loss_fdi(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy on sigmoid(logits), in the stable log-sum-exp form."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if logits.shape != labels.shape:
        raise DimensionMismatch(f"logits {logits.shape} vs labels {labels.shape}")
    return float(np.mean(np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))))


def _loss_fdi_grad(logits: np.ndarray, labels: np.ndarray):
    sig = 1.0 / (1.0 + np.exp(-logits))
    return loss_fdi(logits, labels), (sig - labels) / logits.size


# --------------------------------------------------------------------------
# Optimizer


class Adam:
    """Elementwise Adam over named tensors; complex tensors update via their
    interleaved float view, i.e. real and imaginary parts independently.

    One optimizer step is `begin(params)` and then `step(name, p, g)` once
    per tensor, in any order, so that backward can hand each gradient over
    as soon as it is final.  `step` works through a tensor CHUNK values at a
    time in two chunk-sized scratch buffers: no temporary is tensor-sized.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8
    CHUNK = 16384

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch = np.empty((2, self.CHUNK))

    @staticmethod
    def _view(a: np.ndarray) -> np.ndarray:
        return a.view(np.float64) if np.iscomplexobj(a) else a

    def begin(self, params: dict[str, np.ndarray]) -> None:
        """Open the next step; the first makes the moments of every tensor of
        `params`, in their order, which is the order the checkpoint keeps."""
        self.t += 1
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(self._view(p))
                self.v[name] = np.zeros_like(self._view(p))

    def step(self, name: str, p: np.ndarray, g: np.ndarray) -> None:
        """Update the C-contiguous tensor `p` of `name` in place with its
        gradient `g`, in the step that `begin` opened."""
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        p = self._view(p).reshape(-1)
        g = self._view(np.ascontiguousarray(g)).reshape(-1)
        m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
        for lo in range(0, len(p), self.CHUNK):
            hi = min(lo + self.CHUNK, len(p))
            s, den = self._scratch[:, : hi - lo]
            gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
            # p -= lr * (m / c1) / (sqrt(v / c2) + EPS), chunk by chunk
            np.multiply(gc, 1 - self.BETA1, out=s)
            mc *= self.BETA1
            mc += s
            np.multiply(gc, 1 - self.BETA2, out=s)
            s *= gc
            vc *= self.BETA2
            vc += s
            np.divide(vc, c2, out=den)
            np.sqrt(den, out=den)
            den += self.EPS
            np.divide(mc, c1, out=s)
            s *= self.lr
            s /= den
            p[lo:hi] -= s

    def state(self) -> dict:
        return {
            "t": self.t, "lr": self.lr,
            "m": {k: encode_array(a) for k, a in self.m.items()},
            "v": {k: encode_array(a) for k, a in self.v.items()},
        }

    @classmethod
    def from_state(cls, doc: dict) -> "Adam":
        """Older states also record the betas and eps, which are ignored."""
        opt = cls(lr=doc["lr"])
        opt.t = doc["t"]
        opt.m = {k: decode_array(a) for k, a in doc["m"].items()}
        opt.v = {k: decode_array(a) for k, a in doc["v"].items()}
        return opt


# --------------------------------------------------------------------------
# Per-system context


class SystemContext:
    """Precomputed shift operator, pooling order, live attacks and their footprints."""

    def __init__(self, system: ScenarioSet):
        self.system = system
        # Indices of the attacks that move a state; the rest are null records.
        self.live_attacks = tuple(i for i, a in enumerate(system.attacks) if not a.is_null)
        y = build_admittance(system.graph)
        self.s = build_gso(y)
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
    seed: int = 0
    attack_prob: float = 0.7
    early_stop_patience: int = 10
    window: ClassVar[int] = WINDOW     # the feature window is fixed, not a setting

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 < self.lr_decay < np.inf:
            raise ConfigError(f"lr_decay must be positive and finite, got {self.lr_decay}")
        if not 0 <= self.attack_prob <= 1:
            raise ConfigError(f"attack_prob must lie between 0 and 1, got {self.attack_prob}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.task not in (FORECAST, FDI):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.batch_systems < 1:
            raise ConfigError(f"batch_systems must be at least 1, got {self.batch_systems}")
        if self.windows_per_system < 1:
            raise ConfigError(
                f"windows_per_system must be at least 1, got {self.windows_per_system}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.horizon}")
        if self.early_stop_patience < 1:
            raise ConfigError(
                f"early_stop_patience must be at least 1, got {self.early_stop_patience}")

    @property
    def lead(self) -> int:
        """Steps between a window's newest estimate and its target."""
        return self.horizon if self.task == FORECAST else 0


def _usable_times(system: ScenarioSet, cfg: TrainConfig) -> np.ndarray:
    return np.arange(WINDOW - 1, system.t_total - cfg.lead)


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
    n_val = max(1, int(np.ceil(VAL_FRACTION * len(times))))
    return times[:-n_val], times[-n_val:]


# --------------------------------------------------------------------------
# Models


class Model:
    """What `train`, `eval_forecast` and `eval_fdi` need of a model.

    params
        The learnable tensors by name, shaped and ordered as the model's shape
        table gives (`model.param_shapes`, `dense_shapes`).  Gradients, the
        optimizer moments and the checkpoint check use the same names.  The
        optimizer updates them in place, so a model keeps nothing derived
        from them between calls.
    forward(batch, record=False)
        A batch of (ctx, x) pairs in, each x a [B, N, window] stack of raw
        estimate windows of the system in `ctx`; a list of the [B, N] centered
        per-bus outputs out, one per pair: complex phasors for forecasting,
        real logits for FDI.  With `record`, (outputs, tape).
    backward(tape, gs, take=None)
        The parameter gradients for the output cogradients `gs`, one [B, N]
        array per pair, summed over every window of the batch.  Each goes to
        `take(name, gradient)` as soon as it is final and backward reads its
        tensor no more, so `take` may update the tensor, and scale the
        gradient, in place.  Without `take`, the gradients by name.
    copy(), finite()
        A copy with its own tensors; whether every tensor is finite.

    Inputs and forecast targets are taken relative to the flat profile
    (`centered`), and forecasts are shifted back before they are scored
    (`uncentered`).
    """

    params: dict[str, np.ndarray]

    def centered(self, a: np.ndarray) -> np.ndarray:
        return a - CENTER

    def uncentered(self, y: np.ndarray) -> np.ndarray:
        return y + CENTER

    def copy(self) -> "Model":
        twin = copy.copy(self)
        twin.params = {name: t.copy() for name, t in self.params.items()}
        return twin

    def finite(self) -> bool:
        return all(np.all(np.isfinite(np.asarray(t).view(np.float64)))
                   for t in self.params.values())


class UgcnPredictor(Model):
    """The graph network: one parameter set and its architecture, for any system."""

    def __init__(self, params: dict[str, np.ndarray], model_cfg: LayerConfig):
        self.params = params
        self.cfg = model_cfg

    def forward(self, batch, record: bool = False):
        return model_forward([(ctx.s, self.centered(x), ctx.order) for ctx, x in batch],
                             self.params, self.cfg, record=record)

    def backward(self, tape: dict, gs, take=None):
        return model_backward(tape, gs, take)


@dataclass
class DenseModel(Model):
    """Fixed-input fully connected baseline bound to one base bus layout.

    Buses map to the input and output slots of the base layout by id.  A slot
    whose bus the system lacks reads the flat profile; a bus without a slot
    is predicted at the flat profile (forecast) or as confidently clean
    (FDI), and passes no gradient.  Layer i is `params["w{i}"]` and
    `params["b{i}"]`, shaped as `dense_shapes` gives.  A batch's windows run
    through the layers as one block of rows.
    """

    bus_slots: tuple[int, ...]
    params: dict[str, np.ndarray]
    task: str

    def _shared(self, ctx: SystemContext) -> np.ndarray:
        """[2, k]: positions of the buses the system shares with the base, and their slots."""
        slot_of = {b: i for i, b in enumerate(self.bus_slots)}
        pairs = [(j, slot_of[b]) for j, b in enumerate(ctx.system.graph.bus_ids) if b in slot_of]
        return np.array(pairs, dtype=int).reshape(-1, 2).T

    def forward(self, batch, record: bool = False):
        n = len(self.bus_slots)
        # per pair: its rows of the block, its shared buses and their slots
        spans, lo = [], 0
        for ctx, x in batch:
            spans.append((slice(lo, lo + len(x)), *self._shared(ctx)))
            lo += len(x)
        grid = np.zeros((lo, n, WINDOW), dtype=np.complex128)
        for (ctx, x), (rows, buses, slots) in zip(batch, spans):
            grid[rows, slots] = self.centered(x)[:, buses]
        h = np.concatenate([grid.real.reshape(lo, -1), grid.imag.reshape(lo, -1)], axis=1)
        acts = []                                  # the input of each layer
        for i in range(len(self.params) // 2):
            if acts:
                h = np.maximum(h, 0.0)
            acts.append(h)
            h = h @ self.params[f"w{i}"] + self.params[f"b{i}"]
        ys = []
        for (ctx, x), (rows, buses, slots) in zip(batch, spans):
            if self.task == FORECAST:
                y = np.zeros((len(x), ctx.system.n), dtype=np.complex128)
                y[:, buses] = h[rows, slots] + 1j * h[rows, n + slots]
            else:
                y = np.full((len(x), ctx.system.n), -10.0)
                y[:, buses] = h[rows, slots]
            ys.append(y)
        return (ys, (acts, spans)) if record else ys

    def backward(self, tape, gs, take=None):
        """Layer by layer from the top; a layer's tensors are handed over once
        the output gradient has passed through them."""
        if take is None:
            grads = {}
            self.backward(tape, gs, grads.__setitem__)
            return {name: grads[name] for name in self.params}
        acts, spans = tape
        n = len(self.bus_slots)
        g_out = np.zeros((len(acts[0]), 2 * n if self.task == FORECAST else n))
        for g, (rows, buses, slots) in zip(gs, spans):
            g_out[rows, slots] = g[:, buses].real
            if self.task == FORECAST:
                g_out[rows, n + slots] = g[:, buses].imag
        for i in range(len(acts) - 1, -1, -1):
            g_in = (g_out @ self.params[f"w{i}"].T) * (acts[i] > 0) if i else None
            take(f"w{i}", acts[i].T @ g_out)      # the windows' outer products, summed
            take(f"b{i}", g_out.sum(axis=0))
            g_out = g_in


def dense_shapes(n_slots: int, task: str, hidden: int, depth: int) -> dict[str, tuple[int, ...]]:
    """The shape of every dense tensor by name, layer by layer (w0, b0, w1, ...):
    from the 2 n_slots WINDOW inputs through `depth` hidden layers of width
    `hidden` to one output per slot, two (re, im) when forecasting."""
    dims = [2 * n_slots * WINDOW] + [hidden] * depth + [2 * n_slots if task == FORECAST else n_slots]
    shapes = {}
    for i in range(len(dims) - 1):
        shapes[f"w{i}"] = (dims[i], dims[i + 1])
        shapes[f"b{i}"] = (dims[i + 1],)
    return shapes


def init_dense(
    bus_slots: tuple[int, ...],
    task: str,
    hidden: int = 512,
    depth: int = 4,
    seed: int = 0,
) -> DenseModel:
    if hidden < 1:
        raise ConfigError(f"dense_hidden must be at least 1, got {hidden}")
    if depth < 0:
        raise ConfigError(f"dense_depth must be nonnegative, got {depth}")
    rng = np.random.default_rng([seed, 53])
    params = {name: rng.standard_normal(shape) / np.sqrt(shape[0]) if name[0] == "w"
              else np.zeros(shape)
              for name, shape in dense_shapes(len(bus_slots), task, hidden, depth).items()}
    return DenseModel(bus_slots=tuple(bus_slots), params=params, task=task)


# --------------------------------------------------------------------------
# Training loop


def _window_stack(model: Model, cfg: TrainConfig, ctx: SystemContext, picks):
    """The [B, N, window] inputs and [B, N] targets of one system's windows,
    picked as (t, attack index or None)."""
    system = ctx.system
    xs, targets = [], []
    for t, attack_idx in picks:
        if cfg.task == FORECAST:
            x, target = build_features(system, t, horizon=cfg.horizon)
        elif attack_idx is not None:
            x, target = build_features(
                system, t, attack=system.attacks[attack_idx],
                estimate_shift=ctx.attack_shift(attack_idx),
            )
        else:
            x, target = feature_window(system.estimates, t), np.zeros(system.n)
        xs.append(x)
        targets.append(target)
    target = np.stack(targets)
    return np.stack(xs), model.centered(target) if cfg.task == FORECAST else target


def _batch_losses(model: Model, cfg: TrainConfig, batch, record=False):
    """Each system's mean loss over its windows, for a batch of (ctx, picks)
    pairs run through the model in one forward; with `record`, (losses, tape,
    cogradients): `model.backward(tape, cogradients)` gives the sum over the
    systems of each mean loss's parameter gradients."""
    inputs, targets = [], []
    for ctx, picks in batch:
        x, target = _window_stack(model, cfg, ctx, picks)
        inputs.append((ctx, x))
        targets.append(target)
    if not record:
        loss = loss_forecast if cfg.task == FORECAST else loss_fdi
        return [loss(y, target) for y, target in zip(model.forward(inputs), targets)]
    loss_grad = _loss_forecast_grad if cfg.task == FORECAST else _loss_fdi_grad
    ys, tape = model.forward(inputs, record=True)
    del inputs                     # the tape keeps what backward needs of them
    losses, gs = zip(*[loss_grad(y, target) for y, target in zip(ys, targets)])
    return list(losses), tape, gs


def _pick_attack(live: tuple[int, ...], rng: np.random.Generator, prob: float):
    if not live or rng.random() > prob:
        return None
    return live[int(rng.integers(0, len(live)))]


@dataclass
class TrainState:
    """One training run: the live model and its optimizer, the best model so
    far with its validation loss and the epochs since that loss last fell,
    and the next epoch with the history rows (epoch, loss, val_loss) before it."""

    model: Model
    optimizer: Adam
    best: Model
    best_val: float = float("inf")
    bad: int = 0
    epoch: int = 0
    history: list = field(default_factory=list)

    @classmethod
    def start(cls, model: Model, cfg: TrainConfig) -> "TrainState":
        """A run from epoch 0 on a copy of `model`."""
        model = model.copy()
        return cls(model, Adam(cfg.lr), model.copy())

    def result(self) -> Model:
        """The model of the lowest validation loss, or the live one before any."""
        return self.best if self.best_val < float("inf") else self.model


def train(state: TrainState, systems: list[ScenarioSet], cfg: TrainConfig) -> TrainState:
    """Optimize the run's model over the system family from `state.epoch` on,
    updating `state` in place; returns it.

    Deterministic in cfg.seed: epoch e always draws from the stream
    (seed, 101, e), so a run continued from its saved record ends exactly
    where the uninterrupted run does.  A new best is copied into the arrays
    of `state.best`.  Raises DivergedLoss on NaN/Inf; the record then holds
    the epochs before it.
    """
    if not systems:
        raise DimensionMismatch("need at least one training system")
    contexts = contexts_for(systems)
    splits = [_split_times(s, cfg) for s in systems]
    model, opt = state.model, state.optimizer

    q_total = len(systems)
    batch_size = min(cfg.batch_systems, q_total)

    def update(name: str, g: np.ndarray) -> None:
        """Scale a gradient of the summed system losses to their mean and step its tensor."""
        g *= 1.0 / batch_size
        opt.step(name, model.params[name], g)

    for epoch in range(state.epoch, cfg.epochs):
        rng = np.random.default_rng([cfg.seed, 101, epoch])
        batch = []
        for q in rng.choice(q_total, size=batch_size, replace=False):
            ctx = contexts[q]
            train_times = splits[q][0]
            picks = []
            for _ in range(cfg.windows_per_system):
                t = int(train_times[rng.integers(0, len(train_times))])
                picks.append((t, _pick_attack(ctx.live_attacks, rng, cfg.attack_prob)
                                  if cfg.task == FDI else None))
            batch.append((ctx, picks))
        losses, tape, gs = _batch_losses(model, cfg, batch, record=True)
        batch_loss = sum(sys_loss / batch_size for sys_loss in losses)
        if not np.isfinite(batch_loss):
            raise DivergedLoss(epoch)
        opt.lr = cfg.lr * cfg.lr_decay ** epoch   # function of epoch: resume-safe
        opt.begin(model.params)
        model.backward(tape, gs, update)
        del tape, gs                   # not held through validation
        if not model.finite():
            raise DivergedLoss(epoch)

        val_loss = _validation_loss(model, cfg, contexts, splits)
        state.history.append((epoch, batch_loss, val_loss))
        state.epoch = epoch + 1
        if val_loss < state.best_val - 1e-12:
            for name, t in model.params.items():
                np.copyto(state.best.params[name], t)
            state.best_val, state.bad = val_loss, 0
        else:
            state.bad += 1
            if state.bad >= cfg.early_stop_patience:
                break
    return state


def train_dense(state: TrainState, systems: list[ScenarioSet], cfg: TrainConfig) -> TrainState:
    """Train the baseline on its own (base-topology) systems.

    `ugcn train --model dense` enters here rather than at `train`, so a trace
    that wraps entry points by name (benchmarks/tracer.py) can time the two
    models apart.
    """
    return train(state, systems, cfg)


def _validation_loss(model: Model, cfg: TrainConfig, contexts, splits) -> float:
    """Mean loss over up to 4 held-out windows per system, in one forward."""
    batch = []
    for q, ctx in enumerate(contexts):
        val_times = splits[q][1]
        times = val_times if len(val_times) <= 4 else val_times[:: max(1, len(val_times) // 4)][:4]
        live = ctx.live_attacks
        batch.append((ctx, [(int(t), live[int(t) % len(live)] if cfg.task == FDI and live
                             else None) for t in times]))
    losses = _batch_losses(model, cfg, batch)
    total = sum(loss * len(picks) for loss, (_, picks) in zip(losses, batch))
    return total / max(sum(len(picks) for _, picks in batch), 1)


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
    config: dict = field(default_factory=dict)
    # {name: {H or omega: mse or rates}} of the predictors that need no model
    baselines: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model, "task": self.task,
            "horizons": {str(k): v for k, v in self.horizons.items()},
            "omegas": {str(k): v for k, v in self.omegas.items()},
            "baselines": {name: {str(k): v for k, v in table.items()}
                          for name, table in self.baselines.items()},
            "per_system": self.per_system,
            "zeros_accuracy": self.zeros_accuracy,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        """Reports written before the baselines were added load without them;
        the `wall_clock_s` that older reports carry is dropped."""
        key = int if doc["task"] == FORECAST else float
        return cls(
            model=doc["model"], task=doc["task"],
            horizons={int(k): v for k, v in doc.get("horizons", {}).items()},
            omegas={float(k): v for k, v in doc.get("omegas", {}).items()},
            baselines={name: {key(k): v for k, v in table.items()}
                       for name, table in doc.get("baselines", {}).items()},
            per_system=doc.get("per_system", []),
            zeros_accuracy=doc.get("zeros_accuracy"),
            config=doc.get("config", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def _mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over windows of the per-window mean squared modulus error."""
    d = pred - target
    return float(np.mean(np.mean(d.real ** 2 + d.imag ** 2, axis=-1)))


def eval_forecast(
    predictor: Model,
    systems: list[ScenarioSet],
    horizons=(0, 1, 2, 3, 4, 5),
    stride: int = 4,
    model_name: str = "ugcn",
) -> MetricsReport:
    """Zero-shot per-horizon MSE over unseen systems; parameters are never touched.

    The same windows also score two predictors that need no model: the flat
    profile 1+0j and the latest estimate carried forward.
    """
    contexts = contexts_for(systems)
    mse = {int(h): [] for h in horizons}
    flat = {int(h): [] for h in horizons}
    carry = {int(h): [] for h in horizons}
    per_system = []
    for ctx in contexts:
        system = ctx.system
        sys_entry = {"index": system.index, "n": system.n, "mse": {}}
        # The prediction depends on t alone, so each horizon reads the same
        # forward pass; the shortest horizon needs the most time steps.
        times = np.arange(WINDOW - 1, system.t_total - min(horizons, default=0), stride)
        x = np.stack([feature_window(system.estimates, int(t)) for t in times])
        preds = predictor.uncentered(predictor.forward([(ctx, x)])[0])
        for h in horizons:
            kept = times[times < system.t_total - h]
            target = system.true_states[kept + h]
            val = _mse(preds[: len(kept)], target)
            mse[int(h)].append(val)
            flat[int(h)].append(_mse(CENTER, target))
            carry[int(h)].append(_mse(system.estimates[kept], target))
            sys_entry["mse"][str(h)] = val
        per_system.append(sys_entry)
    report = MetricsReport(
        model=model_name,
        task=FORECAST,
        horizons={h: float(np.mean(v)) for h, v in mse.items()},
        baselines={"flat": {h: float(np.mean(v)) for h, v in flat.items()},
                   "carry_forward": {h: float(np.mean(v)) for h, v in carry.items()}},
        per_system=per_system,
        config={"stride": stride, "window": WINDOW, "n_systems": len(systems)},
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


def _confusion(pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """[..., 4] counts (tp, tn, fp, fn) over the last two axes of the flags."""
    return np.stack([np.sum(pred & labels, axis=(-2, -1)), np.sum(~pred & ~labels, axis=(-2, -1)),
                     np.sum(pred & ~labels, axis=(-2, -1)), np.sum(~pred & labels, axis=(-2, -1))],
                    axis=-1)


def eval_fdi(
    predictor: Model,
    systems: list[ScenarioSet],
    omegas=(0.1, 0.3, 0.5, 0.7, 0.9),
    threshold: float = 0.5,
    stride: int = 24,
    max_attacks: int | None = None,
    model_name: str = "ugcn",
) -> MetricsReport:
    """Bus-level detection rates per attack magnitude on unseen systems.

    Every stored non-null attack pattern is replayed at each requested omega
    over strided windows, all of one attack in one forward pass.  Two
    predictors that need no model score the identical sample set: the
    all-zeros predictor (its accuracy) and the one that flags every sensor
    bus, which is where every attack lands (its rates, per omega).
    """
    contexts = contexts_for(systems)
    logit_cut = np.log(threshold / (1.0 - threshold))
    w_grid = np.array([float(w) for w in omegas])
    counts = np.zeros((len(omegas), 4), dtype=np.int64)     # tp, tn, fp, fn per omega
    sensor_counts = np.zeros(4, dtype=np.int64)
    per_system = {}
    zeros_correct = 0
    total_labels = 0
    for ctx in contexts:
        system = ctx.system
        live = ctx.live_attacks[:max_attacks]
        sys_counts = np.zeros((len(omegas), 4), dtype=np.int64)
        times = list(range(WINDOW - 1, system.t_total, stride))
        windows = np.stack([feature_window(system.estimates, t) for t in times])
        sensors = np.zeros(system.n, dtype=bool)
        sensors[[system.graph.pos(b) for b in system.pmu_buses]] = True
        for ai in live:
            shift = ctx.attack_shift(ai)
            labels = system.attacks[ai].labels.astype(bool)
            # [omega, t, N, window], omega-major as the counts are kept
            x = windows[None] + (w_grid[:, None] * shift[None, :])[:, None, :, None]
            logits = predictor.forward([(ctx, x.reshape(-1, *windows.shape[1:]))])[0]
            sys_counts += _confusion(logits.reshape(len(omegas), len(times), -1) > logit_cut,
                                     labels)
            sensor_counts += _confusion(sensors[None], labels[None]) * len(times)
            zeros_correct += int(np.sum(~labels)) * len(times) * len(omegas)
            total_labels += labels.size * len(times) * len(omegas)
        counts += sys_counts
        per_system[str(system.index)] = {
            str(w): _rates(*map(int, sys_counts[i])) for i, w in enumerate(omegas)
        }
    report = MetricsReport(
        model=model_name,
        task=FDI,
        omegas={float(w): _rates(*map(int, counts[i])) for i, w in enumerate(omegas)},
        baselines={"sensor_buses": {float(w): _rates(*map(int, sensor_counts))
                                    for w in omegas}},
        per_system=[{"index": k, "omegas": v} for k, v in per_system.items()],
        zeros_accuracy=(zeros_correct / total_labels) if total_labels else None,
        config={"threshold": threshold, "stride": stride, "n_systems": len(systems)},
    )
    return report
