"""Batch command line: dataset generation, training, evaluation, reporting.

Subcommands: gen, train, eval, report.  Every command is a pure function of
its configuration, inputs, and seed; reruns produce byte-identical outputs.
Configuration comes from one JSON document (--config), overridable with
--set key=value, with direct flags winning; UGCN_SEED is a last-resort seed.

Exit codes: 2 configuration error, bad input file or unwritable output,
3 generation failure, 4 diverged training loss, 5 shape-incompatible
checkpoint.  The directory of every output path is created before any work
starts, and every file is written to `<path>.tmp` and renamed into place.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import caseio
from .errors import (
    ConfigError,
    CorruptFile,
    DimensionMismatch,
    DivergedLoss,
    ExhaustedRetries,
    NoConvergence,
    OutsideSanityBand,
    SchemaVersionMismatch,
    UgcnError,
)
from .grid import DISTRIBUTION, TRANSMISSION
from .model import (
    CUSTOM,
    LayerConfig,
    fdi_config,
    forecast_config,
    init_params,
    param_shapes,
)
from .reconfig import AugmentConfig, _generate_one, op_to_dict
from .scenarios import (
    WINDOW,
    ScenarioConfig,
    ScenarioSet,
    build_scenario,
    scenario_from_payload,
    scenario_to_payload,
)
from .training import (
    Adam,
    DenseModel,
    MetricsReport,
    TrainConfig,
    TrainState,
    UgcnPredictor,
    check_series_lengths,
    dense_shapes,
    eval_fdi,
    eval_forecast,
    init_dense,
    train,
    train_dense,
)

GEN_DEFAULTS = {
    "task": "forecast",
    "case": "ieee33",
    "kind": "",                 # infer from the case file when empty
    "scenario": "ami",
    "q": 60,
    "t_total": 240,
    "seed": 0,
    "noise_sigma": 0.002,
    "ops_min": 5,
    "ops_max": 12,
    "node_min": 0,              # 0 = derive from the base size
    "node_max": 0,
    "attacks_per_system": 25,
    "demand_scale": 0.0,        # 0 = kind default (1.0 distribution, 0.55 transmission)
    "pmu_fraction": 0.0,        # 0 = kind default (0.2 distribution, 0.3 transmission)
    "out": "dataset",
}

TRAIN_DEFAULTS = {
    "task": "forecast",
    "model": "ugcn",
    "data": "dataset",
    "out": "model.ckpt.json",
    "resume": "",
    "seed": 0,
    "epochs": 280,
    "batch_systems": 16,
    "windows_per_system": 8,
    "lr": 2e-3,
    "lr_decay": 0.99,
    "horizon": 1,
    "attack_prob": 0.7,
    "early_stop_patience": 100,
    "layers": 0,                # 0 = task default
    "k_spatial": 3,
    "k_temporal": 2,
    "widths": [],               # [] = task default
    "pooled_nodes": 12,
    "hidden": 256,
    "pooling": "",              # "" = task default
    "dense_hidden": 512,
    "dense_depth": 4,
}

EVAL_DEFAULTS = {
    "checkpoint": "model.ckpt.json",
    "data": "dataset",
    "out": "report.json",
    "csv": "",
    "horizons": [0, 1, 2, 3, 4, 5],
    "omegas": [0.1, 0.3, 0.5, 0.7, 0.9],
    "stride": 4,
    "fdi_stride": 24,
    "threshold": 0.5,
    "max_attacks": 10,
    "model": "",                # checked against the checkpoint when set
}

REPORT_DEFAULTS = {
    "out": "",
    "csv": "",
}


# --------------------------------------------------------------------------
# Config plumbing


def _coerce(key: str, value, template):
    if isinstance(template, int):
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from exc
    if isinstance(template, float):
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from exc
    if isinstance(template, list):
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"key {key!r}: expected a JSON list, got {value!r}") from exc
        if not isinstance(value, list):
            raise ConfigError(f"key {key!r}: expected a list, got {value!r}")
        return value
    return str(value)


def build_config(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < UGCN_SEED < --config file < --set pairs < explicit flags."""
    cfg = dict(defaults)
    if "seed" in cfg and os.environ.get("UGCN_SEED"):
        cfg["seed"] = _coerce("seed", os.environ["UGCN_SEED"], 0)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in doc.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value, defaults[key])
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value, defaults[key])
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = _coerce(key, value, defaults[key])
    return cfg


# --------------------------------------------------------------------------
# Checkpoint codecs


def params_to_payload(params: dict) -> dict:
    """The on-disk layout: the conv taps as a list, `assign` (None under custom
    pooling) and the decoder tensors by name."""
    return {
        "conv": [caseio.encode_array(t) for name, t in params.items() if name.startswith("conv.")],
        "assign": caseio.encode_array(params["assign"]) if "assign" in params else None,
        "head": {name: caseio.encode_array(t) for name, t in params.items()
                 if not name.startswith("conv.") and name != "assign"},
    }


def payload_to_params(doc: dict) -> dict:
    params = {f"conv.{l}": caseio.decode_array(t) for l, t in enumerate(doc["conv"])}
    if doc["assign"] is not None:
        params["assign"] = caseio.decode_array(doc["assign"])
    params.update((name, caseio.decode_array(a)) for name, a in doc["head"].items())
    return params


def dense_to_payload(model: DenseModel) -> dict:
    return {
        "bus_slots": list(model.bus_slots),
        "weights": [caseio.encode_array(t) for name, t in model.params.items() if name[0] == "w"],
        "biases": [caseio.encode_array(t) for name, t in model.params.items() if name[0] == "b"],
        "task": model.task,
    }


def payload_to_dense(doc: dict) -> DenseModel:
    """Older payloads also record `window`, which is ignored, and `center`,
    which `_read_checkpoint` has checked."""
    params = {f"{prefix}{i}": caseio.decode_array(t)
              for prefix, key in (("w", "weights"), ("b", "biases"))
              for i, t in enumerate(doc[key])}
    return DenseModel(bus_slots=tuple(doc["bus_slots"]), params=params, task=doc["task"])


def _read_checkpoint(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint {path!r} does not exist")
    ck = caseio.load_checkpoint(path)
    # Older checkpoints record whether inputs were centered; models now always are.
    for section in ("train_config", "dense"):
        if not ck.get(section, {}).get("center", True):
            raise ConfigError(
                f"checkpoint {path!r} was trained on uncentered inputs, "
                "which are no longer supported; retrain it"
            )
    return ck


def _checkpoint_layers(path: str, ck: dict) -> LayerConfig:
    if "layer_config" not in ck:
        raise ConfigError(f"checkpoint {path!r} has no layer_config")
    try:
        return LayerConfig.from_dict(ck["layer_config"])
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path!r}: layer_config: {exc}") from exc


def _checked(path: str, tensors: dict, shapes: dict, source: str) -> dict:
    """The tensors of a checkpoint, each shaped as `shapes` gives by name and
    in its order; `source` names where the shapes come from.

    The models read their sizes from the tensors, so a tensor that disagrees
    with the configuration would otherwise be ignored, or fail mid-run.
    """
    for name in sorted(shapes.keys() | tensors.keys()):
        got = tensors[name].shape if name in tensors else "absent"
        if shapes.get(name, "absent") != got:
            raise ConfigError(
                f"checkpoint {path!r}: tensor {name!r} is {got} in the file but "
                f"{shapes.get(name, 'absent')} by its {source}")
    return {name: tensors[name] for name in shapes}


def _checkpoint_params(path: str, mcfg: LayerConfig, doc: dict) -> dict:
    """Parameters of a checkpoint, checked against `param_shapes` of its layer config."""
    try:
        params = payload_to_params(doc)
    except (KeyError, TypeError, CorruptFile) as exc:
        raise ConfigError(f"checkpoint {path!r}: unreadable parameters: {exc}") from exc
    return _checked(path, params, param_shapes(mcfg), "layer_config")


def _checkpoint_dense(path: str, ck: dict) -> DenseModel:
    """The dense baseline of a checkpoint, checked against `dense_shapes` of its
    task, `bus_slots` and the `dense_hidden` and `dense_depth` it was trained with."""
    try:
        model = payload_to_dense(ck["dense"])
        hidden, depth = ck["train_config"]["dense_hidden"], ck["train_config"]["dense_depth"]
    except (KeyError, TypeError, CorruptFile) as exc:
        raise ConfigError(f"checkpoint {path!r}: unreadable dense model: {exc}") from exc
    if model.task != ck["task"]:
        raise ConfigError(
            f"checkpoint {path!r}: dense model of task {model.task!r} in a {ck['task']!r} checkpoint")
    n = len(model.bus_slots)
    model.params = _checked(path, model.params, dense_shapes(n, model.task, hidden, depth),
                            f"{n} bus_slots, dense_hidden {hidden} and dense_depth {depth}")
    return model


def _make_out_dirs(*paths: str) -> None:
    """Create the directory of each output path, so a path that cannot be
    written fails before the work rather than after it."""
    for path in paths:
        if path and os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)


# --------------------------------------------------------------------------
# gen


def _augment_config(base_n: int, kind: str, cfg: dict) -> AugmentConfig:
    node_min = cfg["node_min"] or (base_n if kind == TRANSMISSION else max(2, round(base_n * 2 / 3)))
    node_max = cfg["node_max"] or (base_n if kind == TRANSMISSION else round(base_n * 1.15))
    ops = (cfg["ops_min"], cfg["ops_max"]) if kind == DISTRIBUTION else (1, 4)
    return AugmentConfig(
        q_count=cfg["q"], seed=cfg["seed"], ops_range=ops, node_bounds=(node_min, node_max)
    )


def _scenario_config(kind: str, cfg: dict) -> ScenarioConfig:
    return ScenarioConfig(
        t_total=cfg["t_total"],
        scenario=cfg["scenario"],
        noise_sigma=cfg["noise_sigma"],
        pmu_fraction=cfg["pmu_fraction"] or (0.3 if kind == TRANSMISSION else 0.2),
        demand_scale=cfg["demand_scale"] or (0.55 if kind == TRANSMISSION else 1.0),
        attacks_per_system=cfg["attacks_per_system"] if cfg["task"] == "fdi" else 0,
        seed=cfg["seed"],
    )


def _gen_one_system(case_name: str, kind: str, cfg: dict, index: int) -> dict:
    """Worker: augment variant `index` and build its scenario payload."""
    case = caseio.load_case(case_name)
    base = caseio.to_grid_graph(case, kind=kind)
    member = _generate_one(base, _augment_config(base.n, kind, cfg), index)
    scenario = build_scenario(
        member.graph,
        _scenario_config(kind, cfg),
        index,
        case.loads_pu(),
        task=cfg["task"],
        op_log=tuple(op_to_dict(op) for op in member.ops),
    )
    return scenario_to_payload(scenario)


def _gen_or_failure(case_name: str, kind: str, cfg: dict, index: int) -> dict | str:
    """Worker: system `index`'s payload, or a line naming the system and why it failed."""
    try:
        return _gen_one_system(case_name, kind, cfg, index)
    except (NoConvergence, ExhaustedRetries, OutsideSanityBand) as exc:
        text = str(exc)
        return text if text.startswith(f"system {index} ") else f"system {index}: {text}"


def cmd_gen(args) -> int:
    cfg = build_config(GEN_DEFAULTS, args)
    if cfg["task"] not in ("forecast", "fdi"):
        raise ConfigError(f"unknown task {cfg['task']!r}")
    if cfg["q"] < 1:
        raise ConfigError(f"q must be at least 1, got {cfg['q']}")
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    case = caseio.load_case(cfg["case"])
    for warning in case.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    kind = cfg["kind"] or case.kind or DISTRIBUTION
    try:
        base = caseio.to_grid_graph(case, kind=kind)
    except UgcnError as exc:
        raise ConfigError(f"case {cfg['case']!r} does not make a {kind} graph: {exc}") from exc
    # refuse bad augment and scenario numbers before any output exists
    _augment_config(base.n, kind, cfg)
    _scenario_config(kind, cfg)
    os.makedirs(cfg["out"], exist_ok=True)

    # The pool starts all its workers at once, so never more than can be busy.
    jobs = min(jobs, cfg["q"], os.cpu_count() or 1)
    indices = list(range(cfg["q"]))
    if jobs == 1:
        results = [_gen_or_failure(cfg["case"], kind, cfg, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_gen_or_failure, [cfg["case"]] * len(indices),
                         [kind] * len(indices), [cfg] * len(indices), indices)
            )

    echo = {k: v for k, v in cfg.items() if k != "out"}   # path-free: reruns stay byte-identical
    node_counts = []
    written = set()
    failed = []
    for i, result in enumerate(results):
        if isinstance(result, str):
            failed.append(i)
            continue
        path = os.path.join(cfg["out"], f"system_{i:03d}.ugcn.json")
        caseio.save_dataset(path, {"task": cfg["task"], "config": echo, "system": result})
        written.add(path)
        node_counts.append(len(result["graph"]["bus_ids"]))
    manifest = {
        "task": cfg["task"], "config": cfg, "kind": kind,
        "systems": len(written), "node_counts": node_counts, "failed": failed,
    }
    with caseio.atomic_write(os.path.join(cfg["out"], "manifest.json"), encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    # train and eval load every system file in the directory: drop those of an earlier run.
    for path in glob.glob(os.path.join(cfg["out"], "system_*.ugcn.json")):
        if path not in written:
            os.remove(path)

    counts = {}
    for n in node_counts:
        counts[n] = counts.get(n, 0) + 1
    print(f"wrote {len(written)} systems to {cfg['out']} (task={cfg['task']}, kind={kind})")
    print("node-count histogram:")
    for n in sorted(counts):
        print(f"  {n:4d} buses: {'#' * counts[n]} ({counts[n]})")
    for i in failed:
        print(f"generation failed: {results[i]}", file=sys.stderr)
    return 3 if failed else 0


# --------------------------------------------------------------------------
# train


def load_dataset_dir(path: str) -> tuple[list[ScenarioSet], dict]:
    files = sorted(glob.glob(os.path.join(path, "system_*.ugcn.json")))
    if not files:
        raise ConfigError(f"no dataset files found under {path!r}")
    systems = []
    meta = {}
    for f in files:
        payload = caseio.load_dataset(f)
        if systems and payload.get("task") != meta["task"]:
            raise ConfigError(
                f"dataset {path!r} mixes tasks: {os.path.basename(files[0])} holds "
                f"{meta['task']!r}, {os.path.basename(f)} holds {payload.get('task')!r}"
            )
        try:
            systems.append(scenario_from_payload(payload["system"]))
        except CorruptFile as exc:
            raise CorruptFile(f"{f}: {exc}") from exc
        meta = {"task": payload.get("task"), "config": payload.get("config", {})}
    return systems, meta


def _layer_config(cfg: dict) -> LayerConfig:
    task = cfg["task"]
    base = forecast_config() if task == "forecast" else fdi_config()
    layers = cfg["layers"] or base.layers
    widths = tuple(cfg["widths"]) if cfg["widths"] else None
    if widths is None:
        top = 48 if task == "forecast" else 32
        widths = (WINDOW,) + (top,) * layers
    elif widths[0] != WINDOW:
        raise ConfigError(
            f"widths[0] must equal the feature window of {WINDOW} steps, got {widths[0]}"
        )
    k_temporal = cfg["k_temporal"] if task == "forecast" else 0
    # the first layer reads lags up to layers * k_temporal; past the window
    # they would read only zero padding
    if layers * k_temporal >= WINDOW:
        raise ConfigError(
            f"layers * k_temporal must stay below the feature window of {WINDOW} steps, "
            f"got {layers} * {k_temporal}"
        )
    return LayerConfig(
        layers=layers,
        k_spatial=cfg["k_spatial"],
        k_temporal=k_temporal,
        widths=widths,
        pooled_nodes=cfg["pooled_nodes"],
        hidden=cfg["hidden"],
        pooling=cfg["pooling"] or base.pooling,
        outputs=base.outputs,
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        task=cfg["task"], horizon=cfg["horizon"], epochs=cfg["epochs"],
        batch_systems=cfg["batch_systems"], windows_per_system=cfg["windows_per_system"],
        lr=cfg["lr"], lr_decay=cfg["lr_decay"], seed=cfg["seed"],
        attack_prob=cfg["attack_prob"], early_stop_patience=cfg["early_stop_patience"],
    )


def _read_resume(path: str) -> TrainState:
    """The run record that a checkpoint's `resume_state` continues."""
    ck = _read_checkpoint(path)
    if "resume_state" not in ck:
        raise ConfigError(f"checkpoint {path!r} has no resume state to continue from")
    resume = ck["resume_state"]
    mcfg = _checkpoint_layers(path, ck)
    model = UgcnPredictor(_checkpoint_params(path, mcfg, resume["last_params"]), mcfg)
    try:
        optimizer = Adam.from_state(resume["optimizer"])
    except (KeyError, TypeError, CorruptFile) as exc:
        raise ConfigError(f"checkpoint {path!r}: unreadable optimizer state: {exc}") from exc
    views = {name: Adam._view(t).shape for name, t in model.params.items()}
    for key in ("m", "v"):
        _checked(path, getattr(optimizer, key), views, f"parameters (optimizer moment {key})")
    # the best parameters are the top-level ones; older checkpoints also
    # carry a copy in resume_state.best.params, which is ignored
    return TrainState(
        model, optimizer, UgcnPredictor(_checkpoint_params(path, mcfg, ck["params"]), mcfg),
        best_val=resume["best"]["val"], bad=resume["best"]["bad"],
        epoch=resume["epoch_next"], history=[tuple(r) for r in ck["history"]],
    )


def _check_pooling(mcfg: LayerConfig, systems: list[ScenarioSet]) -> None:
    """Refuse clustered pooling into more clusters than the smallest system has buses."""
    smallest = min(systems, key=lambda s: s.n)
    if mcfg.pooling == CUSTOM and smallest.n < mcfg.pooled_nodes:
        raise ConfigError(
            f"pooled_nodes {mcfg.pooled_nodes} is more than the {smallest.n} buses "
            f"of system {smallest.index}, the smallest"
        )


def _ugcn_tensors(model: UgcnPredictor) -> dict:
    return {"layer_config": model.cfg.to_dict(), "params": params_to_payload(model.params)}


def cmd_train(args) -> int:
    cfg = build_config(TRAIN_DEFAULTS, args)
    if cfg["task"] not in ("forecast", "fdi"):
        raise ConfigError(f"unknown task {cfg['task']!r}")
    if cfg["model"] not in ("ugcn", "dense"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    if cfg["model"] == "dense" and cfg["resume"]:
        raise ConfigError("--resume continues ugcn training only; "
                          "the dense baseline trains from scratch")
    _make_out_dirs(cfg["out"])
    systems, meta = load_dataset_dir(cfg["data"])
    if meta.get("task") and meta["task"] != cfg["task"]:
        raise ConfigError(
            f"dataset was generated for task {meta['task']!r}, requested {cfg['task']!r}"
        )
    tcfg = _train_config(cfg)
    check_series_lengths(
        systems, WINDOW + tcfg.lead + 1,
        f"one training and one validation window of {WINDOW} steps with lead {tcfg.lead}",
    )
    echo = {k: v for k, v in cfg.items() if k not in ("out", "data", "resume")}
    head = {"model": cfg["model"], "task": cfg["task"], "train_config": echo}

    if cfg["model"] == "dense":
        state = TrainState.start(init_dense(
            systems[0].graph.bus_ids, task=cfg["task"], seed=cfg["seed"],
            hidden=cfg["dense_hidden"], depth=cfg["dense_depth"],
        ), tcfg)
        run, systems = train_dense, systems[:1]
    else:
        mcfg = _layer_config(cfg)      # checked on --resume too, which takes the checkpoint's
        state = (_read_resume(cfg["resume"]) if cfg["resume"] else
                 TrainState.start(UgcnPredictor(init_params(mcfg, seed=cfg["seed"]), mcfg), tcfg))
        _check_pooling(state.model.cfg, systems)
        run = train
    try:
        run(state, systems, tcfg)
    except DivergedLoss as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if cfg["model"] == "ugcn":
            caseio.save_checkpoint(cfg["out"], {**head, **_ugcn_tensors(state.best),
                                                "history": state.history,
                                                "diverged_at": exc.epoch})
        return 4

    if cfg["model"] == "dense":
        payload = {**head, "dense": dense_to_payload(state.result())}
    else:
        payload = {**head, **_ugcn_tensors(state.result()), "resume_state": {
            "last_params": params_to_payload(state.model.params),
            "optimizer": state.optimizer.state(),
            "epoch_next": state.epoch,
            "best": {"val": state.best_val, "bad": state.bad},
        }}
    caseio.save_checkpoint(cfg["out"], {**payload, "history": state.history})
    hist_path = os.path.splitext(cfg["out"])[0] + ".history.csv"
    with caseio.atomic_write(hist_path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "val_loss"])
        for row in state.history:
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2]))])
    print(f"checkpoint: {cfg['out']}  history: {hist_path}  epochs: {len(state.history)}")
    return 0


# --------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = build_config(EVAL_DEFAULTS, args)
    for key in ("stride", "fdi_stride"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    for key in ("horizons", "omegas"):
        if not cfg[key]:
            raise ConfigError(f"{key} must not be empty")
    if not all(type(h) is int and h >= 0 for h in cfg["horizons"]):
        raise ConfigError(f"horizons must be nonnegative integers, got {cfg['horizons']}")
    if not all(type(w) in (int, float) and math.isfinite(w) for w in cfg["omegas"]):
        raise ConfigError(f"omegas must be finite numbers, got {cfg['omegas']}")
    if not 0 < cfg["threshold"] < 1:
        raise ConfigError(f"threshold must lie strictly between 0 and 1, got {cfg['threshold']}")
    if cfg["max_attacks"] < 0:
        raise ConfigError(
            f"max_attacks must be nonnegative (0 replays every attack), got {cfg['max_attacks']}")
    _make_out_dirs(cfg["out"], cfg["csv"])
    ck = _read_checkpoint(cfg["checkpoint"])
    if cfg["model"] and cfg["model"] != ck["model"]:
        raise ConfigError(
            f"checkpoint holds a {ck['model']!r} model, --model says {cfg['model']!r}"
        )
    systems, meta = load_dataset_dir(cfg["data"])
    task = ck["task"]
    if meta.get("task") and meta["task"] != task:
        raise ConfigError(
            f"dataset was generated for task {meta['task']!r}, "
            f"the checkpoint holds a {task!r} model"
        )
    if task == "forecast":
        horizon = max(cfg["horizons"], default=0)
        check_series_lengths(systems, WINDOW + horizon,
                             f"a window of {WINDOW} steps and horizon {horizon}")
    else:
        check_series_lengths(systems, WINDOW, f"a window of {WINDOW} steps")
    if ck["model"] == "ugcn":
        mcfg = _checkpoint_layers(cfg["checkpoint"], ck)
        predictor = UgcnPredictor(_checkpoint_params(cfg["checkpoint"], mcfg, ck["params"]), mcfg)
    else:
        predictor = _checkpoint_dense(cfg["checkpoint"], ck)
    try:
        if task == "forecast":
            report = eval_forecast(
                predictor, systems, horizons=tuple(cfg["horizons"]),
                stride=cfg["stride"], model_name=ck["model"],
            )
        else:
            report = eval_fdi(
                predictor, systems, omegas=tuple(cfg["omegas"]),
                threshold=cfg["threshold"], stride=cfg["fdi_stride"],
                max_attacks=cfg["max_attacks"] or None, model_name=ck["model"],
            )
    except DimensionMismatch as exc:
        print(f"checkpoint incompatible with dataset: {exc}", file=sys.stderr)
        return 5
    if task == "forecast" and "horizon" in ck.get("train_config", {}):
        report.config["trained_horizon"] = ck["train_config"]["horizon"]
    with caseio.atomic_write(cfg["out"], encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if cfg["csv"]:
        _write_report_csv(cfg["csv"], [report])
    print(f"report: {cfg['out']}" + (f"  csv: {cfg['csv']}" if cfg["csv"] else ""))
    for line in _report_lines(report):
        print(line)
    return 0


def _report_lines(report: MetricsReport) -> list[str]:
    """The model's lines, then those of each baseline the report carries."""
    tables = [(report.model, report.horizons if report.task == "forecast" else report.omegas)]
    tables += [(f"baseline {name}", table) for name, table in sorted(report.baselines.items())]
    lines = []
    if "trained_horizon" in report.config:
        lines.append(f"  {report.model} trained at H={report.config['trained_horizon']}")
    for label, table in tables:
        for key in sorted(table):
            if report.task == "forecast":
                lines.append(f"  {label} H={key}: mse {table[key]:.6e}")
            else:
                r = table[key]
                lines.append(
                    f"  {label} omega={key}: acc {r['accuracy']:.4f} "
                    f"prec {r['precision']:.4f} rec {r['recall']:.4f} f1 {r['f1']:.4f}"
                )
    if report.zeros_accuracy is not None:
        lines.append(f"  all-zeros predictor accuracy: {report.zeros_accuracy:.4f}")
    return lines


def _write_report_csv(path: str, reports: list[MetricsReport]) -> None:
    tasks = {r.task for r in reports}
    if len(tasks) > 1:
        raise ConfigError(f"cannot mix tasks in one CSV: {sorted(tasks)}")
    with caseio.atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if tasks == {"forecast"}:
            writer.writerow(["model", "horizon", "mse"])
            for r in reports:
                for h in sorted(r.horizons):
                    writer.writerow([r.model, h, repr(float(r.horizons[h]))])
        else:
            writer.writerow(["model", "omega", "accuracy", "precision", "recall", "f1"])
            for r in reports:
                for w in sorted(r.omegas):
                    m = r.omegas[w]
                    writer.writerow([
                        r.model, w, repr(m["accuracy"]), repr(m["precision"]),
                        repr(m["recall"]), repr(m["f1"]),
                    ])


# --------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    cfg = build_config(REPORT_DEFAULTS, args)
    _make_out_dirs(cfg["out"], cfg["csv"])
    reports, lines = [], []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(MetricsReport.from_dict(json.load(fh)))
            lines.extend(_report_lines(reports[-1]))
        except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
            # JSON of another shape fails in `from_dict`, or in `_report_lines` at its values
            print(f"not a metrics report: {path} ({exc})", file=sys.stderr)
            return 2
    configs = {json.dumps(r.config, sort_keys=True) for r in reports}
    if len(configs) > 1:
        print("warning: reports carry differing config echoes; merging anyway",
              file=sys.stderr)
    table = "\n".join(lines)
    print(table)
    if cfg["out"]:
        with caseio.atomic_write(cfg["out"], encoding="utf-8") as fh:
            fh.write(table + "\n")
    if cfg["csv"]:
        _write_report_csv(cfg["csv"], reports)
    return 0


# --------------------------------------------------------------------------
# entry point


def _keys_doc(defaults: dict) -> str:
    return "Config keys (and defaults): " + "; ".join(
        f"{k}={defaults[k]!r}" for k in sorted(defaults)
    ) + ". Seed precedence: flag > --set > --config > UGCN_SEED > default."


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugcn",
        description="Topology-transferable graph learning for power grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("gen", help="generate reconfigured systems and scenarios",
                       description=_keys_doc(GEN_DEFAULTS))
    common(p)
    p.add_argument("--task", choices=["forecast", "fdi"])
    p.add_argument("--case", help="builtin case name or path (default ieee33)")
    p.add_argument("--q", type=int, help="number of systems")
    p.add_argument("--seed", type=int)
    p.add_argument("--t-total", dest="t_total", type=int)
    p.add_argument("--scenario", choices=["ami", "pmu"])
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers for generation, capped at q and the CPU count "
                        "(default 1)")

    p = sub.add_parser("train", help="train a model on a dataset directory",
                       description=_keys_doc(TRAIN_DEFAULTS))
    common(p)
    p.add_argument("--task", choices=["forecast", "fdi"])
    p.add_argument("--model", choices=["ugcn", "dense"])
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")

    p = sub.add_parser("eval", help="zero-shot evaluation of a checkpoint",
                       description=_keys_doc(EVAL_DEFAULTS)
                       + " CSV columns: model,horizon,mse (forecast) or "
                       "model,omega,accuracy,precision,recall,f1 (fdi).")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--model", choices=["ugcn", "dense"])

    p = sub.add_parser("report", help="merge metrics reports into one table",
                       description=_keys_doc(REPORT_DEFAULTS))
    common(p)
    p.add_argument("reports", nargs="+", help="MetricsReport JSON files")
    p.add_argument("--out")
    p.add_argument("--csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "report":
            return cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CorruptFile, SchemaVersionMismatch) as exc:
        print(f"bad input file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except UgcnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
