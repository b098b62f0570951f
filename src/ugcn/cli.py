"""Batch command line: dataset generation, training, evaluation, reporting.

Subcommands: gen, train, eval, report.  Every command is a pure function of
its configuration, inputs, and seed; reruns produce byte-identical outputs.
Configuration comes from one JSON document (--config), overridable with
--set key=value, with direct flags winning; UGCN_SEED is a last-resort seed.

Exit codes: 2 configuration error, 3 generation failure, 4 diverged training
loss, 5 shape-incompatible checkpoint.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

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
from .model import LayerConfig, UgcnParams, fdi_config, forecast_config, init_params
from .reconfig import AugmentConfig, _generate_one, op_to_dict
from .scenarios import (
    WINDOW,
    ScenarioConfig,
    ScenarioSet,
    scenario_from_payload,
    scenario_to_payload,
)
from .training import (
    Adam,
    DenseModel,
    MetricsReport,
    TrainConfig,
    UgcnPredictor,
    check_series_lengths,
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
    "center": True,
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
    if isinstance(template, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("1", "true", "yes"):
            return True
        if str(value).lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")
    if isinstance(template, int) and not isinstance(template, bool):
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


def build_config(defaults: dict, args: argparse.Namespace, flag_keys: dict) -> dict:
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
    for flag, key in flag_keys.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = _coerce(key, value, defaults[key])
    return cfg


# --------------------------------------------------------------------------
# Checkpoint codecs


def params_to_payload(params: UgcnParams) -> dict:
    return {
        "conv": [caseio.encode_array(t) for t in params.conv],
        "assign": None if params.assign is None else caseio.encode_array(params.assign),
        "head": {
            name: caseio.encode_array(getattr(params, name))
            for name in ("w_enc", "b_enc", "w_pos", "b_pos", "w_t", "b_t", "w_out", "b_out")
        },
    }


def payload_to_params(doc: dict) -> UgcnParams:
    head = {name: caseio.decode_array(a) for name, a in doc["head"].items()}
    return UgcnParams(
        conv=[caseio.decode_array(t) for t in doc["conv"]],
        assign=None if doc["assign"] is None else caseio.decode_array(doc["assign"]),
        **head,
    )


def dense_to_payload(model: DenseModel) -> dict:
    return {
        "bus_slots": list(model.bus_slots),
        "weights": [caseio.encode_array(w) for w in model.weights],
        "biases": [caseio.encode_array(b) for b in model.biases],
        "task": model.task,
        "window": model.window,
        "center": model.center,
    }


def payload_to_dense(doc: dict) -> DenseModel:
    return DenseModel(
        bus_slots=tuple(doc["bus_slots"]),
        weights=[caseio.decode_array(w) for w in doc["weights"]],
        biases=[caseio.decode_array(b) for b in doc["biases"]],
        task=doc["task"],
        window=doc["window"],
        center=doc["center"],
    )


def _read_checkpoint(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint {path!r} does not exist")
    return caseio.load_checkpoint(path)


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
    from .caseio import load_case, to_grid_graph
    from .scenarios import build_scenario

    case = load_case(case_name)
    base = to_grid_graph(case, kind=kind)
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


def cmd_gen(args) -> int:
    cfg = build_config(GEN_DEFAULTS, args, {
        "task": "task", "case": "case", "q": "q", "seed": "seed", "out": "out",
        "t_total": "t_total", "scenario": "scenario",
    })
    if cfg["task"] not in ("forecast", "fdi"):
        raise ConfigError(f"unknown task {cfg['task']!r}")
    if cfg["q"] < 1:
        raise ConfigError(f"q must be at least 1, got {cfg['q']}")
    case = caseio.load_case(cfg["case"])
    kind = cfg["kind"] or case.kind or DISTRIBUTION
    if cfg["task"] == "fdi" and kind != TRANSMISSION:
        kind = TRANSMISSION if case.kind == TRANSMISSION else kind
    os.makedirs(cfg["out"], exist_ok=True)

    jobs = max(1, args.jobs or 1)
    indices = list(range(cfg["q"]))
    try:
        if jobs == 1:
            payloads = [_gen_one_system(cfg["case"], kind, cfg, i) for i in indices]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                payloads = list(
                    pool.map(_gen_one_system, [cfg["case"]] * len(indices),
                             [kind] * len(indices), [cfg] * len(indices), indices)
                )
    except (NoConvergence, ExhaustedRetries, OutsideSanityBand) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 3

    echo = {k: v for k, v in cfg.items() if k != "out"}   # path-free: reruns stay byte-identical
    node_counts = []
    for i, payload in enumerate(payloads):
        path = os.path.join(cfg["out"], f"system_{i:03d}.ugcn.json")
        caseio.save_dataset(path, {"task": cfg["task"], "config": echo, "system": payload})
        node_counts.append(len(payload["graph"]["bus_ids"]))
    manifest = {
        "task": cfg["task"], "config": cfg, "kind": kind,
        "systems": len(payloads), "node_counts": node_counts,
    }
    with open(os.path.join(cfg["out"], "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")

    counts = {}
    for n in node_counts:
        counts[n] = counts.get(n, 0) + 1
    print(f"wrote {len(payloads)} systems to {cfg['out']} (task={cfg['task']}, kind={kind})")
    print("node-count histogram:")
    for n in sorted(counts):
        print(f"  {n:4d} buses: {'#' * counts[n]} ({counts[n]})")
    return 0


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
        systems.append(scenario_from_payload(payload["system"]))
        meta = {"task": payload.get("task"), "config": payload.get("config", {})}
    return systems, meta


def _layer_config(cfg: dict) -> LayerConfig:
    task = cfg["task"]
    base = forecast_config() if task == "forecast" else fdi_config()
    layers = cfg["layers"] or base.layers
    widths = tuple(cfg["widths"]) if cfg["widths"] else None
    if widths is None:
        top = 48 if task == "forecast" else 32
        widths = (10,) + (top,) * layers
    return LayerConfig(
        layers=layers,
        k_spatial=cfg["k_spatial"],
        k_temporal=cfg["k_temporal"] if task == "forecast" else 0,
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


def cmd_train(args) -> int:
    cfg = build_config(TRAIN_DEFAULTS, args, {
        "task": "task", "data": "data", "out": "out", "seed": "seed",
        "model": "model", "epochs": "epochs", "horizon": "horizon", "resume": "resume",
    })
    if cfg["task"] not in ("forecast", "fdi"):
        raise ConfigError(f"unknown task {cfg['task']!r}")
    if cfg["model"] not in ("ugcn", "dense"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    if cfg["model"] == "dense" and cfg["resume"]:
        raise ConfigError("--resume continues ugcn training only; "
                          "the dense baseline trains from scratch")
    try:
        systems, meta = load_dataset_dir(cfg["data"])
    except (CorruptFile, SchemaVersionMismatch) as exc:
        print(f"cannot load dataset: {exc}", file=sys.stderr)
        return 2
    if meta.get("task") and meta["task"] != cfg["task"]:
        raise ConfigError(
            f"dataset was generated for task {meta['task']!r}, requested {cfg['task']!r}"
        )
    tcfg = _train_config(cfg)
    check_series_lengths(
        systems, tcfg.window + tcfg.lead + 1,
        f"one training and one validation window of {tcfg.window} steps with lead {tcfg.lead}",
    )
    echo = {k: v for k, v in cfg.items() if k not in ("out", "data", "resume")}

    history_rows: list = []
    try:
        if cfg["model"] == "dense":
            model = init_dense(
                systems[0].graph.bus_ids, task=cfg["task"], seed=cfg["seed"],
                hidden=cfg["dense_hidden"], depth=cfg["dense_depth"], center=cfg["center"],
            )
            model, history_rows = train_dense(model, systems[:1], tcfg)
            payload = {
                "model": "dense", "task": cfg["task"], "train_config": echo,
                "dense": dense_to_payload(model), "history": history_rows,
            }
        else:
            mcfg = _layer_config(cfg)
            start_epoch = 0
            optimizer = None
            best = None
            if cfg["resume"]:
                ck = _read_checkpoint(cfg["resume"])
                if "resume_state" not in ck:
                    raise ConfigError(
                        f"checkpoint {cfg['resume']!r} has no resume state to continue from"
                    )
                resume = ck["resume_state"]
                mcfg = LayerConfig.from_dict(ck["layer_config"])
                model = UgcnPredictor(payload_to_params(resume["last_params"]), mcfg, cfg["center"])
                optimizer = Adam.from_state(resume["optimizer"])
                start_epoch = resume["epoch_next"]
                history_rows = [tuple(r) for r in ck["history"]]
                # the best parameters are the top-level ones; older checkpoints
                # also carry a copy in resume_state.best.params, which is ignored
                best = {
                    "val": resume["best"]["val"],
                    "model": UgcnPredictor(payload_to_params(ck["params"]), mcfg, cfg["center"]),
                    "bad": resume["best"]["bad"],
                }
            else:
                model = UgcnPredictor(init_params(mcfg, seed=cfg["seed"]), mcfg, cfg["center"])
            state: dict = {}
            model, history_rows = train(
                model, systems, tcfg,
                optimizer=optimizer, start_epoch=start_epoch,
                history=history_rows, best=best, state_out=state,
            )
            payload = {
                "model": "ugcn", "task": cfg["task"], "train_config": echo,
                "layer_config": mcfg.to_dict(), "params": params_to_payload(model.params),
                "history": history_rows,
                "resume_state": {
                    "last_params": params_to_payload(state["last"].params),
                    "optimizer": state["optimizer"].state(),
                    "epoch_next": state["epoch_next"],
                    "best": {"val": state["best"]["val"], "bad": state["best"]["bad"]},
                },
            }
    except DivergedLoss as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if exc.model is not None and cfg["model"] == "ugcn":
            caseio.save_checkpoint(cfg["out"], {
                "model": "ugcn", "task": cfg["task"], "train_config": echo,
                "layer_config": exc.model.cfg.to_dict(),
                "params": params_to_payload(exc.model.params),
                "history": history_rows, "diverged_at": exc.epoch,
            })
        return 4

    caseio.save_checkpoint(cfg["out"], payload)
    hist_path = os.path.splitext(cfg["out"])[0] + ".history.csv"
    with open(hist_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "val_loss"])
        for row in history_rows:
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2]))])
    print(f"checkpoint: {cfg['out']}  history: {hist_path}  epochs: {len(history_rows)}")
    return 0


# --------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = build_config(EVAL_DEFAULTS, args, {
        "checkpoint": "checkpoint", "data": "data", "out": "out", "csv": "csv",
        "model": "model",
    })
    ck = _read_checkpoint(cfg["checkpoint"])
    if cfg["model"] and cfg["model"] != ck["model"]:
        raise ConfigError(
            f"checkpoint holds a {ck['model']!r} model, --model says {cfg['model']!r}"
        )
    systems, meta = load_dataset_dir(cfg["data"])
    task = ck["task"]
    if task == "forecast":
        horizon = max(cfg["horizons"], default=0)
        check_series_lengths(systems, WINDOW + horizon,
                             f"a window of {WINDOW} steps and horizon {horizon}")
    else:
        check_series_lengths(systems, WINDOW, f"a window of {WINDOW} steps")
    if ck["model"] == "ugcn":
        params = payload_to_params(ck["params"])
        mcfg = LayerConfig.from_dict(ck["layer_config"])
        predictor = UgcnPredictor(params, mcfg, center=ck["train_config"].get("center", True))
    else:
        predictor = payload_to_dense(ck["dense"])
    try:
        if task == "forecast":
            report = eval_forecast(
                predictor, systems, horizons=tuple(cfg["horizons"]), window=WINDOW,
                stride=cfg["stride"], model_name=ck["model"],
            )
        else:
            report = eval_fdi(
                predictor, systems, omegas=tuple(cfg["omegas"]),
                threshold=cfg["threshold"], window=WINDOW, stride=cfg["fdi_stride"],
                max_attacks=cfg["max_attacks"] or None, model_name=ck["model"],
            )
    except DimensionMismatch as exc:
        print(f"checkpoint incompatible with dataset: {exc}", file=sys.stderr)
        return 5
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if cfg["csv"]:
        _write_report_csv(cfg["csv"], [report])
    print(f"report: {cfg['out']}" + (f"  csv: {cfg['csv']}" if cfg["csv"] else ""))
    for line in _report_lines(report):
        print(line)
    return 0


def _report_lines(report: MetricsReport) -> list[str]:
    lines = []
    if report.task == "forecast":
        for h in sorted(report.horizons):
            lines.append(f"  {report.model} H={h}: mse {report.horizons[h]:.6e}")
    else:
        for w in sorted(report.omegas):
            r = report.omegas[w]
            lines.append(
                f"  {report.model} omega={w}: acc {r['accuracy']:.4f} "
                f"prec {r['precision']:.4f} rec {r['recall']:.4f} f1 {r['f1']:.4f}"
            )
        if report.zeros_accuracy is not None:
            lines.append(f"  all-zeros predictor accuracy: {report.zeros_accuracy:.4f}")
    return lines


def _write_report_csv(path: str, reports: list[MetricsReport]) -> None:
    tasks = {r.task for r in reports}
    if len(tasks) > 1:
        raise ConfigError(f"cannot mix tasks in one CSV: {sorted(tasks)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    cfg = build_config(REPORT_DEFAULTS, args, {"out": "out", "csv": "csv"})
    reports = []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            reports.append(MetricsReport.from_dict(doc))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"not a metrics report: {path} ({exc})", file=sys.stderr)
            return 2
    if not reports:
        print("no reports given", file=sys.stderr)
        return 2
    configs = {json.dumps(r.config, sort_keys=True) for r in reports}
    if len(configs) > 1:
        print("warning: reports carry differing config echoes; merging anyway",
              file=sys.stderr)
    lines = []
    for r in reports:
        lines.extend(_report_lines(r))
    table = "\n".join(lines)
    print(table)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
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
                   help="parallel workers for generation (default 1)")

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
    except UgcnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
