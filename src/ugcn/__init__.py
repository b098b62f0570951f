"""Topology-transferable graph learning for power grids.

One complex-valued spatio-temporal graph network, trained across sampled
reconfigurations of a base system, forecasts voltage phasors and localizes
stealth false-data injections on topologies it has never seen, with a
parameter set whose shapes are independent of system size.
"""

from .caseio import CaseFile, load_case, parse_case, to_grid_graph
from .errors import UgcnError
from .fdi import AttackScenario, build_stealth_attack, inject, sample_attack_config
from .grid import Branch, GridGraph, build_admittance, build_gso
from .model import (
    LayerConfig,
    fdi_config,
    forecast_config,
    init_params,
    model_backward,
    model_forward,
    pool_custom,
    pool_learnable,
)
from .powerflow import nodal_mismatch, solve_powerflow
from .reconfig import AugmentConfig, apply_op, augment
from .scenarios import (
    ProfileSet,
    ScenarioConfig,
    ScenarioSet,
    build_features,
    build_scenario,
    synth_profiles,
)
from .training import (
    Adam,
    MetricsReport,
    TrainConfig,
    TrainState,
    UgcnPredictor,
    eval_fdi,
    eval_forecast,
    loss_fdi,
    loss_forecast,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AttackScenario", "AugmentConfig", "Adam", "Branch", "CaseFile", "GridGraph",
    "LayerConfig", "MetricsReport", "ProfileSet", "ScenarioConfig",
    "ScenarioSet", "TrainConfig", "TrainState", "UgcnError", "UgcnPredictor",
    "apply_op", "augment", "build_admittance", "build_features", "build_gso",
    "build_scenario", "build_stealth_attack", "eval_fdi",
    "eval_forecast", "fdi_config", "forecast_config",
    "init_params", "inject", "load_case", "loss_fdi",
    "loss_forecast", "model_backward", "model_forward", "nodal_mismatch",
    "parse_case", "pool_custom", "pool_learnable",
    "sample_attack_config", "solve_powerflow", "synth_profiles",
    "to_grid_graph", "train",
]
