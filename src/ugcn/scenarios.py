"""Synthetic operating scenarios: demand/PV profiles, phasor series, estimates.

Each reconfigured system gets an hourly time series: profiles drive the power
flow to produce true voltage phasors, a measurement layer adds noise, and the
configured estimator turns measurements back into phasor estimates that the
learning stack consumes.  Everything is keyed by (seed, system index) so
generation is reproducible and parallelizable per system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caseio import decode_array, decode_graph, encode_array, encode_graph
from .errors import (
    ConfigError,
    MissingCell,
    NoConvergence,
    NonNumeric,
    OutsideSanityBand,
    WindowOutOfRange,
)
from .estimation import (
    DEFAULT_MU1,
    Q_PER_P,
    PmuOperator,
    ami_placement,
    ami_setup,
    estimate_ami,
    fdi_sensor_placement,
    measure_ami,
    planning_loads,
    pmu_placement,
)
from .grid import DISTRIBUTION, GridGraph, build_admittance
from .powerflow import SWEEP_STEP_TOL, chord_hours, newton_setup, solve_powerflow, sweep_hours

WINDOW = 10              # historical hours per feature window (m0 channels)
SANITY_BAND = (0.5, 1.5)  # acceptable |v| range for true states, p.u.
PV_FRACTION = 0.3        # share of consuming distribution buses with PV
AR_RHO = 0.8             # hour-to-hour persistence of demand and cloud wander

AMI = "ami"
PMU = "pmu"


# --------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class ProfileSet:
    """Hourly per-bus demand and PV injection series, per-unit."""

    bus_ids: tuple[int, ...]
    p: np.ndarray    # [T, N] active demand
    q: np.ndarray    # [T, N] reactive demand
    pv: np.ndarray   # [T, N] PV injection, nonnegative

    def __post_init__(self):
        t = self.p.shape[0]
        n = len(self.bus_ids)
        for name in ("p", "q", "pv"):
            a = getattr(self, name)
            if a.shape != (t, n):
                raise MissingCell(
                    f"profile series {name} has shape {a.shape}, expected {(t, n)}")
            if not np.all(np.isfinite(a)):
                raise NonNumeric(f"profile series {name} has non-finite entries")

    def injections(self) -> np.ndarray:
        """Net complex power into the network per (t, bus)."""
        return (self.pv - self.p) - 1j * self.q


def _daily_shape(hours: np.ndarray, jitter: float) -> np.ndarray:
    h = hours + jitter
    return (
        1.0
        + 0.20 * np.cos(2 * np.pi * (h - 19.0) / 24.0)
        + 0.15 * np.cos(4 * np.pi * (h - 9.0) / 24.0)
    )


def synth_profiles(
    n_buses: int,
    t_total: int,
    seed,
    base_p: np.ndarray | None = None,
    base_q: np.ndarray | None = None,
    bus_ids: tuple[int, ...] | None = None,
    pv_fraction: float = PV_FRACTION,
    ar_sigma: float = 0.03,
) -> ProfileSet:
    """Double-peaked daily demand with AR(1) wander plus a midday PV bell.

    With ar_sigma = 0 the series are exactly periodic with period 24.
    """
    if t_total < 1:
        raise MissingCell(f"profiles need t_total of at least 1, got {t_total}")
    key = [seed] if isinstance(seed, int) else list(seed)
    rng = np.random.default_rng(key + [n_buses, 13])
    if base_p is None:
        base_p = rng.uniform(0.005, 0.03, size=n_buses)
    base_p = np.asarray(base_p, dtype=float)
    if base_q is None:
        base_q = base_p * Q_PER_P
    base_q = np.asarray(base_q, dtype=float)
    bus_ids = tuple(range(1, n_buses + 1)) if bus_ids is None else tuple(bus_ids)

    hours = np.arange(t_total, dtype=float) % 24.0
    jitter = rng.uniform(-1.0, 1.0, size=n_buses)
    shape = np.stack([_daily_shape(hours, j) for j in jitter], axis=1)  # [T, N]

    wander = np.zeros((t_total, n_buses))
    if ar_sigma > 0:
        eps = rng.standard_normal((t_total, n_buses)) * ar_sigma
        for t in range(1, t_total):
            wander[t] = AR_RHO * wander[t - 1] + eps[t]
    factor = np.clip(1.0 + wander, 0.1, None)

    p = base_p[None, :] * shape * factor
    q = base_q[None, :] * shape * factor

    # PV only on consuming buses; capacity tied to the local demand.
    candidates = np.flatnonzero(base_p > 0)
    n_pv = int(round(pv_fraction * len(candidates)))
    pv_buses = rng.choice(candidates, size=n_pv, replace=False) if n_pv else np.array([], int)
    pv = np.zeros((t_total, n_buses))
    if len(pv_buses):
        bell = np.maximum(0.0, np.sin(np.pi * (hours - 6.0) / 12.0)) ** 2
        caps = 0.8 * base_p[pv_buses]
        cloud = np.ones((t_total, len(pv_buses)))
        if ar_sigma > 0:
            w = np.zeros((t_total, len(pv_buses)))
            eps = rng.standard_normal((t_total, len(pv_buses))) * (2 * ar_sigma)
            for t in range(1, t_total):
                w[t] = AR_RHO * w[t - 1] + eps[t]
            cloud = np.clip(1.0 + w, 0.0, None)
        pv[:, pv_buses] = bell[:, None] * caps[None, :] * cloud
    return ProfileSet(bus_ids=bus_ids, p=p, q=q, pv=pv)


# --------------------------------------------------------------------------
# Scenario sets


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Per-system time series of true and estimated phasors plus sensor layout."""

    graph: GridGraph
    scenario: str                       # AMI or PMU
    noise_sigma: float
    true_states: np.ndarray             # [T, N] complex
    estimates: np.ndarray               # [T, N] complex
    ami_buses: tuple[int, ...] = ()
    pmu_buses: tuple[int, ...] = ()
    mu1: float = 1e-3
    attacks: tuple = ()                 # AttackScenario records (FDI task)
    seed: int = 0
    index: int = 0
    op_log: tuple = ()

    @property
    def t_total(self) -> int:
        return self.true_states.shape[0]

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class ScenarioConfig:
    t_total: int = 240
    scenario: str = AMI
    noise_sigma: float = 0.002
    pmu_fraction: float = 0.2           # 0.3 is customary for transmission
    demand_scale: float = 1.0           # transmission cases run at ~0.55
    attacks_per_system: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.t_total < 1:
            raise ConfigError(f"t_total must be at least 1, got {self.t_total}")
        if self.scenario not in (AMI, PMU):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if not np.isfinite(self.noise_sigma):
            raise ConfigError(f"noise_sigma must be finite, got {self.noise_sigma}")
        if not 0 < self.demand_scale < np.inf:
            raise ConfigError(f"demand_scale must be positive and finite, got {self.demand_scale}")
        if not 0 < self.pmu_fraction <= 1:
            raise ConfigError(f"pmu_fraction must lie in (0, 1], got {self.pmu_fraction}")
        if self.attacks_per_system < 0:
            raise ConfigError(
                f"attacks_per_system must be nonnegative, got {self.attacks_per_system}")


def _series_profiles(graph: GridGraph, cfg: ScenarioConfig, index: int,
                     base_loads: dict[int, complex], scale: float) -> ProfileSet:
    """The planning loads times `scale`; a bus an op added draws 0.5-1.5 times its fill."""
    loads, added = planning_loads(graph, base_loads)
    base_p, base_q = loads.real * scale, loads.imag * scale
    rng = np.random.default_rng([cfg.seed, index, 17])
    base_p[added] = loads.real[added] * rng.uniform(0.5, 1.5, size=int(added.sum())) * scale
    base_q[added] = Q_PER_P * base_p[added]
    return synth_profiles(
        graph.n,
        cfg.t_total,
        seed=[cfg.seed, index, 19],
        base_p=base_p,
        base_q=base_q,
        bus_ids=graph.bus_ids,
        pv_fraction=PV_FRACTION if graph.kind == DISTRIBUTION else 0.0,
    )


def _solve_series(graph: GridGraph, y: np.ndarray, s_inj: np.ndarray) -> np.ndarray:
    """One `solve_powerflow` per hour of the [T, N] injections, each from a start.

    A radial feeder's hours are swept together from the flat profile by
    `sweep_hours`.  A meshed grid's hour 0 is solved from the flat profile,
    and its other hours are stepped together from hour 0's state by
    `chord_hours`, with hour 0's Newton set-up.  Each hour that settled
    there starts its own solve from its state, which then balances without
    a step; an hour that did not settle starts from the flat profile.
    """
    setup = None
    first = 0
    if graph.kind == DISTRIBUTION:
        states, _, step = sweep_hours(graph, s_inj)
        settled = step < SWEEP_STEP_TOL
    else:
        setup = newton_setup(graph, y)
        hour0 = solve_powerflow(graph, s_inj[0], y, v0=None, setup=setup)
        states, settled = chord_hours(y, s_inj, hour0, setup)
        states[0], first = hour0, 1
    for t in range(first, len(s_inj)):
        v0 = states[t] if settled[t] else None
        states[t] = solve_powerflow(graph, s_inj[t], y, v0=v0, setup=setup)
    return states


def build_scenario(
    graph: GridGraph,
    cfg: ScenarioConfig,
    index: int,
    base_loads: dict[int, complex],
    task: str = "forecast",
    op_log: tuple = (),
) -> ScenarioSet:
    """Profiles -> power flow -> measurements -> estimates for one system.

    A PMU series is measured in one `PmuOperator.measure` call and estimated
    in one `PmuOperator.estimate` call.  The AMI series is measured in one
    `measure_ami` call and estimated in one `estimate_ami` call, whose set-up
    takes `base_loads` as the planning loads of its pseudo-injections; both
    names are looked up in this module so that they can be wrapped for
    timing.
    """
    y = build_admittance(graph)
    scale = cfg.demand_scale
    tried = []
    states = None
    for _ in range(4):
        tried.append(scale)
        try:
            # The profiles are not held past the power flow.
            states = _solve_series(
                graph, y, _series_profiles(graph, cfg, index, base_loads, scale).injections())
            break
        except NoConvergence as exc:
            last = exc
            scale *= 0.85   # stressed reconfiguration: back the demand off and retry
    if states is None:
        scales = ", ".join(f"{s:.4g}" for s in tried)
        raise NoConvergence(last.iterations, last.mismatch,
                            f"system {index} failed at demand scales {scales}; last power flow")
    mags = np.abs(states)
    if mags.min() <= SANITY_BAND[0] or mags.max() >= SANITY_BAND[1]:
        raise OutsideSanityBand(SANITY_BAND, float(mags.min()), float(mags.max()))
    del mags                       # not held through the estimation

    noise_rng = np.random.default_rng([cfg.seed, index, 23])
    ami_buses: tuple[int, ...] = ()
    pmu_buses: tuple[int, ...] = ()
    if task == "fdi":
        pmu_buses = fdi_sensor_placement(graph, seed=cfg.seed)
    elif cfg.scenario == PMU:
        pmu_buses = pmu_placement(graph, cfg.pmu_fraction, seed=cfg.seed)
    if pmu_buses:
        op = PmuOperator.build(graph, pmu_buses, y=y)
        estimates = op.estimate(op.measure(states, sigma=cfg.noise_sigma, rng=noise_rng))
    else:
        ami_buses = ami_placement(graph)
        setup = ami_setup(graph, ami_buses, base_loads, y)
        estimates = estimate_ami(
            setup, measure_ami(setup, states, sigma=cfg.noise_sigma, rng=noise_rng))

    attacks: tuple = ()
    if task == "fdi":
        from .fdi import sample_attacks_for_system

        attacks = sample_attacks_for_system(
            y, pmu_buses, graph, cfg.attacks_per_system, seed=[cfg.seed, index, 29]
        )
    return ScenarioSet(
        graph=graph,
        scenario=PMU if pmu_buses else AMI,
        noise_sigma=cfg.noise_sigma,
        true_states=states,
        estimates=estimates,
        ami_buses=ami_buses,
        pmu_buses=pmu_buses,
        mu1=DEFAULT_MU1,
        attacks=attacks,
        seed=cfg.seed,
        index=index,
        op_log=tuple(op_log),
    )


# --------------------------------------------------------------------------
# Feature windows


def feature_window(estimates: np.ndarray, t: int) -> np.ndarray:
    """[N, WINDOW] matrix of the trailing estimates, oldest channel first."""
    if t < WINDOW - 1 or t >= estimates.shape[0]:
        raise WindowOutOfRange(f"t={t} with window {WINDOW} over {estimates.shape[0]} steps")
    return estimates[t - WINDOW + 1: t + 1].T.copy()


def build_features(
    system: ScenarioSet,
    t: int,
    horizon: int = 0,
    attack=None,
    estimate_shift: np.ndarray | None = None,
):
    """(input [N, WINDOW], target [N]) for one sample.

    Forecasting targets the true phasor at t+horizon.  With an attack record
    the input window is shifted by the attack's estimate-space footprint and
    the target becomes the per-bus labels.
    """
    x = feature_window(system.estimates, t)
    if attack is not None:
        if estimate_shift is None:
            raise WindowOutOfRange("attacked features need the estimate shift")
        x = x + attack.omega * estimate_shift[:, None]
        return x, attack.labels.astype(float)
    if t + horizon >= system.t_total:
        raise WindowOutOfRange(f"target t+H={t + horizon} beyond {system.t_total}")
    return x, system.true_states[t + horizon]


# --------------------------------------------------------------------------
# Serialization


def scenario_to_payload(s: ScenarioSet) -> dict:
    from .fdi import attack_to_dict

    return {
        "graph": encode_graph(s.graph),
        "scenario": s.scenario,
        "noise_sigma": s.noise_sigma,
        "true_states": encode_array(s.true_states),
        "estimates": encode_array(s.estimates),
        "ami_buses": list(s.ami_buses),
        "pmu_buses": list(s.pmu_buses),
        "mu1": s.mu1,
        "attacks": [attack_to_dict(a) for a in s.attacks],
        "seed": s.seed,
        "index": s.index,
        "op_log": list(s.op_log),
    }


def scenario_from_payload(doc: dict) -> ScenarioSet:
    from .fdi import attack_from_dict

    return ScenarioSet(
        graph=decode_graph(doc["graph"]),
        scenario=doc["scenario"],
        noise_sigma=doc["noise_sigma"],
        true_states=decode_array(doc["true_states"]),
        estimates=decode_array(doc["estimates"]),
        ami_buses=tuple(doc["ami_buses"]),
        pmu_buses=tuple(doc["pmu_buses"]),
        mu1=doc["mu1"],
        attacks=tuple(attack_from_dict(a) for a in doc["attacks"]),
        seed=doc["seed"],
        index=doc["index"],
        op_log=tuple(doc["op_log"]),
    )
