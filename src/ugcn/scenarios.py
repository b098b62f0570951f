"""Synthetic operating scenarios: demand/PV profiles, phasor series, estimates.

Each reconfigured system gets an hourly time series: profiles drive the power
flow to produce true voltage phasors, a measurement layer adds noise, and the
configured estimator turns measurements back into phasor estimates that the
learning stack consumes.  Everything is keyed by (seed, system index) so
generation is reproducible and parallelizable per system.
"""

from __future__ import annotations

import io
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
    PmuOperator,
    ami_placement,
    estimate_ami,
    fdi_sensor_placement,
    measure_ami,
    pmu_placement,
)
from .grid import DISTRIBUTION, GridGraph, build_admittance
from .powerflow import solve_powerflow

WINDOW = 10              # historical hours per feature window (m0 channels)
SANITY_BAND = (0.5, 1.5)  # acceptable |v| range for true states, p.u.

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
                raise MissingCell(name, a.shape)
            if not np.all(np.isfinite(a)):
                raise NonNumeric(f"profile series {name} has non-finite entries")

    @property
    def t_total(self) -> int:
        return self.p.shape[0]

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
    pv_fraction: float = 0.3,
    ar_rho: float = 0.8,
    ar_sigma: float = 0.03,
) -> ProfileSet:
    """Double-peaked daily demand with AR(1) wander plus a midday PV bell.

    With ar_sigma = 0 the series are exactly periodic with period 24.
    """
    if t_total < 1:
        raise MissingCell("t", 0)
    key = [seed] if isinstance(seed, int) else list(seed)
    rng = np.random.default_rng(key + [n_buses, 13])
    if base_p is None:
        base_p = rng.uniform(0.005, 0.03, size=n_buses)
    base_p = np.asarray(base_p, dtype=float)
    if base_q is None:
        base_q = base_p * 0.48  # ~0.9 power factor
    base_q = np.asarray(base_q, dtype=float)
    bus_ids = tuple(range(1, n_buses + 1)) if bus_ids is None else tuple(bus_ids)

    hours = np.arange(t_total, dtype=float) % 24.0
    jitter = rng.uniform(-1.0, 1.0, size=n_buses)
    shape = np.stack([_daily_shape(hours, j) for j in jitter], axis=1)  # [T, N]

    wander = np.zeros((t_total, n_buses))
    if ar_sigma > 0:
        eps = rng.standard_normal((t_total, n_buses)) * ar_sigma
        for t in range(1, t_total):
            wander[t] = ar_rho * wander[t - 1] + eps[t]
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
                w[t] = ar_rho * w[t - 1] + eps[t]
            cloud = np.clip(1.0 + w, 0.0, None)
        pv[:, pv_buses] = bell[:, None] * caps[None, :] * cloud
    return ProfileSet(bus_ids=bus_ids, p=p, q=q, pv=pv)


def ingest_profiles_csv(text: str) -> ProfileSet:
    """Parse a dense `t,bus,p,q,pv` CSV into a ProfileSet."""
    reader = io.StringIO(text)
    header = reader.readline().strip().lower().split(",")
    if header != ["t", "bus", "p", "q", "pv"]:
        raise NonNumeric(f"expected header t,bus,p,q,pv, got {header}")
    cells: dict[tuple[int, int], tuple[float, float, float]] = {}
    for lineno, line in enumerate(reader, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise NonNumeric(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            t, bus = int(parts[0]), int(parts[1])
            p, q, pv = float(parts[2]), float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise NonNumeric(f"line {lineno}: {exc}") from exc
        cells[(t, bus)] = (p, q, pv)
    if not cells:
        raise MissingCell(0, 0)
    times = sorted({t for t, _ in cells})
    buses = sorted({b for _, b in cells})
    p = np.zeros((len(times), len(buses)))
    q = np.zeros_like(p)
    pv = np.zeros_like(p)
    for i, t in enumerate(times):
        for j, b in enumerate(buses):
            if (t, b) not in cells:
                raise MissingCell(t, b)
            p[i, j], q[i, j], pv[i, j] = cells[(t, b)]
    return ProfileSet(bus_ids=tuple(buses), p=p, q=q, pv=pv)


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
    ami_fraction: float = 0.4
    pmu_fraction: float = 0.2           # 0.3 is customary for transmission
    lam: float = 1e-3
    mu1: float = 1e-3
    demand_scale: float = 1.0           # transmission cases run at ~0.55
    pv_fraction: float = 0.3
    ar_sigma: float = 0.03
    attacks_per_system: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.t_total < 1:
            raise ConfigError(f"t_total must be at least 1, got {self.t_total}")
        if self.scenario not in (AMI, PMU):
            raise ConfigError(f"unknown scenario {self.scenario!r}")


def _series_profiles(graph: GridGraph, cfg: ScenarioConfig, index: int,
                     base_loads: dict[int, complex], scale: float) -> ProfileSet:
    known_p = np.array([abs(base_loads[b].real) for b in base_loads if base_loads[b].real > 0])
    fill = float(np.median(known_p)) if len(known_p) else 0.01
    rng = np.random.default_rng([cfg.seed, index, 17])
    base_p, base_q = [], []
    for b in graph.bus_ids:
        if b in base_loads:
            base_p.append(base_loads[b].real * scale)
            base_q.append(base_loads[b].imag * scale)
        else:
            p = fill * rng.uniform(0.5, 1.5) * scale
            base_p.append(p)
            base_q.append(0.48 * p)
    return synth_profiles(
        graph.n,
        cfg.t_total,
        seed=[cfg.seed, index, 19],
        base_p=np.array(base_p),
        base_q=np.array(base_q),
        bus_ids=graph.bus_ids,
        pv_fraction=cfg.pv_fraction if graph.kind == DISTRIBUTION else 0.0,
        ar_sigma=cfg.ar_sigma,
    )


def _solve_series(graph: GridGraph, y: np.ndarray, s_inj: np.ndarray) -> np.ndarray:
    slack = graph.pos(graph.slack_bus())
    states = np.empty_like(s_inj)
    for t in range(s_inj.shape[0]):
        s_t = s_inj[t].copy()
        s_t[slack] = 0.0
        states[t] = solve_powerflow(graph, s_t, y)
    return states


def build_scenario(
    graph: GridGraph,
    cfg: ScenarioConfig,
    index: int,
    base_loads: dict[int, complex],
    task: str = "forecast",
    op_log: tuple = (),
) -> ScenarioSet:
    """Profiles -> power flow -> measurements -> estimates for one system."""
    y = build_admittance(graph)
    scale = cfg.demand_scale
    states = None
    for _ in range(4):
        profiles = _series_profiles(graph, cfg, index, base_loads, scale)
        try:
            states = _solve_series(graph, y, profiles.injections())
            break
        except NoConvergence:
            scale *= 0.85   # stressed reconfiguration: back the demand off and retry
    if states is None:
        raise NoConvergence(4, float("nan"))
    mags = np.abs(states)
    if mags.min() <= SANITY_BAND[0] or mags.max() >= SANITY_BAND[1]:
        raise OutsideSanityBand(SANITY_BAND, float(mags.min()), float(mags.max()))

    noise_rng = np.random.default_rng([cfg.seed, index, 23])
    ami_buses: tuple[int, ...] = ()
    pmu_buses: tuple[int, ...] = ()
    estimates = np.empty_like(states)
    if task == "fdi":
        pmu_buses = fdi_sensor_placement(graph, seed=cfg.seed)
    elif cfg.scenario == PMU:
        pmu_buses = pmu_placement(graph, cfg.pmu_fraction, seed=cfg.seed)
    if pmu_buses:
        op = PmuOperator.build(graph, pmu_buses, mu1=cfg.mu1, y=y)
        for t in range(cfg.t_total):
            z = op.measure(states[t], sigma=cfg.noise_sigma, rng=noise_rng)
            estimates[t] = op.estimate(z)
    else:
        ami_buses = ami_placement(graph, cfg.ami_fraction)
        for t in range(cfg.t_total):
            z = measure_ami(graph, states[t], ami_buses, y=y,
                            sigma=cfg.noise_sigma, rng=noise_rng)
            estimates[t] = estimate_ami(graph, z, ami_buses, lam=cfg.lam, y=y)

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
        mu1=cfg.mu1,
        attacks=attacks,
        seed=cfg.seed,
        index=index,
        op_log=tuple(op_log),
    )


# --------------------------------------------------------------------------
# Feature windows


def feature_window(estimates: np.ndarray, t: int, window: int = WINDOW) -> np.ndarray:
    """[N, window] matrix of the trailing estimates, oldest channel first."""
    if t < window - 1 or t >= estimates.shape[0]:
        raise WindowOutOfRange(f"t={t} with window {window} over {estimates.shape[0]} steps")
    return estimates[t - window + 1: t + 1].T.copy()


def build_features(
    system: ScenarioSet,
    t: int,
    window: int = WINDOW,
    horizon: int = 0,
    attack=None,
    estimate_shift: np.ndarray | None = None,
):
    """(input [N, window], target [N]) for one sample.

    Forecasting targets the true phasor at t+horizon.  With an attack record
    the input window is shifted by the attack's estimate-space footprint and
    the target becomes the per-bus labels.
    """
    x = feature_window(system.estimates, t, window)
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
