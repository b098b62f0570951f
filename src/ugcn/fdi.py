"""Stealth false-data injection: construction, injection, and labeling.

An attacker controlling sensors on buses C spoofs a state perturbation dv
supported on C.  Choosing dv_C in the null space of Y[P, C], where P is the
set of honest sensor buses, leaves every honest current measurement unchanged,
so residual-based bad-data tests see nothing.  The per-bus ground truth marks
exactly the buses where dv is nonzero; the magnitude knob omega scales the
injected perturbation but not the labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caseio import F64Block
from .errors import DimensionMismatch, InfeasibleAttack
from .grid import GridGraph

BASE_MAGNITUDE = 0.05      # infinity-norm of dv_C before omega scaling, p.u.
LABEL_THRESHOLD = 1e-8
NULLSPACE_RCOND = 1e-10
OMEGA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))
MAX_TRIES = 25             # sensor subsets drawn per attack before a null attack


@dataclass(frozen=True, eq=False)
class AttackScenario:
    """One crafted attack: compromised sensors, perturbation, magnitude, labels."""

    compromised: tuple[int, ...]        # bus ids, subset of the sensor set
    delta_v: np.ndarray                 # [N] complex, zero outside compromised
    omega: float
    labels: np.ndarray                  # [N] uint8, support of delta_v

    @property
    def is_null(self) -> bool:
        return len(self.compromised) == 0


def null_space_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space via SVD with relative cutoff."""
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if a.shape[0] == 0 or a.size == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    _, svals, vh = np.linalg.svd(a)
    cutoff = NULLSPACE_RCOND * (svals[0] if len(svals) else 0.0)
    rank = int(np.sum(svals > cutoff))
    return vh[rank:].conj().T


def build_stealth_attack(
    y: np.ndarray,
    pmu_buses: tuple[int, ...],
    target_buses: tuple[int, ...],
    omega: float,
    seed,
    graph: GridGraph,
) -> AttackScenario:
    """Random unit-coefficient combination of the stealth null space, scaled to 0.05 p.u."""
    n = graph.n
    targets = tuple(sorted(target_buses))
    if not set(targets) <= set(pmu_buses):
        raise DimensionMismatch("compromised buses must be a subset of the sensor buses")
    if len(targets) == 0:
        return AttackScenario(
            compromised=(),
            delta_v=np.zeros(n, dtype=np.complex128),
            omega=float(omega),
            labels=np.zeros(n, dtype=np.uint8),
        )
    honest = [b for b in pmu_buses if b not in set(targets)]
    c_pos = [graph.pos(b) for b in targets]
    p_pos = [graph.pos(b) for b in honest]
    y_pc = y[np.ix_(p_pos, c_pos)] if p_pos else np.zeros((0, len(c_pos)), dtype=np.complex128)
    basis = null_space_basis(y_pc)
    if basis.shape[1] == 0:
        raise InfeasibleAttack(
            f"null space of the {len(p_pos)}x{len(c_pos)} honest block is trivial"
        )
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
    coeff /= np.linalg.norm(coeff)
    dv_c = basis @ coeff
    peak = float(np.max(np.abs(dv_c)))
    if peak < 1e-14:
        raise InfeasibleAttack("null-space combination collapsed to zero")
    dv_c *= BASE_MAGNITUDE / peak
    delta_v = np.zeros(n, dtype=np.complex128)
    delta_v[c_pos] = dv_c
    labels = (np.abs(delta_v) > LABEL_THRESHOLD).astype(np.uint8)
    return AttackScenario(
        compromised=targets, delta_v=delta_v, omega=float(omega), labels=labels
    )


def inject(z: np.ndarray, h: np.ndarray, delta_v: np.ndarray, omega: float) -> np.ndarray:
    """Attacked measurements z + omega * H dv (dv in H's state column order)."""
    z = np.asarray(z)
    h = np.asarray(h)
    delta_v = np.asarray(delta_v)
    if h.shape[0] != z.shape[0] or h.shape[1] != delta_v.shape[0]:
        raise DimensionMismatch(
            f"H is {h.shape}, z has {z.shape[0]} rows, dv has {delta_v.shape[0]}"
        )
    return z + omega * (h @ delta_v)


def sample_attack_config(n_sensors: int, seed) -> tuple[tuple[int, ...], float]:
    """(compromised sensor indices, omega): |C| uniform on 0..n, omega on the 0.1 grid."""
    if n_sensors < 1:
        raise DimensionMismatch("need at least one sensor")
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, n_sensors + 1))
    picks = tuple(sorted(rng.choice(n_sensors, size=size, replace=False).tolist()))
    omega = float(OMEGA_GRID[rng.integers(0, len(OMEGA_GRID))])
    return picks, omega


def sample_attacks_for_system(
    y: np.ndarray,
    pmu_buses: tuple[int, ...],
    graph: GridGraph,
    count: int,
    seed,
) -> tuple[AttackScenario, ...]:
    """Draw feasible attack records; infeasible sensor subsets are resampled."""
    base = list(seed) if not isinstance(seed, int) else [seed]
    out = []
    for i in range(count):
        attack = None
        for attempt in range(MAX_TRIES):
            idx, omega = sample_attack_config(len(pmu_buses), seed=base + [i, attempt, 3])
            targets = tuple(pmu_buses[j] for j in idx)
            try:
                attack = build_stealth_attack(
                    y, pmu_buses, targets, omega, seed=base + [i, attempt, 5], graph=graph
                )
                break
            except InfeasibleAttack:
                continue
        if attack is None:
            attack = build_stealth_attack(y, pmu_buses, (), 0.0, seed=base + [i, 7], graph=graph)
        out.append(attack)
    return tuple(out)


def attack_to_dict(a: AttackScenario) -> dict:
    return {
        "compromised": list(a.compromised),
        "delta_re": F64Block(a.delta_v.real),
        "delta_im": F64Block(a.delta_v.imag),
        "omega": a.omega,
        "labels": a.labels.astype(int).tolist(),
    }


def attack_from_dict(doc: dict) -> AttackScenario:
    return AttackScenario(
        compromised=tuple(doc["compromised"]),
        delta_v=np.array(doc["delta_re"]) + 1j * np.array(doc["delta_im"]),
        omega=float(doc["omega"]),
        labels=np.array(doc["labels"], dtype=np.uint8),
    )
