"""State estimation feeding the learning pipeline.

Two measurement systems are modeled.  Smart-meter (AMI) buses report net
active/reactive injection and voltage magnitude; the state is recovered by a
damped Gauss-Newton descent on a weighted least-squares cost with a quadratic
regularizer.  Phasor-unit (PMU) buses report complex current injections and
voltages; the state follows in closed form from a shift-regularized
pseudoinverse.  Both estimators return the full bus-ordered phasor vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .grid import (
    DISTRIBUTION,
    GridGraph,
    Gso,
    build_admittance,
    build_gso,
)

GN_MAX_ITER = 50
GN_STEP_TOL = 1e-9
DEFAULT_LAMBDA = 1e-3
DEFAULT_MU1 = 1e-3
FDI_SENSOR_COUNTS = {30: 15, 39: 20, 57: 25}


# --------------------------------------------------------------------------
# Sensor placement


def ami_placement(graph: GridGraph, fraction: float = 0.4) -> tuple[int, ...]:
    """All feeder endpoints, extended by the deepest interior buses up to the fraction."""
    if graph.kind != DISTRIBUTION:
        raise DimensionMismatch("AMI placement applies to distribution feeders")
    leaves = graph.leaves()
    target = int(np.ceil(fraction * graph.n))
    chosen = list(leaves)
    if len(chosen) < target:
        tree = graph.bfs()
        interior = [
            (int(tree.depth[graph.pos(b)]), b)
            for b in graph.bus_ids
            if b not in leaves and b != graph.root
        ]
        interior.sort(key=lambda db: (-db[0], db[1]))
        for _, b in interior:
            if len(chosen) >= target:
                break
            chosen.append(b)
    return tuple(sorted(chosen))


def pmu_placement(graph: GridGraph, fraction: float, seed: int) -> tuple[int, ...]:
    """Seeded uniform sample of ceil(fraction * N) buses."""
    count = int(np.ceil(fraction * graph.n))
    rng = np.random.default_rng([seed, graph.n, 7])
    picks = rng.choice(graph.n, size=min(count, graph.n), replace=False)
    return tuple(sorted(graph.bus_ids[i] for i in picks))


def fdi_sensor_count(n_buses: int) -> int:
    """Sensors available to the attacker study; standard counts for known systems."""
    return FDI_SENSOR_COUNTS.get(n_buses, int(np.ceil(n_buses / 2)))


def fdi_sensor_placement(graph: GridGraph, seed: int) -> tuple[int, ...]:
    count = fdi_sensor_count(graph.n)
    rng = np.random.default_rng([seed, graph.n, 11])
    picks = rng.choice(graph.n, size=count, replace=False)
    return tuple(sorted(graph.bus_ids[i] for i in picks))


# --------------------------------------------------------------------------
# AMI scenario: nonlinear WLS via damped Gauss-Newton


def measure_ami(
    graph: GridGraph,
    v: np.ndarray,
    ami_buses: tuple[int, ...],
    y: np.ndarray | None = None,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Stacked [P_a, Q_a, |v|_a] at the metered buses, with optional Gaussian noise."""
    y = build_admittance(graph) if y is None else y
    idx = np.array([graph.pos(b) for b in ami_buses])
    s = v * np.conj(y @ v)
    z = np.concatenate([s[idx].real, s[idx].imag, np.abs(v[idx])])
    if sigma > 0:
        if rng is None:
            raise ValueError("rng required when sigma > 0")
        z = z + sigma * rng.standard_normal(z.shape)
    return z


def _ami_h_and_jac(y: np.ndarray, v: np.ndarray, idx: np.ndarray):
    n = len(v)
    i_cur = y @ v
    s = v * np.conj(i_cur)
    vmag = np.abs(v)
    h = np.concatenate([s[idx].real, s[idx].imag, vmag[idx]])

    diag_i = np.diag(np.conj(i_cur))
    vy = v[:, None] * np.conj(y)
    ds_de = (diag_i + vy)[idx, :]
    ds_df = (1j * diag_i - 1j * vy)[idx, :]
    m = len(idx)
    jac = np.zeros((3 * m, 2 * n))
    jac[:m, :n] = ds_de.real
    jac[:m, n:] = ds_df.real
    jac[m:2 * m, :n] = ds_de.imag
    jac[m:2 * m, n:] = ds_df.imag
    safe = np.where(vmag[idx] > 1e-12, vmag[idx], 1.0)
    rows = np.arange(2 * m, 3 * m)
    jac[rows, idx] = v[idx].real / safe
    jac[rows, n + idx] = v[idx].imag / safe
    return h, jac


def estimate_ami(
    graph: GridGraph,
    z: np.ndarray,
    ami_buses: tuple[int, ...],
    r_weights: np.ndarray | None = None,
    lam: float = DEFAULT_LAMBDA,
    lam_weights: np.ndarray | None = None,
    y: np.ndarray | None = None,
    info: bool = False,
):
    """Minimize ||R^(1/2)(z - h(v))||^2 + lam * ||L^(1/2) [e; f]||^2 from a flat start.

    Steps halve on cost increase; iteration stops when the step norm drops
    below GN_STEP_TOL or the budget runs out, returning the last iterate.
    """
    y = build_admittance(graph) if y is None else y
    n = graph.n
    idx = np.array([graph.pos(b) for b in ami_buses])
    if z.shape != (3 * len(idx),):
        raise DimensionMismatch(f"expected {3 * len(idx)} measurements, got {z.shape}")
    w = np.ones_like(z) if r_weights is None else np.sqrt(np.asarray(r_weights, dtype=float))
    lw = np.ones(2 * n) if lam_weights is None else np.sqrt(np.asarray(lam_weights, dtype=float))

    v = np.ones(n, dtype=np.complex128)
    # Injections and magnitudes cannot see a global rotation; pin the angle
    # reference by freezing the slack bus imaginary part at zero.
    gauge = n + graph.pos(graph.slack_bus())
    free = np.array([i for i in range(2 * n) if i != gauge])

    def cost(vec):
        h, _ = _ami_h_and_jac(y, vec, idx)
        split = np.concatenate([vec.real, vec.imag])
        return float(np.sum((w * (z - h)) ** 2) + lam * np.sum((lw * split) ** 2))

    current = cost(v)
    iterations = 0
    for iterations in range(1, GN_MAX_ITER + 1):
        h, jac = _ami_h_and_jac(y, v, idx)
        split = np.concatenate([v.real, v.imag])
        a = np.vstack([w[:, None] * jac, np.sqrt(lam) * np.diag(lw)])[:, free]
        b = np.concatenate([w * (z - h), -np.sqrt(lam) * lw * split])
        reduced = np.linalg.lstsq(a, b, rcond=None)[0]
        if not np.all(np.isfinite(reduced)):
            raise NoConvergence(iterations, float("inf"))
        delta = np.zeros(2 * n)
        delta[free] = reduced
        step = delta.copy()
        trial = v + step[:n] + 1j * step[n:]
        trial_cost = cost(trial)
        halvings = 0
        while trial_cost > current and halvings < 12:
            step *= 0.5
            halvings += 1
            trial = v + step[:n] + 1j * step[n:]
            trial_cost = cost(trial)
        if not np.isfinite(trial_cost):
            raise NoConvergence(iterations, float("inf"))
        if trial_cost <= current:
            v = trial
            current = trial_cost
        if float(np.linalg.norm(step)) < GN_STEP_TOL:
            break
    if info:
        h, _ = _ami_h_and_jac(y, v, idx)
        residual = float(np.linalg.norm(w * (z - h)))
        return v, {"iterations": iterations, "residual": residual, "cost": current}
    return v


def ami_cost(
    graph: GridGraph,
    v: np.ndarray,
    z: np.ndarray,
    ami_buses: tuple[int, ...],
    lam: float = DEFAULT_LAMBDA,
    y: np.ndarray | None = None,
) -> float:
    """Objective value at an arbitrary state (optimality cross-checks)."""
    y = build_admittance(graph) if y is None else y
    idx = np.array([graph.pos(b) for b in ami_buses])
    h, _ = _ami_h_and_jac(y, v, idx)
    split = np.concatenate([v.real, v.imag])
    return float(np.sum((z - h) ** 2) + lam * np.sum(split ** 2))


# --------------------------------------------------------------------------
# PMU scenario: linear model with shift-regularized pseudoinverse


@dataclass(frozen=True)
class PmuOperator:
    """Measurement model z = H x + noise in [sensors, unobserved] state order."""

    graph: GridGraph
    pmu_buses: tuple[int, ...]
    mu1: float
    perm: np.ndarray          # bus position order [A..., U...]
    h: np.ndarray             # (2|A|) x N
    solve: np.ndarray         # N x (2|A|): pinv(H^H H + mu1 S_perm) H^H
    s_perm: np.ndarray

    @classmethod
    def build(
        cls,
        graph: GridGraph,
        pmu_buses: tuple[int, ...],
        mu1: float = DEFAULT_MU1,
        gso: Gso | None = None,
        y: np.ndarray | None = None,
    ) -> "PmuOperator":
        y = build_admittance(graph) if y is None else y
        gso = build_gso(y) if gso is None else gso
        a_pos = [graph.pos(b) for b in pmu_buses]
        u_pos = [i for i in range(graph.n) if i not in set(a_pos)]
        perm = np.array(a_pos + u_pos)
        m = len(a_pos)
        h = np.zeros((2 * m, graph.n), dtype=np.complex128)
        h[:m, :] = y[np.ix_(a_pos, perm)]
        h[m:, :m] = np.eye(m)
        s_perm = gso.matrix[np.ix_(perm, perm)]
        grab = h.conj().T
        solve = np.linalg.pinv(grab @ h + mu1 * s_perm, rcond=1e-10) @ grab
        return cls(graph=graph, pmu_buses=tuple(pmu_buses), mu1=mu1,
                   perm=perm, h=h, solve=solve, s_perm=s_perm)

    def measure(
        self,
        v: np.ndarray,
        sigma: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """[current injections at A; voltages at A] with complex Gaussian noise."""
        z = self.h @ v[self.perm]
        if sigma > 0:
            if rng is None:
                raise ValueError("rng required when sigma > 0")
            noise = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
            z = z + sigma * noise
        return z

    def estimate(self, z: np.ndarray) -> np.ndarray:
        """State estimate in bus order."""
        if z.shape != (self.h.shape[0],):
            raise DimensionMismatch(f"expected {self.h.shape[0]} measurements, got {z.shape}")
        x_perm = self.solve @ z
        out = np.empty(self.graph.n, dtype=np.complex128)
        out[self.perm] = x_perm
        return out

    def estimate_shift(self, delta_v: np.ndarray) -> np.ndarray:
        """Change in the estimate caused by a state perturbation, in bus order."""
        out = np.empty(self.graph.n, dtype=np.complex128)
        out[self.perm] = self.solve @ (self.h @ delta_v[self.perm])
        return out

    def residual(self, z: np.ndarray) -> float:
        """Bad-data detection statistic: least-squares residual of z against H.

        The detector uses the plain projection (no shift regularization), the
        statistic a residual-based test would monitor; measurements consistent
        with some state leave it untouched.
        """
        x_ls = np.linalg.lstsq(self.h, z, rcond=1e-10)[0]
        return float(np.linalg.norm(z - self.h @ x_ls))

