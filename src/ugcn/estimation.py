"""State estimation feeding the learning pipeline.

Two measurement systems are modeled.  Smart-meter (AMI) buses report net
active/reactive injection and voltage magnitude.  The state is a weighted
least-squares fit over every bus, with the slack held at 1∠0: the rows are
P and Q at every other bus and |v| at every metered one.  An unmetered bus's
P and Q are pseudo-injections of low weight, its planning load's share of
what the meters measure in total (load allocation, Baran & Kelley 1994).
The fit runs at a fixed gain (Monticelli 1999): the Jacobian at the flat
profile is formed and factored once per series by `ami_setup`, and every
hour iterates from the flat profile with it.  `measure_ami(setup, v, sigma,
rng)` measures a series, [T, n] -> [T, 3m], and `estimate_ami(setup, z)`
estimates one, [T, 3m] -> [T, n].  Phasor-unit (PMU) buses report complex
current injections and voltages; the state follows in closed form from a
shift-regularized pseudoinverse.  Both estimators return the full
bus-ordered phasor vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoConvergence
from .grid import DISTRIBUTION, GridGraph, build_admittance, build_gso

GN_MAX_ITER = 50
GN_STEP_TOL = 1e-9
AMI_BLOCK = 48           # hours iterated together: faster when larger, but more memory
PSEUDO_WEIGHT = 0.3      # WLS weight of a pseudo-injection; a metered reading has 1
Q_PER_P = 0.48           # reactive over active load where none is given: ~0.9 power factor
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
# AMI scenario: fixed-gain weighted least squares with pseudo-injections


def planning_loads(graph: GridGraph,
                   base_loads: dict[int, complex]) -> tuple[np.ndarray, np.ndarray]:
    """Each bus's planning load P + jQ in bus order, and a mask of the buses
    `base_loads` lacks (those an op added).  They get the median of the
    positive P loads, 0.01 if there are none, and Q_PER_P of it as Q."""
    known_p = [abs(load.real) for load in base_loads.values() if load.real > 0]
    fill = float(np.median(known_p)) if known_p else 0.01
    added = np.array([b not in base_loads for b in graph.bus_ids])
    loads = np.array([base_loads.get(b, complex(fill, Q_PER_P * fill)) for b in graph.bus_ids],
                     dtype=np.complex128)
    return loads, added


@dataclass(frozen=True, eq=False)
class AmiSetup:
    """What the AMI estimator needs of one series' graph, meters and planning loads.

    `idx` holds the metered bus positions, `free` every position but the
    slack's, and `vm` the positions of the metered buses other than the
    slack.  The estimator's rows are P and Q at every bus of `free`, then |v|
    at `vm`: an hour's target over them is its measurements `@ spread`, and
    its step is the residual `@ gain`, over [e, f] at `free`.  All arrays but
    the caller's `y` are read-only.
    """

    y: np.ndarray
    idx: np.ndarray
    free: np.ndarray
    vm: np.ndarray
    spread: np.ndarray
    gain: np.ndarray


def ami_setup(graph: GridGraph, ami_buses: tuple[int, ...], base_loads: dict[int, complex],
              y: np.ndarray | None = None) -> AmiSetup:
    """The per-series record that `measure_ami` and `estimate_ami` take.

    A metered bus's P, Q and |v| are rows of weight 1; an unmetered bus's P
    and Q are pseudo-injections of weight PSEUDO_WEIGHT: its planning load's
    share of the metered buses' planning loads, times their measured sum.
    The slack is held at 1∠0, so its own readings are not used.  The gain
    K^T = W J0 (J0^T W J0)^-1 comes from the Jacobian J0 at the flat profile.
    """
    y = build_admittance(graph) if y is None else y
    slack = graph.pos(graph.slack_bus())
    idx = np.array([graph.pos(b) for b in ami_buses])
    free = np.delete(np.arange(graph.n), slack)
    k = len(free)
    cols = np.flatnonzero(idx != slack)          # the metered readings used, in z's P block
    at = np.searchsorted(free, idx[cols])        # their buses' places in free
    pseudo = np.ones(k, dtype=bool)
    pseudo[at] = False
    m = len(idx)
    load = planning_loads(graph, base_loads)[0][free]
    spread = np.zeros((3 * m, 2 * k + len(at)))
    spread[cols, at] = spread[m + cols, k + at] = spread[2 * m + cols, 2 * k + np.arange(len(at))] = 1
    spread[np.ix_(cols, np.flatnonzero(pseudo))] = load.real[pseudo] / load.real[at].sum()
    spread[np.ix_(m + cols, k + np.flatnonzero(pseudo))] = load.imag[pseudo] / load.imag[at].sum()

    # dS/de = diag(conj i) + diag(v) conj(Y) and dS/df = j diag(conj i) - j diag(v) conj(Y),
    # at v = 1 with i = Y 1; d|v|/de = 1 and d|v|/df = 0.
    yc = np.conj(y[np.ix_(free, free)])
    ic = np.diag(np.conj(y[free].sum(axis=1)))
    ds = np.hstack([ic + yc, 1j * (ic - yc)])
    jac = np.vstack([ds.real, ds.imag, np.eye(2 * k)[at]])
    jtw = jac.T * np.where(np.concatenate([pseudo, pseudo, np.zeros(len(at), bool)]),
                           PSEUDO_WEIGHT, 1.0)
    setup = AmiSetup(y=y, idx=idx, free=free, vm=free[at], spread=spread,
                     gain=np.linalg.solve(jtw @ jac, jtw).T)
    # Every hour of the series reads these; none may write them.
    for a in (setup.idx, setup.free, setup.vm, setup.spread, setup.gain):
        a.flags.writeable = False
    return setup


def measure_ami(
    setup: AmiSetup,
    v: np.ndarray,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Stacked [P_a, Q_a, |v|_a] at the metered buses for states v [..., n],
    [T, n] -> [T, 3m] in one product, with optional Gaussian noise."""
    idx = setup.idx
    v_a = v[..., idx]
    s = v_a * np.conj(v @ setup.y[idx].T)
    z = np.concatenate([s.real, s.imag, np.abs(v_a)], axis=-1)
    if sigma > 0:
        if rng is None:
            raise ConfigError("rng required when sigma > 0")
        z = z + sigma * rng.standard_normal(z.shape)
    return z


def estimate_ami(setup: AmiSetup, z: np.ndarray) -> np.ndarray:
    """Per hour of z [T, 3m], the fixed-gain WLS estimate [T, n] from the flat profile.

    Every hour iterates x <- x + (target - h(x)) K^T over the [e, f] of the
    non-slack buses, with the target and K^T of `ami_setup`, and stops when
    its step norm is below GN_STEP_TOL.  No hour depends on another, so the
    unfinished hours of a block of AMI_BLOCK run together: h takes one
    [b, n] @ [n, n] product, and the step one [b, rows] @ [rows, 2n - 2].
    The slack stays exactly 1+0j.  An hour whose step is not finite, or
    still above GN_STEP_TOL after GN_MAX_ITER iterations, raises
    NoConvergence for the earliest such hour, after the other hours of its
    block are finished.
    """
    free, vm, gain = setup.free, setup.vm, setup.gain
    k = len(free)
    m = len(setup.idx)
    if z.ndim != 2 or z.shape[1] != 3 * m:
        raise DimensionMismatch(f"expected [T, {3 * m}] measurements, got {z.shape}")
    states = np.ones((len(z), len(setup.y)), dtype=np.complex128)
    yt = setup.y.T
    for t0 in range(0, len(z), AMI_BLOCK):
        v = states[t0:t0 + AMI_BLOCK]               # the block's rows, updated in place
        target = z[t0:t0 + AMI_BLOCK] @ setup.spread
        active = np.arange(len(v))
        failed = {}                                 # hour in block: (iterations, step norm)
        for it in range(1, GN_MAX_ITER + 1):
            va = v[active]
            s = va[:, free] * np.conj(va @ yt)[:, free]
            r = target[active] - np.concatenate([s.real, s.imag, np.abs(va[:, vm])], axis=1)
            step = r @ gain
            va[:, free] += step[:, :k] + 1j * step[:, k:]
            v[active] = va
            norm = np.linalg.norm(step, axis=1)
            failed.update((h, (it, float("inf"))) for h in active[~np.isfinite(norm)])
            moving = np.isfinite(norm) & (norm >= GN_STEP_TOL)
            active, norm = active[moving], norm[moving]
            if not len(active):
                break
        failed.update((h, (GN_MAX_ITER, float(d))) for h, d in zip(active, norm))
        if failed:
            hour = min(failed)
            raise NoConvergence(*failed[hour], f"AMI estimate of hour {t0 + hour}")
    return states


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
        y: np.ndarray | None = None,
    ) -> "PmuOperator":
        y = build_admittance(graph) if y is None else y
        a_pos = [graph.pos(b) for b in pmu_buses]
        u_pos = [i for i in range(graph.n) if i not in set(a_pos)]
        perm = np.array(a_pos + u_pos)
        m = len(a_pos)
        h = np.zeros((2 * m, graph.n), dtype=np.complex128)
        h[:m, :] = y[np.ix_(a_pos, perm)]
        h[m:, :m] = np.eye(m)
        s_perm = build_gso(y)[np.ix_(perm, perm)]
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
                raise ConfigError("rng required when sigma > 0")
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

