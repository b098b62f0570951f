"""State estimation feeding the learning pipeline.

Two measurement systems are modeled.  Smart-meter (AMI) buses report net
active/reactive injection and voltage magnitude; the state is recovered by a
damped Gauss-Newton descent on a weighted least-squares cost with a quadratic
regularizer.  Only the metered buses and their neighbors enter the
measurements; every other coordinate is set by the regularizer alone, in
closed form, and decays toward 0 from the flat start.  What depends only on
the graph and the meters is built once per series by `ami_setup`; the hourly
calls `measure_ami(setup, v, sigma, rng)` and `estimate_ami(setup, z)` take
that record.  Phasor-unit (PMU) buses report complex current injections and
voltages; the state follows in closed form from a shift-regularized
pseudoinverse.  Both estimators return the full bus-ordered phasor vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoConvergence
from .grid import DISTRIBUTION, GridGraph, build_admittance, build_gso

GN_MAX_ITER = 50
GN_STEP_TOL = 1e-9
GN_LAMBDA = 1e-3
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


@dataclass(frozen=True, eq=False)
class AmiSetup:
    """What the AMI estimator needs of one series' graph and meters, built once per series.

    `idx` holds the metered bus positions and `vis` the visible ones (the
    metered buses and their neighbors), `loc` the metered buses' places in
    `vis` and `yc_a` their conjugated admittance rows over `vis`.  `free`
    selects the columns of [e_vis, f_vis] that Gauss-Newton moves: all but
    the slack's imaginary part, the gauge, when the slack is visible.  `cols`
    are the state coordinates of `free` in [e, f], and `hidden` the
    coordinates outside `cols` and the gauge.  All arrays but the caller's
    `y` are read-only.
    """

    n: int
    y: np.ndarray
    idx: np.ndarray
    vis: np.ndarray
    loc: np.ndarray
    yc_a: np.ndarray
    free: np.ndarray
    cols: np.ndarray
    hidden: np.ndarray


def ami_setup(graph: GridGraph, ami_buses: tuple[int, ...],
              y: np.ndarray | None = None) -> AmiSetup:
    """The per-series record that `measure_ami` and `estimate_ami` take."""
    y = build_admittance(graph) if y is None else y
    n = graph.n
    idx = np.array([graph.pos(b) for b in ami_buses])
    seen = np.any(y[idx] != 0, axis=0)
    seen[idx] = True
    vis = np.flatnonzero(seen)
    k = len(vis)
    # Injections and magnitudes cannot see a global rotation; pin the angle
    # reference by freezing the slack bus imaginary part at zero, seen or not.
    slack = graph.pos(graph.slack_bus())
    free = np.arange(2 * k)
    if seen[slack]:
        free = np.delete(free, k + int(np.searchsorted(vis, slack)))
    cols = np.concatenate([vis, n + vis])[free]
    hidden = np.ones(2 * n, dtype=bool)
    hidden[cols] = False
    hidden[n + slack] = False
    setup = AmiSetup(n=n, y=y, idx=idx, vis=vis, loc=np.searchsorted(vis, idx),
                     yc_a=np.conj(y[np.ix_(idx, vis)]), free=free, cols=cols,
                     hidden=np.flatnonzero(hidden))
    # Every hour of the series reads these; none may write them.
    for a in (setup.idx, setup.vis, setup.loc, setup.yc_a, setup.free, setup.cols, setup.hidden):
        a.flags.writeable = False
    return setup


def measure_ami(
    setup: AmiSetup,
    v: np.ndarray,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Stacked [P_a, Q_a, |v|_a] at the metered buses, with optional Gaussian noise."""
    idx = setup.idx
    s = v * np.conj(setup.y @ v)
    z = np.concatenate([s[idx].real, s[idx].imag, np.abs(v[idx])])
    if sigma > 0:
        if rng is None:
            raise ConfigError("rng required when sigma > 0")
        z = z + sigma * rng.standard_normal(z.shape)
    return z


def _ami_h(yc_a: np.ndarray, v: np.ndarray, loc: np.ndarray) -> np.ndarray:
    """Stacked [P_a, Q_a, |v|_a] the state v implies at the metered buses.

    yc_a holds the conjugated admittance rows of the metered buses over v's
    buses, and loc the metered buses' own positions in v.
    """
    v_a = v[loc]
    s = v_a * (yc_a @ np.conj(v))
    return np.concatenate([s.real, s.imag, np.abs(v_a)])


def _ami_h_and_jac(yc_a: np.ndarray, v: np.ndarray, loc: np.ndarray):
    """h and its Jacobian in (e, f) = (Re v, Im v) over v's buses; arguments as in `_ami_h`."""
    k = len(v)
    m = len(loc)
    v_a = v[loc]
    i_conj = yc_a @ np.conj(v)
    s = v_a * i_conj
    vmag = np.abs(v_a)
    h = np.concatenate([s.real, s.imag, vmag])

    # dS_a/de = diag(conj i_a) + v_a conj(Y_a), dS_a/df = j diag(conj i_a) - j v_a conj(Y_a);
    # the diagonal terms sit at (row r, column loc[r]).
    rows = np.arange(m)
    vy = v_a[:, None] * yc_a
    ds_de = vy.copy()
    ds_de[rows, loc] += i_conj
    ds_df = -1j * vy
    ds_df[rows, loc] += 1j * i_conj
    jac = np.zeros((3 * m, 2 * k))
    jac[:m, :k] = ds_de.real
    jac[:m, k:] = ds_df.real
    jac[m:2 * m, :k] = ds_de.imag
    jac[m:2 * m, k:] = ds_df.imag
    safe = np.where(vmag > 1e-12, vmag, 1.0)
    jac[rows + 2 * m, loc] = v_a.real / safe
    jac[rows + 2 * m, k + loc] = v_a.imag / safe
    return h, jac


def estimate_ami(setup: AmiSetup, z: np.ndarray, info: bool = False):
    """Minimize ||z - h(v)||^2 + GN_LAMBDA * ||[e; f]||^2 from a flat start.

    h sees only the visible buses: the metered ones and their neighbors.  The
    Gauss-Newton normal equations are solved on their columns alone.  Every
    other coordinate sees only GN_LAMBDA * x^2, so its step is exactly -x; it
    is set in closed form.  Steps halve on cost increase; iteration stops when
    the step norm drops below GN_STEP_TOL or the budget runs out, returning
    the last iterate.  With `info`, the iteration count and the residual norm
    and objective at the returned state come along.
    """
    n, idx, vis, loc, yc_a = setup.n, setup.idx, setup.vis, setup.loc, setup.yc_a
    free, cols, hidden = setup.free, setup.cols, setup.hidden
    if z.shape != (3 * len(idx),):
        raise DimensionMismatch(f"expected {3 * len(idx)} measurements, got {z.shape}")

    v = np.ones(n, dtype=np.complex128)

    def cost(vec):
        split = np.concatenate([vec.real, vec.imag])
        return float(((z - _ami_h(yc_a, vec[vis], loc)) ** 2).sum() + GN_LAMBDA * (split ** 2).sum())

    current = cost(v)
    iterations = 0
    for iterations in range(1, GN_MAX_ITER + 1):
        h, jac = _ami_h_and_jac(yc_a, v[vis], loc)
        split = np.concatenate([v.real, v.imag])
        # Normal equations of the stacked system [J; sqrt(GN_LAMBDA) I] on the
        # free visible columns: J^T J + GN_LAMBDA I.
        j_free = jac[:, free]
        r = z - h
        normal = j_free.T @ j_free
        normal.reshape(-1)[::len(free) + 1] += GN_LAMBDA     # its diagonal, as a strided view
        reduced = np.linalg.solve(normal, j_free.T @ r - GN_LAMBDA * split[cols])
        step = np.zeros(2 * n)
        step[hidden] = -split[hidden]
        if not np.isfinite(reduced).all():
            raise NoConvergence(iterations, float("inf"))
        step[cols] = reduced
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
        r = z - _ami_h(np.conj(setup.y[idx]), v, idx)
        split = np.concatenate([v.real, v.imag])
        objective = float(np.sum(r ** 2) + GN_LAMBDA * np.sum(split ** 2))
        return v, {"iterations": iterations, "residual": float(np.linalg.norm(r)),
                   "cost": objective}
    return v


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

