"""State estimation feeding the learning pipeline.

Two measurement systems are modeled.  Smart-meter (AMI) buses report net
active/reactive injection and voltage magnitude; the state is recovered by a
damped Gauss-Newton descent on a weighted least-squares cost with a quadratic
regularizer.  Only the metered buses and their neighbors enter the
measurements; every other coordinate is set by the regularizer alone, in
closed form, and decays toward 0 from the flat start.  What depends only on
the graph and the meters is built once per series by `ami_setup`;
`measure_ami(setup, v, sigma, rng)` takes that record for one hour, and
`estimate_ami(setup, z)` for a whole series of hours, z [T, 3m] -> [T, n].
Each hour is estimated on its own, but blocks of hours share every numpy
call of an iteration, with each hour's result bit for bit that of a
single-hour run.  Every hour starts from the flat profile, so the first
step's h, Jacobian and normal matrix are built once per series and shared
by every hour; each hour still solves for its own step.  Phasor-unit (PMU)
buses report complex current injections and voltages; the state follows in
closed form from a shift-regularized pseudoinverse.  Both estimators return the full bus-ordered phasor vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoConvergence
from .grid import DISTRIBUTION, GridGraph, build_admittance, build_gso

GN_MAX_ITER = 50
GN_STEP_TOL = 1e-9
GN_LAMBDA = 1e-3
AMI_BLOCK = 6            # hours per stacked Gauss-Newton: faster when larger, but more memory
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
    the slack's imaginary part, the gauge, when the slack is visible.
    `gauge` is the slack's place in `vis`, or len(vis) when it is unseen.
    `cols` are the state coordinates of `free` in [e, f], and `hidden` the
    coordinates outside `cols` and the gauge.  The metered rows `f_rows`
    (all but a metered slack) have their d|v|/df entry at column `f_cols` of
    the free Jacobian.  All arrays but the caller's `y` are read-only.
    """

    n: int
    y: np.ndarray
    idx: np.ndarray
    vis: np.ndarray
    loc: np.ndarray
    yc_a: np.ndarray
    free: np.ndarray
    gauge: int
    cols: np.ndarray
    hidden: np.ndarray
    f_rows: np.ndarray
    f_cols: np.ndarray


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
    gauge = int(np.searchsorted(vis, slack)) if seen[slack] else k
    free = np.delete(np.arange(2 * k), k + gauge) if seen[slack] else np.arange(2 * k)
    cols = np.concatenate([vis, n + vis])[free]
    hidden = np.ones(2 * n, dtype=bool)
    hidden[cols] = False
    hidden[n + slack] = False
    loc = np.searchsorted(vis, idx)
    f_rows = np.flatnonzero(loc != gauge)
    setup = AmiSetup(n=n, y=y, idx=idx, vis=vis, loc=loc,
                     yc_a=np.conj(y[np.ix_(idx, vis)]), free=free, gauge=gauge, cols=cols,
                     hidden=np.flatnonzero(hidden), f_rows=f_rows,
                     f_cols=k + loc[f_rows] - (loc[f_rows] > gauge))
    # Every hour of the series reads these; none may write them.
    for a in (setup.idx, setup.vis, setup.loc, setup.yc_a, setup.free, setup.cols, setup.hidden,
              setup.f_rows, setup.f_cols):
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
    """Stacked [P_a, Q_a, |v|_a] the states v [..., k] imply at the metered buses.

    yc_a holds the conjugated admittance rows of the metered buses over v's
    buses, and loc the metered buses' own positions in v.  The currents are
    one matrix-vector product per state, as for a single state.
    """
    v_a = v[..., loc]
    s = v_a * (yc_a @ np.conj(v)[..., None])[..., 0]
    return np.concatenate([s.real, s.imag, np.abs(v_a)], axis=-1)


def _ami_cost(setup: AmiSetup, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The objective of `estimate_ami` at states v [..., n] against measurements z [..., 3m]."""
    split = np.concatenate([v.real, v.imag], axis=-1)
    h = _ami_h(setup.yc_a, v[..., setup.vis], setup.loc)
    return ((z - h) ** 2).sum(axis=-1) + GN_LAMBDA * (split ** 2).sum(axis=-1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Each row's 2-norm as `np.linalg.norm` takes a vector's: the root of one BLAS dot."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _ami_h_and_jac(setup: AmiSetup, v: np.ndarray):
    """h and its Jacobian on the free columns at states v [b, k] of the visible buses.

    The Jacobian [b, 3m, len(setup.free)] is a view of its transpose, which
    is C-ordered: each hour's Jacobian is column-major, so J^T J and J^T r
    take the BLAS calls, and round as, a single hour's column-major Jacobian
    does.  Its blocks are written in place; no full-width Jacobian is formed.
    dS_a/de = diag(conj i_a) + v_a conj(Y_a) and dS_a/df = j diag(conj i_a)
    - j v_a conj(Y_a); the diagonal terms sit at (row r, column loc[r]).
    """
    yc_a, loc, g = setup.yc_a, setup.loc, setup.gauge
    m, k = yc_a.shape
    v_a = v[:, loc]
    i_conj = (yc_a @ np.conj(v)[:, :, None])[:, :, 0]
    s = v_a * i_conj
    vmag = np.abs(v_a)
    h = np.concatenate([s.real, s.imag, vmag], axis=1)

    rows = np.arange(m)
    ds = v_a[:, :, None] * yc_a
    ds_df = -1j * ds
    ds_df[:, rows, loc] += 1j * i_conj
    ds[:, rows, loc] += i_conj              # now dS_a/de
    jac = np.zeros((len(v), len(setup.free), 3 * m)).transpose(0, 2, 1)
    jac[:, :m, :k] = ds.real
    jac[:, m:2 * m, :k] = ds.imag
    # The f columns skip the gauge, vis position g (g = k when the slack is unseen).
    jac[:, :m, k:k + g] = ds_df.real[:, :, :g]
    jac[:, :m, k + g:] = ds_df.real[:, :, g + 1:]
    jac[:, m:2 * m, k:k + g] = ds_df.imag[:, :, :g]
    jac[:, m:2 * m, k + g:] = ds_df.imag[:, :, g + 1:]
    safe = np.where(vmag > 1e-12, vmag, 1.0)
    jac[:, rows + 2 * m, loc] = v_a.real / safe
    jac[:, setup.f_rows + 2 * m, setup.f_cols] = (v_a.imag / safe)[:, setup.f_rows]
    return h, jac


def _ami_normal(setup: AmiSetup, v: np.ndarray):
    """h, J^T and J^T J + GN_LAMBDA I at states v [b, k] of the visible buses:
    the normal equations of the stacked system [J; sqrt(GN_LAMBDA) I] on the
    free visible columns."""
    h, jac = _ami_h_and_jac(setup, v)
    jt = jac.transpose(0, 2, 1)
    normal = jt @ jac
    normal.reshape(len(v), -1)[:, ::len(setup.free) + 1] += GN_LAMBDA   # the diagonals
    return h, jt, normal


def estimate_ami(setup: AmiSetup, z: np.ndarray, info: bool = False):
    """Per hour of z [T, 3m], minimize ||z_t - h(v)||^2 + GN_LAMBDA * ||[e; f]||^2 from a flat start.

    h sees only the visible buses: the metered ones and their neighbors.  The
    Gauss-Newton normal equations are solved on their columns alone.  Every
    other coordinate sees only GN_LAMBDA * x^2, so its step is exactly -x; it
    is set in closed form.  Steps halve on cost increase, up to 12 times;
    iteration stops when the step norm drops below GN_STEP_TOL or the budget
    runs out, returning the last iterate.  No hour depends on another, so they run
    AMI_BLOCK at a time: each iteration stacks the block's unfinished hours
    into one Jacobian, one normal-equation product and one solve, and costs
    every halving of the rejected steps at once (step * 0.5**k is exactly k
    halvings).  Every hour's first iteration is at the flat start, all ones,
    so its h, Jacobian and normal matrix are built once per series, before
    the first block, and broadcast over each block's hours; each hour's step
    is still its own solve.  An hour leaves the stack when its step norm is
    below GN_STEP_TOL.  Every hour's estimate is bit for bit that of a loop
    over hours.  A non-finite step or cost raises NoConvergence for the
    earliest such hour, after the other hours of its block are finished.
    Returns [T, n]; with `info`, the per-hour iteration counts, and residual
    norms and objectives at the returned states, come along as arrays.
    """
    n, vis, cols, hidden = setup.n, setup.vis, setup.cols, setup.hidden
    m = len(setup.idx)
    if z.ndim != 2 or z.shape[1] != 3 * m:
        raise DimensionMismatch(f"expected [T, {3 * m}] measurements, got {z.shape}")
    t_total = len(z)
    states = np.ones((t_total, n), dtype=np.complex128)
    iterations = np.zeros(t_total, dtype=np.int64)
    halve = 0.5 ** np.arange(1, 13)
    # the first iteration's terms at the flat start, shared by every hour
    flat = _ami_normal(setup, np.ones((1, len(vis)), dtype=np.complex128))
    for t0 in range(0, t_total, AMI_BLOCK):
        v = states[t0:t0 + AMI_BLOCK]               # the block's rows, updated in place
        zb = z[t0:t0 + AMI_BLOCK]
        current = _ami_cost(setup, zb, v)
        active = np.arange(len(v))
        failed = np.zeros(len(v), dtype=np.int64)     # the iteration an hour failed at
        for it in range(1, GN_MAX_ITER + 1):
            if not len(active):
                break
            iterations[t0 + active] = it
            va, za = v[active], zb[active]
            h, jt, normal = flat if it == 1 else _ami_normal(setup, va[:, vis])
            split = np.concatenate([va.real, va.imag], axis=1)
            rhs = (jt @ (za - h)[:, :, None])[:, :, 0] - GN_LAMBDA * split[:, cols]
            reduced = np.linalg.solve(normal, rhs[:, :, None])[:, :, 0]
            del jt, normal, rhs       # not held through the halvings below
            step = np.zeros((len(active), 2 * n))
            step[:, hidden] = -split[:, hidden]
            step[:, cols] = reduced
            trial = va + step[:, :n] + 1j * step[:, n:]
            trial_cost = _ami_cost(setup, za, trial)
            up = np.flatnonzero(trial_cost > current[active])
            if len(up):
                # Every halving of every rejected step; the first that does not
                # raise the cost is taken, the 12th if all do.
                tries = step[up, None, :] * halve[:, None]
                moves = va[up, None] + tries[:, :, :n] + 1j * tries[:, :, n:]
                costs = _ami_cost(setup, za[up, None], moves)
                stop = ~(costs > current[active[up], None])
                stop[:, -1] = True
                pick = stop.argmax(axis=1)
                step[up] = tries[np.arange(len(up)), pick]
                trial[up] = moves[np.arange(len(up)), pick]
                trial_cost[up] = costs[np.arange(len(up)), pick]
                del tries, moves, costs
            bad = ~np.isfinite(reduced).all(axis=1) | ~np.isfinite(trial_cost)
            failed[active[bad]] = it
            take = ~bad & (trial_cost <= current[active])
            v[active[take]] = trial[take]
            current[active[take]] = trial_cost[take]
            active = active[~bad & ~(_row_norms(step) < GN_STEP_TOL)]
        if failed.any():
            raise NoConvergence(int(failed[failed > 0][0]), float("inf"))
    if info:
        r = z - _ami_h(np.conj(setup.y[setup.idx]), states, setup.idx)
        split = np.concatenate([states.real, states.imag], axis=1)
        objective = (r ** 2).sum(axis=1) + GN_LAMBDA * (split ** 2).sum(axis=1)
        return states, {"iterations": iterations, "residual": _row_norms(r),
                        "cost": objective}
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

