"""AC power flow: backward/forward sweep for radial feeders, Newton for meshed grids.

Injections are net complex power into the network in per-unit (loads negative).
The slack bus (root for distribution, first bus otherwise) holds 1+0j and
absorbs the balance.  Solutions satisfy the nodal power balance
S_n = v_n * conj((Y v)_n) at every non-slack bus to the stated tolerance.
Both solvers start from a given state, or from the flat profile 1+0j; a start
that already balances is returned as it is, and a start that fails is retried
once from the flat profile.  What Newton needs of the graph alone (free buses,
conjugated admittance block, Jacobian diagonals) is built once per series by
`newton_setup` and passed as `setup=`; the sweep's path matrix (Teng's
direct-load-flow matrix) is cached on the graph.  A series of hours can be
solved as one [T, n] block, and each hour then certified by `solve_powerflow`
from the block's state, which costs one mismatch for an hour that settled.
On a feeder the block is swept from the flat profile (`sweep_hours`), one
[T, n] @ [n, n] product per sweep; a single hour is the block of one.  On a
meshed grid the block is stepped from one solved hour's state with that
hour's Jacobian, inverted once (`chord_hours`, the chord method of fast
decoupled load flow; Stott & Alsac, IEEE Trans. PAS, 1974).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoConvergence
from .grid import DISTRIBUTION, GridGraph, build_admittance

MISMATCH_TOL = 1e-10
SWEEP_MAX_ITER = 300
SWEEP_STEP_TOL = 1e-13      # an hour has settled once no voltage moves this much in a sweep
NEWTON_MAX_ITER = 40
VOLTAGE_DIVERGED = 5.0


def nodal_mismatch(y: np.ndarray, v: np.ndarray, s_inj: np.ndarray) -> np.ndarray:
    """Per-bus complex power balance error v * conj(Y v) - S."""
    return v * np.conj(y @ v) - s_inj


def solve_powerflow(
    graph: GridGraph,
    s_inj: np.ndarray,
    y: np.ndarray | None = None,
    tol: float = MISMATCH_TOL,
    v0: np.ndarray | None = None,
    setup: NewtonSetup | None = None,
) -> np.ndarray:
    """Bus voltage phasors for the given net injections (slack entry ignored).

    The solver starts from v0, n voltages whose slack entry must be exactly
    1+0j, or from the flat profile without v0; it does not write into v0.  A
    v0 of another shape is a DimensionMismatch, and one with another slack
    entry a ConfigError.  A v0 whose worst non-slack mismatch is already below
    `tol` is returned as it is, by either solver; a NaN start is not.  If the
    start from any other v0 does not converge, the solve is retried from the
    flat profile, whose failure is the one raised.  Newton takes its set-up
    from `setup`, a `newton_setup(graph, y)` record, or builds it once for
    both starts; the sweep needs none.
    """
    s_inj = np.asarray(s_inj, dtype=np.complex128)
    if s_inj.shape != (graph.n,):
        raise DimensionMismatch(f"expected {graph.n} injections, got {s_inj.shape}")
    y = build_admittance(graph) if y is None else y
    if v0 is not None:
        slack = graph.pos(graph.slack_bus())
        v0 = np.asarray(v0, dtype=np.complex128)
        if v0.shape != (graph.n,):
            raise DimensionMismatch(f"expected a start of {graph.n} voltages, got {v0.shape}")
        if v0[slack] != 1.0:
            raise ConfigError(f"the start's slack voltage must be 1+0j, got {v0[slack]}")
        mism = nodal_mismatch(y, v0, s_inj)
        mism[slack] = 0.0
        if np.abs(mism).max() < tol:
            return v0
    if graph.kind == DISTRIBUTION:
        solve = _sweep
    else:
        solve = functools.partial(_newton, setup=setup or newton_setup(graph, y))
    if v0 is not None:
        try:
            return solve(graph, s_inj, y, tol, v0)
        except NoConvergence:
            pass
    return solve(graph, s_inj, y, tol)


def _sweep(graph: GridGraph, s_inj: np.ndarray, y: np.ndarray, tol: float,
           v0: np.ndarray | None = None) -> np.ndarray:
    """One hour: the T = 1 case of `sweep_hours`, then the hour's mismatch check.

    It sweeps from any start, even one that already balances.
    """
    v, sweeps, step = sweep_hours(graph, s_inj[None], None if v0 is None else v0[None])
    if step[0] == np.inf:
        raise NoConvergence(int(sweeps[0]), float("inf"))
    v = v[0]
    mism = nodal_mismatch(y, v, s_inj)
    mism[graph.pos(graph.slack_bus())] = 0.0
    worst = float(np.abs(mism).max())
    if worst > tol:
        raise NoConvergence(int(sweeps[0]), worst)
    return v


def sweep_hours(graph: GridGraph, s: np.ndarray, v0: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward/forward sweeps over a [T, n] block of hours, one row per hour.

    Each sweep is one product `1 + conj(S / V) @ M` over the whole block with
    the graph's path matrix M (see GridGraph.path_matrices), Teng's
    direct-load-flow matrix taken as its transpose so that hours stay rows.
    The slack's row of M is zero, so the slack's column of S is ignored and
    the slack stays 1+0j.  A sweep runs in three complex and one real [T, n]
    buffers allocated once.  The block starts from v0, which is not written,
    or from the flat profile.
    Sweeping stops once no voltage of a live hour moved by SWEEP_STEP_TOL, or
    after SWEEP_MAX_ITER sweeps.  An hour diverges when one of its voltages
    leaves [1e-6, VOLTAGE_DIVERGED] or is not finite: it is reset to the flat
    profile and its currents to zero, so it stays there and drops out of the
    stop test.

    Returns the voltages [T, n], and per hour the sweeps run (up to the one it
    diverged in) and the last sweep's largest change, infinite for an hour
    that diverged.
    """
    dlf = graph.path_matrices
    v = np.ones(s.shape, dtype=np.complex128) if v0 is None else np.array(v0, dtype=np.complex128)
    cur = np.empty_like(v)
    nxt = np.empty_like(v)
    mag = np.empty(v.shape)
    diverged = np.zeros(len(s), dtype=bool)
    sweeps = np.zeros(len(s), dtype=np.int64)
    lost = False
    for k in range(1, SWEEP_MAX_ITER + 1):
        np.divide(s, v, out=cur)
        np.conjugate(cur, out=cur)
        if lost:
            cur[diverged] = 0.0
        np.matmul(cur, dlf, out=nxt)
        cur, nxt = nxt, cur
        cur += 1.0
        # One pass over |v| serves all three tests: a NaN part makes its
        # magnitude NaN, which fails both comparisons, and an infinite part
        # makes it infinite.  Hours are told apart only when one fails.
        np.abs(cur, out=mag)
        if not (mag.min() >= 1e-6 and mag.max() <= VOLTAGE_DIVERGED):
            fresh = mag.min(axis=1) >= 1e-6
            fresh &= mag.max(axis=1) <= VOLTAGE_DIVERGED
            np.logical_not(fresh, out=fresh)
            cur[fresh] = v[fresh] = 1.0
            sweeps[fresh] = k
            diverged |= fresh
            lost = True
        np.abs(np.subtract(cur, v, out=nxt), out=mag)
        v, cur = cur, v
        if mag.max() < SWEEP_STEP_TOL:
            break
    step = mag.max(axis=1)
    step[diverged] = np.inf
    sweeps[~diverged] = k
    return v, sweeps, step


@dataclass(frozen=True, eq=False)
class NewtonSetup:
    """What Newton needs of one series' graph and admittance, built once per series.

    `free` holds every bus position but the slack's, and `y_free` the
    conjugated admittance block over them.  `diags` slices the diagonals of
    the Jacobian's four m x m blocks, ee, ef, fe and ff, out of its flat
    view; they run at stride 2m + 1.  The arrays are read-only.
    """

    slack: int
    free: np.ndarray
    y_free: np.ndarray
    diags: tuple[slice, slice, slice, slice]


def newton_setup(graph: GridGraph, y: np.ndarray) -> NewtonSetup:
    """The per-series record that `solve_powerflow(..., setup=...)` takes."""
    n = graph.n
    slack = graph.pos(graph.slack_bus())
    free = np.delete(np.arange(n), slack)
    m = n - 1
    setup = NewtonSetup(
        slack=slack, free=free, y_free=np.conj(y[np.ix_(free, free)]),
        diags=tuple(slice(o, o + m * (2 * m + 1), 2 * m + 1)
                    for o in (0, m, 2 * m * m, 2 * m * m + m)))
    # Every hour of the series reads these; none may write them.
    for a in (setup.free, setup.y_free):
        a.flags.writeable = False
    return setup


def _fill_jacobian(jac: np.ndarray, setup: NewtonSetup, v_free: np.ndarray, c: np.ndarray) -> None:
    """Write the Jacobian at free-bus voltages v_free and conjugated currents c into jac."""
    m = len(v_free)
    flat = jac.reshape(-1)
    diag_ee, diag_ef, diag_fe, diag_ff = setup.diags
    vy = v_free[:, None] * setup.y_free
    jac[:m, :m] = vy.real
    jac[:m, m:] = vy.imag
    jac[m:, :m] = vy.imag
    np.negative(vy.real, out=jac[m:, m:])
    flat[diag_ee] += c.real
    flat[diag_ef] -= c.imag
    flat[diag_fe] += c.imag
    flat[diag_ff] += c.real


def chord_hours(y: np.ndarray, s: np.ndarray, v: np.ndarray,
                setup: NewtonSetup) -> tuple[np.ndarray, np.ndarray]:
    """Chord Newton over a [T, n] block of hours from one solved state v.

    The Jacobian at v, as `_newton` forms it, is inverted once; every hour
    starts from v and steps by -[Re, Im] mismatch @ J^-T.  The live hours
    iterate together: one [live, m] @ [m, m] product for the free-bus
    currents, where m = n - 1, and one [live, 2m] @ [2m, 2m] step per
    iteration, for at most NEWTON_MAX_ITER steps.  An hour settles once its
    worst free-bus mismatch is below MISMATCH_TOL.  It drops out unsettled
    once that mismatch is not finite or a voltage magnitude exceeds
    VOLTAGE_DIVERGED, and so does every hour still live after the budget,
    or every hour if the Jacobian is singular.  No hour raises.

    Returns the voltages [T, n], a settled hour's final state and v at the
    others, and the mask of settled hours.
    """
    free = setup.free
    m = len(free)
    states = np.repeat(v[None], len(s), axis=0)
    settled = np.zeros(len(s), dtype=bool)
    if not len(s):
        return states, settled
    jac = np.empty((2 * m, 2 * m))
    _fill_jacobian(jac, setup, v[free], np.conj((y @ v)[free]))
    try:
        gain = -np.linalg.inv(jac).T
    except np.linalg.LinAlgError:
        return states, settled
    # In the order of a complex array's float view, re and im of each bus
    # side by side, the step is one product and one complex addition.
    order = np.arange(2 * m).reshape(2, m).T.ravel()
    gain = gain[np.ix_(order, order)]
    y_t = y[np.ix_(free, free)].T
    from_slack = y[free, setup.slack] * v[setup.slack]
    done_v = states[:, free]                     # settled hours' free-bus states
    live = np.arange(len(s))
    vf = done_v.copy()
    sf = s[:, free]
    for it in range(NEWTON_MAX_ITER + 1):
        mism = vf * np.conj(vf @ y_t + from_slack) - sf
        worst = np.abs(mism).max(axis=1)
        done = worst < MISMATCH_TOL
        keep = ~done & np.isfinite(worst) & (np.abs(vf).max(axis=1) <= VOLTAGE_DIVERGED)
        if not keep.all():
            done_v[live[done]] = vf[done]
            settled[live[done]] = True
            live, vf, sf, mism = live[keep], vf[keep], sf[keep], mism[keep]
            if not len(live):
                break
        if it == NEWTON_MAX_ITER:
            break
        vf += (mism.view(np.float64) @ gain).view(np.complex128)
    states[:, free] = done_v
    return states, settled


def _newton(graph: GridGraph, s_inj: np.ndarray, y: np.ndarray, tol: float,
            v0: np.ndarray | None = None, setup: NewtonSetup | None = None) -> np.ndarray:
    """Newton-Raphson in rectangular coordinates with a backtracking line search.

    The Jacobian of S = v .* conj(Y v) with respect to (e, f) at the free buses is
    [[Re A, Re B], [Im A, Im B]] with A = diag(conj(I)) + diag(v) conj(Y) and
    B = j diag(conj(I)) - j diag(v) conj(Y), I = Y v.  Writing vy = diag(v) conj(Y)
    and c = conj(I), its blocks are vy's parts plus c's parts on the diagonals,
    filled into one matrix in place.  Without a `setup` record, one is built for
    this call.  The mismatch is kept at the free buses only; the accepted
    trial's free-bus voltages and currents, mismatch and worst mismatch carry
    over to the next iteration.
    """
    setup = newton_setup(graph, y) if setup is None else setup
    free = setup.free
    m = len(free)
    s_free = s_inj[free]
    jac = np.empty((2 * m, 2 * m))
    rhs = np.empty(2 * m)
    v = np.ones(graph.n, dtype=np.complex128) if v0 is None else v0
    v_free = v[free]
    c = np.conj((y @ v)[free])
    mism = v_free * c - s_free
    worst = float(np.abs(mism).max())
    for it in range(NEWTON_MAX_ITER):
        if not math.isfinite(worst) or np.abs(v).max() > VOLTAGE_DIVERGED:
            raise NoConvergence(it, float("inf"))
        if worst < tol:
            return v
        _fill_jacobian(jac, setup, v_free, c)
        np.negative(mism.real, out=rhs[:m])
        np.negative(mism.imag, out=rhs[m:])
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(it, worst) from exc
        step = delta[:m] + 1j * delta[m:]
        # Backtrack while the step worsens the balance; full steps resume near the
        # solution.  A full step adds `step` itself, which differs from 1.0 * step
        # at most in the sign of a zero part and in a non-finite part.  `worst` is
        # finite here, so a NaN or infinite trial fails the comparison.
        scale = 1.0
        for _ in range(8):
            trial_free = v_free + (step if scale == 1.0 else scale * step)
            trial = v.copy()
            trial[free] = trial_free
            trial_c = np.conj((y @ trial)[free])
            trial_mism = trial_free * trial_c - s_free
            trial_worst = float(np.abs(trial_mism).max())
            if trial_worst < worst:
                break
            scale *= 0.5
        else:
            raise NoConvergence(it + 1, worst)
        v, v_free, c, mism, worst = trial, trial_free, trial_c, trial_mism, trial_worst
    raise NoConvergence(NEWTON_MAX_ITER, worst)
