"""AC power flow: backward/forward sweep for radial feeders, Newton for meshed grids.

Injections are net complex power into the network in per-unit (loads negative).
The slack bus (root for distribution, first bus otherwise) holds 1+0j and
absorbs the balance.  Solutions satisfy the nodal power balance
S_n = v_n * conj((Y v)_n) at every non-slack bus to the stated tolerance.
Both solvers start from a given state, or from the flat profile 1+0j; a start
that fails is retried once from the flat profile.  What Newton needs of the
graph alone (free buses, conjugated admittance block, Jacobian diagonals) is
built once per series by `newton_setup` and passed as `setup=`; the sweep's
path matrices are cached on the graph.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .grid import DISTRIBUTION, GridGraph, build_admittance

MISMATCH_TOL = 1e-10
SWEEP_MAX_ITER = 300
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

    The solver starts from v0, whose slack entry must be 1+0j, or from the
    flat profile without v0; it does not write into v0.  If the start from v0
    does not converge, the solve is retried from the flat profile, whose
    failure is the one raised.  Newton takes its set-up from `setup`, a
    `newton_setup(graph, y)` record, or builds it once for both starts; the
    sweep needs none.
    """
    s_inj = np.asarray(s_inj, dtype=np.complex128)
    if s_inj.shape != (graph.n,):
        raise DimensionMismatch(f"expected {graph.n} injections, got {s_inj.shape}")
    y = build_admittance(graph) if y is None else y
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
    """Backward/forward sweep with the graph's path matrices (see GridGraph.path_matrices)."""
    sub, drop = graph.path_matrices
    v = np.ones(graph.n, dtype=np.complex128) if v0 is None else v0
    for sweeps in range(1, SWEEP_MAX_ITER + 1):
        v_new = drop @ (sub @ np.conj(s_inj / v))
        v_new += 1.0
        step = float(np.abs(v_new - v).max())
        v = v_new
        # One pass over |v| serves all three tests: a NaN part makes its
        # magnitude NaN, which fails both comparisons, and an infinite part
        # makes it infinite.
        mag = np.abs(v)
        if not (mag.min() >= 1e-6 and mag.max() <= VOLTAGE_DIVERGED):
            raise NoConvergence(sweeps, float("inf"))
        if step < 1e-13:
            break
    mism = nodal_mismatch(y, v, s_inj)
    mism[graph.pos(graph.slack_bus())] = 0.0
    worst = float(np.max(np.abs(mism)))
    if worst > tol:
        raise NoConvergence(sweeps, worst)
    return v


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
    free, y_free = setup.free, setup.y_free
    diag_ee, diag_ef, diag_fe, diag_ff = setup.diags
    m = len(free)
    s_free = s_inj[free]
    jac = np.empty((2 * m, 2 * m))
    flat = jac.reshape(-1)
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
        vy = v_free[:, None] * y_free
        jac[:m, :m] = vy.real
        jac[:m, m:] = vy.imag
        jac[m:, :m] = vy.imag
        np.negative(vy.real, out=jac[m:, m:])
        flat[diag_ee] += c.real
        flat[diag_ef] -= c.imag
        flat[diag_fe] += c.imag
        flat[diag_ff] += c.real
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
