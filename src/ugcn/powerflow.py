"""AC power flow: backward/forward sweep for radial feeders, Newton for meshed grids.

Injections are net complex power into the network in per-unit (loads negative).
The slack bus (root for distribution, first bus otherwise) holds 1+0j and
absorbs the balance.  Solutions satisfy the nodal power balance
S_n = v_n * conj((Y v)_n) at every non-slack bus to the stated tolerance.
Both solvers start from a given state, or from the flat profile 1+0j; a start
that fails is retried once from the flat profile.
"""

from __future__ import annotations

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
) -> np.ndarray:
    """Bus voltage phasors for the given net injections (slack entry ignored).

    The solver starts from v0, whose slack entry must be 1+0j, or from the
    flat profile without v0; it does not write into v0.  If the start from v0
    does not converge, the solve is retried from the flat profile, whose
    failure is the one raised.
    """
    s_inj = np.asarray(s_inj, dtype=np.complex128)
    if s_inj.shape != (graph.n,):
        raise DimensionMismatch(f"expected {graph.n} injections, got {s_inj.shape}")
    y = build_admittance(graph) if y is None else y
    solve = _sweep if graph.kind == DISTRIBUTION else _newton
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
        v_new = 1.0 + drop @ (sub @ np.conj(s_inj / v))
        step = float(np.max(np.abs(v_new - v)))
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


def _newton(graph: GridGraph, s_inj: np.ndarray, y: np.ndarray, tol: float,
            v0: np.ndarray | None = None) -> np.ndarray:
    """Newton-Raphson in rectangular coordinates with a backtracking line search.

    The Jacobian of S = v .* conj(Y v) with respect to (e, f) at the free buses is
    [[Re A, Re B], [Im A, Im B]] with A = diag(conj(I)) + diag(v) conj(Y) and
    B = j diag(conj(I)) - j diag(v) conj(Y), I = Y v.  Writing vy = diag(v) conj(Y)
    and c = conj(I), its blocks are vy's parts plus c's parts on the diagonals,
    filled into one matrix in place.  The mismatch is kept at the free buses only;
    the accepted trial's current, mismatch and worst mismatch carry over to the
    next iteration.
    """
    n = graph.n
    slack = graph.pos(graph.slack_bus())
    free = np.delete(np.arange(n), slack)
    m = len(free)
    y_free = np.conj(y[np.ix_(free, free)])
    s_free = s_inj[free]
    jac = np.empty((2 * m, 2 * m))
    # The diagonals of jac's four m x m blocks run at stride 2m + 1 through its flat view.
    flat = jac.reshape(-1)
    diag_ee, diag_ef, diag_fe, diag_ff = (slice(o, o + m * (2 * m + 1), 2 * m + 1)
                                          for o in (0, m, 2 * m * m, 2 * m * m + m))
    v = np.ones(n, dtype=np.complex128) if v0 is None else v0
    i_conj = np.conj(y @ v)
    mism = v[free] * i_conj[free] - s_free
    worst = float(np.max(np.abs(mism)))
    for it in range(NEWTON_MAX_ITER):
        if not np.isfinite(worst) or np.max(np.abs(v)) > VOLTAGE_DIVERGED:
            raise NoConvergence(it, float("inf"))
        if worst < tol:
            return v
        vy = v[free, None] * y_free
        c = i_conj[free]
        jac[:m, :m] = vy.real
        jac[:m, m:] = vy.imag
        jac[m:, :m] = vy.imag
        np.negative(vy.real, out=jac[m:, m:])
        flat[diag_ee] += c.real
        flat[diag_ef] -= c.imag
        flat[diag_fe] += c.imag
        flat[diag_ff] += c.real
        rhs = np.concatenate([-mism.real, -mism.imag])
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(it, worst) from exc
        step = delta[:m] + 1j * delta[m:]
        # Backtrack while the step worsens the balance; full steps resume near the solution.
        scale = 1.0
        for _ in range(8):
            trial = v.copy()
            trial[free] += scale * step
            trial_conj = np.conj(y @ trial)
            trial_mism = trial[free] * trial_conj[free] - s_free
            trial_worst = float(np.max(np.abs(trial_mism)))
            if np.isfinite(trial_worst) and trial_worst < worst:
                break
            scale *= 0.5
        else:
            raise NoConvergence(it + 1, worst)
        v, i_conj, mism, worst = trial, trial_conj, trial_mism, trial_worst
    raise NoConvergence(NEWTON_MAX_ITER, worst)
