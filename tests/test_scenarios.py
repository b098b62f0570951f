"""Power flow physics, estimation, profiles, and feature windows."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree
from ugcn.caseio import load_case, to_grid_graph
from ugcn.errors import (
    ConfigError,
    DimensionMismatch,
    MissingCell,
    NoConvergence,
    WindowOutOfRange,
)
from ugcn.estimation import (
    AMI_BLOCK,
    GN_LAMBDA,
    GN_MAX_ITER,
    GN_STEP_TOL,
    PmuOperator,
    _ami_h,
    _ami_h_and_jac,
    ami_placement,
    ami_setup,
    estimate_ami,
    fdi_sensor_count,
    measure_ami,
    pmu_placement,
)
from ugcn.grid import Branch, GridGraph, build_admittance
from ugcn.powerflow import (
    MISMATCH_TOL,
    NEWTON_MAX_ITER,
    SWEEP_MAX_ITER,
    VOLTAGE_DIVERGED,
    _newton,
    _sweep,
    newton_setup,
    nodal_mismatch,
    solve_powerflow,
)
from ugcn.reconfig import AugmentConfig, augment
from ugcn.scenarios import (
    ProfileSet,
    ScenarioConfig,
    build_features,
    build_scenario,
    feature_window,
    synth_profiles,
)


def case_injections(name, graph):
    loads = load_case(name).loads_pu()
    s = -np.array([loads[b] for b in graph.bus_ids])
    s[graph.pos(graph.slack_bus())] = 0
    return s


def feeder_injections(name, graph, scale=1.0):
    """Case loads at the case's buses, a small fixed load at buses a reconfiguration added."""
    loads = load_case(name).loads_pu()
    s = -scale * np.array([loads.get(b, 0.01 + 0.005j) for b in graph.bus_ids])
    s[graph.pos(graph.slack_bus())] = 0
    return s


def reconfigured(name, seed, ops):
    base = to_grid_graph(load_case(name))
    cfg = AugmentConfig(q_count=1, seed=seed, ops_range=(ops, ops))
    return augment(base, cfg)[0].graph


def loop_sweep(graph, s_inj):
    """Backward/forward sweep with one Python loop over the buses per direction."""
    tree = graph.bfs()
    slack = graph.pos(graph.slack_bus())
    n = graph.n
    z_to_parent = np.zeros(n, dtype=np.complex128)
    for p in range(n):
        if tree.parent_branch[p] >= 0:
            z_to_parent[p] = graph.branches[tree.parent_branch[p]].impedance
    v = np.ones(n, dtype=np.complex128)
    for it in range(SWEEP_MAX_ITER):
        i_down = np.conj(s_inj / v)
        for p in tree.order[::-1]:
            if tree.parent[p] >= 0:
                i_down[tree.parent[p]] += i_down[p]
        v_new = v.copy()
        v_new[slack] = 1.0 + 0.0j
        for p in tree.order:
            par = tree.parent[p]
            if par >= 0:
                v_new[p] = v_new[par] + z_to_parent[p] * i_down[p]
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if not np.all(np.isfinite(v.view(np.float64))) or np.max(np.abs(v)) > VOLTAGE_DIVERGED \
                or np.min(np.abs(v)) < 1e-6:
            raise NoConvergence(it + 1, float("inf"))
        if step < 1e-13:
            break
    return v


def naive_sweep(graph, s_inj, y, tol, v0=None):
    """The path-matrix sweep with the tree and both path matrices rebuilt on every
    call; it starts from v0, or from the flat profile without it."""
    tree = graph.bfs()
    slack = graph.pos(graph.slack_bus())
    n = graph.n
    z_to_parent = np.zeros(n, dtype=np.complex128)
    anc = np.zeros((n, n), dtype=np.complex128)
    for p in tree.order:
        par = tree.parent[p]
        if par >= 0:
            z_to_parent[p] = graph.branches[tree.parent_branch[p]].impedance
            anc[p] = anc[par]
        anc[p, p] = 1.0
    sub = anc.T
    drop = anc * z_to_parent
    v = np.ones(n, dtype=np.complex128) if v0 is None else v0
    for it in range(SWEEP_MAX_ITER):
        v_new = 1.0 + drop @ (sub @ np.conj(s_inj / v))
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if not np.all(np.isfinite(v.view(np.float64))) or np.max(np.abs(v)) > VOLTAGE_DIVERGED \
                or np.min(np.abs(v)) < 1e-6:
            raise NoConvergence(it + 1, float("inf"))
        if step < 1e-13:
            break
    mism = nodal_mismatch(y, v, s_inj)
    mism[slack] = 0.0
    worst = float(np.max(np.abs(mism)))
    if worst > tol:
        raise NoConvergence(SWEEP_MAX_ITER, worst)
    return v


def naive_newton(graph, s_inj, y, tol, v0=None):
    """Newton-Raphson with the Jacobian assembled from full N x N complex
    blocks and the mismatch recomputed at the top of every iteration; it
    starts from v0, or from the flat profile without it."""
    n = graph.n
    slack = graph.pos(graph.slack_bus())
    free = np.array([i for i in range(n) if i != slack])
    v = np.ones(n, dtype=np.complex128) if v0 is None else np.array(v0, dtype=np.complex128)
    for it in range(NEWTON_MAX_ITER):
        mism = nodal_mismatch(y, v, s_inj)
        worst = float(np.max(np.abs(mism[free])))
        if not np.isfinite(worst) or np.max(np.abs(v)) > VOLTAGE_DIVERGED:
            raise NoConvergence(it, float("inf"))
        if worst < tol:
            return v
        i_cur = y @ v
        diag_i = np.diag(np.conj(i_cur))
        vy = v[:, None] * np.conj(y)
        ds_de = diag_i + vy
        ds_df = 1j * diag_i - 1j * vy
        jac = np.block([
            [ds_de[np.ix_(free, free)].real, ds_df[np.ix_(free, free)].real],
            [ds_de[np.ix_(free, free)].imag, ds_df[np.ix_(free, free)].imag],
        ])
        rhs = np.concatenate([-mism[free].real, -mism[free].imag])
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(it, worst) from exc
        m = len(free)
        step = delta[:m] + 1j * delta[m:]
        scale = 1.0
        for _ in range(8):
            trial = v.copy()
            trial[free] += scale * step
            trial_worst = float(np.max(np.abs(nodal_mismatch(y, trial, s_inj)[free])))
            if np.isfinite(trial_worst) and trial_worst < worst:
                break
            scale *= 0.5
        else:
            raise NoConvergence(it + 1, worst)
        v[free] += scale * step
    mism = nodal_mismatch(y, v, s_inj)
    raise NoConvergence(NEWTON_MAX_ITER, float(np.max(np.abs(mism[free]))))


def loop_ami_h(yc_a, v, loc):
    """h of a single state v, as the per-hour estimator formed it."""
    v_a = v[loc]
    s = v_a * (yc_a @ np.conj(v))
    return np.concatenate([s.real, s.imag, np.abs(v_a)])


def loop_ami_h_and_jac(yc_a, v, loc):
    """h and its Jacobian on all 2k columns (e, f) of a single state v, as the
    per-hour estimator formed them."""
    k = len(v)
    m = len(loc)
    v_a = v[loc]
    i_conj = yc_a @ np.conj(v)
    s = v_a * i_conj
    vmag = np.abs(v_a)
    h = np.concatenate([s.real, s.imag, vmag])
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


def ami_cost(
    graph: GridGraph,
    v: np.ndarray,
    z: np.ndarray,
    ami_buses: tuple[int, ...],
    y: np.ndarray | None = None,
) -> float:
    """Objective value of `estimate_ami` at an arbitrary state (optimality cross-checks)."""
    y = build_admittance(graph) if y is None else y
    idx = np.array([graph.pos(b) for b in ami_buses])
    split = np.concatenate([v.real, v.imag])
    return float(np.sum((z - _ami_h(np.conj(y[idx]), v, idx)) ** 2)
                 + GN_LAMBDA * np.sum(split ** 2))


def naive_estimate_ami(graph, z, ami_buses):
    """Damped Gauss-Newton with the Jacobian and the normal equations on all 2N - 1 free columns."""
    y = build_admittance(graph)
    n = graph.n
    idx = np.array([graph.pos(b) for b in ami_buses])
    yc_a = np.conj(y[idx])
    v = np.ones(n, dtype=np.complex128)
    gauge = n + graph.pos(graph.slack_bus())
    free = np.array([i for i in range(2 * n) if i != gauge])

    def cost(vec):
        split = np.concatenate([vec.real, vec.imag])
        return float(np.sum((z - _ami_h(yc_a, vec, idx)) ** 2) + GN_LAMBDA * np.sum(split ** 2))

    current = cost(v)
    for _ in range(GN_MAX_ITER):
        h, jac = loop_ami_h_and_jac(yc_a, v, idx)
        split = np.concatenate([v.real, v.imag])
        j_free = jac[:, free]
        r = z - h
        normal = j_free.T @ j_free
        normal[np.diag_indices_from(normal)] += GN_LAMBDA
        reduced = np.linalg.solve(normal, j_free.T @ r - GN_LAMBDA * split[free])
        step = np.zeros(2 * n)
        step[free] = reduced
        trial = v + step[:n] + 1j * step[n:]
        trial_cost = cost(trial)
        halvings = 0
        while trial_cost > current and halvings < 12:
            step *= 0.5
            halvings += 1
            trial = v + step[:n] + 1j * step[n:]
            trial_cost = cost(trial)
        if trial_cost <= current:
            v, current = trial, trial_cost
        if np.linalg.norm(step) < GN_STEP_TOL:
            break
    return v


def lstsq_estimate(graph, z, ami_buses):
    """Damped Gauss-Newton whose steps solve the stacked system [J; sqrt(GN_LAMBDA) I] by SVD."""
    y = build_admittance(graph)
    n = graph.n
    idx = np.array([graph.pos(b) for b in ami_buses])
    free = np.array([i for i in range(2 * n) if i != n + graph.pos(graph.slack_bus())])
    v = np.ones(n, dtype=np.complex128)
    current = ami_cost(graph, v, z, ami_buses, y=y)
    for _ in range(GN_MAX_ITER):
        h, jac = loop_ami_h_and_jac(np.conj(y[idx]), v, idx)
        split = np.concatenate([v.real, v.imag])
        a = np.vstack([jac, np.sqrt(GN_LAMBDA) * np.eye(2 * n)])[:, free]
        b = np.concatenate([z - h, -np.sqrt(GN_LAMBDA) * split])
        step = np.zeros(2 * n)
        step[free] = np.linalg.lstsq(a, b, rcond=None)[0]
        trial = v + step[:n] + 1j * step[n:]
        trial_cost = ami_cost(graph, trial, z, ami_buses, y=y)
        halvings = 0
        while trial_cost > current and halvings < 12:
            step *= 0.5
            halvings += 1
            trial = v + step[:n] + 1j * step[n:]
            trial_cost = ami_cost(graph, trial, z, ami_buses, y=y)
        if trial_cost <= current:
            v, current = trial, trial_cost
        if np.linalg.norm(step) < GN_STEP_TOL:
            break
    return v


def per_call_measure_ami(graph, v, ami_buses, y, sigma=0.0, rng=None):
    """`measure_ami` as it was before the per-series record: positions rebuilt per call."""
    idx = np.array([graph.pos(b) for b in ami_buses])
    s = v * np.conj(y @ v)
    z = np.concatenate([s[idx].real, s[idx].imag, np.abs(v[idx])])
    if sigma > 0:
        z = z + sigma * rng.standard_normal(z.shape)
    return z


def per_call_estimate_ami(graph, z, ami_buses, y, info=False, halvings_log=None):
    """`estimate_ami` as it was before the per-series record: every call derives
    the visible columns (by union1d), the gauge and the hidden coordinates anew.
    With a list for `halvings_log`, the number of halvings of every iteration is
    appended to it."""
    n = graph.n
    idx = np.array([graph.pos(b) for b in ami_buses])
    vis = np.union1d(idx, np.flatnonzero(np.any(y[idx] != 0, axis=0)))
    loc = np.searchsorted(vis, idx)
    yc_a = np.conj(y[np.ix_(idx, vis)])
    k = len(vis)
    slack = graph.pos(graph.slack_bus())
    free = np.arange(2 * k)
    if slack in vis:
        free = np.delete(free, k + int(np.searchsorted(vis, slack)))
    cols = np.concatenate([vis, n + vis])[free]
    hidden = np.ones(2 * n, dtype=bool)
    hidden[cols] = False
    hidden[n + slack] = False
    diag = np.arange(len(free))
    v = np.ones(n, dtype=np.complex128)

    def cost(vec):
        split = np.concatenate([vec.real, vec.imag])
        return float(np.sum((z - loop_ami_h(yc_a, vec[vis], loc)) ** 2) + GN_LAMBDA * np.sum(split ** 2))

    current = cost(v)
    iterations = 0
    for iterations in range(1, GN_MAX_ITER + 1):
        h, jac = loop_ami_h_and_jac(yc_a, v[vis], loc)
        split = np.concatenate([v.real, v.imag])
        j_free = jac[:, free]
        r = z - h
        normal = j_free.T @ j_free
        normal[diag, diag] += GN_LAMBDA
        reduced = np.linalg.solve(normal, j_free.T @ r - GN_LAMBDA * split[cols])
        if not np.isfinite(reduced).all():
            raise NoConvergence(iterations, float("inf"))
        step = np.zeros(2 * n)
        step[hidden] = -split[hidden]
        step[cols] = reduced
        trial = v + step[:n] + 1j * step[n:]
        trial_cost = cost(trial)
        halvings = 0
        while trial_cost > current and halvings < 12:
            step *= 0.5
            halvings += 1
            trial = v + step[:n] + 1j * step[n:]
            trial_cost = cost(trial)
        if halvings_log is not None:
            halvings_log.append(halvings)
        if not np.isfinite(trial_cost):
            raise NoConvergence(iterations, float("inf"))
        if trial_cost <= current:
            v = trial
            current = trial_cost
        if float(np.linalg.norm(step)) < GN_STEP_TOL:
            break
    if info:
        r = z - loop_ami_h(np.conj(y[idx]), v, idx)
        split = np.concatenate([v.real, v.imag])
        objective = float(np.sum(r ** 2) + GN_LAMBDA * np.sum(split ** 2))
        return v, {"iterations": iterations, "residual": float(np.linalg.norm(r)),
                   "cost": objective}
    return v


def slack_neighbor(graph, y):
    """The lowest-numbered bus that shares a branch with the slack."""
    slack = graph.pos(graph.slack_bus())
    return min(b for b in graph.bus_ids if b != graph.slack_bus() and y[slack, graph.pos(b)] != 0)


class TestPowerFlow:
    def test_zero_load_flat_exactly(self, ieee33):
        v = solve_powerflow(ieee33, np.zeros(33, dtype=complex))
        assert np.array_equal(v, np.ones(33, dtype=complex))

    def test_two_bus_reactance_drop(self):
        g = GridGraph(bus_ids=(1, 2), branches=(Branch(1, 2, 0.1j),), root=1)
        s = np.array([0, -(0.1 + 0j)])
        v = solve_powerflow(g, s)
        assert abs(v[1]) < 1.0
        y = build_admittance(g)
        assert abs(nodal_mismatch(y, v, s)[1]) < 1e-8

    @pytest.mark.parametrize("name,fixture", [("ieee33", "ieee33"), ("ieee69", "ieee69")])
    def test_radial_balance_tight(self, name, fixture, request):
        g = request.getfixturevalue(fixture)
        s = case_injections(name, g)
        y = build_admittance(g)
        v = solve_powerflow(g, s, y)
        mism = nodal_mismatch(y, v, s)
        mism[g.pos(g.root)] = 0
        assert np.max(np.abs(mism)) < 1e-8
        assert 0.85 < np.min(np.abs(v)) <= 1.0

    def test_meshed_balance_tight(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        y = build_admittance(ieee30)
        v = solve_powerflow(ieee30, s, y)
        mism = nodal_mismatch(y, v, s)
        mism[0] = 0
        assert np.max(np.abs(mism)) < 1e-8

    @pytest.mark.parametrize("name,fixture", [("ieee33", "ieee33"), ("ieee69", "ieee69")])
    def test_sweep_matches_naive_sweep(self, name, fixture, request):
        g = request.getfixturevalue(fixture)
        s = case_injections(name, g)
        v = _sweep(g, s, build_admittance(g), MISMATCH_TOL)
        assert np.max(np.abs(v - loop_sweep(g, s))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["ieee33", "ieee69"]), seed=st.integers(0, 10_000),
           ops=st.integers(1, 5), scale=st.floats(0.1, 1.5))
    def test_sweep_matches_naive_sweep_on_reconfigured_feeders(self, name, seed, ops, scale):
        g = reconfigured(name, seed, ops)
        s = feeder_injections(name, g, scale)
        try:
            expected = loop_sweep(g, s)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                _sweep(g, s, build_admittance(g), MISMATCH_TOL)
            return
        v = _sweep(g, s, build_admittance(g), MISMATCH_TOL)
        assert np.max(np.abs(v - expected)) <= 1e-12

    def test_sweep_matches_per_call_oracle_bit_for_bit_on_interleaved_graphs(self):
        """Calls alternate between graphs, three of them with 33 buses, so a path
        matrix reused from the wrong graph would show."""
        feeders = [("ieee33", to_grid_graph(load_case("ieee33"))),
                   ("ieee33", reconfigured("ieee33", 0, 3)), ("ieee69", reconfigured("ieee69", 4, 2)),
                   ("ieee33", reconfigured("ieee33", 1, 1))]
        assert [g.n for _, g in feeders] == [33, 33, 69, 33]
        for scale in (0.4, 0.8, 1.2):
            for name, g in feeders:
                s = feeder_injections(name, g, scale)
                y = build_admittance(g)
                got = solve_powerflow(g, s, y)
                assert np.array_equal(got.view(np.float64),
                                      naive_sweep(g, s, y, MISMATCH_TOL).view(np.float64))

    @pytest.mark.parametrize("name,seed,ops", [("ieee33", 0, 0), ("ieee33", 1, 1),
                                               ("ieee69", 4, 2)])
    def test_diverging_sweep_raises_at_the_oracle_sweep(self, name, seed, ops):
        """Loads past the nose point drive |v| out of range or keep the sweep
        from settling, and starts with a zero or a non-finite entry fail on
        their first sweep: each raises after as many sweeps as the per-call
        oracle runs, with the same mismatch."""
        g = reconfigured(name, seed, ops) if ops else to_grid_graph(load_case(name))
        y = build_admittance(g)
        loaded = g.pos(slack_neighbor(g, y))
        starts = [(feeder_injections(name, g, scale), None) for scale in (5.0, 30.0, 60.0)]
        for bad in (0.0, np.nan, complex(np.inf, np.nan)):
            v0 = np.ones(g.n, dtype=np.complex128)
            v0[loaded] = bad
            starts.append((feeder_injections(name, g), v0))
        outcomes = []
        for s, v0 in starts:
            with pytest.raises(NoConvergence) as got, np.errstate(divide="ignore", invalid="ignore"):
                _sweep(g, s, y, MISMATCH_TOL, v0)
            with pytest.raises(NoConvergence) as want, np.errstate(divide="ignore", invalid="ignore"):
                naive_sweep(g, s, y, MISMATCH_TOL, v0)
            outcome = (got.value.iterations, got.value.mismatch)
            assert outcome == (want.value.iterations, want.value.mismatch)
            outcomes.append(outcome)
        assert any(sweeps > 1 and mismatch == np.inf for sweeps, mismatch in outcomes[:3])
        assert outcomes[3:] == [(1, np.inf)] * 3

    def test_path_matrices_built_once_and_read_only(self, ieee33):
        sub, drop = ieee33.path_matrices
        assert ieee33.path_matrices[0] is sub and ieee33.path_matrices[1] is drop
        for matrix in (sub, drop):
            with pytest.raises(ValueError, match="read-only"):
                matrix[1, 0] = 2.0

    def test_sweep_failure_reports_the_sweeps_run(self, ieee33):
        with pytest.raises(NoConvergence) as exc:
            solve_powerflow(ieee33, case_injections("ieee33", ieee33), tol=1e-300)
        assert 0 < exc.value.iterations < SWEEP_MAX_ITER
        assert f"after {exc.value.iterations} iterations" in str(exc.value)

    @pytest.mark.parametrize("case,seed,index", [("ieee30", 1, 0), ("ieee39", 2, 0),
                                                  ("ieee39", 2, 4)])
    def test_newton_matches_naive_newton_bit_for_bit(self, case, seed, index, monkeypatch):
        """Every power flow that generating an FDI system solves, against the
        oracle, from the predicted start where there is one and then, as
        solve_powerflow retries, from the flat profile: equal voltages, or equal
        NoConvergence iterations and mismatch.  ieee39 seed 2 system 4 fails at
        every demand scale it backs off to."""
        import ugcn.scenarios
        from ugcn.cli import GEN_DEFAULTS, _gen_one_system

        outcomes = []

        def compare(graph, s_inj, y, v0, setup):
            def run(solve, start):
                try:
                    return solve(graph, s_inj, y, MISMATCH_TOL, start)
                except NoConvergence as exc:
                    return exc.iterations, exc.mismatch
            assert v0 is None or v0[graph.pos(graph.slack_bus())] == 1.0
            for start in ((None,) if v0 is None else (v0, None)):
                got = run(functools.partial(_newton, setup=setup), start)
                want = run(naive_newton, start)
                if isinstance(want, tuple):
                    assert got == want
                    continue
                assert np.array_equal(got.view(np.float64), want.view(np.float64))
                outcomes.append(True)
                return got
            outcomes.append(False)
            raise NoConvergence(*want)

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", compare)
        cfg = {**GEN_DEFAULTS, "task": "fdi", "case": case, "q": index + 1, "seed": seed,
               "t_total": 96}
        if (case, index) == ("ieee39", 4):
            with pytest.raises(NoConvergence):
                _gen_one_system(case, "transmission", cfg, index)
            assert outcomes.count(False) == 4          # one failure per demand scale
        else:
            _gen_one_system(case, "transmission", cfg, index)
            assert outcomes == [True] * 96

    def test_reused_newton_record_matches_naive_newton_bit_for_bit(self):
        """Records are built once per graph and calls interleave over them, two
        graphs of 30 and two of 39 buses, so a record reused from another graph
        would show.  Each load scale is solved from the flat profile, from the
        graph's last solution and from the wrong half-plane: equal voltages, or
        equal NoConvergence iterations and mismatch."""
        grids = [("ieee30", to_grid_graph(load_case("ieee30"))),
                 ("ieee39", to_grid_graph(load_case("ieee39"))),
                 ("ieee30", reconfigured("ieee30", 0, 2)), ("ieee39", reconfigured("ieee39", 3, 2))]
        assert [g.n for _, g in grids] == [30, 39, 30, 39]
        series = []
        for name, g in grids:
            y = build_admittance(g)
            series.append((name, g, y, newton_setup(g, y)))
        last = {}
        outcomes = []
        for scale in (0.3, 0.55, 0.9):
            for k, (name, g, y, setup) in enumerate(series):
                s = feeder_injections(name, g, scale)
                wrong = np.full(g.n, -1.0, dtype=complex)
                wrong[setup.slack] = 1.0
                for start in (None, last.get(k), wrong):
                    try:
                        want = naive_newton(g, s, y, MISMATCH_TOL, start)
                    except NoConvergence as exc:
                        with pytest.raises(NoConvergence) as got:
                            _newton(g, s, y, MISMATCH_TOL, start, setup=setup)
                        assert (got.value.iterations, got.value.mismatch) == \
                            (exc.iterations, exc.mismatch)
                        outcomes.append(False)
                        continue
                    got = _newton(g, s, y, MISMATCH_TOL, start, setup=setup)
                    assert np.array_equal(got.view(np.float64), want.view(np.float64))
                    got = solve_powerflow(g, s, y, v0=start, setup=setup)
                    assert np.array_equal(got.view(np.float64), want.view(np.float64))
                    last[k] = want
                    outcomes.append(True)
        assert 0 < outcomes.count(False) < len(outcomes)
        for *_, setup in series:
            for array in (setup.free, setup.y_free):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[-1]

    def test_absurd_load_diverges(self, chain4):
        s = np.array([0, 0, 0, -100.0 + 0j])
        with pytest.raises(NoConvergence):
            solve_powerflow(chain4, s)


def fdi_series(case, seed, index, t_total=96):
    """Graph, admittance and hourly injections of one generated system, at the
    first demand scale that `build_scenario` tries."""
    from ugcn.cli import GEN_DEFAULTS, _augment_config, _scenario_config
    from ugcn.reconfig import _generate_one
    from ugcn.scenarios import _series_profiles

    loaded = load_case(case)
    base = to_grid_graph(loaded)
    cfg = {**GEN_DEFAULTS, "task": "fdi", "case": case, "q": index + 1, "seed": seed,
           "t_total": t_total}
    graph = _generate_one(base, _augment_config(base.n, base.kind, cfg), index).graph
    scfg = _scenario_config(base.kind, cfg)
    profiles = _series_profiles(graph, scfg, index, loaded.loads_pu(), scfg.demand_scale)
    return graph, build_admittance(graph), profiles.injections()


class TestWarmStart:
    # Largest |warm - flat| measured over 48 transmission and 30 distribution
    # systems at T=96: 3.2e-10 (ieee30) and 9.1e-14 (ieee69).  Both solutions
    # meet MISMATCH_TOL, and the gap is what that tolerance leaves open.
    BOUND = {"transmission": 1e-9, "distribution": 1e-12}

    @pytest.mark.parametrize("case,task,seed", [("ieee30", "fdi", 1), ("ieee39", "fdi", 2),
                                                ("ieee33", "forecast", 1),
                                                ("ieee69", "forecast", 5)])
    def test_series_matches_flat_start_solves(self, case, task, seed, monkeypatch):
        """Each hour of a generated system, solved from the predicted start and
        from the flat profile: both balance to MISMATCH_TOL and agree."""
        import ugcn.scenarios
        from ugcn.cli import GEN_DEFAULTS, _gen_one_system

        worst = {"gap": 0.0, "mismatch": 0.0}
        hours = []

        def both(graph, s_inj, y, v0, setup):
            assert v0 is None or v0[graph.pos(graph.slack_bus())] == 1.0
            warm = solve_powerflow(graph, s_inj, y, v0=v0, setup=setup)
            flat = solve_powerflow(graph, s_inj, y, setup=setup)
            for v in (warm, flat):
                mism = nodal_mismatch(y, v, s_inj)
                mism[graph.pos(graph.slack_bus())] = 0
                worst["mismatch"] = max(worst["mismatch"], float(np.max(np.abs(mism))))
            worst["gap"] = max(worst["gap"], float(np.max(np.abs(warm - flat))))
            hours.append(graph.kind)
            return warm

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", both)
        kind = to_grid_graph(load_case(case)).kind
        cfg = {**GEN_DEFAULTS, "task": task, "case": case, "q": 2, "seed": seed, "t_total": 96}
        for index in range(2):
            _gen_one_system(case, kind, cfg, index)
        assert hours == [kind] * 192
        assert worst["mismatch"] < MISMATCH_TOL
        assert worst["gap"] <= self.BOUND[kind]

    @pytest.mark.parametrize("name", ["ieee30", "ieee33"])
    def test_diverging_start_falls_back_to_flat_bit_for_bit(self, name):
        g = to_grid_graph(load_case(name))
        s = case_injections(name, g) * (0.55 if name == "ieee30" else 1.0)
        y = build_admittance(g)
        # Newton from -1 (the wrong half-plane) fails after 10 iterations; the
        # sweep from 1e-3 blows up in its first sweep.
        start = np.full(g.n, -1.0 if name == "ieee30" else 1e-3, dtype=complex)
        start[g.pos(g.slack_bus())] = 1.0
        solver = _newton if name == "ieee30" else _sweep
        with pytest.raises(NoConvergence):
            solver(g, s, y, MISMATCH_TOL, start)
        got = solve_powerflow(g, s, y, v0=start)
        assert np.array_equal(got.view(np.float64), solve_powerflow(g, s, y).view(np.float64))

    def test_failure_reports_the_flat_start(self, chain4):
        s = np.array([0, 0, 0, -100.0 + 0j])
        with pytest.raises(NoConvergence) as flat:
            solve_powerflow(chain4, s)
        with pytest.raises(NoConvergence) as warm:
            solve_powerflow(chain4, s, v0=np.array([1, 0.9 + 0.1j, 0.9 + 0.1j, 0.9 + 0.1j]))
        assert str(warm.value) == str(flat.value)
        assert (warm.value.iterations, warm.value.mismatch) == \
            (flat.value.iterations, flat.value.mismatch)

    def test_start_is_not_modified(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        y = build_admittance(ieee30)
        flat = solve_powerflow(ieee30, s, y)
        start = flat * 1.01
        start[ieee30.pos(ieee30.slack_bus())] = 1.0
        kept = start.copy()
        v = solve_powerflow(ieee30, s, y, v0=start)
        assert np.array_equal(start, kept)
        assert np.max(np.abs(v - flat)) <= 1e-9

    def test_lu_solves_per_hour(self, monkeypatch):
        """ieee39 seed 2 system 0, 96 hours: at most 3.2 Newton LU solves per
        hour from the predicted starts, and at most 0.65 times the count from
        the flat profile (measured: 297 against 504)."""
        from ugcn.scenarios import _solve_series

        graph, y, s_inj = fdi_series("ieee39", 2, 0)
        slack = graph.pos(graph.slack_bus())
        free = np.delete(np.arange(graph.n), slack)
        z = np.linalg.inv(y[np.ix_(free, free)])
        solves = [0]
        real = np.linalg.solve

        def counted(*args, **kwargs):
            solves[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        states = _solve_series(graph, y, z, s_inj)
        warm, solves[0] = solves[0], 0
        for t in range(s_inj.shape[0]):
            s_t = s_inj[t].copy()
            s_t[slack] = 0
            solve_powerflow(graph, s_t, y)
        assert warm <= 3.2 * s_inj.shape[0]
        assert warm <= 0.65 * solves[0]
        assert states.shape == (96, graph.n)


class TestProfiles:
    def test_daily_cycle_peak_trough_ratio(self):
        prof = synth_profiles(8, 24, seed=4)
        for col in range(8):
            series = prof.p[:, col]
            ratio = series.max() / series.min()
            assert 1.5 <= ratio <= 3.0

    def test_empty_series_names_t_total(self):
        with pytest.raises(MissingCell) as exc:
            synth_profiles(3, 0, seed=1)
        assert str(exc.value) == "profiles need t_total of at least 1, got 0"

    def test_shape_mismatch_names_series_and_shapes(self):
        prof = synth_profiles(4, 24, seed=1)
        with pytest.raises(MissingCell) as exc:
            ProfileSet(prof.bus_ids, prof.p, prof.q[:, :3], prof.pv)
        assert str(exc.value) == "profile series q has shape (24, 3), expected (24, 4)"

    def test_seed_repeatable(self):
        a = synth_profiles(5, 48, seed=9)
        b = synth_profiles(5, 48, seed=9)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.pv, b.pv)

    def test_zero_noise_periodic(self):
        prof = synth_profiles(4, 72, seed=2, ar_sigma=0.0)
        assert np.allclose(prof.p[:24], prof.p[24:48])
        assert np.allclose(prof.p[:24], prof.p[48:72])

    def test_pv_nonnegative_and_midday(self):
        prof = synth_profiles(20, 48, seed=6, pv_fraction=1.0)
        assert prof.pv.min() >= 0
        night = prof.pv[[0, 1, 2, 3, 22, 23]].sum()
        assert night == 0


class TestSensorPlacement:
    def test_ami_covers_leaves_and_fraction(self, ieee33):
        buses = ami_placement(ieee33, 0.4)
        for leaf in ieee33.leaves():
            assert leaf in buses
        assert len(buses) >= int(np.ceil(0.4 * 33))
        assert ieee33.root not in buses

    def test_pmu_fraction_and_determinism(self, ieee30):
        a = pmu_placement(ieee30, 0.3, seed=3)
        b = pmu_placement(ieee30, 0.3, seed=3)
        assert a == b
        assert len(a) == int(np.ceil(0.3 * 30))

    def test_fdi_sensor_counts_standard_systems(self):
        assert fdi_sensor_count(30) == 15
        assert fdi_sensor_count(39) == 20
        assert fdi_sensor_count(57) == 25
        assert fdi_sensor_count(28) == 14


class TestAmiEstimation:
    def test_sparse_estimate_beats_truth_on_objective(self, ieee33):
        s = case_injections("ieee33", ieee33)
        v = solve_powerflow(ieee33, s)
        buses = ami_placement(ieee33, 0.4)
        z = measure_ami(ami_setup(ieee33, buses), v)
        est, info = estimate_ami(ami_setup(ieee33, buses), z[None], info=True)
        est = est[0]
        assert ami_cost(ieee33, est, z, buses) <= ami_cost(ieee33, v, z, buses) + 1e-12
        assert info["iterations"][0] <= 50

    def test_jacobian_matches_central_differences(self):
        """The free-column Jacobian against central differences of h and,
        exactly, against the per-hour full Jacobian's free columns; no meter
        sees the slack."""
        self.check_jacobian("placed")

    @pytest.mark.parametrize("meters", ["near_slack", "slack_metered"])
    def test_jacobian_with_the_slack_seen_or_metered(self, meters):
        """As above, with the slack's f column dropped, and with the slack
        metered, its d|v|/df entry dropped too."""
        self.check_jacobian(meters)

    @staticmethod
    def check_jacobian(meters):
        g = reconfigured("ieee69", seed=3, ops=4)
        y = build_admittance(g)
        buses = set(ami_placement(g, 0.4))
        if meters != "placed":
            buses.add(slack_neighbor(g, y) if meters == "near_slack" else g.slack_bus())
        setup = ami_setup(g, tuple(sorted(buses)), y)
        assert (setup.gauge < len(setup.vis)) == (meters != "placed")
        assert (len(setup.f_rows) < len(setup.idx)) == (meters == "slack_metered")
        vis, loc, yc_a = setup.vis, setup.loc, setup.yc_a
        rng = np.random.default_rng(5)
        v = (1 + 0.05 * rng.standard_normal(g.n)) * np.exp(0.05j * rng.standard_normal(g.n))
        h, jac = _ami_h_and_jac(setup, v[None, vis])
        h, jac = h[0], jac[0]
        assert np.array_equal(h, _ami_h(yc_a, v[vis], loc))
        want_h, want_jac = loop_ami_h_and_jac(yc_a, v[vis], loc)
        assert np.array_equal(h, want_h) and np.array_equal(jac, want_jac[:, setup.free])
        k = len(vis)
        eps = 1e-6
        fd = np.empty_like(jac)
        for c, col in enumerate(setup.free):
            dv = np.zeros(k, dtype=np.complex128)
            dv[col % k] = eps if col < k else 1j * eps
            fd[:, c] = (_ami_h(yc_a, v[vis] + dv, loc) - _ami_h(yc_a, v[vis] - dv, loc)) / (2 * eps)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))

    def test_objective_matches_lstsq_step_oracle(self):
        g = reconfigured("ieee69", seed=7, ops=4)
        v = solve_powerflow(g, feeder_injections("ieee69", g))
        buses = ami_placement(g, 0.4)
        z = measure_ami(ami_setup(g, buses), v, sigma=0.002, rng=np.random.default_rng(13))
        est, info = estimate_ami(ami_setup(g, buses), z[None], info=True)
        est = est[0]
        oracle = ami_cost(g, lstsq_estimate(g, z, buses), z, buses)
        assert info["cost"][0] == ami_cost(g, est, z, buses)
        assert info["cost"][0] <= oracle * (1 + 1e-12)

    def test_noise_without_rng_is_config_error(self, chain4):
        v = np.ones(4, dtype=np.complex128)
        with pytest.raises(ConfigError, match="rng required"):
            measure_ami(ami_setup(chain4, (2, 3, 4)), v, sigma=0.01)

    @staticmethod
    def assert_matches_full_column_oracle(g, z, buses):
        est = estimate_ami(ami_setup(g, buses), z[None])[0]
        want = naive_estimate_ami(g, z, buses)
        assert np.max(np.abs(est - want)) <= 2e-8
        assert ami_cost(g, est, z, buses) <= ami_cost(g, want, z, buses) * (1 + 1e-12)
        return est

    @pytest.mark.parametrize("name,seed", [("ieee33", 2), ("ieee33", 9), ("ieee69", 3),
                                           ("ieee69", 8)])
    def test_matches_full_column_oracle_on_reconfigured_feeders(self, name, seed):
        g = reconfigured(name, seed, ops=4)
        v = solve_powerflow(g, feeder_injections(name, g))
        buses = ami_placement(g)
        z = measure_ami(ami_setup(g, buses), v, sigma=0.002, rng=np.random.default_rng(seed))
        self.assert_matches_full_column_oracle(g, z, buses)

    @pytest.mark.parametrize("slack_seen", [False, True])
    def test_gauge_frozen_whether_or_not_a_meter_sees_the_slack(self, ieee33, slack_seen):
        y = build_admittance(ieee33)
        slack = ieee33.pos(ieee33.root)
        neighbors = {b for b in ieee33.bus_ids if b != ieee33.root and y[slack, ieee33.pos(b)] != 0}
        buses = ami_placement(ieee33)
        assert not neighbors & set(buses)
        if slack_seen:
            buses = tuple(sorted(set(buses) | {min(neighbors)}))
        v = solve_powerflow(ieee33, case_injections("ieee33", ieee33))
        z = measure_ami(ami_setup(ieee33, buses), v, sigma=0.002, rng=np.random.default_rng(4))
        est = self.assert_matches_full_column_oracle(ieee33, z, buses)
        assert est[slack].imag == 0.0


    def test_reused_record_matches_per_call_oracle_bit_for_bit(self):
        """Records are built once per (graph, meters) and calls interleave over
        them, three graphs with 33 buses among them, so a record or a position
        reused from another graph or bus set would show."""
        feeders = [("ieee33", to_grid_graph(load_case("ieee33"))),
                   ("ieee33", reconfigured("ieee33", 0, 3)), ("ieee69", reconfigured("ieee69", 4, 2)),
                   ("ieee33", reconfigured("ieee33", 1, 1))]
        assert [g.n for _, g in feeders] == [33, 33, 69, 33]
        series = []
        for name, g in feeders:
            y = build_admittance(g)
            placed = ami_placement(g)
            near_slack = tuple(sorted(set(placed) | {slack_neighbor(g, y)}))
            assert near_slack != placed
            for buses in (placed, near_slack):
                series.append((name, g, y, buses, ami_setup(g, buses, y)))
        for hour, scale in enumerate((0.5, 1.0, 1.3)):
            for k, (name, g, y, buses, setup) in enumerate(series):
                v = solve_powerflow(g, feeder_injections(name, g, scale), y)
                z = measure_ami(setup, v, sigma=0.002, rng=np.random.default_rng([hour, k]))
                want_z = per_call_measure_ami(g, v, buses, y, sigma=0.002,
                                              rng=np.random.default_rng([hour, k]))
                assert np.array_equal(z, want_z)
                est, info = estimate_ami(setup, z[None], info=True)
                est, info = est[0], {key: value[0] for key, value in info.items()}
                want, want_info = per_call_estimate_ami(g, z, buses, y, info=True)
                assert np.array_equal(est.view(np.float64), want.view(np.float64))
                assert info == want_info
                assert np.array_equal(estimate_ami(setup, z[None])[0].view(np.float64),
                                      est.view(np.float64))
        for setup in (record for *_, record in series):
            for array in (setup.idx, setup.vis, setup.loc, setup.yc_a, setup.free, setup.cols,
                          setup.hidden):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[-1]


class TestAmiSeries:
    """`estimate_ami` over a series against a loop of the per-hour oracle."""

    @staticmethod
    def series(name, seed, t_total):
        g = reconfigured(name, seed, ops=4)
        cfg = ScenarioConfig(t_total=t_total, seed=seed)
        states = build_scenario(g, cfg, 0, load_case(name).loads_pu()).true_states
        return g, build_admittance(g), states

    @staticmethod
    def layouts(g, y):
        """The placed meters, with one more bus, and each again with a meter
        next to the slack: meter counts of both parities, the slack seen and not."""
        placed = ami_placement(g)
        near = slack_neighbor(g, y)
        extra = min(b for b in g.bus_ids if b not in placed and b not in (g.slack_bus(), near))
        return [tuple(sorted(set(placed) | set(more)))
                for more in ((), (extra,), (near,), (near, extra))]

    @pytest.mark.parametrize("name,seed", [("ieee33", 2), ("ieee69", 3)])
    @pytest.mark.parametrize("t_total", [1, 2 * AMI_BLOCK + 1, 240])
    def test_matches_per_hour_oracle_bit_for_bit(self, name, seed, t_total):
        g, y, states = self.series(name, seed, t_total)
        layouts = self.layouts(g, y)
        if t_total == 240:
            layouts = layouts[::2]      # still both parities, the slack seen and not
        halvings, seen = [], set()
        for k, buses in enumerate(layouts):
            setup = ami_setup(g, buses, y)
            seen.add(setup.gauge < len(setup.vis))
            rng = np.random.default_rng([seed, k])
            z = np.stack([measure_ami(setup, v, sigma=0.002, rng=rng) for v in states])
            est, info = estimate_ami(setup, z, info=True)
            assert est.shape == (t_total, g.n)
            for t in range(t_total):
                log = []
                want, want_info = per_call_estimate_ami(g, z[t], buses, y, info=True,
                                                        halvings_log=log)
                assert np.array_equal(est[t].view(np.float64), want.view(np.float64))
                assert {key: value[t] for key, value in info.items()} == want_info
                halvings.append(max(log))
            assert np.array_equal(estimate_ami(setup, z).view(np.float64), est.view(np.float64))
        assert {len(buses) % 2 for buses in layouts} == {0, 1}
        assert seen == {False, True}
        if t_total == 240:
            assert any(0 < h < 12 for h in halvings) and 12 in halvings

    @pytest.mark.parametrize("hours", [(AMI_BLOCK - 1, 1), (AMI_BLOCK + 4, AMI_BLOCK + 1),
                                       (2 * AMI_BLOCK + 1, AMI_BLOCK - 2)])
    def test_non_finite_hours_raise_as_the_hour_loop(self, hours):
        """A NaN and an inf measurement, in one block or in two: the series raises
        what the per-hour loop raises at the earlier of the two hours."""
        g, y, states = self.series("ieee33", 9, 3 * AMI_BLOCK)
        buses = ami_placement(g)
        setup = ami_setup(g, buses, y)
        z = np.stack([measure_ami(setup, v) for v in states])
        z[hours[0], 0] = np.nan
        z[hours[1], -1] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NoConvergence) as want:
                for t in range(len(z)):
                    per_call_estimate_ami(g, z[t], buses, y)
            with pytest.raises(NoConvergence) as got:
                estimate_ami(setup, z)
        assert (got.value.iterations, got.value.mismatch, str(got.value)) == (
            want.value.iterations, want.value.mismatch, str(want.value))

    def test_flat_start_step_is_built_once_per_series(self, monkeypatch):
        """Every hour starts at the flat profile: a series of three blocks forms
        h and the Jacobian there once."""
        import ugcn.estimation

        g, y, states = self.series("ieee33", 4, 2 * AMI_BLOCK + 1)
        setup = ami_setup(g, ami_placement(g), y)
        z = np.stack([measure_ami(setup, v, sigma=0.002, rng=np.random.default_rng(4))
                      for v in states])
        flat_calls = []

        def counted(setup, v):
            if np.array_equal(v, np.ones_like(v)):
                flat_calls.append(len(v))
            return _ami_h_and_jac(setup, v)

        monkeypatch.setattr(ugcn.estimation, "_ami_h_and_jac", counted)
        estimate_ami(setup, z)
        assert flat_calls == [1]

    def test_measurement_shape_is_checked(self, ieee33):
        setup = ami_setup(ieee33, ami_placement(ieee33))
        with pytest.raises(DimensionMismatch, match="expected \\[T, 42\\] measurements"):
            estimate_ami(setup, np.zeros(42))


class TestPmuEstimation:
    def test_all_buses_zero_noise_exact(self, chain4):
        s = np.array([0, -0.02 - 0.01j, -0.03 - 0.015j, -0.02 - 0.01j])
        v = solve_powerflow(chain4, s)
        op = PmuOperator.build(chain4, (1, 2, 3, 4), mu1=0.0)
        est = op.estimate(op.measure(v))
        assert np.max(np.abs(est - v)) < 1e-8

    def test_sparse_matches_dense_oracle(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        v = solve_powerflow(ieee30, s)
        buses = pmu_placement(ieee30, 0.3, seed=1)
        op = PmuOperator.build(ieee30, buses, mu1=1e-3)
        z = op.measure(v)
        est = op.estimate(z)
        # oracle: explicit SVD pseudoinverse in the permuted coordinates
        a = op.h.conj().T @ op.h + 1e-3 * op.s_perm
        u, sv, vh = np.linalg.svd(a)
        keep = sv > 1e-10 * sv[0]
        inv = vh[keep].conj().T @ np.diag(1.0 / sv[keep]) @ u[:, keep].conj().T
        expected = np.empty_like(v)
        expected[op.perm] = inv @ op.h.conj().T @ z
        assert np.max(np.abs(est - expected)) < 1e-8

    def test_noise_without_rng_is_config_error(self, chain4):
        op = PmuOperator.build(chain4, (1, 3), mu1=1e-3)
        with pytest.raises(ConfigError, match="rng required"):
            op.measure(np.ones(4, dtype=np.complex128), sigma=0.01)

    def test_mu1_sweep_is_finite(self, ieee30):
        s = case_injections("ieee30", ieee30) * 0.55
        v = solve_powerflow(ieee30, s)
        buses = pmu_placement(ieee30, 0.3, seed=2)
        errs = []
        for mu1 in (1e-4, 1e-3, 1e-2):
            op = PmuOperator.build(ieee30, buses, mu1=mu1)
            est = op.estimate(op.measure(v))
            errs.append(float(np.linalg.norm(est - v)))
        assert all(np.isfinite(e) for e in errs)


class TestScenarioConfig:
    def test_negative_noise_is_config_error(self):
        with pytest.raises(ConfigError, match="noise_sigma must be nonnegative, got -0.5"):
            ScenarioConfig(noise_sigma=-0.5)


class TestScenarioBuild:
    def test_ami_scenario_has_sane_states(self, ieee33):
        cfg = ScenarioConfig(t_total=24, scenario="ami", seed=1, noise_sigma=0.001)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        mags = np.abs(system.true_states)
        assert 0.5 < mags.min() and mags.max() < 1.5
        assert system.estimates.shape == system.true_states.shape
        assert system.ami_buses
        assert not system.pmu_buses

    def test_deterministic_generation(self, ieee33):
        cfg = ScenarioConfig(t_total=16, scenario="pmu", seed=8, noise_sigma=0.002)
        loads = load_case("ieee33").loads_pu()
        a = build_scenario(ieee33, cfg, 2, loads)
        b = build_scenario(ieee33, cfg, 2, loads)
        assert np.array_equal(a.true_states, b.true_states)
        assert np.array_equal(a.estimates, b.estimates)


class TestFeatureWindows:
    def test_window_shape_and_alignment(self, ieee33):
        cfg = ScenarioConfig(t_total=20, scenario="pmu", seed=3, noise_sigma=0.0)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        x = feature_window(system.estimates, t=12)
        assert x.shape == (33, 10)
        assert np.array_equal(x[:, -1], system.estimates[12])
        assert np.array_equal(x[:, 0], system.estimates[3])

    def test_horizon_zero_targets_current_truth(self, ieee33):
        cfg = ScenarioConfig(t_total=20, scenario="pmu", seed=3, noise_sigma=0.0)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        _, target = build_features(system, t=12, horizon=0)
        assert np.array_equal(target, system.true_states[12])

    def test_out_of_range_windows(self, ieee33):
        cfg = ScenarioConfig(t_total=20, scenario="pmu", seed=3, noise_sigma=0.0)
        loads = load_case("ieee33").loads_pu()
        system = build_scenario(ieee33, cfg, 0, loads)
        with pytest.raises(WindowOutOfRange):
            feature_window(system.estimates, t=5)
        with pytest.raises(WindowOutOfRange):
            build_features(system, t=18, horizon=5)
