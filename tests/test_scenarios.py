"""Power flow physics, estimation, profiles, and feature windows."""

import functools
import warnings

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
    GN_MAX_ITER,
    GN_STEP_TOL,
    PmuOperator,
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
    SWEEP_STEP_TOL,
    VOLTAGE_DIVERGED,
    _newton,
    _sweep,
    chord_hours,
    newton_setup,
    nodal_mismatch,
    solve_powerflow,
    sweep_hours,
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
    """The path-matrix sweep with the tree and the one path matrix rebuilt on
    every call; it starts from v0, or from the flat profile without it."""
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
    dlf = anc @ (anc * z_to_parent).T
    v = np.ones(n, dtype=np.complex128) if v0 is None else v0
    for it in range(SWEEP_MAX_ITER):
        v_new = 1.0 + np.conj(s_inj / v) @ dlf
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


def oracle_rows(graph, buses):
    """The estimator's buses, one Python list each: every bus but the slack
    (its P and Q rows and its e and f columns), and the metered ones among
    them in meter order (their |v| rows)."""
    slack = graph.pos(graph.slack_bus())
    free = [i for i in range(graph.n) if i != slack]
    return free, [graph.pos(b) for b in buses if graph.pos(b) != slack]


def loop_ami_h(y, v, free, vm):
    """P and Q at the buses `free`, then |v| at `vm`, of one state v, bus by bus."""
    s = [v[i] * np.conj(y[i] @ v) for i in free]
    return np.array([x.real for x in s] + [x.imag for x in s] + [abs(v[i]) for i in vm])


def loop_ami_jac(y, v, free, vm):
    """The Jacobian of `loop_ami_h` over [e, f] at the buses `free`, entry by entry:
    dS_i/de_k = [i = k] conj(I_i) + v_i conj(Y_ik), dS_i/df_k = j [i = k] conj(I_i)
    - j v_i conj(Y_ik) and d|v_i|/de_i, d|v_i|/df_i = e_i/|v_i|, f_i/|v_i|."""
    k = len(free)
    jac = np.zeros((2 * k + len(vm), 2 * k))
    for r, i in enumerate(free):
        i_conj = np.conj(y[i] @ v)
        for c, col in enumerate(free):
            de = (i_conj if i == col else 0) + v[i] * np.conj(y[i, col])
            df = (1j * i_conj if i == col else 0) - 1j * v[i] * np.conj(y[i, col])
            jac[r, c], jac[r, k + c] = de.real, df.real
            jac[k + r, c], jac[k + r, k + c] = de.imag, df.imag
    for r, i in enumerate(vm):
        c = free.index(i)
        jac[2 * k + r, c], jac[2 * k + r, k + c] = v[i].real / abs(v[i]), v[i].imag / abs(v[i])
    return jac


def oracle_weights(graph, buses):
    """The rows' weights: 1 at a metered reading, 0.3 at a pseudo-injection."""
    free, vm = oracle_rows(graph, buses)
    row = [1.0 if i in vm else 0.3 for i in free]
    return np.array(row + row + [1.0] * len(vm))


def oracle_target(graph, z, buses, base_loads):
    """The rows' target for one hour of readings z, bus by bus: each metered
    reading, and at every other non-slack bus its planning load's share of the
    metered buses' planning loads times their measured sum.  A bus without a
    planning load gets the median positive P, and 0.48 of it as Q."""
    free, vm = oracle_rows(graph, buses)
    m = len(buses)
    fill = float(np.median([load.real for load in base_loads.values() if load.real > 0]))
    load = {i: complex(base_loads.get(b, fill + 0.48j * fill)) for i, b in enumerate(graph.bus_ids)}
    reading = {graph.pos(b): j for j, b in enumerate(buses) if graph.pos(b) in free}
    target = []
    for part, of in ((0, lambda c: c.real), (1, lambda c: c.imag)):
        measured = sum(z[part * m + j] for j in reading.values())
        planned = sum(of(load[i]) for i in reading)
        target += [z[part * m + reading[i]] if i in reading else of(load[i]) / planned * measured
                   for i in free]
    return np.array(target + [z[2 * m + reading[i]] for i in vm])


def oracle_gain(graph, y, buses):
    """K = (J0^T W J0)^-1 J0^T W from the entry-by-entry Jacobian at the flat
    profile, as the least-squares solution of sqrt(W) J0 K = sqrt(W), by SVD."""
    free, vm = oracle_rows(graph, buses)
    jac = loop_ami_jac(y, np.ones(graph.n, dtype=np.complex128), free, vm)
    root_w = np.sqrt(oracle_weights(graph, buses))
    return np.linalg.lstsq(root_w[:, None] * jac, np.diag(root_w), rcond=None)[0]


def naive_estimate_ami(graph, z, buses, base_loads, step_tol=1e-11):
    """One hour's fixed-gain iteration, bus by bus, run until its step is below
    `step_tol`: the fixed point that `estimate_ami` approaches."""
    y = build_admittance(graph)
    free, vm = oracle_rows(graph, buses)
    k = len(free)
    target = oracle_target(graph, z, buses, base_loads)
    gain = oracle_gain(graph, y, buses)
    v = np.ones(graph.n, dtype=np.complex128)
    for _ in range(4 * GN_MAX_ITER):
        step = gain @ (target - loop_ami_h(y, v, free, vm))
        v[free] += step[:k] + 1j * step[k:]
        if np.linalg.norm(step) < step_tol:
            return v
    raise AssertionError(f"oracle still moving by {np.linalg.norm(step):.3e}")


def wls_cost(graph, v, z, buses, base_loads):
    """The weighted squared residual of state v against one hour's target."""
    free, vm = oracle_rows(graph, buses)
    target, weight = oracle_target(graph, z, buses, base_loads), oracle_weights(graph, buses)
    return float(np.sum(weight * (target - loop_ami_h(build_admittance(graph), v, free, vm)) ** 2))


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
        dlf = ieee33.path_matrices
        assert ieee33.path_matrices is dlf
        assert dlf.shape == (33, 33)
        with pytest.raises(ValueError, match="read-only"):
            dlf[1, 0] = 2.0

    @pytest.mark.parametrize("name,seed,ops", [("ieee33", 0, 0), ("ieee69", 4, 2)])
    def test_path_matrix_sums_the_impedance_of_the_common_root_path(self, name, seed, ops):
        """Entry [q, p] is the summed impedance of the branches on both root
        paths, walked up from each bus; the slack's row and column are zero."""
        g = reconfigured(name, seed, ops) if ops else to_grid_graph(load_case(name))
        tree = g.bfs()

        def root_path(p):
            branches = set()
            while tree.parent[p] >= 0:
                branches.add(int(tree.parent_branch[p]))
                p = tree.parent[p]
            return branches

        paths = [root_path(p) for p in range(g.n)]
        dlf = g.path_matrices
        for q in range(g.n):
            for p in range(g.n):
                want = sum((g.branches[b].impedance for b in sorted(paths[q] & paths[p])), 0j)
                assert abs(dlf[q, p] - want) <= 1e-15 * max(1.0, abs(want))
        slack = g.pos(g.slack_bus())
        assert not dlf[slack].any() and not dlf[:, slack].any()

    @pytest.mark.parametrize("name,scale", [("ieee30", 0.55), ("ieee33", 1.0)])
    def test_malformed_start_is_refused(self, name, scale, request):
        """A start of the wrong length or shape is a DimensionMismatch, one
        whose slack entry is not 1+0j a ConfigError, each one line."""
        g = request.getfixturevalue(name)
        s = case_injections(name, g) * scale
        y = build_admittance(g)
        v = solve_powerflow(g, s, y)
        slack = g.pos(g.slack_bus())
        bad_slack = []
        for entry in (1.05, 1j, np.nan):
            start = v.copy()
            start[slack] = entry
            bad_slack.append(start)
        cases = [(DimensionMismatch, v[:-1]), (DimensionMismatch, np.append(v, 1.0)),
                 (DimensionMismatch, v[None]), (DimensionMismatch, v[0])]
        cases += [(ConfigError, start) for start in bad_slack]
        for error, start in cases:
            with pytest.raises(error) as exc:
                solve_powerflow(g, s, y, v0=start)
            assert "\n" not in str(exc.value)
        with pytest.raises(ConfigError, match=r"slack voltage must be 1\+0j, got \(1\.05\+0j\)"):
            solve_powerflow(g, s, y, v0=bad_slack[0])

    @pytest.mark.parametrize("name,scale", [("ieee30", 0.55), ("ieee33", 1.0)])
    def test_balanced_start_is_returned_and_a_nan_start_solved_from_flat(self, name, scale,
                                                                         request):
        """Either solver returns a start that already balances as it is, and
        solves a start with a NaN voltage from the flat profile."""
        g = request.getfixturevalue(name)
        s = case_injections(name, g) * scale
        y = build_admittance(g)
        flat = solve_powerflow(g, s, y)
        assert solve_powerflow(g, s, y, v0=flat) is flat
        start = flat.copy()
        start[g.pos(slack_neighbor(g, y))] = np.nan
        with np.errstate(invalid="ignore"):
            got = solve_powerflow(g, s, y, v0=start)
        assert np.array_equal(got.view(np.float64), flat.view(np.float64))

    def test_sweep_failure_reports_the_sweeps_run(self, ieee33):
        with pytest.raises(NoConvergence) as exc:
            solve_powerflow(ieee33, case_injections("ieee33", ieee33), tol=1e-300)
        assert 0 < exc.value.iterations < SWEEP_MAX_ITER
        assert f"after {exc.value.iterations} iterations" in str(exc.value)

    @pytest.mark.parametrize("case,seed,index", [("ieee30", 1, 0), ("ieee39", 2, 0),
                                                  ("ieee39", 2, 4)])
    def test_newton_matches_naive_newton_bit_for_bit(self, case, seed, index, monkeypatch):
        """Every power flow that generating an FDI system solves, against the
        oracle, from the hour's chord state where it settled and then, as
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


def generated_series(case, seed, index, t_total=96, task="fdi"):
    """Graph, admittance and hourly injections of one generated system, at the
    first demand scale that `build_scenario` tries."""
    from ugcn.cli import GEN_DEFAULTS, _augment_config, _scenario_config
    from ugcn.reconfig import _generate_one
    from ugcn.scenarios import _series_profiles

    loaded = load_case(case)
    base = to_grid_graph(loaded)
    cfg = {**GEN_DEFAULTS, "task": task, "case": case, "q": index + 1, "seed": seed,
           "t_total": t_total}
    graph = _generate_one(base, _augment_config(base.n, base.kind, cfg), index).graph
    scfg = _scenario_config(base.kind, cfg)
    profiles = _series_profiles(graph, scfg, index, loaded.loads_pu(), scfg.demand_scale)
    return graph, build_admittance(graph), profiles.injections()


class TestWarmStart:
    # Largest |warm - flat| measured over 48 transmission and 30 distribution
    # systems at T=96: 2.6e-10 from chord states (ieee30 and ieee39, seeds 1-3,
    # 8 systems each, of which one fails) and 9.1e-14 (ieee69).  Both solutions
    # meet MISMATCH_TOL, and the gap is what that tolerance leaves open.
    BOUND = {"transmission": 1e-9, "distribution": 1e-12}

    @pytest.mark.parametrize("case,task,seed", [("ieee30", "fdi", 1), ("ieee39", "fdi", 2),
                                                ("ieee33", "forecast", 1),
                                                ("ieee69", "forecast", 5)])
    def test_series_matches_flat_start_solves(self, case, task, seed, monkeypatch):
        """Each hour of a generated system, solved from the start the series
        gives it (its chord state on meshed grids, the block sweep's state on
        feeders, the flat profile where neither settled) and from the flat
        profile: both balance to MISMATCH_TOL and agree."""
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
        """ieee39 seed 2 system 0, 96 hours: at most 10 Newton LU solves over
        the series, whose hours start from their chord states, and at most 0.02
        times the count from the flat profile (measured: 5, all of them hour
        0's, against 504)."""
        from ugcn.scenarios import _solve_series

        graph, y, s_inj = generated_series("ieee39", 2, 0)
        slack = graph.pos(graph.slack_bus())
        solves = [0]
        real = np.linalg.solve

        def counted(*args, **kwargs):
            solves[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        states = _solve_series(graph, y, s_inj)
        warm, solves[0] = solves[0], 0
        for t in range(s_inj.shape[0]):
            s_t = s_inj[t].copy()
            s_t[slack] = 0
            solve_powerflow(graph, s_t, y)
        assert warm <= 10
        assert warm <= 0.02 * solves[0]
        assert states.shape == (96, graph.n)


class TestSeriesSweep:
    """A feeder series is swept as one block of hours from the flat profile;
    each hour's `solve_powerflow` then starts from the block's state."""

    @pytest.mark.parametrize("case,seed,index", [("ieee33", 1, 0), ("ieee69", 5, 1)])
    def test_every_hour_balances_and_matches_its_flat_solve(self, case, seed, index,
                                                            monkeypatch):
        """240 hours: each balances within MISMATCH_TOL and lies within the
        warm-start bound of its flat-start hourly solve.  Each certifying solve
        starts from the block's state, which already balances, so the hour's
        state is its block state, bit for bit."""
        import ugcn.scenarios
        from ugcn.scenarios import _solve_series

        graph, y, s_inj = generated_series(case, seed, index, t_total=240, task="forecast")
        starts = []

        def certify(graph, s_t, y, v0, setup):
            assert v0 is not None and setup is None
            starts.append(v0.copy())
            return solve_powerflow(graph, s_t, y, v0=v0, setup=setup)

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", certify)
        states = _solve_series(graph, y, s_inj)
        assert len(starts) == 240
        slack = graph.pos(graph.slack_bus())
        for t, start in enumerate(starts):
            mism = nodal_mismatch(y, states[t], s_inj[t])
            mism[slack] = 0
            assert np.max(np.abs(mism)) < MISMATCH_TOL
            flat = solve_powerflow(graph, s_inj[t], y)
            assert np.max(np.abs(states[t] - flat)) <= TestWarmStart.BOUND["distribution"]
            assert np.array_equal(start.view(np.float64), states[t].view(np.float64))

    def test_settled_hours_certify_without_a_sweep(self, monkeypatch):
        """ieee69, 240 hours: `sweep_hours` runs once, for the block, and each
        certifying solve returns its start as it is.  A start perturbed out of
        tolerance still sweeps and gives the per-call oracle's result from it.
        A start whose slack is not 1+0j is refused; `_sweep` still sweeps from
        it to the oracle's result."""
        import ugcn.powerflow
        import ugcn.scenarios
        from ugcn.scenarios import _solve_series

        graph, y, s_inj = generated_series("ieee69", 5, 1, t_total=240, task="forecast")
        sweeps = []
        for module in (ugcn.scenarios, ugcn.powerflow):
            def counted(*args, _real=module.sweep_hours, _name=module.__name__):
                sweeps.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, "sweep_hours", counted)
        returned = []

        def certify(graph, s_t, y, v0, setup):
            v = solve_powerflow(graph, s_t, y, v0=v0, setup=setup)
            returned.append(v is v0)
            return v

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", certify)
        states = _solve_series(graph, y, s_inj)
        assert sweeps == ["ugcn.scenarios"]
        assert returned == [True] * 240

        slack = graph.pos(graph.slack_bus())
        s_t = s_inj[100]
        perturbed = states[100].copy()
        perturbed[graph.n // 2] *= 1 + 1e-6
        off_slack = states[100].copy()
        off_slack[slack] = 1.05
        sweeps.clear()
        got = solve_powerflow(graph, s_t, y, v0=perturbed)
        assert sweeps == ["ugcn.powerflow"]
        want = naive_sweep(graph, s_t, y, MISMATCH_TOL, perturbed)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert np.max(np.abs(got - states[100])) <= TestWarmStart.BOUND["distribution"]
        with pytest.raises(ConfigError, match="slack voltage"):
            solve_powerflow(graph, s_t, y, v0=off_slack)
        got = _sweep(graph, s_t, y, MISMATCH_TOL, off_slack)
        assert sweeps == ["ugcn.powerflow"] * 2
        want = naive_sweep(graph, s_t, y, MISMATCH_TOL, off_slack)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert got[slack] == 1.0

    # ieee33 at 4 times its case loads runs out of sweeps from the flat
    # profile, at 5 and 30 times it diverges.
    @pytest.mark.parametrize("scales,first", [((0.5, 1.0, 5.0, 1.2, 30.0), 2),
                                              ((0.5, 4.0, 1.0, 5.0), 1)])
    def test_earliest_failing_hour_raises_its_flat_start_failure(self, ieee33, scales, first,
                                                                 monkeypatch):
        """The block leaves the failing hours without a start; the hours before
        the first of them are certified, and it raises what its flat-start
        hourly solve raises."""
        import ugcn.scenarios
        from ugcn.scenarios import _solve_series

        y = build_admittance(ieee33)
        s_inj = np.stack([case_injections("ieee33", ieee33) * scale for scale in scales])
        _, _, step = sweep_hours(ieee33, s_inj)
        failing = [t for t, scale in enumerate(scales) if scale >= 4.0]
        assert [t for t in range(len(scales)) if not step[t] < SWEEP_STEP_TOL] == failing
        assert [step[t] == np.inf for t in failing] == [scales[t] > 4.0 for t in failing]
        with pytest.raises(NoConvergence) as flat:
            solve_powerflow(ieee33, s_inj[first], y)
        started = []

        def record(graph, s_t, y, v0, setup):
            started.append(v0 is not None)
            return solve_powerflow(graph, s_t, y, v0=v0, setup=setup)

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", record)
        with pytest.raises(NoConvergence) as got:
            _solve_series(ieee33, y, s_inj)
        assert started == [True] * first + [False]
        assert str(got.value) == str(flat.value)
        assert (got.value.iterations, got.value.mismatch) == \
            (flat.value.iterations, flat.value.mismatch)


class TestChordSeries:
    """A meshed grid's hour 0 is solved from the flat profile; `chord_hours`
    steps the other hours together from its state, and each hour's one
    `solve_powerflow` starts from its chord state if it settled, else from
    the flat profile."""

    @staticmethod
    def record(monkeypatch):
        """Wrap the series' profile, chord and power-flow calls; per demand
        scale tried, the chord's settled mask and each certified hour's
        (flat start, graph, y, injections, voltages)."""
        import ugcn.scenarios

        attempts = []
        profiles = ugcn.scenarios._series_profiles
        chord = ugcn.scenarios.chord_hours

        def scaled(graph, cfg, index, base_loads, scale):
            attempts.append({"scale": scale, "settled": None, "hours": []})
            return profiles(graph, cfg, index, base_loads, scale)

        def chorded(*args):
            states, settled = chord(*args)
            attempts[-1]["settled"] = settled.copy()
            return states, settled

        def certify(graph, s_t, y, v0, setup):
            v = solve_powerflow(graph, s_t, y, v0=v0, setup=setup)
            attempts[-1]["hours"].append((v0 is None, graph, y, s_t, v))
            return v

        monkeypatch.setattr(ugcn.scenarios, "_series_profiles", scaled)
        monkeypatch.setattr(ugcn.scenarios, "chord_hours", chorded)
        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", certify)
        return attempts

    @staticmethod
    def generate(case, seed, index):
        from ugcn.cli import GEN_DEFAULTS, _gen_one_system

        cfg = {**GEN_DEFAULTS, "task": "fdi", "case": case, "q": index + 1, "seed": seed,
               "t_total": 96}
        return _gen_one_system(case, "transmission", cfg, index)

    @pytest.mark.parametrize("seed,index,backoffs", [(1, 0, 1), (10001, 0, 2), (2, 4, None)])
    def test_demand_backs_off_to_its_measured_scale(self, seed, index, backoffs, monkeypatch):
        """ieee39 systems end at demand scale 0.55 * 0.85 ** backoffs, and
        seed 2 system 4 fails at all four scales."""
        attempts = self.record(monkeypatch)
        if backoffs is None:
            with pytest.raises(NoConvergence, match="failed at demand scales"):
                self.generate("ieee39", seed, index)
            backoffs = 3
        else:
            self.generate("ieee39", seed, index)
        assert [a["scale"] for a in attempts] == \
            pytest.approx([0.55 * 0.85 ** k for k in range(backoffs + 1)], rel=1e-15)

    def test_unsettled_hours_restart_from_the_flat_profile(self, monkeypatch):
        """ieee39 seed 1 system 0 fails at demand scale 0.55 and balances at
        0.4675.  There the chord leaves some hours unsettled within
        NEWTON_MAX_ITER (14 measured), and exactly those start from the flat
        profile.  Every hour balances within MISMATCH_TOL and lies within the
        warm-start bound of its flat-start solve (9.2e-11 measured)."""
        attempts = self.record(monkeypatch)
        self.generate("ieee39", 1, 0)
        assert [a["scale"] for a in attempts] == pytest.approx([0.55, 0.4675], rel=1e-15)
        last = attempts[-1]
        unsettled = ~last["settled"][1:]
        assert 5 <= unsettled.sum() <= 30
        assert [flat for flat, *_ in last["hours"]] == [True] + list(unsettled)
        assert len(last["hours"]) == 96
        for _, graph, y, s_t, v in last["hours"]:
            mism = nodal_mismatch(y, v, s_t)
            mism[graph.pos(graph.slack_bus())] = 0
            assert np.max(np.abs(mism)) < MISMATCH_TOL
            flat = solve_powerflow(graph, s_t, y)
            assert np.max(np.abs(v - flat)) <= TestWarmStart.BOUND["transmission"]

    def test_settled_hours_certify_without_an_lu_solve(self, monkeypatch):
        """ieee39 seed 2 system 0, 96 hours: every hour but hour 0 settles in
        the chord, and its certifying Newton returns at iteration 0; the
        series' LU solves (5 measured) are all hour 0's flat start."""
        import ugcn.scenarios
        from ugcn.scenarios import _solve_series

        graph, y, s_inj = generated_series("ieee39", 2, 0)
        solves = [0]
        per_hour = []
        real = np.linalg.solve

        def counted(*args, **kwargs):
            solves[0] += 1
            return real(*args, **kwargs)

        def certify(graph, s_t, y, v0, setup):
            before = solves[0]
            v = solve_powerflow(graph, s_t, y, v0=v0, setup=setup)
            per_hour.append((v0 is None, solves[0] - before))
            return v

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", certify)
        _solve_series(graph, y, s_inj)
        assert [flat for flat, _ in per_hour] == [True] + [False] * 95
        assert per_hour[0][1] == solves[0] > 0
        assert all(count == 0 for _, count in per_hour[1:])

    # ieee30 at 30 and 40 times its case loads has no flat-start solution.
    @pytest.mark.parametrize("scales,first", [((0.5, 0.55, 30.0, 0.5, 40.0), 2),
                                              ((30.0, 0.5), 0)])
    def test_earliest_failing_hour_raises_its_flat_start_failure(self, ieee30, scales, first,
                                                                 monkeypatch):
        """The chord leaves the absurd-load hours unsettled, without raising;
        the hours before the first of them are certified from their chord
        states, and it raises what its flat-start hourly solve raises.  A
        failing hour 0 raises before the chord runs."""
        import ugcn.scenarios
        from ugcn.scenarios import _solve_series

        y = build_admittance(ieee30)
        s_inj = np.stack([case_injections("ieee30", ieee30) * scale for scale in scales])
        with pytest.raises(NoConvergence) as flat:
            solve_powerflow(ieee30, s_inj[first], y)
        started = []
        settled = []

        def record(graph, s_t, y, v0, setup):
            started.append(v0 is not None)
            return solve_powerflow(graph, s_t, y, v0=v0, setup=setup)

        def chorded(*args):
            result = chord_hours(*args)
            settled.append(list(result[1]))
            return result

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", record)
        monkeypatch.setattr(ugcn.scenarios, "chord_hours", chorded)
        with pytest.raises(NoConvergence) as got:
            _solve_series(ieee30, y, s_inj)
        assert started == ([False] + [True] * (first - 1) + [False] if first else [False])
        assert settled == ([[scale < 10 for scale in scales]] if first else [])
        assert str(got.value) == str(flat.value)
        assert (got.value.iterations, got.value.mismatch) == \
            (flat.value.iterations, flat.value.mismatch)

    def test_one_hour_series_is_its_flat_start_solve(self, ieee30, monkeypatch):
        import ugcn.scenarios
        from ugcn.scenarios import _solve_series

        y = build_admittance(ieee30)
        s = case_injections("ieee30", ieee30) * 0.55
        starts = []

        def record(graph, s_t, y, v0, setup):
            starts.append(v0)
            return solve_powerflow(graph, s_t, y, v0=v0, setup=setup)

        monkeypatch.setattr(ugcn.scenarios, "solve_powerflow", record)
        states = _solve_series(ieee30, y, s[None])
        assert starts == [None] and states.shape == (1, ieee30.n)
        assert np.array_equal(states[0].view(np.float64),
                              solve_powerflow(ieee30, s, y).view(np.float64))

    def test_chord_drops_hours_it_cannot_settle_without_raising(self, ieee30):
        """Hours with non-finite or absurd loads drop out unsettled and keep
        the start; the others balance within MISMATCH_TOL and lie within the
        warm-start bound of their flat-start solves, and no step overflows.
        An empty block is empty, and a singular Jacobian settles no hour."""
        y = build_admittance(ieee30)
        setup = newton_setup(ieee30, y)
        s = case_injections("ieee30", ieee30)
        v = solve_powerflow(ieee30, 0.55 * s, y)
        nan_hour = 0.5 * s
        nan_hour[3] = np.nan
        block = np.stack([0.55 * s, 0.4 * s, nan_hour, 30.0 * s, 0.6 * s])
        with warnings.catch_warnings():
            # A dropped hour takes no further step, so nothing overflows.
            warnings.simplefilter("error")
            states, settled = chord_hours(y, block, v, setup)
        assert list(settled) == [True, True, False, False, True]
        for t in (2, 3):
            assert np.array_equal(states[t], v)
        for t in (0, 1, 4):
            mism = nodal_mismatch(y, states[t], block[t])
            mism[setup.slack] = 0
            assert np.max(np.abs(mism)) < MISMATCH_TOL
            assert np.max(np.abs(states[t] - solve_powerflow(ieee30, block[t], y))) <= \
                TestWarmStart.BOUND["transmission"]
        states, settled = chord_hours(y, block[:0], v, setup)
        assert states.shape == (0, ieee30.n) and settled.shape == (0,)
        # At zero voltages off the slack, a bus with no slack branch has an
        # all-zero Jacobian row: nothing settles, and nothing raises.
        dead = np.zeros(ieee30.n, dtype=np.complex128)
        dead[setup.slack] = 1.0
        states, settled = chord_hours(y, block, dead, setup)
        assert not settled.any() and np.array_equal(states, np.tile(dead, (len(block), 1)))


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
        """On noisy readings the estimate's weighted residual is below the truth's,
        which carries the pseudo-injections' error."""
        loads = load_case("ieee33").loads_pu()
        v = solve_powerflow(ieee33, feeder_injections("ieee33", ieee33, 1.2))
        buses = ami_placement(ieee33, 0.4)
        setup = ami_setup(ieee33, buses, loads)
        z = measure_ami(setup, v, sigma=0.002, rng=np.random.default_rng(3))
        est = estimate_ami(setup, z[None])[0]
        assert wls_cost(ieee33, est, z, buses, loads) < wls_cost(ieee33, v, z, buses, loads)

    def test_jacobian_matches_central_differences(self):
        """The entry-by-entry Jacobian at the flat profile against central
        differences of h, and the record's gain against K formed from it; no
        meter sees the slack."""
        self.check_jacobian("placed")

    @pytest.mark.parametrize("meters", ["near_slack", "slack_metered"])
    def test_jacobian_with_the_slack_seen_or_metered(self, meters):
        """As above, with a meter next to the slack, and with the slack metered,
        whose readings then have no row."""
        self.check_jacobian(meters)

    @staticmethod
    def check_jacobian(meters):
        g = reconfigured("ieee69", seed=3, ops=4)
        y = build_admittance(g)
        buses = set(ami_placement(g, 0.4))
        if meters != "placed":
            buses.add(slack_neighbor(g, y) if meters == "near_slack" else g.slack_bus())
        buses = tuple(sorted(buses))
        setup = ami_setup(g, buses, load_case("ieee69").loads_pu(), y)
        free, vm = oracle_rows(g, buses)
        assert len(vm) == len(buses) - (meters == "slack_metered")
        flat = np.ones(g.n, dtype=np.complex128)
        jac = loop_ami_jac(y, flat, free, vm)
        k, eps = len(free), 1e-6
        fd = np.empty_like(jac)
        for c in range(2 * k):
            dv = np.zeros(g.n, dtype=np.complex128)
            dv[free[c % k]] = eps if c < k else 1j * eps
            fd[:, c] = (loop_ami_h(y, flat + dv, free, vm) - loop_ami_h(y, flat - dv, free, vm)) / (2 * eps)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))
        # The gain solves the normal equations, whose condition number bounds its error.
        normal = jac.T @ (oracle_weights(g, buses)[:, None] * jac)
        bound = 10 * np.linalg.cond(normal) * np.finfo(float).eps
        want = oracle_gain(g, y, buses)
        assert setup.gain.shape == want.T.shape
        assert np.max(np.abs(setup.gain.T - want)) <= bound * np.max(np.abs(want))
        assert np.max(np.abs(setup.gain.T @ jac - np.eye(2 * k))) <= bound

    def test_objective_matches_lstsq_step_oracle(self):
        """The estimate is a fixed point of the step that weighted least squares
        (by SVD) takes on the flat-profile Jacobian, to within the step tolerance."""
        name = "ieee69"
        g = reconfigured(name, seed=7, ops=4)
        loads = load_case(name).loads_pu()
        y = build_admittance(g)
        v = solve_powerflow(g, feeder_injections(name, g))
        buses = ami_placement(g, 0.4)
        setup = ami_setup(g, buses, loads, y)
        z = measure_ami(setup, v, sigma=0.002, rng=np.random.default_rng(13))
        est = estimate_ami(setup, z[None])[0]
        free, vm = oracle_rows(g, buses)
        root_w = np.sqrt(oracle_weights(g, buses))
        jac = loop_ami_jac(y, np.ones(g.n, dtype=np.complex128), free, vm)
        r = oracle_target(g, z, buses, loads) - loop_ami_h(y, est, free, vm)
        step = np.linalg.lstsq(root_w[:, None] * jac, root_w * r, rcond=None)[0]
        assert np.linalg.norm(step) < GN_STEP_TOL

    def test_noise_without_rng_is_config_error(self, chain4):
        v = np.ones(4, dtype=np.complex128)
        setup = ami_setup(chain4, (2, 3, 4), {2: 0.01 + 0.005j, 3: 0.02, 4: 0.01j})
        with pytest.raises(ConfigError, match="rng required"):
            measure_ami(setup, v, sigma=0.01)

    @staticmethod
    def assert_matches_full_column_oracle(g, z, buses, loads):
        est = estimate_ami(ami_setup(g, buses, loads), z[None])[0]
        want = naive_estimate_ami(g, z, buses, loads)
        assert np.max(np.abs(est - want)) <= 1e-9
        return est

    @pytest.mark.parametrize("name,seed", [("ieee33", 2), ("ieee33", 9), ("ieee69", 3),
                                           ("ieee69", 8)])
    def test_matches_full_column_oracle_on_reconfigured_feeders(self, name, seed):
        """Against the bus-by-bus iteration run to its fixed point, on
        reconfigured feeders; a bus an op added takes the median planning load."""
        g = reconfigured(name, seed, ops=4)
        loads = load_case(name).loads_pu()
        v = solve_powerflow(g, feeder_injections(name, g))
        buses = ami_placement(g)
        z = measure_ami(ami_setup(g, buses, loads), v, sigma=0.002,
                        rng=np.random.default_rng(seed))
        self.assert_matches_full_column_oracle(g, z, buses, loads)

    @pytest.mark.parametrize("slack_seen", [False, True])
    def test_gauge_frozen_whether_or_not_a_meter_sees_the_slack(self, ieee33, slack_seen):
        """The slack stays exactly 1+0j at every hour; seen, it has a metered
        neighbor and a meter of its own."""
        y = build_admittance(ieee33)
        slack = ieee33.pos(ieee33.root)
        neighbors = {b for b in ieee33.bus_ids if b != ieee33.root and y[slack, ieee33.pos(b)] != 0}
        buses = ami_placement(ieee33)
        assert not (neighbors | {ieee33.root}) & set(buses)
        if slack_seen:
            buses = tuple(sorted(set(buses) | {min(neighbors), ieee33.root}))
        loads = load_case("ieee33").loads_pu()
        setup = ami_setup(ieee33, buses, loads, y)
        v = np.stack([solve_powerflow(ieee33, feeder_injections("ieee33", ieee33, scale), y)
                      for scale in (0.5, 1.0, 1.6)])
        z = measure_ami(setup, v, sigma=0.002, rng=np.random.default_rng(4))
        est = estimate_ami(setup, z)
        assert np.array_equal(est[:, slack], np.ones(3, dtype=np.complex128))
        self.assert_matches_full_column_oracle(ieee33, z[1], buses, loads)

    def test_reused_record_matches_per_call_oracle_bit_for_bit(self):
        """Records are built once per (graph, meters) and calls interleave over
        them, three graphs with 33 buses among them, so a record or a position
        reused from another graph or bus set would show against a record built
        for the call."""
        feeders = [("ieee33", to_grid_graph(load_case("ieee33"))),
                   ("ieee33", reconfigured("ieee33", 0, 3)), ("ieee69", reconfigured("ieee69", 4, 2)),
                   ("ieee33", reconfigured("ieee33", 1, 1))]
        assert [g.n for _, g in feeders] == [33, 33, 69, 33]
        series = []
        for name, g in feeders:
            y = build_admittance(g)
            loads = load_case(name).loads_pu()
            placed = ami_placement(g)
            near_slack = tuple(sorted(set(placed) | {slack_neighbor(g, y)}))
            assert near_slack != placed
            for buses in (placed, near_slack):
                series.append((name, g, y, buses, loads, ami_setup(g, buses, loads, y)))
        for hour, scale in enumerate((0.5, 1.0, 1.3)):
            for k, (name, g, y, buses, loads, setup) in enumerate(series):
                fresh = ami_setup(g, buses, loads, y)
                v = solve_powerflow(g, feeder_injections(name, g, scale), y)
                z = measure_ami(setup, v, sigma=0.002, rng=np.random.default_rng([hour, k]))
                want_z = measure_ami(fresh, v, sigma=0.002, rng=np.random.default_rng([hour, k]))
                assert np.array_equal(z, want_z)
                est = estimate_ami(setup, z[None])
                assert np.array_equal(est.view(np.float64),
                                      estimate_ami(fresh, z[None]).view(np.float64))
        for setup in (record for *_, record in series):
            for array in (setup.idx, setup.free, setup.vm, setup.spread, setup.gain):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[-1]

    def test_zero_noise_with_the_true_loads_as_planning_loads_is_exact(self):
        """With every bus's planning load equal to the hour's true load, the true
        state is the iteration's fixed point: noise-free readings give it back."""
        g, y, states = TestAmiSeries.series("ieee69", 3, 6)
        buses = ami_placement(g)
        for hour in (0, 5):
            injections = states[hour] * np.conj(y @ states[hour])
            loads = {b: complex(-injections[g.pos(b)]) for b in g.bus_ids}
            setup = ami_setup(g, buses, loads, y)
            est = estimate_ami(setup, measure_ami(setup, states[hour])[None])[0]
            assert np.max(np.abs(est - states[hour])) <= 1e-9

    def test_meters_next_to_the_slack_converge_within_the_budget(self, monkeypatch):
        """Meters at buses 2 and 3, next to the slack, of a 37-bus ieee33
        reconfiguration: every hour converges, noisy or not, within 10
        iterations (8 measured), a fifth of the budget."""
        import ugcn.estimation

        g = reconfigured("ieee33", seed=2, ops=4)
        assert g.n == 37
        buses = tuple(sorted(set(ami_placement(g)) | {2, 3}))
        loads = load_case("ieee33").loads_pu()
        states = build_scenario(g, ScenarioConfig(t_total=13, seed=2), 0, loads).true_states
        setup = ami_setup(g, buses, loads)
        monkeypatch.setattr(ugcn.estimation, "GN_MAX_ITER", 10)
        for sigma in (0.0, 0.002):
            z = measure_ami(setup, states, sigma=sigma, rng=np.random.default_rng(2))
            est = estimate_ami(setup, z)
            assert np.mean(np.abs(est - states) ** 2) < 1e-4


class TestAmiSeries:
    """`estimate_ami` over a series against a loop of per-hour calls."""

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
    def test_matches_per_hour_calls(self, name, seed, t_total):
        g, y, states = self.series(name, seed, t_total)
        loads = load_case(name).loads_pu()
        layouts = self.layouts(g, y)
        if t_total == 240:
            layouts = layouts[::2]      # still both parities, the slack seen and not
        for k, buses in enumerate(layouts):
            setup = ami_setup(g, buses, loads, y)
            z = measure_ami(setup, states, sigma=0.002, rng=np.random.default_rng([seed, k]))
            est = estimate_ami(setup, z)
            assert est.shape == (t_total, g.n)
            want = np.concatenate([estimate_ami(setup, z[t:t + 1]) for t in range(t_total)])
            assert np.max(np.abs(est - want)) <= 1e-12
            assert np.array_equal(estimate_ami(setup, z).view(np.float64), est.view(np.float64))
        assert {len(buses) % 2 for buses in layouts} == {0, 1}

    def test_series_measurement_matches_per_hour_draws(self):
        """One call over [T, n] draws the same noise as T calls over [n], and
        each hour's readings are the bus-by-bus injections at the meters, to
        within the rounding of admittances of up to 1e4."""
        g, y, states = self.series("ieee33", 2, 2 * AMI_BLOCK + 1)
        buses = ami_placement(g)
        setup = ami_setup(g, buses, load_case("ieee33").loads_pu(), y)
        z = measure_ami(setup, states, sigma=0.002, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        hourly = np.stack([measure_ami(setup, v, sigma=0.002, rng=rng) for v in states])
        assert z.shape == (len(states), 3 * len(buses))
        assert np.max(np.abs(z - hourly)) <= 1e-12
        pos = [g.pos(b) for b in buses]
        s = np.array([[v[i] * np.conj(y[i] @ v) for i in pos] for v in states])
        exact = np.concatenate([s.real, s.imag, np.abs(states[:, pos])], axis=1)
        assert np.max(np.abs(measure_ami(setup, states) - exact)) <= 1e-12

    @pytest.mark.parametrize("hours", [(AMI_BLOCK - 1, 1), (AMI_BLOCK + 4, AMI_BLOCK + 1),
                                       (2 * AMI_BLOCK + 1, AMI_BLOCK - 2)])
    def test_non_finite_hours_raise_as_the_hour_loop(self, hours):
        """A NaN and an inf measurement, in one block or in two: the series raises
        what the per-hour loop raises at the earlier of the two hours."""
        g, y, states = self.series("ieee33", 9, 3 * AMI_BLOCK)
        setup = ami_setup(g, ami_placement(g), load_case("ieee33").loads_pu(), y)
        z = measure_ami(setup, states)
        z[hours[0], 0] = np.nan
        z[hours[1], -1] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NoConvergence) as want:
                for t in range(len(z)):
                    estimate_ami(setup, z[t:t + 1])
            with pytest.raises(NoConvergence) as got:
                estimate_ami(setup, z)
        assert t == min(hours)
        assert (got.value.iterations, got.value.mismatch) == (1, float("inf"))
        assert (got.value.iterations, got.value.mismatch) == (want.value.iterations,
                                                                want.value.mismatch)
        assert str(got.value) == str(want.value).replace("hour 0", f"hour {t}")

    def test_hours_still_moving_after_the_budget_raise_for_the_earliest(self, monkeypatch):
        import ugcn.estimation

        g, y, states = self.series("ieee33", 9, AMI_BLOCK + 3)
        setup = ami_setup(g, ami_placement(g), load_case("ieee33").loads_pu(), y)
        z = measure_ami(setup, states)
        z[:AMI_BLOCK] = measure_ami(setup, np.ones_like(states[:AMI_BLOCK]))   # converge at once
        monkeypatch.setattr(ugcn.estimation, "GN_MAX_ITER", 2)
        with pytest.raises(NoConvergence, match=f"AMI estimate of hour {AMI_BLOCK}: "
                                                "no convergence after 2 iterations") as got:
            estimate_ami(setup, z)
        assert GN_STEP_TOL <= got.value.mismatch < np.inf

    def test_flat_start_step_is_built_once_per_series(self, monkeypatch):
        """Every hour starts at the flat profile, and its gain is the series':
        `ami_setup` solves for it once, and a series of three blocks solves nothing."""
        g, y, states = self.series("ieee33", 4, 2 * AMI_BLOCK + 1)
        loads = load_case("ieee33").loads_pu()
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        setup = ami_setup(g, ami_placement(g), loads, y)
        assert solves == [(2 * g.n - 2, 2 * g.n - 2)]
        z = measure_ami(setup, states, sigma=0.002, rng=np.random.default_rng(4))
        estimate_ami(setup, z)
        assert len(solves) == 1

    def test_measurement_shape_is_checked(self, ieee33):
        setup = ami_setup(ieee33, ami_placement(ieee33), load_case("ieee33").loads_pu())
        with pytest.raises(DimensionMismatch, match="expected \\[T, 42\\] measurements"):
            estimate_ami(setup, np.zeros(42))

    def test_carry_forward_stays_under_its_measured_bound(self):
        """On four ieee33 systems of the `gen` defaults at T = 48, the latest
        estimate carried one hour forward scores, as `eval` reports it (stride
        4 from t = 9), 3.6e-5: below 6e-5.  While every bus no meter saw
        decayed toward 0, it read about 0.4."""
        base = to_grid_graph(load_case("ieee33"))
        loads = load_case("ieee33").loads_pu()
        cfg = ScenarioConfig(t_total=48, seed=1)
        family = augment(base, AugmentConfig(q_count=4, seed=1, ops_range=(5, 12),
                                             node_bounds=(22, 38)))
        scores = []
        for index, member in enumerate(family):
            system = build_scenario(member.graph, cfg, index, loads)
            kept = np.arange(9, 47, 4)
            d = system.estimates[kept] - system.true_states[kept + 1]
            scores.append(np.mean(np.abs(d) ** 2))
        assert np.mean(scores) < 6e-5


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

    def test_series_matches_per_hour_calls(self, ieee30):
        """A [T, n] series measured in one call and estimated in one call
        equals, within 1e-12, the per-hour model: each hour draws its noise's
        real parts, then its imaginary parts, from the same generator, and is
        estimated on its own.  A single hour still works."""
        y = build_admittance(ieee30)
        s = case_injections("ieee30", ieee30)
        states = np.stack([solve_powerflow(ieee30, k * s, y) for k in (0.3, 0.45, 0.55, 0.5)])
        op = PmuOperator.build(ieee30, pmu_placement(ieee30, 0.3, seed=1), y=y)
        got = op.estimate(op.measure(states, sigma=0.002, rng=np.random.default_rng(5)))
        rng = np.random.default_rng(5)
        rows = op.h.shape[0]
        for t, v in enumerate(states):
            noise = rng.standard_normal(rows)
            noise = noise + 1j * rng.standard_normal(rows)
            z = op.h @ v[op.perm] + 0.002 * noise
            want = np.empty_like(v)
            want[op.perm] = op.solve @ z
            assert np.max(np.abs(got[t] - want)) <= 1e-12
            assert np.max(np.abs(op.estimate(z) - want)) <= 1e-12

    def test_series_of_the_wrong_width_is_dimension_mismatch(self, ieee30):
        op = PmuOperator.build(ieee30, pmu_placement(ieee30, 0.3, seed=1))
        rows = op.h.shape[0]
        with pytest.raises(DimensionMismatch):
            op.estimate(np.zeros((4, rows + 1), dtype=np.complex128))
        with pytest.raises(DimensionMismatch):
            op.estimate(np.zeros((2, 4, rows), dtype=np.complex128))
        with pytest.raises(DimensionMismatch):
            op.measure(np.ones((4, ieee30.n - 1), dtype=np.complex128))

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
