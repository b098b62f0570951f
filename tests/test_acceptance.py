"""Acceptance gate: one test per criterion, each printing its verdict line.

The file holds criteria 1-9 and 13: (1) gradients against finite
differences, (2) the graph convolution against a loop oracle, (3) shift
invariance, (4) permutation equivariance, (5) parameter shapes independent of
the system size, (6) pooling contracts, (7) stealth attacks, (8) power-flow
physics, (9) augmentation invariants and (13) byte-identical reruns.  The
learning criteria 10-12 (zero-shot forecasting, FDI localization and
cross-size transfer) are not written yet.
"""

import hashlib
import time

import numpy as np
import pytest

from conftest import random_tree
from ugcn.caseio import load_case, to_grid_graph
from ugcn.errors import InfeasibleAttack
from ugcn.estimation import fdi_sensor_placement
from ugcn.fdi import build_stealth_attack, inject, sample_attack_config
from ugcn.grid import build_admittance
from ugcn.model import (
    fdi_config,
    forecast_config,
    init_params,
    model_forward,
    pool_custom,
    pool_learnable,
)
from ugcn.powerflow import nodal_mismatch, solve_powerflow
from ugcn.reconfig import AugmentConfig, augment
from ugcn.scenarios import ScenarioConfig, build_scenario
from ugcn.estimation import PmuOperator


def verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -------------------------------------------------------------------- 1


def test_criterion_01_gradient_correctness():
    from test_gradients import analytic_grads, loss_of, setup_instance

    start = time.time()
    worst_overall = 0.0
    for cfg, task, seed in (
        (forecast_config(widths=(3, 4, 4), k_spatial=2, k_temporal=2,
                         pooled_nodes=3, hidden=10), "forecast", 0),
        (fdi_config(widths=(3, 4), k_spatial=2, k_temporal=1,
                    pooled_nodes=3, hidden=10), "fdi", 3),
    ):
        s, order, x, target, params = setup_instance(cfg, task, seed=seed, n=6)
        grads = analytic_grads(params, s, order, x, target, cfg, task)
        for name, tensor in params.items():
            view = tensor.view(np.float64) if np.iscomplexobj(tensor) else tensor
            grad = np.ascontiguousarray(grads[name])
            gview = grad.view(np.float64) if np.iscomplexobj(grad) else grad
            flat, gflat = view.reshape(-1), gview.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + 1e-5
                up = loss_of(params, s, order, x, target, cfg, task)
                flat[i] = keep - 1e-5
                down = loss_of(params, s, order, x, target, cfg, task)
                flat[i] = keep
                fd = (up - down) / 2e-5
                scale = max(abs(fd), abs(gflat[i]), 1e-6)
                worst_overall = max(worst_overall, abs(fd - gflat[i]) / scale)
    elapsed = time.time() - start
    verdict(1, worst_overall < 1e-4 and elapsed < 60,
            f"max relative gradient error {worst_overall:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 2


def test_criterion_02_conv_oracle():
    from test_model import conv_forward, naive_conv, random_gso

    worst = 0.0
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(4, 13))
        k, kt = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        f_in, f_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        s = random_gso(n, 900 + trial)
        taps = rng.standard_normal((k + 1, kt + 1, f_in, f_out)) \
            + 1j * rng.standard_normal((k + 1, kt + 1, f_in, f_out))
        window = rng.standard_normal((kt + 1, n, f_in)) \
            + 1j * rng.standard_normal((kt + 1, n, f_in))
        worst = max(worst, float(np.max(np.abs(
            conv_forward(s, window, taps) - naive_conv(s, window, taps)))))
    verdict(2, worst < 1e-10, f"max |fast - naive| = {worst:.2e} over 20 instances")


# -------------------------------------------------------------------- 3


def test_criterion_03_shift_invariance():
    from test_model import filter_matrix, random_gso

    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(10):
        s = random_gso(int(rng.integers(5, 25)), 500 + trial)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        hs = filter_matrix(s, coeffs)
        worst = max(worst, float(np.linalg.norm(hs @ s - s @ hs, "fro")))
    verdict(3, worst < 1e-9, f"max commutator Frobenius norm {worst:.2e}")


# -------------------------------------------------------------------- 4


def test_criterion_04_permutation_equivariance():
    from test_model import conv_forward, random_gso

    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(5, 15))
        s = random_gso(n, 600 + trial)
        taps = rng.standard_normal((3, 2, 3, 4)) + 1j * rng.standard_normal((3, 2, 3, 4))
        window = rng.standard_normal((2, n, 3)) + 1j * rng.standard_normal((2, n, 3))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        out = conv_forward(s, window, taps)
        out_p = conv_forward(p @ s @ p.T, window[:, perm, :], taps)
        worst = max(worst, float(np.max(np.abs(out_p - out[perm]))))
    verdict(4, worst < 1e-10, f"max equivariance defect {worst:.2e}")


# -------------------------------------------------------------------- 5


def params_digest(params):
    blob = b"".join(np.ascontiguousarray(v).tobytes() for v in params.values())
    return hashlib.sha256(blob).hexdigest()


def test_criterion_05_universality_shape_audit():
    from test_model import random_gso

    cfg = forecast_config(widths=(10, 16, 16), pooled_nodes=8, hidden=32)
    params = init_params(cfg, seed=5)
    digest_before = params_digest(params)
    sizes = (10, 22, 33, 38, 57)
    for n in sizes:
        s = random_gso(n, 7000 + n)
        x = np.random.default_rng(n).standard_normal((2, n, 10)) * (0.05 + 0.02j)
        y, = model_forward([(s, x, np.arange(n))], params, cfg)
        assert y.shape == (2, n)
    verdict(5, params_digest(params) == digest_before,
            f"one parameter set ran on sizes {sizes}; checksum unchanged")


# -------------------------------------------------------------------- 6


def test_criterion_06_pooling_contracts():
    from test_model import cluster_slices

    sizes_13 = [len(c) for c in cluster_slices(13, 4)]
    sizes_10 = [len(c) for c in cluster_slices(10, 4)]
    ok = sorted(sizes_13) == [3, 3, 3, 4] and sorted(sizes_10) == [2, 2, 3, 3]
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (10, 13, 30, 57):
        x = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        w = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        a, _, _ = pool_learnable(x, w)
        worst = max(worst, float(np.max(np.abs(a.sum(axis=1) - 1.0))))
    verdict(6, ok and worst < 1e-9,
            f"cluster sizes {sizes_13}/{sizes_10}; row-sum defect {worst:.2e}")


# -------------------------------------------------------------------- 7


def test_criterion_07_stealth_attacks():
    graph = to_grid_graph(load_case("ieee30"), kind="transmission")
    y = build_admittance(graph)
    sensors = fdi_sensor_placement(graph, seed=0)
    loads = load_case("ieee30").loads_pu()
    s_inj = -np.array([loads[b] for b in graph.bus_ids]) * 0.55
    s_inj[0] = 0
    v = solve_powerflow(graph, s_inj, y)
    op = PmuOperator.build(graph, sensors, mu1=1e-3, y=y)
    z = op.measure(v)
    base_res = op.residual(z)

    built = 0
    trial = 0
    worst_stealth = 0.0
    worst_res = 0.0
    while built < 100:
        trial += 1
        idx, omega = sample_attack_config(len(sensors), seed=[21, trial])
        targets = tuple(sensors[j] for j in idx)
        try:
            attack = build_stealth_attack(y, sensors, targets, omega,
                                          seed=[22, trial], graph=graph)
        except InfeasibleAttack:
            continue
        if attack.is_null:
            continue
        built += 1
        honest = [b for b in sensors if b not in set(attack.compromised)]
        p_pos = [graph.pos(b) for b in honest]
        c_pos = [graph.pos(b) for b in attack.compromised]
        if p_pos:
            block = y[np.ix_(p_pos, c_pos)]
            worst_stealth = max(worst_stealth,
                                float(np.max(np.abs(block @ attack.delta_v[c_pos]))))
        z_att = inject(z, op.h, attack.delta_v[op.perm], attack.omega)
        worst_res = max(worst_res, abs(op.residual(z_att) - base_res))
    verdict(7, worst_stealth < 1e-10 and worst_res < 1e-8,
            f"100 attacks: max stealth defect {worst_stealth:.2e}, "
            f"max residual change {worst_res:.2e}")


# -------------------------------------------------------------------- 8


def test_criterion_08_powerflow_physics():
    worst = 0.0
    for name in ("ieee33", "ieee69"):
        case = load_case(name)
        g = to_grid_graph(case)
        y = build_admittance(g)
        loads = case.loads_pu()
        s_inj = -np.array([loads[b] for b in g.bus_ids])
        s_inj[g.pos(g.root)] = 0
        v = solve_powerflow(g, s_inj, y)
        mism = nodal_mismatch(y, v, s_inj)
        mism[g.pos(g.root)] = 0
        worst = max(worst, float(np.max(np.abs(mism))))
    g33 = to_grid_graph(load_case("ieee33"))
    flat = solve_powerflow(g33, np.zeros(33, dtype=complex))
    exact_flat = np.array_equal(flat, np.ones(33, dtype=complex))
    verdict(8, worst < 1e-8 and exact_flat,
            f"worst nodal mismatch {worst:.2e}; zero load flat exactly: {exact_flat}")


# -------------------------------------------------------------------- 9


def test_criterion_09_augmentation_invariants():
    base33 = to_grid_graph(load_case("ieee33"))
    cfg = AugmentConfig(q_count=1000, seed=97, ops_range=(5, 12), node_bounds=(22, 38))
    bad = 0
    for member in augment(base33, cfg):
        g = member.graph
        tree = len(g.in_service()) == g.n - 1   # + connectivity via constructor
        if not (tree and g.root == 1 and 22 <= g.n <= 38):
            bad += 1
    base30 = to_grid_graph(load_case("ieee30"), kind="transmission")
    tcfg = AugmentConfig(q_count=1000, seed=98, ops_range=(1, 4), node_bounds=(30, 30))
    for member in augment(base30, tcfg):
        member.graph._validate()   # raises Disconnected if an outage split it
    verdict(9, bad == 0,
            "1000 radial variants valid within (22,38); 1000 outage variants connected")


# -------------------------------------------------------------------- 13


def test_criterion_13_determinism(tmp_path):
    import hashlib
    import os

    from ugcn.cli import main as cli_main

    def digest_dir(d):
        out = hashlib.sha256()
        for name in sorted(os.listdir(d)):
            if name.endswith(".ugcn.json"):
                out.update(open(os.path.join(d, name), "rb").read())
        return out.hexdigest()

    args = ["gen", "--task", "forecast", "--q", "2", "--seed", "11",
            "--t-total", "24", "--set", "ops_min=1", "--set", "ops_max=3"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(args + ["--out", a]) == 0
    assert cli_main(args + ["--out", b]) == 0
    gen_same = digest_dir(a) == digest_dir(b)

    targs = ["train", "--task", "forecast", "--data", a, "--seed", "2",
             "--set", "epochs=2", "--set", "batch_systems=2",
             "--set", "windows_per_system=2", "--set", "widths=[10,6,6]",
             "--set", "pooled_nodes=4", "--set", "hidden=12"]
    ck1, ck2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    assert cli_main(targs + ["--out", ck1]) == 0
    assert cli_main(targs + ["--out", ck2]) == 0
    train_same = open(ck1, "rb").read() == open(ck2, "rb").read()

    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    eargs = ["eval", "--checkpoint", ck1, "--data", a,
             "--set", "horizons=[1]", "--set", "stride=8"]
    assert cli_main(eargs + ["--out", r1]) == 0
    assert cli_main(eargs + ["--out", r2]) == 0
    import json

    d1 = json.loads(open(r1).read())
    d2 = json.loads(open(r2).read())
    d1.pop("wall_clock_s")
    d2.pop("wall_clock_s")
    eval_same = d1 == d2
    verdict(13, gen_same and train_same and eval_same,
            f"gen {gen_same}, train {train_same}, eval {eval_same} byte-identical")
