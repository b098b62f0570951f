"""Analytic gradients against central finite differences on small instances.

Complex tensors are perturbed one real component at a time (re then im), so
the check covers exactly the split derivatives the backward pass claims to
produce.  Each instance is a stack of two windows of one system, and the loss
is their mean.
"""

import numpy as np
import pytest

from conftest import random_tree
from ugcn.errors import NoForwardRecorded
from ugcn.grid import build_admittance, build_gso
from ugcn.model import (
    fdi_config,
    forecast_config,
    init_params,
    model_backward,
    model_forward,
)
from ugcn.training import _loss_fdi_grad, _loss_forecast_grad

FD_STEP = 1e-5
REL_TOL = 1e-4


def setup_instance(cfg, task, seed=0, n=6):
    g = random_tree(n, seed)
    s = build_gso(build_admittance(g))
    order = g.bfs().order
    rng = np.random.default_rng([seed, 99])
    x = 0.1 * (rng.standard_normal((2, n, cfg.widths[0]))
               + 1j * rng.standard_normal((2, n, cfg.widths[0])))
    if task == "forecast":
        target = 0.1 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    else:
        target = (rng.random((2, n)) > 0.5).astype(float)
    params = init_params(cfg, seed=seed + 1)
    return s, order, x, target, params


def loss_of(params, s, order, x, target, cfg, task):
    y = model_forward(s, x, params, cfg, node_order=order)
    if task == "forecast":
        d = y - target
        return float(np.mean(d.real ** 2 + d.imag ** 2))
    return float(np.mean(np.maximum(y, 0) - y * target + np.log1p(np.exp(-np.abs(y)))))


def analytic_grads(params, s, order, x, target, cfg, task):
    y, tape = model_forward(s, x, params, cfg, node_order=order, record=True)
    if task == "forecast":
        _, g = _loss_forecast_grad(y, target)
    else:
        _, g = _loss_fdi_grad(y, target)
    return model_backward(tape, g)


def check_tensor(name, tensor, grad, params, s, order, x, target, cfg, task):
    """Central differences on every real component of one tensor."""
    view = tensor.view(np.float64) if np.iscomplexobj(tensor) else tensor
    gview = np.ascontiguousarray(grad).view(np.float64) if np.iscomplexobj(grad) else grad
    flat = view.reshape(-1)
    gflat = np.asarray(gview).reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + FD_STEP
        up = loss_of(params, s, order, x, target, cfg, task)
        flat[i] = keep - FD_STEP
        down = loss_of(params, s, order, x, target, cfg, task)
        flat[i] = keep
        fd = (up - down) / (2 * FD_STEP)
        scale = max(abs(fd), abs(gflat[i]), 1e-6)
        worst = max(worst, abs(fd - gflat[i]) / scale)
    assert worst < REL_TOL, f"{name}: worst relative error {worst:.2e}"


FORECAST_CFG = forecast_config(
    widths=(3, 4, 4), k_spatial=2, k_temporal=2, pooled_nodes=3, hidden=10
)
FDI_CFG = fdi_config(
    widths=(3, 4), k_spatial=2, k_temporal=1, pooled_nodes=3, hidden=10
)


@pytest.mark.parametrize("name", list(init_params(FORECAST_CFG)))
def test_forecast_learnable_pooling_grads(name):
    cfg, task = FORECAST_CFG, "forecast"
    s, order, x, target, params = setup_instance(cfg, task, seed=0)
    grads = analytic_grads(params, s, order, x, target, cfg, task)
    check_tensor(name, params[name], grads[name],
                 params, s, order, x, target, cfg, task)


@pytest.mark.parametrize("name", list(init_params(FDI_CFG)))
def test_fdi_custom_pooling_grads(name):
    cfg, task = FDI_CFG, "fdi"
    s, order, x, target, params = setup_instance(cfg, task, seed=3)
    grads = analytic_grads(params, s, order, x, target, cfg, task)
    check_tensor(name, params[name], grads[name],
                 params, s, order, x, target, cfg, task)


def test_seed_gradient_of_quadratic_is_identity():
    y = np.array([1 + 2j, -0.5 + 0.25j, 3.0 + 0j])
    _, g = _loss_forecast_grad(y, np.zeros(3, dtype=complex))
    assert np.allclose(g, 2.0 * y / 3)


def test_unused_temporal_taps_get_zero_gradient():
    """A window shorter than the deepest lag leaves those taps out of the loss."""
    cfg = forecast_config(widths=(2, 3, 3), k_spatial=1, k_temporal=3,
                          pooled_nodes=2, hidden=6)
    s, order, x, target, params = setup_instance(cfg, "forecast", seed=5, n=5)
    x = np.zeros_like(x)
    x[..., -1] = 0.3 + 0.2j   # only the newest channel carries signal
    grads = analytic_grads(params, s, order, x, target, cfg, "forecast")
    # Layer-1 taps at lags beyond the populated history see only zero inputs
    # once the channel shift pushes the single live channel out of range.
    deepest = grads["conv.0"][:, -1]   # tau = 3 on a 2-channel window
    assert np.all(deepest == 0)


def test_backward_requires_tape():
    with pytest.raises(NoForwardRecorded):
        model_backward({"not": "a tape"}, np.zeros(3))
