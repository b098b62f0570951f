"""Network building blocks against independent oracles."""

import numpy as np
import pytest

from conftest import random_tree
from ugcn.errors import TooFewNodes
from ugcn.grid import build_admittance, build_gso
from ugcn.model import (
    CUSTOM,
    LEARNABLE,
    LayerConfig,
    _cluster_sizes,
    _conv_layer,
    _conv_pres,
    _pool_custom_back,
    _pool_learnable_back,
    _shift_products,
    decoder_positions,
    fdi_config,
    forecast_config,
    init_params,
    model_backward,
    model_forward,
    param_shapes,
    pool_custom,
    pool_learnable,
    split_relu,
)
from ugcn.training import dense_shapes, init_dense


def random_gso(n, seed):
    g = random_tree(n, seed)
    return build_gso(build_admittance(g))


def shift_powers(s: np.ndarray, k_max: int) -> list[np.ndarray]:
    """[I, S, S^2, ..., S^k_max]."""
    s = np.asarray(s, dtype=np.complex128)
    powers = [np.eye(s.shape[0], dtype=np.complex128)]
    for _ in range(k_max):
        powers.append(powers[-1] @ s)
    return powers


def filter_matrix(s: np.ndarray, coeffs) -> np.ndarray:
    """Polynomial of the shift operator, sum_k c_k S^k."""
    s = np.asarray(s, dtype=np.complex128)
    out = np.zeros_like(s)
    power = np.eye(s.shape[0], dtype=np.complex128)
    for c in coeffs:
        out = out + c * power
        power = power @ s
    return out


def shift_channels(x: np.ndarray, lag: int) -> np.ndarray:
    """Delay the channel/time axis by `lag` steps, zero-filling the oldest slots."""
    if lag == 0:
        return x
    out = np.zeros_like(x)
    if lag < x.shape[1]:
        out[:, lag:] = x[:, : x.shape[1] - lag]
    return out


def cluster_slices(n: int, n_p: int) -> list[np.ndarray]:
    """Contiguous cluster index blocks, sizes as even as possible, larger first."""
    bounds = np.cumsum(np.concatenate([[0], _cluster_sizes(n, n_p)]))
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_p)]


def conv_forward(s, window, taps):
    """One graph convolution layer's output at lag 0, through the model's
    `_conv_layer`; window[tau] holds the [N, F_in] features lagged by tau."""
    stack = np.asarray(window, dtype=np.complex128).transpose(1, 0, 2)[:, None]
    pre = _conv_layer(np.asarray(s, dtype=np.complex128), stack,
                      np.asarray(taps, dtype=np.complex128))
    return split_relu(pre[:, 0, 0])


def naive_conv(s, window, taps):
    """Triple-loop evaluation of the layer equation, with explicit powers."""
    k1, t1, f_in, f_out = taps.shape
    n = s.shape[0]
    out = np.zeros((n, f_out), dtype=complex)
    for k in range(k1):
        sk = np.linalg.matrix_power(s, k)
        for tau in range(t1):
            for fo in range(f_out):
                for fi in range(f_in):
                    out[:, fo] += sk @ window[tau][:, fi] * taps[k, tau, fi, fo]
    return np.maximum(out.real, 0) + 1j * np.maximum(out.imag, 0)


def naive_pool_custom(x, n_p, order):
    """Custom pooling cluster by cluster; returns (pooled, backward)."""
    n, f = x.shape
    clusters = [order[sl] for sl in cluster_slices(n, n_p)]
    cols = np.arange(f)
    pooled = np.empty((n_p, 2 * f), dtype=complex)
    arg_re = np.empty((n_p, f), dtype=int)
    arg_im = np.empty((n_p, f), dtype=int)
    for i, rows in enumerate(clusters):
        block = x[rows]
        ire, iim = np.argmax(block.real, axis=0), np.argmax(block.imag, axis=0)
        pooled[i, :f] = block.mean(axis=0)
        pooled[i, f:] = block.real[ire, cols] + 1j * block.imag[iim, cols]
        arg_re[i], arg_im[i] = rows[ire], rows[iim]

    def backward(grad):
        g_re, g_im = np.zeros((n, f)), np.zeros((n, f))
        for i, rows in enumerate(clusters):
            g_avg = grad[i, :f] / len(rows)
            g_re[rows] += g_avg.real
            g_im[rows] += g_avg.imag
            np.add.at(g_re, (arg_re[i], cols), grad[i, f:].real)
            np.add.at(g_im, (arg_im[i], cols), grad[i, f:].imag)
        return g_re + 1j * g_im

    return pooled, backward


def naive_head(x_vec, positions, params):
    """The decoder as written, (h + e_pos) w_t + b_t per bus, with no
    per-system constant; returns (out, backward) where backward maps the
    output gradient to the head's gradients and the gradient of x_vec."""
    pre_h = params["w_enc"] @ x_vec + params["b_enc"]
    h = np.maximum(pre_h, 0.0)
    e_pos = np.tanh(positions[:, None] * params["w_pos"][None, :] + params["b_pos"][None, :])
    c = h[None, :] + e_pos
    pre_t = c @ params["w_t"] + params["b_t"][None, :]
    t_act = np.maximum(pre_t, 0.0)
    out = t_act @ params["w_out"] + params["b_out"][None, :]

    def backward(g_out):
        g_pre_t = (g_out @ params["w_out"].T) * (pre_t > 0)
        g_c = g_pre_t @ params["w_t"].T
        g_pre_e = g_c * (1.0 - e_pos ** 2)
        g_pre_h = g_c.sum(axis=0) * (pre_h > 0)
        grads = {"w_out": t_act.T @ g_out, "b_out": g_out.sum(axis=0),
                 "w_t": c.T @ g_pre_t, "b_t": g_pre_t.sum(axis=0),
                 "w_pos": (g_pre_e * positions[:, None]).sum(axis=0),
                 "b_pos": g_pre_e.sum(axis=0),
                 "w_enc": np.outer(g_pre_h, x_vec), "b_enc": g_pre_h}
        return grads, params["w_enc"].T @ g_pre_h

    return out, backward


def naive_model(s, x, params, cfg, order):
    """The network with every graph convolution evaluated lag by lag, tap by
    tap, with explicit powers S^k and the decoder without its per-system
    constant; returns (y, backward) where backward maps the output cogradient
    to every parameter gradient.  Learnable pooling is the model's own."""
    n = x.shape[0]
    powers = shift_powers(s, cfg.k_spatial)
    k1, t1 = cfg.k_spatial + 1, cfg.k_temporal + 1
    feats = [{r: shift_channels(x, r) for r in range(cfg.layers * cfg.k_temporal + 1)}]
    pres = [{}]
    for l in range(1, cfg.layers + 1):
        taps = params[f"conv.{l - 1}"]
        feats.append({})
        pres.append({})
        for r in range((cfg.layers - l) * cfg.k_temporal + 1):
            pre = np.zeros((n, taps.shape[3]), dtype=complex)
            for k in range(k1):
                for tau in range(t1):
                    pre += powers[k] @ feats[l - 1][r + tau] @ taps[k, tau]
            pres[l][r] = pre
            feats[l][r] = split_relu(pre)
    top = feats[cfg.layers][0]
    if cfg.pooling == CUSTOM:
        pooled, pool_back = naive_pool_custom(top, cfg.pooled_nodes, order)
    else:
        _, pooled, pool_cache = pool_learnable(top, params["assign"])
    x_vec = np.concatenate([pooled.real.ravel(), pooled.imag.ravel()])
    out, head_back = naive_head(x_vec, decoder_positions(n, order), params)
    y = out[:, 0] + 1j * out[:, 1] if cfg.outputs == 2 else out[:, 0]

    def backward(grad_out):
        g_out = (np.stack([grad_out.real, grad_out.imag], axis=1) if cfg.outputs == 2
                 else grad_out.real[:, None])
        grads, g_x_vec = head_back(g_out)
        half = pooled.size
        g_pooled = (g_x_vec[:half] + 1j * g_x_vec[half:]).reshape(pooled.shape)
        if cfg.pooling == CUSTOM:
            g_top = pool_back(g_pooled)
        else:
            grads["assign"], g_top = _pool_learnable_back(g_pooled, pool_cache)
        g_feats = [{} for _ in range(cfg.layers + 1)]
        g_feats[cfg.layers][0] = g_top
        for l in range(cfg.layers, 0, -1):
            taps = params[f"conv.{l - 1}"]
            g_taps = np.zeros_like(taps)
            for r, g_act in g_feats[l].items():
                pre = pres[l][r]
                g_pre = g_act.real * (pre.real > 0) + 1j * (g_act.imag * (pre.imag > 0))
                for k in range(k1):
                    for tau in range(t1):
                        g_taps[k, tau] += (powers[k] @ feats[l - 1][r + tau]).conj().T @ g_pre
                        if l > 1:
                            back = powers[k].conj().T @ g_pre @ taps[k, tau].conj().T
                            g_feats[l - 1][r + tau] = g_feats[l - 1].get(r + tau, 0) + back
            grads[f"conv.{l - 1}"] = g_taps
        return grads

    return y, backward


def rel_err(fast, slow):
    return float(np.max(np.abs(fast - slow)) / max(np.max(np.abs(slow)), 1e-300))


class TestConvForward:
    def test_zero_input_gives_zero(self):
        s = random_gso(7, 0)
        taps = np.ones((3, 2, 4, 5), dtype=complex)
        window = np.zeros((2, 7, 4), dtype=complex)
        assert np.all(conv_forward(s, window, taps) == 0)

    def test_identity_filter_passthrough(self):
        s = random_gso(6, 1)
        taps = np.eye(4, dtype=complex)[None, None]   # K=0, Kt=0, H00=I
        rng = np.random.default_rng(2)
        window = (rng.uniform(0.1, 1, (1, 6, 4)) + 1j * rng.uniform(0.1, 1, (1, 6, 4)))
        out = conv_forward(s, window, taps)
        assert np.allclose(out, window[0], atol=1e-14)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_naive_loops(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(4, 13))
        k, kt = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        f_in, f_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        s = random_gso(n, 200 + trial)
        taps = rng.standard_normal((k + 1, kt + 1, f_in, f_out)) \
            + 1j * rng.standard_normal((k + 1, kt + 1, f_in, f_out))
        window = rng.standard_normal((kt + 1, n, f_in)) \
            + 1j * rng.standard_normal((kt + 1, n, f_in))
        fast = conv_forward(s, window, taps)
        slow = naive_conv(s, window, taps)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = 9
            s = random_gso(n, 300 + trial)
            taps = rng.standard_normal((3, 2, 3, 4)) + 1j * rng.standard_normal((3, 2, 3, 4))
            window = rng.standard_normal((2, n, 3)) + 1j * rng.standard_normal((2, n, 3))
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            out = conv_forward(s, window, taps)
            out_p = conv_forward(p @ s @ p.T, window[:, perm, :], taps)
            assert np.max(np.abs(out_p - out[perm])) < 1e-10


class TestShiftChannels:
    def test_shift_moves_history(self):
        x = np.arange(12, dtype=complex).reshape(3, 4)
        shifted = shift_channels(x, 1)
        assert np.all(shifted[:, 0] == 0)
        assert np.allclose(shifted[:, 1:], x[:, :3])

    def test_large_lag_zeroes_out(self):
        x = np.ones((3, 4), dtype=complex)
        assert np.all(shift_channels(x, 4) == 0)
        assert np.all(shift_channels(x, 9) == 0)


class TestPooling:
    def test_cluster_sizes_13_into_4(self):
        sizes = [len(c) for c in cluster_slices(13, 4)]
        assert sorted(sizes, reverse=True) == [4, 3, 3, 3]
        assert sizes == [4, 3, 3, 3]

    def test_cluster_sizes_10_into_4(self):
        sizes = [len(c) for c in cluster_slices(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_custom_constant_input(self):
        c = 0.3 - 0.7j
        x = np.full((12, 5), c)
        pooled, _ = pool_custom(x, 4)
        assert np.allclose(pooled[:, :5], c)
        assert np.allclose(pooled[:, 5:], c)

    def test_custom_output_shape_and_too_few(self):
        x = np.zeros((8, 3), dtype=complex)
        pooled, _ = pool_custom(x, 4)
        assert pooled.shape == (4, 6)
        with pytest.raises(TooFewNodes):
            pool_custom(np.zeros((3, 2), dtype=complex), 4)

    @pytest.mark.parametrize("n", [10, 13, 33])
    def test_learnable_rows_sum_to_one(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        w = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        a, pooled, _ = pool_learnable(x, w)
        assert a.shape == (4, n)
        assert pooled.shape == (4, 6)
        assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-9

    def test_learnable_uniform_when_scores_equal(self):
        x = np.ones((7, 3), dtype=complex)
        w = np.ones((2, 3), dtype=complex)
        a, _, _ = pool_learnable(x, w)
        assert np.allclose(a, 1.0 / 7)


class TestHeadAndModel:
    def test_output_length_follows_request(self):
        """One parameter set gives a [B, N] complex output for every system size N."""
        cfg = forecast_config(widths=(4, 6, 6), pooled_nodes=3, hidden=16)
        params = init_params(cfg, seed=0)
        for n in (12, 30, 39, 57):
            s = random_gso(n, n)
            x = np.random.default_rng(n).standard_normal((2, n, 4)) * (0.1 + 0.05j)
            y, = model_forward([(s, x, None)], params, cfg)
            assert y.shape == (2, n)
            assert np.iscomplexobj(y)

    def test_zero_input_zero_preactivations(self):
        cfg = forecast_config(widths=(4, 5, 5), pooled_nodes=2, hidden=8)
        params = init_params(cfg, seed=1)
        s = random_gso(6, 5)
        x = np.zeros((2, 6, 4), dtype=complex)
        pres = _conv_pres(s, _shift_products(s, x, cfg.k_spatial + 1), params, cfg, cfg.layers)
        assert len(pres) == cfg.layers
        for l, pre in enumerate(pres, 1):
            # every output lag the layer evaluates: [N, B, lags, F_out]
            assert pre.shape == (6, 2, (cfg.layers - l) * cfg.k_temporal + 1, cfg.widths[l])
            assert np.all(pre == 0)

    def test_forward_is_pure(self):
        cfg = fdi_config(widths=(5, 7), pooled_nodes=3, hidden=12)
        params = init_params(cfg, seed=2)
        s = random_gso(9, 9)
        x = np.random.default_rng(0).standard_normal((3, 9, 5)) + 0j
        y1, = model_forward([(s, x, None)], params, cfg)
        y2, = model_forward([(s, x, None)], params, cfg)
        assert np.array_equal(y1, y2)

    def test_same_params_run_across_sizes(self):
        cfg = forecast_config(widths=(6, 8, 8), pooled_nodes=4, hidden=16)
        params = init_params(cfg, seed=3)
        blobs_before = {k: v.copy() for k, v in params.items()}
        for n in (10, 22, 33, 38, 57):
            s = random_gso(n, 1000 + n)
            x = np.random.default_rng(n).standard_normal((2, n, 6)) * (0.2 + 0.1j)
            order = np.arange(n)
            y, = model_forward([(s, x, order)], params, cfg)
            assert y.shape == (2, n)
        for k, v in params.items():
            assert np.array_equal(blobs_before[k], v)

    def test_tensor_shapes_derive_from_config_alone(self):
        for cfg in (forecast_config(), fdi_config()):
            params = init_params(cfg, seed=4)
            shapes = {k: v.shape for k, v in params.items()}
            for l in range(cfg.layers):
                assert shapes[f"conv.{l}"] == (
                    cfg.k_spatial + 1, cfg.k_temporal + 1, cfg.widths[l], cfg.widths[l + 1]
                )
            if cfg.pooling == "learnable":
                assert shapes["assign"] == (cfg.pooled_nodes, cfg.widths[-1])
            assert shapes["w_enc"] == (cfg.hidden, cfg.head_inputs)
            assert shapes["w_pos"] == (cfg.hidden,)
            assert shapes["w_t"] == (cfg.hidden, cfg.hidden)
            assert shapes["w_out"] == (cfg.hidden, cfg.outputs)

    def test_param_shapes_match_init_params(self):
        for cfg in (forecast_config(), fdi_config(),
                    forecast_config(layers=3, widths=(4, 5, 6, 7), k_temporal=0)):
            shapes = {k: v.shape for k, v in init_params(cfg, seed=1).items()}
            assert list(param_shapes(cfg).items()) == list(shapes.items())
        for task, hidden, depth in (("forecast", 16, 1), ("fdi", 8, 3)):
            model = init_dense((4, 7, 9), task, hidden=hidden, depth=depth, seed=1)
            shapes = {k: v.shape for k, v in model.params.items()}
            assert list(dense_shapes(3, task, hidden, depth).items()) == list(shapes.items())

    def test_split_relu(self):
        z = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])
        out = split_relu(z)
        assert np.allclose(out, [1 + 1j, 1j, 1, 0])


class TestShiftInvariance:
    def test_polynomial_commutes_with_shift(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            s = random_gso(int(rng.integers(5, 20)), 400 + trial)
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            hs = filter_matrix(s, coeffs)
            comm = hs @ s - s @ hs
            assert np.linalg.norm(comm, "fro") < 1e-9


def add_grads(total: dict, grads: dict) -> None:
    for name, arr in grads.items():
        total[name] = total[name] + arr if name in total else arr


class TestModelAgainstNaive:
    """The live conv and pooling path, on stacks of windows, against the
    window-by-window, lag-by-lag reference."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("pooling", [CUSTOM, LEARNABLE])
    def test_outputs_and_every_gradient(self, layers, pooling):
        rng = np.random.default_rng([layers, len(pooling)])
        for k in range(4):
            for kt in range(4):
                cfg = LayerConfig(layers=layers, k_spatial=k, k_temporal=kt,
                                  widths=(3,) + (4,) * layers, pooled_nodes=4, hidden=6,
                                  pooling=pooling, outputs=2 if pooling == LEARNABLE else 1)
                params = init_params(cfg, seed=10 * k + kt)
                # uneven clusters and one node per cluster; the middle window of
                # each stack is all zero, so its split-ReLU outputs all tie at 0
                # under max pooling
                for n in (7, 4):
                    s = random_gso(n, 50 + n)
                    order = rng.permutation(n)
                    x = rng.standard_normal((3, n, 3)) + 1j * rng.standard_normal((3, n, 3))
                    x[1] = 0.0
                    g = rng.standard_normal((3, n)) + (1j * rng.standard_normal((3, n))
                                                       if cfg.outputs == 2 else 0)
                    case = f"K={k} Kt={kt} n={n}"
                    (y,), tape = model_forward([(s, x, order)], params, cfg, record=True)
                    grads, ref = model_backward(tape, [g]), {}
                    for b in range(3):
                        y_ref, backward = naive_model(s, x[b], params, cfg, order)
                        assert rel_err(y[b], y_ref) <= 1e-12, f"{case} window {b}"
                        add_grads(ref, backward(g[b]))
                    assert grads.keys() == ref.keys() == params.keys(), case
                    for name in ref:
                        assert rel_err(grads[name], ref[name]) <= 1e-12, f"{case} {name}"

    @pytest.mark.parametrize("pooling", [CUSTOM, LEARNABLE])
    def test_deferred_head_terms_match_summed_gradients(self, pooling):
        """Stacks that share their system's decoder constant against the sum of
        each window's gradients with the constant formed per window."""
        cfg = LayerConfig(layers=2, k_spatial=2, k_temporal=1, widths=(3, 4, 4),
                          pooled_nodes=3, hidden=6, pooling=pooling,
                          outputs=2 if pooling == LEARNABLE else 1)
        params = init_params(cfg, seed=8)
        rng = np.random.default_rng(8)
        total, ref = {}, {}
        for n, b in ((6, 3), (9, 2), (6, 1)):
            order = rng.permutation(n)
            s = random_gso(n, 80 + n)
            x = rng.standard_normal((b, n, 3)) + 1j * rng.standard_normal((b, n, 3))
            g = rng.standard_normal((b, n)) + (1j * rng.standard_normal((b, n))
                                               if cfg.outputs == 2 else 0)
            _, tape = model_forward([(s, x, order)], params, cfg, record=True)
            add_grads(total, model_backward(tape, [g]))
            for i in range(b):
                _, tape = model_forward([(s, x[i:i + 1], order)], params, cfg, record=True)
                add_grads(ref, model_backward(tape, [g[i:i + 1]]))
        assert total.keys() == ref.keys() == params.keys()
        for name in ref:
            assert rel_err(total[name], ref[name]) <= 1e-12, name

    @pytest.mark.parametrize("n", [4, 7, 13])
    def test_custom_pooling_matches_cluster_loop(self, n):
        rng = np.random.default_rng(n)
        # a coarse grid of values makes exact ties, at 0 among others, common
        x = (rng.integers(-2, 3, (n, 5)) + 1j * rng.integers(-2, 3, (n, 5))).astype(complex)
        order = rng.permutation(n)
        pooled, cache = pool_custom(x, 4, order)
        pooled_ref, backward = naive_pool_custom(x, 4, order)
        assert np.array_equal(pooled, pooled_ref)
        grad = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        assert np.array_equal(_pool_custom_back(grad, cache), backward(grad))


def tape_arrays(node):
    """Every array held anywhere in a tape's dicts, lists and tuples."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from tape_arrays(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from tape_arrays(value)


class TestBatchOfSystems:
    """Several systems in one forward and one backward, against each alone."""

    @pytest.mark.parametrize("pooling", [CUSTOM, LEARNABLE])
    def test_mixed_size_parts_match_each_part_alone(self, pooling):
        cfg = LayerConfig(layers=2, k_spatial=2, k_temporal=1, widths=(10, 6, 6),
                          pooled_nodes=4, hidden=16, pooling=pooling,
                          outputs=2 if pooling == LEARNABLE else 1)
        params = init_params(cfg, seed=12)
        rng = np.random.default_rng(12)
        parts, gs = [], []
        for n, b in ((30, 3), (39, 1), (30, 2)):
            x = rng.standard_normal((b, n, 10)) + 1j * rng.standard_normal((b, n, 10))
            parts.append((random_gso(n, 90 + n + b), x, rng.permutation(n)))
            gs.append(rng.standard_normal((b, n)) + (1j * rng.standard_normal((b, n))
                                                     if cfg.outputs == 2 else 0))
        ys, tape = model_forward(parts, params, cfg, record=True)
        grads, ref = model_backward(tape, gs), {}
        assert len(ys) == len(parts)
        for part, y, g in zip(parts, ys, gs):
            (alone,), part_tape = model_forward([part], params, cfg, record=True)
            assert y.shape == alone.shape
            assert rel_err(y, alone) <= 1e-12
            add_grads(ref, model_backward(part_tape, [g]))
        assert list(grads) == list(ref) == list(params)
        for name in ref:
            assert rel_err(grads[name], ref[name]) <= 1e-12, name
        for y, untaped in zip(ys, model_forward(parts, params, cfg)):
            assert np.array_equal(y, untaped)

    def test_fdi_tape_keeps_no_decoder_sized_array(self):
        """A recorded tape at B=8, N=39, hidden=256 holds no array as large as
        one [B, N, hidden] decoder activation; backward forms those part by part."""
        b, n = 8, 39
        cfg = fdi_config(widths=(10, 32), k_spatial=3, pooled_nodes=12, hidden=256)
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((b, n, 10)) + 1j * rng.standard_normal((b, n, 10))
        _, tape = model_forward([(random_gso(n, 5), x, rng.permutation(n))], params, cfg,
                                record=True)
        sizes = [a.size for a in tape_arrays({k: v for k, v in tape.items() if k != "params"})]
        assert sizes and max(sizes) < b * n * cfg.hidden
