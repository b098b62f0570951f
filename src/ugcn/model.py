"""The network: complex spatio-temporal graph convolutions, adaptive pooling,
and a position-broadcast decoder head, with hand-rolled reverse-mode gradients.

The network runs on a batch of systems at once.  Each part of the batch is
one system's shift operator, node order and [B, N, m0] stack of windows, and
each part's output is [B, N].  The convolutions and pooling run part by
part, because each system has its own shift operator; the decoder runs once
over the [sum B, head_inputs] block of every part's pooled windows.  Backward
sums the parameter gradients over all windows of all parts and hands each
tensor's gradient to its caller as soon as it is final.  The recorded
tape is kept lean.  Per part it holds layer 0's input, the top layer's ReLU
mask as bool and the pooling cache; backward runs the layers below the top
one again from the input.  For the batch it holds the decoder's [sum B, d]
and [sum N, d] terms; no [B, N, d] decoder array outlives its part.

Every learnable tensor has a shape independent of the graph size, so one
parameter set runs on any system.  A parameter set is a dict of named
tensors (`conv.0`, ..., `assign`, `w_enc`, ...) shaped and ordered as
`param_shapes` gives; gradients carry the same names.  Convolution layers apply
sigma(sum_k sum_tau S^k X[t-tau] H[k,tau]) where S is the normalized shift
operator of the system at hand and the taps H are shared across systems.
The filter is associative, so a layer after the first forms the tap
products X H_k first, in one GEMM over all windows and lags, and applies S
after it in Horner form, on the narrow F_out side.  The first layer's input
is narrower than its output, so it applies S to the input and folds its
temporal taps instead (`_input_layer`).  Temporal lags of the input window
are realized by shifting the channel axis (channel j holds the estimate j
steps back), so a sample stays self-contained.

Complex tensors are differentiated in the split sense: gradients are taken
with respect to the real and imaginary parts independently and reassembled as
g = df/dRe + j df/dIm, which turns C-linear products Y = A X B into the
adjoint rules g_X = A^H g_Y B^H.  The activation is a split ReLU (real and
imaginary parts rectified independently).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionMismatch, NoForwardRecorded, TooFewNodes

CUSTOM = "custom"
LEARNABLE = "learnable"


@dataclass(frozen=True)
class LayerConfig:
    """Architecture hyperparameters; widths has one more entry than layers."""

    layers: int = 2
    k_spatial: int = 2
    k_temporal: int = 3
    widths: tuple[int, ...] = (10, 32, 32)
    pooled_nodes: int = 8
    hidden: int = 256
    pooling: str = LEARNABLE
    outputs: int = 2                    # 2 real heads = one complex output

    def __post_init__(self):
        if self.layers < 1 or len(self.widths) != self.layers + 1:
            raise ConfigError(
                f"widths {self.widths} inconsistent with {self.layers} layers"
            )
        if self.k_spatial < 0 or self.k_temporal < 0:
            raise ConfigError("filter orders must be nonnegative")
        if self.pooled_nodes < 1 or self.hidden < 1 or self.outputs < 1:
            raise ConfigError("pooled_nodes, hidden and outputs must be positive")
        if self.pooling not in (CUSTOM, LEARNABLE):
            raise ConfigError(f"unknown pooling {self.pooling!r}")

    @property
    def pooled_width(self) -> int:
        """Complex feature width after pooling (custom concatenates avg and max)."""
        return 2 * self.widths[-1] if self.pooling == CUSTOM else self.widths[-1]

    @property
    def head_inputs(self) -> int:
        """Real length of the flattened pooled block (re and im concatenated)."""
        return 2 * self.pooled_nodes * self.pooled_width

    def to_dict(self) -> dict:
        return {
            "layers": self.layers, "k_spatial": self.k_spatial,
            "k_temporal": self.k_temporal, "widths": list(self.widths),
            "pooled_nodes": self.pooled_nodes, "hidden": self.hidden,
            "pooling": self.pooling, "outputs": self.outputs,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LayerConfig":
        """Missing keys keep their defaults; an unknown key is a ConfigError."""
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError(f"unknown layer config key {unknown[0]!r}")
        doc = dict(doc)
        if "widths" in doc:
            doc["widths"] = tuple(doc["widths"])
        return cls(**doc)


def forecast_config(**overrides) -> LayerConfig:
    return LayerConfig(**{**dict(layers=2, widths=(10, 32, 32), pooling=LEARNABLE,
                                 outputs=2), **overrides})


def fdi_config(**overrides) -> LayerConfig:
    """Single spatial layer with hybrid avg/max pooling and one logit head."""
    return LayerConfig(**{**dict(layers=1, widths=(10, 32), k_temporal=0,
                                 pooling=CUSTOM, outputs=1), **overrides})


def param_shapes(cfg: LayerConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every learnable tensor by name, in the order of the model's
    parameter dict, its gradients and its checkpoint layout."""
    shapes = {f"conv.{l}": (cfg.k_spatial + 1, cfg.k_temporal + 1, cfg.widths[l], cfg.widths[l + 1])
              for l in range(cfg.layers)}
    if cfg.pooling == LEARNABLE:
        shapes["assign"] = (cfg.pooled_nodes, cfg.widths[-1])
    d = cfg.hidden
    shapes.update(w_enc=(d, cfg.head_inputs), b_enc=(d,), w_pos=(d,), b_pos=(d,),
                  w_t=(d, d), b_t=(d,), w_out=(d, cfg.outputs), b_out=(cfg.outputs,))
    return shapes


def init_params(cfg: LayerConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Complex Glorot-style init, scaled by fan-in times the tap count; the
    tensors by name, in `param_shapes` order."""
    rng = np.random.default_rng([seed, 41])
    shapes = param_shapes(cfg)
    # filled in the seed's draw order; the keys keep `param_shapes` order
    params = dict.fromkeys(shapes)

    def complex_normal(shape, std):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (std / np.sqrt(2))

    for l in range(cfg.layers):
        fan_in = cfg.widths[l] * (cfg.k_spatial + 1) * (cfg.k_temporal + 1)
        params[f"conv.{l}"] = complex_normal(shapes[f"conv.{l}"], 1.0 / np.sqrt(fan_in))
    if cfg.pooling == LEARNABLE:
        params["assign"] = complex_normal(shapes["assign"], 1.0 / np.sqrt(cfg.widths[-1]))
    d = cfg.hidden
    # Position units start as tanh thresholds spread over [0, 1] with mixed
    # sharpness, so the decoder has a localized basis over output positions
    # from the first step instead of a monotone family pinned at p = 0.
    params["w_pos"] = rng.standard_normal(d) * 6.0
    params["b_pos"] = -params["w_pos"] * rng.uniform(0.0, 1.0, size=d)
    params["w_enc"] = rng.standard_normal(shapes["w_enc"]) / np.sqrt(cfg.head_inputs)
    params["w_t"] = rng.standard_normal(shapes["w_t"]) / np.sqrt(d)
    params["w_out"] = rng.standard_normal(shapes["w_out"]) / np.sqrt(d)
    for name in ("b_enc", "b_t", "b_out"):
        params[name] = np.zeros(shapes[name])
    return params


# --------------------------------------------------------------------------
# Building blocks


def split_relu(z: np.ndarray) -> np.ndarray:
    # rectifying the interleaved float view rectifies real and imaginary parts
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return np.maximum(z.view(np.float64), 0.0).view(np.complex128)


def _relu_mask(pre: np.ndarray) -> np.ndarray:
    """Where the split ReLU passes: a bool per real component, over the float view."""
    return pre.view(np.float64) > 0


def _relu_back(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    grad = np.ascontiguousarray(grad, dtype=np.complex128)
    return (grad.view(np.float64) * mask).view(np.complex128)


def _lag_windows(stack: np.ndarray, t1: int) -> np.ndarray:
    """The [N B R, t1 F_in] windows of t1 consecutive lags of an [N, B, J, F_in]
    stack, R = J - t1 + 1; a view of the stack, no copy, when R is 1."""
    n, b, j, f_in = stack.shape
    r = j - t1 + 1
    return sliding_window_view(stack, t1, axis=2).transpose(0, 1, 2, 4, 3).reshape(
        n * b * r, t1 * f_in)


def _conv_layer(s_mat: np.ndarray, stack: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Pre-activations of one layer at every output lag the stack supports.

    stack is [N, B, J, F_in] with lag j of window b at stack[:, b, j]; output
    lag r sums S^k stack[:, :, r + tau] H[k, tau], so there are R = J - Kt
    output lags.  The sum is taken as sum_k S^k (win H_k): one GEMM contracts
    (tau, F_in) for every k at once, and S then acts in Horner form on the
    [N, B R F_out] side, narrower than the [N, B J F_in] side it would act on
    before the GEMM.  Returns the [N, B, R, F_out] pre-activations.
    """
    k1, t1, f_in, f_out = taps.shape
    n, b, j, _ = stack.shape
    r = j - t1 + 1
    win = _lag_windows(stack, t1)
    y = (win @ taps.transpose(1, 2, 0, 3).reshape(t1 * f_in, k1 * f_out)).reshape(
        n, b * r, k1, f_out)
    pre = y[:, :, k1 - 1].copy()
    for k in range(k1 - 2, -1, -1):
        pre = (s_mat @ pre.reshape(n, -1)).reshape(n, b * r, f_out)
        pre += y[:, :, k]
    return pre.reshape(n, b, r, f_out)


def _conv_layer_back(s_mat: np.ndarray, stack_conj: np.ndarray, g_pre: np.ndarray,
                     taps: np.ndarray):
    """Tap gradient of one layer and the gradient of its input stack.

    With U_k = (S^H)^k g_pre, the product win H_k has gradient U_k, so
    g_H = win^H [U_0 .. U_K] and g_win = [U_0 .. U_K] H^H are one GEMM each;
    g_win then scatters back to the lags it was read from.  The conjugated
    lag windows are formed again from `stack_conj`, the conjugate of the
    layer's input stack, so that win^H is a transposed view.  With one output
    lag, the stack is dead once g_taps has read it, and g_win is written into
    its buffer.
    """
    k1, t1, f_in, f_out = taps.shape
    n, b, r, _ = g_pre.shape
    s_h = s_mat.conj().T
    u = np.empty((n, b * r, k1, f_out), dtype=np.complex128)
    cur = g_pre.reshape(n, b * r, f_out)
    u[:, :, 0] = cur
    for k in range(1, k1):
        cur = (s_h @ cur.reshape(n, -1)).reshape(n, b * r, f_out)
        u[:, :, k] = cur
    u = u.reshape(n * b * r, k1 * f_out)
    g_taps = (_lag_windows(stack_conj, t1).T @ u).reshape(t1, f_in, k1, f_out).transpose(2, 0, 1, 3)
    taps_h = taps.transpose(1, 2, 0, 3).reshape(t1 * f_in, k1 * f_out).conj().T
    if r == 1:
        # one output lag: each lag of the stack feeds exactly one column of win
        g_win = np.matmul(u, taps_h, out=stack_conj.reshape(n * b, t1 * f_in))
        return g_taps, g_win.reshape(n, b, t1, f_in)
    g_win = (u @ taps_h).reshape(n, b, r, t1, f_in)
    g_stack = np.zeros((n, b, r + t1 - 1, f_in), dtype=np.complex128)
    for tau in range(t1):
        g_stack[:, :, tau:tau + r] += g_win[:, :, :, tau]
    return g_taps, g_stack


def _input_pairs(t1: int, f_in: int, lags: int):
    """(tau, r, d = r + tau) for every tap lag tau and output lag r with d < F_in."""
    return [(tau, r, r + tau) for r in range(lags) for tau in range(t1) if r + tau < f_in]


def _shift_products(s_mat: np.ndarray, x: np.ndarray, k1: int) -> np.ndarray:
    """[N B, k1 F_in]: the products S^k x, k < k1, of a [B, N, F_in] stack side by side."""
    b, n, f_in = x.shape
    prods = np.empty((n, k1, b * f_in), dtype=np.complex128)       # [:, k] = S^k x
    prods[:, 0] = x.transpose(1, 0, 2).reshape(n, b * f_in)
    for k in range(1, k1):
        np.matmul(s_mat, prods[:, k - 1], out=prods[:, k])
    return prods.reshape(n, k1, b, f_in).transpose(0, 2, 1, 3).reshape(n * b, k1 * f_in)


def _input_layer(z: np.ndarray, taps: np.ndarray, lags: int, n: int) -> np.ndarray:
    """Pre-activations of the first layer at output lags 0 .. lags-1.

    z is the [N B, (K+1) F_in] block of products S^k x of a [B, N, F_in] input
    x (`_shift_products`).  Lag r + tau of the input is x with its channels
    shifted by r + tau, and a channel shift is a linear map on the F_in side,
    so sum_tau S^k shift(x, r + tau) H[k, tau] = (S^k x) W[k, :, r] with the
    folded taps W[k, c, r] = sum_tau H[k, tau, c + r + tau].  S acts on the
    narrow x, and one GEMM contracts (k, F_in) for every output lag.  Returns
    the [N, B, lags, F_out] pre-activations.
    """
    k1, t1, f_in, f_out = taps.shape
    folded = np.zeros((k1, f_in, lags, f_out), dtype=np.complex128)
    for tau, r, d in _input_pairs(t1, f_in, lags):
        folded[:, : f_in - d, r] += taps[:, tau, d:]
    return (z @ folded.reshape(k1 * f_in, lags * f_out)).reshape(n, -1, lags, f_out)


def _input_layer_back(z: np.ndarray, g_pre: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Tap gradient of the first layer: the folded-tap gradient, unfolded."""
    k1, t1, f_in, f_out = taps.shape
    n, b, lags, _ = g_pre.shape
    g_folded = (z.conj().T @ g_pre.reshape(n * b, lags * f_out)).reshape(k1, f_in, lags, f_out)
    g_taps = np.zeros_like(taps)
    for tau, r, d in _input_pairs(t1, f_in, lags):
        g_taps[:, tau, d:] += g_folded[:, : f_in - d, r]
    return g_taps


def _conv_pres(s_mat: np.ndarray, z: np.ndarray, params: dict[str, np.ndarray],
               cfg: LayerConfig, depth: int) -> list[np.ndarray]:
    """Pre-activations of conv layers 0 .. depth-1 from layer 0's S^k x
    products z, [N, B, lags, F_out] each.  Each later layer drops k_temporal
    lags, so the first one evaluates (layers - 1) * k_temporal + 1 of them and
    the top layer is left with lag 0."""
    pres = []
    for l in range(depth):
        if l == 0:
            pres.append(_input_layer(z, params["conv.0"], (cfg.layers - 1) * cfg.k_temporal + 1,
                                     len(s_mat)))
        else:
            pres.append(_conv_layer(s_mat, split_relu(pres[-1]), params[f"conv.{l}"]))
    return pres


def _cluster_sizes(n: int, n_p: int) -> np.ndarray:
    if n < n_p:
        raise TooFewNodes(f"cannot pool {n} nodes into {n_p} clusters")
    base, rem = divmod(n, n_p)
    return np.array([base + 1] * rem + [base] * (n_p - rem))


def pool_custom(x: np.ndarray, n_p: int, order: np.ndarray | None = None):
    """Average and split elementwise-max per BFS-ordered cluster, concatenated.

    x is [..., N, F]; each leading index (a window) is pooled on its own, and
    the result is [..., N_p, 2F].  The clusters are padded to the size of the
    largest and reduced together.  Padding is -inf for the max, so a tie
    between real entries (split-ReLU outputs tie at 0) still goes to the
    cluster's first row, as np.argmax picks.  Returns (pooled, cache) where
    the cache carries what backward needs.
    """
    x = np.asarray(x, dtype=np.complex128)
    n, f = x.shape[-2:]
    cols = np.moveaxis(x, -2, 0).reshape(n, -1)                        # [N, C]
    order = np.arange(n) if order is None else np.asarray(order)
    sizes = _cluster_sizes(n, n_p)
    slot = np.arange(sizes[0])
    pad = slot[None, :] >= sizes[:, None]                              # [N_p, M]
    rows = order[np.minimum((np.cumsum(sizes) - sizes)[:, None] + slot, n - 1)]
    block = cols[rows]                                                 # [N_p, M, C]
    block[pad] = 0.0
    avg = block.sum(axis=1) / sizes[:, None]
    block[pad] = complex(-np.inf, -np.inf)
    ire = np.argmax(block.real, axis=1)
    iim = np.argmax(block.imag, axis=1)
    top = block.real.max(axis=1) + 1j * block.imag.max(axis=1)
    lead = x.shape[:-2]
    pooled = np.concatenate([avg.reshape(n_p, *lead, f), top.reshape(n_p, *lead, f)], axis=-1)
    cache = {"order": order, "sizes": sizes, "shape": x.shape,
             "argmax_re": np.take_along_axis(rows, ire, axis=1),
             "argmax_im": np.take_along_axis(rows, iim, axis=1)}
    return np.moveaxis(pooled, 0, -2), cache


def _pool_custom_back(grad: np.ndarray, cache: dict) -> np.ndarray:
    shape = cache["shape"]
    n, f = shape[-2:]
    sizes = cache["sizes"]
    grad = np.moveaxis(grad, -2, 0)
    g_avg = grad[..., :f].reshape(len(sizes), -1)
    g_max = grad[..., f:].reshape(len(sizes), -1)
    g_x = np.empty((n, g_avg.shape[1]), dtype=np.complex128)
    g_x[cache["order"]] = np.repeat(g_avg / sizes[:, None], sizes, axis=0)
    # clusters are disjoint, so no (row, column) pair repeats within one max
    cols = np.arange(g_avg.shape[1])
    g_x.real[cache["argmax_re"], cols] += g_max.real
    g_x.imag[cache["argmax_im"], cols] += g_max.imag
    return np.moveaxis(g_x.reshape(n, *shape[:-2], f), 0, -2)


def pool_learnable(x: np.ndarray, w_assign: np.ndarray):
    """Row-stochastic soft assignment: A = softmax_rows |W_A X^H|, pooled = A X.

    x is [..., N, F], one assignment per leading index (window).  Returns
    (A [..., N_p, N] real, pooled [..., N_p, F], cache).
    """
    x = np.asarray(x, dtype=np.complex128)
    w_assign = np.asarray(w_assign, dtype=np.complex128)
    if w_assign.shape[1] != x.shape[-1]:
        raise DimensionMismatch(
            f"assignment width {w_assign.shape[1]} != features {x.shape[-1]}"
        )
    m = w_assign @ x.conj().swapaxes(-1, -2)            # [..., N_p, N]
    scores = np.abs(m)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    a = e / e.sum(axis=-1, keepdims=True)
    pooled = a @ x
    cache = {"m": m, "scores": scores, "a": a, "x": x, "w": w_assign}
    return a, pooled, cache


def _pool_learnable_back(grad: np.ndarray, cache: dict):
    m, scores, a, x, w = cache["m"], cache["scores"], cache["a"], cache["x"], cache["w"]
    g_a = (grad @ x.conj().swapaxes(-1, -2)).real
    g_x = a.swapaxes(-1, -2) @ grad
    # softmax rows
    g_scores = a * (g_a - np.sum(g_a * a, axis=-1, keepdims=True))
    # modulus
    safe = np.where(scores > 1e-300, scores, 1.0)
    g_m = g_scores * np.where(scores > 0, m / safe, 0.0)
    # m = w conj(x)^T: w's gradient sums g_m x over the windows, x's adds g_m^H w
    lead = tuple(range(x.ndim - 2))
    g_w = np.tensordot(g_m, x, axes=(lead + (x.ndim - 1,), lead + (x.ndim - 2,)))
    g_x = g_x + g_m.conj().swapaxes(-1, -2) @ w
    return g_w, g_x


# --------------------------------------------------------------------------
# Full model


def decoder_positions(n: int, node_order: np.ndarray | None) -> np.ndarray:
    """Decoder position codes in [0, 1].

    With a node ordering available each bus is coded by its normalized
    electrical rank, which makes the decoded profile a function of feeder
    depth rather than label order; without one, by its label order.
    """
    rank = np.arange(n, dtype=float)
    if node_order is not None:
        rank[np.asarray(node_order)] = np.arange(n, dtype=float)
    return rank / max(n - 1, 1)


def _checked_part(s, x, node_order, cfg: LayerConfig):
    s_mat = np.asarray(s, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 3 or x.shape[2] != cfg.widths[0]:
        raise DimensionMismatch(
            f"input {x.shape} is not a [B, N, {cfg.widths[0]}] stack of windows")
    if s_mat.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"S {s_mat.shape} vs {x.shape[1]} nodes")
    return s_mat, x, node_order


def model_forward(parts, params: dict[str, np.ndarray], cfg: LayerConfig, record: bool = False):
    """Run the network on a batch of systems.

    parts is a sequence of (s, x, node_order), one per system: s its [N, N]
    shift operator, x a [B, N, m0] complex stack of B windows (channel m0-1
    the newest estimate), node_order its BFS order or None.  Returns one
    [B, N] output per part, per window a complex phasor prediction per bus
    (two real heads) or a real logit per bus; with `record`, (outputs, tape).
    """
    parts = [_checked_part(s, x, order, cfg) for s, x, order in parts]
    if not parts:
        raise DimensionMismatch("model_forward needs at least one part")
    # each part's rows of the [sum B, ...] window block and of the [sum N, ...] bus block
    rows = np.cumsum([0] + [x.shape[0] for _, x, _ in parts])
    nodes = np.cumsum([0] + [x.shape[1] for _, x, _ in parts])
    spans = [(slice(*rows[i:i + 2]), slice(*nodes[i:i + 2])) for i in range(len(parts))]
    half = cfg.head_inputs // 2
    x_vec = np.empty((rows[-1], cfg.head_inputs))
    tapes = []
    for (s_mat, x, order), (part_rows, _) in zip(parts, spans):
        # inside the conv stack the node axis leads: [N, B, lags, F]
        pre = _conv_pres(s_mat, _shift_products(s_mat, x, cfg.k_spatial + 1), params, cfg,
                         cfg.layers)[-1]
        top = split_relu(pre)[:, :, 0].transpose(1, 0, 2)          # [B, N, F]
        if cfg.pooling == CUSTOM:
            pooled, pool_cache = pool_custom(top, cfg.pooled_nodes, order)
        else:
            _, pooled, pool_cache = pool_learnable(top, params["assign"])
        x_vec[part_rows, :half] = pooled.real.reshape(len(pooled), -1)
        x_vec[part_rows, half:] = pooled.imag.reshape(len(pooled), -1)
        if record:
            tapes.append({"s": s_mat, "x": x, "mask": _relu_mask(pre), "pool_cache": pool_cache})

    head = _head(x_vec, np.concatenate([decoder_positions(x.shape[1], order)
                                        for _, x, order in parts]), params)
    ys = []
    for (_, x, _), span in zip(parts, spans):
        out = np.maximum(_head_part(head, *span), 0.0).reshape(-1, cfg.hidden) @ params["w_out"]
        out = (out + params["b_out"]).reshape(*x.shape[:2], -1)
        ys.append(out[..., 0] + 1j * out[..., 1] if cfg.outputs == 2 else out[..., 0])
    if not record:
        return ys
    return ys, {"cfg": cfg, "params": params, "head": head, "spans": spans, "parts": tapes}


def _head(x_vec: np.ndarray, positions: np.ndarray, params: dict[str, np.ndarray]) -> dict:
    """The decoder terms that every part of a batch shares.

    The decoder broadcasts each window's encoded block h over its system's
    position-coded buses,

        pre_t[b, n] = (h[b] + e_pos[n]) w_t + b_t,   e_pos[n] = tanh(p_n w_pos + b_pos),

    taken as pre_t[b, n] = hw[b] + E[n] with hw = h w_t and E = e_pos w_t + b_t.
    x_vec is the [sum B, head_inputs] block of every window's flattened pooled
    block and positions the [sum N] codes of every part's buses, so one GEMM
    forms each of h, hw and E for the whole batch.  e_pos is not kept:
    backward forms it again.
    """
    e_pos = _position_codes(positions, params)
    h = np.maximum(x_vec @ params["w_enc"].T + params["b_enc"], 0.0)
    return {"x_vec": x_vec, "positions": positions, "h": h,
            "hw": h @ params["w_t"], "e": e_pos @ params["w_t"] + params["b_t"][None, :]}


def _position_codes(positions: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """e_pos = tanh(p w_pos + b_pos), one row per bus."""
    return np.tanh(positions[:, None] * params["w_pos"][None, :] + params["b_pos"][None, :])


def _head_part(head: dict, rows: slice, nodes: slice) -> np.ndarray:
    """One part's [B, N, d] pre_t: its windows' rows of hw over its buses' rows of E."""
    return head["hw"][rows][:, None, :] + head["e"][nodes]


def _head_back(head: dict, params: dict[str, np.ndarray], spans, g_outs, take):
    """Hand each decoder gradient, summed over every window, to take(name,
    gradient) once backward has read its tensor for the last time, and
    return the gradient of x_vec.

    spans holds each part's (rows, nodes) slices and g_outs its [B, N, outputs]
    output gradient.  Part by part, pre_t is formed again and reduced to
    col[b] = sum_n g_pre_t[b, n] and g_pos[n] = sum_b g_pre_t[b, n]; then the
    w_t gradient is h^T col + e_pos^T g_pos, g_h = col w_t^T, and the e_pos
    terms of the w_pos and b_pos gradients contract g_pos, one GEMM each over
    the batch.  The [sum N, d] position terms are released before the w_enc
    gradient is formed, and each gradient once it is taken.
    """
    grads, col, g_pos = _broadcast_back(head, params, spans, g_outs)
    _hand_over(grads, take)
    e_pos = _position_codes(head["positions"], params)
    g_w_t = e_pos.T @ g_pos
    g_pre_e = (g_pos @ params["w_t"].T) * (1.0 - e_pos ** 2)
    del e_pos, g_pos
    take("w_pos", head["positions"] @ g_pre_e)
    take("b_pos", g_pre_e.sum(axis=0))
    del g_pre_e
    h = head["h"]
    g_w_t += h.T @ col
    g_pre_h = (col @ params["w_t"].T) * (h > 0)
    take("w_t", g_w_t)
    take("b_t", col.sum(axis=0))
    del g_w_t, col
    g_x_vec = g_pre_h @ params["w_enc"]
    take("w_enc", g_pre_h.T @ head["x_vec"])
    take("b_enc", g_pre_h.sum(axis=0))
    return g_x_vec


def _broadcast_back(head: dict, params: dict[str, np.ndarray], spans, g_outs):
    """The w_out and b_out gradients, col [sum B, d] and g_pos [sum N, d],
    with each part's [B, N, d] arrays formed and released in turn."""
    w_out = params["w_out"]
    d = w_out.shape[0]
    col = np.empty_like(head["h"])
    g_pos = np.empty_like(head["e"])
    grads = {"w_out": np.zeros_like(w_out), "b_out": np.zeros_like(params["b_out"])}
    for (rows, nodes), g_out in zip(spans, g_outs):
        pre_t = _head_part(head, rows, nodes)
        g_flat = g_out.reshape(-1, g_out.shape[-1])
        g_pre_t = (g_flat @ w_out.T).reshape(pre_t.shape)
        g_pre_t *= pre_t > 0
        grads["w_out"] += np.maximum(pre_t, 0.0, out=pre_t).reshape(-1, d).T @ g_flat
        grads["b_out"] += g_flat.sum(axis=0)
        col[rows] = g_pre_t.sum(axis=1)
        g_pos[nodes] = g_pre_t.sum(axis=0)
    return grads, col, g_pos


def _add(grads: dict, name: str, g: np.ndarray) -> None:
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _hand_over(grads: dict, take) -> None:
    """Pass every gradient of `grads` to take(name, gradient), each released once taken."""
    while grads:
        take(*grads.popitem())


def model_backward(tape: dict, grads_out, take=None):
    """Parameter gradients of a recorded forward pass, summed over every
    window of every part.

    grads_out holds one [B, N] cogradient of the loss with respect to each
    part's output: complex for the two-head phasor output, real for logits.
    Each tensor's gradient goes to take(name, gradient) as soon as it is
    final and backward reads the tensor no more, so `take` may update both in
    place: each decoder tensor once the decoder has read it for the last
    time, the convolution taps and `assign` after the last part.  Without
    `take`, returns the gradients by tensor name, in `param_shapes` order.
    """
    if not isinstance(tape, dict) or "cfg" not in tape:
        raise NoForwardRecorded("model_backward needs the tape from model_forward(record=True)")
    cfg: LayerConfig = tape["cfg"]
    params: dict[str, np.ndarray] = tape["params"]
    if take is None:
        grads = {}
        model_backward(tape, grads_out, grads.__setitem__)
        return {name: grads[name] for name in params}
    parts = tape["parts"]
    if len(grads_out) != len(parts):
        raise DimensionMismatch(f"{len(grads_out)} output gradients for {len(parts)} parts")
    g_outs = []
    for g in grads_out:
        g = np.asarray(g)
        g_outs.append(np.stack([g.real, g.imag], axis=-1) if cfg.outputs == 2
                      else g.real[..., None])
    g_x_vec = _head_back(tape["head"], params, tape["spans"], g_outs, take)
    grads = {}
    for part, (part_rows, _) in zip(parts, tape["spans"]):
        _part_back(part, g_x_vec[part_rows], params, cfg, grads)
    _hand_over(grads, take)


def _part_back(part: dict, g_rows: np.ndarray, params: dict[str, np.ndarray],
               cfg: LayerConfig, grads: dict) -> None:
    """Add one part's pooling and convolution gradients to `grads`, given the
    gradient of its rows of x_vec.  A function of its own, so that a part's
    arrays are released before the next part's are formed."""
    half = cfg.head_inputs // 2
    g_pooled = (g_rows[:, :half] + 1j * g_rows[:, half:]).reshape(
        len(g_rows), cfg.pooled_nodes, cfg.pooled_width)
    if cfg.pooling == CUSTOM:
        g_top = _pool_custom_back(g_pooled, part["pool_cache"])
    else:
        g_assign, g_top = _pool_learnable_back(g_pooled, part["pool_cache"])
        _add(grads, "assign", g_assign)
    # the layers below the top one run again from x, as the forward ran them;
    # an activation is positive where its pre-activation is
    s_mat = part["s"]
    z = _shift_products(s_mat, part["x"], cfg.k_spatial + 1)
    stacks = [split_relu(pre) for pre in _conv_pres(s_mat, z, params, cfg, cfg.layers - 1)]
    g_pre = _relu_back(g_top.transpose(1, 0, 2)[:, :, None, :], part["mask"])
    for l in range(cfg.layers - 1, 0, -1):
        # the mask reads the stack before it is conjugated in place
        mask = _relu_mask(stacks[l - 1])
        g_taps, g_act = _conv_layer_back(s_mat, np.conjugate(stacks[l - 1], out=stacks[l - 1]),
                                         g_pre, params[f"conv.{l}"])
        _add(grads, f"conv.{l}", g_taps)
        g_pre = _relu_back(g_act, mask)
    _add(grads, "conv.0", _input_layer_back(z, g_pre, params["conv.0"]))
