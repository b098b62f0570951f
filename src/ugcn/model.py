"""The network: complex spatio-temporal graph convolutions, adaptive pooling,
and a position-broadcast decoder head, with hand-rolled reverse-mode gradients.

Every learnable tensor has a shape independent of the graph size, so one
parameter set runs on any system.  Convolution layers apply
sigma(sum_k sum_tau S^k X[t-tau] H[k,tau]) where S is the normalized shift
operator of the system at hand and the taps H are shared across systems.
Temporal lags of the input window are realized by shifting the channel axis
(channel j holds the estimate j steps back), so a sample stays self-contained.

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

from .errors import DimensionMismatch, NoForwardRecorded, TooFewNodes
from .grid import Gso

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
            raise DimensionMismatch(
                f"widths {self.widths} inconsistent with {self.layers} layers"
            )
        if self.k_spatial < 0 or self.k_temporal < 0:
            raise DimensionMismatch("filter orders must be nonnegative")
        if self.pooled_nodes < 1 or self.hidden < 1 or self.outputs < 1:
            raise DimensionMismatch("pooled_nodes, hidden and outputs must be positive")
        if self.pooling not in (CUSTOM, LEARNABLE):
            raise DimensionMismatch(f"unknown pooling {self.pooling!r}")

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
        doc = dict(doc)
        doc["widths"] = tuple(doc["widths"])
        return cls(**doc)


def forecast_config(**overrides) -> LayerConfig:
    return LayerConfig(**{**dict(layers=2, widths=(10, 32, 32), pooling=LEARNABLE,
                                 outputs=2), **overrides})


def fdi_config(**overrides) -> LayerConfig:
    """Single spatial layer with hybrid avg/max pooling and one logit head."""
    return LayerConfig(**{**dict(layers=1, widths=(10, 32), k_temporal=0,
                                 pooling=CUSTOM, outputs=1), **overrides})


@dataclass
class UgcnParams:
    """All learnable tensors; shapes never depend on the graph size."""

    conv: list[np.ndarray]              # per layer: [K+1, Kt+1, F_in, F_out] complex
    assign: np.ndarray | None           # [N_p, F_L] complex (learnable pooling only)
    w_enc: np.ndarray                   # [d, head_inputs]
    b_enc: np.ndarray                   # [d]
    w_pos: np.ndarray                   # [d]
    b_pos: np.ndarray                   # [d]
    w_t: np.ndarray                     # [d, d]
    b_t: np.ndarray                     # [d]
    w_out: np.ndarray                   # [d, outputs]
    b_out: np.ndarray                   # [outputs]

    def tensors(self) -> dict[str, np.ndarray]:
        out = {f"conv.{i}": t for i, t in enumerate(self.conv)}
        if self.assign is not None:
            out["assign"] = self.assign
        out.update(
            w_enc=self.w_enc, b_enc=self.b_enc, w_pos=self.w_pos, b_pos=self.b_pos,
            w_t=self.w_t, b_t=self.b_t, w_out=self.w_out, b_out=self.b_out,
        )
        return out

    def copy(self) -> "UgcnParams":
        return UgcnParams(
            conv=[t.copy() for t in self.conv],
            assign=None if self.assign is None else self.assign.copy(),
            w_enc=self.w_enc.copy(), b_enc=self.b_enc.copy(),
            w_pos=self.w_pos.copy(), b_pos=self.b_pos.copy(),
            w_t=self.w_t.copy(), b_t=self.b_t.copy(),
            w_out=self.w_out.copy(), b_out=self.b_out.copy(),
        )


def init_params(cfg: LayerConfig, seed: int = 0) -> UgcnParams:
    """Complex Glorot-style init, scaled by fan-in times the tap count."""
    rng = np.random.default_rng([seed, 41])
    conv = []
    for l in range(cfg.layers):
        f_in, f_out = cfg.widths[l], cfg.widths[l + 1]
        std = 1.0 / np.sqrt(f_in * (cfg.k_spatial + 1) * (cfg.k_temporal + 1))
        shape = (cfg.k_spatial + 1, cfg.k_temporal + 1, f_in, f_out)
        conv.append(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (std / np.sqrt(2))
        )
    assign = None
    if cfg.pooling == LEARNABLE:
        std = 1.0 / np.sqrt(cfg.widths[-1])
        shape = (cfg.pooled_nodes, cfg.widths[-1])
        assign = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (std / np.sqrt(2))
    d, hin = cfg.hidden, cfg.head_inputs
    # Position units start as tanh thresholds spread over [0, 1] with mixed
    # sharpness, so the decoder has a localized basis over output positions
    # from the first step instead of a monotone family pinned at p = 0.
    w_pos = rng.standard_normal(d) * 6.0
    b_pos = -w_pos * rng.uniform(0.0, 1.0, size=d)
    return UgcnParams(
        conv=conv,
        assign=assign,
        w_enc=rng.standard_normal((d, hin)) / np.sqrt(hin),
        b_enc=np.zeros(d),
        w_pos=w_pos,
        b_pos=b_pos,
        w_t=rng.standard_normal((d, d)) / np.sqrt(d),
        b_t=np.zeros(d),
        w_out=rng.standard_normal((d, cfg.outputs)) / np.sqrt(d),
        b_out=np.zeros(cfg.outputs),
    )


# --------------------------------------------------------------------------
# Building blocks


def split_relu(z: np.ndarray) -> np.ndarray:
    # rectifying the interleaved float view rectifies real and imaginary parts
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return np.maximum(z.view(np.float64), 0.0).view(np.complex128)


def _relu_back(grad: np.ndarray, pre: np.ndarray) -> np.ndarray:
    grad = np.ascontiguousarray(grad, dtype=np.complex128)
    return (grad.view(np.float64) * (pre.view(np.float64) > 0)).view(np.complex128)


def shift_channels(x: np.ndarray, lag: int) -> np.ndarray:
    """Delay the channel/time axis by `lag` steps, zero-filling the oldest slots."""
    if lag == 0:
        return x
    out = np.zeros_like(x)
    if lag < x.shape[1]:
        out[:, lag:] = x[:, : x.shape[1] - lag]
    return out


def _products(s_mat: np.ndarray, stack: np.ndarray, k_max: int) -> np.ndarray:
    """[N, K+1, J, F] with [:, k] = S^k stack, each built as S (S^{k-1} stack)."""
    n, j, f = stack.shape
    prods = np.empty((n, k_max + 1, j * f), dtype=np.complex128)
    prods[:, 0] = stack.reshape(n, j * f)
    for k in range(1, k_max + 1):
        np.matmul(s_mat, prods[:, k - 1], out=prods[:, k])
    return prods.reshape(n, k_max + 1, j, f)


def _conv_layer(s_mat: np.ndarray, stack: np.ndarray, taps: np.ndarray):
    """Pre-activations of one layer at every output lag the stack supports.

    stack is [N, J, F_in] with lag j at stack[:, j]; output lag r sums
    S^k stack[:, r + tau] H[k, tau], so there are J - Kt output lags.  Returns
    ([N, J - Kt, F_out] pre-activations, [N (J - Kt), (K+1)(Kt+1)F_in] stacked
    products), the products flattened in the order of the flattened taps so
    one GEMM contracts (k, tau, F_in) for all output lags.
    """
    k1, t1, f_in, f_out = taps.shape
    n, j, _ = stack.shape
    r = j - t1 + 1
    prods = _products(s_mat, stack, k1 - 1)
    # a view of the products, no copy, when a single output lag is left
    lagged = sliding_window_view(prods, t1, axis=2)            # [N, K+1, R, F_in, Kt+1]
    z = lagged.transpose(0, 2, 1, 4, 3).reshape(n * r, k1 * t1 * f_in)
    pre = (z @ taps.reshape(k1 * t1 * f_in, f_out)).reshape(n, r, f_out)
    return pre, z


def _conv_layer_back(s_mat: np.ndarray, z: np.ndarray, g_pre: np.ndarray, taps: np.ndarray):
    """Tap gradient of one layer and the gradient of its input stack.

    The input gradient scatters the product gradients back to their lags and
    applies sum_k (S^H)^k in Horner form.
    """
    k1, t1, f_in, f_out = taps.shape
    n, r, _ = g_pre.shape
    g_flat = g_pre.reshape(n * r, f_out)
    g_taps = (z.conj().T @ g_flat).reshape(taps.shape)
    g_z = (g_flat @ taps.reshape(k1 * t1 * f_in, f_out).conj().T).reshape(n, r, k1, t1, f_in)
    j = r + t1 - 1
    if r == 1:
        # one output lag: each product feeds exactly one column of z
        g_prods = g_z.reshape(n, k1, j * f_in)
    else:
        g_prods = np.zeros((n, k1, j, f_in), dtype=np.complex128)
        for tau in range(t1):
            g_prods[:, :, tau:tau + r] += g_z[:, :, :, tau].transpose(0, 2, 1, 3)
        g_prods = g_prods.reshape(n, k1, j * f_in)
    s_h = s_mat.conj().T
    g_stack = g_prods[:, k1 - 1]
    for k in range(k1 - 2, -1, -1):
        g_stack = s_h @ g_stack + g_prods[:, k]
    return g_taps, g_stack.reshape(n, j, f_in)


def _input_layer(s_mat: np.ndarray, x: np.ndarray, taps: np.ndarray, lags: int):
    """Pre-activations of the first layer at output lags 0 .. lags-1.

    Its lagged inputs are channel shifts of x, and S^k commutes with them, so
    sum_tau S^k shift(x, r + tau) H[k, tau] = shift(S^k x, r) F[k] with the
    folded taps F[k][c] = sum_tau H[k, tau][c + tau].  Only S^k x is formed,
    and the GEMM contracts (k, F_in) instead of (k, tau, F_in).  Returns
    ([N, lags, F_out] pre-activations, [N lags, (K+1) F_in] shifted products).
    """
    k1, t1, f_in, f_out = taps.shape
    n = x.shape[0]
    folded = np.zeros((k1, f_in, f_out), dtype=np.complex128)
    for tau in range(min(t1, f_in)):
        folded[:, : f_in - tau] += taps[:, tau, tau:]
    prods = _products(s_mat, x[:, None, :], k1 - 1).reshape(n * k1, f_in)
    z = np.stack([shift_channels(prods, r).reshape(n, k1, f_in) for r in range(lags)],
                 axis=1).reshape(n * lags, k1 * f_in)
    pre = (z @ folded.reshape(k1 * f_in, f_out)).reshape(n, lags, f_out)
    return pre, z


def _input_layer_back(z: np.ndarray, g_pre: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Tap gradient of the first layer: the folded-tap gradient, unfolded."""
    k1, t1, f_in, f_out = taps.shape
    n, lags, _ = g_pre.shape
    g_folded = (z.conj().T @ g_pre.reshape(n * lags, f_out)).reshape(k1, f_in, f_out)
    g_taps = np.zeros_like(taps)
    for tau in range(min(t1, f_in)):
        g_taps[:, tau, tau:] = g_folded[:, : f_in - tau]
    return g_taps


def conv_forward(s, window: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """One spatio-temporal graph convolution output slice.

    window[tau] holds the features lagged by tau; entry 0 is the current time.
    """
    s_mat = s.matrix if isinstance(s, Gso) else np.asarray(s, dtype=np.complex128)
    window = np.asarray(window, dtype=np.complex128)
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim != 4:
        raise DimensionMismatch(f"taps must be [K+1, Kt+1, F_in, F_out], got {taps.shape}")
    if window.ndim != 3 or window.shape[0] != taps.shape[1]:
        raise DimensionMismatch(
            f"window {window.shape} does not provide {taps.shape[1]} lags"
        )
    if window.shape[2] != taps.shape[2]:
        raise DimensionMismatch(
            f"window features {window.shape[2]} != taps input width {taps.shape[2]}"
        )
    if s_mat.shape[0] != window.shape[1]:
        raise DimensionMismatch(f"S is {s_mat.shape} but window has {window.shape[1]} nodes")
    pre, _ = _conv_layer(s_mat, window.transpose(1, 0, 2), taps)
    return split_relu(pre[:, 0])


def _cluster_sizes(n: int, n_p: int) -> np.ndarray:
    if n < n_p:
        raise TooFewNodes(f"cannot pool {n} nodes into {n_p} clusters")
    base, rem = divmod(n, n_p)
    return np.array([base + 1] * rem + [base] * (n_p - rem))


def cluster_slices(n: int, n_p: int) -> list[np.ndarray]:
    """Contiguous cluster index blocks, sizes as even as possible, larger first."""
    bounds = np.cumsum(np.concatenate([[0], _cluster_sizes(n, n_p)]))
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_p)]


def pool_custom(x: np.ndarray, n_p: int, order: np.ndarray | None = None):
    """Average and split elementwise-max per BFS-ordered cluster, concatenated.

    The clusters are padded to the size of the largest and reduced together.
    Padding is -inf for the max, so a tie between real entries (split-ReLU
    outputs tie at 0) still goes to the cluster's first row, as np.argmax
    picks.  Returns ([N_p, 2F] pooled, cache) where the cache carries what
    backward needs.
    """
    x = np.asarray(x, dtype=np.complex128)
    n, f = x.shape
    order = np.arange(n) if order is None else np.asarray(order)
    sizes = _cluster_sizes(n, n_p)
    slot = np.arange(sizes[0])
    pad = slot[None, :] >= sizes[:, None]                              # [N_p, M]
    rows = order[np.minimum((np.cumsum(sizes) - sizes)[:, None] + slot, n - 1)]
    block = x[rows]                                                    # [N_p, M, F]
    block[pad] = 0.0
    avg = block.sum(axis=1) / sizes[:, None]
    block[pad] = complex(-np.inf, -np.inf)
    ire = np.argmax(block.real, axis=1)
    iim = np.argmax(block.imag, axis=1)
    pooled = np.concatenate([avg, block.real.max(axis=1) + 1j * block.imag.max(axis=1)], axis=1)
    cache = {"order": order, "sizes": sizes, "shape": (n, f),
             "argmax_re": np.take_along_axis(rows, ire, axis=1),
             "argmax_im": np.take_along_axis(rows, iim, axis=1)}
    return pooled, cache


def _pool_custom_back(grad: np.ndarray, cache: dict) -> np.ndarray:
    n, f = cache["shape"]
    sizes = cache["sizes"]
    g_x = np.empty((n, f), dtype=np.complex128)
    g_x[cache["order"]] = np.repeat(grad[:, :f] / sizes[:, None], sizes, axis=0)
    # clusters are disjoint, so no (row, column) pair repeats within one max
    cols = np.arange(f)
    g_x.real[cache["argmax_re"], cols] += grad[:, f:].real
    g_x.imag[cache["argmax_im"], cols] += grad[:, f:].imag
    return g_x


def pool_learnable(x: np.ndarray, w_assign: np.ndarray):
    """Row-stochastic soft assignment: A = softmax_rows |W_A X^H|, pooled = A X.

    Returns (A [N_p, N] real, pooled [N_p, F], cache).
    """
    x = np.asarray(x, dtype=np.complex128)
    w_assign = np.asarray(w_assign, dtype=np.complex128)
    if w_assign.shape[1] != x.shape[1]:
        raise DimensionMismatch(
            f"assignment width {w_assign.shape[1]} != features {x.shape[1]}"
        )
    m = w_assign @ x.conj().T                 # [N_p, N]
    scores = np.abs(m)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    a = e / e.sum(axis=1, keepdims=True)
    pooled = a @ x
    cache = {"m": m, "scores": scores, "a": a, "x": x, "w": w_assign}
    return a, pooled, cache


def _pool_learnable_back(grad: np.ndarray, cache: dict):
    m, scores, a, x, w = cache["m"], cache["scores"], cache["a"], cache["x"], cache["w"]
    g_a = (grad @ x.conj().T).real
    g_x = a.T @ grad
    # softmax rows
    g_scores = a * (g_a - np.sum(g_a * a, axis=1, keepdims=True))
    # modulus
    safe = np.where(scores > 1e-300, scores, 1.0)
    g_m = g_scores * np.where(scores > 0, m / safe, 0.0)
    # m = w @ conj(x).T
    g_w = g_m @ x
    g_conj_x_t = w.conj().T @ g_m            # gradient w.r.t. conj(x).T
    g_x = g_x + np.conj(g_conj_x_t).T
    return g_w, g_x


# --------------------------------------------------------------------------
# Full model


def _positions(n_out: int, n: int, node_order: np.ndarray | None) -> np.ndarray:
    """Decoder position codes in [0, 1].

    With a node ordering available (and a matching output length) each bus is
    coded by its normalized electrical rank, which makes the decoded profile a
    function of feeder depth rather than label order.
    """
    if node_order is not None and n_out == n:
        rank = np.empty(n_out, dtype=float)
        rank[np.asarray(node_order)] = np.arange(n_out, dtype=float)
        return rank / max(n_out - 1, 1)
    return np.arange(n_out, dtype=float) / max(n_out - 1, 1)


def model_forward(
    s,
    x: np.ndarray,
    params: UgcnParams,
    cfg: LayerConfig,
    n_out: int | None = None,
    node_order: np.ndarray | None = None,
    record: bool = False,
):
    """Run the network on one system's feature window.

    x is [N, m0] complex with channel m0-1 the newest estimate.  The output is
    a complex phasor prediction per bus (two real heads) or a real logit per
    bus, of length n_out (defaults to N).
    """
    s_mat = s.matrix if isinstance(s, Gso) else np.asarray(s, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] != cfg.widths[0]:
        raise DimensionMismatch(f"input {x.shape} incompatible with width {cfg.widths[0]}")
    if s_mat.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"S {s_mat.shape} vs {x.shape[0]} nodes")
    n_out = x.shape[0] if n_out is None else int(n_out)

    # Each later layer drops k_temporal lags, so the first one evaluates
    # (layers - 1) * k_temporal + 1 of them and the top layer is left with lag 0.
    pre, z = _input_layer(s_mat, x, params.conv[0], (cfg.layers - 1) * cfg.k_temporal + 1)
    pres, stacks = [pre], [z]
    for taps in params.conv[1:]:
        pre, z = _conv_layer(s_mat, split_relu(pre), taps)
        pres.append(pre)
        stacks.append(z)
    top = split_relu(pre)[:, 0]

    if cfg.pooling == CUSTOM:
        pooled, pool_cache = pool_custom(top, cfg.pooled_nodes, node_order)
    else:
        _, pooled, pool_cache = pool_learnable(top, params.assign)

    x_vec = np.concatenate([pooled.real.ravel(), pooled.imag.ravel()])
    out, head_cache = _head(x_vec, _positions(n_out, x.shape[0], node_order), params)

    if cfg.outputs == 2:
        y = out[:, 0] + 1j * out[:, 1]
    else:
        y = out[:, 0]
    if not record:
        return y
    tape = {
        "cfg": cfg, "params": params, "s": s_mat, "pres": pres, "stacks": stacks,
        "pool_cache": pool_cache, "pooled_shape": pooled.shape, **head_cache,
    }
    return y, tape


def _head(x_vec: np.ndarray, positions: np.ndarray, params: UgcnParams):
    pre_h = params.w_enc @ x_vec + params.b_enc
    h = np.maximum(pre_h, 0.0)
    pre_e = positions[:, None] * params.w_pos[None, :] + params.b_pos[None, :]
    e_pos = np.tanh(pre_e)
    c = h[None, :] + e_pos
    pre_t = c @ params.w_t + params.b_t[None, :]
    t_act = np.maximum(pre_t, 0.0)
    out = t_act @ params.w_out + params.b_out[None, :]
    cache = {"x_vec": x_vec, "pre_h": pre_h, "h": h, "positions": positions,
             "e_pos": e_pos, "c": c, "pre_t": pre_t, "t_act": t_act}
    return out, cache


def _head_back(cache: dict, params: UgcnParams, g_out: np.ndarray):
    """Decoder gradients and the gradient of the flattened pooled block."""
    grads: dict[str, np.ndarray] = {}
    t_act, pre_t, c = cache["t_act"], cache["pre_t"], cache["c"]
    grads["w_out"] = t_act.T @ g_out
    grads["b_out"] = g_out.sum(axis=0)
    g_t = g_out @ params.w_out.T
    g_pre_t = g_t * (pre_t > 0)
    grads["w_t"] = c.T @ g_pre_t
    grads["b_t"] = g_pre_t.sum(axis=0)
    g_c = g_pre_t @ params.w_t.T
    g_h = g_c.sum(axis=0)
    g_pre_e = g_c * (1.0 - cache["e_pos"] ** 2)
    grads["w_pos"] = (g_pre_e * cache["positions"][:, None]).sum(axis=0)
    grads["b_pos"] = g_pre_e.sum(axis=0)
    g_pre_h = g_h * (cache["pre_h"] > 0)
    grads["b_enc"] = g_pre_h
    # w_enc's gradient is the outer product of g_pre_h and x_vec; callers form it
    return grads, params.w_enc.T @ g_pre_h


class GradientSum:
    """Sum of per-window parameter gradients over several windows.

    Some weight gradients are outer products of two vectors, as large as the
    weight: the ugcn encoder weight's is its b_enc gradient times the
    flattened pooled block, and a dense layer's is its input times its
    pre-activation gradient.  The sum keeps the two factors of each window
    and contracts them all with one GEMM per weight in `total`.
    """

    def __init__(self):
        self._sums: dict[str, np.ndarray] = {}
        self._outer: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    def add(self, grads: dict[str, np.ndarray],
            outer: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        """Add one window: its gradients by name, and by name the (left, right)
        factors of those that are outer products.

        The first window's arrays become the running sums, updated in place,
        so the factors are copied.
        """
        for name, (left, right) in outer.items():
            self._outer.setdefault(name, []).append((left.copy(), right.copy()))
        for name, g in grads.items():
            if name in self._sums:
                self._sums[name] += g
            else:
                self._sums[name] = g

    def total(self) -> dict[str, np.ndarray]:
        out = dict(self._sums)
        for name, pairs in self._outer.items():
            out[name] = np.stack([a for a, _ in pairs], axis=1) @ np.stack([b for _, b in pairs])
        return out


def model_backward(tape: dict, grad_out: np.ndarray, into: GradientSum | None = None):
    """Parameter gradients for a recorded forward pass.

    grad_out is the cogradient of the loss with respect to the model output:
    complex for the two-head phasor output, real for logits.  Returns the
    gradients by tensor name or, with `into`, adds them to that sum and
    returns it.
    """
    if not isinstance(tape, dict) or "cfg" not in tape:
        raise NoForwardRecorded("model_backward needs the tape from model_forward(record=True)")
    cfg: LayerConfig = tape["cfg"]
    params: UgcnParams = tape["params"]
    grad_out = np.asarray(grad_out)
    if cfg.outputs == 2:
        g_out = np.stack([grad_out.real, grad_out.imag], axis=1)
    else:
        g_out = grad_out.real[:, None]
    grads, g_x_vec = _head_back(tape, params, g_out)

    shape = tape["pooled_shape"]
    half = shape[0] * shape[1]
    g_pooled = g_x_vec[:half].reshape(shape) + 1j * g_x_vec[half:].reshape(shape)
    if cfg.pooling == CUSTOM:
        g_top = _pool_custom_back(g_pooled, tape["pool_cache"])
    else:
        g_assign, g_top = _pool_learnable_back(g_pooled, tape["pool_cache"])
        grads["assign"] = g_assign

    g_pre = _relu_back(g_top[:, None, :], tape["pres"][-1])
    for l in range(cfg.layers - 1, 0, -1):
        grads[f"conv.{l}"], g_act = _conv_layer_back(
            tape["s"], tape["stacks"][l], g_pre, params.conv[l])
        g_pre = _relu_back(g_act, tape["pres"][l - 1])
    grads["conv.0"] = _input_layer_back(tape["stacks"][0], g_pre, params.conv[0])
    if into is not None:
        into.add(grads, {"w_enc": (grads["b_enc"], tape["x_vec"])})
        return into
    grads["w_enc"] = np.outer(grads["b_enc"], tape["x_vec"])
    return grads
