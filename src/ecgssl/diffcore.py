"""Reverse-mode autodiff, a small 1D-CNN encoder stack, Adam, and EMA updates.

Everything runs on float64 numpy arrays. A ``Tensor`` records its parents and
a backward closure; ``Tensor.backward()`` topologically sorts the tape and
accumulates gradients. Inside ``no_grad()`` no tape is recorded; ``encode``
runs the encoder that way, in bounded chunks, for inference. The network here
is deliberately tiny: conv blocks with ReLU, global average pooling over time,
and two-layer MLP heads.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "NonFiniteError",
    "Tensor",
    "no_grad",
    "concat",
    "conv1d",
    "dense",
    "global_avg_pool",
    "l2_normalize",
    "sigmoid",
    "bce_with_logits",
    "EncoderConfig",
    "ModelParams",
    "init_encoder_params",
    "init_head_params",
    "forward_encoder",
    "forward_projection",
    "forward_predictor",
    "forward_head",
    "encode",
    "AdamState",
    "adam_step",
    "ema_update",
    "save_checkpoint",
    "load_checkpoint",
    "atomic_open",
]


class NonFiniteError(ValueError):
    """A NaN or an infinity where a finite value must enter: a leaf tensor,
    or the scores of a Sinkhorn assignment."""


class _TapeState(threading.local):
    recording = True


_TAPE = _TapeState()


@contextmanager
def no_grad():
    """Build no tape inside the block: every Tensor made there has no
    parents and no backward, so each intermediate is freed as soon as the
    forward pass stops referring to it. Leaves keep the `requires_grad`
    they are given. Per thread; nests."""
    previous = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = previous


def _topo_visit(t, seen: set, topo: list) -> None:
    """Append the tape under `t` to `topo`, parents first.

    A module function, not a closure: a recursive closure refers to itself,
    and that cycle would keep the whole tape alive until the cyclic GC runs.
    """
    if id(t) in seen:
        return
    seen.add(id(t))
    for p in t._parents:
        _topo_visit(p, seen, topo)
    topo.append(t)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-d array carrying a value, a gradient slot, and tape links.

    An op's result is taped (keeps its parents and backward) only when a
    gradient flows through it: some parent requires one and `no_grad` is
    off. So `requires_grad` alone says whether a tensor takes a gradient.

    Finiteness is checked where values enter: a leaf (data, a parameter, a
    lifted constant) with a NaN or an infinity raises NonFiniteError. An op's
    result is not checked; the training loop checks each step's loss and
    gradients instead.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not (_parents or np.all(np.isfinite(self.data))):
            raise NonFiniteError("non-finite values in tensor data")
        self.grad = None
        if not (_TAPE.recording and any(p.requires_grad for p in _parents)):
            _parents, _backward = (), None
        self.requires_grad = bool(requires_grad or _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # ---- graph traversal -------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into the `grad` of every leaf that
        requires one. An op result's gradient is freed as soon as its own
        backward has used it, so only leaves keep a gradient afterwards, and
        a second call adds the same gradient again."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo = []
        _topo_visit(self, set(), topo)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)
                t.grad = None

    # ---- elementwise arithmetic -----------------------------------------

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._lift(other)

        def bwd(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, _parents=(self, other), _backward=bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g):
            self._accum(-g)

        return Tensor(-self.data, _parents=(self,), _backward=bwd)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)

        def bwd(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, _parents=(self, other), _backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)

        def bwd(g):
            self._accum(_unbroadcast(g / other.data, self.data.shape))
            other._accum(
                _unbroadcast(-g * self.data / other.data**2, other.data.shape)
            )

        return Tensor(self.data / other.data, _parents=(self, other), _backward=bwd)

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def _accum(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy (`+` hands the same g to both parents), laid out like
            # data: the BLAS products of the backward depend on the layout
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # ---- shape ops -------------------------------------------------------

    @property
    def T(self):
        def bwd(g):
            self._accum(g.T)

        return Tensor(self.data.T, _parents=(self,), _backward=bwd)

    def reshape(self, *shape):
        orig = self.data.shape

        def bwd(g):
            self._accum(g.reshape(orig))

        return Tensor(self.data.reshape(*shape), _parents=(self,), _backward=bwd)

    # ---- reductions and nonlinearities ----------------------------------

    def sum(self, axis=None, keepdims=False):
        def bwd(g):
            if not (axis is None or keepdims):
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            _parents=(self,),
            _backward=bwd,
        )

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def exp(self):
        out_data = np.exp(self.data)

        def bwd(g):
            self._accum(g * out_data)

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def log(self):
        def bwd(g):
            self._accum(g / self.data)

        return Tensor(np.log(self.data), _parents=(self,), _backward=bwd)

    def relu(self):
        mask = self.data > 0  # subgradient at 0 is 0

        def bwd(g):
            self._accum(g * mask)

        return Tensor(self.data * mask, _parents=(self,), _backward=bwd)

    def matmul(self, other):
        other = Tensor._lift(other)

        def bwd(g):
            self._accum(g @ other.data.T)
            other._accum(self.data.T @ g)

        return Tensor(self.data @ other.data, _parents=(self, other), _backward=bwd)

    __matmul__ = matmul


def concat(tensors, axis=0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])

    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=bwd,
    )


def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(B, Lp, C_in) C-contiguous padded input -> (B*out_len, k*C_in)
    columns; row b*out_len + t holds input times t*stride .. t*stride + k-1,
    each with every channel, one contiguous block per row. In C order those
    k*C_in values are one run of xp, so the windows are one strided view."""
    B, Lp, c_in = xp.shape
    out_len = (Lp - k) // stride + 1
    s0, s1, s2 = xp.strides
    win = as_strided(xp, (B, out_len, k * c_in), (s0, stride * s1, s2), writeable=False)
    return win.reshape(B * out_len, k * c_in)


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, relu: bool = False) -> Tensor:
    """1-D convolution with 'same'-style zero padding of k//2 per side.

    x: (B, C_in, L); w: (C_out, C_in, k); b: (C_out,).
    Output length is floor((L + 2*(k//2) - k) / stride) + 1.
    With `relu`, the output is max(conv, 0) as one tape node, the same bytes
    as `conv1d(x, w, b, stride).relu()`: the GEMM output is masked in place,
    and only the mask is kept for the backward. Under `no_grad` no mask is
    made; outputs that the mask would turn into -0.0 read +0.0 instead,
    which no later product or sum tells apart.

    The output and the weight gradient are im2col plus one matmul each, on
    a time-major copy of the padded input; the output is a (B, C_out,
    out_len) view of time-major memory, which the next conv copies from
    without a gather. The backward rebuilds the columns from the padded
    input rather than keeping them on the tape, which would hold k copies of
    every conv input for the whole step. The input gradient is one product
    per tap, each added as one contiguous run into a phase-major buffer.
    """
    B, c_in, L = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in_w != c_in:
        raise ValueError(f"conv1d channel mismatch: {c_in_w} != {c_in}")
    pad = k // 2
    Lp = L + 2 * pad
    out_len = (Lp - k) // stride + 1
    xp = np.empty((B, Lp, c_in))
    xp[:, :pad] = 0.0
    xp[:, pad + L :] = 0.0
    xp[:, pad : pad + L] = x.data.transpose(0, 2, 1)

    w2 = w.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
    out = _im2col(xp, k, stride) @ w2.T
    out += b.data
    if relu and not _TAPE.recording:
        np.maximum(out, 0.0, out=out)
    elif relu:
        mask = out > 0  # subgradient at 0 is 0
        out *= mask
    out = out.reshape(B, out_len, c_out).transpose(0, 2, 1)

    def bwd(g):
        # g is this node's own gradient, freed once this backward returns,
        # so the mask may be applied in place
        g2 = g.transpose(0, 2, 1).reshape(B * out_len, c_out)
        if relu:
            g2 *= mask
        gw = g2.T @ _im2col(xp, k, stride)
        w._accum(gw.reshape(c_out, k, c_in).transpose(0, 2, 1))
        b._accum(g2.sum(axis=0))
        if not x.requires_grad:  # the data batch
            return
        # padded time p = q*stride + r sits at phase r, slot q: tap j of
        # output t lands at phase j % stride, slot t + j // stride, so each
        # tap adds one contiguous run, in ascending j from 0.0 as before
        Q = -(-Lp // stride)
        gph = np.zeros((B, stride, Q, c_in))
        gj = np.empty((B, out_len, c_in))  # every tap's product, in turn
        for j in range(k):
            q0 = j // stride
            np.matmul(g2, w2[:, j * c_in : (j + 1) * c_in], out=gj.reshape(B * out_len, c_in))
            gph[:, j % stride, q0 : q0 + out_len] += gj
        gxp = gph.transpose(0, 2, 1, 3).reshape(B, Q * stride, c_in)
        x._accum(gxp[:, pad : pad + L].transpose(0, 2, 1))

    return Tensor(out, _parents=(x, w, b), _backward=bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the trailing (time) axis: (B, C, L) -> (B, C)."""
    return x.mean(axis=2)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x.matmul(w) + b


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Normalize slices along `axis` to unit L2 norm; zero slices stay zero."""
    x = Tensor._lift(x)
    norm = np.sqrt(np.sum(x.data**2, axis=axis, keepdims=True))
    zero = norm == 0.0
    safe = np.where(zero, 1.0, norm)
    out_data = x.data / safe

    def bwd(g):
        dot = np.sum(g * out_data, axis=axis, keepdims=True)
        gx = (g - out_data * dot) / safe
        x._accum(np.where(zero, 0.0, gx))

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)); below z = -709, exp overflows and the value
    saturates to 0 without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all elements, numerically stable."""
    t = np.asarray(targets, dtype=np.float64)
    z = logits.data
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def bwd(g):
        logits._accum(g * (sigmoid(z) - t) / n)

    return Tensor(loss.mean(), _parents=(logits,), _backward=bwd)


# ---------------------------------------------------------------------------
# model definition


@dataclass
class EncoderConfig:
    """Architecture of the 1D-CNN encoder plus projection/prediction heads."""

    n_leads: int = 1
    conv_blocks: tuple[tuple[int, int, int], ...] = ((16, 7, 2), (32, 7, 2), (64, 7, 2))
    embedding_dim: int = 64
    projection_dim: int = 32
    prediction_hidden: int = 32

    def __post_init__(self):
        if not (self.embedding_dim >= self.projection_dim >= 2):
            raise ValueError("need embedding_dim >= projection_dim >= 2")
        if self.n_leads < 1 or self.prediction_hidden < 1:
            raise ValueError("n_leads and prediction_hidden must be >= 1")
        for block in self.conv_blocks:
            if min(block) < 1:
                raise ValueError(f"conv block {list(block)}: channels, kernel, stride must be >= 1")
            if block[1] % 2 != 1:
                raise ValueError("kernel sizes must be odd")


class ModelParams:
    """Ordered, named parameter tensors for one network."""

    def __init__(self, params: "OrderedDict[str, Tensor]"):
        self.params = OrderedDict(params)

    def __getitem__(self, name) -> Tensor:
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return list(self.params)

    def tensors(self):
        return list(self.params.values())

    def architecture(self):
        return [(n, t.data.shape) for n, t in self.params.items()]

    def copy(self) -> "ModelParams":
        return ModelParams(
            OrderedDict(
                (n, Tensor(t.data.copy(), requires_grad=t.requires_grad))
                for n, t in self.params.items()
            )
        )

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    def subset(self, prefix) -> "ModelParams":
        return ModelParams(
            OrderedDict(
                (n, t) for n, t in self.params.items() if n.startswith(prefix)
            )
        )

    def merged_with(self, other: "ModelParams") -> "ModelParams":
        merged = OrderedDict(self.params)
        merged.update(other.params)
        return ModelParams(merged)


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_encoder_params(cfg: EncoderConfig, seed: int) -> ModelParams:
    """Seeded fan-in uniform init of encoder + projection + predictor weights."""
    rng = np.random.default_rng(seed)
    p = OrderedDict()
    c_in = cfg.n_leads
    for i, (c_out, k, _stride) in enumerate(cfg.conv_blocks):
        fan = c_in * k
        p[f"conv{i}.weight"] = _uniform_init(rng, (c_out, c_in, k), fan)
        p[f"conv{i}.bias"] = _uniform_init(rng, (c_out,), fan)
        c_in = c_out
    p["embed.weight"] = _uniform_init(rng, (c_in, cfg.embedding_dim), c_in)
    p["embed.bias"] = _uniform_init(rng, (cfg.embedding_dim,), c_in)
    d_e, d_p, d_h = cfg.embedding_dim, cfg.projection_dim, cfg.prediction_hidden
    p["proj.fc1.weight"] = _uniform_init(rng, (d_e, d_h), d_e)
    p["proj.fc1.bias"] = _uniform_init(rng, (d_h,), d_e)
    p["proj.fc2.weight"] = _uniform_init(rng, (d_h, d_p), d_h)
    p["proj.fc2.bias"] = _uniform_init(rng, (d_p,), d_h)
    p["pred.fc1.weight"] = _uniform_init(rng, (d_p, d_h), d_p)
    p["pred.fc1.bias"] = _uniform_init(rng, (d_h,), d_p)
    p["pred.fc2.weight"] = _uniform_init(rng, (d_h, d_p), d_h)
    p["pred.fc2.bias"] = _uniform_init(rng, (d_p,), d_h)
    return ModelParams(p)


def init_head_params(cfg: EncoderConfig, n_classes: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    return ModelParams(
        OrderedDict(
            [
                ("head.weight", _uniform_init(rng, (cfg.embedding_dim, n_classes), cfg.embedding_dim)),
                ("head.bias", _uniform_init(rng, (n_classes,), cfg.embedding_dim)),
            ]
        )
    )


def forward_encoder(params: ModelParams, cfg: EncoderConfig, batch) -> Tensor:
    """Conv blocks with ReLU (one tape node each), global average pool over
    time, dense embedding."""
    x = Tensor._lift(batch)
    if x.data.ndim != 3 or x.data.shape[1] != cfg.n_leads:
        raise ValueError(
            f"expected batch of shape (B, {cfg.n_leads}, L), got {x.data.shape}"
        )
    for i, (_c_out, _k, stride) in enumerate(cfg.conv_blocks):
        x = conv1d(x, params[f"conv{i}.weight"], params[f"conv{i}.bias"], stride, relu=True)
    h = global_avg_pool(x)
    return dense(h, params["embed.weight"], params["embed.bias"])


# most windows per forward pass in `encode`: at 32 windows of 250 samples
# the largest im2col block of the default encoder is ~1.8 MB, so one pass
# works within a 2 MiB L2 cache, and inference memory is bounded whatever
# the cohort size
ENCODE_CHUNK = 32


def encode(params: ModelParams, cfg: EncoderConfig, batch) -> np.ndarray:
    """`forward_encoder(params, cfg, batch).data`, built without a tape in
    ceil(n / ENCODE_CHUNK) chunks whose sizes differ by at most one, so no
    chunk of one or two windows is left over (OpenBLAS gives such small
    products other bytes than larger ones). Zero windows run as one empty
    chunk, which gives a (0, embedding_dim) array."""
    batch = np.asarray(batch, dtype=np.float64)
    n_chunks = max(1, -(-len(batch) // ENCODE_CHUNK))
    with no_grad():
        return np.concatenate(
            [forward_encoder(params, cfg, chunk).data for chunk in np.array_split(batch, n_chunks)]
        )


def forward_projection(params: ModelParams, h: Tensor) -> Tensor:
    z = dense(h, params["proj.fc1.weight"], params["proj.fc1.bias"]).relu()
    return dense(z, params["proj.fc2.weight"], params["proj.fc2.bias"])


def forward_predictor(params: ModelParams, z: Tensor) -> Tensor:
    q = dense(z, params["pred.fc1.weight"], params["pred.fc1.bias"]).relu()
    return dense(q, params["pred.fc2.weight"], params["pred.fc2.bias"])


def forward_head(params: ModelParams, h: Tensor) -> Tensor:
    """Classification logits; apply a sigmoid downstream for probabilities."""
    return dense(h, params["head.weight"], params["head.bias"])


# ---------------------------------------------------------------------------
# optimization


@dataclass
class AdamState:
    """Adam with decoupled weight decay (AdamW-style)."""

    lr: float = 5e-4
    weight_decay: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: ModelParams) -> None:
    """One update over all params; grads are zeroed after application."""
    state.step += 1
    t = state.step
    for name, p in params.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1**t)
        v_hat = state.v[name] / (1 - state.beta2**t)
        p.data = p.data - state.lr * (
            m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p.data
        )
        p.zero_grad()


def ema_update(target: ModelParams, online: ModelParams, decay: float) -> None:
    """target <- decay * target + (1 - decay) * online, in place."""
    if not 0.0 <= decay <= 1.0:
        raise ValueError("decay must lie in [0, 1]")
    if target.architecture() != online.architecture():
        raise ValueError("architecture mismatch between target and online params")
    for name in target.params:
        t, o = target[name], online[name]
        t.data = decay * t.data + (1.0 - decay) * o.data


# ---------------------------------------------------------------------------
# checkpointing


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """`open(path, mode)` for writing, through a temporary file in the same
    directory that replaces `path` only once the block ends without an
    exception: a reader, or a run killed mid-write, sees the old file or the
    new one, never part of one. On an exception the temporary file is
    removed and `path` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the block raised
            os.remove(tmp)


_CKPT_MAGIC = b"CKPT"
_CKPT_VERSION = 2


def save_checkpoint(path, params: ModelParams, spec: dict | None = None):
    """Binary checkpoint: magic, version, run spec, named f32 parameter table.

    Layout (version 2): "CKPT", u32 version, u32 spec_len, spec as utf-8
    JSON with sorted keys (``null`` when there is none), u32 n_params, then
    per parameter (u16 name_len, name utf-8, u32 ndim, u32 dims..., f32 data
    C-order). The spec is opaque here; the CLI decides what it holds. The
    file is written whole or not at all (`atomic_open`).
    """
    spec_bytes = json.dumps(spec, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(spec_bytes)))
        f.write(spec_bytes)
        f.write(struct.pack("<I", len(params.params)))
        for name, t in params.params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", t.data.ndim))
            for d in t.data.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(t.data, dtype=np.float32).tobytes())


def load_checkpoint(path):
    """Returns (ModelParams, spec dict | None) of a version 2 file.

    Raises ValueError for a file that is not a whole version 2 checkpoint.
    """
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def take(n):
        nonlocal pos
        if n > len(blob) - pos:
            raise ValueError(f"truncated checkpoint: {len(blob)} bytes, needs at least {pos + n}")
        pos += n
        return blob[pos - n : pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != _CKPT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = unpack("<I")
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (spec_len,) = unpack("<I")
    spec = json.loads(take(spec_len).decode("utf-8"))
    (n_params,) = unpack("<I")
    params = OrderedDict()
    for _ in range(n_params):
        (nlen,) = unpack("<H")
        name = take(nlen).decode("utf-8")
        (ndim,) = unpack("<I")
        shape = unpack(f"<{ndim}I")
        data = np.frombuffer(take(4 * math.prod(shape)), dtype=np.float32).reshape(shape)
        params[name] = Tensor(data.astype(np.float64), requires_grad=True)
    return ModelParams(params), spec
