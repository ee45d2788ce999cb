"""Pre-training loops for the three SSL methods, supervised fine-tuning with
binary cross-entropy, and linear evaluation.

Everything is deterministic for a fixed (config, data, seed): batch order,
augmentation draws, and validation augmentations all derive from seeded
generators, so reruns reproduce every logged number.
"""

from __future__ import annotations

import csv
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentationSpec, RngStream, apply_augmentation
from .diffcore import (
    AdamState,
    EncoderConfig,
    ModelParams,
    Tensor,
    adam_step,
    bce_with_logits,
    ema_update,
    encode,
    forward_encoder,
    forward_head,
    forward_projection,
    init_encoder_params,
    init_head_params,
    no_grad,
)
from .metrics import PredictionBatch, macro_f1
from .ssl_objectives import (
    PrototypeBank,
    ViewBatchEmbeddings,
    byol_symmetric_loss,
    nt_xent_loss,
    swav_loss,
)

__all__ = [
    "PretrainConfig",
    "FinetuneConfig",
    "TrainingLog",
    "pretrain",
    "finetune",
    "linear_eval",
    "predict_scores",
]

METHODS = ("SimCLR", "BYOL", "SwAV")


@dataclass
class PretrainConfig:
    method: str = "SimCLR"
    augmentation: AugmentationSpec = field(
        default_factory=lambda: AugmentationSpec("GaussianNoise", {"sigma": 0.1})
    )
    epochs: int = 50
    batch_size: int = 64
    lr: float = 5e-4
    weight_decay: float = 1e-3
    seed: int = 0
    temperature: float = 0.5
    ema_decay: float = 0.996
    n_prototypes: int = 30
    swav_temperature: float = 0.1
    sinkhorn_epsilon: float = 0.05
    sinkhorn_iters: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.method in ("SimCLR", "SwAV") and self.batch_size < 2:
            raise ValueError(f"{self.method} needs batch_size >= 2")


@dataclass
class FinetuneConfig:
    lr: float = 5e-3
    epochs: int = 50
    freeze_encoder: bool = False
    batch_size: int = 64
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass
class LogEntry:
    epoch: int
    train_loss: float
    val_loss: float
    val_macro_f1: float | None = None
    wall_seconds: float = 0.0


@dataclass
class TrainingLog:
    entries: list = field(default_factory=list)

    def to_csv(self, path):
        """(epoch, split, metric, value) rows; wall time is deliberately
        excluded so reruns are byte-identical."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "split", "metric", "value"])
            for e in self.entries:
                w.writerow([e.epoch, "train", "loss", repr(e.train_loss)])
                w.writerow([e.epoch, "validation", "loss", repr(e.val_loss)])
                if e.val_macro_f1 is not None:
                    w.writerow(
                        [e.epoch, "validation", "macro_f1", repr(e.val_macro_f1)]
                    )


def _stack(windows):
    return np.stack([w.data for w in windows])


def _labels_matrix(windows):
    classes = windows[0].labels.classes
    for w in windows:
        if w.labels.classes != classes:
            raise ValueError("inconsistent label dimension across split")
    return np.array([w.labels.indicator for w in windows], dtype=np.float64), classes


def _child_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _make_view_batches(X, idx, spec, rng: RngStream):
    v1 = np.stack([apply_augmentation(X[i], spec, rng) for i in idx])
    v2 = np.stack([apply_augmentation(X[i], spec, rng) for i in idx])
    return v1, v2


def _pretrain_batch_loss(method, cfg, config, params, target, bank, v1, v2):
    if method == "SimCLR":
        z1 = forward_projection(params, forward_encoder(params, cfg, v1))
        z2 = forward_projection(params, forward_encoder(params, cfg, v2))
        return nt_xent_loss(ViewBatchEmbeddings(z1, z2, config.temperature))
    if method == "BYOL":
        return byol_symmetric_loss(v1, v2, params, target, cfg)
    z1 = forward_projection(params, forward_encoder(params, cfg, v1))
    z2 = forward_projection(params, forward_encoder(params, cfg, v2))
    return swav_loss(
        z1,
        z2,
        bank,
        config.swav_temperature,
        config.sinkhorn_epsilon,
        config.sinkhorn_iters,
    )


def pretrain(config: PretrainConfig, split, enc_cfg: EncoderConfig | None = None):
    """Train one SSL method and return (best params by validation loss, log)."""
    if not split.train:
        raise ValueError("empty training split")
    X = _stack(split.train)
    X_val = _stack(split.validation) if split.validation else None
    if config.batch_size > len(X):
        raise ValueError("batch_size exceeds training set size")
    if enc_cfg is None:
        enc_cfg = EncoderConfig(n_leads=X.shape[1])

    params = init_encoder_params(enc_cfg, config.seed)
    target = params.copy() if config.method == "BYOL" else None
    bank = (
        PrototypeBank(config.n_prototypes, enc_cfg.projection_dim, config.seed + 1)
        if config.method == "SwAV"
        else None
    )

    if config.method == "SimCLR":
        trainable = _without_prefix(params, "pred.")
    elif config.method == "BYOL":
        trainable = params
    else:
        trainable = _without_prefix(params, "pred.").merged_with(
            ModelParams({"prototypes": bank.C})
        )

    adam = AdamState(lr=config.lr, weight_decay=config.weight_decay)
    log = TrainingLog()
    best = None
    best_val = np.inf

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng(_child_seed(config.seed, epoch, 1)).permutation(
            len(X)
        )
        rng = RngStream(_child_seed(config.seed, epoch, 2))
        losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            if len(idx) < 2 and config.method in ("SimCLR", "SwAV"):
                continue
            v1, v2 = _make_view_batches(X, idx, config.augmentation, rng)
            loss = _pretrain_batch_loss(
                config.method, enc_cfg, config, params, target, bank, v1, v2
            )
            loss.backward()
            adam_step(adam, trainable)
            params.zero_grads()
            if config.method == "BYOL":
                ema_update(target, params, config.ema_decay)
            elif config.method == "SwAV":
                bank.renormalize()
            losses.append(float(loss.data))

        val_loss = _pretrain_validation_loss(
            config, enc_cfg, params, target, bank, X_val, epoch
        )
        log.entries.append(
            LogEntry(
                epoch,
                float(np.mean(losses)),
                val_loss,
                wall_seconds=time.perf_counter() - t0,
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()

    return best, log


def _without_prefix(params: ModelParams, prefix: str) -> ModelParams:
    return ModelParams(
        OrderedDict(
            (n, t) for n, t in params.params.items() if not n.startswith(prefix)
        )
    )


def _pretrain_validation_loss(config, enc_cfg, params, target, bank, X_val, epoch):
    if X_val is None or len(X_val) == 0:
        return float("inf")
    rng = RngStream(_child_seed(config.seed, epoch, 3))
    losses = []
    for start in range(0, len(X_val), config.batch_size):
        idx = np.arange(start, min(start + config.batch_size, len(X_val)))
        if len(idx) < 2 and config.method in ("SimCLR", "SwAV"):
            continue
        v1, v2 = _make_view_batches(X_val, idx, config.augmentation, rng)
        with no_grad():
            loss = _pretrain_batch_loss(
                config.method, enc_cfg, config, params, target, bank, v1, v2
            )
        losses.append(float(loss.data))
    return float(np.mean(losses)) if losses else float("inf")


def finetune(
    pretrained: ModelParams,
    config: FinetuneConfig,
    split,
    enc_cfg: EncoderConfig | None = None,
    init_head: ModelParams | None = None,
):
    """Append a sigmoid multi-label head and train with BCE; the returned
    checkpoint is the epoch with the highest validation macro-F1.

    `init_head` warm-starts the head (probe-then-finetune): pass the
    head.* parameters of a previous frozen-encoder run."""
    if not split.validation:
        raise ValueError("empty validation set: model selection undefined")
    X, (Y, _classes) = _stack(split.train), _labels_matrix(split.train)
    X_val, (Y_val, _) = _stack(split.validation), _labels_matrix(split.validation)
    if enc_cfg is None:
        enc_cfg = EncoderConfig(n_leads=X.shape[1])

    params = pretrained.copy()
    if init_head is not None:
        head = init_head.subset("head.").copy()
        if head.names() != ["head.weight", "head.bias"]:
            raise ValueError("init_head must provide head.weight and head.bias")
    else:
        head = init_head_params(enc_cfg, Y.shape[1], config.seed + 101)
    model = params.merged_with(head)
    trainable = head if config.freeze_encoder else model
    adam = AdamState(lr=config.lr, weight_decay=config.weight_decay)

    if config.freeze_encoder:
        # frozen path: embed once and train the head on standardized
        # features (a linear probe is scale-sensitive otherwise); the
        # standardization is folded back into the head before returning
        H = encode(params, enc_cfg, X)
        H_val = encode(params, enc_cfg, X_val)
        mu = H.mean(axis=0)
        sd = np.maximum(H.std(axis=0), 1e-8)
        H = (H - mu) / sd
        H_val = (H_val - mu) / sd
    else:
        mu = sd = None

    def head_logits(x_idx, h_const):
        if config.freeze_encoder:
            return forward_head(model, Tensor(h_const))
        return forward_head(model, forward_encoder(params, enc_cfg, x_idx))

    def val_logits():
        h = H_val if config.freeze_encoder else encode(params, enc_cfg, X_val)
        with no_grad():
            return forward_head(model, Tensor(h))

    def val_f1():
        scores = 1.0 / (1.0 + np.exp(-val_logits().data))
        return macro_f1(PredictionBatch(scores, Y_val))

    log = TrainingLog()
    # a warm-started run enters its own initialization in the selection
    # (ties go to trained epochs), so it cannot regress below the warm
    # start on the validation metric; fresh heads select over epochs only
    if init_head is not None:
        init_model = model.copy()
        init_f1 = val_f1()
    else:
        init_model, init_f1 = None, -1.0
    best = None
    best_f1 = -1.0
    batch = config.batch_size
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng(
            _child_seed(config.seed, epoch, 4)
        ).permutation(len(X))
        losses = []
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            logits = head_logits(X[idx], H[idx] if config.freeze_encoder else None)
            loss = bce_with_logits(logits, Y[idx])
            loss.backward()
            adam_step(adam, trainable)
            model.zero_grads()
            losses.append(float(loss.data))

        logits = val_logits()
        val_loss = float(bce_with_logits(logits, Y_val).data)
        scores = 1.0 / (1.0 + np.exp(-logits.data))
        f1 = macro_f1(PredictionBatch(scores, Y_val))
        log.entries.append(
            LogEntry(
                epoch,
                float(np.mean(losses)),
                val_loss,
                f1,
                wall_seconds=time.perf_counter() - t0,
            )
        )
        if f1 > best_f1:
            best_f1 = f1
            best = model.copy()

    if init_f1 > best_f1:
        best = init_model
    if config.freeze_encoder:
        # fold (h - mu) / sd into the head: the returned model then applies
        # directly to raw encoder outputs
        w = best["head.weight"].data
        best["head.weight"].data = w / sd[:, None]
        best["head.bias"].data = best["head.bias"].data - (mu / sd) @ w
    return best, log


def predict_scores(model: ModelParams, enc_cfg: EncoderConfig, windows):
    X, (Y, classes) = _stack(windows), _labels_matrix(windows)
    with no_grad():
        logits = forward_head(model, Tensor(encode(model, enc_cfg, X)))
    scores = 1.0 / (1.0 + np.exp(-logits.data))
    return PredictionBatch(scores, Y, classes)


def linear_eval(
    pretrained: ModelParams,
    split,
    enc_cfg: EncoderConfig | None = None,
    config: FinetuneConfig | None = None,
):
    """Frozen-encoder fine-tuning, then macro-F1 on the test partition."""
    if config is None:
        config = FinetuneConfig(freeze_encoder=True)
    elif not config.freeze_encoder:
        raise ValueError("linear evaluation requires freeze_encoder=True")
    if enc_cfg is None:
        enc_cfg = EncoderConfig(n_leads=split.train[0].data.shape[0])
    model, log = finetune(pretrained, config, split, enc_cfg)
    pred = predict_scores(model, enc_cfg, split.test)
    return macro_f1(pred), log
