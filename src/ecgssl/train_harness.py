"""Pre-training with the three SSL methods, supervised fine-tuning with
binary cross-entropy, and linear evaluation, all through one epoch loop.

Everything is deterministic for a fixed (config, data, seed): batch order,
augmentation draws, and validation augmentations all derive from seeded
generators, so reruns reproduce every logged number.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentationSpec, RngStream, apply_augmentation
from .diffcore import (
    AdamState,
    EncoderConfig,
    ModelParams,
    NonFiniteError,
    Tensor,
    adam_step,
    atomic_open,
    bce_with_logits,
    ema_update,
    encode,
    forward_encoder,
    forward_head,
    forward_projection,
    init_encoder_params,
    init_head_params,
    no_grad,
    sigmoid,
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
        _check_schedule(self)
        min_batch = _SSL[self.method][1]
        if self.batch_size < min_batch:
            raise ValueError(f"{self.method} needs batch_size >= {min_batch}")
        for name in ("temperature", "swav_temperature", "sinkhorn_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.ema_decay <= 1:
            raise ValueError("ema_decay must lie in [0, 1]")
        if self.n_prototypes < 2:
            raise ValueError("n_prototypes must be >= 2")
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be >= 1")


@dataclass
class FinetuneConfig:
    lr: float = 5e-3
    epochs: int = 50
    freeze_encoder: bool = False
    batch_size: int = 64
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        _check_schedule(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _check_schedule(config):
    """The ranges of the settings `PretrainConfig` and `FinetuneConfig` share."""
    if config.epochs < 1:
        raise ValueError("epochs must be >= 1")
    if config.lr <= 0:
        raise ValueError("lr must be positive")
    if config.weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")


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
        excluded so reruns are byte-identical. Written whole or not at all
        (`atomic_open`)."""
        with atomic_open(path, "w", newline="") as f:
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


def _batches(order, size, min_size=1):
    """Consecutive `size`-slices of `order`; a last one shorter than
    `min_size` is dropped."""
    for start in range(0, len(order), size):
        if len(order) - start >= min_size:
            yield order[start : start + size]


# ---------------------------------------------------------------------------
# the SSL methods: each set-up takes (config, enc_cfg, params) and returns
# (batch loss, which takes a batch's pair of augmented views; trainable
# params; hook run after each Adam step). The hooks and losses name the
# module's functions, which are looked up when called: a wrapper set on the
# module attribute sees each call.

# every pretraining parameter but the BYOL predictor (pred.*)
_ONLINE = ("conv", "embed.", "proj.")


def _project(params, enc_cfg, v):
    return forward_projection(params, forward_encoder(params, enc_cfg, v))


def _simclr(config, enc_cfg, params):
    def batch_loss(views):
        z1, z2 = (_project(params, enc_cfg, v) for v in views)
        return nt_xent_loss(ViewBatchEmbeddings(z1, z2, config.temperature))

    return batch_loss, params.subset(_ONLINE), lambda: None


def _byol(config, enc_cfg, params):
    target = params.copy()

    def batch_loss(views):
        return byol_symmetric_loss(*views, params, target, enc_cfg)

    return batch_loss, params, lambda: ema_update(target, params, config.ema_decay)


def _swav(config, enc_cfg, params):
    bank = PrototypeBank(config.n_prototypes, enc_cfg.projection_dim, config.seed + 1)

    def batch_loss(views):
        z1, z2 = (_project(params, enc_cfg, v) for v in views)
        return swav_loss(
            z1,
            z2,
            bank,
            config.swav_temperature,
            config.sinkhorn_epsilon,
            config.sinkhorn_iters,
        )

    trainable = params.subset(_ONLINE).merged_with(ModelParams({"prototypes": bank.C}))
    return batch_loss, trainable, bank.renormalize


# method -> (set-up, smallest batch its loss is defined on)
_SSL = {"SimCLR": (_simclr, 2), "BYOL": (_byol, 1), "SwAV": (_swav, 2)}
METHODS = tuple(_SSL)


def _fit(
    config, stream, n, batches, batch_loss, after_step, model, trainable, validate
):
    """The epoch loop of `pretrain` and `finetune`; every training step runs here.

    Epoch e visits the n training indices in an order drawn from child-seed
    stream `stream`; `batches(e, order)` yields each batch's inputs. A step
    is `batch_loss(inputs)`, its backward pass, one Adam step over
    `trainable` (which clears their gradients), then `after_step()`.
    `validate(e)` returns (val_loss, val_macro_f1 or None, score). Returns
    (a copy of `model` at the epoch of highest score, the earliest on ties;
    that score; log).

    A non-finite loss or trainable gradient raises ValueError naming the
    epoch and the step (both counted from 0), before the Adam step could
    write it into the parameters; so does a non-finite validation loss,
    naming the epoch. A loss whose computation stopped at a non-finite value
    (NonFiniteError: BYOL's target projections, SwAV's Sinkhorn scores)
    counts as non-finite.
    """
    adam = AdamState(lr=config.lr, weight_decay=config.weight_decay)
    log = TrainingLog()
    best, best_score = None, -np.inf
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng(
            _child_seed(config.seed, epoch, stream)
        ).permutation(n)
        losses = []
        for step, inputs in enumerate(batches(epoch, order)):
            try:
                loss = batch_loss(inputs)
            except NonFiniteError:  # stopped at a NaN before the loss existed
                loss = None
            if loss is None or not np.isfinite(loss.data):
                raise ValueError(f"non-finite training loss at epoch {epoch}, step {step}")
            loss.backward()
            for name, p in trainable.params.items():
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    raise ValueError(
                        f"non-finite gradient of {name} at epoch {epoch}, step {step}"
                    )
            adam_step(adam, trainable)
            after_step()
            losses.append(float(loss.data))
        try:
            val_loss, val_f1, score = validate(epoch)
        except NonFiniteError:
            val_loss = np.nan
        if not np.isfinite(val_loss):
            raise ValueError(f"non-finite validation loss at epoch {epoch}")
        train_loss, wall = float(np.mean(losses)), time.perf_counter() - t0
        log.entries.append(LogEntry(epoch, train_loss, val_loss, val_f1, wall))
        if score > best_score:
            best, best_score = model.copy(), score
    return best, best_score, log


def pretrain(config: PretrainConfig, split, enc_cfg: EncoderConfig):
    """Train one SSL method and return (best params by validation loss, log)."""
    if not split.train:
        raise ValueError("empty training split")
    set_up, min_batch = _SSL[config.method]
    if len(split.validation) < min_batch:
        raise ValueError(
            f"{config.method} needs at least {min_batch} validation window(s), "
            f"got {len(split.validation)}: model selection undefined"
        )
    X, X_val = _stack(split.train), _stack(split.validation)
    if config.batch_size > len(X):
        raise ValueError(
            f"batch_size {config.batch_size} exceeds the {len(X)} training windows"
        )

    params = init_encoder_params(enc_cfg, config.seed)
    batch_loss, trainable, after_step = set_up(config, enc_cfg, params)

    def views(epoch, order, data=X, stream=2):
        """Each batch's pair of augmented views, drawn from the epoch's
        child-seed stream `stream` (2 for training, 3 for validation)."""
        rng = RngStream(_child_seed(config.seed, epoch, stream))
        spec = config.augmentation
        for idx in _batches(order, config.batch_size, min_batch):
            batch = data[idx]
            yield (
                apply_augmentation(batch, spec, rng),
                apply_augmentation(batch, spec, rng),
            )

    def validate(epoch):
        with no_grad():
            pairs = views(epoch, np.arange(len(X_val)), X_val, 3)
            val_loss = float(np.mean([float(batch_loss(v).data) for v in pairs]))
        return val_loss, None, -val_loss

    best, _, log = _fit(
        config, 1, len(X), views, batch_loss, after_step, params, trainable, validate
    )
    return best, log


def finetune(
    pretrained: ModelParams,
    config: FinetuneConfig,
    split,
    enc_cfg: EncoderConfig,
    init_head: ModelParams | None = None,
):
    """Append a sigmoid multi-label head and train with BCE; the returned
    checkpoint is the epoch with the highest validation macro-F1.

    `init_head` warm-starts the head (probe-then-finetune): pass the
    head.* parameters of a previous frozen-encoder run."""
    if not split.train:
        raise ValueError("empty training split")
    if not split.validation:
        raise ValueError("empty validation set: model selection undefined")
    X, (Y, _classes) = _stack(split.train), _labels_matrix(split.train)
    X_val, (Y_val, _) = _stack(split.validation), _labels_matrix(split.validation)

    params = pretrained.copy()
    if init_head is not None:
        head = init_head.subset("head.").copy()
        if head.names() != ["head.weight", "head.bias"]:
            raise ValueError("init_head must provide head.weight and head.bias")
    else:
        head = init_head_params(enc_cfg, Y.shape[1], config.seed + 101)
    model = params.merged_with(head)

    if config.freeze_encoder:
        # frozen path: embed once and train the head on standardized
        # features (a linear probe is scale-sensitive otherwise); the
        # standardization is folded back into the head before returning
        H = encode(params, enc_cfg, X)
        mu = H.mean(axis=0)
        sd = np.maximum(H.std(axis=0), 1e-8)
        H = (H - mu) / sd
        H_val = (encode(params, enc_cfg, X_val) - mu) / sd

    def batch_loss(idx):
        if config.freeze_encoder:
            h = Tensor(H[idx])
        else:
            h = forward_encoder(params, enc_cfg, X[idx])
        return bce_with_logits(forward_head(model, h), Y[idx])

    def validate(epoch):
        h = H_val if config.freeze_encoder else encode(params, enc_cfg, X_val)
        with no_grad():
            logits = forward_head(model, Tensor(h))
            val_loss = float(bce_with_logits(logits, Y_val).data)
        f1 = macro_f1(PredictionBatch(sigmoid(logits.data), Y_val))
        return val_loss, f1, f1

    # a warm start enters the selection only if strictly better than every
    # trained epoch, so a warm-started run cannot regress below it on the
    # validation metric
    if init_head is not None:
        init_model, init_f1 = model.copy(), validate(None)[1]
    trainable = head if config.freeze_encoder else model
    best, best_f1, log = _fit(
        config, 4, len(X), lambda epoch, order: _batches(order, config.batch_size),
        batch_loss, lambda: None, model, trainable, validate,
    )
    if init_head is not None and init_f1 > best_f1:
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
    return PredictionBatch(sigmoid(logits.data), Y, classes)


def linear_eval(
    pretrained: ModelParams, split, enc_cfg: EncoderConfig, config: FinetuneConfig
):
    """Frozen-encoder fine-tuning, then macro-F1 on the test partition."""
    if not config.freeze_encoder:
        raise ValueError("linear evaluation requires freeze_encoder=True")
    model, log = finetune(pretrained, config, split, enc_cfg)
    pred = predict_scores(model, enc_cfg, split.test)
    return macro_f1(pred), log
