"""The three self-supervised losses: contrastive (NT-Xent), normalized-MSE
with a momentum target (BYOL-style), and swapped prediction over a prototype
bank with Sinkhorn-Knopp balanced codes (SwAV-style).

All losses are built from diffcore Tensor ops so gradients flow end to end;
codes and momentum-target outputs enter as constants (stop-gradient).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffcore import (
    ModelParams,
    NonFiniteError,
    Tensor,
    concat,
    forward_encoder,
    forward_predictor,
    forward_projection,
    l2_normalize,
    no_grad,
)

__all__ = [
    "ViewBatchEmbeddings",
    "PrototypeBank",
    "CodeMatrix",
    "cosine_sim",
    "nt_xent_loss",
    "byol_loss",
    "byol_symmetric_loss",
    "sinkhorn_knopp",
    "swav_loss",
]


@dataclass
class ViewBatchEmbeddings:
    """Projections of the two views of one batch plus the temperature."""

    z_i: Tensor
    z_j: Tensor
    temperature: float = 0.5

    def __post_init__(self):
        if self.z_i.data.shape != self.z_j.data.shape:
            raise ValueError("view embeddings must have matching shapes")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


class PrototypeBank:
    """K trainable unit-norm prototype vectors."""

    def __init__(self, k: int, dim: int, seed: int = 0):
        if k < 2:
            raise ValueError("need at least 2 prototypes")
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((k, dim))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        self.C = Tensor(c, requires_grad=True)

    @property
    def k(self):
        return self.C.data.shape[0]

    def renormalize(self):
        """Project every prototype row back to the unit sphere."""
        norms = np.linalg.norm(self.C.data, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.C.data /= norms


@dataclass
class CodeMatrix:
    """Sinkhorn output: `codes` rows sum to 1; `raw` keeps the transport
    marginals (rows 1/B, columns approx uniform)."""

    codes: np.ndarray
    raw: np.ndarray


def cosine_sim(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _check_nonzero_rows(t: Tensor, what: str):
    norms = np.linalg.norm(t.data, axis=1)
    if np.any(norms == 0):
        raise ValueError(f"zero-norm row in {what}")


def nt_xent_loss(emb: ViewBatchEmbeddings) -> Tensor:
    """Contrastive loss averaged over all 2B anchors.

    Positives are the (i, i+B) view pairs; every other row in the stacked
    batch is a negative. Cosine similarity makes the loss scale-free in the
    embeddings.
    """
    _check_nonzero_rows(emb.z_i, "z_i")
    _check_nonzero_rows(emb.z_j, "z_j")
    b = emb.z_i.data.shape[0]
    tau = emb.temperature

    z = concat([emb.z_i, emb.z_j], axis=0)
    zn = l2_normalize(z, axis=1)
    sim = zn @ zn.T * (1.0 / tau)

    n = 2 * b
    off_diag = 1.0 - np.eye(n)
    pos = np.zeros((n, n))
    idx = np.arange(b)
    pos[idx, idx + b] = 1.0
    pos[idx + b, idx] = 1.0

    exp_sim = sim.exp() * off_diag
    denom = exp_sim.sum(axis=1)
    pos_sim = (sim * pos).sum(axis=1)
    return (denom.log() - pos_sim).mean()


def byol_loss(q_i: Tensor, z_j: np.ndarray) -> Tensor:
    """Per-row 2 - 2 cos(q_i, z_j), batch-averaged; z_j is a constant array."""
    z_j = np.asarray(z_j, dtype=np.float64)
    if q_i.data.shape != z_j.shape:
        raise ValueError("shape mismatch between predictor output and target")
    _check_nonzero_rows(q_i, "predictor output")
    norms = np.linalg.norm(z_j, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero-norm row in target embeddings")

    qn = l2_normalize(q_i, axis=1)
    zn = z_j / norms
    return (2.0 - 2.0 * (qn * zn).sum(axis=1)).mean()


def byol_symmetric_loss(
    view_i,
    view_j,
    online: ModelParams,
    target: ModelParams,
    cfg,
) -> Tensor:
    """Both directions of the prediction loss; no gradient reaches `target`.

    view_i / view_j are (B, n_leads, L) arrays. The online path runs
    encoder -> projection -> predictor; the target path runs
    encoder -> projection under `no_grad`, so it builds no tape.
    """

    def online_path(v):
        return forward_predictor(
            online, forward_projection(online, forward_encoder(online, cfg, v))
        )

    def target_path(v):
        with no_grad():  # stop-gradient
            return forward_projection(target, forward_encoder(target, cfg, v)).data

    return byol_loss(online_path(view_i), target_path(view_j)) + byol_loss(
        online_path(view_j), target_path(view_i)
    )


def sinkhorn_knopp(scores, epsilon: float = 0.05, n_iters: int = 3) -> CodeMatrix:
    """Balanced soft assignments from a (B, K) score matrix.

    Q ∝ exp(scores / epsilon) is alternately normalized so prototype columns
    carry 1/K of the mass and sample rows carry 1/B, then rows are rescaled
    to sum to 1 to give per-sample codes.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteError("non-finite scores")
    b, k = scores.shape
    # subtract the max for overflow safety; cancels in the normalizations
    q = np.exp((scores - scores.max()) / epsilon)
    q /= q.sum()
    for _ in range(n_iters):
        q /= q.sum(axis=0, keepdims=True) * k  # columns -> 1/K
        q /= q.sum(axis=1, keepdims=True) * b  # rows -> 1/B
    codes = q / q.sum(axis=1, keepdims=True)
    return CodeMatrix(codes=codes, raw=q)


def _log_softmax_rows(logits: Tensor) -> Tensor:
    shift = logits.data.max(axis=1, keepdims=True)  # constant; exact for softmax
    shifted = logits - shift
    lse = shifted.exp().sum(axis=1, keepdims=True).log()
    return shifted - lse


def swav_loss(
    z_i: Tensor,
    z_j: Tensor,
    bank: PrototypeBank,
    temperature: float = 0.1,
    epsilon: float = 0.05,
    n_iters: int = 3,
    codes=None,
) -> Tensor:
    """Swapped prediction: view i's embedding predicts view j's codes and
    vice versa. Codes come from Sinkhorn under stop-gradient; the gradient
    flows into the embeddings and the prototype bank but never through the
    codes. Passing `codes` as a (q_i, q_j) pair pins them, which is what a
    finite-difference check of the differentiated path needs."""
    if z_i.data.shape != z_j.data.shape:
        raise ValueError("view embeddings must have matching shapes")
    b = z_i.data.shape[0]
    if b < bank.k:
        warnings.warn(
            f"batch size {b} below prototype count {bank.k}; codes may be noisy",
            stacklevel=2,
        )

    # each view's prototype scores, computed once: Sinkhorn reads their
    # values, the loss differentiates through them
    s_i = l2_normalize(z_i, axis=1) @ bank.C.T
    s_j = l2_normalize(z_j, axis=1) @ bank.C.T
    if codes is None:
        q_i = sinkhorn_knopp(s_i.data, epsilon, n_iters).codes
        q_j = sinkhorn_knopp(s_j.data, epsilon, n_iters).codes
    else:
        q_i, q_j = codes

    def l(scores: Tensor, q: np.ndarray) -> Tensor:
        log_p = _log_softmax_rows(scores * (1.0 / temperature))
        return -(log_p * q).sum(axis=1).mean()

    return l(s_i, q_j) + l(s_j, q_i)
