"""Plain-numpy references the benchmark checks the program against.

Nothing here imports ecgssl: every formula is written out again from its
definition, in a different form from the program's where that is easy
(sliding windows instead of per-tap einsum, a log-domain Sinkhorn, pairwise
AUC instead of ranks), so that a shared mistake is unlikely.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv1d(x, w, b, stride):
    """(B, C_in, L) * (C_out, C_in, k) with k//2 zero padding per side."""
    k = w.shape[2]
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    cols = sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]  # (B, C_in, T, k)
    return np.tensordot(cols, w, axes=([1, 3], [1, 2])).transpose(0, 2, 1) + b[None, :, None]


def encoder(p, conv_strides, x):
    """Conv blocks with ReLU, mean over time, dense embedding."""
    for i, stride in enumerate(conv_strides):
        x = np.maximum(conv1d(x, p[f"conv{i}.weight"], p[f"conv{i}.bias"], stride), 0.0)
    return x.mean(axis=2) @ p["embed.weight"] + p["embed.bias"]


def mlp(p, prefix, h):
    q = np.maximum(h @ p[f"{prefix}.fc1.weight"] + p[f"{prefix}.fc1.bias"], 0.0)
    return q @ p[f"{prefix}.fc2.weight"] + p[f"{prefix}.fc2.bias"]


def head(p, h):
    return h @ p["head.weight"] + p["head.bias"]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def unit_rows(z):
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def nt_xent(z_i, z_j, tau):
    """Mean over the 2B anchors of -log(exp(s_pos) / sum_{k != a} exp(s_ak))."""
    z = unit_rows(np.concatenate([z_i, z_j]))
    n, b = len(z), len(z_i)
    total = 0.0
    for a in range(n):
        s = z @ z[a] / tau
        pos = (a + b) % n
        others = np.delete(s, a)
        m = others.max()
        total += m + math.log(np.exp(others - m).sum()) - s[pos]
    return total / n


def byol(q, z):
    """Mean of 2 - 2 cos(q_r, z_r) over rows."""
    cos = np.einsum("ij,ij->i", unit_rows(q), unit_rows(z))
    return float(np.mean(2.0 - 2.0 * cos))


def sinkhorn(scores, epsilon, n_iters):
    """Log-domain Sinkhorn-Knopp: columns carry 1/K, rows 1/B; returns
    per-sample codes (rows summing to 1)."""
    b, k = scores.shape
    log_q = scores / epsilon
    log_q = log_q - _logsumexp(log_q.ravel())
    for _ in range(n_iters):
        log_q = log_q - _logsumexp(log_q, axis=0) - math.log(k)
        log_q = log_q - _logsumexp(log_q, axis=1)[:, None] - math.log(b)
    return np.exp(log_q - _logsumexp(log_q, axis=1)[:, None])


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return out.reshape(()) if axis is None else np.squeeze(out, axis=axis)


def swav(z_i, z_j, prototypes, temperature, epsilon, n_iters, codes=None):
    """Swapped prediction: -sum(q_j log p_i) - sum(q_i log p_j), row means."""
    zi, zj = unit_rows(z_i), unit_rows(z_j)
    if codes is None:
        codes = (
            sinkhorn(zi @ prototypes.T, epsilon, n_iters),
            sinkhorn(zj @ prototypes.T, epsilon, n_iters),
        )
    q_i, q_j = codes

    def log_softmax(s):
        return s - _logsumexp(s, axis=1)[:, None]

    lp_i = log_softmax(zi @ prototypes.T / temperature)
    lp_j = log_softmax(zj @ prototypes.T / temperature)
    return float(-(q_j * lp_i).sum(axis=1).mean() - (q_i * lp_j).sum(axis=1).mean())


def f1_scores(scores, targets, threshold=0.5):
    """Per-class F1 by counting; an empty confusion scores 1. Also returns
    micro F1."""
    n, c = scores.shape
    tp = fp = fn = 0
    per_class = []
    for j in range(c):
        a = b = d = 0
        for i in range(n):
            pred = scores[i, j] >= threshold
            if pred and targets[i, j]:
                a += 1
            elif pred:
                b += 1
            elif targets[i, j]:
                d += 1
        per_class.append(1.0 if 2 * a + b + d == 0 else 2 * a / (2 * a + b + d))
        tp, fp, fn = tp + a, fp + b, fn + d
    micro = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
    return per_class, micro


def auc_scores(scores, targets):
    """Per-class AUC over all positive/negative pairs (ties count half);
    None for a class without both. Returns (per_class, macro or None)."""
    out = []
    for j in range(scores.shape[1]):
        pos = scores[targets[:, j] == 1, j]
        neg = scores[targets[:, j] == 0, j]
        if len(pos) == 0 or len(neg) == 0:
            out.append(None)
            continue
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        out.append(float(wins) / (len(pos) * len(neg)))
    valid = [v for v in out if v is not None]
    return out, (sum(valid) / len(valid) if valid else None)


def near_ties(scores, targets, threshold=0.5, margin=1e-5):
    """True where a change of `margin` in some score could flip a
    thresholded decision or a positive/negative ordering. Scores recomputed
    from a float32 checkpoint differ from the program's float64 ones by far
    less than this margin."""
    if np.any(np.abs(scores - threshold) < margin):
        return True
    for j in range(scores.shape[1]):
        pos = scores[targets[:, j] == 1, j]
        neg = scores[targets[:, j] == 0, j]
        d = np.abs(pos[:, None] - neg[None, :])
        if np.any((d > 0) & (d < margin)):
            return True
    return False


def sum_of_sines(freqs, amps, phases, t):
    """Analytic values of sum_k a_k sin(2 pi f_k t + phi_k), one row per lead."""
    return np.stack(
        [
            sum(a * np.sin(2 * np.pi * f * t + ph) for f, a, ph in zip(fr, am, ps))
            for fr, am, ps in zip(freqs, amps, phases)
        ]
    )


def gaussian_overlap_shifted(shift):
    """Overlap integral of N(0, I) and N((shift, 0), I): 2 Phi(-shift / 2)."""
    return 2.0 * 0.5 * math.erfc(shift / 2.0 / math.sqrt(2.0))


def overlap_eta(ref_points, other_points, resolution=256):
    """Overlap index of two embedding sets: PCA to 2-D fitted on the
    reference (top eigenvectors of its covariance), a Gaussian product-kernel
    density per set with Scott bandwidths (std * n^(-1/6)) on a shared grid
    padded by 3 of the larger bandwidths, each normalized to integrate to 1,
    and the integral of their minimum, clamped to [0, 1]."""
    mean = ref_points.mean(axis=0)
    vals, vecs = np.linalg.eigh(np.cov(ref_points - mean, rowvar=False))
    axes = vecs[:, np.argsort(vals)[::-1][:2]]
    a, b = (ref_points - mean) @ axes, (other_points - mean) @ axes

    def scott(p):
        return p.std(axis=0) * len(p) ** (-1.0 / 6.0)

    pad = 3.0 * np.maximum(scott(a), scott(b))
    both = np.vstack([a, b])
    lo, hi = both.min(axis=0) - pad, both.max(axis=0) + pad
    grid = [np.linspace(lo[d], hi[d], resolution) for d in (0, 1)]
    cell = np.prod((hi - lo) / (resolution - 1))

    def density(p):
        h = scott(p)
        kx, ky = (np.exp(-0.5 * ((grid[d][:, None] - p[None, :, d]) / h[d]) ** 2) for d in (0, 1))
        f = np.einsum("in,jn->ij", kx, ky)
        return f / (f.sum() * cell)

    eta = float(np.minimum(density(a), density(b)).sum() * cell)
    return min(max(eta, 0.0), 1.0)
