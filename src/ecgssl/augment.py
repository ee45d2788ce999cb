"""Eight augmentation recipes producing correlated views of ECG windows.

Each recipe is declared once, in `_RECIPES`: its parameter names, the check
of their values, its draw and its apply. An `AugmentationSpec` runs the check
when it is built, so recipes take their parameters as given. Applications
take a (n_leads, window_len) window or a (batch, n_leads, window_len) batch
and return a new float array of the same shape. They are deterministic given
the input, the parameters, and the RngStream seed, and a batch equals its
windows augmented one by one: the draw consumes the stream window by window,
as a loop over the windows would, and the apply runs once on the batch."""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "RngStream",
    "AugmentationSpec",
    "negate",
    "mask",
    "time_warp",
    "apply_augmentation",
    "COMBINATION_POOL",
]


@dataclass
class RngStream:
    """Seeded PCG64 stream; identical seed gives identical draws everywhere."""

    seed: int

    def __post_init__(self):
        self.generator = np.random.default_rng(self.seed)


# Each recipe is a draw and an apply. The draw takes the parameters of a
# checked spec, the stream and the (n_windows, n_leads, window_len) shape; it
# consumes the stream window by window, in the order of a loop over the
# windows, and returns a tuple of what it drew, each with n_windows rows. The
# apply takes the float64 batch `x`, the parameters and those draws, runs
# once on the whole batch and returns a new array; it leaves `x` as it is but
# may write into the draws, which belong to that one call.


def _normal(p, rng, shape):
    return (rng.generator.normal(0.0, p["sigma"], size=shape),)


def _gaussian_noise(x, p, noise):
    """Additive i.i.d. Normal(0, sigma^2) noise on every sample."""
    noise += x
    return noise


def _factors(p, rng, shape):
    return (rng.generator.uniform(p["a"], p["b"], size=shape[:2] + (1,)),)


def _channel_scale(x, p, factors):
    """Each lead multiplied by an independent factor drawn uniformly in [a, b]."""
    return x * factors


def _nothing(p, rng, shape):
    return ()


def _negate(x, p):
    return -x


def _phase(p, rng, shape):
    return (rng.generator.uniform(0.0, 2.0 * np.pi, size=shape[0]),)


def _baseline_wander(x, p, phase):
    """Add a slow sinusoid with period f_w samples and random phase.

    f_w is interpreted as a period in samples (100 samples = 1 Hz drift at
    100 Hz); the same waveform is added to every lead.
    """
    t = np.arange(x.shape[2])
    wave = p["s_bw"] * np.sin(2.0 * np.pi * t / p["f_w"] + phase[:, None])
    return x + wave[:, None, :]


def _emg_noise(x, p, noise):
    """High-pass-filtered white noise simulating muscle-activity artifacts.

    The noise is brick-wall filtered above 0.3 x Nyquist in the frequency
    domain, then rescaled so each window's sample std is sigma again.
    """
    n = x.shape[2]
    spec = np.fft.rfft(noise, axis=2)
    spec[:, :, np.fft.rfftfreq(n) < 0.15] = 0.0  # cycles per sample; Nyquist = 0.5
    filtered = np.fft.irfft(spec, n=n, axis=2)
    std = filtered.std(axis=(1, 2))
    filtered *= np.divide(p["sigma"], std, out=np.ones_like(std), where=std > 0)[:, None, None]
    filtered += x
    return filtered


def _runs(p, rng, shape):
    """Per window a run of c% of its length, c uniform in [a, b], and the
    start of that run on each lead."""
    n_windows, n_leads, n = shape
    start = np.zeros((n_windows, n_leads), dtype=np.int64)
    run = np.zeros(n_windows, dtype=np.int64)
    for i in range(n_windows):
        c = rng.generator.uniform(p["a_pct"], p["b_pct"])
        run[i] = round(c / 100.0 * n)
        if run[i]:
            start[i] = rng.generator.integers(0, n - run[i] + 1, size=n_leads)
    return start, run


def _mask(x, p, start, run):
    """Zero a contiguous c% run per lead, c drawn once per window from [a, b]."""
    t = np.arange(x.shape[2])
    start = start[:, :, None]
    return np.where((t >= start) & (t < start + run[:, None, None]), 0.0, x)


def _segment_counts(w):
    """(segments, stretched segments) of a warp with w segments: for w = 1
    the single segment is split into two halves, one stretched."""
    return (2, 1) if w == 1 else (w, int(np.ceil(w / 2)))


def _stretched(p, rng, shape):
    w = int(p["w"])
    if shape[2] < 2 * w:
        raise ValueError("window too short for the requested segment count")
    n_seg, n_stretch = _segment_counts(w)
    picked = [rng.generator.choice(n_seg, size=n_stretch, replace=False) for _ in range(shape[0])]
    return (np.array(picked),)


@functools.lru_cache(maxsize=64)
def _warp_plan(n, w, r_pct, stretched):
    """(lo, hi, frac) of the warp of an n-sample window that stretches the
    segments `stretched`. Output sample t is (x[hi] - x[lo]) * frac + x[lo],
    as np.interp resamples each segment; where frac is 0, x[lo] is copied as
    is, as np.interp does on an exact hit. `stretched` is in drawn order, so
    the set built from it sums the stretched lengths in the drawn set's order.
    """
    n_seg, _ = _segment_counts(w)
    bounds = np.linspace(0, n, n_seg + 1).round().astype(int)
    lengths = np.diff(bounds)
    stretch_idx = set(stretched)

    factor = 1.0 + r_pct / 100.0
    stretched_total = sum(lengths[i] * factor for i in stretch_idx)
    squeezed_len = sum(lengths[i] for i in range(n_seg) if i not in stretch_idx)
    q = (n - stretched_total) / squeezed_len if squeezed_len else 1.0

    new_lengths = np.array(
        [
            lengths[i] * (factor if i in stretch_idx else q)
            for i in range(n_seg)
        ]
    )
    rounded = np.floor(new_lengths).astype(int)
    rounded = np.maximum(rounded, 1)
    # push rounding drift into the largest-error segments so the sum is exact
    while rounded.sum() < n:
        rounded[np.argmax(new_lengths - rounded)] += 1
    while rounded.sum() > n:
        rounded[np.argmin(new_lengths - rounded)] -= 1

    lo, frac = [], []
    for i in range(n_seg):
        # for an unchanged length these are the whole numbers, each copied as is
        pos = np.linspace(0.0, lengths[i] - 1.0, rounded[i])
        j = np.floor(pos)
        lo.append(bounds[i] + j.astype(np.int64))
        frac.append(pos - j)
    lo, frac = np.concatenate(lo), np.concatenate(frac)
    hi = lo + (frac > 0)
    for a in (lo, hi, frac):
        a.flags.writeable = False
    return lo, hi, frac


def _time_warp(x, p, stretched):
    """Stretch a random half of w segments by r% and squeeze the rest.

    Total length is preserved exactly. For w = 1 the single segment is split
    into two halves internally so that one can stretch and the other squeeze.
    """
    groups = {}  # stretched segments -> the windows that drew them
    for i, s in enumerate(stretched.tolist()):
        groups.setdefault(tuple(s), []).append(i)
    out = np.empty_like(x)
    for s, rows in groups.items():
        lo, hi, frac = _warp_plan(x.shape[2], int(p["w"]), p["r_pct"], s)
        windows = x[rows]
        y0, y1 = np.take(windows, lo, axis=2), np.take(windows, hi, axis=2)
        with np.errstate(invalid="ignore", over="ignore"):  # np.interp never warns
            slope = y1 - y0
            warped = slope * frac
            warped += y0
            nan = np.isnan(warped)
            if nan.any():
                # np.interp's fallbacks: from the right-hand sample, then a flat step
                right = slope * (frac - 1.0) + y1
                warped[nan] = np.where(np.isnan(right) & (y0 == y1), y0, right)[nan]
        np.copyto(warped, y0, where=frac == 0.0)
        out[rows] = warped
    return out


# parameters used when augmentations are combined, fixed per recipe
COMBINATION_POOL = (
    ("GaussianNoise", {"sigma": 1.0}),
    ("ChannelScaling", {"a": 0.33, "b": 3.0}),
    ("BaselineWander", {"f_w": 100.0, "s_bw": 1.0}),
    ("EmgNoise", {"sigma": 0.01}),
    ("Masking", {"a_pct": 40.0, "b_pct": 50.0}),
    ("TimeWarping", {"w": 1, "r_pct": 10.0}),
)


def _picks(p, rng, shape):
    """Per window, four distinct pool indices and then the draws of each
    pick in turn, for that one window."""
    picks, drawn = [], []
    for _ in range(shape[0]):
        pick = rng.generator.choice(len(COMBINATION_POOL), size=4, replace=False)
        picks.append(pick)
        drawn.append([
            _RECIPES[COMBINATION_POOL[i][0]].draw(COMBINATION_POOL[i][1], rng, (1,) + shape[1:])
            for i in pick
        ])
    return np.array(picks), drawn


def _combine(x, p, picks, drawn):
    """Apply four distinct augmentations drawn without replacement, in order.

    Each stage applies each pool recipe once, to the windows that picked it.
    """
    x = x.copy()
    for stage in range(4):
        for i in np.unique(picks[:, stage]):
            rows = np.flatnonzero(picks[:, stage] == i)
            kind, params = COMBINATION_POOL[i]
            draws = [np.concatenate(d) for d in zip(*(drawn[r][stage] for r in rows))]
            x[rows] = _RECIPES[kind].apply(x[rows], params, *draws)
    return x


class _Recipe(NamedTuple):
    names: tuple  # of its parameters
    check: Callable  # of their values, each a finite real number
    draw: Callable
    apply: Callable


_RECIPES = {
    "GaussianNoise": _Recipe(("sigma",), lambda p: p["sigma"] > 0, _normal, _gaussian_noise),
    "ChannelScaling": _Recipe(
        ("a", "b"), lambda p: 0 < p["a"] <= p["b"], _factors, _channel_scale
    ),
    "Negation": _Recipe((), lambda p: True, _nothing, _negate),
    "BaselineWander": _Recipe(
        ("f_w", "s_bw"), lambda p: p["f_w"] > 0 and p["s_bw"] >= 0, _phase, _baseline_wander
    ),
    "EmgNoise": _Recipe(("sigma",), lambda p: p["sigma"] > 0, _normal, _emg_noise),
    "Masking": _Recipe(
        ("a_pct", "b_pct"), lambda p: 0 <= p["a_pct"] <= p["b_pct"] <= 100, _runs, _mask
    ),
    "TimeWarping": _Recipe(
        ("w", "r_pct"),
        lambda p: p["w"] >= 1 and int(p["w"]) == p["w"] and p["r_pct"] > 0,
        _stretched,
        _time_warp,
    ),
    "Combination": _Recipe((), lambda p: True, _picks, _combine),
}


def _finite_real(v) -> bool:
    # abs(v) <= max also rejects NaN, and compares a huge int exactly
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass(frozen=True)
class AugmentationSpec:
    """A tagged augmentation with its parameters; validates on construction."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _RECIPES:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        names, check, _, _ = _RECIPES[self.kind]
        if set(self.params) != set(names):
            raise ValueError(
                f"{self.kind} takes parameters {list(names)}, got {list(self.params)}"
            )
        for name in names:
            if not _finite_real(self.params[name]):
                raise ValueError(
                    f"{self.kind} parameter {name!r} must be a finite number, "
                    f"got {self.params[name]!r}"
                )
        if not check(self.params):
            raise ValueError(f"invalid parameters for {self.kind}: {self.params}")


def apply_augmentation(x, spec: AugmentationSpec, rng: RngStream):
    """The augmented copy of a (n_leads, window_len) window or of a
    (batch, n_leads, window_len) batch. A batch gives the same bytes, and
    leaves `rng` in the same state, as its windows augmented one by one."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError("expected a (n_leads, window_len) or (batch, n_leads, window_len) array")
    batch = x if x.ndim == 3 else x[None]
    recipe = _RECIPES[spec.kind]
    out = recipe.apply(batch, spec.params, *recipe.draw(spec.params, rng, batch.shape))
    return out if x.ndim == 3 else out[0]


def negate(x):
    """The Negation recipe: every sample's sign flipped."""
    return apply_augmentation(x, AugmentationSpec("Negation"), None)


def mask(x, a_pct: float, b_pct: float, rng: RngStream):
    """The Masking recipe with the given range, in percent of the window."""
    return apply_augmentation(x, AugmentationSpec("Masking", {"a_pct": a_pct, "b_pct": b_pct}), rng)


def time_warp(x, w: int, r_pct: float, rng: RngStream):
    """The TimeWarping recipe with w segments and an r% stretch."""
    return apply_augmentation(x, AugmentationSpec("TimeWarping", {"w": w, "r_pct": r_pct}), rng)
