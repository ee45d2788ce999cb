"""Eight augmentation recipes producing correlated views of ECG windows.

Each recipe is declared once, in `_RECIPES`: its parameter names, the check
of their values and its application. An `AugmentationSpec` runs the check
when it is built, so recipes take their parameters as given. An application
takes a float64 (batch, n_leads, window_len) batch, the parameters and the
RngStream; it draws what it needs for the whole batch at once and returns a
new array of the same shape, leaving the input as it is. It is deterministic
given the input, the parameters and the RngStream seed. Masking,
TimeWarping and Combination draw in another order than a loop over the
windows would, so for them a batch does not equal its windows augmented one
by one."""

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


def _gaussian_noise(x, p, rng):
    """Additive i.i.d. Normal(0, sigma^2) noise on every sample."""
    # normal(0, sigma)'s draws in fewer steps: normal() also adds 0.0, which
    # changes a draw only by turning -0.0 into 0.0
    noise = rng.generator.standard_normal(x.shape)
    if p["sigma"] != 1:
        noise *= p["sigma"]
    noise += x
    return noise


def _channel_scale(x, p, rng):
    """Each lead multiplied by an independent factor drawn uniformly in [a, b]."""
    return x * rng.generator.uniform(p["a"], p["b"], size=x.shape[:2] + (1,))


def _negate(x, p, rng):
    return -x


def _baseline_wander(x, p, rng):
    """Add a slow sinusoid with period f_w samples and random phase.

    f_w is interpreted as a period in samples (100 samples = 1 Hz drift at
    100 Hz); the same waveform is added to every lead.
    """
    phase = rng.generator.uniform(0.0, 2.0 * np.pi, size=x.shape[0])
    t = np.arange(x.shape[2])
    wave = p["s_bw"] * np.sin(2.0 * np.pi * t / p["f_w"] + phase[:, None])
    return x + wave[:, None, :]


def _emg_noise(x, p, rng):
    """High-pass-filtered white noise simulating muscle-activity artifacts.

    The noise is brick-wall filtered above 0.3 x Nyquist in the frequency
    domain, then rescaled so each window's sample std is sigma again.
    """
    n = x.shape[2]
    # normal(0, sigma)'s draws as in GaussianNoise; then the bins below 0.15
    # cycles per sample (Nyquist = 0.5), a prefix as rfftfreq increases
    spec = np.fft.rfft(rng.generator.standard_normal(x.shape) * p["sigma"], axis=2)
    spec[:, :, : np.count_nonzero(np.fft.rfftfreq(n) < 0.15)] = 0.0
    filtered = np.fft.irfft(spec, n=n, axis=2)
    std = filtered.std(axis=(1, 2))
    filtered *= np.divide(p["sigma"], std, out=np.ones_like(std), where=std > 0)[:, None, None]
    filtered += x
    return filtered


def _mask(x, p, rng):
    """Zero a contiguous c% run per lead, c drawn once per window from [a, b]."""
    n_windows, n_leads, n = x.shape
    c = rng.generator.uniform(p["a_pct"], p["b_pct"], size=n_windows)
    run = np.round(c / 100.0 * n).astype(np.int64)[:, None]
    start = rng.generator.integers(0, n - run + 1, size=(n_windows, n_leads))
    # start <= t < start + run as one comparison: below start, t - start wraps
    inside = (np.arange(n) - start[..., None]).view(np.uint64) < run.view(np.uint64)[..., None]
    return np.where(inside, 0.0, x)


def _orders(rng, n_windows, n):
    """Per window a uniformly random order of range(n)."""
    return np.argsort(rng.generator.random((n_windows, n)), axis=1)


def _segment_counts(w):
    """(segments, stretched segments) of a warp with w segments: for w = 1
    the single segment is split into two halves, one stretched."""
    return (2, 1) if w == 1 else (w, int(np.ceil(w / 2)))


def _check_warp(p):
    """TimeWarping's check; a stretch that would fill the window raises,
    naming the bound of r_pct."""
    if not (p["w"] >= 1 and int(p["w"]) == p["w"] and p["r_pct"] > 0):
        return False
    n_seg, n_stretch = _segment_counts(int(p["w"]))
    bound = 100.0 * (n_seg - n_stretch) / n_stretch  # where the squeezed segments vanish
    if p["r_pct"] >= bound:
        raise ValueError(
            f"invalid parameters for TimeWarping: r_pct must be below {bound:.3g} "
            f"for w = {p['w']}, got {p['r_pct']}"
        )
    return True


@functools.lru_cache(maxsize=64)
def _warp_plan(n, w, r_pct, stretched):
    """(lo, hi, frac) of the warp of an n-sample window that stretches the
    segments `stretched`. Output sample t is (x[hi] - x[lo]) * frac + x[lo],
    a linear interpolation within each segment."""
    n_seg, _ = _segment_counts(w)
    bounds = np.linspace(0, n, n_seg + 1).round().astype(int)
    lengths = np.diff(bounds)

    is_stretched = np.isin(np.arange(n_seg), stretched)
    factor = 1.0 + r_pct / 100.0
    q = (n - factor * lengths[is_stretched].sum()) / lengths[~is_stretched].sum()
    new_lengths = lengths * np.where(is_stretched, factor, q)
    rounded = np.floor(new_lengths).astype(int)
    rounded = np.maximum(rounded, 1)
    # push rounding drift into the largest-error segments so the sum is exact
    while rounded.sum() < n:
        rounded[np.argmax(new_lengths - rounded)] += 1
    while rounded.sum() > n:
        rounded[np.argmin(new_lengths - rounded)] -= 1
    if rounded.min() < 1:
        raise ValueError(f"a {n}-sample window is too short to warp with w = {w} and r_pct = {r_pct}")

    lo, frac = [], []
    for i in range(n_seg):
        pos = np.linspace(0.0, lengths[i] - 1.0, rounded[i])
        j = np.floor(pos)
        lo.append(bounds[i] + j.astype(np.int64))
        frac.append(pos - j)
    lo, frac = np.concatenate(lo), np.concatenate(frac)
    hi = lo + (frac > 0)
    for a in (lo, hi, frac):
        a.flags.writeable = False
    return lo, hi, frac


@functools.lru_cache(maxsize=64)
def _check_fit(n, w, r_pct):
    """Raise unless every draw of stretched segments can warp an n-sample
    window. Stretching the longest segments squeezes the rest the most, so a
    window that plan fits, every draw fits."""
    n_seg, n_stretch = _segment_counts(w)
    longest = np.argsort(-np.diff(np.linspace(0, n, n_seg + 1).round()), kind="stable")
    _warp_plan(n, w, r_pct, tuple(sorted(longest[:n_stretch].tolist())))


def _time_warp(x, p, rng):
    """Stretch a random half of w segments by r% and squeeze the rest.

    Total length is preserved exactly. For w = 1 the single segment is split
    into two halves internally so that one can stretch and the other squeeze.
    """
    n_windows, _, n = x.shape
    w = int(p["w"])
    if n < 2 * w:
        raise ValueError("window too short for the requested segment count")
    _check_fit(n, w, p["r_pct"])
    n_seg, n_stretch = _segment_counts(w)
    groups = {}  # the windows of each draw of stretched segments
    for i, s in enumerate(_orders(rng, n_windows, n_seg)[:, :n_stretch].tolist()):
        groups.setdefault(tuple(sorted(s)), []).append(i)
    out = np.empty_like(x)
    with np.errstate(invalid="ignore", over="ignore"):  # huge values may overflow
        for s, rows in groups.items():
            windows = x[rows] if len(groups) > 1 else x  # one group: no gather
            lo, hi, frac = _warp_plan(n, w, p["r_pct"], s)
            y0 = np.take(windows, lo, axis=2)
            warped = np.take(windows, hi, axis=2) - y0
            warped *= frac
            warped += y0
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


def _combine(x, p, rng):
    """Apply four distinct augmentations drawn without replacement, in order.

    Each window takes the first four of a random order of the pool. Each
    stage applies each pool recipe once, in pool order, to the windows that
    picked it.
    """
    picks = _orders(rng, x.shape[0], len(COMBINATION_POOL))[:, :4]
    out = np.empty_like(x)  # stage 0 reads x and fills all of it
    for stage in picks.T:
        groups = [[] for _ in COMBINATION_POOL]
        for w, i in enumerate(stage.tolist()):
            groups[i].append(w)
        for (kind, params), rows in zip(COMBINATION_POOL, groups):
            if rows:
                out[rows] = _RECIPES[kind].apply(x[rows], params, rng)
        x = out
    return out


class _Recipe(NamedTuple):
    names: tuple  # of its parameters
    check: Callable  # of their values, each a finite real number
    apply: Callable  # (batch, params, rng) -> a new augmented batch


_RECIPES = {
    "GaussianNoise": _Recipe(("sigma",), lambda p: p["sigma"] > 0, _gaussian_noise),
    "ChannelScaling": _Recipe(("a", "b"), lambda p: 0 < p["a"] <= p["b"], _channel_scale),
    "Negation": _Recipe((), lambda p: True, _negate),
    "BaselineWander": _Recipe(
        ("f_w", "s_bw"), lambda p: p["f_w"] > 0 and p["s_bw"] >= 0, _baseline_wander
    ),
    "EmgNoise": _Recipe(("sigma",), lambda p: p["sigma"] > 0, _emg_noise),
    "Masking": _Recipe(
        ("a_pct", "b_pct"), lambda p: 0 <= p["a_pct"] <= p["b_pct"] <= 100, _mask
    ),
    "TimeWarping": _Recipe(("w", "r_pct"), _check_warp, _time_warp),
    "Combination": _Recipe((), lambda p: True, _combine),
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
        names, check, _ = _RECIPES[self.kind]
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
    (batch, n_leads, window_len) batch; the random numbers of the whole
    batch are drawn from `rng` at once."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError("expected a (n_leads, window_len) or (batch, n_leads, window_len) array")
    batch = x if x.ndim == 3 else x[None]
    out = _RECIPES[spec.kind].apply(batch, spec.params, rng)
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
