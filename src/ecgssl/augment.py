"""Eight augmentation recipes producing correlated views of ECG windows.

Each recipe is declared once, in `_RECIPES`: its parameter names, the check
of their values, and its application. An `AugmentationSpec` runs the check
when it is built, so applications take their parameters as given. All take
and return (n_leads, window_len) float arrays and are deterministic given
the input, the parameters, and the RngStream seed.
"""

from __future__ import annotations

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


# Each application below takes a float64 (n_leads, window_len) array `x`, the
# parameters of a checked spec and the stream; it returns a new array.


def _gaussian_noise(x, p, rng):
    """Additive i.i.d. Normal(0, sigma^2) noise on every sample."""
    return x + rng.generator.normal(0.0, p["sigma"], size=x.shape)


def _channel_scale(x, p, rng):
    """Each lead multiplied by an independent factor drawn uniformly in [a, b]."""
    return x * rng.generator.uniform(p["a"], p["b"], size=(x.shape[0], 1))


def _negate(x, p, rng):
    return -x


def _baseline_wander(x, p, rng):
    """Add a slow sinusoid with period f_w samples and random phase.

    f_w is interpreted as a period in samples (100 samples = 1 Hz drift at
    100 Hz); the same waveform is added to every lead.
    """
    phase = rng.generator.uniform(0.0, 2.0 * np.pi)
    t = np.arange(x.shape[1])
    wave = p["s_bw"] * np.sin(2.0 * np.pi * t / p["f_w"] + phase)
    return x + wave[None, :]


def _emg_noise(x, p, rng):
    """High-pass-filtered white noise simulating muscle-activity artifacts.

    The noise is brick-wall filtered above 0.3 x Nyquist in the frequency
    domain, then rescaled so its sample std is sigma again.
    """
    sigma = p["sigma"]
    n = x.shape[1]
    noise = rng.generator.normal(0.0, sigma, size=x.shape)
    spec = np.fft.rfft(noise, axis=1)
    freqs = np.fft.rfftfreq(n)  # cycles per sample; Nyquist = 0.5
    spec[:, freqs < 0.15] = 0.0
    filtered = np.fft.irfft(spec, n=n, axis=1)
    std = filtered.std()
    if std > 0:
        filtered *= sigma / std
    return x + filtered


def _mask(x, p, rng):
    """Zero a contiguous c% run per lead, c drawn once per window from [a, b]."""
    x = x.copy()
    n = x.shape[1]
    c = rng.generator.uniform(p["a_pct"], p["b_pct"])
    run = int(round(c / 100.0 * n))
    if run == 0:
        return x
    for lead in range(x.shape[0]):
        start = int(rng.generator.integers(0, n - run + 1))
        x[lead, start : start + run] = 0.0
    return x


def _resample_segment(seg, new_len):
    if new_len == len(seg):
        return seg.copy()
    old = np.arange(len(seg))
    new = np.linspace(0.0, len(seg) - 1.0, new_len)
    return np.interp(new, old, seg)


def _time_warp(x, p, rng):
    """Stretch a random half of w segments by r% and squeeze the rest.

    Total length is preserved exactly. For w = 1 the single segment is split
    into two halves internally so that one can stretch and the other squeeze.
    """
    w = int(p["w"])
    n = x.shape[1]
    if n < 2 * w:
        raise ValueError("window too short for the requested segment count")

    n_seg = 2 if w == 1 else w
    bounds = np.linspace(0, n, n_seg + 1).round().astype(int)
    lengths = np.diff(bounds)
    n_stretch = 1 if w == 1 else int(np.ceil(w / 2))
    stretch_idx = set(rng.generator.choice(n_seg, size=n_stretch, replace=False).tolist())

    factor = 1.0 + p["r_pct"] / 100.0
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

    out = np.empty_like(x)
    for lead in range(x.shape[0]):
        parts = [
            _resample_segment(x[lead, bounds[i] : bounds[i + 1]], rounded[i])
            for i in range(n_seg)
        ]
        out[lead] = np.concatenate(parts)
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
    """Apply four distinct augmentations drawn without replacement, in order."""
    picks = rng.generator.choice(len(COMBINATION_POOL), size=4, replace=False)
    for i in picks:
        kind, params = COMBINATION_POOL[i]
        x = _RECIPES[kind].apply(x, params, rng)
    return x


class _Recipe(NamedTuple):
    names: tuple  # of its parameters
    check: Callable  # of their values, each a finite real number
    apply: Callable


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
    "TimeWarping": _Recipe(
        ("w", "r_pct"),
        lambda p: p["w"] >= 1 and int(p["w"]) == p["w"] and p["r_pct"] > 0,
        _time_warp,
    ),
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
    """The augmented copy of one (n_leads, window_len) window."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a (n_leads, window_len) array")
    return _RECIPES[spec.kind].apply(x, spec.params, rng)


def negate(x):
    """The Negation recipe: every sample's sign flipped."""
    return apply_augmentation(x, AugmentationSpec("Negation"), None)


def mask(x, a_pct: float, b_pct: float, rng: RngStream):
    """The Masking recipe with the given range, in percent of the window."""
    return apply_augmentation(x, AugmentationSpec("Masking", {"a_pct": a_pct, "b_pct": b_pct}), rng)


def time_warp(x, w: int, r_pct: float, rng: RngStream):
    """The TimeWarping recipe with w segments and an r% stretch."""
    return apply_augmentation(x, AugmentationSpec("TimeWarping", {"w": w, "r_pct": r_pct}), rng)
