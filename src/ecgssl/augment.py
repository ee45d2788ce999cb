"""Eight augmentation recipes producing correlated views of ECG windows.

All functions take and return (n_leads, window_len) float arrays and are
deterministic given the input, the parameters, and the RngStream seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "AugmentationSpec",
    "gaussian_noise",
    "channel_scale",
    "negate",
    "baseline_wander",
    "emg_noise",
    "mask",
    "time_warp",
    "combine",
    "apply_augmentation",
    "COMBINATION_POOL",
]


@dataclass
class RngStream:
    """Seeded PCG64 stream; identical seed gives identical draws everywhere."""

    seed: int

    def __post_init__(self):
        self.generator = np.random.default_rng(self.seed)


def _arr(x):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a (n_leads, window_len) array")
    return a


def gaussian_noise(x, sigma: float, rng: RngStream):
    """Additive i.i.d. Normal(0, sigma^2) noise on every sample."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    x = _arr(x)
    return x + rng.generator.normal(0.0, sigma, size=x.shape)


def channel_scale(x, a: float, b: float, rng: RngStream):
    """Each lead multiplied by an independent factor drawn uniformly in [a, b]."""
    if not 0 < a <= b:
        raise ValueError("need 0 < a <= b")
    x = _arr(x)
    s = rng.generator.uniform(a, b, size=(x.shape[0], 1))
    return x * s


def negate(x):
    return -_arr(x)


def baseline_wander(x, f_w: float, s_bw: float, rng: RngStream):
    """Add a slow sinusoid with period f_w samples and random phase.

    f_w is interpreted as a period in samples (100 samples = 1 Hz drift at
    100 Hz); the same waveform is added to every lead.
    """
    if f_w <= 0:
        raise ValueError("f_w must be > 0")
    if s_bw < 0:
        raise ValueError("s_bw must be >= 0")
    x = _arr(x)
    phase = rng.generator.uniform(0.0, 2.0 * np.pi)
    t = np.arange(x.shape[1])
    wave = s_bw * np.sin(2.0 * np.pi * t / f_w + phase)
    return x + wave[None, :]


def emg_noise(x, sigma: float, rng: RngStream):
    """High-pass-filtered white noise simulating muscle-activity artifacts.

    The noise is brick-wall filtered above 0.3 x Nyquist in the frequency
    domain, then rescaled so its sample std is sigma again.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    x = _arr(x)
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


def mask(x, a_pct: float, b_pct: float, rng: RngStream):
    """Zero a contiguous c% run per lead, c drawn once per window from [a, b]."""
    if not 0 <= a_pct <= b_pct <= 100:
        raise ValueError("need 0 <= a_pct <= b_pct <= 100")
    x = _arr(x).copy()
    n = x.shape[1]
    c = rng.generator.uniform(a_pct, b_pct)
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


def time_warp(x, w: int, r_pct: float, rng: RngStream):
    """Stretch a random half of w segments by r% and squeeze the rest.

    Total length is preserved exactly. For w = 1 the single segment is split
    into two halves internally so that one can stretch and the other squeeze.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if r_pct <= 0:
        raise ValueError("r_pct must be > 0")
    x = _arr(x)
    n = x.shape[1]
    if n < 2 * w:
        raise ValueError("window too short for the requested segment count")

    n_seg = 2 if w == 1 else w
    bounds = np.linspace(0, n, n_seg + 1).round().astype(int)
    lengths = np.diff(bounds)
    n_stretch = 1 if w == 1 else int(np.ceil(w / 2))
    stretch_idx = set(rng.generator.choice(n_seg, size=n_stretch, replace=False).tolist())

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


def combine(x, rng: RngStream):
    """Apply four distinct augmentations drawn without replacement, in order."""
    x = _arr(x)
    picks = rng.generator.choice(len(COMBINATION_POOL), size=4, replace=False)
    for i in picks:
        kind, params = COMBINATION_POOL[i]
        x = _RECIPES[kind][1](x, params, rng)
    return x


# kind -> (check of its parameters, application); a check raises KeyError
# for a missing parameter
_RECIPES = {
    "GaussianNoise": (
        lambda p: p["sigma"] > 0,
        lambda x, p, rng: gaussian_noise(x, p["sigma"], rng),
    ),
    "ChannelScaling": (
        lambda p: 0 < p["a"] <= p["b"],
        lambda x, p, rng: channel_scale(x, p["a"], p["b"], rng),
    ),
    "Negation": (lambda p: True, lambda x, p, rng: negate(x)),
    "BaselineWander": (
        lambda p: p["s_bw"] >= 0 and p["f_w"] > 0,
        lambda x, p, rng: baseline_wander(x, p["f_w"], p["s_bw"], rng),
    ),
    "EmgNoise": (
        lambda p: p["sigma"] > 0,
        lambda x, p, rng: emg_noise(x, p["sigma"], rng),
    ),
    "Masking": (
        lambda p: 0 <= p["a_pct"] <= p["b_pct"] <= 100,
        lambda x, p, rng: mask(x, p["a_pct"], p["b_pct"], rng),
    ),
    "TimeWarping": (
        lambda p: p["w"] >= 1 and int(p["w"]) == p["w"] and p["r_pct"] > 0,
        lambda x, p, rng: time_warp(x, int(p["w"]), p["r_pct"], rng),
    ),
    "Combination": (lambda p: True, lambda x, p, rng: combine(x, rng)),
}


@dataclass(frozen=True)
class AugmentationSpec:
    """A tagged augmentation with its parameters; validates on construction."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _RECIPES:
            raise ValueError(f"unknown augmentation kind {self.kind!r}")
        try:
            ok = _RECIPES[self.kind][0](self.params)
        except KeyError as e:
            raise ValueError(f"missing parameter {e} for {self.kind}") from None
        if not ok:
            raise ValueError(f"invalid parameters for {self.kind}: {self.params}")


def apply_augmentation(x, spec: AugmentationSpec, rng: RngStream):
    return _RECIPES[spec.kind][1](_arr(x), spec.params, rng)

