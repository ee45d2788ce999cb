"""ECG ingestion, resampling, windowing, subject splits, and synthetic data.

Records hold multi-lead signals in millivolts with a sampling rate. All
operations are pure given their inputs and seed; nothing here keeps shared
mutable state (the resampling-kernel cache holds read-only arrays).
"""

from __future__ import annotations

import csv
import functools
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabelSet",
    "EcgRecord",
    "Window",
    "DatasetSplit",
    "SyntheticEcgConfig",
    "SYNTH_CLASSES",
    "resample",
    "window",
    "standardize_window",
    "split_windows",
    "split_by_subject",
    "generate_synthetic",
    "write_record_csv",
    "read_record_binary",
    "write_record_binary",
    "read_label_sidecar",
    "write_label_sidecar",
]


@dataclass(frozen=True)
class LabelSet:
    """Multi-label target: ordered class names with a binary indicator."""

    classes: tuple
    indicator: tuple

    def __post_init__(self):
        if len(self.classes) != len(self.indicator):
            raise ValueError("indicator length must equal classes length")
        if any(v not in (0, 1) for v in self.indicator):
            raise ValueError("indicator entries must be 0 or 1")

    @staticmethod
    def from_names(classes, active):
        classes = tuple(classes)
        active = set(active)
        return LabelSet(classes, tuple(int(c in active) for c in classes))

    def active_names(self):
        return [c for c, v in zip(self.classes, self.indicator) if v]


@dataclass
class EcgRecord:
    """Multi-lead sampled signal; leads has shape (n_leads, n_samples)."""

    subject_id: str
    leads: np.ndarray
    sampling_rate_hz: float
    labels: LabelSet

    def __post_init__(self):
        self.leads = np.asarray(self.leads, dtype=np.float64)
        if self.leads.ndim != 2 or self.leads.shape[0] < 1 or self.leads.shape[1] < 1:
            raise ValueError("leads must be a non-empty (n_leads, n_samples) matrix")
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")
        if not np.all(np.isfinite(self.leads)):
            raise ValueError("record contains non-finite samples")

    @property
    def n_leads(self):
        return self.leads.shape[0]

    @property
    def n_samples(self):
        return self.leads.shape[1]


@dataclass
class Window:
    """A fixed-length segment of one record, carrying its provenance."""

    data: np.ndarray
    source_subject: str
    labels: LabelSet

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("window data must be (n_leads, window_len)")


@dataclass
class DatasetSplit:
    train: list
    validation: list
    test: list


SYNTH_CLASSES = ("normal", "fast_rate", "slow_rate", "irregular_interval")


@dataclass
class SyntheticEcgConfig:
    n_subjects: int
    beats_per_record: int = 12
    class_id: str = "normal"
    noise_sigma: float = 0.05
    sampling_rate_hz: float = 100.0
    seed: int = 0
    n_leads: int = 1
    # amplitudes of the three per-beat bumps; a knob for making generator
    # variants that are deliberately out-of-distribution w.r.t. each other
    bump_amplitudes: tuple[float, float, float] = (0.15, 1.0, 0.3)

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.class_id not in SYNTH_CLASSES:
            raise ValueError(f"unknown class_id {self.class_id!r}")
        if self.beats_per_record < 1:
            raise ValueError("beats_per_record must be >= 1")
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be > 0")
        if self.n_leads < 1:
            raise ValueError("n_leads must be >= 1")


# ---------------------------------------------------------------------------
# resampling

_SINC_LOBES = 32  # zero crossings per side of the interpolation kernel
_KAISER_BETA = 6.0


def _kaiser(tau, half_width):
    u = tau / half_width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.i0(_KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2)) / np.i0(
        _KAISER_BETA
    )
    return out


@functools.lru_cache(maxsize=8)
def _resample_kernel(fs_in: float, target_hz: float, n_in: int):
    """Tap indices and weights, both (n_out, 2*half), of `resample`.

    They depend only on the two rates and the length, so a cohort of
    equal-length records builds them once. Cached, hence read-only.
    """
    n_out = int(round(n_in * target_hz / fs_in))
    # cutoff as a fraction of the input rate
    c = min(1.0, target_hz / fs_in)
    half = int(np.ceil(_SINC_LOBES / c))

    centers = np.arange(n_out) * fs_in / target_hz  # in input-sample units
    base = np.floor(centers).astype(int) - half + 1
    taps = np.arange(2 * half)
    idx = base[:, None] + taps[None, :]  # (n_out, 2*half)
    tau = idx - centers[:, None]
    kernel = c * np.sinc(c * tau) * _kaiser(tau, half)
    valid = (idx >= 0) & (idx < n_in)
    kernel = kernel * valid
    idx = np.clip(idx, 0, n_in - 1)
    idx.flags.writeable = False
    kernel.flags.writeable = False
    return idx, kernel


def resample(record: EcgRecord, target_hz: float) -> EcgRecord:
    """Band-limited resampling via a Kaiser-windowed sinc kernel.

    The kernel cutoff is the lower Nyquist of the two rates, so downsampling
    applies the anti-alias low-pass and upsampling reconstructs the
    band-limited signal at the new instants.
    """
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == record.sampling_rate_hz:
        return EcgRecord(
            record.subject_id,
            record.leads.copy(),
            record.sampling_rate_hz,
            record.labels,
        )

    idx, kernel = _resample_kernel(
        record.sampling_rate_hz, target_hz, record.n_samples
    )
    out = np.einsum("cmt,mt->cm", record.leads[:, idx], kernel)
    return EcgRecord(record.subject_id, out, float(target_hz), record.labels)


# ---------------------------------------------------------------------------
# windowing and splitting


def window(record: EcgRecord, window_len: int) -> list:
    """Cut a record into back-to-back fixed-length windows; the trailing
    remainder is dropped."""
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    out = []
    start = 0
    while start + window_len <= record.n_samples:
        out.append(
            Window(
                record.leads[:, start : start + window_len].copy(),
                record.subject_id,
                record.labels,
            )
        )
        start += window_len
    return out


def split_by_subject(records, fractions, seed: int) -> DatasetSplit:
    """Subject-disjoint train/val/test partition, deterministic per seed."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if len(fractions) != 3:
        raise ValueError("expected (train, val, test) fractions")
    subjects = sorted({r.subject_id for r in records})
    if len(subjects) < 3:
        raise ValueError("need at least as many subjects as partitions")
    rng = np.random.default_rng(seed)
    order = [subjects[i] for i in rng.permutation(len(subjects))]

    n = len(subjects)
    raw = [f * n for f in fractions]
    counts = [int(np.floor(x)) for x in raw]
    # hand out the remainder to the largest fractional parts
    rem = n - sum(counts)
    for i in sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)[:rem]:
        counts[i] += 1

    cut1, cut2 = counts[0], counts[0] + counts[1]
    part_of = {}
    for s in order[:cut1]:
        part_of[s] = 0
    for s in order[cut1:cut2]:
        part_of[s] = 1
    for s in order[cut2:]:
        part_of[s] = 2

    parts = ([], [], [])
    for r in records:
        parts[part_of[r.subject_id]].append(r)
    return DatasetSplit(*parts)


def standardize_window(w: Window) -> Window:
    """Per-lead z-score of one window (constant leads map to zero)."""
    mu = w.data.mean(axis=1, keepdims=True)
    sd = w.data.std(axis=1, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    return Window((w.data - mu) / sd, w.source_subject, w.labels)


def split_windows(
    split: DatasetSplit, window_len: int, standardize: bool = False
) -> DatasetSplit:
    """Window every record of an already-split dataset (split first, then window)."""

    def expand(records):
        out = [w for r in records for w in window(r, window_len)]
        return [standardize_window(w) for w in out] if standardize else out

    return DatasetSplit(expand(split.train), expand(split.validation), expand(split.test))


# ---------------------------------------------------------------------------
# synthetic generation

_NORMAL_RR_S = 0.8
_RR_FACTOR = {
    "normal": 1.0,
    "fast_rate": 0.6,
    "slow_rate": 1.5,
    "irregular_interval": 1.0,
}
# (offset_s, width_s) of the P, R, and T bumps relative to beat onset
_BUMPS = ((0.12, 0.03), (0.24, 0.02), (0.44, 0.06))


def generate_synthetic(config: SyntheticEcgConfig) -> list:
    """Sum-of-Gaussian-bump ECG stand-ins with class-dependent beat timing.

    Every class produces records of the same duration (beats_per_record
    normal-rate beats), so the beat count itself varies with the class.
    """
    rng = np.random.default_rng(config.seed)
    fs = config.sampling_rate_hz
    duration_s = config.beats_per_record * _NORMAL_RR_S
    n_samples = int(round(duration_s * fs))
    t = np.arange(n_samples) / fs

    records = []
    for s in range(config.n_subjects):
        mean_rr = _NORMAL_RR_S * _RR_FACTOR[config.class_id]
        # per-subject physiological variation, fixed across the record
        mean_rr *= 1.0 + 0.05 * rng.standard_normal()
        onsets = []
        pos = 0.0
        while pos < duration_s:
            onsets.append(pos)
            rr = mean_rr
            if config.class_id == "irregular_interval":
                rr = max(0.2, rr * (1.0 + 0.3 * rng.standard_normal()))
            pos += rr

        signal = np.zeros(n_samples)
        for onset in onsets:
            for (off, width), amp in zip(_BUMPS, config.bump_amplitudes):
                signal += amp * np.exp(-0.5 * ((t - onset - off) / width) ** 2)

        lead_gain = 1.0 + 0.1 * rng.standard_normal(config.n_leads)
        leads = lead_gain[:, None] * signal[None, :]
        if config.noise_sigma > 0:
            leads = leads + rng.normal(0.0, config.noise_sigma, size=leads.shape)

        records.append(
            EcgRecord(
                subject_id=f"synth-{config.class_id}-{config.seed}-{s}",
                leads=leads,
                sampling_rate_hz=fs,
                labels=LabelSet.from_names(SYNTH_CLASSES, [config.class_id]),
            )
        )
    return records


# ---------------------------------------------------------------------------
# ingestion formats

_ESIG_MAGIC = b"ESIG"
_ESIG_VERSION = 1


def write_record_csv(path, record: EcgRecord):
    """One row per sample, one column per lead, header with lead names."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"lead_{i}" for i in range(record.n_leads)])
        for row in record.leads.T:
            w.writerow([f"{v:.17g}" for v in row])


def write_record_binary(path, record: EcgRecord):
    """Little-endian: "ESIG", u32 version, u32 n_leads, u64 n_samples,
    f64 sampling_rate_hz, then f32 samples lead-major."""
    with open(path, "wb") as f:
        f.write(_ESIG_MAGIC)
        f.write(struct.pack("<IIQd", _ESIG_VERSION, record.n_leads, record.n_samples, record.sampling_rate_hz))
        f.write(np.ascontiguousarray(record.leads, dtype=np.float32).tobytes())


def read_record_binary(path, subject_id=None, labels=None) -> EcgRecord:
    """Raises ValueError for a file that is not a whole ESIG record."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _ESIG_MAGIC:
        raise ValueError("not an ESIG file (bad magic)")
    header = struct.calcsize("<IIQd")
    if len(blob) < 4 + header:
        raise ValueError(f"truncated ESIG header: {len(blob)} bytes")
    version, n_leads, n_samples, rate = struct.unpack_from("<IIQd", blob, 4)
    if version != _ESIG_VERSION:
        raise ValueError(f"unsupported ESIG version {version}")
    size = len(blob) - 4 - header
    if size != 4 * n_leads * n_samples:
        raise ValueError(
            f"ESIG data is {size} bytes; the header says {n_leads} x {n_samples} f32 samples"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=4 + header)
    leads = data.astype(np.float64).reshape(n_leads, n_samples)
    if subject_id is None:
        subject_id = str(path)
    if labels is None:
        labels = LabelSet((), ())
    return EcgRecord(subject_id, leads, rate, labels)


def write_label_sidecar(path, mapping):
    """record id -> semicolon-separated class names."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["record_id", "classes"])
        for rid, names in mapping.items():
            w.writerow([rid, ";".join(names)])


def read_label_sidecar(path):
    """record id -> class names, from a `write_label_sidecar` file; raises
    ValueError naming the line that is not a header or a (record_id,
    classes) row."""
    out = {}
    with open(path, newline="") as f:
        r = csv.reader(f)
        if next(r, None) is None:
            raise ValueError("line 1: no record_id,classes header")
        for row in r:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"line {r.line_num}: expected record_id,classes, got {row!r}")
            rid, names = row[0], row[1]
            out[rid] = [n for n in names.split(";") if n]
    return out
