"""Command-line entry point for reproducible desk-scale experiments.

Subcommands: synth-gen, augment-preview, pretrain, finetune, lineval,
distshift, report. Structured settings live in a JSON config file; flags
carry only paths, the seed, and the command. Every output directory gets a
manifest.json with the seed, a hash of the config that produced it, and the
run's status: "running" from before the command starts, then "ok" or
"failed" when it ends. A run killed by SIGKILL leaves "running".

The config's schema is the dataclasses: `_Config` for the top level, and
`PretrainConfig`, `FinetuneConfig`, `EncoderConfig`, `AugmentationSpec` and
`_Cohort` plus `SyntheticEcgConfig` for the nested objects. `_read` builds
each of them from JSON and turns every bad key or value into a config error.

pretrain writes its run spec (method, dataset, preprocessing, encoder) into
the checkpoint. lineval, finetune and distshift read windows and build the
encoder from that spec, so a checkpoint is always consumed as it was trained.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime/numeric error,
75 busy (another live run holds the output directory), 130 interrupted
(Ctrl-C), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import difflib
import fcntl
import functools
import hashlib
import json
import math
import os
import signal
import sys
import threading
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import augment, distshift, metrics, signal_core, train_harness
from .augment import AugmentationSpec
from .diffcore import EncoderConfig, atomic_open, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4
EXIT_BUSY = 75  # EX_TEMPFAIL of sysexits.h: nothing is wrong with the run; retry once the other ends
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_TERMINATED = 143  # 128 + SIGTERM


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class _Terminated(KeyboardInterrupt):
    """SIGTERM, which ends a run the way Ctrl-C does."""


# ---------------------------------------------------------------------------
# the config schema and its reader


@dataclass
class _Config:
    """Every top-level config key; each command reads the ones it uses."""

    seed: int = 0
    # synth-gen: cohort name -> _Cohort and SyntheticEcgConfig fields
    datasets: dict = field(default_factory=dict)
    # augment-preview
    record: str = ""
    # pretrain, and the run spec that lineval, finetune and distshift inherit
    dataset: str = ""
    method: str = train_harness.PretrainConfig.method
    augmentation: AugmentationSpec = field(
        default_factory=lambda: train_harness.PretrainConfig().augmentation
    )
    target_hz: float = 100.0
    window_len: int = 250
    standardize_windows: bool = False
    # (train, validation, test) shares of the subjects
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    encoder: dict = field(default_factory=dict)
    pretrain: dict = field(default_factory=dict)
    # lineval, finetune, distshift
    checkpoint: str = ""
    finetune: dict = field(default_factory=dict)
    dataset_ref: str = ""
    dataset_other: str = ""
    resolution: int = distshift.DEFAULT_RESOLUTION
    # report; the output directory when empty
    scan_dir: str = ""
    # the config as read, for its hash and for which keys it sets
    raw: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # resampling time and memory grow with the output rate
        if not 0 < self.target_hz <= signal_core.MAX_RATE_HZ:
            raise ValueError(f"target_hz must be > 0 and <= {signal_core.MAX_RATE_HZ}")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if min(self.fractions) < 0 or abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must be >= 0 and sum to 1, got {list(self.fractions)}")
        if self.resolution < 16:
            raise ValueError("resolution must be >= 16")


@dataclass
class _Cohort:
    """The synth-gen cohort keys that are not SyntheticEcgConfig fields."""

    classes: tuple[str, ...] = signal_core.SYNTH_CLASSES
    n_subjects_per_class: int = 5

    def __post_init__(self):
        if not self.classes:
            raise ValueError("classes must name at least one class")
        if self.n_subjects_per_class < 1:
            raise ValueError("n_subjects_per_class must be >= 1")


# resolved field annotations of a dataclass
_hints = functools.cache(get_type_hints)

# JSON type of each scalar annotation, and the types json.load gives for it
_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    bool: ("true or false", (bool,)),
    str: ("a string", (str,)),
    dict: ("an object", (dict,)),
}


def _value(value, hint, name: str):
    """`value` checked against the field annotation `hint` and stored as the
    field holds it: lists as tuples, integers as floats where floats are due."""
    if is_dataclass(hint):
        return _read(hint, value, name)
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if type(value) is not list:
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if items[-1] is ...:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigError(f"{name} must have {len(items)} items, got {value!r}")
        return tuple(_value(v, t, f"{name}[{i}]") for i, (v, t) in enumerate(zip(value, items)))
    kind, types = _TYPES[hint]
    if type(value) not in types:
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if hint is not float:
        return value
    # json.load reads NaN, Infinity and -Infinity, and numbers beyond a float
    # as inf
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of range, got {value!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _read(cls, obj, where: str, skip=(), **fixed):
    """The `cls` that the JSON object `obj` (named `where`, "" at the top)
    describes. Keys in `skip` are another reader's; `fixed` fields are the
    caller's to set."""
    at = where or "config"
    if type(obj) is not dict:
        raise ConfigError(f"{at} must be an object, got {obj!r}")
    settable = [f.name for f in fields(cls) if f.init and f.name not in fixed]
    kwargs = dict(fixed)
    for key, value in obj.items():
        name = f"{where}.{key}" if where else key
        if key in fixed:
            raise ConfigError(f"{name} cannot be set here; the command sets it")
        if key in skip:
            continue
        if key not in settable:
            near = difflib.get_close_matches(key, [*settable, *skip], n=1)
            raise ConfigError(
                f"unknown key {key!r} in {at}" + (f"; did you mean {near[0]!r}?" if near else "")
            )
        kwargs[key] = _value(value, _hints(cls)[key], name)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{at}: {e}") from None


def _need(c: _Config, keys):
    missing = [k for k in keys if not getattr(c, k)]
    if missing:
        raise ConfigError("config needs " + ", ".join(map(repr, missing)))


def _load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as e:  # bad JSON, bad UTF-8, an integer too long to parse
        raise ConfigError(f"malformed config JSON: {e}") from None


def _config_hash(config) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _write_manifest(out_dir: Path, command: str, config, seed, code: int | None, error):
    """The run's record; `code` None marks a run that has not ended."""
    manifest = dict(command=command, seed=seed, config_hash=_config_hash(config), config=config)
    if code is None:  # also what a killed run leaves
        manifest.update(status="running")
    elif code == EXIT_OK:
        manifest.update(status="ok")
    else:
        manifest.update(status="failed", exit_code=code, error=error)
    with atomic_open(out_dir / "manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# dataset directories: records/*.esig plus labels.csv sidecar


def _read_file(reader, path, **kwargs):
    """`reader(path)`, with a file it cannot parse as a data error."""
    try:
        return reader(path, **kwargs)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None


def _save_dataset(out_dir: Path, records):
    rec_dir = out_dir / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    labels = {}
    for r in records:
        signal_core.write_record_binary(rec_dir / f"{r.subject_id}.esig", r)
        labels[r.subject_id] = r.labels.active_names()
    signal_core.write_label_sidecar(out_dir / "labels.csv", labels)


def _load_dataset(path) -> list:
    path = Path(path)
    rec_dir = path / "records"
    if not rec_dir.is_dir():
        raise DataError(f"no records/ directory under {path}")
    label_map = {}
    if (path / "labels.csv").exists():
        label_map = _read_file(signal_core.read_label_sidecar, path / "labels.csv")
    classes = tuple(sorted({c for names in label_map.values() for c in names}))
    records = []
    for f in sorted(rec_dir.glob("*.esig")):
        rid = f.stem
        labels = signal_core.LabelSet.from_names(classes, label_map.get(rid, []))
        records.append(
            _read_file(signal_core.read_record_binary, f, subject_id=rid, labels=labels)
        )
    if not records:
        raise DataError(f"no .esig records found under {rec_dir}")
    return records


def _load_windows(dataset_path, spec: dict, fractions=None, seed: int = 0, least=1, use="training"):
    """Windows of a dataset, preprocessed as the run spec says.

    Records are resampled to the spec's rate, cut into windows of its length
    and standardized if it says so. With `fractions` they are first split by
    subject (seeded); without, every window lands in `train`, in sorted-file
    order. Fewer than `least` windows in `train` are a data error that names
    their `use`.
    """
    records = _load_dataset(dataset_path)
    leads = sorted({r.n_leads for r in records})
    if "encoder" in spec:
        other = [n for n in leads if n != spec["encoder"]["n_leads"]]
        if other:
            raise DataError(
                f"{dataset_path} has {other[0]}-lead records; "
                f"the checkpoint's encoder takes {spec['encoder']['n_leads']} leads"
            )
    elif len(leads) > 1:
        raise DataError(f"{dataset_path} mixes records of {leads[0]} and {leads[1]} leads")
    target_hz = spec["target_hz"]

    def at_target(r):
        try:
            return signal_core.resample(r, target_hz)
        except ValueError as e:  # a record too short, or its rate too low
            raise DataError(f"{Path(dataset_path) / 'records' / r.subject_id}.esig: {e}") from None

    records = [at_target(r) for r in records]
    if fractions is None:
        split = signal_core.DatasetSplit(records, [], [])
    else:
        try:
            split = signal_core.split_by_subject(records, fractions, seed)
        except signal_core.NotEnoughData as e:
            raise DataError(f"{dataset_path} has {e}") from None
    split = signal_core.split_windows(
        split, spec["window_len"], standardize=spec["standardize_windows"]
    )
    if len(split.train) < least:
        raise DataError(
            f"{dataset_path} gives {len(split.train)} {spec['window_len']}-sample windows "
            f"at {target_hz} Hz for {use}, which needs at least {least}"
        )
    return split


# run-spec keys that lineval, finetune and distshift take from the checkpoint
_INHERITED = ("method", "target_hz", "window_len", "standardize_windows", "encoder")
# the run-spec keys that are top-level `_Config` fields
_SPEC_FIELDS = ("dataset", *(k for k in _INHERITED if k != "encoder"))


def _load_run(c: _Config):
    """(params, run spec, encoder config) of the config's checkpoint.

    A consumer config may repeat an inherited key only with the spec's value.
    """
    if not Path(c.checkpoint).exists():
        raise DataError(f"checkpoint not found: {c.checkpoint}")
    params, spec = _read_file(load_checkpoint, c.checkpoint)
    if type(spec) is not dict or not {"dataset", *_INHERITED} <= spec.keys():
        raise DataError(
            f"checkpoint {c.checkpoint} carries no run spec; re-create it with 'ecgssl pretrain'"
        )
    try:
        # types and ranges as a config's: a string "250" or "no" is refused
        _read(_Config, {k: spec[k] for k in _SPEC_FIELDS}, "spec")
        encoder = _read(EncoderConfig, spec["encoder"], "encoder")
    except ConfigError as e:
        raise DataError(f"checkpoint {c.checkpoint}: {e}") from None
    for key in _INHERITED:
        if key not in c.raw:
            continue
        if key == "encoder":
            same = _read(EncoderConfig, {"n_leads": encoder.n_leads, **c.encoder}, key) == encoder
        else:
            same = getattr(c, key) == spec[key]
        if not same:
            raise ConfigError(
                f"{key!r} is {c.raw[key]!r} but the checkpoint was pre-trained "
                f"with {spec[key]!r}; leave it out to inherit it"
            )
    return params, spec, encoder


# ---------------------------------------------------------------------------
# commands


def cmd_synth_gen(c: _Config, out_dir: Path, seed: int):
    own = [f.name for f in fields(_Cohort)]
    generator = [f.name for f in fields(signal_core.SyntheticEcgConfig)]
    for i, (name, spec) in enumerate(sorted(c.datasets.items())):
        where = f"datasets.{name}"
        cohort = _read(_Cohort, spec, where, skip=generator)
        records = []
        for j, class_id in enumerate(cohort.classes):
            gen_cfg = _read(
                signal_core.SyntheticEcgConfig, spec, where, skip=own,
                n_subjects=cohort.n_subjects_per_class,
                class_id=class_id,
                seed=seed + 1000 * i + j,
            )
            records.extend(signal_core.generate_synthetic(gen_cfg))
        _save_dataset(out_dir / name, records)


def _augment(x, spec: AugmentationSpec, rng, fits: str):
    """`apply_augmentation`; a spec that cannot apply to `x` is a config
    error that names `fits`, what gives x its length."""
    try:
        return augment.apply_augmentation(x, spec, rng)
    except ValueError as e:
        raise ConfigError(f"augmentation: {spec.kind} does not fit {fits}: {e}") from None


def cmd_augment_preview(c: _Config, out_dir: Path, seed: int):
    if not Path(c.record).exists():
        raise DataError(f"record file not found: {c.record}")
    record = _read_file(signal_core.read_record_binary, c.record)
    fits = f"the record's {record.leads.shape[1]} samples"
    leads = _augment(record.leads, c.augmentation, augment.RngStream(seed), fits)
    signal_core.write_record_csv(out_dir / "augmented.csv", replace(record, leads=leads))


def cmd_pretrain(c: _Config, out_dir: Path, seed: int):
    pc = _read(
        train_harness.PretrainConfig, c.pretrain, "pretrain",
        method=c.method, augmentation=c.augmentation, seed=seed,
    )
    # an augmentation that cannot apply to windows this long fails before the
    # data load; a Combination is checked on every recipe its draws may pick
    window, fits = np.zeros((1, 1, c.window_len)), f"window_len {c.window_len}"
    recipes = [c.augmentation]
    if c.augmentation.kind == "Combination":
        recipes = [AugmentationSpec(*recipe) for recipe in augment.COMBINATION_POOL]
        fits += " in Combination"
    for recipe in recipes:
        _augment(window, recipe, augment.RngStream(0), fits)
    spec = {k: getattr(c, k) for k in _SPEC_FIELDS}
    split = _load_windows(c.dataset, spec, c.fractions, seed)
    leads = split.train[0].data.shape[0]
    encoder = _read(EncoderConfig, {"n_leads": leads, **c.encoder}, "encoder")
    spec["encoder"] = asdict(encoder)
    try:
        params, log = train_harness.pretrain(pc, split, encoder)
    except signal_core.NotEnoughData as e:  # raised before any training
        raise DataError(f"{c.dataset}: {e}") from None
    save_checkpoint(out_dir / "checkpoint.ckpt", params, spec)
    log.to_csv(out_dir / "pretrain_log.csv")


def cmd_finetune(c: _Config, out_dir: Path, seed: int, **fixed):
    fc = _read(train_harness.FinetuneConfig, c.finetune, "finetune", seed=seed, **fixed)
    pretrained, spec, encoder = _load_run(c)
    split = _load_windows(c.dataset, spec, c.fractions, seed)
    if not split.train[0].labels.classes:
        labels = Path(c.dataset) / "labels.csv"
        why = f"{labels} names no class" if labels.exists() else f"no labels.csv under {c.dataset}"
        raise DataError(f"{why}; the classifier needs class labels")
    for part, use in (("test", "testing"), ("validation", "model selection")):
        if not getattr(split, part):
            subjects = {w.source_subject for w in split.train + split.validation + split.test}
            raise DataError(
                f"{c.dataset} gives no {part} windows: fractions {list(c.fractions)} "
                f"leave none of its {len(subjects)} subjects for {use}"
            )
    model, log = train_harness.finetune(pretrained, fc, split, encoder)
    pred = train_harness.predict_scores(model, encoder, split.test)
    _emit_metrics(out_dir, c, spec, seed, pred)
    save_checkpoint(out_dir / "finetuned.ckpt", model, spec)
    log.to_csv(out_dir / "finetune_log.csv")


def _emit_metrics(out_dir: Path, c: _Config, spec, seed, pred):
    per_class = metrics.per_class_f1(pred)
    auc_vec, auc_macro, skipped = metrics.auc(pred)
    summary = {
        "seed": seed,
        "config_hash": _config_hash(c.raw),
        "method": spec["method"],
        "pretrain_dataset": spec["dataset"],
        "test_dataset": c.dataset,
        "metrics": {
            "macro_f1": metrics.macro_f1(pred),
            "micro_f1": metrics.micro_f1(pred),
            "macro_auc": None if np.isnan(auc_macro) else auc_macro,
        },
        "per_class_f1": dict(zip(pred.class_names, per_class.tolist())),
        "auc_skipped_classes": skipped,
    }
    with atomic_open(out_dir / "metrics.json") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    with atomic_open(out_dir / "metrics.csv", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class", "metric", "value"])
        w.writerow(["__all__", "macro_f1", repr(summary["metrics"]["macro_f1"])])
        w.writerow(["__all__", "micro_f1", repr(summary["metrics"]["micro_f1"])])
        for name, v in zip(pred.class_names, per_class):
            w.writerow([name, "f1", repr(float(v))])
        for name, v in zip(pred.class_names, auc_vec):
            if not np.isnan(v):
                w.writerow([name, "auc", repr(float(v))])


def cmd_distshift(c: _Config, out_dir: Path, seed: int):
    params, spec, encoder = _load_run(c)
    report = distshift.analyze_pair(
        params,
        encoder,
        # the PCA is fitted on the reference set; each set gets a KDE
        _load_windows(c.dataset_ref, spec, least=3, use="the PCA of dataset_ref").train,
        _load_windows(c.dataset_other, spec, least=2, use="the KDE of dataset_other").train,
        resolution=c.resolution,
        ref_tag=c.dataset_ref,
        other_tag=c.dataset_other,
    )
    with atomic_open(out_dir / "overlap.json") as f:
        f.write(report.to_json())
    for grid, name in zip(report.grids, ("density_ref.csv", "density_other.csv")):
        with atomic_open(out_dir / name) as f:
            np.savetxt(f, grid.density, delimiter=",")


def _read_metrics(path) -> dict:
    """A metrics.json as `_emit_metrics` writes it; ValueError if it is not."""
    m = json.loads(Path(path).read_bytes())
    if type(m) is not dict or type(m.get("metrics")) is not dict:
        raise ValueError("no 'metrics' object")
    if type(m.get("per_class_f1", {})) is not dict:
        raise ValueError("'per_class_f1' is not an object")
    return m


def cmd_report(c: _Config, out_dir: Path, seed: int):
    scan_dir = Path(c.scan_dir or out_dir)
    found = sorted(scan_dir.rglob("metrics.json"))
    if not found:
        raise DataError(f"no metrics.json files under {scan_dir}")
    rows = []
    per_class_rows = []
    for f in found:
        m = _read_file(_read_metrics, f)
        run = [m.get("method", ""), m.get("pretrain_dataset", ""), m.get("test_dataset", "")]
        for metric, value in sorted(m["metrics"].items()):
            if value is not None:
                rows.append([*run, metric, repr(value)])
        for cls, v in sorted(m.get("per_class_f1", {}).items()):
            per_class_rows.append([*run, cls, repr(v)])
    with atomic_open(out_dir / "report.csv", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "pretrain_set", "test_set", "metric", "value"])
        w.writerows(rows)
    with atomic_open(out_dir / "report_per_class.csv", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "pretrain_set", "test_set", "class", "f1"])
        w.writerows(per_class_rows)


# command -> (function, the top-level keys it needs)
_COMMANDS = {
    "synth-gen": (cmd_synth_gen, ("datasets",)),
    "augment-preview": (cmd_augment_preview, ("record",)),
    "pretrain": (cmd_pretrain, ("dataset",)),
    "finetune": (cmd_finetune, ("dataset", "checkpoint")),
    "lineval": (functools.partial(cmd_finetune, freeze_encoder=True), ("dataset", "checkpoint")),
    "distshift": (cmd_distshift, ("checkpoint", "dataset_ref", "dataset_other")),
    "report": (cmd_report, ()),
}


def _lock(out_dir: Path, held: contextlib.ExitStack):
    """Take an exclusive flock on `out_dir/.lock`, then write "<pid> <host>"
    into it; `held` unlinks the file, then closes it. A file that no process
    holds is taken over, whatever it reads. Returns None once this run holds
    the lock, else the holder's text."""
    path = out_dir / ".lock"
    while True:
        with contextlib.ExitStack() as opened:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            opened.callback(os.close, fd)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return os.read(fd, 4096).decode(errors="replace")
            except OSError as e:
                raise OSError(f"cannot lock {path}: {e.strerror}") from None
            # a holder unlinks the file before it lets go: a file no longer at
            # `path` is one that no other run will see held, so open again
            try:
                current = os.stat(path)
            except FileNotFoundError:
                continue
            if os.path.samestat(os.fstat(fd), current):
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()} {os.uname().nodename}".encode())
                opened.callback(path.unlink, missing_ok=True)
                held.enter_context(opened.pop_all())
                return None


def _remove_leftover_tmp(dirs):
    """Remove the `<name>.<pid>.tmp` files of `atomic_open` that a killed run
    left in `dirs`, not below them; only a run that holds the lock calls it."""
    for d in dirs:
        for name in os.listdir(d) if d.is_dir() else ():
            stem, _, pid = name.removesuffix(".tmp").rpartition(".")
            if name.endswith(".tmp") and stem and pid.isascii() and pid.isdecimal():
                if (d / name).is_file():
                    (d / name).unlink(missing_ok=True)


@contextlib.contextmanager
def _command_scope():
    """SIGTERM ends the run like Ctrl-C, and each warning prints as one line."""
    def terminate(signum, frame):
        raise _Terminated

    # numpy loads numpy.random on first use, under a bare `except` that would
    # swallow the _Terminated (or Ctrl-C) raised there; load it before the
    # handler is set. Not at module level: ecgbench imports this module
    # before its set-up.
    import numpy.random  # noqa: F401

    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        main_thread = threading.current_thread() is threading.main_thread()  # only it sets handlers
        previous = signal.signal(signal.SIGTERM, terminate) if main_thread else None
        try:
            yield
        finally:
            if previous is not None:  # also None for a handler not set from Python
                signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecgssl", description="Desk-scale SSL experiments on ECG signals."
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="experiment seed")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    command, needs = _COMMANDS[args.command]
    config, seed, locked = None, args.seed, False
    with _command_scope(), contextlib.ExitStack() as held:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            holder = _lock(out_dir, held)
            if holder is not None:  # that run's manifest and outputs are left alone
                print(f"busy: {out_dir} is the output directory of a live run ({holder})", file=sys.stderr)
                return EXIT_BUSY
            locked = True
            config = _load_config(args.config)
            c = _read(_Config, config, "")
            c.raw = config
            seed = args.seed if args.seed is not None else c.seed
            _need(c, needs)
            cohorts = [out_dir / name for name in c.datasets] if args.command == "synth-gen" else []
            _remove_leftover_tmp([out_dir, *cohorts, *(d / "records" for d in cohorts)])
            _write_manifest(out_dir, args.command, config, seed, None, None)
            # an overflow or an invalid value is a failed run, not a warning
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                command(c, out_dir, seed)
            _write_manifest(out_dir, args.command, config, seed, EXIT_OK, None)
            return EXIT_OK
        except ConfigError as e:
            code, error = EXIT_CONFIG, f"config error: {e}"
        except DataError as e:
            code, error = EXIT_DATA, f"data error: {e}"
        except (ValueError, TypeError, OSError, FloatingPointError) as e:
            code, error = EXIT_RUNTIME, f"runtime error: {e}"
        except MemoryError as e:
            code, error = EXIT_RUNTIME, "runtime error: out of memory" + (f": {e}" if str(e) else "")
        except _Terminated:
            code, error = EXIT_TERMINATED, "terminated"
        except KeyboardInterrupt:
            code, error = EXIT_INTERRUPTED, "interrupted"
        print(error, file=sys.stderr)
        # the failure record is best effort: the directory may be what failed;
        # a run that never held the lock leaves the directory's manifest alone
        if locked:
            with contextlib.suppress(OSError):
                _write_manifest(out_dir, args.command, config, seed, code, error)
        return code


if __name__ == "__main__":
    sys.exit(main())
