"""Command-line entry point for reproducible desk-scale experiments.

Subcommands: synth-gen, augment-preview, pretrain, finetune, lineval,
distshift, report. Structured settings live in a JSON config file; flags
carry only paths, the seed, and the command. Every output directory gets a
manifest.json with the seed and a hash of the config that produced it.

pretrain writes its run spec (method, dataset, preprocessing, encoder) into
the checkpoint. lineval, finetune and distshift read windows and build the
encoder from that spec, so a checkpoint is always consumed as it was trained.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import augment, distshift, metrics, signal_core, train_harness
from .diffcore import EncoderConfig, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


_DEFAULT_FRACTIONS = (0.8, 0.1, 0.1)
# run-spec keys that lineval, finetune and distshift take from the checkpoint
_INHERITED = ("method", "target_hz", "window_len", "standardize_windows", "encoder")


def _load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config JSON: {e}") from None


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(
            {
                "command": command,
                "seed": seed,
                "config_hash": _config_hash(config),
                "config": config,
            },
            f,
            indent=2,
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# dataset directories: records/*.esig plus labels.csv sidecar


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
        label_map = signal_core.read_label_sidecar(path / "labels.csv")
    classes = tuple(sorted({c for names in label_map.values() for c in names}))
    records = []
    for f in sorted(rec_dir.glob("*.esig")):
        rid = f.stem
        labels = signal_core.LabelSet.from_names(classes, label_map.get(rid, []))
        records.append(signal_core.read_record_binary(f, subject_id=rid, labels=labels))
    if not records:
        raise DataError(f"no .esig records found under {rec_dir}")
    return records


def _preprocessing(config: dict) -> dict:
    return {
        "target_hz": float(config.get("target_hz", 100.0)),
        "window_len": int(config.get("window_len", 250)),
        "standardize_windows": bool(config.get("standardize_windows", False)),
    }


def _encoder_fields(config: dict, n_leads: int) -> dict:
    """The encoder a config describes, defaults filled in, as JSON-ready fields."""
    enc = dict(config.get("encoder", {}))
    enc.setdefault("n_leads", n_leads)
    if "conv_blocks" in enc:
        enc["conv_blocks"] = tuple(tuple(b) for b in enc["conv_blocks"])
    cfg = EncoderConfig(**enc)
    return dict(asdict(cfg), conv_blocks=[list(b) for b in cfg.conv_blocks])


def _encoder_config(spec: dict) -> EncoderConfig:
    enc = spec["encoder"]
    return EncoderConfig(**dict(enc, conv_blocks=tuple(tuple(b) for b in enc["conv_blocks"])))


def _load_windows(dataset_path, spec: dict, fractions=None, seed: int = 0):
    """Windows of a dataset, preprocessed as the run spec says.

    Records are resampled to the spec's rate, cut into windows of its length
    and standardized if it says so. With `fractions` they are first split by
    subject (seeded); without, every window lands in `train`, in sorted-file
    order.
    """
    records = _load_dataset(dataset_path)
    if "encoder" in spec:
        leads = spec["encoder"]["n_leads"]
        other = sorted({r.n_leads for r in records} - {leads})
        if other:
            raise DataError(
                f"{dataset_path} has {other[0]}-lead records; "
                f"the checkpoint's encoder takes {leads} leads"
            )
    target_hz = spec["target_hz"]
    records = [
        signal_core.resample(r, target_hz) if r.sampling_rate_hz != target_hz else r
        for r in records
    ]
    if fractions is None:
        split = signal_core.DatasetSplit(records, [], [])
    else:
        split = signal_core.split_by_subject(records, tuple(fractions), seed)
    return signal_core.split_windows(
        split, spec["window_len"], standardize=spec["standardize_windows"]
    )


def _load_run(config: dict):
    """(params, run spec) of the config's checkpoint.

    A consumer config may repeat an inherited key only with the spec's value.
    """
    ckpt = config["checkpoint"]
    if not Path(ckpt).exists():
        raise DataError(f"checkpoint not found: {ckpt}")
    params, spec = load_checkpoint(ckpt)
    if spec is None:
        raise DataError(
            f"checkpoint {ckpt} carries no run spec; re-create it with 'ecgssl pretrain'"
        )
    given = dict(
        _preprocessing(config),
        method=config.get("method"),
        encoder=_encoder_fields(config, spec["encoder"]["n_leads"]),
    )
    for key in _INHERITED:
        if key in config and given[key] != spec[key]:
            raise ConfigError(
                f"{key!r} is {config[key]!r} but the checkpoint was pre-trained "
                f"with {spec[key]!r}; leave it out to inherit it"
            )
    return params, spec


def _augmentation_spec(config: dict) -> augment.AugmentationSpec:
    aug = config.get("augmentation", {"kind": "GaussianNoise", "params": {"sigma": 0.1}})
    return augment.AugmentationSpec(aug["kind"], aug.get("params", {}))


# ---------------------------------------------------------------------------
# commands


def cmd_synth_gen(config, out_dir: Path, seed: int):
    datasets = config.get("datasets")
    if not datasets:
        raise ConfigError("synth-gen config needs a 'datasets' object")
    for i, (name, spec) in enumerate(sorted(datasets.items())):
        class_list = spec.get("classes", list(signal_core.SYNTH_CLASSES))
        records = []
        for j, class_id in enumerate(class_list):
            gen_cfg = signal_core.SyntheticEcgConfig(
                n_subjects=int(spec.get("n_subjects_per_class", 5)),
                beats_per_record=int(spec.get("beats_per_record", 12)),
                class_id=class_id,
                noise_sigma=float(spec.get("noise_sigma", 0.05)),
                sampling_rate_hz=float(spec.get("sampling_rate_hz", 100.0)),
                seed=seed + 1000 * i + j,
                n_leads=int(spec.get("n_leads", 1)),
                bump_amplitudes=tuple(spec.get("bump_amplitudes", (0.15, 1.0, 0.3))),
            )
            records.extend(signal_core.generate_synthetic(gen_cfg))
        _save_dataset(out_dir / name, records)


def cmd_augment_preview(config, out_dir: Path, seed: int):
    record_path = config.get("record")
    if not record_path:
        raise ConfigError("augment-preview config needs a 'record' path")
    if not Path(record_path).exists():
        raise DataError(f"record file not found: {record_path}")
    record = signal_core.read_record_binary(record_path)
    spec = _augmentation_spec(config)
    rng = augment.RngStream(seed)
    augmented = augment.apply_augmentation(record.leads, spec, rng)
    out = signal_core.EcgRecord(
        record.subject_id, augmented, record.sampling_rate_hz, record.labels
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    signal_core.write_record_csv(out_dir / "augmented.csv", out)


def cmd_pretrain(config, out_dir: Path, seed: int):
    dataset = config.get("dataset")
    if not dataset:
        raise ConfigError("pretrain config needs a 'dataset' path")
    spec = dict(
        _preprocessing(config), method=config.get("method", "SimCLR"), dataset=str(dataset)
    )
    split = _load_windows(dataset, spec, config.get("fractions", _DEFAULT_FRACTIONS), seed)
    pc = train_harness.PretrainConfig(
        method=spec["method"],
        augmentation=_augmentation_spec(config),
        seed=seed,
        **config.get("pretrain", {}),
    )
    spec["encoder"] = _encoder_fields(config, split.train[0].data.shape[0])
    params, log = train_harness.pretrain(pc, split, _encoder_config(spec))
    save_checkpoint(out_dir / "checkpoint.ckpt", params, spec)
    log.to_csv(out_dir / "pretrain_log.csv")


def _finetune_common(config, out_dir: Path, seed: int, freeze: bool):
    dataset = config.get("dataset")
    if not dataset or not config.get("checkpoint"):
        raise ConfigError("config needs 'dataset' and 'checkpoint' paths")
    pretrained, spec = _load_run(config)
    split = _load_windows(dataset, spec, config.get("fractions", _DEFAULT_FRACTIONS), seed)
    enc_cfg = _encoder_config(spec)
    fc_kwargs = dict(config.get("finetune", {}))
    fc_kwargs["freeze_encoder"] = freeze
    fc = train_harness.FinetuneConfig(seed=seed, **fc_kwargs)
    model, log = train_harness.finetune(pretrained, fc, split, enc_cfg)
    pred = train_harness.predict_scores(model, enc_cfg, split.test)
    _emit_metrics(out_dir, config, spec, seed, pred)
    save_checkpoint(out_dir / "finetuned.ckpt", model, spec)
    log.to_csv(out_dir / "finetune_log.csv")


def _emit_metrics(out_dir: Path, config, spec, seed, pred):
    out_dir.mkdir(parents=True, exist_ok=True)
    per_class = metrics.per_class_f1(pred)
    auc_vec, auc_macro, skipped = metrics.auc(pred)
    summary = {
        "seed": seed,
        "config_hash": _config_hash(config),
        "method": spec["method"],
        "pretrain_dataset": spec["dataset"],
        "test_dataset": str(config.get("dataset", "")),
        "metrics": {
            "macro_f1": metrics.macro_f1(pred),
            "micro_f1": metrics.micro_f1(pred),
            "macro_auc": None if np.isnan(auc_macro) else auc_macro,
        },
        "per_class_f1": dict(zip(pred.class_names, per_class.tolist())),
        "auc_skipped_classes": skipped,
    }
    with open(out_dir / "metrics.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    with open(out_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class", "metric", "value"])
        w.writerow(["__all__", "macro_f1", repr(summary["metrics"]["macro_f1"])])
        w.writerow(["__all__", "micro_f1", repr(summary["metrics"]["micro_f1"])])
        for name, v in zip(pred.class_names, per_class):
            w.writerow([name, "f1", repr(float(v))])
        for name, v in zip(pred.class_names, auc_vec):
            if not np.isnan(v):
                w.writerow([name, "auc", repr(float(v))])


def cmd_finetune(config, out_dir: Path, seed: int):
    _finetune_common(config, out_dir, seed, freeze=bool(
        config.get("finetune", {}).get("freeze_encoder", False)
    ))


def cmd_lineval(config, out_dir: Path, seed: int):
    _finetune_common(config, out_dir, seed, freeze=True)


def cmd_distshift(config, out_dir: Path, seed: int):
    ref_path = config.get("dataset_ref")
    other_path = config.get("dataset_other")
    if not config.get("checkpoint") or not ref_path or not other_path:
        raise ConfigError(
            "distshift config needs 'checkpoint', 'dataset_ref', 'dataset_other'"
        )
    params, spec = _load_run(config)
    report = distshift.analyze_pair(
        params,
        _encoder_config(spec),
        _load_windows(ref_path, spec).train,
        _load_windows(other_path, spec).train,
        resolution=int(config.get("resolution", 256)),
        ref_tag=str(ref_path),
        other_tag=str(other_path),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "overlap.json", "w") as f:
        f.write(report.to_json())
    for grid, name in zip(report.grids, ("density_ref.csv", "density_other.csv")):
        np.savetxt(out_dir / name, grid.density, delimiter=",")


def cmd_report(config, out_dir: Path, seed: int):
    scan_dir = Path(config.get("scan_dir", out_dir))
    found = sorted(scan_dir.rglob("metrics.json"))
    if not found:
        raise DataError(f"no metrics.json files under {scan_dir}")
    rows = []
    per_class_rows = []
    for f in found:
        with open(f) as fh:
            m = json.load(fh)
        for metric, value in sorted(m["metrics"].items()):
            if value is None:
                continue
            rows.append(
                [
                    m.get("method", ""),
                    m.get("pretrain_dataset", ""),
                    m.get("test_dataset", ""),
                    metric,
                    repr(value),
                ]
            )
        for cls, v in sorted(m.get("per_class_f1", {}).items()):
            per_class_rows.append(
                [m.get("method", ""), m.get("test_dataset", ""), cls, repr(v)]
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "pretrain_set", "test_set", "metric", "value"])
        w.writerows(rows)
    with open(out_dir / "report_per_class.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "test_set", "class", "f1"])
        w.writerows(per_class_rows)


_COMMANDS = {
    "synth-gen": cmd_synth_gen,
    "augment-preview": cmd_augment_preview,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "lineval": cmd_lineval,
    "distshift": cmd_distshift,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecgssl", description="Desk-scale SSL experiments on ECG signals."
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="experiment seed")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        out_dir = Path(args.out)
        _write_manifest(out_dir, args.command, config, seed)
        _COMMANDS[args.command](config, out_dir, seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, TypeError, OSError, FloatingPointError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
