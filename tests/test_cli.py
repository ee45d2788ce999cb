import contextlib
import errno
import fcntl
import io
import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecgssl import cli, distshift, signal_core
from ecgssl import train_harness as th
from ecgssl.augment import AugmentationSpec
from ecgssl.cli import main
from ecgssl.diffcore import EncoderConfig, init_encoder_params, load_checkpoint, save_checkpoint


def write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config))
    return str(path)


def run(command, config_path, out_dir, seed=None):
    argv = [command, "--config", str(config_path), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


SMALL_ENCODER = {
    "conv_blocks": [[4, 5, 2], [8, 5, 2]],
    "embedding_dim": 8,
    "projection_dim": 4,
    "prediction_hidden": 4,
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = write_config(
        root / "gen.json",
        {
            "datasets": {
                "cohortA": {
                    "classes": ["normal", "fast_rate"],
                    "n_subjects_per_class": 6,
                    "beats_per_record": 8,
                    "noise_sigma": 0.05,
                },
                "cohortB": {
                    "classes": ["normal", "fast_rate"],
                    "n_subjects_per_class": 4,
                    "beats_per_record": 8,
                    "noise_sigma": 0.3,
                    "bump_amplitudes": [0.6, 0.4, 0.9],
                },
                "cohortTwoLead": {
                    "classes": ["normal", "fast_rate"],
                    "n_subjects_per_class": 2,
                    "beats_per_record": 8,
                    "n_leads": 2,
                },
            }
        },
    )
    assert run("synth-gen", cfg, root / "out", seed=7) == 0
    return root / "out"


@pytest.fixture(scope="module")
def pretrain_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("pre")
    cfg = write_config(
        root / "pre.json",
        {
            "dataset": str(data_dir / "cohortA"),
            "method": "SimCLR",
            "encoder": SMALL_ENCODER,
            "fractions": [0.6, 0.2, 0.2],
            "pretrain": {"epochs": 2, "batch_size": 8},
        },
    )
    out = root / "run"
    assert run("pretrain", cfg, out, seed=1) == 0
    return out


@pytest.fixture(scope="module")
def standardized_pretrain_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("pre_std")
    cfg = write_config(
        root / "pre.json",
        {
            "dataset": str(data_dir / "cohortA"),
            "method": "SimCLR",
            "standardize_windows": True,
            "encoder": SMALL_ENCODER,
            "fractions": [0.6, 0.2, 0.2],
            "pretrain": {"epochs": 2, "batch_size": 8},
        },
    )
    out = root / "run"
    assert run("pretrain", cfg, out, seed=1) == 0
    return out


class TestSynthGen:
    def test_outputs(self, data_dir):
        for name in ("cohortA", "cohortB"):
            assert (data_dir / name / "labels.csv").exists()
            assert list((data_dir / name / "records").glob("*.esig"))
        assert json.loads((data_dir / "manifest.json").read_text())["seed"] == 7

    def test_missing_datasets_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {})
        assert run("synth-gen", cfg, tmp_path / "out") == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert run("synth-gen", tmp_path / "nope.json", tmp_path / "out") == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("synth-gen", bad, tmp_path / "out") == 2


class TestPretrain:
    def test_outputs(self, pretrain_dir):
        assert (pretrain_dir / "checkpoint.ckpt").exists()
        assert (pretrain_dir / "pretrain_log.csv").exists()
        _, spec = load_checkpoint(pretrain_dir / "checkpoint.ckpt")
        assert spec["method"] == "SimCLR"
        assert spec["dataset"].endswith("cohortA")
        assert spec["target_hz"] == 100.0
        assert spec["window_len"] == 250
        assert spec["standardize_windows"] is False
        assert spec["encoder"] == dict(SMALL_ENCODER, n_leads=1)

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        cfg = write_config(
            tmp_path / "pre.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "method": "BYOL",
                "encoder": SMALL_ENCODER,
                "fractions": [0.6, 0.2, 0.2],
                "pretrain": {"epochs": 1, "batch_size": 8},
            },
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("pretrain", cfg, out1, seed=3) == 0
        assert run("pretrain", cfg, out2, seed=3) == 0
        for name in ("checkpoint.ckpt", "pretrain_log.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "pre.json",
            {"dataset": str(tmp_path / "missing"), "pretrain": {"epochs": 1}},
        )
        assert run("pretrain", cfg, tmp_path / "out") == 3

    def test_no_validation_windows_is_data_error(self, data_dir, tmp_path, capsys):
        config = pre(data_dir, fractions=[1.0, 0.0, 0.0], pretrain={"epochs": 1, "batch_size": 8})
        code, line = run_failing("pretrain", config, tmp_path, capsys)
        assert (code, line) == (3, f"data error: {data_dir / 'cohortA'}: SimCLR needs at least 2 "
                                   "validation window(s), got 0: model selection undefined")
        assert not (tmp_path / "out" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("case", ["two-subjects", "mixed-leads", "batch-too-large"])
    def test_cohort_too_small_or_mixed_is_data_error(self, case, data_dir, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        (cohort / "records").mkdir(parents=True)
        records = sorted((data_dir / "cohortA" / "records").glob("*.esig"))
        if case == "two-subjects":
            records = records[:2]
        if case == "mixed-leads":
            records.append(sorted((data_dir / "cohortTwoLead" / "records").glob("*.esig"))[0])
        for i, f in enumerate(records):
            (cohort / "records" / f"r{i:02d}.esig").write_bytes(f.read_bytes())
        batch_size = 512 if case == "batch-too-large" else 8
        config = pre(data_dir, dataset=str(cohort), pretrain={"epochs": 1, "batch_size": batch_size})
        code, line = run_failing("pretrain", config, tmp_path, capsys)
        expected = {
            "two-subjects": f"{cohort} has 2 subject(s); a train/validation/test split needs at least 3",
            "mixed-leads": f"{cohort} mixes records of 1 and 2 leads",
            "batch-too-large": f"{cohort}: batch_size 512 exceeds the ",
        }[case]
        assert code == 3 and line.startswith(f"data error: {expected}"), line
        assert not (tmp_path / "out" / "checkpoint.ckpt").exists()


class TestLineval:
    def test_smoke_and_metrics(self, data_dir, pretrain_dir, tmp_path):
        cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "fractions": [0.6, 0.2, 0.2],
                "finetune": {"epochs": 2, "batch_size": 8},
            },
        )
        out = tmp_path / "out"
        assert run("lineval", cfg, out, seed=2) == 0
        m = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= m["metrics"]["macro_f1"] <= 1.0
        assert (out / "finetuned.ckpt").exists()
        assert (out / "metrics.csv").read_text().startswith("class,metric,value")

    def test_missing_checkpoint_is_data_error(self, data_dir, tmp_path):
        cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(tmp_path / "nope.ckpt"),
            },
        )
        assert run("lineval", cfg, tmp_path / "out") == 3

    def test_setting_differing_from_checkpoint_is_config_error(
        self, data_dir, standardized_pretrain_dir, tmp_path, capsys
    ):
        cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(standardized_pretrain_dir / "checkpoint.ckpt"),
                "standardize_windows": False,
            },
        )
        assert run("lineval", cfg, tmp_path / "out") == 2
        assert "'standardize_windows'" in capsys.readouterr().err

    @pytest.mark.parametrize("change, code", [({}, 0), ({"embedding_dim": 16}, 2)])
    def test_encoder_may_repeat_only_the_checkpoint_value(
        self, change, code, data_dir, pretrain_dir, tmp_path, capsys
    ):
        cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "encoder": dict(SMALL_ENCODER, **change),
                "fractions": [0.6, 0.2, 0.2],
                "finetune": {"epochs": 1, "batch_size": 8},
            },
        )
        assert run("lineval", cfg, tmp_path / "out", seed=2) == code
        assert ("'encoder'" in capsys.readouterr().err) == bool(code)

    def test_lead_count_differing_from_encoder_is_data_error(
        self, data_dir, pretrain_dir, tmp_path
    ):
        cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortTwoLead"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
            },
        )
        assert run("lineval", cfg, tmp_path / "out") == 3

    def test_checkpoint_without_spec_is_data_error(
        self, data_dir, pretrain_dir, tmp_path, capsys
    ):
        # version 1 layout: magic, version, parameter table, optimizer flag
        params, _ = load_checkpoint(pretrain_dir / "checkpoint.ckpt")
        blob = b"CKPT" + struct.pack("<II", 1, len(params.names()))
        for name, t in params.params.items():
            blob += struct.pack("<H", len(name)) + name.encode()
            blob += struct.pack("<I", t.data.ndim)
            blob += b"".join(struct.pack("<I", d) for d in t.data.shape)
            blob += t.data.astype(np.float32).tobytes()
        v1 = tmp_path / "v1.ckpt"
        v1.write_bytes(blob + struct.pack("<B", 0))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(v1)
        # a version 2 file saved without a spec
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, params)
        for ckpt, message in ((v1, "unsupported checkpoint version 1"), (bare, "no run spec")):
            cfg = write_config(
                tmp_path / "lin.json",
                {"dataset": str(data_dir / "cohortA"), "checkpoint": str(ckpt)},
            )
            assert run("lineval", cfg, tmp_path / "out") == 3
            err = capsys.readouterr().err
            assert message in err and len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("window_len", "250", "spec.window_len must be an integer"),
            ("window_len", 250.0, "spec.window_len must be an integer"),
            ("target_hz", "100", "spec.target_hz must be a number"),
            ("standardize_windows", "no", "spec.standardize_windows must be true or false"),
        ],
    )
    def test_checkpoint_spec_of_wrong_type_is_data_error(
        self, key, value, named, data_dir, pretrain_dir, tmp_path, capsys
    ):
        params, spec = load_checkpoint(pretrain_dir / "checkpoint.ckpt")
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, params, dict(spec, **{key: value}))
        cfg = write_config(
            tmp_path / "lin.json", {"dataset": str(data_dir / "cohortA"), "checkpoint": str(ckpt)}
        )
        assert run("lineval", cfg, tmp_path / "out") == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and f"checkpoint {ckpt}: {named}" in lines[0], lines


class TestFinetune:
    def test_smoke(self, data_dir, pretrain_dir, tmp_path):
        cfg = write_config(
            tmp_path / "ft.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "fractions": [0.6, 0.2, 0.2],
                "finetune": {"epochs": 2, "batch_size": 8},
            },
        )
        out = tmp_path / "out"
        assert run("finetune", cfg, out, seed=2) == 0
        assert (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["finetune", "lineval"])
    def test_empty_test_split_is_data_error_before_training(
        self, command, data_dir, pretrain_dir, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with no test windows")

        monkeypatch.setattr(th, "finetune", no_training)
        cfg = write_config(
            tmp_path / "ft.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "fractions": [0.75, 0.25, 0.0],
                "finetune": {"epochs": 2, "batch_size": 8},
            },
        )
        out = tmp_path / "out"
        assert run(command, cfg, out, seed=2) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cohortA" in err and "12 subjects" in err and "[0.75, 0.25, 0.0]" in err
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 3
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["finetune", "lineval"])
    def test_empty_validation_split_is_data_error_before_training(
        self, command, data_dir, pretrain_dir, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with no validation windows")

        monkeypatch.setattr(th, "finetune", no_training)
        config = lin(data_dir, pretrain_dir / "checkpoint.ckpt", fractions=[0.75, 0.0, 0.25])
        code, line = run_failing(command, config, tmp_path, capsys)
        assert code == 3, line
        assert line == (
            f"data error: {data_dir / 'cohortA'} gives no validation windows: fractions "
            "[0.75, 0.0, 0.25] leave none of its 12 subjects for model selection"
        )

    @pytest.mark.parametrize("command", ["finetune", "lineval"])
    @pytest.mark.parametrize("labels", [None, "record_id,classes\n"])
    def test_dataset_without_classes_is_data_error_before_training(
        self, command, labels, data_dir, pretrain_dir, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with no class labels")

        monkeypatch.setattr(th, "finetune", no_training)
        cohort = copy_cohort(data_dir, tmp_path / "cohort")
        if labels is None:
            (cohort / "labels.csv").unlink()
            want = f"no labels.csv under {cohort}"
        else:
            (cohort / "labels.csv").write_text(labels)
            want = f"{cohort / 'labels.csv'} names no class"
        config = lin(data_dir, pretrain_dir / "checkpoint.ckpt", dataset=str(cohort),
                     fractions=[0.6, 0.2, 0.2])
        code, line = run_failing(command, config, tmp_path, capsys)
        assert code == 3 and want in line, line


class TestDistshift:
    def test_overlap_report(self, data_dir, pretrain_dir, tmp_path):
        cfg = write_config(
            tmp_path / "ds.json",
            {
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "dataset_ref": str(data_dir / "cohortA"),
                "dataset_other": str(data_dir / "cohortB"),
                "resolution": 64,
            },
        )
        out = tmp_path / "out"
        assert run("distshift", cfg, out, seed=0) == 0
        rep = json.loads((out / "overlap.json").read_text())
        assert 0.0 <= rep["eta"] <= 1.0
        assert len(rep["axis_etas"]) == 2
        assert (out / "density_ref.csv").exists()
        assert (out / "density_other.csv").exists()

    def test_embeds_windows_as_pretrained(
        self, data_dir, standardized_pretrain_dir, tmp_path
    ):
        ckpt = standardized_pretrain_dir / "checkpoint.ckpt"
        cfg = write_config(
            tmp_path / "ds.json",
            {
                "checkpoint": str(ckpt),
                "dataset_ref": str(data_dir / "cohortA"),
                "dataset_other": str(data_dir / "cohortB"),
                "standardize_windows": True,
                "resolution": 64,
            },
        )
        assert run("distshift", cfg, tmp_path / "out", seed=0) == 0
        eta = json.loads((tmp_path / "out" / "overlap.json").read_text())["eta"]

        def standardized_windows(cohort):
            files = sorted((data_dir / cohort / "records").glob("*.esig"))
            return [
                signal_core.standardize_window(w)
                for f in files
                for w in signal_core.window(signal_core.read_record_binary(f), 250)
            ]

        params, _ = load_checkpoint(ckpt)
        enc = dict(SMALL_ENCODER, conv_blocks=tuple(map(tuple, SMALL_ENCODER["conv_blocks"])))
        report = distshift.analyze_pair(
            params,
            EncoderConfig(n_leads=1, **enc),
            standardized_windows("cohortA"),
            standardized_windows("cohortB"),
            resolution=64,
        )
        assert eta == report.eta

    def test_missing_keys_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "ds.json", {"checkpoint": "x"})
        assert run("distshift", cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize("key, least, use", [("dataset_ref", 3, "the PCA"),
                                                 ("dataset_other", 2, "the KDE")])
    def test_too_few_windows_is_data_error_naming_the_dataset(
        self, key, least, use, data_dir, pretrain_dir, tmp_path, capsys
    ):
        small = cohort_of_windows(tmp_path / "small", least - 1)
        config = shift(data_dir, pretrain_dir / "checkpoint.ckpt", resolution=16, **{key: str(small)})
        code, line = run_failing("distshift", config, tmp_path, capsys)
        assert code == 3, line
        assert line.endswith(
            f"{small} gives {least - 1} 250-sample windows at 100.0 Hz "
            f"for {use} of {key}, which needs at least {least}"
        ), line

    def test_fewest_windows_that_run(self, pretrain_dir, tmp_path):
        cfg = write_config(
            tmp_path / "ds.json",
            {
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "dataset_ref": str(cohort_of_windows(tmp_path / "ref", 3)),
                "dataset_other": str(cohort_of_windows(tmp_path / "other", 2)),
                "resolution": 16,
            },
        )
        assert run("distshift", cfg, tmp_path / "out", seed=0) == 0


def cohort_of_windows(path: Path, n: int) -> Path:
    """A one-record cohort of 100 Hz noise that gives `n` 250-sample windows."""
    (path / "records").mkdir(parents=True)
    leads = np.random.default_rng(n).standard_normal((1, 250 * n))
    record = signal_core.EcgRecord("only", leads, 100.0, signal_core.LabelSet((), ()))
    signal_core.write_record_binary(path / "records" / "only.esig", record)
    return path


class TestReport:
    def test_aggregates(self, data_dir, pretrain_dir, tmp_path):
        lin_cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortA"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "method": "SimCLR",
                "fractions": [0.6, 0.2, 0.2],
                "finetune": {"epochs": 1, "batch_size": 8},
            },
        )
        runs = tmp_path / "runs"
        assert run("lineval", lin_cfg, runs / "lin", seed=0) == 0
        rep_cfg = write_config(tmp_path / "rep.json", {"scan_dir": str(runs)})
        out = tmp_path / "report"
        assert run("report", rep_cfg, out) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "method,pretrain_set,test_set,metric,value"
        assert any("macro_f1" in ln for ln in lines[1:])
        assert (out / "report_per_class.csv").exists()

    def test_method_and_pretrain_set_come_from_checkpoint(
        self, data_dir, pretrain_dir, tmp_path
    ):
        lin_cfg = write_config(
            tmp_path / "lin.json",
            {
                "dataset": str(data_dir / "cohortB"),
                "checkpoint": str(pretrain_dir / "checkpoint.ckpt"),
                "fractions": [0.5, 0.25, 0.25],
                "finetune": {"epochs": 1, "batch_size": 8},
            },
        )
        runs = tmp_path / "runs"
        assert run("lineval", lin_cfg, runs / "lin", seed=0) == 0
        rep_cfg = write_config(tmp_path / "rep.json", {"scan_dir": str(runs)})
        assert run("report", rep_cfg, tmp_path / "report") == 0
        rows = (tmp_path / "report" / "report.csv").read_text().strip().splitlines()
        method, pretrain_set, test_set, _, _ = rows[1].split(",")
        assert method == "SimCLR"
        assert pretrain_set == str(data_dir / "cohortA")
        assert test_set == str(data_dir / "cohortB")

    def test_empty_scan_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path / "rep.json", {"scan_dir": str(tmp_path)})
        assert run("report", cfg, tmp_path / "out") == 3


class TestAugmentPreview:
    def test_smoke(self, data_dir, tmp_path):
        rec = sorted((data_dir / "cohortA" / "records").glob("*.esig"))[0]
        cfg = write_config(
            tmp_path / "aug.json",
            {
                "record": str(rec),
                "augmentation": {"kind": "GaussianNoise", "params": {"sigma": 0.1}},
            },
        )
        out = tmp_path / "out"
        assert run("augment-preview", cfg, out, seed=5) == 0
        assert (out / "augmented.csv").exists()

    def test_missing_record_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "aug.json", {"record": str(tmp_path / "none.esig")}
        )
        assert run("augment-preview", cfg, tmp_path / "out") == 3


# ---------------------------------------------------------------------------
# the config boundary: every bad setting or corrupt input file exits 2 or 3
# with one line that names it, and a failed run leaves a failed manifest


def run_failing(command, config, tmp_path, capsys):
    """(exit code, the stderr line) of one run; fails on more than one line."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = run(command, path, tmp_path / "out")
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert "Traceback" not in lines[0]
    return code, lines[0]


def pre(data, **extra):
    return {"dataset": str(data / "cohortA"), "encoder": SMALL_ENCODER, **extra}


def lin(data, ckpt, **extra):
    return {"dataset": str(data / "cohortA"), "checkpoint": str(ckpt), **extra}


def preview(data, kind, params):
    rec = sorted((data / "cohortA" / "records").glob("*.esig"))[0]
    return {"record": str(rec), "augmentation": {"kind": kind, "params": params}}


def shift(data, ckpt, **extra):
    return {"checkpoint": str(ckpt), "dataset_ref": str(data / "cohortA"),
            "dataset_other": str(data / "cohortB"), **extra}


BAD_CONFIGS = {
    "json-list": ("pretrain", lambda d, c: [1, 2], "config must be an object"),
    "augmentation-without-kind": (
        "augment-preview",
        lambda d, c: {
            "record": str(sorted((d / "cohortA" / "records").glob("*.esig"))[0]),
            "augmentation": {"params": {"sigma": 0.1}},
        },
        "'kind'",
    ),
    "misspelled-pretrain-key": (
        "pretrain", lambda d, c: pre(d, pretrain={"epoch": 1}), "did you mean 'epochs'"
    ),
    "pretrain-seed": ("pretrain", lambda d, c: pre(d, pretrain={"seed": 3}), "pretrain.seed"),
    "epochs-string": (
        "pretrain", lambda d, c: pre(d, pretrain={"epochs": "two"}), "pretrain.epochs"
    ),
    "embedding-dim-string": (
        "pretrain",
        lambda d, c: pre(d, encoder=dict(SMALL_ENCODER, embedding_dim="x")),
        "encoder.embedding_dim",
    ),
    "misspelled-encoder-key": (
        "pretrain",
        lambda d, c: pre(d, encoder={"conv_blok": [[4, 5, 2]]}),
        "did you mean 'conv_blocks'",
    ),
    "target-hz-string": ("pretrain", lambda d, c: pre(d, target_hz="abc"), "target_hz"),
    "target-hz-beyond-float": ("pretrain", lambda d, c: pre(d, target_hz=10**400), "target_hz"),
    "fractions-two-items": ("pretrain", lambda d, c: pre(d, fractions=[0.5, 0.5]), "fractions"),
    "conv-block-float": (
        "pretrain", lambda d, c: pre(d, encoder={"conv_blocks": [[4.5, 5, 2]]}),
        "encoder.conv_blocks[0][0]",
    ),
    "bump-amplitude-bool": (
        "synth-gen",
        lambda d, c: {"datasets": {"x": {"bump_amplitudes": [True, 0.5, 0.7]}}},
        "datasets.x.bump_amplitudes[0]",
    ),
    "synth-n-leads-string": (
        "synth-gen", lambda d, c: {"datasets": {"x": {"n_leads": "x"}}}, "datasets.x.n_leads"
    ),
    "misspelled-method": ("pretrain", lambda d, c: pre(d, methd="BYOL"), "did you mean 'method'"),
    "fractional-seed": ("pretrain", lambda d, c: pre(d, seed=1.7), "seed"),
    "finetune-zero-epochs": ("finetune", lambda d, c: lin(d, c, finetune={"epochs": 0}), "epochs"),
    "finetune-zero-batch": (
        "lineval", lambda d, c: lin(d, c, finetune={"batch_size": 0}), "batch_size"
    ),
    "finetune-negative-weight-decay": (
        "finetune", lambda d, c: lin(d, c, finetune={"weight_decay": -5}), "weight_decay"
    ),
    # ranges each config dataclass checks before any data are read
    "encoder-zero-stride": (
        "pretrain", lambda d, c: pre(d, encoder={"conv_blocks": [[4, 5, 0]]}), "[4, 5, 0]"
    ),
    "encoder-zero-channels": (
        "pretrain", lambda d, c: pre(d, encoder={"conv_blocks": [[0, 5, 2]]}), "[0, 5, 2]"
    ),
    "encoder-negative-kernel": (
        "pretrain", lambda d, c: pre(d, encoder={"conv_blocks": [[4, -1, 2]]}), "[4, -1, 2]"
    ),
    "encoder-zero-leads": (
        "pretrain", lambda d, c: pre(d, encoder=dict(SMALL_ENCODER, n_leads=0)), "n_leads"
    ),
    "encoder-zero-prediction-hidden": (
        "pretrain",
        lambda d, c: pre(d, encoder=dict(SMALL_ENCODER, prediction_hidden=0)),
        "prediction_hidden",
    ),
    "negative-lr": ("pretrain", lambda d, c: pre(d, pretrain={"lr": -1}), "lr"),
    "negative-weight-decay": (
        "pretrain", lambda d, c: pre(d, pretrain={"weight_decay": -5}), "weight_decay"
    ),
    "simclr-zero-temperature": (
        "pretrain", lambda d, c: pre(d, pretrain={"temperature": 0}), "temperature"
    ),
    "byol-ema-decay-above-1": (
        "pretrain", lambda d, c: pre(d, method="BYOL", pretrain={"ema_decay": 2}), "ema_decay"
    ),
    "swav-zero-temperature": (
        "pretrain",
        lambda d, c: pre(d, method="SwAV", pretrain={"swav_temperature": 0}),
        "swav_temperature",
    ),
    "swav-one-prototype": (
        "pretrain", lambda d, c: pre(d, method="SwAV", pretrain={"n_prototypes": 1}),
        "n_prototypes",
    ),
    "swav-zero-sinkhorn-iters": (
        "pretrain", lambda d, c: pre(d, method="SwAV", pretrain={"sinkhorn_iters": 0}),
        "sinkhorn_iters",
    ),
    "swav-zero-sinkhorn-epsilon": (
        "pretrain", lambda d, c: pre(d, method="SwAV", pretrain={"sinkhorn_epsilon": 0}),
        "sinkhorn_epsilon",
    ),
    "zero-target-hz": ("pretrain", lambda d, c: pre(d, target_hz=0), "target_hz"),
    "target-hz-above-10-khz": ("pretrain", lambda d, c: pre(d, target_hz=1e5), "target_hz"),
    "target-hz-1e300": ("pretrain", lambda d, c: pre(d, target_hz=1e300), "target_hz"),
    "zero-window-len": ("pretrain", lambda d, c: pre(d, window_len=0), "window_len"),
    "negative-fractions": (
        "pretrain", lambda d, c: pre(d, fractions=[1.2, -0.1, -0.1]), "fractions"
    ),
    "fractions-sum-below-1": (
        "pretrain", lambda d, c: pre(d, fractions=[0.5, 0.2, 0.2]), "fractions"
    ),
    "resolution-below-16": ("distshift", lambda d, c: shift(d, c, resolution=8), "resolution"),
    "synth-zero-rate": (
        "synth-gen",
        lambda d, c: {"datasets": {"x": {"sampling_rate_hz": 0}}},
        "sampling_rate_hz",
    ),
    "synth-no-classes": (
        "synth-gen", lambda d, c: {"datasets": {"e": {"classes": []}}}, "classes"
    ),
    "synth-zero-subjects": (
        "synth-gen",
        lambda d, c: {"datasets": {"x": {"n_subjects_per_class": 0}}},
        "n_subjects_per_class",
    ),
    "synth-zero-leads": (
        "synth-gen", lambda d, c: {"datasets": {"x": {"n_leads": 0}}}, "n_leads"
    ),
    "synth-beats-beyond-float": (
        "synth-gen",
        lambda d, c: {"datasets": {"x": {"beats_per_record": 10**400}}},
        "datasets.x: int too large to convert to float",
    ),
    "synth-rate-gives-no-sample": (
        "synth-gen",
        lambda d, c: {"datasets": {"x": {"sampling_rate_hz": 0.01}}},
        "datasets.x: 12 beats at 0.01 Hz give no sample",
    ),
    # augmentation parameters, checked by AugmentationSpec alone
    "augmentation-extra-parameter": (
        "augment-preview",
        lambda d, c: preview(d, "GaussianNoise", {"sigma": 0.1, "sigmaa": 5}),
        "'sigmaa'",
    ),
    "augmentation-missing-parameter": (
        "augment-preview", lambda d, c: preview(d, "Masking", {"a_pct": 10}), "'b_pct'"
    ),
    "augmentation-bool-segments": (
        "augment-preview",
        lambda d, c: preview(d, "TimeWarping", {"w": True, "r_pct": 10}),
        "'w' must be a finite number",
    ),
    "augmentation-string-value": (
        "pretrain",
        lambda d, c: pre(d, augmentation={"kind": "EmgNoise", "params": {"sigma": "0.1"}}),
        "'sigma' must be a finite number",
    ),
    "augmentation-out-of-range": (
        "augment-preview",
        lambda d, c: preview(d, "ChannelScaling", {"a": 2, "b": 1}),
        "invalid parameters for ChannelScaling",
    ),
    # stretched segments that would fill the whole window
    "time-warp-stretch-beyond-window": (
        "augment-preview",
        lambda d, c: preview(d, "TimeWarping", {"w": 3, "r_pct": 60}),
        "r_pct must be below 50 for w = 3",
    ),
    "time-warp-stretch-beyond-window-pretrain": (
        "pretrain",
        lambda d, c: pre(d, augmentation={"kind": "TimeWarping", "params": {"w": 2, "r_pct": 150}}),
        "r_pct must be below 100 for w = 2",
    ),
    # a warp that cannot fit the window, refused before the data load
    "time-warp-more-segments-than-window": (
        "pretrain",
        lambda d, c: pre(d, augmentation={"kind": "TimeWarping", "params": {"w": 200, "r_pct": 10}}),
        "TimeWarping does not fit window_len 250",
    ),
    "time-warp-squeeze-below-one-sample": (
        "pretrain",
        lambda d, c: pre(
            d, window_len=23, augmentation={"kind": "TimeWarping", "params": {"w": 5, "r_pct": 60}}
        ),
        "TimeWarping does not fit window_len 23",
    ),
    # every recipe of Combination's pool, not only those one draw picks
    "combination-time-warp-beyond-window": (
        "pretrain",
        lambda d, c: pre(
            d, window_len=1, encoder={"conv_blocks": [[4, 1, 1]]},
            augmentation={"kind": "Combination", "params": {}},
        ),
        "TimeWarping does not fit window_len 1 in Combination",
    ),
    "time-warp-more-segments-than-record": (
        "augment-preview",
        lambda d, c: preview(d, "TimeWarping", {"w": 1000, "r_pct": 10}),
        "TimeWarping does not fit the record's 640 samples",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_naming_the_setting(case, data_dir, pretrain_dir, tmp_path, capsys):
    command, make, named = BAD_CONFIGS[case]
    config = make(data_dir, pretrain_dir / "checkpoint.ckpt")
    code, line = run_failing(command, config, tmp_path, capsys)
    assert code == 2, line
    assert line.startswith("config error: ") and named in line, line


# config dataclass -> (command, its config with the field `key` of that
# dataclass set to `value`)
FLOAT_FIELD_PLACES = {
    cli._Config: ("pretrain", lambda d, c, key, value: pre(d, **{key: value})),
    th.PretrainConfig: ("pretrain", lambda d, c, key, value: pre(d, pretrain={key: value})),
    th.FinetuneConfig: ("lineval", lambda d, c, key, value: lin(d, c, finetune={key: value})),
    signal_core.SyntheticEcgConfig: (
        "synth-gen", lambda d, c, key, value: {"datasets": {"x": {key: value}}}
    ),
}
# the dataclasses of the config schema
SCHEMA = (cli._Config, cli._Cohort, th.PretrainConfig, th.FinetuneConfig,
          EncoderConfig, signal_core.SyntheticEcgConfig, AugmentationSpec)


def float_fields(cls):
    """(key, item count) of each float field of `cls`; the count is None
    for a lone float."""
    for key, hint in cli._hints(cls).items():
        if hint is float:
            yield key, None
        elif get_origin(hint) is tuple and get_args(hint)[0] is float:
            yield key, len(get_args(hint))


def test_every_float_field_has_a_place():
    for cls in SCHEMA:
        assert cls in FLOAT_FIELD_PLACES or not list(float_fields(cls)), cls.__name__


# what json.load reads for JSON's NaN, Infinity and -Infinity
NONFINITE = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}


@pytest.mark.parametrize("token", sorted(NONFINITE))
@pytest.mark.parametrize("cls, key, count", [
    pytest.param(cls, key, count, id=f"{cls.__name__}.{key}")
    for cls in FLOAT_FIELD_PLACES for key, count in float_fields(cls)
])
def test_nonfinite_float_exits_2(cls, key, count, token, data_dir, pretrain_dir, tmp_path, capsys):
    command, make = FLOAT_FIELD_PLACES[cls]
    value = NONFINITE[token]
    # in a list, the first item is the non-finite one
    setting, name = (value, key) if count is None else ([value] + [0.5] * (count - 1), f"{key}[0]")
    config = make(data_dir, pretrain_dir / "checkpoint.ckpt", key, setting)
    assert token in json.dumps(config)
    code, line = run_failing(command, config, tmp_path, capsys)
    assert code == 2, line
    assert line.startswith("config error: "), line
    assert line.endswith(f"{name} must be a finite number, got {value!r}"), line


def test_out_of_memory_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(config):
        # what numpy raises for an array beyond memory; nothing is allocated
        raise MemoryError(
            "Unable to allocate 7.15 TiB for an array with shape (100000000, 9600) "
            "and data type float64"
        )

    monkeypatch.setattr(signal_core, "generate_synthetic", exhausted)
    config = {"datasets": {"x": {"n_leads": 100_000_000}}}
    code, line = run_failing("synth-gen", config, tmp_path, capsys)
    assert code == 4, line
    assert line.startswith("runtime error: out of memory: Unable to allocate 7.15 TiB"), line
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["exit_code"] == 4
    assert manifest["error"] == line


# BYOL's loss stops at its target projections and SwAV's at the Sinkhorn
# scores, before any loss value exists
@pytest.mark.parametrize(
    "command, method",
    [("pretrain", "SimCLR"), ("finetune", None), ("pretrain", "BYOL"), ("pretrain", "SwAV")],
    ids=["pretrain", "finetune", "pretrain-BYOL", "pretrain-SwAV"],
)
def test_nonfinite_training_step_exits_4_with_one_line(
    command, method, data_dir, pretrain_dir, tmp_path, capsys, monkeypatch
):
    adam_step = th.adam_step

    def poisoned(state, params):  # so the second step's loss is NaN
        adam_step(state, params)
        params["conv0.weight"].data[0] = np.nan

    monkeypatch.setattr(th, "adam_step", poisoned)
    if command == "pretrain":
        config = pre(data_dir, method=method, pretrain={"epochs": 1, "batch_size": 8, "n_prototypes": 4})
    else:
        config = lin(data_dir, pretrain_dir / "checkpoint.ckpt", finetune={"batch_size": 8})
    code, line = run_failing(command, config, tmp_path, capsys)
    assert code == 4, line
    assert line == "runtime error: non-finite training loss at epoch 0, step 1", line
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_code"] == 4 and manifest["error"] == line


# case -> (file kind, bytes kept)
CORRUPT_FILES = {
    "esig-12-bytes": ("esig", 12),
    "esig-100-bytes": ("esig", 100),
    "checkpoint-10-bytes": ("ckpt", 10),
    "checkpoint-40-bytes": ("ckpt", 40),
}


def corrupt_config(kind, path, data_dir):
    if kind == "esig":
        return "augment-preview", {"record": str(path)}
    return "distshift", shift(data_dir, path)


@pytest.mark.parametrize("case", sorted(CORRUPT_FILES))
def test_truncated_file_exits_3_naming_the_file(case, data_dir, pretrain_dir, tmp_path, capsys):
    kind, size = CORRUPT_FILES[case]
    whole = (
        sorted((data_dir / "cohortA" / "records").glob("*.esig"))[0]
        if kind == "esig"
        else pretrain_dir / "checkpoint.ckpt"
    )
    cut = tmp_path / f"cut.{kind}"
    cut.write_bytes(whole.read_bytes()[:size])
    command, config = corrupt_config(kind, cut, data_dir)
    code, line = run_failing(command, config, tmp_path, capsys)
    assert code == 3, line
    assert line.startswith("data error: ") and str(cut) in line, line


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_bytes(b'{"seed": "\xff"}')
    assert run("synth-gen", bad, tmp_path / "out") == 2
    assert "malformed config" in capsys.readouterr().err


def test_window_longer_than_records_is_data_error(data_dir, tmp_path, capsys):
    code, line = run_failing("pretrain", pre(data_dir, window_len=5000), tmp_path, capsys)
    assert code == 3 and "5000-sample windows" in line, line


def copy_cohort(data_dir, to: Path) -> Path:
    (to / "records").mkdir(parents=True)
    for f in sorted((data_dir / "cohortA" / "records").glob("*.esig")):
        (to / "records" / f.name).write_bytes(f.read_bytes())
    (to / "labels.csv").write_bytes((data_dir / "cohortA" / "labels.csv").read_bytes())
    return to


def test_dataset_without_records_is_data_error(tmp_path, capsys):
    records = tmp_path / "cohort" / "records"
    records.mkdir(parents=True)
    code, line = run_failing("pretrain", pre(tmp_path, dataset=str(records.parent)), tmp_path, capsys)
    assert code == 3 and f"no .esig records found under {records}" in line, line


def test_truncated_record_in_dataset_is_data_error(data_dir, pretrain_dir, tmp_path, capsys):
    cohort = copy_cohort(data_dir, tmp_path / "cohort")
    victim = sorted((cohort / "records").glob("*.esig"))[3]
    victim.write_bytes(victim.read_bytes()[:-4])
    config = lin(tmp_path, pretrain_dir / "checkpoint.ckpt", dataset=str(cohort))
    code, line = run_failing("lineval", config, tmp_path, capsys)
    assert code == 3 and victim.name in line, line


def test_record_too_short_to_resample_is_data_error(data_dir, tmp_path, capsys):
    cohort = copy_cohort(data_dir, tmp_path / "cohort")
    short = signal_core.EcgRecord("short", np.ones((1, 2)), 500.0, signal_core.LabelSet((), ()))
    signal_core.write_record_binary(cohort / "records" / "short.esig", short)
    code, line = run_failing("pretrain", pre(data_dir, dataset=str(cohort)), tmp_path, capsys)
    assert code == 3 and "short.esig: 2 samples at 500 Hz give no sample" in line, line


@pytest.mark.parametrize("rate", [1e300, float("nan"), float("inf"), 0.0, 20_000.0, 1e-300, 0.01])
def test_bad_record_rate_is_data_error(rate, data_dir, tmp_path, capsys):
    cohort = copy_cohort(data_dir, tmp_path / "cohort")
    victim = sorted((cohort / "records").glob("*.esig"))[3]
    blob = bytearray(victim.read_bytes())
    struct.pack_into("<d", blob, 20, rate)  # after the magic, version, leads and samples
    victim.write_bytes(blob)
    code, line = run_failing("pretrain", pre(data_dir, dataset=str(cohort)), tmp_path, capsys)
    assert code == 3 and str(victim) in line and "sampling rate" in line, line


@pytest.mark.parametrize("labels", ["", "record_id,classes\nr1\n"])
def test_corrupt_label_file_is_data_error(labels, data_dir, tmp_path, capsys):
    cohort = copy_cohort(data_dir, tmp_path / "cohort")
    (cohort / "labels.csv").write_text(labels)
    code, line = run_failing("pretrain", pre(data_dir, dataset=str(cohort)), tmp_path, capsys)
    assert code == 3 and str(cohort / "labels.csv") in line and "line " in line, line


@pytest.mark.parametrize(
    "content", ["{}", "not json", "[1]", '{"metrics": [0.5]}', b"\xff\xfe{",
                '{"metrics": {}, "per_class_f1": [0.5]}']
)
def test_corrupt_metrics_file_is_data_error(content, tmp_path, capsys):
    bad = tmp_path / "runs" / "x" / "metrics.json"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, line = run_failing("report", {"scan_dir": str(tmp_path / "runs")}, tmp_path, capsys)
    assert code == 3 and str(bad) in line, line


class TestManifest:
    def test_success_is_ok(self, pretrain_dir):
        manifest = json.loads((pretrain_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert set(manifest) == {"command", "config", "config_hash", "seed", "status"}

    def test_failure_records_code_and_message(self, data_dir, tmp_path, capsys):
        code, line = run_failing("pretrain", pre(data_dir, methd="BYOL"), tmp_path, capsys)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == code == 2
        assert manifest["error"] == line
        assert manifest["config"]["methd"] == "BYOL"

    def test_failed_rerun_replaces_an_ok_manifest(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        good = write_config(tmp_path / "good.json", {"record": str(
            sorted((data_dir / "cohortA" / "records").glob("*.esig"))[0]
        )})
        assert run("augment-preview", good, out) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
        bad = write_config(tmp_path / "bad.json", {"record": str(tmp_path / "none.esig")})
        assert run("augment-preview", bad, out) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["exit_code"] == 3

    def test_interrupt_exits_130_with_one_line_and_a_failed_manifest(
        self, data_dir, pretrain_dir, tmp_path, capsys, monkeypatch
    ):
        calls = []
        adam_step = th.adam_step

        def interrupted(state, params):  # Ctrl-C during the second step
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            adam_step(state, params)

        monkeypatch.setattr(th, "adam_step", interrupted)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_bytes((pretrain_dir / "manifest.json").read_bytes())
        try:
            code, line = run_failing("pretrain", pre(data_dir, pretrain={"batch_size": 8}), tmp_path, capsys)
        except KeyboardInterrupt:  # which would end the whole test session
            pytest.fail("KeyboardInterrupt escaped cli.main")
        assert (code, line) == (130, "interrupted")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["exit_code"] == 130
        assert manifest["error"] == "interrupted"
        assert not (out / ".lock").exists()

    def test_killed_run_leaves_running_not_an_earlier_ok(self, data_dir, pretrain_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_bytes((pretrain_dir / "manifest.json").read_bytes())
        cfg = write_config(tmp_path / "long.json", pre(data_dir, pretrain={"epochs": 100000, "batch_size": 8}))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        child = subprocess.Popen(
            [sys.executable, "-m", "ecgssl.cli", "pretrain", "--config", str(cfg), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

        def status():
            try:
                return json.loads((out / "manifest.json").read_text())["status"]
            except json.JSONDecodeError:  # read while being written
                return None

        try:
            # wait until the run has replaced the old manifest, or give up
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and child.poll() is None and status() != "running":
                time.sleep(0.05)
            assert child.poll() is None, "the run ended before it was killed"
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
        assert status() == "running"

    def test_sigterm_exits_143_with_one_line_and_a_failed_manifest(self, data_dir, tmp_path):
        out = tmp_path / "out"
        with live_pretrain(data_dir, tmp_path, out, stderr=subprocess.PIPE) as child:
            running = read_manifest(out)
            child.send_signal(signal.SIGTERM)
            _, err = child.communicate(timeout=30)
        assert running.get("status") == "running", running
        assert set(running) == {"command", "config", "config_hash", "seed", "status"}
        assert (child.returncode, err) == (143, "terminated\n")
        final = read_manifest(out)
        assert (final["status"], final["exit_code"], final["error"]) == ("failed", 143, "terminated")
        assert not (out / ".lock").exists()

    def test_numpy_random_is_loaded_before_the_sigterm_handler_is_set(self, tmp_path):
        # numpy loads numpy.random on first use under a bare `except`, which
        # would swallow a SIGTERM that arrives meanwhile
        script = f"""
import signal, sys
from ecgssl import cli
before = "numpy.random" in sys.modules
seen = []
set_handler = signal.signal
def spy(signum, handler):
    if signum == signal.SIGTERM and not seen:
        seen.append("numpy.random" in sys.modules)
    return set_handler(signum, handler)
signal.signal = spy
cli.main(["synth-gen", "--config", {str(tmp_path / "nope.json")!r}, "--out", {str(tmp_path / "out")!r}])
print(before, seen)
"""
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.split() == ["False", "[True]"], done.stderr

    def test_handlers_are_restored_and_set_only_on_the_main_thread(self, tmp_path, capsys):
        before = signal.getsignal(signal.SIGTERM), warnings.showwarning
        assert run("synth-gen", tmp_path / "nope.json", tmp_path / "a") == 2
        assert (signal.getsignal(signal.SIGTERM), warnings.showwarning) == before
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(run("synth-gen", tmp_path / "nope.json", tmp_path / "b"))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and codes == [2]

    def test_warnings_print_as_one_line_each(self, data_dir, tmp_path, capsys):
        # batches of 8 are below SwAV's 30 prototypes, which warns
        config = pre(data_dir, method="SwAV", pretrain={"epochs": 2, "batch_size": 8})
        cfg = write_config(tmp_path / "swav.json", config)
        assert run("pretrain", cfg, tmp_path / "out") == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(
            re.fullmatch(r"warning: batch size \d+ below prototype count 30; codes may be noisy", line)
            for line in lines
        ), lines

    def test_unreadable_config_still_leaves_a_record(self, tmp_path, capsys):
        assert run("synth-gen", tmp_path / "nope.json", tmp_path / "out") == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["config"] is None


def read_manifest(out) -> dict:
    try:
        return json.loads((out / "manifest.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError):  # not yet written, or being written
        return {}


@contextlib.contextmanager
def live_pretrain(data_dir, tmp_path, out, stderr=subprocess.DEVNULL):
    """A `pretrain` child into `out` that trains until it is stopped,
    yielded once its running manifest exists; killed on exit if still alive."""
    cfg = write_config(tmp_path / "long.json", pre(data_dir, pretrain={"epochs": 100000, "batch_size": 8}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.Popen(
        [sys.executable, "-m", "ecgssl.cli", "pretrain", "--config", str(cfg), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=stderr, text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and child.poll() is None and not read_manifest(out):
            time.sleep(0.05)
        assert child.poll() is None, "the run ended before it was stopped"
        yield child
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


class TestOutputLock:
    def test_second_live_run_is_refused_with_one_line(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        with live_pretrain(data_dir, tmp_path, out) as child:
            running = read_manifest(out)
            code, line = run_failing("augment-preview", preview(data_dir, "Negation", {}), tmp_path, capsys)
            after = read_manifest(out)
            lock = (out / ".lock").read_text()
        holder = f"{child.pid} {os.uname().nodename}"
        assert (code, line) == (75, f"busy: {out} is the output directory of a live run ({holder})")
        assert after == running and running["status"] == "running"  # its manifest left alone
        assert lock == holder

    def test_lock_held_in_this_process_is_refused(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        with open(out / ".lock", "w") as f:
            f.write("4242 elsewhere")
            f.flush()
            fcntl.flock(f, fcntl.LOCK_EX)
            code, line = run_failing("augment-preview", preview(data_dir, "Negation", {}), tmp_path, capsys)
            assert (out / ".lock").read_text() == "4242 elsewhere"
        assert (code, line) == (75, f"busy: {out} is the output directory of a live run (4242 elsewhere)")
        assert not (out / "manifest.json").exists()

    def test_lock_of_a_gone_run_is_taken_over(self, data_dir, tmp_path):
        gone = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(f"{int(gone.stdout)} {os.uname().nodename}")
        cfg = write_config(tmp_path / "cfg.json", preview(data_dir, "Negation", {}))
        assert run("augment-preview", cfg, out) == 0
        assert read_manifest(out)["status"] == "ok"
        assert not (out / ".lock").exists()

    # a file that no process holds is a leftover, whatever it reads
    @pytest.mark.parametrize(
        "text", [f"{os.getpid()} {os.uname().nodename}", "1 another-host", "garbage", ""],
        ids=["live-here", "other-host", "unreadable", "being-written"],
    )
    def test_leftover_lock_is_taken_over(self, text, data_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(text)
        cfg = write_config(tmp_path / "cfg.json", preview(data_dir, "Negation", {}))
        assert run("augment-preview", cfg, out) == 0
        assert read_manifest(out)["status"] == "ok"
        assert not (out / ".lock").exists()

    def test_finished_runs_leave_no_lock(self, pretrain_dir, tmp_path):
        assert not (pretrain_dir / ".lock").exists()
        assert run("synth-gen", tmp_path / "nope.json", tmp_path / "out") == 2
        assert not (tmp_path / "out" / ".lock").exists()

    def test_filesystem_without_flock_exits_4_with_one_line(self, data_dir, tmp_path, capsys, monkeypatch):
        def unsupported(fd, operation):
            raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))

        monkeypatch.setattr(cli.fcntl, "flock", unsupported)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text('{"status": "running"}')  # another run's
        code, line = run_failing("augment-preview", preview(data_dir, "Negation", {}), tmp_path, capsys)
        assert (code, line) == (4, f"runtime error: cannot lock {out / '.lock'}: "
                                   f"{os.strerror(errno.EOPNOTSUPP)}")
        assert (out / "manifest.json").read_text() == '{"status": "running"}'

    def test_threads_never_hold_it_together(self, tmp_path):
        # flock excludes separate opens of the file within one process too
        guard, inside, most, taken, errors = threading.Lock(), [0], [0], [0], []

        def take_and_release(times):
            try:
                deadline = time.monotonic() + 60
                while times and time.monotonic() < deadline:
                    with contextlib.ExitStack() as held:
                        if cli._lock(tmp_path, held) is not None:
                            continue
                        with guard:
                            inside[0] += 1
                            most[0] = max(most[0], inside[0])
                        time.sleep(0)  # let the other threads try meanwhile
                        with guard:
                            inside[0] -= 1
                            taken[0] += 1
                        times -= 1
            except Exception as e:  # reported by the test thread
                errors.append(e)

        workers = [threading.Thread(target=take_and_release, args=(200,)) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside _lock too
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=90)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == [] and (most[0], taken[0]) == (1, 8 * 200)
        assert not (tmp_path / ".lock").exists()


def tree(root: Path) -> dict:
    """{path relative to root: bytes} of every file below root."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def plant(root: Path, names) -> dict:
    """Write each of `names` below root, as a killed run might have left it."""
    for name in names:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(f"partial {name}")
    return tree(root)


class TestLeftoverTemporaryFiles:
    # `atomic_open`'s temporary files, which a SIGKILL leaves behind
    LEFTOVER = ["metrics.json.4242.tmp", "finetuned.ckpt.7.tmp", "manifest.json.123456.tmp"]
    # not of that form, or below another run's output directory
    FOREIGN = ["notes.tmp", "metrics.json.12a.tmp", "metrics.json.tmp", "sub/metrics.json.77.tmp"]

    def test_lineval_rerun_removes_them(self, data_dir, pretrain_dir, tmp_path):
        cfg = write_config(tmp_path / "lin.json", lin(
            data_dir, pretrain_dir / "checkpoint.ckpt",
            fractions=[0.6, 0.2, 0.2], finetune={"epochs": 1, "batch_size": 8},
        ))
        assert run("lineval", cfg, tmp_path / "clean", seed=2) == 0
        kept = plant(tmp_path / "out", self.FOREIGN)
        plant(tmp_path / "out", self.LEFTOVER)
        assert run("lineval", cfg, tmp_path / "out", seed=2) == 0
        assert tree(tmp_path / "out") == tree(tmp_path / "clean") | kept

    def test_synth_gen_rerun_removes_them_from_each_cohort(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json", {"datasets": {"c1": {
            "classes": ["normal"], "n_subjects_per_class": 2, "beats_per_record": 8,
        }}})
        assert run("synth-gen", cfg, tmp_path / "clean", seed=3) == 0
        kept = plant(tmp_path / "out", self.FOREIGN + [
            "c2/labels.csv.5.tmp", "c1/records/sub/x.esig.6.tmp", "c1/notes.tmp",
        ])
        plant(tmp_path / "out", self.LEFTOVER + ["c1/labels.csv.8.tmp", "c1/records/s0.esig.9.tmp"])
        assert run("synth-gen", cfg, tmp_path / "out", seed=3) == 0
        assert tree(tmp_path / "out") == tree(tmp_path / "clean") | kept


class _Unwritable(float):
    def __repr__(self):
        raise OSError("no space left on device")


def _write_checkpoint(path, fail):
    params = init_encoder_params(EncoderConfig(conv_blocks=((2, 3, 1),), embedding_dim=3,
                                               projection_dim=2, prediction_hidden=2), 0)
    if fail:  # UTF-8 cannot encode a lone surrogate: raises after the other parameters
        params.params["\ud800"] = params["conv0.bias"]
    save_checkpoint(path, params)


def _write_log(path, fail):
    last = _Unwritable(0.5) if fail else 0.5
    th.TrainingLog([th.LogEntry(0, 1.0, 2.0), th.LogEntry(1, last, 2.0)]).to_csv(path)


def _write_manifest(path, fail):
    # the error is written last and is not in the config hash: json.dump
    # raises after the other keys are written
    error = object() if fail else "no records"
    cli._write_manifest(path.parent, "pretrain", {"seed": 1}, 0, cli.EXIT_DATA, error)


def _record(fail, leads=((0.5, -0.25), (1.0, 2.0))):
    record = signal_core.EcgRecord("r1", np.array(leads), 100.0, signal_core.LabelSet((), ()))
    if fail:  # the header is written before the sample "x" fails to convert
        record.leads = np.array([[0.5, "x"]], dtype=object)
    return record


def _write_esig(path, fail):
    signal_core.write_record_binary(path, _record(fail))


def _write_record_csv(path, fail):
    signal_core.write_record_csv(path, _record(fail))


def _write_labels(path, fail):
    # a cut labels.csv would name a class that is not there
    signal_core.write_label_sidecar(path, {"r1": ["normal"], "r2": [1 if fail else "fast_rate"]})


@pytest.mark.parametrize("name, write", [
    ("model.ckpt", _write_checkpoint), ("log.csv", _write_log), ("manifest.json", _write_manifest),
    ("r1.esig", _write_esig), ("augmented.csv", _write_record_csv), ("labels.csv", _write_labels),
])
def test_a_write_that_fails_midway_keeps_the_old_file(tmp_path, name, write):
    path = tmp_path / name
    write(path, fail=False)
    before = path.read_bytes()
    with pytest.raises((OSError, TypeError, ValueError)):
        write(path, fail=True)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]  # no temporary file left behind


def test_report_per_class_tells_pretraining_sets_apart(tmp_path):
    runs = tmp_path / "runs"
    for pretrain_set in ("cohortA", "cohortB"):
        (runs / pretrain_set).mkdir(parents=True)
        (runs / pretrain_set / "metrics.json").write_text(json.dumps({
            "method": "SimCLR",
            "pretrain_dataset": pretrain_set,
            "test_dataset": "cohortA",
            "metrics": {"macro_f1": 0.5},
            "per_class_f1": {"normal": 0.5},
        }))
    cfg = write_config(tmp_path / "rep.json", {"scan_dir": str(runs)})
    assert run("report", cfg, tmp_path / "report") == 0
    rows = (tmp_path / "report" / "report_per_class.csv").read_text().strip().splitlines()
    assert rows == [
        "method,pretrain_set,test_set,class,f1",
        "SimCLR,cohortA,cohortA,normal,0.5",
        "SimCLR,cohortB,cohortA,normal,0.5",
    ]


# ---------------------------------------------------------------------------
# fuzz: configs mutated from valid small ones, and every prefix of small files

JSON_SAMPLES = ["x", 0, 1.5, True, None, [], {}]
# dataclass field names anywhere in the schema: an added key must be none
SCHEMA_KEYS = {f.name for cls in SCHEMA for f in fields(cls)}


def valid_configs(data, ckpt):
    rec = sorted((data / "cohortA" / "records").glob("*.esig"))[0]
    return {
        "synth-gen": {
            "datasets": {"a": {"classes": ["normal"], "n_subjects_per_class": 1,
                               "beats_per_record": 4, "bump_amplitudes": [0.5, 0.5, 0.7]}}
        },
        "augment-preview": {
            "record": str(rec), "augmentation": {"kind": "Masking",
                                                 "params": {"a_pct": 10.0, "b_pct": 20.0}},
        },
        "pretrain": pre(data, method="BYOL", fractions=[0.6, 0.2, 0.2],
                        augmentation={"kind": "GaussianNoise", "params": {"sigma": 0.1}},
                        target_hz=100, window_len=250, standardize_windows=True,
                        pretrain={"epochs": 1, "batch_size": 8, "lr": 0.001}),
        "finetune": lin(data, ckpt, fractions=[0.6, 0.2, 0.2],
                        finetune={"epochs": 1, "batch_size": 8, "freeze_encoder": False}),
        # lineval sets finetune.freeze_encoder itself
        "lineval": lin(data, ckpt, fractions=[0.6, 0.2, 0.2],
                       finetune={"epochs": 1, "batch_size": 8, "lr": 0.01}),
        "distshift": {"checkpoint": str(ckpt), "dataset_ref": str(data / "cohortA"),
                      "dataset_other": str(data / "cohortB"), "resolution": 32},
    }


def paths_of(obj, at=()):
    """Every (path, value) below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield at + (key,), value
        if isinstance(value, (dict, list)):
            yield from paths_of(value, at + (key,))


def wrong_types(value):
    """JSON values no field holding `value` accepts."""
    if type(value) is float:
        ok = (int, float)
    elif type(value) is int:
        ok = (int,)
    else:
        ok = (type(value),)
    return [v for v in JSON_SAMPLES if type(v) not in ok]


def mutate(config, data, command):
    """(a copy of `config` with one thing changed, drawn from `data`, and
    the kind of change). Every change but a "range" one makes it wrong."""
    config = json.loads(json.dumps(config))
    kind = data.draw(st.sampled_from(["type", "key", "missing", "object", "range"]),
                     label="kind")
    if kind == "missing":
        needs = list(cli._COMMANDS[command][1])
        if "augmentation" in config:
            needs.append(("augmentation", "kind"))
            needs += [("augmentation", "params", k) for k in config["augmentation"]["params"]]
        key = data.draw(st.sampled_from(needs), label="missing")
        at, key = ((), key) if isinstance(key, str) else (key[:-1], key[-1])
        parent = config
        for k in at:
            parent = parent[k]
        del parent[key]
        return config, kind
    if kind == "range":
        numbers = [p for p, v in paths_of(config) if type(v) in (int, float)]
        at = data.draw(st.sampled_from(numbers), label="number")
        value = data.draw(st.sampled_from([0, -1, 1e300]), label="value")
    elif kind == "object":
        objects = [()] + [p for p, v in paths_of(config) if isinstance(v, dict)]
        at = data.draw(st.sampled_from(objects), label="object")
        value = data.draw(st.sampled_from([v for v in JSON_SAMPLES if type(v) is not dict]))
    else:
        paths = list(paths_of(config))
        if kind == "key":
            objects = [()] + [p for p, v in paths if isinstance(v, dict)]
            parent_at = data.draw(st.sampled_from(objects), label="object")
            parent = config
            for k in parent_at:
                parent = parent[k]
            base = data.draw(st.sampled_from(sorted(parent) or ["seed"]), label="near")
            i = data.draw(st.integers(0, len(base) - 1), label="cut")
            key = base[:i] + base[i + 1:] + data.draw(st.sampled_from(["", "s", "_"]))
            assume(key not in SCHEMA_KEYS and key not in parent)
            at, value = parent_at + (key,), 1
        else:
            at, old = data.draw(st.sampled_from(paths), label="path")
            value = data.draw(st.sampled_from(wrong_types(old)), label="value")
    if not at:
        return value, kind
    parent = config
    for k in at[:-1]:
        parent = parent[k]
    parent[at[-1]] = value
    return config, kind


def run_quietly(command, config_path, out_dir):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(command, config_path, out_dir)
    return code, err.getvalue().strip().splitlines()


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["synth-gen", "augment-preview", "pretrain", "finetune",
                                "lineval", "distshift"]),
       data=st.data())
def test_fuzz_mutated_configs_fail_with_one_line(command, data, data_dir, pretrain_dir):
    base = valid_configs(data_dir, pretrain_dir / "checkpoint.ckpt")
    config, kind = mutate(base[command], data, command)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        code, lines = run_quietly(command, path, Path(tmp) / "out")
    # a number moved within its range may still make a valid config
    assert code in ((0, 2, 3, 4) if kind == "range" else (2, 3, 4)), (config, lines)
    if code == 0:
        assert lines == [], lines
    else:
        assert len(lines) == 1 and "Traceback" not in lines[0], lines


def test_fuzz_valid_configs_pass(data_dir, pretrain_dir, tmp_path):
    """The fuzz's starting points are valid, so its failures are the mutations'."""
    for command, config in valid_configs(data_dir, pretrain_dir / "checkpoint.ckpt").items():
        path = write_config(tmp_path / f"{command}.json", config)
        assert run_quietly(command, path, tmp_path / command) == (0, []), command


def test_every_prefix_of_a_record_and_a_checkpoint_is_data_error(data_dir, tmp_path):
    record = signal_core.EcgRecord("r", np.arange(12.0).reshape(2, 6), 100.0,
                                   signal_core.LabelSet((), ()))
    esig = tmp_path / "whole.esig"
    signal_core.write_record_binary(esig, record)
    enc = EncoderConfig(n_leads=1, conv_blocks=((2, 3, 2),), embedding_dim=2,
                        projection_dim=2, prediction_hidden=2)
    spec = {"method": "SimCLR", "dataset": "d", "target_hz": 100.0, "window_len": 250,
            "standardize_windows": False, "encoder": asdict(enc)}
    ckpt = tmp_path / "whole.ckpt"
    save_checkpoint(ckpt, init_encoder_params(enc, 0), spec)
    cut = {"esig": tmp_path / "cut.esig", "ckpt": tmp_path / "cut.ckpt"}
    configs = {kind: write_config(tmp_path / f"{kind}.json",
                                  corrupt_config(kind, cut[kind], data_dir)[1])
               for kind in cut}
    for kind, whole in (("esig", esig), ("ckpt", ckpt)):
        blob = whole.read_bytes()
        command = corrupt_config(kind, whole, data_dir)[0]
        for n in range(len(blob)):
            cut[kind].write_bytes(blob[:n])
            code, lines = run_quietly(command, configs[kind], tmp_path / "out")
            assert code == 3 and len(lines) == 1, (kind, n, lines)
            assert str(cut[kind]) in lines[0], (kind, n, lines)


# ---------------------------------------------------------------------------
# the README's configs


def readme_configs():
    """(command, config) of every JSON config the README's CLI section runs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    files = dict(re.findall(r"cat > (\S+\.json) <<'JSON'\n(.*?)\nJSON\n", text, re.S))
    found = [
        (command, json.loads(files[name]))
        for command, name in re.findall(r"ecgssl (\S+) --config (\S+\.json)", text)
        if command in cli._COMMANDS
    ]
    found += [
        (command, json.loads(inline))
        for command, inline in re.findall(r"ecgssl (\S+) --config <\(echo '(.*?)'\)", text)
    ]
    return found


def read_for(command, config, tmp_path):
    """Everything `command` reads from `config`, read as the command reads
    it; synth-gen, which is quick, runs."""
    c = cli._read(cli._Config, config, "")
    cli._need(c, cli._COMMANDS[command][1])
    if command == "synth-gen":
        assert run(command, write_config(tmp_path / "gen.json", config), tmp_path / "gen") == 0
    if command == "pretrain":
        cli._read(th.PretrainConfig, c.pretrain, "pretrain", method=c.method,
                  augmentation=c.augmentation, seed=0)
        cli._read(EncoderConfig, {"n_leads": 1, **c.encoder}, "encoder")
    if command in ("finetune", "lineval"):
        cli._read(th.FinetuneConfig, c.finetune, "finetune", seed=0)


def test_readme_configs_pass_the_reader(tmp_path):
    found = readme_configs()
    assert sorted(command for command, _ in found) == [
        "distshift", "lineval", "pretrain", "report", "synth-gen"
    ]
    for command, config in found:
        read_for(command, config, tmp_path)


def test_every_schema_field_has_a_json_type():
    for cls in SCHEMA:
        for name, hint in cli._hints(cls).items():
            while get_origin(hint) is tuple:
                hint = get_args(hint)[0]
            assert is_dataclass(hint) or hint in cli._TYPES, (cls.__name__, name, hint)
