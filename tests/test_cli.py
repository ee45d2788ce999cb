import json
import struct
from pathlib import Path

import numpy as np
import pytest

from ecgssl import distshift, signal_core
from ecgssl.cli import main
from ecgssl.diffcore import EncoderConfig, load_checkpoint


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
        loaded, spec = load_checkpoint(v1)
        assert spec is None
        for name in params.names():
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
        cfg = write_config(
            tmp_path / "lin.json",
            {"dataset": str(data_dir / "cohortA"), "checkpoint": str(v1)},
        )
        assert run("lineval", cfg, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "no run spec" in err and len(err.strip().splitlines()) == 1


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
