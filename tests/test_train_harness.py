import numpy as np
import pytest

from ecgssl import diffcore as dc
from ecgssl import train_harness as th
from ecgssl.augment import AugmentationSpec
from ecgssl.signal_core import DatasetSplit, LabelSet, Window
from ecgssl.ssl_objectives import PrototypeBank

CLASSES = ("slow", "fast")


def make_split(rng, n_train=24, n_val=8, n_test=8, n=80):
    """Two easily separable classes: slow vs fast sinusoids."""

    def windows(count, tag):
        out = []
        for i in range(count):
            cls = i % 2
            freq = 2.0 if cls == 0 else 12.0
            t = np.arange(n)
            x = np.sin(2 * np.pi * freq * t / n + rng.uniform(0, 6))
            x = x[None, :] + 0.05 * rng.standard_normal((1, n))
            labels = LabelSet(CLASSES, (1 - cls, cls))
            out.append(Window(x, f"{tag}{i}", labels))
        return out

    return DatasetSplit(windows(n_train, "tr"), windows(n_val, "va"), windows(n_test, "te"))


def tiny_cfg():
    return dc.EncoderConfig(
        n_leads=1,
        conv_blocks=((4, 5, 2), (8, 5, 2)),
        embedding_dim=8,
        projection_dim=4,
        prediction_hidden=4,
    )


def quick_pretrain_cfg(method, epochs=2):
    return th.PretrainConfig(
        method=method,
        augmentation=AugmentationSpec("GaussianNoise", {"sigma": 0.1}),
        epochs=epochs,
        batch_size=8,
        seed=3,
        n_prototypes=4,
        sinkhorn_epsilon=0.5,
        sinkhorn_iters=10,
    )


class TestConfigs:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            th.PretrainConfig(method="MoCo")

    def test_tiny_batch_rejected_for_contrastive(self):
        with pytest.raises(ValueError):
            th.PretrainConfig(method="SimCLR", batch_size=1)

    def test_byol_allows_batch_of_one(self):
        th.PretrainConfig(method="BYOL", batch_size=1)

    def test_bad_finetune_lr(self):
        with pytest.raises(ValueError):
            th.FinetuneConfig(lr=0.0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_finetune_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            th.FinetuneConfig(**{field: 0})


class TestPretrain:
    @pytest.mark.parametrize("method", th.METHODS)
    def test_runs_and_logs(self, method):
        split = make_split(np.random.default_rng(0))
        params, log = th.pretrain(quick_pretrain_cfg(method), split, tiny_cfg())
        assert params is not None
        assert len(log.entries) == 2
        assert all(np.isfinite(e.train_loss) for e in log.entries)

    @pytest.mark.parametrize("method", th.METHODS)
    def test_deterministic_rerun(self, method):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(1))
        p1, l1 = th.pretrain(quick_pretrain_cfg(method), split, cfg)
        p2, l2 = th.pretrain(quick_pretrain_cfg(method), split, cfg)
        for n in p1.names():
            np.testing.assert_array_equal(p1[n].data, p2[n].data)
        assert [e.train_loss for e in l1.entries] == [e.train_loss for e in l2.entries]

    def test_seed_changes_result(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(2))
        a, _ = th.pretrain(quick_pretrain_cfg("SimCLR"), split, cfg)
        c2 = quick_pretrain_cfg("SimCLR")
        c2.seed = 99
        b, _ = th.pretrain(c2, split, cfg)
        assert any(np.any(a[n].data != b[n].data) for n in a.names())

    @pytest.mark.parametrize("method", th.METHODS)
    def test_best_checkpoint_is_min_val_loss(self, method):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(3))
        config = quick_pretrain_cfg(method, epochs=4)
        params, log = th.pretrain(config, split, cfg)
        vals = [e.val_loss for e in log.entries]
        # re-running with epochs up to the argmin must yield the same params
        config2 = quick_pretrain_cfg(method, epochs=int(np.argmin(vals)) + 1)
        params2, _ = th.pretrain(config2, split, cfg)
        for n in params.names():
            np.testing.assert_array_equal(params[n].data, params2[n].data)

    def test_empty_train_rejected(self):
        split = DatasetSplit([], [], [])
        with pytest.raises(ValueError):
            th.pretrain(quick_pretrain_cfg("SimCLR"), split, tiny_cfg())

    @pytest.mark.parametrize("n_val", [0, 1])
    def test_validation_below_min_batch_rejected(self, n_val):
        # SimCLR needs two windows per batch: with fewer validation windows
        # there is no validation loss to select an epoch by
        split = make_split(np.random.default_rng(4), n_val=n_val)
        with pytest.raises(ValueError, match="model selection undefined"):
            th.pretrain(quick_pretrain_cfg("SimCLR"), split, tiny_cfg())

    def test_batch_larger_than_data_rejected(self):
        split = make_split(np.random.default_rng(4), n_train=4)
        cfg = quick_pretrain_cfg("SimCLR")
        cfg.batch_size = 64
        with pytest.raises(ValueError, match="batch_size 64 exceeds the 4 training windows"):
            th.pretrain(cfg, split, tiny_cfg())

    @pytest.mark.parametrize(
        "method, hook",
        [("BYOL", (th, "ema_update")), ("SwAV", (PrototypeBank, "renormalize"))],
        ids=["BYOL-ema_update", "SwAV-renormalize"],
    )
    def test_hook_runs_once_after_each_adam_step(self, method, hook, monkeypatch):
        calls = []

        def record(owner, name, tag):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(tag)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        record(th, "adam_step", "adam")
        record(*hook, "hook")
        # 24 training windows in batches of 8, for 2 epochs
        th.pretrain(quick_pretrain_cfg(method), make_split(np.random.default_rng(0)), tiny_cfg())
        assert calls == ["adam", "hook"] * 3 * 2


class TestFinetune:
    def test_learns_separable_task(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(5), n_train=40)
        pretrained = dc.init_encoder_params(cfg, seed=0)
        model, log = th.finetune(
            pretrained, th.FinetuneConfig(epochs=30, batch_size=8, seed=1), split, cfg
        )
        pred = th.predict_scores(model, cfg, split.test)
        from ecgssl.metrics import macro_f1

        assert macro_f1(pred) >= 0.95

    def test_frozen_encoder_untouched(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(6))
        pretrained = dc.init_encoder_params(cfg, seed=0)
        before = {n: pretrained[n].data.copy() for n in pretrained.names()}
        model, _ = th.finetune(
            pretrained,
            th.FinetuneConfig(epochs=3, batch_size=8, freeze_encoder=True),
            split,
            cfg,
        )
        for n in pretrained.names():
            np.testing.assert_array_equal(pretrained[n].data, before[n])
            np.testing.assert_array_equal(model[n].data, before[n])

    @pytest.mark.parametrize("freeze", [False, True])
    def test_empty_train_rejected(self, freeze):
        split = make_split(np.random.default_rng(8))
        split = DatasetSplit([], split.validation, split.test)
        with pytest.raises(ValueError, match="empty training split"):
            th.finetune(
                dc.init_encoder_params(tiny_cfg(), seed=0),
                th.FinetuneConfig(freeze_encoder=freeze), split, tiny_cfg(),
            )

    def test_unfrozen_encoder_moves(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(7))
        pretrained = dc.init_encoder_params(cfg, seed=0)
        model, _ = th.finetune(
            pretrained, th.FinetuneConfig(epochs=2, batch_size=8), split, cfg
        )
        assert any(
            np.any(model[n].data != pretrained[n].data) for n in pretrained.names()
        )

    @pytest.mark.parametrize("freeze", [False, True])
    def test_best_checkpoint_is_max_val_f1(self, freeze):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(8))
        pretrained = dc.init_encoder_params(cfg, seed=0)
        config = th.FinetuneConfig(epochs=5, batch_size=8, freeze_encoder=freeze)
        model, log = th.finetune(pretrained, config, split, cfg)
        f1s = [e.val_macro_f1 for e in log.entries]
        config2 = th.FinetuneConfig(
            epochs=int(np.argmax(f1s)) + 1, batch_size=8, freeze_encoder=freeze
        )
        model2, _ = th.finetune(pretrained, config2, split, cfg)
        for n in model.names():
            np.testing.assert_array_equal(model[n].data, model2[n].data)

    def test_warm_start_kept_when_training_only_degrades(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(5), n_train=40)
        pretrained = dc.init_encoder_params(cfg, seed=0)
        probe, probe_log = th.finetune(
            pretrained,
            th.FinetuneConfig(epochs=30, batch_size=8, freeze_encoder=True),
            split,
            cfg,
        )
        # lr=10 wrecks every trained epoch, so selection falls back to the
        # warm start: the probe's head on the untouched encoder
        model, log = th.finetune(
            pretrained, th.FinetuneConfig(lr=10.0, epochs=3, batch_size=8), split, cfg,
            init_head=probe,
        )
        assert max(e.val_macro_f1 for e in log.entries) < max(
            e.val_macro_f1 for e in probe_log.entries
        )
        assert model.names() == probe.names()
        for n in probe.names():
            np.testing.assert_array_equal(model[n].data, probe[n].data)

    def test_no_validation_rejected(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(9))
        split.validation = []
        with pytest.raises(ValueError):
            th.finetune(dc.init_encoder_params(cfg, 0), th.FinetuneConfig(), split, cfg)

    def test_deterministic(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(10))
        pretrained = dc.init_encoder_params(cfg, seed=0)
        fc = th.FinetuneConfig(epochs=3, batch_size=8)
        m1, l1 = th.finetune(pretrained, fc, split, cfg)
        m2, l2 = th.finetune(pretrained, fc, split, cfg)
        for n in m1.names():
            np.testing.assert_array_equal(m1[n].data, m2[n].data)
        assert [e.val_macro_f1 for e in l1.entries] == [
            e.val_macro_f1 for e in l2.entries
        ]


def poison_after_adam_step(monkeypatch, name, step):
    """Write a NaN into parameter `name` right after Adam step `step` (from 1)."""
    calls = []
    adam_step = th.adam_step

    def poisoned(state, params):
        adam_step(state, params)
        calls.append(None)
        if len(calls) == step:
            params[name].data[0] = np.nan

    monkeypatch.setattr(th, "adam_step", poisoned)


def poison_grads_before_adam_step(monkeypatch, names, step):
    """Write an inf into the gradient of each trainable in `names` right
    before Adam step `step` (from 1)."""
    calls = []
    adam_step = th.adam_step

    def poisoned(state, params):
        calls.append(None)
        if len(calls) == step:
            for name in names:
                params[name].grad.flat[-1] = np.inf
        adam_step(state, params)

    monkeypatch.setattr(th, "adam_step", poisoned)


def pretrain_quick(method="SimCLR"):
    # 24 training windows in batches of 8: three steps an epoch
    th.pretrain(quick_pretrain_cfg(method), make_split(np.random.default_rng(0)), tiny_cfg())


class TestNonFiniteStep:
    # BYOL's loss stops at its target projections and SwAV's at the Sinkhorn
    # scores, before any loss value exists
    @pytest.mark.parametrize("method", th.METHODS)
    def test_pretrain_loss_names_epoch_and_step(self, monkeypatch, method):
        poison_after_adam_step(monkeypatch, "conv0.weight", 1)
        with pytest.raises(ValueError, match="^non-finite training loss at epoch 0, step 1$"):
            pretrain_quick(method)

    def test_other_loss_errors_pass_through(self, monkeypatch):
        def mismatched(*args):
            raise ValueError("shape mismatch between predictor output and target")

        monkeypatch.setattr(th, "byol_symmetric_loss", mismatched)
        with pytest.raises(ValueError, match="^shape mismatch between predictor output and target$"):
            pretrain_quick("BYOL")

    def test_pretrain_validation_loss_names_epoch(self, monkeypatch):
        poison_after_adam_step(monkeypatch, "embed.bias", 3)
        with pytest.raises(ValueError, match="^non-finite validation loss at epoch 0$"):
            pretrain_quick()

    # a NaN parameter stops BYOL's and SwAV's validation losses at a
    # NonFiniteError, before any loss value exists
    @pytest.mark.parametrize("method", ["BYOL", "SwAV"])
    def test_validation_stopped_at_a_nan_names_epoch(self, monkeypatch, method):
        poison_after_adam_step(monkeypatch, "embed.bias", 3)
        with pytest.raises(ValueError, match="^non-finite validation loss at epoch 0$"):
            pretrain_quick(method)

    def test_gradient_names_parameter_epoch_and_step(self, monkeypatch):
        params = dc.init_encoder_params(tiny_cfg(), quick_pretrain_cfg("SimCLR").seed)
        monkeypatch.setattr(th, "init_encoder_params", lambda cfg, seed: params)
        backward = dc.Tensor.backward
        calls = []

        def poisoned(loss):
            backward(loss)
            calls.append(None)
            if len(calls) == 5:  # epoch 1, step 1
                params["proj.fc2.bias"].grad[0] = np.inf

        monkeypatch.setattr(dc.Tensor, "backward", poisoned)
        with pytest.raises(
            ValueError, match="^non-finite gradient of proj.fc2.bias at epoch 1, step 1$"
        ):
            pretrain_quick()

    # the last trainable tensor of BYOL and of SwAV (SimCLR's is above): Adam
    # checks its gathered gradient in one pass, and the name comes from a
    # lookup only on failure
    @pytest.mark.parametrize("method, name", [("BYOL", "pred.fc2.bias"), ("SwAV", "prototypes")])
    def test_late_gradient_names_parameter_epoch_and_step(self, monkeypatch, method, name):
        poison_grads_before_adam_step(monkeypatch, [name], 5)  # epoch 1, step 1
        with pytest.raises(ValueError, match=f"^non-finite gradient of {name} at epoch 1, step 1$"):
            pretrain_quick(method)

    def test_gradient_names_first_nonfinite_in_trainable_order(self, monkeypatch):
        poison_grads_before_adam_step(monkeypatch, ["proj.fc2.bias", "embed.weight"], 2)
        with pytest.raises(ValueError, match="^non-finite gradient of embed.weight at epoch 0, step 1$"):
            pretrain_quick()

    @pytest.mark.parametrize("freeze", [False, True])
    def test_finetune_gradient_names_parameter_epoch_and_step(self, monkeypatch, freeze):
        cfg = tiny_cfg()
        config = th.FinetuneConfig(epochs=2, batch_size=8, freeze_encoder=freeze)
        poison_grads_before_adam_step(monkeypatch, ["head.bias"], 6)  # epoch 1, step 2
        with pytest.raises(ValueError, match="^non-finite gradient of head.bias at epoch 1, step 2$"):
            th.finetune(dc.init_encoder_params(cfg, 0), config, make_split(np.random.default_rng(0)), cfg)

    @pytest.mark.parametrize("freeze, name", [(False, "conv0.weight"), (True, "head.weight")])
    def test_finetune_loss_names_epoch_and_step(self, monkeypatch, freeze, name):
        cfg = tiny_cfg()
        pretrained = dc.init_encoder_params(cfg, seed=0)
        config = th.FinetuneConfig(epochs=2, batch_size=8, freeze_encoder=freeze)
        poison_after_adam_step(monkeypatch, name, 2)
        with pytest.raises(ValueError, match="^non-finite training loss at epoch 0, step 2$"):
            th.finetune(pretrained, config, make_split(np.random.default_rng(0)), cfg)


class TestLinearEval:
    def test_separable_task_high_f1(self):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(11), n_train=40)
        pretrained = dc.init_encoder_params(cfg, seed=0)
        f1, log = th.linear_eval(
            pretrained, split, cfg, th.FinetuneConfig(epochs=30, batch_size=8,
                                                      freeze_encoder=True)
        )
        assert 0.0 <= f1 <= 1.0
        assert len(log.entries) == 30

    def test_unfrozen_config_is_frozen(self, tmp_path):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(12))
        runs = []
        for freeze in (False, True):
            f1, log = th.linear_eval(
                dc.init_encoder_params(cfg, 0), split, cfg,
                th.FinetuneConfig(epochs=3, batch_size=8, freeze_encoder=freeze),
            )
            log.to_csv(tmp_path / f"{freeze}.csv")
            runs.append((f1, (tmp_path / f"{freeze}.csv").read_bytes()))
        assert runs[0] == runs[1]


class TestTrainingLogCsv:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_cfg()
        split = make_split(np.random.default_rng(13))
        fc = th.FinetuneConfig(epochs=2, batch_size=8)
        pretrained = dc.init_encoder_params(cfg, seed=0)
        _, l1 = th.finetune(pretrained, fc, split, cfg)
        _, l2 = th.finetune(pretrained, fc, split, cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        l1.to_csv(p1)
        l2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_shape(self, tmp_path):
        log = th.TrainingLog([th.LogEntry(0, 1.0, 2.0, 0.5, 3.3)])
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,split,metric,value"
        assert len(lines) == 4
        assert not any("3.3" in ln for ln in lines)  # wall time excluded
