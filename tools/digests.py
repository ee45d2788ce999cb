"""SHA-256 of every output file of a fixed ecgssl CLI chain, one line each.

    python tools/digests.py [SRC] > digests.txt

SRC is the `src` directory of the checkout to run (default: this one's). The
chain runs in a fixed working directory under the system temp directory, at
one BLAS thread, with relative paths in every config, so two checkouts give
the same lines exactly when their outputs are byte-identical:

- synth-gen of a 1-lead 100 Hz cohort, its out-of-distribution twin, and a
  12-lead 500 Hz cohort;
- pretrain of SimCLR, BYOL and SwAV with GaussianNoise and with Combination
  on the 1-lead cohort, and of SimCLR on the 12-lead one (resampled to
  100 Hz);
- lineval and finetune of every checkpoint on its own cohort, lineval of the
  1-lead ones on the twin, distshift of the 1-lead ones against the twin,
  and report over all runs;
- in-process F1 and AUC on tie-heavy scores, written as `inproc/metrics.txt`;
- in-process `pretrain` of SimCLR, BYOL and SwAV with GaussianNoise and with
  Combination on a fixed small split, and from each encoder a frozen probe,
  full fine-tuning and a fine-tuning warm-started from the probe's head:
  the SHA-256 of every float64 parameter they return and the repr of their
  logged losses, written as `inproc/train.txt`, which also holds one epoch
  of SimCLR on the default encoder at batch size 32 and 250-sample windows.
  The CLI chain sees the parameters only through float32 checkpoints.

It fails if any output directory of the chain still holds a `.lock`.

Compare two checkouts with `diff <(python tools/digests.py a/src)
<(python tools/digests.py b/src)`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORK = Path(tempfile.gettempdir()) / "ecgssl-digests"

METHODS = ("SimCLR", "BYOL", "SwAV")
AUGMENTATIONS = {
    "GaussianNoise": {"kind": "GaussianNoise", "params": {"sigma": 0.5}},
    "Combination": {"kind": "Combination", "params": {}},
}
PRETRAIN = {"epochs": 3, "batch_size": 8}
FINETUNE = {"epochs": 3, "batch_size": 8}

# F1 and AUC of seeded scores rounded to 1-2 decimals, with signed zeros,
# so most scores tie
INPROC = """
import numpy as np
from ecgssl import metrics
g = np.random.default_rng(7)
for n, decimals in ((7, 1), (40, 1), (40, 2), (300, 2)):
    scores = np.round(g.uniform(-0.05, 1.0, (n, 3)), decimals)
    scores[scores == 0] = np.where(g.random(np.sum(scores == 0)) < 0.5, -0.0, 0.0)
    targets = g.integers(0, 2, (n, 3))
    targets[0], targets[1] = 0, 1
    pred = metrics.PredictionBatch(scores, targets)
    per_class, macro, _ = metrics.auc(pred)
    print(per_class.tobytes().hex(), repr(macro))
    print(metrics.per_class_f1(pred).tobytes().hex(),
          repr(metrics.macro_f1(pred)), repr(metrics.micro_f1(pred)))
"""

# every training path of train_harness on a tiny encoder, and the default
# encoder once; a few seconds in all
TRAIN = """
import hashlib
from ecgssl import signal_core, train_harness as th
from ecgssl.augment import AugmentationSpec
from ecgssl.diffcore import EncoderConfig
records = [r for j, c in enumerate(signal_core.SYNTH_CLASSES) for r in signal_core.generate_synthetic(
    signal_core.SyntheticEcgConfig(n_subjects=2, class_id=c, beats_per_record=8, seed=11 + j))]
split = signal_core.split_by_subject(records, (0.5, 0.25, 0.25), 3)
split = signal_core.split_windows(split, 80, standardize=True)
enc = EncoderConfig(n_leads=1, conv_blocks=((4, 5, 2), (8, 5, 2)), embedding_dim=8,
                    projection_dim=4, prediction_hidden=4)

def show(case, params, log):
    print(case)
    for name in params.names():
        data = params[name].data
        assert data.dtype == "float64", (case, name, data.dtype)
        print(" ", name, hashlib.sha256(data.tobytes()).hexdigest())
    print(" ", repr([(e.train_loss, e.val_loss, e.val_macro_f1) for e in log.entries]))

for method in th.METHODS:
    for kind, params in (("GaussianNoise", {"sigma": 0.5}), ("Combination", {})):
        pc = th.PretrainConfig(method=method, augmentation=AugmentationSpec(kind, params),
                               epochs=2, batch_size=8, seed=5, n_prototypes=4)
        encoder, log = th.pretrain(pc, split, enc)
        show(f"pretrain {method} {kind}", encoder, log)
        runs = (("frozen", True, None), ("unfrozen", False, None), ("warm", False, "frozen"))
        models = {}
        for name, freeze, warm in runs:
            fc = th.FinetuneConfig(epochs=2, batch_size=8, freeze_encoder=freeze, seed=5)
            models[name], log = th.finetune(encoder, fc, split, enc, init_head=models.get(warm))
            show(f"finetune {method} {kind} {name}", models[name], log)

# the default encoder at the benchmark's ssl-train shapes: 250-sample windows,
# batches of 32 (66 training windows)
records = [r for j, c in enumerate(signal_core.SYNTH_CLASSES) for r in signal_core.generate_synthetic(
    signal_core.SyntheticEcgConfig(n_subjects=7, class_id=c, beats_per_record=12, seed=21 + j))]
split = signal_core.split_by_subject(records, (0.8, 0.1, 0.1), 3)
split = signal_core.split_windows(split, 250, standardize=False)
pc = th.PretrainConfig(method="SimCLR", epochs=1, batch_size=32, seed=5)
show("pretrain SimCLR default encoder", *th.pretrain(pc, split, EncoderConfig()))
"""


def main(argv) -> int:
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1")
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "inproc").mkdir(parents=True)

    def run(command, out, config, seed=0):
        cfg = WORK / "configs" / f"{out.replace('/', '_')}.json"
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_text(json.dumps(config))
        args = ["-m", "ecgssl.cli", command, "--config", str(cfg.relative_to(WORK)),
                "--out", out, "--seed", str(seed)]
        done = subprocess.run([sys.executable, *args], cwd=WORK, env=env,
                              capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"{command} {out} exited {done.returncode}: {done.stderr.strip()}")

    run("synth-gen", "data", {"datasets": {
        "id": {"n_subjects_per_class": 3},
        "ood": {"n_subjects_per_class": 3, "noise_sigma": 0.25, "bump_amplitudes": [0.5, 0.5, 0.7]},
        "multi": {"n_subjects_per_class": 3, "n_leads": 12, "sampling_rate_hz": 500.0},
    }}, seed=7)
    runs = [(m, a, "data/id") for m in METHODS for a in AUGMENTATIONS]
    runs.append(("SimCLR", "GaussianNoise", "data/multi"))
    for method, aug, data in runs:
        run_dir = f"runs/{method}-{aug}-{data.split('/')[1]}"
        run("pretrain", f"{run_dir}/pre", {
            "dataset": data, "method": method, "augmentation": AUGMENTATIONS[aug],
            "standardize_windows": True, "pretrain": PRETRAIN,
        })
        ckpt = f"{run_dir}/pre/checkpoint.ckpt"
        for command in ("lineval", "finetune"):
            run(command, f"{run_dir}/{command}",
                {"dataset": data, "checkpoint": ckpt, "finetune": FINETUNE})
        if data == "data/id":
            run("lineval", f"{run_dir}/lineval-ood",
                {"dataset": "data/ood", "checkpoint": ckpt, "finetune": FINETUNE})
            run("distshift", f"{run_dir}/shift",
                {"checkpoint": ckpt, "dataset_ref": "data/id", "dataset_other": "data/ood"})
    run("report", "runs/report", {"scan_dir": "runs"})

    done = subprocess.run([sys.executable, "-c", INPROC], env=env,
                          capture_output=True, text=True, check=True)
    (WORK / "inproc" / "metrics.txt").write_text(done.stdout)
    done = subprocess.run([sys.executable, "-c", TRAIN], env=env,
                          capture_output=True, text=True, check=True)
    (WORK / "inproc" / "train.txt").write_text(done.stdout)
    # every run of the chain has ended, so none may still hold its directory
    locks = sorted(str(p.relative_to(WORK)) for p in WORK.rglob(".lock"))
    if locks:
        sys.exit("lock files left behind: " + ", ".join(locks))

    for path in sorted(p for p in WORK.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(WORK)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
