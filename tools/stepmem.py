"""Memory cost of one training call at the benchmark's ssl-train and
cli-multirate shapes.

    python tools/stepmem.py [SRC]

SRC is the `src` directory of the checkout to run (default: this one's).
Each shape and method runs in a fresh child process at one BLAS thread, on
its own synthetic 100 Hz cohort, 250-sample windows, split 0.8/0.1/0.1 by
subject. One call is one epoch of `train_harness.pretrain` (SimCLR, BYOL,
SwAV; lr 3e-3) or of full `train_harness.finetune` (lr 1e-3):

- ssl-train: the default encoder, 12 single-lead subjects per class,
  GaussianNoise sigma 1.0, batch 32;
- cli-multirate: the criterion-6 encoder of every CLI pass, 4 twelve-lead
  subjects per class, standardized windows, Combination, batch 30. Its
  steps are small, so the optimizer is a visible share of each.

After one warm-up call, the child makes 8 calls and then one more under
tracemalloc, and prints one line:

- minor page faults per call over the 8 calls (`getrusage`): memory the
  allocator had returned to the system and takes back;
- the tracemalloc peak of the last call above its start, in MB;
- the child's peak resident set size (`ru_maxrss`), in MB.

Compare two checkouts with `python tools/stepmem.py a/src` and
`python tools/stepmem.py b/src`, run one after the other on one machine.
The fault counts depend on the allocator's state, which the checkout's
location and the environment can change: compare runs, not a run against a
count recorded elsewhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SHAPES = ("ssl-train", "cli-multirate")
METHODS = ("SimCLR", "BYOL", "SwAV", "finetune")
CALLS = 8

CHILD = """
import resource, sys, tracemalloc
from ecgssl import signal_core, train_harness as th
from ecgssl.augment import AugmentationSpec
from ecgssl.diffcore import EncoderConfig, init_encoder_params

shape, method, calls, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), 4501
if shape == "ssl-train":
    leads, per_class, batch, standardize = 1, 12, 32, False
    cfg, aug = EncoderConfig(), AugmentationSpec("GaussianNoise", {"sigma": 1.0})
else:
    leads, per_class, batch, standardize = 12, 4, 30, True
    cfg = EncoderConfig(n_leads=12, conv_blocks=((8, 7, 2), (16, 7, 2), (16, 7, 2)), embedding_dim=16,
                        projection_dim=8, prediction_hidden=8)
    aug = AugmentationSpec("Combination", {})
records = [r for j, c in enumerate(signal_core.SYNTH_CLASSES) for r in signal_core.generate_synthetic(
    signal_core.SyntheticEcgConfig(n_subjects=per_class, class_id=c, seed=seed + j, n_leads=leads))]
split = signal_core.split_by_subject(records, (0.8, 0.1, 0.1), seed)
split = signal_core.split_windows(split, 250, standardize=standardize)
if method == "finetune":
    pretrained = init_encoder_params(cfg, seed)
    fc = th.FinetuneConfig(epochs=1, batch_size=batch, seed=seed, lr=1e-3)
    call = lambda: th.finetune(pretrained, fc, split, cfg)
else:
    pc = th.PretrainConfig(method=method, augmentation=aug, epochs=1, batch_size=batch, lr=3e-3, seed=seed)
    call = lambda: th.pretrain(pc, split, cfg)

call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    call()
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
call()
peak = tracemalloc.get_traced_memory()[1] - start
tracemalloc.stop()
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{shape:<13} {method:<9} faults/call {faults:8.1f}  tracemalloc peak {peak / 1e6:6.2f} MB  "
      f"ru_maxrss {maxrss:6.1f} MB")
"""


def main(argv) -> int:
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1")
    for shape in SHAPES:
        for method in METHODS:
            done = subprocess.run([sys.executable, "-c", CHILD, shape, method, str(CALLS)], env=env,
                                  capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"{shape} {method} exited {done.returncode}: {done.stderr.strip()}")
            print(done.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
