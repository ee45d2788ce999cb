"""Workload specs, set-up, and one round of the benchmark.

Every workload runs the same three stages in each round, sized so that one
layer dominates; the stages that do not dominate run small, so every
end-to-end metric is measured on every workload and a change aimed at one
layer shows on the workload built for it and stays flat on the others.

  A  in-process train_harness.pretrain (SimCLR, BYOL, SwAV), then full
     train_harness.finetune of the SimCLR encoder;
  B  `python -m ecgssl.cli` children, one at a time: pretrain, lineval,
     distshift on the ID pair, distshift on the OOD pair, report;
  C  in-process distshift.extract_embeddings on three cohorts and
     distshift.analyze_pair on the ID pair and the OOD pair.

Set-up is cohort generation: in-process generate_synthetic for stages A and
C (except cli-multirate, whose stages A and C use the CLI cohorts) and the
`synth-gen` command for stage B.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

from ecgssl import augment, cli, diffcore, distshift, signal_core, train_harness

WINDOW_LEN = 250
TARGET_HZ = 100.0
FRACTIONS = (0.8, 0.1, 0.1)
BEATS = 12  # 9.6 s records: three 250-sample windows at 100 Hz

# the criterion-6 encoder of the acceptance tests; every CLI pass uses it
SMALL_ENCODER = {
    "conv_blocks": [[8, 7, 2], [16, 7, 2], [16, 7, 2]],
    "embedding_dim": 16,
    "projection_dim": 8,
    "prediction_hidden": 8,
}
GAUSSIAN = {"kind": "GaussianNoise", "params": {"sigma": 1.0}}
COMBINATION = {"kind": "Combination", "params": {}}
# the same in every workload's CLI pass: subjects per class of each CLI
# cohort, linear-evaluation epochs, and passes per round
CLI_N_PER_CLASS = 4
CLI_LINEVAL_EPOCHS = 3
CLI_PASSES = 3
# the out-of-distribution cohort: other bump amplitudes, more noise
OOD_SHIFT = {"noise_sigma": 0.25, "bump_amplitudes": [0.5, 0.5, 0.7]}

SMALL_CLI = {
    "leads": 1,
    "rates": {"ref": 250.0, "id": 250.0, "ood": 250.0},
    "standardize": False,
    "epochs": 1,
    "batch": 16,
}

# Why each workload: see README.md. `inproc` gives subjects per class of the
# in-process cohorts, which are single-lead and not standardized; None means
# stages A and C use the CLI cohorts. `augmentation` is that of stage A and of
# the CLI pretraining.
WORKLOADS = {
    "ssl-train": {
        "inproc": {"train": 12, "ref": 8, "id": 8, "ood": 8},
        "encoder": {},
        "augmentation": GAUSSIAN,
        "batch": 32,
        "epochs": 1,
        "train_repeats": 4,
        "shift_repeats": 5,
        "shift_encoder": "simclr",
        "cli": SMALL_CLI,
    },
    "cli-multirate": {
        "inproc": None,
        "encoder": SMALL_ENCODER,
        "augmentation": COMBINATION,
        "batch": 30,
        "epochs": 3,
        "train_repeats": 8,
        "shift_repeats": 10,
        "shift_encoder": "simclr",
        "cli": {
            "leads": 12,
            "rates": {"ref": 500.0, "id": 500.0, "ood": 400.0},
            "standardize": True,
            "epochs": 2,
            "batch": 30,
        },
    },
    "embed-shift": {
        "inproc": {"train": 6, "ref": 100, "id": 100, "ood": 100},
        "encoder": {},
        "augmentation": GAUSSIAN,
        "batch": 32,
        "epochs": 1,
        "train_repeats": 4,
        "shift_repeats": 2,
        "shift_encoder": "init",
        "cli": SMALL_CLI,
    },
}

METHOD_KEYS = {"SimCLR": "simclr", "BYOL": "byol", "SwAV": "swav"}

# The machine this was tuned on (2 shared vCPUs) changes speed by up to 1.5x
# within a second as its neighbours load the cores, and a fixed probe slows by
# nearly the same factor as the program. The probe is two fixed kernels of
# ~1 ms each, a pure-Python loop and a few small numpy operations (matmul,
# exp, sort), and reads the geometric mean of their times: over 1 s blocks of
# conv forward, forward+backward and resampling, the mix left 4-5 % of the
# speed swings, the loop alone 5-6 % and the raw times 10-14 %. Every timed
# block runs the probe before, after, and every 50 ms during the block (from
# a SIGALRM handler), takes the probes' own time out of the block's wall
# time, and scales the rest to the speed at which the probe reads
# PROBE_REF_S: a "second" in the metrics is a second at that speed. The probe
# is timed in its own thread's CPU time, so a CLI child sharing the CPU does
# not lengthen it.
PROBE_LOOPS = 20_000
PROBE_REF_S = 0.00085
PROBE_EVERY_S = 0.05
_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.standard_normal((96, 96))
_PROBE_V = _PROBE_RNG.standard_normal(20_000)


def probe_s():
    t0 = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    t1 = time.thread_time()
    for _ in range(6):
        _PROBE_M @ _PROBE_M
        np.exp(_PROBE_V * 1e-3).sum()
        np.sort(_PROBE_V[:4000])
    return ((t1 - t0) * (time.thread_time() - t1)) ** 0.5


class Timed:
    """Times its block; `seconds` is the block's wall time, less the probes
    run inside it, scaled to the reference speed. With a tracer the block
    is also a span, which keeps the scale. Timed blocks do not nest."""

    def __init__(self, tracer=None, name=None):
        self.span = tracer.span(name) if tracer is not None else None
        self.probes = []

    def _sample(self, signum, frame):
        self.probes.append(probe_s())

    def __enter__(self):
        self.probes.append(probe_s())
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        if self.span:
            self.span.__enter__()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.t0
        if self.span:
            self.span.__exit__(*exc)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        inside = sum(self.probes[1:])
        self.probes.append(probe_s())
        scale = PROBE_REF_S / (sum(self.probes) / len(self.probes))
        if self.span:
            self.span.record.append(scale)
        self.seconds = (wall - inside) * scale
        return False


class Recorder:
    """Per-round samples of every metric, the operation count and the
    problems the checks found."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (operation, reason) of failed operations
        self.problems = []  # wrong outputs: the run is not correct

    def add(self, name, value):
        self.samples.setdefault(name, []).append(float(value))

    def op(self, ok, what, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append((what, reason))

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# cohorts


def cohort_fields(name, rate, leads):
    fields = {"beats_per_record": BEATS, "sampling_rate_hz": rate, "n_leads": leads}
    if name == "ood":
        fields.update(OOD_SHIFT)
    return fields


def generate_cohort(name, n_per_class, seed):
    """A single-lead 100 Hz cohort, generated in-process."""
    records = []
    for j, class_id in enumerate(signal_core.SYNTH_CLASSES):
        fields = cohort_fields(name, TARGET_HZ, 1)
        fields["bump_amplitudes"] = tuple(fields.get("bump_amplitudes", (0.15, 1.0, 0.3)))
        records.extend(
            signal_core.generate_synthetic(
                signal_core.SyntheticEcgConfig(
                    n_subjects=n_per_class, class_id=class_id, seed=seed + j, **fields
                )
            )
        )
    return records


def read_cohort(path):
    """Records of a synth-gen dataset directory, resampled to 100 Hz, in the
    order and with the labels the CLI gives them."""
    labels = signal_core.read_label_sidecar(path / "labels.csv")
    classes = tuple(sorted({c for names in labels.values() for c in names}))
    out = []
    for f in sorted((path / "records").glob("*.esig")):
        rec = signal_core.read_record_binary(
            f, subject_id=f.stem, labels=signal_core.LabelSet.from_names(classes, labels[f.stem])
        )
        if rec.sampling_rate_hz != TARGET_HZ:
            rec = signal_core.resample(rec, TARGET_HZ)
        out.append(rec)
    return out


def all_windows(records, standardize):
    ws = [w for r in records for w in signal_core.window(r, WINDOW_LEN)]
    return [signal_core.standardize_window(w) for w in ws] if standardize else ws


def split_of(records, seed, standardize):
    split = signal_core.split_by_subject(records, FRACTIONS, seed)
    return signal_core.split_windows(split, WINDOW_LEN, standardize=standardize)


class CliCohorts:
    """The CLI cohorts as the CLI sees them, read back once per run: the
    records, the pretraining split, and every window raw and preprocessed
    as the pretraining config says."""

    def __init__(self, spec, data_dir, seed):
        c = spec["cli"]
        self.records = {name: read_cohort(data_dir / name) for name in ("ref", "id", "ood")}
        self.standardize = c["standardize"]
        self.enc_cfg = encoder_config(SMALL_ENCODER, c["leads"])
        self.split = split_of(self.records["ref"], seed, self.standardize)
        self.raw = {n: all_windows(r, False) for n, r in self.records.items()}
        self.prepared = (
            {n: all_windows(r, True) for n, r in self.records.items()} if self.standardize else self.raw
        )


def inproc_inputs(spec, seed, cohorts, cli_cohorts):
    """(leads, training split, windows of ref/id/ood) of stages A and C."""
    if spec["inproc"] is None:
        return spec["cli"]["leads"], cli_cohorts.split, cli_cohorts.prepared
    split = split_of(cohorts["train"], seed, False)
    windows = {n: all_windows(cohorts[n], False) for n in ("ref", "id", "ood")}
    return 1, split, windows


def shift_encoder(spec, trained, enc_cfg, seed):
    """The encoder stage C embeds with: the stage-A SimCLR encoder, or a
    seeded initialization."""
    if spec["shift_encoder"] == "simclr":
        return trained["simclr"]
    return diffcore.init_encoder_params(enc_cfg, seed)


def encoder_config(fields, leads):
    fields = dict(fields)
    if "conv_blocks" in fields:
        fields["conv_blocks"] = tuple(tuple(b) for b in fields["conv_blocks"])
    return diffcore.EncoderConfig(n_leads=leads, **fields)


# ---------------------------------------------------------------------------
# CLI children


class CliRunner:
    """Runs `python -m ecgssl.cli` commands one at a time, as child
    processes or, in a traced run, in-process through cli.main."""

    def __init__(self, root, out, seed, tracer=None):
        self.root, self.out, self.seed, self.tracer = root, out, seed, tracer
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def config(self, name, obj):
        path = self.out / f"{name}.json"
        path.write_text(json.dumps(obj))
        return path

    def run(self, command, config_path, out_dir):
        """Returns (exit code, scaled seconds, stderr text)."""
        argv = [command, "--config", str(config_path), "--out", str(out_dir), "--seed", str(self.seed)]
        if self.tracer is not None:
            with Timed(self.tracer, f"cli.{command}") as t:
                code = cli.main(argv)
            return code, t.seconds, ""
        with Timed() as t:
            proc = subprocess.run(
                [sys.executable, "-m", "ecgssl.cli", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=170,
            )
        return proc.returncode, t.seconds, proc.stderr.strip()


def cli_configs(spec, data, runs):
    """The configs of one stage-B pass, keyed by step."""
    c = spec["cli"]
    dataset = str(data / "ref")
    return {
        "gen": {
            "datasets": {
                name: {"n_subjects_per_class": CLI_N_PER_CLASS, **cohort_fields(name, rate, c["leads"])}
                for name, rate in c["rates"].items()
            }
        },
        "pre": {
            "dataset": dataset,
            "method": "SimCLR",
            "augmentation": spec["augmentation"],
            "standardize_windows": c["standardize"],
            "encoder": SMALL_ENCODER,
            "pretrain": {"epochs": c["epochs"], "batch_size": c["batch"]},
        },
        "lin": {
            "dataset": dataset,
            "checkpoint": str(runs / "pre" / "checkpoint.ckpt"),
            "standardize_windows": c["standardize"],
            "finetune": {"epochs": CLI_LINEVAL_EPOCHS, "batch_size": 16},
        },
        "shift_id": {
            "checkpoint": str(runs / "pre" / "checkpoint.ckpt"),
            "dataset_ref": dataset,
            "dataset_other": str(data / "id"),
        },
        "shift_ood": {
            "checkpoint": str(runs / "pre" / "checkpoint.ckpt"),
            "dataset_ref": dataset,
            "dataset_other": str(data / "ood"),
        },
        "rep": {"scan_dir": str(runs / "lin")},
    }


# ---------------------------------------------------------------------------
# set-up


def setup(spec, seed, runner, repeats):
    """Generates every cohort `repeats` times; returns (seconds of each,
    in-process cohorts)."""
    configs = cli_configs(spec, runner.out / "data", runner.out / "runs")
    gen_path = runner.config("gen", configs["gen"])
    times = []
    for _ in range(repeats):
        with Timed() as t:
            cohorts = {}
            if spec["inproc"] is not None:
                for k, (name, n) in enumerate(spec["inproc"].items()):
                    cohorts[name] = generate_cohort(name, n, seed * 1000 + 10 * k)
        code, seconds, err = runner.run("synth-gen", gen_path, runner.out / "data")
        if code != 0:
            raise RuntimeError(f"synth-gen exited {code}: {err}")
        times.append(t.seconds + seconds)
    return times, cohorts


# ---------------------------------------------------------------------------
# stages


def stage_train(spec, seed, split, leads, rec, tracer):
    """Stage A: `train_repeats` interleaved passes over SimCLR, BYOL, SwAV
    pretraining and fine-tuning, each call timed on its own. Returns the
    encoder config, the last pretrained params by method, the fine-tuned
    model and its log."""
    enc_cfg = encoder_config(spec["encoder"], leads)
    aug = augment.AugmentationSpec(spec["augmentation"]["kind"], spec["augmentation"]["params"])
    n = len(split.train) * spec["epochs"]
    out = {}
    for _ in range(spec["train_repeats"]):
        for method, key in METHOD_KEYS.items():
            pc = train_harness.PretrainConfig(
                method=method, augmentation=aug, epochs=spec["epochs"],
                batch_size=spec["batch"], lr=3e-3, seed=seed,
            )
            with Timed(tracer, f"stage.{key}") as t:
                params, log = train_harness.pretrain(pc, split, enc_cfg)
            rec.add(f"{key}_windows_per_s", n / t.seconds)
            rec.op(True, f"pretrain {method}")
            rec.check(all(np.isfinite(e.train_loss) for e in log.entries), f"{method}: non-finite loss")
            out[key] = params
        fc = train_harness.FinetuneConfig(
            epochs=spec["epochs"], batch_size=spec["batch"], seed=seed, lr=1e-3
        )
        with Timed(tracer, "stage.finetune") as t:
            model, log = train_harness.finetune(out["simclr"], fc, split, enc_cfg)
        rec.add("finetune_windows_per_s", n / t.seconds)
        rec.op(True, "finetune")
    return enc_cfg, out, model, log


def stage_shift(cohort_windows, params, enc_cfg, repeats, rec, tracer):
    """Stage C, `repeats` times: embed the three cohorts, then analyze the ID
    and the OOD pair. Returns the last embeddings and (ID, OOD) reports."""
    for _ in range(repeats):
        embeddings = {}
        for name in ("ref", "id", "ood"):
            with Timed(tracer, "stage.extract_embeddings") as t:
                embeddings[name] = distshift.extract_embeddings(params, enc_cfg, cohort_windows[name], name)
            rec.add("embed_windows_per_s", len(cohort_windows[name]) / t.seconds)
            rec.op(True, f"extract_embeddings {name}")
        reports, seconds = [], 0.0
        for other in ("id", "ood"):
            with Timed(tracer, "stage.analyze_pair") as t:
                reports.append(
                    distshift.analyze_pair(
                        params, enc_cfg, cohort_windows["ref"], cohort_windows[other],
                        resolution=256, ref_tag="ref", other_tag=other,
                    )
                )
            seconds += t.seconds
            rec.op(True, f"analyze_pair ref/{other}")
        rec.add("shift_analysis_s", seconds)
    return embeddings, reports


def stage_cli(runner, configs, rec):
    """Stage B, CLI_PASSES times over the same configs. Returns {step:
    output dir}."""
    runs = runner.out / "runs"
    steps = [
        ("pretrain", "pre", "cli_pretrain_s"),
        ("lineval", "lin", "cli_lineval_s"),
        ("distshift", "shift_id", "cli_distshift_s"),
        ("distshift", "shift_ood", "cli_distshift_s"),
        ("report", "rep", None),
    ]
    paths = {key: runner.config(key, configs[key]) for _, key, _ in steps}
    for _ in range(CLI_PASSES):
        sums = {}
        for command, key, metric in steps:
            code, seconds, err = runner.run(command, paths[key], runs / key)
            rec.op(code == 0, f"cli {command} {key}", err)
            rec.check(code == 0, f"cli {command} ({key}) exited {code}: {err[-300:]}")
            if metric:
                sums[metric] = sums.get(metric, 0.0) + seconds
        for metric, seconds in sums.items():
            rec.add(metric, seconds)
    return {key: runs / key for _, key, _ in steps}
