"""Per-layer metrics of a traced run.

Two sources: spans recorded around the program's public functions during the
traced rounds (the train_harness phase split and the cli.* numbers), and
direct timings of each layer's public functions on fixed inputs, taken after
the rounds with tracing removed.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np

from ecgssl import augment, diffcore, distshift, metrics, signal_core, ssl_objectives, train_harness

import workloads as wl

# (owner, attribute, span name): the functions a traced round wraps, as the
# calling module sees them
TRACED = [
    *[(train_harness, f, f"train_harness.{f}") for f in (
        "apply_augmentation", "forward_encoder", "forward_projection", "forward_head",
        "nt_xent_loss", "byol_symmetric_loss", "swav_loss", "bce_with_logits",
        "adam_step", "ema_update", "pretrain", "finetune",
    )],
    *[(ssl_objectives, f, f"ssl_objectives.{f}") for f in (
        "forward_encoder", "forward_projection", "forward_predictor",
    )],
    (diffcore.Tensor, "backward", "diffcore.Tensor.backward"),
    (signal_core, "resample", "signal_core.resample"),
    (distshift, "analyze_pair", "distshift.analyze_pair"),
    (distshift, "extract_embeddings", "distshift.extract_embeddings"),
]

PHASES = {
    "augment_s": ("train_harness.apply_augmentation",),
    "forward_s": (
        "train_harness.forward_encoder", "train_harness.forward_projection",
        "train_harness.forward_head", "ssl_objectives.forward_encoder",
        "ssl_objectives.forward_projection", "ssl_objectives.forward_predictor",
    ),
    "loss_s": (
        "train_harness.nt_xent_loss", "train_harness.byol_symmetric_loss",
        "train_harness.swav_loss", "train_harness.bce_with_logits",
    ),
    "backward_s": ("diffcore.Tensor.backward",),
    "optimizer_s": ("train_harness.adam_step", "train_harness.ema_update"),
}

STAGE_KEYS = ("simclr", "byol", "swav", "finetune")


def install(tracer):
    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name)


def from_spans(tracer):
    """Per-layer metrics from the spans of all traced rounds: for each
    stage-A call the phase split of its time, for each CLI pass the resample
    and train/analyze time of its commands; medians over calls and passes.
    Span times are scaled like every other timing, by the factor measured
    around the stage call or CLI command that holds them."""
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for key in STAGE_KEYS:
        for root in tracer.roots(f"stage.{key}"):
            scale = root[5]
            own = {n: t * scale for n, t in tracer.self_times(root).items()}
            covered = 0.0
            for phase, names in PHASES.items():
                if key == "finetune" and phase == "augment_s":
                    continue  # fine-tuning does not augment
                value = sum(own.get(n, 0.0) for n in names)
                add(f"{key}.{phase}", value)
                covered += value
            add(f"{key}.self_s", (root[3] - root[2]) * scale - covered)
    passes = {}
    for command, per_pass in (("pretrain", 1), ("lineval", 1), ("distshift", 2)):
        spans = tracer.roots(f"cli.{command}")
        passes[command] = [spans[i:i + per_pass] for i in range(0, len(spans), per_pass)]
    for command, groups in passes.items():
        for group in groups:
            add(f"{command}.resample_s", sum(tracer.total(s, "signal_core.resample") * s[5] for s in group))
    for group in passes["pretrain"]:
        add("pretrain.train_s", sum(tracer.total(s, "train_harness.pretrain") * s[5] for s in group))
    for group in passes["distshift"]:
        add("distshift.analyze_s", sum(tracer.total(s, "distshift.analyze_pair") * s[5] for s in group))
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# direct timings


def _median_s(fn, reps, prepare=None):
    """Median scaled seconds of `reps` calls; `prepare` makes each call's
    argument outside the timed block."""
    times = []
    for _ in range(reps):
        arg = prepare() if prepare else None
        with wl.Timed() as t:
            fn(arg) if prepare else fn()
        times.append(t.seconds)
    return statistics.median(times)


def measure(root, out_dir, reps=5):
    """Direct timings of every layer on fixed inputs."""
    g = np.random.default_rng(99)
    m = {}
    m.update(_signal_core(out_dir, reps))
    m.update(_augment(g, reps))
    m.update(_diffcore(g, out_dir, reps))
    m.update(_ssl_objectives(g, reps))
    m.update(_distshift(g, reps))
    m.update(_metrics(g, reps))
    m["import_s"] = _median_s(
        lambda: subprocess.run(
            [sys.executable, "-c", "import ecgssl.cli"], check=True, cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60,
        ),
        3,
    )
    return m


def _record(rate, n_subjects=1):
    """Twelve-lead records at `rate`."""
    return signal_core.generate_synthetic(
        signal_core.SyntheticEcgConfig(
            n_subjects=n_subjects, beats_per_record=wl.BEATS, sampling_rate_hz=rate, n_leads=12
        )
    )


def _signal_core(out_dir, reps):
    m = {"generate_ms": 1e3 / 4 * _median_s(lambda: _record(500.0, n_subjects=4), reps)}
    rec = _record(500.0)[0]
    path = out_dir / "layer.esig"
    m["write_esig_ms"] = 1e3 * _median_s(lambda: signal_core.write_record_binary(path, rec), reps)
    m["read_esig_ms"] = 1e3 * _median_s(lambda: signal_core.read_record_binary(path), reps)
    for rate in (500, 400, 250):
        r = _record(float(rate))[0]
        m[f"resample_{rate}hz_ms"] = 1e3 * _median_s(lambda: signal_core.resample(r, wl.TARGET_HZ), reps)
    records = _record(100.0, n_subjects=6)
    split = signal_core.split_by_subject(records, wl.FRACTIONS, 0)
    m["split_windows_ms"] = 1e3 * _median_s(
        lambda: signal_core.split_windows(split, wl.WINDOW_LEN, standardize=True), reps
    )
    return m


AUGMENTATIONS = {
    "gaussian_noise_us": ("GaussianNoise", {"sigma": 1.0}),
    "channel_scaling_us": ("ChannelScaling", {"a": 0.33, "b": 3.0}),
    "negation_us": ("Negation", {}),
    "baseline_wander_us": ("BaselineWander", {"f_w": 100.0, "s_bw": 1.0}),
    "emg_noise_us": ("EmgNoise", {"sigma": 0.01}),
    "masking_us": ("Masking", {"a_pct": 40.0, "b_pct": 50.0}),
    "time_warping_us": ("TimeWarping", {"w": 1, "r_pct": 10.0}),
    "combination_us": ("Combination", {}),
}


def _augment(g, reps):
    """Per window, over a batch of 64 twelve-lead windows."""
    batch = g.standard_normal((64, 12, wl.WINDOW_LEN))
    m = {}
    for name, (kind, params) in AUGMENTATIONS.items():
        spec = augment.AugmentationSpec(kind, params)
        rng = augment.RngStream(0)
        m[name] = 1e6 / len(batch) * _median_s(
            lambda: [augment.apply_augmentation(x, spec, rng) for x in batch], reps
        )
    return m


def _diffcore(g, out_dir, reps):
    cfg = diffcore.EncoderConfig()
    params = diffcore.init_encoder_params(cfg, 0)
    T = diffcore.Tensor
    m = {}
    length, c_in = wl.WINDOW_LEN, cfg.n_leads
    for i, (c_out, _k, stride) in enumerate(cfg.conv_blocks):
        x = g.standard_normal((64, c_in, length))
        w, b = params[f"conv{i}.weight"], params[f"conv{i}.bias"]
        m[f"conv{i}_fwd_ms"] = 1e3 * _median_s(lambda: diffcore.conv1d(T(x), w, b, stride), reps)
        out = diffcore.conv1d(T(x, requires_grad=True), w, b, stride)
        weights = g.standard_normal(out.shape)

        def loss(_=None, x=x, w=w, b=b, stride=stride, weights=weights):
            return (diffcore.conv1d(T(x, requires_grad=True), w, b, stride) * weights).sum()

        m[f"conv{i}_bwd_ms"] = 1e3 * _median_s(lambda lo: lo.backward(), reps, prepare=loss)
        params.zero_grads()
        c_in, length = c_out, out.shape[2]

    feat = g.standard_normal((64, c_in, length))

    def heads():
        h = diffcore.dense(
            diffcore.global_avg_pool(T(feat, requires_grad=True)), params["embed.weight"], params["embed.bias"]
        )
        diffcore.forward_projection(params, h).sum().backward()

    m["heads_fwd_bwd_ms"] = 1e3 * _median_s(heads, reps)
    params.zero_grads()

    v1, v2 = g.standard_normal((2, 64, 1, wl.WINDOW_LEN))

    def simclr_loss():
        z = [diffcore.forward_projection(params, diffcore.forward_encoder(params, cfg, v)) for v in (v1, v2)]
        return ssl_objectives.nt_xent_loss(ssl_objectives.ViewBatchEmbeddings(z[0], z[1], 0.5))

    m["backward_ms"] = 1e3 * _median_s(lambda lo: lo.backward(), 3, prepare=simclr_loss)

    adam = diffcore.AdamState()

    def with_grads():
        for t in params.tensors():
            t.grad = g.standard_normal(t.shape)
        return params

    m["adam_step_ms"] = 1e3 * _median_s(lambda p: diffcore.adam_step(adam, p), reps, prepare=with_grads)
    target = params.copy()
    m["ema_update_ms"] = 1e3 * _median_s(lambda: diffcore.ema_update(target, params, 0.996), reps)

    n = 4 * wl.WORKLOADS["embed-shift"]["inproc"]["ref"] * 3  # windows of one embed-shift cohort
    X = g.standard_normal((n, 1, wl.WINDOW_LEN))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        diffcore.forward_encoder(params, cfg, X)
        m["encoder_fwd_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    path = out_dir / "layer.ckpt"
    m["save_checkpoint_ms"] = 1e3 * _median_s(lambda: diffcore.save_checkpoint(path, params), reps)
    m["load_checkpoint_ms"] = 1e3 * _median_s(lambda: diffcore.load_checkpoint(path), reps)
    return m


def _ssl_objectives(g, reps):
    """Forward and backward on B=64 projections of dimension 32."""
    T = diffcore.Tensor
    zi, zj = g.standard_normal((2, 64, 32))
    bank = ssl_objectives.PrototypeBank(30, 32, seed=0)

    def nt_xent():
        ssl_objectives.nt_xent_loss(
            ssl_objectives.ViewBatchEmbeddings(T(zi, requires_grad=True), T(zj, requires_grad=True), 0.5)
        ).backward()

    def byol():
        ssl_objectives.byol_loss(T(zi, requires_grad=True), zj).backward()

    def swav():
        ssl_objectives.swav_loss(T(zi, requires_grad=True), T(zj, requires_grad=True), bank).backward()
        bank.C.zero_grad()

    scores = zi / np.linalg.norm(zi, axis=1, keepdims=True) @ bank.C.data.T
    return {
        "nt_xent_ms": 1e3 * _median_s(nt_xent, reps),
        "byol_loss_ms": 1e3 * _median_s(byol, reps),
        "swav_loss_ms": 1e3 * _median_s(swav, reps),
        "sinkhorn_ms": 1e3 * _median_s(lambda: ssl_objectives.sinkhorn_knopp(scores), reps),
    }


def _distshift(g, reps):
    cfg = diffcore.EncoderConfig()
    params = diffcore.init_encoder_params(cfg, 0)
    windows = [signal_core.Window(x, "w", signal_core.LabelSet((), ())) for x in g.standard_normal((500, 1, wl.WINDOW_LEN))]
    m = {"extract_embeddings_ms_per_1k": 1e3 * 2 * _median_s(lambda: distshift.extract_embeddings(params, cfg, windows), 3)}
    ref_set = distshift.EmbeddingSet(g.standard_normal((2000, 64)))
    other = distshift.EmbeddingSet(g.standard_normal((2000, 64)) + 0.5)
    m["fit_reduce_ms"] = 1e3 * _median_s(lambda: distshift.fit_reduce(ref_set, [other]), reps)
    a, b = (r.points for r in distshift.fit_reduce(ref_set, [other]))
    bounds = distshift.shared_grid_bounds(a, b)
    m["kde_2d_ms"] = 1e3 * _median_s(lambda: distshift.kde_2d(a, 256, bounds), reps)
    ga, gb = distshift.kde_2d(a, 256, bounds), distshift.kde_2d(b, 256, bounds)
    m["overlap_index_ms"] = 1e3 * _median_s(lambda: distshift.overlap_index(ga, gb), reps)
    m["axis_overlap_ms"] = 1e3 * _median_s(lambda: distshift.axis_overlap_1d(a, b, 0), reps)
    return m


def _metrics(g, reps):
    pred = metrics.PredictionBatch(g.uniform(size=(1000, 4)), g.integers(0, 2, size=(1000, 4)))
    return {
        "macro_f1_ms": 1e3 * _median_s(lambda: metrics.macro_f1(pred), reps),
        "auc_ms": 1e3 * _median_s(lambda: metrics.auc(pred), reps),
    }
