"""Checks of the program's outputs against the references in reference.py
and against properties that must hold.

`oracle_checks` runs once per run on fixed or seeded inputs of its own; the
other checks look at what a round produced. A wrong output is recorded as
a problem (the run is then not correct). The one known fault, cmd_distshift
embedding windows without the preprocessing its checkpoint was trained
with, is counted as a failed operation with its reason instead.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np

import reference as ref
from ecgssl import diffcore, distshift, signal_core, ssl_objectives

import workloads as wl


def arrays(params):
    return {n: t.data for n, t in params.params.items()}


def strides(enc_cfg):
    return [s for _, _, s in enc_cfg.conv_blocks]


def close(a, b, rtol=1e-9, atol=1e-12):
    return np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=rtol, atol=atol)


def note(text):
    print(f"note: {text}", file=sys.stderr)


# ---------------------------------------------------------------------------
# once per run


def oracle_checks(seed, rec):
    _loss_formulas(rec)
    _loss_gradients(rec)
    _resample_sines(seed, rec)
    _gaussian_overlap(seed, rec)
    _id_ood_ranking(rec)


def _loss_formulas(rec):
    """The three losses and Sinkhorn on a fixed batch of B=64 projections."""
    g = np.random.default_rng(20230413)
    zi, zj = g.standard_normal((2, 64, 32))
    T = diffcore.Tensor
    got = ssl_objectives.nt_xent_loss(ssl_objectives.ViewBatchEmbeddings(T(zi), T(zj), 0.5)).data
    rec.check(close(got, ref.nt_xent(zi, zj, 0.5)), "NT-Xent differs from the numpy formula")
    got = ssl_objectives.byol_loss(T(zi), zj).data
    rec.check(close(got, ref.byol(zi, zj)), "BYOL loss differs from 2 - 2cos")
    bank = ssl_objectives.PrototypeBank(30, 32, seed=5)
    scores = ref.unit_rows(zi) @ bank.C.data.T
    rec.check(
        close(ssl_objectives.sinkhorn_knopp(scores, 0.05, 3).codes, ref.sinkhorn(scores, 0.05, 3)),
        "Sinkhorn codes differ from the log-domain reference",
    )
    got = ssl_objectives.swav_loss(T(zi), T(zj), bank, 0.1, 0.05, 3).data
    rec.check(close(got, ref.swav(zi, zj, bank.C.data, 0.1, 0.05, 3)), "SwAV loss differs from the swapped-prediction formula")


def _loss_gradients(rec):
    """Backward of each SSL loss through a small encoder against central
    differences of the numpy reference, at a few sampled parameter entries."""
    cfg = diffcore.EncoderConfig(
        n_leads=1, conv_blocks=((4, 5, 2), (8, 5, 2)), embedding_dim=8,
        projection_dim=4, prediction_hidden=4,
    )
    st = strides(cfg)
    g = np.random.default_rng(7)
    v1, v2 = g.standard_normal((2, 6, 1, 40))
    online = diffcore.init_encoder_params(cfg, 11)
    target = diffcore.init_encoder_params(cfg, 12)
    bank = ssl_objectives.PrototypeBank(6, 4, seed=13)

    def proj(p, v):
        return ref.mlp(p, "proj", ref.encoder(p, st, v))

    pt = arrays(target)
    codes = (
        ref.sinkhorn(ref.unit_rows(proj(arrays(online), v1)) @ bank.C.data.T, 0.05, 3),
        ref.sinkhorn(ref.unit_rows(proj(arrays(online), v2)) @ bank.C.data.T, 0.05, 3),
    )
    cases = {
        "SimCLR": (
            lambda: ssl_objectives.nt_xent_loss(
                ssl_objectives.ViewBatchEmbeddings(
                    diffcore.forward_projection(online, diffcore.forward_encoder(online, cfg, v1)),
                    diffcore.forward_projection(online, diffcore.forward_encoder(online, cfg, v2)),
                    0.5,
                )
            ),
            lambda p: ref.nt_xent(proj(p, v1), proj(p, v2), 0.5),
            ["conv0.weight", "conv1.bias", "embed.weight", "proj.fc2.weight"],
        ),
        "BYOL": (
            lambda: ssl_objectives.byol_symmetric_loss(v1, v2, online, target, cfg),
            lambda p: ref.byol(ref.mlp(p, "pred", proj(p, v1)), proj(pt, v2))
            + ref.byol(ref.mlp(p, "pred", proj(p, v2)), proj(pt, v1)),
            ["conv1.weight", "proj.fc1.weight", "pred.fc1.weight", "pred.fc2.bias"],
        ),
        "SwAV": (
            lambda: ssl_objectives.swav_loss(
                diffcore.forward_projection(online, diffcore.forward_encoder(online, cfg, v1)),
                diffcore.forward_projection(online, diffcore.forward_encoder(online, cfg, v2)),
                bank, 0.1, 0.05, 3, codes=codes,
            ),
            lambda p: ref.swav(proj(p, v1), proj(p, v2), p["prototypes"], 0.1, 0.05, 3, codes),
            ["conv0.bias", "embed.bias", "proj.fc1.bias", "prototypes"],
        ),
    }
    pick = np.random.default_rng(3)
    for method, (program_loss, ref_loss, names) in cases.items():
        online.zero_grads()
        bank.C.zero_grad()
        loss = program_loss()
        loss.backward()
        tensors = dict(online.params, prototypes=bank.C)
        p = {n: t.data.copy() for n, t in tensors.items()}
        rec.check(close(loss.data, ref_loss(p)), f"{method}: loss differs from the numpy formula")
        for name in names:
            grad = tensors[name].grad
            i = int(pick.integers(p[name].size))
            h = 1e-6
            hi, lo = dict(p), dict(p)
            hi[name] = p[name].copy()
            lo[name] = p[name].copy()
            hi[name].flat[i] += h
            lo[name].flat[i] -= h
            fd = (ref_loss(hi) - ref_loss(lo)) / (2 * h)
            got = 0.0 if grad is None else grad.flat[i]
            rec.check(
                abs(got - fd) <= 1e-6 + 1e-5 * abs(fd),
                f"{method}: d loss / d {name}[{i}] is {got:.9g}, central difference {fd:.9g}",
            )
        online.zero_grads()
        bank.C.zero_grad()


def _resample_sines(seed, rec):
    """resample of a sum of sines below 40 Hz matches the analytic values
    within 1e-3, half a second or more away from the record edges. Each lead
    has a 39.5 Hz component, so the band edge is tested on every seed."""
    g = np.random.default_rng(seed)
    freqs = np.hstack([g.uniform(0.5, 40.0, (2, 5)), np.full((2, 1), 39.5)])
    amps = g.uniform(0.2, 1.0, (2, 6))
    phases = g.uniform(0.0, 2 * np.pi, (2, 6))
    for rate in (500.0, 400.0, 250.0):
        t_in = np.arange(int(10 * rate)) / rate
        leads = ref.sum_of_sines(freqs, amps, phases, t_in)
        record = signal_core.EcgRecord("sines", leads, rate, signal_core.LabelSet((), ()))
        out = signal_core.resample(record, wl.TARGET_HZ)
        want = ref.sum_of_sines(freqs, amps, phases, np.arange(out.n_samples) / wl.TARGET_HZ)
        err = np.abs(out.leads - want)[:, 50:-50].max()
        rec.check(err <= 1e-3, f"resample {rate:g} Hz -> 100 Hz: max error {err:.3g} > 1e-3")


def _gaussian_overlap(seed, rec):
    """kde_2d + overlap_index of N(0, I) and N((2, 0), I) samples against the
    closed form 2 Phi(-1) = 0.3173. At this sample size the KDE's smoothing
    raises the estimate by 0.008 (sd 0.003 over seeds)."""
    g = np.random.default_rng(seed + 1)
    a = g.standard_normal((20000, 2))
    b = g.standard_normal((20000, 2)) + np.array([2.0, 0.0])
    bounds = distshift.shared_grid_bounds(a, b)
    ga, gb = distshift.kde_2d(a, 256, bounds), distshift.kde_2d(b, 256, bounds)
    eta = distshift.overlap_index(ga, gb)
    want = ref.gaussian_overlap_shifted(2.0)
    rec.check(abs(eta - want) <= 0.03, f"overlap of N(0,I) and N((2,0),I) is {eta:.4f}, closed form {want:.4f}")
    for grid in (ga, gb):
        rec.check(abs(grid.density.sum() * grid.cell_area - 1.0) < 1e-9, "KDE density does not integrate to 1")


def _id_ood_ranking(rec):
    """analyze_pair ranks the ID pair above the OOD pair, on fixed cohorts
    (72 windows each) and a fixed seeded default encoder. On the seeded
    inputs of a round the ranking is a property of the cohorts and of the
    trained encoder, not of the program, and fails on some seeds."""
    cfg = wl.encoder_config({}, 1)
    params = diffcore.init_encoder_params(cfg, 1003)
    windows = {
        name: wl.all_windows(wl.generate_cohort(name, 6, 5300 + 10 * k), False)
        for k, name in enumerate(("ref", "id", "ood"))
    }
    embeddings = {n: distshift.extract_embeddings(params, cfg, w, n) for n, w in windows.items()}
    etas = []
    for other in ("id", "ood"):
        report = distshift.analyze_pair(params, cfg, windows["ref"], windows[other], 256)
        check_eta(report.eta, embeddings["ref"], embeddings[other], rec, f"fixed analyze_pair ref/{other}")
        etas.append(report.eta)
    rec.check(etas[0] > etas[1], f"fixed cohorts: eta(ID) {etas[0]:.4f} is not above eta(OOD) {etas[1]:.4f}")


# ---------------------------------------------------------------------------
# per round: in-process stages


def check_encoder(params, enc_cfg, X, rec, what, heads=("proj",)):
    """forward_encoder and the heads on a few windows against the numpy
    forward of the same parameters."""
    X = X[:8]
    p = arrays(params)
    h = diffcore.forward_encoder(params, enc_cfg, X)
    want = ref.encoder(p, strides(enc_cfg), X)
    rec.check(close(h.data, want), f"{what}: encoder output differs from the numpy forward")
    z = diffcore.forward_projection(params, h) if "proj" in heads else None
    if z is not None:
        rec.check(close(z.data, ref.mlp(p, "proj", want)), f"{what}: projection differs")
    if "pred" in heads:
        q = diffcore.forward_predictor(params, z)
        rec.check(close(q.data, ref.mlp(p, "pred", ref.mlp(p, "proj", want))), f"{what}: predictor differs")
    if "head" in heads:
        got = diffcore.forward_head(params, h).data
        rec.check(close(got, ref.head(p, want)), f"{what}: classification head differs")


def labels_of(windows):
    return np.array([w.labels.indicator for w in windows], dtype=float)


def ref_scores(p, enc_cfg, windows):
    X = np.stack([w.data for w in windows])
    return ref.sigmoid(ref.head(p, ref.encoder(p, strides(enc_cfg), X)))


def check_best_val_f1(p, enc_cfg, windows, logged, rec, what):
    """The selected model's validation macro-F1 equals the best logged one."""
    scores, targets = ref_scores(p, enc_cfg, windows), labels_of(windows)
    if ref.near_ties(scores, targets):
        note(f"{what}: a validation score lies within 1e-5 of a tie; F1 check skipped")
        return
    per_class, _ = ref.f1_scores(scores, targets)
    f1 = sum(per_class) / len(per_class)
    rec.check(abs(f1 - max(logged)) < 1e-12, f"{what}: validation macro-F1 {f1} is not the best logged {max(logged)}")


def check_train(enc_cfg, trained, model, log, split, rec):
    X = np.stack([w.data for w in split.train])
    check_encoder(trained["simclr"], enc_cfg, X, rec, "SimCLR")
    check_encoder(trained["byol"], enc_cfg, X, rec, "BYOL", heads=("proj", "pred"))
    check_encoder(model, enc_cfg, X, rec, "finetune", heads=("head",))
    check_best_val_f1(arrays(model), enc_cfg, split.validation, [e.val_macro_f1 for e in log.entries], rec, "finetune")


def check_shift(windows, params, enc_cfg, embeddings, reports, rec):
    for name, e in embeddings.items():
        X = np.stack([w.data for w in windows[name][:8]])
        want = ref.encoder(arrays(params), strides(enc_cfg), X)
        rec.check(close(e.points[:8], want), f"extract_embeddings({name}) differs from the numpy forward")
    for other, r in zip(("id", "ood"), reports):
        check_eta(r.eta, embeddings["ref"], embeddings[other], rec, f"analyze_pair ref/{other}")
        for grid in r.grids:
            rec.check(abs(grid.density.sum() * grid.cell_area - 1.0) < 1e-9, "analyze_pair density does not integrate to 1")


def check_eta(eta, ref_set, other_set, rec, what):
    """eta lies in [0, 1] and equals the numpy overlap pipeline on the same
    embeddings."""
    rec.check(0.0 <= eta <= 1.0, f"{what}: eta {eta} outside [0, 1]")
    want = ref.overlap_eta(ref_set.points, other_set.points)
    rec.check(abs(eta - want) <= 1e-9, f"{what}: eta {eta:.6f} differs from the numpy overlap {want:.6f}")


# ---------------------------------------------------------------------------
# per round: CLI outputs


def check_cli(data, dirs, rec):
    _check_lineval(data, dirs["lin"], rec)
    _check_report(dirs["lin"], dirs["rep"], rec)
    params, _ = diffcore.load_checkpoint(dirs["pre"] / "checkpoint.ckpt")
    for key, other in (("shift_id", "id"), ("shift_ood", "ood")):
        eta = json.loads((dirs[key] / "overlap.json").read_text())["eta"]
        # what distshift should give: windows preprocessed as pretraining was
        windows = data.prepared
        report = distshift.analyze_pair(params, data.enc_cfg, windows["ref"], windows[other], 256)
        reason = ""
        if abs(eta - report.eta) > 1e-12:
            raw = distshift.analyze_pair(params, data.enc_cfg, data.raw["ref"], data.raw[other], 256)
            if data.standardize and abs(eta - raw.eta) <= 1e-12:
                reason = (
                    f"cmd_distshift ignores standardize_windows: its eta {eta:.4f} is that of raw "
                    f"windows; windows standardized as the checkpoint was trained give {report.eta:.4f}"
                )
                windows, report = data.raw, raw
            else:
                reason = f"eta {eta} differs from analyze_pair {report.eta}"
                rec.check(False, f"cli distshift {other}: {reason}")
        if other == "id":
            rec.op(not reason, "cli distshift preprocessing", reason)
        embeddings = [distshift.extract_embeddings(params, data.enc_cfg, windows[n]) for n in ("ref", other)]
        check_eta(eta, *embeddings, rec, f"cli distshift {other}")
        for name, grid in zip(("density_ref.csv", "density_other.csv"), report.grids):
            density = np.loadtxt(dirs[key] / name, delimiter=",")
            rec.check(
                abs(density.sum() * grid.cell_area - 1.0) < 1e-9,
                f"cli distshift {other}: {name} does not sum to 1 / cell area",
            )


def _check_lineval(data, lin_dir, rec):
    summary = json.loads((lin_dir / "metrics.json").read_text())
    model, _ = diffcore.load_checkpoint(lin_dir / "finetuned.ckpt")
    p = arrays(model)
    test = data.split.test
    scores, targets = ref_scores(p, data.enc_cfg, test), labels_of(test)
    if ref.near_ties(scores, targets):
        note("lineval: a test score lies within 1e-5 of a tie; F1/AUC check skipped")
    else:
        per_class, micro = ref.f1_scores(scores, targets)
        _, macro_auc = ref.auc_scores(scores, targets)
        got = summary["metrics"]
        classes = test[0].labels.classes
        rec.check(close(got["macro_f1"], sum(per_class) / len(per_class)), "metrics.json macro_f1 differs from brute force")
        rec.check(close(got["micro_f1"], micro), "metrics.json micro_f1 differs from brute force")
        rec.check(
            (got["macro_auc"] is None) == (macro_auc is None)
            and (macro_auc is None or close(got["macro_auc"], macro_auc)),
            "metrics.json macro_auc differs from brute force",
        )
        rec.check(
            close([summary["per_class_f1"][c] for c in classes], per_class),
            "metrics.json per-class F1 differs from brute force",
        )
    with open(lin_dir / "finetune_log.csv", newline="") as f:
        logged = [float(r["value"]) for r in csv.DictReader(f) if r["metric"] == "macro_f1"]
    check_best_val_f1(p, data.enc_cfg, data.split.validation, logged, rec, "lineval")


def _check_report(lin_dir, rep_dir, rec):
    summary = json.loads((lin_dir / "metrics.json").read_text())
    with open(rep_dir / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    want = {k: v for k, v in summary["metrics"].items() if v is not None}
    got = {r["metric"]: float(r["value"]) for r in rows}
    rec.check(got == want, f"report.csv values {got} differ from metrics.json {want}")
