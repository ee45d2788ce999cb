"""Self-tests of the benchmark's numpy references, on cases whose answers are
known by hand, and a sweep of the seeded oracle checks over many seeds:

    python3 ecgbench/selftest.py            # references only
    python3 ecgbench/selftest.py --seeds 50 # and the oracle checks on seeds 0..49

Exits 0 when every case passes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

import reference as ref


def conv_loop(x, w, b, stride):
    bsz, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = k // 2
    n_out = (length + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, c_out, n_out))
    for n in range(bsz):
        for o in range(c_out):
            for t in range(n_out):
                acc = b[o]
                for i in range(c_in):
                    for j in range(k):
                        pos = t * stride + j - pad
                        if 0 <= pos < length:
                            acc += w[o, i, j] * x[n, i, pos]
                out[n, o, t] = acc
    return out


def cases():
    g = np.random.default_rng(0)
    x, w, b = g.standard_normal((2, 3, 11)), g.standard_normal((4, 3, 5)), g.standard_normal(4)
    for stride in (1, 2, 3):
        yield f"conv1d stride {stride}", np.allclose(ref.conv1d(x, w, b, stride), conv_loop(x, w, b, stride))

    z = g.standard_normal((1, 5))
    yield "NT-Xent with one pair is 0", abs(ref.nt_xent(z, 3 * z, 0.5)) < 1e-12
    e1, e2 = np.eye(2)
    # each anchor sees its positive at cos 1 and two negatives at cos 0
    want = math.log(math.exp(2.0) + 2.0) - 2.0
    yield "NT-Xent, orthogonal pairs", abs(ref.nt_xent(np.stack([e1, e2]), np.stack([e1, e2]), 0.5) - want) < 1e-12

    yield "BYOL of aligned rows is 0", abs(ref.byol(z, 2 * z)) < 1e-12
    yield "BYOL of opposite rows is 4", abs(ref.byol(z, -z) - 4.0) < 1e-12

    yield "Sinkhorn of equal scores is uniform", np.allclose(ref.sinkhorn(np.zeros((6, 3)), 0.05, 3), 1 / 3)
    codes = ref.sinkhorn(g.uniform(-1, 1, (64, 30)), 0.05, 50)
    yield "Sinkhorn codes rows sum to 1", np.allclose(codes.sum(axis=1), 1.0)
    yield "Sinkhorn balances prototypes", np.allclose(codes.sum(axis=0) / 64, 1 / 30, atol=1e-6)

    protos = np.zeros((4, 5))
    yield "SwAV with uninformative prototypes is 2 log K", abs(
        ref.swav(z, z, protos, 0.1, 0.05, 3) - 2 * math.log(4)
    ) < 1e-12

    scores = np.array([[0.9, 0.2], [0.6, 0.7], [0.1, 0.4], [0.5, 0.5]])
    targets = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
    per_class, micro = ref.f1_scores(scores, targets)
    # class 0: tp 2, fp 1 (0.5 >= 0.5), fn 0; class 1: tp 1, fp 1, fn 1
    yield "F1 by hand", np.allclose(per_class, [0.8, 0.5]) and abs(micro - 6 / 9) < 1e-12
    yield "F1 of an empty class is 1", ref.f1_scores(np.zeros((3, 1)), np.zeros((3, 1)))[0] == [1.0]
    aucs, macro = ref.auc_scores(scores, targets)
    yield "AUC by hand", np.allclose(aucs, [1.0, 0.75]) and abs(macro - 0.875) < 1e-12
    yield "AUC of a one-sided class is skipped", ref.auc_scores(scores, np.ones((4, 2), int)) == ([None, None], None)
    yield "AUC counts ties half", ref.auc_scores(np.array([[0.5], [0.5]]), np.array([[1], [0]]))[1] == 0.5

    yield "near_ties sees a score at the threshold", ref.near_ties(np.array([[0.5 + 1e-7]]), np.array([[1]]))
    yield "near_ties sees a close pair", ref.near_ties(np.array([[0.2], [0.2 + 1e-7]]), np.array([[1], [0]]))
    yield "near_ties passes clear scores", not ref.near_ties(np.array([[0.9], [0.1]]), np.array([[1], [0]]))

    t = np.linspace(0, 1, 7)
    yield "sum of sines", np.allclose(
        ref.sum_of_sines([[1.0, 2.0]], [[1.0, 0.5]], [[0.0, 1.0]], t),
        np.sin(2 * np.pi * t) + 0.5 * np.sin(4 * np.pi * t + 1.0),
    )
    u = np.linspace(-12, 14, 200001)
    pdf = np.exp(-0.5 * u**2) / math.sqrt(2 * math.pi)
    numeric = np.minimum(pdf, np.exp(-0.5 * (u - 2) ** 2) / math.sqrt(2 * math.pi)).sum() * (u[1] - u[0])
    yield "Gaussian overlap closed form", abs(ref.gaussian_overlap_shifted(2.0) - numeric) < 1e-6

    pts = g.standard_normal((200, 5)) * [3.0, 2.0, 1.0, 0.5, 0.2]
    yield "overlap of a set with itself is 1", abs(ref.overlap_eta(pts, pts) - 1.0) < 1e-12
    yield "overlap of far-apart sets is 0", ref.overlap_eta(pts, pts + [100.0, 0, 0, 0, 0]) < 1e-9
    flip = np.diag([-1.0, 1.0, -1.0, 1.0, 1.0])
    other = g.standard_normal((150, 5)) + [1.0, 0, 0, 0, 0]
    yield "overlap does not change with the sign of an axis", abs(
        ref.overlap_eta(pts @ flip, other @ flip) - ref.overlap_eta(pts, other)
    ) < 1e-9


def sweep(n_seeds):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import checks
    import workloads as wl

    bad = 0
    for seed in range(n_seeds):
        rec = wl.Recorder()
        checks.oracle_checks(seed, rec)
        for problem in rec.problems:
            bad += 1
            print(f"FAIL oracle seed {seed}: {problem}")
    print(f"oracle checks: {n_seeds} seeds, {bad} problems")
    return bad


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=0, help="also sweep the oracle checks over this many seeds")
    args = p.parse_args()
    failed = 0
    for name, ok in cases():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    if args.seeds:
        failed += sweep(args.seeds)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
