import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgssl import metrics as mx


def batch(scores, targets, names=()):
    return mx.PredictionBatch(np.asarray(scores, float), np.asarray(targets), names)


def brute_f1(decided, actual):
    tp = int(np.sum(decided & actual))
    fp = int(np.sum(decided & ~actual))
    fn = int(np.sum(~decided & actual))
    if tp == fp == fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return 2 * p * r / (p + r)


def loop_rank_auc(scores, targets):
    """The AUC by tie groups found in a Python loop over the sorted scores:
    the reference for `_rank_auc`'s vectorized average ranks."""
    order = np.argsort(scores, kind="mergesort")
    s_sorted = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(s_sorted):
        j = i
        while j + 1 < len(s_sorted) and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    pos = targets.astype(bool)
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def brute_auc(scores, targets):
    pos = scores[targets.astype(bool)]
    neg = scores[~targets.astype(bool)]
    wins = sum(
        1.0 if p > n else (0.5 if p == n else 0.0)
        for p, n in itertools.product(pos, neg)
    )
    return wins / (len(pos) * len(neg))


class TestF1HandExamples:
    def hand_batch(self):
        # class 0: TP=1 FP=1 FN=1 -> 1/2 ; class 1: TP=2 FP=2 FN=0 -> 2/3
        scores = [[0.9, 0.9], [0.9, 0.9], [0.1, 0.9], [0.1, 0.9]]
        targets = [[1, 1], [0, 1], [1, 0], [0, 0]]
        return batch(scores, targets)

    def test_per_class(self):
        np.testing.assert_allclose(
            mx.per_class_f1(self.hand_batch()), [1 / 2, 2 / 3], atol=1e-15
        )

    def test_macro(self):
        np.testing.assert_allclose(mx.macro_f1(self.hand_batch()), 7 / 12, atol=1e-15)

    def test_micro_pooled(self):
        # pooled: TP=3 FP=3 FN=1 -> 2*3/(6+3+1) = 0.6
        np.testing.assert_allclose(mx.micro_f1(self.hand_batch()), 0.6, atol=1e-15)

    def test_perfect(self):
        b = batch([[0.9, 0.1], [0.1, 0.9]], [[1, 0], [0, 1]])
        assert mx.macro_f1(b) == 1.0
        assert mx.micro_f1(b) == 1.0

    def test_empty_class_scores_one(self):
        b = batch([[0.1], [0.2]], [[0], [0]])
        np.testing.assert_array_equal(mx.per_class_f1(b), [1.0])

    def test_all_wrong_zero(self):
        b = batch([[0.9], [0.1]], [[0], [1]])
        np.testing.assert_array_equal(mx.per_class_f1(b), [0.0])

    def test_threshold_boundary_inclusive(self):
        b = batch([[0.5]], [[1]])
        np.testing.assert_array_equal(mx.per_class_f1(b), [1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch([[0.5, 0.5]], [[1]])


class TestF1BruteForce:
    def test_500_random_batches(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            n, c = rng.integers(1, 30), rng.integers(1, 6)
            scores = rng.random((n, c))
            targets = rng.integers(0, 2, (n, c))
            b = batch(scores, targets)
            got = mx.per_class_f1(b)
            decided = scores >= 0.5
            expect = [brute_f1(decided[:, k], targets[:, k].astype(bool)) for k in range(c)]
            np.testing.assert_allclose(got, expect, atol=1e-12)
            np.testing.assert_allclose(mx.macro_f1(b), np.mean(expect), atol=1e-12)


class TestAuc:
    def test_hand_example(self):
        # scores 0.8,0.6,0.4,0.2 with targets 1,0,1,0: pairs (0.8>0.6),(0.8>0.2),
        # (0.4<0.6),(0.4>0.2) -> 3/4
        b = batch([[0.8], [0.6], [0.4], [0.2]], [[1], [0], [1], [0]])
        per, macro, skipped = mx.auc(b)
        np.testing.assert_allclose(per, [0.75], atol=1e-15)
        assert macro == 0.75 and skipped == []

    def test_perfect_separation(self):
        b = batch([[0.9], [0.8], [0.2], [0.1]], [[1], [1], [0], [0]])
        per, _, _ = mx.auc(b)
        np.testing.assert_array_equal(per, [1.0])

    def test_all_tied_half(self):
        b = batch([[0.5], [0.5], [0.5], [0.5]], [[1], [0], [1], [0]])
        per, _, _ = mx.auc(b)
        np.testing.assert_allclose(per, [0.5], atol=1e-15)

    def test_degenerate_class_skipped(self):
        b = batch(
            [[0.9, 0.9], [0.1, 0.8]], [[1, 1], [0, 1]], names=("good", "allpos")
        )
        per, macro, skipped = mx.auc(b)
        assert np.isnan(per[1]) and skipped == ["allpos"]
        np.testing.assert_allclose(macro, per[0])

    def test_500_random_batches_vs_brute_force(self):
        rng = np.random.default_rng(321)
        done = 0
        while done < 500:
            n = rng.integers(4, 25)
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            targets = rng.integers(0, 2, n)
            if targets.sum() in (0, n):
                continue
            per, _, _ = mx.auc(batch(scores[:, None], targets[:, None]))
            np.testing.assert_allclose(per[0], brute_auc(scores, targets), atol=1e-12)
            done += 1

    @pytest.mark.parametrize("decimals", [1, 2])
    @pytest.mark.parametrize("n", [2, 5, 40, 1000])
    def test_bytes_equal_loop_reference_on_ties(self, n, decimals):
        rng = np.random.default_rng(1000 * n + decimals)
        for _ in range(50):
            scores = np.round(rng.uniform(-0.05, 1.0, (n, 3)), decimals)
            # ties between -0.0 and 0.0 too
            zero = scores == 0
            scores[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
            targets = rng.integers(0, 2, (n, 3))
            targets[0], targets[1] = 0, 1
            per, macro, _ = mx.auc(batch(scores, targets))
            want = [loop_rank_auc(scores[:, c], targets[:, c]) for c in range(3)]
            assert per.tobytes() == np.array(want).tobytes()
            assert macro.hex() == float(np.mean(want)).hex()

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = rng.random(20)
        targets = rng.integers(0, 2, 20)
        targets[0], targets[1] = 1, 0
        a, _, _ = mx.auc(batch(scores[:, None], targets[:, None]))
        warped = 1 / (1 + np.exp(-5 * (scores - 0.5)))
        b, _, _ = mx.auc(batch(warped[:, None], targets[:, None]))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_label_flip_complements(self):
        rng = np.random.default_rng(10)
        scores = rng.random(30)
        targets = rng.integers(0, 2, 30)
        targets[:2] = [1, 0]
        a, _, _ = mx.auc(batch(scores[:, None], targets[:, None]))
        b, _, _ = mx.auc(batch(scores[:, None], (1 - targets)[:, None]))
        np.testing.assert_allclose(a[0] + b[0], 1.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    c=st.integers(1, 5),
)
def test_property_f1_permutation_invariant_and_bounded(seed, n, c):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, c))
    targets = rng.integers(0, 2, (n, c))
    b = batch(scores, targets)
    f1 = mx.per_class_f1(b)
    assert np.all((0.0 <= f1) & (f1 <= 1.0))
    perm = rng.permutation(n)
    f1p = mx.per_class_f1(batch(scores[perm], targets[perm]))
    np.testing.assert_allclose(f1, f1p, atol=1e-15)
    assert 0.0 <= mx.micro_f1(b) <= 1.0
