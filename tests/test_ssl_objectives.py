import numpy as np
import pytest

from conftest import assert_grads_match
from ecgssl import diffcore as dc
from ecgssl import ssl_objectives as so


def t(data, rg=True):
    return dc.Tensor(np.asarray(data, dtype=float), requires_grad=rg)


def brute_nt_xent(z_i, z_j, tau):
    """Straight loop transcription of the contrastive loss definition."""
    z = np.vstack([z_i, z_j])
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n = z.shape[0]
    b = n // 2
    total = 0.0
    for a in range(n):
        p = (a + b) % n
        denom = sum(np.exp(z[a] @ z[m] / tau) for m in range(n) if m != a)
        total += -np.log(np.exp(z[a] @ z[p] / tau) / denom)
    return total / n


class TestNtXent:
    def test_single_identical_pair_zero(self):
        emb = so.ViewBatchEmbeddings(t([[1.0, 2.0]]), t([[1.0, 2.0]]), 0.5)
        assert abs(so.nt_xent_loss(emb).data) < 1e-9

    def test_two_pair_worked_example(self):
        # B=2, orthogonal unit pairs, tau=1: every anchor sees one positive
        # at similarity 1 and two negatives at 0, so the loss is
        # -log(e / (e + 2)) per anchor.
        z_i = t([[1.0, 0.0], [0.0, 1.0]])
        z_j = t([[1.0, 0.0], [0.0, 1.0]])
        loss = so.nt_xent_loss(so.ViewBatchEmbeddings(z_i, z_j, 1.0))
        expect = -np.log(np.e / (np.e + 2.0))
        np.testing.assert_allclose(loss.data, expect, atol=1e-12)
        np.testing.assert_allclose(loss.data, 0.5514447139320511, atol=1e-9)

    @pytest.mark.parametrize("b,tau", [(2, 0.5), (5, 0.5), (8, 0.1), (3, 2.0)])
    def test_matches_brute_force(self, rng, b, tau):
        z_i = rng.standard_normal((b, 6))
        z_j = rng.standard_normal((b, 6))
        loss = so.nt_xent_loss(so.ViewBatchEmbeddings(t(z_i), t(z_j), tau))
        np.testing.assert_allclose(loss.data, brute_nt_xent(z_i, z_j, tau), atol=1e-10)

    def test_scale_invariance(self, rng):
        z_i = rng.standard_normal((4, 5))
        z_j = rng.standard_normal((4, 5))
        base = so.nt_xent_loss(so.ViewBatchEmbeddings(t(z_i), t(z_j), 0.5)).data
        for s in (0.1, 10.0):
            scaled = so.nt_xent_loss(
                so.ViewBatchEmbeddings(t(s * z_i), t(s * z_j), 0.5)
            ).data
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_gradient(self, rng):
        z_i = t(rng.standard_normal((4, 5)))
        z_j = t(rng.standard_normal((4, 5)))
        assert_grads_match(
            lambda: so.nt_xent_loss(so.ViewBatchEmbeddings(z_i, z_j, 0.5)),
            [z_i, z_j],
        )

    def test_zero_row_rejected(self):
        z_i = t([[0.0, 0.0], [1.0, 0.0]])
        z_j = t([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            so.nt_xent_loss(so.ViewBatchEmbeddings(z_i, z_j, 0.5))


class TestByol:
    def test_identical_zero(self, rng):
        q = rng.standard_normal((5, 4))
        assert abs(so.byol_loss(t(q), q.copy()).data) < 1e-12

    def test_opposite_four(self, rng):
        q = rng.standard_normal((5, 4))
        np.testing.assert_allclose(so.byol_loss(t(q), -q).data, 4.0, atol=1e-12)

    def test_orthogonal_two(self):
        q = t([[1.0, 0.0]])
        np.testing.assert_allclose(so.byol_loss(q, np.array([[0.0, 1.0]])).data, 2.0)

    def test_equals_two_minus_two_cos(self, rng):
        q = rng.standard_normal((6, 3))
        z = rng.standard_normal((6, 3))
        expect = np.mean([2.0 - 2.0 * so.cosine_sim(a, b) for a, b in zip(q, z)])
        np.testing.assert_allclose(so.byol_loss(t(q), z).data, expect, atol=1e-12)

    def test_scale_invariance(self, rng):
        q = rng.standard_normal((4, 3))
        z = rng.standard_normal((4, 3))
        base = so.byol_loss(t(q), z).data
        np.testing.assert_allclose(so.byol_loss(t(3.0 * q), 0.25 * z).data, base,
                                   atol=1e-12)

    def test_gradient(self, rng):
        q = t(rng.standard_normal((4, 3)))
        z = rng.standard_normal((4, 3))
        assert_grads_match(lambda: so.byol_loss(q, z), [q])


def small_cfg():
    return dc.EncoderConfig(
        n_leads=1,
        conv_blocks=((3, 3, 2),),
        embedding_dim=4,
        projection_dim=2,
        prediction_hidden=3,
    )


class TestByolSymmetric:
    def test_swap_invariance(self, rng):
        cfg = small_cfg()
        online = dc.init_encoder_params(cfg, 0)
        target = dc.init_encoder_params(cfg, 1)
        vi = rng.standard_normal((3, 1, 20))
        vj = rng.standard_normal((3, 1, 20))
        a = so.byol_symmetric_loss(vi, vj, online, target, cfg).data
        b = so.byol_symmetric_loss(vj, vi, online, target, cfg).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_target_receives_no_gradient(self, rng):
        cfg = small_cfg()
        online = dc.init_encoder_params(cfg, 0)
        target = dc.init_encoder_params(cfg, 1)
        vi = rng.standard_normal((3, 1, 20))
        vj = rng.standard_normal((3, 1, 20))
        loss = so.byol_symmetric_loss(vi, vj, online, target, cfg)
        loss.backward()
        for n in target.names():
            assert target[n].grad is None or not np.any(target[n].grad)
        assert any(
            online[n].grad is not None and np.any(online[n].grad)
            for n in online.names()
        )

    def test_online_gradient_matches_fd(self, rng):
        cfg = small_cfg()
        online = dc.init_encoder_params(cfg, 0)
        target = dc.init_encoder_params(cfg, 1)
        vi = rng.standard_normal((2, 1, 16))
        vj = rng.standard_normal((2, 1, 16))
        assert_grads_match(
            lambda: so.byol_symmetric_loss(vi, vj, online, target, cfg),
            [online["proj.fc1.weight"], online["pred.fc1.weight"]],
        )


class TestSinkhorn:
    def test_uniform_scores_uniform_codes(self):
        cm = so.sinkhorn_knopp(np.zeros((4, 3)), epsilon=0.5, n_iters=10)
        np.testing.assert_allclose(cm.codes, np.full((4, 3), 1 / 3), atol=1e-12)

    def test_strong_diagonal_near_identity(self):
        cm = so.sinkhorn_knopp(np.array([[10.0, 0.0], [0.0, 10.0]]), 0.05, 50)
        np.testing.assert_allclose(cm.codes, np.eye(2), atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        cm = so.sinkhorn_knopp(rng.standard_normal((8, 4)), 0.05, 3)
        np.testing.assert_allclose(cm.codes.sum(axis=1), 1.0, atol=1e-12)

    def test_marginals_converge(self, rng):
        scores = rng.standard_normal((8, 4))
        cm = so.sinkhorn_knopp(scores, epsilon=0.5, n_iters=50)
        np.testing.assert_allclose(cm.raw.sum(axis=1), 1 / 8, atol=1e-4)
        np.testing.assert_allclose(cm.raw.sum(axis=0), 1 / 4, atol=1e-4)

    def test_shift_invariance(self, rng):
        scores = rng.standard_normal((5, 3))
        a = so.sinkhorn_knopp(scores, 0.1, 20).codes
        b = so.sinkhorn_knopp(scores + 100.0, 0.1, 20).codes
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_overflow_safe(self):
        cm = so.sinkhorn_knopp(np.array([[1e4, 0.0], [0.0, 1e4]]), 0.05, 10)
        assert np.all(np.isfinite(cm.codes))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            so.sinkhorn_knopp(np.zeros((2, 2)), epsilon=0.0)
        with pytest.raises(ValueError):
            so.sinkhorn_knopp(np.zeros((2, 2)), n_iters=0)
        with pytest.raises(ValueError):
            so.sinkhorn_knopp(np.array([[np.inf, 0.0]]))


def brute_swav(z_i, z_j, C, tau, q_i, q_j):
    """Loop transcription of the swapped cross-entropy."""

    def half(z, q):
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        total = 0.0
        for zb, qb in zip(z, q):
            logits = zb @ C.T / tau
            p = np.exp(logits - logits.max())
            p /= p.sum()
            total += -np.sum(qb * np.log(p))
        return total / z.shape[0]

    return half(z_i, q_j) + half(z_j, q_i)


class TestSwav:
    def test_matches_brute_force(self, rng):
        bank = so.PrototypeBank(4, 5, seed=3)
        z_i = rng.standard_normal((6, 5))
        z_j = rng.standard_normal((6, 5))
        loss = so.swav_loss(t(z_i), t(z_j), bank, temperature=0.1, epsilon=0.5,
                            n_iters=10)
        zn = lambda z: z / np.linalg.norm(z, axis=1, keepdims=True)
        q_i = so.sinkhorn_knopp(zn(z_i) @ bank.C.data.T, 0.5, 10).codes
        q_j = so.sinkhorn_knopp(zn(z_j) @ bank.C.data.T, 0.5, 10).codes
        expect = brute_swav(z_i, z_j, bank.C.data, 0.1, q_i, q_j)
        np.testing.assert_allclose(loss.data, expect, atol=1e-10)

    def test_peaked_agreement_low_loss(self):
        # embeddings sitting on the prototypes, codes one-hot on the same
        # prototypes -> cross-entropy close to its floor
        C = np.eye(2)
        bank = so.PrototypeBank(2, 2, seed=0)
        bank.C.data = C.copy()
        z = t(10.0 * C)
        codes = (np.eye(2), np.eye(2))
        good = so.swav_loss(z, z, bank, temperature=0.1, codes=codes).data
        swapped = so.swav_loss(z, z, bank, temperature=0.1,
                               codes=(np.eye(2)[::-1], np.eye(2)[::-1])).data
        assert good < 0.01
        assert swapped > 5.0

    def test_scale_invariance(self, rng):
        bank = so.PrototypeBank(3, 4, seed=1)
        z_i = rng.standard_normal((4, 4))
        z_j = rng.standard_normal((4, 4))
        base = so.swav_loss(t(z_i), t(z_j), bank, epsilon=0.5).data
        for s in (0.1, 10.0):
            scaled = so.swav_loss(t(s * z_i), t(s * z_j), bank, epsilon=0.5).data
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_gradient_with_pinned_codes(self, rng):
        bank = so.PrototypeBank(3, 4, seed=2)
        z_i = t(rng.standard_normal((5, 4)))
        z_j = t(rng.standard_normal((5, 4)))
        q_i = so.sinkhorn_knopp(rng.random((5, 3)), 0.5, 10).codes
        q_j = so.sinkhorn_knopp(rng.random((5, 3)), 0.5, 10).codes
        assert_grads_match(
            lambda: so.swav_loss(z_i, z_j, bank, codes=(q_i, q_j)),
            [z_i, z_j, bank.C],
        )

    def test_small_batch_warns(self, rng):
        bank = so.PrototypeBank(8, 4, seed=0)
        z = t(rng.standard_normal((2, 4)))
        with pytest.warns(UserWarning):
            so.swav_loss(z, z, bank)

    def test_prototype_renormalize(self):
        bank = so.PrototypeBank(4, 3, seed=0)
        bank.C.data *= 7.0
        data = bank.C.data
        bank.renormalize()
        np.testing.assert_allclose(np.linalg.norm(bank.C.data, axis=1), 1.0,
                                   atol=1e-12)
        # in place: after an Adam step the prototypes stay a view of its values
        assert bank.C.data is data


class TestOptimizationSmoke:
    """A few hundred Adam steps on fixed inputs must reduce each loss."""

    def _embed_params(self, rng, b, d):
        from collections import OrderedDict

        return dc.ModelParams(
            OrderedDict(
                zi=dc.Tensor(rng.standard_normal((b, d)), requires_grad=True),
                zj=dc.Tensor(rng.standard_normal((b, d)), requires_grad=True),
            )
        )

    def test_nt_xent_decreases(self, rng):
        p = self._embed_params(rng, 6, 4)
        st = dc.AdamState(lr=0.05, weight_decay=0.0)
        losses = []
        for _ in range(200):
            loss = so.nt_xent_loss(so.ViewBatchEmbeddings(p["zi"], p["zj"], 0.5))
            losses.append(loss.data)
            loss.backward()
            dc.adam_step(st, p)
        assert losses[-1] < 0.5 * losses[0]

    def test_byol_decreases(self, rng):
        p = self._embed_params(rng, 6, 4)
        target = p["zj"].data.copy()
        st = dc.AdamState(lr=0.05, weight_decay=0.0)
        losses = []
        for _ in range(200):
            loss = so.byol_loss(p["zi"], target)
            losses.append(loss.data)
            loss.backward()
            dc.adam_step(st, p)
        assert losses[-1] < 0.1 * losses[0]

    def test_swav_decreases(self, rng):
        from collections import OrderedDict

        bank = so.PrototypeBank(4, 4, seed=5)
        p = dc.ModelParams(
            OrderedDict(
                zi=dc.Tensor(rng.standard_normal((8, 4)), requires_grad=True),
                zj=dc.Tensor(rng.standard_normal((8, 4)), requires_grad=True),
                C=bank.C,
            )
        )
        st = dc.AdamState(lr=0.02, weight_decay=0.0)
        losses = []
        for _ in range(200):
            loss = so.swav_loss(p["zi"], p["zj"], bank, epsilon=0.5, n_iters=10)
            losses.append(loss.data)
            loss.backward()
            dc.adam_step(st, p)
            bank.renormalize()
        assert losses[-1] < losses[0] - 0.2
