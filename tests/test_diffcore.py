import gc
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import assert_grads_match
from ecgssl import diffcore as dc
from ecgssl.ssl_objectives import ViewBatchEmbeddings, nt_xent_loss


def t(data, rg=True):
    return dc.Tensor(np.asarray(data, dtype=float), requires_grad=rg)


class TestBackwardBasics:
    def test_sum_of_squares(self):
        w = t([1.0, 2.0])
        loss = (w * w).sum()
        loss.backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        w = t([1.0, 2.0])
        loss = (w * 0.0).sum()
        loss.backward()
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_backward_on_nonscalar_rejected(self):
        w = t([1.0, 2.0])
        with pytest.raises(ValueError):
            (w * w).backward()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            t([np.inf, 1.0])

    def test_first_gradient_not_shared_between_add_parents(self):
        # the + runs its backward first, handing one g to x and y; the
        # squares then add to each, which must not reach the other
        x, y = t([1.0, 2.0]), t([3.0, 5.0])
        loss = (x * x).sum() + (y * y).sum() + (x + y).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])
        np.testing.assert_array_equal(y.grad, [7.0, 11.0])

    def test_unreachable_params_untouched(self):
        w, u = t([1.0]), t([1.0])
        (w * w).sum().backward()
        assert u.grad is None

    def test_tape_freed_after_backward_without_cyclic_gc(self):
        w = t(np.ones(1_000_000))
        gc.disable()
        tracemalloc.start()
        try:
            loss = ((w * 2.0) * w).sum()
            loss.backward()
            del loss
            w.zero_grad()
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # the tape held two 8 MB activations and their gradients
        assert live < 1_000_000


def _backward_keeping_grads(loss):
    """`Tensor.backward` without the release: every op result keeps its
    gradient (the reference for the leaf gradient bytes)."""
    topo = []
    dc._topo_visit(loss, set(), topo)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


class TestGradientRelease:
    def simclr_loss(self, params, cfg, views):
        z1, z2 = (dc.forward_projection(params, dc.forward_encoder(params, cfg, v)) for v in views)
        return nt_xent_loss(ViewBatchEmbeddings(z1, z2, 0.5))

    def test_op_results_freed_leaf_gradients_unchanged(self, rng):
        cfg = dc.EncoderConfig(n_leads=2, conv_blocks=((4, 5, 2), (6, 3, 2)), embedding_dim=8,
                               projection_dim=4, prediction_hidden=4)
        views = rng.standard_normal((2, 6, 2, 40))
        reference = dc.init_encoder_params(cfg, 3)
        _backward_keeping_grads(self.simclr_loss(reference, cfg, views))
        params = dc.init_encoder_params(cfg, 3)
        loss = self.simclr_loss(params, cfg, views)
        topo = []
        dc._topo_visit(loss, set(), topo)
        loss.backward()
        results = [node for node in topo if node._backward is not None]
        assert len(results) > 20 and all(node.grad is None for node in results)
        for name in params.names():
            want = reference[name].grad
            got = params[name].grad
            assert (got is None) == (want is None), name
            if want is not None:
                assert got.tobytes() == want.tobytes(), name

    def test_backward_peak_below_four_gradients(self):
        leaf = t(np.ones(1_000_000))
        y = leaf
        for i in range(8):
            y = y * 1.5 if i % 2 else y + 0.5
        loss = y.sum()
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # without the release, every op result held an 8 MB gradient at the end
        assert peak < 4 * leaf.data.nbytes, peak

    def test_second_backward_adds_the_same_gradient(self, rng):
        x = t(rng.standard_normal(5))
        w = t(rng.standard_normal(5))
        # each leaf enters once, so its gradient is one sum and doubling it is exact
        loss = (((x * w).exp() * 0.5).log() + 2.0).sum()
        loss.backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        loss.backward()
        assert x.grad.tobytes() == (2 * gx).tobytes()
        assert w.grad.tobytes() == (2 * gw).tobytes()


class TestFiniteDifferenceOps:
    """Every op's gradient vs central differences (the independent oracle)."""

    def test_elementwise_chain(self, rng):
        x = t(rng.standard_normal((3, 4)))
        y = t(rng.standard_normal((3, 4)))
        r = rng.standard_normal((3, 4))
        assert_grads_match(lambda: ((x * y + x - y / 2.0) * r).sum(), [x, y])

    def test_div(self, rng):
        x = t(rng.standard_normal((3, 4)))
        y = t(rng.standard_normal((3, 4)) + 3.0)
        assert_grads_match(lambda: (x / y).sum(), [x, y])

    def test_broadcasting(self, rng):
        x = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((4,)))
        assert_grads_match(lambda: ((x + b) * (x * b)).sum(), [x, b])

    def test_matmul(self, rng):
        a = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((4, 2)))
        r = rng.standard_normal((3, 2))
        assert_grads_match(lambda: ((a @ b) * r).sum(), [a, b])

    def test_transpose_reshape(self, rng):
        a = t(rng.standard_normal((3, 4)))
        assert_grads_match(lambda: (a.T.reshape(2, 6) * 1.5).sum(), [a])

    def test_exp_log(self, rng):
        x = t(rng.standard_normal((3, 4)))
        assert_grads_match(lambda: (x.exp() + (x.exp() + 1.0).log()).sum(), [x])

    def test_relu_away_from_kink(self, rng):
        x = t(rng.standard_normal((4, 5)) + np.where(rng.random((4, 5)) > 0.5, 1, -1) * 0.5)
        assert_grads_match(lambda: (x.relu() * 2.0).sum(), [x])

    def test_sum_mean_axes(self, rng):
        x = t(rng.standard_normal((3, 4)))
        assert_grads_match(lambda: (x.sum(axis=1) * x.mean(axis=1)).sum(), [x])

    def test_concat(self, rng):
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((4, 3)))
        r = rng.standard_normal((6, 3))
        assert_grads_match(lambda: (dc.concat([a, b], axis=0) * r).sum(), [a, b])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv1d(self, rng, stride):
        x = t(rng.standard_normal((2, 3, 17)))
        w = t(rng.standard_normal((4, 3, 5)) * 0.4)
        b = t(rng.standard_normal(4) * 0.1)
        out_shape = dc.conv1d(x, w, b, stride).data.shape
        r = rng.standard_normal(out_shape)
        assert_grads_match(lambda: (dc.conv1d(x, w, b, stride) * r).sum(), [x, w, b])

    def test_pool_and_dense(self, rng):
        x = t(rng.standard_normal((2, 3, 10)))
        w = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal(4))
        r = rng.standard_normal((2, 4))
        assert_grads_match(
            lambda: (dc.dense(dc.global_avg_pool(x), w, b) * r).sum(), [x, w, b]
        )

    def test_l2_normalize(self, rng):
        x = t(rng.standard_normal((4, 5)) + 2.0)
        r = rng.standard_normal((4, 5))
        assert_grads_match(lambda: (dc.l2_normalize(x, axis=1) * r).sum(), [x])

    def test_softmax_style_composition(self, rng):
        x = t(rng.standard_normal((3, 5)))
        r = rng.standard_normal((3, 5))

        def fn():
            e = x.exp()
            p = e / e.sum(axis=1, keepdims=True)
            return (p * r).sum()

        assert_grads_match(fn, [x])

    def test_bce_with_logits(self, rng):
        z = t(rng.standard_normal((4, 3)))
        y = (rng.random((4, 3)) > 0.5).astype(float)
        assert_grads_match(lambda: dc.bce_with_logits(z, y), [z])


def _conv1d_per_tap(x, w, b, stride, r):
    """Forward and the three gradients of sum(conv1d(x, w, b) * r), one
    kernel tap at a time."""
    _, _, L = x.shape
    k = w.shape[2]
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    out_len = (L + 2 * pad - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], out_len))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for j in range(k):
        taps = slice(j, j + stride * (out_len - 1) + 1, stride)
        out += np.einsum("bil,oi->bol", xp[:, :, taps], w[:, :, j])
        gw[:, :, j] = np.einsum("bol,bil->oi", r, xp[:, :, taps])
        gxp[:, :, taps] += np.einsum("bol,oi->bil", r, w[:, :, j])
    out += b[None, :, None]
    return out, gxp[:, :, pad : pad + L], gw, r.sum(axis=(0, 2))


def _conv_grid(test):
    """Parametrize `test` over stride, kernel, input channels and length."""
    test = pytest.mark.parametrize("stride", [1, 2, 3])(test)
    test = pytest.mark.parametrize("k", [1, 3, 5, 7])(test)
    test = pytest.mark.parametrize("c_in", [1, 3])(test)
    return pytest.mark.parametrize("L", [17, 16, 2])(test)  # odd, even, shorter than k


class TestConv1dAgainstPerTapLoop:
    @_conv_grid
    def test_forward_and_gradients(self, rng, stride, k, c_in, L):
        x = t(rng.standard_normal((2, c_in, L)))
        w = t(rng.standard_normal((4, c_in, k)))
        b = t(rng.standard_normal(4))
        out = dc.conv1d(x, w, b, stride)
        r = rng.standard_normal(out.shape)
        (out * r).sum().backward()
        want = _conv1d_per_tap(x.data, w.data, b.data, stride, r)
        for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @_conv_grid
    def test_fused_relu_same_bytes_as_relu_node(self, rng, stride, k, c_in, L):
        data = [rng.standard_normal(shape) for shape in ((2, c_in, L), (4, c_in, k), (4,))]
        r = rng.standard_normal((2, 4, (L - 1) // stride + 1))

        def run(fused):
            x, w, b = (t(a) for a in data)
            # the input is one op from the leaf, as in a deeper block, so
            # its gradient is computed
            conv = dc.conv1d(x * 1.0, w, b, stride, relu=fused)
            out = conv if fused else conv.relu()
            (out * r).sum().backward()
            return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]

        assert run(True) == run(False)


def _im2col_window_view(xp, k, stride):
    """The columns of `dc._im2col`, built from `sliding_window_view`."""
    B, _, c_in = xp.shape
    win = sliding_window_view(xp, k, axis=1)[:, ::stride]  # (B, out_len, C_in, k)
    return win.transpose(0, 1, 3, 2).reshape(B * win.shape[1], k * c_in)


def _conv1d_oracle(x, w, b, stride=1, relu=False):
    """`dc.conv1d` before its strided column view, edge-only padding,
    in-place masks and per-tap input gradient: one product for the whole
    input gradient, then k strided adds into a zeroed padded buffer. The new
    conv1d is held to this one's bytes."""
    B, c_in, L = x.data.shape
    c_out, _, k = w.data.shape
    pad = k // 2
    out_len = (L + 2 * pad - k) // stride + 1
    xp = np.zeros((B, L + 2 * pad, c_in))
    xp[:, pad : pad + L] = x.data.transpose(0, 2, 1)
    w2 = w.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
    out = _im2col_window_view(xp, k, stride) @ w2.T
    out += b.data
    if relu:
        mask = out > 0
        out *= mask
    out = out.reshape(B, out_len, c_out).transpose(0, 2, 1)

    def bwd(g):
        g2 = g.transpose(0, 2, 1).reshape(B * out_len, c_out)
        if relu:
            g2 = g2 * mask
        gw = g2.T @ _im2col_window_view(xp, k, stride)
        w._accum(gw.reshape(c_out, k, c_in).transpose(0, 2, 1))
        b._accum(g2.sum(axis=0))
        if not x.requires_grad:
            return
        gcols = (g2 @ w2).reshape(B, out_len, k, c_in)
        gxp = np.zeros_like(xp)
        span = stride * (out_len - 1) + 1
        for j in range(k):
            gxp[:, j : j + span : stride] += gcols[:, :, j]
        x._accum(gxp[:, pad : pad + L].transpose(0, 2, 1))

    return dc.Tensor(out, _parents=(x, w, b), _backward=bwd)


def _conv_bytes(conv, data, r, stride, relu, input_grad=True):
    """Bytes of the output of `conv` and of the x (None when `input_grad`
    is off, as for a data batch), w and b gradients of sum(output * r)."""
    x = t(data[0], rg=input_grad)
    w, b = t(data[1]), t(data[2])
    out = conv(x, w, b, stride, relu)
    (out * r).sum().backward()
    return [None if a is None else a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]


# the conv blocks of the default encoder and of the criterion-6 encoder as
# (C_out, C_in, k, stride, L) at 250-sample windows
ENCODER_BLOCKS = [
    (16, 1, 7, 2, 250), (32, 16, 7, 2, 125), (64, 32, 7, 2, 63),
    (8, 1, 7, 2, 250), (16, 8, 7, 2, 125), (16, 16, 7, 2, 63),
]
CRITERION6_CFG = dc.EncoderConfig(
    n_leads=1, conv_blocks=((8, 7, 2), (16, 7, 2), (16, 7, 2)),
    embedding_dim=16, projection_dim=8, prediction_hidden=8,
)


class TestConv1dSameBytesAsOracle:
    @pytest.mark.parametrize("relu", [False, True])
    @_conv_grid
    def test_grid(self, rng, stride, k, c_in, L, relu):
        data = [rng.standard_normal(shape) for shape in ((2, c_in, L), (4, c_in, k), (4,))]
        r = rng.standard_normal((2, 4, (L - 1) // stride + 1))
        got = _conv_bytes(dc.conv1d, data, r, stride, relu)
        want = _conv_bytes(_conv1d_oracle, data, r, stride, relu)
        assert got[0] == want[0] and got[2:] == want[2:]  # output, w and b gradients
        if c_in > 1:
            assert got[1] == want[1]
        else:
            # one input channel: each tap's product has one column, which
            # numpy hands to BLAS as a matrix-vector product, and that sums
            # the same C_out terms in another order. In an encoder the first
            # block's input is the data batch, which takes no gradient.
            got_x, want_x = (np.frombuffer(a) for a in (got[1], want[1]))
            np.testing.assert_allclose(got_x, want_x, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("c_out, c_in, k, stride, L", ENCODER_BLOCKS)
    def test_encoder_blocks(self, rng, c_out, c_in, k, stride, L, relu):
        data = [rng.standard_normal(shape) for shape in ((32, c_in, L), (c_out, c_in, k), (c_out,))]
        r = rng.standard_normal((32, c_out, (L - 1) // stride + 1))
        # as in the encoder, only a block after the first takes an input gradient
        got = _conv_bytes(dc.conv1d, data, r, stride, relu, input_grad=c_in > 1)
        assert got == _conv_bytes(_conv1d_oracle, data, r, stride, relu, input_grad=c_in > 1)

    @pytest.mark.parametrize("relu", [False, True])
    @_conv_grid
    def test_no_grad_values(self, rng, stride, k, c_in, L, relu):
        # without a tape the ReLU builds no mask: its zeros are +0.0 where
        # the oracle's masked product gives -0.0, and only those may differ
        data = [rng.standard_normal(shape) for shape in ((2, c_in, L), (4, c_in, k), (4,))]
        with dc.no_grad():
            got, want = (conv(*(t(a) for a in data), stride, relu).data
                         for conv in (dc.conv1d, _conv1d_oracle))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cfg", [dc.EncoderConfig(), CRITERION6_CFG])
    def test_encode_same_bytes_as_taped_forward(self, rng, cfg):
        params = dc.init_encoder_params(cfg, seed=0)
        x = rng.standard_normal((dc.ENCODE_CHUNK, cfg.n_leads, 250))
        taped = dc.forward_encoder(params, cfg, x)
        assert taped._parents  # the taped forward builds the ReLU masks
        assert dc.encode(params, cfg, x).tobytes() == taped.data.tobytes()

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k, Lp", [(1, 9), (3, 9), (7, 20), (9, 9)])  # k == Lp: one window
    def test_im2col_equals_window_view(self, rng, stride, k, Lp):
        xp = rng.standard_normal((2, Lp, 3))
        assert np.array_equal(dc._im2col(xp, k, stride), _im2col_window_view(xp, k, stride))


class TestNoGrad:
    def test_results_record_no_tape(self, rng):
        w = t(rng.standard_normal((3, 2, 3)))
        b = t(rng.standard_normal(3))
        x = rng.standard_normal((2, 2, 9))
        with dc.no_grad():
            out = (dc.conv1d(dc.Tensor(x), w, b, 2).relu() * w.data.sum()).sum()
            leaf = t([1.0])
        assert out._parents == () and out._backward is None
        assert out.requires_grad is False
        assert leaf.requires_grad is True  # leaves keep what they are given
        out.backward()
        assert w.grad is None and b.grad is None

    def test_recording_resumes_after_block_and_exception(self):
        w = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            with dc.no_grad():
                with dc.no_grad():
                    pass
                assert (w * w)._parents == ()  # the inner exit kept it off
                raise RuntimeError
        y = w * w
        assert y._parents == (w, w) and y.requires_grad is True
        y.sum().backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])


class TestConv1dDataInput:
    def test_data_batch_gets_no_input_gradient(self, rng, monkeypatch):
        x = dc.Tensor(rng.standard_normal((3, 2, 11)))  # no grad, no parents
        w, b = t(rng.standard_normal((4, 2, 5))), t(rng.standard_normal(4))
        accumulated = []
        accum = dc.Tensor._accum
        monkeypatch.setattr(dc.Tensor, "_accum", lambda self, g: (accumulated.append(self), accum(self, g)))
        (dc.conv1d(x, w, b, 2) * 1.5).sum().backward()
        assert x.grad is None and not any(a is x for a in accumulated)
        assert w.grad is not None and b.grad is not None

    def test_parented_input_gradient_unchanged(self, rng):
        data = rng.standard_normal((3, 2, 11))
        w, b = t(rng.standard_normal((4, 2, 5))), t(rng.standard_normal(4))
        r = rng.standard_normal((3, 4, 6))
        leaf = t(data)
        (dc.conv1d(leaf, w, b, 2) * r).sum().backward()
        # the same input one exact op from a leaf that wants a gradient
        src = t(data)
        (dc.conv1d(src * 1.0, w, b, 2) * r).sum().backward()
        assert src.grad.tobytes() == leaf.grad.tobytes()
        # an op on a leaf that wants no gradient is not taped: it is data
        mid = dc.Tensor(data) * 1.0
        assert not mid.requires_grad and mid._parents == ()
        (dc.conv1d(mid, w, b, 2) * r).sum().backward()
        assert mid.grad is None


SPLIT_SIZES = [1, 2, 31, 32, 33, 48, 96, 257, 1200]
SMALL_CFG = dc.EncoderConfig(n_leads=2, conv_blocks=((4, 5, 2), (6, 3, 2)))


class TestEncode:
    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_balanced_chunks_of_at_most_cap(self, rng, n, monkeypatch):
        sizes = []
        forward = dc.forward_encoder
        monkeypatch.setattr(dc, "forward_encoder", lambda p, c, b: (sizes.append(len(b)), forward(p, c, b))[1])
        dc.encode(dc.init_encoder_params(SMALL_CFG, seed=4), SMALL_CFG, rng.standard_normal((n, 2, 40)))
        assert sum(sizes) == n and len(sizes) == -(-n // dc.ENCODE_CHUNK)
        assert max(sizes) <= dc.ENCODE_CHUNK and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n", sorted({*SPLIT_SIZES, 255, 256, 600}))
    def test_equals_forward_encoder(self, rng, n):
        params = dc.init_encoder_params(SMALL_CFG, seed=4)
        x = rng.standard_normal((n, 2, 40))
        got = dc.encode(params, SMALL_CFG, x)
        want = dc.forward_encoder(params, SMALL_CFG, x).data
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_windows(self):
        cfg = dc.EncoderConfig()
        got = dc.encode(dc.init_encoder_params(cfg, seed=0), cfg, np.zeros((0, 1, 250)))
        assert got.shape == (0, cfg.embedding_dim)

    def test_memory_bounded_by_chunk(self, rng):
        cfg = dc.EncoderConfig()
        params = dc.init_encoder_params(cfg, seed=0)

        def peak(n, fn=dc.encode):
            x = rng.standard_normal((n, 1, 250))
            tracemalloc.start()
            try:
                fn(params, cfg, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = peak(dc.ENCODE_CHUNK)
        # no tape: a taped forward of the same chunk keeps every activation
        assert one_chunk < 0.8 * peak(dc.ENCODE_CHUNK, dc.forward_encoder)
        # five chunks hold the activations of one at a time (unchunked, the
        # peak would be about five times as high)
        assert peak(5 * dc.ENCODE_CHUNK) < 1.25 * one_chunk


class TestL2Normalize:
    def test_three_four_five(self):
        out = dc.l2_normalize(t([[3.0, 4.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        out = dc.l2_normalize(t([[1.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_zero_slice_stays_zero(self):
        out = dc.l2_normalize(t([[0.0, 0.0]]), axis=1)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])


class TestEncoder:
    def small_cfg(self):
        return dc.EncoderConfig(
            n_leads=1,
            conv_blocks=((4, 3, 2),),
            embedding_dim=4,
            projection_dim=2,
            prediction_hidden=3,
        )

    def test_zero_weights_zero_embedding(self):
        cfg = self.small_cfg()
        params = dc.init_encoder_params(cfg, seed=0)
        for tt in params.tensors():
            tt.data[:] = 0.0
        out = dc.forward_encoder(params, cfg, np.ones((2, 1, 16)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_identical_inputs_identical_rows(self):
        cfg = self.small_cfg()
        params = dc.init_encoder_params(cfg, seed=1)
        x = np.random.default_rng(0).standard_normal((1, 1, 16))
        batch = np.concatenate([x, x], axis=0)
        out = dc.forward_encoder(params, cfg, batch)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_identity_conv_pooling_is_mean(self):
        cfg = dc.EncoderConfig(
            n_leads=1,
            conv_blocks=((1, 1, 1),),
            embedding_dim=2,
            projection_dim=2,
            prediction_hidden=2,
        )
        params = dc.init_encoder_params(cfg, seed=0)
        params["conv0.weight"].data[:] = 1.0
        params["conv0.bias"].data[:] = 0.0
        params["embed.weight"].data[:] = 1.0
        params["embed.bias"].data[:] = 0.0
        x = np.abs(np.random.default_rng(1).standard_normal((3, 1, 10)))
        out = dc.forward_encoder(params, cfg, x)
        np.testing.assert_allclose(out.data, np.tile(x.mean(axis=2), (1, 2)))

    def test_one_tape_node_per_conv_block(self, rng):
        cfg = dc.EncoderConfig()
        params = dc.init_encoder_params(cfg, seed=0)
        h = dc.forward_encoder(params, cfg, rng.standard_normal((3, 1, 40)))
        topo = []
        dc._topo_visit(h, set(), topo)
        nodes = [n for n in topo if n._parents]
        # the blocks, then the pool (sum, times 1/n) and the dense layer
        # (matmul, plus bias)
        assert len(nodes) == len(cfg.conv_blocks) + 4
        for i, node in enumerate(nodes[: len(cfg.conv_blocks)]):
            assert node._parents[1] is params[f"conv{i}.weight"]
            assert i == 0 or node._parents[0] is nodes[i - 1]

    def test_shape_mismatch_rejected(self):
        cfg = self.small_cfg()
        params = dc.init_encoder_params(cfg, seed=0)
        with pytest.raises(ValueError):
            dc.forward_encoder(params, cfg, np.ones((2, 3, 16)))

    def test_projection_and_predictor_finite(self, rng):
        cfg = self.small_cfg()
        params = dc.init_encoder_params(cfg, seed=2)
        h = dc.forward_encoder(params, cfg, rng.standard_normal((4, 1, 20)))
        z = dc.forward_projection(params, h)
        q = dc.forward_predictor(params, z)
        assert z.data.shape == (4, 2)
        assert q.data.shape == (4, 2)
        assert np.all(np.isfinite(q.data))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            dc.EncoderConfig(n_leads=1, conv_blocks=((4, 4, 2),))

    def test_deterministic_forward(self, rng):
        cfg = self.small_cfg()
        params = dc.init_encoder_params(cfg, seed=3)
        x = rng.standard_normal((2, 1, 30))
        a = dc.forward_encoder(params, cfg, x).data
        b = dc.forward_encoder(params, cfg, x).data
        assert a.tobytes() == b.tobytes()


class TestAdam:
    def params_one(self, value):
        from collections import OrderedDict

        return dc.ModelParams(OrderedDict(w=dc.Tensor(np.array([value]), requires_grad=True)))

    def test_zero_grad_zero_decay_identity(self):
        p = self.params_one(1.5)
        st = dc.AdamState(lr=0.1, weight_decay=0.0)
        dc.adam_step(st, p)
        np.testing.assert_array_equal(p["w"].data, [1.5])

    def test_descends_quadratic(self):
        p = self.params_one(1.0)
        st = dc.AdamState(lr=0.1, weight_decay=0.0)
        loss = (p["w"] * p["w"]).sum()
        loss.backward()
        dc.adam_step(st, p)
        assert p["w"].data[0] < 1.0

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update m_hat/sqrt(v_hat) = sign(g)
        for g in (0.003, 2.0, -40.0):
            p = self.params_one(0.7)
            st = dc.AdamState(lr=0.05, weight_decay=0.0)
            p["w"].grad = np.full_like(p["w"].data, g)
            dc.adam_step(st, p)
            step = 0.7 - p["w"].data[0]
            # epsilon in the denominator shaves a hair off for tiny gradients
            np.testing.assert_allclose(abs(step), 0.05, rtol=1e-4)

    def test_grads_zeroed_after_step(self):
        p = self.params_one(1.0)
        st = dc.AdamState()
        p["w"].grad = np.ones_like(p["w"].data)
        dc.adam_step(st, p)
        assert p["w"].grad is None


class TestEma:
    def cfg(self):
        return dc.EncoderConfig(n_leads=1, conv_blocks=((2, 3, 1),), embedding_dim=3,
                                projection_dim=2, prediction_hidden=2)

    def test_decay_one_unchanged(self):
        a = dc.init_encoder_params(self.cfg(), 0)
        b = dc.init_encoder_params(self.cfg(), 1)
        snap = a.copy()
        dc.ema_update(a, b, 1.0)
        for n in a.names():
            np.testing.assert_array_equal(a[n].data, snap[n].data)

    def test_decay_zero_copies_online(self):
        a = dc.init_encoder_params(self.cfg(), 0)
        b = dc.init_encoder_params(self.cfg(), 1)
        dc.ema_update(a, b, 0.0)
        for n in a.names():
            np.testing.assert_array_equal(a[n].data, b[n].data)

    def test_halfway(self):
        from collections import OrderedDict

        a = dc.ModelParams(OrderedDict(w=dc.Tensor(np.array([2.0]))))
        b = dc.ModelParams(OrderedDict(w=dc.Tensor(np.array([0.0]))))
        dc.ema_update(a, b, 0.5)
        np.testing.assert_array_equal(a["w"].data, [1.0])

    def test_contraction(self):
        a = dc.init_encoder_params(self.cfg(), 0)
        b = dc.init_encoder_params(self.cfg(), 1)
        before = {n: a[n].data - b[n].data for n in a.names()}
        dc.ema_update(a, b, 0.3)
        for n in a.names():
            np.testing.assert_allclose(a[n].data - b[n].data, 0.3 * before[n], atol=1e-15)

    def test_architecture_mismatch_rejected(self):
        a = dc.init_encoder_params(self.cfg(), 0)
        other = dc.EncoderConfig(n_leads=2, conv_blocks=((2, 3, 1),), embedding_dim=3,
                                 projection_dim=2, prediction_hidden=2)
        b = dc.init_encoder_params(other, 0)
        with pytest.raises(ValueError):
            dc.ema_update(a, b, 0.5)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        cfg = dc.EncoderConfig(n_leads=2, conv_blocks=((4, 3, 2),), embedding_dim=4,
                               projection_dim=2, prediction_hidden=3)
        params = dc.init_encoder_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        dc.save_checkpoint(path, params)
        loaded, spec = dc.load_checkpoint(path)
        assert spec is None
        assert loaded.names() == params.names()
        for n in params.names():
            np.testing.assert_array_equal(
                loaded[n].data, params[n].data.astype(np.float32).astype(np.float64)
            )
        run_spec = {"window_len": 250, "encoder": {"conv_blocks": [[4, 3, 2]]}}
        dc.save_checkpoint(path, params, run_spec)
        loaded, spec = dc.load_checkpoint(path)
        assert spec == run_spec
        assert loaded.names() == params.names()

    def test_deterministic_bytes(self, tmp_path):
        cfg = dc.EncoderConfig(n_leads=1, conv_blocks=((2, 3, 1),), embedding_dim=3,
                               projection_dim=2, prediction_hidden=2)
        params = dc.init_encoder_params(cfg, seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dc.save_checkpoint(p1, params)
        dc.save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()
        dc.save_checkpoint(p1, params, {"a": 1, "b": 2.5})
        dc.save_checkpoint(p2, params, {"b": 2.5, "a": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_stable(self, tmp_path):
        cfg = dc.EncoderConfig(n_leads=1, conv_blocks=((2, 3, 1),), embedding_dim=3,
                               projection_dim=2, prediction_hidden=2)
        params = dc.init_encoder_params(cfg, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dc.save_checkpoint(p1, params)
        loaded, _ = dc.load_checkpoint(p1)
        dc.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError):
            dc.load_checkpoint(path)
