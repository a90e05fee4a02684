"""Operator-level tests: trivial identities, loop-oracle comparisons, and
the gradient tape contract."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqseg import ops
from seqseg.tensor import (
    GradTape,
    NonFiniteError,
    ShapeError,
    TapeError,
    Tensor,
    backward,
)


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_box_sum_identity(self):
        x = t64(np.ones((1, 1, 3, 3)))
        k = t64(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, k, padding=1).data[0, 0]
        assert out[1, 1] == 9.0
        for corner in (out[0, 0], out[0, 2], out[2, 0], out[2, 2]):
            assert corner == 4.0

    def test_identity_kernel(self, rng):
        x = t64(rng.standard_normal((2, 3, 5, 6)))
        k = np.zeros((3, 3, 3, 3))
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        out = ops.conv2d(x, t64(k), padding=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_naive_oracle_dilated(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        fast = ops.conv2d(t64(x), t64(w), t64(b), padding=2, dilation=2).data
        naive = oracles.conv2d_naive(x, w, b, padding=2, dilation=2)
        np.testing.assert_allclose(fast, naive, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_oracle_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        h = int(rng.integers(5, 10))
        w = int(rng.integers(5, 10))
        k = int(rng.choice([1, 3]))
        dilation = int(rng.choice([1, 2, 4]))
        stride = int(rng.choice([1, 2]))
        padding = int(rng.integers(0, 4))
        while (min(h, w) + 2 * padding - dilation * (k - 1) - 1) < 0:
            padding += 1
        x = rng.standard_normal((n, cin, h, w))
        wk = rng.standard_normal((cout, cin, k, k))
        fast = ops.conv2d(t64(x), t64(wk), stride=stride, padding=padding,
                          dilation=dilation).data
        naive = oracles.conv2d_naive(x, wk, stride=stride, padding=padding,
                                     dilation=dilation)
        np.testing.assert_allclose(fast, naive, rtol=1e-5, atol=1e-10)

    def test_channel_mismatch_rejected(self, rng):
        x = t64(rng.standard_normal((1, 3, 5, 5)))
        w = t64(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w)

    def test_empty_output_rejected(self, rng):
        x = t64(rng.standard_normal((1, 1, 2, 2)))
        w = t64(rng.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w)

    def test_input_without_grad_skips_col2im(self, rng, monkeypatch):
        calls = []
        col2im = ops._col2im
        monkeypatch.setattr(ops, "_col2im", lambda *a: calls.append(1) or col2im(*a))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), dtype="float64", requires_grad=True)
        b = Tensor(rng.standard_normal(4), dtype="float64", requires_grad=True)
        for x_grad, want_calls in ((False, 0), (True, 1)):
            x = Tensor(rng.standard_normal((2, 3, 5, 5)), dtype="float64",
                       requires_grad=x_grad)
            with GradTape() as tape:
                loss = ops.sum_all(ops.conv2d(x, w, b, padding=1))
            backward(tape, loss)
            assert (x.grad is not None) == x_grad
            assert len(calls) == want_calls
        assert w.grad is not None and b.grad is not None

    def test_output_dims_formula(self, rng):
        x = t64(rng.standard_normal((1, 2, 11, 9)))
        w = t64(rng.standard_normal((3, 2, 3, 3)))
        out = ops.conv2d(x, w, stride=2, padding=1, dilation=2)
        assert out.shape == (1, 3, (11 + 2 - 2 * 2 - 1) // 2 + 1, (9 + 2 - 2 * 2 - 1) // 2 + 1)


# ---------------------------------------------------------------------------
# batch_norm


class TestBatchNorm:
    def test_normalizes_batch(self, rng):
        x = t64(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 1.5)
        out = ops.batch_norm(x, t64(np.ones(3)), t64(np.zeros(3)),
                             ops.RunningStats(3, np.float64), training=True)
        for c in range(3):
            vals = out.data[:, c]
            assert abs(vals.mean()) < 1e-5
            assert abs(vals.var() - 1.0) < 1e-3

    def test_constant_channel_maps_to_beta(self):
        x = t64(np.full((2, 1, 4, 4), 2.25))
        out = ops.batch_norm(x, t64(np.ones(1)), t64(np.full(1, 0.7)),
                             ops.RunningStats(1, np.float64), training=True)
        np.testing.assert_allclose(out.data, 0.7)

    def test_matches_two_pass_oracle(self, rng):
        x = rng.standard_normal((4, 2, 5, 5))
        gamma = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        out = ops.batch_norm(t64(x), t64(gamma), t64(beta),
                             ops.RunningStats(2, np.float64), training=True)
        np.testing.assert_allclose(out.data, oracles.batch_norm_naive(x, gamma, beta),
                                   rtol=1e-5, atol=1e-8)

    def test_degenerate_batch_rejected(self):
        x = t64(np.ones((1, 2, 1, 1)))
        with pytest.raises(ShapeError):
            ops.batch_norm(x, t64(np.ones(2)), t64(np.zeros(2)),
                           ops.RunningStats(2, np.float64), training=True)

    def test_running_stats_ema(self, rng):
        x = rng.standard_normal((4, 2, 3, 3)) + 5.0
        stats = ops.RunningStats(2, np.float64)
        ops.batch_norm(t64(x), t64(np.ones(2)), t64(np.zeros(2)), stats, training=True)
        np.testing.assert_allclose(stats.mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(stats.var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)),
                                   rtol=1e-12)

    def test_eval_uses_running_stats(self, rng):
        stats = ops.RunningStats(2, np.float64)
        stats.mean = np.array([1.0, -2.0])
        stats.var = np.array([4.0, 0.25])
        x = rng.standard_normal((2, 2, 3, 3))
        out = ops.batch_norm(t64(x), t64(np.ones(2)), t64(np.zeros(2)), stats,
                             training=False)
        expected = (x - stats.mean[None, :, None, None]) / np.sqrt(
            stats.var[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# pointwise


class TestPointwise:
    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(t64([0.0])).data[0] == 0.5

    def test_hadamard_with_zeros(self, rng):
        x = t64(rng.standard_normal((3, 4)))
        z = t64(np.zeros((3, 4)))
        np.testing.assert_array_equal(ops.hadamard(x, z).data, 0.0)

    def test_tanh_gradient_matches_central_difference(self):
        x = Tensor(np.array([0.3]), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            y = ops.sum_all(ops.tanh(x))
        backward(tape, y)
        eps = 1e-6
        fd = (np.tanh(0.3 + eps) - np.tanh(0.3 - eps)) / (2 * eps)
        assert abs(x.grad[0] - fd) < 1e-6

    def test_binary_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ops.add(t64(np.ones((2, 3))), t64(np.ones((3, 2))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_matches_two_branch_oracle(self, dtype):
        rng = np.random.default_rng(3)
        for scale in (1.0, 10.0, 100.0, 1000.0):
            d = (rng.standard_normal(301) * scale).astype(dtype)
            d[:4] = [0.0, -0.0, 1e-30, -1e-30]
            expected = oracles.sigmoid_two_branch(d)
            assert ops.sigmoid(Tensor(d)).data.tobytes() == expected.tobytes()

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_open_interval_ranges(self, values):
        x = t64(values)
        s = ops.sigmoid(x).data
        t = ops.tanh(x).data
        assert np.all((s > 0.0) & (s < 1.0))
        assert np.all((t > -1.0) & (t < 1.0))

    def test_relu(self):
        x = t64([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(ops.relu(x).data, [0.0, 0.0, 3.0])


# ---------------------------------------------------------------------------
# pooling / resizing


class TestPoolAndResize:
    def test_avg_pool_constant(self):
        x = t64(np.full((1, 1, 4, 4), 3.0))
        assert ops.avg_pool(x, 1, 1).data[0, 0, 0, 0] == 3.0

    def test_upsample_constant(self):
        x = t64(np.full((2, 3, 4, 4), 1.75))
        out = ops.bilinear_upsample(x, 9, 7)
        np.testing.assert_allclose(out.data, 1.75, rtol=1e-12)

    def test_avg_pool_matches_window_oracle(self):
        ramp = np.arange(36, dtype=np.float64).reshape(1, 1, 6, 6)
        out = ops.avg_pool(t64(ramp), 2, 2).data
        np.testing.assert_array_equal(out, oracles.avg_pool_naive(ramp, 2, 2))

    def test_avg_pool_uneven_windows_match_oracle(self, rng):
        x = rng.standard_normal((2, 3, 7, 5))
        out = ops.avg_pool(t64(x), 3, 2).data
        np.testing.assert_allclose(out, oracles.avg_pool_naive(x, 3, 2), rtol=1e-12)

    def test_zero_sized_output_rejected(self):
        x = t64(np.ones((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            ops.avg_pool(x, 0, 2)
        with pytest.raises(ShapeError):
            ops.bilinear_upsample(x, 3, 0)

    def test_avg_pool_cannot_upsample(self):
        with pytest.raises(ShapeError):
            ops.avg_pool(t64(np.ones((1, 1, 2, 2))), 4, 4)


# ---------------------------------------------------------------------------
# softmax cross-entropy


class TestSoftmaxCeLoss:
    def test_uniform_logits(self):
        logits = t64(np.zeros((1, 4, 2, 2)))
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        loss = ops.softmax_ce_loss(logits, labels)
        assert abs(loss.item() - np.log(4.0)) < 1e-12

    def test_confident_correct_logits(self):
        logits = np.zeros((1, 3, 2, 2))
        labels = np.array([[[0, 1], [2, 0]]])
        for y in range(2):
            for x in range(2):
                logits[0, labels[0, y, x], y, x] = 30.0
        loss = ops.softmax_ce_loss(t64(logits), labels)
        assert loss.item() < 1e-3

    def test_matches_per_pixel_oracle(self, rng):
        logits = rng.standard_normal((1, 3, 2, 2)) * 2.0
        labels = rng.integers(0, 3, size=(1, 2, 2))
        loss = ops.softmax_ce_loss(t64(logits), labels)
        assert abs(loss.item() - oracles.softmax_ce_naive(logits, labels)) < 1e-6

    def test_ignore_index_excluded(self, rng):
        logits = rng.standard_normal((1, 3, 2, 2))
        labels = np.array([[[0, 255], [255, 2]]])
        loss = ops.softmax_ce_loss(t64(logits), labels, ignore_index=255)
        assert abs(loss.item() - oracles.softmax_ce_naive(logits, labels, 255)) < 1e-6

    def test_all_ignored_rejected(self):
        logits = t64(np.zeros((1, 2, 2, 2)))
        labels = np.full((1, 2, 2), 255)
        with pytest.raises(ShapeError):
            ops.softmax_ce_loss(logits, labels, ignore_index=255)

    def test_label_out_of_range_rejected(self):
        logits = t64(np.zeros((1, 2, 2, 2)))
        labels = np.full((1, 2, 2), 5)
        with pytest.raises(ShapeError):
            ops.softmax_ce_loss(logits, labels)

    def test_softmax_columns_sum_to_one(self, rng):
        # grad * count = p - onehot at each valid pixel, so per-pixel gradient
        # sums vanish exactly when the softmax normalizes to 1.
        logits = Tensor(rng.standard_normal((2, 5, 3, 3)) * 4.0, dtype="float64",
                        requires_grad=True)
        labels = rng.integers(0, 5, size=(2, 3, 3))
        with GradTape() as tape:
            loss = ops.softmax_ce_loss(logits, labels)
        backward(tape, loss)
        per_pixel = logits.grad.sum(axis=1) * labels.size
        assert np.abs(per_pixel).max() < 1e-6

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((1, 4, 2, 2))
        labels = rng.integers(0, 4, size=(1, 2, 2))
        a = ops.softmax_ce_loss(t64(logits), labels).item()
        b = ops.softmax_ce_loss(t64(logits + 7.5), labels).item()
        assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# tape / backward contract


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        x = Tensor(rng.standard_normal((5,)), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.hadamard(x, x))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_reused_leaf_accumulates(self, rng):
        x = Tensor(rng.standard_normal((4,)), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.add(ops.hadamard(x, x), ops.hadamard(x, x)))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, 4 * x.data, rtol=1e-12)

    def test_second_backward_rejected(self):
        x = Tensor(np.ones(3), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(x)
        backward(tape, loss)
        with pytest.raises(TapeError):
            backward(tape, loss)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            y = ops.hadamard(x, x)
        assert y.size == 3
        with pytest.raises(TapeError, match="scalar"):
            backward(tape, y)

    def test_loss_not_on_tape_rejected(self):
        x = Tensor(np.ones(1), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            ops.sum_all(x)
        stray = Tensor(np.zeros(()), dtype="float64")
        with pytest.raises(TapeError):
            backward(tape, stray)

    def test_grad_shape_matches_leaf_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype="float64", requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3, 3, 3)), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.conv2d(x, w, padding=1))
        backward(tape, loss)
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape

    def test_non_finite_gradient_flagged_with_op_id(self):
        x = Tensor(np.array([1e-250]), dtype="float64", requires_grad=True)
        c = Tensor(np.array([1e200]), dtype="float64")
        with GradTape() as tape:
            loss = ops.hadamard(ops.hadamard(x, c), c)
        with pytest.raises(NonFiniteError) as exc, np.errstate(over="ignore"):
            backward(tape, loss)
        assert exc.value.op == "hadamard"
        assert exc.value.op_id == 0  # the inner product's gradient, 1e200 * 1e200

    def test_gradient_of_input_without_grad_is_dropped_unchecked(self):
        # d(loss)/dc = x * k overflows, but c requires no gradient
        x = Tensor(np.array([1e200]), dtype="float64", requires_grad=True)
        c = Tensor(np.array([1e-300]), dtype="float64")
        k = Tensor(np.array([1e200]), dtype="float64")
        with GradTape() as tape:
            loss = ops.sum_all(ops.hadamard(ops.hadamard(x, c), k))
        with np.errstate(over="ignore"):
            backward(tape, loss)
        assert c.grad is None and k.grad is None
        np.testing.assert_allclose(x.grad, [1e-100], rtol=1e-12)

    def test_grads_accumulate_across_tapes_until_reset(self, rng):
        x = Tensor(rng.standard_normal((3,)), dtype="float64", requires_grad=True)
        for _ in range(2):
            with GradTape() as tape:
                loss = ops.sum_all(x)
            backward(tape, loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_forward_overflow_is_an_error(self):
        x = Tensor(np.array([1e300]), dtype="float64")
        with pytest.raises(NonFiniteError) as exc:
            with np.errstate(over="ignore"):
                ops.hadamard(x, x)
        assert exc.value.op == "hadamard"


# ---------------------------------------------------------------------------
# structural ops


class TestPrecisionControl:
    def test_default_dtype_is_float32(self):
        assert Tensor([1.0]).dtype == np.float32

    def test_float64_by_name(self):
        assert Tensor([1.0], dtype="float64").dtype == np.float64
        out = ops.sigmoid(Tensor([0.0], dtype="float64"))
        assert out.dtype == np.float64

    @pytest.mark.parametrize("op", ["conv2d", "batch_norm", "add", "hadamard", "lstm_gates",
                                    "concat_channels", "concat_kernels"])
    def test_mixed_dtypes_rejected(self, rng, op):
        def t(*shape, dtype="float64"):
            return Tensor(rng.standard_normal(shape), dtype=dtype)

        # each call passes one float32 input among float64 ones
        calls = {
            "conv2d": lambda: ops.conv2d(t(2, 4, 5, 5), t(3, 4, 3, 3), t(3, dtype="float32")),
            "batch_norm": lambda: ops.batch_norm(t(2, 3, 4, 4), t(3), t(3, dtype="float32"),
                                                 ops.RunningStats(3, np.float64), training=True),
            "add": lambda: ops.add(t(3, 4, 4, dtype="float32"), t(3, 4, 4)),
            "hadamard": lambda: ops.hadamard(t(3, 4, 4, dtype="float32"), t(3, 4, 4)),
            "lstm_gates": lambda: ops.lstm_gates(
                t(2, 12, 4, 4), None, None, [t(3, 4, 4) for _ in range(3)],
                [t(3, 4, 4) for _ in range(3)] + [t(3, 4, 4, dtype="float32")]),
            "concat_channels": lambda: ops.concat_channels(
                [t(1, 2, 4, 4), t(1, 3, 4, 4, dtype="float32")]),
            "concat_kernels": lambda: ops.concat_kernels(
                [t(2, 3, 4, 4), t(1, 3, 4, 4, dtype="float32")]),
        }
        with pytest.raises(ShapeError, match=f"^{op}: mixed dtypes"):
            calls[op]()

    def test_refused_batch_norm_leaves_running_stats(self, rng):
        stats = ops.RunningStats(3, np.float64)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype="float64")
        gamma = Tensor(np.ones(3), dtype="float64")
        with pytest.raises(ShapeError, match="mixed"):
            ops.batch_norm(x, gamma, Tensor(np.zeros(3), dtype="float32"), stats,
                           training=True)
        assert stats.mean.tolist() == [0.0] * 3 and stats.var.tolist() == [1.0] * 3


class TestStructuralOps:
    def test_expand_batch_repeats_and_sums_back(self, rng):
        u = Tensor(rng.standard_normal((2, 3, 3)), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            e = ops.expand_batch(u, 5)
            loss = ops.sum_all(e)
        assert e.shape == (5, 2, 3, 3)
        for i in range(5):
            np.testing.assert_array_equal(e.data[i], u.data)
        backward(tape, loss)
        np.testing.assert_array_equal(u.grad, np.full((2, 3, 3), 5.0))

    @pytest.mark.parametrize("rows", [[1, 3], range(3, 0, -1), range(2, 2), range(1, 6, 2),
                                      range(-1, 2)],
                             ids=["list", "descending", "empty", "past-end", "negative"])
    def test_gather_batch_takes_only_an_in_bounds_ascending_range(self, rows):
        x = Tensor(np.zeros((5, 2)), dtype="float64")
        with pytest.raises(ShapeError):
            ops.gather_batch(x, rows)

    @pytest.mark.parametrize("rows", [range(7), range(1, 7, 3), range(6, 7), range(2, 8, 2)])
    def test_gather_batch_forward_is_the_slice(self, rng, rows):
        x = Tensor(rng.standard_normal((7, 2, 3)), dtype="float64")
        np.testing.assert_array_equal(ops.gather_batch(x, rows).data,
                                      x.data[rows.start:rows.stop:rows.step])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gather_batch_backward_matches_add_at(self, rng, dtype):
        x = Tensor(rng.standard_normal((7, 2, 3)), dtype=dtype, requires_grad=True)
        rows = range(1, 7, 2)
        g = rng.standard_normal((3, 2, 3)).astype(dtype)
        g[0, 1] = -0.0  # a scatter-add turns a -0.0 gradient into +0.0
        with GradTape() as tape:
            loss = ops.sum_all(ops.hadamard(ops.gather_batch(x, rows), Tensor(g)))
        backward(tape, loss)
        want = np.zeros_like(x.data)
        np.add.at(want, np.array(rows), g)
        assert x.grad.tobytes() == want.tobytes()

    def test_concat_channels_roundtrip(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype="float64", requires_grad=True)
        b = Tensor(rng.standard_normal((2, 1, 4, 4)), dtype="float64", requires_grad=True)
        cat = ops.concat_channels([a, b])
        np.testing.assert_array_equal(cat.data[:, :3], a.data)
        np.testing.assert_array_equal(cat.data[:, 3:], b.data)

    def test_concat_mismatch_rejected(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype="float64")
        b = Tensor(rng.standard_normal((2, 3, 5, 4)), dtype="float64")
        with pytest.raises(ShapeError):
            ops.concat_channels([a, b])

    def test_concat_channels_needs_4d_input(self, rng):
        with pytest.raises(ShapeError):
            ops.concat_channels([Tensor(rng.standard_normal((2, 3, 4)), dtype="float64")])

    @pytest.mark.parametrize("concat,axis", [(ops.concat_channels, 1), (ops.concat_kernels, 0)])
    def test_concat_gradients_are_views_of_one_array(self, rng, concat, axis):
        shape = (2, 3, 4, 4)
        a = Tensor(rng.standard_normal(shape), dtype="float64", requires_grad=True)
        b = Tensor(rng.standard_normal(shape), dtype="float64", requires_grad=True)
        probe = rng.standard_normal((4, 3, 4, 4) if axis == 0 else (2, 6, 4, 4))
        with GradTape() as tape:
            loss = ops.sum_all(ops.hadamard(concat([a, b]), Tensor(probe)))
        backward(tape, loss)
        np.testing.assert_array_equal(np.concatenate([a.grad, b.grad], axis=axis), probe)
        assert a.grad.base is not None and a.grad.base is b.grad.base

    def test_slice_channels_takes_range_and_scatters_back(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 3, 3)), dtype="float64", requires_grad=True)
        with GradTape() as tape:
            s = ops.slice_channels(x, 1, 3)
            loss = ops.sum_all(s)
        np.testing.assert_array_equal(s.data, x.data[:, 1:3])
        backward(tape, loss)
        want = np.zeros((2, 5, 3, 3))
        want[:, 1:3] = 1.0
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("shape,start,stop", [
        ((2, 5, 3), 0, 1),           # not NCHW
        ((2, 5, 3, 3), 2, 2),        # empty range
        ((2, 5, 3, 3), 3, 1),        # reversed range
        ((2, 5, 3, 3), -1, 2),       # negative start
        ((2, 5, 3, 3), 4, 6),        # past the last channel
    ])
    def test_slice_channels_bad_range_rejected(self, rng, shape, start, stop):
        x = Tensor(rng.standard_normal(shape), dtype="float64")
        with pytest.raises(ShapeError):
            ops.slice_channels(x, start, stop)

    def test_concat_kernels_stacks_and_splits_back(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 3, 3)), dtype="float64", requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3, 3, 3)), dtype="float64", requires_grad=True)
        probe = rng.standard_normal((3, 3, 3, 3))
        with GradTape() as tape:
            k = ops.concat_kernels([a, b])
            loss = ops.sum_all(ops.hadamard(k, Tensor(probe)))
        np.testing.assert_array_equal(k.data, np.concatenate([a.data, b.data]))
        backward(tape, loss)
        np.testing.assert_array_equal(a.grad, probe[:2])
        np.testing.assert_array_equal(b.grad, probe[2:])

    @pytest.mark.parametrize("shapes", [
        [],                                   # nothing to stack
        [(2, 3, 3, 3), (2, 4, 3, 3)],         # input channels differ
        [(2, 3, 3, 3), (2, 3, 1, 1)],         # windows differ
        [(2, 3, 3, 3), (3, 3, 3)],            # not 4D
        [(9, 3), (9, 3)],                     # not 4D, first kernel
    ])
    def test_concat_kernels_mismatch_rejected(self, rng, shapes):
        kernels = [Tensor(rng.standard_normal(s), dtype="float64") for s in shapes]
        with pytest.raises(ShapeError):
            ops.concat_kernels(kernels)
