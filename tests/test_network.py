"""End-to-end network: flatten/regroup bijection, BN over the flattened
batch, phase-1 bypass, phase-2 temporal sensitivity, prediction readout,
and the whole-model gradient check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqseg import gradcheck, ops
from seqseg.convlstm import encode_sequence
from seqseg.network import ModelConfig, SegNet
from seqseg.tensor import GradTape, ShapeError, Tensor


def tiny_cfg(**kw):
    base = dict(channel_plan=(4, 6, 8, 8), classes=3, ppm_bins=(1, 2), crop_h=16, crop_w=16)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def net64():
    cfg = ModelConfig(channel_plan=(4, 6, 8, 8), classes=4, ppm_bins=(1, 2, 3, 6),
                      crop_h=32, crop_w=32)
    return SegNet(cfg, seed=5, dtype=np.float32, mode="phase2")


class TestFlattenRegroup:
    @given(st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_bijection(self, n, t):
        # phase 2 regroups the flat batch into steps: step i of the ConvLSTM
        # sees frame i of every sequence, in sequence order
        rng = np.random.default_rng(n * 100 + t)
        net = SegNet(tiny_cfg(), seed=2, dtype=np.float64, mode="phase2")
        seqs = rng.random((n, t, 3, 16, 16))
        z = net.extract(Tensor(seqs.reshape(n * t, 3, 16, 16)), t, training=False).data
        steps = [Tensor(z.reshape((n, t) + z.shape[1:])[:, i]) for i in range(t)]
        expected = net.decoder(encode_sequence(net.cell, steps), training=False).data
        np.testing.assert_array_equal(net.forward(seqs, training=False).data, expected)

    def test_flat_index_layout(self, rng):
        # frame t of sequence n lives at row n*T + t, so phase 1 decodes rows
        # n*T + T-1, the target frames
        net = SegNet(tiny_cfg(), seed=2, dtype=np.float64, mode="phase1")
        seqs = rng.random((2, 3, 3, 16, 16))
        z = net.extract(Tensor(seqs.reshape(6, 3, 16, 16)), 3, training=False).data
        expected = net.decoder(Tensor(z[[2, 5]]), training=False).data
        np.testing.assert_array_equal(net.forward(seqs, training=False).data, expected)

    def test_extract_rejects_indivisible_batch(self, net64):
        frames = Tensor(np.zeros((5, 3, 32, 32), dtype=np.float32))
        with pytest.raises(ShapeError):
            net64.extract(frames, seq_len=4, training=False)

    def test_extractor_output_shape(self, net64):
        frames = Tensor(np.random.default_rng(0).random((8, 3, 32, 32)).astype(np.float32))
        z = net64.extract(frames, seq_len=4, training=True)
        assert z.shape == (8, 8, 8, 8)

    def test_bn_sees_whole_flattened_batch(self, rng):
        # batch stats of the first conv's BN must equal a direct two-pass
        # computation over all T*N frames jointly
        net = SegNet(tiny_cfg(), seed=1, dtype=np.float64)
        seqs = rng.random((2, 3, 3, 16, 16))
        flat = seqs.reshape(6, 3, 16, 16)
        block = net.extractor.blocks[0]
        pre_bn = ops.conv2d(Tensor(flat), block.W, stride=block.stride,
                            padding=block.dilation, dilation=block.dilation)
        stats = ops.RunningStats(pre_bn.shape[1], np.float64)
        net.forward(seqs, training=True)
        np.testing.assert_allclose(block.stats.mean,
                                   0.1 * pre_bn.data.mean(axis=(0, 2, 3)), rtol=1e-5)


class TestForward:
    def test_phase1_ignores_context_frames(self, net64, rng):
        seqs = rng.random((2, 4, 3, 32, 32)).astype(np.float32)
        net64.set_mode("phase1")
        base = net64.forward(seqs, training=False).data
        shuffled = seqs.copy()
        shuffled[:, :3] = shuffled[:, [2, 0, 1]]
        out = net64.forward(shuffled, training=False).data
        np.testing.assert_array_equal(base, out)

    def test_phase2_zero_cell_constant_output(self, rng):
        net = SegNet(tiny_cfg(), seed=2, dtype=np.float64, mode="phase2")
        for p in net.cell.params.values():
            p.data = np.zeros_like(p.data)
        a = net.forward(rng.random((1, 4, 3, 16, 16)), training=False).data
        b = net.forward(rng.random((1, 4, 3, 16, 16)), training=False).data
        np.testing.assert_array_equal(a, b)

    def test_phase2_reacts_to_context(self, net64, rng):
        seqs = rng.random((1, 4, 3, 32, 32)).astype(np.float32)
        base = net64.forward(seqs, training=False).data
        poked = seqs.copy()
        poked[0, 0] = rng.random((3, 32, 32)).astype(np.float32)
        out = net64.forward(poked, training=False).data
        assert np.abs(out - base).max() > 0.0

    def test_eval_forward_is_pure(self, net64, rng):
        seqs = rng.random((2, 4, 3, 32, 32)).astype(np.float32)
        a = net64.forward(seqs, training=False).data
        b = net64.forward(seqs, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_frame_size_mismatch_rejected(self, net64, rng):
        with pytest.raises(ShapeError, match="32x32"):
            net64.forward(rng.random((1, 4, 3, 64, 64)).astype(np.float32),
                          training=False)

    def test_logits_shape_matches_frames(self, net64, rng):
        seqs = rng.random((3, 4, 3, 32, 32)).astype(np.float32)
        logits = net64.forward(seqs, training=False)
        assert logits.shape == (3, 4, 32, 32)

    @pytest.mark.parametrize("mode,nodes,gathers", [("phase1", 35, 1), ("phase2", 52, 4)])
    def test_training_step_tape(self, rng, mode, nodes, gathers):
        # a default training step gathers only the steps its phase reads:
        # the target step in phase 1, all T=4 in phase 2
        net = SegNet(ModelConfig(), seed=0, mode=mode)
        seqs = rng.random((2, 4, 3, 64, 64), dtype=np.float32)
        labels = rng.integers(0, 4, size=(2, 64, 64))
        with GradTape() as tape:
            ops.softmax_ce_loss(net.forward(seqs, training=True), labels)
        recorded = [node.op for node in tape.nodes]
        assert len(recorded) == nodes
        assert recorded.count("gather_batch") == gathers

    def test_phase2_step_skips_the_zero_state_convolution(self, rng):
        # one W projection of the flat batch, then a V convolution at every
        # step but the first, whose state is zero
        net = SegNet(tiny_cfg(), seed=0, mode="phase2")
        seqs = rng.random((2, 4, 3, 16, 16), dtype=np.float32)
        with GradTape() as tape:
            net.forward(seqs, training=True)
        stacked = {node.inputs[0]: node.output for node in tape.nodes
                   if node.op == "concat_kernels"}
        w, v = stacked[net.cell.params["W_i"]], stacked[net.cell.params["V_i"]]
        kernels = [node.inputs[1] for node in tape.nodes if node.op == "conv2d"]
        assert sum(k is w for k in kernels) == 1
        assert sum(k is v for k in kernels) == 3
        assert [node.op for node in tape.nodes].count("lstm_gates") == 4


class TestPredict:
    def test_argmax_readout(self, net64, rng):
        seqs = rng.random((2, 4, 3, 32, 32)).astype(np.float32)
        labels = net64.predict(seqs)
        logits = net64.forward(seqs, training=False).data
        np.testing.assert_array_equal(labels, logits.argmax(axis=1))

    def test_tie_breaks_to_lowest_class(self):
        logits = np.zeros((1, 4, 3, 3))
        logits[0, 1] = 2.0
        logits[0, 3] = 2.0
        assert np.all(np.argmax(logits, axis=1) == 1)

    def test_matches_linear_scan_oracle(self, rng):
        logits = rng.standard_normal((1, 4, 3, 3))
        fast = np.argmax(logits, axis=1)
        for y in range(3):
            for x in range(3):
                best, best_c = -np.inf, -1
                for c in range(4):
                    if logits[0, c, y, x] > best:
                        best, best_c = logits[0, c, y, x], c
                assert fast[0, y, x] == best_c


class TestWholeModelGradients:
    def test_full_gradcheck_suite(self):
        reports, ok, elapsed = gradcheck.run_scope("full")
        assert ok, "\n".join(line for r in reports.values() for line in r.lines())
        assert elapsed < 120.0

    def test_two_sequence_toy_batch_gradcheck(self, rng):
        cfg = tiny_cfg()
        net = SegNet(cfg, seed=9, dtype=np.float64, mode="phase2")
        gradcheck.randomize_cell(net.cell, rng, scale=0.3)
        seqs = rng.random((2, 2, 3, 16, 16))
        labels = rng.integers(0, 3, size=(2, 16, 16))

        def loss_fn():
            return ops.softmax_ce_loss(net.forward(seqs, training=True), labels)

        report = gradcheck.grad_check(loss_fn, net.params(), rng=rng, max_elements=6)
        assert report.passed, "\n".join(report.lines())


class TestParamRegistry:
    def test_names_are_hierarchical_and_complete(self, net64):
        names = set(net64.params())
        assert "extractor.block1.conv.W" in names
        assert "extractor.block4.bn.gamma" in names
        assert "convlstm.W_i" in names and "convlstm.U_o" in names
        assert "decoder.ppm.bin6.conv.W" in names
        assert "decoder.classify.b" in names
        assert sum(1 for n in names if n.startswith("convlstm.")) == 15

    def test_phase1_trainables_exclude_cell(self, net64):
        net64.set_mode("phase1")
        assert not any(k.startswith("convlstm.") for k in net64.trainable_params())
        net64.set_mode("phase2")
        assert any(k.startswith("convlstm.") for k in net64.trainable_params())

    @pytest.mark.parametrize("mode", ["phase3", "Phase2", ""])
    def test_unknown_mode_rejected_by_constructor(self, mode):
        with pytest.raises(ValueError, match="unknown mode"):
            SegNet(tiny_cfg(), seed=0, mode=mode)

    def test_reinit_cell_changes_parameters(self, net64):
        before = net64.cell.params["W_i"].data.copy()
        net64.reinit_cell(seed=123)
        assert np.abs(net64.cell.params["W_i"].data - before).max() > 0.0

    def test_buffers_roundtrip(self, net64, rng):
        seqs = rng.random((1, 4, 3, 32, 32)).astype(np.float32)
        net64.forward(seqs, training=True)
        saved = {k: v.copy() for k, v in net64.buffers().items()}
        other = SegNet(net64.cfg, seed=99, dtype=np.float32, mode="phase2")
        other.load_buffers(saved)
        for k, v in other.buffers().items():
            np.testing.assert_array_equal(v, saved[k])
