"""Adam, the LR schedule, batch assembly, and the two-phase training loop
(determinism, resume, abort)."""

import numpy as np
import pytest

from seqseg import checkpoint as ckpt
from seqseg import ops
from seqseg.data import GenConfig, generate_dataset
from seqseg.errors import DataError
from seqseg.network import ModelConfig, SegNet
from seqseg.noise import NoisePolicy
from seqseg.tensor import NonFiniteError, Tensor
from seqseg.train import (
    AdamState,
    TrainConfig,
    adam_step,
    build_batch,
    lr_schedule,
    train,
)


class TestAdam:
    def test_zero_gradient_decays_moments(self, rng):
        w = Tensor(rng.standard_normal(4), dtype="float64", requires_grad=True)
        params = {"w": w}
        state = AdamState.for_params(params)
        state.m["w"] = np.full(4, 1.0)
        state.v["w"] = np.full(4, 1.0)
        before = w.data.copy()
        w.grad = np.zeros(4)
        adam_step(params, state, 0.1)
        # the decayed first moment still nudges parameters, but moments shrink
        assert np.all(np.abs(state.m["w"]) < 1.0)
        assert np.all(np.abs(state.v["w"]) < 1.0)
        state2 = AdamState.for_params(params)
        w2 = Tensor(before, dtype="float64", requires_grad=True)
        w2.grad = np.zeros(4)
        adam_step({"w": w2}, state2, 0.1)
        np.testing.assert_array_equal(w2.data, before)

    def test_first_step_magnitude_and_direction(self, rng):
        g = rng.standard_normal(6) * 3.0
        w = Tensor(np.zeros(6), dtype="float64", requires_grad=True)
        params = {"w": w}
        state = AdamState.for_params(params)
        w.grad = g.copy()
        adam_step(params, state, 1e-2)
        assert np.all(np.sign(w.data) == -np.sign(g))
        assert np.all(np.abs(w.data) <= 1e-2 * (1 + 1e-6))
        assert np.all(np.abs(w.data) >= 1e-2 * 0.99)

    def test_converges_on_quadratic(self):
        w = Tensor(np.zeros(4), dtype="float64", requires_grad=True)
        params = {"w": w}
        state = AdamState.for_params(params)
        for _ in range(100):
            w.grad = 2.0 * (w.data - 3.0)
            adam_step(params, state, 0.1)
            w.grad = None
        assert np.abs(w.data - 3.0).max() < 0.05

    def test_nonfinite_gradient_refused_with_name(self):
        w = Tensor(np.zeros(2), dtype="float64", requires_grad=True)
        params = {"bad.param": w}
        state = AdamState.for_params(params)
        w.grad = np.array([np.nan, 0.0])
        with pytest.raises(NonFiniteError, match="bad.param"):
            adam_step(params, state, 0.1)

    def test_loss_scaling_invariance(self, rng):
        gs = [rng.standard_normal(5) for _ in range(20)]

        def run(scale):
            p = Tensor(np.zeros(5), dtype="float64", requires_grad=True)
            ps = {"p": p}
            s = AdamState.for_params(ps)
            for g in gs:
                p.grad = scale * g
                adam_step(ps, s, 1e-3)
                p.grad = None
            return s, p.data

        s1, w1 = run(1.0)
        s10, w10 = run(10.0)
        np.testing.assert_allclose(s10.m["p"], 10.0 * s1.m["p"], rtol=1e-9)
        np.testing.assert_allclose(s10.v["p"], 100.0 * s1.v["p"], rtol=1e-9)
        assert np.abs(w1 - w10).max() < 1e-6


class TestLrSchedule:
    def test_halfway_drop_values(self):
        assert lr_schedule(0, 40, 1e-4) == 1e-4
        assert lr_schedule(19, 40, 1e-4) == 1e-4
        assert lr_schedule(20, 40, 1e-4) == pytest.approx(1e-5)
        assert lr_schedule(39, 40, 1e-4) == pytest.approx(1e-5)

    def test_odd_total_drops_at_ceil_half(self):
        values = [lr_schedule(e, 7, 1.0) for e in range(7)]
        assert values == [1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1]

    def test_exactly_one_drop(self):
        values = [lr_schedule(e, 12, 1e-4) for e in range(12)]
        drops = sum(1 for a, b in zip(values, values[1:]) if a != b)
        assert drops == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(40, 40, 1e-4)
        with pytest.raises(ValueError):
            lr_schedule(-1, 40, 1e-4)


@pytest.fixture(scope="module")
def tiny_data():
    cfg = GenConfig(height=28, width=28, train_clips=2, val_clips=1, clip_len=6, seed=9)
    return generate_dataset(cfg)


def tiny_train_cfg(**kw):
    base = dict(seq_len=4, n_sequences=2, epochs_phase1=2, epochs_phase2=2,
                steps_per_epoch=2, interval=1, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def tiny_net(seed=0, dtype=np.float32):
    mc = ModelConfig(channel_plan=(4, 6, 8, 8), classes=4, crop_h=28, crop_w=28)
    return SegNet(mc, seed=seed, dtype=dtype, mode="phase1")


class TestBuildBatch:
    def test_flattened_batch_has_t_times_n_frames(self, tiny_data):
        from seqseg.train import stack_batch

        cfg = tiny_train_cfg(n_sequences=4)
        samples, masks = build_batch(tiny_data.train, cfg, NoisePolicy(),
                                     np.random.default_rng(0), 28, 28)
        seqs, labels = stack_batch(samples)
        assert seqs.shape == (4, 4, 3, 28, 28)
        assert seqs.reshape(-1, 3, 28, 28).shape[0] == 16
        assert labels.shape == (4, 28, 28)
        assert len(masks) == 4

    def test_noise_none_keeps_augmented_frames(self, tiny_data):
        from seqseg.data import augment_sequence, sample_sequence, valid_targets

        cfg = tiny_train_cfg(noise_kind="none")
        rng_a = np.random.default_rng(33)
        samples, _ = build_batch(tiny_data.train, cfg, NoisePolicy(kind="none"),
                                 rng_a, 28, 28)
        # replay the same draws without the noise stage
        rng_b = np.random.default_rng(33)
        pairs = valid_targets(tiny_data.train, cfg.interval, cfg.seq_len)
        for got in samples:
            cid, target = pairs[int(rng_b.integers(0, len(pairs)))]
            s = sample_sequence(tiny_data.train, cid, target, cfg.interval, cfg.seq_len)
            s = augment_sequence(s, rng_b, 28, 28)
            assert (got.clip_id, got.target_index) == (cid, target)
            np.testing.assert_array_equal(got.frames, s.frames)
            np.testing.assert_array_equal(got.target_label, s.target_label)

    def test_target_draws_uniform(self, tiny_data):
        from seqseg.data import valid_targets

        cfg = tiny_train_cfg(n_sequences=4)
        pairs = valid_targets(tiny_data.train, 1, 4)
        counts = {p: 0 for p in pairs}
        rng = np.random.default_rng(5)
        batches = 10_000
        policy = NoisePolicy()
        for _ in range(batches):
            samples, _ = build_batch(tiny_data.train, cfg, policy, rng, 28, 28)
            for s in samples:
                counts[(s.clip_id, s.target_index)] += 1
        draws = batches * cfg.n_sequences
        expected = draws / len(pairs)
        se = np.sqrt(draws * (1 / len(pairs)) * (1 - 1 / len(pairs)))
        for pair, count in counts.items():
            assert abs(count - expected) <= 3 * se, (pair, count, expected)

    def test_empty_dataset_rejected(self, tiny_data):
        cfg = tiny_train_cfg(interval=5)  # needs 16 frames, clips have 6
        with pytest.raises(DataError, match="valid targets"):
            build_batch(tiny_data.train, cfg, NoisePolicy(), np.random.default_rng(0),
                        28, 28)


class TestTrainLoop:
    def test_deterministic_checkpoints(self, tiny_data, tmp_path):
        cfg = tiny_train_cfg()
        results = []
        for run in ("a", "b"):
            net = tiny_net(seed=4)
            res = train(net, tiny_data, cfg, tmp_path / run)
            results.append(res)
        blob_a = results[0].final_checkpoint.read_bytes()
        blob_b = results[1].final_checkpoint.read_bytes()
        assert blob_a == blob_b
        assert [r["mean_loss"] for r in results[0].rows] == \
               [r["mean_loss"] for r in results[1].rows]

    def test_different_noise_changes_checkpoints(self, tiny_data, tmp_path):
        cfg_a = tiny_train_cfg()
        cfg_b = tiny_train_cfg(noise_kind="random_tensor", noise_p=0.5)
        res_a = train(tiny_net(seed=4), tiny_data, cfg_a, tmp_path / "clean")
        res_b = train(tiny_net(seed=4), tiny_data, cfg_b, tmp_path / "noisy")
        assert res_a.final_checkpoint.read_bytes() != res_b.final_checkpoint.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_resume_reproduces_run(self, tiny_data, tmp_path, dtype):
        cfg = tiny_train_cfg(epochs_phase1=2, epochs_phase2=3)
        full = train(tiny_net(seed=7, dtype=dtype), tiny_data, cfg, tmp_path / "full")

        # stop after phase2 epoch 0 by training a truncated schedule...
        part_cfg = tiny_train_cfg(epochs_phase1=2, epochs_phase2=1)
        part_dir = tmp_path / "part"
        part = train(tiny_net(seed=7, dtype=dtype), tiny_data, part_cfg, part_dir)
        # ...then resume the full schedule from its checkpoint
        resumed = train(tiny_net(seed=123, dtype=dtype), tiny_data, cfg, part_dir,
                        resume_from=part.final_checkpoint)
        assert resumed.final_checkpoint.name == full.final_checkpoint.name
        assert resumed.final_checkpoint.read_bytes() == full.final_checkpoint.read_bytes()

    def test_resume_refuses_corrupt_checkpoint(self, tiny_data, tmp_path):
        cfg = tiny_train_cfg()
        res = train(tiny_net(seed=2), tiny_data, cfg, tmp_path)
        blob = bytearray(res.final_checkpoint.read_bytes())
        blob[40] ^= 0xFF
        res.final_checkpoint.write_bytes(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="checksum"):
            train(tiny_net(seed=2), tiny_data, cfg, tmp_path,
                  resume_from=res.final_checkpoint)

    def test_nonfinite_loss_aborts_keeping_checkpoint(self, tiny_data, tmp_path,
                                                      monkeypatch):
        cfg = tiny_train_cfg(epochs_phase1=2, epochs_phase2=1)
        calls = {"n": 0}
        real = ops.softmax_ce_loss

        def exploding(logits, labels, ignore_index=None):
            calls["n"] += 1
            if calls["n"] > cfg.steps_per_epoch:  # first epoch fine, then NaN
                return Tensor(np.asarray(np.nan, dtype=np.float32))
            return real(logits, labels, ignore_index=ignore_index)

        monkeypatch.setattr(ops, "softmax_ce_loss", exploding)
        with pytest.raises(NonFiniteError, match="training loss"):
            train(tiny_net(seed=3), tiny_data, cfg, tmp_path)
        kept = list((tmp_path / "checkpoints").glob("*.ckpt"))
        assert len(kept) == 1  # epoch-0 checkpoint survived the abort

    def test_phase1_training_keeps_bypass_property(self, tiny_data, tmp_path, rng):
        cfg = tiny_train_cfg(epochs_phase1=1, epochs_phase2=0)
        net = tiny_net(seed=5)
        train(net, tiny_data, cfg, tmp_path)
        assert net.mode == "phase1"
        seqs = rng.random((1, 4, 3, 28, 28)).astype(np.float32)
        base = net.predict(seqs)
        shuffled = seqs.copy()
        shuffled[:, :3] = shuffled[:, [1, 2, 0]]
        np.testing.assert_array_equal(net.predict(shuffled), base)

    def test_five_epoch_smoke_loss_decreases(self, tiny_data, tmp_path):
        # calibrated smoke profile: epoch-5 mean loss < epoch-1 mean loss
        cfg = tiny_train_cfg(epochs_phase1=5, epochs_phase2=0, steps_per_epoch=8,
                             seed=11)
        res = train(tiny_net(seed=11), tiny_data, cfg, tmp_path)
        losses = [r["mean_loss"] for r in res.rows]
        assert len(losses) == 5
        assert losses[4] < losses[0]

    def test_log_columns_and_noise_statistics(self, tiny_data, tmp_path):
        cfg = tiny_train_cfg(noise_kind="random_tensor", noise_p=0.5,
                             epochs_phase1=4, epochs_phase2=0, steps_per_epoch=25)
        res = train(tiny_net(seed=6), tiny_data, cfg, tmp_path)
        log_lines = (tmp_path / "log.csv").read_text().strip().splitlines()
        assert log_lines[0] == "epoch,phase,mean_loss,lr,replaced_frames_mean,wall_seconds"
        assert len(log_lines) == 1 + 4
        # capped scan-order Bernoulli law: mean replacements = 11/8 = 1.375
        means = [r["replaced_frames_mean"] for r in res.rows]
        pooled = float(np.mean(means))
        assert abs(pooled - 1.375) < 0.15
