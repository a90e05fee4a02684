"""Confusion matrix, mIoU arithmetic, and the evaluation loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from seqseg import network
from seqseg.data import GenConfig, center_crop, generate_dataset
from seqseg.errors import DataError
from seqseg.metrics import ConfusionMatrix, evaluate, miou, write_report_csv
from seqseg.network import ModelConfig, SegNet


class TestConfusionMatrix:
    def test_perfect_prediction_counts(self):
        cm = ConfusionMatrix(3)
        pred = np.full(10, 1)
        cm.update(pred, pred)
        assert cm.counts[1, 1] == 10
        assert cm.counts.sum() == 10

    def test_ignored_pixels_skipped(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([0, 1, 2]), np.array([255, 255, 255]))
        assert cm.total == 0

    def test_hand_tallied_case(self):
        cm = ConfusionMatrix(3)
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 1, 1, 1, 0, 2])
        cm.update(pred, truth)
        expected = np.array([[1, 1, 0], [0, 2, 0], [1, 0, 1]])
        np.testing.assert_array_equal(cm.counts, expected)

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(DataError):
            cm.update(np.array([3]), np.array([0]))
        with pytest.raises(DataError):
            cm.update(np.array([0]), np.array([7]))

    def test_additivity(self, rng):
        a_pred = rng.integers(0, 4, 50)
        a_truth = rng.integers(0, 4, 50)
        b_pred = rng.integers(0, 4, 70)
        b_truth = rng.integers(0, 4, 70)
        cm_ab = ConfusionMatrix(4).update(a_pred, a_truth).update(b_pred, b_truth)
        cm_union = ConfusionMatrix(4)
        cm_union.update(np.concatenate([a_pred, b_pred]),
                        np.concatenate([a_truth, b_truth]))
        np.testing.assert_array_equal(cm_ab.counts, cm_union.counts)


class TestMiou:
    def test_perfect_prediction(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 2]))
        per_class, mean = miou(cm)
        np.testing.assert_array_equal(per_class, [1.0, 1.0, 1.0])
        assert mean == 1.0

    def test_two_class_arithmetic(self):
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[50, 50], [0, 100]], dtype=np.int64)
        per_class, mean = miou(cm)
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(100 / 150)
        assert mean == pytest.approx((0.5 + 100 / 150) / 2)

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([0, 1]), np.array([0, 1]))
        per_class, mean = miou(cm)
        assert np.isnan(per_class[2])
        assert mean == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            miou(ConfusionMatrix(3))

    @given(st.permutations(range(4)), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, perm, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, 200)
        truth = rng.integers(0, 4, 200)
        perm = np.asarray(perm)
        base, base_mean = miou(ConfusionMatrix(4).update(pred, truth))
        permuted, perm_mean = miou(ConfusionMatrix(4).update(perm[pred], perm[truth]))
        np.testing.assert_allclose(permuted[perm], base, rtol=1e-12)
        assert perm_mean == pytest.approx(base_mean, rel=1e-12)

    def test_monotone_damage(self, rng):
        truth = rng.integers(0, 3, 100)
        pred = truth.copy()
        flip = 17
        base, _ = miou(ConfusionMatrix(3).update(pred, truth))
        pred[flip] = (truth[flip] + 1) % 3
        damaged, _ = miou(ConfusionMatrix(3).update(pred, truth))
        ok = ~np.isnan(base) & ~np.isnan(damaged)
        assert np.all(damaged[ok] <= base[ok] + 1e-12)


@pytest.fixture(scope="module")
def eval_setup():
    cfg = GenConfig(height=28, width=28, train_clips=1, val_clips=2, clip_len=8, seed=3)
    ds = generate_dataset(cfg)
    mc = ModelConfig(channel_plan=(4, 6, 8, 8), classes=4, crop_h=28, crop_w=28)
    net = SegNet(mc, seed=0, dtype=np.float32, mode="phase2")
    return ds, net


class TestEvaluate:
    def test_purity(self, eval_setup):
        ds, net = eval_setup
        a = evaluate(net, ds.val, seq_len=4, interval=1)
        b = evaluate(net, ds.val, seq_len=4, interval=1)
        np.testing.assert_array_equal(a.per_class, b.per_class)
        assert a.mean == b.mean
        assert a.targets == 2 * 5

    def test_phase1_bypass_ignores_corruption(self, eval_setup):
        ds, net = eval_setup
        net.set_mode("phase1")
        try:
            report = evaluate(net, ds.val, seq_len=4, interval=1,
                              corruption="gaussian_blur", corrupted_frames=(1, 3))
        finally:
            net.set_mode("phase2")
        assert report.corrupted_mean == report.mean
        assert report.degradation == 0.0

    def test_unknown_corruption_rejected_in_phase1(self, eval_setup):
        # a phase-1 corrupted pass corrupts nothing, but still checks its kind
        ds, net = eval_setup
        net.set_mode("phase1")
        try:
            with pytest.raises(DataError, match="unknown corruption kind"):
                evaluate(net, ds.val, seq_len=4, interval=1, corruption="snow")
        finally:
            net.set_mode("phase2")

    def test_degradation_is_literal_difference(self, eval_setup):
        ds, net = eval_setup
        report = evaluate(net, ds.val, seq_len=4, interval=1,
                          corruption="gaussian_blur", corrupted_frames=(1, 3))
        assert abs(report.degradation - (report.mean - report.corrupted_mean)) < 1e-12

    def test_batch_size_cannot_change_results(self, eval_setup):
        ds, net = eval_setup
        a = evaluate(net, ds.val, seq_len=4, interval=1, batch_size=2)
        b = evaluate(net, ds.val, seq_len=4, interval=1, batch_size=7)
        np.testing.assert_array_equal(a.per_class, b.per_class)

    def test_empty_validation_rejected(self, eval_setup):
        _, net = eval_setup
        with pytest.raises(DataError):
            evaluate(net, [], seq_len=4, interval=1)

    def test_prediction_dumps_counted(self, eval_setup, tmp_path):
        ds, net = eval_setup
        report = evaluate(net, ds.val, seq_len=4, interval=1, dump_dir=tmp_path)
        preds = sorted(tmp_path.glob("pred_*.pgm"))
        gts = sorted(tmp_path.glob("gt_*.pgm"))
        assert len(preds) == report.targets
        assert len(gts) == report.targets

    def test_report_csv_layout(self, eval_setup, tmp_path):
        ds, net = eval_setup
        report = evaluate(net, ds.val, seq_len=4, interval=1,
                          corruption="distortion", corrupted_frames=(1, 3))
        out = tmp_path / "report.csv"
        write_report_csv(out, report)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["class_id", "iou"]
        assert "degradation" in lines[0]
        assert lines[-1].startswith("mean,")
        assert lines[-1].split(",")[2] == "distortion"


@pytest.fixture(scope="module")
def oracle_clips():
    """Two 8-frame val clips of 32x32 frames around a 3-frame clip too short
    to hold a target at (T=4, k=1) or (T=3, k=2)."""
    cfg = GenConfig(height=32, width=32, train_clips=1, val_clips=3, clip_len=8, seed=5)
    val = generate_dataset(cfg).val
    short = dataclasses.replace(val[1], frames=val[1].frames[:3], labels=val[1].labels[:3])
    return [val[0], short, val[2]]


def oracle_net(mode, dtype):
    """A seeded net with a 28x28 crop, smaller than the clips' 32x32 frames,
    batch-norm running statistics away from their 0/1 start, and ConvLSTM
    parameters large enough that the context moves the predictions."""
    mc = ModelConfig(channel_plan=(4, 6, 8, 8), classes=4, crop_h=28, crop_w=28)
    net = SegNet(mc, seed=2, dtype=dtype, mode=mode)
    rng = np.random.default_rng(9)
    for p in net.cell.params.values():
        p.data = rng.normal(0.0, 1.0, p.shape).astype(dtype)
    for stats in net.bn_stats().values():
        stats.mean = rng.normal(0.0, 0.1, stats.mean.shape).astype(dtype)
        stats.var = rng.uniform(0.5, 2.0, stats.var.shape).astype(dtype)
    return net


def report_fields(report):
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def dumped(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestStreamingMatchesOracle:
    """``evaluate`` streams each clip once through the extractor; its
    reports, report.csv and dumps equal, bit for bit, those of building and
    predicting every target's whole sequence."""

    @pytest.mark.parametrize("corruption", [None, "both"])
    @pytest.mark.parametrize("seq_len,interval", [(4, 1), (3, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["phase1", "phase2"])
    def test_bitwise_equal(self, oracle_clips, tmp_path, mode, dtype, seq_len, interval,
                           corruption):
        net = oracle_net(mode, dtype)
        kw = dict(seq_len=seq_len, interval=interval, corruption=corruption,
                  corrupted_frames=tuple(range(1, seq_len, 2)), corrupt_seed=3)
        want = oracles.evaluate_by_sample(net, oracle_clips, dump_dir=tmp_path / "want", **kw)
        write_report_csv(tmp_path / "want.csv", want)
        want_dumps = dumped(tmp_path / "want")
        assert want.targets == 2 * (8 - (seq_len - 1) * interval)
        if corruption is not None and mode == "phase2":  # the corrupted pass is not a copy
            assert any(want_dumps[name] != want_dumps[name.replace("pred_corrupted", "pred")]
                       for name in want_dumps if name.startswith("pred_corrupted"))
        for batch_size in (2, 7):
            out = tmp_path / f"bs{batch_size}"
            got = evaluate(net, oracle_clips, batch_size=batch_size, dump_dir=out, **kw)
            write_report_csv(tmp_path / f"bs{batch_size}.csv", got)
            want_fields, got_fields = report_fields(want), report_fields(got)
            for name, value in want_fields.items():
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(got_fields[name], value, err_msg=name)
                else:
                    assert got_fields[name] == value, name
            assert ((tmp_path / f"bs{batch_size}.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes())
            assert dumped(out) == want_dumps


class TestExtractorCalls:
    """Every frame of a clip that holds a target goes through the extractor
    once, and in phase 2 through the ConvLSTM input projection once; the
    corrupted pass adds only the corrupted context frames."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = SegNet.extract

        def extract(net, frames, seq_len, training):
            calls.append(frames.data.copy())
            return original(net, frames, seq_len, training)

        monkeypatch.setattr(SegNet, "extract", extract)
        return calls

    @pytest.fixture
    def projected(self, monkeypatch):
        rows = []
        original = network.project_input

        def project_input(cell, z):
            rows.append(z.shape[0])
            return original(cell, z)

        monkeypatch.setattr(network, "project_input", project_input)
        return rows

    @pytest.mark.parametrize("seq_len,interval,frames", [(4, 1, (1, 3)), (3, 2, (1, 2))])
    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_rows_extracted(self, oracle_clips, counted, projected, seq_len, interval,
                            frames, batch_size):
        net = oracle_net("phase2", np.float32)
        clean = evaluate(net, oracle_clips, seq_len=seq_len, interval=interval,
                         batch_size=batch_size)
        # the 3-frame clip holds no target
        held = [center_crop(c.frames, 28, 28) / np.float32(255) for c in oracle_clips[::2]]
        np.testing.assert_array_equal(np.concatenate(counted), np.concatenate(held))
        rows = [len(frames_in) for frames_in in counted]
        assert projected == rows
        counted.clear()
        projected.clear()
        evaluate(net, oracle_clips, seq_len=seq_len, interval=interval,
                 batch_size=batch_size, corruption="distortion", corrupted_frames=frames)
        corrupt_rows = [len(frames_in) for frames_in in counted]
        assert projected == corrupt_rows
        assert sum(corrupt_rows) - sum(rows) == clean.targets * len(frames)
        assert max(rows + corrupt_rows) <= batch_size * seq_len

    @pytest.mark.parametrize("seq_len,interval,frames", [(4, 1, (1, 3)), (3, 2, (1, 2))])
    def test_phase1_corrupted_pass_extracts_nothing(self, oracle_clips, counted, projected,
                                                    seq_len, interval, frames):
        # a phase-1 prediction reads only the target frame, which is never
        # corrupted, and it bypasses the ConvLSTM
        net = oracle_net("phase1", np.float32)
        evaluate(net, oracle_clips, seq_len=seq_len, interval=interval, batch_size=2)
        rows = sum(len(frames_in) for frames_in in counted)
        counted.clear()
        evaluate(net, oracle_clips, seq_len=seq_len, interval=interval, batch_size=2,
                 corruption="distortion", corrupted_frames=frames)
        assert sum(len(frames_in) for frames_in in counted) == rows
        assert projected == []
