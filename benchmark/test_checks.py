"""Each correctness check of the benchmark passes on right input and rejects
a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest benchmark -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from seqseg import imgio, ops  # noqa: E402
from seqseg.convlstm import ConvLSTMCell, encode_sequence  # noqa: E402
from seqseg.data import GenConfig, SequenceSample, generate_dataset, save_dataset  # noqa: E402
from seqseg.metrics import ConfusionMatrix, EvalReport, miou, write_report_csv  # noqa: E402
from seqseg.network import ModelConfig, SegNet  # noqa: E402
from seqseg.noise import NoisePolicy, apply_noise  # noqa: E402
from seqseg.tensor import Tensor  # noqa: E402

TINY = ModelConfig(channel_plan=(4, 4, 4, 4), classes=4, crop_h=32, crop_w=32)


# ---------------------------------------------------------------------------
# Eval: one flipped prediction pixel


def _write_eval(root: Path, rng) -> Path:
    """A 2-clip val split of 8x8 labels, dumped predictions and the program's
    report.csv files for them; returns the dump directory."""
    classes, clip_len = 4, 5
    dump = root / "eval_corrupt" / "predictions"
    dump.mkdir(parents=True)
    cms = {"pred": ConfusionMatrix(classes), "pred_corrupted": ConfusionMatrix(classes)}
    for cid in range(2):
        clip = root / "data" / "val" / f"clip_{cid:04d}"
        clip.mkdir(parents=True)
        for t in range(clip_len):
            label = rng.integers(0, classes, (8, 8)).astype(np.uint8)
            imgio.write_pgm(clip / f"label_{t:03d}.pgm", label)
            if t < 3:
                continue
            for prefix, cm in cms.items():
                pred = np.where(rng.random((8, 8)) < 0.7, label,
                                rng.integers(0, classes, (8, 8))).astype(np.uint8)
                imgio.write_pgm(dump / f"{prefix}_{cid:04d}_{t:03d}.pgm", pred)
                cm.update(pred, label)
    per_class, mean = miou(cms["pred"])
    bad_per_class, bad_mean = miou(cms["pred_corrupted"])
    clean = EvalReport(per_class=per_class, mean=mean, evaluated_pixels=0, targets=4)
    (root / "eval").mkdir()
    write_report_csv(root / "eval" / "report.csv", clean)
    corrupt = EvalReport(per_class=per_class, mean=mean, evaluated_pixels=0, targets=4,
                         corruption="both", corrupted_frames=(1, 3),
                         corrupted_per_class=bad_per_class, corrupted_mean=bad_mean)
    write_report_csv(root / "eval_corrupt" / "report.csv", corrupt)
    return dump


def _check_eval(root: Path):
    return checks.check_eval(root / "data", root / "eval_corrupt" / "predictions",
                             root / "eval_corrupt" / "report.csv", root / "eval" / "report.csv",
                             classes=4, val_clips=2, clip_len=5)


@pytest.mark.parametrize("prefix", ["pred", "pred_corrupted"])
def test_eval_check_rejects_one_flipped_prediction_pixel(tmp_path, prefix):
    dump = _write_eval(tmp_path, np.random.default_rng(3))
    assert _check_eval(tmp_path) == 4
    path = dump / f"{prefix}_0001_004.pgm"
    pred = checks.read_pnm(path).copy()
    pred[2, 5] = (pred[2, 5] + 1) % 4
    imgio.write_pgm(path, pred)
    with pytest.raises(checks.CheckFailed):
        _check_eval(tmp_path)


def test_eval_check_rejects_a_missing_target(tmp_path):
    dump = _write_eval(tmp_path, np.random.default_rng(4))
    (dump / "pred_0000_003.pgm").unlink()
    with pytest.raises(checks.CheckFailed, match="targets"):
        _check_eval(tmp_path)


# ---------------------------------------------------------------------------
# Noise law: a biased count of replaced frames


def test_law_is_enumerated_for_p_half_cap_two():
    law = checks.replaced_count_law(0.5, 2, 4)
    assert law == {0: 0.125, 1: 0.375, 2: 0.5}
    assert sum(k * q for k, q in law.items()) == 1.375


def test_noise_check_accepts_the_program_and_rejects_a_bias():
    rng = np.random.default_rng(5)
    policy = NoisePolicy(kind="random_tensor", p=0.5, reversal_p=0.5)
    counts = []
    for _ in range(400):
        frames = rng.random((4, 3, 8, 8), dtype=np.float32)
        sample = SequenceSample(frames=frames, target_label=np.zeros((8, 8), np.uint8),
                                clip_id=0, target_index=3, interval=1)
        out, mask = apply_noise(sample, policy, rng)
        counts.append(checks.count_replaced(frames, out.frames))
        assert counts[-1] == mask.count
    checks.check_noise_counts(counts, 0.5, 2, 4)
    biased = [min(c + 1, 2) if i % 2 == 0 else c for i, c in enumerate(counts)]
    with pytest.raises(checks.CheckFailed, match="standard errors"):
        checks.check_noise_counts(biased, 0.5, 2, 4)
    with pytest.raises(checks.CheckFailed, match="cap"):
        checks.check_noise_counts(counts + [3], 0.5, 2, 4)


def test_reversed_context_counts_no_replacement():
    frames = np.random.default_rng(6).random((4, 3, 4, 4))
    reversed_ = frames.copy()
    reversed_[:3] = frames[:3][::-1]
    assert checks.count_replaced(frames, reversed_) == 0


# ---------------------------------------------------------------------------
# Gradients: a perturbed gradient element


def test_gradient_check_rejects_a_perturbed_element():
    net = SegNet(TINY, seed=2, dtype=np.float64, mode="phase2")
    rng = np.random.default_rng(7)
    seqs = rng.random((1, 4, 3, 32, 32))
    labels = rng.integers(0, 4, (1, 32, 32))
    picks = {name: rng.choice(p.size, size=2, replace=False)
             for name, p in net.params().items()
             if name.startswith("convlstm.") or name.endswith(".W")}
    analytic, numeric = checks.sampled_gradients(net, seqs, labels, picks)
    checks.check_gradients(analytic, numeric)
    name = "convlstm.W_f"
    worst = int(np.argmax(np.abs(analytic[name])))
    analytic[name][worst] *= 1.001
    with pytest.raises(checks.CheckFailed, match=name):
        checks.check_gradients(analytic, numeric)


def test_central_differences_step_off_a_relu_kink():
    x = Tensor(np.array([3e-7]), requires_grad=True)
    out = checks.central_differences(lambda: float(ops.relu(x).data.sum()),
                                     {"x": x}, {"x": np.array([0])})
    assert out["x"][0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# ConvLSTM output against the naive recurrence


def test_convlstm_check_matches_the_program_and_rejects_a_change():
    rng = np.random.default_rng(8)
    cell = ConvLSTMCell(3, 4, 5, 6, rng, dtype=np.float64)
    for g in ("i", "f", "o"):
        cell.params[f"U_{g}"].data = rng.standard_normal((4, 5, 6))
    zs = [rng.standard_normal((2, 3, 5, 6)) for _ in range(4)]
    program = encode_sequence(cell, [Tensor(z) for z in zs]).data
    params = {k: v.data for k, v in cell.params.items()}
    checks.check_convlstm(program, checks.naive_convlstm(params, zs))
    params["U_o"] = params["U_o"] + 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_convlstm(program, checks.naive_convlstm(params, zs))


# ---------------------------------------------------------------------------
# Phase 1: a ConvLSTM parameter that moved


def test_phase1_check_rejects_a_moved_convlstm_parameter():
    net = SegNet(TINY, seed=3, mode="phase1")
    initial = {k: p.data.copy() for k, p in net.params().items()}
    trained = {k: (v if k.startswith("convlstm.") else v + np.float32(1e-3)).copy()
               for k, v in initial.items()}
    checks.check_phase1_params(trained, initial)
    trained["convlstm.V_c"].reshape(-1)[7] += np.float32(1e-6)
    with pytest.raises(checks.CheckFailed, match="convlstm.V_c moved"):
        checks.check_phase1_params(trained, initial)
    trained["convlstm.V_c"] = initial["convlstm.V_c"].copy()
    trained["decoder.classify.b"] = initial["decoder.classify.b"].copy()
    with pytest.raises(checks.CheckFailed, match="did not move"):
        checks.check_phase1_params(trained, initial)


def test_phase1_bypass_check_rejects_a_model_that_reads_context():
    seqs = np.random.default_rng(9).random((2, 4, 3, 32, 32), dtype=np.float32)
    rng = np.random.default_rng(10)
    checks.check_phase1_bypass(SegNet(TINY, seed=4, mode="phase1").predict, seqs, rng)
    with pytest.raises(checks.CheckFailed):
        checks.check_phase1_bypass(SegNet(TINY, seed=4, mode="phase2").predict, seqs, rng)


# ---------------------------------------------------------------------------
# Generated data and the file readers


def test_generated_data_check_rejects_a_recoloured_pixel(tmp_path):
    cfg = GenConfig(train_clips=1, val_clips=1, clip_len=3, seed=11)
    save_dataset(generate_dataset(cfg), tmp_path)
    assert checks.check_generated_data(tmp_path, 1, 1, 3) == 2
    frame = tmp_path / "val" / "clip_0000" / "frame_001.ppm"
    labels = checks.read_pnm(tmp_path / "val" / "clip_0000" / "label_001.pgm")
    rgb = checks.read_pnm(frame).copy()
    y, x = np.argwhere(labels > 0)[0]
    rgb[y, x] = 255 - rgb[y, x]
    imgio.write_ppm(frame, rgb)
    with pytest.raises(checks.CheckFailed, match="base colour"):
        checks.check_generated_data(tmp_path, 1, 1, 3)
    rgb[y, x] = 255 - rgb[y, x]
    y, x = np.argwhere(labels == 0)[0]
    rgb[y, x] = 0
    imgio.write_ppm(frame, rgb)
    with pytest.raises(checks.CheckFailed, match="background"):
        checks.check_generated_data(tmp_path, 1, 1, 3)


def test_fresh_check_rejects_a_file_left_from_the_previous_round(tmp_path):
    """A generator that stops writing one clip would leave the previous
    round's clip behind, which agrees with its labels; only its age gives
    it away."""
    import os
    import time

    save_dataset(generate_dataset(GenConfig(train_clips=2, val_clips=1, clip_len=3, seed=12)),
                 tmp_path)
    for path in (tmp_path / "train" / "clip_0001").iterdir():
        os.utime(path, ns=(0, 0))
    since_ns = time.time_ns() - 10**8
    fresh = [p for p in tmp_path.rglob("*") if p.is_file() and "clip_0001" not in p.parts]
    assert checks.check_fresh(fresh, since_ns) == len(fresh) > 0
    assert checks.check_generated_data(tmp_path, 2, 1, 3) == 3
    with pytest.raises(checks.CheckFailed, match="left over"):
        checks.check_fresh(tmp_path.rglob("*.p?m"), since_ns)
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_fresh([tmp_path / "val" / "clip_0000" / "frame_009.ppm"], since_ns)


def test_checkpoint_reader_matches_the_program(tmp_path):
    from seqseg import checkpoint

    net = SegNet(TINY, seed=5)
    checkpoint.save_model(tmp_path / "m.ckpt", net)
    ours = checks.read_checkpoint(tmp_path / "m.ckpt")
    theirs = checkpoint.load_arrays(tmp_path / "m.ckpt")
    assert list(ours) == list(theirs)
    assert all(np.array_equal(ours[k], theirs[k]) for k in ours)


def test_benchmark_json_matches_the_tables():
    import run

    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()
