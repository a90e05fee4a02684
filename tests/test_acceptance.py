"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live). The learning and paired-training
criteria train real models; expect roughly twenty minutes for the module.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import oracles
import pytest

from seqseg import gradcheck, ops
from seqseg.cli import main
from seqseg.convlstm import ConvLSTMCell
from seqseg.data import GenConfig, SequenceSample, generate_dataset, valid_targets
from seqseg.metrics import ConfusionMatrix, evaluate, miou
from seqseg.network import ModelConfig, SegNet
from seqseg.noise import NoisePolicy, apply_noise, corrupt_for_eval
from seqseg.tensor import Tensor
from seqseg.train import (
    TrainConfig,
    build_batch,
    derived_seed,
    lr_schedule,
    stack_batch,
    train,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_gradient_correctness_full_network():
    started = time.perf_counter()
    reports, ok, _ = gradcheck.run_scope("full", tolerance=1e-6)
    elapsed = time.perf_counter() - started
    full = reports["full_network"]
    names = {e.name for e in full.entries}
    cell_groups = {n for n in names if n.startswith("convlstm.")}
    ok = ok and len(cell_groups) == 15 and elapsed < 120.0
    report("gradient-correctness", ok,
           f"max rel {full.max_rel_error:.2e} over {len(names)} groups "
           f"({len(cell_groups)} ConvLSTM), {elapsed:.0f}s")


def test_convolution_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        h = int(rng.integers(5, 10))
        w = int(rng.integers(5, 10))
        k = int(rng.choice([1, 3]))
        dilation = int(rng.choice([1, 2, 4]))
        stride = int(rng.choice([1, 2]))
        padding = int(rng.integers(0, 3))
        while (min(h, w) + 2 * padding - dilation * (k - 1) - 1) < 0:
            padding += 1
        x = rng.standard_normal((n, cin, h, w))
        wk = rng.standard_normal((cout, cin, k, k))
        fast = ops.conv2d(Tensor(x), Tensor(wk), stride=stride, padding=padding,
                          dilation=dilation).data
        naive = oracles.conv2d_naive(x, wk, stride=stride, padding=padding,
                                     dilation=dilation)
        scale = max(1e-12, float(np.abs(naive).max()))
        worst = max(worst, float(np.abs(fast - naive).max()) / scale)
    elapsed = time.perf_counter() - started
    report("conv-oracle-equivalence", worst < 1e-5 and elapsed < 60.0,
           f"worst rel {worst:.2e} over 50 cases, {elapsed:.1f}s")


def test_convlstm_zero_fixed_point():
    rng = np.random.default_rng(7)
    cell = ConvLSTMCell(3, 5, 6, 6, rng, dtype=np.float64)
    for p in cell.params.values():
        p.data = np.zeros_like(p.data)
    zs = [Tensor(rng.standard_normal((2, 3, 6, 6)), dtype="float64") for _ in range(4)]
    from seqseg.convlstm import cell_step, project_input

    v = ops.concat_kernels([cell.params[f"V_{g}"] for g in "ifco"])
    hc = None
    for z in zs:
        hc = cell_step(cell, project_input(cell, z), hc, v)
    # hc packs h_T and c_T
    ok = bool(hc.shape == (2, 10, 6, 6) and np.all(hc.data == 0.0))
    report("convlstm-zero-fixed-point", ok, "h_T and c_T exactly zero for T=4")


def test_noise_law_reproduction():
    # independent oracle: enumerate {0,1}^3 under scan-order capping
    law = {}
    for outcome in itertools.product((0, 1), repeat=3):
        replaced = 0
        for hit in outcome:
            if replaced >= 2:
                break
            replaced += hit
        law[replaced] = law.get(replaced, 0) + 1 / 8
    assert law == {0: 0.125, 1: 0.375, 2: 0.5}

    rng = np.random.default_rng(0)
    frames = rng.random((4, 3, 2, 2), dtype=np.float32)
    target = frames[-1].copy()
    label = rng.integers(0, 4, size=(2, 2)).astype(np.uint8)
    sample = SequenceSample(frames=frames, target_label=label, clip_id=0,
                            target_index=3, interval=1)
    policy = NoisePolicy(kind="random_tensor", p=0.5, cap=2, reversal_p=0.5)
    counts = np.zeros(4, dtype=np.int64)
    noise_rng = np.random.default_rng(99)
    immune = True
    trials = 100_000
    for _ in range(trials):
        out, mask = apply_noise(sample, policy, noise_rng)
        counts[mask.count] += 1
        if not (np.array_equal(out.frames[-1], target)
                and np.array_equal(out.target_label, label)):
            immune = False
    freq = counts / trials
    within = all(abs(freq[k] - p) < 0.01 for k, p in law.items()) and counts[3] == 0
    report("noise-law", within and immune,
           f"freq P0={freq[0]:.4f} P1={freq[1]:.4f} P2={freq[2]:.4f}, "
           f"target immune in all {trials} trials: {immune}")


def test_protocol_fidelity():
    lr_mid = lr_schedule(20, 40, 1e-4)
    lr_ok = lr_mid == pytest.approx(1e-5) and lr_schedule(19, 40, 1e-4) == 1e-4

    gen = GenConfig(height=28, width=28, train_clips=2, val_clips=1, clip_len=6, seed=1)
    ds = generate_dataset(gen)
    cfg = TrainConfig(seq_len=4, n_sequences=4, seed=0)
    samples, _ = build_batch(ds.train, cfg, NoisePolicy(), np.random.default_rng(0),
                             28, 28)
    seqs, _ = stack_batch(samples)
    flat = seqs.reshape((-1,) + seqs.shape[2:])
    batch_ok = flat.shape[0] == 16

    rng = np.random.default_rng(5)
    sample = SequenceSample(frames=rng.random((4, 3, 8, 8), dtype=np.float32),
                            target_label=rng.integers(0, 4, (8, 8)).astype(np.uint8),
                            clip_id=0, target_index=3, interval=1)
    corrupted = corrupt_for_eval(sample, (1, 3), "gaussian_blur", seed=3)
    changed = [i for i in range(4)
               if np.abs(corrupted.frames[i] - sample.frames[i]).max() > 0]
    corrupt_ok = changed == [0, 2]  # 1-based frames 1 and 3

    report("protocol-fidelity", lr_ok and batch_ok and corrupt_ok,
           f"lr(20/40)={lr_mid:.0e}, flattened batch {flat.shape[0]} frames, "
           f"corrupted frame indices (0-based) {changed}")


def test_phase1_bypass_property():
    rng = np.random.default_rng(11)
    cfg = ModelConfig(channel_plan=(6, 8, 12, 12), classes=4, crop_h=32, crop_w=32)
    net = SegNet(cfg, seed=3, dtype=np.float32, mode="phase1")
    seqs = rng.random((2, 4, 3, 32, 32)).astype(np.float32)
    base = net.predict(seqs)

    identical = True
    for perm in ([2, 1, 0], [1, 2, 0], [0, 2, 1]):
        permuted = seqs.copy()
        permuted[:, :3] = permuted[:, perm]
        identical &= bool(np.array_equal(net.predict(permuted), base))
    sample = SequenceSample(frames=seqs[0], target_label=np.zeros((32, 32), np.uint8),
                            clip_id=0, target_index=3, interval=1)
    corrupted = corrupt_for_eval(sample, (1, 3), "both", seed=9)
    poked = seqs.copy()
    poked[0] = corrupted.frames
    identical &= bool(np.array_equal(net.predict(poked), base))
    report("phase1-bypass", identical,
           "predictions bit-identical under context permutation and corruption")


# ---------------------------------------------------------------------------
# long-running criteria


@pytest.fixture(scope="module")
def default_dataset():
    return generate_dataset(GenConfig())


def test_learning_smoke(default_dataset, tmp_path):
    started = time.perf_counter()
    ds = default_dataset
    assert len(ds.train) == 200 and len(ds.val) == 40  # default dataset scale

    # constant-majority-class baseline over the same evaluation targets
    pixel_counts = np.zeros(4, dtype=np.int64)
    for clip in ds.val:
        pixel_counts += np.bincount(clip.labels[3:].reshape(-1), minlength=256)[:4]
    majority = int(np.argmax(pixel_counts))
    cm = ConfusionMatrix(4)
    for cid, t in valid_targets(ds.val, 1, 4):
        cm.update(np.full((64, 64), majority), ds.val[cid].labels[t])
    _, baseline = miou(cm)

    cfg = TrainConfig(seed=0)  # defaults: 10+10 epochs, 40 steps, lr 1e-4, no noise
    net = SegNet(ModelConfig(), seed=derived_seed(cfg.seed, 100), mode="phase1")
    result = train(net, ds, cfg, tmp_path / "smoke")
    rep = evaluate(net, ds.val, seq_len=cfg.seq_len, interval=cfg.interval)
    elapsed = time.perf_counter() - started

    first_loss = result.rows[0]["mean_loss"]
    final_loss = result.rows[-1]["mean_loss"]
    ok = (rep.mean > baseline) and (final_loss < 0.5 * first_loss) and elapsed < 1800.0
    report("learning-smoke", ok,
           f"mIoU {rep.mean:.4f} vs baseline {baseline:.4f}, "
           f"loss {first_loss:.3f}->{final_loss:.3f}, {elapsed:.0f}s")


def test_directional_noisy_training_effect(tmp_path):
    started = time.perf_counter()
    data_dir = tmp_path / "data48"
    gen_cfg = {"height": 48, "width": 48, "train_clips": 40, "val_clips": 10,
               "clip_len": 20, "pool_images": 16, "seed": 170}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(gen_cfg))
    assert main(["gen-data", "--out", str(data_dir), "--config", str(cfg_path)]) == 0

    run_cfg = {"model": {"crop_h": 48, "crop_w": 48},
               "train": {"epochs_phase1": 4, "epochs_phase2": 6,
                         "steps_per_epoch": 25, "noise_p": 0.5}}
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_cfg))

    out = tmp_path / "paired"
    code = main(["sweep", "--data", str(data_dir), "--out", str(out),
                 "--config", str(run_path), "--param", "noise_kind",
                 "--values", "unrelated_data,none", "--seeds", "5",
                 "--corrupt", "gaussian_blur", "--frames", "1,3", "--seed", "0"])
    elapsed = time.perf_counter() - started
    assert code == 0

    rows = (out / "sweep.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    deg_idx = header.index("degradation")
    val_idx = header.index("value")
    by_kind = {"unrelated_data": [], "none": []}
    for line in rows[1:]:
        cols = line.split(",")
        by_kind[cols[val_idx]].append(float(cols[deg_idx]))
    assert len(by_kind["unrelated_data"]) == 5 and len(by_kind["none"]) == 5
    noisy_mean = float(np.mean(by_kind["unrelated_data"]))
    base_mean = float(np.mean(by_kind["none"]))
    ok = (noisy_mean <= base_mean + 0.005) and elapsed < 10800.0
    report("directional-noisy-effect", ok,
           f"mean degradation noisy {noisy_mean:+.4f} vs baseline {base_mean:+.4f}, "
           f"per-seed noisy {[f'{d:+.3f}' for d in by_kind['unrelated_data']]}, "
           f"{elapsed:.0f}s")


def _tree_bytes(root: Path, skip_names=("manifest.json",)) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip_names:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def _log_without_wall(path: Path) -> list:
    lines = path.read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_determinism_of_command_reruns(tmp_path):
    gen_cfg = {"height": 28, "width": 28, "clip_len": 8, "train_clips": 2,
               "val_clips": 1, "pool_images": 2, "seed": 77}
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(gen_cfg))
    run_cfg = {"model": {"channel_plan": [4, 6, 8, 8], "crop_h": 28, "crop_w": 28},
               "train": {"n_sequences": 2, "epochs_phase1": 1, "epochs_phase2": 1,
                         "steps_per_epoch": 2, "seed": 5}}
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_cfg))

    trees = []
    reports = []
    logs = []
    for rep in ("a", "b"):
        data_dir = tmp_path / rep / "data"
        train_dir = tmp_path / rep / "train"
        eval_dir = tmp_path / rep / "eval"
        assert main(["gen-data", "--out", str(data_dir), "--config", str(cfg_path)]) == 0
        assert main(["train", "--data", str(data_dir), "--out", str(train_dir),
                     "--config", str(run_path)]) == 0
        ckpt = train_dir / "checkpoints" / "phase2_epoch000.ckpt"
        assert main(["eval", "--data", str(data_dir), "--ckpt", str(ckpt),
                     "--out", str(eval_dir), "--dump-predictions"]) == 0
        trees.append(_tree_bytes(data_dir))
        trees.append(_tree_bytes(train_dir, skip_names=("manifest.json", "log.csv")))
        trees.append(_tree_bytes(eval_dir))
        logs.append(_log_without_wall(train_dir / "log.csv"))
        reports.append((eval_dir / "report.csv").read_bytes())

    half = len(trees) // 2
    ok = trees[:half] == trees[half:] and logs[0] == logs[1] and reports[0] == reports[1]
    report("determinism", ok,
           "datasets, checkpoints, logs (minus wall clock) and reports byte-identical")
