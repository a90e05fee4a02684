"""Correctness checks for the benchmark's workloads.

Each check recomputes what it verifies with its own file readers and its
own arithmetic (direct convolution, a cross-entropy, a bincount confusion
matrix, an enumerated noise law), so a fault in the program's code path
cannot vouch for itself. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import struct
from pathlib import Path

import numpy as np

from seqseg import ops
from seqseg.tensor import GradTape, backward

IGNORE = 255
# RGB base colour per shape class and the generator's per-shape jitter
BASE_COLORS = {1: (0.85, 0.25, 0.20), 2: (0.20, 0.75, 0.30), 3: (0.25, 0.35, 0.85)}
COLOR_JITTER = 0.08
BACKGROUND_RANGE = (0.25, 0.75)
QUANT = 0.5 / 255.0 + 1e-9      # uint8 rounding of a [0, 1] value
REPORT_ROUNDING = 0.5e-4 + 1e-9  # report.csv prints 4 decimals
NOISE_Z = 5.0                   # standard errors allowed for the mean replaced count


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# File readers


def read_pnm(path) -> np.ndarray:
    """Binary P5/P6 with maxval 255 -> [H, W] or [H, W, 3] uint8."""
    blob = Path(path).read_bytes()
    magic, w, h, maxval = blob.split(maxsplit=4)[:4]
    require(magic in (b"P5", b"P6") and maxval == b"255", f"{path}: bad PNM header")
    channels = 3 if magic == b"P6" else 1
    size = int(w) * int(h) * channels
    pixels = np.frombuffer(blob[len(blob) - size:], dtype=np.uint8)
    return pixels.reshape((int(h), int(w), 3) if channels == 3 else (int(h), int(w)))


def read_checkpoint(path) -> dict:
    """NLSTM001 container -> {name: float array}."""
    blob = Path(path).read_bytes()
    require(blob[:8] == b"NLSTM001", f"{path}: bad checkpoint magic")
    dtype = np.dtype(f"<f{blob[8]}")
    arrays, off = {}, 9
    while off < len(blob):
        (n,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + n].decode()
        off += 4 + n
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        count = math.prod(dims)
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=off).reshape(dims)
        off += count * dtype.itemsize
    return arrays


def check_fresh(paths, since_ns: int) -> int:
    """Every path exists and was written at or after ``since_ns`` (ns since
    the epoch); returns the number of paths."""
    count = 0
    for path in paths:
        require(path.is_file(), f"{path}: missing")
        require(path.stat().st_mtime_ns >= since_ns,
                f"{path}: left over from before the round, not written by it")
        count += 1
    return count


def _clip_dirs(root, split: str) -> list:
    split_dir = Path(root) / split
    return sorted(p for p in split_dir.iterdir() if p.is_dir()) if split_dir.exists() else []


# ---------------------------------------------------------------------------
# Generated data


def check_generated_clip(frames: np.ndarray, labels: np.ndarray, where: str) -> None:
    """frames [F, H, W, 3] uint8, labels [F, H, W] uint8."""
    rgb = frames.astype(np.float64) / 255.0
    require(set(np.unique(labels).tolist()) <= {0, *BASE_COLORS}, f"{where}: unknown label")
    for cls, base in BASE_COLORS.items():
        dev = np.abs(rgb[labels == cls] - np.asarray(base)).max(initial=0.0)
        require(dev <= COLOR_JITTER + QUANT,
                f"{where}: class {cls} pixel {dev:.4f} away from its base colour")
    bg = rgb[labels == 0]
    lo, hi = BACKGROUND_RANGE
    require(bg.size == 0 or (bg.min() >= lo - QUANT and bg.max() <= hi + QUANT),
            f"{where}: background pixel outside [{lo}, {hi}]")


def check_generated_data(root, train_clips: int, val_clips: int, clip_len: int) -> int:
    """Every clip on disk has clip_len frames and plausible pixels; returns the clip count."""
    clips = 0
    for split, expected in (("train", train_clips), ("val", val_clips)):
        dirs = _clip_dirs(root, split)
        require(len(dirs) == expected, f"{split}: {len(dirs)} clips, expected {expected}")
        for d in dirs:
            frames = [read_pnm(p) for p in sorted(d.glob("frame_*.ppm"))]
            labels = [read_pnm(p) for p in sorted(d.glob("label_*.pgm"))]
            require(len(frames) == len(labels) == clip_len, f"{d}: wrong frame count")
            check_generated_clip(np.stack(frames), np.stack(labels), str(d))
            clips += 1
    return clips


# ---------------------------------------------------------------------------
# Eval


def confusion(pred: np.ndarray, truth: np.ndarray, classes: int) -> np.ndarray:
    keep = truth != IGNORE
    idx = truth[keep].astype(np.int64) * classes + pred[keep].astype(np.int64)
    return np.bincount(idx, minlength=classes * classes).reshape(classes, classes)


def miou(cm: np.ndarray) -> tuple:
    """Per-class IoU (NaN when a class is absent from truth and prediction) and their mean."""
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=0) + cm.sum(axis=1) - tp
    per_class = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
    return per_class, float(np.nanmean(per_class))


def read_report(path) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return {"classes": [r for r in rows if r["class_id"] != "mean"],
            "mean": next(r for r in rows if r["class_id"] == "mean")}


def check_eval(data_root, dump_dir, corrupt_report, clean_report, *, classes: int,
               val_clips: int, clip_len: int, seq_len: int = 4, interval: int = 1) -> int:
    """Recompute both mIoUs of a ``--corrupt --dump-predictions`` eval from
    the dumped prediction PGMs and the dataset's label files; returns the
    target count."""
    dump_dir = Path(dump_dir)
    expected_targets = val_clips * (clip_len - (seq_len - 1) * interval)
    report = read_report(corrupt_report)
    clean = read_report(clean_report)
    labels = {}
    for d in _clip_dirs(data_root, "val"):
        cid = int(d.name.split("_")[-1])
        for p in d.glob("label_*.pgm"):
            labels[(cid, int(p.stem.split("_")[-1]))] = p
    means = {}
    for prefix, column in (("pred", "clean_miou"), ("pred_corrupted", "corrupted_miou")):
        paths = sorted(p for p in dump_dir.glob(f"{prefix}_*.pgm")
                       if p.stem.count("_") == prefix.count("_") + 2)
        require(len(paths) == expected_targets,
                f"{len(paths)} {prefix} targets, expected {expected_targets}")
        cm = np.zeros((classes, classes), dtype=np.int64)
        for p in paths:
            cid, target = (int(tok) for tok in p.stem.split("_")[-2:])
            require(target >= (seq_len - 1) * interval, f"{p.name}: target lacks history")
            cm += confusion(read_pnm(p), read_pnm(labels[(cid, target)]), classes)
        per_class, mean = miou(cm)
        means[column] = mean
        require(abs(mean - float(report["mean"][column])) <= REPORT_ROUNDING,
                f"{column}: recomputed {mean:.6f}, report says {report['mean'][column]}")
        if prefix == "pred":
            for row, iou in zip(report["classes"], per_class):
                reported = float(row["iou"]) if row["iou"] else float("nan")
                require((np.isnan(iou) and np.isnan(reported))
                        or abs(iou - reported) <= REPORT_ROUNDING,
                        f"class {row['class_id']}: recomputed IoU {iou:.6f}, "
                        f"report says {row['iou']}")
    require(abs(means["clean_miou"] - float(clean["mean"]["iou"])) <= REPORT_ROUNDING,
            "clean eval and corrupted eval disagree on the clean mIoU")
    return expected_targets


# ---------------------------------------------------------------------------
# Noise law


def replaced_count_law(p: float, cap: int, seq_len: int) -> dict:
    """Distribution of the number of replaced context frames, enumerated over
    every Bernoulli(p) outcome of the T-1 context frames, capped at ``cap``."""
    law: dict = {}
    for draws in itertools.product((0, 1), repeat=seq_len - 1):
        k = sum(draws)
        law[min(k, cap)] = law.get(min(k, cap), 0.0) + p ** k * (1 - p) ** (seq_len - 1 - k)
    return law


def count_replaced(before: np.ndarray, after: np.ndarray) -> int:
    """Context frames of ``after`` that equal no context frame of ``before``
    (a reversal of the context order reorders frames without replacing any)."""
    context = before[:-1]
    return sum(not any(np.array_equal(a, b) for b in context) for a in after[:-1])


def check_noise_counts(counts, p: float, cap: int, seq_len: int, z: float = NOISE_Z) -> float:
    """Mean replaced count within ``z`` standard errors of the law's mean,
    and no sequence above the cap; returns the observed mean."""
    counts = np.asarray(counts, dtype=np.float64)
    require(counts.size > 0, "no noisy sequences observed")
    require(counts.max() <= cap, f"a sequence replaced {counts.max():.0f} frames, cap is {cap}")
    law = replaced_count_law(p, cap, seq_len)
    mean = sum(k * q for k, q in law.items())
    var = sum(k * k * q for k, q in law.items()) - mean * mean
    se = math.sqrt(var / counts.size)
    observed = float(counts.mean())
    require(abs(observed - mean) <= z * se,
            f"mean replaced count {observed:.4f} over {counts.size} sequences is more "
            f"than {z} standard errors ({se:.4f}) from the law's {mean:.4f}")
    return observed


# ---------------------------------------------------------------------------
# Phase 1


def check_phase1_params(trained: dict, initial: dict) -> None:
    """ConvLSTM parameters bit-identical to their initial values; every other parameter moved."""
    require(set(initial) <= set(trained), "checkpoint lacks parameters")
    for name, init in initial.items():
        same = trained[name].tobytes() == np.asarray(init, dtype=trained[name].dtype).tobytes()
        if name.startswith("convlstm."):
            require(same, f"{name} moved during phase 1")
        else:
            require(not same, f"{name} did not move during phase 1")


def check_phase1_bypass(predict, seqs: np.ndarray, rng: np.random.Generator) -> None:
    """Predictions are bit-identical when context frames are rotated or replaced."""
    base = predict(seqs)
    context = seqs.shape[1] - 1
    permuted = seqs.copy()
    permuted[:, :context] = seqs[:, np.roll(np.arange(context), 1)]
    replaced = seqs.copy()
    replaced[:, :context] = rng.random(replaced[:, :context].shape, dtype=np.float32)
    for name, variant in (("permuted", permuted), ("replaced", replaced)):
        require(np.array_equal(predict(variant), base),
                f"phase-1 predictions change when context frames are {name}")


# ---------------------------------------------------------------------------
# Gradients


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over non-ignored pixels of [N, C, H, W] logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    keep = labels != IGNORE
    n, y, x = np.nonzero(keep)
    return float(-logp[n, labels[keep], y, x].mean())


def sampled_gradients(net, seqs: np.ndarray, labels: np.ndarray, picks: dict) -> tuple:
    """(tape, numeric) gradients at the picked flat indices of each named
    parameter: the tape differentiates the program's loss, the central
    differences the benchmark's own cross-entropy."""
    params = net.params()
    for p in params.values():
        p.grad = None
    with GradTape() as tape:
        loss = ops.softmax_ce_loss(net.forward(seqs, training=True), labels, ignore_index=IGNORE)
    backward(tape, loss)
    analytic = {name: params[name].grad.reshape(-1)[idx].copy() for name, idx in picks.items()}
    numeric = central_differences(
        lambda: cross_entropy(net.forward(seqs, training=True).data, labels), params, picks)
    return analytic, numeric


@contextlib.contextmanager
def _relu_states(states: list):
    """Record the on/off state of every ReLU unit evaluated inside."""
    original = ops.relu

    def recording(x):
        states.append(x.data > 0)
        return original(x)

    ops.relu = recording
    try:
        yield
    finally:
        ops.relu = original


def central_differences(loss, params: dict, picks: dict, eps: float = 1e-6,
                        shrink=(1.0, 1e-1, 1e-2)) -> dict:
    """d loss / d param at the picked flat indices, by central differences.

    A step that switches any ReLU unit on or off straddles a kink, where the
    difference averages two slopes; such a step is shrunk, and an element
    whose every step straddles a kink is left out (NaN)."""
    states: list = []

    def evaluate():
        states.clear()
        return loss(), list(states)

    out = {}
    with _relu_states(states):
        _, base = evaluate()
        for name, idx in picks.items():
            flat = params[name].data.reshape(-1)
            values = []
            for i in idx:
                orig, value = flat[i], np.nan
                for step in (eps * s for s in shrink):
                    flat[i] = orig + step
                    up, on_up = evaluate()
                    flat[i] = orig - step
                    down, on_down = evaluate()
                    flat[i] = orig
                    if all(np.array_equal(a, b) and np.array_equal(a, c)
                           for a, b, c in zip(base, on_up, on_down)):
                        value = (up - down) / (2 * step)
                        break
                values.append(value)
            out[name] = np.array(values)
    return out


def check_gradients(analytic: dict, numeric: dict, rtol: float = 1e-5,
                    atol: float = 1e-8) -> float:
    """Tape gradients agree with central differences on every element not
    left out at a kink; returns the worst relative error."""
    worst, compared = 0.0, 0
    for name, num in numeric.items():
        keep = ~np.isnan(num)
        ana, num = analytic[name][keep], num[keep]
        err = np.abs(ana - num)
        bad = err > atol + rtol * np.maximum(np.abs(ana), np.abs(num))
        if bad.any():
            raise CheckFailed(f"{name}: tape gradient {ana[bad][0]:.6e} vs central "
                              f"difference {num[bad][0]:.6e}")
        worst = max(worst, float((err / np.maximum(np.abs(num), atol)).max(initial=0.0)))
        compared += int(keep.sum())
    total = sum(n.size for n in numeric.values())
    require(2 * compared >= total, f"only {compared} of {total} gradient elements compared")
    return worst


# ---------------------------------------------------------------------------
# ConvLSTM


def _conv3x3_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Direct 'same' 3x3 cross-correlation, summed kernel tap by kernel tap."""
    h, wd = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((x.shape[0], w.shape[0], h, wd))
    for ky in range(3):
        for kx in range(3):
            out += np.einsum("oc,nchw->nohw", w[:, :, ky, kx], xp[:, :, ky:ky + h, kx:kx + wd])
    return out


def naive_convlstm(p: dict, zs) -> np.ndarray:
    """Peephole ConvLSTM over a list of [N, C, H, W] maps from the zero state;
    ``p`` maps W_g, V_g, U_g, b_g to arrays. Returns the last h."""
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros((zs[0].shape[0],) + p["b_i"].shape)
    c = np.zeros_like(h)
    for z in zs:
        def pre(g):
            return _conv3x3_same(z, p[f"W_{g}"]) + _conv3x3_same(h, p[f"V_{g}"]) + p[f"b_{g}"]
        i = sigmoid(pre("i") + p["U_i"] * c)
        f = sigmoid(pre("f") + p["U_f"] * c)
        c = f * c + i * np.tanh(pre("c"))
        o = sigmoid(pre("o") + p["U_o"] * c)
        h = o * np.tanh(c)
    return h


def check_convlstm(program_h: np.ndarray, naive_h: np.ndarray, tol: float = 1e-9) -> float:
    err = float(np.abs(program_h - naive_h).max())
    require(err <= tol, f"ConvLSTM output differs from the naive recurrence by {err:.3e}")
    return err
