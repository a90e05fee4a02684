"""Test-local reference implementations, coded independently of the
package's operator set: straight loop transcriptions of each operator's
definition, deliberately slow and simple. The fast paths in ``seqseg.ops``
and ``seqseg.convlstm`` are checked against them. Two exceptions are built
from the package's own parts: ``convlstm_step_per_gate``, the taped
ConvLSTM step with one convolution per gate kernel, kept to check the
stacked-kernel step against, and ``evaluate_by_sample``, the evaluation
that builds every target's sequence and predicts it whole, kept to check
the streaming ``seqseg.metrics.evaluate`` against."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from seqseg import imgio, ops
from seqseg.data import center_crop, sample_sequence, valid_targets
from seqseg.metrics import ConfusionMatrix, EvalReport, miou
from seqseg.noise import context_indices, corrupt_for_eval


def sigmoid_two_branch(d: np.ndarray) -> np.ndarray:
    """The logistic function evaluated separately on the non-negative and
    negative entries, clamped strictly inside (0, 1) like ``ops.sigmoid``."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, np.finfo(d.dtype).tiny, 1.0 - np.finfo(d.dtype).epsneg)


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _conv_same(x, w):
    # 3x3 same-size convolution, stride 1, padding 1; x [C,H,W], w [Co,C,3,3]
    cin, h, wd = x.shape
    cout = w.shape[0]
    out = np.zeros((cout, h, wd))
    xp = np.zeros((cin, h + 2, wd + 2))
    xp[:, 1:-1, 1:-1] = x
    for co in range(cout):
        for y in range(h):
            for xcol in range(wd):
                acc = 0.0
                for ci in range(cin):
                    for ky in range(3):
                        for kx in range(3):
                            acc += xp[ci, y + ky, xcol + kx] * w[co, ci, ky, kx]
                out[co, y, xcol] = acc
    return out


def convlstm_encode_naive(params, zs):
    """Step-by-step recurrence over one sequence; zs is a list of [C,H,W]
    feature maps for a single sequence. Returns the final latent state."""
    ch = params["W_i"].shape[0]
    h_sp, w_sp = zs[0].shape[1:]
    h = np.zeros((ch, h_sp, w_sp))
    c = np.zeros((ch, h_sp, w_sp))
    for z in zs:
        i = _sig(_conv_same(z, params["W_i"]) + _conv_same(h, params["V_i"])
                 + params["U_i"] * c + params["b_i"])
        f = _sig(_conv_same(z, params["W_f"]) + _conv_same(h, params["V_f"])
                 + params["U_f"] * c + params["b_f"])
        cand = np.tanh(_conv_same(z, params["W_c"]) + _conv_same(h, params["V_c"])
                       + params["b_c"])
        c = f * c + i * cand
        o = _sig(_conv_same(z, params["W_o"]) + _conv_same(h, params["V_o"])
                 + params["U_o"] * c + params["b_o"])
        h = o * np.tanh(c)
    return h, c


PerGateState = namedtuple("PerGateState", "h c")


def convlstm_step_per_gate(cell, z, state):
    """One taped peephole ConvLSTM step running eight convolutions, one
    per W_g and V_g kernel, with the terms summed in the order of
    ``seqseg.ops.lstm_gates``; ``state`` is a ``PerGateState`` of taped h and
    c, zero tensors for the zero state."""
    n = z.shape[0]
    p = cell.params

    def gate_pre(g, c_ref):
        pre = ops.add(ops.conv2d(z, p[f"W_{g}"], padding=1),
                      ops.conv2d(state.h, p[f"V_{g}"], padding=1))
        if c_ref is not None:
            pre = ops.add(pre, ops.hadamard(ops.expand_batch(p[f"U_{g}"], n), c_ref))
        return ops.add(pre, ops.expand_batch(p[f"b_{g}"], n))

    i = ops.sigmoid(gate_pre("i", state.c))
    f = ops.sigmoid(gate_pre("f", state.c))
    cand = ops.tanh(gate_pre("c", None))
    c = ops.add(ops.hadamard(f, state.c), ops.hadamard(i, cand))
    o = ops.sigmoid(gate_pre("o", c))
    return PerGateState(h=ops.hadamard(o, ops.tanh(c)), c=c)


def conv2d_naive(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Seven-nested-loop 2D convolution (cross-correlation), NCHW layout."""
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"input channels {cin} != kernel channels {cin_w}")
    out_h = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    out_w = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("empty convolution output")
    out = np.zeros((n, cout, out_h, out_w), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            iy = oy * stride + ky * dilation - padding
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * stride + kx * dilation - padding
                                if ix < 0 or ix >= wd:
                                    continue
                                acc += float(x[ni, ci, iy, ix]) * float(w[co, ci, ky, kx])
                    if b is not None:
                        acc += float(b[co])
                    out[ni, co, oy, ox] = acc
    return out


def batch_norm_naive(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Two-pass per-channel train-mode batch normalization."""
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        vals = x[:, c]
        mean = vals.mean()
        var = ((vals - mean) ** 2).mean()
        out[:, c] = gamma[c] * (vals - mean) / np.sqrt(var + eps) + beta[c]
    return out


def avg_pool_naive(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Adaptive average pooling by explicit window enumeration."""
    n, c, h, w = x.shape
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    for oy in range(out_h):
        y0 = (oy * h) // out_h
        y1 = -(-((oy + 1) * h) // out_h)
        for ox in range(out_w):
            x0 = (ox * w) // out_w
            x1 = -(-((ox + 1) * w) // out_w)
            out[:, :, oy, ox] = x[:, :, y0:y1, x0:x1].mean(axis=(2, 3))
    return out


def softmax_ce_naive(logits: np.ndarray, labels: np.ndarray, ignore_index: int | None = None) -> float:
    """Per-pixel summed cross-entropy, averaged over non-ignored pixels."""
    n, c, h, w = logits.shape
    total = 0.0
    count = 0
    for ni in range(n):
        for y in range(h):
            for x in range(w):
                lab = int(labels[ni, y, x])
                if ignore_index is not None and lab == ignore_index:
                    continue
                z = logits[ni, :, y, x].astype(np.float64)
                z = z - z.max()
                logp = z - np.log(np.exp(z).sum())
                total += -logp[lab]
                count += 1
    if count == 0:
        raise ValueError("all pixels ignored")
    return total / count


def evaluate_by_sample(net, val_clips, *, seq_len, interval, corruption=None,
                       corrupted_frames=(1, 3), corrupt_seed=0, batch_size=4, dump_dir=None):
    """``seqseg.metrics.evaluate`` by sample: build and center-crop every
    target's T-frame sequence (and every corrupted copy), then predict
    ``batch_size`` whole sequences per forward."""
    if corruption is not None:
        context_indices(corrupted_frames, seq_len)
    pairs = valid_targets(val_clips, interval, seq_len)
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    for cid, target in pairs:
        s = sample_sequence(val_clips, cid, target, interval, seq_len)
        s.frames = center_crop(s.frames, net.cfg.crop_h, net.cfg.crop_w)
        s.target_label = center_crop(s.target_label, net.cfg.crop_h, net.cfg.crop_w)
        samples.append(s)

    def predict_all(chunked, prefix):
        cm = ConfusionMatrix(net.cfg.classes)
        for start in range(0, len(chunked), batch_size):
            chunk = chunked[start:start + batch_size]
            for s, pred in zip(chunk, net.predict(np.stack([s.frames for s in chunk]))):
                cm.update(pred, s.target_label)
                if dump_dir is not None:
                    name = f"{prefix}_{s.clip_id:04d}_{s.target_index:03d}.pgm"
                    imgio.write_pgm(dump_dir / name, pred.astype(np.uint8))
                    imgio.write_pgm(dump_dir / f"gt_{s.clip_id:04d}_{s.target_index:03d}.pgm",
                                    s.target_label)
        return cm

    cm_clean = predict_all(samples, "pred")
    per_class, mean = miou(cm_clean)
    report = EvalReport(per_class=per_class, mean=mean, evaluated_pixels=cm_clean.total,
                        targets=len(samples))
    if corruption is not None:
        corrupted = []
        for s in samples:
            seed = int(np.random.SeedSequence(
                entropy=corrupt_seed, spawn_key=(s.clip_id, s.target_index)
            ).generate_state(1)[0])
            corrupted.append(corrupt_for_eval(s, corrupted_frames, corruption, seed=seed))
        report.corruption = corruption
        report.corrupted_frames = tuple(corrupted_frames)
        report.corrupted_per_class, report.corrupted_mean = miou(
            predict_all(corrupted, "pred_corrupted"))
    return report
