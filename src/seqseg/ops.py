"""The differentiable operator set: convolution, batch norm, pointwise
non-linearities, the ConvLSTM gate update, pooling/upsampling, the
segmentation loss, and the small structural ops (concat, slice, gather,
repeat) the model needs.

No implicit broadcasting: binary ops require equal shapes and shape
adaptation goes through explicit ops (``expand_batch``); only
``lstm_gates`` applies its per-element peephole and bias maps to every
sequence of the batch itself. Every forward result is checked finite; a
NaN/Inf output on finite inputs is an operation error, not a value.

Each op hands ``_make`` its tensor inputs, its output array and a backward
rule. ``_make`` is the one place that checks the inputs share a dtype. The
rule takes only the output gradient and returns one gradient (or None) per
input; the tape keeps those of the inputs that require one.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .imutil import interp_weights
from .tensor import NonFiniteError, ShapeError, Tensor, active_tape


def _make(op: str, inputs: Sequence[Tensor], data: np.ndarray, backward_fn) -> Tensor:
    dt = inputs[0].data.dtype
    for t in inputs[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"{op}: mixed dtypes {dt} and {t.data.dtype}")
    if not np.isfinite(data).all():
        raise NonFiniteError(f"op '{op}' produced non-finite values", op=op)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(op, inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Convolution


def _conv_out_dim(size: int, k: int, stride: int, padding: int, dilation: int) -> int:
    return (size + 2 * padding - dilation * (k - 1) - 1) // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
            out_h: int, out_w: int) -> np.ndarray:
    n, c = xp.shape[:2]
    col = np.empty((n, c, kh, kw, out_h, out_w), dtype=xp.dtype)
    for ky in range(kh):
        y0 = ky * dilation
        y1 = y0 + stride * out_h
        for kx in range(kw):
            x0 = kx * dilation
            x1 = x0 + stride * out_w
            col[:, :, ky, kx] = xp[:, :, y0:y1:stride, x0:x1:stride]
    return col.reshape(n, c * kh * kw, out_h * out_w)


def _col2im(gcol: np.ndarray, n: int, c: int, hp: int, wp: int, kh: int, kw: int,
            stride: int, dilation: int, out_h: int, out_w: int) -> np.ndarray:
    g = gcol.reshape(n, c, kh, kw, out_h, out_w)
    gx = np.zeros((n, c, hp, wp), dtype=gcol.dtype)
    for ky in range(kh):
        y0 = ky * dilation
        y1 = y0 + stride * out_h
        for kx in range(kw):
            x0 = kx * dilation
            x1 = x0 + stride * out_w
            gx[:, :, y0:y1:stride, x0:x1:stride] += g[:, :, ky, kx]
    return gx


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, *, stride: int = 1,
           padding: int = 0, dilation: int = 1) -> Tensor:
    """2D convolution (cross-correlation) over NCHW input, im2col fast path.

    Output dims follow floor((H + 2p - d(k-1) - 1)/s) + 1. Differentiable in
    x, w and b.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4D input and kernel, got {x.shape} and {w.shape}")
    if stride < 1 or dilation < 1 or padding < 0:
        raise ShapeError("conv2d: stride/dilation must be >= 1 and padding >= 0")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {cin_w}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({cout},)")
    out_h = _conv_out_dim(h, kh, stride, padding, dilation)
    out_w = _conv_out_dim(wd, kw, stride, padding, dilation)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"conv2d: empty output {out_h}x{out_w} for input {h}x{wd}")

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    col = _im2col(xp, kh, kw, stride, dilation, out_h, out_w)
    wmat = w.data.reshape(cout, -1)
    out = np.matmul(wmat, col).reshape(n, cout, out_h, out_w)
    if b is not None:
        out += b.data[None, :, None, None]

    inputs = (x, w, b) if b is not None else (x, w)

    def backward_fn(g: np.ndarray) -> tuple:
        gmat = g.reshape(n, cout, out_h * out_w)
        gx = gw = gb = None
        if x.requires_grad:
            gcol = np.matmul(wmat.T, gmat)
            gxp = _col2im(gcol, n, cin, xp.shape[2], xp.shape[3], kh, kw,
                          stride, dilation, out_h, out_w)
            gx = gxp[:, :, padding:padding + h, padding:padding + wd] if padding else gxp
            gx = np.ascontiguousarray(gx)
        if w.requires_grad:
            col_again = _im2col(xp, kh, kw, stride, dilation, out_h, out_w)
            gw = np.einsum("ncp,nkp->ck", gmat, col_again, optimize=True).reshape(w.shape)
        if b is not None and b.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        return (gx, gw, gb) if b is not None else (gx, gw)

    return _make("conv2d", inputs, out, backward_fn)


# ---------------------------------------------------------------------------
# Batch normalization


class RunningStats:
    """Per-channel running mean/variance buffers for batch norm eval mode."""

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)


# the weight of a batch's statistics in the running averages, and the
# variance offset that keeps the normalization finite
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats, *,
               training: bool) -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with batch statistics and, once the output is
    made, updates ``stats`` by exponential moving average; eval mode
    normalizes with ``stats``.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must have shape ({c},)")
    m = x.shape[0] * x.shape[2] * x.shape[3]

    if training:
        if m < 2:
            raise ShapeError("batch_norm: train mode needs at least 2 values per channel")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
    else:
        mean = stats.mean.astype(x.data.dtype)
        var = stats.var.astype(x.data.dtype)

    ivar = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean[None, :, None, None]) * ivar[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward_fn(g: np.ndarray) -> tuple:
        gxhat = g * gamma.data[None, :, None, None]
        if training:
            s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
            s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
            gx = (ivar[None, :, None, None] / m) * (m * gxhat - s1 - xhat * s2)
        else:
            gx = gxhat * ivar[None, :, None, None]
        return (gx.astype(x.data.dtype, copy=False), (g * xhat).sum(axis=(0, 2, 3)),
                g.sum(axis=(0, 2, 3)))

    result = _make("batch_norm", (x, gamma, beta), out, backward_fn)
    if training:
        stats.mean = ((1.0 - BN_MOMENTUM) * stats.mean + BN_MOMENTUM * mean).astype(stats.mean.dtype)
        stats.var = ((1.0 - BN_MOMENTUM) * stats.var + BN_MOMENTUM * var).astype(stats.var.dtype)
    return result


# ---------------------------------------------------------------------------
# Pointwise ops


def _d_tanh(out: np.ndarray) -> np.ndarray:
    return 1.0 - out * out


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument cannot overflow: 1/(1+e^-d) for d >= 0,
    # e^d/(1+e^d) below
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0, e) / (1.0 + e)
    np.clip(out, np.finfo(d.dtype).tiny, 1.0 - np.finfo(d.dtype).epsneg, out=out)
    return out


def _tanh(d: np.ndarray) -> np.ndarray:
    out = np.tanh(d)
    lim = 1.0 - np.finfo(d.dtype).epsneg
    np.clip(out, -lim, lim, out=out)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, output clamped strictly inside (0, 1)."""
    out = _sigmoid(x.data)

    def backward_fn(g):
        return (g * out * (1.0 - out),)

    return _make("sigmoid", (x,), out, backward_fn)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent, output clamped strictly inside (-1, 1)."""
    out = _tanh(x.data)

    def backward_fn(g):
        return (g * _d_tanh(out),)

    return _make("tanh", (x,), out, backward_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, x.data.dtype.type(0))

    def backward_fn(g):
        return (g * mask,)

    return _make("relu", (x,), out, backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ (no broadcasting)")

    def backward_fn(g):
        return g, g.copy()

    return _make("add", (a, b), a.data + b.data, backward_fn)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: shapes {a.shape} and {b.shape} differ (no broadcasting)")

    def backward_fn(g):
        return g * b.data, g * a.data

    return _make("hadamard", (a, b), a.data * b.data, backward_fn)


# ---------------------------------------------------------------------------
# ConvLSTM gates


def lstm_gates(wz: Tensor, vh: Optional[Tensor], hc_prev: Optional[Tensor],
               peepholes: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """The peephole LSTM update of one step, after its convolutions.

    ``wz`` and ``vh`` hold W*z and V*h_prev as [N, 4*hid, H, W] in (i, f, c, o)
    order; ``hc_prev`` is the previous step's output. From the zero state
    ``vh`` and ``hc_prev`` are both None. ``peepholes`` are U_i, U_f, U_o and
    ``biases`` b_i, b_f, b_c, b_o, each [hid, H, W] and shared by every
    sequence. With pre = W*z + V*h_prev:

        i = sigmoid((pre_i + U_i (.) c_prev) + b_i)
        f = sigmoid((pre_f + U_f (.) c_prev) + b_f)
        c = f (.) c_prev + i (.) tanh(pre_c + b_c)
        o = sigmoid((pre_o + U_o (.) c) + b_o)
        h = o (.) tanh(c)

    From the zero state the c_prev terms, and with them f, drop out. Returns
    h and c packed as [N, 2*hid, H, W], h first: the cell's whole state.
    """
    if wz.ndim != 4 or wz.shape[1] % 4:
        raise ShapeError(f"lstm_gates: W*z must be [N, 4*hidden, H, W], got {wz.shape}")
    n, four_hid, fh, fw = wz.shape
    hid = four_hid // 4
    if (vh is None) != (hc_prev is None):
        raise ShapeError("lstm_gates: V*h_prev and the previous state come together")
    if len(peepholes) != 3 or len(biases) != 4:
        raise ShapeError("lstm_gates: needs 3 peephole and 4 bias tensors")
    for t in (*peepholes, *biases):
        if t.shape != (hid, fh, fw):
            raise ShapeError(f"lstm_gates: peephole/bias shape {t.shape} != {(hid, fh, fw)}")
    if hc_prev is None:
        recurrent = ()
        pre = wz.data
    else:
        if vh.shape != wz.shape:
            raise ShapeError(f"lstm_gates: V*h_prev shape {vh.shape} != {wz.shape}")
        if hc_prev.shape != (n, 2 * hid, fh, fw):
            raise ShapeError(f"lstm_gates: state shape {hc_prev.shape} != {(n, 2 * hid, fh, fw)}")
        recurrent = (vh, hc_prev)
        pre = wz.data + vh.data
    inputs = (wz,) + recurrent + tuple(peepholes) + tuple(biases)
    u_i, u_f, u_o = (t.data for t in peepholes)
    b_i, b_f, b_c, b_o = (t.data for t in biases)
    p_i, p_f, p_c, p_o = (pre[:, k * hid:(k + 1) * hid] for k in range(4))

    out = np.empty((n, 2 * hid, fh, fw), dtype=wz.data.dtype)
    c = out[:, hid:]
    cand = _tanh(p_c + b_c)
    if hc_prev is None:
        c_prev = f = None
        i = _sigmoid(p_i + b_i)
        np.multiply(i, cand, out=c)
    else:
        c_prev = hc_prev.data[:, hid:]
        i = _sigmoid((p_i + u_i * c_prev) + b_i)
        f = _sigmoid((p_f + u_f * c_prev) + b_f)
        np.add(f * c_prev, i * cand, out=c)
    o = _sigmoid((p_o + u_o * c) + b_o)
    tc = _tanh(c)
    np.multiply(o, tc, out=out[:, :hid])

    def backward_fn(g):
        gh = g[:, :hid]
        dpre = np.empty_like(wz.data)
        da_i, da_f, da_c, da_o = (dpre[:, k * hid:(k + 1) * hid] for k in range(4))
        np.multiply(gh * tc, o * (1.0 - o), out=da_o)
        dc = (g[:, hid:] + (gh * o) * _d_tanh(tc)) + da_o * u_o
        np.multiply(dc * cand, i * (1.0 - i), out=da_i)
        np.multiply(dc * i, _d_tanh(cand), out=da_c)
        if hc_prev is None:
            da_f.fill(0)
            g_state = ()
            g_ui = g_uf = None
        else:
            np.multiply(dc * c_prev, f * (1.0 - f), out=da_f)
            # h_prev reaches this step only through V * h_prev, whose gradient is dpre
            ghc = np.zeros_like(hc_prev.data)
            ghc[:, hid:] = (dc * f + da_i * u_i) + da_f * u_f
            g_state = (dpre.copy(), ghc)
            g_ui = (da_i * c_prev).sum(axis=0)
            g_uf = (da_f * c_prev).sum(axis=0)
        g_uo = (da_o * c).sum(axis=0)
        return ((dpre,) + g_state + (g_ui, g_uf, g_uo)
                + tuple(d.sum(axis=0) for d in (da_i, da_f, da_c, da_o)))

    return _make("lstm_gates", inputs, out, backward_fn)


# ---------------------------------------------------------------------------
# Pooling and resampling


def avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive average pooling into out_h x out_w near-equal windows."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError("avg_pool: zero-sized output requested")
    if out_h > h or out_w > w:
        raise ShapeError(f"avg_pool: output {out_h}x{out_w} exceeds input {h}x{w}")

    ys = [((oy * h) // out_h, -(-((oy + 1) * h) // out_h)) for oy in range(out_h)]
    xs = [((ox * w) // out_w, -(-((ox + 1) * w) // out_w)) for ox in range(out_w)]
    out = np.empty((n, c, out_h, out_w), dtype=x.data.dtype)
    for oy, (y0, y1) in enumerate(ys):
        for ox, (x0, x1) in enumerate(xs):
            out[:, :, oy, ox] = x.data[:, :, y0:y1, x0:x1].mean(axis=(2, 3))

    def backward_fn(g):
        gx = np.zeros((n, c, h, w), dtype=g.dtype)
        for oy, (y0, y1) in enumerate(ys):
            for ox, (x0, x1) in enumerate(xs):
                area = (y1 - y0) * (x1 - x0)
                gx[:, :, y0:y1, x0:x1] += g[:, :, oy:oy + 1, ox:ox + 1] / area
        return (gx,)

    return _make("avg_pool", (x,), out, backward_fn)


def _interp_matrix(out_size: int, in_size: int, dtype) -> np.ndarray:
    """[out, in] resampling matrix of the align-corners-false rule."""
    i0, i1, w1 = interp_weights(out_size, in_size)
    rows = np.arange(out_size)
    r = np.zeros((out_size, in_size), dtype=dtype)
    r[rows, i0] += 1.0 - w1
    r[rows, i1] += w1
    return r


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling (align-corners-false) to out_h x out_w."""
    if x.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects NCHW input, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError("bilinear_upsample: zero-sized output requested")
    n, c, h, w = x.shape
    ry = _interp_matrix(out_h, h, x.data.dtype)
    rx = _interp_matrix(out_w, w, x.data.dtype)
    out = np.matmul(np.matmul(ry, x.data), rx.T)

    def backward_fn(g):
        return (np.matmul(ry.T, np.matmul(g, rx)),)

    return _make("bilinear_upsample", (x,), out, backward_fn)


# ---------------------------------------------------------------------------
# Loss


def softmax_ce_loss(logits: Tensor, labels: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean per-pixel cross-entropy with max-subtraction stabilization.

    ``labels`` is an integer [N, H, W] map; pixels equal to ``ignore_index``
    are excluded from the mean. Differentiable w.r.t. logits only.
    """
    if logits.ndim != 4:
        raise ShapeError(f"softmax_ce_loss expects NCHW logits, got {logits.shape}")
    n, c, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} != {(n, h, w)}")
    if ignore_index is not None:
        valid = labels != ignore_index
    else:
        valid = np.ones(labels.shape, dtype=bool)
    checked = labels[valid]
    if checked.size and (checked.min() < 0 or checked.max() >= c):
        raise ShapeError(f"labels must lie in [0, {c}) or equal the ignore index")
    count = int(valid.sum())
    if count == 0:
        raise ShapeError("softmax_ce_loss: all pixels ignored, mean undefined")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    ez = np.exp(shifted)
    sez = ez.sum(axis=1, keepdims=True)
    logp = shifted - np.log(sez)

    safe = np.where(valid, labels, 0).astype(np.int64)
    picked = np.take_along_axis(logp, safe[:, None, :, :], axis=1)[:, 0]
    loss = -(picked[valid].sum()) / count
    out = np.asarray(loss, dtype=z.dtype).reshape(())

    def backward_fn(g):
        scale_ = g.item() / count
        dl = (ez / sez) * scale_
        ni, yi, xi = np.nonzero(valid)
        dl[ni, safe[ni, yi, xi], yi, xi] -= scale_
        dl *= valid[:, None, :, :]
        return (dl.astype(z.dtype, copy=False),)

    return _make("softmax_ce_loss", (logits,), out, backward_fn)


# ---------------------------------------------------------------------------
# Structural ops


def _concat(op: str, tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate 4D tensors along ``axis``; every other dim must agree."""
    if not tensors:
        raise ShapeError(f"{op}: empty input list")
    base = tensors[0].shape
    for t in tensors:
        if t.ndim != 4 or t.shape[:axis] + t.shape[axis + 1:] != base[:axis] + base[axis + 1:]:
            raise ShapeError(f"{op}: inputs must be 4D and agree on every dim but "
                             f"{axis}, got {base} and {t.shape}")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * axis

    def backward_fn(g):
        # views of g, not copies: each input's gradient is its own slice
        return tuple(g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets[:-1], offsets[1:]))

    return _make(op, tuple(tensors), out, backward_fn)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate NCHW tensors along the channel axis."""
    return _concat("concat_channels", tensors, 1)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels start:stop of an NCHW tensor."""
    if x.ndim != 4:
        raise ShapeError(f"slice_channels expects NCHW input, got {x.shape}")
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_channels: [{start}:{stop}] is not a non-empty range "
                         f"of {x.shape[1]} channels")
    out = np.ascontiguousarray(x.data[:, start:stop])

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _make("slice_channels", (x,), out, backward_fn)


def concat_kernels(kernels: Sequence[Tensor]) -> Tensor:
    """Stack [Co, Ci, kh, kw] convolution kernels along the output axis."""
    return _concat("concat_kernels", kernels, 0)


def expand_batch(t: Tensor, n: int) -> Tensor:
    """Explicitly repeat a [C, H, W] tensor into [n, C, H, W] (no broadcasting)."""
    if t.ndim != 3:
        raise ShapeError(f"expand_batch expects a 3D tensor, got {t.shape}")
    if n < 1:
        raise ShapeError("expand_batch: n must be >= 1")
    out = np.repeat(t.data[None], n, axis=0)

    def backward_fn(g):
        return (g.sum(axis=0),)

    return _make("expand_batch", (t,), out, backward_fn)


def gather_batch(x: Tensor, rows: range) -> Tensor:
    """Select a non-empty ascending ``range`` of rows along the batch axis
    (how the flat N*T batch is regrouped by time step)."""
    if not isinstance(rows, range) or not rows or rows.step < 1:
        raise ShapeError(f"gather_batch: rows must be a non-empty ascending range, got {rows!r}")
    if rows[0] < 0 or rows[-1] >= x.shape[0]:
        raise ShapeError(f"gather_batch: rows {rows!r} out of range for batch {x.shape[0]}")
    sl = slice(rows[0], rows[-1] + 1, rows.step)

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[sl] += g  # as a scatter-add: 0.0 + -0.0 is +0.0
        return (gx,)

    return _make("gather_batch", (x,), x.data[sl], backward_fn)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype).reshape(())

    def backward_fn(g):
        return (np.full(x.shape, g.item(), dtype=x.data.dtype),)

    return _make("sum_all", (x,), out, backward_fn)
