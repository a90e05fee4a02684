"""The end-to-end segmentation network: shared convolutional feature
extractor over a flattened frame batch, per-sequence temporal encoding, and
a pyramid-pooling decoder producing per-pixel class logits for each
sequence's target frame.

Phase 1 bypasses the temporal cell (the target frame's features feed the
decoder directly); phase 2 projects every frame's features into the
ConvLSTM's gate space once and routes the regrouped projections through
the recurrence.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .config import ModelConfig
# encode_sequence is not called here; benchmark/tracing.py patches this name
from .convlstm import ConvLSTMCell, encode_projected, encode_sequence, project_input  # noqa: F401
from .tensor import ShapeError, Tensor


def _kernel(rng: np.random.Generator, cout: int, cin: int, k: int, dt) -> Tensor:
    bound = 1.0 / np.sqrt(cin * k * k)
    return Tensor(rng.uniform(-bound, bound, size=(cout, cin, k, k)).astype(dt),
                  requires_grad=True)


class ConvBnRelu:
    """3x3 convolution (no bias) + batch norm + relu."""

    def __init__(self, cin: int, cout: int, stride: int, dilation: int,
                 rng: np.random.Generator, dt):
        self.stride = stride
        self.dilation = dilation
        self.W = _kernel(rng, cout, cin, 3, dt)
        self.gamma = Tensor(np.ones(cout, dtype=dt), requires_grad=True)
        self.beta = Tensor(np.zeros(cout, dtype=dt), requires_grad=True)
        self.stats = ops.RunningStats(cout, dtype=dt)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        y = ops.conv2d(x, self.W, stride=self.stride, padding=self.dilation,
                       dilation=self.dilation)
        y = ops.batch_norm(y, self.gamma, self.beta, self.stats, training=training)
        return ops.relu(y)

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.conv.W": self.W, f"{prefix}.bn.gamma": self.gamma,
                f"{prefix}.bn.beta": self.beta}


class FeatureExtractor:
    """Four conv blocks: two stride-2, then dilation 2 and 4 (same-size)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dt):
        plan = cfg.channel_plan
        specs = [(cfg.frame_channels, plan[0], 2, 1), (plan[0], plan[1], 2, 1),
                 (plan[1], plan[2], 1, 2), (plan[2], plan[3], 1, 4)]
        self.blocks = [ConvBnRelu(ci, co, s, d, rng, dt) for ci, co, s, d in specs]

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        for block in self.blocks:
            x = block(x, training)
        return x


class PyramidDecoder:
    """Pyramid pooling paths concatenated with the input map, fused by two
    conv+BN+relu layers, classified per pixel, and upsampled to frame size."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dt):
        ch = cfg.hidden_channels
        path_ch = ch // 4
        self.bins = tuple(cfg.ppm_bins)
        self.out_h, self.out_w = cfg.crop_h, cfg.crop_w
        self.bin_convs = {}
        for b in self.bins:
            w = _kernel(rng, path_ch, ch, 1, dt)
            bias = Tensor(np.zeros(path_ch, dtype=dt), requires_grad=True)
            self.bin_convs[b] = (w, bias)
        fused_in = ch + path_ch * len(self.bins)
        self.fuse1 = ConvBnRelu(fused_in, ch, 1, 1, rng, dt)
        self.fuse2 = ConvBnRelu(ch, ch, 1, 1, rng, dt)
        self.cls_W = _kernel(rng, cfg.classes, ch, 1, dt)
        self.cls_b = Tensor(np.zeros(cfg.classes, dtype=dt), requires_grad=True)

    def __call__(self, g: Tensor, training: bool) -> Tensor:
        fh, fw = g.shape[2], g.shape[3]
        parts = [g]
        for b in self.bins:
            w, bias = self.bin_convs[b]
            pooled = ops.avg_pool(g, b, b)
            reduced = ops.conv2d(pooled, w, bias)
            parts.append(ops.bilinear_upsample(reduced, fh, fw))
        y = ops.concat_channels(parts)
        y = self.fuse1(y, training)
        y = self.fuse2(y, training)
        logits = ops.conv2d(y, self.cls_W, self.cls_b)
        return ops.bilinear_upsample(logits, self.out_h, self.out_w)


class SegNet:
    """Feature extractor + ConvLSTM + pyramid decoder, with a phase switch."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32, mode: str = "phase1"):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.set_mode(mode)
        root = np.random.SeedSequence(seed)
        ext_rng, cell_rng, dec_rng = (np.random.default_rng(s) for s in root.spawn(3))
        self.extractor = FeatureExtractor(cfg, ext_rng, self.dtype)
        self.cell = ConvLSTMCell(cfg.hidden_channels, cfg.hidden_channels,
                                 cfg.feature_h, cfg.feature_w, cell_rng, self.dtype)
        self.decoder = PyramidDecoder(cfg, dec_rng, self.dtype)

    def set_mode(self, mode: str) -> None:
        if mode not in ("phase1", "phase2"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode

    def reinit_cell(self, seed: int) -> None:
        """Fresh ConvLSTM parameters (the phase-1 to phase-2 transition)."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.cell = ConvLSTMCell(self.cfg.hidden_channels, self.cfg.hidden_channels,
                                 self.cfg.feature_h, self.cfg.feature_w, rng, self.dtype)

    # -- parameter/buffer registry -----------------------------------------

    def params(self) -> dict:
        out = {}
        for idx, block in enumerate(self.extractor.blocks, start=1):
            out.update(block.params(f"extractor.block{idx}"))
        for name, t in self.cell.params.items():
            out[f"convlstm.{name}"] = t
        for b in self.decoder.bins:
            w, bias = self.decoder.bin_convs[b]
            out[f"decoder.ppm.bin{b}.conv.W"] = w
            out[f"decoder.ppm.bin{b}.conv.b"] = bias
        out.update(self.decoder.fuse1.params("decoder.fuse1"))
        out.update(self.decoder.fuse2.params("decoder.fuse2"))
        out["decoder.classify.W"] = self.decoder.cls_W
        out["decoder.classify.b"] = self.decoder.cls_b
        return out

    def trainable_params(self) -> dict:
        params = self.params()
        if self.mode == "phase1":
            params = {k: v for k, v in params.items() if not k.startswith("convlstm.")}
        return params

    def bn_stats(self) -> dict:
        out = {}
        for idx, block in enumerate(self.extractor.blocks, start=1):
            out[f"extractor.block{idx}.bn"] = block.stats
        out["decoder.fuse1.bn"] = self.decoder.fuse1.stats
        out["decoder.fuse2.bn"] = self.decoder.fuse2.stats
        return out

    def buffers(self) -> dict:
        """Non-trainable state (BN running stats) as named float arrays."""
        out = {}
        for name, stats in self.bn_stats().items():
            out[f"{name}.running_mean"] = stats.mean
            out[f"{name}.running_var"] = stats.var
        return out

    def load_buffers(self, arrays: dict) -> None:
        for name, stats in self.bn_stats().items():
            stats.mean = np.array(arrays[f"{name}.running_mean"], dtype=stats.mean.dtype)
            stats.var = np.array(arrays[f"{name}.running_var"], dtype=stats.var.dtype)

    # -- forward -----------------------------------------------------------

    def as_input(self, frames: np.ndarray) -> Tensor:
        """[M, C, H, W] frames as one flat extractor batch in the network's dtype."""
        h, w = frames.shape[-2:]
        if (h, w) != (self.cfg.crop_h, self.cfg.crop_w):
            raise ShapeError(
                f"network built for {self.cfg.crop_h}x{self.cfg.crop_w} frames, "
                f"got {h}x{w}")
        return Tensor(np.ascontiguousarray(frames).astype(self.dtype, copy=False))

    def extract(self, frames: Tensor, seq_len: int, training: bool) -> Tensor:
        """One shared pass over a flattened frame batch (BN sees every frame).

        ``seq_len`` is 1 for a batch of independent frames."""
        if frames.shape[0] % seq_len:
            raise ShapeError(
                f"flattened batch of {frames.shape[0]} frames is not divisible by T={seq_len}")
        return self.extractor(frames, training)

    def frame_features(self, frames: Tensor, seq_len: int, training: bool) -> Tensor:
        """The per-frame stage: extractor features, and in phase 2 their
        ConvLSTM input projection W * z, one [4*hidden, H, W] row per frame."""
        z = self.extract(frames, seq_len, training)
        return project_input(self.cell, z) if self.mode == "phase2" else z

    def head(self, steps: list, training: bool) -> Tensor:
        """Per-step ``(frame_features, rows)`` pairs, oldest first -> target
        logits: phase 1 decodes the last step alone, phase 2 the ConvLSTM's
        summary of all. Only the steps a phase reads are gathered."""
        if self.mode == "phase1":
            return self.decoder(ops.gather_batch(*steps[-1]), training)
        wzs = [ops.gather_batch(wz, rows) for wz, rows in steps]
        return self.decoder(encode_projected(self.cell, wzs), training)

    def forward(self, seqs: np.ndarray, training: bool) -> Tensor:
        """[N, T, C, H, W] frame sequences -> [N, classes, H, W] target logits."""
        if seqs.ndim != 5:
            raise ShapeError(f"expected [N, T, C, H, W] sequences, got {seqs.shape}")
        n, t = seqs.shape[:2]
        flat = self.as_input(seqs.reshape((n * t,) + seqs.shape[2:]))
        feats = self.frame_features(flat, t, training)
        # frame i of sequence s sits at row s*t + i of the flat batch
        return self.head([(feats, range(i, n * t, t)) for i in range(t)], training)

    def predict(self, seqs: np.ndarray) -> np.ndarray:
        """Eval-mode per-pixel argmax labels."""
        return labels_of(self.forward(seqs, training=False))


def labels_of(logits: Tensor) -> np.ndarray:
    """Per-pixel argmax labels of [N, classes, H, W] logits; ties go to the
    lowest class id."""
    return np.argmax(logits.data, axis=1).astype(np.int64)
