"""Confusion-matrix mIoU evaluation and the anti-noise degradation report."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import imgio
from .checkpoint import atomic_write
from .data import IGNORE_INDEX, center_crop, sample_sequence, valid_targets
from .errors import DataError
from .network import labels_of
from .noise import CORRUPTION_KINDS, context_indices, corrupt_for_eval
from .tensor import Tensor

TARGETS_PER_FORWARD = 4  # eval batch size; predictions do not depend on it


class ConfusionMatrix:
    """C x C counts, rows = ground truth, columns = prediction; pixels with
    the ignore index are excluded."""

    def __init__(self, classes: int, ignore_index: int = IGNORE_INDEX):
        self.classes = classes
        self.ignore_index = ignore_index
        self.counts = np.zeros((classes, classes), dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def update(self, pred: np.ndarray, truth: np.ndarray) -> "ConfusionMatrix":
        pred = np.asarray(pred)
        truth = np.asarray(truth)
        if pred.shape != truth.shape:
            raise DataError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
        keep = truth != self.ignore_index
        p = pred[keep].astype(np.int64)
        t = truth[keep].astype(np.int64)
        if p.size:
            if p.min() < 0 or p.max() >= self.classes:
                raise DataError("prediction class id out of range")
            if t.min() < 0 or t.max() >= self.classes:
                raise DataError("truth class id out of range")
            self.counts += np.bincount(t * self.classes + p, minlength=self.classes ** 2
                                       ).reshape(self.classes, self.classes)
        return self


def miou(cm: ConfusionMatrix):
    """Per-class IoU (NaN where a class is absent from truth and prediction)
    and the mean over present classes."""
    if cm.total == 0:
        raise DataError("confusion matrix is empty")
    tp = np.diag(cm.counts).astype(np.float64)
    fp = cm.counts.sum(axis=0) - tp
    fn = cm.counts.sum(axis=1) - tp
    denom = tp + fp + fn
    per_class = np.full(cm.classes, np.nan)
    present = denom > 0
    per_class[present] = tp[present] / denom[present]
    if not present.any():
        raise DataError("every class absent; mIoU undefined")
    return per_class, float(per_class[present].mean())


@dataclass
class EvalReport:
    per_class: np.ndarray
    mean: float
    evaluated_pixels: int
    targets: int
    corruption: Optional[str] = None
    corrupted_frames: Optional[tuple] = None
    corrupted_per_class: Optional[np.ndarray] = None
    corrupted_mean: Optional[float] = None

    @property
    def degradation(self) -> Optional[float]:
        if self.corrupted_mean is None:
            return None
        return self.mean - self.corrupted_mean


def _extract(net, frames: np.ndarray, chunk: int) -> Tensor:
    """Eval-mode ``frame_features`` of independent frames, at most ``chunk``
    per call."""
    return Tensor(np.concatenate([
        net.frame_features(net.as_input(frames[i:i + chunk]), 1, training=False).data
        for i in range(0, len(frames), chunk)]))


def _record(preds: np.ndarray, clip_id: int, batch: list, labels: np.ndarray, cm, dump_dir,
            prefix: str) -> None:
    """Count a batch of target predictions, and dump them if asked."""
    for target, pred in zip(batch, preds):
        cm.update(pred, labels[target])
        if dump_dir is not None:
            imgio.write_pgm(dump_dir / f"{prefix}_{clip_id:04d}_{target:03d}.pgm",
                            pred.astype(np.uint8))


def evaluate(net, val_clips: list, *, seq_len: int, interval: int,
             corruption: Optional[str] = None, corrupted_frames: Sequence[int] = (1, 3),
             corrupt_seed: int = 0, batch_size: int = TARGETS_PER_FORWARD,
             dump_dir=None) -> EvalReport:
    """Deterministic full-validation mIoU; optionally also the corrupted-
    context pass and the resulting degradation.

    Every frame with sufficient history is a target (stride 1); no
    augmentation and no training noise are applied. One clip at a time,
    each frame goes through the extractor once, and in phase 2 through the
    ConvLSTM's input projection once; then each batch of targets gathers
    its steps from the clip's frame features for the recurrence and the
    decoder. The corrupted pass extracts and projects only the corrupted
    context frames and splices them into the clean steps; in phase 1, whose
    prediction reads only the target frame, it reuses the clean
    predictions. In eval mode a frame's features and a target's prediction
    do not depend on the rest of its batch, so the predictions are those of
    each target on its own.
    """
    if corruption is not None and corruption not in CORRUPTION_KINDS:
        raise DataError(f"unknown corruption kind {corruption!r}; "
                        f"choose from {CORRUPTION_KINDS}")
    positions = context_indices(corrupted_frames, seq_len) if corruption is not None else []
    pairs = valid_targets(val_clips, interval, seq_len)
    if not pairs:
        raise DataError("validation set has no valid targets")
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    cm_clean = ConfusionMatrix(net.cfg.classes)
    cm_bad = ConfusionMatrix(net.cfg.classes)
    crop = (net.cfg.crop_h, net.cfg.crop_w)
    chunk = batch_size * seq_len  # no extractor call is larger than a forward's
    for cid, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
        targets = [target for _, target in group]
        frames = center_crop(val_clips[cid].frames, *crop).astype(np.float32) / 255.0
        labels = center_crop(val_clips[cid].labels, *crop)
        feats = _extract(net, frames, chunk)
        for start in range(0, len(targets), batch_size):
            batch = targets[start:start + batch_size]
            # a clip's targets are consecutive frames, and step i of target t
            # reads frame t - (T-1-i)k
            steps = [(feats, range(batch[0] - lag, batch[-1] + 1 - lag))
                     for lag in range((seq_len - 1) * interval, -1, -interval)]
            preds = labels_of(net.head(steps, training=False))
            _record(preds, cid, batch, labels, cm_clean, dump_dir, "pred")
            if dump_dir is not None:
                for target in batch:
                    imgio.write_pgm(dump_dir / f"gt_{cid:04d}_{target:03d}.pgm",
                                    labels[target])
            if corruption is None:
                continue
            # phase 1 reads only the target frame, which corruption never touches
            if positions and net.mode == "phase2":
                bad = []
                for target in batch:
                    sample = sample_sequence(val_clips, cid, target, interval, seq_len)
                    sample.frames = center_crop(sample.frames, *crop)
                    seed = int(np.random.SeedSequence(
                        entropy=corrupt_seed, spawn_key=(cid, target)).generate_state(1)[0])
                    out = corrupt_for_eval(sample, positions, corruption, seed=seed).frames
                    bad.extend(out[p - 1] for p in positions)
                bad_feats = _extract(net, np.stack(bad), chunk)
                # position positions[k] of the j-th target is row j * len(positions) + k
                for k, p in enumerate(positions):
                    steps[p - 1] = (bad_feats, range(k, len(bad), len(positions)))
                preds = labels_of(net.head(steps, training=False))
            _record(preds, cid, batch, labels, cm_bad, dump_dir, "pred_corrupted")
    per_class, mean = miou(cm_clean)
    report = EvalReport(per_class=per_class, mean=mean, evaluated_pixels=cm_clean.total,
                        targets=len(pairs))
    if corruption is not None:
        report.corruption = corruption
        report.corrupted_frames = tuple(corrupted_frames)
        report.corrupted_per_class, report.corrupted_mean = miou(cm_bad)
    return report


def write_report_csv(path, report: EvalReport) -> None:
    """class_id/iou rows plus a final mean row; anti-noise runs add the
    degradation columns."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if report.corruption is None:
            writer.writerow(["class_id", "iou"])
            for cid, iou in enumerate(report.per_class):
                writer.writerow([cid, "" if np.isnan(iou) else f"{iou:.4f}"])
            writer.writerow(["mean", f"{report.mean:.4f}"])
        else:
            writer.writerow(["class_id", "iou", "noise_kind", "corrupted_frames",
                             "clean_miou", "corrupted_miou", "degradation"])
            frames = " ".join(str(i) for i in report.corrupted_frames)
            for cid, iou in enumerate(report.per_class):
                writer.writerow([cid, "" if np.isnan(iou) else f"{iou:.4f}",
                                 report.corruption, frames, "", "", ""])
            writer.writerow(["mean", f"{report.mean:.4f}", report.corruption, frames,
                             f"{report.mean:.4f}", f"{report.corrupted_mean:.4f}",
                             f"{report.degradation:.4f}"])
