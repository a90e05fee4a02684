"""Confusion-matrix mIoU evaluation and the anti-noise degradation report."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import imgio
from .checkpoint import atomic_write
from .data import IGNORE_INDEX, center_crop_sample, sample_sequence, valid_targets
from .errors import DataError
from .noise import context_indices, corrupt_for_eval

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
            np.add.at(self.counts, (t, p), 1)
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


def _predict_all(net, samples, batch_size: int, dump_dir, prefix: str, cm: ConfusionMatrix):
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        seqs = np.stack([s.frames for s in chunk])
        preds = net.predict(seqs)
        for s, pred in zip(chunk, preds):
            cm.update(pred, s.target_label)
            if dump_dir is not None:
                name = f"{prefix}_{s.clip_id:04d}_{s.target_index:03d}.pgm"
                imgio.write_pgm(Path(dump_dir) / name, pred.astype(np.uint8))


def evaluate(net, val_clips: list, *, seq_len: int, interval: int,
             corruption: Optional[str] = None, corrupted_frames: Sequence[int] = (1, 3),
             corrupt_seed: int = 0, batch_size: int = TARGETS_PER_FORWARD,
             dump_dir=None) -> EvalReport:
    """Deterministic full-validation mIoU; optionally also the corrupted-
    context pass and the resulting degradation.

    Every frame with sufficient history is a target (stride 1); no
    augmentation and no training noise are applied.
    """
    if corruption is not None:
        context_indices(corrupted_frames, seq_len)
    pairs = valid_targets(val_clips, interval, seq_len)
    if not pairs:
        raise DataError("validation set has no valid targets")
    if dump_dir is not None:
        Path(dump_dir).mkdir(parents=True, exist_ok=True)
    samples = []
    for cid, target in pairs:
        s = sample_sequence(val_clips, cid, target, interval, seq_len)
        samples.append(center_crop_sample(s, net.cfg.crop_h, net.cfg.crop_w))
    classes = net.cfg.classes

    cm_clean = ConfusionMatrix(classes)
    _predict_all(net, samples, batch_size, dump_dir, "pred", cm_clean)
    if dump_dir is not None:
        for s in samples:
            imgio.write_pgm(Path(dump_dir) / f"gt_{s.clip_id:04d}_{s.target_index:03d}.pgm",
                            s.target_label)
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
        cm_bad = ConfusionMatrix(classes)
        _predict_all(net, corrupted, batch_size, dump_dir, "pred_corrupted", cm_bad)
        bad_per_class, bad_mean = miou(cm_bad)
        report.corruption = corruption
        report.corrupted_frames = tuple(corrupted_frames)
        report.corrupted_per_class = bad_per_class
        report.corrupted_mean = bad_mean
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
