"""Deterministic moving-shapes video generator, sequence sampling with a
configurable frame interval, and sequence-consistent augmentation.

Each clip shows 2-4 rigid shapes (circle, square, triangle; one class per
shape kind) moving with constant velocity over a textured background,
bouncing at the borders, with occasional single-frame large jumps. Labels
are exact rasterizations of the same geometry.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import imgio, imutil
from .config import build
from .errors import DataError

IGNORE_INDEX = 255

SHAPE_KINDS = ("circle", "square", "triangle")
# class id = kind index + 1; 0 is the textured background
BASE_COLORS = {
    "circle": (0.85, 0.25, 0.20),
    "square": (0.20, 0.75, 0.30),
    "triangle": (0.25, 0.35, 0.85),
}
SIZE_RANGE = (5.0, 9.0)
JUMP_FACTOR = 4.0
# the training augmentation: rotation within +-MAX_ANGLE degrees, then a
# horizontal flip with probability FLIP_P
MAX_ANGLE = 10.0
FLIP_P = 0.5


@dataclass
class GenConfig:
    height: int = 64
    width: int = 64
    classes: int = 4
    shapes_min: int = 2
    shapes_max: int = 4
    speed_min: float = 0.5
    speed_max: float = 2.5
    jump_prob: float = 0.05
    clip_len: int = 40
    train_clips: int = 200
    val_clips: int = 40
    fps: float = 16.7
    pool_images: int = 32
    seed: int = 17

    def validate(self) -> None:
        if self.classes < 2:
            raise DataError("need at least 2 classes (background + 1 shape)")
        if self.classes > len(SHAPE_KINDS) + 1:
            raise DataError(f"at most {len(SHAPE_KINDS) + 1} classes available")
        if not 1 <= self.shapes_min <= self.shapes_max:
            raise DataError("invalid shapes_min/shapes_max")
        if self.clip_len < 2:
            raise DataError("clips need at least 2 frames")
        margin = 1.3 * SIZE_RANGE[1]
        if min(self.height, self.width) <= 2 * margin + 1:
            raise DataError(
                f"frame {self.height}x{self.width} too small for the shape sizes "
                "(a shape would overlap the whole frame)")
        if not 0.0 <= self.jump_prob <= 1.0:
            raise DataError("jump_prob must be in [0, 1]")
        if min(self.train_clips, self.val_clips, self.pool_images) < 0:
            raise DataError("train_clips, val_clips and pool_images must be >= 0")
        if self.speed_min > self.speed_max:
            raise DataError("speed_min must not exceed speed_max")

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        return build(cls, d, "generator config")


@dataclass
class ShapeTrack:
    kind: str
    class_id: int
    size: float
    color: np.ndarray
    velocity: np.ndarray          # initial [vy, vx]
    centers: np.ndarray           # [F, 2]
    jumps: np.ndarray             # [F] bool; True where the step was scaled


@dataclass
class VideoClip:
    clip_id: int
    frames: np.ndarray            # [F, 3, H, W] uint8
    labels: np.ndarray            # [F, H, W] uint8
    fps: float
    tracks: list = field(default_factory=list)

    def __len__(self) -> int:
        return self.frames.shape[0]


@dataclass
class SynthDataset:
    cfg: GenConfig
    train: list
    val: list

    def split(self, name: str) -> list:
        if name == "train":
            return self.train
        if name == "val":
            return self.val
        raise DataError(f"unknown split {name!r}")


@dataclass
class SequenceSample:
    frames: np.ndarray            # [T, 3, H, W] float32 in [0, 1]
    target_label: np.ndarray      # [H, W] uint8 (IGNORE_INDEX = ignored)
    clip_id: int
    target_index: int
    interval: int


def _shape_extent(size: float) -> float:
    return 1.3 * size


def _reflect_step(p: float, v: float, lo: float, hi: float, scale: float) -> tuple:
    p = p + v * scale
    while p < lo or p > hi:
        if p < lo:
            p = 2 * lo - p
            v = -v
        else:
            p = 2 * hi - p
            v = -v
    return p, v


def simulate_track(p0: np.ndarray, v0: np.ndarray, size: float, h: int, w: int,
                   jumps: np.ndarray) -> np.ndarray:
    """Constant-velocity bouncing motion; jump frames scale the step by 4."""
    ext = _shape_extent(size)
    lo_y, hi_y = ext, h - 1 - ext
    lo_x, hi_x = ext, w - 1 - ext
    centers = np.zeros((len(jumps), 2))
    py, px = float(p0[0]), float(p0[1])
    vy, vx = float(v0[0]), float(v0[1])
    centers[0] = (py, px)
    for t in range(1, len(jumps)):
        scale = JUMP_FACTOR if jumps[t] else 1.0
        py, vy = _reflect_step(py, vy, lo_y, hi_y, scale)
        px, vx = _reflect_step(px, vx, lo_x, hi_x, scale)
        centers[t] = (py, px)
    return centers


def _shape_mask(kind: str, cy: float, cx: float, size: float, h: int, w: int) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = yy - cy, xx - cx
    if kind == "circle":
        return dy * dy + dx * dx <= size * size
    if kind == "square":
        half = 0.85 * size
        return (np.abs(dy) <= half) & (np.abs(dx) <= half)
    # equilateral triangle, apex up, circumradius 1.2 * size
    r = 1.2 * size
    verts = [(cy - r, cx), (cy + r / 2, cx + r * np.sqrt(3) / 2),
             (cy + r / 2, cx - r * np.sqrt(3) / 2)]
    inside = np.ones((h, w), dtype=bool)
    for i in range(3):
        ay, ax = verts[i]
        by, bx = verts[(i + 1) % 3]
        cross = (bx - ax) * (yy - ay) - (by - ay) * (xx - ax)
        inside &= cross >= 0
    return inside


def _generate_clip(cfg: GenConfig, clip_id: int, rng: np.random.Generator) -> VideoClip:
    h, w, f = cfg.height, cfg.width, cfg.clip_len
    bg = np.stack([imutil.value_noise(rng, h, w, grid=6, low=0.25, high=0.75)
                   for _ in range(3)])
    tracks = []
    n_shapes = int(rng.integers(cfg.shapes_min, cfg.shapes_max + 1))
    usable_kinds = SHAPE_KINDS[:cfg.classes - 1]
    for _ in range(n_shapes):
        kind = usable_kinds[int(rng.integers(0, len(usable_kinds)))]
        size = rng.uniform(*SIZE_RANGE)
        ext = _shape_extent(size)
        p0 = np.array([rng.uniform(ext, h - 1 - ext), rng.uniform(ext, w - 1 - ext)])
        angle = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(cfg.speed_min, cfg.speed_max)
        v0 = speed * np.array([np.sin(angle), np.cos(angle)])
        jumps = np.zeros(f, dtype=bool)
        jumps[1:] = rng.random(f - 1) < cfg.jump_prob
        centers = simulate_track(p0, v0, size, h, w, jumps)
        color = np.clip(np.array(BASE_COLORS[kind]) + rng.uniform(-0.08, 0.08, 3), 0, 1)
        tracks.append(ShapeTrack(kind=kind, class_id=SHAPE_KINDS.index(kind) + 1,
                                 size=size, color=color, velocity=v0,
                                 centers=centers, jumps=jumps))

    frames = np.empty((f, 3, h, w), dtype=np.uint8)
    labels = np.empty((f, h, w), dtype=np.uint8)
    for t in range(f):
        img = bg.copy()
        lab = np.zeros((h, w), dtype=np.uint8)
        for tr in tracks:
            mask = _shape_mask(tr.kind, tr.centers[t, 0], tr.centers[t, 1], tr.size, h, w)
            img[:, mask] = tr.color[:, None]
            lab[mask] = tr.class_id
        frames[t] = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
        labels[t] = lab
    return VideoClip(clip_id=clip_id, frames=frames, labels=labels, fps=cfg.fps,
                     tracks=tracks)


def generate_dataset(cfg: GenConfig) -> SynthDataset:
    """Fully deterministic given cfg.seed; per-clip child seeds."""
    cfg.validate()
    splits = {}
    for split_idx, (name, count) in enumerate((("train", cfg.train_clips),
                                               ("val", cfg.val_clips))):
        clips = []
        for i in range(count):
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(split_idx, i))
            clips.append(_generate_clip(cfg, i, np.random.default_rng(seq)))
        splits[name] = clips
    return SynthDataset(cfg=cfg, train=splits["train"], val=splits["val"])


# ---------------------------------------------------------------------------
# Sequence sampling


def sample_sequence(clips: list, clip_id: int, target_index: int, interval: int,
                    seq_len: int) -> SequenceSample:
    """Frames at target - (T-1)k, ..., target - k, target; label for the target only."""
    if interval < 1:
        raise DataError("interval must be >= 1")
    if not 0 <= clip_id < len(clips):
        raise DataError(f"clip id {clip_id} out of range")
    clip = clips[clip_id]
    start = target_index - (seq_len - 1) * interval
    if start < 0:
        raise DataError(
            f"target {target_index} lacks history for T={seq_len}, interval={interval}")
    if target_index >= len(clip):
        raise DataError(f"target index {target_index} beyond clip length {len(clip)}")
    idx = list(range(start, target_index + 1, interval))
    frames = clip.frames[idx].astype(np.float32) / 255.0
    return SequenceSample(frames=frames, target_label=clip.labels[target_index].copy(),
                          clip_id=clip_id, target_index=target_index, interval=interval)


def valid_targets(clips: list, interval: int, seq_len: int) -> list:
    """All (clip_id, target_index) pairs with sufficient history."""
    pairs = []
    need = (seq_len - 1) * interval
    for cid, clip in enumerate(clips):
        pairs.extend((cid, t) for t in range(need, len(clip)))
    return pairs


# ---------------------------------------------------------------------------
# Augmentation


def _rotate_coords(h: int, w: int, theta_deg: float):
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = np.deg2rad(theta_deg)
    cos_t, sin_t = np.cos(th), np.sin(th)
    sy = cy + (yy - cy) * cos_t + (xx - cx) * sin_t
    sx = cx - (yy - cy) * sin_t + (xx - cx) * cos_t
    return sy, sx


def augment_sequence(sample: SequenceSample, rng: np.random.Generator, crop_h: int,
                     crop_w: int) -> SequenceSample:
    """One transform draw (rotation, flip, crop) applied identically to all
    frames and the target label; labels resample nearest with out-of-canvas
    pixels set to the ignore index, frames bilinear with zero fill."""
    h, w = sample.frames.shape[-2:]
    if crop_h > h or crop_w > w:
        raise DataError(f"crop {crop_h}x{crop_w} larger than frame {h}x{w}")
    theta = float(rng.uniform(-MAX_ANGLE, MAX_ANGLE))
    flip = bool(rng.random() < FLIP_P)
    y0 = int(rng.integers(0, h - crop_h + 1))
    x0 = int(rng.integers(0, w - crop_w + 1))

    sy, sx = _rotate_coords(h, w, theta)
    # the T frames share the coordinates: warp their channels as one image
    t, c = sample.frames.shape[:2]
    frames = imutil.sample_bilinear(sample.frames.reshape(t * c, h, w), sy, sx,
                                    fill=0.0).reshape(t, c, h, w)
    label = imutil.sample_nearest(sample.target_label, sy, sx, fill=IGNORE_INDEX)
    if flip:
        frames = frames[:, :, :, ::-1]
        label = label[:, ::-1]
    frames = np.ascontiguousarray(frames[:, :, y0:y0 + crop_h, x0:x0 + crop_w],
                                  dtype=np.float32)
    label = np.ascontiguousarray(label[y0:y0 + crop_h, x0:x0 + crop_w])
    return dataclasses.replace(sample, frames=frames, target_label=label)


def center_crop(a: np.ndarray, crop_h: int, crop_w: int) -> np.ndarray:
    """Deterministic eval-time crop of the last two axes (no-op when sizes
    already match)."""
    h, w = a.shape[-2:]
    if (h, w) == (crop_h, crop_w):
        return a
    if crop_h > h or crop_w > w:
        raise DataError(f"crop {crop_h}x{crop_w} larger than frame {h}x{w}")
    y0 = (h - crop_h) // 2
    x0 = (w - crop_w) // 2
    return np.ascontiguousarray(a[..., y0:y0 + crop_h, x0:x0 + crop_w])


# ---------------------------------------------------------------------------
# On-disk format


def save_dataset(dataset: SynthDataset, out_dir) -> None:
    out = Path(out_dir)
    for split in ("train", "val"):
        for clip in dataset.split(split):
            cdir = out / split / f"clip_{clip.clip_id:04d}"
            cdir.mkdir(parents=True, exist_ok=True)
            for t in range(len(clip)):
                imgio.write_ppm(cdir / f"frame_{t:03d}.ppm",
                                clip.frames[t].transpose(1, 2, 0))
                imgio.write_pgm(cdir / f"label_{t:03d}.pgm", clip.labels[t])
    meta = {"config": dataclasses.asdict(dataset.cfg), "fps": dataset.cfg.fps,
            "ignore_index": IGNORE_INDEX,
            "format": {"frames": "P6 ppm", "labels": "P5 pgm (value = class id)"}}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_dataset(root, splits: tuple = ("train", "val")) -> SynthDataset:
    """The dataset under ``root``; a split not named in ``splits`` is left
    empty and its files are not read."""
    root = Path(root)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DataError(f"{root} is not a dataset directory (missing meta.json)")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise DataError(f"{meta_path} has no generator config object under 'config'")
    fps = meta.get("fps")
    if isinstance(fps, bool) or not isinstance(fps, (int, float)):
        raise DataError(f"{meta_path} has no numeric 'fps'")
    cfg = GenConfig.from_dict(meta["config"])
    size = (cfg.height, cfg.width)

    def read(path, reader, shape):
        image = reader(path)
        if image.shape != shape:
            raise DataError(f"{path} is {image.shape}, meta.json says {shape}")
        return image

    clips_of = {"train": [], "val": []}
    for split in splits:
        sdir = root / split
        if sdir.exists():
            for cdir in sorted(p for p in sdir.iterdir() if p.is_dir()):
                frame_paths = imgio.list_images(cdir, ".ppm")
                label_paths = imgio.list_images(cdir, ".pgm")
                if len(frame_paths) != len(label_paths) or not frame_paths:
                    raise DataError(f"clip directory {cdir} is incomplete")
                frames = np.stack([read(p, imgio.read_ppm, size + (3,)).transpose(2, 0, 1)
                                   for p in frame_paths])
                labels = np.stack([read(p, imgio.read_pgm, size) for p in label_paths])
                clip_id = int(cdir.name.split("_")[-1])
                clips_of[split].append(VideoClip(clip_id=clip_id, frames=frames,
                                                 labels=labels, fps=fps))
        want = getattr(cfg, f"{split}_clips")
        if len(clips_of[split]) != want:
            raise DataError(f"{sdir} holds {len(clips_of[split])} clips, "
                            f"meta.json says {want}")
    if not clips_of["train"] and not clips_of["val"]:
        raise DataError(f"dataset at {root} has no clips")
    return SynthDataset(cfg=cfg, train=clips_of["train"], val=clips_of["val"])
