"""Noise-injected context training: stochastic replacement of context
frames under a per-frame probability and a hard cap, optional context-order
reversal, the four noise-frame generators, and the deterministic eval-time
corruption used by the anti-noise experiment.

The target frame (the last one) and its label are never touched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import imgio, imutil
from .errors import DataError

NOISE_KINDS = ("none", "unrelated_data", "random_tensor", "distortion", "gaussian_blur")
CORRUPTION_KINDS = ("distortion", "gaussian_blur", "both")

MAX_DISPLACEMENT_PX = 8.0
BLUR_SIGMA_RANGE = (2.0, 4.0)
FIELD_GRID = 4


class NoisePool:
    """A read-only collection of unrelated images used as replacement frames."""

    def __init__(self, images: Sequence[np.ndarray]):
        if not images:
            raise DataError("noise pool is empty")
        self.images = [np.asarray(im, dtype=np.float32) for im in images]

    @classmethod
    def load_dir(cls, directory) -> "NoisePool":
        paths = imgio.list_images(directory, ".ppm")
        if not paths:
            raise DataError(f"no .ppm images in noise pool directory {directory}")
        images = []
        for p in paths:
            rgb = imgio.read_ppm(p).astype(np.float32) / 255.0
            images.append(rgb.transpose(2, 0, 1))
        return cls(images)

    def sample(self, rng: np.random.Generator, h: int, w: int) -> np.ndarray:
        img = self.images[int(rng.integers(0, len(self.images)))]
        if img.shape[1:] != (h, w):
            img = imutil.bilinear_resize(img, h, w)
        return img.astype(np.float32, copy=True)


def make_collage(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A textured noise collage, visually disjoint from the shape clips."""
    base = np.stack([imutil.value_noise(rng, h, w, grid=5) for _ in range(3)])
    for _ in range(int(rng.integers(4, 9))):
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        hh, ww = int(rng.integers(4, h // 2 + 1)), int(rng.integers(4, w // 2 + 1))
        color = rng.random(3)
        base[:, y0:y0 + hh, x0:x0 + ww] = color[:, None, None]
    speckle = rng.random((3, h, w)) < 0.05
    base[speckle] = rng.random(int(speckle.sum()))
    return np.clip(base, 0.0, 1.0).astype(np.float32)


@dataclass
class NoisePolicy:
    kind: str = "none"
    p: float = 0.5
    cap: Optional[int] = None  # resolved to floor(T/2) at apply time
    reversal_p: float = 0.5
    pool: Optional[NoisePool] = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DataError(f"unknown noise kind {self.kind!r}; choose from {NOISE_KINDS}")
        if not 0.0 <= self.p <= 1.0:
            raise DataError(f"replacement probability must be in [0, 1], got {self.p}")
        if not 0.0 <= self.reversal_p <= 1.0:
            raise DataError(f"reversal probability must be in [0, 1], got {self.reversal_p}")
        if self.cap is not None and self.cap < 0:
            raise DataError("cap must be non-negative")

    def effective_cap(self, seq_len: int) -> int:
        cap = seq_len // 2 if self.cap is None else self.cap
        return min(cap, seq_len - 1)


@dataclass
class ReplacementMask:
    replaced: np.ndarray  # bool per context frame, pre-reversal order
    reversed: bool

    @property
    def count(self) -> int:
        return int(self.replaced.sum())


def displacement_field(rng: np.random.Generator, h: int, w: int,
                       max_disp: float = MAX_DISPLACEMENT_PX) -> np.ndarray:
    """Smooth [2, H, W] displacement field, sup-norm bounded by max_disp."""
    return imutil.smooth_field(rng, h, w, grid=FIELD_GRID, amplitude=max_disp)


def _distort(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    _, h, w = frame.shape
    field = displacement_field(rng, h, w)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    sy = np.clip(yy + field[0], 0.0, h - 1.0)
    sx = np.clip(xx + field[1], 0.0, w - 1.0)
    return imutil.sample_bilinear(frame, sy, sx).astype(np.float32)


def _blur(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    sigma = rng.uniform(*BLUR_SIGMA_RANGE)
    return imutil.gaussian_blur(frame, sigma).astype(np.float32)


def make_noise_frame(kind: str, template: np.ndarray, rng: np.random.Generator,
                     pool: Optional[NoisePool] = None) -> np.ndarray:
    """One replacement frame with the spatial dims of ``template`` ([3, H, W])."""
    _, h, w = template.shape
    if kind == "unrelated_data":
        if pool is None:
            raise DataError("noise kind 'unrelated_data' needs a non-empty noise pool")
        return pool.sample(rng, h, w)
    if kind == "random_tensor":
        return rng.random((template.shape[0], h, w), dtype=np.float32)
    if kind == "distortion":
        return _distort(template, rng)
    if kind == "gaussian_blur":
        return _blur(template, rng)
    raise DataError(f"cannot generate noise of kind {kind!r}")


def apply_noise(sample, policy: NoisePolicy, rng: np.random.Generator):
    """Replace context frames per the policy; returns (sample, mask).

    Context frames are scanned in temporal order, each drawing Bernoulli(p);
    once the cap is reached later draws are ignored. Afterwards the context
    order is reversed with probability reversal_p. kind='none' is fully
    inert. The target frame and the label are returned bit-identical.
    """
    t = sample.frames.shape[0]
    n_context = t - 1
    mask = ReplacementMask(replaced=np.zeros(n_context, dtype=bool), reversed=False)
    if policy.kind == "none":
        return sample, mask

    cap = policy.effective_cap(t)
    draws = rng.random(n_context) < policy.p
    frames = sample.frames.copy()
    replaced = 0
    for idx in range(n_context):
        if replaced >= cap:
            break
        if draws[idx]:
            frames[idx] = make_noise_frame(policy.kind, frames[idx], rng, policy.pool)
            mask.replaced[idx] = True
            replaced += 1
    if rng.random() < policy.reversal_p:
        frames[:n_context] = frames[:n_context][::-1]
        mask.reversed = True
    return dataclasses.replace(sample, frames=frames), mask


def context_indices(frame_indices: Sequence[int], t: int) -> list:
    """The distinct 1-based context positions, sorted; position T is the target."""
    indices = sorted(set(int(i) for i in frame_indices))
    for i in indices:
        if i < 1 or i > t - 1:
            raise DataError(f"corruption index {i} outside context range 1..{t - 1}")
    return indices


def corrupt_for_eval(sample, frame_indices: Sequence[int], kind: str, seed: int = 0):
    """Deterministically corrupt exactly the named context frames.

    Indices are 1-based positions within the sequence; the target frame
    (index T) is out of range by contract. ``kind`` is 'distortion',
    'gaussian_blur', or 'both'.
    """
    if kind not in CORRUPTION_KINDS:
        raise DataError(f"unknown corruption kind {kind!r}; choose from {CORRUPTION_KINDS}")
    indices = context_indices(frame_indices, sample.frames.shape[0])
    if not indices:
        return sample
    frames = sample.frames.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for i in indices:
        frame = frames[i - 1]
        if kind in ("distortion", "both"):
            frame = _distort(frame, rng)
        if kind in ("gaussian_blur", "both"):
            frame = _blur(frame, rng)
        frames[i - 1] = frame
    return dataclasses.replace(sample, frames=frames)


def write_pool(directory, rng: np.random.Generator, count: int, h: int, w: int) -> None:
    """Generate collage images into a noise-pool directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        img = make_collage(rng, h, w)
        rgb = np.clip(np.rint(img.transpose(1, 2, 0) * 255.0), 0, 255).astype(np.uint8)
        imgio.write_ppm(directory / f"img_{i:04d}.ppm", rgb)
