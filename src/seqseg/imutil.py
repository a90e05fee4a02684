"""Plain-numpy image helpers shared by the data generator and the noise
policy: bilinear resampling, separable Gaussian blur, smooth random fields.
All images are float arrays in [0, 1], channel-first. ``interp_weights`` is
also the interpolation rule of ``ops.bilinear_upsample``."""

from __future__ import annotations

import numpy as np


def interp_weights(out_size: int, in_size: int):
    """Align-corners-false source indices and weights for one axis."""
    src = (np.arange(out_size, dtype=np.float64) + 0.5) * (in_size / out_size) - 0.5
    src = np.clip(src, 0.0, in_size - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, in_size - 1)
    w1 = src - i0
    return i0, i1, w1


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a [C, H, W] image with bilinear interpolation."""
    c, h, w = img.shape
    y0, y1, wy = interp_weights(out_h, h)
    x0, x1, wx = interp_weights(out_w, w)
    rows = img[:, y0, :] * (1.0 - wy)[None, :, None] + img[:, y1, :] * wy[None, :, None]
    out = rows[:, :, x0] * (1.0 - wx)[None, None, :] + rows[:, :, x1] * wx[None, None, :]
    return out.astype(img.dtype, copy=False)


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge padding (preserves constants)."""
    radius = max(1, int(round(3.0 * sigma)))
    k = gaussian_kernel(sigma, radius)
    c, h, w = img.shape
    padded = np.pad(img, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    rows = np.zeros((c, h, w), dtype=np.float64)
    for i, kv in enumerate(k):
        rows += kv * padded[:, i:i + h, :]
    padded = np.pad(rows, ((0, 0), (0, 0), (radius, radius)), mode="edge")
    out = np.zeros((c, h, w), dtype=np.float64)
    for i, kv in enumerate(k):
        out += kv * padded[:, :, i:i + w]
    return out.astype(img.dtype, copy=False)


def smooth_field(rng: np.random.Generator, h: int, w: int, grid: int = 4,
                 amplitude: float = 1.0) -> np.ndarray:
    """A [2, H, W] smooth field from a bilinearly upsampled control grid.

    Every value stays within [-amplitude, amplitude] (interpolation is
    convex in the control values).
    """
    control = rng.uniform(-amplitude, amplitude, size=(2, grid, grid))
    return bilinear_resize(control, h, w)


def value_noise(rng: np.random.Generator, h: int, w: int, grid: int = 6,
                low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """A smooth scalar texture in [low, high], shape [H, W]."""
    control = rng.uniform(low, high, size=(1, grid, grid))
    return bilinear_resize(control, h, w)[0]


def sample_bilinear(img: np.ndarray, sy: np.ndarray, sx: np.ndarray,
                    fill: float = 0.0) -> np.ndarray:
    """Sample a [C, H, W] image at fractional coords; out-of-canvas -> fill."""
    c, h, w = img.shape
    valid = (sy >= 0.0) & (sy <= h - 1.0) & (sx >= 0.0) & (sx <= w - 1.0)
    ys = np.clip(sy, 0.0, h - 1.0)
    xs = np.clip(sx, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys - y0
    wx = xs - x0
    out = (img[:, y0, x0] * (1 - wy) * (1 - wx) + img[:, y1, x0] * wy * (1 - wx)
           + img[:, y0, x1] * (1 - wy) * wx + img[:, y1, x1] * wy * wx)
    out = np.where(valid[None], out, fill)
    return out.astype(img.dtype, copy=False)


def sample_nearest(lab: np.ndarray, sy: np.ndarray, sx: np.ndarray, fill: int) -> np.ndarray:
    """Sample a [H, W] integer map at rounded coords; out-of-canvas -> fill."""
    h, w = lab.shape
    yr = np.rint(sy).astype(np.int64)
    xr = np.rint(sx).astype(np.int64)
    valid = (yr >= 0) & (yr < h) & (xr >= 0) & (xr < w)
    out = np.full(sy.shape, fill, dtype=lab.dtype)
    out[valid] = lab[yr[valid], xr[valid]]
    return out
