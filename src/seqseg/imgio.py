"""Binary PPM (P6) / PGM (P5) readers and writers.

Frames are stored as P6 with maxval 255; label maps as P5 where the pixel
value is the class id and 255 marks ignored pixels. Writes are byte-exact
(no comments, single-space separators) so identical data produces
identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError


class ImageFormatError(DataError):
    pass


def write_ppm(path, rgb: np.ndarray) -> None:
    """rgb: [H, W, 3] uint8."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ImageFormatError(f"write_ppm expects [H, W, 3] uint8, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """gray: [H, W] uint8."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ImageFormatError(f"write_pgm expects [H, W] uint8, got {gray.shape} {gray.dtype}")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def _read_header(f, magic: bytes):
    if f.read(2) != magic:
        raise ImageFormatError(f"not a {magic.decode()} file")
    fields = []
    while len(fields) < 3:
        tok = b""
        ch = f.read(1)
        while ch.isspace():
            ch = f.read(1)
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        while ch and not ch.isspace():
            tok += ch
            ch = f.read(1)
        if not tok:
            raise ImageFormatError("truncated header")
        if not tok.isdigit():
            raise ImageFormatError(f"header field {tok!r} is not an integer")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 supported, got {maxval}")
    return w, h


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P6")
        data = f.read(w * h * 3)
    if len(data) != w * h * 3:
        raise ImageFormatError(f"truncated pixel data in {path}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P5")
        data = f.read(w * h)
    if len(data) != w * h:
        raise ImageFormatError(f"truncated pixel data in {path}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def list_images(directory, suffix: str) -> list:
    return sorted(p for p in Path(directory).iterdir() if p.suffix == suffix)
