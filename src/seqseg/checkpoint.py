"""Parameter checkpoints.

Binary layout: 8-byte magic "NLSTM001", one precision byte (4 or 8), then
per-array records: u32 little-endian name length, UTF-8 name, u32 rank,
u32 dims, raw little-endian float payload. Nothing else: the container has
no checksum of its own. ``train`` records each checkpoint's sha256 in the
run's ``training_state.json`` and checks it on resume only; ``eval`` trusts
the checkpoint it is given.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"NLSTM001"


class CheckpointError(DataError):
    pass


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Write through a temp file beside ``path`` and move it onto ``path``
    when the block ends, so that a crash leaves the previous file or the new
    one, never a part; if the block raises, the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path, arrays: dict) -> None:
    """Write named float arrays; precision is taken from the first array."""
    if not arrays:
        raise CheckpointError("refusing to write an empty checkpoint")
    dtypes = {np.dtype(a.dtype) for a in arrays.values()}
    if len(dtypes) != 1 or dtypes.pop() not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise CheckpointError("all arrays must share one float32/float64 dtype")
    first = next(iter(arrays.values()))
    width = first.dtype.itemsize
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<B", width))
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.astype(f"<f{width}", copy=False).tobytes())


def checkpoint_dtype(path) -> np.dtype:
    """The float dtype that a checkpoint's precision byte names."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    with open(path, "rb") as f:
        head = f.read(9)
    if head[:8] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    if len(head) < 9:
        raise CheckpointError(f"{path} is truncated")
    if head[8] not in (4, 8):
        raise CheckpointError(f"{path} has invalid precision flag {head[8]}")
    return np.dtype(f"<f{head[8]}")


def load_arrays(path) -> dict:
    dtype = checkpoint_dtype(path)
    blob = Path(path).read_bytes()
    width = dtype.itemsize
    arrays: dict = {}
    off = 9
    try:
        while off < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
            off += 4 * rank
            nbytes = math.prod(dims) * width
            payload = blob[off:off + nbytes]
            if len(payload) != nbytes:
                raise CheckpointError(f"{path}: truncated payload for {name!r}")
            off += nbytes
            arrays[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except (struct.error, ValueError) as exc:  # ValueError: bad UTF-8, too many dims
        raise CheckpointError(f"{path}: corrupt record structure ({exc})") from exc
    if off != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last record")
    if not arrays:
        raise CheckpointError(f"{path}: no records")
    return arrays


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Model-level save/load


def save_model(path, net) -> None:
    arrays = {name: p.data for name, p in net.params().items()}
    arrays.update(net.buffers())
    save_arrays(path, arrays)


def load_model(path, net) -> None:
    arrays = load_arrays(path)
    params = net.params()
    buffers = net.buffers()
    expected = set(params) | set(buffers)
    got = set(arrays)
    if expected != got:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise CheckpointError(
            f"checkpoint does not match the model: missing={missing[:5]} extra={extra[:5]}")
    expected_shapes = {name: p.data.shape for name, p in params.items()}
    expected_shapes.update((name, b.shape) for name, b in buffers.items())
    for name, shape in expected_shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"array {name!r}: checkpoint shape {arrays[name].shape} != model {shape}")
    for name, p in params.items():
        p.data = arrays[name].astype(p.data.dtype, copy=False)
    net.load_buffers({name: arrays[name] for name in buffers})
