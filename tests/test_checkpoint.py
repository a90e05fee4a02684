"""The binary checkpoint container and model save/load."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqseg import checkpoint as ckpt
from seqseg.config import TrainConfig, load_model_json, save_model_json
from seqseg.network import ModelConfig, SegNet


def small_net(seed=0, mode="phase2"):
    cfg = ModelConfig(channel_plan=(4, 6, 8, 8), classes=3, ppm_bins=(1, 2),
                      crop_h=16, crop_w=16)
    return SegNet(cfg, seed=seed, dtype=np.float32, mode=mode)


class TestContainer:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {"a.weight": rng.standard_normal((3, 2)).astype(np.float32),
                  "b.bias": rng.standard_normal(5).astype(np.float32),
                  "scalarish": np.array([1.5], dtype=np.float32)}
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, arrays)
        loaded = ckpt.load_arrays(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == np.float32

    def test_binary_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, {"w": arr})
        blob = path.read_bytes()
        assert blob[:8] == b"NLSTM001"
        assert blob[8] == 8  # precision flag
        (name_len,) = struct.unpack_from("<I", blob, 9)
        assert name_len == 1
        assert blob[13:14] == b"w"
        rank, d0, d1 = struct.unpack_from("<3I", blob, 14)
        assert (rank, d0, d1) == (2, 2, 3)
        payload = np.frombuffer(blob[26:], dtype="<f8")
        np.testing.assert_array_equal(payload.reshape(2, 3), arr)

    def test_float32_flag(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, {"w": np.ones(2, dtype=np.float32)})
        assert path.read_bytes()[8] == 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x04" + b"\x00" * 10)
        with pytest.raises(ckpt.CheckpointError, match="magic"):
            ckpt.load_arrays(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, {"w": np.ones((4, 4), dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ckpt.CheckpointError, match="truncated"):
            ckpt.load_arrays(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, {"w": np.ones(3, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_arrays(path)

    def test_mixed_dtypes_rejected(self, tmp_path):
        with pytest.raises(ckpt.CheckpointError):
            ckpt.save_arrays(tmp_path / "x.ckpt",
                             {"a": np.ones(2, np.float32), "b": np.ones(2, np.float64)})


class _FailsOnWrite:
    """A float32 array stand-in whose payload cannot be encoded, so a write
    stops after the records before it."""
    dtype = np.dtype(np.float32)
    ndim = 1
    shape = (3,)

    def astype(self, *args, **kwargs):
        raise RuntimeError("write interrupted")


class TestCrashSafeWrites:
    def test_interrupted_checkpoint_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, {"a": np.arange(4, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            ckpt.save_arrays(path, {"a": np.ones(2, dtype=np.float32), "b": _FailsOnWrite()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    def test_interrupted_first_write_leaves_no_target(self, tmp_path):
        path = tmp_path / "x.ckpt"
        with pytest.raises(RuntimeError, match="interrupted"):
            ckpt.save_arrays(path, {"a": np.ones(2, dtype=np.float32), "b": _FailsOnWrite()})
        assert list(tmp_path.iterdir()) == []

    def test_text_write_replaces_only_when_complete(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("old\n")
        with pytest.raises(KeyError):
            with ckpt.atomic_write(path, "w") as f:
                f.write("partial")
                raise KeyError("crash")
        assert path.read_text() == "old\n"
        with ckpt.atomic_write(path, "w") as f:
            f.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


class TestModelCheckpoint:
    def test_model_roundtrip_bitwise(self, tmp_path, rng):
        net = small_net(seed=1)
        seqs = rng.random((1, 2, 3, 16, 16)).astype(np.float32)
        net.forward(seqs, training=True)  # move BN stats off init
        path = tmp_path / "model.ckpt"
        ckpt.save_model(path, net)

        other = small_net(seed=2)
        ckpt.load_model(path, other)
        for name, p in net.params().items():
            np.testing.assert_array_equal(other.params()[name].data, p.data)
        for name, b in net.buffers().items():
            np.testing.assert_array_equal(other.buffers()[name], b)
        out_a = net.forward(seqs, training=False).data
        out_b = other.forward(seqs, training=False).data
        np.testing.assert_array_equal(out_a, out_b)

    def test_mismatched_model_rejected(self, tmp_path):
        net = small_net()
        path = tmp_path / "model.ckpt"
        ckpt.save_model(path, net)
        bigger = SegNet(ModelConfig(channel_plan=(6, 8, 12, 12), classes=3,
                                    ppm_bins=(1, 2), crop_h=16, crop_w=16),
                        seed=0, dtype=np.float32)
        with pytest.raises(ckpt.CheckpointError, match="does not match|shape"):
            ckpt.load_model(path, bigger)

    def test_model_config_roundtrip(self, tmp_path):
        net = small_net()
        save_model_json(tmp_path / "model.json", net.cfg, TrainConfig())
        loaded, _ = load_model_json(tmp_path / "model.json")
        assert loaded == net.cfg

    def test_geometry_roundtrip_and_default(self, tmp_path):
        net = small_net()
        save_model_json(tmp_path / "model.json", net.cfg, TrainConfig(seq_len=3, interval=2))
        assert load_model_json(tmp_path / "model.json") == (
            net.cfg, {"seq_len": 3, "interval": 2})
        # written before the geometry was recorded: the defaults of a run
        (tmp_path / "old.json").write_text(json.dumps(dataclasses.asdict(net.cfg)))
        assert load_model_json(tmp_path / "old.json") == (
            net.cfg, {"seq_len": 4, "interval": 1})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_checkpoint_dtype_reads_precision_byte(self, tmp_path, dtype):
        path = tmp_path / "x.ckpt"
        ckpt.save_arrays(path, {"a": np.zeros(2, dtype=dtype)})
        assert ckpt.checkpoint_dtype(path) == np.dtype(dtype)

    def test_convlstm_names_in_checkpoint(self, tmp_path):
        net = small_net()
        path = tmp_path / "model.ckpt"
        ckpt.save_model(path, net)
        names = set(ckpt.load_arrays(path))
        for gate in ("i", "f", "c", "o"):
            assert f"convlstm.W_{gate}" in names
            assert f"convlstm.V_{gate}" in names
            assert f"convlstm.b_{gate}" in names
        for gate in ("i", "f", "o"):
            assert f"convlstm.U_{gate}" in names
        assert "convlstm.U_c" not in names


@pytest.fixture(scope="module")
def model_blob(tmp_path_factory):
    """A small model checkpoint's bytes and a scratch path to write variants to."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    ckpt.save_model(path, small_net())
    return path.read_bytes(), path


def _damage(blob: bytes, edit) -> bytes:
    """``blob`` cut to ``edit`` bytes, or with each ``(position, mask)`` of
    ``edit`` XOR-ed in."""
    if isinstance(edit, int):
        return blob[:edit]
    out = bytearray(blob)
    for pos, mask in edit:
        out[pos] ^= mask
    return bytes(out)


def _shapes(net) -> dict:
    shapes = {name: p.shape for name, p in net.params().items()}
    shapes.update((name, b.shape) for name, b in net.buffers().items())
    return shapes


class TestDamagedCheckpoints:
    """A truncated checkpoint, or one with 3 bytes flipped, either loads into
    the model, every array in the model's shape, or raises CheckpointError;
    never another exception."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncation_or_flip_loads_or_raises_checkpoint_error(self, model_blob, data):
        blob, path = model_blob
        size = len(blob)
        flips = st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                         min_size=3, max_size=3, unique_by=lambda flip: flip[0])
        edit = data.draw(st.one_of(st.integers(0, size - 1), flips), label="edit")
        path.write_bytes(_damage(blob, edit))
        net = small_net()
        shapes = _shapes(net)
        try:
            ckpt.load_model(path, net)
        except ckpt.CheckpointError:
            return
        assert _shapes(net) == shapes
