"""Synthetic dataset: determinism, label completeness, the analytic motion
oracle, sequence sampling arithmetic, augmentation consistency, and the
on-disk PPM/PGM format."""

import numpy as np
import pytest

from seqseg import imgio
from seqseg.data import (
    GenConfig,
    IGNORE_INDEX,
    SequenceSample,
    augment_sequence,
    center_crop,
    generate_dataset,
    load_dataset,
    sample_sequence,
    save_dataset,
    valid_targets,
)
from seqseg.errors import DataError


def small_cfg(**kw):
    base = dict(train_clips=3, val_clips=2, clip_len=12, seed=5)
    base.update(kw)
    return GenConfig(**base)


def reflect_walk(p0, v0, lo, hi, scales):
    """Test-local re-implementation of bouncing motion for one axis."""
    p, v = float(p0), float(v0)
    out = [p]
    for s in scales:
        p = p + v * s
        while p < lo or p > hi:
            if p < lo:
                p, v = 2 * lo - p, -v
            else:
                p, v = 2 * hi - p, -v
        out.append(p)
    return out


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = generate_dataset(small_cfg())
        b = generate_dataset(small_cfg())
        for ca, cb in zip(a.train + a.val, b.train + b.val):
            np.testing.assert_array_equal(ca.frames, cb.frames)
            np.testing.assert_array_equal(ca.labels, cb.labels)

    def test_different_seed_differs(self):
        a = generate_dataset(small_cfg())
        b = generate_dataset(small_cfg(seed=6))
        assert any(np.abs(ca.frames.astype(int) - cb.frames.astype(int)).max() > 0
                   for ca, cb in zip(a.train, b.train))

    def test_every_pixel_labeled(self):
        ds = generate_dataset(small_cfg())
        for clip in ds.train:
            assert clip.labels.shape == (12, 64, 64)
            hist = np.bincount(clip.labels.reshape(-1), minlength=256)
            assert hist.sum() == 12 * 64 * 64
            assert hist[ds.cfg.classes:255].sum() == 0
            assert hist[1:4].sum() > 0  # shapes actually rendered

    def test_motion_matches_analytic_tracker(self):
        cfg = small_cfg(jump_prob=0.0, clip_len=30)
        ds = generate_dataset(cfg)
        for clip in ds.train:
            for tr in clip.tracks:
                ext = 1.3 * tr.size
                scales = np.ones(len(clip) - 1)
                ys = reflect_walk(tr.centers[0, 0], tr.velocity[0], ext, 63 - ext, scales)
                xs = reflect_walk(tr.centers[0, 1], tr.velocity[1], ext, 63 - ext, scales)
                np.testing.assert_allclose(tr.centers[:, 0], ys, rtol=0, atol=1e-9)
                np.testing.assert_allclose(tr.centers[:, 1], xs, rtol=0, atol=1e-9)

    def test_jump_frames_scale_displacement(self):
        cfg = small_cfg(jump_prob=1.0, clip_len=6, shapes_min=1, shapes_max=1,
                        speed_min=1.0, speed_max=1.0)
        ds = generate_dataset(cfg)
        tr = ds.train[0].tracks[0]
        assert tr.jumps[1:].all()
        ext = 1.3 * tr.size
        ys = reflect_walk(tr.centers[0, 0], tr.velocity[0], ext, 63 - ext,
                          [4.0] * (len(ds.train[0]) - 1))
        np.testing.assert_allclose(tr.centers[:, 0], ys, atol=1e-9)

    def test_mask_centroid_tracks_center(self):
        # unoccluded single shape: rasterized centroid stays near the track
        cfg = small_cfg(shapes_min=1, shapes_max=1, jump_prob=0.0)
        ds = generate_dataset(cfg)
        clip = ds.train[0]
        tr = clip.tracks[0]
        for t in range(len(clip)):
            mask = clip.labels[t] == tr.class_id
            assert mask.any()
            yy, xx = np.nonzero(mask)
            assert abs(yy.mean() - tr.centers[t, 0]) < 1.0
            assert abs(xx.mean() - tr.centers[t, 1]) < 1.0

    def test_degenerate_config_rejected(self):
        with pytest.raises(DataError, match="overlap the whole frame"):
            GenConfig(height=20, width=20).validate()


class TestSampleSequence:
    def test_consecutive_indices(self):
        ds = generate_dataset(small_cfg())
        s = sample_sequence(ds.train, 0, target_index=10, interval=1, seq_len=4)
        np.testing.assert_array_equal(
            s.frames * 255.0, ds.train[0].frames[[7, 8, 9, 10]].astype(np.float32))
        np.testing.assert_array_equal(s.target_label, ds.train[0].labels[10])

    def test_strided_indices(self):
        ds = generate_dataset(small_cfg(clip_len=16))
        s = sample_sequence(ds.train, 1, target_index=15, interval=5, seq_len=4)
        np.testing.assert_array_equal(
            s.frames * 255.0, ds.train[1].frames[[0, 5, 10, 15]].astype(np.float32))

    def test_insufficient_history_rejected(self):
        ds = generate_dataset(small_cfg())
        with pytest.raises(DataError, match="history"):
            sample_sequence(ds.train, 0, target_index=5, interval=2, seq_len=4)

    def test_valid_targets_enumeration(self):
        ds = generate_dataset(small_cfg(clip_len=10, train_clips=2))
        pairs = valid_targets(ds.train, interval=2, seq_len=4)
        assert pairs == [(0, t) for t in range(6, 10)] + [(1, t) for t in range(6, 10)]


class TestAugmentation:
    def make_sample(self, rng, t=4, h=24, w=24):
        frames = rng.random((t, 3, h, w), dtype=np.float32)
        label = rng.integers(0, 4, size=(h, w)).astype(np.uint8)
        return SequenceSample(frames=frames, target_label=label, clip_id=0,
                              target_index=t - 1, interval=1)

    def test_identity_when_no_rotation_flip_or_crop(self, rng):
        sample = self.make_sample(rng)

        class FixedRng:
            def uniform(self, lo, hi):
                return 0.0

            def random(self):
                return 1.0  # above flip_p -> no flip

            def integers(self, lo, hi):
                return 0

        out = augment_sequence(sample, FixedRng(), 24, 24)
        np.testing.assert_allclose(out.frames, sample.frames, atol=1e-7)
        np.testing.assert_array_equal(out.target_label, sample.target_label)
        assert not (out.target_label == IGNORE_INDEX).any()

    def test_flip_is_involution(self, rng):
        sample = self.make_sample(rng)

        class FlipOnly:
            def uniform(self, lo, hi):
                return 0.0

            def random(self):
                return 0.0  # always flip

            def integers(self, lo, hi):
                return 0

        once = augment_sequence(sample, FlipOnly(), 24, 24)
        twice = augment_sequence(once, FlipOnly(), 24, 24)
        np.testing.assert_allclose(twice.frames, sample.frames, atol=1e-7)
        np.testing.assert_array_equal(twice.target_label, sample.target_label)

    def test_same_transform_applied_to_all_frames(self, rng):
        # duplicate frames must stay duplicates under the shared transform
        sample = self.make_sample(rng)
        sample.frames[:] = sample.frames[0]
        out = augment_sequence(sample, np.random.default_rng(9), 16, 16)
        for t in range(1, 4):
            np.testing.assert_array_equal(out.frames[t], out.frames[0])

    def test_ignore_pixels_are_exactly_out_of_canvas(self, rng):
        sample = self.make_sample(rng, h=32, w=32)
        out = augment_sequence(sample, np.random.default_rng(11), 32, 32)
        # replay the transform's first two draws: rotation, then flip
        replay = np.random.default_rng(11)
        theta = replay.uniform(-10.0, 10.0)
        flip = replay.random() < 0.5
        yy, xx = np.meshgrid(np.arange(32, dtype=np.float64),
                             np.arange(32, dtype=np.float64), indexing="ij")
        c = 31 / 2.0
        th = np.deg2rad(theta)
        sy = c + (yy - c) * np.cos(th) + (xx - c) * np.sin(th)
        sx = c - (yy - c) * np.sin(th) + (xx - c) * np.cos(th)
        outside = ((np.rint(sy) < 0) | (np.rint(sy) > 31)
                   | (np.rint(sx) < 0) | (np.rint(sx) > 31))
        if flip:
            outside = outside[:, ::-1]
        np.testing.assert_array_equal(out.target_label == IGNORE_INDEX, outside)

    def test_label_geometry_consistency(self):
        # after augmentation, the label of a shape interior must match the
        # shape actually drawn in the frame for nearly all interior pixels
        ds = generate_dataset(small_cfg(shapes_min=1, shapes_max=1))
        clip = ds.train[0]
        tr = clip.tracks[0]
        s = sample_sequence(ds.train, 0, 6, 1, 4)
        out = augment_sequence(s, np.random.default_rng(21), 56, 56)
        lab = out.target_label
        color = tr.color.astype(np.float32)
        frame = out.frames[-1]
        mask = lab == tr.class_id
        # interior = mask eroded by one pixel, excluding resampling edges
        interior = mask.copy()
        interior[1:] &= mask[:-1]
        interior[:-1] &= mask[1:]
        interior[:, 1:] &= mask[:, :-1]
        interior[:, :-1] &= mask[:, 1:]
        assert interior.sum() > 20
        dist = np.linalg.norm(frame - color[:, None, None], axis=0)
        agree = (dist[interior] < 0.25).mean()
        assert agree >= 0.99

    def test_crop_larger_than_frame_rejected(self, rng):
        sample = self.make_sample(rng)
        with pytest.raises(DataError, match="crop"):
            augment_sequence(sample, np.random.default_rng(0), 25, 24)

    def test_center_crop(self, rng):
        sample = self.make_sample(rng, h=24, w=24)
        out = center_crop(sample.frames, 16, 16)
        np.testing.assert_array_equal(out, sample.frames[:, :, 4:20, 4:20])
        assert center_crop(sample.frames, 24, 24) is sample.frames


class TestDiskFormat:
    def test_ppm_pgm_roundtrip(self, tmp_path, rng):
        rgb = rng.integers(0, 256, size=(9, 7, 3)).astype(np.uint8)
        gray = rng.integers(0, 256, size=(5, 6)).astype(np.uint8)
        imgio.write_ppm(tmp_path / "a.ppm", rgb)
        imgio.write_pgm(tmp_path / "b.pgm", gray)
        np.testing.assert_array_equal(imgio.read_ppm(tmp_path / "a.ppm"), rgb)
        np.testing.assert_array_equal(imgio.read_pgm(tmp_path / "b.pgm"), gray)

    def test_dataset_save_load_roundtrip(self, tmp_path):
        ds = generate_dataset(small_cfg(train_clips=2, val_clips=1, clip_len=3))
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.cfg == ds.cfg
        assert len(loaded.train) == 2 and len(loaded.val) == 1
        for a, b in zip(ds.train + ds.val, loaded.train + loaded.val):
            np.testing.assert_array_equal(a.frames, b.frames)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(DataError, match="meta.json"):
            load_dataset(tmp_path)

    def test_clip_shorter_than_meta_rejected(self, tmp_path):
        # a clip that lost its last frame and label would load as 11 frames
        save_dataset(generate_dataset(small_cfg(train_clips=0, val_clips=3, pool_images=0)),
                     tmp_path)
        clip = tmp_path / "val" / "clip_0000"
        (clip / "frame_011.ppm").unlink()
        (clip / "label_011.pgm").unlink()
        with pytest.raises(DataError, match="11 frames and 11 labels, meta.json says 12"):
            load_dataset(tmp_path)

    def test_frames_load_in_index_order(self, tmp_path):
        # by name, frame_1000.ppm sorts before frame_101.ppm
        ds = generate_dataset(small_cfg(train_clips=0, val_clips=1, clip_len=1002,
                                        height=32, width=32, pool_images=0))
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path).val[0]
        np.testing.assert_array_equal(loaded.frames, ds.val[0].frames)
        np.testing.assert_array_equal(loaded.labels, ds.val[0].labels)
