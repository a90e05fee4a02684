"""The benchmark's workloads and the rounds they repeat.

Every workload repeats one round, the pipeline a user runs, through the
program's own command-line entry point in this process:

    seqseg gen-data -> seqseg train -> seqseg eval -> seqseg eval --corrupt both

so every end-to-end metric is measured on every workload. The workloads
differ in the size and configuration of each stage, so that each one puts
most of its time into a different layer (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from seqseg import cli, train
from seqseg.convlstm import encode_sequence
from seqseg.network import ModelConfig, SegNet
from seqseg.tensor import Tensor

SEQ_LEN = 4                 # the CLI's default T, in training and eval
SEQUENCES_PER_STEP = 4      # the CLI's default N
NOISE_P, NOISE_CAP = 0.5, 2  # the CLI's default replacement law for T=4
SETUP_STEPS = 2             # phase-1 steps of the set-up run (the warm-up)
CLASSES = 4
# file times come from a coarser clock than time.time_ns()
FRESH_MARGIN_NS = 10**8

# parameters whose gradients are sampled: every ConvLSTM gate parameter,
# then extractor and decoder parameters
GRAD_PARAMS = (
    [f"convlstm.{k}_{g}" for k in "WVb" for g in "ifco"]
    + [f"convlstm.U_{g}" for g in "ifo"]
    + [f"extractor.block{i}.conv.W" for i in range(1, 5)]
    + ["extractor.block2.bn.gamma", "extractor.block4.bn.beta",
       "decoder.ppm.bin1.conv.W", "decoder.ppm.bin6.conv.b", "decoder.fuse1.conv.W",
       "decoder.fuse2.bn.gamma", "decoder.classify.W", "decoder.classify.b"]
)
GRAD_PICKS_CONVLSTM = 2
GRAD_PICKS_OTHER = 1


@dataclass(frozen=True)
class Workload:
    why: str
    train_clips: int
    val_clips: int
    clip_len: int
    phase: int        # 1: phase-1 training; 2: resume the set-up's phase-1 run into phase 2
    noise: str
    steps: int
    pool_images: int = 4

    @property
    def clips(self) -> int:
        return self.train_clips + self.val_clips

    @property
    def targets(self) -> int:
        return self.val_clips * (self.clip_len - (SEQ_LEN - 1))

    @property
    def ops_per_round(self) -> int:
        # generated clips + training steps + targets of the clean and corrupted evals
        return self.clips + self.steps + 2 * self.targets


# Stage sizes keep the ratios of a default-sized run (200 + 40 clips of 40
# frames, 10 epochs of 40 steps per phase, evals of all 1480 val targets):
# clips of the default 40 frames, 5 train clips per val clip, and on the
# train workloads 24 loaded frames per training step, as in one phase of
# the defaults. Loading the dataset then takes about the share of each
# command that it takes at the defaults. README.md lists the shares,
# measured, and what does not scale down.
WORKLOADS = {
    "train-phase2-noisy": Workload(
        why="phase-2 training with unrelated_data noise: 32 of 43 convs per step run "
            "in the ConvLSTM, so gate fusion, conv2d and tape changes show here first",
        train_clips=5, val_clips=1, clip_len=40, phase=2, noise="unrelated_data", steps=10),
    "train-phase1-distortion": Workload(
        why="phase-1 training with distortion noise: the ConvLSTM is bypassed in "
            "training and batch assembly with noise is a large share of each step",
        train_clips=5, val_clips=1, clip_len=40, phase=1, noise="distortion", steps=10),
    "eval-corrupted": Workload(
        why="eval-heavy: clean and --corrupt both evals of 74 targets, forward only "
            "with no tape, take most of each round; also the largest gen-data stage",
        train_clips=10, val_clips=2, clip_len=40, phase=2, noise="none", steps=6),
}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("sequences/s", "higher"),
    "eval_targets_per_s": ("targets/s", "higher"),
    "corrupt_eval_targets_per_s": ("targets/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(1)[0] >> 1)


class StageFailed(RuntimeError):
    pass


class Runner:
    """One workload's set-up, rounds and checks, in ``workdir``.

    As a user would, every round writes into directories that do not exist
    yet; ``workdir`` is removed at the end of the run."""

    def __init__(self, name: str, seed: int, workdir: Path, tracer=None):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.gen_config = workdir / "gen.json"
        self.setup_run = workdir / "setup" / "run"
        self.round_dir = workdir / "round"
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.noise_counts: list = []

    # -- running the program -------------------------------------------------

    def cli(self, argv: list) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise StageFailed(f"seqseg {argv[0]} exited with {code}")

    def stage(self, name: str, argv: list) -> float:
        tracing = self.tracer is not None and self.tracer.active
        span = self.tracer.span(f"stage.{name}") if tracing else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            self.cli(argv)
        return time.perf_counter() - start

    def train_argv(self, data: Path, out: Path, steps: int, seed: int, phase: int) -> list:
        argv = ["train", "--data", data, "--out", out, "--noise", self.w.noise,
                "--epochs-phase1", 1, "--epochs-phase2", phase - 1,
                "--steps-per-epoch", steps, "--seed", seed]
        if phase == 2:
            argv += ["--resume", out / "checkpoints" / "phase1_epoch000.ckpt"]
        return argv

    def setup(self) -> None:
        """Data for the warm-up, and a phase-1 run: the warm-up steps, and the
        checkpoint that phase-2 rounds resume from. The warm-up data is one
        train and one val clip: a larger set only added disk time, which
        varies from run to run, to ``setup_s``. A ``workdir`` left by a run
        that did not end is removed first."""
        self.cleanup()
        self.workdir.mkdir(parents=True)
        self.gen_config.write_text(json.dumps({
            "train_clips": self.w.train_clips, "val_clips": self.w.val_clips,
            "clip_len": self.w.clip_len, "pool_images": self.w.pool_images}))
        data = self.workdir / "setup" / "data"
        self.cli(["gen-data", "--out", data, "--config", self.gen_config, "--seed", self.seed,
                  "--clips", 1, "--val-clips", 1])
        self.cli(self.train_argv(data, self.setup_run, SETUP_STEPS, self.seed, phase=1))

    # -- rounds ----------------------------------------------------------------

    def round(self, seed: int) -> dict:
        """One pipeline round; returns the wall time of each stage."""
        data, run = self.round_dir / "data", self.round_dir / "run"
        t = {"gen_data": self.stage("gen_data", ["gen-data", "--out", data, "--config",
                                                 self.gen_config, "--seed", seed])}
        if self.w.phase == 2:
            shutil.copytree(self.setup_run, run)
        t["train"] = self.stage("train", self.train_argv(data, run, self.w.steps, seed,
                                                         self.w.phase))
        ckpt = run / "checkpoints" / f"phase{self.w.phase}_epoch000.ckpt"
        t["eval"] = self.stage("eval", ["eval", "--data", data, "--ckpt", ckpt,
                                        "--out", self.round_dir / "eval", "--seed", seed])
        t["eval_corrupt"] = self.stage(
            "eval_corrupt", ["eval", "--data", data, "--ckpt", ckpt,
                             "--out", self.round_dir / "eval_corrupt", "--corrupt", "both",
                             "--dump-predictions", "--seed", seed])
        return t

    def run_rounds(self, seconds: float) -> list:
        """Whole rounds until ``seconds`` have passed, each checked; returns
        the stage times of the rounds that completed."""
        times = []
        start = time.perf_counter()
        while True:
            seed = round_seed(self.seed, self.rounds)
            self.rounds += 1
            self.attempted += self.w.ops_per_round
            shutil.rmtree(self.round_dir, ignore_errors=True)
            since_ns = time.time_ns() - FRESH_MARGIN_NS
            try:
                times.append(self.round(seed))
            except Exception:  # a failed round counts its operations as failed
                traceback.print_exc(file=sys.stderr)
                self.failed += self.w.ops_per_round
            else:
                try:
                    self.check_round(seed, since_ns)
                except checks.CheckFailed as exc:
                    self.errors.append(f"round {self.rounds - 1}: {exc}")
            if time.perf_counter() - start >= seconds:
                return times

    def cleanup(self) -> None:
        """Remove ``workdir`` and wait until the removal is on disk, so that
        the next run's set-up does not pay for it."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        if self.workdir.parent.exists():
            fd = os.open(self.workdir.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    # -- checks ----------------------------------------------------------------

    def check_round(self, seed: int, since_ns: int) -> None:
        """The checks of every round; every output they read must have been
        written after ``since_ns``, the round's start."""
        rd, w = self.round_dir, self.w
        ckpt = rd / "run" / "checkpoints" / f"phase{w.phase}_epoch000.ckpt"
        checks.check_fresh([*(p for d in ("data", "eval", "eval_corrupt")
                              for p in (rd / d).rglob("*") if p.is_file()),
                            rd / "run" / "model.json", ckpt], since_ns)
        checks.check_generated_data(rd / "data", w.train_clips, w.val_clips, w.clip_len)
        checks.check_eval(rd / "data", rd / "eval_corrupt" / "predictions",
                          rd / "eval_corrupt" / "report.csv", rd / "eval" / "report.csv",
                          classes=CLASSES, val_clips=w.val_clips, clip_len=w.clip_len,
                          seq_len=SEQ_LEN)
        if w.phase == 1:
            initial = SegNet(self.model_config(), seed=train.derived_seed(seed, 100),
                             mode="phase1")
            trained = checks.read_checkpoint(ckpt)
            checks.check_phase1_params(trained, {k: p.data for k, p in initial.params().items()})

    def model_config(self) -> ModelConfig:
        return ModelConfig.from_dict(
            json.loads((self.round_dir / "run" / "model.json").read_text()))

    def load_net(self, dtype, mode: str) -> SegNet:
        """The last round's checkpoint, read by the benchmark's own reader."""
        arrays = checks.read_checkpoint(
            self.round_dir / "run" / "checkpoints" / f"{mode}_epoch000.ckpt")
        net = SegNet(self.model_config(), dtype=dtype, mode=mode)
        for name, p in net.params().items():
            p.data = np.array(arrays[name], dtype=dtype)
        net.load_buffers({name: arrays[name] for name in net.buffers()})
        return net

    def val_sequences(self, count: int) -> tuple:
        """The first ``count`` targets of val clip 0: [count, T, 3, H, W] and [count, H, W]."""
        clip = self.round_dir / "data" / "val" / "clip_0000"
        frames = np.stack([checks.read_pnm(clip / f"frame_{t:03d}.ppm").transpose(2, 0, 1)
                           for t in range(SEQ_LEN - 1 + count)]).astype(np.float32) / 255.0
        seqs = np.stack([frames[i:i + SEQ_LEN] for i in range(count)])
        labels = np.stack([checks.read_pnm(clip / f"label_{t:03d}.pgm")
                           for t in range(SEQ_LEN - 1, SEQ_LEN - 1 + count)]).astype(np.int64)
        return seqs, labels

    def final_checks(self) -> None:
        """The checks too slow for every round, on the last round's outputs."""
        rng = np.random.default_rng(self.seed)
        if self.w.noise != "none":
            checks.check_noise_counts(self.noise_counts, NOISE_P, NOISE_CAP, SEQ_LEN)
        if self.name == "train-phase2-noisy":
            net = self.load_net(np.float64, "phase2")
            seqs, labels = self.val_sequences(1)
            seqs = seqs.astype(np.float64)
            params = net.params()
            picks = {}
            for name in GRAD_PARAMS:
                k = GRAD_PICKS_CONVLSTM if name.startswith("convlstm.") else GRAD_PICKS_OTHER
                picks[name] = rng.choice(params[name].size, size=k, replace=False)
            checks.check_gradients(*checks.sampled_gradients(net, seqs, labels, picks))

            flat = seqs.reshape((-1,) + seqs.shape[2:])
            z = net.extract(Tensor(flat), SEQ_LEN, training=False).data
            zs = [np.ascontiguousarray(z[t::SEQ_LEN]) for t in range(SEQ_LEN)]
            program_h = encode_sequence(net.cell, [Tensor(z) for z in zs]).data
            cell = {k[len("convlstm."):]: v.data for k, v in params.items()
                    if k.startswith("convlstm.")}
            checks.check_convlstm(program_h, checks.naive_convlstm(cell, zs))
        if self.w.phase == 1:
            seqs, _ = self.val_sequences(2)
            checks.check_phase1_bypass(self.load_net(np.float32, "phase1").predict, seqs, rng)

    @contextlib.contextmanager
    def noise_probe(self):
        """Count the replaced context frames of every training sequence by
        comparing frames before and after the program's ``apply_noise``."""
        if self.w.noise == "none":
            yield
            return
        original = train.apply_noise

        def probed(sample, policy, rng):
            out, mask = original(sample, policy, rng)
            self.noise_counts.append(checks.count_replaced(sample.frames, out.frames))
            return out, mask

        train.apply_noise = probed
        try:
            yield
        finally:
            train.apply_noise = original


def stage_rates(w: Workload, times: list) -> dict:
    """Per round, work done over its stage's wall time; median over rounds.
    The gen-data rate is a per-layer metric only (see README.md)."""
    def median_rate(count: int, stage: str) -> float:
        return statistics.median(count / t[stage] for t in times)

    return {
        "train_samples_per_s": median_rate(w.steps * SEQUENCES_PER_STEP, "train"),
        "eval_targets_per_s": median_rate(w.targets, "eval"),
        "corrupt_eval_targets_per_s": median_rate(w.targets, "eval_corrupt"),
        "gen_clips_per_s": median_rate(w.clips, "gen_data"),
    }
