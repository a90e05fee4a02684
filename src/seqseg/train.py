"""Two-phase training: cross-entropy + Adam with a halfway LR drop,
sequence-batch assembly with noise injection, per-epoch checkpoints, and
deterministic resumability (RNG streams are derived from (seed, phase,
epoch, step), so resuming from a checkpoint replays the identical run).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import ops
from .config import TrainConfig, load_model_json, save_model_json
from .data import IGNORE_INDEX, augment_sequence, sample_sequence, valid_targets
from .errors import DataError
from .noise import NoisePolicy, apply_noise
from .tensor import GradTape, NonFiniteError, backward, zero_grads


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: dict, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update in place; refuses non-finite gradients."""
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}", op=name)
        if name not in state.m:
            raise DataError(f"optimizer state missing parameter {name!r}")
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


LR_DROP_FACTOR = 10.0


def lr_schedule(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Step schedule: base LR, divided by LR_DROP_FACTOR from epoch ceil(total/2)."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    half = (total_epochs + 1) // 2
    return base_lr if epoch < half else base_lr / LR_DROP_FACTOR


# ---------------------------------------------------------------------------
# Batch assembly


def build_batch(clips: list, cfg: TrainConfig, policy: NoisePolicy,
                rng: np.random.Generator, crop_h: int, crop_w: int):
    """N uniform draws over valid (clip, target) pairs, each run through
    sample -> augment -> noise. Returns (samples, masks)."""
    pairs = valid_targets(clips, cfg.interval, cfg.seq_len)
    if not pairs:
        raise DataError(
            f"no valid targets: clips shorter than (T-1)*k + 1 = "
            f"{(cfg.seq_len - 1) * cfg.interval + 1}")
    samples = []
    masks = []
    for _ in range(cfg.n_sequences):
        cid, target = pairs[int(rng.integers(0, len(pairs)))]
        sample = sample_sequence(clips, cid, target, cfg.interval, cfg.seq_len)
        sample = augment_sequence(sample, rng, crop_h, crop_w)
        sample, mask = apply_noise(sample, policy, rng)
        samples.append(sample)
        masks.append(mask)
    return samples, masks


def stack_batch(samples: list):
    """[N samples] -> (seqs [N, T, 3, H, W] float32, labels [N, H, W] int64)."""
    seqs = np.stack([s.frames for s in samples]).astype(np.float32, copy=False)
    labels = np.stack([s.target_label for s in samples]).astype(np.int64)
    return seqs, labels


# ---------------------------------------------------------------------------
# Training loop


LOG_COLUMNS = ["epoch", "phase", "mean_loss", "lr", "replaced_frames_mean", "wall_seconds"]


@dataclass
class TrainResult:
    rows: list
    final_checkpoint: Path


def _step_rng(seed: int, phase_idx: int, epoch: int, step: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(phase_idx, epoch, step)))


def derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)).generate_state(1)[0])


def checkpoint_mode(path) -> str:
    """The network mode a checkpoint was saved in, read from the
    ``{mode}_epochNNN`` name that ``_save_state`` gives it."""
    mode, sep, epoch = Path(path).stem.partition("_epoch")
    if mode not in ("phase1", "phase2") or not sep or not epoch.isdigit():
        raise ckpt.CheckpointError(
            f"cannot tell the phase of checkpoint {path}: expected a name like "
            "phase1_epoch000.ckpt or phase2_epoch003.ckpt")
    return mode


def _save_state(out_dir: Path, net, optimizer: AdamState, phase_idx: int, epoch: int,
                name: str) -> Path:
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    path = ckpt_dir / f"{name}.ckpt"
    ckpt.save_model(path, net)
    opt_path = ckpt_dir / f"{name}.opt"
    opt_arrays = {"step": np.array([optimizer.step], dtype=net.dtype)}
    opt_arrays.update((f"m.{pname}", arr) for pname, arr in optimizer.m.items())
    opt_arrays.update((f"v.{pname}", arr) for pname, arr in optimizer.v.items())
    ckpt.save_arrays(opt_path, opt_arrays)
    state = {
        "phase_index": phase_idx,
        "epochs_done_in_phase": epoch + 1,
        "checkpoint": path.name,
        "checkpoint_sha256": ckpt.sha256_of(path),
        "optimizer": opt_path.name,
        "optimizer_sha256": ckpt.sha256_of(opt_path),
    }
    with ckpt.atomic_write(out_dir / "training_state.json", "w") as f:
        f.write(json.dumps(state, indent=2) + "\n")
    return path


def _load_optimizer(path, params: dict) -> AdamState:
    arrays = ckpt.load_arrays(path)
    state = AdamState.for_params(params)
    state.step = int(arrays["step"][0])
    for name, p in params.items():
        if f"m.{name}" not in arrays:
            raise ckpt.CheckpointError(
                f"optimizer sidecar {path} lacks state for {name!r}; "
                "resume config must match the original run")
        state.m[name] = arrays[f"m.{name}"].astype(p.data.dtype)
        state.v[name] = arrays[f"v.{name}"].astype(p.data.dtype)
    return state


# the training_state.json fields that resume reads, with their types
STATE_TYPES = {"phase_index": int, "epochs_done_in_phase": int, "checkpoint": str,
               "checkpoint_sha256": str, "optimizer": str, "optimizer_sha256": str}


def resume_position(out_dir: Path, resume_ckpt: Path) -> dict:
    """Validate the recorded training state against the checkpoint file."""
    state_path = out_dir / "training_state.json"
    if not state_path.exists():
        raise DataError(f"cannot resume: {state_path} missing")
    try:
        state = json.loads(state_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"cannot resume: {state_path} is not valid JSON: {exc}") from exc
    if not isinstance(state, dict) or not all(
            isinstance(state.get(k), t) for k, t in STATE_TYPES.items()):
        raise ckpt.CheckpointError(
            f"cannot resume: {state_path} is not a training state; it needs "
            + ", ".join(f"{k} ({t.__name__})" for k, t in STATE_TYPES.items()))
    if state["phase_index"] not in (0, 1) or state["epochs_done_in_phase"] < 1:
        raise ckpt.CheckpointError(
            f"cannot resume: {state_path} records no finished epoch of phase 1 or 2")
    if resume_ckpt.name != state["checkpoint"]:
        raise ckpt.CheckpointError(
            f"cannot resume from {resume_ckpt.name}: only the run's latest checkpoint, "
            f"{state['checkpoint']}, can be resumed")
    actual = ckpt.sha256_of(resume_ckpt)
    if actual != state["checkpoint_sha256"]:
        raise ckpt.CheckpointError(
            f"checksum mismatch for {resume_ckpt}: file sha256 {actual[:12]}... does not "
            f"match recorded {state['checkpoint_sha256'][:12]}...; refusing to resume")
    opt_path = resume_ckpt.parent / state["optimizer"]
    if ckpt.sha256_of(opt_path) != state["optimizer_sha256"]:
        raise ckpt.CheckpointError(f"checksum mismatch for optimizer sidecar {opt_path}")
    state["optimizer_path"] = opt_path
    return state


def train(net, dataset, cfg: TrainConfig, out_dir, noise_pool=None,
          resume_from=None, on_start=None) -> TrainResult:
    """Train the run's epochs from the start, or from ``resume_from``, the
    run's latest checkpoint. ``on_start`` is called before the run's files
    are first written, after a resume has passed its checks."""
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = NoisePolicy(kind=cfg.noise_kind, p=cfg.noise_p, cap=cfg.noise_cap,
                         reversal_p=cfg.reversal_p, pool=noise_pool)
    phase_epochs = (cfg.epochs_phase1, cfg.epochs_phase2)
    # the run's epochs in order; an index into it is the global epoch
    schedule = [(phase_idx, epoch) for phase_idx, count in enumerate(phase_epochs)
                for epoch in range(count)]

    start, final = 0, None
    if resume_from is not None:
        final = Path(resume_from)
        state = resume_position(out_dir, final)
        _, recorded = load_model_json(out_dir / "model.json")
        if recorded != {"seq_len": cfg.seq_len, "interval": cfg.interval}:
            raise DataError(f"cannot resume with seq_len {cfg.seq_len}, interval "
                            f"{cfg.interval}: the run's model.json records {recorded}")
        ckpt.load_model(final, net)
        done_phase = state["phase_index"]
        start = sum(phase_epochs[:done_phase]) + min(state["epochs_done_in_phase"],
                                                     phase_epochs[done_phase])
    # after the resume checks, so that a refused resume leaves the run's record alone
    if on_start is not None:
        on_start()
    save_model_json(out_dir / "model.json", net.cfg, cfg)

    log_path = out_dir / "log.csv"
    new_log = not (resume_from is not None and log_path.exists())
    log_file = open(log_path, "w" if new_log else "a", newline="", encoding="utf-8")
    log = csv.writer(log_file)
    if new_log:
        log.writerow(LOG_COLUMNS)

    rows = []
    try:
        for global_epoch in range(start, len(schedule)):
            phase_idx, epoch = schedule[global_epoch]
            phase_name = f"phase{phase_idx + 1}"
            net.set_mode(phase_name)
            # a phase starts with fresh Adam state, and phase 2 with a fresh ConvLSTM
            if epoch == 0 and phase_idx == 1:
                net.reinit_cell(derived_seed(cfg.seed, 101))
            params = net.trainable_params()
            if epoch == 0:
                optimizer = AdamState.for_params(params)
            elif global_epoch == start:
                optimizer = _load_optimizer(state["optimizer_path"], params)
            lr = lr_schedule(epoch, phase_epochs[phase_idx], cfg.base_lr)
            epoch_start = time.perf_counter()
            losses = []
            replaced = []
            for step in range(cfg.steps_per_epoch):
                rng = _step_rng(cfg.seed, phase_idx, epoch, step)
                samples, masks = build_batch(
                    dataset.train, cfg, policy, rng, net.cfg.crop_h, net.cfg.crop_w)
                seqs, labels = stack_batch(samples)
                replaced.extend(m.count for m in masks)
                with GradTape() as tape:
                    logits = net.forward(seqs, training=True)
                    loss = ops.softmax_ce_loss(logits, labels, ignore_index=IGNORE_INDEX)
                value = loss.item()
                if not np.isfinite(value):
                    raise NonFiniteError(
                        f"non-finite training loss at phase {phase_name} "
                        f"epoch {epoch} step {step}; last good checkpoint retained")
                backward(tape, loss)
                adam_step(params, optimizer, lr)
                zero_grads(params)
                losses.append(value)
            row = {
                "epoch": global_epoch,
                "phase": phase_name,
                "mean_loss": float(np.mean(losses)),
                "lr": lr,
                "replaced_frames_mean": float(np.mean(replaced)),
                "wall_seconds": time.perf_counter() - epoch_start,
            }
            rows.append(row)
            log.writerow([row["epoch"], row["phase"], f"{row['mean_loss']:.6f}",
                          f"{row['lr']:.2e}", f"{row['replaced_frames_mean']:.4f}",
                          f"{row['wall_seconds']:.3f}"])
            log_file.flush()
            final = _save_state(out_dir, net, optimizer, phase_idx, epoch,
                                f"{phase_name}_epoch{epoch:03d}")
    finally:
        log_file.close()
    return TrainResult(rows=rows, final_checkpoint=final)
