"""Command-line entry point: gen-data, train, eval, sweep, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort (or a
failed gradient check). Every command writes a manifest into its output
directory before starting long work.
"""

from __future__ import annotations

import os

# Honor the thread cap before numpy initializes its BLAS thread pool.
_cap = os.environ.get("NOISY_LSTM_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

import argparse
import csv
import dataclasses
import datetime
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import checkpoint as ckpt
from . import config as cfgmod
from . import data as datamod
from . import gradcheck as gradmod
from . import metrics as metricsmod
from . import noise as noisemod
from . import train as trainmod
from .errors import DataError
from .network import SegNet
from .tensor import NonFiniteError, ShapeError


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Manifests


def _manifest_write(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True,
                                                      default=str) + "\n")


def _manifest_open(out_dir: Path, command: str, seed, config: dict, paths: dict) -> dict:
    payload = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "paths": {k: str(v) for k, v in paths.items()},
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "finished_at": None,
        "status": "running",
    }
    _manifest_write(out_dir, payload)
    return payload


def _manifest_close(out_dir: Path, payload: dict, status: str) -> None:
    payload["finished_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    payload["status"] = status
    _manifest_write(out_dir, payload)


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"output directory {out} is not empty (use --force to overwrite)")
    overrides = {"train_clips": args.clips, "val_clips": args.val_clips,
                 "seed": args.seed}
    doc = cfgmod.read_json(args.config) if args.config else {}
    doc.update((k, v) for k, v in overrides.items() if v is not None)
    gen_cfg = datamod.GenConfig.from_dict(doc)
    if args.force:
        # replace the dataset of an earlier run, so none of its clips stay
        for name in ("train", "val", "noise_pool"):
            if (out / name).exists():
                shutil.rmtree(out / name)
        (out / "meta.json").unlink(missing_ok=True)
    manifest = _manifest_open(out, "gen-data", gen_cfg.seed, dataclasses.asdict(gen_cfg),
                              {"out": out})
    try:
        dataset = datamod.generate_dataset(gen_cfg)
        datamod.save_dataset(dataset, out)
        pool_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=gen_cfg.seed, spawn_key=(7,)))
        noisemod.write_pool(out / "noise_pool", pool_rng, gen_cfg.pool_images,
                            gen_cfg.height, gen_cfg.width)
    except Exception:
        _manifest_close(out, manifest, "failed")
        raise
    _manifest_close(out, manifest, "completed")
    print(f"dataset written to {out}: {gen_cfg.train_clips} train + "
          f"{gen_cfg.val_clips} val clips, {gen_cfg.pool_images} pool images")
    return 0


# ---------------------------------------------------------------------------
# train


def _train_overrides(args) -> dict:
    return {
        "noise_kind": args.noise,
        "noise_p": args.noise_p,
        "interval": args.interval,
        "n_sequences": args.batch_n,
        "epochs_phase1": args.epochs_phase1,
        "epochs_phase2": args.epochs_phase2,
        "steps_per_epoch": args.steps_per_epoch,
        "seed": args.seed,
        "base_lr": args.lr,
        "crop_h": args.crop,
        "crop_w": args.crop,
    }


def _load_pool_if_needed(data_dir: Path, train_cfg) -> noisemod.NoisePool | None:
    if train_cfg.noise_kind != "unrelated_data":
        return None
    return noisemod.NoisePool.load_dir(data_dir / "noise_pool")


def _run_training(data_dir: Path, out_dir: Path, config_path, overrides: dict,
                  resume=None, on_start=None) -> dict:
    dataset = datamod.load_dataset(data_dir)
    model_cfg, train_cfg = cfgmod.load_run_config(config_path, dataset.cfg, overrides)
    pool = _load_pool_if_needed(data_dir, train_cfg)
    net = SegNet(model_cfg, seed=trainmod.derived_seed(train_cfg.seed, 100),
                 dtype=np.float32 if train_cfg.precision == "float32" else np.float64,
                 mode="phase1")
    result = trainmod.train(net, dataset, train_cfg, out_dir, noise_pool=pool,
                            resume_from=resume, on_start=on_start)
    return {"result": result, "model_cfg": model_cfg, "train_cfg": train_cfg,
            "dataset": dataset}


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    overrides = _train_overrides(args)
    manifest = {}

    def open_manifest():
        manifest.update(_manifest_open(
            out_dir, "train", args.seed,
            {"overrides": {k: v for k, v in overrides.items() if v is not None},
             "config_file": args.config},
            {"data": data_dir, "out": out_dir, "resume": args.resume}))

    # a resume writes its manifest only once train accepts it, so that a
    # refused resume leaves the run's manifest.json as it was
    if not args.resume:
        open_manifest()
    try:
        run = _run_training(data_dir, out_dir, args.config, overrides,
                            resume=args.resume, on_start=open_manifest if args.resume else None)
    except Exception:
        if manifest:
            _manifest_close(out_dir, manifest, "failed")
        raise
    manifest["config"]["resolved_train"] = dataclasses.asdict(run["train_cfg"])
    manifest["config"]["resolved_model"] = dataclasses.asdict(run["model_cfg"])
    _manifest_close(out_dir, manifest, "completed")
    print(f"training complete; final checkpoint {run['result'].final_checkpoint}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _score_checkpoint(ckpt_path: Path, dataset, *, corruption, frames, seed,
                      dump_dir=None):
    """Score a checkpoint as its run trained it, for ``eval`` and ``sweep``: the
    phase from its name, the dtype from its precision byte, seq_len and interval
    from model.json, and by default corrupted frames 1,3,.. below seq_len."""
    model_cfg, geometry = cfgmod.load_model_json(ckpt_path.parent.parent / "model.json")
    if frames is None:
        frames = tuple(range(1, geometry["seq_len"], 2))
    frame_h, frame_w = dataset.cfg.height, dataset.cfg.width
    if model_cfg.crop_h > frame_h or model_cfg.crop_w > frame_w:
        raise DataError(
            f"network was built for {model_cfg.crop_h}x{model_cfg.crop_w} frames but "
            f"the dataset provides {frame_h}x{frame_w}")
    net = SegNet(model_cfg, seed=0, mode=trainmod.checkpoint_mode(ckpt_path),
                 dtype=ckpt.checkpoint_dtype(ckpt_path))
    ckpt.load_model(ckpt_path, net)
    report = metricsmod.evaluate(net, dataset.val, **geometry, corruption=corruption,
                                 corrupted_frames=frames, corrupt_seed=seed,
                                 dump_dir=dump_dir)
    return report, {**geometry, "precision": net.dtype.name, "frames": list(frames)}


def _write_class_legend(path: Path, classes: int) -> None:
    """PGM pixel values -> class names/colors, for reading the dumps."""
    lines = ["# pgm_value\tclass\tapprox_rgb", "0\tbackground\ttextured"]
    for cid in range(1, classes):
        kind = datamod.SHAPE_KINDS[cid - 1]
        rgb = ",".join(f"{c:.2f}" for c in datamod.BASE_COLORS[kind])
        lines.append(f"{cid}\t{kind}\t{rgb}")
    lines.append(f"{datamod.IGNORE_INDEX}\tignore\t-")
    path.write_text("\n".join(lines) + "\n")


def _parse_frames(text: str) -> tuple:
    try:
        frames = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"--frames expects a comma-separated int list: {exc}")
    if not frames:
        raise UsageError("--frames given but empty")
    return frames


def cmd_eval(args) -> int:
    data_dir = Path(args.data)
    ckpt_path = Path(args.ckpt)
    out_dir = Path(args.out) if args.out else ckpt_path.parent.parent / "eval"
    frames = _parse_frames(args.frames) if args.frames else None
    manifest = _manifest_open(out_dir, "eval", args.seed,
                              {"corrupt": args.corrupt, "frames": frames},
                              {"data": data_dir, "ckpt": ckpt_path, "out": out_dir})
    try:
        dataset = datamod.load_dataset(data_dir, splits=("val",))
        dump_dir = (out_dir / "predictions") if args.dump_predictions else None
        report, resolved = _score_checkpoint(
            ckpt_path, dataset, corruption=args.corrupt, frames=frames, seed=args.seed,
            dump_dir=dump_dir)
        metricsmod.write_report_csv(out_dir / "report.csv", report)
        if dump_dir is not None:
            _write_class_legend(dump_dir / "classes.txt", dataset.cfg.classes)
    except Exception:
        _manifest_close(out_dir, manifest, "failed")
        raise
    manifest["config"].update(resolved)
    _manifest_close(out_dir, manifest, "completed")
    print(f"mIoU {100.0 * report.mean:.2f}% over {report.targets} targets")
    if report.corruption is not None:
        print(f"corrupted mIoU {100.0 * report.corrupted_mean:.2f}% "
              f"(degradation {100.0 * report.degradation:.2f} points)")
    return 0


# ---------------------------------------------------------------------------
# sweep


SWEEP_PARAMS = {
    "interval": ("interval", int),
    "noise_p": ("noise_p", float),
    "noise_kind": ("noise_kind", str),
    "batch_n": ("n_sequences", int),
}


def cmd_sweep(args) -> int:
    if args.param not in SWEEP_PARAMS:
        raise UsageError(f"unknown sweep parameter {args.param!r}")
    field_name, caster = SWEEP_PARAMS[args.param]
    values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise UsageError("--values must list at least one value")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    try:
        typed = [caster(v) for v in values]
    except ValueError as exc:
        raise UsageError(f"bad value for {args.param}: {exc}")

    out_dir = Path(args.out)
    frames = _parse_frames(args.frames) if args.frames else None
    base_overrides = _train_overrides(args)
    manifest = _manifest_open(out_dir, "sweep", args.seed,
                              {"param": args.param, "values": values,
                               "seeds": args.seeds, "corrupt": args.corrupt},
                              {"data": args.data, "out": out_dir})

    rows = []
    base_seed = args.seed if args.seed is not None else 0
    for value in typed:
        for seed in range(base_seed, base_seed + args.seeds):
            row = {"param": args.param, "value": value, "seed": seed, "val_miou": ""}
            run_dir = out_dir / f"{args.param}_{value}" / f"seed_{seed}"
            try:
                run = _run_training(Path(args.data), run_dir, args.config,
                                    {**base_overrides, field_name: value, "seed": seed})
                report, _ = _score_checkpoint(
                    run["result"].final_checkpoint, run["dataset"],
                    corruption=args.corrupt, frames=frames, seed=seed)
                metricsmod.write_report_csv(run_dir / "report.csv", report)
            except Exception as exc:  # sub-run failures are recorded, not fatal
                row["status"] = f"failed: {exc}"
            else:
                row.update({"val_miou": f"{report.mean:.4f}", "status": "ok"})
                if args.corrupt:
                    row.update({"clean_miou": f"{report.mean:.4f}",
                                "corrupted_miou": f"{report.corrupted_mean:.4f}",
                                "degradation": f"{report.degradation:.4f}"})
            rows.append(row)

    columns = ["param", "value", "seed", "val_miou", "status"]
    if args.corrupt:
        columns = ["param", "value", "seed", "val_miou", "clean_miou",
                   "corrupted_miou", "degradation", "status"]
    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    failures = [r for r in rows if r["status"] != "ok"]
    _manifest_close(out_dir, manifest, "completed" if not failures else "failed")
    print(f"sweep finished: {len(rows) - len(failures)}/{len(rows)} sub-runs ok; "
          f"results in {out_dir / 'sweep.csv'}")
    return 0 if not failures else 2


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    reports, ok, elapsed = gradmod.run_scope(args.scope, tolerance=args.tolerance,
                                             seed=args.seed or 0)
    for name, report in reports.items():
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name} (max relative error {report.max_rel_error:.3e}, "
              f"tolerance {report.tolerance:.0e})")
        if not report.passed:
            print("\n".join(report.lines()))
    print(f"gradcheck scope={args.scope}: {'all passed' if ok else 'FAILURES'} "
          f"in {elapsed:.1f}s")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> CliParser:
    parser = CliParser(prog="seqseg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic labeled-video dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--clips", type=int, help="training clip count override")
    p.add_argument("--val-clips", type=int, help="validation clip count override")
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run two-phase training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="run-config JSON (model/train sections)")
    p.add_argument("--resume", help="checkpoint to resume from")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out")
    p.add_argument("--corrupt", choices=noisemod.CORRUPTION_KINDS)
    p.add_argument("--frames", help="1-based context frames to corrupt, default 1,3,.. below T")
    p.add_argument("--dump-predictions", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="train+eval across one hyperparameter axis")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    p.add_argument("--values", required=True)
    p.add_argument("--seeds", type=int, default=1, help="paired seed replicates per value")
    p.add_argument("--corrupt", choices=noisemod.CORRUPTION_KINDS)
    p.add_argument("--frames")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", required=True, choices=("op", "cell", "full"))
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def _add_train_flags(p) -> None:
    p.add_argument("--noise", choices=noisemod.NOISE_KINDS, dest="noise")
    p.add_argument("--noise-p", type=float, dest="noise_p")
    p.add_argument("--interval", type=int)
    p.add_argument("--batch-n", type=int, dest="batch_n")
    p.add_argument("--epochs-phase1", type=int, dest="epochs_phase1")
    p.add_argument("--epochs-phase2", type=int, dest="epochs_phase2")
    p.add_argument("--steps-per-epoch", type=int, dest="steps_per_epoch")
    p.add_argument("--lr", type=float)
    p.add_argument("--crop", type=int)
    p.add_argument("--seed", type=int)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
