"""CLI surface: subcommands, exit codes, manifests, and artifact layout.
All invocations run in-process through main()."""

import builtins
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from seqseg import checkpoint as ckptmod
from seqseg import imgio, ops
from seqseg.cli import main
from seqseg.config import TrainConfig, load_model_json, save_model_json
from seqseg.data import load_dataset
from seqseg.metrics import evaluate
from seqseg.network import SegNet


def tree_bytes(root: Path, skip=("manifest.json",)) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


@pytest.fixture(scope="module")
def gen_args(tmp_path_factory):
    cfg = {"height": 28, "width": 28, "clip_len": 8, "train_clips": 2,
           "val_clips": 1, "pool_images": 3, "seed": 21}
    cfg_path = tmp_path_factory.mktemp("cfg") / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, gen_args):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert main(["gen-data", "--out", str(out), "--config", str(gen_args)]) == 0
    return out


TRAIN_CFG = {
    "model": {"channel_plan": [4, 6, 8, 8], "crop_h": 28, "crop_w": 28},
    "train": {"n_sequences": 2, "epochs_phase1": 1, "epochs_phase2": 1,
              "steps_per_epoch": 2, "seed": 13},
}


@pytest.fixture(scope="module")
def run_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(TRAIN_CFG))
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir, run_cfg_path):
    out = tmp_path_factory.mktemp("run") / "train"
    code = main(["train", "--data", str(dataset_dir), "--out", str(out),
                 "--config", str(run_cfg_path)])
    assert code == 0
    return out


class TestGenData:
    def test_writes_expected_clip_counts(self, dataset_dir):
        assert len(list((dataset_dir / "train").iterdir())) == 2
        assert len(list((dataset_dir / "val").iterdir())) == 1
        assert len(list((dataset_dir / "noise_pool").glob("*.ppm"))) == 3
        assert (dataset_dir / "meta.json").exists()

    def test_manifest_written_and_completed(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["status"] == "completed"
        assert manifest["tool_version"]

    def test_same_seed_byte_identical_trees(self, tmp_path, gen_args):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(a), "--config", str(gen_args)]) == 0
        assert main(["gen-data", "--out", str(b), "--config", str(gen_args)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_clip_count_override(self, tmp_path, gen_args):
        out = tmp_path / "c"
        assert main(["gen-data", "--out", str(out), "--config", str(gen_args),
                     "--clips", "1"]) == 0
        assert len(list((out / "train").iterdir())) == 1

    def test_refuses_nonempty_dir_without_force(self, tmp_path, gen_args):
        out = tmp_path / "d"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["gen-data", "--out", str(out), "--config", str(gen_args)]) == 2
        assert main(["gen-data", "--out", str(out), "--config", str(gen_args),
                     "--force"]) == 0

    def test_force_replaces_the_previous_dataset(self, tmp_path, gen_args):
        # a smaller dataset over a larger one: none of the old clips or pool
        # images stay, and files that are not part of a dataset are kept
        out = tmp_path / "e"
        assert main(["gen-data", "--out", str(out), "--config", str(gen_args),
                     "--clips", "4", "--val-clips", "2"]) == 0
        (out / "noise_pool" / "img_0099.ppm").write_bytes(b"stale")
        (out / "notes.txt").write_text("x")
        assert main(["gen-data", "--out", str(out), "--config", str(gen_args),
                     "--clips", "2", "--val-clips", "1", "--force"]) == 0
        ds = load_dataset(out)
        assert len(ds.train) == 2 and len(ds.val) == 1
        assert sorted(p.name for p in (out / "train").iterdir()) == ["clip_0000", "clip_0001"]
        assert len(list((out / "noise_pool").iterdir())) == 3
        assert (out / "notes.txt").read_text() == "x"


class TestRunConfig:
    def test_noise_section_configures_policy(self, tmp_path, dataset_dir):
        cfg = json.loads(json.dumps(TRAIN_CFG))
        cfg["train"].update({"noise_kind": "random_tensor", "noise_p": 1.0, "noise_cap": 1,
                             "reversal_p": 0.0})
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                     "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = manifest["config"]["resolved_train"]
        assert resolved["noise_kind"] == "random_tensor"
        assert resolved["noise_p"] == 1.0
        assert resolved["noise_cap"] == 1
        # cap 1 -> every step replaces exactly one context frame
        log = (out / "log.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[4] == "1.0000" for row in log)

    def test_unknown_section_rejected(self, tmp_path, dataset_dir):
        # "noise" once spelled the train section's noise_kind, noise_p,
        # noise_cap and reversal_p a second way; a section must be an object
        for section in ({"optimizer": {}}, {"noise": {"noise_kind": "random_tensor"}},
                        {"train": 5}, {"model": [["crop_h", 28]]}):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(section))
            assert main(["train", "--data", str(dataset_dir), "--out",
                         str(tmp_path / "o"), "--config", str(path)]) == 2
            assert not (tmp_path / "o" / "checkpoints").exists()


class TestTrain:
    def test_artifacts_exist(self, trained_dir):
        assert (trained_dir / "log.csv").exists()
        assert (trained_dir / "model.json").exists()
        assert (trained_dir / "training_state.json").exists()
        ckpts = sorted((trained_dir / "checkpoints").glob("*.ckpt"))
        assert [c.name for c in ckpts] == ["phase1_epoch000.ckpt", "phase2_epoch000.ckpt"]
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["config"]["resolved_train"]["seq_len"] == 4

    def test_noise_choice_changes_checkpoints(self, tmp_path, dataset_dir, run_cfg_path):
        outs = {}
        for noise in ("none", "unrelated_data"):
            out = tmp_path / noise
            assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                         "--config", str(run_cfg_path), "--noise", noise]) == 0
            outs[noise] = (out / "checkpoints" / "phase2_epoch000.ckpt").read_bytes()
        assert outs["none"] != outs["unrelated_data"]

    def test_resume_reproduces_full_run(self, tmp_path, dataset_dir, run_cfg_path):
        full = tmp_path / "full"
        assert main(["train", "--data", str(dataset_dir), "--out", str(full),
                     "--config", str(run_cfg_path), "--epochs-phase2", "2"]) == 0
        part = tmp_path / "part"
        assert main(["train", "--data", str(dataset_dir), "--out", str(part),
                     "--config", str(run_cfg_path), "--epochs-phase2", "1"]) == 0
        resume_ckpt = part / "checkpoints" / "phase2_epoch000.ckpt"
        assert main(["train", "--data", str(dataset_dir), "--out", str(part),
                     "--config", str(run_cfg_path), "--epochs-phase2", "2",
                     "--resume", str(resume_ckpt)]) == 0
        a = (full / "checkpoints" / "phase2_epoch001.ckpt").read_bytes()
        b = (part / "checkpoints" / "phase2_epoch001.ckpt").read_bytes()
        assert a == b

    def test_interrupted_model_json_write_keeps_previous_file(self, tmp_path, dataset_dir,
                                                              trained_dir, run_cfg_path,
                                                              monkeypatch):
        # a resume rewrites model.json; let that write fail half way, as on a full disk
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        before = (run / "model.json").read_bytes()
        real_open = builtins.open

        class HalfWritten:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[:len(text) // 2])
                self.f.flush()
                raise OSError(28, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if (isinstance(file, (str, os.PathLike)) and "w" in mode
                    and Path(file).name.startswith("model.json")):
                return HalfWritten(f)
            return f

        monkeypatch.setattr(builtins, "open", failing_open)
        monkeypatch.setattr(io, "open", failing_open)
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--config", str(run_cfg_path), "--epochs-phase2", "2",
                     "--resume", str(run / "checkpoints" / "phase2_epoch000.ckpt")]) == 2
        monkeypatch.undo()
        assert (run / "model.json").read_bytes() == before
        assert sorted(p.name for p in run.iterdir() if p.name.startswith("model.json")) == [
            "model.json"]

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "out")]) == 2


class TestEval:
    def test_report_and_exit_code(self, tmp_path, dataset_dir, trained_dir):
        ckpt = trained_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "class_id,iou"
        assert lines[-1].startswith("mean,")

    def test_corrupt_adds_degradation_columns(self, tmp_path, dataset_dir, trained_dir):
        ckpt = trained_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out), "--corrupt", "gaussian_blur",
                     "--frames", "1,3"]) == 0
        header = (out / "report.csv").read_text().splitlines()[0]
        assert "degradation" in header and "corrupted_miou" in header

    def test_dump_prediction_count(self, tmp_path, dataset_dir, trained_dir):
        ckpt = trained_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out), "--dump-predictions"]) == 0
        preds = list((out / "predictions").glob("pred_*.pgm"))
        # 1 val clip of 8 frames, T=4, k=1 -> targets 3..7
        assert len(preds) == 5
        legend = (out / "predictions" / "classes.txt").read_text()
        assert "circle" in legend and legend.startswith("# pgm_value")

    def test_perfect_oracle_scores_one(self, tmp_path, dataset_dir, trained_dir,
                                       monkeypatch):
        # stub: the labels eval reads off each batch's logits are replayed
        # from the ground truth in the deterministic evaluation order
        from seqseg import metrics
        from seqseg.data import load_dataset, sample_sequence, valid_targets

        ds = load_dataset(dataset_dir)
        queue = [sample_sequence(ds.val, cid, t, 1, 4).target_label
                 for cid, t in valid_targets(ds.val, 1, 4)]

        def perfect_labels(logits):
            take = [queue.pop(0) for _ in range(logits.shape[0])]
            return np.stack(take).astype(np.int64)

        monkeypatch.setattr(metrics, "labels_of", perfect_labels)
        ckpt = trained_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[-1] == "mean,1.0000"

    def test_phase1_checkpoint_runs_in_phase1(self, tmp_path, dataset_dir, trained_dir):
        # the phase comes from the checkpoint name: a phase-1 model bypasses
        # the ConvLSTM, so corrupting context frames changes no prediction
        ckpt = trained_dir / "checkpoints" / "phase1_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out), "--corrupt", "gaussian_blur",
                     "--dump-predictions"]) == 0
        net = SegNet(load_model_json(trained_dir / "model.json")[0], mode="phase1")
        ckptmod.load_model(ckpt, net)
        evaluate(net, load_dataset(dataset_dir).val, seq_len=4, interval=1,
                 dump_dir=tmp_path / "direct")
        preds = sorted((out / "predictions").glob("pred_0*.pgm"))
        assert len(preds) == 5
        for p in preds:
            assert p.read_bytes() == (tmp_path / "direct" / p.name).read_bytes()
            corrupted = p.with_name(p.name.replace("pred_", "pred_corrupted_"))
            assert corrupted.read_bytes() == p.read_bytes()
        mean_row = (out / "report.csv").read_text().strip().splitlines()[-1]
        assert mean_row.endswith(",0.0000")

    def test_reads_only_the_val_split(self, tmp_path, dataset_dir, trained_dir):
        # a clip directory that load_dataset refuses as incomplete, in train/
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        (data / "train" / "clip_0000" / "frame_000.ppm").unlink()
        ckpt = trained_dir / "checkpoints" / "phase2_epoch000.ckpt"
        for name, source in (("want", dataset_dir), ("got", data)):
            assert main(["eval", "--data", str(source), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "got" / "report.csv").read_bytes()
                == (tmp_path / "want" / "report.csv").read_bytes())

    def test_unphased_checkpoint_name_is_data_error(self, tmp_path, dataset_dir,
                                                    trained_dir, capsys):
        ckpt = tmp_path / "checkpoints" / "final.ckpt"
        ckpt.parent.mkdir()
        shutil.copy(trained_dir / "checkpoints" / "phase2_epoch000.ckpt", ckpt)
        shutil.copy(trained_dir / "model.json", tmp_path / "model.json")
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 2
        assert "cannot tell the phase" in capsys.readouterr().err

    def test_model_config_flag_is_usage_error(self, tmp_path, dataset_dir, trained_dir):
        # the model always comes from the run's own model.json
        assert main(["eval", "--data", str(dataset_dir),
                     "--ckpt", str(trained_dir / "checkpoints" / "phase2_epoch000.ckpt"),
                     "--model-config", str(trained_dir / "model.json"),
                     "--out", str(tmp_path / "eval")]) == 1
        assert not (tmp_path / "eval").exists()

    def test_dimension_mismatch_names_sizes(self, tmp_path, dataset_dir, capsys):
        # a checkpoint built for 44x44 frames cannot evaluate 28x28 data
        from seqseg.network import ModelConfig

        big = SegNet(ModelConfig(channel_plan=(4, 6, 8, 8), classes=4,
                                 crop_h=44, crop_w=44), seed=0,
                     dtype=np.float32, mode="phase2")
        run = tmp_path / "bigrun"
        (run / "checkpoints").mkdir(parents=True)
        ckptmod.save_model(run / "checkpoints" / "model.ckpt", big)
        save_model_json(run / "model.json", big.cfg, TrainConfig())
        code = main(["eval", "--data", str(dataset_dir), "--ckpt",
                     str(run / "checkpoints" / "model.ckpt"),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "44x44" in err and "28x28" in err


@pytest.fixture(scope="module")
def sweep_geometry_dir(tmp_path_factory, dataset_dir):
    """A sweep whose one sub-run trains at seq_len 3, interval 2 in float64."""
    cfg = json.loads(json.dumps(TRAIN_CFG))
    cfg["train"].update({"seq_len": 3, "precision": "float64"})
    root = tmp_path_factory.mktemp("sweep_geometry")
    (root / "run.json").write_text(json.dumps(cfg))
    out = root / "sweep"
    assert main(["sweep", "--data", str(dataset_dir), "--out", str(out),
                 "--config", str(root / "run.json"), "--param", "interval",
                 "--values", "2", "--corrupt", "both", "--frames", "1"]) == 0
    return out / "interval_2" / "seed_0"


class TestScoringFollowsRun:
    """``eval`` scores a checkpoint with the run's T, interval and precision,
    so a sweep row and ``seqseg eval`` on that sub-run's checkpoint agree."""

    def test_sweep_report_equals_eval_report(self, tmp_path, dataset_dir,
                                             sweep_geometry_dir):
        ckpt = sweep_geometry_dir / "checkpoints" / "phase2_epoch000.ckpt"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "eval"), "--corrupt", "both",
                     "--frames", "1"]) == 0
        assert ((tmp_path / "eval" / "report.csv").read_bytes()
                == (sweep_geometry_dir / "report.csv").read_bytes())

    def test_eval_scores_the_targets_of_the_run_geometry(self, tmp_path, dataset_dir,
                                                          sweep_geometry_dir, capsys):
        ckpt = sweep_geometry_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out), "--dump-predictions"]) == 0
        # 1 val clip of 8 frames, T=3, k=2 -> targets 4..7
        assert sorted(p.name for p in (out / "predictions").glob("pred_*.pgm")) == [
            f"pred_0000_{t:03d}.pgm" for t in range(4, 8)]
        assert "over 4 targets" in capsys.readouterr().out
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["seq_len"], config["interval"], config["precision"]) == (
            3, 2, "float64")

    def test_float64_checkpoint_evaluates_in_float64(self, tmp_path, dataset_dir,
                                                     sweep_geometry_dir, monkeypatch):
        # eval runs the network as extract (frames -> features) and head
        # (per-step features -> logits); record both
        seen = []
        for name in ("extract", "head"):
            def recording(self, x, *args, _original=getattr(SegNet, name), _name=name,
                          **kwargs):
                out = _original(self, x, *args, **kwargs)
                seen.append((_name, x, args, kwargs, out.data))
                return out

            monkeypatch.setattr(SegNet, name, recording)
        ckpt = sweep_geometry_dir / "checkpoints" / "phase2_epoch000.ckpt"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 0
        monkeypatch.undo()
        net = SegNet(load_model_json(sweep_geometry_dir / "model.json")[0],
                     dtype=np.float64, mode="phase2")
        ckptmod.load_model(ckpt, net)
        assert {name for name, *_ in seen} == {"extract", "head"}
        for name, x, args, kwargs, out in seen:
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, getattr(net, name)(x, *args, **kwargs).data)

    def test_model_json_without_geometry_reads_as_defaults(self, tmp_path, dataset_dir,
                                                           trained_dir):
        # a model.json written before seq_len and interval were recorded
        doc = json.loads((trained_dir / "model.json").read_text())
        assert (doc.pop("seq_len"), doc.pop("interval")) == (4, 1)
        run = tmp_path / "run"
        shutil.copytree(trained_dir / "checkpoints", run / "checkpoints")
        (run / "model.json").write_text(json.dumps(doc))
        for root, out in ((trained_dir, "eval_recorded"), (run, "eval_unrecorded")):
            assert main(["eval", "--data", str(dataset_dir), "--ckpt",
                         str(root / "checkpoints" / "phase2_epoch000.ckpt"),
                         "--out", str(tmp_path / out), "--corrupt", "both",
                         "--dump-predictions"]) == 0
        assert (tree_bytes(tmp_path / "eval_recorded")
                == tree_bytes(tmp_path / "eval_unrecorded"))
        manifest = json.loads((tmp_path / "eval_unrecorded" / "manifest.json").read_text())
        config = manifest["config"]
        assert (config["seq_len"], config["interval"], config["precision"]) == (
            4, 1, "float32")

    def test_default_frames_follow_the_run_length(self, tmp_path, dataset_dir,
                                                  sweep_geometry_dir):
        # T=3: the odd context positions below T are just frame 1
        ckpt = sweep_geometry_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out), "--corrupt", "gaussian_blur"]) == 0
        mean_row = (out / "report.csv").read_text().splitlines()[-1].split(",")
        assert mean_row[2:4] == ["gaussian_blur", "1"]
        assert json.loads((out / "manifest.json").read_text())["config"]["frames"] == [1]

    def test_frame_outside_the_run_context_fails_before_scoring(self, tmp_path, dataset_dir,
                                                                sweep_geometry_dir, capsys):
        ckpt = sweep_geometry_dir / "checkpoints" / "phase2_epoch000.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(dataset_dir), "--ckpt", str(ckpt),
                     "--out", str(out), "--corrupt", "gaussian_blur", "--frames", "3",
                     "--dump-predictions"]) == 2
        assert "corruption index 3 outside context range 1..2" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
        assert not list(out.rglob("*.pgm"))

    @pytest.mark.parametrize("argv", [
        ["eval", "--seq-len", "3"], ["eval", "--interval", "2"], ["eval", "--batch", "2"],
        ["sweep", "--parallel", "2"],
    ], ids=["eval-seq-len", "eval-interval", "eval-batch", "sweep-parallel"])
    def test_options_the_run_decides_are_gone(self, tmp_path, dataset_dir, trained_dir,
                                              argv):
        common = {"eval": ["--data", str(dataset_dir), "--ckpt",
                           str(trained_dir / "checkpoints" / "phase2_epoch000.ckpt"),
                           "--out", str(tmp_path / "eval")],
                  "sweep": ["--data", str(dataset_dir), "--out", str(tmp_path / "sweep"),
                            "--param", "interval", "--values", "1"]}
        assert main(argv[:1] + common[argv[0]] + argv[1:]) == 1


class TestSweep:
    def test_interval_axis_rows(self, tmp_path, dataset_dir, run_cfg_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", str(dataset_dir), "--out", str(out),
                     "--config", str(run_cfg_path), "--param", "interval",
                     "--values", "1,2"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "param,value,seed,val_miou,status"
        assert len(lines) == 3
        assert all(line.endswith("ok") for line in lines[1:])

    def test_noise_probability_axis(self, tmp_path, dataset_dir, run_cfg_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", str(dataset_dir), "--out", str(out),
                     "--config", str(run_cfg_path), "--param", "noise_p",
                     "--values", "0,0.25,0.5,0.75,1.0", "--noise", "random_tensor"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 6
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["0.0", "0.25", "0.5", "0.75", "1.0"]

    def test_empty_values_usage_error(self, tmp_path, dataset_dir):
        assert main(["sweep", "--data", str(dataset_dir), "--out",
                     str(tmp_path / "s"), "--param", "interval",
                     "--values", ""]) == 1

    def test_failed_subrun_recorded_and_nonzero_exit(self, tmp_path, dataset_dir,
                                                     run_cfg_path):
        out = tmp_path / "sweep"
        # interval 9 needs 28 frames of history; clips have 6 -> sub-run fails
        code = main(["sweep", "--data", str(dataset_dir), "--out", str(out),
                     "--config", str(run_cfg_path), "--param", "interval",
                     "--values", "1,9"])
        assert code == 2
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        statuses = [r.split(",")[-1] for r in rows]
        assert sum(1 for s in statuses if s == "ok") == 1


class TestGradcheckCommand:
    def test_op_scope_passes(self, capsys):
        assert main(["gradcheck", "--scope", "op"]) == 0
        out = capsys.readouterr().out
        assert "all passed" in out

    def test_injected_bug_fails_with_nonzero_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(ops, "_d_tanh", lambda out: -(1.0 - out * out))
        assert main(["gradcheck", "--scope", "op"]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestResumeState:
    @pytest.mark.parametrize("edit", [
        lambda text, state: text[:len(text) // 2],
        lambda text, state: json.dumps({k: v for k, v in state.items()
                                        if k != "checkpoint_sha256"}),
        lambda text, state: json.dumps({**state, "phase_index": "1"}),
        lambda text, state: json.dumps([state]),
        lambda text, state: json.dumps({**state, "phase_index": 2}),
        lambda text, state: json.dumps({**state, "epochs_done_in_phase": -1}),
    ], ids=["truncated", "no-checkpoint-sha256", "phase-index-string", "not-object",
            "phase-index-2", "epochs-done-negative"])
    def test_bad_training_state_is_data_error(self, tmp_path, dataset_dir, trained_dir,
                                              run_cfg_path, capsys, edit):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        state_path = run / "training_state.json"
        text = state_path.read_text()
        state_path.write_text(edit(text, json.loads(text)))
        model_json = (run / "model.json").read_bytes()
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--config", str(run_cfg_path), "--epochs-phase2", "2", "--interval", "2",
                     "--resume", str(run / "checkpoints" / "phase2_epoch000.ckpt")]) == 2
        assert "cannot resume" in capsys.readouterr().err
        assert not (run / "checkpoints" / "phase2_epoch001.ckpt").exists()
        # the geometry eval reads is still the one the run trained with
        assert (run / "model.json").read_bytes() == model_json


class TestResumeRefusals:
    """A refused resume exits 2 and leaves every file of the run, its
    manifest.json included, as it was."""

    def _refused(self, run, dataset_dir, config, resume, extra, capsys):
        before = tree_bytes(run, skip=())
        assert "manifest.json" in before
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--config", str(config), "--epochs-phase2", "2",
                     "--resume", str(run / "checkpoints" / resume)] + extra) == 2
        assert tree_bytes(run, skip=()) == before
        return capsys.readouterr().err

    def test_other_geometry_is_refused(self, tmp_path, dataset_dir, trained_dir,
                                       run_cfg_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        cfg = json.loads(json.dumps(TRAIN_CFG))
        cfg["train"]["seq_len"] = 3
        (tmp_path / "t3.json").write_text(json.dumps(cfg))
        for config, extra in ((run_cfg_path, ["--interval", "2"]),
                              (tmp_path / "t3.json", [])):
            err = self._refused(run, dataset_dir, config, "phase2_epoch000.ckpt", extra,
                                capsys)
            assert "cannot resume" in err and "'seq_len': 4, 'interval': 1" in err

    def test_only_the_latest_checkpoint_resumes(self, tmp_path, dataset_dir, trained_dir,
                                                run_cfg_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_dir, run)
        err = self._refused(run, dataset_dir, run_cfg_path, "phase1_epoch000.ckpt", [],
                            capsys)
        assert ("cannot resume from phase1_epoch000.ckpt: only the run's latest "
                "checkpoint, phase2_epoch000.ckpt, can be resumed") in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["gen-data", "--no-such-flag"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_sweep_values_usage_error(self, tmp_path, dataset_dir):
        assert main(["sweep", "--data", str(dataset_dir), "--out", str(tmp_path),
                     "--param", "interval", "--values", "a,b"]) == 1

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_sweep_seeds_below_one_usage_error(self, tmp_path, dataset_dir, seeds):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(dataset_dir), "--out", str(out),
                     "--param", "interval", "--values", "1", "--seeds", seeds]) == 1
        assert not out.exists()

    def test_truncated_frame_is_data_error(self, tmp_path, dataset_dir, run_cfg_path):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        frame = data / "train" / "clip_0000" / "frame_000.ppm"
        frame.write_bytes(frame.read_bytes()[:100])
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--config", str(run_cfg_path)]) == 2

    @pytest.mark.parametrize("damage", ["extra-clip", "missing-clip", "small-frame",
                                        "small-label", "header-not-integer"])
    def test_dataset_unlike_its_meta_is_data_error(self, tmp_path, dataset_dir, run_cfg_path,
                                                   capsys, damage):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        clip = data / "train" / "clip_0001"
        if damage == "extra-clip":
            shutil.copytree(clip, clip.with_name("clip_0002"))
        elif damage == "missing-clip":
            shutil.rmtree(clip)
        elif damage == "small-frame":
            imgio.write_ppm(clip / "frame_003.ppm", np.zeros((16, 16, 3), np.uint8))
        elif damage == "small-label":
            imgio.write_pgm(clip / "label_003.pgm", np.zeros((16, 16), np.uint8))
        else:
            frame = clip / "frame_003.ppm"
            pixels = frame.read_bytes()[len(b"P6\n28 28\n255\n"):]
            frame.write_bytes(b"P6\n3x 28\n255\n" + pixels)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--config", str(run_cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_malformed_meta_is_data_error(self, tmp_path, dataset_dir, run_cfg_path):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        (data / "meta.json").write_text('{"config": ')
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--config", str(run_cfg_path)]) == 2

    @pytest.mark.parametrize("edit", [
        lambda meta: {},
        lambda meta: {"fps": meta["fps"]},
        lambda meta: {"config": [], "fps": meta["fps"]},
        lambda meta: [],
        lambda meta: {"config": meta["config"]},
        lambda meta: {"config": meta["config"], "fps": str(meta["fps"])},
    ], ids=["empty", "no-config", "config-not-object", "not-object", "no-fps", "fps-string"])
    def test_meta_without_config_or_fps_is_data_error(self, tmp_path, dataset_dir,
                                                       run_cfg_path, edit):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        meta = json.loads((data / "meta.json").read_text())
        (data / "meta.json").write_text(json.dumps(edit(meta)))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--config", str(run_cfg_path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("seq_len", "4"), ("seq_len", 4.0), ("seq_len", True), ("seq_len", None),
        ("base_lr", "1e-4"), ("base_lr", False), ("noise_kind", 3),
        ("noise_cap", 1.5),
        ("lr_drop_factor", 10.0),  # a removed option, now an unknown key
    ])
    def test_mistyped_train_value_is_data_error(self, tmp_path, dataset_dir, key, value):
        cfg = json.loads(json.dumps(TRAIN_CFG))
        cfg["train"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
                     "--config", str(path)]) == 2
        assert not (tmp_path / "run" / "checkpoints").exists()

    @pytest.mark.parametrize("cfg,flags", [
        ({"clip_len": "40"}, []), ({"height": 28.0}, []), ({"speed_max": "2.5"}, []),
        ({"seed": True}, []), ({}, ["--clips", "-3"]), ({"val_clips": -1}, []),
        ({"pool_images": -1}, []), ({"speed_min": 3.0, "speed_max": 1.0}, []),
    ], ids=["clip_len-string", "height-float", "speed_max-string", "seed-bool",
            "clips-flag-negative", "val_clips-negative", "pool_images-negative",
            "speed_min-above-max"])
    def test_mistyped_generator_value_is_data_error(self, tmp_path, cfg, flags):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen-data", "--out", str(tmp_path / "ds"), "--config",
                     str(path)] + flags) == 2
        assert not (tmp_path / "ds" / "meta.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("channel_plan", 5), ("channel_plan", [4, 6, 8, "8"]),
        ("channel_plan", [4, 6, 8, True]),
        ("ppm_bins", "1,2"), ("crop_h", "x"), ("crop_w", 28.0),
        ("channel_plan", [0, 6, 8, 8]), ("channel_plan", [4, 6, 8, -8]),
    ], ids=["channel_plan-int", "channel_plan-string-item", "channel_plan-bool-item",
            "ppm_bins-string", "crop_h-string", "crop_w-float", "channel_plan-zero-width",
            "channel_plan-negative-width"])
    def test_mistyped_model_value_is_data_error(self, tmp_path, dataset_dir, key, value):
        cfg = json.loads(json.dumps(TRAIN_CFG))
        cfg["model"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
                     "--config", str(path)]) == 2
        assert not (tmp_path / "run" / "checkpoints").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "channel_plan": 5},
        lambda doc: {**doc, "crop_h": "28"},
        lambda doc: {**doc, "seq_len": "3"},
        lambda doc: {**doc, "interval": 0},
        lambda doc: [doc],
        lambda doc: {**doc, "noise_kind": "none"},
        lambda doc: {k: v for k, v in doc.items() if k != "classes"},
    ], ids=["channel_plan-int", "crop_h-string", "seq_len-string", "interval-zero",
            "not-object", "unknown-key", "missing-key"])
    def test_bad_model_json_is_data_error(self, tmp_path, dataset_dir, trained_dir, edit):
        run = tmp_path / "run"
        shutil.copytree(trained_dir / "checkpoints", run / "checkpoints")
        doc = json.loads((trained_dir / "model.json").read_text())
        (run / "model.json").write_text(json.dumps(edit(doc)))
        assert main(["eval", "--data", str(dataset_dir), "--ckpt",
                     str(run / "checkpoints" / "phase2_epoch000.ckpt"),
                     "--out", str(tmp_path / "eval")]) == 2
