"""Run-configuration JSON: a validated loader plus default resolution.

Schema (all keys optional, unknown keys rejected):

    {
      "model": {"channel_plan": [16, 32, 64, 64], "ppm_bins": [1, 2, 3, 6],
                 "crop_h": 64, "crop_w": 64},
      "train": {"seq_len": 4, "n_sequences": 4, "epochs_phase1": 10,
                 "epochs_phase2": 10, "steps_per_epoch": 40, "base_lr": 1e-4,
                 "interval": 1, "seed": 0, "precision": "float32"},
      "noise": {"noise_kind": "unrelated_data", "p": 0.5, "cap": 2,
                 "reversal_p": 0.5}
    }

The "noise" section configures the replacement policy; its fields may
equivalently be given in "train" as noise_kind/noise_p/noise_cap/
reversal_p. The model's class count and input channels always come from
the dataset.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path
from typing import Optional

from .errors import DataError
from .network import ModelConfig
from .train import TrainConfig

MODEL_KEYS = ("channel_plan", "ppm_bins", "crop_h", "crop_w")
NOISE_KEY_MAP = {"noise_kind": "noise_kind", "p": "noise_p", "cap": "noise_cap",
                 "reversal_p": "reversal_p"}


def _read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return doc


def check_types(cls, doc: dict, section: str) -> None:
    """Each value must have the JSON type of its ``cls`` field: a bool is not
    an int, an int may stand for a float, a list of ints stands for a tuple,
    and null only for an Optional field. Keys that are not fields of ``cls``
    are left to the caller."""
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        if key not in hints:
            continue
        want = hints[key]
        optional = type(None) in typing.get_args(want)
        if optional:
            want = next(a for a in typing.get_args(want) if a is not type(None))
            if value is None:
                continue
        if want is tuple:
            if isinstance(value, list) and all(_is_type(v, int) for v in value):
                continue
        elif _is_type(value, want):
            continue
        raise DataError(f"{section} config {key!r} must be {'null or ' if optional else ''}"
                        f"{'a list of int' if want is tuple else want.__name__}, "
                        f"got {value!r}")


def _is_type(value, want: type) -> bool:
    accepted = (int, float) if want is float else want
    return isinstance(value, accepted) and (want is bool or not isinstance(value, bool))


def load_run_config(path: Optional[str], data_cfg, overrides: Optional[dict] = None):
    """Resolve (ModelConfig, TrainConfig) from file + CLI overrides + dataset."""
    doc = _read_json(path) if path else {}
    unknown = set(doc) - {"model", "train", "noise"}
    if unknown:
        raise DataError(f"unknown config sections: {sorted(unknown)}")

    model_doc = dict(doc.get("model", {}))
    bad = set(model_doc) - set(MODEL_KEYS)
    if bad:
        raise DataError(f"unknown model config keys: {sorted(bad)}")
    train_doc = dict(doc.get("train", {}))
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    bad = set(train_doc) - train_fields
    if bad:
        raise DataError(f"unknown train config keys: {sorted(bad)}")
    noise_doc = dict(doc.get("noise", {}))
    bad = set(noise_doc) - set(NOISE_KEY_MAP)
    if bad:
        raise DataError(f"unknown noise config keys: {sorted(bad)}")
    for key, value in noise_doc.items():
        train_doc[NOISE_KEY_MAP[key]] = value

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in MODEL_KEYS:
            model_doc[key] = value
        elif key in train_fields:
            train_doc[key] = value
        else:
            raise DataError(f"unknown config override {key!r}")

    check_types(ModelConfig, model_doc, "model")
    model_cfg = ModelConfig(
        channel_plan=tuple(model_doc.get("channel_plan", ModelConfig.channel_plan)),
        classes=data_cfg.classes,
        ppm_bins=tuple(model_doc.get("ppm_bins", ModelConfig.ppm_bins)),
        crop_h=int(model_doc.get("crop_h", data_cfg.height)),
        crop_w=int(model_doc.get("crop_w", data_cfg.width)),
    )
    try:
        model_cfg.validate()
    except ValueError as exc:
        raise DataError(f"invalid model config: {exc}") from exc

    check_types(TrainConfig, train_doc, "train")
    train_cfg = TrainConfig(**train_doc)
    train_cfg.validate()
    return model_cfg, train_cfg


def gen_config_from(path: Optional[str], overrides: Optional[dict] = None):
    """GenConfig from an optional JSON file plus CLI overrides."""
    from .data import GenConfig

    doc = _read_json(path) if path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    return GenConfig.from_dict(doc)
