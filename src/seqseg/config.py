"""Every settings file of the program, and the one rule that reads them.

``build(cls, doc, section)`` turns a JSON object into a ``cls`` config. A key
that is not a field of ``cls`` is refused; each value must have its field's
JSON type (a bool is not an int, an int may stand for a float, a list of ints
for a tuple, null only for an Optional field); lists become tuples, unset
fields keep their defaults, and the config's ``validate`` must pass. Every
refusal is a ``DataError`` (exit 2). The files read this way:

- the run config of ``train`` and ``sweep --config`` (``load_run_config``):
  an optional ``model`` section (the ``MODEL_KEYS``) and an optional
  ``train`` section (every ``TrainConfig`` field, the noise policy's
  included). CLI flags override both; the class count comes from the dataset;
- the generator config of ``gen-data --config`` and of a dataset's
  ``meta.json`` (``data.GenConfig.from_dict``);
- a run's ``model.json``: every ``ModelConfig`` field plus the run's
  ``seq_len`` and ``interval`` (``save_model_json``, ``load_model_json``).
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .checkpoint import atomic_write
from .errors import DataError

# the model keys a run config may set; the others come from the dataset
MODEL_KEYS = ("channel_plan", "ppm_bins", "crop_h", "crop_w")
# the run geometry that model.json records beside the model config
GEOMETRY_KEYS = ("seq_len", "interval")


@dataclass
class ModelConfig:
    frame_channels: int = 3
    channel_plan: tuple = (16, 32, 64, 64)
    classes: int = 4
    ppm_bins: tuple = (1, 2, 3, 6)
    crop_h: int = 64
    crop_w: int = 64

    @property
    def hidden_channels(self) -> int:
        return self.channel_plan[-1]

    @property
    def feature_h(self) -> int:
        return self.crop_h // 4

    @property
    def feature_w(self) -> int:
        return self.crop_w // 4

    def validate(self) -> None:
        if len(self.channel_plan) != 4 or min(self.channel_plan) < 1:
            raise DataError("channel_plan must list 4 block widths >= 1")
        if self.crop_h % 4 or self.crop_w % 4:
            raise DataError("crop dims must be divisible by 4 (two stride-2 blocks)")
        if self.hidden_channels % 4:
            raise DataError("last channel width must be divisible by 4 (pyramid paths)")
        if self.classes < 2:
            raise DataError("need at least 2 classes")
        if (not self.ppm_bins or min(self.ppm_bins) < 1
                or max(self.ppm_bins) > min(self.feature_h, self.feature_w)):
            raise DataError("ppm_bins must list bins from 1 to the feature-map size")

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        """The model config of a ``model.json`` object, which sets every field;
        its ``seq_len`` and ``interval`` are read by ``load_model_json``."""
        model = {k: v for k, v in doc.items() if k not in GEOMETRY_KEYS}
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in model]
        if missing:
            raise DataError(f"model.json lacks {missing}")
        return build(cls, model, "model.json")


@dataclass
class TrainConfig:
    seq_len: int = 4              # frames per sequence, target last
    n_sequences: int = 4          # sequences per batch
    epochs_phase1: int = 10
    epochs_phase2: int = 10
    steps_per_epoch: int = 40
    base_lr: float = 1e-4
    interval: int = 1
    noise_kind: str = "none"
    noise_p: float = 0.5
    noise_cap: Optional[int] = None
    reversal_p: float = 0.5
    seed: int = 0
    precision: str = "float32"

    def validate(self) -> None:
        if self.seq_len < 1 or self.n_sequences < 1:
            raise DataError("seq_len and n_sequences must be >= 1")
        if self.epochs_phase1 < 1 or self.epochs_phase2 < 0:
            raise DataError("need at least 1 epoch in phase 1")
        if self.steps_per_epoch < 1:
            raise DataError("steps_per_epoch must be >= 1")
        if self.interval < 1:
            raise DataError("interval must be >= 1")
        if self.precision not in ("float32", "float64"):
            raise DataError("precision must be float32 or float64")
        if self.base_lr <= 0:
            raise DataError("learning rate must be positive")


def read_json(path) -> dict:
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


def build(cls, doc: dict, section: str):
    """The ``cls`` config that the JSON object ``doc`` sets, by the rule in the
    module docstring; ``section`` names the source in error messages."""
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise DataError(f"unknown {section} keys: {sorted(unknown)}")
    values = {}
    for key, value in doc.items():
        want = hints[key]
        optional = type(None) in typing.get_args(want)
        if optional:
            want = next(a for a in typing.get_args(want) if a is not type(None))
        if want is tuple and isinstance(value, list) and all(_is_type(v, int) for v in value):
            value = tuple(value)
        elif not (optional and value is None) and (want is tuple or not _is_type(value, want)):
            raise DataError(f"{section} {key!r} must be {'null or ' if optional else ''}"
                            f"{'a list of int' if want is tuple else want.__name__}, "
                            f"got {value!r}")
        values[key] = value
    cfg = cls(**values)
    try:
        cfg.validate()
    except DataError as exc:
        raise DataError(f"{section}: {exc}") from None
    return cfg


def _is_type(value, want: type) -> bool:
    accepted = (int, float) if want is float else want
    return isinstance(value, accepted) and (want is bool or not isinstance(value, bool))


def load_run_config(path: Optional[str], data_cfg, overrides: Optional[dict] = None):
    """Resolve (ModelConfig, TrainConfig) from file + CLI overrides + dataset."""
    doc = read_json(path) if path else {}
    unknown = set(doc) - {"model", "train"}
    if unknown:
        raise DataError(f"unknown config sections: {sorted(unknown)}")
    for name in ("model", "train"):
        if not isinstance(doc.get(name, {}), dict):
            raise DataError(f"config section {name!r} must be a JSON object")
    model_doc = dict(doc.get("model", {}))
    bad = set(model_doc) - set(MODEL_KEYS)
    if bad:
        raise DataError(f"unknown model config keys: {sorted(bad)}")
    train_doc = dict(doc.get("train", {}))
    train_keys = {f.name for f in dataclasses.fields(TrainConfig)}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in MODEL_KEYS:
            model_doc[key] = value
        elif key in train_keys:
            train_doc[key] = value
        else:
            raise DataError(f"unknown config override {key!r}")

    model_cfg = build(ModelConfig, {"classes": data_cfg.classes, "crop_h": data_cfg.height,
                                    "crop_w": data_cfg.width, **model_doc}, "model config")
    return model_cfg, build(TrainConfig, train_doc, "train config")


def save_model_json(path, model_cfg: ModelConfig, train_cfg: TrainConfig) -> None:
    """Record the run's model config and geometry, through a temp file and a
    rename, so that a crashed write leaves the previous model.json."""
    doc = {**dataclasses.asdict(model_cfg),
           **{k: getattr(train_cfg, k) for k in GEOMETRY_KEYS}}
    with atomic_write(path, "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model_json(path) -> tuple:
    """(ModelConfig, {"seq_len": T, "interval": k}) from one read of a run's
    model.json; a file written before the geometry was recorded reads as
    TrainConfig's T=4, k=1."""
    doc = read_json(path)
    geometry = build(TrainConfig, {k: doc[k] for k in GEOMETRY_KEYS if k in doc},
                     "model.json")
    return ModelConfig.from_dict(doc), {k: getattr(geometry, k) for k in GEOMETRY_KEYS}
