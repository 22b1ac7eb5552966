"""Experiment configuration: one JSON document with defaults and validation.

Sections: dataset (scene recipe), ac (conversion kernel and converter),
loss, train, eval, ablate.  Command-line flags override file values, and
everything has a default, so a bare command is already a runnable
experiment.  The dataset, ac, loss and train defaults are those of
SceneSpec, ACConfig, LossConfig and TrainConfig, so there is one set of
them, and each value is checked by the dataclass that uses it.  A section
holds its dataclass's fields as the dataclass stores them (the splitter as
its kind letter, a real value as a number), so it is built by keyword and
written back by asdict.  The ablate lists feed SWEEPS, the table of `epl
ablate`'s sweeps.  A single top-level seed feeds every component (see
seeding.py for the streams).
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, fields
from pathlib import Path

from . import model
from .datagen import SceneSpec
from .fields import ACConfig
from .losses import LossConfig


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values in an experiment config."""


def train_sections(cfg: model.TrainConfig) -> dict:
    """The seed, ac, loss and train sections of a config that build_train_config reads back."""
    train = asdict(cfg)
    return {"seed": train.pop("seed"), "ac": train.pop("ac"), "loss": train.pop("loss"),
            "train": train}


_TRAIN_DEFAULTS = train_sections(model.TrainConfig())

DEFAULTS: dict = {
    "seed": _TRAIN_DEFAULTS["seed"],
    "dataset": {k: v for k, v in asdict(SceneSpec()).items() if k != "seed"},
    "ac": _TRAIN_DEFAULTS["ac"],
    "loss": _TRAIN_DEFAULTS["loss"],
    "train": {**_TRAIN_DEFAULTS["train"], "val_fraction": 0.2},
    "eval": {"trimap_widths": [1, 3, 5, 10], "f_tolerances": [1, 3, 5, 10]},
    "ablate": {
        "mu_values": [2, 4, 10, 16, 20],
        "splitters": ["A", "B", "C"],
        "weights": [0.05, 0.1, 0.2, 0.25, 0.5],
        "kernel_sizes": [5, 7, 9],
    },
}


def merge(base: dict, override: dict, path: str = "") -> dict:
    """A copy of base with override laid over it; keys unknown to base are rejected."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a section, got {type(value).__name__}")
            out[key] = merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Merge DEFAULTS <- file <- overrides and validate the result."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = merge(cfg, loaded)
    if overrides:
        cfg = merge(cfg, overrides)
    validate_config(cfg)
    return cfg


#: epl ablate's sweeps: sweep -> (config section, key, ablate list of its values,
#: other keys of that section set for every value).  The weight sweep is the
#: line-loss protocol: the swept value is the line weight, with the point term off.
SWEEPS = {
    "mu": ("loss", "mu_exp", "mu_values", {}),
    "splitter": ("ac", "splitter", "splitters", {}),
    "kernel": ("ac", "kernel_size", "kernel_sizes", {}),
    "weight": ("loss", "lambda2", "weights", {"lambda1": 0.0}),
}


def sweep_train_config(cfg: dict, sweep: str, value) -> model.TrainConfig:
    """The training config that `epl ablate --sweep sweep` trains for one value."""
    section, key, _, fixed = SWEEPS[sweep]
    return build_train_config({**cfg, section: {**cfg[section], **fixed, key: value}})


def validate_config(cfg: dict) -> None:
    """Reject invalid values early, each by the object that owns its rule."""
    tr, ev, ab = cfg["train"], cfg["eval"], cfg["ablate"]
    try:
        build_scene_spec(cfg)
        build_train_config(cfg)
        for sweep, (_, _, key, _) in SWEEPS.items():
            if not ab[key]:
                raise ValueError(f"ablate.{key} must be a nonempty list")
            for value in ab[key]:
                try:
                    sweep_train_config(cfg, sweep, value)
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ValueError(f"ablate.{key}: {exc}") from None
        vf = tr["val_fraction"]
        if type(vf) not in (int, float) or not 0.0 <= vf < 1.0:
            raise ValueError(f"train.val_fraction must be a number in [0, 1), got {vf!r}")
        if vf and vf != 1.0 / round(1.0 / vf):
            n = round(1.0 / vf)
            raise ValueError(f"train.val_fraction must be 0 or 1/n for an integer n >= 2 "
                             f"(every n-th sample validates), got {vf!r}; 1/{n} is {1.0 / n!r}")
        for name, least in (("trimap_widths", 1), ("f_tolerances", 0)):
            if not ev[name] or any(type(v) is not int or v < least for v in ev[name]):
                raise ValueError(f"eval.{name} must be a nonempty list of integers >= {least}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def build_scene_spec(cfg: dict) -> SceneSpec:
    """The dataset section and the seed as a scene recipe."""
    return SceneSpec(**cfg["dataset"], seed=cfg["seed"])


def _exactly(cls, section: dict):
    """cls built from a section of exactly its fields.

    KeyError names a missing field, TypeError a key that is no field.
    """
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(section) - set(names))
    if unknown:
        raise TypeError(f"holds {unknown[0]!r}, which {cls.__name__} does not have")
    return cls(**{name: section[name] for name in names})


def build_train_config(cfg: dict) -> model.TrainConfig:
    """The one reader of a training config: the seed, ac, loss and train sections.

    `epl train` and `epl ablate` pass the resolved experiment config, `epl
    loss` the config a checkpoint recorded (train_sections).  Each section
    goes to its dataclass as it is, which checks and stores its values.
    """
    tr = cfg["train"]
    return model.TrainConfig(
        **{key: tr[key] for key in ("epochs", "batch_size", "learning_rate", "momentum")},
        seed=cfg["seed"],
        loss=_exactly(LossConfig, cfg["loss"]),
        ac=_exactly(ACConfig, cfg["ac"]),
    )
