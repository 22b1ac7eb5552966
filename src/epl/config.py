"""Experiment configuration: one JSON document with defaults and validation.

Sections: dataset (scene recipe), ac (conversion kernel), loss, train,
eval, ablate.  Command-line flags override file values, and everything has
a default, so a bare command is already a runnable experiment.  The ac,
loss and train defaults are those of ACConfig, LossConfig and TrainConfig,
so there is one set of them.  A single top-level seed feeds every
component (see seeding.py for the streams).
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict
from pathlib import Path

from . import model
from .datagen import SCENE_KINDS, SceneSpec
from .fields import ACConfig, make_splitter
from .losses import LossConfig


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values in an experiment config."""


def train_sections(cfg: model.TrainConfig) -> dict:
    """The seed, ac, loss and train sections of a config that build_train_config reads back."""
    return {
        "seed": cfg.seed,
        "ac": {"kernel_size": cfg.ac.kernel_size, "splitter": cfg.ac.splitter.kind},
        "loss": asdict(cfg.loss),
        "train": {key: getattr(cfg, key)
                  for key in ("epochs", "batch_size", "learning_rate", "momentum")},
    }


_TRAIN_DEFAULTS = train_sections(model.TrainConfig())

DEFAULTS: dict = {
    "seed": _TRAIN_DEFAULTS["seed"],
    "dataset": {
        "kind": "mixed",  # mixed = adjacent_rects and touching_disks interleaved
        "height": 64,
        "width": 64,
        "classes": 3,
        "noise_sigma": 0.16,
        "intensities": None,
        "count": 200,
        "gap": 1,
    },
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

DATASET_KINDS = SCENE_KINDS + ("mixed",)


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = merge(cfg, loaded)
    if overrides:
        cfg = merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Reject invalid values early; builders below re-check the details."""
    ds = cfg["dataset"]
    if ds["kind"] not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {ds['kind']!r}")
    try:
        build_scene_spec(cfg, kind="adjacent_rects")  # representative validation
        build_train_config(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    tr = cfg["train"]
    if not 0.0 <= tr["val_fraction"] < 1.0:
        raise ConfigError(f"train.val_fraction must lie in [0, 1), got {tr['val_fraction']!r}")
    ev = cfg["eval"]
    for name in ("trimap_widths", "f_tolerances"):
        vals = ev[name]
        if not vals or any(int(v) < (1 if name == "trimap_widths" else 0) for v in vals):
            raise ConfigError(f"eval.{name} must be a nonempty list of valid widths")
    ab = cfg["ablate"]
    for mu in ab["mu_values"]:
        if int(mu) < 2 or int(mu) % 2:
            raise ConfigError(f"ablate.mu_values must be even integers >= 2, got {mu}")
    for s in ab["splitters"]:
        make_splitter(s)
    for w in ab["kernel_sizes"]:
        if int(w) < 3 or int(w) % 2 == 0:
            raise ConfigError(f"ablate.kernel_sizes must be odd integers >= 3, got {w}")


def build_scene_spec(cfg: dict, kind: str | None = None, seed: int | None = None,
                     count: int | None = None) -> SceneSpec:
    ds = cfg["dataset"]
    intensities = ds["intensities"]
    return SceneSpec(
        kind=kind if kind is not None else ds["kind"],
        height=int(ds["height"]),
        width=int(ds["width"]),
        classes=int(ds["classes"]),
        noise_sigma=float(ds["noise_sigma"]),
        intensities=None if intensities is None else tuple(float(v) for v in intensities),
        count=int(count if count is not None else ds["count"]),
        seed=int(seed if seed is not None else cfg["seed"]),
        gap=int(ds["gap"]),
    )


def build_train_config(cfg: dict, epl: bool = True, converter: str = "ac") -> model.TrainConfig:
    """The one reader of a training config: the seed, ac, loss and train sections.

    `epl train` and `epl ablate` pass the resolved experiment config, `epl
    loss` the config a checkpoint recorded (train_sections plus the
    converter).  epl=False zeroes both potential-loss weights.
    """
    ac, ls, tr = cfg["ac"], cfg["loss"], cfg["train"]
    return model.TrainConfig(
        epochs=int(tr["epochs"]),
        batch_size=int(tr["batch_size"]),
        learning_rate=float(tr["learning_rate"]),
        momentum=float(tr["momentum"]),
        seed=int(cfg["seed"]),
        loss=LossConfig(
            norm=str(ls["norm"]),
            reduction=str(ls["reduction"]),
            mu_exp=int(ls["mu_exp"]),
            lambda1=float(ls["lambda1"]) if epl else 0.0,
            lambda2=float(ls["lambda2"]) if epl else 0.0,
        ),
        ac=ACConfig(kernel_size=int(ac["kernel_size"]), splitter=make_splitter(ac["splitter"])),
        converter=converter,
    )
