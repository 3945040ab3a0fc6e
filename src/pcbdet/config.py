"""Run configuration: a flat, commented key = value file.

Keys mirror the method's symbols (pi, delta, tau_max, alpha, restarts, phi)
so a run can be audited at a glance. Unknown and repeated keys are errors;
every seed is explicit, never wall-clock derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from pcbdet.attack import AttackConfig
from pcbdet.classifier import TrainConfig
from pcbdet.estimation import EstimationParams
from pcbdet.geometry import MIN_CLOUD_POINTS, SHAPE_NAMES, read_text

__all__ = ["DataConfig", "RunConfig", "SECTIONS", "load_config", "save_config", "default_config"]


@dataclass
class DataConfig:
    classes: int = 8
    train_per_class: int = 100
    test_per_class: int = 20
    clean_per_class: int = 10
    reserve_per_class: int = 10
    points_per_cloud: int = 256
    seed: int = 1

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.classes > len(SHAPE_NAMES):
            raise ValueError(f"classes = {self.classes}: gen-data has only {len(SHAPE_NAMES)} shape families")
        if min(self.train_per_class, self.test_per_class, self.clean_per_class, self.reserve_per_class) < 0:
            raise ValueError("per-class counts must be >= 0")
        if self.points_per_cloud < MIN_CLOUD_POINTS:
            raise ValueError(f"need at least {MIN_CLOUD_POINTS} points per cloud")
        if self.seed < 0:
            raise ValueError(f"data_seed = {self.seed} must be >= 0")


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    estimation: EstimationParams = field(default_factory=EstimationParams)
    detect_seed: int = 5
    phi: float = 0.05
    out_dir: str = "runs/default"

    def __post_init__(self):
        for key, value in (("attack_source", self.attack.source), ("attack_target", self.attack.target)):
            if not 0 <= value < self.data.classes:
                raise ValueError(f"{key} = {value} is not a class: need 0 <= {key} < classes = {self.data.classes}")
        if self.detect_seed < 0:
            raise ValueError(f"detect_seed = {self.detect_seed} must be >= 0")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must be in (0, 1)")
        if not self.out_dir.strip():
            raise ValueError(f"out_dir = {self.out_dir!r} names no directory")


# One row per file section, in file order: comment line, section dataclass,
# RunConfig attribute (None for RunConfig's own fields), key -> field.
SECTIONS = (
    ("dataset", DataConfig, "data", {
        "classes": "classes", "train_per_class": "train_per_class", "test_per_class": "test_per_class",
        "clean_per_class": "clean_per_class", "reserve_per_class": "reserve_per_class",
        "points_per_cloud": "points_per_cloud", "data_seed": "seed",
    }),
    ("training", TrainConfig, "train", {
        "epochs": "epochs", "batch_size": "batch_size", "learning_rate": "learning_rate", "train_seed": "seed",
    }),
    ("attack", AttackConfig, "attack", {
        "attack_source": "source", "attack_target": "target", "poison_count": "poison_count",
        "pattern_points": "pattern_points", "pattern_radius": "pattern_radius", "attack_seed": "seed",
        "standoff": "standoff",
    }),
    ("trigger estimation", EstimationParams, "estimation", {
        "pi": "pi", "delta": "delta", "tau_max": "tau_max", "alpha": "alpha", "lambda0": "lambda0",
        "restarts": "n_restarts",
    }),
    ("detection inference", RunConfig, None, {"detect_seed": "detect_seed", "phi": "phi", "out_dir": "out_dir"}),
)

# key -> (RunConfig attribute, field, value type read from the section dataclass)
_KEYS = {key: (attr, name, get_type_hints(cls)[name]) for _, cls, attr, keys in SECTIONS for key, name in keys.items()}


def load_config(path) -> RunConfig:
    """Read a config file; every error names the file, and a line-level one
    (syntax, unknown or repeated key, unparsable value) also the 1-based line."""
    given, lines = {attr: {} for _, _, attr, _ in SECTIONS}, {}
    for lineno, raw in enumerate(read_text(path, "utf-8").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"{path}: line {lineno}: repeated key {key!r}, first set at line {lines[key]}")
        attr, name, typ = _KEYS[key]
        try:
            parsed = typ(value)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad {typ.__name__} value {value!r}") from None
        if typ is float and not math.isfinite(parsed):
            raise ValueError(f"{path}: line {lineno}: non-finite value {value!r}")
        given[attr][name] = parsed
        lines[key] = lineno
    try:
        # Each section's own checks run as it is built, then RunConfig's.
        sections = {attr: cls(**given[attr]) for _, cls, attr, _ in SECTIONS if attr is not None}
        return RunConfig(**sections, **given[None])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(cfg: RunConfig, path) -> None:
    blocks = []
    for comment, _, attr, keys in SECTIONS:
        section = cfg if attr is None else getattr(cfg, attr)
        blocks.append("\n".join([f"# {comment}"] + [f"{key} = {getattr(section, name)}" for key, name in keys.items()]))
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def default_config() -> RunConfig:
    return RunConfig()
