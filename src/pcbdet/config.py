"""Run configuration: a flat, commented key = value file.

Keys mirror the method's symbols (pi, delta, tau_max, alpha, restarts, phi)
so a run can be audited at a glance. Unknown keys are errors; every seed is
explicit, never wall-clock derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from pcbdet.attack import AttackConfig
from pcbdet.classifier import TrainConfig
from pcbdet.estimation import EstimationParams
from pcbdet.geometry import MIN_CLOUD_POINTS, SHAPE_NAMES, read_text

__all__ = ["DataConfig", "RunConfig", "load_config", "save_config", "default_config"]


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


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    estimation: EstimationParams = field(default_factory=EstimationParams)
    detect_seed: int = 5
    phi: float = 0.05
    out_dir: str = "runs/default"


# key -> (section attribute path, type)
_SCHEMA = {
    "classes": ("data.classes", int),
    "train_per_class": ("data.train_per_class", int),
    "test_per_class": ("data.test_per_class", int),
    "clean_per_class": ("data.clean_per_class", int),
    "reserve_per_class": ("data.reserve_per_class", int),
    "points_per_cloud": ("data.points_per_cloud", int),
    "data_seed": ("data.seed", int),
    "epochs": ("train.epochs", int),
    "batch_size": ("train.batch_size", int),
    "learning_rate": ("train.learning_rate", float),
    "train_seed": ("train.seed", int),
    "outlier_points": ("train.outlier_points", int),
    "outlier_radius": ("train.outlier_radius", float),
    "logit_scale": ("train.logit_scale", float),
    "attack_source": ("attack.source", int),
    "attack_target": ("attack.target", int),
    "poison_count": ("attack.poison_count", int),
    "pattern_points": ("attack.pattern_points", int),
    "pattern_radius": ("attack.pattern_radius", float),
    "attack_seed": ("attack.seed", int),
    "standoff": ("attack.standoff", float),
    "center_candidates": ("attack.candidates", int),
    "pi": ("estimation.pi", float),
    "delta": ("estimation.delta", float),
    "tau_max": ("estimation.tau_max", int),
    "alpha": ("estimation.alpha", float),
    "lambda0": ("estimation.lambda0", float),
    "restarts": ("estimation.n_restarts", int),
    "detect_seed": ("detect_seed", int),
    "phi": ("phi", float),
    "out_dir": ("out_dir", str),
}

_COMMENTS = {
    "classes": "dataset",
    "epochs": "training",
    "attack_source": "attack",
    "pi": "trigger estimation",
    "detect_seed": "detection inference",
}


def load_config(path) -> RunConfig:
    """Read a config file; every error names the file, and a line-level one
    (syntax, unknown key, unparsable value) also the 1-based line."""
    cfg = RunConfig()
    for lineno, raw in enumerate(read_text(path, "utf-8").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        attr_path, typ = _SCHEMA[key]
        try:
            parsed = typ(value)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad {typ.__name__} value {value!r}") from None
        if typ is float and not math.isfinite(parsed):
            raise ValueError(f"{path}: line {lineno}: non-finite value {value!r}")
        setattr(*_owner(cfg, attr_path), parsed)
    try:
        _revalidate(cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def _owner(cfg: RunConfig, attr_path: str):
    """(section object, attribute name) that a schema path points to."""
    *sections, name = attr_path.split(".")
    obj = cfg
    for section in sections:
        obj = getattr(obj, section)
    return obj, name


def _revalidate(cfg: RunConfig) -> None:
    # Dataclass validators only run in __post_init__; re-run them on the
    # mutated sections.
    cfg.data.__post_init__()
    cfg.train.__post_init__()
    cfg.attack.__post_init__()
    cfg.estimation.__post_init__()
    for key, value in (("attack_source", cfg.attack.source), ("attack_target", cfg.attack.target)):
        if not 0 <= value < cfg.data.classes:
            raise ValueError(f"{key} = {value} is not a class: need 0 <= {key} < classes = {cfg.data.classes}")
    if not 0.0 < cfg.phi < 1.0:
        raise ValueError("phi must be in (0, 1)")


def save_config(cfg: RunConfig, path) -> None:
    lines = []
    for key, (attr_path, _) in _SCHEMA.items():
        if key in _COMMENTS:
            if lines:
                lines.append("")
            lines.append(f"# {_COMMENTS[key]}")
        lines.append(f"{key} = {getattr(*_owner(cfg, attr_path))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def default_config() -> RunConfig:
    return RunConfig()
