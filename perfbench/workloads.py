"""The benchmark's two workloads as lists of `pcbdet` CLI stage calls.

Every repetition of a workload runs in a fresh directory: first the set-up
stages (config write, gen-data and, for detect-dense, the training of its
models), then the stages whose times are the workload's end-to-end metrics.
All seeds of the program are derived from the one workload seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

# Descent iterations per detect problem. The default (3000) makes one detect
# call take minutes; the cost of one iteration does not depend on it.
TAU_MAX = 50

SPLITS = ("train", "test", "clean", "reserve")


def derive_seed(seed: int, role: str) -> int:
    """Program seed for one role (data, train, attack, detect)."""
    digest = hashlib.sha256(f"pcbdet-bench/{seed}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 1_000_000


@dataclass
class Stage:
    """One in-process `pcbdet` CLI call and the files it must leave behind."""

    name: str  # unique within a repetition
    key: str  # calls with one key repeat one another and must digest the same
    argv: list
    timed: bool  # False: part of set-up
    outputs: list  # files digested after the call
    metric: str | None = None  # end-to-end metric this call's time feeds
    config: dict | None = None  # init-config only: key = value lines to override
    weights: list = field(default_factory=list)  # outputs that must reload as weights
    detect: tuple | None = None  # (out_dir, prefix) of a detect call's reports


@dataclass
class Round:
    """One repetition's stages, ending in `pairs` detect pairs, and the maker
    of further pairs (`pair(call)`: detect on the poisoned, then on the clean
    weights) that can run after them in the same directory."""

    stages: list
    pair: Callable[[int], list]
    pairs: int


def _common_overrides(seed: int) -> dict:
    return {
        "data_seed": derive_seed(seed, "data"),
        "train_seed": derive_seed(seed, "train"),
        "attack_seed": derive_seed(seed, "attack"),
        "detect_seed": derive_seed(seed, "detect"),
        "tau_max": TAU_MAX,
    }


def _config(name: str, path: Path, overrides: dict) -> Stage:
    return Stage(name, name, ["init-config", "--config", str(path)], False, [path], config=overrides)


def _gen_data(name: str, cfg: Path, out: Path) -> Stage:
    outputs = [out / f"{s}.txt" for s in SPLITS] + [out / "manifest.json"]
    return Stage(name, name, ["gen-data", "--config", str(cfg)], False, outputs)


def _train(cfg: Path, out: Path, timed: bool) -> Stage:
    weights = out / "clean.weights"
    return Stage(
        "train", "train", ["train", "--config", str(cfg)], timed,
        [weights, out / "train-metrics.json"], metric="train_s", weights=[weights],
    )


def _attack(cfg: Path, out: Path, timed: bool) -> Stage:
    weights = out / "poisoned.weights"
    return Stage(
        "attack", "attack", ["attack", "--config", str(cfg), "--weights", str(out / "clean.weights")], timed,
        [weights, out / "pattern.txt", out / "attack-metrics.json"], metric="attack_s", weights=[weights],
    )


def _detect(which: str, cfg: Path, out: Path, weights: Path, call: int) -> Stage:
    return Stage(
        f"detect-{which}-{call}",
        f"detect-{which}",
        ["detect", "--config", str(cfg), "--weights", str(weights), "--prefix", which],
        True,
        [out / f"{which}-{suffix}" for suffix in ("statistics.csv", "report.json", "histogram.svg")],
        metric=f"detect_{which}_s",
        detect=(out, which),
    )


def _round(stages: list, cfg: Path, out: Path, weights_dir: Path, pairs: int) -> Round:
    # Detect calls are cheap next to training, so a repetition makes several
    # pairs of them, spread over the run with the repetitions.
    def pair(call: int) -> list:
        return [
            _detect(which, cfg, out, weights_dir / f"{model}.weights", call)
            for which, model in (("attacked", "poisoned"), ("clean", "clean"))
        ]

    return Round([*stages, *(s for call in range(1, pairs + 1) for s in pair(call))], pair, pairs)


def protocol(seed: int, rep_dir: Path) -> Round:
    """One attack pair of the acceptance protocol at the default config."""
    cfg = rep_dir / "run.cfg"
    out = rep_dir / "run"
    return _round([
        _config("config", cfg, {**_common_overrides(seed), "out_dir": out}),
        _gen_data("gen-data", cfg, out),
        _train(cfg, out, timed=True),
        _attack(cfg, out, timed=True),
    ], cfg, out, out, pairs=2)


def detect_dense(seed: int, rep_dir: Path) -> Round:
    """Detect on 1024-point clouds with the minimum clean set per class.

    The models are trained in set-up on a reduced training split (40 clouds
    per class, 10 epochs, 6 poisoned clouds) of default-size 256-point
    clouds, and only the detection splits have 1024 points: the max-pooled
    network takes clouds of any size. Training on 1024-point clouds costs
    about six times as much per cloud, and the small 1024-point training runs
    tried left whole classes misclassified on some seeds, which aborts
    detection.
    """
    common = _common_overrides(seed)
    train_cfg, train_out = rep_dir / "train.cfg", rep_dir / "train"
    dense_cfg, dense_out = rep_dir / "dense.cfg", rep_dir / "dense"
    return _round([
        _config("config-train", train_cfg, {
            **common, "out_dir": train_out, "train_per_class": 40, "test_per_class": 5,
            "clean_per_class": 0, "reserve_per_class": 0, "epochs": 10, "poison_count": 6,
        }),
        _config("config-dense", dense_cfg, {
            **common, "out_dir": dense_out, "points_per_cloud": 1024, "train_per_class": 0,
            "test_per_class": 0, "clean_per_class": 5, "reserve_per_class": 10,
        }),
        _gen_data("gen-data-train", train_cfg, train_out),
        _gen_data("gen-data-dense", dense_cfg, dense_out),
        _train(train_cfg, train_out, timed=False),
        _attack(train_cfg, train_out, timed=False),
    ], dense_cfg, dense_out, train_out, pairs=3)


WORKLOADS = {"protocol": protocol, "detect-dense": detect_dense}
