"""End-to-end stages shared by the CLI: data generation, training, attack,
and detection. Each stage takes the run config and reads and writes plain
files in its out_dir, so stages can run as separate processes, and every
output is byte-deterministic for a fixed config.

The detection stage deliberately takes only a weights file and the clean
detection splits; it has no access to (and no argument for) the training
split.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from pathlib import Path

import numpy as np

from pcbdet.attack import (
    attack_success_rate,
    choose_center,
    make_pattern,
    poison_dataset,
    save_pattern,
)
from pcbdet.classifier import (
    ClassifierWeights,
    accuracy,
    head_logits,
    load_weights,
    pool_vector,
    save_weights,
    train,
)
from pcbdet.config import RunConfig
from pcbdet.estimation import (
    EstimationParams,
    SearchProblem,
    estimate_group_location,
    estimate_samplewise_location,
)
from pcbdet.geometry import Dataset, generate_shape, load_dataset, save_dataset
from pcbdet.inference import (
    ClassStatistics,
    DetectionReport,
    combined_statistic,
    compute_r_s,
    compute_w,
    compute_z,
    detect,
)
from pcbdet.report import write_histogram_svg, write_json, write_report_json, write_statistics_csv

__all__ = [
    "SPLIT_NAMES",
    "DetectionInputError",
    "generate_splits",
    "gen_data_stage",
    "train_stage",
    "attack_stage",
    "assemble_statistics",
    "detect_stage",
]

SPLIT_NAMES = ("train", "test", "clean", "reserve")

# A class whose clean detection set cannot reach this size aborts detection.
MIN_DETECTION_CLOUDS = 5

# File name of the clean model that train writes.
CLEAN_WEIGHTS = "clean.weights"


class DetectionInputError(ValueError):
    """Clean detection set below MIN_DETECTION_CLOUDS (by config, or reserve pool exhausted)."""


def generate_splits(cfg: RunConfig) -> tuple[dict, dict]:
    """Deterministic per-class splits and their per-class sample-id ranges;
    the clean/reserve clouds are generated alongside but never enter the
    training split (disjoint seed indices)."""
    d = cfg.data
    counts = {name: getattr(d, f"{name}_per_class") for name in SPLIT_NAMES}
    splits, ranges = {}, {}
    base = 0
    for name in SPLIT_NAMES:
        clouds, labels = [], []
        for k in range(d.classes):
            for i in range(counts[name]):
                seed = d.seed * 1_000_000 + base + i
                clouds.append(generate_shape(k, d.points_per_cloud, seed))
                labels.append(k)
        splits[name] = Dataset(clouds=clouds, labels=np.asarray(labels), num_classes=d.classes)
        ranges[name] = [base, base + counts[name]]
        base += counts[name]
    return splits, ranges


def gen_data_stage(cfg: RunConfig) -> dict:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits, ranges = generate_splits(cfg)
    for name in SPLIT_NAMES:
        save_dataset(splits[name], out / f"{name}.txt")
    manifest = {
        "classes": cfg.data.classes,
        "points_per_cloud": cfg.data.points_per_cloud,
        "data_seed": cfg.data.seed,
        "per_class_counts": {name: len(splits[name]) // cfg.data.classes for name in SPLIT_NAMES},
        "totals": {name: len(splits[name]) for name in SPLIT_NAMES},
        # Per-class sample-id ranges (id = per-class generation index); the
        # splits are disjoint exactly when these ranges are.
        "sample_id_ranges": ranges,
    }
    write_json(manifest, out / "manifest.json")
    return manifest


def _load_split(cfg: RunConfig, name: str) -> Dataset:
    path = Path(cfg.out_dir) / f"{name}.txt"
    if not path.exists():
        raise FileNotFoundError(f"missing split file {path}; run gen-data first")
    return load_dataset(path, num_classes=cfg.data.classes)


def _load_test_split(cfg: RunConfig) -> Dataset:
    """The test split, which train and attack score their models on, so it
    must not be empty; checked before any training starts."""
    test_ds = _load_split(cfg, "test")
    if len(test_ds) == 0:
        raise ValueError(
            f"{Path(cfg.out_dir) / 'test.txt'}: empty test split; set test_per_class >= 1 and rerun gen-data"
        )
    return test_ds


def _load_model(cfg: RunConfig, path) -> ClassifierWeights:
    """The weights at path, which must classify the config's classes."""
    w = load_weights(path)
    if w.num_classes != cfg.data.classes:
        raise ValueError(
            f"{path}: weights of a {w.num_classes}-class network, but the config has classes = {cfg.data.classes}"
        )
    return w


def train_stage(cfg: RunConfig) -> dict:
    out = Path(cfg.out_dir)
    train_ds = _load_split(cfg, "train")
    test_ds = _load_test_split(cfg)
    w = train(train_ds, cfg.train)
    save_weights(w, out / CLEAN_WEIGHTS)
    metrics = {"test_accuracy": accuracy(w, test_ds), "weights": CLEAN_WEIGHTS}
    write_json(metrics, out / "train-metrics.json")
    return metrics


def attack_stage(cfg: RunConfig, clean_weights) -> dict:
    """Poison, retrain, and record attack metrics.

    clean_weights (a path) supplies the reference model: it guides the
    trigger center (choose_center) and gives the clean-accuracy delta.
    """
    out = Path(cfg.out_dir)
    train_ds = _load_split(cfg, "train")
    test_ds = _load_test_split(cfg)
    a = cfg.attack
    w_clean = _load_model(cfg, clean_weights)
    source_clouds = train_ds.clouds_of_class(a.source)
    center = choose_center(source_clouds, a.standoff, a.seed, weights=w_clean)
    pattern = make_pattern(center, a.pattern_points, a.seed, radius=a.pattern_radius)
    poisoned = poison_dataset(train_ds, a, pattern)
    w_bad = train(poisoned, cfg.train)

    held_out = test_ds.clouds_of_class(a.source)
    asr = attack_success_rate(w_bad, held_out, pattern, a.target)
    acc_bad = accuracy(w_bad, test_ds)
    acc_clean = accuracy(w_clean, test_ds)

    save_pattern(pattern, out / "pattern.txt")
    save_weights(w_bad, out / "poisoned.weights")
    metrics = {
        "source": a.source,
        "target": a.target,
        "attack_success_rate": asr,
        "poisoned_test_accuracy": acc_bad,
        "clean_test_accuracy": acc_clean,
        "clean_accuracy_delta": acc_clean - acc_bad,
    }
    write_json(metrics, out / "attack-metrics.json")
    return metrics


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def build_detection_sets(w: ClassifierWeights, clean: Dataset, reserve: Dataset, target_size: int):
    """Per-class clean clouds the classifier gets right, and their pools.

    Each class takes the first target_size correctly classified clouds of
    its clean clouds followed by its reserve clouds, in split order; no cloud
    past the fill is classified. A class may proceed with fewer than
    target_size but at least MIN_DETECTION_CLOUDS, else detection aborts.
    A cloud is classified from its pool_vector, as accuracy does, and the
    pools of the picked clouds are kept: returns (sets, pools), sets[k] the
    clouds of class k and pools[k] their pools stacked (M, 128), which the
    searches take as they are.
    """
    sets, pools = {}, {}
    for k in range(clean.num_classes):
        candidates = chain(clean.clouds_of_class(k), reserve.clouds_of_class(k))
        pooled = ((X, pool_vector(w, X)) for X in candidates)
        picked = list(islice(((X, p) for X, p in pooled if np.argmax(head_logits(w, p)) == k), target_size))
        if len(picked) < MIN_DETECTION_CLOUDS:
            raise DetectionInputError(
                f"class {k}: only {len(picked)} correctly classified clean clouds "
                f"(minimum {MIN_DETECTION_CLOUDS}); reserve pool exhausted"
            )
        sets[k] = [X for X, _ in picked]
        pools[k] = np.stack([p for _, p in picked])
    return sets, pools


def assemble_statistics(w, detection_sets, pools, params: EstimationParams, seed: int, trace_dir=None):
    """Group + sample-wise estimation for every class, then the statistics.

    detection_sets and pools are those of build_detection_sets. The group
    searches of all classes run as one stacked call, and the sample-wise
    searches of all clean clouds of the non-failed classes as a second one;
    each search's result is the one it gets alone.

    Failed group estimates keep the r = 0 convention; their z plays no part
    in the similarity normalization.
    """
    K = w.num_classes
    groups = estimate_group_location(
        w,
        [
            SearchProblem(
                detection_sets[s],
                pools[s],
                s,
                seed=seed * 1000 + s,
                trace_path=None if trace_dir is None else Path(trace_dir) / f"group-{s}.csv",
            )
            for s in range(K)
        ],
        params,
    )
    live = [s for s in range(K) if not groups[s].failed]
    samples = [
        SearchProblem([X], pools[s][i : i + 1], s, seed=seed * 1_000_000 + s * 1000 + i, target=groups[s].target)
        for s in live
        for i, X in enumerate(detection_sets[s])
    ]
    centers = iter(estimate_samplewise_location(w, samples, params))
    # Failed classes contribute z = 0 to the normalization (no alignment
    # evidence); their own statistic is pinned to 0 regardless.
    z_by_class = {s: 0.0 for s in range(K)}
    for s in live:
        z_by_class[s] = compute_z(groups[s].center, [next(centers) for _ in detection_sets[s]])
    w_values = compute_w([z_by_class[s] for s in range(K)])
    stats = []
    for s in range(K):
        est = groups[s]
        if est.failed:
            stats.append(ClassStatistics(source=s, t_hat=None, r_s=0.0, r_t=0.0, z=0.0, w=0.0, r=0.0))
            continue
        r_s = compute_r_s(est.center, detection_sets[s])
        r_t = compute_r_s(est.center, detection_sets[est.target])
        w_s = float(w_values[s])
        stats.append(
            ClassStatistics(
                source=s,
                t_hat=est.target,
                r_s=r_s,
                r_t=r_t,
                z=z_by_class[s],
                w=w_s,
                r=combined_statistic(w_s, r_t, r_s),
            )
        )
    return stats


def detect_stage(cfg: RunConfig, weights_path, prefix: str) -> DetectionReport:
    # Not a RunConfig check: a run that never detects may leave clean empty.
    n = cfg.data.clean_per_class
    if n < MIN_DETECTION_CLOUDS:
        raise DetectionInputError(f"clean_per_class = {n} is below detect's minimum of {MIN_DETECTION_CLOUDS}")
    # The prefix names files inside out_dir, never a directory of its own.
    if not prefix or any(sep and sep in prefix for sep in ("/", os.sep, os.altsep)):
        raise ValueError(f"prefix {prefix!r} must be non-empty and hold no path separator")
    out = Path(cfg.out_dir)
    w = _load_model(cfg, weights_path)
    clean = _load_split(cfg, "clean")
    reserve = _load_split(cfg, "reserve")
    sets, pools = build_detection_sets(w, clean, reserve, cfg.data.clean_per_class)
    stats = assemble_statistics(w, sets, pools, cfg.estimation, cfg.detect_seed)
    report = detect(stats, phi=cfg.phi)
    write_statistics_csv(report, out / f"{prefix}-statistics.csv")
    write_report_json(report, out / f"{prefix}-report.json")
    write_histogram_svg(report, out / f"{prefix}-histogram.svg")
    return report
