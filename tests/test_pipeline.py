import numpy as np
import pytest

from pcbdet import pipeline
from pcbdet.classifier import init_weights, pool_vector
from pcbdet.estimation import EstimationParams, SearchProblem, estimate_group_location
from pcbdet.geometry import Dataset, generate_shape
from pcbdet.pipeline import (
    DetectionInputError,
    assemble_statistics,
    build_detection_sets,
    generate_splits,
)
from pcbdet.config import default_config
from tests.test_classifier import constant_logit_weights
from tests.test_cli import tiny_config


def split_of(count, classes=3, n=24, tag=0):
    clouds, labels = [], []
    for k in range(classes):
        for i in range(count):
            clouds.append(generate_shape(k, n, seed=tag * 10_000 + k * 100 + i))
            labels.append(k)
    return Dataset(clouds=clouds, labels=np.array(labels), num_classes=classes)


def pools_of(w, sets):
    """The pools build_detection_sets returns with sets."""
    return {k: np.stack([pool_vector(w, X) for X in clouds]) for k, clouds in sets.items()}


class TestDetectionSets:
    def test_keeps_correctly_classified(self):
        clean = split_of(6)
        # constant prediction = class 1: only class 1 keeps its clouds
        w = constant_logit_weights([0.0, 1.0, 0.0])
        with pytest.raises(DetectionInputError, match="class 0"):
            build_detection_sets(w, clean, split_of(0), target_size=6)

    def test_reserve_top_up(self):
        classes = 2
        clean = split_of(4, classes=classes)
        reserve = split_of(6, classes=classes, tag=9)
        w = constant_logit_weights([1.0, 0.0])

        # class 0 always predicted: class 0 fills from clean+reserve; class 1
        # has zero correct clouds -> error names it
        with pytest.raises(DetectionInputError, match="class 1"):
            build_detection_sets(w, clean, reserve, target_size=5)

    def test_top_up_cap(self):
        clean = split_of(4, classes=2)
        # single-class dataset where everything is "correct": the set is
        # capped at target_size even with more clouds available
        both = Dataset(clouds=clean.clouds, labels=np.zeros(len(clean), dtype=int), num_classes=1)
        w = constant_logit_weights([1.0])
        sets, pools = build_detection_sets(w, both, split_of(0, classes=1), target_size=6)
        assert len(sets[0]) == 6
        assert pools[0].tobytes() == pools_of(w, sets)[0].tobytes()

    def test_clean_then_reserve_in_split_order(self, monkeypatch):
        # Cloud i of class k is filled with [i, k, 0]; the stub classifier
        # (its pool is that row, and its head reads it) gets the clouds in
        # `wrong` wrong and records what it classifies.
        def split(ids_by_class):
            clouds = [np.tile([float(i), float(k), 0.0], (4, 1)) for k, ids in enumerate(ids_by_class) for i in ids]
            labels = [k for k, ids in enumerate(ids_by_class) for _ in ids]
            return Dataset(clouds=clouds, labels=np.array(labels), num_classes=len(ids_by_class))

        wrong = {1, 4, 5, 100, 103, 106}
        classified = []

        def stub_pool_vector(w, X):
            return X[0]

        def stub_head_logits(w, pooled):
            i, k = int(pooled[0]), int(pooled[1])
            classified.append(i)
            return np.eye(2)[1 - k if i in wrong else k]

        monkeypatch.setattr(pipeline, "pool_vector", stub_pool_vector)
        monkeypatch.setattr(pipeline, "head_logits", stub_head_logits)
        clean = split([range(6), range(10, 16)])
        reserve = split([range(100, 108), range(110, 118)])
        sets, pools = build_detection_sets(None, clean, reserve, target_size=6)
        assert {k: [int(X[0, 0]) for X in clouds] for k, clouds in sets.items()} == {
            0: [0, 2, 3, 101, 102, 104],
            1: list(range(10, 16)),
        }
        # Class 0 stops at reserve cloud 104; class 1 never reaches its reserve.
        assert classified == [*range(6), *range(100, 105), *range(10, 16)]
        assert {k: p[:, 0].tolist() for k, p in pools.items()} == {k: [X[0, 0] for X in sets[k]] for k in sets}


class TestAssembleStatistics:
    def test_failed_class_convention_and_w_normalization(self):
        # Classifier always predicts class 0: class 0's group search never
        # leaves s (failed); others always feasible.
        w = constant_logit_weights([5.0, 0.0, 0.0])
        sets = {k: [generate_shape(k, 24, seed=i) for i in range(3)] for k in range(3)}
        params = EstimationParams(tau_max=15, n_restarts=2)
        stats = assemble_statistics(w, sets, pools_of(w, sets), params, seed=3)
        assert stats[0].t_hat is None
        assert stats[0].r == 0.0 and stats[0].w == 0.0 and stats[0].z == 0.0
        others = [st for st in stats if st.t_hat is not None]
        assert len(others) == 2
        for st in others:
            assert 0.0 <= st.w <= 1.0
            assert st.r_s > 0

    def test_statistics_deterministic(self):
        w = constant_logit_weights([0.0, 1.0, 0.5])
        sets = {k: [generate_shape(k, 24, seed=i) for i in range(3)] for k in range(3)}
        params = EstimationParams(tau_max=15, n_restarts=2)
        a = assemble_statistics(w, sets, pools_of(w, sets), params, seed=3)
        b = assemble_statistics(w, sets, pools_of(w, sets), params, seed=3)
        assert [(s.r, s.t_hat, s.w) for s in a] == [(s.r, s.t_hat, s.w) for s in b]


    def test_group_traces_match_searches_run_alone(self, tmp_path):
        # The group searches of all classes run as one stack; each trace file
        # holds the bytes of the class's search run on its own.
        w = init_weights(num_classes=3, seed=2)
        sets = {k: [generate_shape(k, 24, seed=i) for i in range(3)] for k in range(3)}
        params = EstimationParams(tau_max=15, n_restarts=2)
        pools = pools_of(w, sets)
        assemble_statistics(w, sets, pools, params, seed=3, trace_dir=tmp_path)
        for s in range(3):
            alone = tmp_path / f"alone-{s}.csv"
            estimate_group_location(w, [SearchProblem(sets[s], pools[s], s, seed=3 * 1000 + s, trace_path=alone)], params)
            assert (tmp_path / f"group-{s}.csv").read_bytes() == alone.read_bytes()


class TestGenerateSplits:
    def test_counts_and_disjoint_ids(self):
        cfg = default_config()
        cfg.data.classes = 3
        cfg.data.train_per_class = 5
        cfg.data.test_per_class = 2
        cfg.data.clean_per_class = 2
        cfg.data.reserve_per_class = 1
        cfg.data.points_per_cloud = 16
        splits, ranges = generate_splits(cfg)
        assert list(splits) == list(ranges) == ["train", "test", "clean", "reserve"]
        assert len(splits["train"]) == 15
        assert len(splits["reserve"]) == 3
        seen = set()
        for lo, hi in ranges.values():
            ids = set(range(lo, hi))
            assert not ids & seen
            seen |= ids

    def test_clean_clouds_differ_from_train(self):
        cfg = default_config()
        cfg.data.classes = 2
        cfg.data.train_per_class = 3
        cfg.data.test_per_class = 1
        cfg.data.clean_per_class = 2
        cfg.data.reserve_per_class = 1
        cfg.data.points_per_cloud = 16
        splits, _ = generate_splits(cfg)
        for Xc in splits["clean"].clouds:
            for Xt in splits["train"].clouds:
                assert not np.array_equal(Xc, Xt)


class TestStages:
    def test_every_output_lands_in_out_dir(self, tmp_path, monkeypatch):
        # Each stage takes its directory from the config alone: run from an
        # empty working directory, it writes nothing there.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "elsewhere" / "run"
        cfg = tiny_config(out)
        cfg.estimation.tau_max = 20
        pipeline.gen_data_stage(cfg)
        pipeline.train_stage(cfg)
        pipeline.attack_stage(cfg, out / pipeline.CLEAN_WEIGHTS)
        for weights in ("clean", "poisoned"):
            pipeline.detect_stage(cfg, out / f"{weights}.weights", prefix=weights)
        assert list(cwd.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "elsewhere"]
        stage_files = ["train.txt", "test.txt", "clean.txt", "reserve.txt", "manifest.json", "clean.weights",
                       "train-metrics.json", "pattern.txt", "poisoned.weights", "attack-metrics.json"]
        detect_files = [f"{weights}-{kind}" for weights in ("clean", "poisoned")
                        for kind in ("statistics.csv", "report.json", "histogram.svg")]
        assert sorted(p.name for p in out.iterdir()) == sorted(stage_files + detect_files)
