import numpy as np
import pytest

from pcbdet.attack import (
    CENTER_CANDIDATES,
    NEAR_FRACTION,
    AttackConfig,
    BackdoorPattern,
    GEOMETRY_RADIUS,
    attack_success_rate,
    choose_center,
    embed_pattern,
    make_pattern,
    poison_dataset,
    save_pattern,
)
from pcbdet.classifier import accuracy, init_weights, pool_vector
from pcbdet.geometry import Dataset, generate_shape
from tests.oracles import distance_to_cloud, predict
from tests.test_classifier import constant_logit_weights


class TestPattern:
    def test_points_are_offsets_plus_center(self):
        p = BackdoorPattern(center=[0.5, 0, 0], offsets=[[0, 0, 0]])
        np.testing.assert_array_equal(p.points, [[0.5, 0, 0]])

    def test_offset_radius_enforced(self):
        with pytest.raises(ValueError, match="radius"):
            BackdoorPattern(center=[0, 0, 0], offsets=[[0.2, 0, 0]])

    def test_make_pattern_deterministic_and_in_ball(self):
        a = make_pattern([1, 0, 0], 5, seed=3)
        b = make_pattern([1, 0, 0], 5, seed=3)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        assert np.linalg.norm(a.offsets, axis=1).max() <= GEOMETRY_RADIUS

    def test_round_trip(self, tmp_path):
        # pattern.txt is a record of the attack that no stage reads back: its
        # exact text, with repr values that read back bit for bit.
        p = BackdoorPattern(center=[0.3, -0.2, 1.1], offsets=[[0.01, 0.0, -0.02], [0.1 / 3, 0.0, 0.0]])
        f = tmp_path / "pattern.txt"
        save_pattern(p, f)
        assert f.read_text(encoding="ascii") == "2 0.05\n0.3 -0.2 1.1\n0.01 0.0 -0.02\n0.03333333333333333 0.0 0.0\n"


class TestEmbed:
    def test_single_inserted_point(self):
        X = generate_shape(0, 32, seed=0)
        p = BackdoorPattern(center=[0.5, 0, 0], offsets=[[0, 0, 0]])
        out = embed_pattern(X, p)
        np.testing.assert_array_equal(out[:-1], X)
        np.testing.assert_array_equal(out[-1], [0.5, 0, 0])

    def test_cardinality_and_prefix(self):
        X = generate_shape(1, 256, seed=1)
        p = make_pattern([0, 1.3, 0], 3, seed=0)
        out = embed_pattern(X, p)
        assert len(out) == 259
        np.testing.assert_array_equal(out[:256], X)

    def test_remove_tail_recovers_input(self):
        X = generate_shape(2, 64, seed=5)
        p = make_pattern([0, 0, 1.3], 4, seed=2)
        np.testing.assert_array_equal(embed_pattern(X, p)[:-4], X)

    def test_input_not_mutated(self):
        X = generate_shape(0, 32, seed=0)
        snapshot = X.copy()
        embed_pattern(X, make_pattern([1, 0, 0], 2, seed=0))
        np.testing.assert_array_equal(X, snapshot)


# An all-zero network wins no channel, so choose_center gives it the
# candidate nearest to the source clouds.
ZERO_NET = constant_logit_weights(np.zeros(8))


class TestChooseCenter:
    def test_degenerate_single_point_cloud(self):
        c = choose_center([np.zeros((1, 3))], standoff=0.3, seed=4, weights=ZERO_NET)
        assert np.linalg.norm(c) == pytest.approx(1.3, abs=1e-12)
        assert distance_to_cloud(c, np.zeros((1, 3)))[0] == pytest.approx(1.3, abs=1e-12)

    def test_sphere_class_average_distance(self):
        clouds = [generate_shape(0, 256, seed=i) for i in range(10)]
        c = choose_center(clouds, standoff=0.3, seed=0, weights=ZERO_NET)
        # Geometry oracle: brute-force average distance over the clouds.
        avg = np.mean([distance_to_cloud(c, X)[0] for X in clouds])
        assert 0.25 <= avg <= 0.40

    def test_deterministic(self):
        clouds = [generate_shape(0, 64, seed=i) for i in range(3)]
        a = choose_center(clouds, standoff=0.3, seed=7, weights=ZERO_NET)
        b = choose_center(clouds, standoff=0.3, seed=7, weights=ZERO_NET)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("class_id", range(8))
    def test_average_distance_bound_all_families(self, class_id):
        clouds = [generate_shape(class_id, 256, seed=i) for i in range(10)]
        c = choose_center(clouds, standoff=0.3, seed=5, weights=ZERO_NET)
        avg = np.mean([distance_to_cloud(c, X)[0] for X in clouds])
        assert avg <= 0.3 + 0.2

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            choose_center([], standoff=0.3, seed=0, weights=ZERO_NET)


class TestGuidedCenter:
    """choose_center with a reference model: the nearest NEAR_FRACTION of the
    candidates, ranked by max-pool channels won on the source clouds."""

    @staticmethod
    def candidate_points(standoff, seed):
        # Oracle: the documented candidate set.
        rng = np.random.default_rng([seed, 0xCE17E5])
        dirs = rng.normal(size=(CENTER_CANDIDATES, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return (1 + standoff) * dirs

    def candidate_distances(self, clouds, standoff, seed):
        # Each candidate's brute-force average distance to the clouds.
        points = self.candidate_points(standoff, seed)
        return np.array([np.mean([distance_to_cloud(c, X)[0] for X in clouds]) for c in points])

    @staticmethod
    def channel_wins(w, c, clouds):
        feat = pool_vector(w, np.asarray(c)[None, :])
        return np.mean([np.count_nonzero(feat > pool_vector(w, X)) for X in clouds])

    @pytest.mark.parametrize("class_id", range(8))
    def test_stays_near_and_wins_at_least_the_nearest(self, class_id):
        clouds = [generate_shape(class_id, 256, seed=i) for i in range(10)]
        w = init_weights(num_classes=8, seed=class_id)
        c = choose_center(clouds, standoff=0.2, seed=5, weights=w)
        nearest = choose_center(clouds, standoff=0.2, seed=5, weights=ZERO_NET)
        assert np.linalg.norm(c) == pytest.approx(1.2, abs=1e-12)
        avg = np.mean([distance_to_cloud(c, X)[0] for X in clouds])
        dists = np.sort(self.candidate_distances(clouds, 0.2, 5))
        # Within the nearest quarter of the candidates, so below the median.
        assert avg <= dists[int(CENTER_CANDIDATES * NEAR_FRACTION) - 1] + 1e-12
        assert avg < np.median(dists)
        assert self.channel_wins(w, c, clouds) >= self.channel_wins(w, nearest, clouds)

    def test_ties_go_to_the_nearest(self):
        # The all-zero network: no candidate wins a channel.
        clouds = [generate_shape(2, 128, seed=i) for i in range(4)]
        c = choose_center(clouds, standoff=0.2, seed=3, weights=ZERO_NET)
        nearest = np.argmin(self.candidate_distances(clouds, 0.2, 3))
        np.testing.assert_array_equal(c, self.candidate_points(0.2, 3)[nearest])

    def test_deterministic(self):
        clouds = [generate_shape(6, 64, seed=i) for i in range(3)]
        w = init_weights(num_classes=8, seed=1)
        a = choose_center(clouds, standoff=0.2, seed=7, weights=w)
        b = choose_center(clouds, standoff=0.2, seed=7, weights=w)
        np.testing.assert_array_equal(a, b)


def small_train_set(per_class=20, classes=3):
    clouds, labels = [], []
    for k in range(classes):
        for i in range(per_class):
            clouds.append(generate_shape(k, 32, seed=k * 1000 + i))
            labels.append(k)
    return Dataset(clouds=clouds, labels=np.array(labels), num_classes=classes)


class TestPoison:
    def test_adds_exactly_poison_count(self):
        train = small_train_set()
        cfg = AttackConfig(source=0, target=1, poison_count=15, seed=0)
        pattern = make_pattern([0, 0, 1.3], 3, seed=0)
        out = poison_dataset(train, cfg, pattern)
        assert len(out) == len(train) + 15

    def test_added_samples_labeled_target_with_pattern_tail(self):
        train = small_train_set()
        cfg = AttackConfig(source=0, target=2, poison_count=5, seed=1)
        pattern = make_pattern([1.2, 0, 0], 3, seed=1)
        out = poison_dataset(train, cfg, pattern)
        added_clouds = out.clouds[len(train):]
        added_labels = out.labels[len(train):]
        assert all(lab == 2 for lab in added_labels)
        for X in added_clouds:
            np.testing.assert_array_equal(X[-3:], pattern.points)

    def test_originals_untouched(self):
        train = small_train_set()
        snapshots = [X.copy() for X in train.clouds]
        cfg = AttackConfig(source=1, target=0, poison_count=4, seed=2)
        out = poison_dataset(train, cfg, make_pattern([0, 1.3, 0], 2, seed=2))
        for orig, snap in zip(train.clouds, snapshots):
            np.testing.assert_array_equal(orig, snap)
        for kept, snap in zip(out.clouds[: len(train)], snapshots):
            np.testing.assert_array_equal(kept, snap)
        np.testing.assert_array_equal(out.labels[: len(train)], train.labels)

    def test_poisoned_sources_distinct(self):
        train = small_train_set()
        cfg = AttackConfig(source=0, target=1, poison_count=20, seed=3)
        pattern = make_pattern([0, 0, 1.3], 1, seed=3)
        out = poison_dataset(train, cfg, pattern)
        bases = [X[:-1] for X in out.clouds[len(train):]]
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                assert not np.array_equal(bases[i], bases[j])

    def test_insufficient_source_samples(self):
        train = small_train_set(per_class=5)
        cfg = AttackConfig(source=0, target=1, poison_count=15, seed=0)
        with pytest.raises(ValueError, match="need 15"):
            poison_dataset(train, cfg, make_pattern([1.3, 0, 0], 1, seed=0))


class TestSuccessRate:
    def test_always_target_classifier(self):
        w = constant_logit_weights([0.0, 5.0, 0.0])
        clouds = [generate_shape(0, 32, seed=i) for i in range(4)]
        pattern = make_pattern([1.3, 0, 0], 1, seed=0)
        assert attack_success_rate(w, clouds, pattern, target=1) == 1.0

    def test_never_target_classifier(self):
        w = constant_logit_weights([5.0, 0.0, 0.0])
        clouds = [generate_shape(0, 32, seed=i) for i in range(4)]
        pattern = make_pattern([1.3, 0, 0], 1, seed=0)
        assert attack_success_rate(w, clouds, pattern, target=1) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            attack_success_rate(constant_logit_weights([1, 0]), [], make_pattern([1.3, 0, 0], 1, seed=0), 1)


class TestOneHeadCall:
    """accuracy and attack_success_rate classify a split's stacked pools with
    one head call; each must count the hits of one predict per cloud."""

    @staticmethod
    def assert_per_cloud_counts(w, data, pattern, target):
        hits = sum(predict(w, X) == lab for X, lab in zip(data.clouds, data.labels))
        assert accuracy(w, data) == hits / len(data)
        embedded_hits = sum(predict(w, embed_pattern(X, pattern)) == target for X in data.clouds)
        assert attack_success_rate(w, data.clouds, pattern, target) == embedded_hits / len(data)
        return hits, embedded_hits

    def test_generated_split(self):
        # 300 clouds of 8 classes and several sizes: the stacked head spans a
        # full 256-row block and a padded tail.
        sizes = [16, 255, 256, 257, 40]
        clouds = [generate_shape(i % 8, sizes[i % 5], seed=i) for i in range(300)]
        data = Dataset(clouds=clouds, labels=np.arange(300) % 8, num_classes=8)
        hits, embedded_hits = self.assert_per_cloud_counts(
            init_weights(num_classes=8, seed=3), data, make_pattern([1.3, 0, 0], 3, seed=0), target=2
        )
        assert 0 < hits < len(data) and 0 < embedded_hits < len(data)  # neither count is trivial

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_tied_logits_go_to_the_lowest_class(self, target):
        w = constant_logit_weights([1.0, 1.0, 0.0])
        data = Dataset(clouds=[generate_shape(k, 32, seed=k) for k in range(6)], labels=np.arange(6) % 3,
                       num_classes=3)
        assert self.assert_per_cloud_counts(w, data, make_pattern([1.3, 0, 0], 1, seed=0), target) == (
            2, 6 * (target == 0)
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(constant_logit_weights([1.0, 0.0]), Dataset(clouds=[], labels=[], num_classes=2))


class TestConfigValidation:
    def test_source_equals_target_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(source=2, target=2)
