import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcbdet.classifier import (
    OUTLIER_POINTS,
    ClassifierWeights,
    TrainConfig,
    WeightsFormatError,
    _batch_backward,
    _batch_forward,
    _softmax,
    accuracy,
    forward_logits,
    init_weights,
    insertion_gradient,
    insertion_logits,
    load_weights,
    margin_cotangent,
    pool_vector,
    predict,
    save_weights,
    train,
)
from pcbdet.geometry import Dataset, generate_shape
from tests.oracles import dense_batch_backward, distance_to_cloud, mean_cross_entropy, point_features


def reference_forward(w, X):
    """Straight-line re-implementation with plain Python loops."""
    feats = []
    for x in X:
        a1 = [max(0.0, sum(x[i] * w.w1[i, j] for i in range(3)) + w.b1[j]) for j in range(64)]
        a2 = [max(0.0, sum(a1[i] * w.w2[i, j] for i in range(64)) + w.b2[j]) for j in range(128)]
        feats.append(a2)
    pooled = [max(f[ch] for f in feats) for ch in range(128)]
    a3 = [max(0.0, sum(pooled[i] * w.w3[i, j] for i in range(128)) + w.b3[j]) for j in range(64)]
    K = w.num_classes
    return np.array([sum(a3[i] * w.w4[i, k] for i in range(64)) + w.b4[k] for k in range(K)])


def constant_logit_weights(logits):
    """All-zero network whose output is the given constant logit vector."""
    logits = np.asarray(logits, dtype=np.float64)
    K = len(logits)
    return ClassifierWeights(
        w1=np.zeros((3, 64)),
        b1=np.zeros(64),
        w2=np.zeros((64, 128)),
        b2=np.zeros(128),
        w3=np.zeros((128, 64)),
        b3=np.zeros(64),
        w4=np.zeros((64, K)),
        b4=logits.copy(),
    )


@pytest.fixture(scope="module")
def small_weights():
    return init_weights(num_classes=5, seed=0)


class TestForward:
    def test_matches_loop_reference(self, small_weights):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        got = forward_logits(small_weights, X)
        want = reference_forward(small_weights, X)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_permutation_invariance_bit_exact(self, small_weights):
        rng = np.random.default_rng(1)
        for _ in range(100):
            X = rng.normal(size=(rng.integers(2, 20), 3))
            perm = rng.permutation(len(X))
            a = forward_logits(small_weights, X)
            b = forward_logits(small_weights, X[perm])
            np.testing.assert_array_equal(a, b)

    def test_duplicate_invariance_bit_exact(self, small_weights):
        rng = np.random.default_rng(2)
        for _ in range(100):
            X = rng.normal(size=(rng.integers(1, 20), 3))
            dup = np.vstack([X, X[rng.integers(0, len(X))][None, :]])
            np.testing.assert_array_equal(
                forward_logits(small_weights, X), forward_logits(small_weights, dup)
            )

    def test_losing_insertion_leaves_logits_identical(self, small_weights):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3)) * 2.0
        c = np.zeros(3)  # ReLU features of the origin never exceed positive maxima
        # The precondition: the origin wins no channel for these weights.
        pooled = pool_vector(small_weights, X)
        np.testing.assert_array_equal(pool_vector(small_weights, np.vstack([X, c[None]])), pooled)
        np.testing.assert_array_equal(
            forward_logits(small_weights, np.vstack([X, c[None]])),
            forward_logits(small_weights, X),
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        X=hnp.arrays(np.float64, st.tuples(st.integers(1, 300), st.just(3)), elements=st.floats(-4.0, 4.0)),
        seed=st.integers(0, 2**16),
        copies=st.integers(0, 40),
    )
    def test_pool_vector_is_the_max_of_per_point_features(self, X, seed, copies):
        # Biases from a seed; about a quarter of the layer-2 channels get a
        # bias that keeps them off on every point. The cloud repeats some of
        # its points.
        rng = np.random.default_rng(seed)
        w = init_weights(num_classes=3, seed=seed)
        w.b1 = rng.normal(0.0, 0.5, size=w.b1.shape)
        w.b2 = rng.normal(0.0, 1.0, size=w.b2.shape)
        dead = rng.random(w.b2.shape) < 0.25
        w.b2[dead] = -1e3
        X = np.vstack([X, X[rng.integers(0, len(X), size=copies)]])
        got = pool_vector(w, X)
        assert got.tobytes() == point_features(w, X).max(axis=0).tobytes()
        assert np.all(got[dead] == 0.0)


class TestInsertionPredictions:
    """insertion_logits is the one evaluation of the network on X + {c}: its
    logits, and so the predictions the search acts on, are forward_logits on
    the union bit for bit, whatever the leading axes of the stack."""

    SIZES = [16, 255, 256, 257, 1024]
    FAR = np.array([2.5, -3.0, 4.0])

    @staticmethod
    def assert_union_bits(w, clouds, c, logits):
        for m, X in enumerate(clouds):
            union = np.vstack([X, c[None]])
            np.testing.assert_array_equal(logits[m], forward_logits(w, union))
            assert np.argmax(logits[m]) == predict(w, union)

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_forward_on_the_union(self, small_weights, n):
        # Leading axes (): one point against M shared clouds.
        clouds = [generate_shape(k, n, seed=n + k) for k in range(3)]
        pooled = np.stack([pool_vector(small_weights, X) for X in clouds])
        for c in (self.FAR, 0.5 * clouds[0][n // 2]):
            logits, _ = insertion_logits(small_weights, pooled, c)
            assert logits.shape == (3, small_weights.num_classes)
            self.assert_union_bits(small_weights, clouds, c, logits)

    @pytest.mark.parametrize("n", SIZES)
    def test_stack_bit_identical_to_forward_on_the_union(self, small_weights, n):
        # Leading axes (P, R): each problem pairs its R points with its own
        # M clouds. P * R * M = 264 head rows span two row blocks; odd
        # restarts sit inside a cloud, even ones far out.
        P, R, M = 3, 22, 4
        clouds = [[generate_shape((p + m) % 8, n, seed=100 * p + m) for m in range(M)] for p in range(P)]
        pooled = np.stack([[pool_vector(small_weights, X) for X in cl] for cl in clouds])[:, None]
        c = np.array(
            [
                [0.5 * clouds[p][r % M][(37 * r) % n] if r % 2 else (1 + r / R) * self.FAR for r in range(R)]
                for p in range(P)
            ]
        )
        logits, _ = insertion_logits(small_weights, pooled, c)
        assert logits.shape == (P, R, M, small_weights.num_classes)
        for p in range(P):
            for r in range(R):
                self.assert_union_bits(small_weights, clouds[p], c[p, r], logits[p, r])

    def test_single_blas_thread(self):
        # BLAS picks kernels and splits work by thread count; bit equality
        # must hold at one thread as at the default.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::TestInsertionPredictions",
             "-k", "bit_identical"],
            cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "10 passed" in proc.stdout


class TestPredict:
    def test_argmax(self):
        w = constant_logit_weights([0.1, 2.3, -1.0])
        assert predict(w, np.zeros((1, 3))) == 1

    def test_tie_breaks_low(self):
        w = constant_logit_weights([1.0, 1.0, 0.0])
        assert predict(w, np.zeros((1, 3))) == 0


def point_gradient(w, X, c, source, target=None):
    """Gradient wrt c of the margin on X + {c}, computed as the descent does."""
    logits, cache = insertion_logits(w, pool_vector(w, X)[None], c)
    return insertion_gradient(w, cache, margin_cotangent(logits, source, target))


class TestPointGradient:
    def test_matches_finite_differences(self, small_weights):
        rng = np.random.default_rng(7)
        h = 1e-4
        checked = 0
        while checked < 100:
            X = rng.normal(size=(12, 3))
            c = rng.normal(size=3) * 1.2
            source = int(rng.integers(0, 5))
            base = pool_vector(small_weights, X)
            feat_c = pool_vector(small_weights, np.vstack([X, c[None]]))
            win_margin = feat_c - base
            # Eligible probes: c wins at least one channel and sits away from
            # gating boundaries so the loss is smooth on the FD stencil.
            if not np.any(win_margin > 1e-3):
                continue
            if np.any(np.abs(win_margin[win_margin != 0]) < 1e-3):
                continue
            def margin(cc):
                logits = forward_logits(small_weights, np.vstack([X, cc[None]]))
                others = np.delete(logits, source)
                return logits[source] - others.max()
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (margin(c + e) - margin(c - e)) / (2 * h)
            g = point_gradient(small_weights, X, c, source)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(g - fd) / denom <= 1e-3
            checked += 1

    def test_zero_when_no_channel_won(self, small_weights):
        rng = np.random.default_rng(8)
        found = 0
        while found < 10:
            X = rng.normal(size=(40, 3)) * 2.0
            c = rng.normal(size=3) * 0.05
            if np.array_equal(
                pool_vector(small_weights, np.vstack([X, c[None]])),
                pool_vector(small_weights, X),
            ):
                g = point_gradient(small_weights, X, c, 0)
                np.testing.assert_array_equal(g, np.zeros(3))
                found += 1

    def test_gated_cw_leaves_only_regularizer(self, small_weights):
        # With the network term gated off, the full objective gradient is
        # exactly lambda times the distance's unit direction.
        rng = np.random.default_rng(9)
        lam = 0.37
        while True:
            X = rng.normal(size=(40, 3)) * 2.0
            c = rng.normal(size=3) * 0.05
            if np.array_equal(
                pool_vector(small_weights, np.vstack([X, c[None]])),
                pool_vector(small_weights, X),
            ):
                break
        net = point_gradient(small_weights, X, c, 1)
        total = net + lam * distance_to_cloud(c, X)[1]
        np.testing.assert_array_equal(total, lam * distance_to_cloud(c, X)[1])

    def test_targeted_spec(self, small_weights):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3))
        c = rng.normal(size=3) * 1.5
        def margin(cc):
            logits = forward_logits(small_weights, np.vstack([X, cc[None]]))
            return logits[1] - logits[3]
        h = 1e-4
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[j] = (margin(c + e) - margin(c - e)) / (2 * h)
        g = point_gradient(small_weights, X, c, 1, 3)
        np.testing.assert_allclose(g, fd, rtol=1e-3, atol=1e-6)


class TestGradientStacking:
    """insertion_gradient on a stack of problems is each problem's gradient
    alone, bit for bit: all four of its products run on row blocks."""

    # Head rows -> (P, R, M): problems x restarts x clouds, P * R * M rows.
    SHAPES = {255: (5, 3, 17), 256: (4, 4, 16), 257: (257, 1, 1), 1024: (16, 8, 8)}

    @pytest.mark.parametrize("targeted", [False, True])
    @pytest.mark.parametrize("rows", sorted(SHAPES))
    def test_stack_equals_each_problem_alone(self, small_weights, rows, targeted):
        P, R, M = self.SHAPES[rows]
        K = small_weights.num_classes
        rng = np.random.default_rng(rows)
        pooled = np.stack([[pool_vector(small_weights, rng.normal(size=(8, 3))) for _ in range(M)] for _ in range(P)])
        pooled = pooled[:, None]  # (P, 1, M, 128)
        c = 2.0 * rng.normal(size=(P, R, 3))
        sources = rng.integers(0, K, size=P)[:, None, None]
        targets = (sources + 1) % K if targeted else None

        def gradient(p):
            logits, cache = insertion_logits(small_weights, pooled[p], c[p])
            cotangent = margin_cotangent(logits, sources[p], None if targets is None else targets[p])
            return insertion_gradient(small_weights, cache, cotangent)

        stacked = gradient(slice(None))
        assert stacked.shape == (P, R, 3) and np.any(stacked != 0.0)
        for p in range(P):
            assert gradient(slice(p, p + 1)).tobytes() == stacked[p : p + 1].tobytes()


def tiny_dataset(per_class=6, classes=3, n=32, seed=0):
    clouds, labels = [], []
    for k in range(classes):
        for i in range(per_class):
            clouds.append(generate_shape(k, n, seed=seed * 10_000 + k * 100 + i))
            labels.append(k)
    return Dataset(clouds=clouds, labels=np.array(labels), num_classes=classes)


class TestTraining:
    def test_deterministic(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.02, seed=5)
        w1 = train(data, cfg)
        w2 = train(data, cfg)
        for a, b in zip(w1.arrays(), w2.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_with_epochs(self):
        data = tiny_dataset()
        short = train(data, TrainConfig(epochs=2, batch_size=4, learning_rate=0.02, seed=5))
        long = train(data, TrainConfig(epochs=10, batch_size=4, learning_rate=0.02, seed=5))
        assert mean_cross_entropy(long, data) < mean_cross_entropy(short, data)

    def test_learns_tiny_problem(self):
        data = tiny_dataset(per_class=8)
        w = train(data, TrainConfig(epochs=25, batch_size=4, learning_rate=0.02, seed=1))
        assert accuracy(w, data) >= 0.9

    def test_mixed_cloud_sizes(self):
        data = tiny_dataset()
        data.clouds[0] = np.vstack([data.clouds[0], data.clouds[0][:3]])
        w = train(data, TrainConfig(epochs=2, batch_size=4, learning_rate=0.02, seed=5))
        w.validate()

    def test_empty_class_rejected(self):
        data = tiny_dataset()
        bad = Dataset(clouds=data.clouds, labels=data.labels, num_classes=4)
        with pytest.raises(ValueError, match="class 3"):
            train(bad, TrainConfig(epochs=1))


def training_batch(sizes, seed=0, duplicate=0):
    """Clouds of the given sizes plus two outlier points each, as train
    stacks them; the first `duplicate` points of each cloud appear twice."""
    rng = np.random.default_rng(seed)
    clouds = []
    for b, size in enumerate(sizes):
        X = generate_shape(b % 5, size - duplicate, seed + b)
        clouds.append(np.vstack([X, X[:duplicate], rng.uniform(-0.9, 0.9, size=(2, 3))]))
    return np.stack(clouds)


def train_cotangent(logits, labels):
    """d(mean cross-entropy)/d(logits), as train feeds the backward pass."""
    g = _softmax(logits)
    g[np.arange(len(labels)), labels] -= 1.0
    return g / len(labels)


def with_a2(w, fwd):
    """fwd plus the per-point features a2, which the dense oracle reads."""
    return dict(fwd, a2=point_features(w, fwd["pts"]))


def assert_matches_dense(w, fwd, g_logits):
    """_batch_backward equals the dense oracle within the rounding of the
    longest sum either takes: (B * n + 256) * eps times the gradient that
    the oracle gives for the absolute values of every weight, point and
    cotangent, through the same ReLU and max-pool gates."""
    got = _batch_backward(w, fwd, g_logits)
    fwd = with_a2(w, fwd)
    want = dense_batch_backward(w, fwd, g_logits)
    abs_w = ClassifierWeights(*(np.abs(a) for a in w.arrays()))
    scale = dense_batch_backward(abs_w, dict(fwd, pts=np.abs(fwd["pts"])), np.abs(g_logits))
    B, n, _ = fwd["pts"].shape
    for name, a, b, s in zip("w1 b1 w2 b2 w3 b3 w4 b4".split(), got, want, scale):
        assert a.shape == b.shape, name
        assert np.all(np.abs(a - b) <= (B * n + 256) * np.finfo(float).eps * s), name
    return got, want


class TestBatchBackward:
    """The winner-rows backward pass against the dense one it replaced."""

    @pytest.mark.parametrize("B", [1, 16])
    @pytest.mark.parametrize("n", [258, 290])
    def test_matches_dense(self, small_weights, B, n):
        pts = training_batch([n - 2] * B, seed=B + n)
        fwd = _batch_forward(small_weights, pts)
        labels = np.arange(B) % small_weights.num_classes
        got, want = assert_matches_dense(small_weights, fwd, train_cotangent(fwd["logits"], labels))
        # The bias gradients add the same nonzero terms in the same order.
        for i in (3, 5, 7):
            np.testing.assert_array_equal(got[i], want[i])

    def test_duplicated_points_first_winner(self, small_weights):
        pts = training_batch([256] * 4, seed=3, duplicate=64)  # rows 192-255 repeat rows 0-63
        fwd = _batch_forward(small_weights, pts)
        assert_matches_dense(small_weights, fwd, np.ones((4, small_weights.num_classes)))
        np.testing.assert_array_equal(fwd["winners"], with_a2(small_weights, fwd)["a2"].argmax(axis=1))
        won = fwd["winners"][fwd["pooled"] > 0]
        assert np.any(won < 64) and not np.any((won >= 192) & (won < 256))

    def test_channels_no_point_turns_on(self, small_weights):
        w = ClassifierWeights(*(a.copy() for a in small_weights.arrays()))
        w.b2[:40] = -1e3
        fwd = _batch_forward(w, training_batch([256] * 5, seed=4))
        got, _ = assert_matches_dense(w, fwd, np.ones((5, w.num_classes)))
        assert np.all(fwd["pooled"][:, :40] == 0.0)
        assert np.all(got[2][:, :40] == 0.0) and np.all(got[3][:40] == 0.0)

    def test_padded_batch_pools_each_cloud_alone(self, small_weights):
        # Clouds padded with copies of their own first point, as train pads
        # a batch of mixed sizes; the third cloud repeats its first 20 points.
        sizes = [32, 256, 288, 35]
        clouds = [training_batch([size], seed=b, duplicate=20 * (b == 2))[0] for b, size in enumerate(sizes)]
        longest = max(len(X) for X in clouds)
        pts = np.stack([np.vstack([X, np.repeat(X[:1], longest - len(X), axis=0)]) for X in clouds])
        fwd = _batch_forward(small_weights, pts)
        for b, X in enumerate(clouds):
            a2 = point_features(small_weights, X)
            np.testing.assert_array_equal(fwd["pooled"][b], a2.max(axis=0))
            np.testing.assert_array_equal(fwd["winners"][b], a2.argmax(axis=0))
            assert fwd["winners"][b].max() < len(X)

    def test_mixed_size_batches_in_train(self, monkeypatch):
        data = tiny_dataset()
        for i in (0, 5, 6):
            data.clouds[i] = np.vstack([data.clouds[i], data.clouds[i][:3]])
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.02, seed=5)
        # The batches of train: each epoch's shuffle from its seed stream.
        orders = [np.random.default_rng([cfg.seed, 0x5417, e]).permutation(len(data)) for e in range(cfg.epochs)]
        batches = [order[s : s + cfg.batch_size] for order in orders for s in range(0, len(data), cfg.batch_size)]
        sizes = []

        def checked(w, fwd, g_logits):
            # One backward call per step, on the whole batch padded to its
            # longest cloud (outlier points included); each cloud pools as
            # it would alone.
            own = [len(data.clouds[i]) + OUTLIER_POINTS for i in batches[len(sizes)]]
            sizes.append(own)
            assert fwd["pts"].shape[:2] == (len(own), max(own))
            for b, n in enumerate(own):
                a2 = point_features(w, fwd["pts"][b, :n])
                np.testing.assert_array_equal(fwd["pooled"][b], a2.max(axis=0))
                np.testing.assert_array_equal(fwd["winners"][b], a2.argmax(axis=0))
            return assert_matches_dense(w, fwd, g_logits)[0]

        monkeypatch.setattr("pcbdet.classifier._batch_backward", checked)
        train(data, cfg)
        assert len(sizes) == len(batches)
        assert any(min(own) == 34 and max(own) == 37 for own in sizes)

    def test_matches_finite_differences(self):
        w = init_weights(num_classes=4, seed=3)
        pts = training_batch([40] * 3, seed=9)
        labels = np.array([0, 2, 3])

        def loss(w):
            logits = _batch_forward(w, pts)["logits"]
            shifted = logits - logits.max(axis=1, keepdims=True)
            return float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(3), labels]))

        fwd = _batch_forward(w, pts)
        grads = _batch_backward(w, fwd, train_cotangent(fwd["logits"], labels))
        rng = np.random.default_rng(0)
        h = 1e-6
        for arr, g in zip(w.arrays(), grads):
            # the entries with the largest gradient, plus random ones
            picks = [np.unravel_index(np.argmax(np.abs(g)), g.shape)]
            picks += [tuple(int(rng.integers(0, d)) for d in g.shape) for _ in range(3)]
            for idx in picks:
                keep = arr[idx]
                arr[idx] = keep + h
                up = loss(w)
                arr[idx] = keep - h
                down = loss(w)
                arr[idx] = keep
                fd = (up - down) / (2 * h)
                assert abs(fd - g[idx]) <= 1e-6 * max(1.0, abs(g[idx])), (idx, fd, g[idx])


class TestWeightsIO:
    def test_round_trip_bit_exact(self, tmp_path, small_weights):
        p = tmp_path / "w.bin"
        save_weights(small_weights, p)
        back = load_weights(p)
        for a, b in zip(small_weights.arrays(), back.arrays()):
            np.testing.assert_array_equal(a, b)
        X = generate_shape(0, 32, seed=3)
        np.testing.assert_array_equal(forward_logits(small_weights, X), forward_logits(back, X))

    def test_truncated_file_rejected(self, tmp_path, small_weights):
        p = tmp_path / "w.bin"
        save_weights(small_weights, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(p)

    def test_version_mismatch_rejected(self, tmp_path, small_weights):
        p = tmp_path / "w.bin"
        save_weights(small_weights, p)
        data = p.read_bytes().replace(b"PCBDET-WEIGHTS 1", b"PCBDET-WEIGHTS 9", 1)
        p.write_bytes(data)
        with pytest.raises(WeightsFormatError, match="version"):
            load_weights(p)

    def test_non_integer_version_rejected(self, tmp_path, small_weights):
        p = tmp_path / "w.bin"
        save_weights(small_weights, p)
        p.write_bytes(p.read_bytes().replace(b"PCBDET-WEIGHTS 1", b"PCBDET-WEIGHTS x", 1))
        with pytest.raises(WeightsFormatError, match="version x"):
            load_weights(p)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda head, meta, body: (head, [1, 2], body),  # a JSON list as the metadata
            lambda head, meta, body: (head, {**meta, "shapes": 5}, body),
            lambda head, meta, body: (head, {"shapes": meta["shapes"]}, body),  # no num_classes
            lambda head, meta, body: (head, {**meta, "num_classes": "3"}, body),
            lambda head, meta, body: (head, {**meta, "shapes": [["3", 64]] + meta["shapes"][1:]}, body),
            lambda head, meta, body: (head, {**meta, "shapes": meta["shapes"][:7]}, body),
            lambda head, meta, body: (head, {**meta, "num_classes": 4}, body),
            lambda head, meta, body: (head, meta, body[:1000]),  # truncated
            lambda head, meta, body: (head, meta, body + b"\0"),  # trailing bytes
            lambda head, meta, body: (head, meta, np.float64(np.nan).tobytes() + body[8:]),
            lambda head, meta, body: (head, "{", body),  # not JSON
        ],
        ids=["list", "shapes-int", "no-num-classes", "string-k", "string-dim", "seven-shapes", "k-mismatch",
             "truncated", "trailing", "nan", "bad-json"],
    )
    def test_malformed_file_names_the_file(self, tmp_path, small_weights, corrupt):
        p = tmp_path / "w.bin"
        save_weights(small_weights, p)
        head, meta, body = p.read_bytes().split(b"\n", 2)
        head, meta, body = corrupt(head, json.loads(meta), body)
        meta = meta if isinstance(meta, str) else json.dumps(meta)
        p.write_bytes(head + b"\n" + meta.encode("ascii") + b"\n" + body)
        with pytest.raises(WeightsFormatError, match="^" + re.escape(f"{p}: ")):
            load_weights(p)

    def test_not_a_weights_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"hello world\n")
        with pytest.raises(WeightsFormatError):
            load_weights(p)

    def test_wrong_k_vs_dataset_fails_at_use_site(self, tmp_path):
        w = init_weights(num_classes=3, seed=0)
        data = tiny_dataset(classes=4, per_class=1)
        preds = [predict(w, X) for X in data.clouds]
        assert all(p < 3 for p in preds)  # K comes from the weights, not the data
