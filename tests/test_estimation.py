import csv

import numpy as np
import pytest

from pcbdet import estimation
from pcbdet.classifier import init_weights, pool_vector
from pcbdet.estimation import (
    EstimationParams,
    SearchProblem,
    estimate_group_location,
    estimate_samplewise_location,
    vote_target_class,
)
from pcbdet.geometry import generate_shape
from pcbdet.inference import compute_r_s
from tests.oracles import distance_to_cloud, group_loss, predict, samplewise_loss
from tests.test_classifier import constant_logit_weights


def threshold_weights(theta, high_class=1, base_class=0, k=3):
    """Crafted net: predicts high_class when the cloud's max z exceeds theta.

    feature path: a2[0] = relu(max_z), head passes relu(pool0 - theta) into
    the high_class logit; otherwise logits are the constant base pattern.
    """
    w = constant_logit_weights(np.zeros(k))
    w.b4[base_class] = 1.0
    w.w1 = w.w1.copy()
    w.w1[2, 0] = 1.0  # feature 0 = relu(z)
    w.w2 = w.w2.copy()
    w.w2[0, 0] = 1.0  # channel 0 = relu(feature 0)
    w.w3 = w.w3.copy()
    w.w3[0, 0] = 1.0
    w.b3 = w.b3.copy()
    w.b3[0] = -theta  # a3[0] = relu(max_z - theta)
    w.w4 = w.w4.copy()
    w.w4[0, high_class] = 100.0
    return w


def cloud_with_max_z(z, n=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.5, 0.0, size=(n, 3))
    X[0, 2] = z
    return X


def problem(w, clouds, source, seed, **kwargs):
    """A SearchProblem over clouds, with their pools."""
    return SearchProblem(clouds, np.stack([pool_vector(w, X) for X in clouds]), source, seed, **kwargs)


def one_group(w, clouds, source, params, seed, trace_path=None):
    """One group search, run as a stack of one."""
    return estimate_group_location(w, [problem(w, clouds, source, seed, trace_path=trace_path)], params)[0]


def one_sample(w, X, source, target, params, seed, trace_path=None):
    """One sample-wise search, run as a stack of one."""
    return estimate_samplewise_location(w, [problem(w, [X], source, seed, target=target, trace_path=trace_path)], params)[0]


def read_trace(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestGroupLoss:
    def test_direct_arithmetic(self):
        # h(s)=2, best rival 5, one cloud at distance 0.5, lambda 1 -> -2.5
        w = constant_logit_weights([2.0, 5.0, 0.0])
        X = np.zeros((1, 3))
        c = np.array([0.5, 0.0, 0.0])
        assert group_loss(w, [X], source=0, c=c, lam=1.0) == pytest.approx(-2.5, abs=1e-12)

    def test_negative_when_all_misclassified_lambda_zero(self):
        w = constant_logit_weights([0.0, 3.0, 1.0])
        clouds = [generate_shape(0, 16, seed=i) for i in range(3)]
        assert group_loss(w, clouds, source=0, c=np.zeros(3), lam=0.0) < 0

    def test_linear_in_lambda(self):
        w = constant_logit_weights([1.0, 0.0, 2.0])
        clouds = [generate_shape(0, 16, seed=i) for i in range(4)]
        c = np.array([0.0, 0.0, 2.0])
        lam = 0.7
        base = group_loss(w, clouds, 0, c, lam)
        doubled = group_loss(w, clouds, 0, c, 2 * lam)
        total_d = sum(distance_to_cloud(c, X)[0] for X in clouds)
        assert doubled - base == pytest.approx(lam * total_d, rel=1e-12)


class TestAlgorithmMechanics:
    def test_rho_and_lambda_branch_arithmetic(self, tmp_path):
        # 9 of 10 clouds sit above the flip threshold on their own, so every
        # iterate sees rho = 0.9 >= pi and takes the lambda * alpha branch.
        w = threshold_weights(theta=5.0)
        clouds = [cloud_with_max_z(6.0, seed=i) for i in range(9)]
        clouds.append(cloud_with_max_z(-0.5, seed=99))
        params = EstimationParams(pi=0.9, delta=0.01, tau_max=5, alpha=1.5, n_restarts=1)
        trace = tmp_path / "trace.csv"
        one_group(w, clouds, source=0, params=params, seed=0, trace_path=trace)
        rows = read_trace(trace)
        assert [float(r["rho"]) for r in rows] == [0.9] * 5
        lams = [float(r["lambda"]) for r in rows]
        assert lams[0] == pytest.approx(1e-5 * 1.5)
        for a, b in zip(lams, lams[1:]):
            assert b == pytest.approx(a * 1.5, rel=1e-12)

    def test_lambda_shrinks_below_pi(self, tmp_path):
        # Only 8 of 10 flip: rho = 0.8 < pi = 0.9 -> divide branch.
        w = threshold_weights(theta=5.0)
        clouds = [cloud_with_max_z(6.0, seed=i) for i in range(8)]
        clouds += [cloud_with_max_z(-0.5, seed=90 + i) for i in range(2)]
        params = EstimationParams(pi=0.9, delta=0.01, tau_max=4, alpha=1.5, n_restarts=1)
        trace = tmp_path / "trace.csv"
        est = one_group(w, clouds, source=0, params=params, seed=0, trace_path=trace)
        rows = read_trace(trace)
        assert [float(r["rho"]) for r in rows] == [0.8] * 4
        lams = [float(r["lambda"]) for r in rows]
        assert lams[0] == pytest.approx(1e-5 / 1.5)
        for a, b in zip(lams, lams[1:]):
            assert b == pytest.approx(a / 1.5, rel=1e-12)
        assert est.failed  # rho never reached pi

    def test_lambda_always_positive(self, tmp_path):
        w = constant_logit_weights([0.0, 1.0, 0.0])  # always class 1 != source 0
        clouds = [generate_shape(0, 16, seed=i) for i in range(3)]
        params = EstimationParams(tau_max=30, n_restarts=2)
        trace = tmp_path / "trace.csv"
        one_group(w, clouds, source=0, params=params, seed=1, trace_path=trace)
        assert all(float(r["lambda"]) > 0 for r in read_trace(trace))

    def test_best_candidate_is_closest_feasible_iterate(self, tmp_path):
        # Always-misclassified classifier: every iterate is feasible, so the
        # returned center must be the traced iterate with the smallest total
        # source distance.
        w = constant_logit_weights([0.0, 1.0, 0.0])
        clouds = [generate_shape(0, 16, seed=i) for i in range(3)]
        params = EstimationParams(tau_max=40, n_restarts=3)
        trace = tmp_path / "trace.csv"
        est = one_group(w, clouds, source=0, params=params, seed=3, trace_path=trace)
        assert not est.failed
        best = np.inf
        for row in read_trace(trace):
            if float(row["rho"]) >= params.pi:
                c = np.array([float(row["cx"]), float(row["cy"]), float(row["cz"])])
                best = min(best, sum(distance_to_cloud(c, X)[0] for X in clouds))
        assert compute_r_s(est.center, clouds) * len(clouds) == pytest.approx(best, rel=1e-9)

    def test_step_length_capped_at_delta(self, tmp_path):
        # theta = -1: every cloud is predicted class 1, and a point with
        # z > 0 wins channel 0, where the margin's slope is 100. Uncapped,
        # such a step would be 100 * delta long.
        w = threshold_weights(theta=-1.0)
        clouds = [cloud_with_max_z(-0.5, seed=i) for i in range(3)]
        params = EstimationParams(delta=0.05, tau_max=20, n_restarts=6)
        trace = tmp_path / "trace.csv"
        one_group(w, clouds, source=0, params=params, seed=2, trace_path=trace)
        rows = read_trace(trace)
        steps = []
        for r in range(params.n_restarts):
            c = np.array([[float(row[k]) for k in ("cx", "cy", "cz")] for row in rows if int(row["restart"]) == r])
            steps.extend(np.linalg.norm(np.diff(c, axis=0), axis=1))
        assert max(steps) <= params.delta * (1 + 1e-12)
        assert max(steps) >= 0.99 * params.delta  # the cap binds

    def test_failed_when_never_feasible(self):
        w = constant_logit_weights([5.0, 0.0, 0.0])  # always predicts source 0
        clouds = [generate_shape(0, 16, seed=i) for i in range(3)]
        est = one_group(w, clouds, source=0, params=EstimationParams(tau_max=20, n_restarts=2), seed=0)
        assert est.failed
        assert est.center is None and est.target is None and est.rho == 0.0

    def test_returned_estimate_revalidates(self):
        # Every estimate of a stacked call, checked from scratch with
        # predict on the union: its rho and voted target are exact.
        w = init_weights(num_classes=4, seed=0)
        params = EstimationParams(tau_max=25, n_restarts=2)
        problems = [
            problem(w, [generate_shape(s, 32, seed=10 * s + i) for i in range(3)], s, seed=s) for s in range(4)
        ]
        estimates = estimate_group_location(w, problems, params)
        assert sum(not est.failed for est in estimates) >= 2
        for pr, est in zip(problems, estimates):
            if est.failed:
                continue
            preds = np.array([predict(w, np.vstack([X, est.center[None]])) for X in pr.clouds])
            assert est.rho == np.mean(preds != pr.source) and est.rho >= params.pi
            assert est.target == estimation._vote(preds, pr.source, w.num_classes)
            assert est.target == vote_target_class(w, pr.clouds, est.center, pr.source)

    def test_pools_each_cloud_once(self, monkeypatch):
        # Each cloud is pooled once, where its problem is built: rho and the
        # vote come from the descent on the problem's pools, and the search
        # pools no cloud itself.
        calls = []
        real_pool_vector = estimation.pool_vector

        def counting_pool_vector(w, X):
            calls.append(len(X))
            return real_pool_vector(w, X)

        monkeypatch.setattr(estimation, "pool_vector", counting_pool_vector)
        w = constant_logit_weights([0.0, 2.0, 1.0])
        clouds = [generate_shape(1, 16, seed=i) for i in range(4)]
        est = one_group(w, clouds, 0, EstimationParams(tau_max=25, n_restarts=2), seed=5)
        assert not est.failed and est.target == 1
        assert calls == []

    def test_deterministic(self):
        w = constant_logit_weights([0.0, 2.0, 1.0])
        clouds = [generate_shape(1, 16, seed=i) for i in range(3)]
        params = EstimationParams(tau_max=20, n_restarts=3)
        a = one_group(w, clouds, 0, params, seed=11)
        b = one_group(w, clouds, 0, params, seed=11)
        np.testing.assert_array_equal(a.center, b.center)
        assert compute_r_s(a.center, clouds) == compute_r_s(b.center, clouds)


class TestTraceLoss:
    """The trace's loss column is the objective at the row's c and lambda."""

    def test_group_search(self, tmp_path):
        w = init_weights(num_classes=4, seed=3)
        clouds = [generate_shape(1, 32, seed=i) for i in range(3)]
        trace = tmp_path / "group.csv"
        one_group(w, clouds, 1, EstimationParams(tau_max=30, n_restarts=2), seed=4, trace_path=trace)
        rows = read_trace(trace)
        assert len(rows) == 60
        for row in rows:
            c = np.array([float(row["cx"]), float(row["cy"]), float(row["cz"])])
            want = group_loss(w, clouds, 1, c, float(row["lambda"]))
            assert float(row["loss"]) == pytest.approx(want, rel=1e-9)

    def test_samplewise_search(self, tmp_path):
        w = init_weights(num_classes=4, seed=3)
        X = generate_shape(2, 32, seed=7)
        trace = tmp_path / "sample.csv"
        params = EstimationParams(tau_max=30, n_restarts=2)
        one_sample(w, X, 2, 0, params, seed=6, trace_path=trace)
        rows = read_trace(trace)
        assert len(rows) == 60
        for row in rows:
            c = np.array([float(row["cx"]), float(row["cy"]), float(row["cz"])])
            want = samplewise_loss(w, X, 2, 0, c, float(row["lambda"]))
            assert float(row["loss"]) == pytest.approx(want, rel=1e-9)


class TestStacking:
    """A problem's result is the same bits alone (a stack of one) as in a
    stack, whatever else the stack holds."""

    params = EstimationParams(tau_max=30, n_restarts=3)

    @staticmethod
    def count_stacks(monkeypatch):
        sizes = []
        real_descent = estimation._descent

        def counting_descent(w, problems, params):
            sizes.append(len(problems))
            return real_descent(w, problems, params)

        monkeypatch.setattr(estimation, "_descent", counting_descent)
        return sizes

    @staticmethod
    def assert_same_point(a, b):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()

    def test_group_search(self, tmp_path, monkeypatch):
        # Random net 0 predicts class 1 for every cloud, so class 1's search
        # fails. Classes 0 and 2 have two clouds, 1 and 3 three: two stacks.
        w = init_weights(num_classes=4, seed=0)

        def problems(tag):
            return [
                problem(
                    w,
                    [generate_shape(s, 32, seed=10 * s + i) for i in range(3 if s % 2 else 2)],
                    s,
                    seed=s,
                    trace_path=tmp_path / f"{tag}-{s}.csv",
                )
                for s in range(4)
            ]

        alone = [estimate_group_location(w, [pr], self.params)[0] for pr in problems("alone")]
        sizes = self.count_stacks(monkeypatch)
        stacked = estimate_group_location(w, problems("stack"), self.params)
        assert sizes == [2, 2]
        assert [est.failed for est in stacked] == [False, True, False, False]
        for a, b in zip(stacked, alone):
            assert (a.target, a.rho) == (b.target, b.rho)
            self.assert_same_point(a.center, b.center)
        for s in range(4):
            assert (tmp_path / f"stack-{s}.csv").read_bytes() == (tmp_path / f"alone-{s}.csv").read_bytes()

    def test_samplewise_search(self, monkeypatch):
        # Every (source, target) pair of random net 2, on clouds of 32 points
        # for odd targets and 48 for even ones: two stacks, some searches fail.
        w = init_weights(num_classes=4, seed=2)
        problems = [
            problem(w, [generate_shape(s, 32 if t % 2 else 48, seed=7 * s + t)], s, seed=100 + 4 * s + t, target=t)
            for s in range(4)
            for t in range(4)
            if t != s
        ]
        alone = [estimate_samplewise_location(w, [pr], self.params)[0] for pr in problems]
        sizes = self.count_stacks(monkeypatch)
        stacked = estimate_samplewise_location(w, problems, self.params)
        assert sizes == [6, 6]
        assert 0 < sum(c is None for c in stacked) < len(problems)
        for a, b in zip(stacked, alone):
            self.assert_same_point(a, b)

    def test_empty_stack(self):
        w = init_weights(num_classes=3, seed=0)
        assert estimate_group_location(w, [], self.params) == []
        assert estimate_samplewise_location(w, [], self.params) == []


class TestVoting:
    """_vote on the predictions at a group estimate's center."""

    def test_unanimous_vote(self):
        assert estimation._vote(np.full(10, 3), source=0, num_classes=4) == 3

    def test_tie_breaks_low(self):
        # 5 clouds flip to class 2, 5 to class 1 -> tie -> pick 1.
        assert estimation._vote(np.array([2] * 5 + [1] * 5), source=0, num_classes=3) == 1

    def test_source_excluded_from_vote(self):
        # 9 clouds predict the source class itself; 1 predicts class 2.
        assert estimation._vote(np.array([0] * 9 + [2]), source=0, num_classes=3) == 2

    def test_failed_estimate_rejected(self, monkeypatch):
        # A search that never becomes feasible casts no vote.
        def no_vote(*args):
            raise AssertionError("a failed estimate was voted on")

        monkeypatch.setattr(estimation, "_vote", no_vote)
        w = constant_logit_weights([5.0, 0.0, 0.0])  # always predicts source 0
        clouds = [generate_shape(0, 16, seed=i) for i in range(3)]
        est = one_group(w, clouds, source=0, params=EstimationParams(tau_max=5, n_restarts=2), seed=0)
        assert est.failed and est.target is None
        with pytest.raises(ValueError):
            vote_target_class(w, clouds, est.center, source=0)


class TestSampleWise:
    def test_loss_structure(self):
        w = constant_logit_weights([2.0, 0.0, 5.0])
        X = np.zeros((1, 3))
        c = np.array([0.0, 0.5, 0.0])
        # h(s) - h(t) + lam * d = 2 - 5 + 0.3 * 0.5
        assert samplewise_loss(w, X, source=0, target=2, c=c, lam=0.3) == pytest.approx(-2.85)

    def test_lambda_gradient_is_distance_gradient(self):
        # With an all-zero network the update direction is exactly the
        # regularizer: after one step c moves by -delta*lambda*dist_grad.
        w = constant_logit_weights([0.0, 1.0])
        X = np.zeros((1, 3))
        params = EstimationParams(pi=1.0, delta=0.5, tau_max=1, alpha=1.5, lambda0=0.2, n_restarts=1)
        rng = np.random.default_rng([13, 0xA16])
        c0 = rng.normal(size=(1, 3))[0]
        est = one_sample(w, X, source=0, target=1, params=params, seed=13)
        expected = c0 - 0.5 * 0.2 * (c0 / np.linalg.norm(c0))
        np.testing.assert_allclose(est, expected, rtol=1e-12)

    def test_feasibility_is_targeted(self):
        # Classifier flips to class 2, never to class 1: targeting class 1
        # must fail even though the cloud is misclassified away from source.
        w = constant_logit_weights([0.0, 0.0, 3.0])
        X = generate_shape(0, 16, seed=0)
        params = EstimationParams(tau_max=10, n_restarts=2)
        assert one_sample(w, X, 0, 1, params, seed=0) is None
        got = one_sample(w, X, 0, 2, params, seed=0)
        assert got is not None

    def test_deterministic(self):
        w = constant_logit_weights([0.0, 1.0, 0.0])
        X = generate_shape(2, 16, seed=4)
        params = EstimationParams(tau_max=15, n_restarts=2)
        a = one_sample(w, X, 0, 1, params, seed=21)
        b = one_sample(w, X, 0, 1, params, seed=21)
        np.testing.assert_array_equal(a, b)

    def test_same_target_rejected(self):
        w = constant_logit_weights([0.0, 1.0])
        with pytest.raises(ValueError):
            one_sample(w, np.zeros((1, 3)), 0, 0, EstimationParams(tau_max=1), seed=0)

    def test_problem_kind_checked(self):
        # A group search takes no target; a sample-wise search needs one.
        w = constant_logit_weights([0.0, 1.0])
        X = np.zeros((1, 3))
        with pytest.raises(ValueError, match="no target"):
            estimate_group_location(w, [problem(w, [X], 0, seed=0, target=1)], EstimationParams(tau_max=1))
        with pytest.raises(ValueError, match="needs a target"):
            estimate_samplewise_location(w, [problem(w, [X], 0, seed=0)], EstimationParams(tau_max=1))

    def test_pools_checked(self):
        w = constant_logit_weights([0.0, 1.0])
        X = np.zeros((1, 3))
        with pytest.raises(ValueError, match="one 128-channel pool per cloud"):
            estimate_group_location(w, [SearchProblem([X], np.zeros((2, 128)), 0, seed=0)], EstimationParams(tau_max=1))


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pi": 0.0},
            {"pi": 1.5},
            {"delta": -1.0},
            {"alpha": 1.0},
            {"tau_max": 0},
            {"lambda0": 0.0},
            {"n_restarts": 0},
        ],
    )
    def test_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            EstimationParams(**kwargs)
