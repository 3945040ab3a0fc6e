"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria share one desk-scale protocol run: an 8-class
synthetic dataset (100 train / 20 test / 10 clean per class, 256 points per
cloud), three attacked models for three source/target pairs with per-pair
training seeds, the three matching clean models, and full detection with the
standard estimation settings (pi 0.9, step 0.1, 3000 iterations, scaling 1.5,
10 restarts, 10 clean clouds per class, threshold 0.05).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from pcbdet.classifier import (
    forward_logits,
    init_weights,
    insertion_gradient,
    insertion_logits,
    margin_cotangent,
    pool_vector,
)
from pcbdet.config import default_config
from pcbdet import pipeline
from pcbdet.inference import (
    NullFit,
    combined_statistic,
    compute_w,
    fit_gamma_null,
    order_statistic_pvalue,
)
from pcbdet.report import read_statistics_csv

pytestmark = pytest.mark.acceptance

# (source, target, training seed) triples; distinct seeds give three distinct
# clean/poisoned model pairs.
ATTACK_PAIRS = [(2, 4, 0), (6, 2, 1), (4, 2, 2)]

PHI = 0.05


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def protocol(tmp_path_factory):
    """Full desk-scale experiment; every later criterion reads from this."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg = default_config()
    cfg.out_dir = str(root)
    results = {"root": root, "cfg": cfg, "pairs": [], "times": {}}

    t0 = time.monotonic()
    pipeline.gen_data_stage(cfg)
    results["times"]["gen"] = time.monotonic() - t0

    for source, target, seed in ATTACK_PAIRS:
        run = {"source": source, "target": target, "seed": seed}
        out = root / f"pair-{source}-{target}"
        out.mkdir()
        for name in ("train.txt", "test.txt", "clean.txt", "reserve.txt"):
            (out / name).write_bytes((root / name).read_bytes())
        pcfg = default_config()
        pcfg.train.seed = seed
        pcfg.attack.source = source
        pcfg.attack.target = target
        pcfg.attack.seed = 100 + source
        pcfg.out_dir = str(out)

        t0 = time.monotonic()
        run["train_metrics"] = pipeline.train_stage(pcfg)
        run["train_time"] = time.monotonic() - t0

        run["attack_metrics"] = pipeline.attack_stage(pcfg, clean_weights=out / "clean.weights")

        t0 = time.monotonic()
        run["report_bad"] = pipeline.detect_stage(pcfg, out / "poisoned.weights", prefix="bad")
        run["detect_bad_time"] = time.monotonic() - t0

        t0 = time.monotonic()
        run["report_clean"] = pipeline.detect_stage(pcfg, out / "clean.weights", prefix="cln")
        run["detect_clean_time"] = time.monotonic() - t0

        run["out"] = out
        results["pairs"].append(run)
    return results


class TestCriteria:
    def test_c01_gradient_matches_finite_differences(self):
        w = init_weights(num_classes=8, seed=11)
        rng = np.random.default_rng(42)
        h = 1e-4
        t0 = time.monotonic()
        checked = 0
        worst = 0.0
        while checked < 100:
            X = rng.normal(size=(16, 3))
            c = rng.normal(size=3) * 1.2
            source = int(rng.integers(0, 8))
            base = pool_vector(w, X)
            feat = pool_vector(w, np.vstack([X, c[None]]))
            margin_ch = feat - base
            if not np.any(margin_ch > 1e-3):
                continue
            if np.any(np.abs(margin_ch[margin_ch != 0]) < 1e-3):
                continue

            def cw(cc):
                logits = forward_logits(w, np.vstack([X, cc[None]]))
                others = np.delete(logits, source)
                return logits[source] - others.max()

            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (cw(c + e) - cw(c - e)) / (2 * h)
            logits, cache = insertion_logits(w, pool_vector(w, X)[None], c)
            g = insertion_gradient(w, cache, margin_cotangent(logits, source, None))
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, rel)
            checked += 1
        elapsed = time.monotonic() - t0
        ok = worst <= 1e-3 and elapsed < 60
        criterion(1, ok, f"100 probes, worst relative error {worst:.2e}, {elapsed:.1f}s")

    def test_c02_logit_invariances_bit_exact(self):
        w = init_weights(num_classes=8, seed=12)
        rng = np.random.default_rng(43)
        exact = True
        for _ in range(100):
            X = rng.normal(size=(rng.integers(2, 40), 3))
            perm = rng.permutation(len(X))
            dup = np.vstack([X, X[rng.integers(0, len(X))][None]])
            a = forward_logits(w, X)
            if not (np.array_equal(a, forward_logits(w, X[perm])) and np.array_equal(a, forward_logits(w, dup))):
                exact = False
                break
        criterion(2, exact, "permutation and duplicate invariance bit-exact on 100 probes")

    def test_c03_clean_training_accuracy(self, protocol):
        run = protocol["pairs"][0]
        acc = run["train_metrics"]["test_accuracy"]
        elapsed = run["train_time"]
        ok = acc >= 0.90 and elapsed < 600
        criterion(3, ok, f"clean test accuracy {acc:.3f} in {elapsed:.0f}s (needs >= 0.90 within 600s)")

    def test_c04_attack_effectiveness(self, protocol):
        good = 0
        details = []
        for run in protocol["pairs"]:
            m = run["attack_metrics"]
            hit = m["attack_success_rate"] >= 0.80 and m["clean_accuracy_delta"] <= 0.02
            good += hit
            details.append(
                f"{run['source']}->{run['target']}: asr {m['attack_success_rate']:.2f}, "
                f"delta {m['clean_accuracy_delta']:.3f}"
            )
        criterion(4, good >= 2, f"{good}/3 pairs effective ({'; '.join(details)})")

    def test_c05_detection_attacked(self, protocol):
        good = 0
        details = []
        for run in protocol["pairs"]:
            rep = run["report_bad"]
            pv = rep.pvalue.pv if rep.pvalue else 1.0
            hit = (
                rep.verdict == "attacked"
                and pv < PHI
                and rep.inferred_target == run["target"]
                and run["detect_bad_time"] <= 1800
            )
            good += hit
            details.append(
                f"{run['source']}->{run['target']}: pv {pv:.3g}, target {rep.inferred_target}, "
                f"{run['detect_bad_time']:.0f}s"
            )
        criterion(5, good >= 2, f"{good}/3 attacks detected with correct target ({'; '.join(details)})")

    def test_c06_detection_clean(self, protocol):
        good = 0
        details = []
        for run in protocol["pairs"]:
            rep = run["report_clean"]
            pv = rep.pvalue.pv if rep.pvalue else 1.0
            hit = rep.verdict != "attacked" and (rep.pvalue is None or pv >= PHI)
            good += hit
            details.append(f"seed {run['seed']}: pv {pv:.3g}")
        criterion(6, good == 3, f"{good}/3 clean models pass (zero false detections; {'; '.join(details)})")

    def test_c07_statistic_arithmetic(self):
        checks = []
        checks.append(np.allclose(compute_w([0.2, 0.8, 0.5]), [0.0, 1.0, 0.5], atol=1e-12))
        checks.append(np.array_equal(compute_w([0.4, 0.4, 0.4]), [1.0, 1.0, 1.0]))
        checks.append(np.allclose(compute_w([-1.0, 1.0]), [0.0, 1.0], atol=1e-12))
        checks.append(abs(combined_statistic(0.5, 0.2, 0.1) - 1.0) < 1e-12)
        checks.append(combined_statistic(0.0, 9.9, 0.1) == 0.0)
        checks.append(abs(combined_statistic(1.0, 0.7, 0.7) - 1.0) < 1e-12)
        fit = NullFit(shape=1.0, scale=1.0)
        pv38 = order_statistic_pvalue(fit, -math.log(0.01), 39, 1).pv
        checks.append(abs(pv38 - (1 - 0.99**38)) <= 1e-6)
        pv_med = order_statistic_pvalue(fit, math.log(2.0), 2, 1).pv
        checks.append(abs(pv_med - 0.5) <= 1e-9)
        big = order_statistic_pvalue(fit, 800.0, 10, 1)
        checks.append(big.underflow and big.pv == 0.0)
        ok = all(checks)
        criterion(7, ok, f"{sum(checks)}/{len(checks)} statistic arithmetic examples exact "
                         f"(incl. 1-0.99^38 = {pv38:.6f})")

    def test_c08_gamma_fit_and_calibration(self):
        rng = np.random.default_rng(1234)
        fit = fit_gamma_null(rng.gamma(2.0, 1.0, size=1000))
        shape_ok = 1.8 <= fit.shape <= 2.2
        scale_ok = 0.9 <= fit.scale <= 1.1
        null = NullFit(shape=2.0, scale=1.3)
        rng = np.random.default_rng(77)
        m = 7
        pvs = np.sort([
            order_statistic_pvalue(null, rng.gamma(null.shape, null.scale, size=m).max(), m + 1, 1).pv
            for _ in range(1000)
        ])
        grid = np.arange(1, 1001) / 1000.0
        ks = float(np.max(np.maximum(np.abs(grid - pvs), np.abs(grid - 1.0 / 1000 - pvs))))
        ok = shape_ok and scale_ok and ks <= 0.06
        criterion(8, ok, f"MLE shape {fit.shape:.3f}, scale {fit.scale:.3f}; calibration KS {ks:.3f}")

    def test_c09_ablation_families_in_csv(self, protocol):
        run = protocol["pairs"][0]
        rows = read_statistics_csv(run["out"] / "bad-statistics.csv")
        ok = len(rows) == 8
        for row in rows:
            for col in ("inv_rs", "rt_over_rs", "w_over_rs", "r"):
                ok = ok and col in row
            if row["t_hat"] == -1:
                ok = ok and row["inv_rs"] == row["rt_over_rs"] == row["w_over_rs"] == row["r"] == 0.0
            elif row["r_s"] > 0:
                ok = ok and abs(row["inv_rs"] - 1.0 / row["r_s"]) < 1e-9
                ok = ok and abs(row["rt_over_rs"] - row["r_t"] / row["r_s"]) < 1e-9
                ok = ok and abs(row["w_over_rs"] - row["w"] / row["r_s"]) < 1e-9
        criterion(9, ok, "all four statistic families present per class with stated conventions")

    def test_c10_stage_determinism(self, tmp_path):
        cfg = default_config()
        cfg.data.classes = 8
        cfg.data.train_per_class = 16
        cfg.data.test_per_class = 3
        cfg.data.clean_per_class = 5
        cfg.data.reserve_per_class = 3
        cfg.data.points_per_cloud = 64
        cfg.train.epochs = 20
        cfg.attack.poison_count = 3
        cfg.estimation.tau_max = 60
        cfg.estimation.n_restarts = 3

        def run_all(out: Path):
            out.mkdir()
            cfg.out_dir = str(out)
            pipeline.gen_data_stage(cfg)
            pipeline.train_stage(cfg)
            pipeline.attack_stage(cfg, clean_weights=out / "clean.weights")
            pipeline.detect_stage(cfg, out / "poisoned.weights", prefix="d")
            names = [
                "manifest.json", "train.txt", "test.txt", "clean.txt", "reserve.txt",
                "train-metrics.json", "clean.weights", "pattern.txt", "poisoned.weights",
                "attack-metrics.json", "d-statistics.csv", "d-report.json", "d-histogram.svg",
            ]
            return {n: (out / n).read_bytes() for n in names}

        first = run_all(tmp_path / "a")
        second = run_all(tmp_path / "b")
        same = [n for n in first if first[n] == second[n]]
        ok = len(same) == len(first)
        criterion(10, ok, f"{len(same)}/{len(first)} stage outputs byte-identical across reruns")
