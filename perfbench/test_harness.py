"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from pcbdet import classifier, estimation, pipeline  # noqa: E402
from pcbdet.report import STATS_HEADER  # noqa: E402


def span(i, parent, name, start, end):
    return [i, parent, name, start, end, None]


class TestSelfTime:
    # root 0..10 holds a 1..4 (which holds c 2..3) and b 5..9
    SPANS = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "c", 2.0, 3.0),
        span(3, 0, "b", 5.0, 9.0),
    ]

    def test_duration_minus_children(self):
        assert tracer.self_times(self.SPANS) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}

    def test_self_times_sum_to_root(self):
        selfs = tracer.self_times(self.SPANS)
        tree = tracer.subtree(self.SPANS, 0)
        assert sum(selfs[s[tracer.ID]] for s in tree) == pytest.approx(10.0)
        assert [s[tracer.ID] for s in tracer.subtree(self.SPANS, 1)] == [1, 2]

    def test_overlapping_children_count_once(self):
        spans = [span(0, None, "p", 0.0, 4.0), span(1, 0, "x", 1.0, 3.0), span(2, 0, "y", 2.0, 5.0)]
        assert tracer.self_times(spans)[0] == pytest.approx(1.0)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tr = tracer.Tracer(clock=lambda: float(next(ticks)))
        with tr.span("outer"):
            tr.wrap("inner", lambda: None)()
        assert [(s[tracer.NAME], s[tracer.PARENT]) for s in tr.spans] == [("outer", None), ("inner", 0)]
        assert tracer.self_times(tr.spans) == {0: 2.0, 1: 1.0}


class TestRebinder:
    def test_wraps_every_binding_and_restores(self):
        originals = (classifier.insertion_logits, estimation.insertion_logits, pipeline.estimate_group_location)
        assert estimation.insertion_logits is classifier.insertion_logits
        tr = tracer.Tracer()
        with tracer.Rebinder(tr) as rb:
            assert estimation.insertion_logits is not originals[1]
            assert estimation.insertion_logits is classifier.insertion_logits
            assert pipeline.estimate_group_location is estimation.estimate_group_location
            assert pipeline.estimate_group_location.__wrapped__ is originals[2]
            assert rb.missing == []
        assert (classifier.insertion_logits, estimation.insertion_logits, pipeline.estimate_group_location) == originals

    def test_restores_after_error(self):
        original = pipeline.build_detection_sets
        with pytest.raises(RuntimeError):
            with tracer.Rebinder(tracer.Tracer()):
                raise RuntimeError("stage failed")
        assert pipeline.build_detection_sets is original

    def test_missing_names_are_reported(self):
        layers = [
            ("classifier", "pcbdet.classifier", "no_such_function", None, ("s",)),
            ("gone", "pcbdet.no_such_module", "anything", None, ("s",)),
            ("classifier", "pcbdet.classifier", "pool_vector", None, ("s",)),
        ]
        with tracer.Rebinder(tracer.Tracer(), layers) as rb:
            assert rb.missing == ["classifier.no_such_function", "gone.anything"]
            assert estimation.pool_vector.__wrapped__ is classifier.pool_vector.__wrapped__
        assert not hasattr(classifier.pool_vector, "__wrapped__")


def write_csv(path, rows):
    path.write_text("\n".join([STATS_HEADER] + rows) + "\n", encoding="ascii")


def good_row(k):
    return f"{k},{(k + 1) % 3},0.5,0.6,0.1,0.2,0.3,2.0,1.2,0.4,0"


class TestValidator:
    def test_accepts_valid_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        write_csv(path, [good_row(k) for k in range(3)])
        assert [row["t_hat"] for row in checks.check_statistics_csv(path, 3)] == [1, 2, 0]

    @pytest.mark.parametrize(
        "rows",
        [
            [good_row(0), good_row(1)],  # a class is missing
            [good_row(0), good_row(1), good_row(2).replace("0.5", "nan")],
            [good_row(0), good_row(1), good_row(2).replace("0.6", "inf")],
            [good_row(0), good_row(1), "2,0,0.5"],  # truncated row
            [good_row(0), good_row(2), good_row(1)],  # classes out of order
            [good_row(0), good_row(1), good_row(2).replace("0.3", "x")],
        ],
    )
    def test_rejects_corrupted_csv(self, tmp_path, rows):
        path = tmp_path / "s.csv"
        write_csv(path, rows)
        with pytest.raises(checks.OutputError):
            checks.check_statistics_csv(path, 3)

    def test_rejects_bad_verdict_and_weights(self, tmp_path):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"verdict": "maybe"}))
        with pytest.raises(checks.OutputError):
            checks.check_report_json(report)
        weights = tmp_path / "w.weights"
        weights.write_bytes(b"PCBDET-WEIGHTS 1\n{}\n")
        with pytest.raises(checks.OutputError):
            checks.check_weights(weights)

    def test_digest_sees_content_and_missing_files(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("1")
        first = checks.digest([a])
        a.write_text("2")
        assert checks.digest([a]) != first
        with pytest.raises(checks.OutputError):
            checks.digest([tmp_path / "absent.txt"])


class TestHarness:
    def test_overrides_replace_known_keys_only(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# estimation\ntau_max = 3000\nphi = 0.05\n")
        run.apply_overrides(path, {"tau_max": 100})
        assert path.read_text() == "# estimation\ntau_max = 100\nphi = 0.05\n"
        with pytest.raises(ValueError, match="no_such_key"):
            run.apply_overrides(path, {"no_such_key": 1})

    def test_count_guard_flags_drift(self):
        def rep(calls, total):
            layers = {name: 1.0 for name, _ in run.PER_LAYER}
            layers["classifier.insertion_logits.calls"] = calls
            return {"layers": layers, "samplewise": [0.1] * 20, "timed_s": total, "cover": 0.9, "span_errors": []}

        metrics, guard = run._layer_metrics([rep(101, 2.0), rep(101, 2.2)], [rep(0, 2.0)])
        assert guard == []
        assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.1)
        _, guard = run._layer_metrics([rep(101, 2.0), rep(102, 2.0)], [rep(0, 2.0)])
        assert len(guard) == 1 and "insertion_logits.calls" in guard[0]

    def test_extra_pairs_fill_untraced_runs_only(self, tmp_path, monkeypatch):
        import time

        import workloads

        def stage(name, key, detect=None):
            return workloads.Stage(name, key, [key], True, [], metric=f"{key}_s", detect=detect)

        def make_round(seed, rep_dir):
            def pair(call):
                return [stage(f"{key}-{call}", key, (rep_dir, key)) for key in ("detect_attacked", "detect_clean")]

            return workloads.Round([stage("train", "train"), stage("attack", "attack"), *pair(1)], pair, 1)

        class FakeCli:
            @staticmethod
            def main(argv):
                # a repetition takes about 0.13 s, so a 0.5 s run leaves about
                # 0.1 s after its third repetition for 10 ms detect calls
                time.sleep(0.1 if argv == ["train"] else 0.01)
                return 0

        monkeypatch.setattr(run, "WORK", tmp_path)
        monkeypatch.setattr(run, "WORKLOADS", {"fake": make_round})
        monkeypatch.setattr(run, "_validate", lambda st: {"verdict": "clean"} if st.detect else None)
        monkeypatch.setattr(run, "_layer_metrics", lambda traced, untraced: ({}, []))
        untraced = run.run_workload("fake", 0, time.perf_counter() + 0.5, False, FakeCli, 0.0)
        calls = [len(rep["stages"]) for rep in untraced["reps"]]
        assert untraced["correct"] and untraced["samples"] >= 2
        assert calls[-1] > 4 and set(calls[:-1]) == {4}
        traced = run.run_workload("fake", 0, time.perf_counter() + 0.5, True, FakeCli, 0.0)
        assert traced["correct"] and len(traced["reps"]) >= 3
        assert {len(rep["stages"]) for rep in traced["reps"]} == {4}
        assert list(tmp_path.iterdir()) == []

    def test_benchmark_json_matches_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(__import__("workloads").WORKLOADS)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    def test_seeds_are_derived_and_distinct(self):
        import workloads

        roles = ("data", "train", "attack", "detect")
        seeds = {(s, r): workloads.derive_seed(s, r) for s in range(20) for r in roles}
        assert len(set(seeds.values())) == len(seeds)
        assert workloads.derive_seed(3, "data") == seeds[(3, "data")]
