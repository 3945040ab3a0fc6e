import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pcbdet import estimation, pipeline
from pcbdet.attack import AttackConfig
from pcbdet.cli import EXIT_ATTACKED, EXIT_CLEAN, main
from pcbdet.config import SECTIONS, DataConfig, RunConfig, default_config, load_config, save_config
from pcbdet.classifier import TrainConfig, init_weights, load_weights, predict, save_weights
from pcbdet.estimation import EstimationParams
from pcbdet.geometry import load_dataset
from pcbdet.inference import ClassStatistics, DetectionReport, NullFit, PValue, detect
from pcbdet.report import (
    STATS_HEADER,
    read_report,
    read_statistics_csv,
    write_histogram_svg,
    write_report_json,
    write_statistics_csv,
)


def tiny_config(out_dir) -> RunConfig:
    cfg = default_config()
    cfg.data.classes = 8
    cfg.data.train_per_class = 16
    cfg.data.test_per_class = 3
    cfg.data.clean_per_class = 5
    cfg.data.reserve_per_class = 3
    cfg.data.points_per_cloud = 64
    cfg.train.epochs = 20
    cfg.attack.poison_count = 3
    cfg.estimation.tau_max = 40
    cfg.estimation.n_restarts = 2
    cfg.out_dir = str(out_dir)
    return cfg


def _env_with_src(**extra) -> dict:
    """The environment for a child Python that imports this checkout's pcbdet."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        back = load_config(path)
        assert back.data.train_per_class == cfg.data.train_per_class
        assert back.estimation.tau_max == 40
        assert back.phi == cfg.phi
        assert back.out_dir == cfg.out_dir

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# hello\n\npi = 0.8  # trailing comment\nphi=0.1\n")
        cfg = load_config(path)
        assert cfg.estimation.pi == 0.8
        assert cfg.phi == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    # Fixed choices of the stand-in classifier and attack, not settings.
    @pytest.mark.parametrize("key", ["outlier_points", "outlier_radius", "logit_scale", "center_candidates"])
    def test_retired_key_rejected(self, tmp_path, key):
        path = tmp_path / "c.cfg"
        path.write_text(f"pi = 0.9\n{key} = 1\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 2: unknown key {key!r}")):
            load_config(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\npi = fast\n")
        with pytest.raises(ValueError, match="line 2"):
            load_config(path)

    def test_validation_applies(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("attack_source = 3\nattack_target = 3\n")
        with pytest.raises(ValueError, match="differ"):
            load_config(path)

    @pytest.mark.parametrize("line", ["poison_count = 0", "pattern_points = 0", "standoff = 0.0"])
    def test_attack_section_validated_at_load(self, tmp_path, line):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            load_config(path)

    @pytest.mark.parametrize(
        "line, names_line",
        [
            ("delta = nan", True),
            ("learning_rate = inf", True),
            ("alpha = inf", True),
            ("lambda0 = inf", True),
            ("standoff = inf", True),
            ("pattern_radius = -1", False),
            ("points_per_cloud = 8", False),
            ("train_per_class = -1", False),
            ("batch_size = 0", False),
            ("classes = 9", False),
        ],
    )
    def test_bad_value_fails_at_load(self, tmp_path, line, names_line):
        path = tmp_path / "c.cfg"
        path.write_text("# run\n" + line + "\n")
        prefix = f"{path}: line 2: " if names_line else f"{path}: "
        with pytest.raises(ValueError, match="^" + re.escape(prefix)):
            load_config(path)

    def test_zero_counts_load(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("".join(f"{split}_per_class = 0\n" for split in ("train", "test", "clean", "reserve")))
        assert load_config(path).data.train_per_class == 0

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("pi = 0.5\n# again\npi = 0.7\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 3: repeated key 'pi', first set at line 1")):
            load_config(path)

    def test_every_section_field_has_one_key(self):
        keys = [key for _, _, _, section in SECTIONS for key in section]
        assert len(keys) == len(set(keys))
        section_attrs = {attr for _, _, attr, _ in SECTIONS if attr is not None}
        for _, cls, attr, section in SECTIONS:
            names = [f.name for f in fields(cls) if attr is not None or f.name not in section_attrs]
            assert sorted(section.values()) == sorted(names), cls.__name__

    def test_every_key_round_trips(self, tmp_path):
        # Each key gets a value that differs from its default and from every
        # other key's value, so a key wired to the wrong field shows.
        text = """\
classes = 7
train_per_class = 11
test_per_class = 12
clean_per_class = 13
reserve_per_class = 14
points_per_cloud = 17
data_seed = 18
epochs = 19
batch_size = 20
learning_rate = 0.021
train_seed = 22
attack_source = 1
attack_target = 6
poison_count = 26
pattern_points = 27
pattern_radius = 0.28
attack_seed = 29
standoff = 0.3
pi = 0.32
delta = 0.33
tau_max = 34
alpha = 3.5
lambda0 = 0.036
restarts = 37
detect_seed = 38
phi = 0.039
out_dir = runs/forty
"""
        expected = RunConfig(
            data=DataConfig(classes=7, train_per_class=11, test_per_class=12, clean_per_class=13,
                            reserve_per_class=14, points_per_cloud=17, seed=18),
            train=TrainConfig(epochs=19, batch_size=20, learning_rate=0.021, seed=22),
            attack=AttackConfig(source=1, target=6, poison_count=26, pattern_points=27, pattern_radius=0.28,
                                seed=29, standoff=0.3),
            estimation=EstimationParams(pi=0.32, delta=0.33, tau_max=34, alpha=3.5, lambda0=0.036, n_restarts=37),
            detect_seed=38,
            phi=0.039,
            out_dir="runs/forty",
        )
        given, saved = tmp_path / "given.cfg", tmp_path / "saved.cfg"
        given.write_text(text)
        assert load_config(given) == expected
        save_config(expected, saved)
        lines = [ln for ln in saved.read_text().splitlines() if ln and not ln.startswith("#")]
        assert lines == text.splitlines()
        assert load_config(saved) == expected

    def test_default_attack_section(self):
        # RunConfig holds the attack module's own config dataclass.
        assert default_config().attack == AttackConfig(
            source=2, target=4, poison_count=15, pattern_points=3, pattern_radius=0.05, seed=3, standoff=0.2,
        )


class TestGenData:
    def test_manifest_totals_and_disjoint_ranges(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        manifest = pipeline.gen_data_stage(cfg, cfg.out_dir)
        assert manifest["totals"] == {"train": 128, "test": 24, "clean": 40, "reserve": 24}
        ranges = manifest["sample_id_ranges"]
        spans = sorted(ranges.values())
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo  # disjoint by sample id

    def test_deterministic_bytes(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        pipeline.gen_data_stage(cfg, cfg.out_dir)
        first = {p.name: p.read_bytes() for p in Path(cfg.out_dir).iterdir()}
        pipeline.gen_data_stage(cfg, cfg.out_dir)
        second = {p.name: p.read_bytes() for p in Path(cfg.out_dir).iterdir()}
        assert first == second

    def test_splits_load_back(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        pipeline.gen_data_stage(cfg, cfg.out_dir)
        train = load_dataset(Path(cfg.out_dir) / "train.txt", cfg.data.classes)
        clean = load_dataset(Path(cfg.out_dir) / "clean.txt", cfg.data.classes)
        assert len(train) == 128 and len(clean) == 40
        assert train.num_classes == clean.num_classes == 8


def fake_report(r_values, excluded=(1,)):
    stats = [
        ClassStatistics(source=i, t_hat=(i + 1) % len(r_values), r_s=0.5, r_t=0.4, z=0.3, w=0.6, r=v)
        for i, v in enumerate(r_values)
    ]
    stats[0] = ClassStatistics(source=0, t_hat=None, r_s=0.0, r_t=0.0, z=0.0, w=0.0, r=0.0)
    return DetectionReport(
        stats=stats,
        excluded=tuple(excluded),
        fit=NullFit(shape=1.2, scale=0.4),
        pvalue=PValue(pv=0.3, log_pv=np.log(0.3)),
        phi=0.05,
    )


class TestReportArtifacts:
    def test_csv_schema_and_round_trip(self, tmp_path):
        report = fake_report([0.0, 0.5, 1.2, 0.3, 0.1, 0.2, 0.4, 0.15])
        path = tmp_path / "stats.csv"
        write_statistics_csv(report, path)
        text = path.read_text()
        assert text.splitlines()[0] == STATS_HEADER
        rows = read_statistics_csv(path)
        assert len(rows) == 8
        assert rows[0]["t_hat"] == -1  # failed estimate marker
        assert rows[1]["excluded"] == 1
        assert rows[2]["r"] == pytest.approx(1.2)

    def test_failed_class_all_zero_families(self, tmp_path):
        report = fake_report([0.0, 0.5, 1.2, 0.3, 0.1, 0.2, 0.4, 0.15])
        path = tmp_path / "stats.csv"
        write_statistics_csv(report, path)
        row0 = read_statistics_csv(path)[0]
        assert row0["inv_rs"] == row0["rt_over_rs"] == row0["w_over_rs"] == row0["r"] == 0.0

    def test_negative_cosine_read(self, tmp_path):
        # z is a cosine, the one statistic that may be negative.
        path = tmp_path / "stats.csv"
        write_statistics_csv(fake_report([0.0, 0.5, 1.2, 0.3, 0.1, 0.2, 0.4, 0.15]), path)
        path.write_text(re.sub(r"^(2,(?:[^,]*,){3})[^,]*", r"\1-0.75", path.read_text(), flags=re.M))
        assert read_statistics_csv(path)[2]["z"] == -0.75

    def test_report_json_fields(self, tmp_path):
        report = fake_report([0.0, 0.5, 1.2, 0.3, 0.1, 0.2, 0.4, 0.15])
        path = tmp_path / "report.json"
        write_report_json(report, path)
        data = json.loads(path.read_text())
        for key in ("verdict", "pv", "log_pv", "phi", "s_max", "inferred_target",
                    "gamma_shape", "gamma_scale", "J", "K"):
            assert key in data
        assert data["K"] == 8 and data["J"] == 1

    def test_svg_deterministic_and_no_timestamp(self, tmp_path):
        report = fake_report([0.0, 0.5, 1.2, 0.3, 0.1, 0.2, 0.4, 0.15])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_histogram_svg(report, a)
        write_histogram_svg(report, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"generated" not in a.read_bytes()

    @pytest.mark.parametrize("inconclusive", [False, True])
    def test_read_report_round_trip(self, tmp_path, inconclusive):
        report = fake_report([0.0, 0.5, 1.2, 0.3, 0.1, 0.2, 0.4, 0.15])
        report.order_pvalue = PValue(pv=1e-5, log_pv=np.log(1e-5))
        if inconclusive:
            report.fit = report.pvalue = report.order_pvalue = None
        writers = {"s.csv": write_statistics_csv, "r.json": write_report_json, "h.svg": write_histogram_svg}
        for name, write in writers.items():
            write(report, tmp_path / name)
        back = read_report(tmp_path / "s.csv", tmp_path / "r.json")
        for name, write in writers.items():
            write(back, tmp_path / f"back-{name}")
            assert (tmp_path / f"back-{name}").read_bytes() == (tmp_path / name).read_bytes(), name

    def test_inconclusive_report_marks_its_held_out_class(self, tmp_path, capsys):
        # Too few classes for a null: inconclusive, with class 2 (the top
        # statistic) held out all the same.
        stats = [
            ClassStatistics(source=s, t_hat=t, r_s=1.0, r_t=1.0, z=0.5, w=0.5, r=r)
            for s, (t, r) in enumerate(zip((1, 2, 0), (1.0, 2.0, 3.0)))
        ]
        report = detect(stats, phi=0.05)
        assert report.verdict == "inconclusive" and report.excluded == (2,)
        csv, js, svg = tmp_path / "s.csv", tmp_path / "r.json", tmp_path / "h.svg"
        write_statistics_csv(report, csv)
        write_report_json(report, js)
        assert [row["excluded"] for row in read_statistics_csv(csv)] == [0, 0, 1]
        assert json.loads(js.read_text())["J"] == 1
        capsys.readouterr()
        assert main(["report", "--stats", str(csv), "--report", str(js), "--out", str(svg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "verdict inconclusive  pv n/a  K 3  J 1"
        assert [line.split(":")[0].strip() for line in out if line.endswith(" *")] == ["class 2"]
        assert 'fill="#cc5544"' in svg.read_text()


# SHA-256 of the mini run's stage outputs: its splits, manifest, weights,
# metrics and pattern, and detect's three outputs on each weights file (prefix
# golden-<weights>). See TestCliPipeline.test_stage_outputs_keep_their_bytes.
GOLDEN_DIGESTS = {
    "train.txt": "05ca74aaf0991e8740150ba8b5afd72d19acfd4f248e15c7e599af1317230453",
    "test.txt": "c6b3efc1e8ca8a604a3cabfd017aa1b5a36425a80fa91ef62b4827cabbaed6c5",
    "clean.txt": "ba1d4c09430dc292a8e06a730198e3ecc98f1b583e2ec0f6cfcbe5da3f6828f1",
    "reserve.txt": "7e66844f2408fe3e1219684915856144f6185bf3d7956d22d211b611a69b55ff",
    "manifest.json": "9dce8e927c0ea821e35cb275adb467010bb66177e652cabe0f781e46b4c5b051",
    "clean.weights": "dd7ac1e6c54d2bd4cb3e628ab2a79eb2dea9c774b411d822d904df1eb53fd9e5",
    "train-metrics.json": "e6d616b273787e3114619f86e221ff720b29bf50cd9730c4a58f1c06c7e19a23",
    "pattern.txt": "015929a4bf70d3f36dd4e89acb1f35b8d6d78d341b6312dd1c89b1cdf3453e66",
    "poisoned.weights": "1a2e048b5bc551fa171287c4869d5785bcc3c49866f2d6d0fe5ca0cb47819458",
    "attack-metrics.json": "abf35bc70381ab86b53ebf9d17e3a98b8993686dfdb78a9a61890ec1692c2358",
    "golden-clean-statistics.csv": "24606a311e094e7d8a920c31beeed37e91bb0f2a3b04835f4cd9662010307f02",
    "golden-clean-report.json": "a915193dbcfb2007706d58d7df81e2771868a2748fed60acccd5c9311a9cd372",
    "golden-clean-histogram.svg": "2cc8bbd10076bf8ffebd6166291ebc2ab82e2010fe32da58a0133b2e4095f99f",
    "golden-poisoned-statistics.csv": "febbbde1136ceb65e2052b721bda7f89942edd1267357c27661b74173cb5a702",
    "golden-poisoned-report.json": "b2d734b78437e93dc19137ae2008f9a55a8d0481e99163d6e4cbed502702344f",
    "golden-poisoned-histogram.svg": "5af42e8785031b0d445eecd05adf9c85d6358ae9e635a68fb62cda74ddb74715",
}


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """A complete tiny pipeline run exercising every CLI stage."""
    root = tmp_path_factory.mktemp("mini")
    out = root / "run"
    cfg = tiny_config(out)
    cfg_path = root / "run.cfg"
    save_config(cfg, cfg_path)
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["attack", "--config", str(cfg_path), "--weights", str(out / "clean.weights")]) == 0
    return cfg_path, out


@pytest.fixture(scope="module")
def detected(mini_run):
    """The mini run's directory after a detect on the clean weights, prefix dr."""
    cfg_path, out = mini_run
    main(["detect", "--config", str(cfg_path), "--weights", str(out / "clean.weights"), "--prefix", "dr"])
    return out


class TestCliPipeline:
    def test_stages_produce_artifacts(self, mini_run):
        _, out = mini_run
        for name in ("train.txt", "test.txt", "clean.txt", "reserve.txt", "manifest.json",
                     "clean.weights", "train-metrics.json", "pattern.txt",
                     "poisoned.weights", "attack-metrics.json"):
            assert (out / name).exists(), name

    def test_attack_metrics_fields(self, mini_run):
        _, out = mini_run
        metrics = json.loads((out / "attack-metrics.json").read_text())
        for key in ("attack_success_rate", "clean_accuracy_delta", "source", "target"):
            assert key in metrics

    def test_weights_load_and_predict(self, mini_run):
        _, out = mini_run
        w = load_weights(out / "clean.weights")
        clean = load_dataset(out / "clean.txt", 8)
        assert 0 <= predict(w, clean.clouds[0]) < 8

    def test_detect_runs_and_exit_code_matches_verdict(self, mini_run):
        cfg_path, out = mini_run
        code = main(["detect", "--config", str(cfg_path), "--weights", str(out / "clean.weights"),
                     "--prefix", "d1"])
        report = json.loads((out / "d1-report.json").read_text())
        expected = {"clean": 0, "attacked": 2, "inconclusive": 3}[report["verdict"]]
        assert code == expected
        assert (out / "d1-statistics.csv").exists()
        assert (out / "d1-histogram.svg").exists()

    def test_detect_deterministic_bytes(self, mini_run):
        cfg_path, out = mini_run
        main(["detect", "--config", str(cfg_path), "--weights", str(out / "clean.weights"),
              "--prefix", "da"])
        main(["detect", "--config", str(cfg_path), "--weights", str(out / "clean.weights"),
              "--prefix", "db"])
        for kind in ("statistics.csv", "report.json", "histogram.svg"):
            assert (out / f"da-{kind}").read_bytes() == (out / f"db-{kind}").read_bytes()

    def test_stage_outputs_keep_their_bytes(self, mini_run):
        """Every stage output of the mini run has the bytes recorded in
        GOLDEN_DIGESTS, so a change that moves any output bit fails here.

        The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
        (scipy-openblas64, DYNAMIC_ARCH, Haswell kernels) on x86-64. Another
        numpy or BLAS may round a product differently and fail this test
        without any change to the program. A mismatch names each file that
        differs and its new digest.
        """
        cfg_path, out = mini_run
        for weights in ("clean", "poisoned"):
            main(["detect", "--config", str(cfg_path), "--weights", str(out / f"{weights}.weights"),
                  "--prefix", f"golden-{weights}"])
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
        differ = [f"{name}: {digest}" for name, digest in got.items() if digest != GOLDEN_DIGESTS[name]]
        assert not differ, "stage outputs with new bytes:\n" + "\n".join(differ)

    def test_detect_pools_each_cloud_once(self, mini_run, monkeypatch):
        # Detect pools each cloud it classifies once, keeps the pools of the
        # clouds it picks, and neither stacked descent pools a cloud.
        cfg_path, out = mini_run
        pooled, classified, searched = [], [], []
        real_pool_vector, real_head_logits = pipeline.pool_vector, pipeline.head_logits

        def counting_pool_vector(w, X):
            pooled.append(X)
            return real_pool_vector(w, X)

        def counting_head_logits(w, p):
            classified.append(p)
            return real_head_logits(w, p)

        monkeypatch.setattr(pipeline, "pool_vector", counting_pool_vector)
        monkeypatch.setattr(pipeline, "head_logits", counting_head_logits)
        monkeypatch.setattr(estimation, "pool_vector", lambda w, X: searched.append(X))
        code = main(["detect", "--config", str(cfg_path), "--weights", str(out / "poisoned.weights"),
                     "--prefix", "dpool"])
        assert code in (EXIT_CLEAN, EXIT_ATTACKED)
        assert len(pooled) >= 8 * 5
        assert len({id(X) for X in pooled}) == len(pooled) == len(classified)
        assert searched == []

    def test_report_rerender(self, mini_run, tmp_path, capsys):
        cfg_path, out = mini_run
        main(["detect", "--config", str(cfg_path), "--weights", str(out / "poisoned.weights"),
              "--prefix", "dp"])
        svg = tmp_path / "re.svg"
        code = main(["report", "--stats", str(out / "dp-statistics.csv"),
                     "--report", str(out / "dp-report.json"), "--out", str(svg)])
        assert code == 0
        assert svg.read_bytes() == (out / "dp-histogram.svg").read_bytes()
        assert "verdict" in capsys.readouterr().out
        report = read_report(out / "dp-statistics.csv", out / "dp-report.json")
        write_statistics_csv(report, tmp_path / "re.csv")
        assert (tmp_path / "re.csv").read_bytes() == (out / "dp-statistics.csv").read_bytes()

    def test_truncated_split_fails_at_the_boundary(self, mini_run, tmp_path, capsys):
        cfg_path, out = mini_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        clean = copy / "clean.txt"
        # The first record's header and 10 of its 64 points.
        clean.write_text("".join(clean.read_text().splitlines(keepends=True)[:11]))
        cfg = load_config(cfg_path)
        cfg.out_dir = str(copy)
        save_config(cfg, tmp_path / "copy.cfg")
        code = main(["detect", "--config", str(tmp_path / "copy.cfg"), "--weights", str(copy / "clean.weights")])
        assert code == 1
        assert f"error: {clean}: line 12:" in capsys.readouterr().err

    def test_empty_test_split_fails_before_training(self, tmp_path, capsys):
        # test_per_class = 0 loads (detect-only runs need no test split), but
        # train and attack score their models on it: both stop before training.
        cfg = tiny_config(tmp_path / "run")
        cfg.data.test_per_class = 0
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        out = Path(cfg.out_dir)
        for argv in (["train"], ["attack", "--weights", str(out / "clean.weights")]):
            capsys.readouterr()
            assert main(argv[:1] + ["--config", str(cfg_path)] + argv[1:]) == 1
            err = capsys.readouterr().err
            assert f"error: {out / 'test.txt'}: " in err and "test_per_class" in err
        assert not (out / "clean.weights").exists() and not (out / "poisoned.weights").exists()

    @pytest.mark.parametrize(
        "command, lines, key",
        [
            ("attack", "classes = 4\n", "attack_target"),
            ("attack", "classes = 4\nattack_source = 7\nattack_target = 1\n", "attack_source"),
            ("gen-data", "classes = 4\n", "attack_target"),
        ],
        ids=["default-target", "source", "gen-data"],
    )
    def test_attack_class_out_of_range_fails_at_load(self, tmp_path, capsys, command, lines, key):
        # The default attack_target is 4: a 4-class run has no class 4. Every
        # command loads the whole config, so a clean-only stage fails too.
        path = tmp_path / "run.cfg"
        path.write_text(f"{lines}out_dir = {tmp_path / 'out'}\n")
        args = [command, "--config", str(path)]
        if command == "attack":
            args += ["--weights", str(tmp_path / "clean.weights")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: {key} = " in err and "classes = " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["data_seed", "train_seed", "attack_seed", "detect_seed"])
    def test_negative_seed_fails_at_load(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = -3\nout_dir = {tmp_path / 'out'}\n")
        assert main(["gen-data", "--config", str(path)]) == 1
        assert f"error: {path}: {key} = -3 must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["out_dir =", "out_dir = # none"], ids=["config", "comment"])
    def test_empty_out_dir_fails_at_load(self, tmp_path, monkeypatch, capsys, line):
        # An empty out_dir would put every output in the working directory.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        assert main(["gen-data", "--config", str(path)]) == 1
        assert f"error: {path}: out_dir = '' names no directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "which, edit, message",
        [
            ("csv", lambda t: t.replace(",0\n", ",\n", 1), "line 2: bad excluded value ''"),
            ("csv", lambda t: t.replace(",0\n", "\n", 1), "line 2: expected 11 fields, got 10"),
            ("csv", lambda t: t.replace("t_hat", "t", 1), "line 1: not a statistics CSV"),
            ("csv", lambda t: t + "3,x\n", "line 10: expected 11 fields, got 2"),
            ("json", lambda t: re.sub(r'  "gamma_shape": .*\n', "", t), "missing key 'gamma_shape'"),
            ("json", lambda t: t.replace('"phi": 0.05', '"phi": "0.05"'), "phi = '0.05' is not a number"),
            ("json", lambda t: t[: len(t) // 2], "line "),
            ("csv", lambda t: re.sub(r"^(0,(?:[^,]*,){5})[^,]*", r"\1nan", t, flags=re.M),
             "line 2: bad r value 'nan'"),
            ("json", lambda t: re.sub(r'"gamma_scale": [^,\n]*', '"gamma_scale": NaN', t),
             "gamma_scale = nan is not finite"),
            ("csv", lambda t: re.sub(r"^(0,(?:[^,]*,){5})[^,]*", r"\1-0.5", t, flags=re.M),
             "line 2: r = -0.5 is negative"),
            ("csv", lambda t: re.sub(r"^(1,(?:[^,]*,){8})[^,]*", r"\1-1e-300", t, flags=re.M),
             "line 3: w_over_rs = -1e-300 is negative"),
            ("csv", lambda t: re.sub(r"^0,", "3,", t, count=1, flags=re.M), "line 2: class = 3 in the row of class 0"),
            ("csv", lambda t: re.sub(r"^1,[^,]*", "1,99", t, flags=re.M),
             "line 3: t_hat = 99 is neither -1 nor another class"),
            ("csv", lambda t: re.sub(r"^1,[^,]*", "1,1", t, flags=re.M),
             "line 3: t_hat = 1 is neither -1 nor another class"),
            ("csv", lambda t: re.sub(r"^2,[^,]*", "2,-2", t, flags=re.M),
             "line 4: t_hat = -2 is neither -1 nor another class"),
            ("csv", lambda t: re.sub(r",[01]$", ",2", t, count=1, flags=re.M), "line 2: excluded = 2 is not 0 or 1"),
        ],
        ids=["csv-empty-field", "csv-missing-field", "csv-header", "csv-short-row", "json-missing-key",
             "json-string", "json-truncated", "csv-nan", "json-nan", "csv-negative-r", "csv-negative-ratio",
             "csv-class-not-index", "csv-t-hat-out-of-range", "csv-t-hat-is-source", "csv-t-hat-negative",
             "csv-excluded-not-flag"],
    )
    def test_report_input_fails_at_the_boundary(self, detected, tmp_path, capsys, which, edit, message):
        paths = {"csv": tmp_path / "s.csv", "json": tmp_path / "r.json"}
        shutil.copy(detected / "dr-statistics.csv", paths["csv"])
        shutil.copy(detected / "dr-report.json", paths["json"])
        paths[which].write_text(edit(paths[which].read_text()))
        capsys.readouterr()
        code = main(["report", "--stats", str(paths["csv"]), "--report", str(paths["json"]),
                     "--out", str(tmp_path / "h.svg")])
        assert code == 1
        assert f"error: {paths[which]}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "h.svg").exists()

    @pytest.mark.parametrize(
        "command, weights_classes, classes",
        [("detect", 8, 4), ("detect", 4, 8), ("attack", 8, 4)],
        ids=["detect-more", "detect-fewer", "attack-more"],
    )
    def test_weights_class_count_fails_before_any_output(self, tmp_path, capsys, command, weights_classes, classes):
        cfg = tiny_config(tmp_path / "run")
        cfg.data.classes = classes
        cfg.attack.target = 1
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        weights = tmp_path / "other.weights"
        save_weights(init_weights(weights_classes, seed=0), weights)
        before = sorted(p.name for p in (tmp_path / "run").iterdir())
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--weights", str(weights)]) == 1
        err = capsys.readouterr().err
        assert f"error: {weights}: weights of a {weights_classes}-class network" in err
        assert f"the config has classes = {classes}" in err
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == before

    def test_small_clean_set_fails_before_any_read(self, tmp_path, capsys):
        # Neither the weights nor a split exists: the check comes first.
        path = tmp_path / "run.cfg"
        path.write_text(f"clean_per_class = 4\nout_dir = {tmp_path / 'run'}\n")
        assert main(["detect", "--config", str(path), "--weights", str(tmp_path / "missing.weights")]) == 1
        assert "error: clean_per_class = 4 is below detect's minimum of 5" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["detect", "--config", str(tmp_path / "missing.cfg"), "--weights", "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["detect", "--config", "run.cfg"], 1, "required: --weights"),
            (["attack", "--config", "run.cfg"], 1, "required: --weights"),
            (["train", "--config", "run.cfg", "--bogus"], 1, "unrecognized arguments: --bogus"),
            (["gen-data", "--config", "run.cfg", "--out", "elsewhere"], 1, "unrecognized arguments: --out elsewhere"),
            (["train", "--config", "run.cfg", "--out", "elsewhere"], 1, "unrecognized arguments: --out elsewhere"),
            (["attack", "--config", "run.cfg", "--weights", "w", "--out", "elsewhere"], 1,
             "unrecognized arguments: --out elsewhere"),
            (["detect", "--config", "run.cfg", "--weights", "w", "--out", "elsewhere"], 1,
             "unrecognized arguments: --out elsewhere"),
            (["--help"], 0, ""),
        ],
        ids=["detect-no-weights", "attack-no-weights", "unknown-flag", "gen-data-out", "train-out", "attack-out",
             "detect-out", "help"],
    )
    def test_usage_exit_code(self, capsys, argv, code, message):
        # argparse's own status for a usage error, 2, is detect's "attacked".
        assert main(argv) == code
        assert message in capsys.readouterr().err

    def test_no_stage_loads_scipy(self, tmp_path):
        # The runtime needs numpy alone; importing scipy.special would cost
        # about 25 MB and a quarter of a second. Detect must fit its null
        # (exit clean or attacked, not inconclusive) to reach the Gamma code.
        cfg = tiny_config(tmp_path / "run")
        cfg.estimation.tau_max = 20
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        run = ["--config", str(cfg_path)]
        out = tmp_path / "run"
        weights = str(out / "clean.weights")
        stages = [
            ["gen-data", *run],
            ["train", *run],
            ["attack", *run, "--weights", weights],
            ["detect", *run, "--weights", weights],
            ["report", "--stats", str(out / "detect-statistics.csv"), "--report", str(out / "detect-report.json"),
             "--out", str(tmp_path / "detect.svg")],
        ]
        code = (
            "import json, sys; from pcbdet.cli import main\n"
            f"codes = [main(argv) for argv in {stages!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes[:3] == [0, 0, 0] and codes[3] in (EXIT_CLEAN, EXIT_ATTACKED) and codes[4] == 0, codes
        assert loaded == []

    def test_init_config(self, tmp_path):
        path = tmp_path / "default.cfg"
        assert main(["init-config", "--config", str(path)]) == 0
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines() if line and not line.startswith("#")]
        assert keys == [key for _, _, _, section in SECTIONS for key in section] and len(keys) == 27
        cfg = load_config(path)
        assert cfg.estimation.pi == 0.9
        assert cfg.estimation.tau_max == 3000
        assert cfg.phi == 0.05


class TestReproducibility:
    def test_weights_independent_of_blas_thread_count(self, tmp_path):
        # Training sums over rows in a fixed order, so its weights do not
        # depend on how many threads BLAS splits a product over, and detect
        # multiplies in fixed row blocks, so neither do its outputs; 3 and 4
        # threads may oversubscribe the cores, which changes only the speed.
        # Enough training that every class has 5 correctly classified clean
        # clouds for detect; the poisoned set still ends in a partial batch.
        cfg = tiny_config(tmp_path / "data")
        cfg.data.train_per_class = 8
        cfg.data.test_per_class = 2
        cfg.data.reserve_per_class = 8
        cfg.data.points_per_cloud = 256
        cfg.train.epochs = 10
        cfg.estimation.tau_max = 20
        cfg_path = tmp_path / "run.cfg"
        save_config(cfg, cfg_path)
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        procs = {}
        try:
            for threads in ("1", "2", "3", "4"):
                out = tmp_path / f"threads-{threads}"
                shutil.copytree(tmp_path / "data", out)
                cfg.out_dir = str(out)
                save_config(cfg, out / "run.cfg")
                run = ["--config", str(out / "run.cfg")]
                train, attack = ["train", *run], ["attack", *run, "--weights", str(out / "clean.weights")]
                detect_argv = ["detect", *run, "--weights", str(out / "poisoned.weights")]
                # detect exits 2 or 3 for its verdict; only 1 is an error.
                code = ("import sys; from pcbdet.cli import main; "
                        f"sys.exit(main({train!r}) or main({attack!r}) or main({detect_argv!r}) == 1)")
                procs[out] = subprocess.Popen([sys.executable, "-c", code],
                                              env=_env_with_src(OPENBLAS_NUM_THREADS=threads),
                                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            outputs = {out: proc.communicate(timeout=300)[0] for out, proc in procs.items()}
        finally:
            # Every child ends and is reaped before the first assertion, so
            # a failing one leaves no process or open pipe behind.
            for proc in procs.values():
                proc.kill()
                proc.communicate()
        for out, proc in procs.items():
            assert proc.returncode == 0, outputs[out]
        one, *others = procs
        names = ["clean.weights", "poisoned.weights", "detect-statistics.csv", "detect-report.json",
                 "detect-histogram.svg"]
        for other in others:
            for name in names:
                assert (one / name).read_bytes() == (other / name).read_bytes(), (other.name, name)
