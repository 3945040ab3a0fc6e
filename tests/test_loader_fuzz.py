"""Corrupted input files: every loader returns a valid object or raises a
ValueError whose message starts with the file path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbdet.classifier import ClassifierWeights, init_weights, load_weights, save_weights
from pcbdet.config import RunConfig, default_config, load_config, save_config
from pcbdet.geometry import Dataset, generate_shape, load_dataset, save_dataset
from pcbdet.inference import ClassStatistics, DetectionReport, detect
from pcbdet.report import STATS_HEADER, read_report, read_statistics_csv, write_report_json, write_statistics_csv

CLASSES = 3


def valid_dataset(ds):
    assert isinstance(ds, Dataset) and ds.num_classes == CLASSES
    for X, lab in zip(ds.clouds, ds.labels):
        assert X.ndim == 2 and X.shape[1] == 3 and len(X) >= 1 and np.isfinite(X).all()
        assert 0 <= lab < CLASSES


def valid_weights(w):
    assert isinstance(w, ClassifierWeights)
    w.validate()


def valid_config(cfg):
    assert isinstance(cfg, RunConfig)


def valid_rows(rows):
    for row in rows:
        assert list(row) == STATS_HEADER.split(",")
        assert all(isinstance(value, (int, float)) and np.isfinite(value) for value in row.values())


def valid_report(report):
    assert isinstance(report, DetectionReport)


# A detect report with a fit, three of its classes failed; the report entry
# fuzzes the JSON and reads it with the valid CSV of the same report.
REPORT = detect(
    [
        ClassStatistics(source=s, t_hat=None if s % 3 == 0 else (s + 1) % 8, r_s=0.5 + 0.1 * s, r_t=0.7,
                        z=0.1 * s, w=0.05 * s, r=0.0 if s % 3 == 0 else 0.1 * s * s)
        for s in range(8)
    ],
    phi=0.05,
)


def write_report_pair(path):
    write_statistics_csv(REPORT, path.with_name("report-statistics.csv"))
    write_report_json(REPORT, path)


# name -> (file name, writer of the valid file, loader, validity check)
LOADERS = {
    "dataset": (
        "split.txt",
        lambda p: save_dataset(
            Dataset([generate_shape(k, 16, seed=k) for k in range(CLASSES)], np.arange(CLASSES), CLASSES), p
        ),
        lambda p: load_dataset(p, CLASSES),
        valid_dataset,
    ),
    "weights": ("w.weights", lambda p: save_weights(init_weights(CLASSES, seed=0), p), load_weights, valid_weights),
    "config": ("run.cfg", lambda p: save_config(default_config(), p), load_config, valid_config),
    "statistics": ("statistics.csv", lambda p: write_statistics_csv(REPORT, p), read_statistics_csv, valid_rows),
    "report": ("report.json", write_report_pair, lambda p: read_report(p.with_name("report-statistics.csv"), p),
               valid_report),
}


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """data after one to three truncations, byte replacements or dropped lines."""
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        kind = draw(st.sampled_from(["truncate", "flip", "drop_line"]))
        if kind == "truncate":
            data = data[: draw(st.integers(0, len(data) - 1))]
        elif kind == "flip":
            pos = draw(st.integers(0, len(data) - 1))
            data = data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1 :]
        else:
            lines = data.split(b"\n")
            del lines[draw(st.integers(0, len(lines) - 1))]
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, (filename, write, _, _) in LOADERS.items():
        write(root / filename)
        out[name] = (root / filename).read_bytes()
    return root, out


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupted_file_loads_or_names_the_file(originals, name, data):
    root, valid = originals
    filename, _, load, check = LOADERS[name]
    path = root / f"corrupt-{filename}"
    path.write_bytes(data.draw(corrupted(valid[name])))
    try:
        obj = load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
    else:
        check(obj)
