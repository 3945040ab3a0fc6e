"""Output validation and digests for the benchmark's stage calls.

A stage call fails when it raises, exits with code 1, writes outputs that do
not validate, or writes outputs whose SHA-256 digest differs from the same
stage's outputs in an earlier repetition of the same workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

VERDICTS = ("clean", "attacked", "inconclusive")


class OutputError(ValueError):
    """A stage output file is missing or does not hold what the stage promises."""


def digest(paths) -> str:
    """SHA-256 over the names and bytes of `paths`, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        if not path.is_file():
            raise OutputError(f"{path}: missing output")
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def check_statistics_csv(path, num_classes: int) -> list:
    """Rows of a detect statistics CSV; it must hold one row of finite values
    per class, in class order."""
    from pcbdet.report import read_statistics_csv

    try:
        rows = read_statistics_csv(path)
    except (ValueError, KeyError, IndexError) as exc:
        raise OutputError(f"{path}: unreadable statistics CSV: {exc}") from None
    if len(rows) != num_classes:
        raise OutputError(f"{path}: {len(rows)} rows, expected {num_classes}")
    for k, row in enumerate(rows):
        if row.get("class") != k:
            raise OutputError(f"{path}: row {k} is for class {row.get('class')}")
        for key, value in row.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise OutputError(f"{path}: class {k}: {key} = {value!r} is not finite")
    return rows


def check_report_json(path) -> dict:
    try:
        report = json.loads(Path(path).read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path}: unreadable report JSON: {exc}") from None
    if not isinstance(report, dict) or report.get("verdict") not in VERDICTS:
        raise OutputError(f"{path}: verdict not in {VERDICTS}")
    return report


def check_weights(path) -> None:
    from pcbdet.classifier import load_weights

    try:
        load_weights(path)
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path}: weights do not reload: {exc}") from None


def detect_outputs(out_dir, prefix: str, num_classes: int) -> dict:
    """Validate one detect call's CSV and JSON; return what it decided."""
    out_dir = Path(out_dir)
    rows = check_statistics_csv(out_dir / f"{prefix}-statistics.csv", num_classes)
    report = check_report_json(out_dir / f"{prefix}-report.json")
    return {
        "verdict": report["verdict"],
        "pv": report.get("pv"),
        "t_hat": [row["t_hat"] for row in rows],
    }
