"""Report artifacts: per-class statistics CSV, verdict JSON, histogram SVG.

All emission is byte-deterministic: floats are written with repr (shortest
round-trip form) and nothing carries a timestamp.
"""

from __future__ import annotations

import json
import math

from pcbdet.geometry import read_text
from pcbdet.inference import ClassStatistics, DetectionReport, detect

__all__ = [
    "STATS_VALUES",
    "STATS_HEADER",
    "write_json",
    "write_statistics_csv",
    "read_statistics_csv",
    "write_report_json",
    "read_report",
    "write_histogram_svg",
]

# The CSV's float columns, each a ClassStatistics attribute; the integer
# columns class, t_hat (-1 for a failed estimate) and excluded frame them.
STATS_VALUES = ("r_s", "r_t", "z", "w", "r", "inv_rs", "rt_over_rs", "w_over_rs")
STATS_HEADER = ",".join(("class", "t_hat", *STATS_VALUES, "excluded"))

HISTOGRAM_BINS = 20


def write_json(payload: dict, path) -> None:
    """payload as indented, key-sorted ASCII JSON ending in a newline."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _statistics_rows(report: DetectionReport) -> list:
    """The CSV's rows, each a dict of column -> number, in class order."""
    return [
        dict(zip(STATS_HEADER.split(","), (
            st.source,
            -1 if st.failed else st.t_hat,
            *(float(getattr(st, name)) for name in STATS_VALUES),
            int(st.source in report.excluded),
        )))
        for st in report.stats
    ]


def write_statistics_csv(report: DetectionReport, path) -> None:
    lines = [STATS_HEADER] + [",".join(map(str, row.values())) for row in _statistics_rows(report)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_statistics_csv(path):
    """Rows as dicts with parsed numbers (t_hat -1 means a failed estimate).

    A wrong header, a wrong field count, an unparsable or non-finite value,
    or a negative one in a column other than z raises ValueError naming the
    file and the 1-based line. So does an integer column out of its rule:
    class is the row's 0-based index, t_hat is -1 or a class other than the
    row's, and excluded is 0 or 1. Fewer than two class rows (detect needs
    two) raise ValueError naming the file.
    """
    names = STATS_HEADER.split(",")
    lines = [(n, ln.strip()) for n, ln in enumerate(read_text(path).split("\n"), start=1) if ln.strip()]
    if not lines or lines[0][1] != STATS_HEADER:
        raise ValueError(f"{path}: line {lines[0][0] if lines else 1}: not a statistics CSV")
    if len(lines) < 3:
        raise ValueError(f"{path}: detect needs at least 2 class rows, found {len(lines) - 1}")
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path}: line {lineno}: expected {len(names)} fields, got {len(parts)}")
        row = {}
        for name, value in zip(names, parts):
            try:
                row[name] = float(value) if name in STATS_VALUES else int(value)
                if name in STATS_VALUES and not math.isfinite(row[name]):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad {name} value {value!r}") from None
            # z is a cosine; every other float column is a distance, a
            # normalized score or a ratio of them, never below 0.
            if name in STATS_VALUES and name != "z" and row[name] < 0:
                raise ValueError(f"{path}: line {lineno}: {name} = {value} is negative")
        if row["class"] != len(rows):
            raise ValueError(f"{path}: line {lineno}: class = {row['class']} in the row of class {len(rows)}")
        if row["t_hat"] != -1 and not (0 <= row["t_hat"] < len(lines) - 1 and row["t_hat"] != row["class"]):
            raise ValueError(f"{path}: line {lineno}: t_hat = {row['t_hat']} is neither -1 nor another class")
        if row["excluded"] not in (0, 1):
            raise ValueError(f"{path}: line {lineno}: excluded = {row['excluded']} is not 0 or 1")
        rows.append(row)
    return rows


def _report_payload(report: DetectionReport) -> dict:
    """The report JSON's keys and values."""
    return {
        "verdict": report.verdict,
        "pv": None if report.pvalue is None else report.pvalue.pv,
        "log_pv": None if report.pvalue is None else report.pvalue.log_pv,
        "pv_display": None if report.pvalue is None else report.pvalue.display(),
        "order_pv": None if report.order_pvalue is None else report.order_pvalue.pv,
        "order_log_pv": None if report.order_pvalue is None else report.order_pvalue.log_pv,
        "phi": report.phi,
        "s_max": report.s_max,
        "inferred_target": report.inferred_target,
        "gamma_shape": None if report.fit is None else report.fit.shape,
        "gamma_scale": None if report.fit is None else report.fit.scale,
        "J": report.num_excluded,
        "K": report.num_classes,
    }


def write_report_json(report: DetectionReport, path) -> None:
    write_json(_report_payload(report), path)


def read_report(stats_path, report_path) -> DetectionReport:
    """The report detect makes of a statistics CSV's statistics and its
    report JSON's phi.

    The CSV's class, t_hat, r_s, r_t, z, w and r and the JSON's phi (a float
    in (0, 1)) are the only input. Every other value in the two files must
    equal what that report writes, a JSON value with the same JSON type (true
    is not 1), so writing it back reproduces both files. Each error raises
    ValueError naming the file: a CSV that read_statistics_csv rejects, a
    JSON that does not parse, a bad phi, an error of detect (naming the CSV),
    and the first value detect does not write, named by its CSV row's class
    or its JSON key, with the value found and the value detect writes.
    """
    rows = read_statistics_csv(stats_path)
    try:
        rep = json.loads(read_text(report_path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{report_path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(rep, dict):
        raise ValueError(f"{report_path}: not a JSON object")
    if "phi" not in rep:
        raise ValueError(f"{report_path}: missing key 'phi'")
    if not (isinstance(rep["phi"], float) and 0 < rep["phi"] < 1):
        raise ValueError(f"{report_path}: phi = {json.dumps(rep['phi'])} is not a float in (0, 1)")
    stats = [
        ClassStatistics(
            source=row["class"],
            t_hat=None if row["t_hat"] < 0 else row["t_hat"],
            **{name: row[name] for name in ("r_s", "r_t", "z", "w", "r")},
        )
        for row in rows
    ]
    try:
        report = detect(stats, rep["phi"])
    except ValueError as exc:
        raise ValueError(f"{stats_path}: {exc}") from None
    for row, written in zip(rows, _statistics_rows(report)):
        for name, value in written.items():
            if row[name] != value:
                raise ValueError(f"{stats_path}: class {row['class']}: {name} = {row[name]!r}, detect writes {value!r}")
    payload = _report_payload(report)
    for key in {**payload, **rep}:  # detect's keys in its order, then any others
        if key not in payload:
            raise ValueError(f"{report_path}: key {key!r} is not one detect writes")
        if key not in rep:
            raise ValueError(f"{report_path}: missing key {key!r}")
        if json.dumps(rep[key]) != json.dumps(payload[key]):
            raise ValueError(f"{report_path}: {key} = {json.dumps(rep[key])}, detect writes {json.dumps(payload[key])}")
    return report


def write_histogram_svg(report: DetectionReport, path) -> None:
    """Histogram of the per-class r statistics, excluded classes highlighted."""
    values = [st.r for st in report.stats]
    hi = max(max(values), 1e-9)
    width, height, margin = 480, 280, 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    edges = [hi * i / HISTOGRAM_BINS for i in range(HISTOGRAM_BINS + 1)]
    counts = [0] * HISTOGRAM_BINS
    counts_ex = [0] * HISTOGRAM_BINS
    for st in report.stats:
        b = min(int(st.r / hi * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)
        counts[b] += 1
        if st.source in report.excluded:
            counts_ex[b] += 1
    peak = max(max(counts), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>'
    )
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>')
    bar_w = plot_w / HISTOGRAM_BINS
    for b in range(HISTOGRAM_BINS):
        total = counts[b]
        if total == 0:
            continue
        ex = counts_ex[b]
        x = margin + b * bar_w
        h_total = plot_h * total / peak
        y = height - margin - h_total
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h_total:.2f}" '
            f'fill="#7799cc" stroke="black" stroke-width="0.5"/>'
        )
        if ex:
            h_ex = plot_h * ex / peak
            parts.append(
                f'<rect x="{x:.2f}" y="{height - margin - h_ex:.2f}" width="{bar_w:.2f}" height="{h_ex:.2f}" '
                f'fill="#cc5544" stroke="black" stroke-width="0.5"/>'
            )
    for i in (0, HISTOGRAM_BINS // 2, HISTOGRAM_BINS):
        x = margin + plot_w * i / HISTOGRAM_BINS
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin + 16}" font-size="11" text-anchor="middle">{edges[i]:.2f}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 6}" font-size="12" text-anchor="middle">per-class statistic r</text>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{margin - 16}" font-size="12" text-anchor="middle">'
        f"r histogram (red = excluded from null)</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
