"""Report artifacts: per-class statistics CSV, verdict JSON, histogram SVG.

All emission is byte-deterministic: floats are written with repr (shortest
round-trip form) and nothing carries a timestamp.
"""

from __future__ import annotations

import json
import math

from pcbdet.geometry import read_text
from pcbdet.inference import ClassStatistics, DetectionReport, NullFit, PValue

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


def write_statistics_csv(report: DetectionReport, path) -> None:
    lines = [STATS_HEADER]
    for st in report.stats:
        values = [repr(float(getattr(st, name))) for name in STATS_VALUES]
        t_hat = -1 if st.failed else st.t_hat
        lines.append(",".join([str(st.source), str(t_hat), *values, "1" if st.source in report.excluded else "0"]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_statistics_csv(path):
    """Rows as dicts with parsed numbers (t_hat -1 means a failed estimate).

    A wrong header, a wrong field count, an unparsable or non-finite value,
    or a negative one in a column other than z raises ValueError naming the
    file and the 1-based line. So does an integer column out of its rule:
    class is the row's 0-based index, t_hat is -1 or a class other than the
    row's, and excluded is 0 or 1.
    """
    names = STATS_HEADER.split(",")
    lines = [(n, ln.strip()) for n, ln in enumerate(read_text(path).split("\n"), start=1) if ln.strip()]
    if not lines or lines[0][1] != STATS_HEADER:
        raise ValueError(f"{path}: line {lines[0][0] if lines else 1}: not a statistics CSV")
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


def write_report_json(report: DetectionReport, path) -> None:
    payload = {
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
    write_json(payload, path)


def read_report(stats_path, report_path) -> DetectionReport:
    """The DetectionReport behind a statistics CSV and its report JSON.

    Writing it back reproduces both files byte for byte. The held-out
    classes come from the CSV's excluded column, the fit from the JSON's
    gamma fields. The JSON's verdict, s_max, inferred_target, J and K are
    not read: the report derives them from the statistics, the held-out
    classes, pv and phi. A JSON that does not parse, or lacks a key
    that is read or holds a non-number or a non-finite number there (null
    stays valid), raises ValueError naming the file and the key.
    """
    rows = read_statistics_csv(stats_path)
    try:
        rep = json.loads(read_text(report_path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{report_path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(rep, dict):
        raise ValueError(f"{report_path}: not a JSON object")
    for key in ("pv", "log_pv", "order_pv", "order_log_pv", "phi", "gamma_shape", "gamma_scale"):
        if key not in rep:
            raise ValueError(f"{report_path}: missing key {key!r}")
        if not isinstance(rep[key], (int, float, type(None))):
            raise ValueError(f"{report_path}: {key} = {rep[key]!r} is not a number")
        if isinstance(rep[key], float) and not math.isfinite(rep[key]):
            raise ValueError(f"{report_path}: {key} = {rep[key]!r} is not finite")
    stats = [
        ClassStatistics(
            source=row["class"],
            t_hat=None if row["t_hat"] < 0 else row["t_hat"],
            **{name: row[name] for name in ("r_s", "r_t", "z", "w", "r")},
        )
        for row in rows
    ]
    fit = None if rep["gamma_shape"] is None else NullFit(shape=rep["gamma_shape"], scale=rep["gamma_scale"])

    def pvalue(pv, log_pv):
        return None if pv is None else PValue(pv=pv, log_pv=log_pv)

    return DetectionReport(
        stats=stats,
        excluded=tuple(row["class"] for row in rows if row["excluded"]),
        fit=fit,
        pvalue=pvalue(rep["pv"], rep["log_pv"]),
        phi=rep["phi"],
        order_pvalue=pvalue(rep["order_pv"], rep["order_log_pv"]),
    )


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
