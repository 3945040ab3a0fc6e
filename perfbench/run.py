"""pcbdet benchmark: times the CLI stages of one workload, checks their outputs.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program under test is the `src/pcbdet` next to this
directory, never an installed copy. Each repetition runs the workload's
set-up and timed stages in a fresh directory under `.perfbench/`, through
`pcbdet.cli.main` in this process. Repetitions continue until `--seconds`
would be exceeded (at least two untraced ones, or one untraced and two traced
ones with `--trace 1`), and an untraced run spends the time left on more
detect pairs. The last line of standard output is one JSON object:
with `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of the traced repetitions. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The harness's own modules use only the standard library at import time, so
# importing them here leaves the program's import for `setup_s` to time.
import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MAX_REPS = 50

# (name, unit); times are medians over the run's repetitions, and total_s is
# the sum of the medians of the workload's timed stages.
END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("attack_s", "s"),
    ("detect_attacked_s", "s"),
    ("detect_clean_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Statistics kept per traced layer, in output order.
LAYER_STATS = {f"{group}.{function}": stats for group, _, function, _, stats in tracer.LAYERS}
STAT_UNITS = {
    "s": "s", "self_s": "s", "p50_s": "s", "p90_s": "s",
    "calls": "count", "bytes": "bytes", "feasible_frac": "ratio",
}
# Layer statistics that must repeat exactly across traced repetitions.
EXACT_STATS = ("calls", "bytes", "feasible_frac")
PER_LAYER = [
    (f"{layer}.{stat}", STAT_UNITS[stat]) for layer, stats in LAYER_STATS.items() for stat in stats
] + [("trace.overhead_s", "s"), ("trace.estimation_cover_frac", "ratio")]


class SourceMissing(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cap_blas_threads(nproc: int) -> None:
    """Keep BLAS at most at nproc threads; must run before numpy is imported.

    When no thread variable is set, OpenBLAS starts one thread per visible
    CPU, so pinning OPENBLAS_NUM_THREADS to nproc keeps that default.
    """
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > nproc:
            os.environ[name] = str(nproc)
    if not any(os.environ.get(name) for name in names):
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


def _import_program():
    """Import pcbdet from this checkout; returns (cli module, seconds)."""
    src = ROOT / "src"
    if not (src / "pcbdet" / "__init__.py").is_file():
        raise SourceMissing(f"no pcbdet sources at {src / 'pcbdet'}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    from pcbdet import cli

    seconds = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SourceMissing(f"pcbdet imported from {cli.__file__}, not from {src}")
    return cli, seconds


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"vendor": None, "threads": None}
    try:
        info["vendor"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def run_context(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Stage calls
# ---------------------------------------------------------------------------


def apply_overrides(path: Path, overrides: dict) -> None:
    """Replace `key = value` lines of a config file written by init-config."""
    lines = path.read_text(encoding="utf-8").splitlines()
    left = {key: str(value) for key, value in overrides.items()}
    for i, line in enumerate(lines):
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in left:
            lines[i] = f"{key} = {left.pop(key)}"
    if left:
        raise ValueError(f"{path}: keys not in the default config: {sorted(left)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _validate(stage) -> dict | None:
    """Check a finished stage's outputs; returns the detect outcome, if any."""
    for weights in stage.weights:
        checks.check_weights(weights)
    if stage.detect is None:
        return None
    from pcbdet.config import load_config

    classes = load_config(stage.argv[stage.argv.index("--config") + 1]).data.classes
    out_dir, prefix = stage.detect
    return checks.detect_outputs(out_dir, prefix, classes)


def run_stage(stage, cli, tr=None) -> dict:
    ok_codes = (0, 2, 3) if stage.detect else (0,)
    out, err = io.StringIO(), io.StringIO()
    span = tr.span(f"stage.{stage.key}") if tr else contextlib.nullcontext()
    result = {"name": stage.name, "key": stage.key, "metric": stage.metric, "timed": stage.timed,
              "detect": stage.detect is not None, "error": None, "outcome": None}
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(stage.argv)
            if code == 0 and stage.config is not None:
                apply_overrides(Path(stage.argv[-1]), stage.config)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # a stage that raises counts as failed
        code = None
        result["error"] = f"raised {type(exc).__name__}: {exc}"
    result["seconds"] = time.perf_counter() - start
    if result["error"] is None and code not in ok_codes:
        result["error"] = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return result


def check_stage(stage, result: dict) -> None:
    """Validate and digest a stage's outputs. Runs right after the call, but
    untraced, so that the checks' own pcbdet calls leave no spans."""
    if result["error"] is not None:
        return
    try:
        result["outcome"] = _validate(stage)
        result["digest"] = checks.digest(stage.outputs)
    except checks.OutputError as exc:
        result["error"] = str(exc)


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def _duration(rec) -> float:
    return rec[tracer.END] - rec[tracer.START]


def layer_values(spans) -> tuple:
    """Per-layer statistics of one traced repetition, plus the sample-wise
    call durations (pooled across repetitions for the percentiles)."""
    selfs = tracer.self_times(spans)
    by_name: dict = {}
    for rec in spans:
        by_name.setdefault(rec[tracer.NAME], []).append(rec)
    values = {}
    for layer, stats in LAYER_STATS.items():
        recs = by_name.get(layer, [])
        infos = [r[tracer.INFO] for r in recs]
        for stat in stats:
            if stat == "s":
                v = sum(map(_duration, recs))
            elif stat == "self_s":
                v = sum(selfs[r[tracer.ID]] for r in recs)
            elif stat == "calls":
                v = len(recs)
            elif stat == "bytes":
                v = sum(infos)
            elif stat == "feasible_frac":
                v = sum(map(bool, infos)) / len(infos) if infos else 0.0
            else:  # percentiles: filled in from the pooled durations
                continue
            values[f"{layer}.{stat}"] = v
    samplewise = [_duration(r) for r in by_name.get("estimation.estimate_samplewise_location", [])]
    return values, samplewise


def span_checks(spans) -> tuple:
    """(estimation share of the detect-attacked stage spans, accounting errors).

    Self times in each stage's subtree must add up to the stage's duration.
    """
    selfs = tracer.self_times(spans)
    errors, stage_s, estimation_s = [], 0.0, 0.0
    estimation = ("estimation.estimate_group_location", "estimation.estimate_samplewise_location")
    for rec in spans:
        if not rec[tracer.NAME].startswith("stage."):
            continue
        tree = tracer.subtree(spans, rec[tracer.ID])
        gap = sum(selfs[r[tracer.ID]] for r in tree) - _duration(rec)
        if abs(gap) > 1e-6 * max(1.0, _duration(rec)):
            errors.append(f"{rec[tracer.NAME]}: self times miss the span by {gap:.3g} s")
        if rec[tracer.NAME] == "stage.detect-attacked":
            stage_s += _duration(rec)
            estimation_s += sum(_duration(r) for r in tree if r[tracer.NAME] in estimation)
    return (estimation_s / stage_s if stage_s > 0 else 0.0), errors


def run_rep(stages, cli, traced: bool) -> dict:
    tr = tracer.Tracer() if traced else None
    rebind = tracer.Rebinder(tr) if traced else None
    results = []
    for stage in stages:
        with rebind or contextlib.nullcontext():
            result = run_stage(stage, cli, tr)
        check_stage(stage, result)
        results.append(result)
    rep = {"traced": traced, "stages": results}
    if traced:
        rep["layers"], rep["samplewise"] = layer_values(tr.spans)
        rep["cover"], rep["span_errors"] = span_checks(tr.spans)
        rep["missing"] = list(rebind.missing)
    return rep


def _stage_sums(rep: dict) -> None:
    rep["setup_s"] = sum(r["seconds"] for r in rep["stages"] if not r["timed"])
    rep["timed_s"] = sum(r["seconds"] for r in rep["stages"] if r["timed"])


def run_workload(name: str, seed: int, deadline: float, trace: bool, cli, import_s: float) -> dict:
    """Repetitions until `deadline` (a perf_counter time).

    A new repetition starts while the slowest one so far would still end by
    the deadline; after that, untraced runs fill the time left with further
    detect pairs in the last repetition's directory, while the slowest detect
    call so far, twice, would end by it. Traced repetitions get no extra
    pairs, so that their call counts repeat exactly.
    """
    make_round = WORKLOADS[name]
    min_reps = 3 if trace else 2
    # One path for every repetition, so that config files (which name their
    # output directory) digest the same each time.
    rep_dir = WORK / f"rep-{os.getpid()}"
    reps, rep_s, detect_s = [], [], [0.0]
    try:
        while len(reps) < MAX_REPS:
            now = time.perf_counter()
            if len(reps) < min_reps or now + max(rep_s) <= deadline:
                shutil.rmtree(rep_dir, ignore_errors=True)
                rep_dir.mkdir(parents=True)
                rnd = make_round(seed, rep_dir)
                # With tracing, the first repetition is the untraced reference.
                reps.append(run_rep(rnd.stages, cli, traced=trace and len(reps) > 0))
                rep_s.append(time.perf_counter() - now)
                new, call = reps[-1]["stages"], rnd.pairs
            elif not trace and now + 2 * max(detect_s) <= deadline:
                call += 1
                new = run_rep(rnd.pair(call), cli, traced=False)["stages"]
                reps[-1]["stages"].extend(new)
            else:
                break
            detect_s.extend(r["seconds"] for r in new if r["detect"])
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    for rep in reps:
        _stage_sums(rep)
    return summarize(reps, trace, import_s)


def summarize(reps, trace: bool, import_s: float) -> dict:
    failures, digests, outcomes = [], {}, {}
    attempted = 0
    for i, rep in enumerate(reps):
        for st in rep["stages"]:
            attempted += 1
            if st["error"] is None:
                first = digests.setdefault(st["key"], st["digest"])
                if st["digest"] != first:
                    st["error"] = "output digest differs from an earlier repetition"
            if st["error"] is not None:
                failures.append(f"rep {i} {st['name']}: {st['error']}")
            if st["outcome"] is not None:
                outcomes.setdefault(st["key"], st["outcome"])
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    if trace:
        metrics, guard = _layer_metrics(traced, untraced)
        failures.extend(guard)
        samples = len(traced)
    else:
        metrics = _end_to_end_metrics(untraced, import_s)
        samples = len(untraced)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "samples": samples,
        "failures": failures,
        "outcomes": outcomes,
        "missing": sorted({m for rep in traced for m in rep["missing"]}),
        "reps": [
            {"traced": rep["traced"], "setup_s": rep["setup_s"], "timed_s": rep["timed_s"],
             "stages": {st["name"]: st["seconds"] for st in rep["stages"]}}
            for rep in reps
        ],
    }


def _end_to_end_metrics(reps, import_s: float) -> dict:
    samples: dict = {}
    timed = set()
    for rep in reps:
        for st in rep["stages"]:
            if st["metric"]:
                samples.setdefault(st["metric"], []).append(st["seconds"])
                if st["timed"]:
                    timed.add(st["metric"])
    values = {metric: statistics.median(v) for metric, v in samples.items()}
    values["setup_s"] = import_s + statistics.median(rep["setup_s"] for rep in reps)
    values["total_s"] = sum(values[metric] for metric in timed)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_metrics(traced, untraced) -> tuple:
    guard = []
    values = {}
    for name, _ in PER_LAYER:
        samples = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        if not samples:
            continue
        if name.rsplit(".", 1)[1] in EXACT_STATS and len(set(samples)) > 1:
            guard.append(f"{name} differs across traced repetitions: {samples}")
        values[name] = statistics.median(samples)
    pooled = [d for rep in traced for d in rep["samplewise"]]
    prefix = "estimation.estimate_samplewise_location."
    if len(pooled) >= 2:
        deciles = statistics.quantiles(pooled, n=10)
        values[prefix + "p50_s"] = statistics.median(pooled)
        values[prefix + "p90_s"] = deciles[8]
    values["trace.overhead_s"] = statistics.median(r["timed_s"] for r in traced) - statistics.median(
        r["timed_s"] for r in untraced
    )
    values["trace.estimation_cover_frac"] = statistics.median(r["cover"] for r in traced)
    for rep in traced:
        guard.extend(rep["span_errors"])
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}, guard


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _print_table(result: dict, context: dict) -> None:
    print(f"context: {json.dumps(context, sort_keys=True)}")
    print(f"repetitions measured: {result['samples']} ({len(result['reps'])} run)")
    for i, rep in enumerate(result["reps"]):
        stages = " ".join(f"{k}={v:.3f}" for k, v in rep["stages"].items())
        print(f"  rep {i}{' traced' if rep['traced'] else ''}: {stages}")
    for name, outcome in result["outcomes"].items():
        print(f"output {name}: verdict {outcome['verdict']} pv {outcome['pv']} t_hat {outcome['t_hat']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<52} {metric['value']:>14.6f} {metric['unit']}")
    if result["missing"]:
        print(f"missing layers (not in the program): {', '.join(result['missing'])}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"stage calls: {result['attempted']} attempted, {result['failed']} failed (failed_frac {failed_frac:.4f})")
    for line in result["failures"]:
        print(f"FAILED {line}")


def _run_all(args) -> int:
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = proc.returncode or 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.extend((name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items())
        rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
    print("\nworkload      metric                                               value unit")
    for name, metric, value, unit in rows:
        print(f"{name:<13} {metric:<46} {value:>14.6f} {unit}")
    return status


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="protocol, detect-dense or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    nproc = _nproc()
    _cap_blas_threads(nproc)
    try:
        cli, import_s = _import_program()
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    context = run_context(args.seed, nproc)
    deadline = start + args.seconds
    result = run_workload(args.workload, args.seed, deadline, bool(args.trace), cli, import_s)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, "context": context, **result}
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _print_table(result, context)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
