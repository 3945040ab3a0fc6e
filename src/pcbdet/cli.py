"""Command-line interface.

Subcommands: gen-data, train, attack, detect, report. Exit codes from
detect: 0 clean, 2 attacked, 3 inconclusive, 1 error (a usage error too).
"""

from __future__ import annotations

import argparse
import sys

from pcbdet.config import default_config, load_config, save_config
from pcbdet import pipeline
from pcbdet.inference import VERDICT_ATTACKED, VERDICT_INCONCLUSIVE
from pcbdet.report import read_report, write_histogram_svg

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_ATTACKED = 2
EXIT_INCONCLUSIVE = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pcbdet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="run-config file; its out_dir is the output directory")

    sp = sub.add_parser("init-config", help="write a default config file")
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("gen-data", help="generate train/test/clean/reserve splits")
    common(sp)

    sp = sub.add_parser("train", help="train the clean classifier")
    common(sp)

    sp = sub.add_parser("attack", help="poison the training set and train the attacked classifier")
    common(sp)
    sp.add_argument("--weights", required=True, help="clean weights: guide the trigger center, give the accuracy delta")

    sp = sub.add_parser("detect", help="run backdoor detection on a weights file")
    common(sp)
    sp.add_argument("--weights", required=True, help="classifier weights to inspect")
    sp.add_argument("--prefix", default="detect", help="output file prefix")

    sp = sub.add_parser("report", help="re-render statistics CSV into SVG and a summary")
    sp.add_argument("--stats", required=True, help="statistics CSV from detect")
    sp.add_argument("--report", required=True, help="report JSON from detect")
    sp.add_argument("--out", required=True, help="output SVG path")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which detect uses for "attacked".
        return EXIT_CLEAN if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "init-config":
            save_config(default_config(), args.config)
            print(f"wrote {args.config}")
            return EXIT_CLEAN

        if args.command == "gen-data":
            cfg = load_config(args.config)
            manifest = pipeline.gen_data_stage(cfg, cfg.out_dir)
            print(f"splits written to {cfg.out_dir}: totals {manifest['totals']}")
            return EXIT_CLEAN

        if args.command == "train":
            cfg = load_config(args.config)
            metrics = pipeline.train_stage(cfg, cfg.out_dir)
            print(f"trained; test accuracy {metrics['test_accuracy']:.4f}")
            return EXIT_CLEAN

        if args.command == "attack":
            cfg = load_config(args.config)
            metrics = pipeline.attack_stage(cfg, cfg.out_dir, clean_weights=args.weights)
            print(
                f"attack {metrics['source']}->{metrics['target']}: "
                f"asr {metrics['attack_success_rate']:.3f}, "
                f"clean accuracy delta {metrics['clean_accuracy_delta']:.4f}"
            )
            return EXIT_CLEAN

        if args.command == "detect":
            cfg = load_config(args.config)
            report = pipeline.detect_stage(cfg, args.weights, cfg.out_dir, prefix=args.prefix)
            pv = "n/a" if report.pvalue is None else report.pvalue.display()
            print(f"verdict: {report.verdict} (pv {pv}, phi {report.phi})")
            if report.verdict == VERDICT_ATTACKED:
                print(f"inferred target class: {report.inferred_target}")
                return EXIT_ATTACKED
            if report.verdict == VERDICT_INCONCLUSIVE:
                return EXIT_INCONCLUSIVE
            return EXIT_CLEAN

        if args.command == "report":
            report = read_report(args.stats, args.report)
            pv = "n/a" if report.pvalue is None else report.pvalue.display()
            print(f"verdict {report.verdict}  pv {pv}  K {report.num_classes}  J {report.num_excluded}")
            for st in report.stats:
                mark = " *" if st.source in report.excluded else ""
                print(
                    f"  class {st.source}: t_hat {-1 if st.failed else st.t_hat} r_s {st.r_s:.4f} "
                    f"r_t {st.r_t:.4f} z {st.z:.3f} w {st.w:.3f} r {st.r:.4f}{mark}"
                )
            write_histogram_svg(report, args.out)
            print(f"histogram written to {args.out}")
            return EXIT_CLEAN
    except BrokenPipeError:
        raise
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
