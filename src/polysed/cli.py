"""Command-line interface.

    polysed <command> --config experiment.cfg --out results/ [--seed N]
    polysed extract --tfr NAME --config experiment.cfg --out results/ [--seed N] [--jobs N]

Commands run the pipeline stages in order: synth, extract, train, predict,
fuse-fit, fuse-apply, eval, report.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numeric failure.  Every failure prints
a single diagnostic line to stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, DataError, NumericError, PolysedError
from . import pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polysed", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("synth", "generate the synthetic corpus and split manifest"),
        ("extract", "compute feature archives for one feature"),
        ("train", "train the detector for one feature"),
        ("predict", "write frame scores for the val and eval splits"),
        ("fuse-fit", "fit fusion parameters on the validation split"),
        ("fuse-apply", "aggregate evaluation-split scores"),
        ("eval", "score all systems on the evaluation split"),
        ("report", "print the stored evaluation table"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "extract":
            p.add_argument("--jobs", type=int, default=1, help="parallel extraction workers")
        if name in ("extract", "train", "predict"):
            p.add_argument("--tfr", required=name != "predict",
                           help="feature name, e.g. logmel_64")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = _override_seed(cfg, args.seed)
        out = Path(args.out)
        command = args.command

        if command == "synth":
            rows = pipeline.run_synth(cfg, out)
            print(f"synth: wrote {len(rows)} clips under {out / 'corpus'}")
        elif command == "extract":
            n = pipeline.run_extract(cfg, args.tfr, out, jobs=max(1, args.jobs))
            print(f"extract: wrote {n} {args.tfr} archives")
        elif command == "train":
            summary = pipeline.run_train(cfg, args.tfr, out)
            print(f"train: {summary['tfr']} best val ER {summary['best_val_er']:.4f} "
                  f"at epoch {summary['best_epoch']} ({summary['epochs_run']} epochs run)")
        elif command == "predict":
            tfrs = [args.tfr] if args.tfr else list(cfg.fusion.tfrs)
            for tfr in tfrs:
                shapes = pipeline.run_predict(cfg, tfr, out)
                print(f"predict: {tfr} " +
                      " ".join(f"{split}={shape[0]}x{shape[1]}" for split, shape in shapes.items()))
        elif command == "fuse-fit":
            results = pipeline.run_fuse_fit(cfg, out)
            for tfr, er in results["single"].items():
                print(f"fuse-fit: single {tfr} fitted ER {er:.4f}")
            print(f"fuse-fit: fused {'+'.join(results['fused']['tfrs'])} "
                  f"fitted ER {results['fused']['er']:.4f}")
        elif command == "fuse-apply":
            written = pipeline.run_fuse_apply(cfg, out)
            for split, shape in written.items():
                print(f"fuse-apply: {split} {shape[0]}x{shape[1]}")
        elif command == "eval":
            results = pipeline.run_eval(cfg, out)
            for system in results["systems"]:
                print(f"eval: {system['kind']} {system['name']} ER {system['er']:.4f}")
        elif command == "report":
            print(pipeline.run_report(cfg, out))
        return 0
    except ConfigError as exc:
        print(f"polysed: error: config: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"polysed: error: numeric: {exc}", file=sys.stderr)
        return 3
    except (DataError, PolysedError) as exc:
        print(f"polysed: error: data: {exc}", file=sys.stderr)
        return 2


def _override_seed(cfg, seed: int):
    synth = cfg.dataset.synth
    cfg.dataset.synth = type(synth)(**{**synth.__dict__, "seed": seed})
    cfg.seed = seed
    return cfg


if __name__ == "__main__":
    sys.exit(main())
