"""Command-line entry point.

Subcommands: synth, run, ablate, export, eval.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

import argparse
import logging
import sys

from . import cluster as clu
from . import data as dat
from . import pipeline as pl
from .errors import ConfigError, DataError, NumericalError


def _add_run_flags(sub):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="override experiment.seed")
    sub.add_argument("--out", default=None, help="override experiment.out")


class _Parser(argparse.ArgumentParser):
    """Raises a bad or abbreviated flag as a ConfigError (one line, exit 2)
    instead of printing the usage; subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="mvclust",
        description="Multi-view progressive subspace clustering experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic blob benchmark")
    synth.add_argument("--out", required=True)
    synth.add_argument("--clusters", type=int, default=3)
    synth.add_argument("--samples", type=int, default=300)
    synth.add_argument("--views", type=int, default=2)
    synth.add_argument("--noise", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--outlier-fraction", type=float, default=0.0)
    synth.add_argument("--outlier-scale", type=float, default=1.0)

    run = subs.add_parser("run", help="run one experiment variant")
    _add_run_flags(run)
    run.add_argument("--variant", default=None, help="override experiment.variant")

    ablate = subs.add_parser("ablate", help="run all ablation variants")
    _add_run_flags(ablate)
    ablate.add_argument("--variants", default=",".join(pl.VARIANTS),
                        help="comma-separated subset of variants")

    export = subs.add_parser("export", help="export embeddings from a finished run")
    export.add_argument("--run-dir", required=True)
    export.add_argument("--dest", default=None)

    ev = subs.add_parser("eval", help="metrics for predicted vs true label files")
    ev.add_argument("--pred", required=True, help="one integer label per line")
    ev.add_argument("--truth", required=True, help="one integer label per line")
    return parser


def _load_cfg(args):
    overrides = {}
    for key in ("seed", "variant", "out"):      # ablate has no --variant
        value = getattr(args, key, None)
        if value is not None:
            overrides[f"experiment.{key}"] = value
    return pl.load_config(args.config, overrides)


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.command == "synth":
            manifest = dat.make_synthetic(
                args.out, args.clusters, args.samples, views=args.views,
                noise=args.noise, seed=args.seed,
                outlier_fraction=args.outlier_fraction,
                outlier_scale=args.outlier_scale,
            )
            print(f"wrote {manifest}")
        elif args.command == "run":
            report = pl.run(_load_cfg(args))
            if report.metrics:
                print(clu.format_report(report.metrics))
            print(f"artifacts in {report.out_dir} "
                  f"({report.wall_clock:.1f}s, variant {report.variant})")
        elif args.command == "ablate":
            cfg = _load_cfg(args)
            variants = [v.strip() for v in args.variants.split(",") if v.strip()]
            print(pl.format_ablation(pl.ablate(cfg, variants)), end="")
        elif args.command == "export":
            dest = pl.export_embeddings(args.run_dir, args.dest)
            print(f"wrote {dest}")
        elif args.command == "eval":
            pred = dat.read_labels(args.pred)
            truth = dat.read_labels(args.truth)
            if len(pred) != len(truth):
                raise DataError(f"{args.pred} has {len(pred)} labels, "
                                f"{args.truth} has {len(truth)}")
            print(clu.format_report(clu.evaluate(pred, truth)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
