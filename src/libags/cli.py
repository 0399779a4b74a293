"""Command-line front door.

Subcommands: select, score, bench, demo-two-moons, export-grid.
Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
Every run is deterministic given its flags; wall-clock stage timings are
the one optional nondeterministic field and --reproducible drops them.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .bench import DEFAULT_GAP_HALFWIDTH, DEFAULT_N_PER_CLASS, DEFAULT_NOISE_SD, METHODS, export_boundary_grid, format_bench_summary, moons_world, run_bench, write_bench_csv
from .data import CandidatePool, FeatureMatrix, load_candidate_csv, load_labeled_csv, load_probability_csv, write_candidate_csv
from .errors import LibagsError, ValidationError
from .model import RffEncoder, load_model
from .pipeline import PipelineConfig, run_selection
from .score import ScoreRecord


class UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as validation errors (exit 1)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_config(path, seed) -> PipelineConfig:
    config = PipelineConfig.from_json_file(path) if path else PipelineConfig()
    if seed is not None:
        config = config.replace(seed=seed)
    return config


def _load_inputs(args):
    """Config, real data, candidate pool and optional external probabilities of select and score."""
    config = _load_config(args.config, args.seed)
    real = load_labeled_csv(args.real, args.n_classes)
    pool = load_candidate_csv(args.candidates, args.n_classes)
    if (args.proba_real is None) != (args.proba_cand is None):
        raise UsageError("--proba-real and --proba-cand must be given together")
    external = None
    if args.proba_real:
        external = (load_probability_csv(args.proba_real), load_probability_csv(args.proba_cand))
    return config, real, pool, external


def _cmd_select(args) -> int:
    config, real, pool, external = _load_inputs(args)
    report = run_selection(real, pool, config, external_proba=external)
    with open(args.out, "w") as fh:
        fh.write(report.to_json(include_timings=not args.reproducible))
    lam = "none" if report.lambda_ is None else f"{report.lambda_:.6g}"
    print(f"selected m_hat={report.m_hat} eta={report.eta:.6g} lambda={lam} -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    config, real, pool, external = _load_inputs(args)
    report = run_selection(real, pool, config, external_proba=external)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "source_id", *ScoreRecord.FIELDS])
        for i, record in enumerate(report.scores):
            writer.writerow([i, pool.source_ids[i], *(f"{getattr(record, name):.17g}" for name in ScoreRecord.FIELDS)])
    print(f"scored {pool.n_rows} candidates -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args.config, args.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--seeds must be a comma-separated integer list, got '{args.seeds}'") from None
    if not methods or not seeds:
        raise UsageError("--methods and --seeds must be nonempty")
    if min(seeds) < 0:
        raise UsageError(f"--seeds must be nonnegative, got {min(seeds)}")
    results = run_bench(methods, seeds, config, n_per_class=args.n_per_class, noise_sd=args.noise_sd, gap_halfwidth=args.gap)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "results.csv")
    summary_path = os.path.join(args.out, "summary.txt")
    write_bench_csv(csv_path, results)
    summary = format_bench_summary(results)
    with open(summary_path, "w") as fh:
        fh.write(summary)
    print(summary, end="")
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def _cmd_demo(args) -> int:
    config = _load_config(args.config, args.seed)
    world = moons_world(config.seed, config)
    train, test, pool, report = world.train, world.test, world.pool, world.report
    final = world.libags_model(config)

    os.makedirs(args.out, exist_ok=True)
    pts = np.vstack([train.features.values, test.features.values])
    margin = 0.3
    bounds = (pts[:, 0].min() - margin, pts[:, 0].max() + margin, pts[:, 1].min() - margin, pts[:, 1].max() + margin)
    export_boundary_grid(world.erm, world.encoder, bounds, args.resolution, os.path.join(args.out, "erm_grid.csv"))
    export_boundary_grid(final, world.encoder, bounds, args.resolution, os.path.join(args.out, "libags_grid.csv"))
    selected_path = os.path.join(args.out, "selected.csv")
    if report.selected:
        selected_pool = CandidatePool(
            FeatureMatrix(pool.features.values[report.selected]),
            pool.proposed_labels[report.selected],
            tuple(pool.source_ids[j] for j in report.selected),
            2,
        )
        write_candidate_csv(selected_path, selected_pool)
    else:
        with open(selected_path, "w", newline="") as fh:
            fh.write("feature_0,feature_1,proposed_label,source_id\n")
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(report.to_json(include_timings=not args.reproducible))
    print(f"demo wrote erm_grid.csv, libags_grid.csv, selected.csv, report.json to {args.out} (m_hat={report.m_hat})")
    return 0


def _cmd_export_grid(args) -> int:
    model = load_model(args.model)
    encoder = None
    if args.rff_dim is not None:
        if args.input_dim is None:
            raise UsageError("--input-dim is required with --rff-dim")
        encoder = RffEncoder.create(args.input_dim, args.rff_dim, args.rff_bandwidth, args.rff_seed)
    try:
        bounds = tuple(float(v) for v in args.bounds.split(","))
    except ValueError:
        raise UsageError(f"--bounds must be xmin,xmax,ymin,ymax, got '{args.bounds}'") from None
    if len(bounds) != 4:
        raise UsageError("--bounds must have exactly four values")
    export_boundary_grid(model, encoder, bounds, args.resolution, args.out)
    print(f"wrote grid ({args.resolution}x{args.resolution}) -> {args.out}")
    return 0


def _add_common_io(parser, with_proba=True):
    parser.add_argument("--real", required=True, help="labeled training CSV")
    parser.add_argument("--candidates", required=True, help="candidate pool CSV")
    parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--config", default=None, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--n-classes", type=int, default=2, help="class count for label validation (default 2)")
    if with_proba:
        parser.add_argument("--proba-real", default=None, help="optional externally computed real-data probability CSV")
        parser.add_argument("--proba-cand", default=None, help="optional externally computed candidate probability CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="libags", description="Boundary-gap synthetic candidate selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run selection and write a report JSON")
    _add_common_io(p_select)
    p_select.add_argument("--reproducible", action="store_true", help="omit wall-clock timings from the report")
    p_select.set_defaults(func=_cmd_select)

    p_score = sub.add_parser("score", help="write per-candidate score records as CSV")
    _add_common_io(p_score)
    p_score.set_defaults(func=_cmd_score)

    p_bench = sub.add_parser("bench", help="two-moons benchmark over seeds")
    p_bench.add_argument("--methods", required=True, help=f"comma list from {','.join(METHODS)}")
    p_bench.add_argument("--seeds", required=True, help="comma list of integer seeds")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_bench.add_argument("--n-per-class", type=int, default=DEFAULT_N_PER_CLASS)
    p_bench.add_argument("--noise-sd", type=float, default=DEFAULT_NOISE_SD)
    p_bench.add_argument("--gap", type=float, default=DEFAULT_GAP_HALFWIDTH)
    p_bench.set_defaults(func=_cmd_bench)

    p_demo = sub.add_parser("demo-two-moons", help="boundary-gap demo artifacts for plotting")
    p_demo.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_demo.add_argument("--out", required=True, help="output directory")
    p_demo.add_argument("--config", default=None)
    p_demo.add_argument("--resolution", type=int, default=80)
    p_demo.add_argument("--reproducible", action="store_true")
    p_demo.set_defaults(func=_cmd_demo)

    p_grid = sub.add_parser("export-grid", help="probability surface of a saved model")
    p_grid.add_argument("--model", required=True, help="model JSON from save_model")
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--bounds", required=True, help="xmin,xmax,ymin,ymax")
    p_grid.add_argument("--resolution", type=int, default=80)
    p_grid.add_argument("--rff-dim", type=int, default=None, help="rebuild the encoder with this output dim")
    p_grid.add_argument("--rff-bandwidth", type=float, default=1.0)
    p_grid.add_argument("--rff-seed", type=int, default=0)
    p_grid.add_argument("--input-dim", type=int, default=None)
    p_grid.set_defaults(func=_cmd_export_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except LibagsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
