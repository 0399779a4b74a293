"""Command-line front door.

Subcommands: select, score, bench, demo-two-moons.
Exit codes: 0 success, 1 validation/usage error or too large an allocation, 2 I/O error.
Every run is deterministic given its flags; wall-clock stage timings are
the one optional nondeterministic field and --reproducible drops them.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .bench import DEFAULT_GAP_HALFWIDTH, DEFAULT_N_PER_CLASS, DEFAULT_NOISE_SD, METHODS, export_boundary_grid, format_bench_summary, moons_world, run_bench, write_bench_csv
from .data import load_candidate_csv, load_labeled_csv, load_probability_csv, write_csv
from .errors import LibagsError, ValidationError
from .pipeline import PipelineConfig, run_selection, score_pool


class UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as validation errors (exit 1)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_config(path, seed=None) -> PipelineConfig:
    config = PipelineConfig.from_json_file(path) if path else PipelineConfig()
    if seed is not None:
        config = config.replace(seed=seed)
    return config


def _check_out(path, directory: bool) -> None:
    """Raise, before any work and creating nothing, the OSError that writing the output ``path`` would raise.

    A file (``select``, ``score``) must not be a directory, and its parent
    must be one. A directory (``bench``, the demo) is created after the
    run, so it, or else its nearest existing ancestor, must be a directory.
    """
    if not path:  # no file or directory has the empty name
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    nearest = path if directory else os.path.dirname(path) or os.curdir
    while directory and not os.path.exists(nearest):
        nearest = os.path.dirname(nearest) or os.curdir
    if not directory and os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(nearest):
        code = errno.EEXIST if nearest == path else errno.ENOTDIR if os.path.exists(nearest) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _load_inputs(args):
    """Check --out, then load the config, real data, candidate pool and optional external probabilities of select and score."""
    _check_out(args.out, directory=False)
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
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json(include_timings=not args.reproducible))
    lam = "none" if report.lambda_ is None else f"{report.lambda_:.6g}"
    print(f"selected m_hat={report.m_hat} eta={report.eta:.6g} lambda={lam} -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    config, real, pool, external = _load_inputs(args)
    scores = score_pool(real, pool, config, external_proba=external).scores
    rows = zip(pool.source_ids, *(column.tolist() for column in scores.values()))
    write_csv(args.out, ["index", "source_id", *scores], ([i, *row] for i, row in enumerate(rows)))
    print(f"scored {pool.n_rows} candidates -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    _check_out(args.out, directory=True)
    config = _load_config(args.config)
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
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(summary)
    print(summary, end="")
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def _cmd_demo(args) -> int:
    if args.resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {args.resolution}")
    _check_out(args.out, directory=True)
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
    selected = ([*pool.features.values[j].tolist(), int(pool.proposed_labels[j]), pool.source_ids[j]] for j in report.selected)
    write_csv(os.path.join(args.out, "selected.csv"), ["feature_0", "feature_1", "proposed_label", "source_id"], selected)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json(include_timings=not args.reproducible))
    print(f"demo wrote erm_grid.csv, libags_grid.csv, selected.csv, report.json to {args.out} (m_hat={report.m_hat})")
    return 0


def _add_common_io(parser):
    parser.add_argument("--real", required=True, help="labeled training CSV")
    parser.add_argument("--candidates", required=True, help="candidate pool CSV")
    parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--config", default=None, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--n-classes", type=int, default=2, help="class count for label validation (default 2)")
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

    # Seeds come from --seeds alone; with abbreviations off, --seed is
    # rejected rather than read as --seeds.
    p_bench = sub.add_parser("bench", help="two-moons benchmark over seeds", allow_abbrev=False)
    p_bench.add_argument("--methods", required=True, help=f"comma list from {','.join(METHODS)}")
    p_bench.add_argument("--seeds", required=True, help="comma list of integer seeds")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--config", default=None)
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
    except (LibagsError, MemoryError) as exc:  # numpy's MemoryError names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
