"""Command-line entry points.

Thin adapters only: every subcommand parses arguments, calls the library,
and serializes the result.  No numerical logic lives here, which is what
lets the test suite assert that CLI output equals direct library calls.

Exit codes: 0 success, 1 usage error, 2 data error or out of memory,
3 infeasible, 4 numerical failure.  The default seed is a fixed
constant rather than wall-clock entropy, so bare invocations are
reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import _pool
from .criterion import (
    CriterionEvaluator,
    check_design_length,
    concavity_probe,
    robustness_correlation,
    robustness_scatters,
    surrogate_gap_diagnostics,
)
from .designs import Design
from .errors import (
    DataError,
    EigenSolverError,
    NetdesignError,
    NotPositiveDefiniteError,
)
from .experiments import (
    DEFAULT_SEED,
    LIGHT_CELL_KINDS,
    _breakdown_row,
    _gap_design,
    _table_text,
    bundled_study_path,
    derive_seed,
    load_study_spec,
    run_study,
)
from .graph import (
    check_covariate_rows,
    generate_bernoulli_network,
    generate_pm1_covariates,
    load_covariates,
    load_edge_list,
    read_text,
    repair_isolated,
    write_covariates,
    write_edge_list,
)
from .optimizer import SOLVER_METHODS, hybrid_problem, solve

_NUMERICAL_ERRORS = (NotPositiveDefiniteError, EigenSolverError, np.linalg.LinAlgError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the documented 1
    def error(self, message):
        raise _UsageError(message)


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _nonempty_float_list(text: str) -> list:
    values = _float_list(text)
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _emit(columns, rows, args) -> None:
    """Rows to --output or stdout, as CSV (canonical) or a JSON document."""
    text = _table_text(columns, rows, args.format)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_pair(args):
    net = load_edge_list(args.edges)
    cov = load_covariates(
        args.covariates, keep_first=args.keep_first, header=args.header
    )
    check_covariate_rows(net, cov)
    iso = net.isolated_nodes
    if iso.size:
        raise DataError(
            f"{args.edges}: isolated nodes {iso[:10].tolist()}"
            f"{'...' if iso.size > 10 else ''} have no edges; every node needs a neighbour"
        )
    return net, cov


def cmd_generate(args) -> int:
    # A node the Bernoulli draw leaves isolated gains one edge, so the
    # files always load; a draw without isolated nodes is written as is.
    net = repair_isolated(
        generate_bernoulli_network(args.n, args.density, seed=args.seed),
        "connect", seed=derive_seed(args.seed, 2),
    ).network
    cov = generate_pm1_covariates(args.n, args.p, seed=derive_seed(args.seed, 1))
    edges_path = f"{args.out_prefix}_edges.txt"
    cov_path = f"{args.out_prefix}_covariates.csv"
    write_edge_list(net, edges_path)
    write_covariates(cov.values[:, 1:], cov_path)
    print(f"wrote {edges_path} ({net.n} nodes, {len(net.edges)} edges) "
          f"and {cov_path} ({args.p} columns)")
    return 0


def cmd_design(args) -> int:
    net, cov = _load_pair(args)
    problem = hybrid_problem(net, cov, args.rho0, args.alpha)
    kwargs = {"method": args.method, "seed": args.seed, "relax": not args.no_relax,
              "workers": _pool.usable_cpus() if args.threads is None else args.threads}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    report = solve(problem, **kwargs)
    record = report.to_record()
    _emit(tuple(record), [record], args)
    if not report.feasible:
        print("no feasible design under the requested cap", file=sys.stderr)
        return 3
    if args.design_out:
        Path(args.design_out).write_text(report.design.to_lines())
    return 0


EVALUATE_COLUMNS = ("rho_t", "precision", "network_term", "imbalance_term", "pip")


def cmd_evaluate(args) -> int:
    net, cov = _load_pair(args)
    design = Design.from_lines(read_text(args.design))
    check_design_length(net, design.x)
    rows = [
        {"rho_t": rho_t, **_breakdown_row(CriterionEvaluator(net, cov, rho_t), design.x)}
        for rho_t in args.rho_t
    ]
    _emit(EVALUATE_COLUMNS, rows, args)
    return 0


DIAGNOSE_COLUMNS = ("check", "index", "rho", "value", "exact", "bound_a", "bound_b")


def cmd_diagnose(args) -> int:
    net, cov = _load_pair(args)
    rows = []
    scatter_rhos = [rho for rho in args.rho_grid if rho != args.rho0]
    scatters = robustness_scatters(
        net, cov, args.rho0, scatter_rhos, args.scatter_designs, derive_seed(args.seed, 0)
    )
    for rho, sc in zip(scatter_rhos, scatters):
        rows.append({
            "check": "correlation", "rho": rho,
            "value": float(sc.sample_correlation),
            "exact": robustness_correlation(net, cov, args.rho0, rho),
        })
    grid = np.round(np.arange(0.05, 0.951, 0.01), 10)
    for idx in range(args.designs):
        _, _, x, rhos = _gap_design(args.seed, idx, net.n, args.prior_draws)
        diag = surrogate_gap_diagnostics(net, cov, x, float(rhos.mean()), rhos)
        rows.append({
            "check": "gap", "index": idx, "value": float(diag.gap_estimate),
            "bound_a": float(diag.bound_a), "bound_b": float(diag.bound_b),
        })
        if idx < 5:
            rows.append({
                "check": "concavity", "index": idx,
                "value": float(concavity_probe(net, cov, x, grid).max()),
            })
    _emit(DIAGNOSE_COLUMNS, rows, args)
    return 0


def cmd_study(args) -> int:
    path = Path(args.spec)
    if not path.exists():
        path = bundled_study_path(args.spec)
    spec = load_study_spec(path, full=args.full)
    threads = args.threads
    if threads is None:
        # Unplaced workers each run the whole BLAS pool and were measured
        # slower than one process, so only placed ones are the default.
        heavy = spec.kind not in LIGHT_CELL_KINDS and _pool.places_workers()
        threads = _pool.usable_cpus() if heavy else 1
    result = run_study(spec, threads=threads)
    out = Path(args.output) if args.output else Path(f"{spec.name}.csv")
    if args.format == "json":
        out = out.with_suffix(".json") if out.suffix == ".csv" else out
        out.write_text(_table_text(None, {"meta": result.meta, "rows": result.rows}, "json"))
    else:
        result.write(out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return 0


def _check_counts(args) -> None:
    """DataError naming the first flag whose value no command accepts, before any file is read."""
    for flag, least in (("seed", 0), ("p", 1), ("restarts", 1), ("threads", 1),
                        ("prior_draws", 1), ("designs", 0), ("scatter_designs", 2)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise DataError(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default {DEFAULT_SEED})")
    common.add_argument("--output", help="write result here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="result serialization (csv is canonical)")

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("edges", help="edge list file")
    files.add_argument("covariates", help="covariate CSV (no intercept column)")
    files.add_argument("--keep-first", type=int, default=None,
                       help="use only the first k covariate columns")
    files.add_argument("--header", action="store_true",
                       help="covariate file has a header line to skip")

    parser = _Parser(prog="netdesign",
                     description="network-aware treatment assignment")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="write a synthetic edge list and covariate file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--out-prefix", default="network")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("design", parents=[common, files],
                       help="solve for a treatment assignment")
    p.add_argument("--rho0", type=float, default=0.5,
                   help="working correlation (default 0.5)")
    p.add_argument("--alpha", type=float, default=0.001,
                   help="cap quantile level (default 0.001)")
    p.add_argument("--method", default="auto",
                   choices=SOLVER_METHODS)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--no-relax", action="store_true",
                   help="fail instead of walking the cap relaxation ladder")
    p.add_argument("--design-out", help="also write the assignment, one sign per line")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="run the restarts of a local solve on up to N processes, "
                        "this one and forked workers, in contiguous chunks, at any "
                        "n (no more than the restarts or the usable CPUs; with BLAS "
                        "on one thread, no two on one CPU); output is byte-identical "
                        "for any N (default: the usable CPUs)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evaluate", parents=[common, files],
                       help="criterion breakdown and improvement of a design")
    p.add_argument("design", help="design file, one +1/-1 per line")
    p.add_argument("--rho-t", type=_nonempty_float_list, default=[0.5],
                   help="comma-separated evaluation correlations")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", parents=[common, files],
                       help="robustness, prior-gap and concavity checks")
    p.add_argument("--rho0", type=float, default=0.5)
    p.add_argument("--rho-grid", type=_float_list,
                   default=[0.1, 0.3, 0.5, 0.7, 0.9],
                   help="comma-separated correlations for the robustness check; "
                        "may be empty, which leaves only the gap and concavity rows")
    p.add_argument("--designs", type=int, default=20,
                   help="random designs for the gap check")
    p.add_argument("--scatter-designs", type=int, default=200)
    p.add_argument("--prior-draws", type=int, default=200)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("study", parents=[common],
                       help="run a scripted study from a YAML spec")
    p.add_argument("spec", help="spec file path or bundled study name")
    p.add_argument("--full", action="store_true",
                   help="restore the large-scale study defaults")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="run study cells on up to N processes, this one and forked "
                        "workers, in contiguous shares (no more than the cells or "
                        "the usable CPUs; with BLAS on one thread, no two on one "
                        "CPU); output is byte-identical for any N (default: the "
                        "usable CPUs with BLAS on one thread, otherwise 1; 1 for "
                        "gap_histogram, whose cells cost less than a worker's start)")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if not e.code else 1
    try:
        _check_counts(args)
        return args.func(args)
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except NetdesignError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # an input too large for this machine, not a usage error
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
