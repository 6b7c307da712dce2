"""Scripted evaluation studies over synthetic or loaded networks.

Each study is described by a small YAML mapping (kind plus overrides),
expanded against per-kind defaults, and run to a long-format table: one
row per factor-level combination and replicate, every row carrying the
derived seeds that regenerate it in isolation.  Results serialize to a
CSV with a fixed header plus a JSON metadata sidecar echoing the resolved
spec; nothing in the output depends on the clock, so identical specs give
byte-identical files.

Every cell of a study (a replicate, a replicate at one network size, or
a gap design) draws from its own derived seeds, so cells can run in any
order or in parallel.  Each kind has one private function that gives the
table's columns, the function of one cell and the cells; run_study alone
takes a process count and runs the cells on up to that many processes,
this one and forked children, with rows, CSV and metadata byte-identical
to one process.  With BLAS on one thread no two workers share a CPU;
placement is skipped where the platform has no affinity calls.

Two scales exist per kind: the default desk scale finishes in minutes,
while full=True restores the larger sizes the desk numbers were shrunk
from.  An explicit key in the spec file always wins over either scale.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from importlib import metadata, resources
from pathlib import Path

import numpy as np

from . import _pool
from .car import (
    HeteroCarParams,
    factor_precision,
    fit_profile_ml,
    sample_noise,
)
from .criterion import CriterionEvaluator, surrogate_gap_diagnostics
from .errors import DataError, NetdesignError, StudySpecError
from .graph import (
    CovariateMatrix,
    check_covariate_rows,
    generate_bernoulli_network,
    generate_pm1_covariates,
    load_covariates,
    load_edge_list,
    read_text,
    repair_isolated,
    subsample_network,
)
from .optimizer import (
    SOLVER_METHODS,
    hybrid_problem,
    random_balanced_design,
    random_iid_design,
    solve,
    solve_no_network,
)

__all__ = [
    "DEFAULT_SEED",
    "STUDY_KINDS",
    "StudySpec",
    "StudyResult",
    "study_defaults",
    "study_spec_from_dict",
    "load_study_spec",
    "bundled_study_path",
    "list_bundled_studies",
    "derive_seed",
    "synth_dataset",
    "run_study",
]

DEFAULT_SEED = 1729

_DESK = {
    "alpha_sweep": {
        "n": 50,
        "p": 10,
        "density": 0.08,
        "rho0": 0.5,
        "alphas": (0.1, 0.01, 0.001, 0.0001),
        "rho_ts": (0.1, 0.3, 0.5, 0.7, 0.9),
        "replicates": 10,
        "restarts": 16,
        "method": "auto",
    },
    "rho_robustness": {
        "n": 50,
        "p": 5,
        "density": 0.08,
        "rho0": 0.5,
        "alpha": 0.001,
        "rho_ts": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        "replicates": 10,
        "restarts": 16,
        "method": "auto",
    },
    "network_vs_no_network": {
        "n": 50,
        "p": 10,
        "density": 0.08,
        "rho0": 0.5,
        "alpha": 0.001,
        "rho_ts": (0.1, 0.3, 0.5, 0.7, 0.9),
        "replicates": 10,
        "restarts": 16,
        "method": "auto",
    },
    "size_sweep": {
        "n_grid": (50, 100, 200),
        "p": 10,
        "density": 0.02,
        "rho0": 0.5,
        "alpha": 0.001,
        "rho_ts": (0.1, 0.3, 0.5, 0.7, 0.9),
        "replicates": 10,
        "restarts": 16,
        "method": "auto",
    },
    "pseudo_experiment": {
        "n_base": 400,
        "density": 0.02,
        "p": 5,
        "subsample": 210,
        "replicates": 10,
        "draws": 50,
        "rho0": 0.75,
        "rho_lo": 0.5,
        "rho_hi": 1.0,
        "alpha": 1e-16,
        "restarts": 8,
        "method": "auto",
        "theta": 1.0,
        "sigma2": 1.0,
        "edges_path": None,
        "covariates_path": None,
        "covariates_header": False,
        "keep_first": None,
    },
    "gap_histogram": {
        "n": 50,
        "density": 0.25,
        "covariate_sd": 10.0,
        "designs": 400,
        "rho_draws": 200,
        "alpha_bound": 0.05,
    },
}

_FULL = {
    "alpha_sweep": {"n": 100, "restarts": 32},
    "rho_robustness": {"n": 100, "p": 10, "restarts": 32},
    "network_vs_no_network": {"n": 100, "restarts": 32},
    "size_sweep": {"n_grid": (50, 100, 500, 1000), "restarts": 32},
    "pseudo_experiment": {
        "n_base": 4000,
        "density": 0.002,
        "subsample": 2000,
        "replicates": 25,
        "draws": 100,
        "restarts": 16,
    },
    "gap_histogram": {},
}

STUDY_KINDS = tuple(sorted(_DESK))


@dataclass(frozen=True)
class StudySpec:
    """Resolved study description: kind, master seed and all parameters."""

    kind: str
    seed: int
    name: str
    params: dict
    full: bool = False


def study_defaults(kind: str, full: bool = False) -> dict:
    if not isinstance(kind, str) or kind not in _DESK:
        raise StudySpecError(
            f"unknown study kind {kind!r}; expected one of {', '.join(STUDY_KINDS)}"
        )
    params = dict(_DESK[kind])
    if full:
        params.update(_FULL[kind])
    return params


# The interval each numeric key must lie in; for the list keys (alphas,
# rho_ts, n_grid) it holds for every entry.
_COUNTS = ("seed", "p", "designs", "keep_first")
_POSITIVE_COUNTS = ("replicates", "restarts", "draws", "rho_draws", "subsample")
_INTEGER_KEYS = {*_COUNTS, *_POSITIVE_COUNTS, "n", "n_base", "n_grid"}
_GRID_KEYS = ("alphas", "rho_ts", "n_grid")
_FLOAT_MAX = sys.float_info.max
_RANGES = {
    **dict.fromkeys(_COUNTS, "[0, inf)"),
    **dict.fromkeys(_POSITIVE_COUNTS, "[1, inf)"),
    "n": "[2, inf)", "n_base": "[2, inf)", "n_grid": "[4, inf)",
    "density": "[0, 1]", "rho_lo": "[0, 1]", "rho_hi": "[0, 1]",
    "rho0": "[0, 1)", "rho_ts": "[0, 1)", "alpha": "(0, 1)", "alphas": "(0, 1)",
    "alpha_bound": "(0, 1)", "theta": "(-inf, inf)", "sigma2": "(0, inf)",
    "covariate_sd": "(0, inf)",
}


def _in_range(v, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= v if interval[0] == "[" else lo < v
    return above and (v <= hi if interval[-1] == "]" else v < hi)


def _check_number(key, v, what=None) -> None:
    """Raise unless v is a finite number that key's rule accepts."""
    what = what or f"key '{key}'"
    # The last test is false for nan, inf and ints beyond the float range.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= _FLOAT_MAX:
        raise StudySpecError(f"{what} must be a finite number, got {v!r}")
    if key in _INTEGER_KEYS and int(v) != v:
        raise StudySpecError(f"{what} must be an integer, got {v!r}")
    if not _in_range(v, _RANGES[key]):
        raise StudySpecError(f"{what} must lie in {_RANGES[key]}, got {v!r}")


def _check_grid(params, key) -> None:
    v = params[key]
    if not isinstance(v, (list, tuple)) or len(v) == 0:
        raise StudySpecError(f"key '{key}' must be a non-empty list, got {v!r}")
    for item in v:
        _check_number(key, item, f"key '{key}' entry")
    cast = int if key in _INTEGER_KEYS else float
    params[key] = tuple(cast(item) for item in v)


def _validate_params(kind: str, params: dict) -> None:
    for key in params:
        if key in _GRID_KEYS:
            _check_grid(params, key)
        elif key in _RANGES and not (key == "keep_first" and params[key] is None):
            _check_number(key, params[key])
    # Sizes across keys: p covariates plus the intercept need more than p
    # nodes, and a subsample cannot exceed the base network it is drawn
    # from.  The size of a base network read from edges_path is not known
    # until the study runs.
    generated = params.get("edges_path") is None
    for key in ("n", "n_grid", "n_base"):
        if "p" in params and key in params and (key != "n_base" or generated):
            grid = key in _GRID_KEYS
            if params["p"] >= (min(params[key]) if grid else params[key]):
                what = f"every '{key}' entry" if grid else f"'{key}'"
                raise StudySpecError(
                    f"key 'p' ({params['p']}) must be below {what}, got {params[key]!r}"
                )
    if "subsample" in params and generated and params["subsample"] > params["n_base"]:
        raise StudySpecError(
            f"key 'subsample' ({params['subsample']}) must not exceed 'n_base' "
            f"({params['n_base']})"
        )
    method = params.get("method", "auto")
    if method not in SOLVER_METHODS:
        raise StudySpecError(f"key 'method' must be one of {SOLVER_METHODS}, got {method!r}")
    if kind == "pseudo_experiment":
        for key in ("edges_path", "covariates_path"):
            if params[key] is not None and not isinstance(params[key], str):
                raise StudySpecError(f"key '{key}' must be a path string, got {params[key]!r}")
        if (params["edges_path"] is None) != (params["covariates_path"] is None):
            raise StudySpecError("keys 'edges_path' and 'covariates_path' must be given together")
        header = params["covariates_header"]
        if not isinstance(header, bool):
            raise StudySpecError(f"key 'covariates_header' must be true or false, got {header!r}")
        if params["rho_lo"] >= params["rho_hi"]:
            raise StudySpecError("key 'rho_lo' must be below 'rho_hi'")


def study_spec_from_dict(raw: dict, full: bool = False) -> StudySpec:
    """Expand a raw mapping against the kind's defaults and validate it."""
    if not isinstance(raw, dict):
        raise StudySpecError(f"study spec must be a mapping, got {type(raw).__name__}")
    if "kind" not in raw:
        raise StudySpecError("missing required key 'kind'")
    kind = raw["kind"]
    full = raw.get("full", full)
    if not isinstance(full, bool):
        raise StudySpecError(f"key 'full' must be true or false, got {full!r}")
    params = study_defaults(kind, full)
    reserved = {"kind", "name", "seed", "full"}
    for key, value in raw.items():
        if key in reserved:
            continue
        if key not in params:
            raise StudySpecError(f"unknown key '{key}' for study kind '{kind}'")
        params[key] = tuple(value) if isinstance(value, list) else value
    _validate_params(kind, params)
    seed = raw.get("seed", DEFAULT_SEED)
    _check_number("seed", seed)
    name = raw.get("name", kind)
    if not isinstance(name, str):
        raise StudySpecError(f"key 'name' must be a string, got {name!r}")
    return StudySpec(kind=kind, seed=int(seed), name=name, params=params, full=full)


def load_study_spec(path, full: bool = False) -> StudySpec:
    """Read a YAML study spec from disk."""
    import yaml  # loaded here: the other subcommands read no YAML
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as e:
        raise StudySpecError(f"cannot read study spec {path}: {e}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise StudySpecError(f"{path}: not valid YAML: {e}") from None
    if raw is None:
        raise StudySpecError(f"{path}: empty study spec")
    return study_spec_from_dict(raw, full=full)


def bundled_study_path(name: str) -> Path:
    """Path of a study spec shipped inside the package."""
    base = resources.files("netdesign").joinpath("studies")
    candidate = base.joinpath(f"{name}.yaml")
    if not candidate.is_file():
        known = ", ".join(list_bundled_studies()) or "none"
        raise StudySpecError(f"no bundled study named {name!r}; available: {known}")
    return Path(str(candidate))


def list_bundled_studies() -> list:
    base = resources.files("netdesign").joinpath("studies")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".yaml"))


# ---------------------------------------------------------------------------
# Seeds and shared dataset construction.


def derive_seed(master: int, *indices: int) -> int:
    """Stable child seed for a cell of the study grid.

    The trailing length word keeps index tuples with trailing zeros from
    colliding (SeedSequence pads its entropy with zeros)."""
    words = (int(master),) + tuple(int(i) for i in indices) + (len(indices),)
    return int(np.random.SeedSequence(words).generate_state(1, dtype=np.uint64)[0])


def synth_dataset(n: int, p: int, density: float, seed: int):
    """One synthetic replicate: Bernoulli network (isolation repaired by
    connecting), iid sign covariates.  Everything derives from one seed so
    a row's dataset_seed regenerates its inputs exactly."""
    net = generate_bernoulli_network(n, density, seed=derive_seed(seed, 1))
    net = repair_isolated(net, "connect", seed=derive_seed(seed, 2)).network
    cov = generate_pm1_covariates(n, p, seed=derive_seed(seed, 3))
    return net, cov


# ---------------------------------------------------------------------------
# Result container.


@dataclass(frozen=True)
class StudyResult:
    """Long-format rows plus the metadata needed to audit them."""

    kind: str
    columns: tuple
    rows: list
    meta: dict

    def write(self, path) -> Path:
        """CSV table at `path`; JSON sidecar at `path` + '.meta.json'."""
        path = Path(path)
        path.write_text(_table_text(self.columns, self.rows, "csv"), newline="")
        path.with_name(path.name + ".meta.json").write_text(_table_text(None, self.meta, "json"))
        return path


def _table_text(columns, rows, fmt: str) -> str:
    """`rows` as CSV under the fixed `columns` header, or as a JSON document
    when fmt is "json" (columns unused; rows may be any JSON value)."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([_format_cell(row.get(c)) for c in columns] for row in rows)
    return buf.getvalue()


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # numpy scalars subclass float but repr as np.float64(...)
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return "|".join(str(item) for item in v)
    return str(v)


def _meta(spec: StudySpec, columns, rows) -> dict:
    try:
        version = metadata.version("netdesign")
    except metadata.PackageNotFoundError:
        version = "unknown"
    params = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in spec.params.items()
    }
    return {
        "kind": spec.kind,
        "name": spec.name,
        "master_seed": spec.seed,
        "full_scale": spec.full,
        "params": params,
        "columns": list(columns),
        "row_count": len(rows),
        "version": version,
    }


def _rho_heads(base: dict, rho_ts) -> list:
    """One row head per rho_t.  A head is a row without its status: the base
    fields plus what names the row in its cell (a rho_t, a design_kind or nothing)."""
    return [{**base, "rho_t": rho_t} for rho_t in rho_ts]


def _solved(heads, run) -> tuple:
    """(report, []) when `run()` returns a feasible report; otherwise (None,
    each head with a status naming the NetdesignError or "infeasible")."""
    try:
        report = run()
    except NetdesignError as e:
        return None, [{**head, "status": type(e).__name__} for head in heads]
    if not report.feasible:
        return None, [{**head, "status": "infeasible"} for head in heads]
    return report, []


def _scored(heads, score) -> list:
    """Each head as an "ok" row carrying the fields `score(head)` returns, or
    with a status naming the NetdesignError that scoring raised."""
    out = []
    for head in heads:
        try:
            out.append({**head, **score(head), "status": "ok"})
        except NetdesignError as e:
            out.append({**head, "status": type(e).__name__})
    return out


def _breakdown_row(ev: CriterionEvaluator, x) -> dict:
    """Precision improvement and criterion terms of design x under `ev`."""
    br = ev.breakdown(x)
    return {
        "pip": ev.pip(x), "precision": br.precision,
        "network_term": br.network_term, "imbalance_term": br.imbalance_term,
    }


# Kinds whose cells cost less than a forked worker takes to start.  A
# gap_histogram cell scores one iid design, about 0.5 ms at desk size,
# against several ms for a child counting its copy-on-write faults: the
# 20-design study took 16.5-19.4 ms on two workers against 11.4-11.9 ms
# in one process (2-vCPU VM, BLAS on one thread).  Every other kind's
# cells solve designs or fit models.  `netdesign study` runs these in one
# process unless --threads asks for workers.
LIGHT_CELL_KINDS = frozenset({"gap_histogram"})


def run_study(spec: StudySpec, threads: int = 1) -> StudyResult:
    """Run the study `spec` describes.  The kind's function gives (columns,
    cell, cells); the rows are each cell's, in cell order.  The cells run
    on _pool.worker_count(threads, cells) processes, never more than
    there are cells or usable CPUs: this one computes the first
    contiguous share of cells and a forked child each other share, and
    with BLAS held to one thread no two share a CPU.  One worker, the
    default, or a platform without fork, runs them one after another in
    this process, so a library call forks only when asked.  The result
    is byte-identical for any count.  DataError unless `threads` is an
    integer of at least 1."""
    _pool.check_count(threads, "threads")
    columns, cell, cells = {
        "alpha_sweep": _alpha_sweep,
        "rho_robustness": _rho_robustness,
        "network_vs_no_network": _network_comparison,
        "size_sweep": _network_comparison,
        "pseudo_experiment": _pseudo_experiment,
        "gap_histogram": _gap_histogram,
    }[spec.kind](spec)
    cells = list(cells)
    workers = _pool.worker_count(threads, len(cells))
    rows = [row for rows in _pool.fork_map(cell, cells, workers) for row in rows]
    return StudyResult(spec.kind, columns, rows, _meta(spec, columns, rows))


# ---------------------------------------------------------------------------
# Alpha sensitivity sweep.

ALPHA_SWEEP_COLUMNS = (
    "replicate", "n", "p", "density", "rho0", "alpha_requested", "alpha_used",
    "relaxations", "rho_t", "pip", "precision", "network_term", "imbalance_term",
    "objective", "constraint_value", "solver_method", "solver_iterations",
    "dataset_seed", "solver_seed", "status",
)


def _alpha_sweep(spec: StudySpec):
    """Design at rho0 under each cap level; record criterion and precision
    improvement at every evaluation correlation."""
    P = spec.params

    def cell(rep: int):
        dataset_seed = derive_seed(spec.seed, 0, rep)
        # The dataset and one evaluator per rho_t are shared by the designs
        # of every alpha; a failed draw or build is not cached, so it fails
        # again for each of them.
        dataset = functools.cache(lambda: synth_dataset(P["n"], P["p"], P["density"], dataset_seed))
        evaluator = functools.cache(lambda rho_t: CriterionEvaluator(*dataset(), rho_t))
        out = []
        for ai, alpha in enumerate(P["alphas"]):
            solver_seed = derive_seed(spec.seed, 1, rep, ai)
            base = {
                "replicate": rep, "n": P["n"], "p": P["p"], "density": P["density"],
                "rho0": P["rho0"], "alpha_requested": alpha,
                "dataset_seed": dataset_seed, "solver_seed": solver_seed,
            }
            report, rows = _solved(_rho_heads(base, P["rho_ts"]), lambda: solve(
                hybrid_problem(*dataset(), P["rho0"], alpha),
                method=P["method"], seed=solver_seed, restarts=P["restarts"],
            ))
            if report is not None:
                solved = {
                    **base,
                    "alpha_used": report.alpha,
                    "relaxations": "|".join(str(a) for a in report.relaxations_applied),
                    "objective": report.objective,
                    "constraint_value": report.constraint_value,
                    "solver_method": report.method,
                    "solver_iterations": report.iterations,
                }
                rows = _scored(_rho_heads(solved, P["rho_ts"]),
                               lambda h: _breakdown_row(evaluator(h["rho_t"]), report.design.x))
            out += rows
        return out

    return ALPHA_SWEEP_COLUMNS, cell, range(P["replicates"])


# ---------------------------------------------------------------------------
# Robustness to the assumed correlation.

RHO_ROBUSTNESS_COLUMNS = (
    "replicate", "n", "p", "density", "alpha", "rho0", "rho_t",
    "pip_local", "pip_true", "pip_difference",
    "dataset_seed", "solver_seed", "status",
)


def _rho_robustness(spec: StudySpec):
    """Compare the design solved at rho0 with one solved at each true
    correlation, both scored at the true correlation.  The same solver
    seed is used across the grid, so the design solved at rho0 is also the
    true design of the rho_t == rho0 cell: an exact self-comparison with
    difference zero, solved once."""
    P = spec.params

    def cell(rep: int):
        dataset_seed = derive_seed(spec.seed, 0, rep)
        solver_seed = derive_seed(spec.seed, 1, rep)
        dataset = functools.cache(lambda: synth_dataset(P["n"], P["p"], P["density"], dataset_seed))
        base = {
            "replicate": rep, "n": P["n"], "p": P["p"], "density": P["density"],
            "alpha": P["alpha"], "rho0": P["rho0"],
            "dataset_seed": dataset_seed, "solver_seed": solver_seed,
        }

        def design(rho):
            prob = hybrid_problem(*dataset(), rho, P["alpha"])
            return solve(prob, method=P["method"], seed=solver_seed, restarts=P["restarts"])

        def score(true, head):
            ev = CriterionEvaluator(*dataset(), head["rho_t"])
            pip_local, pip_true = ev.pip(local.design.x), ev.pip(true.design.x)
            return {"pip_local": pip_local, "pip_true": pip_true,
                    "pip_difference": pip_true - pip_local}

        local, out = _solved(_rho_heads(base, P["rho_ts"]), lambda: design(P["rho0"]))
        if local is None:
            return out
        for head in _rho_heads(base, P["rho_ts"]):
            rho_t = head["rho_t"]
            true, rows = _solved([head], lambda: local if rho_t == P["rho0"] else design(rho_t))
            if true is not None:
                rows = _scored([head], lambda h: score(true, h))
            out += rows
        return out

    return RHO_ROBUSTNESS_COLUMNS, cell, range(P["replicates"])


# ---------------------------------------------------------------------------
# With-network versus covariate-only designs (single n or a size grid).

NETWORK_COMPARISON_COLUMNS = (
    "replicate", "n", "p", "density", "rho0", "alpha", "method_kind", "rho_t",
    "pip", "precision", "network_term", "imbalance_term",
    "expected_network_term", "expected_imbalance_term",
    "t1_improvement", "t2_improvement", "solver_iterations",
    "dataset_seed", "solver_seed", "status",
)


def _network_comparison(spec: StudySpec):
    """Hybrid design versus the covariate-only design on shared datasets.

    Improvements are measured against the exact random-balanced-design
    expectations of the two criterion terms at the evaluation correlation:
    positive improvement means less precision lost than a random design
    loses on average."""
    P = spec.params
    n_grid = P.get("n_grid") or (P["n"],)
    cells = [(rep, ni) for rep in range(P["replicates"]) for ni in range(len(n_grid))]

    def cell(args):
        rep, ni = args
        n = n_grid[ni]
        dataset_seed = derive_seed(spec.seed, 0, rep, ni)
        # A failed draw is not cached, so it fails again for the second kind.
        dataset = functools.cache(lambda: synth_dataset(n, P["p"], P["density"], dataset_seed))
        evaluator = functools.cache(lambda rho_t: CriterionEvaluator(*dataset(), rho_t))
        solvers = {
            "network": lambda seed: solve(
                hybrid_problem(*dataset(), P["rho0"], P["alpha"]),
                method=P["method"], seed=seed, restarts=P["restarts"],
            ),
            "no_network": lambda seed: solve_no_network(
                dataset()[1], method=P["method"], seed=seed, restarts=P["restarts"]
            ),
        }

        def score(report, head):
            ev = evaluator(head["rho_t"])
            row = _breakdown_row(ev, report.design.x)
            exp = ev.expected_breakdown()
            return {
                **row,
                "expected_network_term": exp.network_term,
                "expected_imbalance_term": exp.imbalance_term,
                "t1_improvement": exp.network_term - row["network_term"],
                "t2_improvement": exp.imbalance_term - row["imbalance_term"],
                "solver_iterations": report.iterations,
            }

        out = []
        for ki, (kindname, run) in enumerate(solvers.items()):
            solver_seed = derive_seed(spec.seed, 1, rep, ni, ki)
            base = {
                "replicate": rep, "n": n, "p": P["p"], "density": P["density"],
                "rho0": P["rho0"], "alpha": P["alpha"], "method_kind": kindname,
                "dataset_seed": dataset_seed, "solver_seed": solver_seed,
            }
            heads = _rho_heads(base, P["rho_ts"])
            report, rows = _solved(heads, lambda: run(solver_seed))
            if report is not None:
                rows = _scored(heads, lambda h: score(report, h))
            out += rows
        return out

    return NETWORK_COMPARISON_COLUMNS, cell, cells


# ---------------------------------------------------------------------------
# Pseudo experiment: simulate outcomes, fit, rank MSEs.

PSEUDO_EXPERIMENT_COLUMNS = (
    "replicate", "n_kept", "p", "design_kind", "design_index", "mse", "percentile",
    "fit_failures", "draws", "rho0", "alpha",
    "dataset_seed", "solver_seed", "design_seed", "rho_seed", "status",
)


def _mse_percentile(opt_mse: float, random_mses) -> float:
    below = sum(1 for r in random_mses if r < opt_mse)
    ties = sum(1 for r in random_mses if r == opt_mse)
    return (below + 0.5 * ties) / len(random_mses)


def _pseudo_experiment(spec: StudySpec):
    """Outcome-level comparison on subsampled networks.

    Per replicate: subsample the base network, drop isolated nodes, solve
    the hybrid and covariate-only designs, draw ten random balanced
    designs, then simulate outcomes from the heterogeneous-correlation
    model (rho_i uniform, drawn once per replicate) and fit the
    single-correlation model by profile likelihood.  The same noise field
    is shared by all twelve designs within a draw, so MSE differences
    reflect the designs, not the noise.  All draws of all twelve designs
    are fitted in one profile-likelihood call: one rho search, whose passes
    price log|D - rho W| once per distinct rho.  Each optimal design's MSE
    is ranked inside the ten random-design MSEs."""
    P = spec.params
    if P["edges_path"] is not None:
        base_net = load_edge_list(P["edges_path"])
        base_cov = load_covariates(
            P["covariates_path"],
            keep_first=P["keep_first"],
            header=P["covariates_header"],
        )
        check_covariate_rows(base_net, base_cov)
    else:
        base_net = generate_bernoulli_network(
            P["n_base"], P["density"], seed=derive_seed(spec.seed, 0, 0)
        )
        base_cov = generate_pm1_covariates(
            P["n_base"], P["p"], seed=derive_seed(spec.seed, 0, 1)
        )

    n_random = 10

    def cell(rep: int):
        dataset_seed = derive_seed(spec.seed, 1, rep)
        solver_seed = derive_seed(spec.seed, 2, rep)
        rho_seed = derive_seed(spec.seed, 4, rep)
        base = {
            "replicate": rep, "p": P["p"], "draws": P["draws"], "rho0": P["rho0"],
            "alpha": P["alpha"], "dataset_seed": dataset_seed,
            "solver_seed": solver_seed, "rho_seed": rho_seed,
        }

        @functools.cache
        def dataset():
            sub_net, sub_cov = subsample_network(base_net, base_cov, P["subsample"], dataset_seed)
            rr = repair_isolated(sub_net, "remove")
            # Drop the constant columns that subsampling can create.
            values = sub_cov.values[rr.kept][:, 1:]
            cov = CovariateMatrix.from_raw(values[:, np.ptp(values, axis=0) > 0.0])
            if rr.network.n < 4 * n_random:
                raise NetdesignError(f"only {rr.network.n} nodes left after repair")
            return rr.network, cov

        # Both rows carry the first failure; the hybrid design is solved first.
        heads = [{**base, "design_kind": kind} for kind in ("hybrid", "no_network")]
        hybrid, out = _solved(heads, lambda: solve(
            hybrid_problem(*dataset(), P["rho0"], P["alpha"]), method=P["method"],
            seed=derive_seed(spec.seed, 2, rep, 0), restarts=P["restarts"],
        ))
        if hybrid is None:
            return out
        nonet, out = _solved(heads, lambda: solve_no_network(
            dataset()[1], method=P["method"],
            seed=derive_seed(spec.seed, 2, rep, 1), restarts=P["restarts"],
        ))
        if nonet is None:
            return out
        net, cov = dataset()

        design_seeds = [derive_seed(spec.seed, 3, rep, j) for j in range(n_random)]
        designs = (
            [("hybrid", None, hybrid.design.x, None),
             ("no_network", None, nonet.design.x, None)]
            + [
                ("random", j, random_balanced_design(net.n, design_seeds[j]).x,
                 design_seeds[j])
                for j in range(n_random)
            ]
        )

        rho_vec = np.random.default_rng(rho_seed).uniform(
            P["rho_lo"], P["rho_hi"], net.n
        )
        params = HeteroCarParams(rho=rho_vec, sigma2=P["sigma2"], theta=P["theta"])
        factor = factor_precision(net, params)

        noise = np.column_stack([
            sample_noise(factor, P["sigma2"], derive_seed(spec.seed, 5, rep, d))
            for d in range(P["draws"])
        ])
        # One fit of all designs and draws; None marks a failed draw, a network-level
        # error fails them all, and a rank-deficient [x F] all draws of its design.
        xs = np.array([x for _, _, x, _ in designs])
        try:
            fits = fit_profile_ml(net, cov, xs, (P["theta"] * x[:, None] + noise for x in xs))
        except NetdesignError:
            fits = [[None] * P["draws"]] * len(designs)
        mses, failures = [], []
        for design_fits in fits:
            ok = [fit.theta_hat for fit in design_fits if fit is not None]
            failures.append(len(design_fits) - len(ok))
            mses.append(sum((t - P["theta"]) ** 2 for t in ok) / len(ok) if ok else None)
        random_mses = [m for kind_m, m in zip(designs, mses) if kind_m[0] == "random"
                       and m is not None]
        out = []
        for k, (kindname, idx, _, dseed) in enumerate(designs):
            row = {
                **base, "n_kept": net.n, "design_kind": kindname,
                "design_index": idx, "mse": mses[k],
                "fit_failures": failures[k], "design_seed": dseed,
                "status": "ok" if mses[k] is not None else "fit_failed",
            }
            if kindname in ("hybrid", "no_network") and mses[k] is not None and random_mses:
                row["percentile"] = _mse_percentile(mses[k], random_mses)
            out.append(row)
        return out

    return PSEUDO_EXPERIMENT_COLUMNS, cell, range(P["replicates"])


# ---------------------------------------------------------------------------
# Surrogate-gap histogram.

GAP_HISTOGRAM_COLUMNS = (
    "design_index", "n", "density", "t_at_rho0", "gap", "second_derivative_term",
    "rho_mean", "rho_var", "bound_a", "bound_b", "alpha_bound",
    "design_seed", "rho_seed", "status",
)


def _gap_design(seed: int, idx: int, n: int, prior_draws: int):
    """Design idx of a prior-gap check, iid on n nodes, and its prior of prior_draws
    uniform rho draws on [0, 1): (design seed, prior seed, x, rhos)."""
    design_seed, rho_seed = derive_seed(seed, 1, idx), derive_seed(seed, 2, idx)
    rhos = np.random.default_rng(rho_seed).uniform(0.0, 1.0, prior_draws)
    return design_seed, rho_seed, random_iid_design(n, design_seed).x, rhos


def _gap_histogram(spec: StudySpec):
    """Sample completely randomized designs on one dense network and record
    the surrogate criterion, the prior-averaging gap, and its bounds.

    The reference correlation for each design is the mean of its own prior
    draws, which makes the concavity argument exact: every recorded gap is
    nonnegative up to roundoff."""
    P = spec.params
    net = generate_bernoulli_network(
        P["n"], P["density"], seed=derive_seed(spec.seed, 0, 0)
    )
    net = repair_isolated(net, "connect", seed=derive_seed(spec.seed, 0, 1)).network
    z = np.random.default_rng(derive_seed(spec.seed, 0, 2)).normal(
        0.0, P["covariate_sd"], size=(P["n"], 1)
    )
    cov = CovariateMatrix.from_raw(z)

    def cell(li: int):
        design_seed, rho_seed, x, rhos = _gap_design(spec.seed, li, P["n"], P["rho_draws"])
        base = {
            "design_index": li, "n": P["n"], "density": P["density"],
            "alpha_bound": P["alpha_bound"],
            "design_seed": design_seed, "rho_seed": rho_seed,
        }

        def score(_):
            diag = surrogate_gap_diagnostics(net, cov, x, float(rhos.mean()), rhos,
                                             alpha=P["alpha_bound"])
            return {
                "t_at_rho0": diag.t_at_rho0, "gap": float(diag.gap_estimate),
                "second_derivative_term": float(diag.second_derivative_term),
                "rho_mean": diag.rho0, "rho_var": float(diag.var_rho),
                "bound_a": float(diag.bound_a), "bound_b": float(diag.bound_b),
            }

        return _scored([base], score)

    return GAP_HISTOGRAM_COLUMNS, cell, range(P["designs"])
