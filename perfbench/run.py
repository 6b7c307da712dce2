"""netdesign benchmark: four workloads through the public command-line API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netdesign checkout; the program is imported from
its `src/` directory.  The benchmark writes its inputs from its own numpy
generator, runs the workload in fresh interpreters (perfbench/worker.py)
with the BLAS thread pools pinned to one thread, checks every output with
perfbench/oracle.py, and prints one JSON object as the last line of
standard output.  With --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of perfbench/tracing.py.  The line before
it records the environment, the instances and the samples behind each
median.

Workloads (the operation each one counts in brackets):
  design_n1000       `netdesign design` with default flags on Bernoulli
                     graphs, n=1000, density 0.01, p=10, three per run
                     [one solve].  Nearly all time is in the optimizer.
  gap_histogram      `netdesign study` of kind gap_histogram at desk
                     parameters, 20 designs [one design].  No solver;
                     nearly all time builds criterion evaluators.
  pseudo_experiment  `netdesign study` of kind pseudo_experiment on a base
                     network the benchmark writes, n=400, density 0.02,
                     p=5, two replicates [one profile-ML fit].  Nearly all
                     time is in car.fit_profile_ml.
  alpha_sweep_t2     `netdesign study` of kind alpha_sweep at desk
                     parameters with --threads 2 [one row].  Forty small
                     solves plus scoring, on the study thread pool.

End-to-end metrics:
  wall_s            median wall time of one workload run (one CLI call), at
                    reference speed: each time is scaled by REFERENCE_S over
                    the time of perfbench/reference.py's fixed kernel, run
                    on every CPU before and after it.  Shared machines drift
                    by tens of percent within minutes; the scaling cut the
                    spread of this median across runs two- to threefold.
                    Raw times are on the line before the result.
  setup_s           median, over fresh interpreters started between the
                    repetitions, of `import netdesign.cli` plus reading the
                    workload's spec and input files, at reference speed.
  peak_rss_mb       peak resident set of the interpreter that ran the workload.
  ok_frac           operations that passed every check over operations attempted
                    (1 - the failure fraction; a metric that is never 0).
  design_precision  x'K(rho0)x of the optimized designs a workload writes, over
                    its mean for a uniformly random balanced design on the same
                    network: 1 / (1 - PIP).  design_n1000: dense oracle;
                    alpha_sweep_t2: the pip column at rho_t = rho0.  It reads 1,
                    the value of a random design, on gap_histogram (random
                    designs by construction) and pseudo_experiment (the study
                    writes MSEs, not designs).
  theta_mse         mean squared error of the treatment-effect estimate, in
                    units of theta squared: simulated profile-ML fits on
                    pseudo_experiment (all designs, so that its spread across
                    seeds stays inside the bound), and sigma2 / x'K(rho0)x, the
                    exact GLS variance at unit noise, on the designs of the
                    workloads that simulate nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from instances import bernoulli_instance  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("design_n1000", "gap_histogram", "pseudo_experiment", "alpha_sweep_t2")
DESIGN_INSTANCES = 3
TIME_LIMIT = 170.0  # seconds for a whole run, set-up included
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RHO0, ALPHA = 0.5, 0.001  # netdesign design defaults
SPECS = {
    "gap_histogram": {"kind": "gap_histogram", "designs": 20},
    "pseudo_experiment": {"kind": "pseudo_experiment", "replicates": 2},
    "alpha_sweep_t2": {"kind": "alpha_sweep"},
}
# Operations one workload run attempts: solves, designs, profile-ML fits, rows.
OPS = {"design_n1000": 1, "gap_histogram": 20, "pseudo_experiment": 1200, "alpha_sweep_t2": 200}
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
         "design_precision": "ratio", "theta_mse": "theta_sq"}


class BenchError(Exception):
    pass


def prepare(workload: str, seed: int, work: Path, trace: bool) -> tuple:
    """Write the workload's inputs.

    Returns the plan for worker.py, a record of the inputs, and the
    generated instances the oracle checks against (None for the studies).
    design_n1000 cycles through DESIGN_INSTANCES graphs, so that one run's
    median does not rest on a single graph; a traced run uses the first
    only, because its counts must repeat exactly.
    """
    plan = {"workdir": str(work), "spec": None, "edges": None}
    if workload == "design_n1000":
        insts, records = [], []
        for k in range(1 if trace else DESIGN_INSTANCES):
            insts.append(bernoulli_instance(1000, 0.01, 10, seed=(seed, 0, k)))
            records.append(insts[-1].write(work / f"design{k}"))
        plan.update(edges=records[0]["edges_path"], covariates=records[0]["covariates_path"],
                    argvs=[["design", r["edges_path"], r["covariates_path"], "--output",
                            "{out}/design.csv", "--design-out", "{out}/x.design"]
                           for r in records],
                    outputs=["design.csv", "x.design"])
        return plan, records, insts
    spec = dict(SPECS[workload], seed=seed)
    record = {}
    if workload == "pseudo_experiment":
        record = bernoulli_instance(400, 0.02, 5, seed=(seed, 1)).write(work / "base")
        spec.update(edges_path=record["edges_path"], covariates_path=record["covariates_path"])
        plan.update(edges=record["edges_path"], covariates=record["covariates_path"])
    spec_path = work / "spec.yaml"
    spec_text = "".join(f"{k}: {v}\n" for k, v in spec.items())
    spec_path.write_text(spec_text)
    record["spec_sha256"] = hashlib.sha256(spec_text.encode()).hexdigest()
    argv = ["study", str(spec_path), "--output", "{out}/study.csv"]
    if workload == "alpha_sweep_t2":
        argv += ["--threads", "2"]
    plan.update(spec=str(spec_path), argvs=[argv], outputs=["study.csv", "study.csv.meta.json"])
    return plan, [record], [None]


def child(plan_path: Path, result: Path, env: dict, deadline: float, *extra) -> dict:
    """Run worker.py in its own session; on timeout, stop it and what it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), "run", str(result), *extra]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker ran past the {TIME_LIMIT:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(result.read_text())


def check(workload: str, out: Path, inst) -> dict:
    """Oracle checks on one run's files: operations, failures and the two
    quality metrics, as defined in this module's docstring."""
    if workload == "design_n1000":
        record = oracle.parse_csv((out / "design.csv").read_text())[0]
        x = np.array([float(v) for v in (out / "x.design").read_text().split()])
        F = np.column_stack([np.ones(inst.n), inst.z])
        problems, terms = oracle.check_design(inst.adjacency(), F, x, record, RHO0, ALPHA)
        if terms is None:
            return {"ops": 1, "failed": 1, "problems": problems}
        return {"ops": 1, "failed": int(bool(problems)), "problems": problems,
                "design_precision": terms["precision"] / terms["expected_precision"],
                "theta_mse": 1.0 / terms["precision"]}
    rows = oracle.parse_csv((out / "study.csv").read_text())
    if workload == "gap_histogram":
        bad = [(r["design_index"], p) for r in rows for p in [oracle.check_gap_row(r)] if p]
        return {"ops": len(rows), "failed": len(bad), "problems": bad[:5],
                "design_precision": 1.0,
                "theta_mse": statistics.fmean(1.0 / float(r["t_at_rho0"]) for r in rows)}
    if workload == "alpha_sweep_t2":
        bad = [(r["replicate"], r["alpha_requested"], r["rho_t"], p)
               for r in rows for p in [oracle.check_alpha_sweep_row(r, RHO0)] if p]
        table = oracle.check_alpha_sweep_table(rows)
        at_rho0 = [r for r in rows if r["status"] == "ok" and float(r["rho_t"]) == RHO0]
        return {"ops": len(rows), "failed": len(rows) if table else len(bad),
                "problems": (table + bad)[:5],
                "design_precision": statistics.fmean(
                    1.0 / (1.0 - float(r["pip"])) for r in at_rho0),
                "theta_mse": statistics.fmean(1.0 / float(r["precision"]) for r in at_rho0)}
    # pseudo_experiment: the operation is one profile-ML fit, `draws` per row
    failed, problems = 0, []
    for r in rows:
        p = oracle.check_pseudo_row(r)
        failed += int(r["draws"]) if p else int(r["fit_failures"] or 0)
        if p:
            problems.append((r["replicate"], r["design_kind"], r["design_index"], p))
    mses = [float(r["mse"]) for r in rows if r["status"] == "ok"]
    return {"ops": sum(int(r["draws"]) for r in rows), "failed": failed,
            "problems": problems[:5], "design_precision": 1.0,
            "theta_mse": statistics.fmean(mses) if mses else sys.float_info.max}


def checked(workload: str, out: Path, inst) -> dict:
    """check(), with unreadable or short output counted as failed operations."""
    try:
        outcome = check(workload, out, inst)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return {"failed": OPS[workload], "problems": [f"unreadable output: {e!r}"]}
    if outcome.pop("ops") < OPS[workload]:
        outcome["failed"] = OPS[workload]
        outcome["problems"].append("output has fewer operations than the workload runs")
    return outcome


def quality(outcomes: list, key: str, worst: float) -> float:
    if any(key not in o for o in outcomes):
        return worst
    return statistics.fmean(o[key] for o in outcomes)


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):  # show_config's layout is not stable
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), **BLAS_ENV}


def commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    if not (root / "src" / "netdesign" / "__init__.py").is_file():
        raise BenchError("src/netdesign not found: run from the root of a netdesign checkout")
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, records, insts = prepare(workload, seed, work, trace)
        if trace:
            plan["spans"] = str(root / ".perfbench_traces" / f"{workload}-{seed}.jsonl")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        env = dict(os.environ, **BLAS_ENV)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        res = child(plan_path, work / "run.json", env, deadline, str(seconds), str(int(trace)))
        # Repetition k ran input k % len(insts); the first run of each input kept its files.
        outcomes = [checked(workload, work / f"rep{k}", inst) for k, inst in enumerate(insts)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    reps = res["reps"]
    problems, failed = [], 0
    for k, r in enumerate(reps):
        first = reps[k % len(insts)]
        if r["code"] != 0 or r["digest"] != first["digest"]:
            failed += OPS[workload]
            problems.append(f"repetition {k}: exit code {r['code']} or outputs differ")
        else:
            failed += outcomes[k % len(insts)]["failed"]
    attempted = OPS[workload] * len(reps)
    for o in outcomes:
        problems.extend(o["problems"])
    walls = [r["wall"] for r in reps if not r["traced"]]
    at_ref = {traced: [r["wall"] * REFERENCE_S / r["ref"] for r in reps if r["traced"] == traced]
              for traced in (False, True)}
    if trace and res["inexact"]:
        problems.append(f"counts differ between traced repetitions: {res['inexact']}")
    info = {
        "workload": workload, "seed": seed, "commit": commit(root), "inputs": records,
        "environment": environment(),
        "wall_samples": len(walls),
        "wall_s_at_reference": at_ref[False],
        "wall_s_raw": walls,
        "reference_s": [r["ref"] for r in reps],
        "setup_s_raw": [u["setup_s"] for u in res["setups"]],
        "problems": [str(p) for p in problems[:10]],
    }
    if trace:
        traced = [r["wall"] for r in reps if r["traced"]]
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (statistics.median(at_ref[True])
                                       - statistics.median(at_ref[False]))
        info["missing_spans"] = res["missing"]
        info["spans_file"] = plan["spans"]
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    else:
        metrics = {
            "wall_s": statistics.median(at_ref[False]),
            "setup_s": statistics.median(
                u["setup_s"] * REFERENCE_S / u["ref"] for u in res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            # A run whose outputs could not be read reports the worst values.
            "design_precision": quality(outcomes, "design_precision", 0.0),
            "theta_mse": quality(outcomes, "theta_mse", sys.float_info.max),
        }
        units = UNITS
    return {"info": info, "result": {
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
