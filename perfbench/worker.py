"""One fresh interpreter of the benchmark: set up netdesign, then run operations.

    python3 perfbench/worker.py PLAN.json setup RESULT.json
    python3 perfbench/worker.py PLAN.json run RESULT.json SECONDS TRACE

`setup` times `import netdesign.cli` plus reading the workload's inputs
and exits.  `run` does the same, then calls `netdesign.cli.main` with the
plan's arguments until SECONDS are used up, checking that every
repetition writes the same bytes.  After each repetition it times the
reference kernel and, untraced, one `setup` in a fresh interpreter, so
that every time has a speed reading next to it.  With TRACE=1 it
alternates untraced and traced repetitions, so one run gives both the
tracing overhead and the per-layer numbers.  The plan is written by
run.py; the program's source directory must be on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Untraced runs alone, or untraced and traced in turn; every input also runs
# twice, so that its outputs can be compared.
MIN_REPS = {False: 3, True: 2}
SETUP_TIMEOUT = 60.0


def set_up(plan):
    """Import the program and read the workload's inputs, as a user's run would."""
    import netdesign.cli  # noqa: F401
    from netdesign import load_covariates, load_edge_list, load_study_spec

    if plan["spec"]:
        load_study_spec(plan["spec"])
    if plan["edges"]:
        load_edge_list(plan["edges"])
        load_covariates(plan["covariates"])
    return time.perf_counter() - _T0


def fresh_setup(plan_path, out):
    """set_up() in a new interpreter; its seconds."""
    subprocess.run([sys.executable, __file__, str(plan_path), "setup", str(out)],
                   check=True, timeout=SETUP_TIMEOUT)
    return json.loads(out.read_text())["setup_s"]


def run_once(plan, rep):
    """Repetition `rep`, on input rep % len(plan["argvs"]); returns (wall seconds,
    exit code, digest of its outputs)."""
    import netdesign.cli

    out_dir = Path(plan["workdir"]) / f"rep{rep}"
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = plan["argvs"]
    argv = [a.replace("{out}", str(out_dir)) for a in argvs[rep % len(argvs)]]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = netdesign.cli.main(argv)
    except Exception:  # a crash is one failed repetition, not a failed benchmark
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - start
    digest = hashlib.sha256()
    for name in plan["outputs"]:
        path = out_dir / name
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return wall, code, digest.hexdigest()


def write_spans(path, reps):
    """One JSON line per span: repetition, id, name, parent id, times."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rep, spans in enumerate(reps):
            for s in spans:
                fh.write(json.dumps({"rep": rep, "id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "cpu": s.cpu_end - s.cpu_start}) + "\n")


def run(plan_path, plan, seconds, trace):
    from reference import machine_reference
    from tracing import EXACT, Tracer, install, layer_metrics, uninstall

    work = Path(plan["workdir"])
    tracer = Tracer() if trace else None
    kinds = (False, True) if trace else (False,)
    walls = {False: [], True: []}
    reps, setups, layers, kept, missing = [], [], [], [], []
    started = time.perf_counter()
    ref = machine_reference()
    while True:
        for traced in kinds:
            undo, missing = install(tracer) if traced else ([], missing)
            try:
                wall, code, digest = run_once(plan, len(reps))
            finally:
                uninstall(undo)
            if traced:
                spans = tracer.take()
                layers.append(layer_metrics(spans))
                kept.append(spans)
            walls[traced].append(wall)
            ref_after = machine_reference()
            reps.append({"wall": wall, "ref": (ref + ref_after) / 2, "code": code,
                         "digest": digest, "traced": traced})
            ref = ref_after
            if len(reps) > len(plan["argvs"]):  # the first run of each input keeps its files
                shutil.rmtree(work / f"rep{len(reps) - 1}")
        if not trace:
            setups.append({"setup_s": fresh_setup(plan_path, work / "setup.json"), "ref": ref})
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(walls[False])
        enough = len(walls[False]) >= MIN_REPS[trace] and len(reps) > len(plan["argvs"])
        if enough and elapsed + per_round > seconds:
            break
    result = {"reps": reps, "setups": setups,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["inexact"] = sorted(k for k in EXACT if len({m[k] for m in layers}) > 1)
        result["missing"] = missing  # traced names absent at this commit
        write_spans(Path(plan["spans"]), kept)
    return result


def main(argv):
    plan = json.loads(Path(argv[1]).read_text())
    result = {"setup_s": set_up(plan)}
    if argv[2] == "run":
        result.update(run(argv[1], plan, float(argv[4]), argv[5] == "1"))
    Path(argv[3]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
