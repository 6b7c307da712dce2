"""Command-line behavior: exit codes, round trips, and the thin-adapter
rule.  Everything runs in-process through main(argv) so exit codes and
output bytes are observable without spawning subprocesses; only the
check of what a command imports needs a fresh interpreter, and
`study --threads N` forks its workers from the test process.  The oracle
for numerical values is always a direct library call on the same files.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import string
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from forks import no_children
from hypothesis import given, strategies as st

import netdesign
from netdesign import _pool, experiments, optimizer
from netdesign.cli import main
from netdesign.criterion import evaluate, k_matrix, pip, quadform_correlation
from netdesign.designs import Design
from netdesign.errors import DataError
from netdesign.experiments import derive_seed
from netdesign.graph import (
    generate_bernoulli_network,
    load_covariates,
    load_edge_list,
    paired_bipartite_instance,
    write_covariates,
    write_edge_list,
)
from netdesign.optimizer import hybrid_problem, solve


def run(*argv):
    return main([str(a) for a in argv])


def make_dataset(tmp, n=30, p=4, density=0.15, seed=5):
    prefix = tmp / "data"
    assert run("generate", "--n", n, "--p", p, "--density", density,
               "--seed", seed, "--out-prefix", prefix) == 0
    return f"{prefix}_edges.txt", f"{prefix}_covariates.csv"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_round_trip(self, tmp_path):
        edges, covs = make_dataset(tmp_path, n=50, p=10, density=0.08, seed=2)
        net = load_edge_list(edges)
        cov = load_covariates(covs)
        assert net.n == 50
        assert cov.values.shape == (50, 11)
        # regenerating with the same seed gives identical files
        prefix2 = tmp_path / "again"
        run("generate", "--n", 50, "--p", 10, "--density", 0.08,
            "--seed", 2, "--out-prefix", prefix2)
        assert (tmp_path / "data_edges.txt").read_bytes() == (tmp_path / "again_edges.txt").read_bytes()
        assert (tmp_path / "data_covariates.csv").read_bytes() == (tmp_path / "again_covariates.csv").read_bytes()

    def test_bad_density_exits_nonzero(self, tmp_path):
        assert run("generate", "--n", 10, "--p", 2, "--density", 1.5,
                   "--out-prefix", tmp_path / "x") == 2

    def test_unknown_flag_is_usage_error(self):
        assert run("generate", "--n", 10, "--frobnicate", 1) == 1

    def test_zero_covariates_fail_before_any_file(self, tmp_path, capsys):
        # n blank covariate lines would be rejected by every other command;
        # an intercept-only model is --keep-first 0 on a real file.
        capsys.readouterr()
        assert run("generate", "--n", 10, "--p", 0, "--density", 0.3,
                   "--out-prefix", tmp_path / "x") == 2
        assert capsys.readouterr().err == "error: --p must be at least 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "generate" in capsys.readouterr().out

    def test_isolated_nodes_are_connected(self, tmp_path):
        # This draw leaves node 21 isolated; generate gives it an edge, so
        # every other subcommand can read the files.
        assert generate_bernoulli_network(60, 0.1, seed=5).isolated_nodes.tolist() == [21]
        edges, covs = make_dataset(tmp_path, n=60, p=3, density=0.1, seed=5)
        net = load_edge_list(edges)
        assert net.n == 60 and net.isolated_nodes.size == 0
        assert run("design", edges, covs, "--output", tmp_path / "d.csv") == 0
        assert run("diagnose", edges, covs, "--designs", 2, "--scatter-designs", 20,
                   "--prior-draws", 20, "--output", tmp_path / "g.csv") == 0

    def test_draw_without_isolated_nodes_is_written_as_is(self, tmp_path):
        raw = generate_bernoulli_network(30, 0.15, seed=5)
        assert raw.isolated_nodes.size == 0
        edges, _ = make_dataset(tmp_path)
        write_edge_list(raw, tmp_path / "raw.txt")
        assert Path(edges).read_bytes() == (tmp_path / "raw.txt").read_bytes()


class TestDesign:
    def test_report_matches_library(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        out = tmp_path / "report.csv"
        assert run("design", edges, covs, "--rho0", 0.5, "--alpha", 0.01,
                   "--seed", 11, "--output", out) == 0
        row = read_rows(out)[0]
        net = load_edge_list(edges)
        cov = load_covariates(covs)
        report = solve(hybrid_problem(net, cov, 0.5, 0.01), method="auto", seed=11)
        assert float(row["objective"]) == report.objective
        assert float(row["constraint_value"]) == report.constraint_value
        assert row["design"] == report.to_record()["design"]
        assert row["feasible"] == "true"

    def test_bipartite_cuts_every_edge(self, tmp_path):
        net, cov = paired_bipartite_instance(10)
        edges = tmp_path / "bip_edges.txt"
        covs = tmp_path / "bip_z.csv"
        write_edge_list(net, edges)
        write_covariates(cov.values[:, 1:], covs)
        out = tmp_path / "report.csv"
        assert run("design", edges, covs, "--method", "exact",
                   "--alpha", 0.001, "--output", out) == 0
        row = read_rows(out)[0]
        # cap satisfied with every edge crossing arms: x'Wx = -m
        assert float(row["constraint_value"]) == -float(net.m)
        assert float(row["objective"]) == pytest.approx(0.0, abs=1e-10)
        assert row["optimal"] == "true"

    def test_exact_and_local_agree_on_small_instances(self, tmp_path):
        rng = np.random.default_rng(17)
        agree = 0
        for trial in range(10):
            n = int(rng.integers(8, 13))
            net = generate_bernoulli_network(n, 0.5, seed=int(rng.integers(2**31)))
            if net.isolated_nodes.size:
                agree += 1  # skip without penalty, instance invalid
                continue
            z = rng.integers(0, 2, size=(n, 1)) * 2.0 - 1.0
            edges = tmp_path / f"a{trial}_e.txt"
            covs = tmp_path / f"a{trial}_z.csv"
            write_edge_list(net, edges)
            write_covariates(z, covs)
            outs = []
            for method in ("exact", "local"):
                out = tmp_path / f"a{trial}_{method}.csv"
                code = run("design", edges, covs, "--method", method,
                           "--alpha", 0.5, "--seed", 1, "--output", out)
                outs.append((code, out))
            if all(c == 0 for c, _ in outs):
                objs = [float(read_rows(o)[0]["objective"]) for _, o in outs]
                if objs[1] <= objs[0] + 1e-9 * max(1.0, abs(objs[0])):
                    agree += 1
        assert agree >= 9

    def test_design_out_round_trips(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "x.design"
        out = tmp_path / "r.csv"
        run("design", edges, covs, "--design-out", dfile, "--output", out)
        design = Design.from_lines(dfile.read_text())
        row = read_rows(out)[0]
        assert "".join("+" if v > 0 else "-" for v in design.x) == row["design"]

    def test_infeasible_exit_code(self, tmp_path):
        # triangle: every balanced design leaves an uncut edge
        edges = tmp_path / "tri.txt"
        covs = tmp_path / "tri_z.csv"
        edges.write_text("0 1\n0 2\n1 2\n")
        write_covariates(np.array([[1.0], [-1.0], [1.0]]), covs)
        code = run("design", edges, covs, "--alpha", 0.001, "--no-relax",
                   "--output", tmp_path / "r.csv")
        assert code == 3

    def test_missing_file_is_data_error(self, tmp_path):
        _, covs = make_dataset(tmp_path)
        assert run("design", tmp_path / "nope.txt", covs) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_covariate_is_data_error(self, tmp_path, capsys, bad):
        edges, covs = make_dataset(tmp_path)
        lines = Path(covs).read_text().splitlines()
        lines[6] = ",".join([bad] + lines[6].split(",")[1:])
        Path(covs).write_text("\n".join(lines) + "\n")
        assert run("design", edges, covs) == 2
        assert f"{covs}:7: non-finite covariate value" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["edges", "covariates", "design", "study"])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, kind):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "x.design"
        run("design", edges, covs, "--design-out", dfile, "--output", tmp_path / "d.csv")
        spec = tmp_path / "s.yaml"
        spec.write_text("kind: rho_robustness\nn: 20\nreplicates: 1\n")
        bad = Path({"edges": edges, "covariates": covs, "design": dfile, "study": spec}[kind])
        bad.write_bytes(b"# \xff\n" + bad.read_bytes())
        out = tmp_path / "out.csv"
        if kind == "study":
            code = run("study", spec, "--output", out)
        else:
            code = run("evaluate", edges, covs, dfile, "--output", out)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err

    def test_linalg_failure_is_numerical(self, tmp_path, monkeypatch, capsys):
        edges, covs = make_dataset(tmp_path)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("netdesign.cli.hybrid_problem", fail)
        assert run("design", edges, covs) == 4
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["generate", "design"])
    def test_out_of_memory_is_data_error(self, tmp_path, monkeypatch, capsys, sub):
        # Raised, not allocated: under overcommit a huge allocation can
        # succeed and the process be killed later.
        edges, covs = make_dataset(tmp_path)

        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr("netdesign.cli.generate_bernoulli_network", fail)
        monkeypatch.setattr("netdesign.cli.hybrid_problem", fail)
        argv = (["generate", "--n", 100, "--p", 3, "--density", 0, "--out-prefix", tmp_path / "g"]
                if sub == "generate" else ["design", edges, covs])
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"


class TestBadCounts:
    """A --seed below 0 or --restarts below 1 exits 2 naming the flag, before any file is read."""

    MISSING = ("no_such_edges.txt", "no_such_covariates.csv")

    @pytest.mark.parametrize("argv", [
        ("generate", "--n", 10, "--p", 2, "--density", 0.3),
        ("design", *MISSING, "--method", "local"),
        ("design", *MISSING, "--method", "annealing"),
        ("design", *MISSING),
        ("evaluate", *MISSING, "no_such.design"),
        ("diagnose", *MISSING),
        ("study", "no_such_study"),
    ])
    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed(self, tmp_path, capsys, argv, seed):
        assert run(*argv, "--seed", seed, "--output", tmp_path / "out.csv") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed must be at least 0, got {seed}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["auto", "exact", "local", "annealing"])
    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one(self, tmp_path, capsys, method, restarts):
        # auto picks the exact solver, which takes no restarts, at n <= 30.
        assert run("design", *self.MISSING, "--method", method, "--restarts", restarts) == 2
        assert capsys.readouterr().err == f"error: --restarts must be at least 1, got {restarts}\n"

    @pytest.mark.parametrize("threads", [0, -3])
    def test_design_threads_below_one(self, capsys, threads):
        assert run("design", *self.MISSING, "--threads", threads) == 2
        assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"

    def test_generate_writes_nothing(self, tmp_path):
        prefix = tmp_path / "data"
        assert run("generate", "--n", 10, "--p", 2, "--density", 0.3, "--seed", -1,
                   "--out-prefix", prefix) == 2
        assert list(tmp_path.iterdir()) == []

    def test_zero_seed_and_one_restart_are_accepted(self, tmp_path):
        edges, covs = make_dataset(tmp_path, seed=0)
        assert run("design", edges, covs, "--seed", 0, "--restarts", 1, "--method", "local",
                   "--output", tmp_path / "out.csv") == 0


class TestBadInput:
    @pytest.mark.parametrize("sub", ["design", "evaluate", "diagnose"])
    def test_isolated_nodes_are_data_error(self, tmp_path, capsys, sub):
        edges, covs = make_dataset(tmp_path)
        nodes = [v for v in range(30) if v not in (7, 12)]
        Path(edges).write_text(
            "".join(f"{a} {b}\n" for a, b in zip(nodes, nodes[1:] + nodes[:1]))
        )
        dfile = tmp_path / "x.design"
        dfile.write_text("+1\n-1\n" * 15)
        extra = [dfile] if sub == "evaluate" else []
        assert run(sub, edges, covs, *extra, "--output", tmp_path / "out.csv") == 2
        assert f"{edges}: isolated nodes [7, 12] have no edges" in capsys.readouterr().err


    @pytest.mark.parametrize("sub", ["design", "evaluate", "diagnose"])
    def test_covariate_rows_must_match_nodes(self, tmp_path, capsys, sub):
        edges, covs = make_dataset(tmp_path)
        lines = Path(covs).read_text().splitlines(keepends=True)
        Path(covs).write_text("".join(lines[:-1]))
        dfile = tmp_path / "x.design"
        dfile.write_text("+1\n-1\n" * 15)
        extra = [dfile] if sub == "evaluate" else []
        assert run(sub, edges, covs, *extra, "--output", tmp_path / "out.csv") == 2
        assert "covariate rows (29) do not match network nodes (30)" in capsys.readouterr().err


_WORD = st.text(alphabet=string.ascii_letters, min_size=1, max_size=6)


def _edge_corruption(kind, lines, n, data):
    """The data lines of a valid n-node edge list, made invalid one way."""
    i = data.draw(st.integers(0, len(lines) - 1))
    a, b = lines[i].split()
    pos = data.draw(st.integers(0, 1))
    if kind == "truncated line":
        return lines[:i] + [a] + lines[i + 1:]
    if kind == "isolated node":
        v = data.draw(st.integers(0, n - 1))
        return [ln for ln in lines if str(v) not in ln.split()]
    token = {
        "non-numeric token": lambda: data.draw(_WORD),
        "self loop": lambda: b if pos == 0 else a,
        "negative id": lambda: str(data.draw(st.integers(-1000, -1))),
        "id past the covariate rows": lambda: str(data.draw(st.integers(n, n + 1000))),
    }[kind]()
    pair = [token, b] if pos == 0 else [a, token]
    return lines[:i] + [" ".join(pair)] + lines[i + 1:]


def _covariate_corruption(kind, lines, data):
    """The lines of a valid covariate file, made invalid one way."""
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    if kind == "truncated line":
        return lines[:i] + [",".join(fields[:-1])] + lines[i + 1:]
    if kind == "extra field":
        return lines[:i] + [lines[i] + ",1.0"] + lines[i + 1:]
    if kind == "missing row":
        return lines[:i] + lines[i + 1:]
    if kind == "extra row":
        return lines[:i + 1] + lines[i:]
    j = data.draw(st.integers(0, len(fields) - 1))
    fields[j] = data.draw(_WORD)
    return lines[:i] + [",".join(fields)] + lines[i + 1:]


class TestCorruptInput:
    """A corrupted edge list or covariate file exits 2 with a message on
    stderr: never a traceback, and never the numerical-failure code 4."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        edges, covs = make_dataset(tmp_path_factory.mktemp("clean"))
        edge_lines = Path(edges).read_text().splitlines()
        return edge_lines[:1], edge_lines[1:], Path(covs).read_text().splitlines()

    def assert_data_error(self, edge_lines, cov_lines):
        with tempfile.TemporaryDirectory() as tmp:
            edges, covs = Path(tmp, "edges.txt"), Path(tmp, "covs.csv")
            edges.write_text("\n".join(edge_lines) + "\n")
            covs.write_text("\n".join(cov_lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a dropped constant column warns
                code = run("design", edges, covs, "--output", Path(tmp, "out.csv"))
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("kind", [
        "truncated line", "non-numeric token", "self loop", "negative id",
        "id past the covariate rows", "isolated node",
    ])
    @given(data=st.data())
    def test_corrupt_edge_list(self, clean, kind, data):
        header, lines, cov_lines = clean
        self.assert_data_error(header + _edge_corruption(kind, lines, 30, data), cov_lines)

    @pytest.mark.parametrize("kind", [
        "truncated line", "non-numeric token", "extra field", "missing row", "extra row",
    ])
    @given(data=st.data())
    def test_corrupt_covariates(self, clean, kind, data):
        header, lines, cov_lines = clean
        self.assert_data_error(header + lines, _covariate_corruption(kind, cov_lines, data))


class TestEvaluate:
    def test_rows_match_library(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "x.design"
        run("design", edges, covs, "--design-out", dfile,
            "--output", tmp_path / "r.csv")
        out = tmp_path / "eval.csv"
        assert run("evaluate", edges, covs, dfile,
                   "--rho-t", "0.1,0.5,0.9", "--output", out) == 0
        rows = read_rows(out)
        assert [float(r["rho_t"]) for r in rows] == [0.1, 0.5, 0.9]
        net = load_edge_list(edges)
        cov = load_covariates(covs)
        x = Design.from_lines(dfile.read_text()).x
        for r in rows:
            br = evaluate(net, cov, x, float(r["rho_t"]))
            assert float(r["precision"]) == br.precision
            assert float(r["pip"]) == pip(net, cov, x, float(r["rho_t"]))

    def test_consistency_with_solve_report(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "x.design"
        rfile = tmp_path / "r.csv"
        run("design", edges, covs, "--rho0", 0.4, "--design-out", dfile,
            "--output", rfile)
        report = read_rows(rfile)[0]
        out = tmp_path / "eval.csv"
        run("evaluate", edges, covs, dfile, "--rho-t", "0.4", "--output", out)
        row = read_rows(out)[0]
        assert float(row["imbalance_term"]) == pytest.approx(
            float(report["objective"]), rel=1e-12)
        assert float(row["network_term"]) == pytest.approx(
            0.4 * float(report["constraint_value"]), rel=1e-12)

    def test_constant_design_is_degenerate(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "ones.design"
        dfile.write_text("+1\n" * 30)
        assert run("evaluate", edges, covs, dfile) == 2

    def test_length_mismatch(self, tmp_path, capsys):
        # One check and one wording, made before any rho_t is scored; an
        # empty --rho-t list never gets that far (see the next test).
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "short.design"
        dfile.write_text("+1\n-1\n")
        capsys.readouterr()
        for rho_t in ([], ["--rho-t", "0.3,0.7"]):
            assert run("evaluate", edges, covs, dfile, *rho_t) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: design length 2 does not match n=30\n"

    @pytest.mark.parametrize("bad", ["0", "2"])
    def test_bad_design_entry_names_its_line(self, tmp_path, capsys, bad):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "bad.design"
        dfile.write_text(f"+1\n{bad}\n" + "-1\n" * 28)
        capsys.readouterr()
        assert run("evaluate", edges, covs, dfile) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 2: design entries must be +1 or -1\n"

    @pytest.mark.parametrize("rho_t", [",", ""])
    def test_empty_rho_t_is_usage_error(self, tmp_path, capsys, rho_t):
        # A header-only table answers nothing; an empty list is a bad flag.
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "x.design"
        dfile.write_text("+1\n-1\n" * 15)
        capsys.readouterr()
        assert run("evaluate", edges, covs, dfile, "--rho-t", rho_t) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: argument --rho-t: expected at least one value, got {rho_t!r}\n"


class TestDiagnose:
    def test_report_sections(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        out = tmp_path / "diag.csv"
        assert run("diagnose", edges, covs, "--designs", 5,
                   "--scatter-designs", 150, "--prior-draws", 60,
                   "--output", out) == 0
        rows = read_rows(out)
        corr = [r for r in rows if r["check"] == "correlation"]
        gaps = [r for r in rows if r["check"] == "gap"]
        conc = [r for r in rows if r["check"] == "concavity"]
        assert [float(r["rho"]) for r in corr] == [0.1, 0.3, 0.7, 0.9]
        net, cov = load_edge_list(edges), load_covariates(covs)
        for r in corr:
            assert abs(float(r["value"]) - float(r["exact"])) < 0.05
            assert 0.0 < float(r["exact"]) <= 1.0
            dense = quadform_correlation(k_matrix(net, cov, 0.5), k_matrix(net, cov, float(r["rho"])))
            assert float(r["exact"]) == pytest.approx(dense, rel=1e-10)
        assert len(gaps) == 5
        for r in gaps:
            g = float(r["value"])
            assert g >= -1e-8
            assert g <= float(r["bound_a"]) + 1e-8
            assert g <= float(r["bound_b"]) + 1e-8
        assert len(conc) == 5
        for r in conc:
            assert float(r["value"]) <= 1e-6

    def test_correlation_rows_build_no_dense_kernel(self, tmp_path):
        # One n-by-n float64 array takes 72 MB at n=3000; the correlation
        # and scatter rows need O(n) per scatter design (about 12 MB here).
        n = 3000
        edges, covs = make_dataset(tmp_path, n=n, p=5, density=10 / n, seed=7)
        tracemalloc.start()
        try:
            assert run("diagnose", edges, covs, "--designs", 0, "--rho-grid", "0.3,0.9",
                       "--output", tmp_path / "diag.csv") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
        assert len(read_rows(tmp_path / "diag.csv")) == 2

    @pytest.mark.parametrize("flag, value, least", [
        ("--prior-draws", -3, 1), ("--prior-draws", 0, 1), ("--designs", -1, 0),
        ("--scatter-designs", -1, 2), ("--scatter-designs", 0, 2), ("--scatter-designs", 1, 2),
    ])
    def test_bad_counts_fail_before_any_work(self, tmp_path, capsys, flag, value, least):
        # A data error (exit 2) naming the flag, with nothing else on stderr:
        # no traceback, no numpy warning, and no gap rows written.
        edges, covs = make_dataset(tmp_path, n=60)
        capsys.readouterr()
        out = tmp_path / "diag.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("diagnose", edges, covs, flag, value, "--output", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"
        assert not out.exists()


class TestImports:
    """What a command imports, seen from a fresh interpreter."""

    # Each module named here costs start-up time on every call that loads it.
    # Only a study spec needs YAML, only the Lanczos route of the diagnostics
    # (above 200 nodes) needs scipy.sparse.linalg, and no command needs
    # multiprocessing or concurrent.futures (the workers are os.fork and a
    # pipe) or scipy.special: the normal quantile is criterion._ndtri.
    POOL_AND_SPECIAL = ("multiprocessing", "concurrent.futures.process", "scipy.special")

    def loaded(self, argvs, modules):
        """The modules of `modules` loaded after main() ran on each argv in turn."""
        code = (
            "import sys\nfrom netdesign.cli import main\n"
            f"for argv in {[[str(a) for a in argv] for argv in argvs]!r}:\n"
            "    assert main(argv) == 0, argv\n"
            f"print([m for m in {tuple(modules)!r} if m in sys.modules])\n"
        )
        src = str(Path(netdesign.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return done.stdout.splitlines()[-1]

    def test_commands_load_no_yaml_arpack_pool_or_special(self, tmp_path):
        prefix = tmp_path / "data"
        edges, covs = f"{prefix}_edges.txt", f"{prefix}_covariates.csv"
        argvs = [
            ["generate", "--n", 60, "--p", 3, "--density", 0.1, "--out-prefix", prefix],
            ["design", edges, covs, "--output", tmp_path / "d.csv",
             "--design-out", tmp_path / "x.design"],
            ["evaluate", edges, covs, tmp_path / "x.design", "--rho-t", "0.3,0.7",
             "--output", tmp_path / "e.csv"],
            ["diagnose", edges, covs, "--designs", 2, "--scatter-designs", 20,
             "--prior-draws", 20, "--output", tmp_path / "g.csv"],
        ]
        assert self.loaded(argvs, ("yaml", "scipy.sparse.linalg") + self.POOL_AND_SPECIAL) == "[]"

    def test_serial_studies_load_no_arpack_pool_or_special(self, tmp_path):
        argvs = []
        for kind, body in sorted(_TINY_STUDIES.items()):
            spec = tmp_path / f"{kind}.yaml"
            spec.write_text(f"kind: {kind}\nseed: 9\n" + body)
            argvs.append(["study", spec, "--output", tmp_path / f"{kind}.csv"])
        assert self.loaded(argvs, ("scipy.sparse.linalg",) + self.POOL_AND_SPECIAL) == "[]"


class TestStudy:
    def test_bundled_name_resolves(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("study", "alpha_sweep_small", "--output", out,
                   "--threads", 2) == 0
        rows = read_rows(out)
        defaults = 10 * 4 * 5  # replicates x alphas x rho grid
        assert len(rows) == defaults
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["kind"] == "alpha_sweep"
        assert meta["row_count"] == defaults

    def test_threads_is_a_design_and_study_flag_only(self, capsys):
        for subcommand in ("generate", "design", "evaluate", "diagnose", "study"):
            assert run(subcommand, "--help") == 0
            assert ("--threads" in capsys.readouterr().out) == (subcommand in ("design", "study"))

    def test_spec_file_and_rerun_bytes(self, tmp_path):
        spec = tmp_path / "mini.yaml"
        spec.write_text(
            "kind: rho_robustness\nn: 20\np: 2\nreplicates: 2\n"
            "rho_ts: [0.3, 0.5]\nrestarts: 4\nseed: 8\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("study", spec, "--output", a) == 0
        assert run("study", spec, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == (
            tmp_path / "b.csv.meta.json").read_bytes()

    def test_malformed_spec_names_key(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text("kind: alpha_sweep\nwidgets: 3\n")
        assert run("study", spec) == 2
        assert "widgets" in capsys.readouterr().err

    def test_unknown_bundled_name(self, tmp_path):
        assert run("study", "no_such_study") == 2

    def test_json_format(self, tmp_path):
        spec = tmp_path / "mini.yaml"
        spec.write_text(
            "kind: gap_histogram\nn: 16\ndensity: 0.3\ndesigns: 3\n"
            "rho_draws: 30\nseed: 4\n"
        )
        out = tmp_path / "g.json"
        assert run("study", spec, "--format", "json", "--output", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 3
        assert doc["meta"]["kind"] == "gap_histogram"


# One tiny spec per study kind, with at least three cells each.
_TINY_STUDIES = {
    "alpha_sweep": "n: 20\np: 2\nreplicates: 3\nalphas: [0.1, 0.01]\nrho_ts: [0.5]\nrestarts: 2\n",
    "rho_robustness": "n: 20\np: 2\nreplicates: 3\nrho_ts: [0.3, 0.5]\nrestarts: 2\n",
    "network_vs_no_network": "n: 20\np: 2\nreplicates: 3\nrho_ts: [0.5]\nrestarts: 2\n",
    "size_sweep": "n_grid: [20, 24]\np: 2\nreplicates: 2\nrho_ts: [0.5]\nrestarts: 2\n",
    "pseudo_experiment": ("n_base: 80\ndensity: 0.06\np: 3\nsubsample: 56\nreplicates: 3\n"
                          "draws: 3\nrestarts: 2\n"),
    "gap_histogram": "n: 20\ndensity: 0.3\ndesigns: 7\nrho_draws: 20\n",
}


class _Refused(Exception):
    pass


class TestStudyWorkers:
    """`study --threads N` runs cells on forked workers, byte-identical to N = 1."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # Every worker count asked for below runs, whatever this machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    @pytest.fixture
    def pool_spy(self, monkeypatch):
        """Stands in for the process pool: records the worker count each
        pool asks CPUs for, then raises before any process starts."""
        asked = []

        def refuse(workers):
            asked.append(workers)
            raise _Refused

        monkeypatch.setattr(_pool, "worker_cpus", refuse)
        return asked

    def study_bytes(self, tmp_path, spec, threads, fmt):
        out = tmp_path / f"t{threads}.{fmt}"
        assert run("study", spec, "--threads", threads, "--format", fmt, "--output", out) == 0
        assert no_children()
        meta = tmp_path / f"t{threads}.csv.meta.json"
        return out.read_bytes() + (meta.read_bytes() if fmt == "csv" else b"")

    @pytest.mark.parametrize("kind", sorted(_TINY_STUDIES))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_kind_byte_identical_for_any_thread_count(self, tmp_path, kind, fmt):
        spec = tmp_path / "mini.yaml"
        spec.write_text(f"kind: {kind}\nseed: 9\n" + _TINY_STUDIES[kind])
        one = self.study_bytes(tmp_path, spec, 1, fmt)
        for threads in (2, 3):
            assert self.study_bytes(tmp_path, spec, threads, fmt) == one, threads

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_statuses_from_workers_byte_identical(self, tmp_path, monkeypatch, fmt):
        # Replicate 1's dataset fails and replicate 2's design misses the cap;
        # both statuses are set inside a worker.
        real_synth, real_solve = experiments.synth_dataset, experiments.solve

        def synth(n, p, density, seed):
            if seed == derive_seed(9, 0, 1):
                raise DataError("no usable draw")
            return real_synth(n, p, density, seed)

        def solve(*args, seed, **kwargs):
            report = real_solve(*args, seed=seed, **kwargs)
            return report if seed != derive_seed(9, 1, 2) else dataclasses.replace(
                report, feasible=False)

        monkeypatch.setattr(experiments, "synth_dataset", synth)
        monkeypatch.setattr(experiments, "solve", solve)
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: rho_robustness\nseed: 9\n" + _TINY_STUDIES["rho_robustness"])
        one = self.study_bytes(tmp_path, spec, 1, fmt)
        for status in (b"DataError", b"infeasible", b"ok"):
            assert status in one
        for threads in (2, 3):
            assert self.study_bytes(tmp_path, spec, threads, fmt) == one, threads

    def test_worker_error_reaches_main_as_its_own_type(self, tmp_path, monkeypatch, capsys):
        real = experiments.synth_dataset

        # Replicate 2 is the forked child's share at --threads 2 (this
        # process computes replicates 0 and 1).
        def synth(n, p, density, seed):
            if seed == derive_seed(9, 0, 2):
                raise np.linalg.LinAlgError("Singular matrix")
            return real(n, p, density, seed)

        monkeypatch.setattr(experiments, "synth_dataset", synth)
        forked, reaped, real_fork, real_waitpid = [], [], os.fork, os.waitpid

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def waitpid(pid, options):
            reaped.append(pid)
            return real_waitpid(pid, options)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: alpha_sweep\nseed: 9\n" + _TINY_STUDIES["alpha_sweep"])
        errs = []
        for threads in (1, 2):
            capsys.readouterr()
            assert run("study", spec, "--threads", threads, "--output", tmp_path / "s.csv") == 4
            errs.append(capsys.readouterr().err)
            assert no_children()
        assert errs[0] == errs[1] == "numerical failure: Singular matrix\n"
        # The one child was reaped once.
        assert len(forked) == 1 and reaped == forked
        # The library raises the worker's exception with its remote traceback.
        with pytest.raises(np.linalg.LinAlgError) as raised:
            experiments.run_study(experiments.load_study_spec(spec), threads=2)
        assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
        assert no_children()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_fails_before_the_spec_is_read(self, capsys, threads):
        assert run("study", "no_such_study", "--threads", threads) == 2
        assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"

    @pytest.mark.parametrize("threads", [0, -2, 2.5, None, True])
    def test_library_refuses_a_count_that_is_not_an_integer_of_at_least_one(
            self, tmp_path, pool_spy, threads):
        # Refused before any cell runs: no serial run, no truncated count, no TypeError.
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: gap_histogram\n" + _TINY_STUDIES["gap_histogram"])
        with pytest.raises(DataError) as err:
            experiments.run_study(experiments.load_study_spec(spec), threads=threads)
        assert str(err.value) == f"threads must be an integer of at least 1, got {threads!r}"
        assert pool_spy == []

    @pytest.mark.parametrize("cpus", [3, None])
    def test_worker_count_never_exceeds_usable_cpus(self, tmp_path, monkeypatch, pool_spy, cpus):
        # cpus None: no affinity call on the platform, so the CPU count rules.
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: gap_histogram\n" + _TINY_STUDIES["gap_histogram"])
        with pytest.raises(_Refused):
            run("study", spec, "--threads", 10 ** 12, "--output", tmp_path / "s.csv")
        assert pool_spy == [cpus or 2]

    def test_one_worker_or_no_fork_runs_in_this_process(self, tmp_path, monkeypatch, pool_spy):
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: gap_histogram\n" + _TINY_STUDIES["gap_histogram"])
        one_cell = tmp_path / "one.yaml"
        one_cell.write_text("kind: gap_histogram\nn: 20\ndensity: 0.3\ndesigns: 1\nrho_draws: 20\n")
        assert run("study", one_cell, "--threads", 4, "--output", tmp_path / "a.csv") == 0
        monkeypatch.delattr(os, "fork")
        assert run("study", spec, "--threads", 4, "--output", tmp_path / "b.csv") == 0
        assert pool_spy == []
        assert len(read_rows(tmp_path / "b.csv")) == 7

    @pytest.fixture
    def pools(self, monkeypatch):
        """Each study's fork_map call (not those of the solves in its cells)
        as [workers, the cells this process computed, the children forked]."""
        calls, real_map, real_fork = [], _pool.fork_map, os.fork
        parent, inner = os.getpid(), []

        def fork():
            pid = real_fork()
            if pid:
                calls[-1][2] += 1
            return pid

        def spy(fn, items, workers):
            if inner:
                return real_map(fn, items, workers)
            calls.append([workers, [], 0])

            def logged(item):
                if os.getpid() == parent:
                    calls[-1][1].append(item)
                inner.append(item)
                try:
                    return fn(item)
                finally:
                    inner.pop()
            return real_map(logged, items, workers)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(_pool, "fork_map", spy)
        return calls

    @pytest.fixture
    def one_blas_thread(self, monkeypatch):
        """BLAS on one thread, so workers would be placed; the placement
        itself is skipped, as the four CPUs here may not exist."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)

    @pytest.mark.parametrize("kind", sorted(_TINY_STUDIES))
    def test_default_forks_unless_cells_are_light(self, tmp_path, pools, one_blas_thread, kind):
        # Every kind whose cells solve or fit runs on the usable CPUs (4 here)
        # by default; gap_histogram's sub-millisecond cells stay in this process.
        spec = tmp_path / "mini.yaml"
        spec.write_text(f"kind: {kind}\nseed: 9\n" + _TINY_STUDIES[kind])
        one = self.study_bytes(tmp_path, spec, 1, "csv")
        out = tmp_path / "default.csv"
        assert run("study", spec, "--output", out) == 0
        assert no_children()
        default = out.read_bytes() + (tmp_path / "default.csv.meta.json").read_bytes()
        assert default == one
        (_, _, serial_forks), (workers, _, forks) = pools
        assert serial_forks == 0
        if kind == "gap_histogram":
            assert (workers, forks) == (1, 0)
        else:  # 3 or 4 cells
            assert workers >= 3 and forks == workers - 1

    @pytest.mark.parametrize("blas", [None, "4"])
    def test_default_is_one_process_unless_workers_are_placed(
            self, tmp_path, monkeypatch, pools, blas):
        # Unplaced workers would each run the whole BLAS pool.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        if blas:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: pseudo_experiment\nseed: 9\n" + _TINY_STUDIES["pseudo_experiment"])
        assert run("study", spec, "--output", tmp_path / "s.csv") == 0
        assert pools == [[1, [0, 1, 2], 0]]

    @pytest.mark.parametrize("kind", ["alpha_sweep", "pseudo_experiment"])
    def test_this_process_computes_the_first_share(self, tmp_path, pools, kind):
        # Which cells this process computes is fixed by the cell count: the
        # first contiguous share, the same on every run.
        spec = tmp_path / "mini.yaml"
        spec.write_text(f"kind: {kind}\nseed: 9\n" + _TINY_STUDIES[kind])
        for threads in (1, 2, 3, 1, 2, 3):
            self.study_bytes(tmp_path, spec, threads, "csv")
        shares = [(workers, mine) for workers, mine, _ in pools]
        assert shares == [(1, [0, 1, 2]), (2, [0]), (3, [0])] * 2  # children get the extra

    def test_first_failing_cell_in_cell_order(self, tmp_path, monkeypatch, capsys):
        # Replicates 1 and 2 fail, in the two children of --threads 3 and in
        # the one child's share of --threads 2: replicate 1's error is
        # raised in every case.
        real = experiments.synth_dataset

        def synth(n, p, density, seed):
            for rep in (1, 2):
                if seed == derive_seed(9, 0, rep):
                    raise np.linalg.LinAlgError(f"replicate {rep}")
            return real(n, p, density, seed)

        monkeypatch.setattr(experiments, "synth_dataset", synth)
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: alpha_sweep\nseed: 9\n" + _TINY_STUDIES["alpha_sweep"])
        for threads in (1, 2, 3):
            capsys.readouterr()
            assert run("study", spec, "--threads", threads, "--output", tmp_path / "s.csv") == 4
            assert capsys.readouterr().err == "numerical failure: replicate 1\n", threads
            assert no_children()


def _cpu_now() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class TestWorkerPlacement:
    """With BLAS on one thread, each study worker, this process included, is
    kept on its own share of the usable CPUs while it computes; this
    process's affinity is given back afterwards."""

    @pytest.fixture
    def one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @pytest.fixture
    def worker_log(self, tmp_path, monkeypatch):
        """Each cell logs, to tmp_path/<pid>.log, the CPUs its process is kept
        on and the CPU it runs on, from inside the cell."""
        real_synth = experiments.synth_dataset

        def synth(*args, **kwargs):
            mask = " ".join(map(str, sorted(os.sched_getaffinity(0))))
            with open(tmp_path / f"{os.getpid()}.log", "a") as fh:
                fh.write(f"{mask}:{_cpu_now()}\n")
            return real_synth(*args, **kwargs)

        monkeypatch.setattr(experiments, "synth_dataset", synth)

        def read():
            """{pid: (its CPUs, the CPUs it ran on)} of every worker."""
            logs = {}
            for path in tmp_path.glob("*.log"):
                lines = [line.split(":") for line in path.read_text().splitlines()]
                masks = {mask for mask, _ in lines}
                assert len(masks) == 1, masks  # one placement for all of a worker's cells
                logs[path.stem] = ({int(c) for c in masks.pop().split()},
                                   {int(cpu) for _, cpu in lines})
            return logs
        return read

    @staticmethod
    def alpha_sweep(tmp_path, threads=2):
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: alpha_sweep\nseed: 9\n" + _TINY_STUDIES["alpha_sweep"])
        experiments.run_study(experiments.load_study_spec(spec), threads=threads)

    @staticmethod
    def needs_two_cpus():
        usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
                and len(usable) >= 2 and os.path.exists("/proc/self/stat")):
            pytest.skip("needs fork, the affinity calls, /proc/self/stat and 2 usable CPUs")
        return usable

    def test_two_workers_run_on_two_cpus(self, tmp_path, one_blas_thread, worker_log):
        usable = self.needs_two_cpus()
        before = os.sched_getaffinity(0)
        self.alpha_sweep(tmp_path)
        assert os.sched_getaffinity(0) == before
        logs = worker_log()
        assert len(logs) == 2 and str(os.getpid()) in logs
        (mask_a, ran_a), (mask_b, ran_b) = logs.values()
        # Disjoint shares of the usable CPUs, every cell on its worker's share.
        assert mask_a and mask_b and not mask_a & mask_b and mask_a | mask_b == usable
        assert ran_a <= mask_a and ran_b <= mask_b

    def test_workers_are_left_unplaced_unless_blas_has_one_thread(
            self, tmp_path, monkeypatch, worker_log):
        usable = self.needs_two_cpus()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        self.alpha_sweep(tmp_path)
        assert [mask for mask, _ in worker_log().values()] == [usable, usable]

    @pytest.mark.parametrize("env, placed", [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"MKL_NUM_THREADS": "1"}, False),
        ({}, False),
    ])
    def test_shares_of_eight_cpus(self, monkeypatch, env, placed):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 2, 3, 5, 6, 7, 1, 0},
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        # Worker k takes every workers-th of the sorted usable CPUs from the kth.
        shares = {2: [{0, 2, 5, 7}, {1, 3, 6, 9}], 3: [{0, 3, 7}, {1, 5, 9}, {2, 6}],
                  8: [{c} for c in (0, 1, 2, 3, 5, 6, 7, 9)]}
        for workers, expected in shares.items():
            assert _pool.worker_cpus(workers) == (expected if placed else [None] * workers)
        monkeypatch.delattr(os, "sched_setaffinity")
        assert _pool.worker_cpus(3) == [None] * 3

    def test_parent_affinity_unchanged(self, tmp_path, monkeypatch, one_blas_thread):
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
            pytest.skip("needs fork and the affinity calls")
        # Two placed workers start whatever this machine has.
        before = os.sched_getaffinity(0)
        monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: gap_histogram\n" + _TINY_STUDIES["gap_histogram"])
        experiments.run_study(experiments.load_study_spec(spec), threads=2)
        assert os.sched_getaffinity(0) == before
        assert no_children()


class TestDesignWorkers:
    """`design --threads N` runs a solve's restarts on forked workers, at any
    n, byte-identical to N = 1; by default on every usable CPU."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of each fork_map call the solves make."""
        counts, real = [], _pool.fork_map

        def spy(fn, items, workers):
            counts.append(workers)
            return real(fn, items, workers)

        monkeypatch.setattr(_pool, "fork_map", spy)
        return counts

    @staticmethod
    def design_bytes(tmp_path, edges, covs, threads):
        out, design = tmp_path / "d.csv", tmp_path / "x.design"
        assert run("design", edges, covs, *threads, "--output", out,
                   "--design-out", design) == 0
        assert no_children()
        return out.read_bytes() + design.read_bytes()

    def test_default_and_one_thread_byte_identical(self, tmp_path, pools):
        edges, covs = make_dataset(tmp_path, n=300, p=4, density=0.03)
        outputs = [self.design_bytes(tmp_path, edges, covs, threads)
                   for threads in ([], ["--threads", 1], ["--threads", 3])]
        assert outputs[0] == outputs[1] == outputs[2]
        assert pools == [4, 1, 3]

    def test_small_design_forks_by_default(self, tmp_path, pools):
        edges, covs = make_dataset(tmp_path, n=60, p=4, density=0.1)
        outputs = [self.design_bytes(tmp_path, edges, covs, threads)
                   for threads in ([], ["--threads", 1])]
        assert outputs[0] == outputs[1]
        assert pools == [4, 1]


class TestWorkerDeath:
    """A worker that dies is a data error naming it, not a traceback."""

    MESSAGE = "error: a worker process stopped unexpectedly"

    @pytest.fixture
    def parent(self, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # workers placed
        return os.getpid()

    def check(self, capsys, argv):
        before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(self.MESSAGE) and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert no_children()
        if before is not None:
            assert os.sched_getaffinity(0) == before

    def test_study(self, tmp_path, monkeypatch, capsys, parent):
        real = experiments.synth_dataset

        def synth(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "synth_dataset", synth)
        monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
        spec = tmp_path / "mini.yaml"
        spec.write_text("kind: alpha_sweep\nseed: 9\n" + _TINY_STUDIES["alpha_sweep"])
        self.check(capsys, ["study", spec, "--threads", 2, "--output", tmp_path / "s.csv"])
        assert not (tmp_path / "s.csv").exists()

    def test_design(self, tmp_path, monkeypatch, capsys, parent):
        real = optimizer._polish_rows

        def polish(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_polish_rows", polish)
        monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
        edges, covs = make_dataset(tmp_path, n=300, p=4, density=0.03)
        self.check(capsys, ["design", edges, covs, "--output", tmp_path / "d.csv"])
        assert not (tmp_path / "d.csv").exists()


class TestDeterminism:
    def test_every_subcommand_byte_identical(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "x.design"
        run("design", edges, covs, "--design-out", dfile,
            "--output", tmp_path / "d1.csv")
        run("design", edges, covs, "--design-out", tmp_path / "x2.design",
            "--output", tmp_path / "d2.csv")
        pairs = [("d1.csv", "d2.csv"), ("x.design", "x2.design")]
        run("evaluate", edges, covs, dfile, "--output", tmp_path / "e1.csv")
        run("evaluate", edges, covs, dfile, "--output", tmp_path / "e2.csv")
        pairs.append(("e1.csv", "e2.csv"))
        for args in (["diagnose", edges, covs, "--designs", 3,
                      "--scatter-designs", 60, "--prior-draws", 40],):
            run(*args, "--output", tmp_path / "g1.csv")
            run(*args, "--output", tmp_path / "g2.csv")
        pairs.append(("g1.csv", "g2.csv"))
        for a, b in pairs:
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes(), a

    def test_json_output_deterministic(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("design", edges, covs, "--format", "json", "--output", a)
        run("design", edges, covs, "--format", "json", "--output", b)
        assert a.read_bytes() == b.read_bytes()
