"""Command-line behavior: exit codes, round trips, and the thin-adapter
rule.  Everything runs in-process through main(argv) so exit codes and
output bytes are observable without spawning subprocesses.  The oracle
for numerical values is always a direct library call on the same files.
"""

import contextlib
import csv
import io
import json
import string
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netdesign.cli import main
from netdesign.criterion import evaluate, pip
from netdesign.designs import Design
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

    def test_length_mismatch(self, tmp_path):
        edges, covs = make_dataset(tmp_path)
        dfile = tmp_path / "short.design"
        dfile.write_text("+1\n-1\n")
        assert run("evaluate", edges, covs, dfile) == 2


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
        for r in corr:
            assert abs(float(r["value"]) - float(r["exact"])) < 0.05
            assert 0.0 < float(r["exact"]) <= 1.0
        assert len(gaps) == 5
        for r in gaps:
            g = float(r["value"])
            assert g >= -1e-8
            assert g <= float(r["bound_a"]) + 1e-8
            assert g <= float(r["bound_b"]) + 1e-8
        assert len(conc) == 5
        for r in conc:
            assert float(r["value"]) <= 1e-6


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

    def test_threads_is_a_study_flag_only(self, capsys):
        for subcommand in ("generate", "design", "evaluate", "diagnose", "study"):
            assert run(subcommand, "--help") == 0
            assert ("--threads" in capsys.readouterr().out) == (subcommand == "study")

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
