"""Study runner tests.

Scale is cut far below the shipped defaults so the whole file stays fast;
the claims checked here are mechanical (row bookkeeping, seed plumbing,
exact identities) rather than the statistical trends, which get asserted
at full desk scale elsewhere.  Rows are regenerated from their recorded
seeds through the public API to prove the audit trail works.
"""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from netdesign import car, criterion, experiments
from netdesign.criterion import CriterionEvaluator, evaluate, pip
from netdesign.designs import Design
from netdesign.errors import (
    DataError,
    DegenerateDesignError,
    EigenSolverError,
    RankError,
    StudySpecError,
)
from netdesign.experiments import (
    DEFAULT_SEED,
    STUDY_KINDS,
    StudySpec,
    bundled_study_path,
    derive_seed,
    list_bundled_studies,
    load_study_spec,
    run_study,
    study_defaults,
    study_spec_from_dict,
    synth_dataset,
)
from netdesign.graph import (
    generate_bernoulli_network,
    generate_pm1_covariates,
    write_covariates,
    write_edge_list,
)
from netdesign.optimizer import hybrid_problem, random_balanced_design, solve


def tiny(kind, **overrides):
    return study_spec_from_dict({"kind": kind, **overrides})


_SPEC_SCALARS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.text(max_size=4), st.none()
)


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in STUDY_KINDS
    for key in (*study_defaults(kind), "seed", "name", "output", "full")
])
@given(value=st.one_of(_SPEC_SCALARS, st.lists(_SPEC_SCALARS, max_size=3)))
@example(value=math.nan)
@example(value=-math.inf)
def test_any_spec_value_loads_or_names_its_key(kind, key, value):
    # Spec values are checked at load time: a bad one is a StudySpecError
    # that names its key, never a stray exception, and a good one is kept.
    try:
        spec = study_spec_from_dict({"kind": kind, key: value})
    except StudySpecError as e:
        assert f"'{key}'" in str(e)
        return
    assert isinstance(spec, StudySpec)
    if key in spec.params and not isinstance(value, list):
        assert spec.params[key] == value


class TestSpecLoading:
    def test_defaults_cover_all_kinds(self):
        for kind in STUDY_KINDS:
            assert study_defaults(kind)["replicates" if kind != "gap_histogram" else "designs"] > 0

    def test_full_scale_overrides(self):
        desk = study_defaults("alpha_sweep")
        full = study_defaults("alpha_sweep", full=True)
        assert full["n"] > desk["n"]
        assert full["restarts"] > desk["restarts"]
        # untouched keys carry over
        assert full["alphas"] == desk["alphas"]

    def test_explicit_key_beats_full_scale(self):
        spec = study_spec_from_dict({"kind": "alpha_sweep", "n": 33}, full=True)
        assert spec.full is True
        assert spec.params["n"] == 33
        assert spec.params["restarts"] == study_defaults("alpha_sweep", True)["restarts"]

    def test_missing_kind(self):
        with pytest.raises(StudySpecError, match="kind"):
            study_spec_from_dict({"n": 10})

    def test_unknown_kind_named(self):
        with pytest.raises(StudySpecError, match="no_such_study"):
            study_spec_from_dict({"kind": "no_such_study"})

    def test_unknown_key_named(self):
        with pytest.raises(StudySpecError, match="'bananas'"):
            study_spec_from_dict({"kind": "alpha_sweep", "bananas": 3})

    def test_key_valid_only_for_other_kind(self):
        # n_grid belongs to size_sweep, not alpha_sweep
        with pytest.raises(StudySpecError, match="'n_grid'"):
            study_spec_from_dict({"kind": "alpha_sweep", "n_grid": [10, 20]})

    def test_output_is_not_a_spec_key(self):
        # Where a study writes is set by the CLI's --output flag alone.
        with pytest.raises(StudySpecError, match="unknown key 'output'"):
            study_spec_from_dict({"kind": "alpha_sweep", "output": "a.csv"})
        assert "output" not in {f.name for f in dataclasses.fields(StudySpec)}

    def test_bad_values_name_the_key(self):
        with pytest.raises(StudySpecError, match="'replicates'"):
            study_spec_from_dict({"kind": "alpha_sweep", "replicates": 0})
        with pytest.raises(StudySpecError, match="'rho0'"):
            study_spec_from_dict({"kind": "alpha_sweep", "rho0": 1.0})
        with pytest.raises(StudySpecError, match="'rho_ts'"):
            study_spec_from_dict({"kind": "alpha_sweep", "rho_ts": []})
        with pytest.raises(StudySpecError, match="'rho_ts'"):
            study_spec_from_dict({"kind": "alpha_sweep", "rho_ts": [0.5, "x"]})
        with pytest.raises(StudySpecError, match="'alphas'"):
            study_spec_from_dict({"kind": "alpha_sweep", "alphas": [0.1, 1.5]})
        for kind, key, bad in [
            ("alpha_sweep", "n", math.nan), ("alpha_sweep", "replicates", math.inf),
            ("size_sweep", "n_grid", [math.inf]), ("gap_histogram", "covariate_sd", -1),
            ("alpha_sweep", "method", "bogus"), ("alpha_sweep", "restarts", 0),
            ("pseudo_experiment", "draws", 0), ("gap_histogram", "rho_draws", 0),
            ("rho_robustness", "alpha", 0), ("alpha_sweep", "alphas", [0.1, 1]),
            ("gap_histogram", "alpha_bound", 1), ("pseudo_experiment", "edges_path", 0),
            ("pseudo_experiment", "covariates_header", "yes"),
        ]:
            with pytest.raises(StudySpecError, match=f"'{key}'"):
                study_spec_from_dict({"kind": kind, key: bad})

    def test_sizes_checked_across_keys(self):
        for raw, key in [
            ({"kind": "pseudo_experiment", "subsample": 5000}, "subsample"),
            ({"kind": "pseudo_experiment", "subsample": 0}, "subsample"),
            ({"kind": "pseudo_experiment", "n_base": 100}, "n_base"),
            ({"kind": "pseudo_experiment", "p": 400}, "n_base"),
            ({"kind": "size_sweep", "p": 60, "n_grid": [50]}, "n_grid"),
            ({"kind": "size_sweep", "n_grid": [100, 10]}, "n_grid"),
            ({"kind": "alpha_sweep", "p": 50}, "n"),
            ({"kind": "network_vs_no_network", "n": 10}, "n"),
        ]:
            with pytest.raises(StudySpecError, match=f"'{key}'"):
                study_spec_from_dict(raw)
        assert study_spec_from_dict({"kind": "alpha_sweep", "p": 49}).params["p"] == 49
        # The size of a network read from a file is not known at load time.
        spec = study_spec_from_dict({
            "kind": "pseudo_experiment", "edges_path": "e.txt", "covariates_path": "z.csv",
            "subsample": 5000,
        })
        assert spec.params["subsample"] == 5000

    def test_node_counts_at_least_two(self):
        # With p 0 a one-node network passes every cross-key check; the
        # range check still refuses it at load and names the key.
        for kind, key, extra in [
            ("alpha_sweep", "n", {"p": 0}), ("rho_robustness", "n", {"p": 0}),
            ("network_vs_no_network", "n", {"p": 0}), ("gap_histogram", "n", {}),
            ("pseudo_experiment", "n_base", {"p": 0, "subsample": 1}),
        ]:
            with pytest.raises(StudySpecError, match=rf"key '{key}' must lie in \[2, inf\)"):
                study_spec_from_dict({"kind": kind, key: 1, **extra})
            assert study_spec_from_dict({"kind": kind, key: 2, **extra}).params[key] == 2

    def test_paths_must_come_together(self):
        with pytest.raises(StudySpecError, match="covariates_path"):
            study_spec_from_dict({"kind": "pseudo_experiment", "edges_path": "e.txt"})

    def test_default_seed(self):
        spec = study_spec_from_dict({"kind": "gap_histogram"})
        assert spec.seed == DEFAULT_SEED
        assert spec.name == "gap_histogram"

    def test_yaml_round_trip(self, tmp_path):
        f = tmp_path / "s.yaml"
        f.write_text("kind: rho_robustness\nseed: 5\nn: 20\nrho_ts: [0.3, 0.5]\n")
        spec = load_study_spec(f)
        assert spec.seed == 5
        assert spec.params["n"] == 20
        assert spec.params["rho_ts"] == (0.3, 0.5)

    def test_yaml_errors(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("kind: [unclosed\n")
        with pytest.raises(StudySpecError, match="YAML"):
            load_study_spec(f)
        g = tmp_path / "empty.yaml"
        g.write_text("")
        with pytest.raises(StudySpecError, match="empty"):
            load_study_spec(g)
        with pytest.raises(StudySpecError, match="read"):
            load_study_spec(tmp_path / "missing.yaml")

    def test_bundled_specs_all_load(self):
        names = list_bundled_studies()
        assert len(names) >= 6
        kinds = set()
        for name in names:
            spec = load_study_spec(bundled_study_path(name))
            kinds.add(spec.kind)
        assert kinds == set(STUDY_KINDS)

    def test_bundled_unknown_name(self):
        with pytest.raises(StudySpecError, match="nope"):
            bundled_study_path("nope")


class TestSeedsAndData:
    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(7, 0, 3)
        assert a == derive_seed(7, 0, 3)
        assert a != derive_seed(7, 0, 4)
        assert a != derive_seed(8, 0, 3)
        assert derive_seed(7) != derive_seed(7, 0)

    def test_synth_dataset_reproducible_and_repaired(self):
        net, cov = synth_dataset(40, 4, 0.05, 123)
        net2, cov2 = synth_dataset(40, 4, 0.05, 123)
        assert np.array_equal(net.edges, net2.edges)
        assert np.array_equal(cov.values, cov2.values)
        assert net.isolated_nodes.size == 0
        assert cov.values.shape == (40, 5)


class TestAlphaSweep:
    def run_small(self, **kw):
        spec = tiny(
            "alpha_sweep", n=24, p=3, replicates=3, alphas=[0.1, 0.001],
            rho_ts=[0.2, 0.5], restarts=4, seed=42, **kw,
        )
        return spec, run_study(spec)

    def test_row_count_is_grid_times_replicates(self):
        _, res = self.run_small()
        assert len(res.rows) == 3 * 2 * 2
        assert res.meta["row_count"] == len(res.rows)

    def test_rows_regenerate_from_recorded_seeds(self):
        spec, res = self.run_small()
        row = res.rows[-1]
        net, cov = synth_dataset(24, 3, spec.params["density"], row["dataset_seed"])
        prob = hybrid_problem(net, cov, row["rho0"], row["alpha_requested"])
        report = solve(prob, method="auto", seed=row["solver_seed"], restarts=4)
        assert report.objective == row["objective"]
        assert report.alpha == row["alpha_used"]
        assert pip(net, cov, report.design.x, row["rho_t"]) == row["pip"]

    def test_local_search_rows_regenerate_from_recorded_seeds(self):
        # n > 30: a replicate's alphas are polished in one stack, and the cap
        # at 1e-4 is out of reach on this dense graph, so that alpha climbs
        # the ladder; each row is still the one its own solve gives.
        spec = tiny("alpha_sweep", n=40, p=2, density=0.9, replicates=2,
                    alphas=[0.1, 0.0001], rho_ts=[0.5], restarts=2, seed=9)
        rows = run_study(spec).rows
        assert {r["relaxations"] for r in rows} == {"", "0.001"}
        for row in rows:
            net, cov = synth_dataset(40, 2, 0.9, row["dataset_seed"])
            prob = hybrid_problem(net, cov, row["rho0"], row["alpha_requested"])
            report = solve(prob, method="auto", seed=row["solver_seed"], restarts=2)
            assert report.method == row["solver_method"] == "local"
            assert report.objective == row["objective"]
            assert report.alpha == row["alpha_used"]
            assert report.iterations == row["solver_iterations"]
            assert pip(net, cov, report.design.x, row["rho_t"]) == row["pip"]

    def test_identical_specs_identical_bytes(self, tmp_path):
        _, res1 = self.run_small()
        _, res2 = self.run_small()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res1.write(p1)
        res2.write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == (
            tmp_path / "b.csv.meta.json"
        ).read_bytes()

    def test_cells_run_on_the_main_thread(self, monkeypatch):
        called_on = []
        real = experiments.synth_dataset

        def spy(*args):
            called_on.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(experiments, "synth_dataset", spy)
        spec = tiny(
            "alpha_sweep", n=24, p=3, replicates=4, alphas=[0.1],
            rho_ts=[0.5], restarts=4, seed=9,
        )
        run_study(spec)
        assert len(called_on) == 4
        assert all(t is threading.main_thread() for t in called_on)

    def test_one_evaluator_per_rho_per_replicate(self, monkeypatch):
        # The problem is built from the evaluator at rho0 (0.5, one of the
        # desk rho_ts), which also scores the designs: 5 builds a replicate.
        built = []
        init = CriterionEvaluator.__init__

        def spy(self, net, cov, rho):
            built.append(rho)
            init(self, net, cov, rho)

        monkeypatch.setattr(CriterionEvaluator, "__init__", spy)
        spec = tiny("alpha_sweep", replicates=2)
        assert spec.params["rho0"] in spec.params["rho_ts"]
        run_study(spec)
        assert sorted(built) == sorted(2 * list(spec.params["rho_ts"]))

    def test_cap_below_floor_gets_relaxed(self):
        # alpha far below anything a 12-node graph can satisfy
        spec = tiny(
            "alpha_sweep", n=12, p=2, density=0.5, replicates=2,
            alphas=[1e-12], rho_ts=[0.5], restarts=4, seed=3,
        )
        res = run_study(spec)
        for row in res.rows:
            assert row["status"] == "ok"
            assert row["alpha_used"] > row["alpha_requested"]
            assert row["relaxations"] != ""

    def test_csv_formatting(self, tmp_path):
        _, res = self.run_small()
        path = res.write(tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(res.columns)
        assert len(lines) == 1 + len(res.rows)
        # floats survive a repr round trip
        first = dict(zip(res.columns, lines[1].split(",")))
        assert float(first["pip"]) == res.rows[0]["pip"]

    def test_meta_echoes_spec(self, tmp_path):
        spec, res = self.run_small()
        res.write(tmp_path / "out.csv")
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["kind"] == "alpha_sweep"
        assert meta["master_seed"] == 42
        assert meta["params"]["alphas"] == [0.1, 0.001]
        assert meta["params"]["n"] == 24
        assert "timestamp" not in json.dumps(meta).lower()


class TestBreakdownRow:
    def test_scores_each_design_once(self, monkeypatch):
        # The row's pip comes from its own breakdown, and the evaluator's
        # expected terms are computed once, with the bits of pip().
        net, cov = synth_dataset(40, 3, 0.1, 5)
        designs = [random_balanced_design(40, k).x for k in range(4)]
        want = [pip(net, cov, x, 0.6) for x in designs]
        ev = CriterionEvaluator(net, cov, 0.6)
        counts = {"imbalance": 0, "moments": 0}
        imbalance, moments = CriterionEvaluator.imbalance_term, criterion.balanced_moment_c

        def count(name, fn):
            def spy(*args):
                counts[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(CriterionEvaluator, "imbalance_term", count("imbalance", imbalance))
        monkeypatch.setattr(criterion, "balanced_moment_c", count("moments", moments))
        assert [experiments._breakdown_row(ev, x)["pip"] for x in designs] == want
        assert counts == {"imbalance": 4, "moments": 1}
        with pytest.raises(DegenerateDesignError):
            experiments._breakdown_row(ev, np.ones(40))


class TestRhoRobustness:
    def test_reference_cell_is_exactly_zero(self):
        spec = tiny(
            "rho_robustness", n=24, p=3, replicates=3,
            rho_ts=[0.2, 0.5, 0.8], restarts=4, seed=21,
        )
        res = run_study(spec)
        assert len(res.rows) == 3 * 3
        assert all(r["status"] == "ok" for r in res.rows)
        for r in res.rows:
            if r["rho_t"] == r["rho0"]:
                assert r["pip_difference"] == 0.0
            assert r["pip_difference"] == r["pip_true"] - r["pip_local"]

    def test_reference_design_is_reused_at_rho0(self, monkeypatch):
        calls = []
        real = experiments.solve

        def spy(*args, **kwargs):
            calls.append(args[0].rho0)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve", spy)
        spec = tiny(
            "rho_robustness", n=24, p=3, replicates=2,
            rho_ts=[0.2, 0.5, 0.8], restarts=4, seed=21,
        )
        res = run_study(spec)
        assert all(r["status"] == "ok" for r in res.rows)
        # replicates x len(rho_ts): the rho_t == rho0 cell solves nothing.
        assert sorted(calls) == [0.2, 0.2, 0.5, 0.5, 0.8, 0.8]

    def test_pip_columns_recompute(self):
        spec = tiny(
            "rho_robustness", n=20, p=2, replicates=1, rho_ts=[0.3],
            restarts=4, seed=33,
        )
        res = run_study(spec)
        row = res.rows[0]
        net, cov = synth_dataset(20, 2, spec.params["density"], row["dataset_seed"])
        prob = hybrid_problem(net, cov, row["rho0"], row["alpha"])
        local = solve(prob, method="auto", seed=row["solver_seed"], restarts=4)
        assert pip(net, cov, local.design.x, 0.3) == row["pip_local"]


class TestNetworkComparison:
    def test_row_count_and_kinds(self):
        spec = tiny(
            "network_vs_no_network", n=24, p=3, replicates=3,
            rho_ts=[0.0, 0.5], restarts=4, seed=5,
        )
        res = run_study(spec)
        assert len(res.rows) == 3 * 2 * 2
        kinds = {r["method_kind"] for r in res.rows}
        assert kinds == {"network", "no_network"}

    def test_network_term_improvement_vanishes_without_correlation(self):
        # at rho_t = 0 the network term is identically zero for any design
        spec = tiny(
            "network_vs_no_network", n=30, p=4, replicates=3,
            rho_ts=[0.0], restarts=4, seed=6,
        )
        res = run_study(spec)
        for r in res.rows:
            assert r["status"] == "ok"
            assert r["t1_improvement"] == 0.0
            assert r["network_term"] == 0.0

    def test_hybrid_beats_covariate_only_at_design_correlation(self):
        spec = tiny(
            "network_vs_no_network", n=40, p=5, replicates=5,
            rho_ts=[0.5], restarts=8, seed=7,
        )
        res = run_study(spec)
        wins = 0
        for rep in range(5):
            hy = [r for r in res.rows if r["replicate"] == rep and r["method_kind"] == "network"]
            nn = [r for r in res.rows if r["replicate"] == rep and r["method_kind"] == "no_network"]
            if hy[0]["pip"] >= nn[0]["pip"]:
                wins += 1
        assert wins >= 4

    def test_improvements_match_expected_minus_observed(self):
        spec = tiny(
            "network_vs_no_network", n=20, p=2, replicates=1,
            rho_ts=[0.4], restarts=4, seed=8,
        )
        res = run_study(spec)
        for r in res.rows:
            assert r["t1_improvement"] == r["expected_network_term"] - r["network_term"]
            assert r["t2_improvement"] == r["expected_imbalance_term"] - r["imbalance_term"]


class TestSizeSweep:
    def test_grid_shows_up_in_rows(self):
        spec = tiny(
            "size_sweep", n_grid=[20, 30], p=3, density=0.1, replicates=2,
            rho_ts=[0.5], restarts=4, seed=12,
        )
        res = run_study(spec)
        assert len(res.rows) == 2 * 2 * 2 * 1
        assert {r["n"] for r in res.rows} == {20, 30}
        assert all(r["status"] == "ok" for r in res.rows)


    @pytest.mark.parametrize("kind", [
        "alpha_sweep", "rho_robustness", "network_vs_no_network", "size_sweep",
    ])
    def test_failed_dataset_fails_its_cell_only(self, monkeypatch, kind):
        # Replicate 1's dataset seed; the comparison kinds add a size index.
        failing = {derive_seed(12, 0, 1), derive_seed(12, 0, 1, 0)}
        real = experiments.synth_dataset

        def synth(n, p, density, seed):
            if seed in failing:
                raise RankError("could not draw full-rank +/-1 covariates")
            return real(n, p, density, seed)

        monkeypatch.setattr(experiments, "synth_dataset", synth)
        spec = tiny(kind, p=3, density=0.1, replicates=2, restarts=4, seed=12, **{
            "alpha_sweep": {"n": 20, "alphas": [0.1, 0.01], "rho_ts": [0.5]},
            "rho_robustness": {"n": 20, "rho_ts": [0.3, 0.5]},
            "network_vs_no_network": {"n": 20, "rho_ts": [0.5]},
            "size_sweep": {"n_grid": [20], "rho_ts": [0.5]},
        }[kind])
        rows = run_study(spec).rows
        half = len(rows) // 2
        assert half > 0
        assert [(r["replicate"], r["status"]) for r in rows] == (
            [(0, "ok")] * half + [(1, "RankError")] * half
        )


class TestRowStatus:
    """Failures become row statuses cell by cell, the same way in every kind."""

    def test_failed_subsample_fails_its_replicate_only(self, monkeypatch):
        real = experiments.subsample_network

        def subsample(net, cov, k, seed):
            if seed == derive_seed(14, 1, 1):  # replicate 1's dataset seed
                raise RankError("subsample left a rank-deficient covariate block")
            return real(net, cov, k, seed)

        monkeypatch.setattr(experiments, "subsample_network", subsample)
        rows = run_study(tiny("pseudo_experiment", n_base=80, density=0.06, p=3, subsample=56,
                              replicates=2, draws=3, restarts=4, seed=14)).rows
        assert [(r["replicate"], r["status"]) for r in rows] == (
            [(0, "ok")] * 12 + [(1, "RankError")] * 2
        )
        assert [r["design_kind"] for r in rows[12:]] == ["hybrid", "no_network"]

    def test_failed_diagnostics_fail_their_design_only(self, monkeypatch):
        real = experiments.surrogate_gap_diagnostics
        failing_x = experiments._gap_design(16, 1, 20, 50)[2]

        def diagnostics(net, cov, x, *args, **kwargs):
            if np.array_equal(x, failing_x):
                raise EigenSolverError("spectral ends did not converge")
            return real(net, cov, x, *args, **kwargs)

        monkeypatch.setattr(experiments, "surrogate_gap_diagnostics", diagnostics)
        rows = run_study(tiny("gap_histogram", n=20, density=0.3, designs=3,
                              rho_draws=50, seed=16)).rows
        assert [r["status"] for r in rows] == ["ok", "EigenSolverError", "ok"]
        assert set(rows[1]) == set(rows[0]) - {
            "t_at_rho0", "gap", "second_derivative_term", "rho_mean", "rho_var",
            "bound_a", "bound_b",
        }

    @pytest.mark.parametrize("infeasible", ["solve", "solve_no_network"])
    def test_infeasible_pseudo_solve_reads_infeasible(self, monkeypatch, infeasible):
        # Both optimized rows of a replicate read "infeasible" whichever
        # solve fails the cap; after an infeasible hybrid solve the
        # covariate-only design is not solved.
        real = {name: getattr(experiments, name) for name in ("solve", "solve_no_network")}
        calls = []

        def patched(name):
            def run(*args, **kwargs):
                calls.append(name)
                report = real[name](*args, **kwargs)
                return dataclasses.replace(report, feasible=name != infeasible)
            return run

        for name in real:
            monkeypatch.setattr(experiments, name, patched(name))
        rows = run_study(tiny("pseudo_experiment", n_base=80, density=0.06, p=3, subsample=56,
                              replicates=1, draws=3, restarts=4, seed=14)).rows
        assert [(r["design_kind"], r["status"]) for r in rows] == [
            ("hybrid", "infeasible"), ("no_network", "infeasible"),
        ]
        assert calls == (["solve"] if infeasible == "solve" else ["solve", "solve_no_network"])

    def test_infeasible_reference_reads_infeasible(self, monkeypatch):
        real = experiments.solve
        monkeypatch.setattr(experiments, "solve", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), feasible=False))
        rows = run_study(tiny("rho_robustness", n=20, p=2, replicates=2, rho_ts=[0.3, 0.5, 0.7],
                              restarts=4, seed=12)).rows
        assert [(r["replicate"], r["rho_t"], r["status"]) for r in rows] == [
            (rep, rho_t, "infeasible") for rep in range(2) for rho_t in (0.3, 0.5, 0.7)
        ]


class TestPseudoExperiment:
    def run_small(self, **kw):
        args = dict(
            n_base=80, density=0.06, p=3, subsample=56, replicates=2,
            draws=5, restarts=4, seed=14,
        )
        args.update(kw)
        spec = tiny("pseudo_experiment", **args)
        return spec, run_study(spec)

    def test_twelve_rows_per_replicate(self):
        _, res = self.run_small()
        assert len(res.rows) == 2 * 12
        for rep in range(2):
            sub = [r for r in res.rows if r["replicate"] == rep]
            kinds = [r["design_kind"] for r in sub]
            assert kinds.count("hybrid") == 1
            assert kinds.count("no_network") == 1
            assert kinds.count("random") == 10
            assert sorted(r["design_index"] for r in sub if r["design_kind"] == "random") == list(range(10))

    def test_percentile_only_for_optimized_designs(self):
        _, res = self.run_small()
        for r in res.rows:
            if r["design_kind"] == "random":
                assert "percentile" not in r
            else:
                assert 0.0 <= r["percentile"] <= 1.0
            assert r["mse"] > 0.0
            assert r["fit_failures"] == 0

    def test_single_replicate_degenerate(self):
        _, res = self.run_small(replicates=1, draws=3)
        assert len(res.rows) == 12

    def test_deterministic(self):
        _, res1 = self.run_small()
        _, res2 = self.run_small()
        assert res1.rows == res2.rows

    def test_fit_failures_are_counted_per_draw(self, monkeypatch):
        # The hybrid design's X'RX is marked not positive definite at rho_hat
        # for draws 1 and 3 (a nan residual form), and the covariate-only
        # design is replaced by a covariate column, which makes [x F] rank
        # deficient for every draw.
        real_schur = car._AffineGram.schur
        final_forms = []

        def schur(self, rho):
            out = real_schur(self, rho)
            if np.shape(rho) == (5, 1):  # one residual form per draw at rho_hat
                final_forms.append(out)
                if len(final_forms) == 1:  # the first design fitted: hybrid
                    out[[1, 3]] = np.nan
            return out

        real_solve = experiments.solve_no_network

        def in_covariate_span(cov, **kwargs):
            report = real_solve(cov, **kwargs)
            return dataclasses.replace(report, design=Design(cov.values[:, 1].copy()))

        _, clean = self.run_small(replicates=1)
        monkeypatch.setattr(car._AffineGram, "schur", schur)
        monkeypatch.setattr(experiments, "solve_no_network", in_covariate_span)
        _, res = self.run_small(replicates=1)
        assert len(final_forms) == 11  # the rank-deficient design never gets there
        rows = {(r["design_kind"], r["design_index"]): r for r in res.rows}
        hybrid, nonet = rows[("hybrid", None)], rows[("no_network", None)]
        assert hybrid["fit_failures"] == 2 and hybrid["status"] == "ok"
        assert 0.0 < hybrid["mse"] and 0.0 <= hybrid["percentile"] <= 1.0
        assert nonet["fit_failures"] == 5 and nonet["status"] == "fit_failed"
        assert nonet["mse"] is None and "percentile" not in nonet
        for r, before in zip(res.rows, clean.rows):
            if r["design_kind"] == "random":
                assert r == before

    def test_loaded_network_path(self, tmp_path):
        rng = np.random.default_rng(0)
        net = generate_bernoulli_network(60, 0.08, seed=1)
        z = rng.integers(0, 2, size=(60, 3)) * 2.0 - 1.0
        edges = tmp_path / "edges.txt"
        covs = tmp_path / "z.csv"
        write_edge_list(net, edges)
        write_covariates(z, covs)
        spec = tiny(
            "pseudo_experiment", edges_path=str(edges), covariates_path=str(covs),
            subsample=48, replicates=1, draws=3, restarts=4, seed=15,
        )
        res = run_study(spec)
        assert len(res.rows) == 12
        assert all(r["status"] == "ok" for r in res.rows)
        assert all(r["n_kept"] <= 48 for r in res.rows)

    def test_loaded_covariate_rows_must_match_nodes(self, tmp_path):
        net = generate_bernoulli_network(60, 0.08, seed=1)
        edges, covs = tmp_path / "edges.txt", tmp_path / "z.csv"
        write_edge_list(net, edges)
        write_covariates(np.random.default_rng(0).integers(0, 2, size=(59, 3)) * 2.0 - 1.0, covs)
        spec = tiny("pseudo_experiment", edges_path=str(edges), covariates_path=str(covs))
        with pytest.raises(DataError, match=r"covariate rows \(59\) do not match network nodes \(60\)"):
            run_study(spec)


class TestGapHistogram:
    def test_gap_nonnegative_and_bounded(self):
        spec = tiny(
            "gap_histogram", n=20, density=0.3, designs=8, rho_draws=50, seed=16,
        )
        res = run_study(spec)
        assert len(res.rows) == 8
        for r in res.rows:
            assert r["status"] == "ok"
            assert r["gap"] >= -1e-8
            assert r["gap"] <= r["bound_a"] + 1e-8
            assert r["gap"] <= r["bound_b"] + 1e-8
            assert r["t_at_rho0"] > 0.0
            assert 0.0 < r["rho_mean"] < 1.0

    def test_reference_correlation_is_prior_mean(self):
        spec = tiny(
            "gap_histogram", n=18, density=0.3, designs=3, rho_draws=40, seed=17,
        )
        res = run_study(spec)
        for r in res.rows:
            rhos = np.random.default_rng(r["rho_seed"]).uniform(0.0, 1.0, 40)
            assert r["rho_mean"] == float(rhos.mean())
