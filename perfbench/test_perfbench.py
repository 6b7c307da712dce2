"""Tests of the benchmark's own parts; run with `python3 -m pytest perfbench`."""

import numpy as np

import oracle
from instances import bernoulli_instance
from tracing import Span, layer_metrics, self_times


def _cycle6():
    """Six-cycle with one covariate; the alternating design cuts every edge."""
    n = 6
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
    F = np.column_stack([np.ones(n), [1.0, 1.0, -1.0, -1.0, 1.0, -1.0]])
    return W, F


def _record(W, F, x, alpha=0.001, rho0=0.5):
    """The CSV row an honest solver would write for design x."""
    terms = oracle.dense_terms(W, F, x, rho0)
    return {"objective": repr(terms["imbalance"]), "constraint_value": repr(terms["cut"]),
            "alpha": repr(alpha), "feasible": "true"}


def test_oracle_accepts_a_balanced_design_under_the_cap():
    W, F = _cycle6()
    x = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])  # x'Wx = -12 < cap -10.7
    problems, terms = oracle.check_design(W, F, x, _record(W, F, x), 0.5, 0.001)
    assert problems == []
    assert terms["precision"] > 0.0


def test_oracle_rejects_an_unbalanced_design():
    W, F = _cycle6()
    x = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    problems, _ = oracle.check_design(W, F, x, _record(W, F, x), 0.5, 0.001)
    assert any("unbalanced" in p for p in problems)


def test_oracle_rejects_a_design_over_the_cap():
    W, F = _cycle6()
    x = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])  # x'Wx = +4
    problems, _ = oracle.check_design(W, F, x, _record(W, F, x), 0.5, 0.001)
    assert any("exceeds the cap" in p for p in problems)


def test_oracle_rejects_a_misreported_objective():
    W, F = _cycle6()
    x = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    record = _record(W, F, x)
    record["objective"] = repr(float(record["objective"]) * (1.0 + 1e-6))
    problems, _ = oracle.check_design(W, F, x, record, 0.5, 0.001)
    assert any("objective" in p for p in problems)


def _span(sid, name, parent, start, end):
    s = Span(sid, name, parent, start, 0.0)
    s.end, s.cpu_end = end, 0.0
    return s


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "experiments.run_study", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),  # two children overlap, as on two threads
        _span(2, "b", 0, 3.0, 6.0),
        _span(3, "c", 0, 8.0, 12.0),  # runs past its parent: clipped at 10
        _span(4, "a.child", 1, 2.0, 3.0),  # a grandchild does not count for the root
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 5.0 - 2.0
    assert selfs[1] == 2.0
    assert selfs[2] == 3.0
    assert selfs[4] == 1.0
    metrics = layer_metrics(spans)
    assert metrics["experiments.run_study.self_s"] == 3.0
    assert metrics["experiments.overlap"] == (3.0 + 3.0 + 4.0) / 10.0


def test_nested_spans_of_one_layer_count_once():
    spans = [
        _span(0, "optimizer.solve_no_network", None, 0.0, 5.0),
        _span(1, "optimizer.solve", 0, 1.0, 5.0),
        _span(2, "optimizer.solve_local", 1, 1.0, 5.0),
        _span(3, "optimizer.solve", None, 6.0, 7.0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["optimizer.solve.calls"] == 2
    assert metrics["optimizer.solve.s"] == 6.0


def test_generator_is_byte_identical_for_one_seed():
    a = bernoulli_instance(200, 0.03, 4, seed=(7, 0))
    b = bernoulli_instance(200, 0.03, 4, seed=(7, 0))
    assert a.edge_text() == b.edge_text()
    assert a.covariate_text() == b.covariate_text()


def test_generator_differs_for_another_seed():
    a = bernoulli_instance(200, 0.03, 4, seed=(7, 0))
    b = bernoulli_instance(200, 0.03, 4, seed=(8, 0))
    assert a.edge_text() != b.edge_text()
    assert a.covariate_text() != b.covariate_text()


def test_generator_leaves_no_node_isolated():
    inst = bernoulli_instance(300, 0.001, 2, seed=(1, 0))  # sparse: many isolated draws
    assert inst.degrees.min() >= 1
    assert np.all(inst.edges[:, 0] < inst.edges[:, 1])
