from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import netdesign
from netdesign.criterion import CriterionEvaluator, concavity_probe, surrogate_gap_diagnostics
from netdesign.errors import DataError, GraphFormatError, RankError
from netdesign.graph import (
    CovariateMatrix,
    Network,
    generate_bernoulli_network,
    generate_pm1_covariates,
    load_covariates,
    load_edge_list,
    paired_bipartite_instance,
    repair_isolated,
    subsample_network,
    write_covariates,
    write_edge_list,
)


def degrees_by_counting(n, edges):
    # Independent degree oracle: count endpoint occurrences one by one.
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return np.array(deg)


def from_edges_by_scan(n, pairs):
    """Edge rows of Network.from_edges by a scan in input order, or the error it raises first."""
    canon = set()
    for a, b in pairs:
        if a == b:
            return f"self loop at node {a} is not allowed"
        if not (0 <= a < n and 0 <= b < n):
            return f"edge ({a}, {b}) outside node range 0..{n - 1}"
        canon.add((a, b) if a < b else (b, a))
    return [list(pair) for pair in sorted(canon)]


def bernoulli_row_by_row(n, density, seed):
    """Edges of generate_bernoulli_network drawn with one rng.random call per row."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - i) < density)
        pairs.extend([i, i + 1 + int(j)] for j in hits)
    return pairs


def assert_canonical(net):
    """net.edges is the one edge form: a read-only, C-contiguous (m, 2) int64
    array whose rows (i, j) have i < j and are sorted and unique."""
    ij = net.edges
    assert ij.dtype == np.int64 and ij.ndim == 2 and ij.shape[1] == 2
    assert ij.flags.c_contiguous and not ij.flags.writeable
    assert np.all(ij[:, 0] < ij[:, 1])
    assert len(set(map(tuple, ij.tolist()))) == len(ij)
    assert ij.tolist() == sorted(ij.tolist())
    if len(ij):
        with pytest.raises(ValueError, match="read-only"):
            ij[0, 0] = ij[0, 1]


class TestNetwork:
    def test_canonical_edges_and_degrees(self):
        net = Network.from_edges(4, [(2, 0), (0, 2), (1, 3), (3, 2)])
        assert net.edges.tolist() == [[0, 2], [1, 3], [2, 3]]
        assert net.m == 6
        edgeless = Network.from_edges(3, [])
        assert edgeless.edges.shape == (0, 2) and edgeless.m == 0
        for g in (net, edgeless):
            assert g.degrees.dtype == np.int64
            assert np.array_equal(g.degrees, degrees_by_counting(g.n, g.edges))

    def test_adjacency_matches_edges(self):
        net = Network.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        W = net.adjacency.toarray()
        expect = np.zeros((5, 5))
        for a, b in net.edges:
            expect[a, b] = expect[b, a] = 1.0
        assert np.array_equal(W, expect)
        assert np.array_equal(W, W.T)
        assert np.all(np.diag(W) == 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self loop"):
            Network.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match="outside node range"):
            Network.from_edges(3, [(0, 3)])

    @pytest.mark.parametrize("pairs, message", [
        ([(0.7, 2.2)], "edge (0.7, 2.2): node ids must be integers"),
        ([(0, 1), ("a", "b")], "edge ('a', 'b'): node ids must be integers"),
        ([(0, 1), (1, None)], "edge (1, None): node ids must be integers"),
        (np.array([[0.0, 1.0], [1.0, 2.5], [0.5, 2.0]]), "edge (1.0, 2.5): node ids must be integers"),
        ([(0, 1), (2,)], "edges must be pairs of node ids"),
        ([(0, 2**63)], "node ids must lie below 2^63"),
        (np.array([[False, True]]), "edge (False, True): node ids must be integers"),
        ([(0, 1), (True, 2)], "edge (True, 2): node ids must be integers"),
        ([(0, np.True_)], f"edge (0, {np.True_!r}): node ids must be integers"),
    ])
    def test_non_integer_ids_rejected(self, pairs, message):
        # Ids are never truncated: the first pair with a non-integer id is named.
        with pytest.raises(GraphFormatError) as err:
            Network.from_edges(3, pairs)
        assert str(err.value) == message

    def test_integer_valued_floats_accepted(self):
        assert Network.from_edges(3, [(2.0, 0.0), (1.0, 2.0)]).edges.tolist() == [[0, 2], [1, 2]]

    @given(
        n=st.integers(1, 12),
        pairs=st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=30),
    )
    def test_from_edges_matches_scan(self, n, pairs):
        # Pairs given as tuples or as one (m, 2) integer array, as load_edge_list passes them.
        expect = from_edges_by_scan(n, pairs)
        for given_pairs in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
            if isinstance(expect, str):
                with pytest.raises(GraphFormatError) as err:
                    Network.from_edges(n, given_pairs)
                assert str(err.value) == expect
            else:
                net = Network.from_edges(n, given_pairs)
                assert net.edges.tolist() == expect
                assert_canonical(net)

    def test_constructor_coerces_and_freezes_edges(self):
        # Network(n) and Network(n, ()) are edgeless; a caller's array is
        # copied, so writing to it later cannot stale degrees or adjacency.
        for net in (Network(4), Network(4, ()), Network(4, [])):
            assert net.edges.shape == (0, 2) and net.adjacency.nnz == 0
            assert_canonical(net)
        given = np.array([[0, 1], [1, 2]], dtype=np.int32)
        net = Network(3, given)
        given[0, 1] = 2
        assert net.edges.tolist() == [[0, 1], [1, 2]] and net.degrees.tolist() == [1, 2, 1]
        assert_canonical(net)

    _NOT_CANONICAL = "rows must be unique sorted pairs"

    @pytest.mark.parametrize("rows, message", [
        ([(2, 1), (2, 1), (0, 5)], _NOT_CANONICAL),  # reversed, repeated and out of range
        ([(1, 2), (0, 1)], _NOT_CANONICAL),  # unsorted
        ([(0, 1), (0, 1)], _NOT_CANONICAL),  # repeated
        ([(0, 2), (0, 1)], _NOT_CANONICAL),  # unsorted within a first node
        ([(1, 1)], _NOT_CANONICAL),  # self loop
        ([(-1, 2)], _NOT_CANONICAL),
        ([(0, 3)], _NOT_CANONICAL),
        # Ids that are not integers are named, never truncated to (0, 2) or (0, 1).
        ([(0.7, 2.2)], "edge (0.7, 2.2): node ids must be integers"),
        ([("0", "2")], "edge ('0', '2'): node ids must be integers"),
        (np.array([[False, True]]), "edge (False, True): node ids must be integers"),
        ([(True, 2)], "edge (True, 2): node ids must be integers"),
    ], ids=[f"rows{k}" for k in range(11)])
    def test_constructor_rejects_non_canonical_rows(self, rows, message):
        with pytest.raises(GraphFormatError) as err:
            Network(3, rows)
        assert message in str(err.value)

    def test_producers_give_canonical_rows(self):
        # What from_edges, the generator, _induced (subsample and remove) and
        # the connect repair build passes the constructor's check again.
        sparse_net = generate_bernoulli_network(40, 0.03, seed=5)
        cov = generate_pm1_covariates(40, 1, seed=5)
        for net in (
            Network.from_edges(5, [(4, 0), (2, 1), (0, 4), (3, 2)]),
            sparse_net,
            subsample_network(sparse_net, cov, 25, seed=6)[0],
            repair_isolated(sparse_net, "remove").network,
            repair_isolated(sparse_net, "connect", seed=7).network,
        ):
            assert_canonical(net)
            assert Network(net.n, net.edges).edges.tolist() == net.edges.tolist()

    def test_networks_compare_by_identity(self):
        a = Network.from_edges(3, [(0, 1)])
        b = Network.from_edges(3, [(0, 1)])
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_isolated_nodes(self):
        net = Network.from_edges(4, [(0, 1)])
        assert net.isolated_nodes.tolist() == [2, 3]


class TestGenerators:
    def test_bernoulli_deterministic(self):
        a = generate_bernoulli_network(60, 0.1, seed=7)
        b = generate_bernoulli_network(60, 0.1, seed=7)
        assert np.array_equal(a.edges, b.edges)
        c = generate_bernoulli_network(60, 0.1, seed=8)
        assert not np.array_equal(c.edges, a.edges)

    def test_bernoulli_matches_row_by_row_draw(self):
        # Sizes below, at and above one draw block (2^16 pairs from n = 363).
        for n in (2, 3, 7, 50, 363, 364, 1200):
            for density in (0.0, 0.01, 0.3, 1.0):
                for seed in (0, 9):
                    if density >= 0.3 and n > 400:
                        continue
                    net = generate_bernoulli_network(n, density, seed=seed)
                    assert net.edges.tolist() == bernoulli_row_by_row(n, density, seed)
                    assert_canonical(net)

    def test_bernoulli_edge_count_binomial(self):
        # Oracle: edge count ~ Binomial(C(n,2), q); stay within 5 sd.
        n, q = 200, 0.1
        npairs = n * (n - 1) // 2
        mean = npairs * q
        sd = np.sqrt(npairs * q * (1 - q))
        count = len(generate_bernoulli_network(n, q, seed=123).edges)
        assert abs(count - mean) <= 5 * sd

    def test_bernoulli_extremes(self):
        assert len(generate_bernoulli_network(20, 0.0, seed=0).edges) == 0
        full = generate_bernoulli_network(20, 1.0, seed=0)
        assert len(full.edges) == 20 * 19 // 2

    def test_bernoulli_bad_args(self):
        with pytest.raises(DataError):
            generate_bernoulli_network(1, 0.5, seed=0)
        with pytest.raises(DataError):
            generate_bernoulli_network(10, 1.5, seed=0)

    def test_pm1_covariates(self):
        cov = generate_pm1_covariates(500, 3, seed=11)
        assert cov.values.shape == (500, 4)
        assert np.all(cov.values[:, 0] == 1.0)
        assert np.all(np.abs(cov.values[:, 1:]) == 1.0)
        again = generate_pm1_covariates(500, 3, seed=11)
        assert np.array_equal(cov.values, again.values)
        # CLT oracle: each +/-1 column mean is within 5/sqrt(n) of zero.
        assert np.all(np.abs(cov.values[:, 1:].mean(axis=0)) <= 5.0 / np.sqrt(500))


class TestCovariateMatrix:
    def test_requires_intercept(self):
        with pytest.raises(DataError, match="intercept"):
            CovariateMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))

    def test_rank_deficiency_rejected(self):
        z = np.ones((10, 1))  # duplicates the intercept
        with pytest.raises(RankError):
            CovariateMatrix.from_raw(z)

    def test_values_are_a_read_only_copy(self):
        F = np.array([[1.0, -1.0], [1.0, 2.0], [1.0, 0.5]])
        cov = CovariateMatrix(F)
        F[0, 0] = 5.0  # would break the checked intercept if cov shared F
        assert cov.values[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert cov.values.flags.c_contiguous and not cov.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cov.values[0, 0] = 5.0
        # The copy keeps an F-ordered input's layout, so BLAS rounds as it would on the input.
        fortran = CovariateMatrix(np.asfortranarray(cov.values)).values
        assert fortran.flags.f_contiguous and not fortran.flags.writeable

    def test_from_raw_1d(self):
        cov = CovariateMatrix.from_raw(np.array([1.0, -1.0, 2.0]))
        assert cov.values.shape == (3, 2)
        assert cov.p == 1


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        net = generate_bernoulli_network(40, 0.15, seed=3)
        path = tmp_path / "edges.txt"
        write_edge_list(net, path)
        back = load_edge_list(path)
        assert back.n == net.n
        assert np.array_equal(back.edges, net.edges)

    def test_comments_blanks_and_one_based(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# a comment\n\n1 2\n2 3\n")
        net = load_edge_list(path, index_base=1)
        assert net.n == 3
        assert net.edges.tolist() == [[0, 1], [1, 2]]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2"):
            load_edge_list(path)

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(path)

    def test_zero_id_in_one_based_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="1-based"):
            load_edge_list(path, index_base=1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list(path)


class TestCovariateIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(30, 4))
        path = tmp_path / "cov.csv"
        write_covariates(z, path)
        cov = load_covariates(path)
        assert np.allclose(cov.values[:, 1:], z, atol=0, rtol=0)

    def test_keep_first_truncates(self, tmp_path):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(25, 6))
        path = tmp_path / "cov.csv"
        write_covariates(z, path)
        cov = load_covariates(path, keep_first=2)
        assert cov.p == 2
        assert np.allclose(cov.values[:, 1:], z[:, :2])

    def test_constant_column_dropped_with_warning(self, tmp_path):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(20, 3))
        z[:, 1] = 4.2
        path = tmp_path / "cov.csv"
        write_covariates(z, path)
        with pytest.warns(UserWarning, match=r"\[1\]"):
            cov = load_covariates(path)
        assert cov.p == 2
        assert np.allclose(cov.values[:, 1:], z[:, [0, 2]])

    def test_header_flag(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.0,7.0\n")
        cov = load_covariates(path, header=True)
        assert cov.n == 3
        with pytest.raises(GraphFormatError):
            load_covariates(path, header=False)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("1.0,2.0\n1.0\n")
        with pytest.raises(GraphFormatError, match=r"cov\.csv:2"):
            load_covariates(path)

    @pytest.mark.parametrize("text, line, what", [
        ("1,2\n3,nan\n\n4\n", 2, "non-finite"),  # before a later ragged row
        ("1,2\n-inf,3\n4,x\n", 2, "non-finite"),  # before a later non-numeric value
        ("1,2\n4,x\n5,inf\n", 2, "non-numeric"),
        ("1,2\n3,4\n5,6,7\n8,nan\n", 3, "expected 2 fields"),
        ("# h\n1,inf\n", 2, "non-finite"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, text, line, what):
        # Finiteness is checked once after parsing; the first bad line still wins.
        path = tmp_path / "cov.csv"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=rf"cov\.csv:{line}: {what}"):
            load_covariates(path, header=text.startswith("#"))


class TestRepair:
    def test_connect_gives_each_isolated_one_edge(self):
        net = Network.from_edges(8, [(0, 1), (2, 3)])
        before = set(net.isolated_nodes.tolist())
        res = repair_isolated(net, "connect", seed=9)
        assert np.all(res.network.degrees >= 1)
        assert np.array_equal(res.kept, np.arange(8))
        assert_canonical(res.network)
        added = set(map(tuple, res.network.edges.tolist())) - set(map(tuple, net.edges.tolist()))
        # One new edge per node still isolated when scanned; never more
        # edges than there were isolated nodes.
        assert 1 <= len(added) <= len(before)
        touched = set()
        for a, b in added:
            touched.update((a, b))
        assert before <= touched

    def test_connect_deterministic(self):
        net = Network.from_edges(10, [(0, 1)])
        a = repair_isolated(net, "connect", seed=2).network
        b = repair_isolated(net, "connect", seed=2).network
        assert np.array_equal(a.edges, b.edges)

    def test_remove_reindexes_densely(self):
        net = Network.from_edges(6, [(1, 3), (3, 5)])
        res = repair_isolated(net, "remove")
        assert res.kept.tolist() == [1, 3, 5]
        assert res.network.n == 3
        assert res.network.edges.tolist() == [[0, 1], [1, 2]]
        assert res.network.isolated_nodes.size == 0
        assert_canonical(res.network)

    def test_remove_everything_fails(self):
        net = Network.from_edges(3, [])
        with pytest.raises(DataError, match="no edges"):
            repair_isolated(net, "remove")

    def test_connect_one_node_fails(self):
        net = Network.from_edges(1, [])
        with pytest.raises(DataError, match="one-node network has no other node to connect"):
            repair_isolated(net, "connect", seed=0)

    def test_unknown_strategy(self):
        net = Network.from_edges(3, [(0, 1)])
        with pytest.raises(DataError, match="strategy"):
            repair_isolated(net, "bogus")


class TestSubsample:
    def test_full_sample_is_identity(self):
        net = generate_bernoulli_network(30, 0.2, seed=1)
        cov = generate_pm1_covariates(30, 2, seed=1)
        sub, subcov = subsample_network(net, cov, 30, seed=4)
        assert np.array_equal(sub.edges, net.edges)
        assert np.array_equal(subcov.values, cov.values)
        assert_canonical(sub)

    def test_induced_edges_small_case(self):
        net = Network.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        cov = CovariateMatrix.from_raw(np.arange(5.0))
        # Exhaust seeds until the sample {1,2,3} appears, then check the
        # induced path explicitly.
        for seed in range(200):
            sub, subcov = subsample_network(net, cov, 3, seed=seed)
            if np.array_equal(subcov.values[:, 1], [1.0, 2.0, 3.0]):
                assert sub.edges.tolist() == [[0, 1], [1, 2]]
                assert_canonical(sub)
                return
        pytest.fail("sample {1,2,3} never drawn in 200 seeds")

    def test_retained_edge_fraction_hypergeometric(self):
        # Oracle: a pair survives with prob k(k-1)/(n(n-1)).
        net = generate_bernoulli_network(100, 0.1, seed=12)
        cov = generate_pm1_covariates(100, 1, seed=12)
        expect = 50 * 49 / (100 * 99)
        fracs = []
        for seed in range(200):
            sub, _ = subsample_network(net, cov, 50, seed=seed)
            fracs.append(len(sub.edges) / len(net.edges))
        assert abs(np.mean(fracs) - expect) < 0.02

    def test_size_bounds(self):
        net = generate_bernoulli_network(10, 0.3, seed=0)
        cov = generate_pm1_covariates(10, 1, seed=0)
        with pytest.raises(DataError):
            subsample_network(net, cov, 0, seed=0)
        with pytest.raises(DataError):
            subsample_network(net, cov, 11, seed=0)


class TestCovariateRows:
    def test_every_check_gives_one_message(self):
        net = repair_isolated(generate_bernoulli_network(12, 0.4, seed=0), "connect", seed=0).network
        cov = generate_pm1_covariates(10, 1, seed=0)
        x = np.tile([1.0, -1.0], 6)
        for call in (
            lambda: subsample_network(net, cov, 5, seed=0),
            lambda: CriterionEvaluator(net, cov, 0.5),
            lambda: surrogate_gap_diagnostics(net, cov, x, 0.5, [0.4, 0.6]),
            lambda: concavity_probe(net, cov, x, np.arange(0.2, 0.3, 0.01)),
        ):
            with pytest.raises(DataError) as err:
                call()
            assert str(err.value) == "covariate rows (10) do not match network nodes (12)"


class TestPairedBipartite:
    def test_structure(self):
        net, cov = paired_bipartite_instance(10)
        assert net.n == 20
        assert len(net.edges) == 10
        assert np.all(net.degrees == 1)
        assert cov.p == 1
        z = cov.values[:, 1]
        assert np.all(z[:10] == z[10:])  # partners share the covariate
        assert z.sum() == 0.0


def test_no_second_edge_form_in_source():
    # Network.edges is the one edge form, and every reader uses it as is:
    # no code may rebuild it as a tuple of pairs or turn such a tuple back
    # into an array.
    banned = ("tuple(zip(", "np.asarray(self.edges", "np.asarray(net.edges")
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(netdesign.__file__).parent.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if any(b in line for b in banned)
    ]
    assert hits == []
