import math

import numpy as np
import pytest
from oesnn import netgen
from oesnn.errors import DomainError
from oesnn.netgen import (
    NetworkGraph,
    _bit_counts,
    average_shortest_path,
    generate_er,
    validate_path_model,
)
from oesnn.rng import substream
from oesnn.scaling import achievable_path_length


def complete_graph(n: int) -> NetworkGraph:
    pre, post = [], []
    for u in range(n):
        for v in range(u + 1, n):
            pre.append(u)
            post.append(v)
    return NetworkGraph(n=n, pre=np.array(pre), post=np.array(post))


def path_graph(n: int) -> NetworkGraph:
    pre = np.arange(n - 1)
    post = np.arange(1, n)
    return NetworkGraph(n=n, pre=pre, post=post)


def star_graph(n: int) -> NetworkGraph:
    return NetworkGraph(n=n, pre=np.zeros(n - 1, dtype=np.int64), post=np.arange(1, n))


def floyd_warshall(graph: NetworkGraph) -> np.ndarray:
    """Independent all-pairs oracle (vectorized min-plus relaxation)."""
    n = graph.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in graph.undirected_edges():
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def assert_matches_oracle(graph: NetworkGraph):
    """Exact agreement of every full-source statistic with Floyd-Warshall."""
    dist = floyd_warshall(graph)
    finite = np.isfinite(dist) & (dist > 0)
    stats = average_shortest_path(graph)
    assert stats.mean_shortest_path == dist[finite].sum() / finite.sum()
    assert stats.reachable_fraction == finite.sum() / (graph.n * (graph.n - 1))
    assert stats.diameter == int(dist[finite].max())
    return stats


def assert_sampled_matches_oracle(graph: NetworkGraph, sample_sources: int):
    """Exact agreement of every sampled-source statistic with Floyd-Warshall."""
    stats = average_shortest_path(graph, sample_sources=sample_sources)
    sources = substream(graph.seed, "path-sources").choice(graph.n, size=sample_sources, replace=False)
    dist = floyd_warshall(graph)[sources]
    finite = np.isfinite(dist) & (dist > 0)
    means = [row[mask].mean() for row, mask in zip(dist, finite) if mask.any()]
    assert stats.mean_stderr == np.std(means, ddof=1) / np.sqrt(len(means))
    assert stats.mean_shortest_path == dist[finite].sum() / finite.sum()
    assert stats.reachable_fraction == finite.sum() / (sample_sources * (graph.n - 1))
    assert stats.diameter == int(dist[finite].max())
    return stats


class TestBitCounts:
    @pytest.mark.parametrize("rows", [254, 255, 256, 510, 511, 512])
    def test_lane_sums_cross_the_carry_boundary(self, rows):
        ones = np.full(rows, np.iinfo(np.uint64).max, dtype=np.uint64)
        random = np.random.default_rng(rows).integers(0, 2**64, size=rows, dtype=np.uint64)
        for words in (ones, random):
            expected = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(rows, 64).sum(axis=0)
            got = _bit_counts(words)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)
        assert np.all(_bit_counts(ones) == rows)


class TestGraphInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            NetworkGraph(n=3, pre=np.array([0]), post=np.array([0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            NetworkGraph(n=3, pre=np.array([0]), post=np.array([5]))

    def test_repeated_pair_rejected(self):
        with pytest.raises(DomainError, match=r"repeated synapse 2->1"):
            NetworkGraph(n=3, pre=np.array([0, 2, 1, 2]), post=np.array([1, 1, 0, 1]))
        # The reciprocal pair is two synapses.
        g = NetworkGraph(n=2, pre=np.array([0, 1]), post=np.array([1, 0]))
        assert g.edge_count == 2

    def test_edge_grouping(self):
        g = NetworkGraph(n=3, pre=np.array([0, 0, 1]), post=np.array([1, 2, 2]))
        outs = g.out_edge_indices()
        assert [len(o) for o in outs] == [2, 1, 0]
        ins = g.in_edge_indices()
        assert [len(i) for i in ins] == [0, 1, 2]

    def test_undirected_view_matches_set_reference(self):
        rng = np.random.default_rng(5)
        n = 40
        pre, post = rng.integers(0, n, 300), rng.integers(0, n, 300)
        keep = pre != post
        pre, post = pre[keep], post[keep]
        # Every tenth edge also runs the other way; a graph holds each directed pair once.
        pre, post = np.concatenate([pre, post[::10]]), np.concatenate([post, pre[::10]])
        first = np.sort(np.unique(pre * n + post, return_index=True)[1])
        pre, post = pre[first], post[first]
        g = NetworkGraph(n=n, pre=pre, post=post)
        reference = sorted({(min(u, v), max(u, v)) for u, v in zip(pre.tolist(), post.tolist())})
        pairs = g.undirected_edges()
        assert pairs.dtype == np.int64 and pairs.shape == (len(reference), 2)
        assert [tuple(p) for p in pairs.tolist()] == reference
        indptr, indices = g.undirected_csr()
        assert indptr.dtype == np.int64 and indptr[0] == 0
        for x in range(n):
            # Each row lists the higher neighbours, then the lower ones, each ascending.
            above = [v for u, v in reference if u == x]
            below = [u for u, v in reference if v == x]
            assert indices[indptr[x] : indptr[x + 1]].tolist() == above + below


class TestGenerateEr:
    def test_deterministic(self):
        a = generate_er(200, 8, seed=42)
        b = generate_er(200, 8, seed=42)
        assert np.array_equal(a.pre, b.pre) and np.array_equal(a.post, b.post)

    def test_different_seeds_differ(self):
        a = generate_er(200, 8, seed=1)
        b = generate_er(200, 8, seed=2)
        assert not (np.array_equal(a.pre, b.pre) and np.array_equal(a.post, b.post))

    def test_two_nodes_certain_edge(self):
        g = generate_er(2, 1, seed=0)
        assert g.edge_count == 1

    def test_edge_count_within_five_sigma(self):
        n, k = 1000, 20
        g = generate_er(n, k, seed=7)
        n_pairs = n * (n - 1) / 2
        p = k / (n - 1)
        sigma = math.sqrt(n_pairs * p * (1 - p))
        assert abs(g.edge_count - n_pairs * p) <= 5 * sigma
        assert abs(g.mean_degree() - k) <= 5 * sigma * 2 / n

    def test_no_duplicate_undirected_edges(self):
        g = generate_er(300, 12, seed=3)
        pairs = g.undirected_edges()
        assert len(pairs) == g.edge_count  # one orientation per sampled pair

    def test_infeasible_degree_rejected(self):
        with pytest.raises(DomainError):
            generate_er(10, 10, seed=0)
        with pytest.raises(DomainError):
            generate_er(10, 9.5, seed=0)  # p = k/(n-1) would exceed 1

    def test_pair_count_beyond_int64_rejected(self):
        # 2**32 + 1 nodes have 2**63 + 2**31 pairs; the check comes before any draw.
        with pytest.raises(DomainError, match=r"n must be at most 2\*\*32"):
            generate_er(2**32 + 1, 4, seed=0)

    def test_full_degree_is_complete_graph(self):
        g = generate_er(30, 29, seed=4)
        assert g.edge_count == 30 * 29 // 2

    def test_degree_uniform_across_node_id_quartiles(self):
        # Every node has the same expected degree, high ids included.
        n, k = 2000, 16
        p = k / (n - 1)
        sigma = math.sqrt((n - 1) * p * (1 - p) / (n // 4))
        for seed in range(5):
            g = generate_er(n, k, seed=seed)
            degree = np.bincount(np.concatenate([g.pre, g.post]), minlength=n)
            for quartile in np.split(degree, 4):
                assert abs(quartile.mean() - k) <= 5 * sigma

    def test_degree_histogram_matches_binomial(self):
        n, k = 2000, 16
        p = k / (n - 1)
        graphs = [generate_er(n, k, seed=seed) for seed in range(5)]
        degree = np.concatenate([np.bincount(np.concatenate([g.pre, g.post]), minlength=n) for g in graphs])
        # Bins: degree <= 5, each of 6..27, and >= 28; every bin expects at least 5 nodes.
        observed = np.bincount(np.clip(degree, 5, 28) - 5, minlength=24)
        pmf = np.array([math.comb(n - 1, d) * p**d * (1 - p) ** (n - 1 - d) for d in range(29)])
        expected = degree.size * np.concatenate([[pmf[:6].sum()], pmf[6:28], [1 - pmf[:28].sum()]])
        assert expected.min() >= 5
        assert np.all(np.abs(observed - expected) <= 5 * np.sqrt(expected))


class TestAverageShortestPath:
    def test_complete_graph_mean_one(self):
        stats = average_shortest_path(complete_graph(5))
        assert stats.mean_shortest_path == 1.0
        assert stats.reachable_fraction == 1.0
        assert stats.diameter == 1

    def test_path_graph_hand_enumerated(self):
        # 10 unordered pairs, total distance 20, mean 2.0
        stats = average_shortest_path(path_graph(5))
        assert stats.mean_shortest_path == pytest.approx(2.0, abs=0)
        assert stats.diameter == 4

    def test_er_mean_close_to_formula(self):
        g = generate_er(2000, 16, seed=11)
        stats = average_shortest_path(g)
        predicted = achievable_path_length(2000, 16)
        assert abs(stats.mean_shortest_path - predicted) / predicted <= 0.15

    def test_bfs_matches_floyd_warshall_exactly(self):
        for seed in (0, 1, 2):
            assert_matches_oracle(generate_er(120, 6, seed=seed))

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_source_blocks_match_floyd_warshall(self, n):
        # Sizes around the 64-source word leave a partial block or span two.
        assert_matches_oracle(generate_er(n, 3, seed=n))

    def test_isolated_nodes_match_floyd_warshall(self):
        # Nodes 3, 4, 7 and the last node have no edges.
        g = NetworkGraph(n=9, pre=np.array([0, 1, 2, 5]), post=np.array([1, 2, 0, 6]))
        assert_matches_oracle(g)

    def test_disconnected_graph_matches_floyd_warshall(self):
        pre = np.array([0, 1, 2, 3, 5, 6, 70, 71])
        post = np.array([1, 2, 3, 4, 6, 69, 71, 72])
        g = NetworkGraph(n=80, pre=pre, post=post)
        stats = assert_matches_oracle(g)
        assert stats.reachable_fraction < 1

    def test_sampled_stderr_matches_oracle_per_source(self):
        assert_sampled_matches_oracle(generate_er(200, 4, seed=8), 50)

    def test_sampled_disconnected_graph_matches_floyd_warshall(self):
        # Three components and isolated nodes: the rows of at least one
        # component never fill, so each block ends on a level that finds
        # nothing new rather than on the last open row closing.
        pre = np.array([0, 1, 2, 3, 5, 6, 70, 71, 40, 41])
        post = np.array([1, 2, 3, 4, 6, 69, 71, 72, 41, 42])
        g = NetworkGraph(n=80, pre=pre, post=post, seed=4)
        stats = assert_sampled_matches_oracle(g, 70)
        assert stats.reachable_fraction < 1

    def test_star_counts_more_than_255_nodes_in_one_level(self):
        # The hub's source finds all n - 1 leaves at level 1.
        n = 700
        stats = average_shortest_path(star_graph(n))
        assert stats.mean_shortest_path == 2 * (n - 1) / n
        assert stats.reachable_fraction == 1.0
        assert stats.diameter == 2

    def test_long_path_closes_rows_level_by_level(self):
        # Rows fill one by one, so the open-row gather is re-packed often.
        n = 200
        stats = average_shortest_path(path_graph(n))
        assert stats.mean_shortest_path == (n + 1) / 3
        assert stats.reachable_fraction == 1.0
        assert stats.diameter == n - 1

    def test_adding_edges_never_increases_mean(self):
        rng = np.random.default_rng(5)
        base = generate_er(60, 4, seed=9)
        existing = {(int(u), int(v)) for u, v in base.undirected_edges()}
        extra = []
        while len(extra) < 40:
            u, v = sorted(rng.integers(0, 60, size=2).tolist())
            if u != v and (u, v) not in existing:
                existing.add((u, v))
                extra.append((u, v))
        grown = NetworkGraph(
            n=60,
            pre=np.concatenate([base.pre, np.array([e[0] for e in extra])]),
            post=np.concatenate([base.post, np.array([e[1] for e in extra])]),
        )
        before = average_shortest_path(base)
        after = average_shortest_path(grown)
        # The superset graph connects at least as many pairs, no farther apart.
        assert after.reachable_fraction >= before.reachable_fraction
        if before.reachable_fraction == 1.0:
            assert after.mean_shortest_path <= before.mean_shortest_path

    def test_sampled_sources_report_stderr(self):
        g = generate_er(400, 10, seed=21)
        stats = average_shortest_path(g, sample_sources=50)
        assert stats.sources == 50
        assert stats.mean_stderr is not None and stats.mean_stderr > 0
        full = average_shortest_path(g)
        assert full.mean_stderr is None
        assert stats.mean_shortest_path == pytest.approx(
            full.mean_shortest_path, abs=5 * stats.mean_stderr
        )

    def test_empty_graph_rejected(self):
        with pytest.raises(DomainError):
            average_shortest_path(NetworkGraph(n=4, pre=np.array([]), post=np.array([])))

    def test_determinism(self):
        g = generate_er(500, 10, seed=77)
        a = average_shortest_path(g)
        b = average_shortest_path(g)
        assert a == b


class TestValidatePathModel:
    def test_small_grid(self):
        rows = validate_path_model([1000], [20], seeds=3, base_seed=1)
        assert len(rows) == 1
        row = rows[0]
        assert row["predicted"] == pytest.approx(achievable_path_length(1000, 20), rel=1e-12)
        assert row["rel_error"] <= 0.15
        assert row["within_tolerance"] == 1
        assert 0 < row["min_reachable_fraction"] <= 1

    def test_near_complete_limit(self):
        rows = validate_path_model([100], [99], seeds=2, base_seed=0)
        assert rows[0]["empirical_mean"] == pytest.approx(1.0, abs=0.02)

    def test_prediction_column_shares_formula(self):
        rows = validate_path_model([500, 1000], [10, 20], seeds=1, base_seed=3)
        assert len(rows) == 4
        for row in rows:
            assert row["predicted"] == achievable_path_length(row["n"], row["degree"])

    def test_determinism(self):
        a = validate_path_model([300], [8], seeds=2, base_seed=5)
        b = validate_path_model([300], [8], seeds=2, base_seed=5)
        assert a == b

    def test_mean_stderr_combines_the_graphs(self):
        # Each graph's sampling error adds in quadrature; an exact all-source mean has none.
        rows = validate_path_model([300], [8], seeds=3, base_seed=5, sample_sources=40)
        seed_rng = substream(5, "validate-seeds")
        graphs = [generate_er(300, 8.0, int(seed_rng.integers(0, 2**63 - 1))) for _ in range(3)]
        stderrs = [average_shortest_path(g, 40).mean_stderr for g in graphs]
        assert rows[0]["empirical_mean_stderr"] == math.sqrt(sum(se**2 for se in stderrs)) / 3
        assert rows[0]["empirical_mean_stderr"] > 0
        assert validate_path_model([300], [8], seeds=3, base_seed=5)[0]["empirical_mean_stderr"] == 0.0

    @pytest.mark.parametrize("sample_sources", [0, 1, -3])
    def test_bad_sample_sources_rejected_before_any_graph(self, monkeypatch, sample_sources):
        def no_graph(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(netgen, "generate_er", no_graph)
        with pytest.raises(DomainError, match="sample_sources must be at least 2"):
            validate_path_model([100], [4], seeds=1, sample_sources=sample_sources)

    def test_sampled_graph_without_a_stderr_rejected(self):
        # At k = 1.5 the graph is fragmented: one of the two sampled sources of the first graph of base
        # seed 0 reaches no other node, so the graph's mean has no spread to estimate an error from.
        seed_rng = substream(0, "validate-seeds")
        graph = generate_er(300, 1.5, int(seed_rng.integers(0, 2**63 - 1)))
        assert average_shortest_path(graph, 2).mean_stderr is None
        with pytest.raises(DomainError, match="fewer than 2 of 2 sampled sources reach another node"):
            validate_path_model([300], [1.5], seeds=2, base_seed=0, sample_sources=2)

    def test_disconnected_realizations_surface_reachability(self):
        # Just above the percolation regime the graph fragments; the report
        # must carry the reachable fraction instead of hiding it.
        rows = validate_path_model([200], [1.5], seeds=3, base_seed=2)
        assert rows[0]["min_reachable_fraction"] < 0.9
