import numpy as np
import pytest

from dasopt import graph

from oracles import floyd_warshall_reachability, strongly_connected_by_bfs


def test_cycle_only_is_a_directed_cycle():
    g = graph.build_cycle_plus_random(3, 0, seed=0)
    assert g.node_count == 3
    assert all(g.out_degree(i) == 1 for i in range(3))
    assert all(g.in_degree(i) == 1 for i in range(3))
    assert graph.is_strongly_connected(g)


def test_out_degree_matches_extra_edges():
    g = graph.build_cycle_plus_random(30, 2, seed=7)
    assert all(g.out_degree(i) == 3 for i in range(30))


def test_generated_graph_strongly_connected_vs_bfs_oracle():
    g = graph.build_cycle_plus_random(10, 1, seed=1)
    assert graph.is_strongly_connected(g)
    assert strongly_connected_by_bfs(g.node_count, g.edges)


def test_strong_connectivity_trivial_cases():
    cycle4 = graph.DiGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    assert graph.is_strongly_connected(cycle4)
    one_way = graph.DiGraph(2, frozenset({(0, 1)}))
    assert not graph.is_strongly_connected(one_way)


def test_strong_connectivity_agrees_with_floyd_warshall():
    rng = np.random.default_rng(5)
    for trial in range(30):
        I = 20
        n_edges = int(rng.integers(I, 4 * I))
        edges = set()
        while len(edges) < n_edges:
            j, i = rng.integers(0, I, size=2)
            if j != i:
                edges.add((int(j), int(i)))
        g = graph.DiGraph(I, frozenset(edges))
        reach = floyd_warshall_reachability(I, edges)
        assert graph.is_strongly_connected(g) == bool(reach.all())


def test_no_self_loops_rejected():
    with pytest.raises(ValueError):
        graph.DiGraph(2, frozenset({(0, 0)}))


def test_extra_degree_bound_rejected():
    with pytest.raises(ValueError):
        graph.build_cycle_plus_random(4, 3, seed=0)


def test_generation_deterministic_in_seed():
    a = graph.build_cycle_plus_random(12, 2, seed=42)
    b = graph.build_cycle_plus_random(12, 2, seed=42)
    c = graph.build_cycle_plus_random(12, 2, seed=43)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_uniform_weights_two_node_bidirectional():
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    w = graph.build_uniform_weights(g)
    half = np.full((2, 2), 0.5)
    assert np.array_equal(w.W, half)
    assert np.array_equal(w.A, half)
    assert w.m_bar == 0.5


def test_uniform_weights_three_cycle_column_split():
    g = graph.DiGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    w = graph.build_uniform_weights(g)
    for i in range(3):
        succ = (i + 1) % 3
        assert w.A[i, i] == 0.5
        assert w.A[succ, i] == 0.5


def test_uniform_weights_stochasticity_and_sparsity():
    g = graph.build_cycle_plus_random(30, 2, seed=3)
    w = graph.build_uniform_weights(g)
    assert np.max(np.abs(w.W.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.A.sum(axis=0) - 1.0)) <= 1e-12
    # both matrices carry weight (receiver, sender) exactly on the
    # adjacency-plus-diagonal support
    support = np.eye(30, dtype=bool)
    for (j, i) in g.edges:
        support[i, j] = True
    assert np.array_equal(w.W > 0, support)
    assert np.array_equal(w.A > 0, support)
    assert np.min(w.W[w.W > 0]) >= w.m_bar
    assert np.min(w.A[w.A > 0]) >= w.m_bar


def test_uniform_weights_rejects_disconnected():
    g = graph.DiGraph(2, frozenset({(0, 1)}))
    with pytest.raises(graph.NotStronglyConnectedError):
        graph.build_uniform_weights(g)


def test_custom_weights_validation():
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    ok = graph.custom_weights(g, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    assert ok.m_bar == 0.5
    with pytest.raises(ValueError):
        graph.custom_weights(g, np.array([[1.0, 0.0], [0.5, 0.5]]), np.full((2, 2), 0.5))
    g3 = graph.DiGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    with pytest.raises(ValueError):
        # identity matrices are zero on the cycle edges
        graph.custom_weights(g3, np.eye(3), np.eye(3))


def test_edge_list_text_round_trip():
    g = graph.build_cycle_plus_random(8, 1, seed=9)
    text = g.to_text()
    g2 = graph.DiGraph.from_text(text)
    assert g2.node_count == g.node_count
    assert g2.edges == g.edges


def test_custom_weights_accepts_uniform_weights_on_a_directed_cycle():
    # A[j, i] is the share i pushes to j, so it lives on edge (i, j)
    g = graph.build_cycle_plus_random(3, 0, seed=0)
    w = graph.build_uniform_weights(g)
    again = graph.custom_weights(g, w.W, w.A)
    assert np.array_equal(again.A, w.A) and again.m_bar == w.m_bar
    with pytest.raises(ValueError, match="A must be zero off"):
        graph.custom_weights(g, w.W, w.A.T)
