import numpy as np
import pytest
from hypothesis import given

from conftest import graphs, looped_graphs
from loop_energy import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_connected,
    path_graph,
    relabel,
    relabel_looped,
    union_looped,
    with_all_loops,
    with_loops,
)


def test_complete_graph_triangle():
    g = complete_graph(3)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_complete_graph_single_vertex():
    g = complete_graph(1)
    assert g.n == 1 and g.edge_count == 0


def test_complete_graph_five():
    g = complete_graph(5)
    assert g.edge_count == 10  # C(5,2) counted by hand
    degree = [0] * 5
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [4] * 5


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


def test_cycle_three_is_triangle():
    assert cycle_graph(3) == complete_graph(3)


def test_cycle_four():
    g = cycle_graph(4)
    assert g.edge_count == 4
    degree = [0] * 4
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [2] * 4


def test_path_two_is_single_edge():
    assert path_graph(2).edges == frozenset({(0, 1)})


@pytest.mark.parametrize("build,bad_n", [(cycle_graph, 2), (cycle_graph, 0), (path_graph, 0)])
def test_family_constructors_reject_degenerate(build, bad_n):
    with pytest.raises(ValueError):
        build(bad_n)


def test_disjoint_union_two_triangles():
    h = disjoint_union(complete_graph(3), complete_graph(3))
    assert h.n == 6 and h.edge_count == 6


def test_disjoint_union_with_empty_is_identity():
    g = path_graph(4)
    assert disjoint_union(g, empty_graph(0)) == g
    assert disjoint_union(empty_graph(0), g) == g


def test_disjoint_union_offsets_labels():
    h = disjoint_union(path_graph(2), path_graph(2))
    assert h.edges == frozenset({(0, 1), (2, 3)})


@given(graphs(max_n=5), graphs(max_n=5), graphs(max_n=5))
def test_disjoint_union_associative_up_to_relabeling(a, b, c):
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    assert left.n == right.n
    assert left.edge_count == right.edge_count
    # the cumulative offsets agree, so the result is actually identical
    assert left == right


def test_with_all_loops():
    lg = with_all_loops(complete_graph(3))
    assert lg.loops == frozenset({0, 1, 2}) and lg.sigma == 3
    assert with_all_loops(empty_graph(0)).sigma == 0
    assert with_all_loops(path_graph(4)).sigma == 4


def test_with_loops_empty_set_keeps_simple_semantics():
    lg = with_loops(complete_graph(3), ())
    assert lg.sigma == 0
    assert np.array_equal(
        adjacency_matrix(lg).data, adjacency_matrix(complete_graph(3)).data
    )


def test_with_loops_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"index 3 out of range for n=3"):
        with_loops(path_graph(3), {3})


def test_union_looped_triangle_pair():
    k3 = complete_graph(3)
    h3 = union_looped([with_loops(k3, ()), with_all_loops(k3)])
    assert h3.n == 6
    assert h3.sigma == 3
    assert h3.loops == frozenset({3, 4, 5})


def test_union_looped_singleton_identity():
    lg = with_loops(path_graph(3), {1})
    assert union_looped([lg]) == lg


def test_union_looped_counts_loops_across_parts():
    p2 = path_graph(2)
    parts = [with_loops(p2, ()), with_loops(p2, ()), with_all_loops(p2)]
    out = union_looped(parts)
    assert out.n == 6 and out.sigma == 2
    assert out.loops == frozenset({4, 5})


def test_adjacency_matrix_of_example_union():
    k3 = complete_graph(3)
    h3 = union_looped([with_loops(k3, ()), with_all_loops(k3)])
    expected = np.array(
        [
            [0, 1, 1, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [1, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1, 1],
        ]
    )
    assert np.array_equal(adjacency_matrix(h3).data, expected)


def test_adjacency_matrix_edgeless_no_loops_is_zero():
    assert not adjacency_matrix(empty_graph(4)).data.any()


def test_adjacency_matrix_single_loop_on_edge():
    lg = with_loops(complete_graph(2), {0})
    assert adjacency_matrix(lg).data.tolist() == [[1, 1], [1, 0]]


@given(looped_graphs())
def test_adjacency_trace_equals_sigma(lg):
    a = adjacency_matrix(lg).data
    assert int(a.trace()) == lg.sigma
    assert np.array_equal(a, a.T)


def test_adjacency_matrix_rejects_order_above_limit():
    with pytest.raises(ValueError, match="4096"):
        adjacency_matrix(empty_graph(4097))


def test_graph_rejects_self_pair():
    with pytest.raises(ValueError, match="self-pair"):
        Graph(3, frozenset({(1, 1)}))


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, frozenset({(0, 2)}))


def test_graph_rejects_negative_order():
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_normalizes_edge_orientation():
    assert Graph(3, frozenset({(2, 0)})) == Graph(3, frozenset({(0, 2)}))


def test_is_connected():
    assert is_connected(empty_graph(0))
    assert is_connected(empty_graph(1))
    assert is_connected(complete_graph(4))
    assert not is_connected(empty_graph(2))
    assert not is_connected(disjoint_union(complete_graph(2), complete_graph(2)))


def test_relabel_roundtrip():
    g = path_graph(4)
    perm = [2, 0, 3, 1]
    inverse = [perm.index(i) for i in range(4)]
    assert relabel(relabel(g, perm), inverse) == g


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(path_graph(3), [0, 0, 1])


def test_relabel_looped_moves_loops_with_vertices():
    lg = with_loops(path_graph(3), {0})
    out = relabel_looped(lg, [2, 1, 0])
    assert out.loops == frozenset({2})
    assert out.base == path_graph(3)  # reversing a path gives the same edge set
