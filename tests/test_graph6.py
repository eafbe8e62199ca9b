import networkx as nx
import numpy as np
import pytest
from hypothesis import given

from conftest import graphs, looped_graphs
from helpers import empty_graph
from loop_energy import (
    Graph,
    Graph6ParseError,
    LoopFileParseError,
    adjacency_matrix,
    complete_graph,
    enumerate_graphs,
    from_graph6,
    read_looped_graphs,
    to_graph6,
    with_loops,
    write_looped_graphs,
)
from loop_energy.graph6 import to_graph6_stack


def _nx_encode(g: Graph) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_bw_decodes_to_triangle():
    # byte 'B' = 66 -> n = 3; byte 'w' = 119 -> 56 = 111000b,
    # bits fill a(0,1), a(0,2), a(1,2) = 1,1,1: the triangle
    assert from_graph6("Bw") == complete_graph(3)


def test_known_small_encodings():
    assert to_graph6(empty_graph(0)) == "?"
    assert to_graph6(empty_graph(1)) == "@"
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(complete_graph(3)) == "Bw"


def test_header_and_trailing_newline_tolerated():
    assert from_graph6(">>graph6<<Bw") == complete_graph(3)
    assert from_graph6("Bw\n") == complete_graph(3)


@given(graphs(max_n=8))
def test_roundtrip_identity(g):
    assert from_graph6(to_graph6(g)) == g


@given(graphs(max_n=8))
def test_matches_networkx_both_directions(g):
    encoded = to_graph6(g)
    assert encoded == _nx_encode(g)
    decoded_nx = nx.from_graph6_bytes(encoded.encode())
    assert from_graph6(encoded).edges == frozenset(
        (min(u, v), max(u, v)) for u, v in decoded_nx.edges()
    )


def test_canonical_string_roundtrip():
    for s in ["?", "@", "A_", "Bw", "EwCW", "D?{"]:
        assert to_graph6(from_graph6(s)) == s


def test_long_form_order():
    g = empty_graph(63)
    s = to_graph6(g)
    assert s.startswith("~")
    assert s == _nx_encode(g)
    assert from_graph6(s).n == 63


def test_tilde_alone_is_truncated_length():
    with pytest.raises(Graph6ParseError, match="parse error at byte 1"):
        from_graph6("~")


def test_36_bit_length_form_rejected():
    # to_graph6 writes at most the 18-bit form, so its decoder accepts no more
    with pytest.raises(Graph6ParseError, match=r"parse error at byte 1: .*258047"):
        from_graph6("~~?????@")


def test_long_form_below_63_rejected():
    # "~??B" spells order 3 in the 18-bit form; canonical graph6 writes "B"
    with pytest.raises(Graph6ParseError, match=r"parse error at byte 1: .*order 3"):
        from_graph6("~??Bw")


def test_order_above_limit_rejected_before_edge_data():
    # "~@MG" spells order 5000; the limit is checked before any edge byte is read
    with pytest.raises(Graph6ParseError, match="exceeds the limit of 4096") as exc:
        from_graph6("~@MG")
    assert str(exc.value).startswith("parse error at byte 1: ")


def test_empty_string_rejected():
    with pytest.raises(Graph6ParseError, match="parse error at byte 0"):
        from_graph6("")
    with pytest.raises(Graph6ParseError):
        from_graph6(">>graph6<<")


def test_out_of_alphabet_byte_offset():
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6("B w")
    assert exc.value.offset == 1


def test_truncated_edge_data():
    with pytest.raises(Graph6ParseError, match="truncated edge data"):
        from_graph6("B")


def test_trailing_bytes_rejected():
    with pytest.raises(Graph6ParseError, match="trailing bytes"):
        from_graph6("Bww")


@pytest.mark.parametrize("text, offset, detail", [
    # a fault in the length bytes is reported ahead of a later bad byte
    ("~~\x85", 1, "36-bit length form: orders above 258047 are not supported"),
    ("~??B\x85", 1, "non-canonical 18-bit length form for order 3"),
    ("~@MG\x85", 1, "order 5000 exceeds the limit of 4096 vertices for a dense adjacency matrix"),
    ("~?\x85", 2, "byte 133 outside graph6 alphabet"),
    ("~?", 2, "truncated long-form length"),
    ("\x85", 0, "byte 133 outside graph6 alphabet"),
    ("B\x85", 1, "byte 133 outside graph6 alphabet"),
    ("~?@Bw", 5, "truncated edge data: need 369 bytes, have 1"),
    # the bits past the last pair pad the last byte with zeros
    ("Bx", 1, "nonzero padding bits after the last pair"),
    ("A`", 1, "nonzero padding bits after the last pair"),
])
def test_parse_error_message_and_offset(text, offset, detail):
    with pytest.raises(Graph6ParseError) as exc:
        from_graph6(text)
    assert str(exc.value) == f"parse error at byte {offset}: {detail}"
    assert exc.value.offset == offset


def test_read_looped_graphs_with_sidecar():
    entries = list(read_looped_graphs(["Bw", "L: 0,2", "", "A_"]))
    assert len(entries) == 2
    assert entries[0].base == complete_graph(3)
    assert entries[0].loops == frozenset({0, 2})
    assert entries[1].base == complete_graph(2)
    assert entries[1].sigma == 0


def test_sidecar_without_graph_rejected():
    with pytest.raises(LoopFileParseError, match="line 1"):
        list(read_looped_graphs(["L: 0"]))


def test_duplicate_sidecar_rejected():
    with pytest.raises(LoopFileParseError, match="duplicate"):
        list(read_looped_graphs(["Bw", "L: 0", "L: 1"]))


def test_sidecar_index_out_of_range():
    with pytest.raises(LoopFileParseError, match="index 5 out of range"):
        list(read_looped_graphs(["Bw", "L: 5"]))


def test_sidecar_bad_token():
    # an index is an optional '-' and ASCII digits, not whatever int() accepts
    for token in ["x", "+1", "1_0", "\xa01"]:
        with pytest.raises(LoopFileParseError) as e:
            list(read_looped_graphs(["Bw", f"L: 1,{token}"]))
        assert str(e.value) == f"line 2: bad loop index {token!r}"
    with pytest.raises(LoopFileParseError, match="loop index -1 out of range"):
        list(read_looped_graphs(["Bw", "L: -1"]))


def test_sidecar_repeated_index():
    # a repeated index is a typo, not one loop: it must not shrink sigma silently
    with pytest.raises(LoopFileParseError, match=r"line 2: duplicate loop index 1$"):
        list(read_looped_graphs(["Bw", "L: 1,1,0"]))


def test_graph6_error_inside_file_reports_line():
    with pytest.raises(LoopFileParseError, match=r"line 2: parse error at byte"):
        list(read_looped_graphs(["Bw", "~"]))


@given(looped_graphs(max_n=7))
def test_write_read_roundtrip(lg):
    lines = list(write_looped_graphs([lg]))
    back = list(read_looped_graphs(lines))
    assert back == [lg]


def test_write_omits_empty_sidecar():
    lines = list(write_looped_graphs([with_loops(complete_graph(3), ())]))
    assert lines == ["Bw"]
    lines = list(write_looped_graphs([with_loops(complete_graph(3), {2, 0})]))
    assert lines == ["Bw", "L: 0,2"]


@pytest.mark.parametrize("n", range(1, 6))
def test_stack_encoder_matches_to_graph6(n):
    every = list(enumerate_graphs(n))
    stack = np.array([adjacency_matrix(g).data for g in every], dtype=np.float64)
    stack[:, 0, 0] = 1.0  # loops are not part of graph6
    assert to_graph6_stack(stack) == [to_graph6(g) for g in every]


@given(graphs(min_n=1, max_n=62))
def test_stack_encoder_matches_to_graph6_up_to_one_length_byte(g):
    stack = adjacency_matrix(g).data[np.newaxis]
    assert to_graph6_stack(stack) == [to_graph6(g)]


@pytest.mark.parametrize("n", range(63, 71))
def test_stack_encoder_writes_the_long_length_form(n):
    # from order 63 on, graph6 writes the 18-bit length form "~" + 3 bytes
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, 2, size=(3, n, n)), 1)
    stack = (upper + upper.transpose(0, 2, 1)).astype(np.float64)
    every = [Graph(n, frozenset(zip(*(ix.tolist() for ix in np.nonzero(a))))) for a in upper]
    expected = [_nx_encode(g) for g in every]
    assert all(s.startswith("~") for s in expected)
    assert to_graph6_stack(stack) == expected
    assert [to_graph6(g) for g in every] == expected
    assert [from_graph6(s) for s in expected] == every
