"""graph6 codec and the loop-set sidecar file format.

graph6 cannot express self-loops, so loop sets travel in a sidecar line
"L: i1,i2,..." (0-based sorted indices) immediately after a graph6 line;
an absent sidecar means no loops. One graph per line; the optional
">>graph6<<" header is tolerated on input and never written. The decoder
rejects orders above graphs.MAX_MATRIX_ORDER at the length bytes, before it
decodes any edge data.

Input is decoded a stack at a time. read_entries validates a graph6+sidecar
stream into Entry records (order, edge bytes, loops), and adjacency_stack
scatters the edge bits of entries of one order into a (k, n, n) stack, the
inverse of to_graph6_stack; _lines writes a graph6 line and its sidecar for
the commands and write_looped_graphs alike. The object API is a view of
these: from_graph6 is their one-row call, and read_looped_graphs builds each
entry's LoopedGraph from its one-row stack, so every check lives in
read_entries and its helpers. Only ASCII whitespace is trimmed, so any
other byte, such as 0xA0, is reported where it stands.
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import (Graph, LoopedGraph, _from_matrix, check_loop_indices, check_matrix_order,
                     with_loops)

HEADER = ">>graph6<<"
_MAX_ENCODABLE = 258047  # largest order for the 18-bit length form
_ONE_BYTE_MAX = 62  # largest order written with one length byte
_OUTSIDE = re.compile("[^?-~]")  # a char outside the graph6 alphabet, bytes 63-126
_INDEX = re.compile("-?[0-9]+")  # a loop index; int() would also take "+1", "1_0", "\xa01"


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the 0-based byte position."""

    def __init__(self, detail: str, offset: int):
        super().__init__(f"parse error at byte {offset}: {detail}")
        self.offset = offset


class LoopFileParseError(ValueError):
    """Malformed graph6+sidecar stream; `line_number` is 1-based."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Entry(NamedTuple):
    """One validated graph6 line and its sidecar: the order, the graph6 edge
    bytes and the loop indices."""

    n: int
    edges: str
    loops: frozenset


def _outside(s: str, pos: int) -> Graph6ParseError:
    return Graph6ParseError(f"byte {ord(s[pos])} outside graph6 alphabet", pos)


def _decode(s: str) -> tuple[int, str]:
    """The order and the edge bytes of one graph6 string without its line end.

    One alphabet scan finds the first byte outside graph6, or the end of the
    line; a fault in the length bytes is reported ahead of a later bad byte.
    """
    pos = len(HEADER) if s.startswith(HEADER) else 0
    if pos >= len(s):
        raise Graph6ParseError("empty graph6 string", pos)
    bad = _OUTSIDE.search(s, pos)
    end = bad.start() if bad else len(s)
    if end == pos:
        raise _outside(s, pos)
    if s[pos] != "~":
        n, at, pos = ord(s[pos]) - 63, pos, pos + 1
    else:
        # "~" and 3 bytes is the 18-bit length form; "~~" selects the 36-bit
        # form, which to_graph6 never writes
        if s[pos + 1:pos + 2] == "~":
            raise Graph6ParseError(
                f"36-bit length form: orders above {_MAX_ENCODABLE} are not supported", pos + 1
            )
        if end < pos + 4:
            if end < len(s):
                raise _outside(s, end)
            raise Graph6ParseError("truncated long-form length", end)
        n = 0
        for c in s[pos + 1:pos + 4]:
            n = n << 6 | ord(c) - 63
        if n < 63:  # canonical graph6 writes these orders in one byte
            raise Graph6ParseError(f"non-canonical 18-bit length form for order {n}", pos + 1)
        at, pos = pos + 1, pos + 4
    try:
        check_matrix_order(n)
    except ValueError as e:
        raise Graph6ParseError(str(e), at) from None
    if end < len(s):
        raise _outside(s, end)
    pairs = n * (n - 1) // 2
    nbytes = (pairs + 5) // 6
    if len(s) - pos < nbytes:
        raise Graph6ParseError(
            f"truncated edge data: need {nbytes} bytes, have {len(s) - pos}", len(s)
        )
    if len(s) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after edge data", pos + nbytes)
    # the bits past the last pair pad the last byte and must be zero
    if nbytes and (ord(s[-1]) - 63) & ((1 << 6 * nbytes - pairs) - 1):
        raise Graph6ParseError("nonzero padding bits after the last pair", len(s) - 1)
    return n, s[pos:]


def adjacency_stack(entries: Sequence[Entry]) -> np.ndarray:
    """The float64 (k, n, n) adjacency stack of k entries of one order n: the
    edges from their graph6 bits, the loops on the diagonal."""
    k, n, nbytes = len(entries), entries[0].n, len(entries[0].edges)
    groups = np.frombuffer("".join(e.edges for e in entries).encode("ascii"), dtype=np.uint8)
    bits = np.unpackbits((groups - 63).reshape(k, nbytes, 1), axis=2)[:, :, 2:]
    # bit j(j-1)/2 + i is the pair i < j, the order of np.tril_indices' (j, i)
    j, i = np.tril_indices(n, -1)
    a = np.zeros((k, n, n))
    a[:, i, j] = a[:, j, i] = bits.reshape(k, 6 * nbytes)[:, :len(i)]
    looped = [(r, v) for r, e in enumerate(entries) for v in e.loops]
    if looped:
        r, v = np.array(looped).T
        a[r, v, v] = 1.0
    return a


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional header, trailing newline tolerated)."""
    n, edges = _decode(text.rstrip("\r\n"))
    return _from_matrix(adjacency_stack([Entry(n, edges, frozenset())])[0])


def _encode(n: int, bits: np.ndarray) -> list[str]:
    """The graph6 strings of order n whose pair bits are the rows of a (k, C(n, 2))
    0/1 array, in graph6 bit order: bit j(j-1)/2 + i is the pair i < j."""
    k, width = bits.shape
    head = [n] if n <= _ONE_BYTE_MAX else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    padded = np.zeros((k, -(-width // 6) * 6), dtype=np.uint8)  # zero padding to whole groups
    padded[:, :width] = bits
    groups = padded.reshape(k, -1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    out = np.hstack([np.tile(np.array(head, dtype=np.uint8), (k, 1)), groups]) + 63
    return [row.tobytes().decode("ascii") for row in out]


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6: minimal length form, zero padding, no header."""
    n = g.n
    if n > _MAX_ENCODABLE:
        raise ValueError(f"order {n} exceeds supported graph6 range")
    bits = np.zeros((1, n * (n - 1) // 2), dtype=np.uint8)
    for i, j in g.edges:
        bits[0, j * (j - 1) // 2 + i] = 1
    return _encode(n, bits)[0]


def _parse_loop_indices(body: str, line_number: int) -> frozenset:
    body = body.strip(string.whitespace)
    if not body:
        return frozenset()
    indices = set()
    for token in body.split(","):
        token = token.strip(string.whitespace)
        if not _INDEX.fullmatch(token):
            raise LoopFileParseError(line_number, f"bad loop index {token!r}")
        index = int(token)
        if index in indices:
            raise LoopFileParseError(line_number, f"duplicate loop index {index}")
        indices.add(index)
    return frozenset(indices)


def read_entries(lines: Iterable[str]) -> Iterator[Entry]:
    """Validate a graph6+sidecar stream into entries, in file order.

    An entry is yielded once the next graph6 line or the end of the stream
    shows that it has no more sidecar; a bad line raises LoopFileParseError
    with its line number.
    """
    pending: Entry | None = None
    pending_had_sidecar = False
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip(string.whitespace)
        if not stripped:
            continue
        if stripped.startswith("L:"):
            if pending is None:
                raise LoopFileParseError(
                    line_number, "loop sidecar without a preceding graph6 line"
                )
            if pending_had_sidecar:
                raise LoopFileParseError(line_number, "duplicate loop sidecar")
            loops = _parse_loop_indices(stripped[2:], line_number)
            try:
                check_loop_indices(pending.n, loops)
            except ValueError as e:
                raise LoopFileParseError(line_number, str(e)) from e
            pending = pending._replace(loops=loops)
            pending_had_sidecar = True
            continue
        if pending is not None:
            yield pending
        try:
            n, edges = _decode(stripped)
        except Graph6ParseError as e:
            raise LoopFileParseError(line_number, str(e)) from e
        pending = Entry(n, edges, frozenset())
        pending_had_sidecar = False
    if pending is not None:
        yield pending


def read_looped_graphs(lines: Iterable[str]) -> Iterator[LoopedGraph]:
    """Parse a graph6+sidecar stream into looped graphs, in file order."""
    for entry in read_entries(lines):
        yield with_loops(_from_matrix(adjacency_stack([entry])[0]), entry.loops)


def write_looped_graphs(graphs: Iterable[LoopedGraph]) -> Iterator[str]:
    """Render looped graphs as graph6+sidecar lines (no trailing newlines)."""
    for lg in graphs:
        yield from _lines(to_graph6(lg.base), lg.loops)


def _lines(graph6: str, loops: Iterable[int]) -> list[str]:
    """A graph6 line, then the "L:" sidecar of its loops if it has any."""
    return [graph6] + (["L: " + ",".join(str(i) for i in sorted(loops))] if loops else [])


def to_graph6_stack(a: np.ndarray) -> list[str]:
    """to_graph6 of every 0/1 matrix of a (k, n, n) stack; diagonals are ignored."""
    j, i = np.tril_indices(a.shape[1], -1)
    return _encode(a.shape[1], a[:, i, j])
