"""graph6 codec and the loop-set sidecar file format.

graph6 cannot express self-loops, so loop sets travel in a sidecar line
"L: i1,i2,..." (0-based sorted indices) immediately after a graph6 line;
an absent sidecar means no loops. One graph per line; the optional
">>graph6<<" header is tolerated on input and never written. The decoder
rejects orders above graphs.MAX_MATRIX_ORDER at the length bytes, before it
reads any edge data.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph, LoopedGraph, check_matrix_order, with_loops

HEADER = ">>graph6<<"
_MAX_ENCODABLE = 258047  # largest order for the 18-bit length form
_ONE_BYTE_MAX = 62  # largest order written with one length byte


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


def _value(s: str, pos: int) -> int:
    if pos >= len(s):
        raise Graph6ParseError("unexpected end of input", len(s))
    b = ord(s[pos])
    if b < 63 or b > 126:
        raise Graph6ParseError(f"byte {b} outside graph6 alphabet", pos)
    return b - 63


def _checked_order(n: int, offset: int) -> int:
    try:
        check_matrix_order(n)
    except ValueError as e:
        raise Graph6ParseError(str(e), offset) from None
    return n


def _parse_order(s: str, pos: int) -> tuple[int, int]:
    v = _value(s, pos)
    if v < 63:
        return _checked_order(v, pos), pos + 1
    # 126 -> 18-bit long form; a second 126 selects the 36-bit form, which
    # to_graph6 never writes
    if pos + 1 < len(s) and ord(s[pos + 1]) == 126:
        raise Graph6ParseError(
            f"36-bit length form: orders above {_MAX_ENCODABLE} are not supported", pos + 1
        )
    n = 0
    for k in range(1, 4):
        try:
            n = (n << 6) | _value(s, pos + k)
        except Graph6ParseError as e:
            if e.offset >= len(s):
                raise Graph6ParseError("truncated long-form length", len(s)) from None
            raise
    if n < 63:  # canonical graph6 writes these orders in one byte
        raise Graph6ParseError(f"non-canonical 18-bit length form for order {n}", pos + 1)
    return _checked_order(n, pos + 1), pos + 4


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional header, trailing newline tolerated)."""
    s = text.rstrip("\r\n")
    pos = 0
    if s.startswith(HEADER):
        pos = len(HEADER)
    if pos >= len(s):
        raise Graph6ParseError("empty graph6 string", pos)
    n, pos = _parse_order(s, pos)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    # every byte is decoded before the length checks, so an out-of-alphabet
    # byte is flagged at its own offset
    groups = [_value(s, k) for k in range(pos, len(s))]
    if len(groups) < nbytes:
        raise Graph6ParseError(
            f"truncated edge data: need {nbytes} bytes, have {len(groups)}", len(s)
        )
    if len(groups) > nbytes:
        raise Graph6ParseError("trailing bytes after edge data", pos + nbytes)
    bits = np.unpackbits(np.array(groups, dtype=np.uint8)[:, np.newaxis], axis=1)[:, 2:].ravel()
    edges = []
    for b in np.flatnonzero(bits[:n * (n - 1) // 2]).tolist():
        # bit b = j(j-1)/2 + i is the pair i < j, so isqrt(8b + 1) is 2j - 1 or 2j
        j = (math.isqrt(8 * b + 1) + 1) // 2
        edges.append((b - j * (j - 1) // 2, j))
    return Graph(n, frozenset(edges))


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
    body = body.strip()
    if not body:
        return frozenset()
    indices = set()
    for token in body.split(","):
        token = token.strip()
        try:
            index = int(token)
        except ValueError:
            raise LoopFileParseError(line_number, f"bad loop index {token!r}") from None
        if index in indices:
            raise LoopFileParseError(line_number, f"duplicate loop index {index}")
        indices.add(index)
    return frozenset(indices)


def read_looped_graphs(lines: Iterable[str]) -> Iterator[LoopedGraph]:
    """Parse a graph6+sidecar stream into looped graphs, in file order."""
    pending: LoopedGraph | None = None
    pending_had_sidecar = False
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
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
                pending = with_loops(pending.base, loops)
            except ValueError as e:
                raise LoopFileParseError(line_number, str(e)) from e
            pending_had_sidecar = True
            continue
        if pending is not None:
            yield pending
        try:
            base = from_graph6(stripped)
        except Graph6ParseError as e:
            raise LoopFileParseError(line_number, str(e)) from e
        pending = with_loops(base, ())
        pending_had_sidecar = False
    if pending is not None:
        yield pending


def write_looped_graphs(graphs: Iterable[LoopedGraph]) -> Iterator[str]:
    """Render looped graphs as graph6+sidecar lines (no trailing newlines)."""
    for lg in graphs:
        yield to_graph6(lg.base)
        if lg.loops:
            yield "L: " + ",".join(str(i) for i in sorted(lg.loops))


def to_graph6_stack(a: np.ndarray) -> list[str]:
    """to_graph6 of every 0/1 matrix of a (k, n, n) stack; diagonals are ignored."""
    j, i = np.tril_indices(a.shape[1], -1)
    return _encode(a.shape[1], a[:, i, j])
