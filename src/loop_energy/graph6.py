"""graph6 codec and the loop-set sidecar file format.

graph6 cannot express self-loops, so loop sets travel in a sidecar line
"L: i1,i2,..." (0-based sorted indices) immediately after a graph6 line;
an absent sidecar means no loops. One graph per line; the optional
">>graph6<<" header is tolerated on input and never written. The decoder
rejects orders above graphs.MAX_MATRIX_ORDER at the length bytes, before it
reads any edge data.
"""

from __future__ import annotations

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


def _pairs(n: int) -> Iterator[tuple[int, int]]:
    # the vertex pairs i < j in graph6 bit order: column by column
    for j in range(1, n):
        for i in range(j):
            yield i, j


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
    bits = "".join(f"{group:06b}" for group in groups)
    return Graph(n, frozenset(pair for pair, bit in zip(_pairs(n), bits) if bit == "1"))


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6: minimal length form, zero padding, no header."""
    n = g.n
    if n > _MAX_ENCODABLE:
        raise ValueError(f"order {n} exceeds supported graph6 range")
    if n <= _ONE_BYTE_MAX:
        out = [chr(n + 63)]
    else:
        out = ["~", chr(((n >> 12) & 63) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    bits = "".join("1" if (i, j) in g.edges else "0" for i, j in _pairs(n))
    bits += "0" * (-len(bits) % 6)  # zero padding to a whole byte
    out.extend(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))
    return "".join(out)


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
    """to_graph6 of every 0/1 matrix of a (k, n, n) stack, n <= 62; diagonals are ignored."""
    k, n, _ = a.shape
    if n > _ONE_BYTE_MAX:
        raise ValueError(f"order {n} needs the long graph6 length form")
    j, i = np.tril_indices(n, -1)  # graph6 bit order: pairs i < j, column j by column j
    bits = np.zeros((k, -(-len(i) // 6) * 6), dtype=np.uint8)
    bits[:, :len(i)] = a[:, i, j]
    out = np.empty((k, 1 + bits.shape[1] // 6), dtype=np.uint8)
    out[:, 0] = n + 63
    out[:, 1:] = bits.reshape(k, -1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    text = out.tobytes().decode("ascii")
    width = out.shape[1]
    return [text[t * width:(t + 1) * width] for t in range(k)]
