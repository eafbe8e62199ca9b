"""graph6 codec and the loop-set sidecar file format.

graph6 cannot express self-loops, so loop sets travel in a sidecar line
"L: i1,i2,..." (0-based sorted indices) immediately after a graph6 line;
an absent sidecar means no loops. One graph per line; the optional
">>graph6<<" header is tolerated on input and never written.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import Graph, LoopedGraph, with_loops

HEADER = ">>graph6<<"
_MAX_ENCODABLE = 258047  # largest order for the 18-bit length form


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


def _parse_order(s: str, pos: int) -> tuple[int, int]:
    v = _value(s, pos)
    if v < 63:
        return v, pos + 1
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
    return n, pos + 4


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional header, trailing newline tolerated)."""
    s = text.rstrip("\r\n")
    pos = 0
    if s.startswith(HEADER):
        pos = len(HEADER)
    if pos >= len(s):
        raise Graph6ParseError("empty graph6 string", pos)
    n, pos = _parse_order(s, pos)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    for k in range(pos, len(s)):
        _value(s, k)  # flag any out-of-alphabet byte at its own offset
    if len(s) - pos < nbytes:
        raise Graph6ParseError(
            f"truncated edge data: need {nbytes} bytes, have {len(s) - pos}", len(s)
        )
    if len(s) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after edge data", pos + nbytes)
    edges = set()
    bit = 0
    for j in range(1, n):
        for i in range(j):
            group = _value(s, pos + bit // 6)
            if (group >> (5 - bit % 6)) & 1:
                edges.add((i, j))
            bit += 1
    return Graph(n, frozenset(edges))


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6: minimal length form, zero padding, no header."""
    n = g.n
    if n > _MAX_ENCODABLE:
        raise ValueError(f"order {n} exceeds supported graph6 range")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr(((n >> 12) & 63) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    group = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | (1 if g.has_edge(i, j) else 0)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group = 0
                filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def _parse_loop_indices(body: str, line_number: int) -> frozenset:
    body = body.strip()
    if not body:
        return frozenset()
    indices = set()
    for token in body.split(","):
        token = token.strip()
        try:
            indices.add(int(token))
        except ValueError:
            raise LoopFileParseError(line_number, f"bad loop index {token!r}") from None
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
            yield "L: " + ",".join(str(i) for i in lg.sorted_loops())
