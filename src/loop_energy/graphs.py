"""Simple graphs, self-loop placements, complete graphs, and disjoint unions.

Vertices are 0-based contiguous integers. A loop placement is an explicit
vertex set rather than a bare count: the spectrum of the looped graph depends
on which vertices carry loops, even though its energy only sees the count.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .spectra import SymmetricMatrix

# largest order given a dense adjacency matrix; an int64 one of this order is 128 MB
MAX_MATRIX_ORDER = 4096


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus a set of unordered edges."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        n = _integer(self.n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        normalized = set()
        for e in self.edges:
            u, v = (_integer(x, "vertex label") for x in e)
            if u == v:
                raise ValueError(f"self-pair ({u},{v}) is not a valid edge")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))


def _from_matrix(a: np.ndarray) -> Graph:
    """The simple graph of one 0/1 adjacency matrix: edges from the upper
    triangle; the diagonal, where loops sit, is ignored."""
    i, j = np.nonzero(a)
    return Graph(len(a), frozenset((u, v) for u, v in zip(i.tolist(), j.tolist()) if u < v))


@dataclass(frozen=True)
class LoopedGraph:
    """A simple graph plus the set of vertices carrying a self-loop."""

    base: Graph
    loops: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "loops", check_loop_indices(self.base.n, self.loops))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def sigma(self) -> int:
        return len(self.loops)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, frozenset(combinations(range(n), 2)))


def with_loops(g: Graph, loops: Iterable[int]) -> LoopedGraph:
    """Attach self-loops at exactly the given vertex indices."""
    return LoopedGraph(g, frozenset(loops))


def with_all_loops(g: Graph) -> LoopedGraph:
    """Attach a loop on every vertex (the fully-looped copy of g)."""
    return LoopedGraph(g, frozenset(range(g.n)))


def union_looped(parts: Sequence[LoopedGraph]) -> LoopedGraph:
    """Disjoint union of looped graphs; labels and loop sets offset cumulatively."""
    n = 0
    edges: set[tuple[int, int]] = set()
    loops: set[int] = set()
    for part in parts:
        edges.update((u + n, v + n) for u, v in part.base.edges)
        loops.update(i + n for i in part.loops)
        n += part.n
    return LoopedGraph(Graph(n, frozenset(edges)), frozenset(loops))


def adjacency_matrix(g: Graph | LoopedGraph) -> SymmetricMatrix:
    """0/1 adjacency matrix; diagonal entries mark loop-carrying vertices.

    Raises ValueError above MAX_MATRIX_ORDER, before anything is allocated.
    """
    if isinstance(g, Graph):
        g = LoopedGraph(g, frozenset())
    check_matrix_order(g.n)
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.base.edges:
        a[u, v] = 1
        a[v, u] = 1
    for i in g.loops:
        a[i, i] = 1
    return SymmetricMatrix(a)


def check_loop_indices(n: int, loops: Iterable[int]) -> frozenset[int]:
    """The loop indices as plain ints; ValueError at the first one that is not
    an integer or lies outside range(n)."""
    indices = set()
    for x in loops:
        i = _integer(x, "loop index")
        if not (0 <= i < n):
            raise ValueError(f"loop index {i} out of range for n={n}")
        indices.add(i)
    return frozenset(indices)


def _integer(x, what: str) -> int:
    # operator.index takes ints and numpy integers (bool as 0/1), not floats or strings
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def check_matrix_order(n: int) -> None:
    """Raise ValueError if an order-n graph is too large for a dense matrix."""
    if n > MAX_MATRIX_ORDER:
        raise ValueError(
            f"order {n} exceeds the limit of {MAX_MATRIX_ORDER} vertices for a dense "
            "adjacency matrix"
        )
