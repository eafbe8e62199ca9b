"""Simple graphs, self-loop placements, named families, and disjoint unions.

Vertices are 0-based contiguous integers. A loop placement is an explicit
vertex set rather than a bare count: the spectrum of the looped graph depends
on which vertices carry loops, even though its energy only sees the count.
All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from collections import deque
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
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        normalized = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-pair ({u},{v}) is not a valid edge")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges


@dataclass(frozen=True)
class LoopedGraph:
    """A simple graph plus the set of vertices carrying a self-loop."""

    base: Graph
    loops: frozenset = frozenset()

    def __post_init__(self):
        loops = frozenset(self.loops)
        for i in loops:
            if not (0 <= i < self.base.n):
                raise ValueError(f"loop index {i} out of range for n={self.base.n}")
        object.__setattr__(self, "loops", loops)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def sigma(self) -> int:
        return len(self.loops)

    def sorted_loops(self) -> list[int]:
        return sorted(self.loops)


def empty_graph(n: int) -> Graph:
    """Edgeless graph on n vertices (n = 0 allowed)."""
    return Graph(n)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, frozenset(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path graph needs n >= 1, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are relabeled by offset a.n."""
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Graph(a.n + b.n, frozenset(a.edges | shifted))


def with_loops(g: Graph, loops: Iterable[int]) -> LoopedGraph:
    """Attach self-loops at exactly the given vertex indices."""
    return LoopedGraph(g, frozenset(loops))


def with_all_loops(g: Graph) -> LoopedGraph:
    """Attach a loop on every vertex (the fully-looped copy of g)."""
    return LoopedGraph(g, frozenset(range(g.n)))


def union_looped(parts: Sequence[LoopedGraph]) -> LoopedGraph:
    """Disjoint union of looped graphs; labels and loop sets offset cumulatively."""
    graph = empty_graph(0)
    loops: set[int] = set()
    for part in parts:
        offset = graph.n
        graph = disjoint_union(graph, part.base)
        loops.update(i + offset for i in part.loops)
    return LoopedGraph(graph, frozenset(loops))


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


def check_matrix_order(n: int) -> None:
    """Raise ValueError if an order-n graph is too large for a dense matrix."""
    if n > MAX_MATRIX_ORDER:
        raise ValueError(
            f"order {n} exceeds the limit of {MAX_MATRIX_ORDER} vertices for a dense "
            "adjacency matrix"
        )


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: vertex i becomes perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def relabel_looped(lg: LoopedGraph, perm: Sequence[int]) -> LoopedGraph:
    """Apply a vertex permutation to the base graph and the loop set alike."""
    return LoopedGraph(relabel(lg.base, perm), frozenset(perm[i] for i in lg.loops))
