"""Graph builders and checks that only the tests use.

The package ships what its commands call; these small constructions and
relabelings build test inputs and independent cross-checks around it.
"""

from __future__ import annotations

import math
from typing import Sequence

from loop_energy import Graph, LoopedGraph, adjacency_matrix, energy_looped, read_looped_graphs
from loop_energy.search import fmt10, snap


def empty_graph(n: int) -> Graph:
    """Edgeless graph on n vertices (n = 0 allowed)."""
    return Graph(n)


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


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: vertex i becomes perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def relabel_looped(lg: LoopedGraph, perm: Sequence[int]) -> LoopedGraph:
    """Apply a vertex permutation to the base graph and the loop set alike."""
    return LoopedGraph(relabel(lg.base, perm), frozenset(perm[i] for i in lg.loops))


def poly_at(coefficients: Sequence, x):
    """Horner evaluation of a polynomial whose coefficients[k] multiplies x^(n-k)."""
    acc = coefficients[0]
    for c in coefficients[1:]:
        acc = acc * x + c
    return acc


def _spectrum_fields(spectrum) -> list[str]:
    scale = math.hypot(*spectrum)
    return [fmt10(snap(v, scale)) for v in spectrum]


def file_command_stdout(command: str, text: str) -> str:
    """The stdout of `energy`, `spectrum` or `convert --to matrix` on graph6+sidecar
    text, computed one graph at a time through the object API: read_looped_graphs,
    then energy_looped or adjacency_matrix, each rendered as those commands print."""
    blocks = []
    for lg in read_looped_graphs(text.splitlines()):
        if command == "energy":
            report = energy_looped(lg)
            lines = [f"n {report.n}", f"sigma {report.sigma}", f"shift {fmt10(report.shift)}",
                     " ".join(["spectrum", *_spectrum_fields(report.spectrum)]),
                     f"energy {fmt10(report.energy)}"]
        elif command == "spectrum":
            lines = [" ".join(_spectrum_fields(energy_looped(lg).spectrum))]
        else:
            lines = [" ".join(str(int(x)) for x in row) for row in adjacency_matrix(lg).data]
        blocks.append("".join(line + "\n" for line in lines))
    # energy reports and matrices are separated by a blank line
    return ("" if command == "spectrum" else "\n").join(blocks)
