"""Exhaustive scan over small labeled graphs and loop placements.

Enumeration is labeled (not isomorphism-reduced): correctness is easy to
verify by counting, and loop placements break most symmetry anyway. Records
stream in a fixed key order (order, then edge bitmask, then loop bitmask), so
a scan re-run with the same config is byte-identical regardless of how the
work is partitioned across processes.

The graphs of one order are read in chunks of at most 64, and a kernel turns
each chunk into its records as stacks of matrices: the scan kernel solves the
chunk's adjacency stack and the stack of all its loop placements, the thm1
family kernel the base stack and the stack of unions [[A, 0], [0, A + I]].
Both go through spectra.eigenvalues_stack and sum energies as energy._report
does, so each record holds the same floats as the Graph/LoopedGraph object
path (energy_simple, energy_looped, verify_theorem1), which stays the
reference layer.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .energy import _condition_witness, _energy_sum
from .graph6 import to_graph6_stack
from .graphs import Graph, is_connected
from .spectra import eigenvalues_stack

EQUAL = "EQUAL"
LOOPED_GREATER = "LOOPED_GREATER"
SIMPLE_GREATER = "SIMPLE_GREATER"
CLASSES = (EQUAL, LOOPED_GREATER, SIMPLE_GREATER)

MAX_ORDER = 8          # hard cap: 2^C(n,2) labeled graphs beyond this is out of reach
DEFAULT_MAX_ORDER = 5  # scans above this should be an explicit, acknowledged choice
DEFAULT_EQ_TOL = 1e-9  # relative: |gap| <= eq_tol * (1 + e_simple) classifies EQUAL
SUSPECT_BAND = 1e-6    # non-EQUAL records with |gap| <= this are flagged for exact follow-up
CHUNK_MAX = 64         # graphs per kernel call: the records in flight stay bounded at any order
NOISE_RTOL = 1e-12     # relative: a printed value this close to 0 is rounding noise, printed as 0

TSV_COLUMNS = ("graph6", "loops", "sigma", "n", "e_simple", "e_looped", "gap", "class")


@dataclass(frozen=True)
class SearchConfig:
    """Scan parameters. eq_tol is a relative tolerance factor (finite, > 0)."""

    n_min: int = 1
    n_max: int = DEFAULT_MAX_ORDER
    sigma_policy: str = "interior"  # "interior" (0 < sigma < n) or "all"
    eq_tol: float = DEFAULT_EQ_TOL
    connected_only: bool = False

    def __post_init__(self):
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if self.n_max > MAX_ORDER:
            raise ValueError(f"n_max exceeds the hard cap {MAX_ORDER}")
        if not 0 < self.eq_tol < math.inf:  # nan fails both comparisons
            raise ValueError(f"eq_tol must be finite and positive, got {self.eq_tol}")
        if self.sigma_policy not in ("interior", "all"):
            raise ValueError(f"unknown sigma_policy {self.sigma_policy!r}")


@dataclass(frozen=True)
class SearchRecord:
    """One (graph, loop set) instance with both energies and a classification.

    `suspect` marks gaps in the ambiguous band just above the equality
    tolerance; `condition_met` is set only by the restricted family scan.
    """

    graph6: str
    loops: tuple
    sigma: int
    n: int
    e_simple: float
    e_looped: float
    gap: float
    classification: str
    suspect: bool = False
    condition_met: bool | None = None


# the records of a chunk of same-order graphs; the scan and the thm1 family each supply one
Kernel = Callable[[Sequence[Graph], SearchConfig], list[SearchRecord]]


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-bitmask order.

    With connected_only, disconnected graphs are skipped. Every scan draws its
    graphs from here, so they all share one order and one filter.
    """
    if not (1 <= n <= MAX_ORDER):
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(n, frozenset(pair for k, pair in enumerate(pairs) if (mask >> k) & 1))
        if connected_only and not is_connected(g):
            continue
        yield g


def _classify(e_simple: float, e_looped: float, eq_tol: float) -> tuple[str, bool, float]:
    gap = e_looped - e_simple
    if abs(gap) <= eq_tol * (1.0 + e_simple):
        return EQUAL, False, gap
    label = LOOPED_GREATER if gap > 0 else SIMPLE_GREATER
    return label, abs(gap) <= SUSPECT_BAND, gap


def _loop_masks(n: int, sigma_policy: str) -> range:
    if sigma_policy == "all":
        return range(1 << n)
    return range(1, (1 << n) - 1)  # interior: exclude the empty and full sets


def _record(graph6: str, loops: tuple, n: int, e_simple: float, e_looped: float,
            eq_tol: float, condition_met: bool | None = None) -> SearchRecord:
    label, suspect, gap = _classify(e_simple, e_looped, eq_tol)
    return SearchRecord(graph6, loops, len(loops), n, e_simple, e_looped, gap, label,
                        suspect, condition_met)


def _adjacency_stack(graphs: Sequence[Graph], n: int) -> np.ndarray:
    a = np.zeros((len(graphs), n, n))
    for t, g in enumerate(graphs):
        for u, v in g.edges:
            a[t, u, v] = a[t, v, u] = 1.0
    return a


def _scan_kernel(graphs: Sequence[Graph], config: SearchConfig) -> list[SearchRecord]:
    """The records of same-order graphs: every graph with every allowed loop set."""
    n = graphs[0].n
    masks = _loop_masks(n, config.sigma_policy)
    if not masks:
        return []
    loop_sets = [tuple(i for i in range(n) if (mask >> i) & 1) for mask in masks]
    diagonals = ((np.array(masks)[:, np.newaxis] >> np.arange(n)) & 1).astype(float)
    a = _adjacency_stack(graphs, n)
    # (k, L, n, n): each graph with each loop placement on its diagonal
    looped = (a[:, np.newaxis] + diagonals[:, :, np.newaxis] * np.eye(n)).reshape(-1, n, n)
    e_simple = _energy_sum(eigenvalues_stack(a).T, 0.0).tolist()
    shifts = np.tile(diagonals.sum(axis=1) / n, len(graphs))
    e_looped = _energy_sum(eigenvalues_stack(looped).T, shifts).reshape(len(graphs), len(masks))
    return [_record(g6, loops, n, e, e_l, config.eq_tol)
            for g6, e, row in zip(to_graph6_stack(a), e_simple, e_looped.tolist())
            for loops, e_l in zip(loop_sets, row)]


def _family_kernel(graphs: Sequence[Graph], config: SearchConfig) -> list[SearchRecord]:
    """The verify_theorem1 verdict of each same-order base graph G, as a record of G union G^l."""
    n = graphs[0].n
    a = _adjacency_stack(graphs, n)
    union = np.zeros((len(graphs), 2 * n, 2 * n))
    union[:, :n, :n] = a
    union[:, n:, n:] = a + np.eye(n)
    base = eigenvalues_stack(a)
    # p = q = 1: m = 2, and the union's shift n / 2n and the threshold max(p, q) / m are 1/2
    rhs = (2 * _energy_sum(base.T, 0.0)).tolist()
    lhs = _energy_sum(eigenvalues_stack(union).T, 0.5).tolist()
    loops = tuple(range(n, 2 * n))
    return [_record(g6, loops, 2 * n, e_simple, e_looped, config.eq_tol,
                    condition_met=_condition_witness(values, 0.5)[0] is None)
            for g6, values, e_simple, e_looped
            in zip(to_graph6_stack(union), base.tolist(), rhs, lhs)]


def _stream(config: SearchConfig, workers: int, kernel: Kernel) -> Iterator[SearchRecord]:
    """kernel(chunk, config) for every chunk of enumerated graphs, in enumeration order."""
    if workers is None or workers < 1:
        workers = os.cpu_count() or 1
    for n in range(config.n_min, config.n_max + 1):
        graphs = enumerate_graphs(n, config.connected_only)
        total = 1 << (n * (n - 1) // 2)
        if workers == 1 or total < 4 * workers:
            while chunk := list(islice(graphs, CHUNK_MAX)):
                yield from kernel(chunk, config)
            continue
        size = max(1, min(CHUNK_MAX, total // (workers * 8)))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            pending = deque()
            while chunk := list(islice(graphs, size)):
                # a map of one job submits it at once; map, not submit, so that
                # perfbench/traced.py still times the wait on its results
                pending.append(pool.map(kernel, [chunk], [config]))
                if len(pending) == 2 * workers:
                    yield from next(pending.popleft())
            while pending:
                yield from next(pending.popleft())
        finally:
            # closing the stream early returns at once: queued chunks are
            # cancelled, and the workers finish the ones they hold on their own
            pool.shutdown(wait=False, cancel_futures=True)


def scan(config: SearchConfig, workers: int = 1) -> Iterator[SearchRecord]:
    """Stream records for every enumerated graph and allowed loop subset.

    `workers` > 1 partitions the graph stream across processes, and 0 uses one
    per CPU; the output order (and bytes, once rendered) is identical for any
    worker count. Graphs are drawn as they are needed: at most 2 * workers
    chunks are in flight, so memory does not grow with the 2^C(n,2) graphs of
    an order.
    """
    return _stream(config, workers, _scan_kernel)


def find_theorem_family_instances(
    config: SearchConfig, workers: int = 1
) -> Iterator[SearchRecord]:
    """Restricted scan over unions of a base graph with its fully-looped copy.

    Enumerates base graphs G with n in the config range, builds G union G^l
    with loops on the second copy, and tags each record with whether the
    |lambda| >= 1/2 condition held for G. Each record is the verify_theorem1
    verdict of G: e_simple is 2 E(G) from the spectrum of G, and e_looped is
    solved from the union as built. Condition-true records must come out
    EQUAL; anything else is a defect in the energy pipeline. `workers` is as
    for scan: the base graphs stream through the same process pool.

    The family fixes the loop set (n loops on 2n vertices), so a config with
    sigma_policy "all" raises ValueError here, before any record is produced.
    """
    if config.sigma_policy != "interior":
        raise ValueError(
            f"sigma_policy {config.sigma_policy!r} does not apply to the theorem-1 "
            "family: every union carries loops on exactly n of its 2n vertices"
        )
    return _stream(config, workers, _family_kernel)


def snap(x: float, scale: float) -> float:
    """x, or 0.0 when |x| <= NOISE_RTOL * (1 + scale).

    Renderers pass values through this so that rounding noise, which differs
    between eigensolvers, prints as 0; classes and energies are computed from
    the unsnapped floats.
    """
    return 0.0 if abs(x) <= NOISE_RTOL * (1.0 + scale) else x


def fmt10(x: float) -> str:
    """Locale-independent rendering with exactly 10 significant digits."""
    if x == 0:
        x = 0.0  # normalize -0.0
    return f"{x:#.10g}"


def _loops_field(loops: tuple) -> str:
    return ",".join(str(i) for i in loops) if loops else "-"


def to_tsv(records: Iterable[SearchRecord], include_condition: bool = False) -> Iterator[str]:
    """Render records as TSV lines (header first, no trailing newlines)."""
    header = list(TSV_COLUMNS)
    if include_condition:
        header.append("condition_met")
    yield "\t".join(header)
    for r in records:
        label = r.classification + (";SUSPECT" if r.suspect else "")
        row = [
            r.graph6,
            _loops_field(r.loops),
            str(r.sigma),
            str(r.n),
            fmt10(r.e_simple),
            fmt10(r.e_looped),
            fmt10(snap(r.gap, r.e_simple)),
            label,
        ]
        if include_condition:
            row.append("true" if r.condition_met else "false")
        yield "\t".join(row)


def to_jsonl(records: Iterable[SearchRecord]) -> Iterator[str]:
    """Render records as JSON lines; floats are rounded to 10 significant digits."""
    for r in records:
        obj = {
            "graph6": r.graph6,
            "loops": list(r.loops),
            "sigma": r.sigma,
            "n": r.n,
            "e_simple": float(fmt10(r.e_simple)),
            "e_looped": float(fmt10(r.e_looped)),
            "gap": float(fmt10(snap(r.gap, r.e_simple))),
            "class": r.classification,
            "suspect": r.suspect,
        }
        if r.condition_met is not None:
            obj["condition_met"] = r.condition_met
        yield json.dumps(obj, separators=(",", ":"))
