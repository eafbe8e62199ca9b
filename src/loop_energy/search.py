"""Exhaustive scan over small labeled graphs and loop placements.

Enumeration is labeled (not isomorphism-reduced): correctness is easy to
verify by counting, and loop placements break most symmetry anyway. Records
stream in a fixed key order (order, then edge bitmask, then loop bitmask), so
a scan re-run with the same config is byte-identical regardless of how the
work is partitioned across processes.
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

from .energy import _union_family_verdict, energy_looped, energy_simple
from .graph6 import to_graph6
from .graphs import Graph, is_connected, with_loops

EQUAL = "EQUAL"
LOOPED_GREATER = "LOOPED_GREATER"
SIMPLE_GREATER = "SIMPLE_GREATER"
CLASSES = (EQUAL, LOOPED_GREATER, SIMPLE_GREATER)

MAX_ORDER = 8          # hard cap: 2^C(n,2) labeled graphs beyond this is out of reach
DEFAULT_MAX_ORDER = 5  # scans above this should be an explicit, acknowledged choice
DEFAULT_EQ_TOL = 1e-9  # relative: |gap| <= eq_tol * (1 + e_simple) classifies EQUAL
SUSPECT_BAND = 1e-6    # non-EQUAL records with |gap| <= this are flagged for exact follow-up

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


# the records of one graph; the scan and the thm1 family each supply one
PerGraph = Callable[[Graph, SearchConfig], list[SearchRecord]]


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


def _scan_one_graph(g: Graph, config: SearchConfig) -> list[SearchRecord]:
    g6 = to_graph6(g)
    e_simple = energy_simple(g).energy
    records = []
    for loop_mask in _loop_masks(g.n, config.sigma_policy):
        loops = tuple(i for i in range(g.n) if (loop_mask >> i) & 1)
        e_looped = energy_looped(with_loops(g, loops)).energy
        records.append(_record(g6, loops, g.n, e_simple, e_looped, config.eq_tol))
    return records


def _family_one_graph(g: Graph, config: SearchConfig) -> list[SearchRecord]:
    union, verdict = _union_family_verdict(g, 1, 1)
    return [_record(to_graph6(union.base), tuple(union.sorted_loops()), union.n,
                    verdict.rhs_energy, verdict.lhs_energy, config.eq_tol,
                    condition_met=verdict.condition_holds)]


def _scan_chunk(args: tuple[PerGraph, SearchConfig, Sequence[Graph]]) -> list[SearchRecord]:
    per_graph, config, graphs = args
    out: list[SearchRecord] = []
    for g in graphs:
        out.extend(per_graph(g, config))
    return out


def _stream(config: SearchConfig, workers: int, per_graph: PerGraph) -> Iterator[SearchRecord]:
    """per_graph(g, config) for every enumerated graph g, in enumeration order."""
    if workers is None or workers < 1:
        workers = os.cpu_count() or 1
    for n in range(config.n_min, config.n_max + 1):
        graphs = enumerate_graphs(n, config.connected_only)
        total = 1 << (n * (n - 1) // 2)
        if workers == 1 or total < 4 * workers:
            for g in graphs:
                yield from per_graph(g, config)
            continue
        # at most 64 graphs a chunk: the records in flight stay bounded at any order
        size = max(1, min(64, total // (workers * 8)))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            pending = deque()
            while chunk := list(islice(graphs, size)):
                # a map of one job submits it at once; map, not submit, so that
                # perfbench/traced.py still times the wait on its results
                pending.append(pool.map(_scan_chunk, [(per_graph, config, chunk)]))
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
    return _stream(config, workers, _scan_one_graph)


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
    return _stream(config, workers, _family_one_graph)


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
            fmt10(r.gap),
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
            "gap": float(fmt10(r.gap)),
            "class": r.classification,
            "suspect": r.suspect,
        }
        if r.condition_met is not None:
            obj["condition_met"] = r.condition_met
        yield json.dumps(obj, separators=(",", ":"))
