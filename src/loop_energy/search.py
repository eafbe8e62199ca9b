"""Exhaustive scan over small labeled graphs and loop placements.

Enumeration is labeled (not isomorphism-reduced): correctness is easy to
verify by counting, and loop placements break most symmetry anyway. Records
stream in a fixed key order (order, then edge bitmask, then loop bitmask), so
a scan re-run with the same config is byte-identical regardless of how the
work is partitioned across processes.

The scan draws its graphs as edge bitmasks, scattered into (k, n, n)
adjacency stacks of at most 64 graphs; enumerate_graphs is a view that turns
the rows of those stacks back into Graph objects. A kernel turns each stack
into its records. The scan kernel solves the adjacency stack and the stack of
all its loop placements through spectra._scan_eigvalsh and sums energies as
energy._report does. That solver is LAPACK above order 5, as energy_simple and
energy_looped are at every order, so there each record holds their floats; at
orders up to 5 it is Jacobi, and each record prints the same bytes as theirs
(tests/test_cli.py, the scan ids of test_stdout_is_the_same_on_either_backend).
The thm1 family kernel is energy._union_verdicts(stack, 1, 1),
the stack form of verify_theorem1, with each verdict turned into a record and
the union stack it solved encoded as the record's graph6. The
Graph/LoopedGraph object path stays the reference layer.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .energy import _energy_sum, _union_verdicts
from .graph6 import to_graph6_stack
from .graphs import Graph
from .spectra import _scan_eigvalsh

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


# the records of a (k, n, n) adjacency stack; the scan and the thm1 family each supply one
Kernel = Callable[[np.ndarray, SearchConfig], list[SearchRecord]]


def _graph_stacks(n: int, connected_only: bool, size: int = CHUNK_MAX) -> Iterator[np.ndarray]:
    """The labeled graphs on n vertices as float64 adjacency stacks of at most `size`
    graphs, in edge-bitmask order: bit k is the k-th pair i < j of np.triu_indices.
    With connected_only, disconnected graphs are dropped and empty stacks skipped.
    """
    if not (1 <= n <= MAX_ORDER):
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
    i, j = np.triu_indices(n, 1)
    total = 1 << len(i)
    for start in range(0, total, size):
        masks = np.arange(start, min(start + size, total))
        bits = (masks[:, np.newaxis] >> np.arange(len(i))) & 1
        a = np.zeros((len(masks), n, n))
        a[:, i, j] = a[:, j, i] = bits
        if connected_only:
            # after t squarings, reach holds every walk of length <= 2^t
            reach = np.minimum(a + np.eye(n), 1.0)
            for _ in range(n.bit_length()):
                reach = np.minimum(reach @ reach, 1.0)
            a = a[reach[:, 0].all(axis=1)]
        if len(a):
            yield a


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-bitmask order.

    With connected_only, disconnected graphs are skipped. This is a view of the
    stacks that every scan draws, so it shares their order and their filter.
    """
    i, j = np.triu_indices(n, 1)
    pairs = list(zip(i.tolist(), j.tolist()))
    for a in _graph_stacks(n, connected_only):
        for row in a[:, i, j].tolist():
            yield Graph(n, frozenset(pair for pair, bit in zip(pairs, row) if bit))


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


def _scan_kernel(a: np.ndarray, config: SearchConfig) -> list[SearchRecord]:
    """The records of an adjacency stack: every graph with every allowed loop set."""
    n = a.shape[1]
    masks = _loop_masks(n, config.sigma_policy)
    if not masks:
        return []
    loop_sets = [tuple(i for i in range(n) if (mask >> i) & 1) for mask in masks]
    diagonals = ((np.array(masks)[:, np.newaxis] >> np.arange(n)) & 1).astype(float)
    # (k, L, n, n): each graph with each loop placement on its diagonal
    looped = (a[:, np.newaxis] + diagonals[:, :, np.newaxis] * np.eye(n)).reshape(-1, n, n)
    e_simple = _energy_sum(_scan_eigvalsh(a).T, 0.0).tolist()
    shifts = np.tile(diagonals.sum(axis=1) / n, len(a))
    e_looped = _energy_sum(_scan_eigvalsh(looped).T, shifts).reshape(len(a), len(masks))
    return [_record(g6, loops, n, e, e_l, config.eq_tol)
            for g6, e, row in zip(to_graph6_stack(a), e_simple, e_looped.tolist())
            for loops, e_l in zip(loop_sets, row)]


def _family_kernel(a: np.ndarray, config: SearchConfig) -> list[SearchRecord]:
    """The verify_theorem1 verdict of each base graph G of a stack, as a record of G union G^l."""
    n = a.shape[1]
    loops = tuple(range(n, 2 * n))
    union, verdicts = _union_verdicts(a, 1, 1)
    return [_record(g6, loops, 2 * n, v.rhs_energy, v.lhs_energy, config.eq_tol,
                    condition_met=v.condition_holds)
            for g6, v in zip(to_graph6_stack(union), verdicts)]


def _stream(config: SearchConfig, workers: int, kernel: Kernel) -> Iterator[SearchRecord]:
    """kernel(stack, config) for every graph stack, in enumeration order; orders with
    fewer than 4 * workers graphs run serially, the others share one pool of at most
    os.cpu_count() processes, terminated when the stream ends or is closed."""
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None or workers < 1 else min(workers, cpus)
    pool = None
    try:
        for n in range(config.n_min, config.n_max + 1):
            total = 1 << (n * (n - 1) // 2)
            if workers == 1 or total < 4 * workers:
                for a in _graph_stacks(n, config.connected_only):
                    yield from kernel(a, config)
                continue
            if pool is None:
                from multiprocessing import Pool  # here: a process without a pool never loads it
                pool = Pool(workers)
            pending = deque()
            for a in _graph_stacks(n, config.connected_only,
                                   max(1, min(CHUNK_MAX, total // (workers * 8)))):
                pending.append(pool.apply_async(kernel, (a, config)))
                if len(pending) == 2 * workers:
                    yield from pending.popleft().get()
            while pending:
                yield from pending.popleft().get()
    finally:
        if pool is not None:
            # a closed stream may leave stacks queued or running: stop the workers now
            pool.terminate()


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
