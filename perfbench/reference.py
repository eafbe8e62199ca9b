"""Seeded inputs and independent correctness references for the benchmark.

Nothing here imports the package under test. Graphs are decoded with
networkx, spectra come from numpy.linalg.eigvalsh, and the scan order
(order, then edge bitmask over lexicographic vertex pairs, then loop bitmask)
is rebuilt from its definition. Each check returns how many items it expected
and how many of them failed; a missing, extra or malformed item is a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

import networkx as nx
import numpy as np

EQ_TOL = 1e-9         # the CLI's default relative equality tolerance
SUSPECT_BAND = 1e-6   # non-EQUAL gaps at most this far from 0 carry ";SUSPECT"
CONDITION_TOL = 1e-9  # slack on the |lambda| >= 1/2 test of the thm1 family
ENERGY_RTOL = 1e-8    # printed values are 10 significant digits

TSV_HEADER = "graph6\tloops\tsigma\tn\te_simple\te_looped\tgap\tclass"
FAMILY_KEYS = {"graph6", "loops", "sigma", "n", "e_simple", "e_looped", "gap", "class",
               "suspect", "condition_met"}
NUMERIC_KEYS = ("sigma", "n", "e_simple", "e_looped", "gap")

# Class totals at full size, from the paper's exhaustive scan; the per-record
# recomputation must agree with them as well as with the output.
SCAN_TOTALS = {5: {"records": 31668, "EQUAL": 6, "LOOPED_GREATER": 30538,
                   "SIMPLE_GREATER": 1124, "SUSPECT": 0}}
FAMILY_TOTALS = {5: {"records": 1099, "EQUAL": 176, "LOOPED_GREATER": 923,
                     "SIMPLE_GREATER": 0, "SUSPECT": 0}}

# energy-file composition. Orders and densities are fixed so that every seed
# asks for the same amount of eigensolver work; the seed picks edges and loops.
SMALL_ORDERS = (4, 5, 6, 7)
LARGE_ORDERS = tuple(range(8, 41))
DENSITIES = (0.15, 0.35, 0.5, 0.65, 0.85)


@dataclass
class Check:
    items: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def fail(self, note: str, items: int = 1) -> None:
        self.failed += items
        if len(self.notes) < 5:
            self.notes.append(note)


def energy_input(seed: int, small: int, large_passes: int) -> str:
    """graph6 + 'L:' sidecar text: `small` graphs of order 4-7, then each
    order 8-40 `large_passes` times, interleaved in a fixed pattern."""
    rng = random.Random(seed)
    orders = [SMALL_ORDERS[i % len(SMALL_ORDERS)] for i in range(small)]
    large = [n for _ in range(large_passes) for n in LARGE_ORDERS]
    if large:
        step = max(1, len(orders) // len(large))
        for k, n in enumerate(large):
            orders.insert(min(len(orders), (k + 1) * step + k), n)
    lines = []
    for i, n in enumerate(orders):
        p = DENSITIES[i % len(DENSITIES)]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(e for e in combinations(range(n), 2) if rng.random() < p)
        lines.append(nx.to_graph6_bytes(g, header=False).decode("ascii").strip())
        sigma = rng.randint(0, n)
        if sigma:
            lines.append("L: " + ",".join(map(str, sorted(rng.sample(range(n), sigma)))))
    return "\n".join(lines) + ("\n" if lines else "")


def _adjacency(g6: str) -> np.ndarray:
    g = nx.from_graph6_bytes(g6.encode("ascii"))
    return nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()), dtype=np.float64)


def _energies(mats: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    if mats.shape[0] == 0:
        return np.zeros(0)
    w = np.linalg.eigvalsh(mats)
    return np.abs(w - shifts[:, None]).sum(axis=1)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ENERGY_RTOL * max(1.0, abs(want))


def _reference_class(e_simple: float, e_looped: float) -> tuple[str, bool]:
    gap = e_looped - e_simple
    if abs(gap) <= EQ_TOL * (1.0 + e_simple):
        return "EQUAL", False
    return ("LOOPED_GREATER" if gap > 0 else "SIMPLE_GREATER"), abs(gap) <= SUSPECT_BAND


def _mask_adjacency(n: int, mask: int) -> np.ndarray:
    a = np.zeros((n, n))
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if (mask >> k) & 1:
            a[i, j] = a[j, i] = 1.0
    return a


def _check_records(check: Check, rows: list, expected: list, family: bool) -> None:
    """rows[k] is the parsed output record matched to expected[k], or None.

    expected[k] = (simple adjacency, loops); each row is a dict with keys
    graph6, loops, sigma, n, e_simple, e_looped, gap, class, suspect and, for
    the family scan, condition_met.
    """
    decoded: dict[str, np.ndarray] = {}
    by_n: dict[int, list[int]] = {}
    for k, row in enumerate(rows):
        if row is None:
            continue
        adj, loops = expected[k]
        g6 = row["graph6"]
        if g6 not in decoded:
            try:
                decoded[g6] = _adjacency(g6)
            except (nx.NetworkXError, ValueError) as e:
                decoded[g6] = np.zeros((0, 0))
                check.notes.append(f"undecodable graph6 {g6!r}: {e}")
        got = decoded[g6]
        n = adj.shape[0]
        if (got.shape != adj.shape or not np.array_equal(got, adj)
                or row["loops"] != loops or row["sigma"] != len(loops) or row["n"] != n):
            check.fail(f"record {k}: wrong graph or loops ({g6} {row['loops']})")
            rows[k] = None
            continue
        by_n.setdefault(n, []).append(k)
    for n, ks in by_n.items():
        simple = np.stack([expected[k][0] for k in ks])
        looped = simple.copy()
        for t, k in enumerate(ks):
            for i in expected[k][1]:
                looped[t, i, i] = 1.0
        e_simple = _energies(simple, np.zeros(len(ks)))
        sig = np.array([len(expected[k][1]) for k in ks], dtype=np.float64)
        e_looped = _energies(looped, sig / n)
        cond = None
        if family:  # G u G has the spectrum of G twice, so test the union directly
            cond = np.abs(np.linalg.eigvalsh(simple)).min(axis=1) >= 0.5 - CONDITION_TOL
        for t, k in enumerate(ks):
            row = rows[k]
            es, el = float(e_simple[t]), float(e_looped[t])
            label, suspect = _reference_class(es, el)
            ok = (_close(row["e_simple"], es) and _close(row["e_looped"], el)
                  and abs(row["gap"] - (el - es)) <= ENERGY_RTOL * max(1.0, es)
                  and row["class"] == label and row["suspect"] == suspect)
            if family:
                ok = ok and row["condition_met"] == bool(cond[t])
                if row["condition_met"] and row["class"] != "EQUAL":
                    ok = False
            if not ok:
                check.fail(f"record {k}: {row} != reference {es!r} {el!r} {label}")
                continue
            check.counts[label] = check.counts.get(label, 0) + 1
            check.counts["SUSPECT"] = check.counts.get("SUSPECT", 0) + int(suspect)


def _match_totals(check: Check, totals: dict | None) -> None:
    check.counts["records"] = check.items - check.failed
    for label in ("EQUAL", "LOOPED_GREATER", "SIMPLE_GREATER", "SUSPECT"):
        check.counts.setdefault(label, 0)
    if totals is None:
        return
    miss = sum(abs(check.counts.get(k, 0) - v) for k, v in totals.items() if k != "records")
    miss = max(miss, abs(check.items - totals["records"]))
    if miss > check.failed:
        check.fail(f"class totals {check.counts} != {totals}", miss - check.failed)


def _align(check: Check, rows: list, n_expected: int) -> list:
    if len(rows) != n_expected:
        check.fail(f"{len(rows)} records, expected {n_expected}",
                   abs(len(rows) - n_expected))
    return (rows + [None] * n_expected)[:n_expected]


def _split_lines(check: Check, text: str) -> list[str]:
    if text and not text.endswith("\n"):
        check.fail("output does not end with a newline")
    return text.splitlines()


def check_scan(text: str, n_max: int) -> Check:
    """`search --n-min 1 --n-max n_max` TSV output (interior sigma)."""
    expected = []
    for n in range(1, n_max + 1):
        for mask in range(1 << (n * (n - 1) // 2)):
            adj = _mask_adjacency(n, mask)
            for lm in range(1, (1 << n) - 1):
                expected.append((adj, [i for i in range(n) if (lm >> i) & 1]))
    check = Check(items=len(expected))
    lines = _split_lines(check, text)
    if not lines or lines[0] != TSV_HEADER:
        check.fail("missing or wrong TSV header")
        lines = [TSV_HEADER] + lines
    rows = []
    for k, line in enumerate(lines[1:]):
        f = line.split("\t")
        try:
            if len(f) != 8:
                raise ValueError("field count")
            label = f[7]
            rows.append({
                "graph6": f[0],
                "loops": [] if f[1] == "-" else [int(x) for x in f[1].split(",")],
                "sigma": int(f[2]), "n": int(f[3]),
                "e_simple": float(f[4]), "e_looped": float(f[5]), "gap": float(f[6]),
                "class": label.split(";")[0], "suspect": label.endswith(";SUSPECT"),
            })
        except ValueError:
            rows.append(None)
            if k < len(expected):
                check.fail(f"malformed line {k + 2}: {line!r}")
    rows = _align(check, rows, len(expected))
    _check_records(check, rows, expected, family=False)
    _match_totals(check, SCAN_TOTALS.get(n_max))
    return check


def check_family(text: str, base_max: int) -> Check:
    """`search --family thm1 --n-min 2 --n-max 2*base_max --format jsonl`."""
    expected = []
    for n in range(1, base_max + 1):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = _mask_adjacency(n, mask)
            union = np.zeros((2 * n, 2 * n))
            union[:n, :n] = g
            union[n:, n:] = g
            expected.append((union, list(range(n, 2 * n))))
    check = Check(items=len(expected))
    rows = []
    for k, line in enumerate(_split_lines(check, text)):
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if (isinstance(obj, dict) and FAMILY_KEYS <= obj.keys()
                and isinstance(obj["graph6"], str) and isinstance(obj["loops"], list)
                and all(isinstance(obj[k], (int, float)) for k in NUMERIC_KEYS)):
            rows.append(obj)
        else:
            rows.append(None)
            if k < len(expected):
                check.fail(f"malformed line {k + 1}: {line!r}")
    rows = _align(check, rows, len(expected))
    _check_records(check, rows, expected, family=True)
    _match_totals(check, FAMILY_TOTALS.get(base_max))
    return check


def _parse_input(text: str) -> list[tuple[np.ndarray, list[int]]]:
    graphs: list[tuple[np.ndarray, list[int]]] = []
    for line in text.splitlines():
        if line.startswith("L:"):
            graphs[-1] = (graphs[-1][0], sorted(int(x) for x in line[2:].split(",")))
        elif line.strip():
            graphs.append((_adjacency(line.strip()), []))
    return graphs


def check_energy(input_text: str, text: str) -> Check:
    """`energy FILE`: one 5-line report per input graph, blank-line separated."""
    graphs = _parse_input(input_text)
    check = Check(items=len(graphs))
    blocks = text.split("\n\n") if text else []
    if text and not text.endswith("\n"):
        check.fail("output does not end with a newline")
    blocks = _align(check, blocks, len(graphs))
    for k, block in enumerate(blocks):
        if block is None:
            continue
        adj, loops = graphs[k]
        n, sigma = adj.shape[0], len(loops)
        a = adj.copy()
        a[loops, loops] = 1.0
        want = np.sort(np.linalg.eigvalsh(a))[::-1] if n else np.zeros(0)
        shift = sigma / n if n else 0.0
        energy = float(np.abs(want - shift).sum())
        try:
            f = [line.split(" ") for line in block.strip("\n").split("\n")]
            heads = [x[0] for x in f]
            spectrum = np.array([float(x) for x in f[3][1:]])
            ok = (heads == ["n", "sigma", "shift", "spectrum", "energy"]
                  and int(f[0][1]) == n and int(f[1][1]) == sigma
                  and _close(float(f[2][1]), shift) and spectrum.shape == want.shape
                  and np.all(np.abs(spectrum - want) <= ENERGY_RTOL * np.maximum(1.0, np.abs(want)))
                  and _close(float(f[4][1]), energy))
        except (ValueError, IndexError):
            ok = False
        if not ok:
            check.fail(f"report {k} differs from reference energy {energy!r}: {block!r}"[:300])
    check.counts = {"records": check.items - check.failed}
    return check


def check_empty(kind: str, text: str) -> Check:
    """The set-up commands print a bare TSV header (scan) or nothing at all."""
    check = Check(items=1)
    if text != (TSV_HEADER + "\n" if kind == "scan" else ""):
        check.fail(f"unexpected output on empty input: {text[:200]!r}")
    return check
