"""Command-line front end.

Every command runs on adjacency stacks and builds no Graph. stdout carries
only machine-readable payload; summaries and diagnostics go to stderr, so
the commands compose in pipelines. Numbers are printed with a '.' decimal
separator and a fixed 10 significant digits; a gap, witness or eigenvalue
that is rounding noise around 0 prints as 0 (search.snap).

Exit codes: 0 success; 2 parse or usage error. argparse reports a malformed
command line itself; any error after that is one 'error: ...' line on stderr.
141 (128 + SIGPIPE) = the reader closed stdout early, as in `| head`; that
ends the output quietly, with nothing on stderr.
The verify commands add:
1 = condition held but the gap failed the EQUAL rule that classifies every
    search record, |gap| <= 1e-9 * (1 + rhs) (a pipeline bug),
3 = condition failed (informational; both energies are still printed).

OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS is exported: no solve
here is large enough to split, and an idle BLAS worker costs every process CPU.
"""

from __future__ import annotations

import os

# before numpy loads, which reads it once; pool workers inherit it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import math
import re
import sys
from typing import Callable, Generator, Iterable, Iterator, Sequence

import numpy as np

from . import search as search_mod
from .energy import TheoremVerdict, _energy_sum, _shift, _union_verdicts, check_copy_counts
from .graph6 import (Entry, LoopFileParseError, _lines, adjacency_stack, read_entries,
                     to_graph6_stack)
from .graphs import check_matrix_order
from .search import SearchConfig, fmt10, snap, to_jsonl, to_tsv
from .spectra import eigenvalues_stack

ENV_THREADS = "LOOP_ENERGY_THREADS"
# matrix cells (k * n^2 summed over a block's stacks) held at once; one entry
# above it is a block of its own. 2^20 float64 cells are 8 MB
BLOCK_CELLS = 1 << 20
_TOKEN = re.compile(r"\S+", re.ASCII)  # a run of bytes other than ASCII whitespace


def _read_lines(path: str) -> list[str]:
    # lines end at LF, CR or CRLF only (bytes.splitlines, not str's Unicode
    # rules); each is decoded latin-1, one char per byte, from a file and from
    # stdin alike: an error names the offending byte itself
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return [line.decode("latin-1") for line in data.splitlines()]


def _read_entries(path: str) -> list[Entry]:
    # validated in full before anything is printed: a bad line rejects the input
    return list(read_entries(_read_lines(path)))


def _blocks(entries: Sequence[Entry]) -> Iterator[list[Entry]]:
    # consecutive runs of at most CHUNK_MAX entries and BLOCK_CELLS cells
    block: list[Entry] = []
    cells = 0
    for e in entries:
        if block and (len(block) == search_mod.CHUNK_MAX or cells + e.n * e.n > BLOCK_CELLS):
            yield block
            block, cells = [], 0
        block.append(e)
        cells += e.n * e.n
    if block:
        yield block


def _per_entry(entries: Sequence[Entry], f: Callable[[np.ndarray], Sequence]) -> Iterator[tuple]:
    """Each entry with its row of f(adjacency stack), in input order.

    f gets one stack per order in each block (see _blocks), so the stacks in
    memory stay bounded; a block's rows are yielded before the next block's
    stacks are built.
    """
    for block in _blocks(entries):
        rows: list = [None] * len(block)
        for n in {e.n for e in block}:
            at = [i for i, e in enumerate(block) if e.n == n]
            for i, row in zip(at, f(adjacency_stack([block[i] for i in at]))):
                rows[i] = row
        yield from zip(block, rows)


def _spectra(entries: Sequence[Entry]) -> Iterator[tuple[Entry, list[float]]]:
    # one solve per order in a block; each row holds eigenvalues() floats, descending
    return _per_entry(entries, lambda a: eigenvalues_stack(a).tolist())


def _spectrum_fields(values: Sequence[float]) -> list[str]:
    # an eigenvalue within rounding noise of 0, relative to the spectrum's 2-norm, prints as 0
    scale = math.hypot(*values)
    return [fmt10(snap(v, scale)) for v in values]


def _report_text(e: Entry, values: Sequence[float]) -> str:
    # the energy_looped report of the entry, from its eigenvalues
    sigma = len(e.loops)
    shift = _shift(e.n, sigma)
    return (f"n {e.n}\nsigma {sigma}\nshift {fmt10(shift)}\n"
            f"{' '.join(['spectrum', *_spectrum_fields(values)])}\n"
            f"energy {fmt10(_energy_sum(values, shift))}\n")


def _cmd_energy(args) -> int:
    for k, (e, values) in enumerate(_spectra(_read_entries(args.input))):
        if k:
            print()
        sys.stdout.write(_report_text(e, values))
    return 0


def _cmd_spectrum(args) -> int:
    for _, values in _spectra(_read_entries(args.input)):
        print(" ".join(_spectrum_fields(values)))
    return 0


def _print_verdict(verdict: TheoremVerdict) -> int:
    print(f"condition {'true' if verdict.condition_holds else 'false'}")
    print(f"lhs {fmt10(verdict.lhs_energy)}")
    print(f"rhs {fmt10(verdict.rhs_energy)}")
    print(f"gap {fmt10(snap(verdict.abs_gap, verdict.rhs_energy))}")
    if verdict.witness is not None:
        print(f"witness {fmt10(snap(verdict.witness, verdict.rhs_energy))}")
    if verdict.boundary:
        print("boundary true")
    if not verdict.condition_holds:
        return 3
    return 0 if verdict.gap_within_tolerance() else 1


def _cmd_verify(args) -> int:
    check_copy_counts(args.p, args.q)  # before the input is read
    entries = _read_entries(args.input)
    if len(entries) != 1:
        raise LoopFileParseError(1, f"expected exactly one graph, found {len(entries)}")
    if entries[0].loops:
        raise LoopFileParseError(1, "loop sidecar not allowed here; give the base graph only")
    return _print_verdict(_union_verdicts(adjacency_stack(entries), args.p, args.q)[1][0])


def _workers() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{ENV_THREADS} must be >= 0, got {value}")
    return value


def _cmd_search(args) -> int:
    n_min, n_max = args.n_min, args.n_max
    if args.family == "thm1":
        if args.sigma == "all":
            raise ValueError(
                "--sigma all does not apply to --family thm1: every union "
                "carries loops on exactly n of its 2n vertices"
            )
        # flags give the order of the emitted union; the base graph is half that
        n_min, n_max = (n_min + 1) // 2, n_max // 2
        if n_max > search_mod.MAX_ORDER:
            raise ValueError(f"union order {args.n_max} exceeds the cap of "
                             f"{2 * search_mod.MAX_ORDER}")
    if n_max > search_mod.DEFAULT_MAX_ORDER and not args.force_large:
        raise ValueError(
            f"scanning graphs of order {n_max} visits 2^C({n_max},2) graphs "
            f"(2^28 at order 8); pass --force-large to acknowledge the runtime"
        )
    if args.family == "thm1" and n_min > n_max:  # no even union order in range
        records: Generator[search_mod.SearchRecord, None, None] = (r for r in ())
    else:
        config = SearchConfig(n_min, n_max, args.sigma, args.connected)
        if args.family == "thm1":
            records = search_mod.find_theorem_family_instances(config)
        else:
            records = search_mod.scan(config, workers=_workers())

    counts = {label: 0 for label in search_mod.CLASSES}
    suspects = 0
    total = 0

    def counted(stream: Iterable[search_mod.SearchRecord]):
        nonlocal total, suspects
        for r in stream:
            total += 1
            counts[r.classification] += 1
            suspects += int(r.suspect)
            yield r

    if args.format == "tsv":
        lines = to_tsv(counted(records), include_condition=args.family is not None)
    else:
        lines = to_jsonl(counted(records))

    try:
        for line in lines:
            print(line)
    finally:  # a reader that closed the pipe early must not leave the pool running
        records.close()
    summary = " ".join(
        [f"records={total}"]
        + [f"{label}={counts[label]}" for label in search_mod.CLASSES]
        + [f"SUSPECT={suspects}"]
    )
    print(summary, file=sys.stderr)
    return 0


def _matrix_blocks(lines: Sequence[str]) -> Iterator[list[str]]:
    block: list[str] = []
    for line in lines:
        if _TOKEN.search(line):
            block.append(line)
        elif block:
            yield block
            block = []
    if block:
        yield block


def _graph6_lines(block: Sequence[str]) -> list[str]:
    # the graph6+sidecar lines of a 0/1 matrix text block, encoded as a stack of one
    check_matrix_order(len(block))
    rows: list[list[int]] = []
    for i, line in enumerate(block):
        row = []
        for j, token in enumerate(_TOKEN.findall(line)):
            if token not in ("0", "1"):
                raise ValueError(f"invalid entry {token!r} at ({i},{j})")
            row.append(int(token))
        rows.append(row)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"non-square matrix: row {i} has {len(row)} entries, expected {n}")
    a = np.array(rows)
    asymmetric = np.argwhere(a != a.T)  # row-major, so the first cell has i < j
    if len(asymmetric):
        i, j = asymmetric[0]
        raise ValueError(f"asymmetric at ({i},{j})")
    return _lines(to_graph6_stack(a[np.newaxis])[0], np.flatnonzero(a.diagonal()).tolist())


def _cmd_convert(args) -> int:
    if args.to == "matrix":
        matrices = _per_entry(_read_entries(args.input), lambda a: a.astype(np.int64).tolist())
        for k, (_, rows) in enumerate(matrices):
            if k:
                print()
            for row in rows:
                print(" ".join(map(str, row)))
        return 0
    encoded = [_graph6_lines(block) for block in _matrix_blocks(_read_lines(args.input))]
    sys.stdout.writelines(line + "\n" for lines in encoded for line in lines)
    return 0


def _add_input_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "input",
        nargs="?",
        default="-",
        help="input file of graph6 lines with optional 'L:' loop sidecars ('-' = stdin)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loop-energy",
        description="Energy of graphs with self-loops: reports, identity checks, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="print an energy report per input graph")
    _add_input_argument(p_energy)
    p_energy.set_defaults(run=_cmd_energy)

    p_spectrum = sub.add_parser("spectrum", help="print the eigenvalues per input graph")
    _add_input_argument(p_spectrum)
    p_spectrum.set_defaults(run=_cmd_spectrum)

    p_v1 = sub.add_parser(
        "verify-thm1",
        help="check E(G union looped copy) = 2 E(G) for the base graph on stdin/file",
    )
    _add_input_argument(p_v1)
    p_v1.set_defaults(run=_cmd_verify, p=1, q=1)

    p_v2 = sub.add_parser(
        "verify-thm2",
        help="check E(p plain + q looped copies) = (p+q) E(G)",
    )
    _add_input_argument(p_v2)
    p_v2.set_defaults(run=_cmd_verify)
    p_v2.add_argument("-p", type=int, required=True, help="plain copies (>= 0)")
    p_v2.add_argument("-q", type=int, required=True, help="fully-looped copies (>= 0)")

    p_search = sub.add_parser("search", help="exhaustive scan over graphs and loop subsets")
    p_search.add_argument("--n-min", type=int, default=1)
    p_search.add_argument("--n-max", type=int, default=search_mod.DEFAULT_MAX_ORDER)
    p_search.add_argument("--sigma", choices=("interior", "all"), default="interior")
    p_search.add_argument("--connected", action="store_true", help="connected graphs only")
    p_search.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p_search.add_argument("--family", choices=("thm1",),
                          help="restrict to unions of G with its fully-looped copy; "
                               "--n-min/--n-max then bound the union's order")
    p_search.add_argument("--force-large", action="store_true",
                          help="acknowledge the runtime of scans beyond n=5")
    p_search.set_defaults(run=_cmd_search)

    p_convert = sub.add_parser(
        "convert", help="convert between graph6+sidecar and adjacency-matrix text"
    )
    _add_input_argument(p_convert)
    p_convert.add_argument("--to", choices=("matrix", "graph6"), required=True)
    p_convert.set_defaults(run=_cmd_convert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        return args.run(args)
    except BrokenPipeError:
        # the reader has all it wants; the interpreter's last flush of the
        # buffered rest goes to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as e:  # includes both graph6 parse errors
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
