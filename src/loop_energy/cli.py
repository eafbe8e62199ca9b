"""Command-line front end.

stdout carries only machine-readable payload; summaries and diagnostics go
to stderr, so the commands compose in pipelines. Numbers are printed with a
'.' decimal separator and a fixed 10 significant digits.

Exit codes: 0 success; 2 parse or usage error. The verify commands add:
1 = condition held but the identity gap exceeded tolerance (a pipeline bug),
3 = condition failed (informational; both energies are still printed).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Iterator, Sequence, TextIO

from . import search as search_mod
from .energy import TheoremVerdict, energy_looped, verify_theorem2
from .graph6 import LoopFileParseError, read_looped_graphs, write_looped_graphs
from .graphs import Graph, LoopedGraph, adjacency_matrix, check_matrix_order, with_loops
from .search import SearchConfig, fmt10, to_jsonl, to_tsv

ENV_THREADS = "LOOP_ENERGY_THREADS"


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _parse_entries(path: str) -> list[LoopedGraph]:
    entries = list(read_looped_graphs(_read_lines(path)))
    for lg in entries:  # refuse an oversized graph before printing anything
        check_matrix_order(lg.n)
    return entries


def _single_simple_graph(path: str) -> Graph:
    entries = _parse_entries(path)
    if len(entries) != 1:
        raise LoopFileParseError(1, f"expected exactly one graph, found {len(entries)}")
    if entries[0].loops:
        raise LoopFileParseError(1, "loop sidecar not allowed here; give the base graph only")
    return entries[0].base


def _print_report(lg: LoopedGraph, out: TextIO) -> None:
    report = energy_looped(lg)
    print(f"n {report.n}", file=out)
    print(f"sigma {report.sigma}", file=out)
    print(f"shift {fmt10(report.shift)}", file=out)
    print(" ".join(["spectrum", *(fmt10(v) for v in report.spectrum)]), file=out)
    print(f"energy {fmt10(report.energy)}", file=out)


def _cmd_energy(args, parser: argparse.ArgumentParser) -> int:
    for k, lg in enumerate(_parse_entries(args.input)):
        if k:
            print()
        _print_report(lg, sys.stdout)
    return 0


def _cmd_spectrum(args, parser: argparse.ArgumentParser) -> int:
    for lg in _parse_entries(args.input):
        spectrum = energy_looped(lg).spectrum
        print(" ".join(fmt10(v) for v in spectrum))
    return 0


def _print_verdict(verdict: TheoremVerdict) -> int:
    print(f"condition {'true' if verdict.condition_holds else 'false'}")
    print(f"lhs {fmt10(verdict.lhs_energy)}")
    print(f"rhs {fmt10(verdict.rhs_energy)}")
    print(f"gap {fmt10(verdict.abs_gap)}")
    if verdict.witness is not None:
        print(f"witness {fmt10(verdict.witness)}")
    if verdict.boundary:
        print("boundary true")
    if not verdict.condition_holds:
        return 3
    return 0 if verdict.gap_within_tolerance() else 1


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.p < 0 or args.q < 0 or args.p + args.q < 1:
        parser.error("need p, q >= 0 and p + q >= 1")
    return _print_verdict(verify_theorem2(_single_simple_graph(args.input), args.p, args.q))


def _workers(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        value = int(raw)
    except ValueError:
        parser.error(f"{ENV_THREADS} must be an integer, got {raw!r}")
    if value < 0:
        parser.error(f"{ENV_THREADS} must be >= 0, got {value}")
    return value if value > 0 else (os.cpu_count() or 1)


def _cmd_search(args, parser: argparse.ArgumentParser) -> int:
    workers = _workers(parser)
    n_min, n_max = args.n_min, args.n_max
    if args.family == "thm1":
        if args.sigma == "all":
            parser.error(
                "--sigma all does not apply to --family thm1: every union "
                "carries loops on exactly n of its 2n vertices"
            )
        if workers > 1:
            parser.error(
                f"{ENV_THREADS}={os.environ[ENV_THREADS]} does not apply to "
                "--family thm1, which runs in one process; unset it or set it to 1"
            )
        # flags give the order of the emitted union; the base graph is half that
        n_min, n_max = (n_min + 1) // 2, n_max // 2
    if n_max > search_mod.DEFAULT_MAX_ORDER and not args.force_large:
        parser.error(
            f"scanning graphs of order {n_max} visits 2^C({n_max},2) graphs "
            f"(2^28 at order 8); pass --force-large to acknowledge the runtime"
        )
    if args.family == "thm1" and n_min > n_max:  # no even union order in range
        records: Iterator[search_mod.SearchRecord] = iter(())
    else:
        try:
            config = SearchConfig(
                n_min=n_min,
                n_max=n_max,
                sigma_policy=args.sigma,
                eq_tol=args.eq_tol,
                connected_only=args.connected,
            )
        except ValueError as e:
            parser.error(str(e))
        if args.family == "thm1":
            records = search_mod.find_theorem_family_instances(config)
        else:
            records = search_mod.scan(config, workers=workers)

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

    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            for line in lines:
                fh.write(line + "\n")
    else:
        for line in lines:
            print(line)
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
        if line.strip():
            block.append(line)
        elif block:
            yield block
            block = []
    if block:
        yield block


def _parse_matrix_block(block: Sequence[str]) -> LoopedGraph:
    rows: list[list[int]] = []
    for i, line in enumerate(block):
        row = []
        for j, token in enumerate(line.split()):
            if token not in ("0", "1"):
                raise ValueError(f"invalid entry {token!r} at ({i},{j})")
            row.append(int(token))
        rows.append(row)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"non-square matrix: row {i} has {len(row)} entries, expected {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"asymmetric at ({i},{j})")
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j])
    loops = frozenset(i for i in range(n) if rows[i][i])
    return with_loops(Graph(n, edges), loops)


def _cmd_convert(args, parser: argparse.ArgumentParser) -> int:
    if args.to == "matrix":
        for k, lg in enumerate(_parse_entries(args.input)):
            if k:
                print()
            a = adjacency_matrix(lg).data
            for row in a:
                print(" ".join(str(int(x)) for x in row))
        return 0
    entries = [_parse_matrix_block(block) for block in _matrix_blocks(_read_lines(args.input))]
    for line in write_looped_graphs(entries):
        print(line)
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
    p_search.add_argument("--eq-tol", type=float, default=search_mod.DEFAULT_EQ_TOL,
                          help="relative equality tolerance factor")
    p_search.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p_search.add_argument("--out", help="write records here instead of stdout")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        return args.run(args, parser)
    except (ValueError, OSError) as e:  # includes both graph6 parse errors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # parser.error inside a command
        return int(e.code or 0)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
