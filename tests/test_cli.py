import hashlib
import io
import json
import multiprocessing
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from loop_energy import (
    Graph,
    LoopedGraph,
    enumerate_graphs,
    graphs,
    search,
    spectra,
    to_graph6,
    with_loops,
    write_looped_graphs,
)
from loop_energy.cli import main

TRIANGLE = "Bw"            # K_3
THREE_PATH = "Bg"          # path 0-1-2
EXAMPLE_UNION = "EwCW"     # two disjoint triangles
TSV_HEADER = "graph6\tloops\tsigma\tn\te_simple\te_looped\tgap\tclass"

EXAMPLE_MATRIX = [
    "0 1 1 0 0 0",
    "1 0 1 0 0 0",
    "1 1 0 0 0 0",
    "0 0 0 1 1 1",
    "0 0 0 1 1 1",
    "0 0 0 1 1 1",
]


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    # stdin is read as bytes, so it is given as a byte stream under a text layer
    if stdin_text is not None:
        data = stdin_text if isinstance(stdin_text, bytes) else stdin_text.encode("ascii")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_energy_triangle(tmp_path, capsys):
    code, out, _ = run_cli(["energy", write(tmp_path, "g", TRIANGLE + "\n")], capsys=capsys)
    assert code == 0
    assert "energy 4.000000000" in out
    assert "sigma 0" in out
    assert "spectrum 2.000000000 -1.000000000 -1.000000000" in out


def test_energy_example_union_with_sidecar(tmp_path, capsys):
    path = write(tmp_path, "g", EXAMPLE_UNION + "\nL: 3,4,5\n")
    code, out, _ = run_cli(["energy", path], capsys=capsys)
    assert code == 0
    assert "energy 8.000000000" in out
    assert "sigma 3" in out
    assert "shift 0.5000000000" in out


def test_energy_multiple_entries_blank_separated(tmp_path, capsys):
    path = write(tmp_path, "g", f"{TRIANGLE}\n{TRIANGLE}\n")
    code, out, _ = run_cli(["energy", path], capsys=capsys)
    assert code == 0
    assert out.count("energy 4.000000000") == 2
    assert "\n\n" in out


def test_energy_reads_stdin(monkeypatch, capsys):
    code, out, _ = run_cli(["energy"], stdin_text=TRIANGLE + "\n",
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "energy 4.000000000" in out


def test_energy_malformed_input(tmp_path, capsys):
    code, _, err = run_cli(["energy", write(tmp_path, "g", "~\n")], capsys=capsys)
    assert code == 2
    assert "parse error at byte" in err


@pytest.mark.parametrize("bad", ["~", "~~?????@", "~??Bw", "Bx", "L: 1,1,0"])
@pytest.mark.parametrize(
    "argv", [["energy"], ["spectrum"], ["verify-thm1"], ["convert", "--to", "matrix"]]
)
def test_malformed_line_rejects_the_whole_input(tmp_path, capsys, argv, bad):
    # input is parsed in full before anything is printed: all or nothing
    path = write(tmp_path, "g", f"{TRIANGLE}\n{bad}\n")
    code, out, err = run_cli([*argv, path], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv", [["energy"], ["spectrum"], ["convert", "--to", "matrix"]]
)
def test_oversized_graph_rejects_the_whole_input(tmp_path, capsys, monkeypatch, argv):
    # a 4-vertex graph stands in for one above 4096, whose graph6 line is 1.4 MB
    monkeypatch.setattr(graphs, "MAX_MATRIX_ORDER", 3)
    path = write(tmp_path, "g", f"{TRIANGLE}\nC~\n")
    code, out, err = run_cli([*argv, path], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "order 4 exceeds the limit of 3" in err


def test_oversized_matrix_rejects_the_whole_input(tmp_path, capsys, monkeypatch):
    # a 4x4 block stands in for one above 4096; no row of it is parsed
    monkeypatch.setattr(graphs, "MAX_MATRIX_ORDER", 3)
    text = "0 1 1\n1 0 1\n1 1 0\n\n" + "0 0 0 0\n" * 4
    code, out, err = run_cli(["convert", "--to", "graph6", write(tmp_path, "m", text)],
                             capsys=capsys)
    assert code == 2
    assert out == ""
    assert "order 4 exceeds the limit of 3" in err


def test_order_above_limit_is_rejected_at_its_length_bytes(tmp_path, capsys):
    # "~@MG" spells order 5000 and carries no edge data at all
    path = write(tmp_path, "g", f"{TRIANGLE}\n~@MG\n")
    code, out, err = run_cli(["energy", path], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "line 2" in err and "4096" in err


@pytest.mark.parametrize(
    "threads, argv",
    [
        (None, ["search", "--n-max", "6"]),
        (None, ["search", "--family", "thm1", "--sigma", "all"]),
        (None, ["search", "--family", "thm1", "--n-min", "3", "--n-max", "3", "--sigma", "all"]),
        (None, ["search", "--n-min", "0"]),
        ("lots", ["search", "--n-max", "2"]),
        (None, ["verify-thm2", "-p", "0", "-q", "0", "TRIANGLE_FILE"]),
    ],
    ids=["large-scan", "family-sigma-all", "empty-family-sigma-all", "n-min-0", "threads-lots",
         "verify-no-copies"],
)
def test_errors_inside_a_command_print_one_line(tmp_path, capsys, monkeypatch, threads, argv):
    # argparse reports malformed command lines; anything after parsing is a
    # single "error: ..." line and exit 2, with no usage text
    if threads is None:
        monkeypatch.delenv("LOOP_ENERGY_THREADS", raising=False)
    else:
        monkeypatch.setenv("LOOP_ENERGY_THREADS", threads)
    triangle = write(tmp_path, "g", TRIANGLE + "\n")
    argv = [triangle if a == "TRIANGLE_FILE" else a for a in argv]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_search_has_no_tolerance_flag(capsys):
    # the EQUAL rule is fixed, so no run can print a class another run would not
    code, out, err = run_cli(["search", "--eq-tol", "1e-9", "--n-max", "2"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --eq-tol" in err


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["energy"], b"B\x85w\n", "line 1: parse error at byte 1: byte 133 outside graph6 alphabet"),
        (["energy"], b"Bw\xa0\n", "line 1: parse error at byte 2: byte 160 outside graph6 alphabet"),
        (["energy"], b"Bw\x1cBw\n", "line 1: parse error at byte 2: byte 28 outside graph6 alphabet"),
        (["convert", "--to", "graph6"], b"0 1\n1\xa00\n", r"invalid entry '1\xa00' at (1,0)"),
    ],
    ids=["nel-is-no-line-end", "nbsp-is-no-blank", "fs-is-no-line-end", "nbsp-is-no-separator"],
)
def test_only_ascii_ends_lines_and_separates_tokens(monkeypatch, capsys, argv, data, message):
    # lines end at LF, CR or CRLF and blanks are ASCII whitespace; any other
    # byte is named by either reader, not taken as a line end or a blank
    code, out, err = run_cli(argv, data, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify-thm1", "verify-thm2"])
@pytest.mark.parametrize("text, found", [("", 0), (f"{TRIANGLE}\n{THREE_PATH}\n", 2)],
                         ids=["empty", "two-graphs"])
def test_verify_needs_exactly_one_graph(monkeypatch, capsys, command, text, found):
    argv = [command] + (["-p", "2", "-q", "1"] if command == "verify-thm2" else [])
    code, out, err = run_cli(argv, text, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: line 1: expected exactly one graph, found {found}\n"


def test_spectrum_command(tmp_path, capsys):
    code, out, _ = run_cli(["spectrum", write(tmp_path, "g", TRIANGLE + "\n")], capsys=capsys)
    assert code == 0
    assert out.strip() == "2.000000000 -1.000000000 -1.000000000"


def test_verify_thm1_triangle(tmp_path, capsys):
    code, out, _ = run_cli(["verify-thm1", write(tmp_path, "g", TRIANGLE + "\n")], capsys=capsys)
    assert code == 0
    assert "condition true" in out
    assert "lhs 8.000000000" in out
    assert "rhs 8.000000000" in out


def test_verify_thm1_three_path_informational_exit(tmp_path, capsys):
    code, out, _ = run_cli(["verify-thm1", write(tmp_path, "g", THREE_PATH + "\n")], capsys=capsys)
    assert code == 3
    assert "condition false" in out
    assert "witness" in out
    assert "gap 1.000000000" in out


def test_verify_thm2_specializes_to_thm1(tmp_path, capsys):
    path = write(tmp_path, "g", TRIANGLE + "\n")
    _, out1, _ = run_cli(["verify-thm1", path], capsys=capsys)
    code, out2, _ = run_cli(["verify-thm2", path, "-p", "1", "-q", "1"], capsys=capsys)
    assert code == 0
    assert out1 == out2


def test_verify_thm2_rejects_zero_copies(tmp_path, capsys):
    path = write(tmp_path, "g", TRIANGLE + "\n")
    code, _, err = run_cli(["verify-thm2", path, "-p", "0", "-q", "0"], capsys=capsys)
    assert code == 2
    assert "p + q >= 1" in err


def test_verify_thm2_checks_copy_counts_before_reading_input(tmp_path, capsys):
    path = write(tmp_path, "empty", "")
    code, out, err = run_cli(["verify-thm2", path, "-p", "-1", "-q", "2"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "copy counts must be nonnegative" in err


def test_verify_thm2_rejects_union_above_order_limit(tmp_path, capsys):
    path = write(tmp_path, "g", "@\n")
    code, out, err = run_cli(["verify-thm2", path, "-p", "5000", "-q", "0"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "4096" in err


def test_verify_rejects_sidecar_input(tmp_path, capsys):
    path = write(tmp_path, "g", TRIANGLE + "\nL: 0\n")
    for argv in (["verify-thm1"], ["verify-thm2", "-p", "2", "-q", "1"]):
        code, out, err = run_cli([*argv, path], capsys=capsys)
        assert (code, out) == (2, "")
        assert err == ("error: line 1: loop sidecar not allowed here; "
                       "give the base graph only\n")


def test_order_zero_union_is_built_at_once():
    # no step per copy: 10^12 + 1 copies of the order-0 graph print what one pair does
    argv = [sys.executable, "-m", "loop_energy", "verify-thm2", "-q", "1", "-p"]
    big, one = (subprocess.run([*argv, p], input="?\n", capture_output=True, text=True,
                               timeout=30) for p in (str(10**12), "1"))
    assert (big.returncode, big.stdout, big.stderr) == (0, one.stdout, "")
    assert one.stdout.startswith("condition true\n")


@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["energy"], f"{TRIANGLE}\nL: 0,2\n?\n{EXAMPLE_UNION}\nL: 3,4,5\n"),
        (["spectrum"], f"{TRIANGLE}\nL: 0,2\n?\n{EXAMPLE_UNION}\nL: 3,4,5\n"),
        (["verify-thm1"], TRIANGLE + "\n"),
        (["verify-thm2", "-p", "2", "-q", "1"], "Ck\n"),
        (["convert", "--to", "matrix"], f"{EXAMPLE_UNION}\nL: 3,4,5\n{THREE_PATH}\n"),
        (["convert", "--to", "graph6"], "\n".join(EXAMPLE_MATRIX) + "\n\n0 1\n1 1\n"),
        (["search", "--n-max", "3"], None),
        (["search", "--family", "thm1", "--n-max", "6"], None),
    ],
    ids=["energy", "spectrum", "verify-thm1", "verify-thm2", "to-matrix", "to-graph6",
         "search", "family"],
)
def test_no_command_builds_the_object_layer(monkeypatch, capsys, argv, stdin_text):
    # every command runs on adjacency stacks: with Graph, LoopedGraph and
    # SymmetricMatrix refusing to be built, each prints what it prints unpatched
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "1")
    expected = run_cli(argv, stdin_text, monkeypatch, capsys)
    assert expected[0] in (0, 3) and expected[1]

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in (Graph, LoopedGraph, spectra.SymmetricMatrix):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert run_cli(argv, stdin_text, monkeypatch, capsys) == expected


def test_search_record_count_and_summary(tmp_path, capsys):
    code, out, err = run_cli(
        ["search", "--n-min", "2", "--n-max", "3", "--sigma", "all"], capsys=capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 72  # header + records
    assert "records=72" in err


def test_search_interior_at_order_one_is_empty(tmp_path, capsys):
    code, out, _ = run_cli(["search", "--n-max", "1", "--sigma", "interior"], capsys=capsys)
    assert code == 0
    assert out.strip().splitlines() == [TSV_HEADER]


def test_search_large_scan_needs_acknowledgement(capsys):
    code, _, err = run_cli(["search", "--n-max", "6"], capsys=capsys)
    assert code == 2
    assert "--force-large" in err


def test_search_family_finds_example_record(capsys):
    code, out, _ = run_cli(
        ["search", "--family", "thm1", "--n-min", "6", "--n-max", "6"], capsys=capsys
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith(EXAMPLE_UNION)]
    assert len(rows) == 1
    fields = rows[0].split("\t")
    assert fields[1] == "3,4,5"
    assert fields[5] == "8.000000000"
    assert fields[7] == "EQUAL"
    assert fields[8] == "true"


def test_search_family_rejects_sigma_all(capsys):
    code, out, err = run_cli(
        ["search", "--family", "thm1", "--n-max", "4", "--sigma", "all"], capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert "--sigma all does not apply to --family thm1" in err


@pytest.mark.parametrize(
    "flags, out_expected",
    [
        (["--n-min", "3", "--n-max", "3"], TSV_HEADER + "\tcondition_met\n"),
        (["--n-min", "17", "--n-max", "17", "--force-large"], TSV_HEADER + "\tcondition_met\n"),
        (["--n-min", "2", "--n-max", "1", "--format", "jsonl"], ""),
    ],
    ids=["odd-order", "odd-order-above-cap", "reversed"],
)
def test_search_family_range_without_even_order_is_empty(capsys, flags, out_expected):
    code, out, err = run_cli(["search", "--family", "thm1", *flags], capsys=capsys)
    assert code == 0
    assert out == out_expected
    assert err.startswith("records=0 ")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_family_stdout_matches_golden_digest(monkeypatch, capsys, threads):
    # every worker count must print the same bytes: the golden TSV digest of
    # tests/test_search.py::test_family_to_union_order_eight_matches_golden_digest
    monkeypatch.setenv("LOOP_ENERGY_THREADS", threads)
    code, out, err = run_cli(
        ["search", "--family", "thm1", "--n-min", "2", "--n-max", "8"], capsys=capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith("98457e81f84d6d78")
    assert err.startswith("records=75 EQUAL=18 ")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_family_to_union_order_ten_matches_golden_digest(monkeypatch, capsys, threads):
    # the order-10 unions go to LAPACK, so this pins the bytes of the numpy build in use
    monkeypatch.setenv("LOOP_ENERGY_THREADS", threads)
    code, out, err = run_cli(
        ["search", "--family", "thm1", "--n-min", "2", "--n-max", "10", "--format", "jsonl"],
        capsys=capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith("7bc387fc90e03678")
    assert err.startswith("records=1099 EQUAL=176 ")


def test_search_family_cap_names_union_orders(capsys):
    code, out, err = run_cli(
        ["search", "--family", "thm1", "--n-max", "18", "--force-large"], capsys=capsys
    )
    assert (code, out, err) == (2, "", "error: union order 18 exceeds the cap of 16\n")


def test_search_connected_all_sigma_matches_golden_digest(monkeypatch, capsys):
    # sha256 of `search --sigma all --connected --format jsonl`, recorded while
    # connectivity was still tested one Graph at a time
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "2")
    code, out, err = run_cli(
        ["search", "--sigma", "all", "--connected", "--format", "jsonl"], capsys=capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith("bb2b8a8468acf902")
    assert err.startswith("records=23942 EQUAL=1544 ")


def test_search_starts_one_pool_per_scan(monkeypatch, capsys):
    # orders 3, 4 and 5 all go through the pool at 2 workers; it is started once
    started = []
    start = multiprocessing.Process.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "2")
    code, out, err = run_cli(["search", "--n-max", "5"], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith("f55f583cb87ff0d0")
    assert err.startswith("records=31668 ")
    assert len(started) == 2


def _seeded_looped_graphs(tmp_path):
    # orders 1-16 at five densities, half the vertices looped: many spectra
    # hold a zero eigenvalue, which each backend computes as different noise
    rng = np.random.default_rng(7)
    entries = []
    for k in range(240):
        n = 1 + k % 16
        upper = np.triu(rng.random((n, n)) < 0.15 + 0.175 * (k % 5), 1)
        g = Graph(n, frozenset(zip(*(ix.tolist() for ix in np.nonzero(upper)))))
        entries.append(with_loops(g, np.flatnonzero(rng.random(n) < 0.5).tolist()))
    return write(tmp_path, "g", "".join(line + "\n" for line in write_looped_graphs(entries)))


FAMILY = ["search", "--family", "thm1", "--n-min", "2"]
LAPACK = spectra._eigvalsh


def _solve_with_jacobi_to(monkeypatch, order):
    # every eigensolve, in the labeled scan and out of it, runs Jacobi up to
    # this order and LAPACK above it
    monkeypatch.setattr(spectra, "JACOBI_MAX_ORDER", order)
    monkeypatch.setattr(spectra, "_eigvalsh", lambda a: (
        spectra._jacobi_eigvalsh(a) if a.shape[1] <= order else LAPACK(a)))


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n-max", "4"],
        ["search", "--n-max", "5"],
        ["search", "--n-max", "4", "--sigma", "all", "--connected", "--format", "jsonl"],
        [*FAMILY, "--n-max", "8"],
        [*FAMILY, "--n-max", "8", "--format", "jsonl"],
        [*FAMILY, "--n-max", "10", "--format", "jsonl"],
        ["energy", None],
        ["spectrum", None],
    ],
    ids=["scan-4", "scan-5", "scan-4-all-connected", "family-8-tsv", "family-8-jsonl",
         "family-10-jsonl", "energy", "spectrum"],
)
def test_stdout_is_the_same_on_either_backend(monkeypatch, capsys, tmp_path, argv):
    # Jacobi solves every order up to 8, then LAPACK solves them all.
    # Rounding noise prints as 0, so both print the same bytes
    if argv[-1] is None:
        argv = [argv[0], _seeded_looped_graphs(tmp_path)]
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "1")
    outputs = []
    for order in (8, 0):
        _solve_with_jacobi_to(monkeypatch, order)
        code, out, _ = run_cli(argv, capsys=capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_prints_the_same_bytes_on_either_backend(monkeypatch, capsys):
    cases = [(to_graph6(g), p, q) for n in range(1, 5) for g in enumerate_graphs(n)
             for p, q in [(1, 1), (2, 1), (1, 3), (3, 1), (2, 2), (0, 1)]]
    outputs = []
    for order in (8, 0):
        _solve_with_jacobi_to(monkeypatch, order)
        outputs.append([
            run_cli(["verify-thm2", "-p", str(p), "-q", str(q)], g6 + "\n", monkeypatch, capsys)
            for g6, p, q in cases
        ])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("order", [8, 0], ids=["jacobi", "lapack"])
@pytest.mark.parametrize("p, q", [(2, 1), (1, 3)])
def test_condition_witness_is_the_same_on_either_backend(monkeypatch, capsys, order, p, q):
    # the path P4 has eigenvalues +-0.618 below max(p, q)/(p + q); the first in
    # descending order is the witness, whatever last bits the backend gives -0.618
    _solve_with_jacobi_to(monkeypatch, order)
    code, out, _ = run_cli(["verify-thm2", "-p", str(p), "-q", str(q)], "Ck\n",
                           monkeypatch, capsys)
    assert code == 3
    assert "witness 0.6180339887\n" in out


def test_only_the_labeled_scan_enters_jacobi(monkeypatch, capsys, tmp_path):
    # sha256 prefixes of stdout recorded while Jacobi still solved orders up to 5
    # everywhere; with Jacobi refused, LAPACK prints the same bytes
    def refuse(a):
        raise AssertionError("Jacobi entered outside the labeled scan")

    monkeypatch.setattr(spectra, "_jacobi_eigvalsh", refuse)
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "1")
    graphs_file = _seeded_looped_graphs(tmp_path)
    triangle = write(tmp_path, "t", TRIANGLE + "\n")
    for argv, digest in [
        (["energy", graphs_file], "f67327babba058f8"),
        (["spectrum", graphs_file], "af185e326839450a"),
        (["convert", "--to", "matrix", graphs_file], "3ec8b6f6f73ff5a0"),
        (["verify-thm1", triangle], "80a5dd0874f1b770"),
        (["verify-thm2", "-p", "2", "-q", "1", triangle], "17aa50fe1cc2ab28"),
        (["search", "--family", "thm1", "--n-max", "10"], "4d3011c92306a5a1"),
    ]:
        code, out, _ = run_cli(argv, capsys=capsys)
        assert code == 0, argv
        assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith(digest), argv


def test_labeled_scan_sends_every_order_up_to_five_to_jacobi(monkeypatch, capsys):
    # LAPACK is refused; the Jacobi entry records each matrix's order and hands
    # the stack to LAPACK, so that this checks the route in a second, not the
    # sweeps, which test_stdout_is_the_same_on_either_backend runs on this scan
    orders = []

    def refuse(a):
        raise AssertionError("the labeled scan called LAPACK at order <= 5")

    def record(a):
        orders.extend([a.shape[1]] * len(a))
        return LAPACK(a)

    monkeypatch.setattr(spectra, "_eigvalsh", refuse)
    monkeypatch.setattr(spectra, "_jacobi_eigvalsh", record)
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "1")
    code, out, err = run_cli(["search", "--n-max", "5"], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith("f55f583cb87ff0d0")
    assert err.startswith("records=31668 ")
    # each graph once without loops and once per interior loop set; order 1 has none
    assert Counter(orders) == {n: 2 ** (n * (n - 1) // 2) * (2 ** n - 1) for n in range(2, 6)}


def test_search_jsonl_output(capsys):
    code, out, _ = run_cli(
        ["search", "--n-min", "2", "--n-max", "2", "--format", "jsonl"], capsys=capsys
    )
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert obj["n"] == 2 and obj["class"] in ("EQUAL", "LOOPED_GREATER", "SIMPLE_GREATER")


def test_search_worker_count_is_invisible_in_output(monkeypatch, capsys):
    argv = ["search", "--n-min", "1", "--n-max", "4", "--sigma", "interior"]
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "1")
    code1, out1, _ = run_cli(argv, capsys=capsys)
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "2")
    code2, out2, _ = run_cli(argv, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_bad_thread_env(monkeypatch, capsys):
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "lots")
    code, _, err = run_cli(["search", "--n-max", "2"], capsys=capsys)
    assert code == 2
    assert "LOOP_ENERGY_THREADS" in err


def test_convert_to_matrix_matches_example_block(tmp_path, capsys):
    path = write(tmp_path, "g", EXAMPLE_UNION + "\nL: 3,4,5\n")
    code, out, _ = run_cli(["convert", "--to", "matrix", path], capsys=capsys)
    assert code == 0
    assert out.strip().splitlines() == EXAMPLE_MATRIX


def test_convert_matrix_to_graph6_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "m", "\n".join(EXAMPLE_MATRIX) + "\n")
    code, out, _ = run_cli(["convert", "--to", "graph6", path], capsys=capsys)
    assert code == 0
    assert out.strip().splitlines() == [EXAMPLE_UNION, "L: 3,4,5"]


def test_convert_roundtrips_both_ways(tmp_path, capsys):
    g6_text = f"{TRIANGLE}\nL: 0,2\n\n{THREE_PATH}\n"
    path = write(tmp_path, "g", g6_text)
    _, matrix_text, _ = run_cli(["convert", "--to", "matrix", path], capsys=capsys)
    back_path = write(tmp_path, "m", matrix_text)
    code, out, _ = run_cli(["convert", "--to", "graph6", back_path], capsys=capsys)
    assert code == 0
    assert out.strip().splitlines() == [TRIANGLE, "L: 0,2", THREE_PATH]


def test_convert_roundtrips_the_long_length_form(tmp_path, capsys):
    # orders 63-70 take the 18-bit length form; loops on about half the vertices
    rng = np.random.default_rng(11)
    entries = []
    for n in [*range(1, 8), *range(60, 71)]:
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        g = Graph(n, frozenset(zip(*(ix.tolist() for ix in np.nonzero(upper)))))
        entries.append(with_loops(g, np.flatnonzero(rng.random(n) < 0.5).tolist()))
    g6_text = "".join(line + "\n" for line in write_looped_graphs(entries))
    assert sum(line.startswith("~") for line in g6_text.splitlines()) == 8
    _, matrix_text, _ = run_cli(["convert", "--to", "matrix", write(tmp_path, "g", g6_text)],
                                capsys=capsys)
    code, out, _ = run_cli(["convert", "--to", "graph6", write(tmp_path, "m", matrix_text)],
                           capsys=capsys)
    assert code == 0
    assert out == g6_text


def test_convert_rejects_asymmetric_matrix(tmp_path, capsys):
    path = write(tmp_path, "m", "0 1\n0 0\n")
    code, _, err = run_cli(["convert", "--to", "graph6", path], capsys=capsys)
    assert code == 2
    assert "asymmetric at (0,1)" in err


def test_convert_names_first_asymmetric_cell(tmp_path, capsys):
    # the first (i, j) with i < j in row order, whichever side holds the 1
    for text, cell in [("0 1 1\n1 0 1\n1 0 0\n", "(1,2)"),
                       ("0 0 0 0\n0 0 0 0\n0 1 0 0\n1 0 0 0\n", "(0,3)")]:
        code, _, err = run_cli(["convert", "--to", "graph6", write(tmp_path, "m", text)],
                               capsys=capsys)
        assert code == 2
        assert f"asymmetric at {cell}" in err


def test_convert_rejects_non_square(tmp_path, capsys):
    path = write(tmp_path, "m", "0 1 0\n1 0 0\n")
    code, _, err = run_cli(["convert", "--to", "graph6", path], capsys=capsys)
    assert code == 2
    assert "row" in err


def test_convert_rejects_non_binary_entry(tmp_path, capsys):
    path = write(tmp_path, "m", "0 2\n2 0\n")
    code, _, err = run_cli(["convert", "--to", "graph6", path], capsys=capsys)
    assert code == 2
    assert "(0,1)" in err


def test_convert_empty_input(tmp_path, capsys):
    path = write(tmp_path, "e", "")
    for direction in ("matrix", "graph6"):
        code, out, _ = run_cli(["convert", "--to", direction, path], capsys=capsys)
        assert code == 0 and out == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "loop_energy", "energy"],
        input=TRIANGLE + "\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "energy 4.000000000" in proc.stdout


@pytest.mark.parametrize(
    "argv, threads",
    [(["search"], "1"), (["search"], "2"), (["energy", None], "1")],
    ids=["search-w1", "search-w2", "energy"],
)
def test_closed_stdout_ends_the_output_quietly(monkeypatch, tmp_path, argv, threads):
    # as `loop-energy search | head -1`: the reader leaves after one line, and
    # every later write meets a closed pipe. Each output is far above a pipe's
    # buffer, so the writes do meet it
    if argv[-1] is None:
        argv = [argv[0], write(tmp_path, "g", (TRIANGLE + "\n") * 20_000)]
    monkeypatch.setenv("LOOP_ENERGY_THREADS", threads)
    proc = subprocess.Popen([sys.executable, "-m", "loop_energy", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == ""
    proc.stderr.close()


@pytest.mark.skipif(shutil.which("loop-energy") is None, reason="script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["loop-energy", "spectrum"], input=TRIANGLE + "\n", capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.000000000 -1.000000000 -1.000000000"


def test_auto_worker_count(monkeypatch, capsys):
    monkeypatch.setenv("LOOP_ENERGY_THREADS", "0")
    code, out, _ = run_cli(
        ["search", "--n-min", "3", "--n-max", "3", "--sigma", "all"], capsys=capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 64


def test_verify_exit_one_signals_identity_violation(capsys):
    # a condition-true verdict whose gap exceeds tolerance marks a pipeline
    # bug; fabricate one to pin the exit-code contract
    from loop_energy.cli import _print_verdict
    from loop_energy.energy import TheoremVerdict

    verdict = TheoremVerdict(
        condition_holds=True, lhs_energy=8.1, rhs_energy=8.0, abs_gap=0.1, witness=None
    )
    assert _print_verdict(verdict) == 1
    out, _ = capsys.readouterr()
    assert "gap 0.1000000000" in out
    # the rule is the scan's EQUAL test: a gap of 5e-9 * (1 + rhs) fails both
    gap = 5e-9 * (1 + 8.0)
    verdict = TheoremVerdict(
        condition_holds=True, lhs_energy=8.0 + gap, rhs_energy=8.0, abs_gap=gap, witness=None
    )
    assert _print_verdict(verdict) == 1
    record = search._record("EwCW", (3, 4, 5), 6, 8.0, 8.0 + gap)
    assert record.classification != search.EQUAL
