import io
import json
import shutil
import subprocess
import sys

import pytest

from loop_energy import graphs
from loop_energy.cli import main

TRIANGLE = "Bw"            # K_3
THREE_PATH = "Bg"          # path 0-1-2
EXAMPLE_UNION = "EwCW"     # two disjoint triangles

EXAMPLE_MATRIX = [
    "0 1 1 0 0 0",
    "1 0 1 0 0 0",
    "1 1 0 0 0 0",
    "0 0 0 1 1 1",
    "0 0 0 1 1 1",
    "0 0 0 1 1 1",
]


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
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


@pytest.mark.parametrize("bad", ["~", "~~?????@", "~??Bw"])
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


def test_verify_thm2_rejects_union_above_order_limit(tmp_path, capsys):
    path = write(tmp_path, "g", "@\n")
    code, out, err = run_cli(["verify-thm2", path, "-p", "5000", "-q", "0"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "4096" in err


def test_verify_rejects_sidecar_input(tmp_path, capsys):
    path = write(tmp_path, "g", TRIANGLE + "\nL: 0\n")
    code, _, err = run_cli(["verify-thm1", path], capsys=capsys)
    assert code == 2
    assert "base graph" in err


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
    assert out.strip().splitlines() == ["graph6\tloops\tsigma\tn\te_simple\te_looped\tgap\tclass"]


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


@pytest.mark.parametrize("threads, expected", [("2", 2), ("1", 0)])
def test_search_family_rejects_more_than_one_worker(monkeypatch, capsys, threads, expected):
    monkeypatch.setenv("LOOP_ENERGY_THREADS", threads)
    code, out, err = run_cli(["search", "--family", "thm1", "--n-max", "4"], capsys=capsys)
    assert code == expected
    if expected:
        assert out == ""
        assert "LOOP_ENERGY_THREADS" in err
    else:
        assert out.startswith("graph6\t")


def test_search_jsonl_output(capsys):
    code, out, _ = run_cli(
        ["search", "--n-min", "2", "--n-max", "2", "--format", "jsonl"], capsys=capsys
    )
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert obj["n"] == 2 and obj["class"] in ("EQUAL", "LOOPED_GREATER", "SIMPLE_GREATER")


def test_search_out_file(tmp_path, capsys):
    out_path = tmp_path / "records.tsv"
    code, out, err = run_cli(
        ["search", "--n-max", "2", "--sigma", "all", "--out", str(out_path)], capsys=capsys
    )
    assert code == 0
    assert out == ""
    assert "records=" in err
    assert out_path.read_text().startswith("graph6\t")


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


def test_convert_rejects_asymmetric_matrix(tmp_path, capsys):
    path = write(tmp_path, "m", "0 1\n0 0\n")
    code, _, err = run_cli(["convert", "--to", "graph6", path], capsys=capsys)
    assert code == 2
    assert "asymmetric at (0,1)" in err


def test_convert_names_first_asymmetric_cell(tmp_path, capsys):
    path = write(tmp_path, "m", "0 1 1\n1 0 1\n1 0 0\n")
    code, _, err = run_cli(["convert", "--to", "graph6", path], capsys=capsys)
    assert code == 2
    assert "asymmetric at (1,2)" in err


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
