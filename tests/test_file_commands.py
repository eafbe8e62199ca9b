"""`energy`, `spectrum` and `convert --to matrix`: stdout and input errors.

These commands decode their input into adjacency stacks and solve a block of
entries at a time; the object API (read_looped_graphs, energy_looped,
adjacency_matrix) one graph at a time is the reference they must match.
"""

import hashlib
import io
import random

import pytest

from helpers import file_command_stdout
from loop_energy import Graph, cli, to_graph6
from loop_energy.cli import main

COMMANDS = {"energy": ["energy"], "spectrum": ["spectrum"], "matrix": ["convert", "--to", "matrix"]}


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def random_graph6(rng: random.Random, n: int) -> str:
    p = rng.random()
    return to_graph6(Graph(n, frozenset(
        (i, j) for j in range(n) for i in range(j) if rng.random() < p)))


def mixed_input(seed: int) -> str:
    """Orders 0 to 12 in random order and one of order 63 (18-bit length form),
    behind a >>graph6<< header, with blank lines, LF and CRLF line ends and
    random sidecars, some of them empty."""
    rng = random.Random(seed)
    orders = [0, 1, *range(2, 13), *range(2, 13), *range(2, 13), *range(2, 13), 63]
    rng.shuffle(orders)
    lines = []
    for n in orders:
        lines.append(random_graph6(rng, n))
        kind = rng.randrange(4)
        if kind == 1:
            lines.append("L:")
        elif kind >= 2:
            loops = sorted(rng.sample(range(n), rng.randint(0, n)))
            lines.append("L: " + ", ".join(map(str, loops)))
        if rng.random() < 0.2:
            lines.append(" " * rng.randrange(3))
    lines[0] = ">>graph6<<" + lines[0]
    assert any(line.startswith("~") for line in lines)
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def scale_input(lines: int, seed: int) -> str:
    """`lines` graph6+sidecar lines: orders 0 to 24, random densities and loops."""
    rng = random.Random(seed)
    out = []
    while len(out) < lines:
        n = rng.randint(0, 24)
        out.append(random_graph6(rng, n))
        if len(out) < lines and rng.random() < 0.6:
            loops = sorted(rng.sample(range(n), rng.randint(0, n)))
            out.append("L: " + ",".join(map(str, loops)))
    return "".join(line + "\n" for line in out)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_object_path(tmp_path, capsys, command, seed):
    text = mixed_input(seed)
    path = tmp_path / "g"
    path.write_bytes(text.encode("ascii"))
    code, out, err = run([*COMMANDS[command], str(path)], capsys)
    assert (code, err) == (0, "")
    assert out == file_command_stdout(command, text)


@pytest.mark.parametrize("command, digest", [
    ("energy", "46b44087a89e614a"),
    ("spectrum", "c353ac62217f7632"),
    ("matrix", "94e5400d2ea18760"),
])
def test_stdout_at_scale_matches_golden_digest(tmp_path, capsys, command, digest):
    # 1,500 lines, about 940 graphs; recorded when each graph was solved alone
    text = scale_input(1500, 2026)
    assert len(text.splitlines()) == 1500
    path = tmp_path / "g"
    path.write_text(text)
    code, out, _ = run([*COMMANDS[command], str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest().startswith(digest)


@pytest.mark.parametrize("command", COMMANDS)
def test_blocks_bound_the_stacks_in_memory(tmp_path, monkeypatch, capsys, command):
    path = tmp_path / "g"
    path.write_text(mixed_input(3))
    code, expected, _ = run([*COMMANDS[command], str(path)], capsys)
    assert code == 0

    budget = 150  # cells; the order-63 matrix alone has 3,969
    events = []

    def spy(name, fn):
        def wrapper(arg):
            result = fn(arg)
            a = result if name == "stack" else arg
            events.append((name, a.shape[0], a.shape[1]))
            return result
        return wrapper

    class Out(io.StringIO):
        def write(self, s):
            events.append(("write", 0, 0))
            return super().write(s)

    monkeypatch.setattr(cli, "BLOCK_CELLS", budget)
    monkeypatch.setattr(cli, "adjacency_stack", spy("stack", cli.adjacency_stack))
    monkeypatch.setattr(cli, "eigenvalues_stack", spy("solve", cli.eigenvalues_stack))
    out = Out()
    monkeypatch.setattr("sys.stdout", out)
    assert main([*COMMANDS[command], str(path)]) == 0
    assert out.getvalue() == expected

    built = [(k, n) for name, k, n in events if name == "stack"]
    solved = [(k, n) for name, k, n in events if name == "solve"]
    assert solved == ([] if command == "matrix" else built)
    assert all(k * n * n <= budget or k == 1 for k, n in built)
    assert any(k > 1 for k, _ in built)
    # the first block is printed before the last one is built
    first_write = next(i for i, (name, _, _) in enumerate(events) if name == "write")
    assert first_write < max(i for i, (name, _, _) in enumerate(events) if name == "stack")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_bad_byte_is_reported_as_the_byte(tmp_path, monkeypatch, capsys, source):
    # the same bytes give the same error from either source: 'é' in UTF-8 is
    # 0xc3 0xa9, and the first of them is named, with its line
    data = b"Bw\nB\xc3\xa9\n"
    if source == "file":
        path = tmp_path / "g"
        path.write_bytes(data)
        argv = ["energy", str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        argv = ["energy"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 2: parse error at byte 1: byte 195 outside graph6 alphabet\n"
