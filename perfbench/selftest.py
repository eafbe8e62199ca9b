"""Self-test of the benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A smoke-size run of every workload, untraced and traced, prints every
   metric BENCHMARK.json names, with `correct` true and no failed item.
2. One corrupted energy line in real `energy` output counts as a failed item.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def smoke_runs_emit_every_metric() -> None:
    for w in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = bench(run.ROOT, w["name"], trace)
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, out.stdout
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print(f"ok  smoke {w['name']} trace={trace}")


def corrupted_energy_line_fails() -> None:
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        work = Path(tmp)
        wl = run.Workload("energy-file", 7, True, work)
        good = wl.run(work)
        lines = good.stdout.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("energy "))
        value = float(lines[k].split()[1])
        lines[k] = f"energy {value * (1 + 1e-6):#.10g}"
        bad = dataclasses.replace(good, stdout="\n".join(lines) + "\n")
        tally = run.Tally(wl, None)
        tally.add(good)
        assert tally.failed == 0, tally.notes
        tally.add(bad)
        assert tally.failed == 1 and tally.attempted == 2 * wl.check(good.stdout).items, tally.notes
    print(f"ok  corrupted energy line: fail ratio {tally.failed / tally.attempted:.3f}")


def bare_directory_exits_nonzero() -> None:
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        out = bench(bare, SPEC["workloads"][0]["name"], 0)
        assert out.returncode != 0 and not out.stdout.strip(), out.stdout
    print("ok  bare directory exits", out.returncode)


if __name__ == "__main__":
    (run.BENCH / ".work").mkdir(exist_ok=True)
    smoke_runs_emit_every_metric()
    corrupted_energy_line_fails()
    bare_directory_exits_nonzero()
