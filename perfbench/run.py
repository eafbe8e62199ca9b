"""End-to-end and per-layer benchmark of the loop-energy CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every timed step is a cold
`python -m loop_energy` process with the checkout's `src` on PYTHONPATH, so
start-up, parsing, solving and printing are all paid as a user pays them.
The seed only feeds the input generator; the search workloads take no input
and are the same for every seed.

--trace 0 repeats the workload while another repetition fits in S seconds
(at least twice), with a set-up run and a first-record probe before each,
and reports the end-to-end metrics as medians. --trace 1 runs the
workload once untraced and then under perfbench/traced.py, which wraps the
package's public functions from outside and reports each layer's calls and
self time. Every output is checked against perfbench/reference.py, which
shares no code with the package. The last stdout line is the result object;
the line before it holds the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata, util
from pathlib import Path

import numpy as np

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SCAN = ["search", "--n-min", "1", "--n-max", "{n_max}"]
FAMILY = ["search", "--family", "thm1", "--n-min", "2", "--n-max", "{n_max}", "--format", "jsonl"]
# No 1-worker n=5 scan: on a shared 2-vCPU host run times drift with host
# speed over minutes, so each workload needs long runs, and a fourth would not
# fit the time budget. scan-n5-w2 runs the same scan (its stdout must equal
# the 1-worker stdout) and family-thm1 times the scan's layers in-process.
WORKLOADS = {
    # kind, worker count (LOOP_ENERGY_THREADS)
    "energy-file": ("energy", 1),
    "family-thm1": ("family", 1),
    "scan-n5-w2": ("scan", 2),
}
# full and --smoke sizes: scan order, family union order, energy-file shape
SIZES = {
    False: {"scan": 5, "family": 10, "energy": (1500, 1)},
    True: {"scan": 3, "family": 6, "energy": (20, 0)},
}
MIN_REPS = 2
SETUP_REPS = 6
PR_SET_CHILD_SUBREAPER = 36

# span layers reported as <layer>.calls and/or <layer>.self_s
LAYERS = {
    "graph6.decode": ("calls", "self_s"),
    "graph6.encode": ("calls", "self_s"),
    "graphs.build": ("calls", "self_s"),
    "graphs.adjacency": ("calls", "self_s"),
    "spectra.eigen": ("calls", "self_s"),
    "spectra.char_poly": ("calls", "self_s"),
    "energy.report": ("calls", "self_s"),
    "energy.condition": ("calls", "self_s"),
    "search.scan": ("self_s",),
    "search.render": ("self_s",),
    "cli": ("self_s",),
}


@dataclass(frozen=True)
class Run:
    """One finished CLI process: timings, resource use and its output."""

    wall: float
    first: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the process and its pool workers, and reap them all.

    The CLI runs in a process group of its own. Its workers are reparented
    to this process, a child subreaper, so waiting for every child returns
    once the whole tree has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_cli(argv, workers: int, work: Path, skip_lines: int = 0, prefix=None,
            probe: bool = False) -> Run:
    """Start one process, stream its stdout, and time the first record.

    `skip_lines` leading lines (the TSV header) are not records. A probe
    kills the process tree once the first record arrives, and only its
    `first` is meaningful. Otherwise the process is reaped with wait4, whose
    usage covers the pool workers it reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), LOOP_ENERGY_THREADS=str(workers))
    cmd = [sys.executable, *(prefix or ["-m", "loop_energy"]), *argv]
    err_path = work / "stderr.txt"
    chunks = []
    newlines = 0
    first = None
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    newlines += chunk.count(b"\n")
                    if newlines > skip_lines:
                        first = time.perf_counter() - t0
                        if probe:
                            break
                chunks.append(chunk)
            if probe and first is not None:
                _kill_group(proc)
                proc.returncode = -signal.SIGKILL
                return Run(first, first, 0.0, 0.0, proc.returncode, "", "")
        except BaseException:
            _kill_group(proc)
            raise
        finally:
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        wall=wall,
        first=first if first is not None else wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=b"".join(chunks).decode("ascii", "replace"),
        stderr=err_path.read_text("ascii", "replace"),
    )


class Workload:
    """Commands, inputs and the reference check for one named workload."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        self.name = name
        self.kind, self.workers = WORKLOADS[name]
        size = SIZES[smoke][self.kind]
        self.skip_lines = 1 if self.kind == "scan" else 0
        self.input_text = ""
        self.input_bytes = 0
        if self.kind == "energy":
            self.input_text = reference.energy_input(seed, *size)
            path = work / "input.g6"
            path.write_text(self.input_text, "ascii")
            self.input_bytes = path.stat().st_size
            (work / "empty.g6").write_text("")
            self.argv = ["energy", str(path)]
            self.setup_argv = ["energy", str(work / "empty.g6")]
        else:
            template = SCAN if self.kind == "scan" else FAMILY
            self.argv = [a.format(n_max=size) for a in template]
            # --n-max 1 leaves an empty scan: start-up and argument handling only
            self.setup_argv = [a.format(n_max=1) for a in template]
            self.size = size

    def check(self, stdout: str) -> reference.Check:
        if self.kind == "scan":
            return reference.check_scan(stdout, self.size)
        if self.kind == "family":
            return reference.check_family(stdout, self.size // 2)
        return reference.check_energy(self.input_text, stdout)

    def run(self, work: Path, setup: bool = False, workers: int | None = None, prefix=None,
            probe: bool = False) -> Run:
        return run_cli(
            self.setup_argv if setup else self.argv,
            self.workers if workers is None else workers,
            work,
            self.skip_lines,
            prefix,
            probe,
        )

    def _one_worker_path(self) -> Path:
        key = hashlib.sha256(" ".join(self.argv).encode())
        for path in sorted(SRC.rglob("*.py")):
            key.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        return BENCH / ".work" / f"one-worker-{key.hexdigest()[:24]}.out"

    def one_worker_stdout(self, work: Path) -> str:
        """stdout of the same command with one worker, run (untimed) once per
        source tree and kept as the determinism reference. A run that exits
        nonzero is not kept; its stdout is returned and fails the check."""
        path = self._one_worker_path()
        if path.exists():
            return path.read_text("ascii")
        run = self.run(work, workers=1)
        if run.code == 0:
            tmp = path.with_suffix(f".{os.getpid()}")
            tmp.write_text(run.stdout, "ascii")
            tmp.replace(path)
        return run.stdout


class Tally:
    """Checks each distinct output once and counts items attempted and failed.

    With more than one worker, stdout must also be byte-identical to the
    1-worker stdout; each differing line counts as a failed item.
    """

    def __init__(self, workload: Workload, one_worker_stdout: str | None):
        self.workload = workload
        self.one_worker = one_worker_stdout
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.counts: dict = {}
        self.items = 0
        self._seen: dict[tuple, tuple[reference.Check, int]] = {}

    def _check(self, stdout: str, setup: bool) -> tuple[reference.Check, int]:
        if setup:
            return reference.check_empty(self.workload.kind, stdout), 0
        diff = 0
        if self.one_worker is not None and stdout != self.one_worker:
            got, want = stdout.splitlines(), self.one_worker.splitlines()
            diff = max(1, sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want)))
            self.notes.append(f"stdout differs from the 1-worker stdout on {diff} lines")
        return self.workload.check(stdout), diff

    def add(self, run: Run, setup: bool = False) -> None:
        key = (setup, hashlib.sha256(run.stdout.encode()).hexdigest())
        if key not in self._seen:
            self._seen[key] = self._check(run.stdout, setup)
        c, diff = self._seen[key]
        if run.code != 0:
            self.notes.append(f"exit {run.code}: {run.stderr.strip()[-300:]}")
        self.attempted += c.items
        self.failed += min(c.items, c.failed + diff) if run.code == 0 else c.items
        self.notes.extend(n for n in c.notes if n not in self.notes)
        if not setup:
            self.items, self.counts = c.items, c.counts


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "numba_importable": util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def end_to_end(wl: Workload, seconds: float, work: Path, tally: Tally, samples: dict) -> dict:
    """Repeat the workload while another repetition fits in `seconds` (at
    least MIN_REPS times). Before each one run a set-up command and a probe
    that stops at the first record, and at least SETUP_REPS of each in all."""
    setups, probes, runs = [], [], []
    start = time.perf_counter()
    while len(runs) < MIN_REPS or time.perf_counter() - start + runs[-1].wall <= seconds:
        setups.append(wl.run(work, setup=True))
        probes.append(wl.run(work, probe=True))
        runs.append(wl.run(work))
    while len(setups) < SETUP_REPS:
        setups.append(wl.run(work, setup=True))
        probes.append(wl.run(work, probe=True))
    for r in setups:
        tally.add(r, setup=True)
    for r in runs:
        tally.add(r)
    samples.update(
        setup_s=[r.wall for r in setups],
        wall_s=[r.wall for r in runs],
        first_item_s=[r.first for r in probes + runs],
        cpu_s=[r.cpu for r in runs],
        peak_rss_mb=[r.rss_mb for r in runs],
    )
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "wall_s": (med["wall_s"], "s"),
        "setup_s": (med["setup_s"], "s"),
        "first_item_s": (med["first_item_s"], "s"),
        "items_per_s": (statistics.median(tally.items / r.wall for r in runs), "1/s"),
        "cpu_s": (med["cpu_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "pass_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def layer_metrics(spans_path: Path, items: int) -> tuple[dict, float, float]:
    """Per-layer calls and self times from a span file written by traced.py.

    A span's self time is its duration minus the durations of its direct
    children. Returns the metrics, the sum of all self times, and the time
    spent in the char_poly step (extra work, not tracing overhead).
    """
    with np.load(spans_path) as z:
        names = [str(x) for x in z["names"]]
        layer, t0, t1, parent, size, item = (z[k] for k in ("layer", "t0", "t1", "parent", "size", "item"))
    dur = t1 - t0
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    metrics = {}

    def select(name):
        return layer == names.index(name) if name in names else np.zeros(len(layer), bool)

    for name, fields in LAYERS.items():
        sel = select(name)
        if "calls" in fields:
            metrics[f"{name}.calls"] = (int(item[sel].sum()), "count")
        metrics[f"{name}.self_s"] = (float(own[sel].sum()), "s")
    metrics["cli.import_s"] = (float(own[select("cli.import")].sum()), "s")
    eig = select("spectra.eigen")
    n = size[eig].astype(np.float64)
    metrics["spectra.eigen.max_n"] = (int(n.max()) if n.size else 0, "count")
    metrics["spectra.eigen.n3_sum"] = (float((n ** 3).sum()), "computed_n3")
    metrics["search.scan.wait_s"] = (float(own[select("search.wait")].sum()), "s")
    metrics["search.solves_per_item"] = (int(item[eig].sum()) / max(1, items), "ratio")
    char_poly = float(dur[select("spectra.char_poly")].sum())
    return metrics, float(own.sum()), char_poly


def traced(wl: Workload, seconds: float, work: Path, tally: Tally, samples: dict) -> dict:
    """One untraced run, then traced runs while another fits in `seconds`
    (at least one); per-layer metrics are medians over the traced runs."""
    start = time.perf_counter()
    plain = wl.run(work)
    tally.add(plain)
    spans = work / "spans.npz"
    per_rep, last = [], 0.0
    while not per_rep or time.perf_counter() - start + last <= seconds:
        r = wl.run(work, prefix=[str(BENCH / "traced.py"), str(spans)])
        last = r.wall
        tally.add(r)
        if r.code != 0 or not spans.exists():
            break
        metrics, accounted, char_poly = layer_metrics(spans, tally.items)
        metrics["cli.input_bytes"] = (wl.input_bytes, "B")
        metrics["cli.output_bytes"] = (len(r.stdout.encode()), "B")
        metrics["trace.overhead_ratio"] = ((r.wall - char_poly) / plain.wall, "ratio")
        metrics["trace.accounted_ratio"] = (accounted / r.wall, "ratio")
        per_rep.append(metrics)
        spans.unlink()
    samples.update(untraced_wall_s=[plain.wall], traced_reps=len(per_rep))
    if not per_rep:
        return {}
    out = {}
    for k, (_, unit) in per_rep[0].items():
        values = [m[k][0] for m in per_rep]
        median = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
        out[k] = (median(values), unit)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    if not (SRC / "loop_energy" / "__main__.py").is_file():
        print(f"error: no loop_energy package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # pool workers of a killed probe are reparented here and reaped
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    # SIGTERM unwinds like an error, so the running CLI is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        wl = Workload(args.workload, args.seed, args.smoke, work)
        tally = Tally(wl, wl.one_worker_stdout(work) if wl.workers > 1 else None)
        samples: dict = {}
        measure = traced if args.trace else end_to_end
        metrics = measure(wl, args.seconds, work, tally, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = tally.failed == 0 and bool(metrics)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": environment(), "items": tally.items,
        "counts": tally.counts, "samples": samples, "notes": tally.notes[:10],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
