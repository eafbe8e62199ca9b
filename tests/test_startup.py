"""What importing the package and the CLI does to a fresh process.

Each check runs in a new interpreter without OPENBLAS_NUM_THREADS in its
environment: this process may already have set it by importing the CLI.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loop_energy

SRC = str(Path(loop_energy.__file__).resolve().parent.parent)


def fresh(code: str, **env: str) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = SRC + os.pathsep + base.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_package_import_loads_no_numpy():
    assert fresh("import sys, loop_energy; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("exported,seen", [(None, "1"), ("2", "2")])
def test_cli_defaults_openblas_to_one_thread(exported, seen):
    env = {} if exported is None else {"OPENBLAS_NUM_THREADS": exported}
    code = "import os, loop_energy.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh(code, **env) == seen


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or not Path("/proc/self/task").is_dir(),
                    reason="needs Linux /proc and at least 2 CPUs")
def test_cli_process_starts_no_blas_worker():
    # numpy is loaded by then, and OpenBLAS would start one thread per extra CPU
    code = ("import os, sys, loop_energy.cli; assert 'numpy' in sys.modules; "
            "print(len(os.listdir('/proc/self/task')))")
    assert fresh(code) == "1"


def test_commands_without_a_pool_import_no_multiprocessing(tmp_path):
    # only a labeled scan that starts a pool imports it: not energy, and not the
    # family scan, which runs serially at any LOOP_ENERGY_THREADS
    empty = tmp_path / "empty"
    empty.write_text("")
    code = f"""
import contextlib, io, sys
from loop_energy import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["energy", {str(empty)!r}]) == 0
    assert cli.main(["search", "--family", "thm1", "--n-max", "6"]) == 0
print("multiprocessing" in sys.modules)
"""
    for threads in ("1", "2"):
        assert fresh(code, LOOP_ENERGY_THREADS=threads) == "False", threads


def test_lazy_names_are_the_submodules_objects():
    code = """
import importlib, loop_energy
listed = set(dir(loop_energy))  # before any name has loaded
ns = {}
exec("from loop_energy import *", ns)
names = sorted(set(ns) - {"__builtins__"})
assert names == sorted(loop_energy.__all__) and len(names) == 30, names
for name in names:
    home = importlib.import_module(ns[name].__module__)
    assert home.__name__.startswith("loop_energy.") and ns[name] is getattr(home, name), name
assert set(names) <= listed
assert loop_energy.Graph is loop_energy.graphs.Graph
try:
    loop_energy.no_such_name
except AttributeError as e:
    print(e)
"""
    assert fresh(code) == "module 'loop_energy' has no attribute 'no_such_name'"
