"""Run the loop-energy CLI with a span around every call into a layer.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.npz <loop-energy arguments>

The package runs unmodified. Each public name is wrapped where an importing
module binds it (for example energy.eigenvalues, search.energy_looped and
cli.read_looped_graphs), so a call between layers opens a span and a call
inside one module does not. A generator gets one span per item it yields.
Spans stay in memory and are written to SPANS.npz when the run ends:
layer, start, end, parent span, matrix order (eigensolves only) and whether
the span produced an item.

Pool workers inherit the wrappers, but their spans are not collected; in the
parent, the time blocked on pool results is the `search.wait` layer. After
the CLI returns, the exact characteristic polynomial of the looped and the
simple adjacency matrix of every EQUAL or SUSPECT record it rendered is
computed in `spectra.char_poly` spans, as a baseline for an exact recheck.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# layer -> (names, modules that bind them); plain calls, then generators
CALLS = {
    "graphs.build": (("Graph", "with_loops", "with_all_loops", "union_looped"),
                     ("cli", "search", "energy", "graph6")),
    "graphs.adjacency": (("adjacency_matrix",), ("cli", "search", "energy")),
    "spectra.eigen": (("eigenvalues",), ("energy", "search")),
    "energy.report": (("energy_looped", "energy_simple"), ("cli", "search")),
    "energy.condition": (("theorem1_condition",), ("search",)),
    "graph6.encode": (("to_graph6",), ("search",)),
}
GENERATORS = {
    "graph6.decode": (("read_looped_graphs",), ("cli",)),
    "search.scan": (("scan", "find_theorem_family_instances"), ("search",)),
    "search.render": (("to_tsv", "to_jsonl"), ("cli",)),
}


class Tracer:
    """Spans in flat arrays; `stack` holds the indices of the open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.layer = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.size = array("q")
        self.item = array("b")
        self.stack = [-1]

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def enter(self, layer: int, size: int = 0, item: bool = True) -> int:
        idx = len(self.t1)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.size.append(size)
        self.item.append(item)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self.stack.pop()

    def call(self, layer: int, fn, *args, size: int = 0, **kwargs):
        idx = self.enter(layer, size)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    def iterate(self, layer: int, items):
        it = iter(items)
        while True:
            idx = self.enter(layer)
            try:
                item = next(it)
            except StopIteration:
                self.item[idx] = 0
                return
            finally:
                self.exit(idx)
            yield item

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, np.uint16),
            t0=np.frombuffer(self.t0, np.float64),
            t1=np.frombuffer(self.t1, np.float64),
            parent=np.frombuffer(self.parent, np.int64),
            size=np.frombuffer(self.size, np.int64),
            item=np.frombuffer(self.item, np.int8),
        )


def _plain(tracer: Tracer, layer: int, fn):
    if fn.__name__ == "eigenvalues":
        def wrapper(m):
            return tracer.call(layer, fn, m, size=m.n)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, *args, **kwargs)
    return functools.update_wrapper(wrapper, fn, updated=())


def _generator(tracer: Tracer, layer: int, fn, keep: list):
    def records(stream):  # remember what an exact recheck would be asked for
        for r in stream:
            if r.classification == "EQUAL" or r.suspect:
                keep.append((r.graph6, tuple(r.loops)))
            yield r

    def wrapper(*args, **kwargs):
        if fn.__name__ in ("to_tsv", "to_jsonl"):
            args = (records(args[0]), *args[1:])
        idx = tracer.enter(layer, item=False)
        try:
            items = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        return tracer.iterate(layer, items)

    return functools.update_wrapper(wrapper, fn, updated=())


def install(tracer: Tracer, modules: dict, keep: list) -> list:
    """Wrap every listed name that a module binds; returns what to restore."""
    patched = []
    for table, make in ((CALLS, _plain), (GENERATORS, _generator)):
        for layer, (names, owners) in table.items():
            lid = tracer.layer_id(layer)
            for owner in owners:
                module = modules[owner]
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    args = (keep,) if make is _generator else ()
                    setattr(module, name, make(tracer, lid, fn, *args))
                    patched.append((module, name, fn))

    search = modules["search"]
    pool_cls = getattr(search, "ProcessPoolExecutor", None)
    if pool_cls is not None:
        wait = tracer.layer_id("search.wait")

        class TracedPool(pool_cls):
            def map(self, *args, **kwargs):
                return tracer.iterate(wait, super().map(*args, **kwargs))

        search.ProcessPoolExecutor = TracedPool
        patched.append((search, "ProcessPoolExecutor", pool_cls))
    return patched


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.enter(tracer.layer_id("cli.import"))
    from loop_energy import cli, energy, graph6, graphs, search, spectra
    tracer.exit(idx)

    keep: list = []
    modules = {"cli": cli, "energy": energy, "graph6": graph6, "search": search}
    patched = install(tracer, modules, keep)
    code = tracer.call(tracer.layer_id("cli"), cli.main, argv)
    sys.stdout.flush()
    for module, name, fn in patched:
        setattr(module, name, fn)

    char_poly = tracer.layer_id("spectra.char_poly")
    for g6, loops in keep:
        g = graph6.from_graph6(g6)
        for lg in (graphs.with_loops(g, loops), graphs.with_loops(g, ())):
            m = graphs.adjacency_matrix(lg)
            tracer.call(char_poly, spectra.char_poly, m, size=m.n)
    tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
