"""Energy of graphs with self-loops.

The energy of a graph with loops on sigma of its n vertices is the sum of
|lambda_i - sigma/n| over the eigenvalues of its adjacency matrix; at
sigma = 0 this is the classical graph energy. The package computes both,
verifies the equality identities satisfied by unions of plain and
fully-looped copies of a base graph, and exhaustively searches small graphs
for loop placements that leave the energy unchanged.

The public names load their submodule on first use (PEP 562), so importing
the package loads no numpy and leaves the BLAS settings of the program alone.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    "energy": ("EnergyReport", "TheoremVerdict", "energy_looped", "energy_simple",
               "union_family_energy", "verify_theorem1", "verify_theorem2"),
    "graph6": ("Graph6ParseError", "LoopFileParseError", "from_graph6",
               "read_looped_graphs", "to_graph6", "write_looped_graphs"),
    "graphs": ("Graph", "LoopedGraph", "adjacency_matrix", "complete_graph",
               "union_looped", "with_all_loops", "with_loops"),
    "search": ("SearchConfig", "SearchRecord", "enumerate_graphs",
               "find_theorem_family_instances", "scan"),
    "spectra": ("CharPoly", "Spectrum", "SymmetricMatrix", "char_poly", "eigenvalues"),
}
_HOME = {name: module for module, names in _SUBMODULE.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
