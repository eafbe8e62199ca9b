"""Energy of graphs with self-loops.

The energy of a graph with loops on sigma of its n vertices is the sum of
|lambda_i - sigma/n| over the eigenvalues of its adjacency matrix; at
sigma = 0 this is the classical graph energy. The package computes both,
verifies the equality identities satisfied by unions of plain and
fully-looped copies of a base graph, and exhaustively searches small graphs
for loop placements that leave the energy unchanged.
"""

from .energy import (
    EnergyReport,
    TheoremVerdict,
    energy_looped,
    energy_simple,
    union_family_energy,
    verify_theorem1,
    verify_theorem2,
)
from .graph6 import (
    Graph6ParseError,
    LoopFileParseError,
    from_graph6,
    read_looped_graphs,
    to_graph6,
    write_looped_graphs,
)
from .graphs import (
    Graph,
    LoopedGraph,
    adjacency_matrix,
    complete_graph,
    union_looped,
    with_all_loops,
    with_loops,
)
from .search import (
    SearchConfig,
    SearchRecord,
    enumerate_graphs,
    find_theorem_family_instances,
    scan,
)
from .spectra import (
    CharPoly,
    Spectrum,
    SymmetricMatrix,
    char_poly,
    eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "CharPoly",
    "EnergyReport",
    "Graph",
    "Graph6ParseError",
    "LoopFileParseError",
    "LoopedGraph",
    "SearchConfig",
    "SearchRecord",
    "Spectrum",
    "SymmetricMatrix",
    "TheoremVerdict",
    "adjacency_matrix",
    "char_poly",
    "complete_graph",
    "eigenvalues",
    "energy_looped",
    "energy_simple",
    "enumerate_graphs",
    "find_theorem_family_instances",
    "from_graph6",
    "read_looped_graphs",
    "scan",
    "to_graph6",
    "union_family_energy",
    "union_looped",
    "verify_theorem1",
    "verify_theorem2",
    "with_all_loops",
    "with_loops",
    "write_looped_graphs",
]
