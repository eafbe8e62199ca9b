"""Energy of simple and self-looped graphs, and the union-family identity checks.

For a graph on n vertices with loops at sigma chosen vertices, the energy is
sum_i |lambda_i - sigma/n| over the eigenvalues of the looped adjacency matrix
(plain graph energy is the sigma = 0 case). The two verifiers below check the
exact identities satisfied by unions of p plain and q fully-looped copies of a
base graph G (m = p + q, sigma = q*n):

    E = m * E(G)   whenever every eigenvalue of G has |lambda| >= max(p/m, q/m)

with the p = q = 1 special case requiring only |lambda| >= 1/2. Both are
sufficient conditions; when they fail the verdict still reports both energies
and the gap instead of refusing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import (
    Graph,
    LoopedGraph,
    adjacency_matrix,
    check_matrix_order,
    union_looped,
    with_all_loops,
    with_loops,
)
from .spectra import Spectrum, eigenvalues

# slack when testing |lambda| against a condition threshold, so exact-boundary
# eigenvalues computed in floating point are not misclassified
CONDITION_TOL = 1e-9
# relative gap tolerance the identity must meet whenever its condition holds
IDENTITY_RTOL = 1e-8


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one (possibly looped) graph plus the data it derives from."""

    n: int
    sigma: int
    spectrum: Spectrum
    shift: float
    energy: float


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of an eigenvalue-magnitude condition on a base graph.

    `witness` is an eigenvalue violating the condition (present iff it fails);
    `boundary` flags eigenvalues within CONDITION_TOL of the threshold, where
    floating point cannot settle the comparison.
    """

    holds: bool
    witness: float | None
    boundary: bool


@dataclass(frozen=True)
class TheoremVerdict:
    """Both sides of a union-family identity, with the condition outcome."""

    condition_holds: bool
    lhs_energy: float
    rhs_energy: float
    abs_gap: float
    witness: float | None
    boundary: bool = False

    def gap_within_tolerance(self) -> bool:
        return self.abs_gap <= IDENTITY_RTOL * (1.0 + self.rhs_energy)


def _report(n: int, sigma: int, spectrum: Spectrum) -> EnergyReport:
    shift = sigma / n if n else 0.0
    energy = float(sum(abs(v - shift) for v in spectrum))
    return EnergyReport(n=n, sigma=sigma, spectrum=spectrum, shift=shift, energy=energy)


def energy_simple(g: Graph) -> EnergyReport:
    """Energy of a simple graph: sum of |eigenvalue|."""
    return _report(g.n, 0, eigenvalues(adjacency_matrix(g)))


def energy_looped(lg: LoopedGraph) -> EnergyReport:
    """Energy of a looped graph: sum of |eigenvalue - sigma/n|."""
    return _report(lg.n, lg.sigma, eigenvalues(adjacency_matrix(lg)))


def _check_condition(spectrum: Spectrum, threshold: float) -> ConditionCheck:
    holds = True
    witness = None
    boundary = False
    for v in spectrum:
        if abs(abs(v) - threshold) <= CONDITION_TOL:
            boundary = True
        if abs(v) < threshold - CONDITION_TOL:
            if witness is None or abs(v) < abs(witness):
                witness = v
            holds = False
    return ConditionCheck(holds=holds, witness=witness, boundary=boundary)


def theorem1_condition(g: Graph) -> ConditionCheck:
    """Does every eigenvalue of g satisfy |lambda| >= 1/2?"""
    return _check_condition(eigenvalues(adjacency_matrix(g)), 0.5)


def verify_theorem1(g: Graph) -> TheoremVerdict:
    """Check E(G union fully-looped G, loops on the second copy) = 2 E(G).

    The left side is recomputed from the actually constructed union via the
    eigensolver, so the whole pipeline is exercised, not a closed form.
    """
    return verify_theorem2(g, 1, 1)


def verify_theorem2(g: Graph, p: int, q: int) -> TheoremVerdict:
    """Check E(p plain + q fully-looped copies of g, loops as built) = (p+q) E(g).

    Requires p, q >= 0 and p + q >= 1. Condition: every eigenvalue of g has
    magnitude at least max(p, q)/(p + q).
    """
    return _union_family_verdict(g, p, q)[1]


def _union_family_verdict(g: Graph, p: int, q: int) -> tuple[LoopedGraph, TheoremVerdict]:
    """Build p plain + q fully-looped copies of g and check the identity on them.

    Two eigensolves: the spectrum of g gives the condition and the right side
    m * E(g); the union as built gives the left side. A union above
    MAX_MATRIX_ORDER raises ValueError before any copy is built.
    """
    if p < 0 or q < 0:
        raise ValueError("copy counts must be nonnegative")
    m = p + q
    if m < 1:
        raise ValueError("need at least one copy (p + q >= 1)")
    check_matrix_order(m * g.n)
    base = energy_simple(g)
    threshold = max(p, q) / m
    condition = _check_condition(base.spectrum, threshold)
    parts = [with_loops(g, ()) for _ in range(p)] + [with_all_loops(g) for _ in range(q)]
    union = union_looped(parts)
    lhs = energy_looped(union).energy
    rhs = m * base.energy
    return union, TheoremVerdict(
        condition_holds=condition.holds,
        lhs_energy=lhs,
        rhs_energy=rhs,
        abs_gap=abs(lhs - rhs),
        witness=condition.witness,
        boundary=condition.boundary,
    )


def energy_gap(g: Graph, loops: Iterable[int]) -> float:
    """Signed difference E(g with loops) - E(g); zero iff the energies agree."""
    return energy_looped(with_loops(g, loops)).energy - energy_simple(g).energy


def union_family_energy(base_spectrum: Spectrum | Sequence[float], p: int, q: int) -> float:
    """Closed-form energy of p plain + q fully-looped copies, from the base spectrum.

    The union's characteristic polynomial factors through the base spectrum, so
    its energy is sum_i p|lambda_i - q/m| + q|lambda_i + p/m|. Kept separate
    from the verifiers as an independent cross-check route.
    """
    if p < 0 or q < 0:
        raise ValueError("copy counts must be nonnegative")
    m = p + q
    if m < 1:
        raise ValueError("need at least one copy (p + q >= 1)")
    return float(sum(p * abs(v - q / m) + q * abs(v + p / m) for v in base_spectrum))
