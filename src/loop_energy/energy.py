"""Energy of simple and self-looped graphs, and the union-family identity checks.

For a graph on n vertices with loops at sigma chosen vertices, the energy is
sum_i |lambda_i - sigma/n| over the eigenvalues of the looped adjacency matrix
(plain graph energy is the sigma = 0 case). The two verifiers below check the
exact identities satisfied by unions of p plain and q fully-looped copies of a
base graph G (m = p + q, sigma = q*n):

    E = m * E(G)   whenever every eigenvalue of G has |lambda| >= max(p/m, q/m)

with the p = q = 1 special case requiring only |lambda| >= 1/2. Both are
sufficient conditions; when they fail the verdict still reports both energies
and the gap instead of refusing. Verdicts are computed a stack of base graphs
at a time by _union_verdicts; verify_theorem2 is its one-row call, and the
thm1 family scan (search) calls it as _union_verdicts(stack, 1, 1) and
encodes the union stack it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, LoopedGraph, _integer, adjacency_matrix, check_matrix_order
from .spectra import Spectrum, eigenvalues, eigenvalues_stack

# slack when testing |lambda| against a condition threshold, so exact-boundary
# eigenvalues computed in floating point are not misclassified
CONDITION_TOL = 1e-9
# relative EQUAL tolerance (_equal); fixed, so no setting changes a class
EQ_TOL = 1e-9


def _equal(gap: float, rhs: float) -> bool:
    """The one EQUAL rule, for every verdict and every search record (rhs = e_simple)."""
    return abs(gap) <= EQ_TOL * (1.0 + rhs)


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one (possibly looped) graph plus the data it derives from."""

    n: int
    sigma: int
    spectrum: Spectrum
    shift: float
    energy: float


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
        return _equal(self.abs_gap, self.rhs_energy)


def _energy_sum(values, shift):
    """sum |v - shift| over `values`, added left to right.

    Builtin sum compensates float sums since Python 3.12, so it is not used:
    this loop gives the same bits on every version. Given the transpose of a
    (k, n) array of spectra and a shift or k shifts, it returns the k energies,
    each summed in the same order.
    """
    total = 0.0
    for v in values:
        total += abs(v - shift)
    return total


def _shift(n: int, sigma: int) -> float:
    """sigma/n, the shift of a looped graph's energy; 0 for the empty graph."""
    return sigma / n if n else 0.0


def _condition_witness(values: Sequence[float], threshold: float) -> tuple[float | None, bool]:
    """The union-family condition |lambda| >= threshold on a base spectrum.

    Returns the witness, the first eigenvalue of least |lambda| below the
    threshold, ties within CONDITION_TOL going to the first (None when the
    condition holds), and whether any eigenvalue is too close to the threshold
    to settle in floats.
    """
    witness = None
    boundary = False
    for v in values:
        if abs(abs(v) - threshold) <= CONDITION_TOL:
            boundary = True
        # a candidate replaces the witness only if clearly smaller, so that
        # of +lambda and -lambda the first in descending order wins on any backend
        if abs(v) < threshold - CONDITION_TOL and (
                witness is None or abs(v) < abs(witness) - CONDITION_TOL):
            witness = v
    return witness, boundary


def _report(n: int, sigma: int, spectrum: Spectrum) -> EnergyReport:
    shift = _shift(n, sigma)
    return EnergyReport(n=n, sigma=sigma, spectrum=spectrum, shift=shift,
                        energy=_energy_sum(spectrum, shift))


def energy_simple(g: Graph) -> EnergyReport:
    """Energy of a simple graph: sum of |eigenvalue|."""
    return _report(g.n, 0, eigenvalues(adjacency_matrix(g)))


def energy_looped(lg: LoopedGraph) -> EnergyReport:
    """Energy of a looped graph: sum of |eigenvalue - sigma/n|."""
    return _report(lg.n, lg.sigma, eigenvalues(adjacency_matrix(lg)))


def check_copy_counts(p: int, q: int) -> tuple[int, int]:
    """Validate p plain and q fully-looped copies; returns them as plain ints."""
    p, q = _integer(p, "copy count p"), _integer(q, "copy count q")
    if p < 0 or q < 0:
        raise ValueError("copy counts must be nonnegative")
    if p + q < 1:
        raise ValueError("need at least one copy (p + q >= 1)")
    return p, q


def verify_theorem1(g: Graph) -> TheoremVerdict:
    """Check E(G union fully-looped G, loops on the second copy) = 2 E(G).

    The left side is recomputed from the actually constructed union via the
    eigensolver, so the whole pipeline is exercised, not a closed form.
    """
    return verify_theorem2(g, 1, 1)


def verify_theorem2(g: Graph, p: int, q: int) -> TheoremVerdict:
    """Check E(p plain + q fully-looped copies of g, loops as built) = (p+q) E(g).

    Requires p, q >= 0 and p + q >= 1. Condition: every eigenvalue of g has
    magnitude at least max(p, q)/(p + q). Two eigensolves: the spectrum of g
    gives the condition and the right side m * E(g); the union as built gives
    the left side. A union above MAX_MATRIX_ORDER raises ValueError before any
    copy is built.
    """
    p, q = check_copy_counts(p, q)
    check_matrix_order((p + q) * g.n)
    return _union_verdicts(adjacency_matrix(g).data[np.newaxis], p, q)[1][0]


def _union_stack(a: np.ndarray, p: int, q: int) -> np.ndarray:
    """The union of p plain then q fully-looped copies of each matrix of a (k, n, n)
    stack, as a block-diagonal (k, m*n, m*n) float64 stack, m = p + q."""
    k, n, _ = a.shape
    union = np.zeros((k, (p + q) * n, (p + q) * n))
    for c in range(p + q):
        union[:, c * n:(c + 1) * n, c * n:(c + 1) * n] = a + (c >= p) * np.eye(n)
    return union


def _union_verdicts(a: np.ndarray, p: int, q: int) -> tuple[np.ndarray, list[TheoremVerdict]]:
    """The union stack of a (k, n, n) base stack and the verify_theorem2 verdict of
    each base matrix: the base stack and the union stack are each solved in one call."""
    n, m = a.shape[1], p + q
    shift = _shift(m * n, q * n)
    union = _union_stack(a, p, q)
    verdicts = []
    for values, looped in zip(eigenvalues_stack(a).tolist(), eigenvalues_stack(union).tolist()):
        lhs, rhs = _energy_sum(looped, shift), m * _energy_sum(values, 0.0)
        witness, boundary = _condition_witness(values, max(p, q) / m)
        verdicts.append(TheoremVerdict(witness is None, lhs, rhs, abs(lhs - rhs), witness,
                                       boundary))
    return union, verdicts


def union_family_energy(base_spectrum: Spectrum | Sequence[float], p: int, q: int) -> float:
    """Closed-form energy of p plain + q fully-looped copies, from the base spectrum.

    The union's characteristic polynomial factors through the base spectrum, so
    its energy is sum_i p|lambda_i - q/m| + q|lambda_i + p/m|. Kept separate
    from the verifiers as an independent cross-check route.
    """
    p, q = check_copy_counts(p, q)
    m = p + q
    return float(sum(p * abs(v - q / m) + q * abs(v + p / m) for v in base_spectrum))
