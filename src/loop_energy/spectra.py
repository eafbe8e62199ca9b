"""Dense symmetric eigensolver and an exact characteristic-polynomial oracle.

Eigenvalues are solved a stack at a time: eigenvalues_stack takes a (k, n, n)
stack, checks it once (finite and symmetric, as SymmetricMatrix does), and
returns each matrix's eigenvalues in descending order. eigenvalues() of one
SymmetricMatrix is a stack of one through the same private solve, _eigvalsh,
so both return the same floats. _eigvalsh is one batched LAPACK call through
numpy.linalg at every order, and so is _eigh, which the tests use for
eigenvector residuals.

Only the labeled scan (search._scan_kernel) still solves small orders with
cyclic Jacobi rotations in pure Python, through _scan_eigvalsh, the one code
that reads JACOBI_MAX_ORDER: at or below it (5, search.DEFAULT_MAX_ORDER, so
every matrix of the default scan) each matrix goes through _jacobi_eigvalsh,
and above it the stack goes to LAPACK. Jacobi converges unconditionally for
symmetric input. The renderers print rounding noise around 0 as 0
(search.snap), so both backends print the same bytes on the outputs the
tests compare; on some other input a value away from 0 could still round to
another tenth digit. The scan keeps Jacobi only until the benchmark measures
the CLI's own memory rather than its harness's (ROADMAP item 1): a faster
scan fits more runs into the harness's time and inflates its peak RSS.
Either backend raises numpy.linalg.LinAlgError if it fails. Adjacency
matrices are limited to order 4,096 (graphs.MAX_MATRIX_ORDER).

Characteristic polynomials use Berkowitz's division-free recurrence, so for
integer matrices the coefficients are exact Python integers by construction,
independent of anything floating-point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the scan's solver sends orders above this to LAPACK; it equals
# search.DEFAULT_MAX_ORDER, so the default scan's output does not depend on
# LAPACK: printing noise as 0 makes the backends agree on the outputs the
# tests compare, not on every input. Nothing else reads it
JACOBI_MAX_ORDER = 5
SWEEP_CAP = 100
# off-diagonal Frobenius norm must drop below this times (1 + ||A||_F)
CONVERGENCE_RTOL = 1e-12


def _check_symmetric(a: np.ndarray, ndim: int) -> None:
    # one matrix (ndim 2) or a stack of them (ndim 3): square, finite, symmetric
    if a.ndim != ndim or a.shape[-2:-1] != a.shape[-1:]:
        what = "matrix must be square" if ndim == 2 else "matrix stack must have shape (k, n, n)"
        raise ValueError(f"{what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("matrix must be symmetric")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense square real matrix, symmetric by construction (checked exactly)."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, copy=True)
        _check_symmetric(a, ndim=2)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending; ties keep their original order."""

    values: tuple[float, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.values, key=lambda x: -x))
        object.__setattr__(self, "values", ordered)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; coefficients[k] multiplies x^(n-k)."""

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("characteristic polynomial must be monic")


def _jacobi_sweeps(a, tol):
    # Cyclic-by-row Jacobi, at most SWEEP_CAP sweeps. Mutates `a` toward
    # diagonal form, leaving its eigenvalues on the diagonal.
    n = a.shape[0]
    sweeps = 0
    while True:
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        off = math.sqrt(off)
        if off <= tol:
            return off, sweeps, True
        if sweeps >= SWEEP_CAP:
            return off, sweeps, False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                # Python floats: a huge theta squares to inf (t = 0, no
                # rotation) without numpy's overflow warning
                theta = 0.5 * float(aqq - app) / float(apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = a[k, p]
                        akq = a[k, q]
                        a[k, p] = c * akp - s * akq
                        a[p, k] = a[k, p]
                        a[k, q] = s * akp + c * akq
                        a[q, k] = a[k, q]
        sweeps += 1


def _jacobi_eigvalsh(stack: np.ndarray) -> np.ndarray:
    # Jacobi on each matrix of a (k, n, n) stack, which it leaves unchanged; rows descending
    rows = []
    for a in np.array(stack, dtype=np.float64):  # the sweeps overwrite their matrix
        fro = math.sqrt(float((a * a).sum()))
        off, sweeps, converged = _jacobi_sweeps(a, CONVERGENCE_RTOL * (1.0 + fro))
        if not converged:
            raise np.linalg.LinAlgError(
                f"eigensolver did not converge after {sweeps} sweeps; "
                f"off-diagonal norm reached {off:.6e}"
            )
        rows.append(np.diag(a))
    w = np.array(rows).reshape(stack.shape[:2])
    # negation is exact, so this is w[argsort(-w, stable)] row by row, bit for bit
    return -np.sort(-w, axis=1, kind="stable")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    # the eigenvalues of a checked (k, n, n) float64 stack, each row descending
    return np.linalg.eigvalsh(a)[:, ::-1]


def _scan_eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigensolver of search._scan_kernel alone: _eigvalsh, except that a
    stack of order JACOBI_MAX_ORDER or less goes to Jacobi. `a` is a symmetric
    (k, n, n) float64 stack built by the scan, so it is not checked."""
    if a.shape[1] > JACOBI_MAX_ORDER:
        return _eigvalsh(a)
    return _jacobi_eigvalsh(a)


def _eigh(m: SymmetricMatrix):
    """Eigenvalues (descending) and matching eigenvector columns, from LAPACK.

    Internal: the public result type carries no eigenvectors; tests use them
    for residual checks.
    """
    w, v = np.linalg.eigh(m.data.astype(np.float64))
    return w[::-1], v[:, ::-1]


def eigenvalues(m: SymmetricMatrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, sorted descending."""
    a = np.asarray(m.data, dtype=np.float64)[np.newaxis]
    return Spectrum(tuple(_eigvalsh(a)[0].tolist()))


def eigenvalues_stack(stack) -> np.ndarray:
    """Eigenvalues of every matrix of a (k, n, n) stack: a (k, n) array, rows descending.

    The stack is checked once, with SymmetricMatrix's rules and messages. Row
    i holds the same floats as eigenvalues(SymmetricMatrix(stack[i])).
    """
    a = np.asarray(stack, dtype=np.float64)
    _check_symmetric(a, ndim=3)
    return _eigvalsh(a)


def char_poly(m: SymmetricMatrix) -> CharPoly:
    """Monic characteristic polynomial det(xI - A), by Berkowitz's recurrence.

    The recurrence is division-free, so integer matrices give exact Python
    ints; float matrices run through the same loop.
    """
    n = m.n
    if n < 1:
        raise ValueError("characteristic polynomial needs n >= 1")
    a = m.data.tolist()
    coeffs = [1]
    for k in range(n):
        # border the leading k-block B with row k = (c, a_kk): the grown
        # block's coefficients are the old ones convolved with
        # q = 1, -a_kk, -c.c, -c.Bc, ..., -c.B^(k-1)c, cut to k + 2 terms
        col = a[k][:k]
        q = [1, -a[k][k]]
        for _ in range(k):
            q.append(-sum(x * y for x, y in zip(a[k], col)))
            col = [sum(x * y for x, y in zip(a[i], col)) for i in range(k)]
        coeffs = [sum(q[i - j] * coeffs[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return CharPoly(tuple(coeffs))
