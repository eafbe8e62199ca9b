"""Dense symmetric eigensolver and an exact characteristic-polynomial oracle.

Matrices of order above JACOBI_MAX_ORDER (8) are solved by LAPACK through
numpy.linalg. Orders up to 8, which cover every matrix the exhaustive scan
solves, use cyclic Jacobi rotations, JIT-compiled when numba is importable;
they converge unconditionally for symmetric input. Adjacency matrices are
limited to order 4,096 (graphs.MAX_MATRIX_ORDER).

Characteristic polynomials use Berkowitz's division-free recurrence, so for
integer matrices the coefficients are exact Python integers by construction,
independent of anything floating-point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# orders above this go to LAPACK; search.MAX_ORDER must not exceed it, so the
# scan's output does not depend on LAPACK
JACOBI_MAX_ORDER = 8
SWEEP_CAP = 100
# off-diagonal Frobenius norm must drop below this times (1 + ||A||_F)
CONVERGENCE_RTOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the Jacobi sweeps hit the cap before annihilating the off-diagonal."""

    def __init__(self, off_diagonal_norm: float, sweeps: int):
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps; "
            f"off-diagonal norm reached {off_diagonal_norm:.6e}"
        )
        self.off_diagonal_norm = off_diagonal_norm
        self.sweeps = sweeps


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense square real matrix, symmetric by construction (checked exactly)."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def trace(self):
        return self.data.trace()

    def frobenius_norm(self) -> float:
        return float(np.sqrt((self.data.astype(np.float64) ** 2).sum()))


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

    def min_abs(self) -> float:
        """Smallest eigenvalue magnitude (inf for the empty spectrum)."""
        return min((abs(v) for v in self.values), default=math.inf)


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; coefficients[k] multiplies x^(n-k)."""

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        acc = self.coefficients[0]
        for c in self.coefficients[1:]:
            acc = acc * x + c
        return acc


def _jacobi_sweeps(a, v, accumulate, max_sweeps, tol):
    # Cyclic-by-row Jacobi. Mutates `a` toward diagonal form and, when
    # `accumulate` is set, collects the rotations into the columns of `v`
    # so that original A = v @ diag(a) @ v.T.
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
        if sweeps >= max_sweeps:
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
                if accumulate:
                    for k in range(n):
                        vkp = v[k, p]
                        vkq = v[k, q]
                        v[k, p] = c * vkp - s * vkq
                        v[k, q] = s * vkp + c * vkq
        sweeps += 1


try:  # JIT keeps the exhaustive scans fast; the plain function is the fallback
    from numba import njit

    _jacobi = njit(cache=True)(_jacobi_sweeps)
except ImportError:  # pragma: no cover
    _jacobi = _jacobi_sweeps


def _eigh(m: SymmetricMatrix, accumulate: bool = True, max_sweeps: int = SWEEP_CAP):
    """Eigenvalues (descending) and matching eigenvector columns.

    Internal: the public result type carries no eigenvectors; tests use them
    for residual checks. Above JACOBI_MAX_ORDER, LAPACK solves the matrix
    (numpy.linalg.LinAlgError on failure) and `max_sweeps` does not apply;
    without `accumulate` no eigenvectors are computed there and None is
    returned in their place.
    """
    a = np.array(m.data, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    if n > JACOBI_MAX_ORDER:
        if not accumulate:
            return np.linalg.eigvalsh(a)[::-1], None
        w, v = np.linalg.eigh(a)
        return w[::-1], v[:, ::-1]
    fro = math.sqrt(float((a * a).sum()))
    tol = CONVERGENCE_RTOL * (1.0 + fro)
    v = np.eye(n)
    off, sweeps, converged = _jacobi(a, v, accumulate, max_sweeps, tol)
    if not converged:
        raise ConvergenceError(off, sweeps)
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def eigenvalues(m: SymmetricMatrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, sorted descending."""
    if m.n == 0:
        return Spectrum(())
    w, _ = _eigh(m, accumulate=False)
    return Spectrum(tuple(float(x) for x in w))


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
