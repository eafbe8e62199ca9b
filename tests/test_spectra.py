import math
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, looped_graphs
from helpers import disjoint_union, empty_graph, path_graph, poly_at, relabel_looped
from loop_energy import search, spectra
from loop_energy import (
    CharPoly,
    Spectrum,
    SymmetricMatrix,
    adjacency_matrix,
    char_poly,
    complete_graph,
    eigenvalues,
    from_graph6,
    union_looped,
    with_all_loops,
    with_loops,
)
from loop_energy.spectra import (CONVERGENCE_RTOL, _eigh, _jacobi_eigvalsh, _jacobi_sweeps,
                                  _scan_eigvalsh, eigenvalues_stack)


def test_symmetric_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        SymmetricMatrix(np.zeros((2, 3)))


def test_symmetric_matrix_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricMatrix(np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 9], ids=["jacobi", "lapack"])
def test_symmetric_matrix_rejects_non_finite_entries(bad, n):
    a = np.ones((n, n))
    a[0, 1] = a[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        SymmetricMatrix(a)


def test_symmetric_matrix_is_immutable():
    m = SymmetricMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_spectrum_sorts_descending():
    s = Spectrum((1.0, 3.0, -2.0))
    assert s.values == (3.0, 1.0, -2.0)
    assert len(s) == 3 and s[0] == 3.0


def test_eigenvalues_triangle():
    s = eigenvalues(adjacency_matrix(complete_graph(3)))
    assert np.allclose(s.values, [2.0, -1.0, -1.0], atol=1e-9)


def test_eigenvalues_zero_matrix():
    s = eigenvalues(SymmetricMatrix(np.zeros((4, 4))))
    assert s.values == (0.0, 0.0, 0.0, 0.0)


def test_eigenvalues_example_union():
    k3 = complete_graph(3)
    h3 = union_looped([with_loops(k3, ()), with_all_loops(k3)])
    s = eigenvalues(adjacency_matrix(h3))
    assert np.allclose(s.values, [3.0, 2.0, 0.0, 0.0, -1.0, -1.0], atol=1e-9)


def test_eigenvalues_empty_and_singleton():
    assert eigenvalues(adjacency_matrix(empty_graph(0))).values == ()
    assert eigenvalues(SymmetricMatrix(np.array([[7.0]]))).values == (7.0,)


def test_eigh_residuals_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 17))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        a = (a + a.T) / 2
        m = SymmetricMatrix(a)
        w, v = _eigh(m)
        fro = np.linalg.norm(m.data)
        residuals = np.linalg.norm(a @ v - v * w, axis=0)
        assert residuals.max() <= 1e-9 * (1 + fro)
        assert abs(w.sum() - a.trace()) <= 1e-9 * max(1.0, abs(a.trace()))


def test_solver_failure_carries_off_diagonal_norm(monkeypatch):
    # the scan's solver gives order 3 to Jacobi, which stops at the sweep cap
    monkeypatch.setattr(spectra, "SWEEP_CAP", 0)
    with pytest.raises(np.linalg.LinAlgError, match="off-diagonal norm reached 2.449"):
        _scan_eigvalsh(adjacency_matrix(complete_graph(3)).data[np.newaxis].astype(float))


def test_jacobi_rotation_overflow_is_silent():
    # in each of these a sweep drives theta * theta past the float range;
    # that means t = 0 (no rotation) and must not warn. They are of order 6,
    # above the scan's Jacobi orders, so the Jacobi entry is called directly
    for lg in [
        with_loops(from_graph6("EZxG"), ()),
        with_all_loops(from_graph6("EmE?")),
        with_all_loops(from_graph6("EuD?")),
    ]:
        a = adjacency_matrix(lg).data.astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = _jacobi_eigvalsh(a[np.newaxis])[0]
        assert np.abs(w - np.linalg.eigvalsh(a)[::-1]).max() <= 1e-9


def test_scan_orders_stay_on_jacobi():
    # the default scan's bytes must not depend on the LAPACK build
    assert search.DEFAULT_MAX_ORDER == spectra.JACOBI_MAX_ORDER


def _jacobi_values(a):
    a = np.array(a, dtype=np.float64)
    tol = CONVERGENCE_RTOL * (1.0 + np.linalg.norm(a))
    _, _, converged = _jacobi_sweeps(a, tol)
    assert converged
    return np.sort(np.diag(a))[::-1]


@pytest.mark.parametrize("n", range(1, 13))
def test_lapack_orders_agree_with_jacobi(n):
    # _eigh is LAPACK at every order, so Jacobi's own orders are checked too
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = np.triu(rng.integers(0, 2, size=(n, n)))
        a = a + np.triu(a, 1).T  # 0/1 symmetric, loops on the diagonal
        m = SymmetricMatrix(a)
        got = _eigh(m)[0]
        assert np.abs(got - _jacobi_values(a)).max() <= 1e-12 * (1 + np.linalg.norm(m.data))


def _looped_01_stack(rng, k, n):
    a = np.triu(rng.integers(0, 2, size=(k, n, n)))
    return a + np.swapaxes(np.triu(a, 1), 1, 2)  # 0/1 symmetric, loops on the diagonal


@pytest.mark.parametrize("n", range(1, 13))
def test_stack_solve_returns_the_floats_of_eigenvalues(n):
    stack = _looped_01_stack(np.random.default_rng(100 + n), 7, n)
    w = eigenvalues_stack(stack)
    assert w.shape == (7, n)
    for a, row in zip(stack, w):
        assert row.tolist() == list(eigenvalues(SymmetricMatrix(a)).values)
        # one 2-D LAPACK call
        assert row.tolist() == np.linalg.eigvalsh(a.astype(np.float64))[::-1].tolist()


@pytest.mark.parametrize("n", range(1, 13))
def test_scan_solve_is_the_bare_jacobi_sweeps_or_lapack(n):
    stack = _looped_01_stack(np.random.default_rng(100 + n), 7, n).astype(np.float64)
    before = stack.copy()
    w = _scan_eigvalsh(stack)
    assert np.array_equal(stack, before)  # the sweeps run on copies
    for a, row, lapack in zip(stack, w, eigenvalues_stack(stack)):
        if n > spectra.JACOBI_MAX_ORDER:
            assert row.tolist() == lapack.tolist()
            continue
        m = a.copy()
        fro = math.sqrt(float((m * m).sum()))
        _, _, converged = _jacobi_sweeps(m, CONVERGENCE_RTOL * (1.0 + fro))
        assert converged
        assert row.tolist() == np.diag(m)[np.argsort(-np.diag(m), kind="stable")].tolist()


def test_stack_solve_of_empty_stacks():
    assert eigenvalues_stack(np.zeros((0, 3, 3))).shape == (0, 3)
    assert eigenvalues_stack(np.zeros((0, 9, 9))).shape == (0, 9)
    assert eigenvalues_stack(np.zeros((2, 0, 0))).shape == (2, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "asymmetric"])
@pytest.mark.parametrize("n", [2, 9], ids=["jacobi", "lapack"])
def test_stack_solve_rejects_what_symmetric_matrix_rejects(bad, n):
    stack = np.ones((3, n, n))
    if bad == "asymmetric":
        stack[1, 0, 1] = 0.0
    else:
        stack[1, 0, 1] = stack[1, 1, 0] = bad
    with pytest.raises(ValueError) as single:
        SymmetricMatrix(stack[1])
    with pytest.raises(ValueError) as stacked:
        eigenvalues_stack(stack)
    assert str(stacked.value) == str(single.value)
    assert str(single.value) in ("matrix entries must be finite", "matrix must be symmetric")


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (3,), (1, 2, 3, 3), ()])
def test_stack_solve_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"shape \(k, n, n\), got shape"):
        eigenvalues_stack(np.zeros(shape))


def test_char_poly_single_edge():
    # det(xI - A(K_2)) = x^2 - 1, expanded by hand
    assert char_poly(adjacency_matrix(complete_graph(2))).coefficients == (1, 0, -1)


def test_char_poly_looped_edge():
    # det(xI - [[1,1],[1,0]]) = x^2 - x - 1
    cp = char_poly(adjacency_matrix(with_loops(complete_graph(2), {0})))
    assert cp.coefficients == (1, -1, -1)


def test_char_poly_triangle():
    # (x-2)(x+1)^2 = x^3 - 3x - 2
    cp = char_poly(adjacency_matrix(complete_graph(3)))
    assert cp.coefficients == (1, 0, -3, -2)
    assert all(isinstance(c, int) for c in cp.coefficients)


def test_char_poly_rejects_empty():
    with pytest.raises(ValueError):
        char_poly(adjacency_matrix(empty_graph(0)))


def test_char_poly_requires_monic():
    with pytest.raises(ValueError):
        CharPoly((2, 1))


def test_char_poly_float_path_matches_eigenvalue_product():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, size=(5, 5))
    a = (a + a.T) / 2
    cp = char_poly(SymmetricMatrix(a))
    expected = np.poly(np.linalg.eigvalsh(a))
    assert np.allclose(cp.coefficients, expected, atol=1e-9)


@given(looped_graphs(min_n=1, max_n=6))
def test_char_poly_leading_terms(lg):
    m = adjacency_matrix(lg)
    cp = char_poly(m)
    assert cp.coefficients[0] == 1
    assert cp.coefficients[1] == -int(m.data.trace())
    assert len(cp.coefficients) - 1 == lg.n


def test_char_poly_matches_sympy_exactly():
    # independent oracle: every looped graph of order <= 4, then seeded
    # random looped 0/1 matrices of order 5-10
    matrices = [
        adjacency_matrix(with_loops(g, [i for i in range(n) if (mask >> i) & 1])).data
        for n in range(1, 5)
        for g in search.enumerate_graphs(n)
        for mask in range(1 << n)
    ]
    rng = np.random.default_rng(5)
    for n in range(5, 11):
        for _ in range(3):
            a = np.triu(rng.integers(0, 2, size=(n, n)))
            matrices.append(a + np.triu(a, 1).T)
    for a in matrices:
        coefficients = char_poly(SymmetricMatrix(a)).coefficients
        expected = sympy.Matrix(a.tolist()).charpoly().all_coeffs()
        assert list(coefficients) == [int(c) for c in expected]
        assert all(type(c) is int for c in coefficients)


def test_char_poly_evaluates_to_integer_on_integer_input():
    cp = char_poly(adjacency_matrix(complete_graph(3)))
    assert poly_at(cp.coefficients, 2) == 0
    assert poly_at(cp.coefficients, -1) == 0
    assert isinstance(poly_at(cp.coefficients, 5), int)


@settings(deadline=None)
@given(looped_graphs(min_n=1))
def test_trace_identity(lg):
    s = eigenvalues(adjacency_matrix(lg))
    assert abs(sum(s.values) - lg.sigma) <= 1e-9 * max(1.0, lg.sigma)


@settings(deadline=None)
@given(graphs(min_n=1, max_n=5))
def test_oracle_agreement_char_poly_at_eigenvalues(g):
    m = adjacency_matrix(g)
    cp = char_poly(m)
    bound = 1e-6 * (1 + np.linalg.norm(m.data)) ** g.n
    for v in eigenvalues(m):
        assert abs(poly_at(cp.coefficients, v)) <= bound


@settings(deadline=None)
@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
def test_block_diagonal_spectrum_is_union(a, b):
    joint = eigenvalues(adjacency_matrix(disjoint_union(a, b)))
    split = sorted(eigenvalues(adjacency_matrix(a)).values + eigenvalues(adjacency_matrix(b)).values,
                   reverse=True)
    assert np.allclose(joint.values, split, atol=1e-8)


@settings(deadline=None)
@given(looped_graphs(min_n=1), st.randoms(use_true_random=False))
def test_permutation_invariance(lg, rnd):
    perm = list(range(lg.n))
    rnd.shuffle(perm)
    original = eigenvalues(adjacency_matrix(lg))
    permuted = eigenvalues(adjacency_matrix(relabel_looped(lg, perm)))
    assert np.allclose(original.values, permuted.values, atol=1e-9)


@settings(deadline=None)
@given(
    graphs(min_n=1, max_n=6),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_shift_identity_against_solver(g, c):
    a = adjacency_matrix(g).data.astype(float)
    direct = eigenvalues(SymmetricMatrix(a + c * np.eye(g.n)))
    shifted = [v + c for v in eigenvalues(adjacency_matrix(g))]
    assert np.allclose(direct.values, shifted, atol=1e-9)


def test_path_spectrum_matches_closed_form():
    # eigenvalues of the n-path are 2cos(pi j / (n+1)), j = 1..n
    for n in range(1, 8):
        expected = sorted((2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)), reverse=True)
        got = eigenvalues(adjacency_matrix(path_graph(n)))
        assert np.allclose(got.values, expected, atol=1e-9)
