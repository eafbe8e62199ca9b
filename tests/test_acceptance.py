"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

from exact_oracle import truly_equal
from helpers import poly_at
from loop_energy import (
    SearchConfig,
    SymmetricMatrix,
    adjacency_matrix,
    char_poly,
    complete_graph,
    energy_looped,
    energy_simple,
    enumerate_graphs,
    find_theorem_family_instances,
    from_graph6,
    scan,
    union_family_energy,
    union_looped,
    verify_theorem1,
    verify_theorem2,
    with_all_loops,
    with_loops,
)
from loop_energy.search import to_tsv
from loop_energy.spectra import JACOBI_MAX_ORDER, _scan_eigvalsh


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_example_reproduction():
    with criterion(1, "example reproduction"):
        k3 = complete_graph(3)
        assert abs(energy_simple(k3).energy - 4.0) <= 1e-9

        h3 = union_looped([with_loops(k3, ()), with_all_loops(k3)])
        report = energy_looped(h3)
        assert abs(report.energy - 8.0) <= 1e-8
        assert np.allclose(report.spectrum.values, [3, 2, 0, 0, -1, -1], atol=1e-9)


def test_criterion_2_doubling_identity_exhaustive_to_order_six():
    with criterion(2, "doubling identity, all graphs n <= 6"):
        checked = 0
        violations = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                verdict = verify_theorem1(g)
                if not verdict.condition_holds:
                    continue
                checked += 1
                if verdict.abs_gap > 1e-8 * (1 + verdict.rhs_energy):
                    violations += 1
        assert checked > 0
        assert violations == 0


def test_criterion_3_scaled_union_sweep_with_closed_form_oracle():
    with criterion(3, "scaled-union sweep and closed-form oracle"):
        pq = [(p, q) for p in range(4) for q in range(4) if p + q >= 1]
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                base_spectrum = energy_simple(g).spectrum
                for p, q in pq:
                    verdict = verify_theorem2(g, p, q)
                    if verdict.condition_holds:
                        assert verdict.abs_gap <= 1e-8 * (1 + verdict.rhs_energy)
                    oracle = union_family_energy(base_spectrum, p, q)
                    assert abs(oracle - verdict.lhs_energy) <= 1e-8


def test_criterion_4_boundary_sigma_identity():
    with criterion(4, "sigma boundary identity, all graphs n <= 5"):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                e = energy_simple(g).energy
                assert abs(energy_looped(with_loops(g, ())).energy - e) <= 1e-8
                assert abs(energy_looped(with_all_loops(g)).energy - e) <= 1e-8


def test_criterion_5_eigensolver_soundness():
    with criterion(5, "eigensolver residuals and exact polynomial oracle"):
        rng = np.random.default_rng(20240901)
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a = (a + a.T) / 2
            m = SymmetricMatrix(a)
            w, v = np.linalg.eigh(m.data)
            fro = np.linalg.norm(m.data)
            residuals = np.linalg.norm(a @ v - v * w, axis=0)
            assert residuals.max() <= 1e-9 * (1 + fro)
            trace = float(a.trace())
            assert abs(w.sum() - trace) <= 1e-9 * (1 + abs(trace))
            # eigh is LAPACK: an independent check of the scan's Jacobi
            if n <= JACOBI_MAX_ORDER:
                got = _scan_eigvalsh(a[np.newaxis])[0]
                assert np.abs(got - w[::-1]).max() <= 1e-9 * (1 + fro)

        for n in range(1, 7):
            for g in enumerate_graphs(n):
                m = adjacency_matrix(g)
                cp = char_poly(m)
                assert all(isinstance(c, int) for c in cp.coefficients)
                bound = 1e-6 * (1 + np.linalg.norm(m.data)) ** n
                for lam in energy_simple(g).spectrum:
                    assert abs(poly_at(cp.coefficients, lam)) <= bound


def test_criterion_6_search_discovery_and_exact_recheck():
    with criterion(6, "search discovery with exact recheck"):
        family = list(find_theorem_family_instances(SearchConfig(n_min=3, n_max=3)))
        hits = [r for r in family if r.classification == "EQUAL" and r.condition_met]
        assert len(hits) == 1
        assert abs(hits[0].e_looped - 8.0) <= 1e-8
        assert hits[0].graph6 == "EwCW" and hits[0].loops == (3, 4, 5)

        false_equals = 0
        rechecked = 0
        for record in scan(SearchConfig(n_min=1, n_max=4, sigma_policy="interior")):
            if record.classification != "EQUAL" and not record.suspect:
                continue
            rechecked += 1
            lg = with_loops(from_graph6(record.graph6), record.loops)
            exact = truly_equal(lg)
            if record.classification == "EQUAL" and not exact:
                false_equals += 1
        assert rechecked > 0
        assert false_equals == 0


def test_criterion_7_search_determinism_across_worker_counts():
    with criterion(7, "byte-identical search output for any worker count"):
        config = SearchConfig(n_min=1, n_max=4, sigma_policy="interior")
        serial = "\n".join(to_tsv(scan(config, workers=1))).encode()
        parallel = "\n".join(to_tsv(scan(config, workers=3))).encode()
        assert serial == parallel

        argv = [sys.executable, "-m", "loop_energy", "search",
                "--n-min", "1", "--n-max", "4", "--sigma", "interior"]
        outputs = []
        for threads in ("1", "3"):
            env = dict(os.environ, LOOP_ENERGY_THREADS=threads)
            proc = subprocess.run(argv, capture_output=True, env=env)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
