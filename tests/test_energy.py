import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, looped_graphs
from helpers import disjoint_union, empty_graph, path_graph, relabel_looped
from loop_energy import energy
from loop_energy import (
    complete_graph,
    energy_looped,
    energy_simple,
    enumerate_graphs,
    union_family_energy,
    union_looped,
    verify_theorem1,
    verify_theorem2,
    with_all_loops,
    with_loops,
)

GOLDEN_RATIO_ROOTS = ((1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2)


def test_energy_of_triangle():
    report = energy_simple(complete_graph(3))
    assert abs(report.energy - 4.0) <= 1e-9
    assert report.sigma == 0 and report.shift == 0.0


@pytest.mark.parametrize("n", [0, 1, 4])
def test_energy_of_edgeless_graph_is_zero(n):
    assert energy_simple(empty_graph(n)).energy == 0.0


def test_energy_of_three_path():
    # closed-form spectrum 2cos(pi j/4): energy sqrt(2) + 0 + sqrt(2)
    expected = sum(abs(2 * math.cos(math.pi * j / 4)) for j in (1, 2, 3))
    assert abs(energy_simple(path_graph(3)).energy - expected) <= 1e-9
    assert abs(expected - 2 * math.sqrt(2)) <= 1e-15


def test_energy_of_example_union():
    k3 = complete_graph(3)
    h3 = union_looped([with_loops(k3, ()), with_all_loops(k3)])
    report = energy_looped(h3)
    # |3-1/2| + |2-1/2| + 2|-1-1/2| + 2|0-1/2|
    assert abs(report.energy - 8.0) <= 1e-8
    assert report.shift == 0.5 and report.sigma == 3


def test_energy_looped_sigma_zero_equals_simple():
    for g in (complete_graph(4), path_graph(5), empty_graph(3)):
        assert abs(energy_looped(with_loops(g, ())).energy - energy_simple(g).energy) <= 1e-9


def test_energy_of_looped_single_edge():
    # eigenvalues of [[1,1],[1,0]] are (1 +- sqrt(5))/2; shift 1/2
    expected = sum(abs(r - 0.5) for r in GOLDEN_RATIO_ROOTS)
    report = energy_looped(with_loops(complete_graph(2), {0}))
    assert abs(report.energy - expected) <= 1e-9
    assert abs(expected - math.sqrt(5)) <= 1e-15


@settings(deadline=None)
@given(looped_graphs())
def test_report_energy_recomputable_from_fields(lg):
    report = energy_looped(lg)
    recomputed = sum(abs(v - report.shift) for v in report.spectrum)
    assert abs(report.energy - recomputed) <= lg.n * 1e-12
    assert 0.0 <= report.shift <= 1.0


def test_condition_on_triangle_holds():
    verdict = verify_theorem1(complete_graph(3))
    assert verdict.condition_holds and verdict.witness is None


def test_condition_on_three_path_fails_with_zero_witness():
    verdict = verify_theorem1(path_graph(3))
    assert not verdict.condition_holds
    assert abs(verdict.witness) <= 1e-9


def test_condition_on_single_edge_holds():
    assert verify_theorem1(complete_graph(2)).condition_holds


def test_verify_doubling_on_triangle():
    v = verify_theorem1(complete_graph(3))
    assert v.condition_holds
    assert abs(v.lhs_energy - 8.0) <= 1e-8
    assert abs(v.rhs_energy - 8.0) <= 1e-8
    assert v.gap_within_tolerance()


def test_verify_doubling_on_single_edge():
    # union spectrum {1,-1} + {2,0}, shift 1/2: 0.5 + 1.5 + 1.5 + 0.5 = 4
    v = verify_theorem1(complete_graph(2))
    assert v.condition_holds
    assert abs(v.lhs_energy - 4.0) <= 1e-8
    assert abs(v.rhs_energy - 4.0) <= 1e-8


def test_verify_doubling_on_three_path_fails_condition():
    v = verify_theorem1(path_graph(3))
    assert not v.condition_holds
    assert v.witness is not None
    assert abs(v.lhs_energy - (4 * math.sqrt(2) + 1)) <= 1e-9
    assert abs(v.rhs_energy - 4 * math.sqrt(2)) <= 1e-9
    assert abs(v.abs_gap - 1.0) <= 1e-9


def test_scaled_union_with_one_copy_each_matches_doubling():
    v1 = verify_theorem1(complete_graph(3))
    v2 = verify_theorem2(complete_graph(3), 1, 1)
    assert v1 == v2


def test_scaled_union_two_plain_one_looped_triangle():
    v = verify_theorem2(complete_graph(3), 2, 1)
    assert v.condition_holds  # min |lambda| = 1 >= max(2/3, 1/3)
    assert abs(v.rhs_energy - 12.0) <= 1e-8
    assert abs(v.lhs_energy - 12.0) <= 1e-8


def test_scaled_union_one_plain_three_looped_edge():
    v = verify_theorem2(complete_graph(2), 1, 3)
    assert v.condition_holds  # min |lambda| = 1 >= max(1/4, 3/4)
    assert abs(v.rhs_energy - 8.0) <= 1e-8
    assert abs(v.lhs_energy - 8.0) <= 1e-8


def test_scaled_union_rejects_no_copies():
    with pytest.raises(ValueError):
        verify_theorem2(complete_graph(2), 0, 0)
    with pytest.raises(ValueError):
        verify_theorem2(complete_graph(2), -1, 2)
    with pytest.raises(ValueError, match="copy count p 1.0 is not an integer"):
        verify_theorem2(complete_graph(3), 1.0, 1)
    with pytest.raises(ValueError, match="copy count q '2' is not an integer"):
        verify_theorem2(complete_graph(3), 1, "2")
    # numpy integers are integers, converted once: no numpy scalar reaches the verdict
    v = verify_theorem2(complete_graph(3), np.int64(2), np.int32(1))
    assert v == verify_theorem2(complete_graph(3), 2, 1)
    assert {type(x) for x in (v.lhs_energy, v.rhs_energy, v.abs_gap)} == {float}


def test_verify_theorem2_rejects_union_above_order_limit(monkeypatch):
    # 2049 copies of an edge make 4098 vertices; refused before any copy is built
    def no_union(a, p, q):
        raise AssertionError("union built before the order check")

    monkeypatch.setattr(energy, "_union_stack", no_union)
    with pytest.raises(ValueError, match="4096"):
        verify_theorem2(complete_graph(2), 2049, 0)


def test_order_zero_union_takes_no_step_per_copy():
    # 10^12 copies of the empty graph are the empty graph, built in one step
    assert verify_theorem2(empty_graph(0), 10**12, 1) == verify_theorem2(empty_graph(0), 1, 1)
    assert energy._union_stack(np.zeros((3, 0, 0)), 10**12, 10**12).shape == (3, 0, 0)


def test_verify_theorem2_is_the_object_union_composition():
    # the union built as a LoopedGraph and solved on its own is the reference:
    # every field derived from it must come out float for float
    pq = [(p, q) for p in range(4) for q in range(4) if p + q >= 1]
    for g in [empty_graph(0)] + [g for n in range(1, 5) for g in enumerate_graphs(n)]:
        e = energy_simple(g).energy
        for p, q in pq:
            parts = [with_loops(g, ()) for _ in range(p)] + [with_all_loops(g) for _ in range(q)]
            lhs = energy_looped(union_looped(parts)).energy
            v = verify_theorem2(g, p, q)
            assert (v.lhs_energy, v.rhs_energy, v.abs_gap) == (lhs, (p + q) * e,
                                                               abs(lhs - (p + q) * e))


def _energy_gap(g, loops):
    return energy_looped(with_loops(g, loops)).energy - energy_simple(g).energy


def test_energy_gap_examples():
    h = disjoint_union(complete_graph(3), complete_graph(3))
    assert abs(_energy_gap(h, {3, 4, 5})) <= 1e-8
    assert abs(_energy_gap(path_graph(4), ())) <= 1e-9
    assert abs(_energy_gap(complete_graph(2), {0}) - (math.sqrt(5) - 2)) <= 1e-9


def test_closed_form_union_energy_matches_pipeline():
    for g in (complete_graph(3), path_graph(4), empty_graph(2)):
        base = energy_simple(g).spectrum
        for p, q in ((1, 1), (2, 1), (0, 2), (3, 2)):
            parts = [with_loops(g, ()) for _ in range(p)] + [
                with_all_loops(g) for _ in range(q)
            ]
            direct = energy_looped(union_looped(parts)).energy
            assert abs(union_family_energy(base, p, q) - direct) <= 1e-8


def test_closed_form_union_energy_rejects_no_copies():
    with pytest.raises(ValueError):
        union_family_energy(energy_simple(complete_graph(2)).spectrum, 0, 0)
    # not a silent 10.0 from 1.5 plain copies
    with pytest.raises(ValueError, match="copy count p 1.5 is not an integer"):
        union_family_energy([2, -1, -1], 1.5, 1)


@settings(deadline=None)
@given(looped_graphs(min_n=1))
def test_shifted_sum_is_zero(lg):
    report = energy_looped(lg)
    assert abs(sum(v - report.shift for v in report.spectrum)) <= lg.n * 1e-9
    spread = max(report.spectrum) - report.shift
    assert report.energy >= max(abs(v - report.shift) for v in report.spectrum) - 1e-12
    assert report.energy >= 2 * max(0.0, spread) - 1e-9


@settings(deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_boundary_sigma_identity(g):
    e = energy_simple(g).energy
    assert abs(energy_looped(with_loops(g, ())).energy - e) <= 1e-9
    assert abs(energy_looped(with_all_loops(g)).energy - e) <= 1e-8


def test_boundary_sigma_identity_exhaustive_to_order_six():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            e = energy_simple(g).energy
            assert abs(energy_looped(with_loops(g, ())).energy - e) <= 1e-9
            assert abs(energy_looped(with_all_loops(g)).energy - e) <= 1e-8


def test_scaled_union_equality_exhaustive_to_order_five():
    # every condition-true (graph, p, q) must satisfy the identity; the
    # condition is checked on the base spectrum first so only passing cases
    # pay for the union eigensolve
    pq = [(p, q) for p in range(4) for q in range(4) if p + q >= 1]
    checked = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            min_abs = min(abs(v) for v in energy_simple(g).spectrum)
            for p, q in pq:
                if min_abs < max(p, q) / (p + q) - 1e-9:
                    continue
                verdict = verify_theorem2(g, p, q)
                assert verdict.condition_holds
                assert verdict.abs_gap <= 1e-8 * (1 + verdict.rhs_energy)
                checked += 1
    assert checked > 0


@settings(deadline=None)
@given(looped_graphs(min_n=1), st.randoms(use_true_random=False))
def test_energy_permutation_invariance(lg, rnd):
    perm = list(range(lg.n))
    rnd.shuffle(perm)
    assert abs(
        energy_looped(relabel_looped(lg, perm)).energy - energy_looped(lg).energy
    ) <= 1e-9


@settings(deadline=None)
@given(graphs(max_n=5), graphs(max_n=5))
def test_union_additivity_without_loops(a, b):
    combined = energy_simple(disjoint_union(a, b)).energy
    assert abs(combined - energy_simple(a).energy - energy_simple(b).energy) <= 1e-9


def test_empty_graph_report_conventions():
    report = energy_looped(with_loops(empty_graph(0), ()))
    assert report.energy == 0.0 and report.shift == 0.0 and report.n == 0


def test_energy_sum_adds_left_to_right():
    # builtin sum compensates since Python 3.12 and gives 1.0000000000000002 here
    assert energy._energy_sum([1.0, 1e-16, 1e-16], 0.0) == 1.0
    assert energy._energy_sum([0.25, -1.0], 0.5) == 1.75
    assert energy._energy_sum((), 0.5) == 0.0


def test_energy_sum_of_transposed_rows_is_the_sum_of_each_row():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(50, 7))
    shifts = rng.integers(0, 8, size=50) / 7
    got = energy._energy_sum(rows.T, shifts).tolist()
    assert got == [energy._energy_sum(r, s) for r, s in zip(rows.tolist(), shifts.tolist())]
