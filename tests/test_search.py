import hashlib
import json
import math
import multiprocessing
import operator
import os
import time
from collections import deque
from itertools import combinations, islice, permutations
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from exact_oracle import truly_equal
from helpers import disjoint_union, relabel
from loop_energy import (
    Graph,
    SearchConfig,
    SearchRecord,
    Spectrum,
    adjacency_matrix,
    complete_graph,
    energy_looped,
    energy_simple,
    enumerate_graphs,
    find_theorem_family_instances,
    from_graph6,
    scan,
    to_graph6,
    union_looped,
    verify_theorem1,
    with_all_loops,
    with_loops,
)
from loop_energy import energy, search, spectra
from loop_energy.graph6 import to_graph6_stack
from loop_energy.search import (
    EQUAL,
    LOOPED_GREATER,
    SIMPLE_GREATER,
    _classify,
    fmt10,
    to_jsonl,
    to_tsv,
)


def test_enumerate_counts_tiny():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)])
def test_enumerate_connected_count_matches_brute_force(n, count):
    # independent oracles: OEIS A001187 counts the connected labeled graphs, and
    # networkx connectivity over every edge subset picks them out (to order 5)
    kept = list(enumerate_graphs(n, connected_only=True))
    assert len(kept) == count
    if n > 5:
        return
    expected = []
    for mask in range(1 << (n * (n - 1) // 2)):
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(p for k, p in enumerate(combinations(range(n), 2)) if (mask >> k) & 1)
        if nx.is_connected(G):
            expected.append(frozenset(G.edges))
    assert [g.edges for g in kept] == expected


def test_enumerate_yields_each_graph_once():
    seen = set(enumerate_graphs(3))
    assert len(seen) == 8


def test_enumerate_rejects_out_of_cap():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))


def test_scan_record_count_all_sigma():
    records = list(scan(SearchConfig(n_min=2, n_max=3, sigma_policy="all")))
    assert len(records) == sum(2 ** (n * (n - 1) // 2) * 2**n for n in (2, 3))
    assert len(records) == 72
    full = list(scan(SearchConfig(n_min=1, n_max=3, sigma_policy="all")))
    assert len(full) == sum(2 ** (n * (n - 1) // 2) * 2**n for n in (1, 2, 3))


def test_scan_no_interior_sigma_at_order_one():
    assert list(scan(SearchConfig(n_min=1, n_max=1, sigma_policy="interior"))) == []


def test_scan_boundary_sigma_rows_classify_equal():
    for r in scan(SearchConfig(n_min=1, n_max=3, sigma_policy="all")):
        if r.sigma in (0, r.n):
            assert r.classification == EQUAL
            assert abs(r.gap) <= 1e-8


def test_scan_single_looped_edge_record():
    records = list(scan(SearchConfig(n_min=2, n_max=2, sigma_policy="interior")))
    hit = [r for r in records if r.graph6 == "A_" and r.loops == (0,)]
    assert len(hit) == 1
    r = hit[0]
    assert r.classification == LOOPED_GREATER
    assert abs(r.gap - (math.sqrt(5) - 2)) <= 1e-9


def test_scan_is_deterministic():
    cfg = SearchConfig(n_min=1, n_max=3, sigma_policy="all")
    first = "\n".join(to_tsv(scan(cfg)))
    second = "\n".join(to_tsv(scan(cfg)))
    assert first == second


def test_scan_worker_count_does_not_change_output():
    cfg = SearchConfig(n_min=1, n_max=4, sigma_policy="interior")
    serial = "\n".join(to_tsv(scan(cfg, workers=1)))
    parallel = "\n".join(to_tsv(scan(cfg, workers=2)))
    assert serial == parallel


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_to_order_four_matches_golden_digest(workers):
    # sha256 of `search --n-max 4` stdout, recorded before the scan kernel changes
    tsv = "".join(line + "\n" for line in to_tsv(scan(SearchConfig(n_max=4), workers=workers)))
    assert hashlib.sha256(tsv.encode("ascii")).hexdigest().startswith("61d229e17d63c75b")


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_of_order_six_matches_golden_digest(workers):
    # the header and first 50,000 records of `search --n-min 6 --n-max 6
    # --force-large`; order 6 goes to LAPACK, so this pins the bytes of the
    # numpy build in use (Jacobi prints 6 of these lines differently, in the
    # tenth digit of a gap)
    records = scan(SearchConfig(n_min=6, n_max=6), workers=workers)
    lines = islice(to_tsv(records), 50_001)
    tsv = "".join(line + "\n" for line in lines)
    records.close()
    assert hashlib.sha256(tsv.encode("ascii")).hexdigest().startswith("de80a017aa7a3a05")


@pytest.mark.parametrize(
    "stream, n, workers",
    [(scan, 5, 1), (scan, 5, 2), (scan, 6, 2), (find_theorem_family_instances, 5, None)],
    ids=["5-1", "5-2", "6-2", "family-5-1"],
)
def test_scan_draws_graphs_as_it_needs_them(monkeypatch, stream, n, workers):
    g = next(enumerate_graphs(n))
    drawn = []
    stacks = search._graph_stacks

    def counting(*args):
        for a in stacks(*args):
            drawn.append(len(a))
            yield a

    monkeypatch.setattr(search, "_graph_stacks", counting)
    config = SearchConfig(n_min=n, n_max=n)
    # the family takes no worker count: it streams serially
    records = stream(config) if workers is None else stream(config, workers=workers)
    first = next(records)
    start = time.perf_counter()
    records.close()
    # closing does not wait for the chunks still in flight
    assert time.perf_counter() - start < 0.5
    expected = g if stream is scan else disjoint_union(g, g)
    assert first.graph6 == to_graph6(expected)
    # the pool reads at most 2 * workers stacks of at most 64 graphs each
    assert 0 < sum(drawn) <= 256


def test_closing_a_pooled_scan_stops_its_workers(monkeypatch):
    # the workers may still hold stacks of the closed stream: none may run on
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    records = scan(SearchConfig(n_min=5, n_max=5), workers=2)
    next(records)
    assert multiprocessing.active_children()
    records.close()
    assert multiprocessing.active_children() == []


def test_a_pooled_kernel_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(TypeError, match="unsupported operand"):
        list(search._stream(SearchConfig(n_min=4, n_max=4), 2, operator.truediv))
    assert multiprocessing.active_children() == []


def test_a_killed_worker_ends_the_stream_instead_of_stalling_it(monkeypatch):
    # each worker has a pipe of its own: one killed mid-write holds no lock the
    # others or the stream need, so the stream raises and stops the rest
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    records = scan(SearchConfig(n_min=6, n_max=6), workers=2)
    next(records)
    multiprocessing.active_children()[0].kill()
    with pytest.raises((EOFError, OSError)):
        list(records)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, 1000])
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, workers):
    # an in-process pool records the size it is asked for, so that a broken cap
    # starts no process at all
    sizes = []

    class InProcess:
        # a process and its pipe in one: send runs the kernel, recv returns its records
        def __init__(self, kernel, config):
            self.run = lambda a: kernel(a, config)
            self.out = deque()

        def send(self, a):
            self.out.append(self.run(a))

        def recv(self):
            return self.out.popleft()

        def kill(self):
            pass

        join = close = kill

    def recording_pool(pool, processes, kernel, config):
        sizes.append(processes)
        pool.extend((p, p) for p in (InProcess(kernel, config) for _ in range(processes)))

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(search, "_start_pool", recording_pool)
    config = SearchConfig(n_max=4)
    assert list(scan(config, workers=workers)) == list(scan(config))
    assert sizes == [3]


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_builds_no_graph_objects(monkeypatch, workers):
    # the stream runs on edge-bitmask stacks; Graph is the reference layer only
    def refuse(*args, **kwargs):
        raise AssertionError("Graph built on the scan path")

    # on the class, so a Graph built through any module is refused
    monkeypatch.setattr(Graph, "__post_init__", refuse)
    config = SearchConfig(n_max=4)
    graphs_of = {n: 2 ** (n * (n - 1) // 2) for n in range(1, 5)}
    assert len(list(scan(config, workers=workers))) == sum(
        k * (2**n - 2) for n, k in graphs_of.items())
    assert len(list(find_theorem_family_instances(config))) == sum(
        graphs_of.values())
    with pytest.raises(AssertionError, match="scan path"):  # the patch does take effect
        next(enumerate_graphs(1))


def _connected(g6: str, order: int) -> bool:
    # independent oracle: networkx connectivity of the first `order` vertices
    return nx.is_connected(nx.from_graph6_bytes(g6.encode()).subgraph(range(order)))


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_connected_only_keeps_the_connected_records(workers):
    every = list(scan(SearchConfig(n_max=4), workers=workers))
    kept = list(scan(SearchConfig(n_max=4, connected_only=True), workers=workers))
    assert kept == [r for r in every if _connected(r.graph6, r.n)]
    assert {r.graph6 for r in kept} != {r.graph6 for r in every}


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize(
    "render, digest",
    [(to_jsonl, "24ce849e0afdd871"), (lambda records: to_tsv(records, True), "98457e81f84d6d78")],
    ids=["jsonl", "tsv"],
)
def test_family_to_union_order_eight_matches_golden_digest(monkeypatch, render, digest, size):
    # sha256 of `search --family thm1 --n-min 2 --n-max 8` stdout; the unions of
    # order 6 and 8 go to LAPACK, and rounding noise prints as 0, so Jacobi
    # prints the same bytes (test_stdout_is_the_same_on_either_backend). The
    # bases are drawn in stacks of `size`, not CHUNK_MAX: the bytes do not
    # depend on how many bases one kernel call solves
    stacks = search._graph_stacks
    monkeypatch.setattr(search, "_graph_stacks",
                        lambda n, connected_only, _=search.CHUNK_MAX: stacks(n, connected_only, size))
    records = find_theorem_family_instances(SearchConfig(n_min=1, n_max=4))
    text = "".join(line + "\n" for line in render(records))
    assert hashlib.sha256(text.encode("ascii")).hexdigest().startswith(digest)


def test_family_scan_connected_only_keeps_the_connected_bases():
    every = list(find_theorem_family_instances(SearchConfig(n_max=4)))
    kept = list(find_theorem_family_instances(SearchConfig(n_max=4, connected_only=True)))
    assert kept == [r for r in every if _connected(r.graph6, r.n // 2)]
    assert 0 < len(kept) < len(every)


def test_family_scan_rejects_sigma_all():
    # the family fixes n loops on 2n vertices; "all" must not pass silently
    with pytest.raises(ValueError, match="sigma_policy 'all'"):
        find_theorem_family_instances(SearchConfig(n_min=1, n_max=2, sigma_policy="all"))


def test_family_scan_finds_triangle_instance():
    records = list(find_theorem_family_instances(SearchConfig(n_min=3, n_max=3)))
    assert len(records) == 8
    hits = [r for r in records if r.graph6 == "EwCW"]
    assert len(hits) == 1
    r = hits[0]
    assert r.classification == EQUAL
    assert r.condition_met is True
    assert r.loops == (3, 4, 5) and r.sigma == 3 and r.n == 6
    assert abs(r.e_looped - 8.0) <= 1e-8


def test_family_scan_condition_true_implies_equal():
    for r in find_theorem_family_instances(SearchConfig(n_min=1, n_max=4)):
        if r.condition_met:
            assert r.classification == EQUAL


def test_family_unions_of_order_ten_are_exactly_equal():
    # order-10 unions are solved by LAPACK; the exact oracle checks the verdicts
    records = find_theorem_family_instances(SearchConfig(n_min=5, n_max=5))
    hits = [r for r in records if r.condition_met][:10]
    assert len(hits) == 10
    for r in hits:
        assert r.n == 10
        assert r.classification == EQUAL
        assert abs(r.gap) <= 1e-12
        assert truly_equal(with_loops(from_graph6(r.graph6), r.loops))


def test_family_scan_single_edge_base():
    records = list(find_theorem_family_instances(SearchConfig(n_min=2, n_max=2)))
    hit = [r for r in records if r.condition_met]
    assert len(hit) == 1
    assert hit[0].classification == EQUAL
    assert abs(hit[0].e_looped - 4.0) <= 1e-8


def test_family_scan_three_path_base():
    records = list(find_theorem_family_instances(SearchConfig(n_min=3, n_max=3)))
    path_energy = 4 * math.sqrt(2)  # union of two copies, closed-form path spectrum
    hits = [r for r in records if abs(r.e_simple - path_energy) <= 1e-9]
    assert len(hits) == 3  # the three labelings of the 3-path
    for r in hits:
        assert r.condition_met is False
        assert r.classification == LOOPED_GREATER
        assert abs(r.gap - 1.0) <= 1e-9


def test_family_records_are_the_verify_theorem1_verdicts():
    bases = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    records = list(find_theorem_family_instances(SearchConfig(n_min=1, n_max=4)))
    assert len(records) == len(bases)
    for g, r in zip(bases, records):
        # the object union, built and solved on its own, gives the expected floats
        union = union_looped([with_loops(g, ()), with_all_loops(g)])
        assert r.graph6 == to_graph6(disjoint_union(g, g))
        assert (r.e_looped, r.e_simple) == (energy_looped(union).energy,
                                            2 * energy_simple(g).energy)
        assert r.condition_met is verify_theorem1(g).condition_holds


def test_family_scan_solves_twice_per_record(monkeypatch):
    # two matrices of each record reach the stack solve: the base graph of
    # order n / 2 and the union of order n
    orders = []
    solve = energy.eigenvalues_stack

    def counting(stack):
        orders.extend([stack.shape[1]] * len(stack))
        return solve(stack)

    monkeypatch.setattr(energy, "eigenvalues_stack", counting)
    records = list(find_theorem_family_instances(SearchConfig(n_min=1, n_max=3)))
    assert len(orders) == 2 * len(records)
    assert sorted(orders) == sorted(n for r in records for n in (r.n // 2, r.n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(graphs(n, n), min_size=1, max_size=3)),
       st.sampled_from(["interior", "all"]))
def test_scan_kernel_records_match_the_object_path(chunk, sigma_policy):
    # the object path solves with the scan's solver here, so that equal floats
    # pin the kernel's loop diagonals, shifts and summation order at every order
    def scan_eigenvalues(m):
        values = spectra._scan_eigvalsh(m.data[np.newaxis].astype(float))[0]
        return Spectrum(tuple(values.tolist()))

    stack = np.array([adjacency_matrix(g).data for g in chunk], dtype=float)
    config = SearchConfig(sigma_policy=sigma_policy)
    expected = []
    with mock.patch.object(energy, "eigenvalues", scan_eigenvalues):
        for g in chunk:
            e_simple = energy_simple(g).energy
            for mask in range(1 << g.n):
                loops = tuple(i for i in range(g.n) if (mask >> i) & 1)
                if sigma_policy == "all" or 0 < len(loops) < g.n:
                    e_looped = energy_looped(with_loops(g, loops)).energy
                    expected.append(search._record(to_graph6(g), loops, g.n, e_simple, e_looped))
    assert search._scan_kernel(stack, config) == expected


def test_classification_is_relabeling_invariant():
    def gap(g, loops):
        return energy_looped(with_loops(g, loops)).energy - energy_simple(g).energy

    g = complete_graph(2)
    permuted = relabel(g, [1, 0])
    assert abs(gap(permuted, {1}) - gap(g, {0})) <= 1e-9


# identities between the scan's own records: no second solver is consulted
def _same_energies(r: SearchRecord, s: SearchRecord) -> bool:
    return all(abs(x - y) <= 1e-12 * (1 + x)
               for x, y in [(r.e_simple, s.e_simple), (r.e_looped, s.e_looped)])


def _complement_pairs(records):
    """Each record with the record of its graph under the complementary loop
    set, once per unordered pair."""
    records = list(records)
    by_key = {(r.graph6, r.loops): r for r in records}
    for r in records:
        rest = tuple(i for i in range(r.n) if i not in r.loops)
        if r.loops < rest:
            yield r, by_key[r.graph6, rest]


def test_bipartite_graphs_keep_their_energy_under_the_complementary_loop_set():
    # a 2-colouring's signs D give D A D = -A, so A + I_{S^c} has the spectrum
    # 1 - spec(A + I_S), and the shifts (n - sigma)/n and sigma/n make E(G_S) = E(G_{S^c})
    def bipartite(g6):
        return nx.is_bipartite(nx.from_graph6_bytes(g6.encode()))

    small = list(_complement_pairs(scan(SearchConfig(n_max=4))))
    others = [(r, s) for r, s in small if not bipartite(r.graph6)]
    small = [(r, s) for r, s in small if bipartite(r.graph6)]
    five = np.concatenate(list(search._graph_stacks(5, False)))
    five = five[[nx.is_bipartite(nx.from_numpy_array(a)) for a in five]]
    order5 = list(_complement_pairs(search._scan_kernel(five, SearchConfig())))
    assert (len(small), len(five), len(order5), len(others)) == (310, 376, 5640, 164)
    assert all(_same_energies(r, s) for r, s in small + order5)
    # teeth: off the bipartite graphs most complementary placements move the energy
    assert sum(not _same_energies(r, s) for r, s in others) == 149
    # order 6 runs the LAPACK branch of _scan_eigvalsh: every 32nd stack, 1,024 graphs
    six = np.concatenate(list(islice(search._graph_stacks(6, False), 0, None, 32)))
    order6 = list(_complement_pairs(search._scan_kernel(six, SearchConfig())))
    colourable = {g6: bipartite(g6) for g6 in {r.graph6 for r, _ in order6}}
    others6 = [(r, s) for r, s in order6 if not colourable[r.graph6]]
    order6 = [(r, s) for r, s in order6 if colourable[r.graph6]]
    assert (len(six), sum(colourable.values())) == (1024, 511)
    assert (len(order6), len(others6)) == (15841, 15903)
    assert all(_same_energies(r, s) for r, s in order6)
    assert sum(not _same_energies(r, s) for r, s in others6) == 15542


def test_relabelled_records_keep_their_energies_and_class():
    # a vertex permutation is a similarity of the adjacency matrix, loops included
    records = list(scan(SearchConfig(n_max=4)))
    by_key = {(r.graph6, r.loops): r for r in records}
    checked = 0
    for r in records:
        g = from_graph6(r.graph6)
        for perm in permutations(range(r.n)):
            s = by_key[to_graph6(relabel(g, perm)), tuple(sorted(perm[i] for i in r.loops))]
            assert _same_energies(r, s) and s.classification == r.classification
            checked += 1
    assert checked == 21800


def test_relabelled_order_six_records_keep_their_energies_and_class():
    # order 6 runs the LAPACK branch of _scan_eigvalsh: every 32nd stack, 1,024
    # graphs, each solved again with its vertices relabeled by one seeded permutation
    perm = np.random.default_rng(6).permutation(6)
    six = np.concatenate(list(islice(search._graph_stacks(6, False), 0, None, 32)))
    inverse = np.argsort(perm)
    moved = six[:, inverse][:, :, inverse]  # vertex i of a graph becomes vertex perm[i]
    image = dict(zip(to_graph6_stack(six), to_graph6_stack(moved)))
    by_key = {(r.graph6, r.loops): r for r in search._scan_kernel(moved, SearchConfig())}
    records = search._scan_kernel(six, SearchConfig())
    for r in records:
        s = by_key[image[r.graph6], tuple(sorted(int(perm[i]) for i in r.loops))]
        assert _same_energies(r, s) and s.classification == r.classification
    assert (len(records), len(by_key)) == (1024 * 62, 1024 * 62)
    # teeth: the permutation moves most graphs and loop sets
    assert sum(g != h for g, h in image.items()) == 1022


def test_classify_bands():
    assert _classify(1.0, 1.0) == (EQUAL, False, 0.0)
    label, suspect, gap = _classify(1.0, 1.0 + 5e-7)
    assert label == LOOPED_GREATER and suspect and abs(gap - 5e-7) < 1e-12
    label, suspect, _ = _classify(1.0, 1.0 - 5e-3)
    assert label == SIMPLE_GREATER and not suspect
    # the exact boundary, shared with TheoremVerdict.gap_within_tolerance
    e = 8.0
    bound = energy.EQ_TOL * (1 + e)
    # a verdict stores |gap| as given: the bound itself passes, the next float fails
    verdicts = [energy.TheoremVerdict(True, e + gap, e, gap, None)
                for gap in (bound, math.nextafter(bound, 1.0))]
    assert [v.gap_within_tolerance() for v in verdicts] == [True, False]
    # a record's gap is e_looped - e on the float grid near e (e + bound itself
    # rounds): on each side the last float within the bound is EQUAL, the next is not
    for sign, unequal in ((1, LOOPED_GREATER), (-1, SIMPLE_GREATER)):
        inside = e + sign * bound
        while abs(inside - e) > bound:
            inside = math.nextafter(inside, e)
        outside = math.nextafter(inside, sign * math.inf)
        assert _classify(e, inside) == (EQUAL, False, inside - e)
        assert _classify(e, outside) == (unequal, True, outside - e)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_min=0, n_max=3)
    with pytest.raises(ValueError):
        SearchConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError):
        SearchConfig(n_min=1, n_max=9)
    with pytest.raises(ValueError):
        SearchConfig(sigma_policy="some")
    with pytest.raises(ValueError, match="n_max 4.0 is not an integer"):
        SearchConfig(n_max=4.0)
    config = SearchConfig(n_min=True, n_max=np.int64(3))
    assert (config.n_min, config.n_max) == (1, 3)
    assert type(config.n_min) is int and type(config.n_max) is int
    with pytest.raises(ValueError, match="connected_only must be a bool, got 'yes'"):
        SearchConfig(connected_only="yes")
    assert SearchConfig(connected_only=True).connected_only is True
    # the EQUAL rule is fixed: no config field sets a tolerance
    with pytest.raises(TypeError):
        SearchConfig(eq_tol=1e-9)


@pytest.mark.parametrize("workers", ["2", 2.0, None])
def test_scan_worker_count_must_be_an_integer(workers):
    # raised at the call, before any stack is drawn
    with pytest.raises(ValueError, match=f"workers {workers!r} is not an integer"):
        scan(SearchConfig(n_max=2), workers=workers)


def test_tsv_shape():
    cfg = SearchConfig(n_min=2, n_max=2, sigma_policy="interior")
    lines = list(to_tsv(scan(cfg)))
    assert lines[0] == "graph6\tloops\tsigma\tn\te_simple\te_looped\tgap\tclass"
    for line in lines[1:]:
        assert len(line.split("\t")) == 8


def test_tsv_marks_suspect_records():
    record = SearchRecord(
        graph6="A_", loops=(0,), sigma=1, n=2, e_simple=2.0,
        e_looped=2.0 + 5e-7, gap=5e-7, classification=LOOPED_GREATER, suspect=True,
    )
    lines = list(to_tsv([record]))
    assert lines[1].split("\t")[7] == "LOOPED_GREATER;SUSPECT"


@pytest.mark.parametrize("gap, printed", [(-3e-12, "0.000000000"), (4e-12, "4.000000000e-12")])
def test_gap_of_rounding_noise_prints_as_zero(gap, printed):
    # the cut is 1e-12 * (1 + e_simple) = 3e-12; the class is left as computed
    record = SearchRecord(graph6="A_", loops=(0,), sigma=1, n=2, e_simple=2.0,
                          e_looped=2.0 + gap, gap=gap, classification=EQUAL)
    assert list(to_tsv([record]))[1].split("\t")[6:] == [printed, "EQUAL"]
    assert json.loads(next(to_jsonl([record])))["gap"] == float(printed)


def test_jsonl_records_parse():
    cfg = SearchConfig(n_min=2, n_max=2, sigma_policy="interior")
    for line in to_jsonl(scan(cfg)):
        obj = json.loads(line)
        assert set(obj) == {
            "graph6", "loops", "sigma", "n", "e_simple", "e_looped", "gap",
            "class", "suspect",
        }


def test_fmt10_examples():
    assert fmt10(4.0) == "4.000000000"
    assert fmt10(0.5) == "0.5000000000"
    assert fmt10(-1.0) == "-1.000000000"
    assert fmt10(-0.0) == "0.000000000"
    assert fmt10(math.sqrt(5) - 2) == "0.2360679775"
