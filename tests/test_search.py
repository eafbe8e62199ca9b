import hashlib
import json
import math
from itertools import combinations

import networkx as nx
import pytest

from exact_oracle import truly_equal
from loop_energy import (
    SearchConfig,
    SearchRecord,
    complete_graph,
    disjoint_union,
    energy_gap,
    enumerate_graphs,
    find_theorem_family_instances,
    from_graph6,
    relabel,
    scan,
    to_graph6,
    verify_theorem1,
    with_loops,
)
from loop_energy import energy, search
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


def test_enumerate_connected_count_matches_brute_force():
    # independent oracle: connectivity via networkx over every edge subset
    pairs = list(combinations(range(4), 2))
    expected = 0
    for mask in range(1 << len(pairs)):
        G = nx.Graph()
        G.add_nodes_from(range(4))
        G.add_edges_from(p for k, p in enumerate(pairs) if (mask >> k) & 1)
        if nx.is_connected(G):
            expected += 1
    assert expected == 38
    assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == expected


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


@pytest.mark.parametrize("n, workers", [(5, 1), (5, 2), (6, 2)])
def test_scan_draws_graphs_as_it_needs_them(monkeypatch, n, workers):
    drawn = []
    enumerate_all = search.enumerate_graphs

    def counting(n, connected_only=False):
        for g in enumerate_all(n, connected_only):
            drawn.append(g)
            yield g

    monkeypatch.setattr(search, "enumerate_graphs", counting)
    records = scan(SearchConfig(n_min=n, n_max=n), workers=workers)
    first = next(records)
    records.close()
    assert first.graph6 == to_graph6(next(enumerate_all(n)))
    # the pool reads at most 2 * workers chunks of at most 64 graphs each
    assert len(drawn) <= 256


def _connected(g6: str, order: int) -> bool:
    # independent oracle: networkx connectivity of the first `order` vertices
    return nx.is_connected(nx.from_graph6_bytes(g6.encode()).subgraph(range(order)))


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_connected_only_keeps_the_connected_records(workers):
    every = list(scan(SearchConfig(n_max=4), workers=workers))
    kept = list(scan(SearchConfig(n_max=4, connected_only=True), workers=workers))
    assert kept == [r for r in every if _connected(r.graph6, r.n)]
    assert {r.graph6 for r in kept} != {r.graph6 for r in every}


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
        verdict = verify_theorem1(g)
        assert r.graph6 == to_graph6(disjoint_union(g, g))
        assert (r.e_looped, r.e_simple) == (verdict.lhs_energy, verdict.rhs_energy)
        assert r.condition_met is verdict.condition_holds


def test_family_scan_solves_twice_per_record(monkeypatch):
    calls = []
    solve = energy.eigenvalues

    def counting(m):
        calls.append(m.n)
        return solve(m)

    monkeypatch.setattr(energy, "eigenvalues", counting)
    records = list(find_theorem_family_instances(SearchConfig(n_min=1, n_max=3)))
    assert len(calls) == 2 * len(records)
    assert sorted(calls) == sorted(n for r in records for n in (r.n // 2, r.n))


def test_classification_is_relabeling_invariant():
    g = complete_graph(2)
    gap = energy_gap(g, {0})
    permuted = relabel(g, [1, 0])
    assert abs(energy_gap(permuted, {1}) - gap) <= 1e-9


def test_classify_bands():
    assert _classify(1.0, 1.0, 1e-9) == (EQUAL, False, 0.0)
    label, suspect, gap = _classify(1.0, 1.0 + 5e-7, 1e-9)
    assert label == LOOPED_GREATER and suspect and abs(gap - 5e-7) < 1e-12
    label, suspect, _ = _classify(1.0, 1.0 - 5e-3, 1e-9)
    assert label == SIMPLE_GREATER and not suspect


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_min=0, n_max=3)
    with pytest.raises(ValueError):
        SearchConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError):
        SearchConfig(n_min=1, n_max=9)
    with pytest.raises(ValueError):
        SearchConfig(eq_tol=0.0)
    with pytest.raises(ValueError):
        SearchConfig(sigma_policy="some")


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
