import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import netfdi.placement as placement
from netfdi.fdi import default_order_budget, relation_matrix
from netfdi.graph import Digraph, Edge, gen_cycle, gen_random_geometric, gen_star
from netfdi.placement import (MAX_EXACT_NODES, approximation_report, binary_incidence,
                              brute_force_min_detection, brute_force_min_isolation,
                              coverage_deficit, greedy_detection, greedy_isolation,
                              harmonic, indicator_set, resolution_deficit,
                              unidentified_edges, unresolved_pairs)

from corpusgen import (connected_digraphs_up_to, random_connected_digraph,
                       random_out_tree_leaves_first, random_single_parent_digraph)
from oracles import (exhaustive_reference, greedy_reference, uncovered_edges,
                     unresolved_edges)


def cycle_rel():
    return relation_matrix(gen_cycle(5), r=1, z=4)


def star_rel():
    return relation_matrix(gen_star(5), r=1, z=1)


# -- deficits -----------------------------------------------------------------------


def test_coverage_deficit_golden():
    assert coverage_deficit(cycle_rel(), ()) == 5
    assert coverage_deficit(star_rel(), (5,)) == 0
    rel = cycle_rel()
    for a in range(1, 6):
        for b in range(a + 1, 6):
            assert coverage_deficit(rel, (a, b)) == 0
    assert coverage_deficit(rel, (2,)) == 1


def test_coverage_deficit_validation():
    with pytest.raises(ValueError):
        coverage_deficit(cycle_rel(), (2, 2))
    with pytest.raises(ValueError):
        coverage_deficit(cycle_rel(), (9,))


def test_indicator_set_golden():
    rel = cycle_rel()
    assert indicator_set(rel, (), 2) == frozenset()
    assert indicator_set(rel, (2, 3), 2) == frozenset({(1, 2), (2, 3)})
    srel = star_rel()
    full = tuple(range(1, 6))
    assert indicator_set(srel, full, 1) == indicator_set(srel, full, 2)


def test_unidentified_edges_golden():
    assert unidentified_edges(star_rel(), tuple(range(1, 6))) == {1, 2, 3, 4}
    assert unidentified_edges(cycle_rel(), (2, 3)) == set()
    single = relation_matrix(Digraph(2, [Edge(1, 2)]), r=1, z=2)
    assert unidentified_edges(single, (1, 2)) == set()
    assert unidentified_edges(single, ()) == set()


def test_resolution_deficit_golden():
    assert resolution_deficit(star_rel(), tuple(range(1, 6))) == 4
    assert resolution_deficit(cycle_rel(), (2, 3)) == 0
    # with no sensors every edge looks alike
    assert resolution_deficit(cycle_rel(), ()) == 5


def test_unresolved_pairs_golden():
    # the four star edges share one row: C(4, 2) pairs stay tied
    assert unresolved_pairs(star_rel(), tuple(range(1, 6))) == 6
    assert unresolved_pairs(cycle_rel(), (2, 3)) == 0
    # with no sensors every pair of the five cycle edges is tied
    assert unresolved_pairs(cycle_rel(), ()) == 10
    single = relation_matrix(Digraph(2, [Edge(1, 2)]), r=1, z=2)
    assert unresolved_pairs(single, ()) == 0
    assert unresolved_pairs(single, (1, 2)) == 0


def test_unresolved_pairs_validation():
    with pytest.raises(ValueError):
        unresolved_pairs(cycle_rel(), (2, 2))
    with pytest.raises(ValueError):
        unresolved_pairs(cycle_rel(), (9,))
    with pytest.raises(ValueError):
        unresolved_pairs(cycle_rel(), (0,))


# -- greedy routines -------------------------------------------------------------------


def test_greedy_detection_star_picks_hub():
    assert greedy_detection(star_rel()) == (5,)


def test_greedy_detection_cycle_two_nodes_lowest_index_ties():
    # every single node leaves exactly one edge uncovered, so ties resolve
    # to node 1, then any second node finishes the cover
    assert greedy_detection(cycle_rel()) == (1, 2)
    assert coverage_deficit(cycle_rel(), (1, 2)) == 0


def test_greedy_isolation_star_impossible():
    assert greedy_isolation(star_rel(), (5,)) is None


def test_greedy_isolation_cycle_no_additions_needed():
    assert greedy_isolation(cycle_rel(), (2, 3)) == (2, 3)


def test_greedy_outputs_satisfy_both_deficits():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        rel = relation_matrix(random_connected_digraph(n, rng), r=1)
        m_d = greedy_detection(rel)
        assert coverage_deficit(rel, m_d) == 0
        m_i = greedy_isolation(rel, m_d)
        if m_i is not None:
            assert resolution_deficit(rel, m_i) == 0
            assert coverage_deficit(rel, m_i) == 0
        else:
            assert resolution_deficit(rel, tuple(range(1, n + 1))) != 0


@pytest.mark.parametrize("r", [1, 2])
def test_placement_matches_reference_loops(r):
    rng = np.random.default_rng(40 + r)
    graphs = []
    for _ in range(20):
        graphs.append(random_connected_digraph(int(rng.integers(2, 9)), rng))
        graphs.append(random_single_parent_digraph(int(rng.integers(2, 11)), rng))
    for g in graphs:
        z = int(rng.integers(r, default_order_budget(g, r) + 1))
        rel = relation_matrix(g, r=r, z=z)
        m_d = greedy_detection(rel)
        assert m_d == greedy_reference(rel.entries, uncovered_edges)
        # a detection set already isolates whenever isolation is feasible, so
        # seeds that are not detection sets are what make the isolation rounds run
        partial = tuple(int(q) for q in np.flatnonzero(rng.random(g.n_nodes) < 0.3) + 1)
        for seed in (m_d, (), partial):
            assert greedy_isolation(rel, seed) == greedy_reference(rel.entries,
                                                                   unresolved_edges, seed)
        assert brute_force_min_detection(rel) == exhaustive_reference(rel.entries, False)
        assert brute_force_min_isolation(rel) == exhaustive_reference(rel.entries, True)
    # past the exhaustive node limit, on graphs where the f_I greedy runs as a cover greedy
    for _ in range(8):
        g = random_single_parent_digraph(int(rng.integers(11, 26)), rng)
        z = int(rng.integers(r, default_order_budget(g, r) + 1))
        rel = relation_matrix(g, r=r, z=z)
        m_d = greedy_detection(rel)
        assert m_d == greedy_reference(rel.entries, uncovered_edges)
        for p in (0.1, 0.3):
            partial = tuple(int(q) for q in np.flatnonzero(rng.random(g.n_nodes) < p) + 1)
            assert greedy_isolation(rel, partial) == greedy_reference(rel.entries,
                                                                      unresolved_edges, partial)


def test_greedy_validates_sensors_a_fixed_number_of_times(monkeypatch):
    calls = []
    counted = placement._validated_sensors

    def counting(sensors, n_nodes):
        calls.append(n_nodes)
        return counted(sensors, n_nodes)

    monkeypatch.setattr(placement, "_validated_sensors", counting)
    rng = np.random.default_rng(12)
    for g in (gen_cycle(40), random_single_parent_digraph(30, rng)):
        rel = relation_matrix(g, r=1, z=4)
        calls.clear()
        m_d = greedy_detection(rel)
        assert calls == [] and len(m_d) > 1
        m_i = greedy_isolation(rel, ())
        # the seed once; feasibility is read off the heads
        assert len(calls) == 1 and len(m_i) > 1


def test_greedy_isolation_decides_infeasibility_from_full_set():
    # the in-degree verdict of both isolation routines is f_I(V) = 0
    verdicts = []
    for rel in [star_rel(), cycle_rel()] + list(_report_corpus(76)):
        feasible = resolution_deficit(rel, range(1, rel.n_nodes + 1)) == 0
        assert (greedy_isolation(rel, ()) is not None) == feasible
        assert (brute_force_min_isolation(rel) is not None) == feasible
        verdicts.append(feasible)
    assert set(verdicts) == {False, True}


# -- exhaustive optima ------------------------------------------------------------------


def test_brute_force_golden():
    assert brute_force_min_detection(star_rel()) == (5,)
    opt_i = brute_force_min_isolation(cycle_rel())
    assert opt_i is not None and len(opt_i) == 2
    assert brute_force_min_isolation(star_rel()) is None
    empty = relation_matrix(Digraph(3), r=1)
    assert brute_force_min_detection(empty) == ()
    assert brute_force_min_isolation(empty) == ()


def test_brute_force_lexicographically_smallest():
    # cycle optima of size 2 start at (1, 2) in lexicographic order
    assert brute_force_min_detection(cycle_rel()) == (1, 2)


@pytest.mark.parametrize("r", [1, 2])
def test_detection_sets_keep_size_then_lexicographic_order(r):
    # the pruned walk must yield exactly the covers a plain scan yields, in its order
    rng = np.random.default_rng(60 + r)
    for _ in range(30):
        g = random_connected_digraph(int(rng.integers(2, 9)), rng,
                                     edge_prob=float(rng.uniform(0.15, 0.5)))
        budget = default_order_budget(g, r)
        for z in sorted({max(r, budget - 1), budget}):
            rel = relation_matrix(g, r=r, z=z)
            nodes = range(1, g.n_nodes + 1)
            scan = (combo for size in range(g.n_nodes + 1)
                    for combo in itertools.combinations(nodes, size)
                    if uncovered_edges(rel.entries, combo) == 0)
            k = 40
            assert (list(itertools.islice(placement._detection_sets(rel), k))
                    == list(itertools.islice(scan, k)))


def test_brute_force_finds_leaves_of_out_trees_numbered_first():
    # every leaf must be a sensor, so a size-ordered scan passes all smaller sets
    rng = np.random.default_rng(62)
    for n in list(range(2, MAX_EXACT_NODES + 1)) + [MAX_EXACT_NODES] * 5:
        g, leaves = random_out_tree_leaves_first(n, rng)
        rel = relation_matrix(g, r=int(rng.integers(1, 3)))
        expected = tuple(range(1, leaves + 1))
        assert brute_force_min_detection(rel) == expected
        assert brute_force_min_isolation(rel) == expected


def test_detection_sets_isolate_on_single_parent_graphs():
    # the premise of taking the isolation optimum from the detection optimum,
    # checked on every subset with the plain loops alone
    rng = np.random.default_rng(63)
    for _ in range(200):
        g = random_single_parent_digraph(int(rng.integers(2, 9)), rng)
        r = int(rng.integers(1, 3))
        z = int(rng.integers(r, default_order_budget(g, r) + 1))
        entries = relation_matrix(g, r=r, z=z).entries
        for size in range(g.n_nodes + 1):
            for combo in itertools.combinations(range(1, g.n_nodes + 1), size):
                if uncovered_edges(entries, combo) == 0:
                    assert unresolved_edges(entries, combo) == 0


def test_isolation_routines_make_no_deficit_call(monkeypatch):
    calls = []
    counted = placement.resolution_deficit

    def counting(R, sensors):
        calls.append(tuple(sensors))
        return counted(R, sensors)

    monkeypatch.setattr(placement, "resolution_deficit", counting)
    assert greedy_isolation(star_rel(), (5,)) is None
    assert greedy_isolation(cycle_rel(), ()) == (1,)
    assert brute_force_min_isolation(star_rel()) is None
    assert brute_force_min_isolation(cycle_rel()) == (1, 2)
    assert calls == []


def test_brute_force_size_guard():
    n = MAX_EXACT_NODES + 1
    edges = [Edge(i, i + 1) for i in range(1, n)]
    rel = relation_matrix(Digraph(n, edges), r=1, z=2)
    with pytest.raises(ValueError):
        brute_force_min_detection(rel)
    with pytest.raises(ValueError):
        brute_force_min_isolation(rel)


def test_brute_force_detection_refuses_an_edge_no_sensor_sees():
    # relation_matrix never builds one (every head sees its edge); a hand-made R can
    rel = relation_matrix(gen_cycle(4), r=1, z=3)
    entries = rel.entries.copy()
    entries[2] = 0
    blind = dataclasses.replace(rel, entries=entries)
    message = r"^no detection set exists \(some edge has an all-zero row\)$"
    with pytest.raises(ValueError, match=message):
        brute_force_min_detection(blind)


# -- incidence, harmonic ------------------------------------------------------------------


def test_binary_incidence_patterns():
    expected = np.hstack([np.zeros((4, 4), dtype=int), np.ones((4, 1), dtype=int)])
    assert np.array_equal(binary_incidence(star_rel()), expected)
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_connected_digraph(int(rng.integers(2, 9)), rng)
        rel = relation_matrix(g, r=1)
        # the head of each edge always relates to it, so no all-zero row
        assert binary_incidence(rel).sum(axis=1).min() >= 1


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(4) == 25.0 / 12.0
    assert harmonic(3) == pytest.approx(11.0 / 6.0)
    exact = Fraction(0)
    for d in range(1, 1201):
        exact += Fraction(1, d)
        assert harmonic(d) == float(exact)
    with pytest.raises(ValueError):
        harmonic(0)


def test_harmonic_refuses_non_integers():
    for d in (2.5, 3.0, True):
        with pytest.raises(ValueError):
            harmonic(d)
    assert harmonic(np.int64(4)) == 25.0 / 12.0


# -- submodularity / monotonicity ----------------------------------------------------------


def _random_nested_triple(rng, n):
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    small = rng.integers(0, n - 1)
    big = rng.integers(small, n - 1)
    m_small = tuple(sorted(nodes[:small]))
    m_big = tuple(sorted(nodes[:big]))
    extra = nodes[-1]
    return m_small, m_big, extra


def test_coverage_deficit_has_diminishing_improvements():
    # adding a sensor to a smaller set removes at least as much deficit
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        rel = relation_matrix(random_connected_digraph(n, rng), r=1)
        for _ in range(25):
            m_small, m_big, extra = _random_nested_triple(rng, n)
            gain_small = coverage_deficit(rel, m_small + (extra,)) - coverage_deficit(rel, m_small)
            gain_big = coverage_deficit(rel, m_big + (extra,)) - coverage_deficit(rel, m_big)
            assert gain_small <= gain_big


@pytest.mark.parametrize("deficit", [coverage_deficit, resolution_deficit])
def test_deficits_are_monotone(deficit):
    rng = np.random.default_rng(78)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        rel = relation_matrix(random_connected_digraph(n, rng), r=1)
        for _ in range(25):
            m_small, m_big, _ = _random_nested_triple(rng, n)
            assert deficit(rel, m_small) >= deficit(rel, m_big)


def test_resolution_deficit_admits_complementary_sensors():
    """Regression pin: the resolution deficit is NOT supermodular-improving.

    Sensors can be jointly informative while individually useless: on this
    3-node graph, node 3 resolves nothing on its own but resolves edge 1
    once node 1 is already placed.  The diminishing-improvement inequality
    that holds for the coverage deficit therefore fails here.  The
    unresolved-pair count keeps it on the same graph, which is why
    acceptance criterion 08b checks that objective (see the README).
    """
    g = Digraph(3, [Edge(1, 2), Edge(1, 3), Edge(2, 1), Edge(2, 3), Edge(3, 1)])
    rel = relation_matrix(g, r=1)
    gain_small = resolution_deficit(rel, (3,)) - resolution_deficit(rel, ())
    gain_big = resolution_deficit(rel, (1, 3)) - resolution_deficit(rel, (1,))
    assert gain_small == 0
    assert gain_big == -1
    assert gain_small > gain_big  # violates the submodular-style inequality
    pairs_small = unresolved_pairs(rel, (3,)) - unresolved_pairs(rel, ())
    pairs_big = unresolved_pairs(rel, (1, 3)) - unresolved_pairs(rel, (1,))
    assert pairs_small == -6
    assert pairs_big == -2
    assert pairs_small <= pairs_big  # diminishing improvements hold for P


# -- report -----------------------------------------------------------------------------


def test_approximation_report_cycle():
    report = approximation_report(cycle_rel(), exact=True)
    assert report.m_d == (1, 2)
    assert report.m_i == (1, 2)
    assert report.f_d_trace == (5, 1, 0)
    assert report.f_i_trace[-1] == 0
    assert report.f_i_of_v == 0
    assert len(report.opt_d) == 2 and len(report.opt_i) == 2
    assert report.d_max == 4
    assert report.harmonic_bound == pytest.approx(harmonic(4))
    assert report.ratio_bound == pytest.approx(np.log(5) + 1)
    payload = report.to_dict()
    assert payload["M_D"] == [1, 2]
    assert payload["M_I"] == [1, 2]
    assert payload["opt_D"] == 2 and payload["opt_I"] == 2
    assert payload["f_I_of_V"] == 0


def test_approximation_report_star():
    report = approximation_report(star_rel(), exact=True)
    assert report.m_d == (5,)
    assert report.m_i is None
    assert report.f_i_of_v == 4
    assert report.opt_i is None
    assert report.to_dict()["M_I"] is None


def _report_corpus(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        if rng.random() < 0.4:
            g = random_single_parent_digraph(int(rng.integers(1, 14)), rng)
        else:
            g = random_connected_digraph(int(rng.integers(2, 10)), rng)
        r = int(rng.integers(1, 3))
        z = int(rng.integers(r, default_order_budget(g, r) + 1))
        yield relation_matrix(g, r=r, z=z)


def test_report_isolation_agrees_with_public_routines():
    # the report takes M_I and opt_I from detection; the isolation routines
    # must reach the same sets on their own
    feasible = 0
    for rel in _report_corpus(71):
        report = approximation_report(rel, exact=rel.n_nodes <= 12)
        assert report.m_i == greedy_isolation(rel, report.m_d)
        if report.opt_d is not None:
            assert report.opt_i == brute_force_min_isolation(rel)
        assert report.f_i_trace == (resolution_deficit(rel, report.m_d),)
        feasible += report.m_i is not None
    assert 0 < feasible < 40


def test_report_counts_match_public_deficits_on_wide_corpus():
    # RGGs past 50 nodes at z below the default budget have zero entries and
    # orders repeated within a column, unlike the small corpus graphs
    rels = [relation_matrix(Digraph(3), r=1), relation_matrix(Digraph(1), r=2),
            relation_matrix(Digraph(3, [Edge(2, 3)]), r=1),
            relation_matrix(Digraph(2, [Edge(1, 2)]), r=2, z=7)]
    rels += list(_report_corpus(74))
    rng = np.random.default_rng(75)
    for n in (60, 70, 80):
        g = gen_random_geometric(n, 1.0, math.sqrt(12 / (math.pi * n)),
                                 int(rng.integers(2**31)))
        for r in (1, 2):
            z = int(rng.integers(r, default_order_budget(g, r)))
            rels.append(relation_matrix(g, r, z))
            assert (rels[-1].entries == 0).any()
    for rel in rels:
        report = approximation_report(rel)
        assert report.f_i_of_v == resolution_deficit(rel, range(1, rel.n_nodes + 1))
        assert report.f_d_trace == tuple(coverage_deficit(rel, report.m_d[:i])
                                         for i in range(len(report.m_d) + 1))
        assert report.d_max == max(binary_incidence(rel).sum(axis=0), default=0)


def test_approximation_report_deficit_calls_do_not_grow_with_nodes(monkeypatch):
    calls = []
    for name in ("resolution_deficit", "coverage_deficit"):
        def counting(R, sensors, name=name, counted=getattr(placement, name)):
            calls.append(name)
            return counted(R, sensors)

        monkeypatch.setattr(placement, name, counting)
    rng = np.random.default_rng(73)
    rels = [star_rel(), cycle_rel(), relation_matrix(gen_cycle(40), r=1),
            relation_matrix(random_single_parent_digraph(30, rng), r=2)]
    for rel in rels:
        calls.clear()
        approximation_report(rel, exact=rel.n_nodes <= MAX_EXACT_NODES)
        # f_I(M_D) is the one deficit call
        assert calls == ["resolution_deficit"]


def test_greedy_within_harmonic_bound_small_corpus():
    for g in connected_digraphs_up_to(4):
        if g.n_edges == 0:
            continue
        rel = relation_matrix(g, r=1)
        report = approximation_report(rel, exact=True)
        bound = report.harmonic_bound * len(report.opt_d)
        assert len(report.m_d) <= bound + 1e-12
        assert report.harmonic_bound <= report.ratio_bound + 1e-12
        if report.opt_i is not None:
            assert report.m_i is not None
            iso_bound = report.harmonic_bound * len(report.opt_i)
            assert len(report.m_i) <= iso_bound + 1e-12
