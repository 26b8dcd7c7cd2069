"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 8 has two halves, both checking diminishing improvements over
nested sensor sets.  The coverage half runs on f_D.  The resolution half
runs on the unresolved-pair count P, which has the same zero set as the
resolution deficit f_I (checked on every set it visits).  f_I itself does
not have the property: sensors can be complementary for isolation, jointly
informative and individually useless; see
test_placement.test_resolution_deficit_admits_complementary_sensors for the
minimal counterexample.
"""

import math
import time

import numpy as np
import pytest

from netfdi.dynamics import (FailureEvent, NetworkSystem, SubsystemModel,
                             fault_replicant_check, jump_oracle, relative_degree,
                             simulate, theoretical_jump)
from netfdi.fdi import DetectorConfig, detect, isolate, lookup_table, relation_matrix
from netfdi.graph import (Digraph, Edge, finite_diameter, gen_cycle,
                          gen_random_geometric, gen_star, walk_matrix)
from netfdi.placement import (approximation_report, coverage_deficit, greedy_detection,
                              greedy_isolation, resolution_deficit, unidentified_edges,
                              unresolved_pairs)

from corpusgen import (chain_model, connected_digraphs_up_to, damp_coupling,
                       random_connected_digraph, random_stable_model)
from oracles import enumerated_walk_matrix

GOLDEN_D_23 = np.array([[2, 1, 0, 4, 3],
                        [3, 2, 1, 0, 4]])

GOLDEN_R_CYCLE5 = np.array([[1, 2, 3, 4, 0],
                            [0, 1, 2, 3, 4],
                            [4, 0, 1, 2, 3],
                            [3, 4, 0, 1, 2],
                            [2, 3, 4, 0, 1]])

GOLDEN_R_STAR5 = np.hstack([np.zeros((4, 4), dtype=int), np.ones((4, 1), dtype=int)])

RGG_SEED = 20240517


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:>2}] {name}: {status}  {detail}".rstrip(), flush=True)


def scalar_model():
    return SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])


def example2_trace(dt=1e-3):
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    return simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, dt, [FailureEvent(2, 5.0)])


def _best_of(fn, repeats=5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- criterion 1: golden lookup table ------------------------------------------------


def test_criterion_01_golden_lookup_table():
    def build():
        return lookup_table(gen_cycle(5), (2, 3), r=1, z=4)

    elapsed = _best_of(build)
    table = build()
    ok = np.array_equal(table.table, GOLDEN_D_23) and elapsed < 1e-3
    _line(1, "golden D matrix (cycle5, sensors 2,3)", ok, f"{elapsed * 1e6:.0f} us")
    assert np.array_equal(table.table, GOLDEN_D_23)
    assert elapsed < 1e-3


# -- criterion 2: golden relation matrices -------------------------------------------


def test_criterion_02_golden_relation_matrices():
    def build_cycle():
        return relation_matrix(gen_cycle(5), r=1, z=4)

    def build_star():
        return relation_matrix(gen_star(5), r=1, z=1)

    elapsed = max(_best_of(build_cycle), _best_of(build_star))
    ok_cycle = np.array_equal(build_cycle().entries, GOLDEN_R_CYCLE5)
    ok_star = np.array_equal(build_star().entries, GOLDEN_R_STAR5)
    ok = ok_cycle and ok_star and elapsed < 1e-3
    _line(2, "golden R matrices (cycle5, star5)", ok, f"{elapsed * 1e6:.0f} us")
    assert ok_cycle and ok_star
    assert elapsed < 1e-3


# -- criterion 3: jump-order theory vs brute-force oracle ------------------------------


def test_criterion_03_jump_theory_matches_oracle():
    t_start = time.perf_counter()
    graphs = connected_digraphs_up_to(5)
    rng = np.random.default_rng(314159)
    graphs += [random_connected_digraph(int(rng.integers(2, 9)), rng)
               for _ in range(50)]

    zero_checks = matches = spot_checks = degenerate = 0
    max_zero_resid = 0.0
    max_match_rel = 0.0
    for gi, g0 in enumerate(graphs):
        edges = [Edge(e.tail, e.head, float(rng.uniform(0.3, 1.0)))
                 for _, e in g0.edges()]
        g = Digraph(g0.n_nodes, edges)
        if g.n_edges == 0:
            continue
        model = (chain_model(int(rng.integers(2, 4)), rng) if gi % 10 == 0
                 else random_stable_model(rng))
        model = damp_coupling(g, model)
        sys_pre = NetworkSystem(g, model)
        n, o = g.n_nodes, model.o
        x = rng.normal(0.0, 1.0, sys_pre.n_states)
        xn = np.linalg.norm(x)
        c_stack = np.kron(np.eye(n), model.C)
        preds = [[theoretical_jump(g, model, label, p, x) for p in range(1, n + 1)]
                 for label in g.edge_labels]
        # per edge, orders up to the largest predicted one (at least 3) are checked
        caps = [max([pr.order for pr in row if pr.observable] + [3]) for row in preds]
        k_max = max(caps)
        # batched oracle values: same formula as jump_oracle, all (edge, k, p) at once
        v_pre = [x]
        for _ in range(k_max):
            v_pre.append(sys_pre.closed_loop @ v_pre[-1])
        v_post = np.empty((g.n_edges, k_max, sys_pre.n_states))
        spots, directs = [], []
        for e, label in enumerate(g.edge_labels):
            sys_post = sys_pre.remove_edge(label)
            v = x
            for k in range(k_max):
                v = v_post[e, k] = sys_post.closed_loop @ v
            # tie the batch to the public oracle on a random (p, k) of every edge
            sp = int(rng.integers(1, n + 1))
            sk = int(rng.integers(1, caps[e] + 1))
            directs.append(jump_oracle(sys_pre, sys_post, x, sp, sk))
            spots.append((e, sk - 1, sp - 1))
        jumps = ((v_post - np.array(v_pre[1:])) @ c_stack.T).reshape(g.n_edges, k_max, n, o)
        # np.allclose(directs, batched, rtol=1e-12, atol=1e-12), written out
        batched = jumps[tuple(np.array(spots).T)]
        assert (np.abs(np.array(directs) - batched) <= 1e-12 + 1e-12 * np.abs(batched)).all()
        spot_checks += g.n_edges
        # predicted first order per (edge, sensor); the edge's cap + 1 if none
        orders = np.array([[pr.order if pr.observable else cap + 1 for pr in row]
                           for row, cap in zip(preds, caps)])
        norms = np.linalg.norm(jumps, axis=3)
        # every order below the predicted first one (up to the cap if none) is zero
        below = np.arange(1, k_max + 1)[:, None] < orders[:, None, :]
        max_zero_resid = max(max_zero_resid, norms[below].max(initial=0.0) / xn)
        zero_checks += int(below.sum())
        seen_e, seen_p = np.nonzero(orders <= np.array(caps)[:, None])
        seen_k = orders[seen_e, seen_p] - 1
        oracle_norms = norms[seen_e, seen_k, seen_p]
        big = oracle_norms > 1e-4 * xn
        values = np.array([preds[e][p].value for e, p in zip(seen_e, seen_p)]).reshape(-1, o)
        rel = (np.linalg.norm(values[big] - jumps[seen_e, seen_k, seen_p][big], axis=1)
               / oracle_norms[big])
        max_match_rel = max(max_match_rel, rel.max(initial=0.0))
        matches += int(big.sum())
        degenerate += int(big.size - big.sum())
    elapsed = time.perf_counter() - t_start
    ok = (max_zero_resid <= 1e-9 and max_match_rel <= 1e-6
          and zero_checks > 500_000 and matches > 100_000 and elapsed < 60.0)
    _line(3, "jump order/value theory vs oracle", ok,
          f"{len(graphs)} graphs, {zero_checks} zero checks (max {max_zero_resid:.1e}), "
          f"{matches} value matches (max rel {max_match_rel:.1e}), "
          f"{degenerate} degenerate skipped, {elapsed:.1f} s")
    assert max_zero_resid <= 1e-9
    assert max_match_rel <= 1e-6
    assert zero_checks > 500_000 and matches > 100_000 and spot_checks > 50_000
    assert elapsed < 60.0


# -- criterion 4: fault-replicant equivalence -------------------------------------------


def test_criterion_04_fault_replicant_equivalence():
    t_start = time.perf_counter()
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    worst = fault_replicant_check(sys_net, 2, x0, 5.0, 10.0, dt=0.01)
    assert worst <= 1e-9 * np.abs(x0).max()

    rng = np.random.default_rng(1618)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        g = random_connected_digraph(n, rng)
        model = damp_coupling(g, random_stable_model(rng))
        net = NetworkSystem(g, model)
        x0r = rng.normal(0.0, 1.0, net.n_states)
        label = int(rng.choice(g.edge_labels))
        dev = fault_replicant_check(net, label, x0r, 2.5, 5.0, dt=0.01)
        scale = max(1.0, np.abs(x0r).max())
        worst = max(worst, dev / scale)
        assert dev <= 1e-9 * scale
    elapsed = time.perf_counter() - t_start
    ok = elapsed < 30.0
    _line(4, "fault-replicant equivalence", ok,
          f"worst deviation {worst:.1e}, {elapsed:.1f} s")
    assert elapsed < 30.0


# -- criterion 5: cycle example end to end ------------------------------------------------


def test_criterion_05_cycle_end_to_end():
    t_start = time.perf_counter()
    trace = example2_trace(dt=1e-3)
    table = lookup_table(gen_cycle(5), (2, 3), r=1, z=4)

    analytic = detect(trace, (2, 3), DetectorConfig(z=4, mode="analytic"))
    assert len(analytic) == 1
    assert analytic[0].time == pytest.approx(5.0)
    assert analytic[0].orders.tolist() == [1, 2]
    verdict = isolate(analytic[0], table)
    assert verdict.verdict == "unique" and verdict.edge == 2

    fd = detect(trace, (2, 3), DetectorConfig(z=4, mode="finite-difference"))
    assert len(fd) == 1
    assert fd[0].orders.tolist() == [1, 2]
    assert fd[0].time == pytest.approx(5.0, abs=1e-12)

    # continuity pattern at the failure time
    sys_pre = NetworkSystem(gen_cycle(5), scalar_model())
    sys_post = sys_pre.remove_edge(2)
    x_tf = trace.states[trace.segments[0].stop]
    xn = np.linalg.norm(x_tf)
    assert np.linalg.norm(jump_oracle(sys_pre, sys_post, x_tf, 2, 0)) == 0.0  # x_2
    assert np.linalg.norm(jump_oracle(sys_pre, sys_post, x_tf, 3, 0)) == 0.0  # x_3
    assert np.linalg.norm(jump_oracle(sys_pre, sys_post, x_tf, 3, 1)) <= 1e-9 * xn
    assert np.linalg.norm(jump_oracle(sys_pre, sys_post, x_tf, 2, 1)) > 1.0
    assert np.linalg.norm(jump_oracle(sys_pre, sys_post, x_tf, 3, 2)) > 1.0

    elapsed = time.perf_counter() - t_start
    ok = elapsed < 5.0
    _line(5, "cycle5 end-to-end detect+isolate", ok,
          f"signature (1,2) -> edge 2 in both modes, {elapsed:.1f} s")
    assert elapsed < 5.0


# -- criterion 6: star impossibility ---------------------------------------------------------


def test_criterion_06_star_isolation_impossible():
    rel = relation_matrix(gen_star(5), r=1, z=1)

    def run():
        m_d = greedy_detection(rel)
        f_i_v = resolution_deficit(rel, (1, 2, 3, 4, 5))
        m_i = greedy_isolation(rel, m_d)
        return m_d, f_i_v, m_i

    elapsed = _best_of(run)
    m_d, f_i_v, m_i = run()
    ok = m_d == (5,) and f_i_v == 4 and m_i is None and elapsed < 1e-3
    _line(6, "star5 detection via hub, isolation impossible", ok,
          f"{elapsed * 1e6:.0f} us")
    assert m_d == (5,)
    assert f_i_v == 4
    assert m_i is None
    assert elapsed < 1e-3


# -- criterion 7: greedy within harmonic factor of the optimum ---------------------------------


def _guarantee_corpus():
    corpus = connected_digraphs_up_to(4)
    for n in range(2, 8):
        corpus.append(gen_cycle(n))
        if n >= 3:
            corpus.append(gen_star(n))
        corpus.append(Digraph(n, [Edge(i, i + 1) for i in range(1, n)]))
    for n in (2, 3, 4, 5):
        corpus.append(Digraph(n, [Edge(i, j) for i in range(1, n + 1)
                                  for j in range(1, n + 1) if i != j]))
    rng = np.random.default_rng(271828)
    corpus += [random_connected_digraph(int(rng.integers(5, 8)), rng)
               for _ in range(80)]
    big = [random_connected_digraph(int(rng.integers(8, 13)), rng)
           for _ in range(200)]
    return corpus, big


def test_criterion_07_greedy_approximation_guarantee():
    t_start = time.perf_counter()
    corpus, big = _guarantee_corpus()
    instances = violations = 0
    for g in corpus + big:
        if g.n_edges == 0:
            continue
        budgets = [None]
        fd = finite_diameter(g)
        if fd >= 2:
            budgets.append(fd)  # tighter budget variant exercises sparser tables
        for z in budgets:
            rel = relation_matrix(g, 1, z)
            rep = approximation_report(rel, exact=True)
            instances += 1
            log_bound = math.log(g.n_edges) + 1.0
            if rep.harmonic_bound > log_bound + 1e-12:
                violations += 1
            if len(rep.m_d) > rep.harmonic_bound * len(rep.opt_d) + 1e-12:
                violations += 1
            if rep.opt_i is not None:
                assert rep.m_i is not None
                # |M_I| = |M_D| <= H(d_max) opt_I
                if len(rep.m_i) > rep.harmonic_bound * len(rep.opt_i) + 1e-12:
                    violations += 1
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and elapsed < 600.0
    _line(7, "greedy within H(d_max) <= ln|E|+1 of optimum", ok,
          f"{instances} instances, {violations} violations, {elapsed:.1f} s")
    assert violations == 0
    assert elapsed < 600.0


# -- criterion 8: diminishing-improvement suites ------------------------------------------------


def _gain_violations(deficit_fn, n_checks=10_000, seed=161803):
    rng = np.random.default_rng(seed)
    violations = checks = 0
    while checks < n_checks:
        n = int(rng.integers(3, 11))
        rel = relation_matrix(random_connected_digraph(n, rng), r=1)
        for _ in range(100):
            nodes = list(range(1, n + 1))
            rng.shuffle(nodes)
            small_sz = int(rng.integers(0, n - 1))
            big_sz = int(rng.integers(small_sz, n - 1))
            small, big = tuple(nodes[:small_sz]), tuple(nodes[:big_sz])
            q = nodes[-1]
            gain_small = deficit_fn(rel, small + (q,)) - deficit_fn(rel, small)
            gain_big = deficit_fn(rel, big + (q,)) - deficit_fn(rel, big)
            if gain_small > gain_big:  # exact integer comparison
                violations += 1
            checks += 1
            if checks == n_checks:
                break
    return violations


def test_criterion_08a_submodularity_coverage_deficit():
    t_start = time.perf_counter()
    violations = _gain_violations(coverage_deficit)
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and elapsed < 30.0
    _line(8, "coverage deficit: diminishing improvements (10^4 checks)", ok,
          f"{violations} violations, {elapsed:.1f} s")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_08b_submodularity_resolution_deficit():
    # -f_I is not submodular (complementary sensors), so the property is
    # checked on the unresolved-pair count P, whose zero set is f_I's.
    zero_set_mismatches = 0

    def pairs_tied_to_deficit(rel, sensors):
        nonlocal zero_set_mismatches
        pairs = unresolved_pairs(rel, sensors)
        if (pairs == 0) != (resolution_deficit(rel, sensors) == 0):
            zero_set_mismatches += 1
        return pairs

    t_start = time.perf_counter()
    violations = _gain_violations(pairs_tied_to_deficit)
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and zero_set_mismatches == 0 and elapsed < 30.0
    _line(8, "resolution deficit: diminishing improvements on unresolved pairs "
          "(10^4 checks)", ok,
          f"{violations} violations, {zero_set_mismatches} zero-set mismatches, "
          f"{elapsed:.1f} s")
    assert zero_set_mismatches == 0
    assert violations == 0
    assert elapsed < 30.0


# -- criterion 9: random geometric graph experiment ----------------------------------------------


def test_criterion_09_random_geometric_experiment():
    t_start = time.perf_counter()
    g = gen_random_geometric(50, 1.0, 0.25, RGG_SEED)
    assert 170 <= g.n_edges <= 230  # ~200 directed edges

    details = []
    for z in (None, 9):
        rel = relation_matrix(g, 1, z)
        m_d = greedy_detection(rel)
        assert coverage_deficit(rel, m_d) == 0
        # unresolved-edge count is nonincreasing along the greedy order
        sequence = [len(unidentified_edges(rel, m_d[:i]))
                    for i in range(len(m_d) + 1)]
        m_i = greedy_isolation(rel, m_d)
        if m_i is not None:
            sequence += [len(unidentified_edges(rel, m_i[:i]))
                         for i in range(len(m_d), len(m_i) + 1)]
        assert all(a >= b for a, b in zip(sequence, sequence[1:]))
        f_i_v = resolution_deficit(rel, tuple(range(1, 51)))
        if f_i_v == 0:
            assert m_i is not None and resolution_deficit(rel, m_i) == 0
        else:
            assert m_i is None
        # deterministic report
        rep_a = approximation_report(rel)
        rep_b = approximation_report(rel)
        assert rep_a.to_dict() == rep_b.to_dict()
        details.append(f"z={rel.z}: |M_D|={len(m_d)}, f_I(V)={f_i_v}")
    elapsed = time.perf_counter() - t_start
    ok = elapsed < 120.0
    _line(9, "50-node random geometric pipeline", ok,
          f"{g.n_edges} edges; " + "; ".join(details) + f"; {elapsed:.1f} s")
    assert elapsed < 120.0


# -- criterion 10: walk counting against explicit enumeration -------------------------------------


def test_criterion_10_walk_counting_suite():
    t_start = time.perf_counter()
    rng = np.random.default_rng(57721)
    graphs = connected_digraphs_up_to(3)
    for n in range(2, 7):
        graphs.append(gen_cycle(n))
        if n >= 3:
            graphs.append(gen_star(n))
        graphs.append(Digraph(n, [Edge(i, i + 1) for i in range(1, n)]))
    graphs.append(Digraph(4, [Edge(i, j) for i in range(1, 5)
                              for j in range(1, 5) if i != j]))
    for n in (4, 5, 6):
        for _ in range(4):
            g = random_connected_digraph(n, rng, edge_prob=0.3, weighted=False)
            graphs.append(Digraph(n, [Edge(e.tail, e.head, float(rng.integers(1, 4)))
                                      for _, e in g.edges()]))
    checked = 0
    for g in graphs:
        adj = g.adjacency()
        for k in range(0, 7):
            assert np.array_equal(walk_matrix(g, k), enumerated_walk_matrix(adj, k))
            checked += 1
    elapsed = time.perf_counter() - t_start
    ok = elapsed < 10.0
    _line(10, "walk counting vs explicit enumeration", ok,
          f"{len(graphs)} graphs x 7 powers exact ({checked} matrices), {elapsed:.1f} s")
    assert elapsed < 10.0
