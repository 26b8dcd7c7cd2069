import dataclasses
from collections import Counter
from math import factorial

import numpy as np
import pytest

from netfdi.dynamics import (ExogenousInput, FailureEvent, NetworkSystem, SubsystemModel,
                             jump_oracle, markov_parameter, relative_degree, simulate)
from netfdi.fdi import (DetectorConfig, JumpSignature, LookupTable, _first_jumps,
                        _isolate_all, default_order_budget, detect, detect_edge_failures,
                        detectable, estimate_one_sided_derivative, isolate, lookup_table,
                        relation_matrix)
from netfdi.graph import Digraph, Edge, gen_cycle, gen_random_geometric, gen_star
from netfdi.placement import resolution_deficit

from corpusgen import chain_model, damp_coupling, random_connected_digraph, random_stable_model
from oracles import finite_difference_reference, floyd_warshall_hops

CYCLE5_R = np.array([
    [1, 2, 3, 4, 0],
    [0, 1, 2, 3, 4],
    [4, 0, 1, 2, 3],
    [3, 4, 0, 1, 2],
    [2, 3, 4, 0, 1],
])

CYCLE5_D_23 = np.array([
    [2, 1, 0, 4, 3],
    [3, 2, 1, 0, 4],
])


def scalar_model():
    return SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])


def example2_trace(dt=1e-3):
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    return simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, dt, [FailureEvent(2, 5.0)])


# -- relation matrix and lookup table ------------------------------------------------


def test_relation_matrix_cycle_golden():
    rel = relation_matrix(gen_cycle(5), r=1, z=4)
    assert np.array_equal(rel.entries, CYCLE5_R)
    assert rel.edge_labels == (1, 2, 3, 4, 5)


def test_relation_matrix_star_golden():
    expected = np.hstack([np.zeros((4, 4), dtype=int), np.ones((4, 1), dtype=int)])
    for z in (1, 4):
        rel = relation_matrix(gen_star(5), r=1, z=z)
        assert np.array_equal(rel.entries, expected)


def test_relation_matrix_single_edge_higher_degree():
    g = Digraph(2, [Edge(1, 2)])
    rel = relation_matrix(g, r=2, z=4)
    assert rel.entries[0, 1] == 2  # head at distance 0: order (0+1)*2
    assert rel.entries[0, 0] == 0


def test_relation_matrix_default_budget():
    g = gen_cycle(5)
    assert default_order_budget(g, 1) == 5
    rel = relation_matrix(g, r=1)
    assert rel.z == 5
    assert rel.entries.max() == 5
    assert (rel.entries > 0).all()  # every pair reachable within the default budget


def test_relation_matrix_validation():
    with pytest.raises(ValueError):
        relation_matrix(gen_cycle(5), r=0)
    with pytest.raises(ValueError):
        relation_matrix(gen_cycle(5), r=2, z=1)


def test_relation_matrix_ignores_weights():
    rng = np.random.default_rng(8)
    g = random_connected_digraph(6, rng, weighted=True)
    unweighted = Digraph(6, [Edge(e.tail, e.head) for _, e in g.edges()])
    for r, z in ((1, 4), (2, 8)):
        assert np.array_equal(relation_matrix(g, r, z).entries,
                              relation_matrix(unweighted, r, z).entries)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_relation_matrix_is_keyed_by_head(r):
    rng = np.random.default_rng(50 + r)
    graphs = [random_connected_digraph(int(rng.integers(2, 9)), rng) for _ in range(25)]
    for g in graphs:
        hops = floyd_warshall_hops(g.adjacency())
        heads = [e.head for _, e in g.edges()]
        default = default_order_budget(g, r)
        for z in (default - 1, default, default + 1):
            rel = relation_matrix(g, r, z)
            orders = r * (hops[np.array(heads) - 1] + 1)
            expected = np.where(orders <= z, orders, 0)
            assert np.array_equal(rel.entries, expected)
            for a in range(g.n_edges):
                for b in range(g.n_edges):
                    if heads[a] == heads[b]:
                        assert np.array_equal(rel.entries[a], rel.entries[b])
        # rows differ exactly when heads differ, so only shared heads stay unresolved
        in_degree = Counter(heads)
        shared = sum(1 for head in heads if in_degree[head] >= 2)
        every = range(1, g.n_nodes + 1)
        assert resolution_deficit(relation_matrix(g, r), every) == shared


def test_resolution_deficit_of_all_nodes_counts_shared_heads_rgg50():
    g = gen_random_geometric(50, 1.0, 0.25, 20240517)
    in_degree = Counter(e.head for _, e in g.edges())
    shared = sum(c for c in in_degree.values() if c >= 2)
    assert shared == 188
    assert resolution_deficit(relation_matrix(g, r=1), range(1, 51)) == shared


def test_lookup_table_cycle_golden():
    table = lookup_table(gen_cycle(5), (2, 3), r=1, z=4)
    assert np.array_equal(table.table, CYCLE5_D_23)
    assert table.sensors == (2, 3)
    assert np.array_equal(table.column(2), np.array([1, 2]))


def test_lookup_table_row_order_follows_sensors():
    table = lookup_table(gen_cycle(5), (3, 2), r=1, z=4)
    assert np.array_equal(table.table, CYCLE5_D_23[::-1])


def test_lookup_table_all_sensors_is_r_transposed():
    g = gen_cycle(5)
    rel = relation_matrix(g, r=1, z=4)
    table = lookup_table(g, (1, 2, 3, 4, 5), r=1, z=4)
    assert np.array_equal(table.table, rel.entries.T)


def test_lookup_table_star_single_sensor():
    table = lookup_table(gen_star(5), (5,), r=1, z=1)
    assert np.array_equal(table.table, np.ones((1, 4), dtype=int))


def test_lookup_table_validation():
    with pytest.raises(ValueError):
        lookup_table(gen_cycle(5), (), r=1, z=4)
    with pytest.raises(ValueError):
        lookup_table(gen_cycle(5), (2, 2), r=1, z=4)
    with pytest.raises(ValueError):
        lookup_table(gen_cycle(5), (9,), r=1, z=4)
    with pytest.raises(ValueError, match="duplicate node 2"):
        lookup_table(gen_cycle(5), (3, 2, 2), r=1, z=4)
    # a sensor is a node id: no rounding of reals, as for graph endpoints
    for bad in ((2.7, 3.9), (2.0, 3), ("2", 3), [True]):
        with pytest.raises(ValueError, match="not an integer"):
            lookup_table(gen_cycle(5), bad, r=1, z=4)
    table = lookup_table(gen_cycle(5), np.array([2, 3]), r=1, z=4)
    assert table.sensors == (2, 3) and all(type(p) is int for p in table.sensors)


# -- detectability -------------------------------------------------------------------


def test_detectable_golden_cases():
    g = gen_cycle(5)
    assert not detectable(g, (2,), r=1, z=4, edge=3)  # D entry 0
    assert detectable(g, (2,), r=1, z=4, edge=2)  # head in sensor set
    assert detectable(g, (3,), r=1, z=4, edge=3)


def test_detectable_matches_jump_oracle_observability():
    rng = np.random.default_rng(12)
    model = scalar_model()
    for _ in range(6):
        g = random_connected_digraph(5, rng, weighted=False)
        sys_pre = NetworkSystem(g, model)
        x = rng.normal(0.0, 1.0, 5) + 2.0  # entries bounded away from zero
        z = 3
        for label in g.edge_labels:
            sys_post = sys_pre.remove_edge(label)
            for p in range(1, 6):
                seen = any(
                    np.linalg.norm(jump_oracle(sys_pre, sys_post, x, p, k)) > 1e-9
                    for k in range(1, z + 1))
                assert detectable(g, (p,), r=1, z=z, edge=label) == seen


# -- one-sided estimation --------------------------------------------------------------


def test_estimate_polynomial_exactness():
    cfg = DetectorConfig(z=3, mode="finite-difference")
    dt = 1e-3
    t = np.arange(0, 12) * dt + 0.3
    for k in (1, 2, 3):
        y = t**k
        # d^k/dt^k of t^k is k! everywhere; stencils are polynomial-exact
        left = estimate_one_sided_derivative(t, y, k, "left", cfg)
        right = estimate_one_sided_derivative(t, y, k, "right", cfg)
        assert left[0] == pytest.approx(factorial(k), rel=1e-6)
        assert right[0] == pytest.approx(factorial(k), rel=1e-6)


def test_estimate_exponential_left():
    cfg = DetectorConfig(z=2, mode="finite-difference")
    dt = 1e-3
    t = 1.0 - dt * np.arange(9)[::-1]
    y = np.exp(-t)
    est = estimate_one_sided_derivative(t, y, 1, "left", cfg)
    assert est[0] == pytest.approx(-np.exp(-1.0), rel=1e-9)


def test_estimate_detects_second_derivative_step():
    # piecewise quadratic: y'' jumps by J at t=0, y and y' continuous
    J, dt = 2.5, 1e-3
    t = dt * np.arange(-8, 9)
    y = np.where(t < 0, 0.5 * t**2, 0.5 * (1 + J) * t**2)
    cfg = DetectorConfig(z=3, mode="finite-difference")
    mid = 8
    left = estimate_one_sided_derivative(t[: mid + 1], y[: mid + 1], 2, "left", cfg)
    right = estimate_one_sided_derivative(t[mid:], y[mid:], 2, "right", cfg)
    assert (right - left)[0] == pytest.approx(J, rel=0.05)


def test_estimate_validation():
    cfg = DetectorConfig(z=3, mode="finite-difference")
    t = np.arange(4) * 0.1
    with pytest.raises(ValueError):
        estimate_one_sided_derivative(t, t, 1, "left", cfg)
    t_bad = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6])
    with pytest.raises(ValueError):
        estimate_one_sided_derivative(t_bad, t_bad, 1, "left", cfg)
    t = np.arange(8) * 0.1
    with pytest.raises(ValueError):
        estimate_one_sided_derivative(t, t, 1, "sideways", cfg)
    # a negative order must not index the stencil rows from the end
    with pytest.raises(ValueError, match="derivative order must be >= 0, got -1"):
        estimate_one_sided_derivative(t, t**2, -1, "left", cfg)


def test_detector_config_validation():
    cfg = DetectorConfig(z=4)
    assert cfg.stencil_width == 7
    with pytest.raises(ValueError):
        DetectorConfig(z=0)
    with pytest.raises(ValueError):
        DetectorConfig(z=4, mode="magic")


@pytest.mark.parametrize("z", [0, -3, 2.5, True])
def test_order_budget_must_be_a_positive_integer(z):
    with pytest.raises(ValueError, match="order budget z"):
        DetectorConfig(z=z)
    with pytest.raises(ValueError, match="order budget z"):
        relation_matrix(gen_cycle(5), 1, z)
    with pytest.raises(ValueError, match="order budget z"):
        lookup_table(gen_cycle(5), (2, 3), 1, z)
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    with pytest.raises(ValueError, match="order budget z"):
        detect_edge_failures(sys_net, [1, 2, 3, 4, 5], 0.0, 2.0, 1e-2, 1.0, (2, 3), z)
    # the same call with a valid budget sees edge 2 at orders (1, 2)
    found = detect_edge_failures(sys_net, [1, 2, 3, 4, 5], 0.0, 2.0, 1e-2, 1.0, (2, 3), 4)
    assert found[1][0].orders.tolist() == [1, 2]


# -- detection -------------------------------------------------------------------------


def test_detect_analytic_example2():
    events = detect(example2_trace(), (2, 3), DetectorConfig(z=4))
    assert len(events) == 1
    assert events[0].time == pytest.approx(5.0)
    assert events[0].orders.tolist() == [1, 2]


def test_detect_finite_difference_example2():
    cfg = DetectorConfig(z=4, mode="finite-difference")
    events = detect(example2_trace(), (2, 3), cfg)
    assert len(events) == 1
    assert events[0].time == pytest.approx(5.0, abs=1e-12)
    assert events[0].orders.tolist() == [1, 2]


def test_detect_failure_free_trace_is_silent():
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, 1e-3)
    for mode in ("analytic", "finite-difference"):
        assert detect(trace, (2, 3), DetectorConfig(z=4, mode=mode)) == []


def test_detect_out_of_budget_failure_is_silent():
    # head of edge 4 is node 4, dist(4, 2) = 3: first jump order 4 > z = 1
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, 1e-2, [FailureEvent(4, 5.0)])
    assert detect(trace, (2,), DetectorConfig(z=1)) == []


def test_detect_unreachable_failure_is_silent():
    sys_net = NetworkSystem(gen_star(5), scalar_model())
    trace = simulate(sys_net, np.ones(5), 0.0, 6.0, 1e-2, [FailureEvent(1, 3.0)])
    assert detect(trace, (1,), DetectorConfig(z=4)) == []


def test_detect_driven_trace_in_both_modes():
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    w = ExogenousInput.sinusoid(0.4 * np.ones((5, 1)), 0.25 * np.ones((5, 1)),
                                np.zeros((5, 1)))
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, 1e-3,
                     [FailureEvent(2, 5.0)], w=w)
    # a smooth drive does not jump, so both detectors see the table column
    for mode in ("analytic", "finite-difference"):
        events = detect(trace, (2, 3), DetectorConfig(z=4, mode=mode))
        assert len(events) == 1, mode
        assert events[0].time == pytest.approx(5.0, abs=1e-12)
        assert events[0].orders.tolist() == [1, 2], mode


def test_finite_difference_budget_past_twenty_orders():
    # z = 19 gives a 22-point stencil, whose Taylor moments need 21!
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 2.0, 1e-2, [FailureEvent(2, 1.0)])
    events = detect(trace, (2, 3), DetectorConfig(z=19, mode="finite-difference"))
    assert [(e.orders.tolist(), e.time) for e in events] == [([1, 2], pytest.approx(1.0))]


def test_fd_and_analytic_agree_up_to_third_order():
    trace = example2_trace(dt=1e-3)
    sensors = (2, 3, 4)  # node 4 sees the edge-2 failure at order 3
    analytic = detect(trace, sensors, DetectorConfig(z=4, mode="analytic"))
    fd = detect(trace, sensors, DetectorConfig(z=4, mode="finite-difference"))
    assert len(analytic) == len(fd) == 1
    assert analytic[0].orders.tolist() == [1, 2, 3]
    assert fd[0].orders.tolist() == analytic[0].orders.tolist()


def _fd_reference_corpus():
    """Seeded traces: d, o in {1, 2}, one and two failures, one driven, two coarse."""
    from netfdi.dynamics import ExogenousInput
    rng = np.random.default_rng(20261018)
    g = gen_cycle(5)
    traces = []
    for d in (1, 2):
        for o in (1, 2):
            model = random_stable_model(rng, d_max=2, io_max=2)
            while model.A.shape[0] != d or model.C.shape[0] != o:
                model = random_stable_model(rng, d_max=2, io_max=2)
            sys_net = NetworkSystem(g, damp_coupling(g, model))
            for schedule in ([FailureEvent(2, 0.8)], [FailureEvent(1, 0.6), FailureEvent(3, 1.3)]):
                traces.append(simulate(sys_net, rng.normal(0.0, 1.0, 5 * d), 0.0, 2.0, 1e-3,
                                       schedule))
    scalar_net = NetworkSystem(g, scalar_model())
    drive = ExogenousInput.sinusoid(0.4 * np.ones((5, 1)), 0.25 * np.ones((5, 1)),
                                    np.zeros((5, 1)))
    traces.append(simulate(scalar_net, [1, 2, 3, 4, 5], 0.0, 2.0, 1e-3,
                           [FailureEvent(2, 1.0)], w=drive))
    # edge 1 is seen at order 2 from sensor 2; at z = 1 samples next to its
    # break are flagged but the break is not, and the cluster must span it
    for edge in (1, 2):
        traces.append(simulate(scalar_net, [1, 2, 3, 4, 5], 0.0, 2.0, 1e-2,
                               [FailureEvent(edge, 1.0)]))
    return traces


def test_finite_difference_matches_reference_detector():
    found = 0
    for trace in _fd_reference_corpus():
        for z in (1, 2, 4):
            events = detect(trace, (2, 3, 4), DetectorConfig(z=z, mode="finite-difference"))
            got = [(tuple(e.orders.tolist()), e.time) for e in events]
            assert got == finite_difference_reference(trace, (2, 3, 4), z)
            found += len(got)
    assert found >= 30


def test_min_oracle_jump_order_equals_lookup_entry():
    # the first observable jump order per (sensor, edge) is the D entry,
    # provided the failing link carried a nonzero signal
    rng = np.random.default_rng(23)
    model = SubsystemModel([[-0.5]], [[1.0]], [[1.0]], [[0.6]])
    for _ in range(6):
        n = int(rng.integers(3, 7))
        g = random_connected_digraph(n, rng)
        z = 4
        table = lookup_table(g, tuple(range(1, n + 1)), r=1, z=z)
        sys_pre = NetworkSystem(g, model)
        x = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        for label in g.edge_labels:
            sys_post = sys_pre.remove_edge(label)
            column = table.column(label)
            for p in range(1, n + 1):
                observed = 0
                for k in range(1, z + 1):
                    if np.linalg.norm(jump_oracle(sys_pre, sys_post, x, p, k)) > 1e-9:
                        observed = k
                        break
                assert observed == column[p - 1]


def _random_isolable_digraph(n, rng):
    """Random connected digraph with all in-degrees <= 1.

    Edges sharing a head produce identical signature columns, so isolation
    is feasible exactly on these graphs: random recursive trees (edges
    parent -> child), sometimes closed into a cycle through the root.
    """
    edges = [Edge(int(rng.integers(1, i)), i) for i in range(2, n + 1)]
    if rng.random() < 0.5:
        tail = int(rng.integers(2, n + 1))
        edges.append(Edge(tail, 1))
    return Digraph(n, edges)


def test_detect_isolate_recovers_injected_edge_on_random_corpus():
    from netfdi.placement import greedy_detection, greedy_isolation
    from netfdi.fdi import relation_matrix as rel_mat
    rng = np.random.default_rng(37)
    model = scalar_model()
    for _ in range(5):
        n = int(rng.integers(3, 7))
        g = _random_isolable_digraph(n, rng)
        rel = rel_mat(g, r=1)
        m_i = greedy_isolation(rel, greedy_detection(rel))
        assert m_i is not None  # in-degree <= 1 makes isolation feasible
        table = lookup_table(g, m_i, r=1, z=rel.z)
        sys_net = NetworkSystem(g, model)
        x0 = rng.uniform(0.5, 1.5, n)
        for label in g.edge_labels:
            trace = simulate(sys_net, x0, 0.0, 4.0, 0.01, [FailureEvent(label, 2.0)])
            events = detect(trace, m_i, DetectorConfig(z=rel.z))
            assert len(events) == 1
            verdict = isolate(events[0], table)
            assert verdict.verdict == "unique"
            assert verdict.edge == label


def test_detect_sensor_validation():
    trace = example2_trace(dt=1e-2)
    with pytest.raises(ValueError):
        detect(trace, (), DetectorConfig(z=4))
    with pytest.raises(ValueError):
        detect(trace, (7,), DetectorConfig(z=4))


# -- isolation -------------------------------------------------------------------------


def cycle_table():
    return lookup_table(gen_cycle(5), (2, 3), r=1, z=4)


def test_isolate_unique_example2():
    result = isolate(JumpSignature(np.array([1, 2]), 5.0), cycle_table())
    assert result.verdict == "unique"
    assert result.edges == (2,)
    assert result.edge == 2


def test_isolate_ambiguous_on_star():
    table = lookup_table(gen_star(5), (1, 2, 3, 4, 5), r=1, z=1)
    result = isolate(JumpSignature(np.array([0, 0, 0, 0, 1]), 1.0), table)
    assert result.verdict == "ambiguous"
    assert result.edges == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        result.edge


def test_isolate_nomatch():
    result = isolate(JumpSignature(np.array([4, 4]), 5.0), cycle_table())
    assert result.verdict == "nomatch"
    assert result.edges == ()


def test_isolate_signature_dimension_check():
    with pytest.raises(ValueError):
        isolate(JumpSignature(np.array([1, 2, 3]), 5.0), cycle_table())


def test_isolate_matches_column_scan():
    """Vectorised matching agrees with a brute-force scan of the columns."""
    rng = np.random.default_rng(53)
    verdicts = set()
    for _ in range(200):
        n_sensors = int(rng.integers(1, 5))
        n_edges = int(rng.integers(1, 12))
        table = rng.integers(0, 4, size=(n_sensors, n_edges))
        twins = rng.integers(0, n_edges, size=int(rng.integers(0, 4)))
        table[:, rng.integers(0, n_edges, size=twins.size)] = table[:, twins]
        labels = tuple(int(v) for v in rng.permutation(np.arange(1, 40))[:n_edges])
        lookup = LookupTable(table=table, sensors=tuple(range(1, n_sensors + 1)),
                             edge_labels=labels, r=1, z=3)
        column = table[:, rng.integers(0, n_edges)]
        for signature in (column, np.full(n_sensors, 7), rng.integers(0, 4, n_sensors)):
            expected = tuple(label for idx, label in enumerate(labels)
                             if np.array_equal(table[:, idx], signature))
            result = isolate(JumpSignature(signature, 1.0), lookup)
            assert result.edges == expected
            assert all(type(label) is int for label in result.edges)
            assert result.verdict == ("unique" if len(expected) == 1 else
                                      "ambiguous" if expected else "nomatch")
            verdicts.add(result.verdict)
    assert verdicts == {"unique", "ambiguous", "nomatch"}


def test_batched_isolation_equals_isolate_per_signature():
    table = lookup_table(gen_random_geometric(50, 1.0, 0.25, 20240517), range(1, 11), 2, 9)
    rng = np.random.default_rng(8)
    signatures = np.concatenate([table.table.T, rng.integers(0, 5, size=(40, 10)),
                                 np.zeros((2, 10), dtype=np.int64)])
    batched = _isolate_all(signatures, table)
    assert batched == [isolate(JumpSignature(sig, 0.0), table) for sig in signatures]
    assert {result.verdict for result in batched} == {"unique", "ambiguous", "nomatch"}
    assert _isolate_all([], table) == []
    with pytest.raises(ValueError):
        _isolate_all(signatures[:, :9], table)


def test_every_cycle_edge_isolated_uniquely():
    table = cycle_table()
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    for label in (1, 2, 3, 4, 5):
        trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, 1e-2,
                         [FailureEvent(label, 5.0)])
        events = detect(trace, (2, 3), DetectorConfig(z=4))
        assert len(events) == 1
        result = isolate(events[0], table)
        assert result.verdict == "unique"
        assert result.edge == label


# -- first-jump kernel and weak coupling ------------------------------------------------


def _rotated(model, angle=0.5):
    """Model in a rotated state basis: same Markov parameters, but CB is only ~1e-17."""
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    return SubsystemModel(Q @ model.A @ Q.T, Q @ model.B, model.C @ Q.T, model.Gamma)


def _weak_coupling_models(gamma):
    companion = SubsystemModel([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[1.0, 0.0]],
                               [[gamma]])
    return {"scalar": SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[gamma]]),
            "companion": companion, "rotated": _rotated(companion)}


def _assert_signatures_equal_table(g, model, x0, sensors, z=None, w=None):
    """Every edge's detect(simulate(...)) signature is its lookup-table column."""
    r = relative_degree(model)
    table = lookup_table(g, sensors, r, z)
    sys_net = NetworkSystem(g, model)
    cfg = DetectorConfig(z=table.z)
    for label in g.edge_labels:
        trace = simulate(sys_net, x0, 0.0, 0.2, 0.1, [FailureEvent(label, 0.1)], w=w)
        events = detect(trace, sensors, cfg)
        column = table.column(label)
        if not column.any():
            assert events == [], (r, label)
            continue
        assert len(events) == 1, (r, label)
        assert events[0].time == pytest.approx(0.1)
        assert events[0].orders.tolist() == column.tolist(), (r, label)


@pytest.mark.parametrize("gamma", [1.0, 0.05, 0.01, 1e-3, 1e-5])
@pytest.mark.parametrize("kind", ["scalar", "companion", "rotated"])
def test_analytic_detection_matches_table_under_weak_coupling(gamma, kind):
    model = _weak_coupling_models(gamma)[kind]
    if kind == "rotated":
        cb = markov_parameter(model, 1)
        assert cb.any() and np.abs(cb).max() < 1e-12   # r = 2 only up to roundoff
    rng = np.random.default_rng(71)
    g = random_connected_digraph(7, rng)
    x0 = rng.normal(0.0, 1.0, g.n_nodes * model.d)
    # no drive, a sinusoid and a quadratic; looped over, not parametrised, so
    # the test ids stay as they were
    rng = np.random.default_rng(72)
    shape = (g.n_nodes, model.m)
    drives = (None,
              ExogenousInput.sinusoid(rng.normal(0.0, 1.0, shape), rng.uniform(0.1, 2.0, shape),
                                      rng.uniform(0.0, 2 * np.pi, shape)),
              ExogenousInput.polynomial(rng.normal(0.0, 1.0, shape + (3,))))
    for w in drives:
        _assert_signatures_equal_table(g, model, x0, tuple(range(1, g.n_nodes + 1)), w=w)


def test_analytic_detection_matches_table_on_rgg50_weak_coupling():
    g = gen_random_geometric(50, 1.0, 0.25, 20240517)
    model = _weak_coupling_models(0.01)["companion"]
    x0 = np.random.default_rng(1).normal(0.0, 1.0, 2 * g.n_nodes)
    _assert_signatures_equal_table(g, model, x0, tuple(range(1, 51)))


def _kernel_columns(sys_net, x, sensors, z, labels):
    edges = [sys_net.graph.edge(label) for label in labels]
    return _first_jumps(sys_net.closed_loop, x, [e.head - 1 for e in edges],
                        [e.tail - 1 for e in edges], sys_net.model.C, sensors, z)


def test_first_jumps_batched_equal_single_columns_and_relation_matrix():
    # Gamma spans four decades.  Draws whose M_r Gamma is close to nilpotent
    # are left out: their first jump is smaller than the natural scale of
    # that order by about (rho(M_r Gamma) / |M_r Gamma|)^dist, below what the
    # roundoff bound can separate.
    rng = np.random.default_rng(0)
    checked = 0
    for it in range(120):
        n = int(rng.integers(2, 9))
        g = random_connected_digraph(n, rng)
        model = random_stable_model(rng) if it % 2 == 0 else chain_model(int(rng.integers(1, 4)), rng)
        model = damp_coupling(g, model)
        model = SubsystemModel(model.A, model.B, model.C,
                               model.Gamma * 10 ** rng.uniform(-4, 0))
        x = rng.normal(size=n * model.d)
        r = relative_degree(model)
        mr_gamma = markov_parameter(model, r) @ model.Gamma
        if np.abs(np.linalg.eigvals(mr_gamma)).max() < 0.1 * np.linalg.norm(mr_gamma, 2):
            continue
        rel = relation_matrix(g, r)
        sys_net = NetworkSystem(g, model)
        sensors = tuple(range(1, n + 1))
        batched = _kernel_columns(sys_net, x, sensors, rel.z, g.edge_labels)
        assert batched.dtype == np.int64 and batched.shape == (n, g.n_edges)
        for q, label in enumerate(g.edge_labels):
            single = _kernel_columns(sys_net, x, sensors, rel.z, [label])
            assert single[:, 0].tolist() == batched[:, q].tolist()
        np.testing.assert_array_equal(batched.T, rel.entries)
        checked += 1
    assert checked >= 100


def test_first_jumps_without_edges_is_empty():
    sys_net = NetworkSystem(Digraph(3, []), scalar_model())
    orders = _kernel_columns(sys_net, np.ones(3), (1, 2), 2, [])
    assert orders.shape == (2, 0) and orders.dtype == np.int64


def test_detect_analytic_rejects_changes_outside_the_failed_block():
    trace = example2_trace(dt=1e-2)
    left, right = trace.segments
    failed = trace.schedule[0].edge
    edge = left.graph.edge(failed)
    own = (edge.head - 1, edge.tail - 1)
    # another block alone, or besides its own, or its own changing to anything but zero
    for blocks in ([(0, 3)], [own, (0, 3)], [own]):
        matrix = left.matrix.copy()
        for block in blocks:
            matrix[block] += 0.5
        forged = dataclasses.replace(
            trace, segments=(left, dataclasses.replace(right, matrix=matrix)))
        with pytest.raises(ValueError, match="outside"):
            detect(forged, (2, 3), DetectorConfig(z=4))
    # the schedule names the failed edge; one that is not in the graph is refused
    forged = dataclasses.replace(trace, schedule=(FailureEvent(9, 5.0),))
    with pytest.raises(ValueError):
        detect(forged, (2, 3), DetectorConfig(z=4))
    forged = dataclasses.replace(trace, schedule=())
    with pytest.raises(ValueError):
        detect(forged, (2, 3), DetectorConfig(z=4))
