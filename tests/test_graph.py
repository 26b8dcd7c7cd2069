import math
import re
import tracemalloc

import numpy as np
import pytest

from netfdi.dynamics import (ExogenousInput, FailureEvent, NetworkSystem, SubsystemModel,
                             fault_replicant_check, jump_oracle, markov_parameter,
                             one_sided_derivative, q_matrix, simulate, simulate_edge_failures,
                             theoretical_jump)
from netfdi.fdi import (DetectorConfig, default_order_budget, detect, detect_edge_failures,
                        detectable, estimate_one_sided_derivative, lookup_table,
                        relation_matrix)
import netfdi.graph as graph_module
from netfdi.graph import (INFINITE, Digraph, Edge, _bitset_hops, _per_source_hops, diameter,
                          distances, finite_diameter, gen_cycle, gen_random_geometric,
                          gen_star, remove_edge, walk_matrix)
from netfdi.placement import harmonic

from corpusgen import connected_digraph_edge_lists, random_connected_digraph
from netfdi.cli import RGG_NODES, RGG_RADIUS, RGG_REGION, RGG_SEED

from oracles import enumerated_walk_matrix, floyd_warshall_hops, random_geometric_edges


def test_cycle_distances_golden():
    d = distances(gen_cycle(5))
    assert d[1, 3] == 2
    assert d[3, 2] == 4
    for q in range(1, 6):
        assert d[q, q] == 0


def test_star_unreachable_from_head():
    d = distances(gen_star(5))
    assert d[5, 1] is INFINITE
    assert d[1, 5] == 1


def test_diameter_families():
    assert diameter(gen_cycle(5)) == 4
    assert diameter(Digraph(1)) == 0
    assert diameter(gen_star(5)) is INFINITE
    assert finite_diameter(gen_star(5)) == 1


def test_walk_matrix_golden_cycle():
    g = gen_cycle(5)
    w2 = walk_matrix(g, 2)
    assert w2[3 - 1, 1 - 1] == 1.0
    assert w2[2 - 1, 1 - 1] == 0.0
    assert np.array_equal(walk_matrix(g, 0), np.eye(5))
    with pytest.raises(ValueError):
        walk_matrix(g, -1)


def test_walk_matrix_matches_enumeration_exactly():
    rng = np.random.default_rng(42)
    graphs = [gen_cycle(5), gen_star(6), gen_cycle(3)]
    for n in (3, 4, 5, 6):
        for _ in range(3):
            g = random_connected_digraph(n, rng, weighted=False)
            # integer weights keep float arithmetic exact
            edges = [Edge(e.tail, e.head, float(rng.integers(1, 4)))
                     for _, e in g.edges()]
            graphs.append(Digraph(n, edges))
    for g in graphs:
        adj = g.adjacency()
        for k in range(0, 7):
            assert np.array_equal(walk_matrix(g, k), enumerated_walk_matrix(adj, k))


def test_walk_powers_extend_their_memo(monkeypatch):
    calls = []
    adjacency = Digraph.adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)

    g = gen_cycle(6)
    monkeypatch.setattr(Digraph, "adjacency", counted)
    powers = [walk_matrix(g, k) for k in range(1, 8)]
    assert len(calls) == 1
    monkeypatch.undo()
    for k, power in enumerate(powers, start=1):
        fresh = walk_matrix(Digraph(g.n_nodes, [e for _, e in g.edges()]), k)
        assert power.tobytes() == fresh.tobytes(), k


def test_walk_counting_zero_below_distance_positive_at_distance():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6, 8):
        for _ in range(4):
            g = random_connected_digraph(n, rng)
            d = distances(g)
            powers = [walk_matrix(g, k) for k in range(n + 1)]
            for q in range(1, n + 1):
                for p in range(1, n + 1):
                    dist = d[q, p]
                    if dist is INFINITE:
                        continue
                    for k in range(dist):
                        assert powers[k][p - 1, q - 1] == 0.0
                    assert powers[dist][p - 1, q - 1] > 0.0


def test_distances_match_floyd_warshall():
    rng = np.random.default_rng(11)
    graphs = [random_connected_digraph(n, rng) for n in (2, 3, 5, 7) for _ in range(5)]
    # not strongly connected: a single node, no edges, a path, two components,
    # and sparse random arc sets with no connectivity requirement at all
    unreachable = [Digraph(1), Digraph(4), gen_star(5),
                   Digraph(4, [Edge(1, 2), Edge(2, 3), Edge(3, 4)]),
                   Digraph(6, [Edge(1, 2), Edge(2, 1), Edge(4, 5), Edge(5, 6)])]
    for n in (3, 6, 9):
        for _ in range(5):
            arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                    if i != j and rng.random() < 0.15]
            unreachable.append(Digraph(n, arcs))
    for g in unreachable:
        assert diameter(g) is INFINITE or g.n_nodes == 1
    for g in graphs + unreachable:
        n = g.n_nodes
        d = distances(g)
        fw = floyd_warshall_hops(g.adjacency())
        for q in range(1, n + 1):
            for p in range(1, n + 1):
                expected = fw[q - 1, p - 1]
                if np.isinf(expected):
                    assert d[q, p] is INFINITE
                else:
                    assert d[q, p] == int(expected)


def _hop_kernel_cases() -> list[Digraph]:
    """Graphs either side of the kernel switch (32 nodes) and the 64-bit word edges.

    Nodes 1..3 get no in-arcs and nodes n-2..n no out-arcs, so some pairs are
    unreachable.  Then a graph with no arcs, a two-way ring, and a one-way
    path of 300 nodes, whose 300 levels need a ninth bit plane.
    """
    rng = np.random.default_rng(35)
    graphs = []
    for n in (31, 32, 33, 63, 64, 65, 127, 128, 129):
        arcs = [(t, h) for t in range(1, n - 2) for h in range(4, n + 1) if t != h]
        picked = np.sort(rng.choice(len(arcs), size=3 * n, replace=False))
        graphs.append(Digraph(n, [arcs[k] for k in picked]))
    ring = [(q, q % 40 + 1) for q in range(1, 41)]
    return graphs + [Digraph(64), Digraph(40, ring + [(h, t) for t, h in ring]),
                     Digraph(300, [(q, q + 1) for q in range(1, 300)])]


@pytest.mark.parametrize("g", _hop_kernel_cases(), ids=repr)
def test_both_hop_kernels_match_floyd_warshall(g):
    fw = floyd_warshall_hops(g.adjacency())
    expected = np.where(np.isinf(fw), -1, fw).astype(np.int64)
    for kernel in (_per_source_hops, _bitset_hops):
        hops = kernel(g)
        assert hops.dtype == np.int64 and hops.flags.c_contiguous
        assert np.array_equal(hops, expected), kernel.__name__


def test_distances_takes_the_bitset_kernel_from_32_nodes(monkeypatch):
    ran = []
    for name in ("_per_source_hops", "_bitset_hops"):
        kernel = getattr(graph_module, name)
        monkeypatch.setattr(graph_module, name,
                            lambda g, kernel=kernel: ran.append(kernel.__name__) or kernel(g))

    def arcs(n, m):   # m arcs of the complete digraph on n nodes, in pair order
        return [(t, h) for t in range(1, n + 1) for h in range(1, n + 1) if t != h][:m]
    cases = [(Digraph(31, arcs(31, 930)), "_per_source_hops"),
             (gen_cycle(31), "_per_source_hops"),
             (Digraph(32), "_bitset_hops"),
             (gen_cycle(32), "_bitset_hops"),
             (gen_random_geometric(RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED), "_bitset_hops"),
             (gen_star(100), "_bitset_hops")]
    for g, expected in cases:
        distances(g)
        distances(g)   # memoised: no second run
        assert ran == [expected], repr(g)
        ran.clear()


def test_bitset_hops_at_1000_nodes_equal_per_source_within_twice_the_array():
    n = 1000
    g = gen_random_geometric(n, 1.0, 2.2 * math.sqrt(math.log(n) / (math.pi * n)), 7)
    assert g.n_edges == 15381
    tracemalloc.start()
    try:
        hops = distances(g)._hops
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hops.nbytes == 8_000_000 and peak <= 2 * hops.nbytes, peak
    assert np.array_equal(hops, _per_source_hops(g))


def test_gen_cycle_edge_label_convention():
    g = gen_cycle(5)
    assert g.edge(2) == Edge(1, 2)
    assert g.edge(1) == Edge(5, 1)
    assert g.edge(5) == Edge(4, 5)
    assert g.edge_labels == (1, 2, 3, 4, 5)


def test_gen_star_all_heads_at_hub():
    g = gen_star(5)
    assert g.n_edges == 4
    assert all(e.head == 5 for _, e in g.edges())
    assert {e.tail for _, e in g.edges()} == {1, 2, 3, 4}


def test_gen_random_geometric_deterministic():
    a = gen_random_geometric(20, 1.0, 0.35, seed=123)
    b = gen_random_geometric(20, 1.0, 0.35, seed=123)
    c = gen_random_geometric(20, 1.0, 0.35, seed=124)
    assert a == b
    assert a.n_edges > 0
    assert a != c


def test_gen_random_geometric_matches_pairwise_loop():
    # a radius equal to one pair's own distance puts that pair exactly on it
    points = np.random.default_rng(5).uniform(0.0, 1.0, size=(20, 2))
    on_radius = float(np.hypot(*(points[3] - points[11])))
    cases = [(2, 1.0, 2.0, 0), (8, 1.0, 0.4, 3), (30, 2.0, 0.5, 11), (120, 1.0, 0.15, 7),
             (40, 1.0, 1e-6, 2), (20, 1.0, on_radius, 5),
             (RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED)]
    for n, side, radius, seed in cases:
        g = gen_random_geometric(n, side, radius, seed)
        edges = [(e.tail, e.head) for _, e in g.edges()]
        assert edges == random_geometric_edges(n, side, radius, seed), (n, radius, seed)
        assert all(type(v) is int for edge in edges for v in edge)
    edges = {(e.tail, e.head) for _, e in gen_random_geometric(20, 1.0, on_radius, 5).edges()}
    assert {(4, 12), (12, 4)} & edges


def test_generator_parameter_errors():
    with pytest.raises(ValueError):
        gen_cycle(1)
    with pytest.raises(ValueError):
        gen_star(1)
    with pytest.raises(ValueError):
        gen_random_geometric(10, 1.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        gen_random_geometric(1, 1.0, 0.3, seed=1)


def test_remove_edge_keeps_labels_stable():
    g = gen_cycle(5)
    h = remove_edge(g, 2)
    assert h.edge_labels == (1, 3, 4, 5)
    assert h.edge(3) == g.edge(3)
    with pytest.raises(KeyError):
        h.edge(2)
    with pytest.raises(KeyError):
        g.remove_edge(99)
    # distances recomputed on the mutated graph
    assert distances(h)[1, 2] is INFINITE
    assert distances(h)[2, 1] == 4


def test_remove_then_readd_restores_adjacency():
    g = gen_cycle(5)
    h = remove_edge(g, 2)
    restored = Digraph(5, [e for _, e in h.edges()] + [Edge(1, 2)])
    assert np.array_equal(restored.adjacency(), g.adjacency())


def test_json_roundtrip(tmp_path):
    g = gen_random_geometric(12, 2.0, 0.8, seed=5)
    path = tmp_path / "graph.json"
    g.save(path)
    loaded = Digraph.load(path)
    assert loaded == g
    assert loaded.edge_labels == g.edge_labels


def test_digraph_repr_and_equality_with_other_types():
    g = gen_cycle(5)
    assert repr(g) == "Digraph(n_nodes=5, n_edges=5)"
    assert (g == 5) is False and g != "cycle5"


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(3, [Edge(1, 1)])
    with pytest.raises(ValueError):
        Digraph(3, [Edge(1, 2), Edge(1, 2)])
    with pytest.raises(ValueError):
        Digraph(3, [Edge(1, 4)])
    with pytest.raises(ValueError):
        Digraph(3, [Edge(1, 2, weight=0.0)])
    with pytest.raises(ValueError):
        Digraph(0)
    with pytest.raises(ValueError, match="n_nodes"):
        Digraph(2.7)
    with pytest.raises(ValueError, match="edge 2"):
        Digraph(3, [Edge(2, 3), Edge(1.5, 2)])
    with pytest.raises(ValueError, match="edge 1"):
        Digraph(3, [Edge(1, 2.0)])
    for weight in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="edge 2"):
            Digraph(3, [Edge(2, 3), Edge(1, 2, weight)])
    # numpy integers are integers
    g = Digraph(np.int64(3), [Edge(np.int64(1), np.int32(2), np.float64(0.5))])
    assert g.n_nodes == 3
    assert distances(g)[1, 2] == 1
    assert g.adjacency()[1, 0] == 0.5


def test_digraph_refuses_booleans():
    # bool is an Integral and True is finite, but neither is a node count,
    # an endpoint or a weight
    with pytest.raises(ValueError, match="n_nodes"):
        Digraph(True)
    with pytest.raises(ValueError, match="edge 1"):
        Digraph(3, [Edge(True, 2)])
    with pytest.raises(ValueError, match="edge 1"):
        Digraph(3, [Edge(1, 2, True)])


def test_distance_lookup_checks_node_range():
    d = distances(gen_cycle(5))
    assert d[5, 1] == 1
    for pair in ((0, 1), (1, 0), (6, 1), (1, 6)):
        with pytest.raises(ValueError, match="outside 1..5"):
            d[pair]


def _gate_cases():
    """(id, argument name, call taking the value of that argument); 2 is valid in each slot."""
    g = gen_cycle(5)
    model = SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    pre = NetworkSystem(g, model)
    post = pre.remove_edge(2)
    x = np.arange(1.0, 6.0)
    trace = simulate(pre, x, 0.0, 1.0, 0.1)
    cfg = DetectorConfig(z=4)
    t = np.arange(8) * 0.1
    return [
        ("Digraph-n_nodes", "n_nodes", lambda v: Digraph(v)),
        ("Digraph-tail", "edge 1: tail", lambda v: Digraph(3, [Edge(v, 1)])),
        ("Digraph.edge", "edge label", lambda v: g.edge(v)),
        ("Digraph.remove_edge", "edge label", lambda v: g.remove_edge(v)),
        ("gen_cycle", "cycle size n", lambda v: gen_cycle(v)),
        ("gen_star", "star size n", lambda v: gen_star(v)),
        ("gen_random_geometric", "random geometric graph size n",
         lambda v: gen_random_geometric(v, 1.0, 0.5, 0)),
        ("gen_random_geometric-seed", "seed", lambda v: gen_random_geometric(5, 1.0, 0.5, v)),
        ("DistanceMatrix", "node", lambda v: distances(g)[v, 1]),
        ("walk_matrix", "walk length", lambda v: walk_matrix(g, v)),
        ("markov_parameter", "Markov parameter index", lambda v: markov_parameter(model, v)),
        ("q_matrix", "dist", lambda v: q_matrix(model, v)),
        ("FailureEvent", "edge", lambda v: FailureEvent(v, 0.5)),
        ("output_of", "sensor", lambda v: trace.output_of(v)),
        ("derivatives-sensor", "sensor", lambda v: trace.derivatives([v], 2)),
        ("derivatives-z", "order budget z", lambda v: trace.derivatives([2], v)),
        ("one_sided_derivative", "derivative order",
         lambda v: one_sided_derivative(pre, post, x, 3, v, "left")),
        ("jump_oracle-sensor", "sensor", lambda v: jump_oracle(pre, post, x, v, 1)),
        ("jump_oracle-order", "derivative order", lambda v: jump_oracle(pre, post, x, 3, v)),
        ("theoretical_jump-sensor", "sensor", lambda v: theoretical_jump(g, model, 2, v, x)),
        ("theoretical_jump-edge", "edge label", lambda v: theoretical_jump(g, model, v, 3, x)),
        ("relation_matrix-r", "relative degree", lambda v: relation_matrix(g, v, 4)),
        ("relation_matrix-z", "order budget z", lambda v: relation_matrix(g, 1, v)),
        ("default_order_budget", "relative degree", lambda v: default_order_budget(g, v)),
        ("lookup_table-r", "relative degree", lambda v: lookup_table(g, (2, 3), v, 4)),
        ("lookup_table-z", "order budget z", lambda v: lookup_table(g, (2, 3), 1, v)),
        ("lookup_table-sensor", "sensor", lambda v: lookup_table(g, (v, 3), 1, 4)),
        ("detectable-z", "order budget z", lambda v: detectable(g, (2, 3), 1, v, 2)),
        ("detectable-sensor", "sensor", lambda v: detectable(g, (v, 3), 1, 4, 2)),
        ("detectable-edge", "edge label", lambda v: detectable(g, (2, 3), 1, 4, v)),
        ("DetectorConfig", "order budget z", lambda v: DetectorConfig(z=v)),
        ("detect", "sensor", lambda v: detect(trace, (v,), cfg)),
        ("detect_edge_failures-z", "order budget z",
         lambda v: detect_edge_failures(pre, x, 0.0, 1.0, 0.1, 0.5, (2, 3), v)),
        ("detect_edge_failures-sensor", "sensor",
         lambda v: detect_edge_failures(pre, x, 0.0, 1.0, 0.1, 0.5, (v, 3), 4)),
        ("estimate_one_sided_derivative", "derivative order",
         lambda v: estimate_one_sided_derivative(t, t**2, v, "left", cfg)),
        ("harmonic", "harmonic sum d", harmonic),
    ]


_GATE_CASES = _gate_cases()


@pytest.mark.parametrize("bad", [True, 2.5, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("name,call", [case[1:] for case in _GATE_CASES],
                         ids=[case[0] for case in _GATE_CASES])
def test_every_integer_argument_passes_one_gate(name, call, bad):
    # a bool, a real or a string where a node, sensor, edge label, order, r or z
    # goes is a ValueError naming the argument, never read as the integer it
    # resembles; a numpy integer is an integer
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(repr(bad))} "
                                         "is not an integer$"):
        call(bad)
    call(np.int64(2))


def _real_gate_cases():
    """(id, argument name, call taking the value, a valid value, whether it must be > 0).

    A valid value that is a list is an array slot: its first entry takes the
    value under test.
    """
    g = gen_cycle(5)
    model = SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    pre = NetworkSystem(g, model)
    x = np.arange(1.0, 6.0)
    ones = np.ones((5, 1))
    column = [[2.0]] + [[1.0]] * 4
    t = np.arange(8) * 0.1
    cfg = DetectorConfig(z=2)
    return [
        ("simulate-t0", "t0", lambda v: simulate(pre, x, v, 1.0, 0.1), 0.0, False),
        ("simulate-t_end", "t_end", lambda v: simulate(pre, x, 0.0, v, 0.1), 1.0, False),
        ("simulate-dt", "dt", lambda v: simulate(pre, x, 0.0, 1.0, v), 0.1, True),
        ("FailureEvent", "failure time",
         lambda v: simulate(pre, x, 0.0, 1.0, 0.1, [FailureEvent(1, v)]), 0.5, False),
        ("detect_edge_failures", "failure time",
         lambda v: detect_edge_failures(pre, x, 0.0, 1.0, 0.1, v, (2, 3), 4), 0.5, False),
        ("simulate_edge_failures", "failure time",
         lambda v: simulate_edge_failures(pre, x, 0.0, 1.0, 0.1, v), 0.5, False),
        ("fault_replicant_check-t_f", "t_f",
         lambda v: fault_replicant_check(pre, 2, x, v, 1.0, 0.1), 0.5, False),
        ("fault_replicant_check-horizon", "horizon",
         lambda v: fault_replicant_check(pre, 2, x, 0.5, v, 0.1), 1.0, False),
        ("Edge-weight", "edge 1: weight", lambda v: Digraph(2, [Edge(1, 2, v)]), 2.0, True),
        ("gen_random_geometric-radius", "radius",
         lambda v: gen_random_geometric(5, 1.0, v, 0), 0.5, True),
        ("gen_random_geometric-region_side", "region_side",
         lambda v: gen_random_geometric(5, v, 0.5, 0), 1.0, True),
        ("x0", "x0", lambda v: simulate(pre, v, 0.0, 1.0, 0.1), x.tolist(), False),
        ("sinusoid", "sinusoid input: amplitude",
         lambda v: simulate(pre, x, 0.0, 1.0, 0.1, w=ExogenousInput.sinusoid(v, ones, ones)),
         column, False),
        ("polynomial", "polynomial input: coeffs",
         lambda v: simulate(pre, x, 0.0, 1.0, 0.1, w=ExogenousInput.polynomial(v)),
         [[[2.0, 1.0]]] + [[[1.0, 1.0]]] * 4, False),
        ("SubsystemModel", "A", lambda v: SubsystemModel(v, [[1.0]], [[1.0]], [[1.0]]),
         [[-1.0]], False),
        ("estimate_one_sided_derivative-times", "times",
         lambda v: estimate_one_sided_derivative(v, t**2, 1, "left", cfg), t.tolist(), False),
        ("estimate_one_sided_derivative-values", "values",
         lambda v: estimate_one_sided_derivative(t, v, 1, "left", cfg), (t**2).tolist(), False),
        ("theoretical_jump", "x_tf", lambda v: theoretical_jump(g, model, 1, 2, v),
         x.tolist(), False),
        ("jump_oracle", "x_tf", lambda v: jump_oracle(pre, pre.remove_edge(1), v, 2, 1),
         x.tolist(), False),
        ("one_sided_derivative", "x_tf",
         lambda v: one_sided_derivative(pre, pre.remove_edge(1), v, 2, 1, "right"),
         x.tolist(), False),
    ]


_REAL_GATE_CASES = _real_gate_cases()


def _with_first_entry(nested, value):
    """A copy of a nested list whose first scalar entry is value."""
    if not isinstance(nested, list):
        return value
    return [_with_first_entry(nested[0], value)] + nested[1:]


@pytest.mark.parametrize("bad", [True, np.True_, "2", np.nan, np.inf, 10**400],
                         ids=["bool", "numpy-bool", "str", "nan", "inf", "huge-int"])
@pytest.mark.parametrize("name,call,good,positive", [case[1:] for case in _REAL_GATE_CASES],
                         ids=[case[0] for case in _REAL_GATE_CASES])
def test_every_real_argument_passes_one_gate(name, call, good, positive, bad):
    # a bool or a string where a time, step, weight, radius, state or matrix entry
    # goes is a ValueError naming the argument, never read as the number it
    # resembles, and so is a non-finite value; numpy scalars are reals
    number = not isinstance(bad, (bool, np.bool_, str))
    if isinstance(good, list):
        want = (f"{name} has non-finite entries" if number
                else f"{name} has a non-numeric entry {bad!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call(_with_first_entry(good, bad))
        call(np.array(good))
        call(_with_first_entry(good, np.array(good).flat[0]))   # a numpy float entry
        return
    want = f"{name} must be finite, got {bad}" if number else f"{name} {bad!r} is not a real number"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(bad)
    call(np.float64(good))
    if positive:
        for low in (0.0, np.int64(-1)):
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must be > 0, got "):
                call(low)


def test_huge_integers_keep_the_argument_name():
    # an integer past str()'s digit limit is shown by its bit length, so the
    # message still opens with the argument's name
    g = gen_cycle(5)
    pre = NetworkSystem(g, SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))
    x = np.arange(1.0, 6.0)
    huge = 10**5000
    shown = f"<{huge.bit_length()}-bit integer>"
    for call, want in [
            (lambda: simulate(pre, x, 0.0, huge, 0.1), f"t_end must be finite, got {shown}"),
            (lambda: jump_oracle(pre, pre.remove_edge(1), x, huge, 1),
             f"sensor {shown} outside 1..5"),
            (lambda: relation_matrix(g, 1, -huge), f"order budget z must be >= 1, got -{shown}")]:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call()
    with pytest.raises(KeyError) as excinfo:
        g.edge(huge)
    assert excinfo.value.args == (f"unknown edge label {shown}",)


def test_remove_edge_does_not_revalidate(monkeypatch):
    g = gen_cycle(5)

    def refuse(self):
        raise AssertionError("remove_edge re-validated a subset of valid edges")

    monkeypatch.setattr(Digraph, "_validate", refuse)
    h = g.remove_edge(3).remove_edge(1)
    assert h.edge_labels == (2, 4, 5)
    with pytest.raises(KeyError):
        h.remove_edge(3)


def test_infinite_ordering():
    assert INFINITE > 10**9
    assert not INFINITE < 10**9
    assert INFINITE >= INFINITE
    assert not INFINITE > INFINITE
    assert INFINITE is type(INFINITE)()


def test_infinite_repr_and_reflexive_order():
    assert repr(INFINITE) == "INFINITE"
    assert INFINITE <= INFINITE
    assert not INFINITE <= 10**9
    assert 10**9 <= INFINITE and np.int64(3) < INFINITE


def test_isomorphism_reduced_census_counts():
    # known census of weakly-connected digraphs per node count
    for n, expected in ((1, 1), (2, 2), (3, 13), (4, 199)):
        assert len(connected_digraph_edge_lists(n)) == expected
