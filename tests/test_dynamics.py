import numpy as np
import pytest
from scipy.linalg import expm

from netfdi.dynamics import (DegenerateModelError, ExogenousInput, FailureEvent,
                             NetworkSystem, SimulationTrace, SubsystemModel, closed_loop,
                             fault_replicant_check, jump_oracle, markov_parameter,
                             one_sided_derivative, q_matrix, relative_degree, simulate,
                             simulate_edge_failures, theoretical_jump)
from netfdi.graph import (INFINITE, Digraph, Edge, distances, gen_cycle, gen_star,
                          walk_matrix)

from corpusgen import (chain_model, connected_digraphs_up_to, damp_coupling,
                       random_connected_digraph, random_stable_model)
from oracles import (markov_parameter_limit, q_limit, reference_jump,
                     relative_degree_slope)


def scalar_model():
    # H(s) = 1/(s+1)
    return SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])


def double_integrator():
    # H(s) = 1/s^2
    return SubsystemModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[1.0]])


def example2_system():
    """Five-node cycle of leaky integrators, the canonical golden scenario."""
    return NetworkSystem(gen_cycle(5), scalar_model())


# -- model basics --------------------------------------------------------------


def test_relative_degree_golden():
    assert relative_degree(scalar_model()) == 1
    assert relative_degree(double_integrator()) == 2


def test_degenerate_model_rejected():
    with pytest.raises(DegenerateModelError):
        SubsystemModel([[1.0]], [[0.0]], [[1.0]], [[1.0]])


def test_model_dimension_validation():
    with pytest.raises(ValueError):
        SubsystemModel([[1.0, 0.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0, 0.0]])


def test_model_rejects_non_finite_entries():
    good = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}
    for name in good:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
                SubsystemModel(**{**good, name: [[bad]]})


def test_relative_degree_matches_large_s_slope():
    rng = np.random.default_rng(3)
    models = [random_stable_model(rng) for _ in range(10)]
    models += [scalar_model(), double_integrator()]
    for model in models:
        assert relative_degree(model) == relative_degree_slope(model)


def test_markov_parameter_golden():
    ident = SubsystemModel(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.eye(2))
    assert np.allclose(markov_parameter(ident, 1), np.eye(2))
    assert markov_parameter(double_integrator(), 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        markov_parameter(ident, 0)


def test_markov_parameter_matches_numeric_series():
    rng = np.random.default_rng(4)
    for _ in range(8):
        model = random_stable_model(rng)
        for k in (1, 2, 3):
            got = markov_parameter(model, k)
            want = markov_parameter_limit(model, k)
            assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_q_matrix_golden():
    assert q_matrix(scalar_model(), 1) == pytest.approx(1.0)
    assert q_matrix(double_integrator(), 1) == pytest.approx(1.0)
    model = scalar_model()
    assert np.allclose(q_matrix(model, 0),
                       markov_parameter(model, 1) @ model.Gamma)


def test_q_matrix_matches_numeric_limit():
    rng = np.random.default_rng(5)
    for _ in range(8):
        model = random_stable_model(rng)
        r = relative_degree(model)
        for dist in (0, 1, 2):
            got = q_matrix(model, dist)
            want = q_limit(model, dist, r)
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


def test_model_json_roundtrip(tmp_path):
    model = double_integrator()
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SubsystemModel.load(path)
    for attr in ("A", "B", "C", "Gamma"):
        assert np.array_equal(getattr(loaded, attr), getattr(model, attr))


# -- closed loop ------------------------------------------------------------------


def test_closed_loop_trivial_cases():
    model = double_integrator()
    single = closed_loop(Digraph(1), model)
    assert np.array_equal(single, model.A)
    empty3 = closed_loop(Digraph(3), model)
    assert np.array_equal(empty3, np.kron(np.eye(3), model.A))


def test_closed_loop_equals_negated_cycle_laplacian():
    # the printed five-node cycle Laplacian, negated
    laplacian = np.array([
        [1, 0, 0, 0, -1],
        [-1, 1, 0, 0, 0],
        [0, -1, 1, 0, 0],
        [0, 0, -1, 1, 0],
        [0, 0, 0, -1, 1],
    ], dtype=float)
    assert np.array_equal(example2_system().closed_loop, -laplacian)


def test_kronecker_mixed_product_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m1, m2, m3, m4 = (rng.normal(size=(2, 2)) for _ in range(4))
        lhs = np.kron(m1, m2) @ np.kron(m3, m4)
        rhs = np.kron(m1 @ m3, m2 @ m4)
        assert np.allclose(lhs, rhs, atol=1e-12)


# -- simulation --------------------------------------------------------------------


def test_simulate_zero_everything_stays_zero():
    sys_net = example2_system()
    trace = simulate(sys_net, np.zeros(5), 0.0, 2.0, 0.01)
    assert np.all(trace.states == 0.0)
    assert np.all(trace.outputs == 0.0)


def test_simulate_outputs_equal_output_map():
    sys_net = example2_system()
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 3.0, 0.01,
                     [FailureEvent(2, 1.5)])
    stacked_c = np.kron(np.eye(5), sys_net.model.C)
    assert np.array_equal(trace.outputs, trace.states @ stacked_c.T)


def test_simulate_matches_single_expm():
    sys_net = example2_system()
    x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    trace = simulate(sys_net, x0, 0.0, 4.0, 0.05)
    for idx in (10, 40, 80):
        direct = expm(sys_net.closed_loop * trace.times[idx]) @ x0
        assert np.allclose(trace.states[idx], direct, rtol=1e-11, atol=1e-12)


def test_simulate_failure_segments_and_continuity():
    sys_net = example2_system()
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, 0.01, [FailureEvent(2, 5.0)])
    assert len(trace.segments) == 2
    boundary = trace.segments[0].stop
    assert trace.times[boundary] == pytest.approx(5.0)
    assert trace.segments[1].graph.edge_labels == (1, 3, 4, 5)
    # state is a shared sample at the failure time: continuity is exact
    assert trace.segments[1].start == boundary
    # post-failure dynamics of node 2 keep the self term: pure decay
    tail = trace.states[boundary:, 1]
    decay = tail[0] * np.exp(-(trace.times[boundary:] - 5.0))
    assert np.allclose(tail, decay, rtol=1e-9, atol=1e-12)


def test_simulate_slope_break_only_at_failed_head():
    sys_net = example2_system()
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 10.0, 0.001, [FailureEvent(2, 5.0)])
    b = trace.segments[0].stop
    dt = trace.dt

    def slope(series, idx, side):
        if side == "left":
            return (series[idx] - series[idx - 1]) / dt
        return (series[idx + 1] - series[idx]) / dt

    x2 = trace.states[:, 1]
    x3 = trace.states[:, 2]
    jump_x2 = abs(slope(x2, b, "right") - slope(x2, b, "left"))
    jump_x3 = abs(slope(x3, b, "right") - slope(x3, b, "left"))
    assert jump_x2 > 1.0  # visible slope break at the failed edge's head
    assert jump_x3 < 1e-2  # first derivative of x_3 stays continuous


def test_simulate_schedule_validation():
    sys_net = example2_system()
    x0 = np.ones(5)
    with pytest.raises(ValueError):
        simulate(sys_net, x0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        simulate(sys_net, x0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        simulate(sys_net, x0, 0.0, 1.0, 0.1, [FailureEvent(2, 0.0)])
    with pytest.raises(ValueError):
        simulate(sys_net, x0, 0.0, 1.0, 0.1, [FailureEvent(2, 2.0)])
    with pytest.raises(ValueError):
        simulate(sys_net, x0, 0.0, 1.0, 0.1,
                 [FailureEvent(2, 0.5), FailureEvent(3, 0.52)])
    with pytest.raises(KeyError):
        simulate(sys_net, x0, 0.0, 1.0, 0.1, [FailureEvent(99, 0.5)])
    with pytest.raises(ValueError):
        simulate(sys_net, np.ones(4), 0.0, 1.0, 0.1)


def test_simulate_rejects_non_finite_x0():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            simulate(example2_system(), [1.0, bad, 3.0, 4.0, 5.0], 0.0, 1.0, 0.1)


def test_simulate_rejects_non_finite_grid():
    sys_net = example2_system()
    for grid, name in (((np.nan, 1.0, 0.1), "t0"), ((0.0, np.inf, 0.1), "t_end"),
                       ((0.0, 1.0, np.nan), "dt"), ((-np.inf, 1.0, 0.1), "t0")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            simulate(sys_net, np.ones(5), *grid)


def test_simulate_snaps_failure_to_grid():
    sys_net = example2_system()
    trace = simulate(sys_net, np.ones(5), 0.0, 1.0, 0.1, [FailureEvent(2, 0.52)])
    assert trace.schedule[0].time == pytest.approx(0.5)


def assert_traces_identical(got, want):
    for field in ("times", "states", "outputs", "c_matrix"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.schedule == want.schedule
    assert (got.n_nodes, got.state_dim, got.output_dim) == \
        (want.n_nodes, want.state_dim, want.output_dim)
    assert len(got.segments) == len(want.segments)
    for seg_got, seg_want in zip(got.segments, want.segments):
        assert (seg_got.start, seg_got.stop) == (seg_want.start, seg_want.stop)
        assert np.array_equal(seg_got.matrix, seg_want.matrix)
        assert list(seg_got.graph.edges()) == list(seg_want.graph.edges())


def test_simulate_edge_failures_equal_simulate():
    rng = np.random.default_rng(29)
    g = random_connected_digraph(6, rng)
    model = damp_coupling(g, chain_model(2, rng))
    assert relative_degree(model) == 2
    cases = [(example2_system(), np.arange(1.0, 6.0), 0.0, 4.0, 0.01, 2.004),
             (NetworkSystem(g, model), rng.normal(size=12), 0.5, 2.5, 0.02, 1.3)]
    for sys_net, x0, t0, t_end, dt, t_fail in cases:
        traces = list(simulate_edge_failures(sys_net, x0, t0, t_end, dt, t_fail))
        assert [tr.schedule[0].edge for tr in traces] == list(sys_net.graph.edge_labels)
        for trace in traces:
            label = trace.schedule[0].edge
            want = simulate(sys_net, x0, t0, t_end, dt, [FailureEvent(label, t_fail)])
            assert_traces_identical(trace, want)


def test_simulate_edge_failures_validation():
    sys_net = example2_system()
    x0 = np.ones(5)
    # grid, failure time and x0 are checked before the first trace is built
    for bad_time in (0.0, 1.0, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            simulate_edge_failures(sys_net, x0, 0.0, 1.0, 0.1, bad_time)
    with pytest.raises(ValueError):
        simulate_edge_failures(sys_net, x0, 0.0, 1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        simulate_edge_failures(sys_net, np.ones(4), 0.0, 1.0, 0.1, 0.5)
    traces = simulate_edge_failures(sys_net, x0, 0.0, 1.0, 0.1, 0.52)
    assert next(traces).schedule == (FailureEvent(1, 0.5),)


def test_simulate_polynomial_input_matches_closed_form():
    # single leaky integrator driven by constant c: x(t) = c + (x0 - c) e^-t
    sys_net = NetworkSystem(Digraph(1), scalar_model())
    c = 0.7
    w = ExogenousInput.polynomial(np.array([[[c]]]))
    trace = simulate(sys_net, [2.0], 0.0, 3.0, 0.01, w=w)
    expected = c + (2.0 - c) * np.exp(-trace.times)
    assert np.allclose(trace.states[:, 0], expected, rtol=1e-8, atol=1e-10)
    # driven by c0 + c1 t + c2 t^2: x(t) = a + b t + c2 t^2 + (x0 - a) e^-t,
    # b = c1 - 2 c2, a = c0 - b
    c0, c1, c2 = 0.7, -0.4, 0.3
    w = ExogenousInput.polynomial(np.array([[[c0, c1, c2]]]))
    trace = simulate(sys_net, [2.0], 0.0, 3.0, 0.01, w=w)
    b = c1 - 2 * c2
    a = c0 - b
    t = trace.times
    expected = a + b * t + c2 * t**2 + (2.0 - a) * np.exp(-t)
    assert np.allclose(trace.states[:, 0], expected, rtol=1e-8, atol=1e-10)


def test_simulate_sinusoid_input_matches_closed_form():
    # x' = -x + a sin(wt): particular solution a (sin wt - w cos wt)/(1+w^2)
    sys_net = NetworkSystem(Digraph(1), scalar_model())
    a, freq = 1.3, 0.25
    omega = 2 * np.pi * freq
    w = ExogenousInput.sinusoid([[a]], [[freq]], [[0.0]])
    x0 = 0.4
    trace = simulate(sys_net, [x0], 0.0, 4.0, 0.005, w=w)
    part = a * (np.sin(omega * trace.times) - omega * np.cos(omega * trace.times)) / (1 + omega**2)
    hom = (x0 - part[0]) * np.exp(-trace.times)
    assert np.allclose(trace.states[:, 0], hom + part, rtol=1e-8, atol=1e-9)


def test_exogenous_input_validation():
    with pytest.raises(ValueError):
        ExogenousInput("noise")
    sys_net = example2_system()
    ones = np.ones((5, 1))
    bad_drives = [
        ExogenousInput.polynomial(np.zeros((3, 1, 2))),
        ExogenousInput.polynomial(np.zeros((5, 1))),
        ExogenousInput.polynomial(np.zeros((5, 1, 0))),
        ExogenousInput.polynomial(np.full((5, 1, 2), np.inf)),
        # a NaN amplitude used to simulate to NaN states without a word
        ExogenousInput.sinusoid(np.full((5, 1), np.nan), ones, ones),
        ExogenousInput.sinusoid(ones, ones, np.full((5, 1), -np.inf)),
        # frequency and phase are checked for shape too, not broadcast
        ExogenousInput.sinusoid(ones, np.ones(1), ones),
        ExogenousInput.sinusoid(ones, ones, 0.0),
        ExogenousInput.sinusoid(np.ones((5, 2)), ones, ones),
    ]
    for bad in bad_drives:
        with pytest.raises(ValueError):
            simulate(sys_net, np.ones(5), 0.0, 1.0, 0.1, w=bad)


def test_trace_csv_format(tmp_path):
    sys_net = NetworkSystem(gen_cycle(3), double_integrator())
    trace = simulate(sys_net, np.arange(6, dtype=float), 0.0, 0.5, 0.1)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("t,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2,y_1_1,y_2_1,y_3_1")
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], trace.times)
    assert np.array_equal(parsed[:, 1:7], trace.states)


def test_trace_csv_bytes_equal_per_cell_loop(tmp_path):
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 0.1, -1.0 / 3.0,
                1.7976931348623157e308, 2.2250738585072014e-308, 1e16, 123456789.0]
    states = np.array(specials[:12]).reshape(4, 3)
    outputs = np.array(specials[1:13][::-1]).reshape(4, 3)
    times = np.array([0.0, 0.1, -0.0, 5e-324])
    trace = SimulationTrace(times=times, states=states, outputs=outputs, schedule=(),
                            segments=(), n_nodes=3, state_dim=1, output_dim=1,
                            c_matrix=np.eye(1))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = ["t,x_1_1,x_2_1,x_3_1,y_1_1,y_2_1,y_3_1"]
    for row_t, row_x, row_y in zip(times, states, outputs):
        cells = [f"{row_t:.17g}"] + [f"{v:.17g}" for v in row_x] + [f"{v:.17g}" for v in row_y]
        lines.append(",".join(cells))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b"-0," in path.read_bytes() and b"nan" in path.read_bytes()


# -- one-sided derivatives and jumps -------------------------------------------------


def failed_pair(label=2):
    sys_pre = example2_system()
    return sys_pre, sys_pre.remove_edge(label)


def x_at_failure(t_f=5.0):
    sys_pre = example2_system()
    return expm(sys_pre.closed_loop * t_f) @ np.array([1.0, 2.0, 3.0, 4.0, 5.0])


def test_trace_derivatives_match_one_sided_derivatives():
    rng = np.random.default_rng(41)
    for _ in range(3):
        g = random_connected_digraph(4, rng)
        model = damp_coupling(g, random_stable_model(rng))
        sys_net = NetworkSystem(g, model)
        label = g.edge_labels[0]
        trace = simulate(sys_net, rng.normal(size=sys_net.n_states), 0.0, 1.0, 0.05,
                         [FailureEvent(label, 0.5)])
        post = sys_net.remove_edge(label)
        sensors, z = (4, 1, 3), 4
        dy = trace.derivatives(sensors, z)
        assert dy.shape == (len(sensors), z + 1, model.o, len(trace.times))
        for si, p in enumerate(sensors):
            assert np.allclose(dy[si, 0], trace.output_of(p).T, rtol=1e-12, atol=1e-14)
        # the healthy loop governs before the failure, the failed one from
        # the boundary sample on
        boundary = trace.segments[0].stop
        for idx, side in ((3, "left"), (boundary, "right"), (15, "right")):
            for si, p in enumerate(sensors):
                for k in range(z + 1):
                    want = one_sided_derivative(sys_net, post, trace.states[idx], p, k, side)
                    assert np.allclose(dy[si, k, :, idx], want, rtol=1e-12,
                                       atol=1e-14 * max(1.0, np.abs(want).max()))


def test_trace_derivatives_validation():
    sys_net = example2_system()
    trace = simulate(sys_net, np.ones(5), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        trace.derivatives((6,), 2)
    assert trace.derivatives((), 2).shape == (0, 3, 1, len(trace.times))
    # x' = -x + 0.5: a driven trace's derivatives include the input's share
    driven = simulate(NetworkSystem(Digraph(1), scalar_model()), [1.0], 0.0, 1.0, 0.1,
                      w=ExogenousInput.polynomial(np.array([[[0.5]]])))
    dy = driven.derivatives((1,), 2)
    assert np.allclose(dy[0, 1, 0], -driven.states[:, 0] + 0.5, rtol=1e-12, atol=1e-14)


def test_one_sided_derivative_order_zero_continuous():
    sys_pre, sys_post = failed_pair()
    x = x_at_failure()
    for p in range(1, 6):
        left = one_sided_derivative(sys_pre, sys_post, x, p, 0, "left")
        right = one_sided_derivative(sys_pre, sys_post, x, p, 0, "right")
        assert np.array_equal(left, right)


def test_one_sided_derivative_example_values():
    sys_pre, sys_post = failed_pair()
    x = x_at_failure()
    left = one_sided_derivative(sys_pre, sys_post, x, 2, 1, "left")
    right = one_sided_derivative(sys_pre, sys_post, x, 2, 1, "right")
    assert left == pytest.approx(x[0] - x[1])
    assert right == pytest.approx(-x[1])
    with pytest.raises(ValueError):
        one_sided_derivative(sys_pre, sys_post, x, 2, 1, "up")


def test_jump_oracle_example_value():
    sys_pre, sys_post = failed_pair()
    x = x_at_failure()
    assert jump_oracle(sys_pre, sys_post, x, 2, 1) == pytest.approx(-x[0])
    assert jump_oracle(sys_pre, sys_post, x, 3, 2) == pytest.approx(-x[0])


def test_jump_oracle_zero_when_unreachable():
    star = NetworkSystem(gen_star(5), scalar_model())
    post = star.remove_edge(1)  # edge 1 -> 5; node 1 never hears about it
    x = np.array([0.5, -1.0, 2.0, 0.3, 1.1])
    for k in range(0, 6):
        assert np.allclose(jump_oracle(star, post, x, 1, k), 0.0, atol=1e-12)


def test_theoretical_jump_example2():
    g = gen_cycle(5)
    model = scalar_model()
    x = x_at_failure()
    pred2 = theoretical_jump(g, model, 2, 2, x)
    assert pred2.observable and pred2.order == 1
    assert pred2.value == pytest.approx(-x[0])
    pred3 = theoretical_jump(g, model, 2, 3, x)
    assert pred3.observable and pred3.order == 2
    assert pred3.value == pytest.approx(-x[0])


def test_theoretical_jump_silent_and_unobservable():
    g = gen_cycle(5)
    model = scalar_model()
    x = np.zeros(5)
    x[3] = 7.0  # x_j = x_1 stays zero
    pred = theoretical_jump(g, model, 2, 2, x)
    assert pred.observable and pred.value == pytest.approx(0.0)
    star = gen_star(5)
    pred = theoretical_jump(star, model, 1, 2, np.ones(5))
    assert not pred.observable
    assert pred.order is None and pred.value is None


def test_jump_prediction_suite_random_networks():
    """Oracle gate: zero below the predicted order, exact match at it."""
    rng = np.random.default_rng(2024)
    checked_matches = 0
    for trial in range(25):
        n = int(rng.integers(2, 7))
        g = random_connected_digraph(n, rng)
        model = damp_coupling(g, random_stable_model(rng))
        sys_pre = NetworkSystem(g, model)
        x = rng.normal(0.0, 1.0, sys_pre.n_states)
        xnorm = np.linalg.norm(x)
        for label in g.edge_labels:
            sys_post = sys_pre.remove_edge(label)
            for p in range(1, n + 1):
                pred = theoretical_jump(g, model, label, p, x)
                if not pred.observable:
                    for k in (1, 2, 3):
                        assert np.linalg.norm(
                            jump_oracle(sys_pre, sys_post, x, p, k)) <= 1e-9 * xnorm
                    continue
                for k in range(pred.order):
                    assert np.linalg.norm(
                        jump_oracle(sys_pre, sys_post, x, p, k)) <= 1e-9 * xnorm
                oracle = jump_oracle(sys_pre, sys_post, x, p, pred.order)
                if np.linalg.norm(oracle) > 1e-4 * xnorm:
                    rel = (np.linalg.norm(pred.value - oracle)
                           / np.linalg.norm(oracle))
                    assert rel <= 1e-6
                    checked_matches += 1
    assert checked_matches > 100


def test_fault_replicant_equivalence():
    sys_net = example2_system()
    x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    dev = fault_replicant_check(sys_net, 2, x0, 5.0, 10.0, dt=0.01)
    assert dev <= 1e-9 * np.abs(x0).max()


def test_fault_replicant_outside_horizon():
    sys_net = example2_system()
    assert fault_replicant_check(sys_net, 2, np.ones(5), 20.0, 10.0) == 0.0


def test_fault_replicant_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(3):
        g = random_connected_digraph(6, rng)
        model = damp_coupling(g, random_stable_model(rng))
        sys_net = NetworkSystem(g, model)
        x0 = rng.normal(0.0, 1.0, sys_net.n_states)
        label = int(rng.choice(g.edge_labels))
        dev = fault_replicant_check(sys_net, label, x0, 2.5, 5.0, dt=0.01)
        assert dev <= 1e-9 * max(1.0, np.abs(x0).max())


def test_sensor_and_order_out_of_range_raise():
    sys_pre, sys_post = failed_pair()
    x = x_at_failure()
    with pytest.raises(ValueError, match=r"sensor 0 outside 1\.\.5"):
        theoretical_jump(sys_pre.graph, sys_pre.model, 2, 0, x)
    with pytest.raises(ValueError, match=r"sensor 6 outside 1\.\.5"):
        theoretical_jump(sys_pre.graph, sys_pre.model, 2, 6, x)
    with pytest.raises(ValueError, match="derivative order must be >= 0, got -1"):
        jump_oracle(sys_pre, sys_post, x, 2, -1)
    with pytest.raises(ValueError, match=r"sensor 0 outside 1\.\.5"):
        jump_oracle(sys_pre, sys_post, x, 0, 1)
    with pytest.raises(ValueError, match=r"sensor 0 outside 1\.\.5"):
        one_sided_derivative(sys_pre, sys_post, x, 0, 1, "left")


# -- memoised prediction and the post-failure closed loop ------------------------------


def signed_models():
    """One model per d in {1, 2, 3} with A[0, 0] < 0 and (B Gamma C)[0, 0] < 0.

    Block (0, 0) of a failed edge then holds 0.0 * A + 0.0 * B Gamma C = -0.0,
    which a block of plain zeros would get wrong.
    """
    rng = np.random.default_rng(77)
    models = []
    for d in (1, 2, 3):
        A = rng.normal(0.0, 0.3, (d, d)) - np.eye(d)
        B = rng.normal(0.0, 1.0, (d, 2))
        C = rng.normal(0.0, 1.0, (2, d))
        Gamma = rng.normal(0.0, 1.0, (2, 2))
        if (B @ Gamma @ C)[0, 0] > 0:
            Gamma = -Gamma
        model = SubsystemModel(A, B, C, Gamma)
        coupling = model.B @ model.Gamma @ model.C
        assert model.A[0, 0] < 0 and coupling[0, 0] < 0
        models.append(model)
    return models


def jump_corpus():
    rng = np.random.default_rng(8)
    graphs = connected_digraphs_up_to(3)
    graphs += [random_connected_digraph(int(rng.integers(4, 8)), rng) for _ in range(6)]
    models = signed_models() + [chain_model(3, rng), random_stable_model(rng)]
    for gi, g0 in enumerate(graphs):
        g = Digraph(g0.n_nodes, [Edge(e.tail, e.head, float(rng.uniform(0.3, 1.7)))
                                 for _, e in g0.edges()])
        model = models[gi % len(models)]
        yield g, model, rng.normal(0.0, 1.0, g.n_nodes * model.d)


def test_post_failure_closed_loop_is_bytewise_rebuild():
    negative_zeros = 0
    for g, model, x in jump_corpus():
        sys_net = NetworkSystem(g, model)
        for label, e in g.edges():
            want = closed_loop(g.remove_edge(label), model)
            got = sys_net.remove_edge(label)
            assert got.closed_loop.tobytes() == want.tobytes()
            assert got.graph == g.remove_edge(label) and got.model is model
            [trace] = [tr for tr in simulate_edge_failures(sys_net, x, 0.0, 0.2, 0.1, 0.1)
                       if tr.schedule[0].edge == label]
            assert trace.segments[1].matrix.tobytes() == want.tobytes()
            d = model.d
            block = want[(e.head - 1) * d : e.head * d, (e.tail - 1) * d : e.tail * d]
            negative_zeros += int(np.signbit(block).sum())
        if g.n_edges >= 2:
            first, second = g.edge_labels[:2]
            trace = simulate(sys_net, x, 0.0, 0.3, 0.1,
                             [FailureEvent(second, 0.2), FailureEvent(first, 0.1)])
            once = g.remove_edge(first)
            for seg, graph in zip(trace.segments, (g, once, once.remove_edge(second))):
                assert seg.matrix.tobytes() == closed_loop(graph, model).tobytes()
    assert negative_zeros > 0


def test_theoretical_jump_bit_identical_to_reference():
    observable = 0
    for g, model, x in jump_corpus():
        for label in g.edge_labels:
            for p in range(1, g.n_nodes + 1):
                pred = theoretical_jump(g, model, label, p, x)
                want_observable, want_order, want_value = reference_jump(g, model, label, p, x)
                assert (pred.observable, pred.order) == (want_observable, want_order)
                if want_observable:
                    assert type(pred.order) is int
                    assert pred.value.tobytes() == want_value.tobytes()
                    observable += 1
                else:
                    assert pred.value is None
    assert observable > 200


def test_predictions_survive_mutating_returned_arrays():
    g = gen_cycle(5)
    model = SubsystemModel([[-1.0, 0.5], [0.2, -2.0]], [[0.0], [1.0]], [[1.0, 0.3]],
                           [[0.8]])
    x = np.linspace(-1.0, 1.0, 10)

    def predictions():
        return [theoretical_jump(g, model, label, p, x)
                for label in g.edge_labels for p in range(1, 6)]

    before = predictions()
    for dist in range(5):
        q_matrix(model, dist)[...] = 7.0
        walk_matrix(g, dist)[...] = 7.0
    assert q_matrix(model, 0).tobytes() == model._mr_gamma.tobytes()
    after = predictions()
    for old, new in zip(before, after):
        assert (old.order, old.value.tobytes()) == (new.order, new.value.tobytes())


def test_matrix_power_runs_once_per_model_and_dist(monkeypatch):
    rng = np.random.default_rng(12)
    g = random_connected_digraph(7, rng)
    model = damp_coupling(g, chain_model(2, rng))
    x = rng.normal(0.0, 1.0, g.n_nodes * model.d)
    calls = []
    real = np.linalg.matrix_power

    def counting(a, n):
        calls.append(n)
        return real(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counting)
    hops = distances(g)
    exponents = sorted({hops[e.head, p] + 1 for _, e in g.edges()
                        for p in range(1, g.n_nodes + 1) if hops[e.head, p] is not INFINITE})
    predictions = 0
    for _ in range(2):
        for label in g.edge_labels:
            for p in range(1, g.n_nodes + 1):
                predictions += theoretical_jump(g, model, label, p, x).observable
    assert predictions > 2 * len(exponents)
    assert sorted(calls) == exponents


def test_output_of_checks_node_range():
    sys_net = NetworkSystem(gen_cycle(5), scalar_model())
    trace = simulate(sys_net, [1, 2, 3, 4, 5], 0.0, 1.0, 0.1)
    assert trace.output_of(5).tolist() == trace.outputs[:, 4:5].tolist()
    for p in (0, 6, -1):
        with pytest.raises(ValueError, match="outside 1..5"):
            trace.output_of(p)
