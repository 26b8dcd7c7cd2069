"""Networked-LTI dynamics: Kronecker closed loop, failure simulation, jumps.

A network couples N copies of one subsystem (A, B, C, Gamma) over a digraph,
giving the stacked closed loop  I_N (x) A + G (x) B Gamma C.  A link failure
at t_f swaps that matrix for the one of the mutated graph while the state is
carried over continuously, so output derivatives (not outputs) jump at t_f.

Two routes to the jump are provided and kept strictly apart so each can
check the other:

* ``jump_oracle``      - brute difference of one-sided derivatives from the
                         pre/post closed-loop matrices; knows nothing about
                         graph distances or Markov parameters.
* ``theoretical_jump`` - closed-form prediction: first jump at order
                         r * (dist + 1) with value
                         -g_ij [G^dist]_pi (M_r Gamma)^(dist+1) C x_j(t_f),
                         where M_r is the first nonzero Markov parameter.

Prediction reads memoised structure: each ``SubsystemModel`` keeps the powers
(M_r Gamma)^(dist+1) it has been asked for in ``_q_powers``, and each
``Digraph`` keeps its hop array and walk powers in ``_memo``.  A failure
changes one block of the closed loop, so ``NetworkSystem.remove_edge``, the
one place a link fails, copies the pre-failure matrix and overwrites that
block with the model's ``_failed_block``.

A smooth drive w = H xi is the output of an exosystem xi' = S xi, so a
driven run is the autonomous [x; xi]' = [[A_cl, (I_N (x) B) H], [0, S]] [x; xi],
stepped like an undriven one; a failure still zeroes a block of A_cl.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .graph import Digraph, _check_node, _walk_power, distances

#: absolute tolerance below which a Markov parameter counts as zero
NONZERO_ATOL = 1e-12


class DegenerateModelError(ValueError):
    """Raised when every Markov parameter C A^(k-1) B, k <= d, vanishes."""


class SubsystemModel:
    """Matrices (A, B, C, Gamma) of one node's dynamics.

    A is d x d, B is d x m, C is o x d and the inner coupling Gamma is
    m x o, so Gamma maps neighbor outputs into the input channels.
    Construction fails if the model has no well-defined relative degree.
    """

    __slots__ = ("A", "B", "C", "Gamma", "_r", "_mr_gamma", "_q_powers", "_failed_block")

    def __init__(self, A, B, C, Gamma):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
        d = self.A.shape[0]
        if self.A.shape != (d, d):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != d:
            raise ValueError(f"B must have {d} rows, got {self.B.shape}")
        if self.C.shape[1] != d:
            raise ValueError(f"C must have {d} columns, got {self.C.shape}")
        if self.Gamma.shape != (self.B.shape[1], self.C.shape[0]):
            raise ValueError(
                f"Gamma must be {self.B.shape[1]}x{self.C.shape[0]} (inputs x outputs), "
                f"got {self.Gamma.shape}")
        for name in ("A", "B", "C", "Gamma"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")
        self._r = None
        self._r = relative_degree(self)
        self._mr_gamma = markov_parameter(self, self._r) @ self.Gamma
        self._q_powers = {}
        # a failed edge's closed-loop block, as a rebuild writes it: 0 A + 0 B Gamma C
        self._failed_block = 0.0 * self.A + 0.0 * (self.B @ self.Gamma @ self.C)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def o(self) -> int:
        return self.C.shape[0]

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(),
                "C": self.C.tolist(), "Gamma": self.Gamma.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SubsystemModel":
        return cls(data["A"], data["B"], data["C"], data["Gamma"])

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "SubsystemModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


def markov_parameter(model: SubsystemModel, k: int) -> np.ndarray:
    """k-th Markov parameter C A^(k-1) B (the s^-k series coefficient of H)."""
    if k < 1:
        raise ValueError(f"Markov parameter index must be >= 1, got {k}")
    return model.C @ np.linalg.matrix_power(model.A, k - 1) @ model.B


def relative_degree(model: SubsystemModel) -> int:
    """Least k with C A^(k-1) B nonzero (any entry above 1e-12).

    By Cayley-Hamilton no index beyond d can be the first nonzero one, so
    a model whose first d Markov parameters all vanish is rejected.
    """
    if model._r is not None:
        return model._r
    for k in range(1, model.d + 1):
        if np.abs(markov_parameter(model, k)).max() > NONZERO_ATOL:
            return k
    raise DegenerateModelError(
        f"all Markov parameters up to k={model.d} vanish; relative degree undefined")


def q_matrix(model: SubsystemModel, dist: int) -> np.ndarray:
    """Leading coefficient (M_r Gamma)^(dist+1) of [H(s) Gamma]^(dist+1).

    Equals the large-s limit of s^(r (dist+1)) [H(s) Gamma]^(dist+1); may be
    the zero matrix when M_r Gamma is nilpotent even though M_r is not.
    """
    if dist < 0:
        raise ValueError(f"dist must be >= 0, got {dist}")
    return _q_power(model, dist).copy()


def _q_power(model: SubsystemModel, dist: int) -> np.ndarray:
    """Memoised (M_r Gamma)^(dist+1) of the model; shared, never to be mutated."""
    power = model._q_powers.get(dist)
    if power is None:
        power = model._q_powers[dist] = np.linalg.matrix_power(model._mr_gamma, dist + 1)
    return power


def closed_loop(g: Digraph, model: SubsystemModel) -> np.ndarray:
    """Stacked closed-loop matrix I_N (x) A + G (x) B Gamma C."""
    n, d = g.n_nodes, model.d
    coupling = model.B @ model.Gamma @ model.C
    # block (i, j) is I[i, j] A + G[i, j] B Gamma C, entry for entry the Kronecker form
    blocks = (np.eye(n)[:, None, :, None] * model.A[:, None, :]
              + g.adjacency()[:, None, :, None] * coupling[:, None, :])
    return blocks.reshape(n * d, n * d)


class NetworkSystem:
    """A digraph plus one subsystem model, with the closed loop assembled."""

    __slots__ = ("graph", "model", "closed_loop")

    def __init__(self, graph: Digraph, model: SubsystemModel):
        self.graph = graph
        self.model = model
        self.closed_loop = closed_loop(graph, model)

    def remove_edge(self, label: int) -> "NetworkSystem":
        """System after the given link (tail -> head) fails.

        Only block (head, tail) of the closed loop changes.  It gets the
        values a rebuild gives it, 0.0 A + 0.0 B Gamma C, signed zeros
        included, so the result equals ``closed_loop`` of the mutated graph
        byte for byte.
        """
        e, d = self.graph.edge(label), self.model.d
        post = NetworkSystem.__new__(NetworkSystem)
        post.graph = self.graph.remove_edge(label)
        post.model = self.model
        post.closed_loop = loop = self.closed_loop.copy()
        loop[(e.head - 1) * d : e.head * d, (e.tail - 1) * d : e.tail * d] = self.model._failed_block
        return post

    @property
    def n_states(self) -> int:
        return self.graph.n_nodes * self.model.d

    def output_matrix(self) -> np.ndarray:
        return np.kron(np.eye(self.graph.n_nodes), self.model.C)


@dataclass(frozen=True)
class FailureEvent:
    """Link `edge` (by label) drops out at time `time`."""

    edge: int
    time: float


class ExogenousInput:
    """Smooth per-node drive w(t); zero, polynomial or sinusoid.

    All three kinds are infinitely differentiable, as the jump analysis
    requires.  Parameter arrays are indexed (node, input channel, ...).
    """

    def __init__(self, kind: str, **params):
        if kind not in ("zero", "polynomial", "sinusoid"):
            raise ValueError(f"unknown input kind {kind!r}")
        self.kind = kind
        self.params = {k: np.asarray(v, dtype=float) for k, v in params.items()}

    @classmethod
    def zero(cls) -> "ExogenousInput":
        return cls("zero")

    @classmethod
    def polynomial(cls, coeffs) -> "ExogenousInput":
        """w_i,ch(t) = sum_k coeffs[i, ch, k] t^k; coeffs shaped (N, m, K)."""
        return cls("polynomial", coeffs=coeffs)

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase) -> "ExogenousInput":
        """w_i,ch(t) = amplitude * sin(2 pi frequency t + phase), each (N, m)."""
        return cls("sinusoid", amplitude=amplitude, frequency=frequency, phase=phase)

    def _exosystem(self, n_nodes: int, m: int, t0: float):
        """(S, H, xi(t0)) with xi' = S xi and w(t) = H xi(t) stacked in R^(N m).

        A polynomial of degree K - 1 is one K-state shift chain
        xi = (1, t, ..., t^(K-1)), S[k, k-1] = k, shared by all nodes.  A
        sinusoid is one rotation xi = (sin, cos)(2 pi frequency t + phase)
        per (node, channel).  Zero has no state.  ValueError for parameters
        that are non-finite or of the wrong shape.
        """
        for name, value in self.params.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{self.kind} input: {name} has non-finite entries")
        if self.kind == "zero":
            return np.zeros((0, 0)), np.zeros((n_nodes * m, 0)), np.zeros(0)
        if self.kind == "polynomial":
            coeffs = self.params["coeffs"]
            if coeffs.ndim != 3 or coeffs.shape[:2] != (n_nodes, m) or not coeffs.shape[2]:
                raise ValueError(f"coeffs must be ({n_nodes},{m},K), K >= 1, got {coeffs.shape}")
            k = np.arange(coeffs.shape[2])
            return np.diag(k[1:], -1), coeffs.reshape(n_nodes * m, -1), float(t0) ** k
        for name in ("amplitude", "frequency", "phase"):
            if self.params[name].shape != (n_nodes, m):
                raise ValueError(f"{name} must be ({n_nodes},{m}), got {self.params[name].shape}")
        omega = 2.0 * np.pi * self.params["frequency"].reshape(-1)
        angle = omega * t0 + self.params["phase"].reshape(-1)
        S = np.kron(np.diag(omega), [[0.0, 1.0], [-1.0, 0.0]])
        H = np.kron(np.diag(self.params["amplitude"].reshape(-1)), [[1.0, 0.0]])
        return S, H, np.column_stack([np.sin(angle), np.cos(angle)]).reshape(-1)


@dataclass(frozen=True)
class TraceSegment:
    """Sample range [start, stop] governed by one closed-loop matrix."""

    start: int
    stop: int
    matrix: np.ndarray
    graph: Digraph


@dataclass
class SimulationTrace:
    """Sampled stacked trajectory with its failure schedule and segments.

    The state is continuous across failures: the boundary sample belongs to
    both neighboring segments and only derivatives change there.  A driven
    run's ``states`` carry the exosystem state xi after the N d network
    states, and its segment matrices are the augmented ones that step
    [x; xi]; ``outputs`` and the CSV read x alone.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    schedule: tuple[FailureEvent, ...]
    segments: tuple[TraceSegment, ...]
    n_nodes: int
    state_dim: int
    output_dim: int
    c_matrix: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def output_of(self, p: int) -> np.ndarray:
        """Samples of y_p, shaped (n_samples, o)."""
        _check_node(p, self.n_nodes, "sensor")
        o = self.output_dim
        return self.outputs[:, (p - 1) * o : p * o]

    def derivatives(self, sensors: Sequence[int], z: int) -> np.ndarray:
        """Exact d^k y_p / dt^k for k = 0..z at every sample.

        Shaped (|sensors|, z + 1, o, n_samples).  On a segment with matrix A
        the k-th derivative of y_p is (e_p (x) C) A^k x, so each
        segment's states are carried k times through A and read out by the
        stacked sensor rows e_p (x) C.  Both are CSR products, whose sums run
        in a fixed order, so the values do not depend on the BLAS thread
        count.  A boundary sample belongs to both of its segments; the later
        one (right-hand derivatives) wins.
        """
        from scipy import sparse   # imported here: only the derivative dump needs it

        n, d, o = self.n_nodes, self.state_dim, self.output_dim
        rows = np.zeros((len(sensors), o, self.states.shape[1]))
        for si, p in enumerate(sensors):
            _check_node(p, n, "sensor")
            rows[si, :, (p - 1) * d : p * d] = self.c_matrix
        read = sparse.csr_array(rows.reshape(-1, rows.shape[2]))
        out = np.empty((len(sensors), z + 1, o, len(self.times)))
        for seg in self.segments:
            loop = sparse.csr_array(seg.matrix)
            # 1024 samples at a time keep the carried states small
            for a in range(seg.start, seg.stop + 1, 1024):
                sl = slice(a, min(a + 1024, seg.stop + 1))
                v = np.ascontiguousarray(self.states[sl].T)
                for k in range(z + 1):
                    out[:, k, :, sl] = (read @ v).reshape(rows.shape[:2] + v.shape[1:])
                    if k < z:
                        v = loop @ v
        return out

    def to_csv(self, path: str | Path):
        """Write `t,x_1_1..x_N_d,y_1_1..y_N_o` rows with 17 significant digits."""
        n, d, o = self.n_nodes, self.state_dim, self.output_dim
        header = (["t"]
                  + [f"x_{i}_{l}" for i in range(1, n + 1) for l in range(1, d + 1)]
                  + [f"y_{i}_{c}" for i in range(1, n + 1) for c in range(1, o + 1)])
        _write_csv(path, header, self.times, self.states[:, : n * d], self.outputs)


def _write_csv(path: str | Path, header: Sequence[str], times: np.ndarray,
               *blocks: np.ndarray):
    """Write the header, then per sample `t,<row of each block>` with 17 significant digits.

    Each block is shaped (n_samples, width).  One "%.17g,...\n" template is
    filled per row, over that row's floats; `%.17g` prints every double
    (signed zeros, inf, nan, subnormals) as `format(v, ".17g")` does.
    """
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, *rows in zip(times.tolist(), *blocks):
            cells = [t]
            for row in rows:
                cells += row.tolist()
            fh.write(template % tuple(cells))


def _snap_schedule(schedule: Sequence[FailureEvent], t0: float, dt: float,
                   n_steps: int) -> list[tuple[int, FailureEvent]]:
    """Snap failure times to grid indices, validating the spacing rules."""
    snapped = []
    for ev in schedule:
        if not np.isfinite(ev.time):
            raise ValueError(f"failure time {ev.time} not alignable to the grid")
        idx = int(round((ev.time - t0) / dt))
        if abs(ev.time - (t0 + idx * dt)) > dt / 2 + 1e-12 * max(1.0, abs(ev.time)):
            raise ValueError(f"failure time {ev.time} not alignable to the grid")
        if not 0 < idx < n_steps:
            raise ValueError(f"failure time {ev.time} must fall strictly inside the horizon")
        snapped.append((idx, FailureEvent(ev.edge, t0 + idx * dt)))
    snapped.sort(key=lambda pair: pair[0])
    if len({idx for idx, _ in snapped}) != len(snapped):
        raise ValueError("failure times collide on the sample grid")
    return snapped


def _time_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    """Uniform sample times t0, t0 + dt, ..., t_end (validated)."""
    for name, value in (("t0", t0), ("t_end", t_end), ("dt", dt)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end <= t0:
        raise ValueError(f"need t_end > t0, got [{t0}, {t_end}]")
    n_steps = int(round((t_end - t0) / dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    return t0 + dt * np.arange(n_steps + 1)


def _initial_states(sys: NetworkSystem, x0, n_samples: int, xi0=()) -> np.ndarray:
    """Uninitialized (n_samples, N d + q) state array with [x0; xi0] in its first row."""
    nd = sys.n_states
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (nd,):
        raise ValueError(f"x0 must have {nd} entries, got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 has non-finite entries")
    states = np.empty((n_samples, nd + len(xi0)))
    states[0, :nd] = x0
    states[0, nd:] = xi0
    return states


def _propagate_exact(A: np.ndarray, dt: float, states: np.ndarray, a: int, b: int):
    """Fill states[a+1..b] from states[a] with the exact step expm(A dt) of v' = A v."""
    phi = expm(A * dt)
    for n in range(a, b):
        np.matmul(phi, states[n], out=states[n + 1])


def _trace(sys: NetworkSystem, times, states, snapped, boundaries, systems,
           matrices) -> SimulationTrace:
    """Package simulated states with their outputs, schedule and one segment per system."""
    outputs = states[:, : sys.n_states] @ sys.output_matrix().T
    segments = tuple(
        TraceSegment(boundaries[s], boundaries[s + 1], matrix, seg.graph)
        for s, (seg, matrix) in enumerate(zip(systems, matrices)))
    return SimulationTrace(times=times, states=states, outputs=outputs,
                           schedule=tuple(ev for _, ev in snapped), segments=segments,
                           n_nodes=sys.graph.n_nodes, state_dim=sys.model.d,
                           output_dim=sys.model.o, c_matrix=sys.model.C.copy())


def simulate(sys: NetworkSystem, x0, t0: float, t_end: float, dt: float,
             schedule: Sequence[FailureEvent] = (),
             w: ExogenousInput | None = None) -> SimulationTrace:
    """Piecewise-exact simulation of the network with scheduled link failures.

    Failure times are snapped to the sample grid.  Each failure-free
    segment is propagated by the matrix exponential (one expm per segment,
    exact up to expm accuracy).  A nonzero w is generated by its exosystem
    xi' = S xi, w = H xi, so a driven segment steps the augmented state
    [x; xi] with [[A_cl, (I_N (x) B) H], [0, S]], which the trace keeps as
    its segment matrix; with w = zero that matrix is the closed loop itself.

    Parameters
    ----------
    sys : network to simulate (defines the pre-failure closed loop).
    x0 : initial stacked state in R^(N d).
    t0, t_end, dt : uniform sample grid; t_end > t0, dt > 0.
    schedule : FailureEvents with distinct grid-aligned times in (t0, t_end).
    w : exogenous input; None means zero.
    """
    times = _time_grid(t0, t_end, dt)
    n_steps = len(times) - 1

    if w is None:
        w = ExogenousInput.zero()
    snapped = _snap_schedule(schedule, t0, dt, n_steps)
    S, H, xi0 = w._exosystem(sys.graph.n_nodes, sys.model.m, t0)

    # Segment boundaries and the system in force on each segment.
    boundaries = [0] + [idx for idx, _ in snapped] + [n_steps]
    systems = [sys]
    for _, ev in snapped:
        systems.append(systems[-1].remove_edge(ev.edge))
    matrices = [seg.closed_loop for seg in systems]
    if len(S):
        drive = np.kron(np.eye(sys.graph.n_nodes), sys.model.B) @ H
        below = np.zeros((len(S), sys.n_states))
        matrices = [np.block([[A, drive], [below, S]]) for A in matrices]

    states = _initial_states(sys, x0, n_steps + 1, xi0)
    for seg, A in enumerate(matrices):
        _propagate_exact(A, dt, states, boundaries[seg], boundaries[seg + 1])
    return _trace(sys, times, states, snapped, boundaries, systems, matrices)


def _healthy_prefix(sys: NetworkSystem, x0, t0: float, t_end: float, dt: float,
                    t_fail: float) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Validated grid, snapped failure and states with the healthy run filled up to it.

    Returns (times, idx, time, states): ``time`` is t_fail snapped to grid
    index idx, as ``simulate`` schedules it, and states[: idx + 1] equal
    those of ``simulate`` with any failure at t_fail, bit for bit; the later
    rows are left uninitialized.
    """
    times = _time_grid(t0, t_end, dt)
    n_steps = len(times) - 1
    # the edge label plays no part in snapping a time to the grid
    [(idx, event)] = _snap_schedule([FailureEvent(0, t_fail)], t0, dt, n_steps)
    states = _initial_states(sys, x0, n_steps + 1)
    _propagate_exact(sys.closed_loop, dt, states, 0, idx)
    return times, idx, event.time, states


def simulate_edge_failures(sys: NetworkSystem, x0, t0: float, t_end: float, dt: float,
                           t_fail: float):
    """One zero-input trace per edge label, that edge failing alone at t_fail.

    Every scenario shares the healthy run up to the failure time, so it is
    simulated once; each edge then only propagates its post-failure segment.
    Yields, in edge-label order, traces equal bit for bit to
    ``simulate(sys, x0, t0, t_end, dt, [FailureEvent(label, t_fail)])``.
    The grid, x0 and the failure time are validated before the first trace
    is built; traces are yielded one at a time.
    """
    times, idx, time, healthy = _healthy_prefix(sys, x0, t0, t_end, dt, t_fail)
    n_steps = len(times) - 1

    def traces():
        for label in sys.graph.edge_labels:
            post = sys.remove_edge(label)
            states = np.empty_like(healthy)
            states[: idx + 1] = healthy[: idx + 1]
            _propagate_exact(post.closed_loop, dt, states, idx, n_steps)
            yield _trace(sys, times, states, [(idx, FailureEvent(label, time))],
                         [0, idx, n_steps], [sys, post], [sys.closed_loop, post.closed_loop])

    return traces()


def _check_sensor_and_order(sys: NetworkSystem, p: int, k: int):
    _check_node(p, sys.graph.n_nodes, "sensor")
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")


def one_sided_derivative(sys_pre: NetworkSystem, sys_post: NetworkSystem,
                         x_tf, p: int, k: int, side: str) -> np.ndarray:
    """Exact one-sided k-th derivative of y_p at the failure time (w = zero).

    The left limit uses the pre-failure closed loop, the right limit the
    post-failure one: d^k y_p / dt^k = (e_p (x) C) A_side^k x(t_f).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_sensor_and_order(sys_pre, p, k)
    A = sys_pre.closed_loop if side == "left" else sys_post.closed_loop
    v = np.asarray(x_tf, dtype=float).reshape(-1)
    for _ in range(k):
        v = A @ v
    d = sys_pre.model.d
    return sys_pre.model.C @ v[(p - 1) * d : p * d]


def jump_oracle(sys_pre: NetworkSystem, sys_post: NetworkSystem,
                x_tf, p: int, k: int) -> np.ndarray:
    """Jump of the k-th output derivative at node p, straight from matrices.

    Returns (e_p (x) C)(A_post^k - A_pre^k) x(t_f) with no reference to the
    closed-form prediction; serves as the independent check of it.
    """
    _check_sensor_and_order(sys_pre, p, k)
    x = np.asarray(x_tf, dtype=float).reshape(-1)
    v_pre = x.copy()
    v_post = x.copy()
    for _ in range(k):
        v_pre = sys_pre.closed_loop @ v_pre
        v_post = sys_post.closed_loop @ v_post
    d = sys_pre.model.d
    diff = v_post - v_pre
    return sys_pre.model.C @ diff[(p - 1) * d : p * d]


@dataclass(frozen=True)
class JumpPrediction:
    """Predicted first jump order and value at one sensor, or unobservable.

    `order` and `value` are reported separately: the order is purely
    structural while the value can still vanish (nilpotent M_r Gamma or an
    unlucky x(t_f)), which means a silent failure at the predicted order.
    """

    observable: bool
    order: int | None
    value: np.ndarray | None


def theoretical_jump(g: Digraph, model: SubsystemModel, edge: int, p: int,
                     x_tf) -> JumpPrediction:
    """Closed-form (order, value) of the first derivative jump at sensor p.

    For the failed edge (j -> i) with weight g_ij and dist = dist(i, p) in
    the pre-failure graph:

        order = r (dist + 1)
        value = -g_ij [G^dist]_pi (M_r Gamma)^(dist+1) C x_j(t_f)

    When no directed i -> p path exists the failure never shows at p and an
    unobservable prediction is returned.
    """
    _check_node(p, g.n_nodes, "sensor")
    e = g.edge(edge)
    dist = int(distances(g)._hops[e.head - 1, p - 1])
    if dist < 0:
        return JumpPrediction(observable=False, order=None, value=None)
    order = model._r * (dist + 1)
    walk = _walk_power(g, dist)[p - 1, e.head - 1]
    d = model.d
    x = np.asarray(x_tf, dtype=float).reshape(-1)
    x_j = x[(e.tail - 1) * d : e.tail * d]
    value = -e.weight * walk * (_q_power(model, dist) @ (model.C @ x_j))
    return JumpPrediction(observable=True, order=order, value=value)


def fault_replicant_check(sys: NetworkSystem, edge: int, x0, t_f: float,
                          horizon: float, dt: float = 0.01) -> float:
    """Max-norm gap between a faulty run and the replicant-driven healthy run.

    Side A simulates the failure by graph mutation.  Side B keeps the
    faultless network and injects the fault-replicant feedback
    f(t) = -g_ij (e_i e_j^T (x) Gamma C) x(t) from t_f on, folded into the
    propagation matrix as the closed-loop correction
    -g_ij (e_i e_j^T (x) B Gamma C).  The two must agree to integration
    accuracy; a failure time outside (0, horizon) leaves both runs healthy.
    """
    inside = 0.0 < t_f < horizon
    schedule = [FailureEvent(edge, t_f)] if inside else []
    faulty = simulate(sys, x0, 0.0, horizon, dt, schedule)

    e = sys.graph.edge(edge)
    n = sys.graph.n_nodes
    sel = np.zeros((n, n))
    sel[e.head - 1, e.tail - 1] = 1.0
    correction = -e.weight * np.kron(sel, sys.model.B @ sys.model.Gamma @ sys.model.C)

    n_steps = len(faulty.times) - 1
    switch = int(round((t_f - 0.0) / dt)) if inside else n_steps
    states = _initial_states(sys, x0, n_steps + 1)
    _propagate_exact(sys.closed_loop, dt, states, 0, min(switch, n_steps))
    if inside:
        _propagate_exact(sys.closed_loop + correction, dt, states, switch, n_steps)
    return float(np.abs(faulty.states - states).max())
