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

Both routes read orbits that grow by one product per order.  For the last
x(t_f) it was asked about, each ``SubsystemModel`` keeps per tail j the
orbit C x_j, (M_r Gamma) C x_j, (M_r Gamma)^2 C x_j, ... in ``_tail_orbits``,
and each ``NetworkSystem`` keeps the orbit x, A x, A^2 x, ... in ``_orbit``,
so the pre-failure orbit is shared by every edge and sensor and a
post-failure one by every sensor of its edge; each ``Digraph`` keeps its hop
array and walk powers in ``_memo``.  Both orbit memos hold one x(t_f) at a
time, keyed by its bytes, and every value is computed as it would be
without them.
``NetworkSystem.closed_loop`` is read-only, so an in-place edit raises
instead of leaving a stale orbit.  A failure changes one block of the
closed loop, so ``NetworkSystem.remove_edge``, the one place a link fails,
copies the pre-failure matrix and overwrites that block with the model's
``_failed_block``.

A smooth drive w = H xi is the output of an exosystem xi' = S xi, so a
driven run is the autonomous [x; xi]' = [[A_cl, (I_N (x) B) H], [0, S]] [x; xi],
stepped like an undriven one; a failure still zeroes a block of A_cl.

netfdi runs on numpy alone: each segment's step is netfdi's own ``_expm``,
made of matrix products only, and outputs and derivatives are read out by
``np.einsum``, which calls no BLAS.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import (Digraph, _check_int, _check_real, _real_array, _validated_sensors,
                    _walk_power, distances)

#: absolute tolerance below which a Markov parameter counts as zero
NONZERO_ATOL = 1e-12


class DegenerateModelError(ValueError):
    """Raised when every Markov parameter C A^(k-1) B, k <= d, vanishes."""


class SubsystemModel:
    """Matrices (A, B, C, Gamma) of one node's dynamics.

    A is d x d, B is d x m, C is o x d and the inner coupling Gamma is
    m x o, so Gamma maps neighbor outputs into the input channels.  All four
    are read-only copies; construction fails without a relative degree,
    which it computes once and keeps in ``_r`` for the jump prediction.
    """

    __slots__ = ("A", "B", "C", "Gamma", "_r", "_mr_gamma", "_tail_orbits", "_failed_block")

    def __init__(self, A, B, C, Gamma):
        for name, value in zip(("A", "B", "C", "Gamma"), (A, B, C, Gamma)):
            setattr(self, name, np.atleast_2d(_real_array(value, name)))
            getattr(self, name).flags.writeable = False
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
        self._r = relative_degree(self)
        self._mr_gamma = markov_parameter(self, self._r) @ self.Gamma
        # (bytes of x(t_f), {tail: [C x_tail, M_r Gamma C x_tail, ...]}) for the last x asked
        self._tail_orbits = (None, {})
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
    k = _check_int(k, "Markov parameter index", 1)
    return model.C @ np.linalg.matrix_power(model.A, k - 1) @ model.B


def relative_degree(model: SubsystemModel) -> int:
    """Least k with C A^(k-1) B nonzero (any entry above 1e-12).

    By Cayley-Hamilton no index beyond d can be the first nonzero one, so
    a model whose first d Markov parameters all vanish is rejected.
    """
    for k in range(1, model.d + 1):
        if np.abs(markov_parameter(model, k)).max() > NONZERO_ATOL:
            return k
    raise DegenerateModelError(
        f"all Markov parameters up to k={model.d} vanish; relative degree undefined")


def q_matrix(model: SubsystemModel, dist: int) -> np.ndarray:
    """Leading coefficient (M_r Gamma)^(dist+1) of [H(s) Gamma]^(dist+1).

    Equals the large-s limit of s^(r (dist+1)) [H(s) Gamma]^(dist+1); may be
    the zero matrix when M_r Gamma is nilpotent even though M_r is not.
    The result is a fresh array (``matrix_power`` returns its argument
    itself for the exponent 1).
    """
    return np.linalg.matrix_power(model._mr_gamma, _check_int(dist, "dist", 0) + 1).copy()


def closed_loop(g: Digraph, model: SubsystemModel) -> np.ndarray:
    """Stacked closed-loop matrix I_N (x) A + G (x) B Gamma C."""
    n, d = g.n_nodes, model.d
    coupling = model.B @ model.Gamma @ model.C
    # block (i, j) is I[i, j] A + G[i, j] B Gamma C, entry for entry the Kronecker form
    blocks = (np.eye(n)[:, None, :, None] * model.A[:, None, :]
              + g.adjacency()[:, None, :, None] * coupling[:, None, :])
    return blocks.reshape(n * d, n * d)


class NetworkSystem:
    """A digraph plus one subsystem model, with the closed loop assembled.

    ``closed_loop`` is read-only: the orbit memo of ``jump_oracle`` and
    ``one_sided_derivative`` is built from it.
    """

    __slots__ = ("graph", "model", "closed_loop", "_orbit")

    def __init__(self, graph: Digraph, model: SubsystemModel):
        self.graph = graph
        self.model = model
        self.closed_loop = closed_loop(graph, model)
        self.closed_loop.flags.writeable = False
        # (bytes of x(t_f), the matrix A it was built from, [x, A x, A^2 x, ...])
        self._orbit = None

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
        loop.flags.writeable = False
        post._orbit = None
        return post

    @property
    def n_states(self) -> int:
        return self.graph.n_nodes * self.model.d


@dataclass(frozen=True)
class FailureEvent:
    """Link `edge` (by label) drops out at time `time`."""

    edge: int
    time: float

    def __post_init__(self):
        object.__setattr__(self, "edge", _check_int(self.edge, "edge", 1))


class ExogenousInput:
    """Smooth per-node drive w(t); zero, polynomial or sinusoid.

    All three kinds are infinitely differentiable, as the jump analysis
    requires.  Parameter arrays are indexed (node, input channel, ...).
    """

    def __init__(self, kind: str, **params):
        if kind not in ("zero", "polynomial", "sinusoid"):
            raise ValueError(f"unknown input kind {kind!r}")
        self.kind, self.params = kind, params   # checked when a run asks for the exosystem

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
        that are not numbers, non-finite or of the wrong shape.
        """
        params = {k: _real_array(v, f"{self.kind} input: {k}") for k, v in self.params.items()}
        if self.kind == "zero":
            return np.zeros((0, 0)), np.zeros((n_nodes * m, 0)), np.zeros(0)
        if self.kind == "polynomial":
            coeffs = params["coeffs"]
            if coeffs.ndim != 3 or coeffs.shape[:2] != (n_nodes, m) or not coeffs.shape[2]:
                raise ValueError(f"coeffs must be ({n_nodes},{m},K), K >= 1, got {coeffs.shape}")
            k = np.arange(coeffs.shape[2])
            return np.diag(k[1:], -1), coeffs.reshape(n_nodes * m, -1), float(t0) ** k
        for name in ("amplitude", "frequency", "phase"):
            if params[name].shape != (n_nodes, m):
                raise ValueError(f"{name} must be ({n_nodes},{m}), got {params[name].shape}")
        omega = 2.0 * np.pi * params["frequency"].reshape(-1)
        angle = omega * t0 + params["phase"].reshape(-1)
        S = np.kron(np.diag(omega), [[0.0, 1.0], [-1.0, 0.0]])
        H = np.kron(np.diag(params["amplitude"].reshape(-1)), [[1.0, 0.0]])
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
    [x; xi]; ``outputs`` read x alone.
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
        p = _check_int(p, "sensor", 1, self.n_nodes)
        o = self.output_dim
        return self.outputs[:, (p - 1) * o : p * o]

    def derivatives(self, sensors: Sequence[int], z: int) -> np.ndarray:
        """Exact d^k y_p / dt^k for k = 0..z at every sample.

        Shaped (|sensors|, z + 1, o, n_samples).  On a segment with matrix A
        the k-th derivative of y_p is R_k x with R_k = (e_p (x) C) A^k, so
        each segment carries the sensor rows R_k = R_(k-1) A and reads every
        sample's state through them.  Both are ``np.einsum`` contractions,
        which sum in a fixed order without BLAS, so the values do not depend
        on the BLAS thread count.  A boundary sample belongs to both of its
        segments; the later one (right-hand derivatives) wins.  The sensors
        pass the sensor-set gate: a repeated one is a ValueError, none gives
        an empty array.
        """
        n, d, o = self.n_nodes, self.state_dim, self.output_dim
        z = _check_int(z, "order budget z", 0)
        sensors = _validated_sensors(sensors, n)
        # rows[s, c, k] is row c of R_k for sensor s; values[t, s, c, k] its read-out
        rows = np.zeros((len(sensors), o, z + 1, self.states.shape[1]))
        for si, p in enumerate(sensors):
            rows[si, :, 0, (p - 1) * d : p * d] = self.c_matrix
        values = np.empty((len(self.times), len(sensors), o, z + 1))
        for seg in self.segments:
            for k in range(z):
                np.einsum("scn,nm->scm", rows[:, :, k], seg.matrix, out=rows[:, :, k + 1])
            sl = slice(seg.start, seg.stop + 1)
            np.einsum("tn,sckn->tsck", self.states[sl], rows, out=values[sl])
        return values.transpose(1, 3, 2, 0)


def _snap_schedule(schedule: Sequence[FailureEvent], t0: float, dt: float,
                   n_steps: int) -> list[tuple[int, FailureEvent]]:
    """Snap failure times to grid indices, validating the spacing rules."""
    snapped = []
    for ev in schedule:
        time = _check_real(ev.time, "failure time")
        ratio = (time - t0) / dt
        if not (math.isfinite(ratio) and 0 < round(ratio) < n_steps):
            raise ValueError(f"failure time {time} must fall strictly inside the horizon")
        idx = int(round(ratio))
        snapped.append((idx, FailureEvent(ev.edge, t0 + idx * dt)))
    snapped.sort(key=lambda pair: pair[0])
    if len({idx for idx, _ in snapped}) != len(snapped):
        raise ValueError("failure times collide on the sample grid")
    return snapped


def _time_grid(t0: float, t_end: float, dt: float) -> tuple[np.ndarray, float, float]:
    """(times, t0, dt): uniform sample times t0, t0 + dt, ..., t_end, t0 and dt validated."""
    t0, t_end, dt = _check_real(t0, "t0"), _check_real(t_end, "t_end"), _check_real(dt, "dt", 0)
    if t_end <= t0:
        raise ValueError(f"need t_end > t0, got [{t0}, {t_end}]")
    ratio = (t_end - t0) / dt
    if not math.isfinite(ratio):
        raise ValueError(f"horizon [{t0}, {t_end}] holds too many steps of dt {dt}")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    return t0 + dt * np.arange(n_steps + 1), t0, dt


def _initial_states(sys: NetworkSystem, x0, n_samples: int, xi0=()) -> np.ndarray:
    """Uninitialized (n_samples, N d + q) state array with [x0; xi0] in its first row."""
    nd = sys.n_states
    x0 = _real_array(x0, "x0").reshape(-1)
    if x0.shape != (nd,):
        raise ValueError(f"x0 must have {nd} entries, got {x0.shape}")
    states = np.empty((n_samples, nd + len(xi0)))
    states[0, :nd] = x0
    states[0, nd:] = xi0
    return states


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring a Taylor polynomial.

    s halvings bring b = ||A / 2^s||_1 to at most 1/2 (Moler and Van Loan,
    SIAM Review 45, 2003, method 3).  The degree m is the least whose
    remainder bound b^(m+1) / (m+1)! e^b is below the unit roundoff; the
    polynomial of A / 2^s is evaluated by Horner and squared s times.  Only
    matrix products are used, no LAPACK solve as in a Pade approximant:
    with OpenBLAS, a solve of order 100 already gives other bytes under one
    and two threads, while a product keeps its bytes up to order 384 (not at
    400).  exp(0) is exactly I.  ValueError for non-finite entries.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("the matrix to exponentiate has non-finite entries")
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    s = 0 if norm <= 0.5 else math.frexp(norm)[1] + 1
    B = np.ldexp(A, -s)
    b = math.ldexp(norm, -s)
    m, remainder = 0, b * math.exp(b)
    while remainder >= np.finfo(float).eps / 2:
        m += 1
        remainder *= b / (m + 1)
    # Horner: E = I + B (I + B/2 (... (I + B/m))), the identity added on the diagonal
    E = B / m if m else np.zeros_like(B)
    E.flat[:: len(E) + 1] += 1.0
    spare = np.empty_like(E)
    for k in range(m - 1, 0, -1):
        np.matmul(B, E, out=spare)
        E, spare = spare, E
        E /= k
        E.flat[:: len(E) + 1] += 1.0
    for _ in range(s):
        np.matmul(E, E, out=spare)
        E, spare = spare, E
    return E


def _propagate_exact(A: np.ndarray, dt: float, states: np.ndarray, a: int, b: int):
    """Fill states[a+1..b] from states[a] with the exact step exp(A dt) of v' = A v."""
    phi = _expm(A * dt)
    for n in range(a, b):
        np.matmul(phi, states[n], out=states[n + 1])


def _trace(sys: NetworkSystem, times, states, snapped, boundaries, systems,
           matrices) -> SimulationTrace:
    """Package simulated states with their outputs, schedule and one segment per system."""
    # y_p = C x_p by einsum, summed as ``SimulationTrace.derivatives`` sums order 0
    x = states[:, : sys.n_states].reshape(len(times), sys.graph.n_nodes, sys.model.d)
    outputs = np.einsum("tnd,od->tno", x, sys.model.C).reshape(len(times), -1)
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
    segment is propagated by the matrix exponential (one ``_expm`` per
    segment, exact up to its accuracy).  A nonzero w is generated by its
    exosystem xi' = S xi, w = H xi, so a driven segment steps the augmented
    state [x; xi] with [[A_cl, (I_N (x) B) H], [0, S]], which the trace keeps
    as its segment matrix; with w = zero that matrix is the closed loop
    itself.

    Parameters
    ----------
    sys : network to simulate (defines the pre-failure closed loop).
    x0 : initial stacked state in R^(N d).
    t0, t_end, dt : uniform sample grid; t_end > t0, dt > 0.
    schedule : FailureEvents inside (t0, t_end), each time snapped to the
        nearest sample, no two on the same one; each edge fails at most once.
    w : exogenous input; None means zero.
    """
    times, t0, dt = _time_grid(t0, t_end, dt)
    n_steps = len(times) - 1

    if w is None:
        w = ExogenousInput.zero()
    snapped = _snap_schedule(schedule, t0, dt, n_steps)
    failing = [ev.edge for _, ev in snapped]
    for label in failing:
        if failing.count(label) > 1:
            raise ValueError(f"edge {label} fails twice in the schedule; "
                             "each edge fails at most once")
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
    times, t0, dt = _time_grid(t0, t_end, dt)
    n_steps = len(times) - 1
    # the edge label plays no part in snapping a time to the grid
    [(idx, event)] = _snap_schedule([FailureEvent(1, t_fail)], t0, dt, n_steps)
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


def _state_key(x_tf, n_states: int) -> tuple[np.ndarray, bytes]:
    """(x, key): x(t_f) as a flat float vector and its bytes, the key of the jump memos.

    A 1-D float64 ndarray is x itself, not a copy, and is not checked for
    NaN or inf: the memos copy what they keep.  Anything else passes
    ``_real_array`` as "x_tf".  ValueError unless x has n_states = N d entries.
    """
    if type(x_tf) is np.ndarray and x_tf.ndim == 1 and x_tf.dtype == np.float64:
        x = x_tf
    else:
        x = _real_array(x_tf, "x_tf").reshape(-1)
    if len(x) != n_states:
        raise ValueError(f"x_tf must have {n_states} entries (N d), got {len(x)}")
    return x, x.tobytes()


def _orbit_power(sys: NetworkSystem, x: np.ndarray, key: bytes, k: int) -> np.ndarray:
    """A^k x for the closed loop A of sys; shared, never to be mutated.

    (x, key) come from ``_state_key``.  The power is read from the system's
    orbit [x, A x, A^2 x, ...] of the last x asked,
    extended by the plain products A @ v as far as k.  The orbit is rebuilt
    when x's bytes differ or ``sys.closed_loop`` is another array.
    """
    A = sys.closed_loop
    orbit = sys._orbit
    if orbit is None or orbit[0] != key or orbit[1] is not A:
        orbit = sys._orbit = (key, A, [x.copy()])
    powers = orbit[2]
    while len(powers) <= k:
        powers.append(A @ powers[-1])
    return powers[k]


def one_sided_derivative(sys_pre: NetworkSystem, sys_post: NetworkSystem,
                         x_tf, p: int, k: int, side: str) -> np.ndarray:
    """Exact one-sided k-th derivative of y_p at the failure time (w = zero).

    The left limit uses the pre-failure closed loop, the right limit the
    post-failure one: d^k y_p / dt^k = (e_p (x) C) A_side^k x(t_f).
    A_side^k x(t_f) comes from that system's memoised orbit of x(t_f) (see
    ``_orbit_power``); the result is a fresh array, bit for bit that of k
    plain products.  ValueError unless x(t_f) has N d entries.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    p = _check_int(p, "sensor", 1, sys_pre.graph.n_nodes)
    k = _check_int(k, "derivative order", 0)
    x, key = _state_key(x_tf, sys_pre.n_states)
    v = _orbit_power(sys_pre if side == "left" else sys_post, x, key, k)
    d = sys_pre.model.d
    return sys_pre.model.C @ v[(p - 1) * d : p * d]


def jump_oracle(sys_pre: NetworkSystem, sys_post: NetworkSystem,
                x_tf, p: int, k: int) -> np.ndarray:
    """Jump of the k-th output derivative at node p, straight from matrices.

    Returns (e_p (x) C)(A_post^k - A_pre^k) x(t_f) with no reference to the
    closed-form prediction; serves as the independent check of it.  Both
    A^k x(t_f) come from the systems' memoised orbits (see ``_orbit_power``),
    so the pre-failure orbit is shared by every edge and sensor and the
    post-failure one by every sensor of its edge.  The result is a fresh
    array, bit for bit that of k plain products on each side.  ValueError
    unless x(t_f) has N d entries.
    """
    p = _check_int(p, "sensor", 1, sys_pre.graph.n_nodes)
    k = _check_int(k, "derivative order", 0)
    x, key = _state_key(x_tf, sys_pre.n_states)
    v_pre = _orbit_power(sys_pre, x, key, k)
    v_post = _orbit_power(sys_post, x, key, k)
    d = sys_pre.model.d
    block = slice((p - 1) * d, p * d)
    return sys_pre.model.C @ (v_post[block] - v_pre[block])


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
    unobservable prediction is returned.  ValueError unless x(t_f) has N d
    entries.

    The tail term (M_r Gamma)^(dist+1) C x_j is entry dist + 1 of the tail's
    orbit C x_j, (M_r Gamma) C x_j, ... for the last x(t_f) asked
    (``SubsystemModel._tail_orbits``), grown by one product per order; the
    value is a fresh array, bit for bit that of dist + 1 plain products.
    """
    p = _check_int(p, "sensor", 1, g.n_nodes)
    x, key = _state_key(x_tf, g.n_nodes * model.d)
    e = g.edge(edge)
    dist = distances(g)._hops.item(e.head - 1, p - 1)
    if dist < 0:
        return JumpPrediction(False, None, None)
    order = model._r * (dist + 1)
    walk = _walk_power(g, dist).item(p - 1, e.head - 1)
    memo_key, orbits = model._tail_orbits
    if memo_key != key:
        orbits = {}
        model._tail_orbits = (key, orbits)
    orbit = orbits.get(e.tail)
    if orbit is None:
        d = model.d
        orbit = orbits[e.tail] = [model.C @ x[(e.tail - 1) * d : e.tail * d]]
    while len(orbit) <= dist + 1:
        orbit.append(model._mr_gamma @ orbit[-1])
    return JumpPrediction(True, order, -e.weight * walk * orbit[dist + 1])


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
    inside = 0.0 < _check_real(t_f, "t_f") < _check_real(horizon, "horizon")
    schedule = [FailureEvent(edge, t_f)] if inside else []
    faulty = simulate(sys, x0, 0.0, horizon, dt, schedule)

    e = sys.graph.edge(edge)
    n = sys.graph.n_nodes
    sel = np.zeros((n, n))
    sel[e.head - 1, e.tail - 1] = 1.0
    correction = -e.weight * np.kron(sel, sys.model.B @ sys.model.Gamma @ sys.model.C)

    # the sample the faulty run switched at, n_steps when it did not
    n_steps = len(faulty.times) - 1
    switch = faulty.segments[0].stop
    states = _initial_states(sys, x0, n_steps + 1)
    _propagate_exact(sys.closed_loop, dt, states, 0, switch)
    if inside:
        _propagate_exact(sys.closed_loop + correction, dt, states, switch, n_steps)
    return float(np.abs(faulty.states - states).max())
