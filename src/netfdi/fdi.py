"""Detection and isolation engine: order relations, lookup table, detectors.

A failed edge announces itself through the order of the first output
derivative that jumps at each sensor: order r*(dist(head, sensor)+1), or no
jump at all within the order budget z.  Collecting those orders per edge
gives the relation matrix R (edges x nodes) and, restricted to a sensor
set, the lookup table D whose columns are failure signatures.  Detection
scans a trace for jumps (analytically, only the state at each failure is
needed, so every single-edge failure can be checked from one state);
isolation matches the observed signature against the columns of D, and
``diagnose`` turns the signatures of many scenarios into event records.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .dynamics import NetworkSystem, SimulationTrace, _healthy_prefix
from .graph import (Digraph, _check_int, _real_array, _shown, _validated_sensors, distances,
                    finite_diameter)


def default_order_budget(g: Digraph, r: int) -> int:
    """Largest derivative order a failure can ever produce: r*(finite diameter + 1)."""
    return _check_int(r, "relative degree", 1) * (finite_diameter(g) + 1)


def _label_index(edge_labels: tuple[int, ...], label: int) -> int:
    """Position of an edge label among edge_labels; KeyError for one not there."""
    label = _check_int(label, "edge label", 1)
    try:
        return edge_labels.index(label)
    except ValueError:
        raise KeyError(f"unknown edge label {_shown(label)}") from None


@dataclass(frozen=True)
class RelationMatrix:
    """|E| x N table of first-jump orders; 0 means no jump within budget z.

    Row q belongs to the edge with label edge_labels[q]; entry (q, p-1) is
    r*(dist(head_q, p)+1) when that is finite and <= z, else 0.  The 0
    entry deliberately conflates "unreachable" with "order beyond z": both
    mean the sensor never sees the failure within budget.
    """

    entries: np.ndarray
    edge_labels: tuple[int, ...]
    r: int
    z: int

    @property
    def n_edges(self) -> int:
        return self.entries.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[1]

    def row_index(self, label: int) -> int:
        return _label_index(self.edge_labels, label)


@dataclass(frozen=True)
class LookupTable:
    """|S| x |E| signature table D; column = expected signature of one edge."""

    table: np.ndarray
    sensors: tuple[int, ...]
    edge_labels: tuple[int, ...]
    r: int
    z: int

    def column(self, label: int) -> np.ndarray:
        return self.table[:, _label_index(self.edge_labels, label)]


def relation_matrix(g: Digraph, r: int, z: int | None = None) -> RelationMatrix:
    """Build R from graph distances; weights never enter.

    z defaults to the largest order any failure can produce on this graph,
    r*(finite_diameter+1); pass a smaller budget to model a sensor that
    only exposes few derivatives.

    A row of R depends on its edge's head only, so R is the N x N table of
    orders r*(hops+1) keyed by head, [i-1, p-1], read at the heads.  Entries
    are 0 where p is unreachable from i (hops -1 gives r*0) or the order
    exceeds z.  The table is int64: an r and z that keep an order past its
    range are a ValueError, not a table wrapped around.
    """
    r = _check_int(r, "relative degree", 1)
    z = default_order_budget(g, r) if z is None else _check_int(z, "order budget z", 1)
    if z < r:
        raise ValueError(f"order budget z={z} below relative degree r={r}")
    dist = distances(g)
    # hops below `cut` keep their order; hop counts run 0..finite_max without
    # a gap, so r * cut is the largest order kept
    cut = min(z // r, dist.finite_max() + 1)
    if r * cut > np.iinfo(np.int64).max:
        raise ValueError(f"orders up to {_shown(r * cut)} of relative degree r={_shown(r)} "
                         f"and order budget z={_shown(z)} do not fit an int64 table")
    hops = dist._hops
    orders = np.where(hops < cut, hops + 1, 0) * r
    entries = orders[[e.head - 1 for _, e in g.edges()]]
    return RelationMatrix(entries=entries, edge_labels=g.edge_labels, r=r, z=z)


def lookup_table(g: Digraph, sensors, r: int, z: int | None = None) -> LookupTable:
    """Sensor-restricted transpose of the relation matrix (rows in sensor order)."""
    sensors = _validated_sensors(sensors, g.n_nodes, nonempty=True)
    rel = relation_matrix(g, r, z)
    table = rel.entries[:, [p - 1 for p in sensors]].T.copy()
    return LookupTable(table=table, sensors=sensors, edge_labels=rel.edge_labels,
                       r=rel.r, z=rel.z)


def detectable(g: Digraph, sensors, r: int, z: int, edge: int) -> bool:
    """Whether failing `edge` jumps some sensor derivative of order <= z.

    Equivalent to a directed path of length <= z/r - 1 from the edge head
    to a sensor.  Arguments are validated as by ``lookup_table``.
    """
    return bool(lookup_table(g, sensors, r, z).column(edge).any())


@dataclass
class JumpSignature:
    """Per-sensor minimal jump orders observed at a detected failure time."""

    orders: np.ndarray
    time: float


#: finite-difference jump thresholds, absolute and relative (see DetectorConfig)
THRESHOLD_REL = 1e-3
THRESHOLD_ABS = 1e-9


@dataclass(frozen=True)
class DetectorConfig:
    """Detector knobs: the order budget z and the mode.

    mode 'analytic' computes the jump of every derivative order exactly from
    the state at each failure and the trace's segment matrices; a jump at
    order k counts when it exceeds 16 times a running bound on its own
    roundoff (see ``_first_jumps``), so no knob enters.  'finite-difference'
    estimates derivatives from output samples alone with one-sided stencils
    of ``stencil_width`` = z + 3 points; there a jump at order k counts when
    its norm exceeds THRESHOLD_ABS + THRESHOLD_REL * scale + a
    sample-roundoff floor, with scale the median norm of that derivative
    over the trace, and an event is placed at the smoothest index of its
    cluster of flagged samples.
    """

    z: int
    mode: str = "analytic"

    def __post_init__(self):
        object.__setattr__(self, "z", _check_int(self.z, "order budget z", 1))
        if self.mode not in ("analytic", "finite-difference"):
            raise ValueError(f"unknown detector mode {self.mode!r}")

    @property
    def stencil_width(self) -> int:
        """Samples per one-sided stencil: z + 3, exact on polynomials of degree z + 2."""
        return self.z + 3


def _stencil_weights(z: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(z, w) one-sided weights for derivative orders 1..z, w = z + 3.

    Row k-1 of ``left`` applied to w samples spaced dt estimates y^(k) at
    the last of them, row k-1 of ``right`` at the first; both are already
    divided by dt^k.  Each row solves the Vandermonde moment system on the
    integer offsets, so the rule is exact for polynomials of degree < w.
    """
    w = z + 3
    # float factorials: from 21! on an integer array would hold Python ints
    moments = np.array([float(factorial(m)) for m in range(w)])[:, None]
    weights = []
    for offsets in (np.arange(-(w - 1), 1.0), np.arange(w, dtype=float)):
        V = np.vander(offsets, w, increasing=True).T / moments
        weights.append(np.array([np.linalg.solve(V, np.eye(w)[k]) / dt**k
                                 for k in range(1, z + 1)]))
    return weights[0], weights[1]


def estimate_one_sided_derivative(times, values, k: int, side: str,
                                  cfg: DetectorConfig) -> np.ndarray:
    """One-sided k-th derivative estimate at the window's near edge, 0 <= k <= z.

    side 'left' differentiates at times[-1] using the trailing
    cfg.stencil_width samples; side 'right' at times[0] using the leading
    ones (k = 0 gives that sample itself).  The grid must be uniform and at
    least stencil_width long.
    """
    k = _check_int(k, "derivative order", 0)
    if k > cfg.z:
        raise ValueError(f"derivative order {k} above the order budget z={cfg.z}")
    t = _real_array(times, "times")
    y = _real_array(values, "values")
    y2d = y.reshape(len(t), -1)
    w = cfg.stencil_width
    if len(t) < w:
        raise ValueError(f"window of {len(t)} samples shorter than stencil width {w}")
    dt = t[1] - t[0]
    if np.abs(np.diff(t) - dt).max() > 1e-9 * max(abs(dt), 1.0):
        raise ValueError("sample grid is not uniform")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    window = y2d[-w:] if side == "left" else y2d[:w]
    if k == 0:
        return window[-1 if side == "left" else 0].copy()
    left, right = _stencil_weights(cfg.z, dt)
    return (left if side == "left" else right)[k - 1] @ window


def detect(trace: SimulationTrace, sensors, cfg: DetectorConfig) -> list[JumpSignature]:
    """Scan a trace for derivative jumps at the given sensors.

    Returns one JumpSignature per detected failure event (empty list when
    nothing trips the thresholds).  Signature entry for a sensor is the
    smallest order k <= z whose jump exceeds threshold, or 0 when that
    sensor saw nothing.
    """
    sensors = _validated_sensors(sensors, trace.n_nodes, nonempty=True)
    if cfg.mode == "analytic":
        return _detect_analytic(trace, sensors, cfg)
    return _detect_finite_difference(trace, sensors, cfg)


def _first_jumps(A_pre, x, heads, tails, C, sensors, z: int) -> np.ndarray:
    """First jump orders at the sensors for m single-block failures from one state.

    Column e is the failure that zeroes the d x d block F_e of the dense
    closed loop A_pre at block (heads[e], tails[e]) (0-based node
    positions), at state x; F_e is read from A_pre itself.  Its jump
    δ_k = (A_post^k - A_pre^k) x is built by the telescoped recursion
    δ_0 = 0, δ_k = A_pre δ_{k-1} - [F δ_{k-1}]_head - [F A_pre^{k-1} x]_head,
    which never subtracts two nearly equal trajectories, so a jump many
    orders of magnitude below the state is still resolved.  Alongside runs
    a componentwise bound on its roundoff (running error analysis, Higham,
    Accuracy and Stability of Numerical Algorithms, 3.3):
    b_k = |A_post| b_{k-1} + γ (|A_post| |δ_{k-1}| + |F| |A_pre^{k-1} x|),
    γ = 8 eps N d, where |A_post| is |A_pre| less |F| at the failed block.
    Sensor p fires at the first k <= z with
    |C δ_k[p]| > 16 |C| (b_k[p] + γ |δ_k[p]|) in some output channel.
    Returns the orders shaped (|sensors|, m), 0 where a sensor never fires.

    A_pre^k x rides along as column m of the walk.  Each order costs the
    products A_pre [δ, A_pre^{k-1} x] and |A_pre| (b + γ|δ|) over the nonzeros
    of A_pre, one gather and one np.einsum per row length (numpy alone, one
    thread: a dense OpenBLAS product took two), plus a gather from the tail
    and a scatter to the head blocks, O(m d^2).  γ bounds each inner product.

    The bound grows like |A_post|^k, not like A_post^k: for a subsystem
    realisation far from normal (|A| much larger than A's spectral radius)
    it can outgrow a true jump at high orders, which then reads as 0 or
    at a later order.
    """
    loop = np.asarray(A_pre, dtype=float)
    nd = loop.shape[0]
    d = C.shape[1]
    m = len(heads)
    gamma = 8.0 * np.finfo(float).eps * nd
    span = np.arange(d)
    head_rows = span[:, None] + d * np.asarray(heads, dtype=np.int64)   # (d, m)
    tail_rows = span[:, None] + d * np.asarray(tails, dtype=np.int64)
    cols = np.arange(m)
    blocks = loop[head_rows.T[:, :, None], tail_rows.T[:, None, :]]   # (m, d, d)
    abs_blocks = np.abs(blocks)
    rows, at = np.nonzero((loop != 0) | np.eye(nd, dtype=bool))   # diagonal kept: no empty row
    counts = np.bincount(rows, minlength=nd)
    entries, length = loop[rows, at], counts[rows]
    groups = [(at[length == c].reshape(-1, c), entries[length == c].reshape(-1, c))
              for c in np.unique(counts)]   # per row length c: those rows' columns and entries
    unsort = np.argsort(np.argsort(counts, kind="stable"))   # groups' rows back in place
    sensor_rows = (np.asarray(sensors, dtype=np.int64)[:, None] - 1) * d + span   # (|S|, d)
    abs_c = np.abs(C)

    def times(X, absolute=False):
        """A_pre X, or |A_pre| X, from the nonzeros of A_pre alone."""
        return np.concatenate([np.einsum("rc,rcm->rm", np.abs(w) if absolute else w, X[r_at])
                               for r_at, w in groups])[unsort]

    def at_heads(per_edge, gathered):
        """(d, m): per_edge[e] @ gathered[:, e] in column e, for column e's head rows."""
        return np.einsum("eab,be->ae", per_edge, gathered)

    walk = np.zeros((nd, m + 1))   # δ_k in columns 0..m-1, A_pre^k x in column m
    walk[:, m] = np.asarray(x, dtype=float).reshape(nd)
    bound = np.zeros((nd, m))
    orders = np.zeros((len(sensors), m), dtype=np.int64)
    for k in range(1, z + 1):
        v_tail = walk[tail_rows, m]
        carried = bound + gamma * np.abs(walk[:, :m])
        bound = times(carried, absolute=True)
        bound[head_rows, cols] -= at_heads(abs_blocks, carried[tail_rows, cols])
        bound[head_rows, cols] += gamma * at_heads(abs_blocks, np.abs(v_tail))
        jump_tail = walk[tail_rows, cols]
        walk = times(walk)
        walk[head_rows, cols] -= at_heads(blocks, jump_tail)
        walk[head_rows, cols] -= at_heads(blocks, v_tail)
        seen = walk[sensor_rows, :m]
        limit = bound[sensor_rows] + gamma * np.abs(seen)
        fired = (np.abs(np.einsum("oa,sam->som", C, seen))
                 > 16.0 * np.einsum("oa,sam->som", abs_c, limit)).any(axis=1)
        orders[fired & (orders == 0)] = k
    return orders


def _detect_analytic(trace, sensors, cfg) -> list[JumpSignature]:
    """One first-jump kernel call per failure, from the state at its boundary.

    The right segment's matrix must be the left one with the scheduled
    edge's (head, tail) block zeroed; anything else (a hand-built trace,
    several edges changing at once) is outside what the orders mean and
    raises ValueError.
    """
    d = trace.state_dim
    if len(trace.schedule) != len(trace.segments) - 1:
        raise ValueError(f"trace has {len(trace.segments)} segments for "
                         f"{len(trace.schedule)} scheduled failures")
    events = []
    for left, right, event in zip(trace.segments[:-1], trace.segments[1:], trace.schedule):
        try:
            edge = left.graph.edge(event.edge)
        except KeyError:
            raise ValueError(f"failure at t={event.time}: edge {event.edge} is not in "
                             "the graph before it") from None
        expected = left.matrix.copy()
        expected[(edge.head - 1) * d : edge.head * d, (edge.tail - 1) * d : edge.tail * d] = 0.0
        if not np.array_equal(right.matrix, expected):
            raise ValueError(
                f"failure at t={event.time}: the closed loop changes outside of zeroing "
                f"the ({edge.head}, {edge.tail}) block of edge {event.edge}")
        b = left.stop
        orders = _first_jumps(left.matrix, trace.states[b], [edge.head - 1],
                              [edge.tail - 1], trace.c_matrix, sensors, cfg.z)[:, 0]
        if orders.any():
            events.append(JumpSignature(orders=orders, time=float(trace.times[b])))
    return events


def detect_edge_failures(sys: NetworkSystem, x0, t0: float, t_end: float, dt: float,
                         t_fail: float, sensors, z: int) -> list[list[JumpSignature]]:
    """Analytic detection of every single-edge failure at t_fail, without simulating.

    Returns, in edge-label order, what ``detect`` in analytic mode gives on
    ``simulate(sys, x0, t0, t_end, dt, [FailureEvent(label, t_fail)])``: the
    healthy run is stepped to the failure once, exactly as ``simulate``
    does, and one batched ``_first_jumps`` call covers all edges, edge e
    zeroing its (head, tail) block.  The grid, x0 and the failure time are
    validated as in ``simulate``, z as in ``DetectorConfig``.
    """
    sensors = _validated_sensors(sensors, sys.graph.n_nodes, nonempty=True)
    z = _check_int(z, "order budget z", 1)
    times, idx, _, states = _healthy_prefix(sys, x0, t0, t_end, dt, t_fail)
    edges = [e for _, e in sys.graph.edges()]
    orders = _first_jumps(sys.closed_loop, states[idx], [e.head - 1 for e in edges],
                          [e.tail - 1 for e in edges], sys.model.C, sensors, z)
    time = float(times[idx])
    return [[JumpSignature(orders=col.copy(), time=time)] if col.any() else []
            for col in orders.T]


def _detect_finite_difference(trace, sensors, cfg) -> list[JumpSignature]:
    z, w = cfg.z, cfg.stencil_width
    n_samples = len(trace.times)
    if n_samples < 2 * w:
        raise ValueError(f"trace of {n_samples} samples too short for stencil width {w}")
    left_c, right_c = _stencil_weights(z, trace.dt)
    smooth_c = np.array([(-1.0) ** i * comb(w - 1, i) for i in range(w)])
    # stencils divide by dt^k, so sample roundoff is amplified by sum|c|/dt^k;
    # jumps below that floor are numerically invisible
    floor_per_amplitude = 64.0 * np.finfo(float).eps * np.abs(left_c).sum(axis=1)

    # Sliding one-sided estimates: windows[n] covers samples n .. n+w-1, so
    # at scan index n (sample n+w-1) the left window is windows[n] and the
    # right one windows[n+w-1].
    n_scan = n_samples - 2 * w + 2
    jumps = np.zeros((z, len(sensors), n_scan))
    scale = np.zeros((z, len(sensors)))
    noise_floor = np.zeros((z, len(sensors)))
    roughness = np.zeros(n_scan)
    for si, p in enumerate(sensors):
        y = trace.output_of(p)
        windows = np.lib.stride_tricks.sliding_window_view(y, w, axis=0)
        left_w, right_w = windows[:n_scan], windows[w - 1:]
        left = np.tensordot(left_c, left_w, axes=(1, 2))     # (z, n_scan, o)
        right = np.tensordot(right_c, right_w, axes=(1, 2))
        jumps[:, si] = np.linalg.norm(right - left, axis=2)
        scale[:, si] = np.median(np.linalg.norm(left, axis=2), axis=1)
        noise_floor[:, si] = np.linalg.norm(y, axis=1).max() * floor_per_amplitude
        roughness += (np.linalg.norm(np.einsum("now,w->no", left_w, smooth_c), axis=1)
                      + np.linalg.norm(np.einsum("now,w->no", right_w, smooth_c), axis=1))

    threshold = (THRESHOLD_ABS + THRESHOLD_REL * scale + noise_floor)[:, :, None]
    flagged = np.flatnonzero((jumps > threshold).any(axis=(0, 1)))
    if flagged.size == 0:
        return []

    # Cluster nearby flags (a single break trips windows within +-(w-1)
    # samples) and localize each event where both one-sided windows are
    # smoothest: only at the true break are both windows kink-free.  A
    # cluster spans every index between its first and last flag, since the
    # break itself need not be flagged.
    clusters = np.split(flagged, np.flatnonzero(np.diff(flagged) > w) + 1)
    best = np.array([c[0] + np.argmin(roughness[c[0]:c[-1] + 1]) for c in clusters])
    over = (jumps[:, :, best] > threshold).T             # (clusters, |S|, z)
    orders = np.where(over.any(axis=2), over.argmax(axis=2) + 1, 0)
    return [JumpSignature(orders=orders[e], time=float(trace.times[best[e] + w - 1]))
            for e in np.flatnonzero(orders.any(axis=1))]


@dataclass(frozen=True)
class IsolationResult:
    """One diagnosed event: time, order signature, and the verdict and edges of its match."""

    time: float
    signature: tuple[int, ...]
    verdict: str
    edges: tuple[int, ...]

    @property
    def is_unique(self) -> bool:
        return self.verdict == "unique"

    @property
    def edge(self) -> int:
        if not self.is_unique:
            raise ValueError(f"no unique edge in a {self.verdict} result")
        return self.edges[0]

    def to_dict(self) -> dict:
        """The event as a report writes it: t, signature, verdict and edges."""
        return {"t": self.time, "signature": list(self.signature),
                "verdict": self.verdict, "edges": list(self.edges)}


def isolate(signature: JumpSignature, table: LookupTable) -> IsolationResult:
    """Match the observed order vector against the lookup-table columns.

    Matching is exact integer equality; a signature matching no column is
    reported as nomatch instead of being rounded to the nearest column.
    """
    return diagnose([[signature]], table)[0][0]


def diagnose(detected, table: LookupTable) -> list[list[IsolationResult]]:
    """``isolate`` every signature of every scenario: one record list per signature list.

    All orders are stacked into one integer array and read back as tuples
    of ints, the keys under which each column of D lists its edge labels in
    table order, so a signature costs one dictionary lookup.  Orders that
    are not of an integer dtype (float, bool) are a ValueError, never cast.
    """
    signatures = [sig for sigs in detected for sig in sigs]
    n_sensors = len(table.sensors)
    orders = np.array([sig.orders for sig in signatures]
                      or np.zeros((0, n_sensors), dtype=np.int64))
    entries = np.asarray(table.table)
    for name, array in (("signature", orders), ("lookup table", entries)):
        if array.dtype.kind not in "iu":
            raise ValueError(f"{name} orders must be integers, got dtype {array.dtype}")
    if orders.ndim != 2 or orders.shape[1] != n_sensors:
        raise ValueError(f"signature has {orders.shape[-1]} entries for {n_sensors} sensors")
    columns: dict[tuple[int, ...], list[int]] = {}
    for label, column in zip(table.edge_labels, entries.T.tolist()):
        columns.setdefault(tuple(column), []).append(label)
    records = []
    for sig, row in zip(signatures, map(tuple, orders.tolist())):
        hits = tuple(columns.get(row, ()))
        verdict = "unique" if len(hits) == 1 else "ambiguous" if hits else "nomatch"
        records.append(IsolationResult(sig.time, row, verdict, hits))
    flat = iter(records)
    return [[next(flat) for _ in sigs] for sigs in detected]


#: outcome classes of a swept edge, in the order of a sweep summary
SWEEP_OUTCOMES = ("unique-correct", "unique-wrong", "ambiguous-with-truth",
                  "ambiguous-without-truth", "nomatch", "missed", "undetectable-by-table",
                  "spurious")


def _sweep_outcome(edge: int, events, column, t_fail: float, tol: float) -> str:
    """Outcome of one swept edge's records against its known failure and its table column.

    A second event, or one farther than tol from t_fail, is spurious; so is
    an event for an edge whose column says no sensor can see it.
    """
    if len(events) > 1 or any(abs(ev.time - t_fail) > tol for ev in events):
        return "spurious"
    if not events:
        return "missed" if column.any() else "undetectable-by-table"
    if not column.any():
        return "spurious"
    verdict, edges = events[0].verdict, events[0].edges
    if verdict == "unique":
        return "unique-correct" if edges == (edge,) else "unique-wrong"
    if verdict == "ambiguous":
        return "ambiguous-with-truth" if edge in edges else "ambiguous-without-truth"
    return "nomatch"


def sweep_summary(events, table: LookupTable, t_fail: float, tol: float) -> dict[str, int]:
    """Count of each SWEEP_OUTCOMES class, in that order, over one record list per edge.

    The lists follow the table's edge order, each edge failing alone at t_fail.
    """
    summary = dict.fromkeys(SWEEP_OUTCOMES, 0)
    for edge, records, column in zip(table.edge_labels, events, table.table.T, strict=True):
        summary[_sweep_outcome(edge, records, column, t_fail, tol)] += 1
    return summary
