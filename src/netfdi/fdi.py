"""Detection and isolation engine: order relations, lookup table, detectors.

A failed edge announces itself through the order of the first output
derivative that jumps at each sensor: order r*(dist(head, sensor)+1), or no
jump at all within the order budget z.  Collecting those orders per edge
gives the relation matrix R (edges x nodes) and, restricted to a sensor
set, the lookup table D whose columns are failure signatures.  Detection
scans a trace for jumps, isolation matches the observed signature against
the columns of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .dynamics import SimulationTrace
from .graph import Digraph, distances, finite_diameter


def default_order_budget(g: Digraph, r: int) -> int:
    """Largest derivative order a failure can ever produce: r*(finite diameter + 1)."""
    return r * (finite_diameter(g) + 1)


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
        try:
            return self.edge_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown edge label {label}") from None

    @property
    def r0_mask(self) -> np.ndarray:
        """Boolean mask of the (node, edge) pairs related at order 0 only."""
        return self.entries == 0


@dataclass(frozen=True)
class LookupTable:
    """|S| x |E| signature table D; column = expected signature of one edge."""

    table: np.ndarray
    sensors: tuple[int, ...]
    edge_labels: tuple[int, ...]
    r: int
    z: int

    def column(self, label: int) -> np.ndarray:
        try:
            return self.table[:, self.edge_labels.index(label)]
        except ValueError:
            raise KeyError(f"unknown edge label {label}") from None


def _head_orders(g: Digraph, r: int, z: int) -> np.ndarray:
    """N x N first-jump orders keyed by failed-edge head: [i-1, p-1] = r*(hops+1).

    A row of R depends on its edge's head only, so R = H[heads].  Entries
    are 0 where p is unreachable from i (hops -1 gives r*0) or the order
    exceeds z.
    """
    if r < 1:
        raise ValueError(f"relative degree must be >= 1, got {r}")
    orders = r * (distances(g)._hops + 1)
    orders[orders > z] = 0
    return orders


def relation_matrix(g: Digraph, r: int, z: int | None = None) -> RelationMatrix:
    """Build R from graph distances; weights never enter.

    z defaults to the largest order any failure can produce on this graph,
    r*(finite_diameter+1); pass a smaller budget to model a sensor that
    only exposes few derivatives.
    """
    if z is None:
        z = default_order_budget(g, r)
    if z < r:
        raise ValueError(f"order budget z={z} below relative degree r={r}")
    heads = [e.head - 1 for _, e in g.edges()]
    entries = _head_orders(g, r, z)[heads]
    return RelationMatrix(entries=entries, edge_labels=g.edge_labels, r=r, z=z)


def _validated_sensors(sensors, n_nodes: int) -> tuple[int, ...]:
    out = tuple(int(p) for p in sensors)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate sensors in {out}")
    for p in out:
        if not 1 <= p <= n_nodes:
            raise ValueError(f"sensor {p} outside 1..{n_nodes}")
    return out


def lookup_table(g: Digraph, sensors, r: int, z: int | None = None) -> LookupTable:
    """Sensor-restricted transpose of the relation matrix (rows in sensor order)."""
    sensors = _validated_sensors(sensors, g.n_nodes)
    if not sensors:
        raise ValueError("sensor set must be nonempty")
    rel = relation_matrix(g, r, z)
    table = rel.entries[:, [p - 1 for p in sensors]].T.copy()
    return LookupTable(table=table, sensors=sensors, edge_labels=rel.edge_labels,
                       r=rel.r, z=rel.z)


def detectable(g: Digraph, sensors, r: int, z: int, edge: int) -> bool:
    """Whether failing `edge` jumps some sensor derivative of order <= z.

    Equivalent to a directed path of length <= z/r - 1 from the edge head
    to a sensor.
    """
    sensors = _validated_sensors(sensors, g.n_nodes)
    head = g.edge(edge).head
    return bool(_head_orders(g, r, z)[head - 1, [p - 1 for p in sensors]].any())


@dataclass
class JumpSignature:
    """Per-sensor minimal jump orders observed at a detected failure time."""

    orders: np.ndarray
    time: float


@dataclass
class DetectorConfig:
    """Detector knobs.

    mode 'analytic' reads exact one-sided derivatives off the trace's
    segment matrices (no differentiation error); 'finite-difference'
    estimates them from output samples alone with one-sided stencils of
    `stencil_width` points.  A jump at order k counts when its norm exceeds
    threshold_abs + threshold_rel * scale, with scale the median norm of
    that derivative over the trace.
    """

    z: int
    mode: str = "analytic"
    stencil_width: int | None = None
    threshold_rel: float = 1e-3
    threshold_abs: float = 1e-9

    def __post_init__(self):
        if self.z < 1:
            raise ValueError(f"order budget z must be >= 1, got {self.z}")
        if self.mode not in ("analytic", "finite-difference"):
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if self.stencil_width is None:
            self.stencil_width = self.z + 3
        if self.stencil_width < self.z + 2:
            raise ValueError(
                f"stencil_width must be >= z+2 = {self.z + 2}, got {self.stencil_width}")
        if self.threshold_rel <= 0 or self.threshold_abs <= 0:
            raise ValueError("thresholds must be positive")


def _stencil_coefficients(offsets: np.ndarray, k: int) -> np.ndarray:
    """Weights c with sum_i c_i y(t + o_i dt) = y^(k)(t) * dt^k + O(dt^width).

    Solves the Vandermonde moment system on integer offsets, so the rule is
    exact for polynomials of degree < len(offsets).
    """
    w = len(offsets)
    if k >= w:
        raise ValueError(f"order {k} needs a stencil wider than {w}")
    V = np.vander(offsets.astype(float), w, increasing=True).T
    V /= np.array([factorial(m) for m in range(w)])[:, None]
    rhs = np.zeros(w)
    rhs[k] = 1.0
    return np.linalg.solve(V, rhs)


def estimate_one_sided_derivative(times, values, k: int, side: str,
                                  cfg: DetectorConfig) -> np.ndarray:
    """One-sided k-th derivative estimate at the window's near edge.

    side 'left' differentiates at times[-1] using the trailing
    cfg.stencil_width samples; side 'right' at times[0] using the leading
    ones.  The grid must be uniform and at least stencil_width long.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    y2d = y.reshape(len(t), -1)
    w = cfg.stencil_width
    if len(t) < w:
        raise ValueError(f"window of {len(t)} samples shorter than stencil width {w}")
    dt = t[1] - t[0]
    if np.abs(np.diff(t) - dt).max() > 1e-9 * max(abs(dt), 1.0):
        raise ValueError("sample grid is not uniform")
    if side == "left":
        window = y2d[-w:]
        offsets = np.arange(-(w - 1), 1)
    elif side == "right":
        window = y2d[:w]
        offsets = np.arange(w)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    c = _stencil_coefficients(offsets, k)
    return (c @ window) / dt**k


def detect(trace: SimulationTrace, sensors, cfg: DetectorConfig) -> list[JumpSignature]:
    """Scan a trace for derivative jumps at the given sensors.

    Returns one JumpSignature per detected failure event (empty list when
    nothing trips the thresholds).  Signature entry for a sensor is the
    smallest order k <= z whose jump exceeds threshold, or 0 when that
    sensor saw nothing.
    """
    sensors = _validated_sensors(sensors, trace.n_nodes)
    if not sensors:
        raise ValueError("sensor set must be nonempty")
    if cfg.mode == "analytic":
        if not trace.autonomous:
            raise ValueError(
                "analytic mode needs an autonomous trace (zero exogenous input); "
                "use finite-difference mode for driven runs")
        return _detect_analytic(trace, sensors, cfg)
    return _detect_finite_difference(trace, sensors, cfg)


def _detect_analytic(trace, sensors, cfg) -> list[JumpSignature]:
    z = cfg.z
    d = trace.state_dim
    C = trace.c_matrix
    dy = trace.derivatives(sensors, z)[:, 1:]
    # norm over the output channels; einsum avoids a reduction per sample
    scale = np.median(np.sqrt(np.einsum("skcn,skcn->skn", dy, dy)), axis=2)

    events = []
    for left_seg, right_seg in zip(trace.segments[:-1], trace.segments[1:]):
        b = left_seg.stop
        x_b = trace.states[b]
        orders = np.zeros(len(sensors), dtype=np.int64)
        v_pre = x_b.copy()
        v_post = x_b.copy()
        for k in range(1, z + 1):
            v_pre = left_seg.matrix @ v_pre
            v_post = right_seg.matrix @ v_post
            diff = v_post - v_pre
            for si, p in enumerate(sensors):
                if orders[si]:
                    continue
                jump = np.linalg.norm(C @ diff[(p - 1) * d : p * d])
                if jump > cfg.threshold_abs + cfg.threshold_rel * scale[si, k - 1]:
                    orders[si] = k
        if orders.any():
            events.append(JumpSignature(orders=orders, time=float(trace.times[b])))
    return events


def _detect_finite_difference(trace, sensors, cfg) -> list[JumpSignature]:
    z, w = cfg.z, cfg.stencil_width
    n_samples = len(trace.times)
    if n_samples < 2 * w:
        raise ValueError(f"trace of {n_samples} samples too short for stencil width {w}")
    dt = trace.dt
    ys = [trace.output_of(p) for p in sensors]

    # Sliding one-sided estimates: windows[n] covers samples n .. n+w-1, so
    # at scan index n the left window ends at n and the right one starts there.
    scan = np.arange(w - 1, n_samples - w + 1)
    left_c = [_stencil_coefficients(np.arange(-(w - 1), 1), k) / dt**k for k in range(1, z + 1)]
    right_c = [_stencil_coefficients(np.arange(w), k) / dt**k for k in range(1, z + 1)]
    smooth_c = np.array([(-1.0) ** i * comb(w - 1, i) for i in range(w)])

    jumps = np.zeros((z, len(sensors), len(scan)))
    scale = np.zeros((z, len(sensors)))
    noise_floor = np.zeros((z, len(sensors)))
    roughness = np.zeros(len(scan))
    eps = np.finfo(float).eps
    for si, y in enumerate(ys):
        windows = np.lib.stride_tricks.sliding_window_view(y, w, axis=0)
        amplitude = np.linalg.norm(y, axis=1).max()
        for k in range(1, z + 1):
            left = np.einsum("now,w->no", windows[scan - (w - 1)], left_c[k - 1])
            right = np.einsum("now,w->no", windows[scan], right_c[k - 1])
            jumps[k - 1, si] = np.linalg.norm(right - left, axis=1)
            scale[k - 1, si] = np.median(np.linalg.norm(left, axis=1))
            # stencils divide by dt^k, so sample roundoff is amplified by
            # sum|c|/dt^k; jumps below that floor are numerically invisible
            noise_floor[k - 1, si] = 64.0 * eps * amplitude * np.abs(left_c[k - 1]).sum()
        rough_l = np.einsum("now,w->no", windows[scan - (w - 1)], smooth_c)
        rough_r = np.einsum("now,w->no", windows[scan], smooth_c)
        roughness += np.linalg.norm(rough_l, axis=1) + np.linalg.norm(rough_r, axis=1)

    threshold = (cfg.threshold_abs + cfg.threshold_rel * scale + noise_floor)[:, :, None]
    flagged = (jumps > threshold).any(axis=(0, 1))
    flagged_idx = np.nonzero(flagged)[0]
    if flagged_idx.size == 0:
        return []

    # Cluster nearby flags (a single break trips windows within +-(w-1)
    # samples) and localize each event where both one-sided windows are
    # smoothest: only at the true break are both windows kink-free.
    clusters = []
    start = prev = flagged_idx[0]
    for idx in flagged_idx[1:]:
        if idx - prev > w:
            clusters.append((start, prev))
            start = idx
        prev = idx
    clusters.append((start, prev))

    events = []
    for lo, hi in clusters:
        members = np.arange(lo, hi + 1)
        best = members[np.argmin(roughness[members])]
        orders = np.zeros(len(sensors), dtype=np.int64)
        for si in range(len(sensors)):
            for k in range(1, z + 1):
                if jumps[k - 1, si, best] > threshold[k - 1, si, 0]:
                    orders[si] = k
                    break
        if orders.any():
            events.append(JumpSignature(orders=orders,
                                        time=float(trace.times[scan[best]])))
    return events


@dataclass(frozen=True)
class IsolationResult:
    """Signature-to-column match outcome: unique, ambiguous or nomatch."""

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


def isolate(signature: JumpSignature, table: LookupTable) -> IsolationResult:
    """Match the observed order vector against the lookup-table columns.

    Matching is exact integer equality; a signature matching no column is
    reported as nomatch instead of being rounded to the nearest column.
    """
    k = np.asarray(signature.orders, dtype=np.int64)
    if k.shape != (len(table.sensors),):
        raise ValueError(
            f"signature has {k.shape[0]} entries for {len(table.sensors)} sensors")
    matches = (table.table == k[:, None]).all(axis=0)
    hits = tuple(table.edge_labels[idx] for idx in np.flatnonzero(matches))
    if len(hits) == 1:
        return IsolationResult("unique", hits)
    if hits:
        return IsolationResult("ambiguous", hits)
    return IsolationResult("nomatch", ())
