"""Sensor placement: coverage/resolution deficits, greedy picks, exact optima.

The objectives are monotone deficits over sensor sets M:

* coverage deficit  f_D(M) = number of edges invisible to every sensor in M
  (detection wants f_D = 0);
* resolution deficit f_I(M) = number of edges whose (order, sensor)
  indicator sets collide with another edge's (isolation wants f_I = 0);
* unresolved pairs   P(M) = number of unordered edge pairs whose rows of R
  agree on every sensor in M.

-f_D is submodular, so greedy detection carries the classical set-cover
guarantee: within a truncated-harmonic factor, hence within log|E| + 1, of
the optimal sensor count.  -f_I is *not* submodular: sensors can be
complementary, resolving an edge together that neither resolves alone.
-P is submodular (a sensor separates exactly the pairs it sees at different
orders, so C(|E|, 2) - P is a coverage function over edge pairs) and has the
same zero set as f_I, so a greedy on P would carry the set-cover guarantee
for isolation.  greedy_isolation runs on f_I, so its harmonic factor is an
empirical ratio, not a guarantee.  Exhaustive solvers provide
the optima at desk scale for checking both.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .fdi import RelationMatrix, _validated_sensors

#: exhaustive search refuses beyond this many nodes rather than running forever
MAX_EXACT_NODES = 20


def coverage_deficit(R: RelationMatrix, sensors) -> int:
    """f_D: how many edges no chosen sensor would ever notice failing."""
    members = _validated_sensors(sensors, R.n_nodes)
    if R.n_edges == 0:
        return 0
    if not members:
        return R.n_edges
    sub = R.entries[:, [p - 1 for p in members]]
    return int((sub == 0).all(axis=1).sum())


def indicator_set(R: RelationMatrix, sensors, edge: int) -> frozenset:
    """All (jump order, sensor) pairs the failure of `edge` produces over M."""
    members = _validated_sensors(sensors, R.n_nodes)
    row = R.row_index(edge)
    return frozenset((int(R.entries[row, p - 1]), p) for p in members)


def _row_keys(R: RelationMatrix, members: tuple[int, ...]) -> list[bytes]:
    """Per edge row, a hashable key for its entries over the chosen sensors."""
    sub = np.ascontiguousarray(R.entries[:, [p - 1 for p in members]])
    return [row.tobytes() for row in sub]


def unidentified_edges(R: RelationMatrix, sensors) -> set[int]:
    """Edges whose indicator set collides with some other edge's."""
    members = _validated_sensors(sensors, R.n_nodes)
    if R.n_edges <= 1:
        return set()
    if not members:
        return set(R.edge_labels)
    keys = _row_keys(R, members)
    counts = Counter(keys)
    return {label for label, key in zip(R.edge_labels, keys) if counts[key] > 1}


def resolution_deficit(R: RelationMatrix, sensors) -> int:
    """f_I: size of the unidentified-edge set."""
    return len(unidentified_edges(R, sensors))


def unresolved_pairs(R: RelationMatrix, sensors) -> int:
    """P: how many unordered edge pairs no chosen sensor tells apart.

    Sum of C(c, 2) over the classes of equal rows of R restricted to M, so
    P({}) = C(|E|, 2), and P = 0 exactly when f_I = 0.
    """
    members = _validated_sensors(sensors, R.n_nodes)
    counts = Counter(_row_keys(R, members))
    return sum(c * (c - 1) // 2 for c in counts.values())


def _greedy(R: RelationMatrix, deficit, picks) -> tuple[int, ...]:
    """Grow `picks` until `deficit` reaches 0, one lowest-deficit node a round.

    Ties go to the lowest node id.  The caller guarantees that the full
    vertex set has deficit 0, so the loop always ends.
    """
    picks = list(picks)
    value = deficit(R, picks)
    while value != 0:
        value, best = min((deficit(R, picks + [q]), q)
                          for q in range(1, R.n_nodes + 1) if q not in picks)
        picks.append(best)
    return tuple(picks)


def greedy_detection(R: RelationMatrix) -> tuple[int, ...]:
    """Greedy minimum-coverage sensor set: grow until f_D = 0.

    Each step adds the node with the most negative marginal f_D change,
    breaking ties toward the lowest node index.  Termination is guaranteed
    because every edge's head node relates to it at order r <= z.
    """
    return _greedy(R, coverage_deficit, [])


def greedy_isolation(R: RelationMatrix, m_d) -> tuple[int, ...] | None:
    """Greedy resolution set seeded with a detection set; None if impossible.

    Seeding with M_D keeps the result detection-feasible: an edge can be
    resolved purely through order-0 relations, which would leave it
    undetectable without the seed.  Feasibility is decided first, from
    f_I(V): None is returned at once when even the full vertex set cannot
    resolve all edges, and otherwise the greedy is sure to reach f_I = 0.
    """
    m_d = _validated_sensors(m_d, R.n_nodes)
    if resolution_deficit(R, range(1, R.n_nodes + 1)) != 0:
        return None
    return _greedy(R, resolution_deficit, m_d)


def binary_incidence(R: RelationMatrix) -> np.ndarray:
    """Binary pattern of R; row q marks the nodes that notice edge q failing."""
    return (R.entries != 0).astype(np.int64)


def _guard_exact(R: RelationMatrix):
    if R.n_nodes > MAX_EXACT_NODES:
        raise ValueError(
            f"exhaustive search refused: {R.n_nodes} nodes exceeds the "
            f"{MAX_EXACT_NODES}-node limit")


def _detection_sets(R: RelationMatrix):
    """Every sensor set with f_D = 0, in (size, lexicographic) order."""
    # per node, an int bitmask over the edge rows it covers
    packed = np.packbits(binary_incidence(R).T, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    full = (1 << R.n_edges) - 1
    for size in range(R.n_nodes + 1):
        for combo in combinations(range(1, R.n_nodes + 1), size):
            acc = 0
            for q in combo:
                acc |= masks[q - 1]
            if acc == full:
                yield combo


def brute_force_min_detection(R: RelationMatrix) -> tuple[int, ...]:
    """Smallest sensor set with f_D = 0, by cardinality-ordered enumeration.

    Among minimum-cardinality solutions the lexicographically first one is
    returned.  Refuses graphs beyond MAX_EXACT_NODES nodes.
    """
    _guard_exact(R)
    best = next(_detection_sets(R), None)
    if best is None:
        raise ValueError("no detection set exists (some edge has an all-zero row)")
    return best


def brute_force_min_isolation(R: RelationMatrix) -> tuple[int, ...] | None:
    """Smallest sensor set with f_I = 0 and f_D = 0; None when impossible.

    The detection side-constraint keeps these optima comparable with the
    seeded greedy.  Isolation is feasible at all iff f_I(V) = 0.
    """
    _guard_exact(R)
    if resolution_deficit(R, range(1, R.n_nodes + 1)) != 0:
        return None
    return next(combo for combo in _detection_sets(R)
                if resolution_deficit(R, combo) == 0)


def harmonic(d: int) -> float:
    """Truncated harmonic sum H(d) = 1 + 1/2 + ... + 1/d, summed exactly."""
    if d < 1:
        raise ValueError(f"harmonic sum needs d >= 1, got {d}")
    return float(sum(Fraction(1, i) for i in range(1, d + 1)))


@dataclass
class PlacementReport:
    """Greedy placement outcome with set-cover quality bookkeeping.

    opt_d / opt_i are exhaustive optima when requested (None otherwise);
    m_i and opt_i are None when isolation is impossible.  d_max is the
    largest column sum of the binary incidence pattern, d_max_isolation the
    largest single-node resolution gain |E| - f_I({q}).  harmonic_bound is
    the set-cover guarantee H(d_max) for m_d (-f_D is submodular).  m_i is
    greedy on f_I, which is not submodular, so harmonic_bound_isolation =
    H(d_max_isolation) is an empirical ratio, not a guarantee; the test
    corpus checks that m_i stays within it.
    """

    m_d: tuple[int, ...]
    m_i: tuple[int, ...] | None
    f_d_trace: tuple[int, ...]
    f_i_trace: tuple[int, ...]
    f_i_of_v: int
    opt_d: tuple[int, ...] | None
    opt_i: tuple[int, ...] | None
    d_max: int
    d_max_isolation: int
    harmonic_bound: float
    harmonic_bound_isolation: float
    ratio_bound: float

    def to_dict(self) -> dict:
        return {
            "M_D": list(self.m_d),
            "M_I": list(self.m_i) if self.m_i is not None else None,
            "f_I_of_V": self.f_i_of_v,
            "opt_D": len(self.opt_d) if self.opt_d is not None else None,
            "opt_I": len(self.opt_i) if self.opt_i is not None else None,
            "ratio_bound": self.ratio_bound,
            "d_max": self.d_max,
            "harmonic_bound": self.harmonic_bound,
            "f_D_trace": list(self.f_d_trace),
            "f_I_trace": list(self.f_i_trace),
        }


def approximation_report(R: RelationMatrix, exact: bool = False) -> PlacementReport:
    """Run both greedy routines and assemble the quality report.

    With exact=True the exhaustive optima are computed too (desk scale
    only; the node guard applies).
    """
    m_d = greedy_detection(R)
    m_i = greedy_isolation(R, m_d)
    f_d_trace = tuple(coverage_deficit(R, m_d[:i]) for i in range(len(m_d) + 1))
    if m_i is not None:
        f_i_trace = tuple(resolution_deficit(R, m_i[:i])
                          for i in range(len(m_d), len(m_i) + 1))
    else:
        f_i_trace = (resolution_deficit(R, m_d),)
    every = tuple(range(1, R.n_nodes + 1))
    f_i_of_v = resolution_deficit(R, every)

    opt_d = opt_i = None
    if exact:
        opt_d = brute_force_min_detection(R)
        opt_i = brute_force_min_isolation(R)

    if R.n_edges:
        d_max = int(binary_incidence(R).sum(axis=0).max())
        d_max_iso = max(R.n_edges - resolution_deficit(R, (q,)) for q in every)
        h_det = harmonic(d_max) if d_max >= 1 else 0.0
        h_iso = harmonic(d_max_iso) if d_max_iso >= 1 else 0.0
        ratio = math.log(R.n_edges) + 1.0
    else:
        d_max = d_max_iso = 0
        h_det = h_iso = 0.0
        ratio = 1.0
    return PlacementReport(m_d=m_d, m_i=m_i, f_d_trace=f_d_trace, f_i_trace=f_i_trace,
                           f_i_of_v=f_i_of_v, opt_d=opt_d, opt_i=opt_i, d_max=d_max,
                           d_max_isolation=d_max_iso, harmonic_bound=h_det,
                           harmonic_bound_isolation=h_iso, ratio_bound=ratio)
