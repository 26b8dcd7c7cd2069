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
same zero set as f_I.

Isolation needs no greedy of its own.  R = H[heads], so edges with one head
share a row, and isolation is feasible (f_I(V) = 0) exactly when every node
has in-degree <= 1.  Then every detection set already isolates (proof in
brute_force_min_isolation), so the greedy detection set is the isolation
set, the detection optimum is the isolation optimum, and the set-cover
guarantee of the detection greedy is the isolation guarantee:
|M_I| = |M_D| <= H(d_max) opt_I.
greedy_isolation from a seed that is not a detection set is not covered by
it, but it runs the same cover greedy: when f_I(V) = 0 a sensor tells apart
every pair of edges it sees and the unseen edges share the zero row, so
f_I = f_D * [f_D >= 2].

The same structure decides feasibility without a deficit call.  In the row
of an edge the entry r sits only in its head's column (every other column
holds >= 2r or 0), so two rows agree exactly when their heads do, and f_I(V)
is the number of edges whose head has in-degree >= 2 (_shared_head_edges).
The isolation routines and the report all take f_I(V) from that count.

Exhaustive solvers provide the optima at desk scale; their depth-first
search drops every prefix that cannot complete a cover.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fdi import RelationMatrix
from .graph import _check_int, _validated_sensors

#: exhaustive search refuses beyond this many nodes rather than running forever
MAX_EXACT_NODES = 20


def coverage_deficit(R: RelationMatrix, sensors) -> int:
    """f_D: how many edges no chosen sensor would ever notice failing."""
    members = _validated_sensors(sensors, R.n_nodes)
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


def _shared_head_edges(R: RelationMatrix) -> int:
    """f_I(V): the number of edges whose head has in-degree >= 2."""
    heads = (R.entries == R.r).argmax(axis=1)    # the one column holding r
    return int((np.bincount(heads, minlength=R.n_nodes)[heads] >= 2).sum())


def _cover_greedy(R: RelationMatrix, picks, enough: int) -> tuple[int, ...]:
    """Greedy set cover from `picks`, until fewer than `enough` edges are unseen.

    Each round adds the node leaving the fewest edges unseen (a count below
    `enough` reads as 0), ties to the lowest id.  The caller validates
    `picks`; every edge is seen by its head, so the loop always ends.
    """
    seen = R.entries != 0
    unseen = ~seen[:, [p - 1 for p in picks]].any(axis=1)
    picks = list(picks)
    while unseen.sum() >= enough:
        left = unseen.sum() - seen[unseen].sum(axis=0)
        left[left < enough] = 0
        left[[p - 1 for p in picks]] = R.n_edges + 1
        q = int(left.argmin())
        unseen &= ~seen[:, q]
        picks.append(q + 1)
    return tuple(picks)


def greedy_detection(R: RelationMatrix) -> tuple[int, ...]:
    """Greedy minimum-coverage sensor set: grow until f_D = 0.

    Each step adds the node with the most negative marginal f_D change,
    breaking ties toward the lowest node index.  Termination is guaranteed
    because every edge's head node relates to it at order r <= z.
    """
    return _cover_greedy(R, (), 1)


def greedy_isolation(R: RelationMatrix, m_d) -> tuple[int, ...] | None:
    """Greedy resolution set seeded with a detection set; None if impossible.

    Seeding with M_D keeps the result detection-feasible: an edge can be
    resolved purely through order-0 relations, which would leave it
    undetectable without the seed.  Feasibility is decided first, from the
    in-degrees (f_I(V) = 0 iff every in-degree is <= 1): None is returned at
    once when it fails.  Otherwise f_I = f_D * [f_D >= 2] (module docstring):
    the cover greedy runs from the seed until fewer than 2 edges are unseen.
    """
    m_d = _validated_sensors(m_d, R.n_nodes)
    if _shared_head_edges(R):
        return None
    return _cover_greedy(R, m_d, 2)


def binary_incidence(R: RelationMatrix) -> np.ndarray:
    """Binary pattern of R; row q marks the nodes that notice edge q failing."""
    return (R.entries != 0).astype(np.int64)


def _guard_exact(R: RelationMatrix):
    if R.n_nodes > MAX_EXACT_NODES:
        raise ValueError(
            f"exhaustive search refused: {R.n_nodes} nodes exceeds the "
            f"{MAX_EXACT_NODES}-node limit")


def _detection_sets(R: RelationMatrix):
    """Every sensor set with f_D = 0, in (size, lexicographic) order.

    Each size is walked depth first.  A prefix ending at node q is dropped,
    with every later sibling, when its cover joined with the masks of nodes
    q+1..N still misses an edge: that union only shrinks as q grows.
    """
    # per node, an int bitmask over the edge rows it covers
    packed = np.packbits(binary_incidence(R).T, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    full = (1 << R.n_edges) - 1
    n = R.n_nodes
    rest = [0] * (n + 1)    # rest[q]: OR of the masks of nodes q+1..N
    for q in range(n - 1, -1, -1):
        rest[q] = rest[q + 1] | masks[q]

    def extend(prefix, acc, start, left):
        if not left:
            if acc == full:
                yield prefix
            return
        for q in range(start, n - left + 2):
            cover = acc | masks[q - 1]
            if cover | rest[q] != full:
                return
            yield from extend(prefix + (q,), cover, q + 1, left - 1)

    for size in range(n + 1):
        yield from extend((), 0, 1, size)


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
    seeded greedy.  Isolation is feasible at all iff f_I(V) = 0, and then
    the detection optimum is the isolation optimum.  R = H[heads], so edges
    with one head share a row, and f_I(V) = 0 means every node has in-degree
    <= 1.  Each node then has one backward chain, and the only node at hop
    distance delta from p is the one delta steps back on p's chain.  In a
    cover M, edge e is seen by some p in M at order r(delta + 1); an edge
    with the same entry at p has the same head, so it is e.  Every cover
    isolates.
    """
    _guard_exact(R)
    if _shared_head_edges(R):
        return None
    return brute_force_min_detection(R)


def harmonic(d: int) -> float:
    """Truncated harmonic sum H(d) = 1 + 1/2 + ... + 1/d, summed exactly.

    The sum is an exact fraction p / q, built by binary splitting (each
    stretch of terms summed pairwise, so the big products stay balanced);
    p / q rounds the exact quotient correctly, as float(Fraction) does.
    """
    d = _check_int(d, "harmonic sum d", 1)

    def stretch(lo: int, hi: int) -> tuple[int, int]:
        """Sum of 1/i over lo <= i < hi as (numerator, denominator)."""
        if hi - lo == 1:
            return 1, lo
        mid = (lo + hi) // 2
        p1, q1 = stretch(lo, mid)
        p2, q2 = stretch(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    p, q = stretch(1, d + 1)
    return p / q


@dataclass
class PlacementReport:
    """Greedy placement outcome with set-cover quality bookkeeping.

    opt_d / opt_i are exhaustive optima when requested (None otherwise);
    m_i and opt_i are None when isolation is impossible (f_I(V) != 0), and
    otherwise equal m_d and opt_d, since every detection set isolates.
    d_max is the largest column sum of the binary incidence pattern.  The
    report reads f_I(V) off the edges' heads (_shared_head_edges) and the
    f_D trace off a running OR over M_D's columns of R != 0.
    harmonic_bound = H(d_max) is the set-cover guarantee for m_d (-f_D is
    submodular), and so the isolation guarantee when isolation is feasible:
    |m_i| = |m_d| <= H(d_max) * |opt_i|.
    """

    m_d: tuple[int, ...]
    m_i: tuple[int, ...] | None
    f_d_trace: tuple[int, ...]
    f_i_trace: tuple[int, ...]
    f_i_of_v: int
    opt_d: tuple[int, ...] | None
    opt_i: tuple[int, ...] | None
    d_max: int
    harmonic_bound: float
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
    """Run the detection greedy and assemble the quality report.

    The isolation set and optimum are the detection ones whenever isolation
    is feasible.  With exact=True the exhaustive optimum is computed too
    (desk scale only; the node guard applies).  Only f_I(M_D) calls a
    deficit function; the other counts are read off R (see PlacementReport).
    """
    m_d = greedy_detection(R)
    n_edges = R.n_edges
    seen = R.entries != 0
    f_i_of_v = _shared_head_edges(R)
    m_i = m_d if f_i_of_v == 0 else None
    covered = np.logical_or.accumulate(seen[:, [p - 1 for p in m_d]], axis=1)
    f_d_trace = (n_edges, *(n_edges - covered.sum(axis=0)).tolist())
    f_i_trace = (resolution_deficit(R, m_d),)

    opt_d = brute_force_min_detection(R) if exact else None
    opt_i = opt_d if m_i is not None else None

    if n_edges:
        d_max = int(seen.sum(axis=0).max())
        h_det = harmonic(d_max)
        ratio = math.log(n_edges) + 1.0
    else:
        d_max, h_det, ratio = 0, 0.0, 1.0
    return PlacementReport(m_d=m_d, m_i=m_i, f_d_trace=f_d_trace, f_i_trace=f_i_trace,
                           f_i_of_v=f_i_of_v, opt_d=opt_d, opt_i=opt_i, d_max=d_max,
                           harmonic_bound=h_det, ratio_bound=ratio)
