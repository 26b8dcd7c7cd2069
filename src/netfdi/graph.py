"""Weighted digraph container, hop distances, walk counting and generators.

Hop distances have two kernels with the same result: one breadth-first
search per source in plain Python for graphs of fewer than 32 nodes, and one
search from all sources at once over uint64 bitsets from 32 nodes on, whose
fixed numpy cost per level outweighs the sources it covers at once only on
small graphs (see ``distances``).

Conventions follow the information-flow orientation used throughout the
package: an edge (tail, head) means the head node consumes the tail node's
output, and the adjacency matrix stores the weight of edge (j -> i) at
position [i-1, j-1].  Node ids and edge labels are 1-based.  Edge labels are
stable: removing an edge never renumbers the survivors, so tables indexed by
edge label stay valid after a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import total_ordering
from pathlib import Path
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np


@total_ordering
class _Infinite:
    """Singleton marker for unreachable node pairs.

    Compares greater than every integer so code like ``d <= z - 1`` works
    without special-casing.  There is exactly one instance, ``INFINITE``;
    ``==`` is identity, and ``total_ordering`` derives the rest from ``<``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __lt__(self, other):
        return False


INFINITE = _Infinite()


@dataclass(frozen=True)
class Edge:
    """Directed edge (tail -> head) with a positive coupling weight."""

    tail: int
    head: int
    weight: float = 1.0


def _shown(value) -> str:
    """str(value), or the bit length of an integer past Python's digit limit for str()."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{int(value).bit_length()}-bit integer>"


def _check_int(value, name: str, low: int, high: int | None = None) -> int:
    """value as a plain int in low..high (no upper bound when high is None).

    ValueError naming the argument for a non-integer (a bool included,
    though Python counts it one) or a value out of range.  ``type(value)
    is int`` is tested first: this sits on the per-call path of the jump
    checks, and the Integral check goes through the ABC machinery and
    costs several times more.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} {value!r} is not an integer")
        value = int(value)
    if low <= value and (high is None or value <= high):
        return value
    raise ValueError(f"{name} must be >= {low}, got {_shown(value)}" if high is None
                     else f"{name} {_shown(value)} outside {low}..{high}")


def _check_real(value, name: str, low: float | None = None) -> float:
    """value as a plain finite float above low (if given); a bool or a string is no real."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, Real):   # np.bool_ is no Real
            raise ValueError(f"{name} {value!r} is not a real number")
        try:
            value = float(value)
        except OverflowError:   # an integer too large for a float
            raise ValueError(f"{name} must be finite, got {_shown(value)}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if low is not None and value <= low:
        raise ValueError(f"{name} must be > {low}, got {value}")
    return value


def _real_array(value, name: str) -> np.ndarray:
    """value as a new finite float array of numbers: numpy reads true as 1.0 and "2" as 2.0."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        for v in np.array(value, dtype=object).flat:
            if isinstance(v, (bool, np.bool_, str, bytes)):
                raise ValueError(f"{name} has a non-numeric entry {v!r}")
    try:
        array = np.array(value, dtype=float)
    except OverflowError:   # an integer too large for a float
        raise ValueError(f"{name} has non-finite entries") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")
    return array


def _validated_sensors(sensors, n_nodes: int, nonempty: bool = False) -> tuple[int, ...]:
    """Sensors as a tuple of ints; each an integer (not a bool) in 1..n_nodes, none repeated."""
    out = [_check_int(p, "sensor", 1, n_nodes) for p in sensors]
    if nonempty and not out:
        raise ValueError("sensor set must be nonempty")
    if len(set(out)) != len(out):
        p = next(p for i, p in enumerate(out) if p in out[:i])
        raise ValueError(f"duplicate node {p}")
    return tuple(out)


class Digraph:
    """Directed graph on nodes 1..n with labeled, weighted edges.

    Immutable by convention: mutating operations return a new graph.  This
    lets derived quantities (distances, walk powers) be memoized on the
    instance.
    """

    __slots__ = ("n_nodes", "_edges", "_memo")

    def __init__(self, n_nodes: int, edges: Iterable[Edge | tuple] = ()):
        n_nodes = _check_int(n_nodes, "n_nodes", 1)
        normalized = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            normalized.append(e)
        self.n_nodes = n_nodes
        self._edges = {label: e for label, e in enumerate(normalized, start=1)}
        self._memo = {}
        self._validate()

    @classmethod
    def _from_labeled(cls, n_nodes: int, labeled: dict[int, Edge]) -> "Digraph":
        g = cls.__new__(cls)
        g.n_nodes = int(n_nodes)
        g._edges = dict(labeled)
        g._memo = {}
        return g

    def _validate(self):
        seen = set()
        for label, e in self._edges.items():
            try:   # format the label only on failure: this runs for every edge
                _check_int(e.tail, "tail", 1, self.n_nodes)
                _check_int(e.head, "head", 1, self.n_nodes)
                _check_real(e.weight, "weight", 0)   # checked, not converted: an int stays one
            except ValueError as exc:
                raise ValueError(f"edge {label}: {exc}") from None
            if e.tail == e.head:
                raise ValueError(f"edge {label}: self-loop on node {e.tail} not allowed")
            if (e.tail, e.head) in seen:
                raise ValueError(f"duplicate edge ({e.tail},{e.head})")
            seen.add((e.tail, e.head))

    # -- basic accessors ----------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @property
    def edge_labels(self) -> tuple[int, ...]:
        return tuple(self._edges)

    def edge(self, label: int) -> Edge:
        try:
            return self._edges[_check_int(label, "edge label", 1)]
        except KeyError:
            raise KeyError(f"unknown edge label {_shown(label)}") from None

    def edges(self) -> tuple[tuple[int, Edge], ...]:
        """All (label, edge) pairs in label order."""
        return tuple(self._edges.items())

    def adjacency(self) -> np.ndarray:
        """Weighted adjacency matrix G with G[i-1, j-1] = weight of (j -> i), a new array."""
        G = np.zeros((self.n_nodes, self.n_nodes))
        for e in self._edges.values():
            G[e.head - 1, e.tail - 1] = e.weight
        return G

    def remove_edge(self, label: int) -> "Digraph":
        """Graph without the given edge; remaining labels are unchanged.

        A subset of a valid edge set is valid, so nothing is re-validated.
        """
        self.edge(label)   # ValueError for a non-integer label, KeyError for an unknown one
        remaining = {l: e for l, e in self._edges.items() if l != label}
        return Digraph._from_labeled(self.n_nodes, remaining)

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n_nodes == other.n_nodes and self._edges == other._edges

    def __repr__(self):
        return f"Digraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    # -- JSON schema ---------------------------------------------------------

    def to_dict(self) -> dict:
        """`{"n": int, "edges": [{"tail","head","w"}...]}`; array order = labels."""
        return {
            "n": self.n_nodes,
            "edges": [
                {"tail": e.tail, "head": e.head, "w": e.weight}
                for e in self._edges.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Digraph":
        edges = [Edge(d["tail"], d["head"], d.get("w", 1.0)) for d in data["edges"]]
        return cls(data["n"], edges)

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "Digraph":
        return cls.from_dict(json.loads(Path(path).read_text()))


class DistanceMatrix:
    """All-pairs hop counts; unreachable pairs read back as INFINITE."""

    __slots__ = ("_hops",)

    def __init__(self, hops: np.ndarray):
        self._hops = hops

    def __getitem__(self, pair: tuple[int, int]):
        """dist(q, p): length of the shortest directed q -> p path."""
        q, p = pair
        q = _check_int(q, "node", 1, self.n)
        p = _check_int(p, "node", 1, self.n)
        h = self._hops[q - 1, p - 1]
        return INFINITE if h < 0 else int(h)

    @property
    def n(self) -> int:
        return self._hops.shape[0]

    def finite_max(self) -> int:
        """Largest finite entry (0 when the graph has a single node)."""
        return int(self._hops.max(initial=0))

    def all_pairs_finite(self) -> bool:
        return bool((self._hops >= 0).all())


def distances(g: Digraph) -> DistanceMatrix:
    """Hop distances by breadth-first search over the nonzero pattern.

    Edge weights do not enter: only which arcs exist matters.  Two kernels
    give the same int64 array.  ``_bitset_hops`` walks all sources at once
    in a few numpy calls per level; it runs on graphs of at least 32 nodes,
    where it is several times faster (rgg50 0.55 -> 0.18 ms, an RGG of 1000
    nodes and 15381 arcs 423 -> 24 ms).  ``_per_source_hops`` walks one
    source at a time in Python; it runs on smaller graphs, because its cost
    has no fixed part per level: 11 against 94 us per graph of 2 to 8 nodes,
    27 against 77 us per tree of 16 to 20.
    """
    cached = g._memo.get("distances")
    if cached is not None:
        return cached
    kernel = _bitset_hops if g.n_nodes >= 32 else _per_source_hops
    result = DistanceMatrix(kernel(g))
    g._memo["distances"] = result
    return result


def _per_source_hops(g: Digraph) -> np.ndarray:
    """[q-1, p-1] = dist(q, p), -1 when unreachable: one breadth-first search per source q."""
    n = g.n_nodes
    succ: list[list[int]] = [[] for _ in range(n)]
    for e in g._edges.values():
        succ[int(e.tail) - 1].append(int(e.head) - 1)
    rows = []
    for q in range(n):
        row = [-1] * n
        row[q] = 0
        frontier, hop = [q], 0
        while frontier:
            hop += 1
            reached = []
            for u in frontier:
                for v in succ[u]:
                    if row[v] < 0:
                        row[v] = hop
                        reached.append(v)
            frontier = reached
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _bitset_hops(g: Digraph) -> np.ndarray:
    """As ``_per_source_hops``, by one breadth-first search from all sources at once.

    Node q holds the set of nodes it reaches as bits of ceil(n/64) uint64
    words, so the walk runs along the arcs backwards: level h gathers the
    frontier rows at the arc heads, ORs them per tail (``reduceat`` over
    the arcs sorted by tail) and keeps the bits not seen before, the pairs
    h hops apart.  Rather than keep one bitmap per level, level h ORs its
    pairs into plane b for each set bit b of h + 1, so the array is read
    back from floor(log2(L + 1)) + 1 unpacked planes for L levels, and an
    unreachable pair, in no plane, reads 0 - 1.
    """
    n = g.n_nodes
    tails = np.fromiter((e.tail - 1 for e in g._edges.values()), np.intp, g.n_edges)
    heads = np.fromiter((e.head - 1 for e in g._edges.values()), np.intp, g.n_edges)
    # a node without out-arcs gets one to row n of the frontier, which stays
    # empty, so that every node owns a segment and each level is whole-array
    lonely = np.flatnonzero(np.bincount(tails, minlength=n) == 0)
    tails = np.concatenate((tails, lonely))
    order = np.argsort(tails)
    heads = np.concatenate((heads, np.full(lonely.size, n)))[order]
    starts = np.searchsorted(tails[order], np.arange(n))
    words = -(-n // 64)
    node = np.arange(n, dtype=np.uint64)
    seen = np.zeros((n, words), np.uint64)
    seen[node, node >> 6] = np.uint64(1) << (node & 63)
    frontier = np.vstack((seen, np.zeros((1, words), np.uint64)))
    planes, level = [seen.copy()], 1
    while True:
        level += 1   # hop count + 1 of the pairs this pass reaches
        reached = np.bitwise_or.reduceat(np.take(frontier, heads, axis=0), starts, axis=0)
        reached &= ~seen
        if not reached.any():
            break
        seen |= reached
        frontier[:n] = reached
        for b in range(level.bit_length()):
            if level >> b & 1:
                if b == len(planes):
                    planes.append(np.zeros_like(seen))
                planes[b] |= reached
    # hop + 1 per pair, bit b from plane b, highest plane first
    acc = _unpacked(planes[-1], n).astype(np.min_scalar_type((1 << len(planes)) - 1))
    for plane in reversed(planes[:-1]):
        acc <<= 1
        acc |= _unpacked(plane, n)
    return np.subtract(acc, 1, dtype=np.int64)


def _unpacked(bits: np.ndarray, n: int) -> np.ndarray:
    """uint8 0/1 [q, p] of an (n, words) uint64 bitset; bit p % 64 of word p // 64 is column p."""
    as_bytes = np.ascontiguousarray(bits, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=n, bitorder="little")


def diameter(g: Digraph):
    """Max distance over all node pairs; INFINITE unless strongly connected."""
    d = distances(g)
    return d.finite_max() if d.all_pairs_finite() else INFINITE


def finite_diameter(g: Digraph) -> int:
    """Max over the finite distance entries only."""
    return distances(g).finite_max()


def walk_matrix(g: Digraph, k: int) -> np.ndarray:
    """k-th power of the weighted adjacency matrix (G^0 = identity).

    Entry [p-1, q-1] sums the weight products over all q -> p walks of
    length k, so it vanishes for k < dist(q, p) and is positive at
    k = dist(q, p).
    """
    return _walk_power(g, _check_int(k, "walk length", 0)).copy()


def _walk_power(g: Digraph, k: int) -> np.ndarray:
    """Memoised G^k (k >= 0) of the graph; shared, never to be mutated.

    The memo holds G and the powers G^0 .. G^m; a higher k appends
    G^(m+1) = G^m @ G and on, so every power is the same product whenever
    it is first asked for.
    """
    memo = g._memo.get("walk_powers")
    if memo is None:
        memo = g._memo["walk_powers"] = (g.adjacency(), [np.eye(g.n_nodes)])
    base, powers = memo
    while len(powers) <= k:
        powers.append(powers[-1] @ base)
    return powers[k]


def remove_edge(g: Digraph, label: int) -> Digraph:
    """Functional alias of Digraph.remove_edge."""
    return g.remove_edge(label)


# -- generators ---------------------------------------------------------------


def gen_cycle(n: int) -> Digraph:
    """Directed n-cycle 1 -> 2 -> ... -> n -> 1.

    Edge labels follow the convention that edge q (for q >= 2) is
    (q-1 -> q) and edge 1 closes the cycle as (n -> 1).
    """
    n = _check_int(n, "cycle size n", 2)
    edges = [Edge(n, 1)] + [Edge(q - 1, q) for q in range(2, n + 1)]
    return Digraph(n, edges)


def gen_star(n: int) -> Digraph:
    """Inward star: n-1 edges (q -> n) for q < n, all sharing head n."""
    n = _check_int(n, "star size n", 2)
    return Digraph(n, [Edge(q, n) for q in range(1, n)])


def gen_random_geometric(n: int, region_side: float, radius: float, seed: int) -> Digraph:
    """Random geometric digraph, reproducible for a fixed seed.

    Nodes are placed uniformly on [0, region_side]^2.  Every pair closer
    than `radius` gets exactly one directed edge whose orientation comes
    from a fair coin flip of the seeded generator.

    Parameters
    ----------
    n : number of nodes (>= 2).
    region_side : side length of the square placement region (finite, > 0).
    radius : connection radius (finite, > 0).
    seed : seed for numpy's default_rng (>= 0); same seed -> identical graph.
    """
    n = _check_int(n, "random geometric graph size n", 2)
    radius = _check_real(radius, "radius", 0)
    region_side = _check_real(region_side, "region_side", 0)
    seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, region_side, size=(n, 2))
    # pairs (a, b), a < b, in row-major order; one coin per close pair, drawn
    # in that order (a batch of draws equals the same number of single draws)
    a, b = np.triu_indices(n, 1)
    dx, dy = (points[a] - points[b]).T
    close = np.flatnonzero(np.hypot(dx, dy) <= radius)
    forward = rng.random(close.size) < 0.5
    return Digraph(n, [Edge(int(a[k]) + 1, int(b[k]) + 1) if fwd
                       else Edge(int(b[k]) + 1, int(a[k]) + 1)
                       for k, fwd in zip(close, forward)])
