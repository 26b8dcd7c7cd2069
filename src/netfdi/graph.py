"""Weighted digraph container, hop distances, walk counting and generators.

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
from pathlib import Path
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np


class _Infinite:
    """Singleton marker for unreachable node pairs.

    Compares greater than every integer so code like ``d <= z - 1`` works
    without special-casing.  There is exactly one instance, ``INFINITE``.
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

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INFINITE = _Infinite()


@dataclass(frozen=True)
class Edge:
    """Directed edge (tail -> head) with a positive coupling weight."""

    tail: int
    head: int
    weight: float = 1.0


class Digraph:
    """Directed graph on nodes 1..n with labeled, weighted edges.

    Immutable by convention: mutating operations return a new graph.  This
    lets derived quantities (adjacency, distances, walk powers) be memoized
    on the instance.
    """

    __slots__ = ("n_nodes", "_edges", "_memo")

    def __init__(self, n_nodes: int, edges: Iterable[Edge | tuple] = ()):
        if not isinstance(n_nodes, Integral):
            raise ValueError(f"n_nodes must be an integer, got {n_nodes!r}")
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        normalized = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            normalized.append(e)
        self.n_nodes = int(n_nodes)
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
            if not (isinstance(e.tail, Integral) and isinstance(e.head, Integral)):
                raise ValueError(f"edge {label}: endpoints ({e.tail!r},{e.head!r}) must be integers")
            if not (1 <= e.tail <= self.n_nodes and 1 <= e.head <= self.n_nodes):
                raise ValueError(f"edge {label}: endpoints ({e.tail},{e.head}) outside 1..{self.n_nodes}")
            if e.tail == e.head:
                raise ValueError(f"edge {label}: self-loop on node {e.tail} not allowed")
            if not (math.isfinite(e.weight) and e.weight > 0):
                raise ValueError(f"edge {label}: weight must be positive and finite, got {e.weight}")
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
            return self._edges[label]
        except KeyError:
            raise KeyError(f"unknown edge label {label}") from None

    def edges(self) -> tuple[tuple[int, Edge], ...]:
        """All (label, edge) pairs in label order."""
        return tuple(self._edges.items())

    def adjacency(self) -> np.ndarray:
        """Weighted adjacency matrix G with G[i-1, j-1] = weight of (j -> i)."""
        cached = self._memo.get("adjacency")
        if cached is None:
            cached = np.zeros((self.n_nodes, self.n_nodes))
            for e in self._edges.values():
                cached[e.head - 1, e.tail - 1] = e.weight
            self._memo["adjacency"] = cached
        return cached.copy()

    def remove_edge(self, label: int) -> "Digraph":
        """Graph without the given edge; remaining labels are unchanged.

        A subset of a valid edge set is valid, so nothing is re-validated.
        """
        if label not in self._edges:
            raise KeyError(f"unknown edge label {label}")
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

    Edge weights do not enter: only which arcs exist matters.
    """
    cached = g._memo.get("distances")
    if cached is not None:
        return cached
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
    result = DistanceMatrix(np.array(rows, dtype=np.int64))
    g._memo["distances"] = result
    return result


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
    if k < 0:
        raise ValueError(f"walk length must be >= 0, got {k}")
    return _walk_power(g, k).copy()


def _walk_power(g: Digraph, k: int) -> np.ndarray:
    """Memoised G^k (k >= 0) of the graph; shared, never to be mutated."""
    powers = g._memo.get("walk_powers")
    if powers is None or len(powers) <= k:
        base = g.adjacency()
        powers = [np.eye(g.n_nodes)]
        while len(powers) <= k:
            powers.append(powers[-1] @ base)
        g._memo["walk_powers"] = powers
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
    if n < 2:
        raise ValueError(f"cycle needs n >= 2, got {n}")
    edges = [Edge(n, 1)] + [Edge(q - 1, q) for q in range(2, n + 1)]
    return Digraph(n, edges)


def gen_star(n: int) -> Digraph:
    """Inward star: n-1 edges (q -> n) for q < n, all sharing head n."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Digraph(n, [Edge(q, n) for q in range(1, n)])


def gen_random_geometric(n: int, region_side: float, radius: float, seed: int) -> Digraph:
    """Random geometric digraph, reproducible for a fixed seed.

    Nodes are placed uniformly on [0, region_side]^2.  Every pair closer
    than `radius` gets exactly one directed edge whose orientation comes
    from a fair coin flip of the seeded generator.

    Parameters
    ----------
    n : number of nodes (>= 2).
    region_side : side length of the square placement region.
    radius : connection radius (> 0).
    seed : seed for numpy's default_rng; same seed -> identical graph.
    """
    if n < 2:
        raise ValueError(f"random geometric graph needs n >= 2, got {n}")
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if region_side <= 0:
        raise ValueError(f"region_side must be > 0, got {region_side}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, region_side, size=(n, 2))
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if np.hypot(*(points[a - 1] - points[b - 1])) <= radius:
                if rng.random() < 0.5:
                    edges.append(Edge(a, b))
                else:
                    edges.append(Edge(b, a))
    return Digraph(n, edges)
