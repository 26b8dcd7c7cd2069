"""Deterministic graph and subsystem corpora shared by the test modules.

The exhaustive corpus enumerates every weakly-connected digraph on up to
five vertices, one representative per isomorphism class (the properties
under test are label-invariant, so isomorphic duplicates add nothing).
Class counts are cross-checked against the known census in the tests.

Random draws all flow from explicit seeds, and subsystem draws are scaled
so that closed-loop matrices keep modest norms: several suites assert that
mathematically-zero quantities vanish to 1e-9, which requires powers of the
closed loop to stay well conditioned.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

import numpy as np

from netfdi.dynamics import SimulationTrace, SubsystemModel
from netfdi.graph import Digraph, Edge


# -- exhaustive isomorphism-reduced enumeration --------------------------------


@lru_cache(maxsize=None)
def connected_digraph_edge_lists(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All weakly-connected digraphs on exactly n nodes, up to isomorphism.

    Returns one edge list (1-based (tail, head) pairs) per class.  Arc sets
    are encoded as bitmasks over the n(n-1) ordered pairs; the canonical
    form is the minimum mask over all vertex permutations, computed with
    half-mask lookup tables so the n=5 case (2^20 masks) stays fast.
    """
    if n == 1:
        return ((),)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    nbits = len(pairs)
    bit_of = {pq: b for b, pq in enumerate(pairs)}
    masks = np.arange(1 << nbits, dtype=np.int64)
    canon = masks.copy()
    lo_bits = nbits // 2
    lo_size = 1 << lo_bits
    hi_bits = nbits - lo_bits
    hi_size = 1 << hi_bits
    lo_idx = np.arange(lo_size, dtype=np.int64)
    hi_idx = np.arange(hi_size, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        lut_lo = np.zeros(lo_size, dtype=np.int64)
        lut_hi = np.zeros(hi_size, dtype=np.int64)
        for b, (i, j) in enumerate(pairs):
            target = np.int64(1) << bit_of[(perm[i], perm[j])]
            if b < lo_bits:
                lut_lo[(lo_idx >> b) & 1 == 1] |= target
            else:
                lut_hi[(hi_idx >> (b - lo_bits)) & 1 == 1] |= target
        relabeled = lut_lo[masks & (lo_size - 1)] | lut_hi[masks >> lo_bits]
        np.minimum(canon, relabeled, out=canon)
    reps = np.nonzero(masks == canon)[0]

    out = []
    for mask in reps:
        arcs = [pairs[b] for b in range(nbits) if (int(mask) >> b) & 1]
        if _weakly_connected(n, arcs):
            out.append(tuple((i + 1, j + 1) for i, j in sorted(arcs)))
    return tuple(out)


def _weakly_connected(n: int, arcs: list[tuple[int, int]]) -> bool:
    neigh = [[] for _ in range(n)]
    for i, j in arcs:
        neigh[i].append(j)
        neigh[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neigh[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_digraphs_up_to(n_max: int) -> list[Digraph]:
    """Unit-weight Digraphs for every class with 1..n_max nodes."""
    graphs = []
    for n in range(1, n_max + 1):
        for edge_list in connected_digraph_edge_lists(n):
            graphs.append(Digraph(n, [Edge(t, h) for t, h in edge_list]))
    return graphs


# -- random graphs --------------------------------------------------------------


def random_connected_digraph(n: int, rng: np.random.Generator, edge_prob: float = 0.35,
                             weighted: bool = True) -> Digraph:
    """Erdos-Renyi digraph, redrawn until weakly connected."""
    while True:
        arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j and rng.random() < edge_prob]
        if arcs and _weakly_connected(n, [(i - 1, j - 1) for i, j in arcs]):
            break
    edges = []
    for tail, head in arcs:
        w = float(rng.uniform(0.3, 1.0)) if weighted else 1.0
        edges.append(Edge(tail, head, w))
    return Digraph(n, edges)


def random_single_parent_digraph(n: int, rng: np.random.Generator) -> Digraph:
    """Random out-tree on shuffled labels, its root fed by one more edge half the time.

    Every node has at most one incoming edge, so no two edges share a head
    and isolating every single failure is feasible.
    """
    label = rng.permutation(n) + 1
    edges = [Edge(int(label[rng.integers(0, i)]), int(label[i])) for i in range(1, n)]
    if n > 1 and rng.random() < 0.5:
        edges.append(Edge(int(label[rng.integers(1, n)]), int(label[0])))
    return Digraph(n, edges)


def random_out_tree_leaves_first(n: int, rng: np.random.Generator) -> tuple[Digraph, int]:
    """Random recursive out-tree on n >= 2 nodes with its L leaves numbered 1..L.

    Returns the graph and L.  A leaf's incoming edge is seen by that leaf
    alone, so the leaves are the smallest sensor set with f_D = 0, and a
    size-ordered search has to pass every smaller set to find it.
    """
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    inner = set(parents)
    leaves = [v for v in range(n) if v not in inner]
    order = leaves + sorted(inner)
    label = {v: k + 1 for k, v in enumerate(order)}
    edges = [Edge(label[parent], label[child]) for child, parent in enumerate(parents, start=1)]
    return Digraph(n, edges), len(leaves)


# -- subsystem draws -------------------------------------------------------------


def random_stable_model(rng: np.random.Generator, d_max: int = 3, io_max: int = 2) -> SubsystemModel:
    """Random strictly stable subsystem with d <= d_max, o,m <= io_max."""
    d = int(rng.integers(1, d_max + 1))
    o = int(rng.integers(1, io_max + 1))
    m = int(rng.integers(1, io_max + 1))
    A = rng.normal(0.0, 0.5, (d, d))
    A -= (max(np.linalg.eigvals(A).real.max(), 0.0) + 0.5) * np.eye(d)
    A /= max(1.0, np.linalg.norm(A, 2) / 0.9)
    B = rng.normal(0.0, 1.0, (d, m))
    C = rng.normal(0.0, 1.0, (o, d))
    Gamma = rng.normal(0.0, 1.0, (m, o))
    return SubsystemModel(A, B, C, Gamma)


def chain_model(d: int, rng: np.random.Generator) -> SubsystemModel:
    """Stable SISO integrator chain with relative degree exactly d."""
    A = np.diag(np.ones(d - 1), 1) - 0.4 * np.eye(d) if d > 1 else np.array([[-0.4]])
    B = np.zeros((d, 1))
    B[-1, 0] = float(rng.uniform(0.5, 1.5))
    C = np.zeros((1, d))
    C[0, 0] = float(rng.uniform(0.5, 1.5))
    Gamma = np.array([[float(rng.uniform(0.5, 1.5))]])
    return SubsystemModel(A, B, C, Gamma)


def damp_coupling(g: Digraph, model: SubsystemModel, target: float = 0.5) -> SubsystemModel:
    """Rescale Gamma so ||G (x) B Gamma C||_2 <= target for this graph.

    Keeps closed-loop powers well conditioned without touching the relative
    degree (Gamma scaling multiplies every Markov parameter uniformly).
    """
    strength = (np.linalg.norm(g.adjacency(), 2)
                * np.linalg.norm(model.B @ model.Gamma @ model.C, 2))
    if strength <= target:
        return model
    return SubsystemModel(model.A, model.B, model.C, model.Gamma * (target / strength))


# -- output noise and sensor faults ---------------------------------------------


def noisy_outputs(trace: SimulationTrace, sigma: float, seed: int) -> SimulationTrace:
    """The trace with seeded Gaussian noise of standard deviation sigma * max|y| on each output.

    Only ``outputs`` change, which is all the finite-difference detector reads.
    """
    noise = np.random.default_rng(seed).normal(0.0, sigma * np.abs(trace.outputs).max(),
                                               trace.outputs.shape)
    return dataclasses.replace(trace, outputs=trace.outputs + noise)


def sensor_drift(trace: SimulationTrace, p: int, t: float, q: int, s: float) -> SimulationTrace:
    """The trace with s * max|y| * (time - t)^q added to sensor p's outputs from time t on.

    A fault of sensor p, not of the network: a step for q = 0, a ramp for
    q = 1.  The drift is deterministic, so no seed is needed.  Only
    ``outputs`` change, which is all the finite-difference detector reads.
    """
    elapsed = trace.times - t
    drift = np.where(elapsed >= 0.0, s * np.abs(trace.outputs).max() * elapsed ** q, 0.0)
    o = trace.output_dim
    outputs = trace.outputs.copy()
    outputs[:, (p - 1) * o : p * o] += drift[:, None]
    return dataclasses.replace(trace, outputs=outputs)
