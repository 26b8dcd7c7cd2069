"""Seeded input generation: graphs, models and corpora as plain data.

Everything the program receives is built here from the workload seed, as
JSON-ready dicts (graphs ``{"n", "edges": [{"tail", "head", "w"}]}``,
models ``{"A", "B", "C", "Gamma"}``).  No netfdi code runs here, so a
change in the program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import numpy as np

#: rgg50, the graph of ``netfdi reproduce rgg``: the RGG_* constants of netfdi.cli.
RGG50 = {"n": 50, "side": 1.0, "radius": 0.25, "seed": 20240517}

#: r = 2 model of the weak-coupling study; Gamma is set per sweep call.
SWEEP_MODEL = {"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
SCALAR_MODEL = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}


def graph_doc(n: int, edges) -> dict:
    return {"n": n, "edges": [{"tail": t, "head": h, "w": w} for t, h, w in edges]}


def random_geometric(n: int, side: float, radius: float, seed: int) -> dict:
    """Nodes uniform on [0, side]^2; each pair within ``radius`` gets one edge
    whose direction is a fair coin flip (draw order as in ``netfdi gen rgg``)."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, side, size=(n, 2))
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if np.hypot(*(points[a - 1] - points[b - 1])) <= radius:
                edges.append((a, b, 1.0) if rng.random() < 0.5 else (b, a, 1.0))
    return graph_doc(n, edges)


def nearest_pairs(n: int, m: int, seed: int) -> dict:
    """Random geometric digraph with exactly m edges.

    Nodes are uniform on the unit square and the radius is the m-th
    smallest pair distance, so the m closest pairs get one edge each,
    directed by a fair coin flip.  Fixing m keeps the cost of placement on
    it nearly the same for every seed.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    a, b = np.triu_indices(n, 1)
    closest = np.sort(np.argsort(np.hypot(*(points[a] - points[b]).T), kind="stable")[:m])
    flips = rng.random(m) < 0.5
    return graph_doc(n, [(int(a[k]) + 1, int(b[k]) + 1, 1.0) if flip
                         else (int(b[k]) + 1, int(a[k]) + 1, 1.0)
                         for k, flip in zip(closest, flips)])


def out_tree(n: int, leaves: int, rng: np.random.Generator) -> dict:
    """Random recursive out-tree on n nodes with exactly ``leaves`` leaves.

    Every node but the root has in-degree 1.  The leaves are the smallest
    detection and isolation sets.  Fixing their number, and numbering them
    1..leaves, fixes how many sensor sets a size-ordered exhaustive search
    tries before it finds them.
    """
    while True:
        parents = [int(rng.integers(0, i)) for i in range(1, n)]
        inner = set(parents)
        if n - len(inner) == leaves:
            break
    leaf_ids = iter(rng.permutation(leaves) + 1)
    inner_ids = iter(rng.permutation(n - leaves) + leaves + 1)
    label = [int(next(inner_ids) if v in inner else next(leaf_ids)) for v in range(n)]
    return graph_doc(n, [(label[parent], label[child], float(rng.uniform(0.3, 1.0)))
                         for child, parent in enumerate(parents, start=1)])


def _weakly_connected(n: int, arcs) -> bool:
    neigh = [[] for _ in range(n + 1)]
    for i, j in arcs:
        neigh[i].append(j)
        neigh[j].append(i)
    seen, stack = {1}, [1]
    while stack:
        for v in neigh[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def random_connected_digraph(n: int, rng: np.random.Generator, density: float = 0.35):
    """Uniform digraph with round(density * n(n-1)) arcs and weights in [0.3, 1),
    redrawn until weakly connected."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    m = max(n - 1, round(density * len(pairs)))
    while True:
        arcs = [pairs[k] for k in sorted(rng.choice(len(pairs), m, replace=False))]
        if _weakly_connected(n, arcs):
            return [(i, j, float(rng.uniform(0.3, 1.0))) for i, j in arcs]


def random_stable_model(rng: np.random.Generator, d: int, o: int, m: int) -> dict:
    """Strictly stable subsystem with d states, o outputs and m inputs."""
    A = rng.normal(0.0, 0.5, (d, d))
    A -= (max(np.linalg.eigvals(A).real.max(), 0.0) + 0.5) * np.eye(d)
    A /= max(1.0, np.linalg.norm(A, 2) / 0.9)
    return {"A": A, "B": rng.normal(0.0, 1.0, (d, m)), "C": rng.normal(0.0, 1.0, (o, d)),
            "Gamma": rng.normal(0.0, 1.0, (m, o))}


def chain_model(d: int, rng: np.random.Generator) -> dict:
    """Stable SISO integrator chain whose relative degree is exactly d."""
    A = np.diag(np.ones(d - 1), 1) - 0.4 * np.eye(d)
    B = np.zeros((d, 1))
    B[-1, 0] = rng.uniform(0.5, 1.5)
    C = np.zeros((1, d))
    C[0, 0] = rng.uniform(0.5, 1.5)
    return {"A": A, "B": B, "C": C, "Gamma": np.array([[rng.uniform(0.5, 1.5)]])}


def damp_coupling(n: int, edges, model: dict, target: float = 0.5) -> dict:
    """Scale Gamma so that ||G (x) B Gamma C||_2 <= target.

    Keeps powers of the closed loop well conditioned, which the 1e-9 zero
    checks of the jump-theory criterion need; the relative degree is kept.
    """
    G = np.zeros((n, n))
    for tail, head, w in edges:
        G[head - 1, tail - 1] = w
    strength = np.linalg.norm(G, 2) * np.linalg.norm(model["B"] @ model["Gamma"] @ model["C"], 2)
    if strength <= target:
        return model
    return {**model, "Gamma": model["Gamma"] * (target / strength)}


def jump_corpus(seed: int, size: int) -> list[dict]:
    """Criterion-03-shaped corpus: connected digraphs on 2..8 nodes, a stable
    model each (every 21st an integrator chain of relative degree 2 or 3)
    and a state x(t_f).

    Node count n, state size d <= 3 and input/output counts m, o <= 2 run
    through all 84 combinations in every 84 consecutive graphs, and the arc
    count is fixed per n, so each seed asks for the same work.
    """
    rng = np.random.default_rng([seed, 3])
    corpus = []
    for gi in range(size):
        n = 2 + gi % 7
        edges = random_connected_digraph(n, rng)
        model = (chain_model(int(rng.integers(2, 4)), rng) if gi % 21 == 0 else
                 random_stable_model(rng, d=1 + gi % 3, o=1 + gi // 21 % 2, m=1 + gi // 42 % 2))
        model = damp_coupling(n, edges, model)
        x = rng.normal(0.0, 1.0, n * model["A"].shape[0])
        corpus.append({"n": n, "edges": edges, "model": model, "x": x})
    return corpus
