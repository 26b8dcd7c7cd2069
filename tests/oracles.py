"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's own code paths: distances
come from Floyd-Warshall instead of BFS, random geometric graphs from a
pair-by-pair loop instead of array operations, walk counts from explicit DFS
enumeration instead of matrix powers, frequency-domain quantities from
numeric large-s limits instead of Markov-parameter algebra, and sensor
placement from plain loops over the entries of R, and finite-difference
detection from shifted sums with stencil weights of its own.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

import numpy as np

from netfdi.fdi import THRESHOLD_ABS, THRESHOLD_REL


def floyd_warshall_hops(pattern: np.ndarray) -> np.ndarray:
    """All-pairs hop counts on the nonzero pattern; np.inf when unreachable.

    pattern[i, j] != 0 means an arc j -> i (same orientation as the library's
    adjacency convention).  Returned array is indexed [q, p] = dist(q+1, p+1).
    """
    n = pattern.shape[0]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and pattern[i, j]:
                d[j, i] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def random_geometric_edges(n: int, region_side: float, radius: float,
                           seed: int) -> list[tuple[int, int]]:
    """(tail, head) of each edge of the seeded random geometric digraph.

    The plain double loop over node pairs a < b: a scalar distance per pair
    and, for a pair within radius, one scalar coin draw (below 0.5 keeps
    the orientation a -> b).
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, region_side, size=(n, 2))
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if np.hypot(*(points[a - 1] - points[b - 1])) <= radius:
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return edges


def enumerate_walks(adj: np.ndarray, q: int, p: int, k: int) -> float:
    """Total weight of q -> p walks of length k, by explicit DFS enumeration.

    Nodes are 1-based.  A walk of length 0 exists only when q == p.
    """
    if k == 0:
        return 1.0 if q == p else 0.0
    n = adj.shape[0]
    total = 0.0

    def extend(node: int, remaining: int, weight: float):
        nonlocal total
        if remaining == 0:
            if node == p:
                total += weight
            return
        for nxt in range(1, n + 1):
            w = adj[nxt - 1, node - 1]
            if w != 0.0:
                extend(nxt, remaining - 1, weight * w)

    extend(q, k, 1.0)
    return total


def enumerated_walk_matrix(adj: np.ndarray, k: int) -> np.ndarray:
    """Matrix of enumerate_walks values, laid out like the adjacency power."""
    n = adj.shape[0]
    out = np.zeros((n, n))
    for q in range(1, n + 1):
        for p in range(1, n + 1):
            out[p - 1, q - 1] = enumerate_walks(adj, q, p, k)
    return out


def transfer_matrix(model, s: complex) -> np.ndarray:
    """H(s) = C (sI - A)^{-1} B evaluated numerically."""
    d = model.A.shape[0]
    return model.C @ np.linalg.solve(s * np.eye(d) - model.A, model.B)


def relative_degree_slope(model) -> int:
    """Relative degree read off the large-s decay rate of max|H(s)|."""
    s1, s2 = 1.0e6, 1.0e7
    h1 = np.abs(transfer_matrix(model, s1)).max()
    h2 = np.abs(transfer_matrix(model, s2)).max()
    slope = (np.log(h2) - np.log(h1)) / (np.log(s2) - np.log(s1))
    return int(round(-slope))


def markov_parameter_limit(model, k: int) -> np.ndarray:
    """k-th large-s series coefficient of H(s), read off numerically.

    Averages H(s) s^k over a circle |s| = rho enclosing the spectrum, which
    isolates the s^-k coefficient of the Laurent series; equivalent to the
    limit of s^k H(s) with all lower orders subtracted, but without the
    cancellation noise of explicit subtraction.
    """
    n_pts, rho = 64, 10.0
    acc = np.zeros((model.o, model.m), dtype=complex)
    for j in range(n_pts):
        s = rho * np.exp(2j * np.pi * j / n_pts)
        acc += transfer_matrix(model, s) * s**k
    return (acc / n_pts).real


def q_limit(model, dist: int, r: int) -> np.ndarray:
    """Numeric limit of s^{r(dist+1)} [H(s) Gamma]^{dist+1}.

    Evaluated at s in {1e3, 1e4, 1e5} and extrapolated to s -> infinity by
    quadratic Lagrange interpolation in x = 1/s (a Richardson check).
    """
    k = r * (dist + 1)

    def f(s):
        hg = transfer_matrix(model, s) @ model.Gamma
        return s**k * np.linalg.matrix_power(hg, dist + 1)

    svals = (1.0e3, 1.0e4, 1.0e5)
    xs = [1.0 / s for s in svals]
    total = np.zeros((model.o, model.o))
    for i, s_i in enumerate(svals):
        weight = 1.0
        for j in range(len(svals)):
            if j != i:
                weight *= (0.0 - xs[j]) / (xs[i] - xs[j])
        total = total + weight * f(s_i)
    return total


def reference_jump(g, model, edge: int, p: int, x_tf):
    """(observable, order, value) of the closed-form first jump, recomputed plainly.

    The formula of ``theoretical_jump`` with nothing memoised: Floyd-Warshall
    hops, a fresh walk power G^dist by repeated products, the relative
    degree from the first Markov parameter above 1e-12 and the tail term
    grown from C x_j by dist + 1 fresh products with M_r Gamma.  Every
    product is taken in the library's order, so the value must agree with
    it bit for bit.
    """
    e = g.edge(edge)
    adj = g.adjacency()
    hops = floyd_warshall_hops(adj)[e.head - 1, p - 1]
    if not np.isfinite(hops):
        return False, None, None
    dist = int(hops)
    r = next(k for k in range(1, model.A.shape[0] + 1)
             if np.abs(model.C @ np.linalg.matrix_power(model.A, k - 1) @ model.B).max() > 1e-12)
    mr_gamma = model.C @ np.linalg.matrix_power(model.A, r - 1) @ model.B @ model.Gamma
    walk = np.eye(g.n_nodes)
    for _ in range(dist):
        walk = walk @ adj
    d = model.A.shape[0]
    x_j = np.asarray(x_tf, dtype=float).reshape(-1)[(e.tail - 1) * d : e.tail * d]
    term = model.C @ x_j
    for _ in range(dist + 1):
        term = mr_gamma @ term
    value = -e.weight * walk[p - 1, e.head - 1] * term
    return True, r * (dist + 1), value


def reference_power(A: np.ndarray, x_tf, k: int) -> np.ndarray:
    """A^k x(t_f) by k plain products A @ v on a fresh copy of x, nothing memoised."""
    v = np.asarray(x_tf, dtype=float).reshape(-1).copy()
    for _ in range(k):
        v = A @ v
    return v


def reference_one_sided(sys_pre, sys_post, x_tf, p: int, k: int, side: str) -> np.ndarray:
    """(e_p (x) C) A_side^k x(t_f), the power taken by ``reference_power``."""
    A = sys_pre.closed_loop if side == "left" else sys_post.closed_loop
    d = sys_pre.model.d
    return sys_pre.model.C @ reference_power(A, x_tf, k)[(p - 1) * d : p * d]


def reference_oracle(sys_pre, sys_post, x_tf, p: int, k: int) -> np.ndarray:
    """(e_p (x) C)(A_post^k - A_pre^k) x(t_f) with nothing memoised.

    A fresh copy of x and k plain products A @ v on each side, then the
    difference of the whole vectors, read at node p.  Every product is the
    one ``jump_oracle`` makes, so the two must agree bit for bit.
    """
    diff = (reference_power(sys_post.closed_loop, x_tf, k)
            - reference_power(sys_pre.closed_loop, x_tf, k))
    d = sys_pre.model.d
    return sys_pre.model.C @ diff[(p - 1) * d : p * d]


def finite_difference_reference(trace, sensors, z: int) -> list[tuple[tuple[int, ...], float]]:
    """(orders, time) of each finite-difference detector event, by plain loops.

    The detector's rule restated sensor by sensor and order by order.  At
    scan sample n a left stencil over samples n-w+1..n and a right one over
    n..n+w-1 (w = z + 3) estimate y^(k); their weights solve the Taylor
    system sum_i c_i o_i^m / m! = [m == k] on the integer offsets o_i,
    built here from exact integer ratios.  Order k jumps at n when
    |right - left| exceeds THRESHOLD_ABS + THRESHOLD_REL * median|left| +
    64 eps max|y| sum|c_left|.  Flags at most w samples apart form one
    cluster covering every sample from its first to its last flag; the
    event sits at the cluster sample whose two windows have the smallest
    (w-1)-th differences, and a sensor's order is its first jumping k.
    """
    w = z + 3
    scan = np.arange(w - 1, len(trace.times) - w + 1)
    left_offsets, right_offsets = range(-(w - 1), 1), range(w)

    def weights(offsets, k):
        taylor = [[o**m / factorial(m) for o in offsets] for m in range(w)]
        return np.linalg.solve(np.array(taylor), np.eye(w)[k]) / trace.dt**k

    def stencil(y, c, start):
        """sum_i c_i y[start + i], for every start."""
        total = np.zeros((len(start), y.shape[1]))
        for i, c_i in enumerate(c):
            total += c_i * y[start + i]
        return total

    smooth = [(-1) ** i * comb(w - 1, i) for i in range(w)]
    jumps, thresholds = {}, {}
    roughness = np.zeros(len(scan))
    for s, p in enumerate(sensors):
        y = trace.output_of(p)
        amplitude = max(np.linalg.norm(row) for row in y)
        for k in range(1, z + 1):
            c_left = weights(left_offsets, k)
            left = stencil(y, c_left, scan - (w - 1))
            right = stencil(y, weights(right_offsets, k), scan)
            jumps[s, k] = np.linalg.norm(right - left, axis=1)
            thresholds[s, k] = (THRESHOLD_ABS
                                + THRESHOLD_REL * np.median(np.linalg.norm(left, axis=1))
                                + 64.0 * np.finfo(float).eps * amplitude * np.abs(c_left).sum())
        roughness += (np.linalg.norm(stencil(y, smooth, scan - (w - 1)), axis=1)
                      + np.linalg.norm(stencil(y, smooth, scan), axis=1))

    flagged = [n for n in range(len(scan))
               if any(jumps[key][n] > thresholds[key] for key in jumps)]
    clusters = []
    for n in flagged:
        if clusters and n - clusters[-1][-1] <= w:
            clusters[-1].append(n)
        else:
            clusters.append([n])
    events = []
    for cluster in clusters:
        best = min(range(cluster[0], cluster[-1] + 1), key=lambda n: roughness[n])
        orders = tuple(next((k for k in range(1, z + 1) if jumps[s, k][best] > thresholds[s, k]), 0)
                       for s in range(len(sensors)))
        if any(orders):
            events.append((orders, float(trace.times[scan[best]])))
    return events


# -- sensor placement: the plain loops, on R's entries alone ----------------------


def uncovered_edges(entries: np.ndarray, sensors) -> int:
    """f_D: rows of R that are 0 at every chosen sensor."""
    return sum(1 for row in entries if not any(row[p - 1] for p in sensors))


def unresolved_edges(entries: np.ndarray, sensors) -> int:
    """f_I: rows of R whose entries at the chosen sensors equal another row's."""
    keys = [tuple(int(row[p - 1]) for p in sensors) for row in entries]
    return sum(1 for key in keys if keys.count(key) > 1)


def greedy_reference(entries: np.ndarray, deficit, picks=()) -> tuple[int, ...] | None:
    """Add the lowest-deficit node (lowest id on ties) until the deficit is 0.

    Runs round after round over every remaining node and gives None when
    the full vertex set still leaves a nonzero deficit.
    """
    n = entries.shape[1]
    picks = list(picks)
    value = deficit(entries, picks)
    while value != 0 and len(picks) < n:
        best, best_value = None, None
        for q in range(1, n + 1):
            if q in picks:
                continue
            candidate = deficit(entries, picks + [q])
            if best_value is None or candidate < best_value:
                best, best_value = q, candidate
        picks.append(best)
        value = best_value
    return tuple(picks) if value == 0 else None


def exhaustive_reference(entries: np.ndarray, isolation: bool) -> tuple[int, ...] | None:
    """First set in (size, lexicographic) order with f_D = 0, and f_I = 0 if asked."""
    n = entries.shape[1]
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if uncovered_edges(entries, combo) != 0:
                continue
            if not isolation or unresolved_edges(entries, combo) == 0:
                return combo
    return None
