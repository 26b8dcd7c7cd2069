"""Ground truth computed from the input files alone.

Nothing here calls netfdi: hop distances, relative degree, the expected
failure signatures, sensor-placement references and the jump values are
all recomputed from the graph and model data the benchmark wrote, so a
wrong table or a wrong placement in the program cannot also make its own
check pass.

A graph is ``(n, edges)`` with ``edges`` a list of ``(tail, head, weight)``
in label order (label = position + 1), the same convention as the graph
JSON files.  A model is a dict with the arrays ``A``, ``B``, ``C`` and
``Gamma``.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np

#: Scenario outcomes that count as passing / failing.
PASS_CLASSES = ("unique-correct", "ambiguous-with-truth", "undetectable-silent")
FAIL_CLASSES = ("unique-wrong", "ambiguous-without-truth", "nomatch", "missed", "spurious")

#: Tolerances of the jump-theory acceptance criterion (criterion 03).
ZERO_RESID = 1e-9
VALUE_REL = 1e-6
DEGENERATE = 1e-4
ORACLE_TOL = 1e-12


def load_graph(data: dict) -> tuple[int, list[tuple[int, int, float]]]:
    """``(n, edges)`` from a graph JSON document."""
    return int(data["n"]), [(int(e["tail"]), int(e["head"]), float(e.get("w", 1.0)))
                            for e in data["edges"]]


def hop_distances(n: int, edges) -> np.ndarray:
    """hops[q-1, p-1] = length of the shortest directed q -> p path, -1 if none."""
    succ = [[] for _ in range(n + 1)]
    for tail, head, _ in edges:
        succ[tail].append(head)
    hops = np.full((n, n), -1, dtype=np.int64)
    for q in range(1, n + 1):
        hops[q - 1, q - 1] = 0
        frontier = deque([q])
        while frontier:
            u = frontier.popleft()
            for v in succ[u]:
                if hops[q - 1, v - 1] < 0:
                    hops[q - 1, v - 1] = hops[q - 1, u - 1] + 1
                    frontier.append(v)
    return hops


def relative_degree(model: dict) -> int:
    """Least k with C A^(k-1) B nonzero (entry above 1e-12)."""
    A, B, C = (np.atleast_2d(np.asarray(model[k], dtype=float)) for k in "ABC")
    power = np.eye(A.shape[0])
    for k in range(1, A.shape[0] + 1):
        if np.abs(C @ power @ B).max() > 1e-12:
            return k
        power = power @ A
    raise ValueError("model has no relative degree")


def default_budget(hops: np.ndarray, r: int) -> int:
    """r * (largest finite hop count + 1), the budget of ``z auto``."""
    return r * (int(hops.max(initial=0)) + 1)


def relation_rows(n: int, edges, r: int, z: int, hops: np.ndarray | None = None) -> np.ndarray:
    """|E| x n first-jump orders: r*(dist(head, p)+1) when finite and <= z, else 0."""
    if hops is None:
        hops = hop_distances(n, edges)
    heads = np.array([head for _, head, _ in edges], dtype=np.int64) - 1
    rows = hops[heads] if len(edges) else np.zeros((0, n), dtype=np.int64)
    orders = r * (rows + 1)
    return np.where((rows >= 0) & (orders <= z), orders, 0)


# -- detection scenarios -------------------------------------------------------


def own_isolation(signature, table: np.ndarray) -> tuple[str, tuple[int, ...]]:
    """Match a signature against the columns of a |S| x |E| table (labels 1..|E|)."""
    sig = np.asarray(signature, dtype=np.int64)
    hits = tuple(int(i) + 1 for i in np.nonzero((table == sig[:, None]).all(axis=0))[0])
    if len(hits) == 1:
        return "unique", hits
    return ("ambiguous", hits) if hits else ("nomatch", ())


def classify(truth: int, events, expected, t_fail: float, tol: float) -> str:
    """Outcome of one single-failure scenario against its known failed edge.

    ``events`` are the report's event dicts, ``expected`` the independent
    signature of the truth edge.  An event farther than ``tol`` from the
    failure time, or a second event at it, is spurious.
    """
    near = [ev for ev in events if abs(ev["t"] - t_fail) <= tol]
    if len(near) != len(events) or len(near) > 1:
        return "spurious"
    silent = not np.any(expected)
    if not near:
        return "undetectable-silent" if silent else "missed"
    if silent:
        return "spurious"
    verdict, edges = near[0]["verdict"], near[0]["edges"]
    if verdict == "unique":
        return "unique-correct" if edges == [truth] else "unique-wrong"
    if verdict == "ambiguous":
        return "ambiguous-with-truth" if truth in edges else "ambiguous-without-truth"
    return "nomatch"


def table_mismatches(events, table: np.ndarray) -> list[str]:
    """Events whose reported verdict differs from matching against ``table``."""
    out = []
    for ev in events:
        verdict, edges = own_isolation(ev["signature"], table)
        if (verdict, list(edges)) != (ev["verdict"], ev["edges"]):
            out.append(f"t={ev['t']}: reported {ev['verdict']} {ev['edges']}, "
                       f"table gives {verdict} {list(edges)}")
    return out


# -- sensor placement -----------------------------------------------------------


def coverage_deficit(R: np.ndarray, sensors) -> int:
    cols = [p - 1 for p in sensors]
    return int((R[:, cols] == 0).all(axis=1).sum()) if cols else R.shape[0]


def resolution_deficit(R: np.ndarray, sensors) -> int:
    if R.shape[0] <= 1:
        return 0
    if not sensors:
        return R.shape[0]
    sub = R[:, [p - 1 for p in sensors]]
    _, inverse, counts = np.unique(sub, axis=0, return_inverse=True, return_counts=True)
    return int((counts[inverse.reshape(-1)] > 1).sum())


def _greedy(R: np.ndarray, picks: list[int], deficit) -> list[int] | None:
    """Add the node with the lowest deficit (ties to the lowest id) until 0."""
    n = R.shape[1]
    value = deficit(R, picks)
    while value != 0 and len(picks) < n:
        best, best_val = None, None
        for q in range(1, n + 1):
            if q not in picks:
                val = deficit(R, picks + [q])
                if best_val is None or val < best_val:
                    best, best_val = q, val
        picks = picks + [best]
        value = best_val
    return picks if value == 0 else None


def _min_set_size(masks: list[int], full: int) -> int | None:
    """Fewest masks whose union is ``full``, by size-ordered pruned search."""
    n = len(masks)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    if suffix[0] != full:
        return None

    def reach(start: int, k: int, acc: int) -> bool:
        if acc == full:
            return True
        for i in range(start, n - k + 1):
            if (acc | suffix[i]) != full:
                return False
            if k > 1 and reach(i + 1, k - 1, acc | masks[i]):
                return True
            if k == 1 and (acc | masks[i]) == full:
                return True
        return False

    return next(k for k in range(n + 1) if reach(0, k, 0))


def exact_optima(R: np.ndarray) -> tuple[int, int | None]:
    """Sizes of the smallest detection set and the smallest detecting isolation set.

    One bit per edge marks coverage; for isolation, one more bit per edge
    pair marks the nodes that see the two edges at different orders.
    """
    n_edges, n = R.shape
    if n_edges == 0:
        return 0, 0
    pairs = [(a, b) for a in range(n_edges) for b in range(a + 1, n_edges)]
    cover, both = [], []
    for p in range(n):
        col = R[:, p]
        c = sum(1 << row for row in range(n_edges) if col[row])
        s = sum(1 << i for i, (a, b) in enumerate(pairs) if col[a] != col[b])
        cover.append(c)
        both.append(c | (s << n_edges))
    full_cover = (1 << n_edges) - 1
    opt_d = _min_set_size(cover, full_cover)
    opt_i = _min_set_size(both, full_cover | (((1 << len(pairs)) - 1) << n_edges))
    return opt_d, opt_i


def harmonic(d: int) -> float:
    return float(sum(Fraction(1, i) for i in range(1, d + 1)))


def placement_reference(R: np.ndarray, exact: bool) -> dict:
    """The report ``netfdi place`` must print for relation matrix ``R``.

    Greedy picks break ties toward the lowest node id, so M_D, M_I and the
    deficit traces are fixed by R; they are the ones the package printed
    when this benchmark was written.
    """
    n_edges, n = R.shape
    every = list(range(1, n + 1))
    m_d = _greedy(R, [], coverage_deficit)
    f_i_of_v = resolution_deficit(R, every)
    m_i = None if f_i_of_v else _greedy(R, list(m_d), resolution_deficit)
    if m_i is not None:
        f_i_trace = [resolution_deficit(R, m_i[:i]) for i in range(len(m_d), len(m_i) + 1)]
    else:
        f_i_trace = [resolution_deficit(R, m_d)]
    d_max = int((R != 0).sum(axis=0).max()) if n_edges else 0
    opt_d = opt_i = None
    if exact:
        opt_d, opt_i = exact_optima(R)
    return {
        "M_D": m_d,
        "M_I": m_i,
        "f_I_of_V": f_i_of_v,
        "opt_D": opt_d,
        "opt_I": opt_i,
        "ratio_bound": math.log(n_edges) + 1.0 if n_edges else 1.0,
        "d_max": d_max,
        "harmonic_bound": harmonic(d_max) if d_max else 0.0,
        "f_D_trace": [coverage_deficit(R, m_d[:i]) for i in range(len(m_d) + 1)],
        "f_I_trace": f_i_trace,
    }


def placement_problems(report: dict, R: np.ndarray, reference: dict) -> list[str]:
    """Differences between a ``place`` report and the independent reference."""
    problems = []
    if coverage_deficit(R, report["M_D"]) != 0:
        problems.append("f_D(M_D) != 0")
    if (report["M_I"] is None) != (reference["f_I_of_V"] != 0):
        problems.append("M_I is None does not match f_I(V) != 0")
    if report["M_I"] is not None and resolution_deficit(R, report["M_I"]) != 0:
        problems.append("f_I(M_I) != 0")
    for key, want in reference.items():
        got = report.get(key)
        if isinstance(want, float):
            same = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-12)
        else:
            same = got == want
        if not same:
            problems.append(f"{key}: reported {got!r}, expected {want!r}")
    return problems


# -- jump theory ------------------------------------------------------------------


def closed_loop(n: int, edges, model: dict) -> np.ndarray:
    A, B, C, Gamma = (np.atleast_2d(np.asarray(model[k], dtype=float))
                      for k in ("A", "B", "C", "Gamma"))
    G = np.zeros((n, n))
    for tail, head, w in edges:
        G[head - 1, tail - 1] = w
    return np.kron(np.eye(n), A) + np.kron(G, B @ Gamma @ C)


def edge_jumps(n: int, edges, model: dict, a_pre: np.ndarray, label: int,
               x: np.ndarray, k_max: int) -> np.ndarray:
    """(C-stacked) jumps (A_post^k - A_pre^k) x for k = 1..k_max, shaped (k_max, n, o)."""
    B, C, Gamma = (np.atleast_2d(np.asarray(model[k], dtype=float)) for k in ("B", "C", "Gamma"))
    tail, head, w = edges[label - 1]
    sel = np.zeros((n, n))
    sel[head - 1, tail - 1] = 1.0
    a_post = a_pre - w * np.kron(sel, B @ Gamma @ C)
    c_stack = np.kron(np.eye(n), C)
    v_pre, v_post = x.copy(), x.copy()
    out = np.empty((k_max, n, C.shape[0]))
    for k in range(k_max):
        v_pre = a_pre @ v_pre
        v_post = a_post @ v_post
        out[k] = (c_stack @ (v_post - v_pre)).reshape(n, -1)
    return out


def jump_problems(n: int, edges, model: dict, x: np.ndarray, results: dict,
                  tally: Counter) -> list[str]:
    """Check one graph's predictions and oracle values; one entry per failed check.

    ``results[label][p]`` is ``(observable, order, value, oracle)`` as the
    program returned them (``oracle`` is None for an unobservable prediction).
    """
    r = relative_degree(model)
    hops = hop_distances(n, edges)
    a_pre = closed_loop(n, edges, model)
    xn = float(np.linalg.norm(x))
    problems = []
    for label, per_sensor in results.items():
        head = edges[label - 1][1]
        expected = {p: (r * (int(hops[head - 1, p - 1]) + 1) if hops[head - 1, p - 1] >= 0
                        else None) for p in range(1, n + 1)}
        k_cap = max([k for k in expected.values() if k is not None] + [3])
        jumps = edge_jumps(n, edges, model, a_pre, label, x, k_cap)
        norms = np.linalg.norm(jumps, axis=2)
        for p, (observable, order, value, oracle) in per_sensor.items():
            want = expected[p]
            where = f"edge {label} sensor {p}"
            if observable != (want is not None) or (observable and order != want):
                problems.append(f"{where}: order {order}, expected {want}")
                continue
            below = k_cap if want is None else want - 1
            if below and norms[:below, p - 1].max() > ZERO_RESID * xn:
                problems.append(f"{where}: jump below order {want} is not zero")
                continue
            if want is None:
                continue
            truth = jumps[want - 1, p - 1]
            if not np.allclose(oracle, truth, rtol=ORACLE_TOL, atol=ORACLE_TOL):
                problems.append(f"{where}: jump_oracle differs from own jump")
                continue
            size = float(np.linalg.norm(truth))
            if size <= DEGENERATE * xn:
                tally["degenerate"] += 1
            elif np.linalg.norm(np.asarray(value) - truth) > VALUE_REL * size:
                problems.append(f"{where}: predicted value off")
    return problems
