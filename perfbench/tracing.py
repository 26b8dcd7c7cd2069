"""Spans around netfdi's public functions, installed from outside the package.

``Tracer.install`` replaces module attributes (and ``NetworkSystem.remove_edge``)
in every loaded ``netfdi`` module with wrappers, so calls made through the
package's own imports are seen too; ``uninstall`` puts the originals back.
``src/`` is not touched.

A span records name, start, end, parent, thread and scenario (the failed
edge label read from the call's arguments, else the last one seen on that
thread).  Spans are appended under a lock because the sweep's pool threads
call in concurrently.  Self time is computed per thread: at each instant the
innermost open span of every thread owns that instant, and when several
threads each have one they share it equally.  A span whose work is running
in another thread (``cli.main`` waiting for its pool) owns nothing then.
So the self times of all spans add up to the time covered by spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

#: metric prefix -> (module, attribute, whether ``.calls`` is reported);
#: "Class.method" patches the class.
SPANS = {
    "graph.distances": ("netfdi.graph", "distances", True),
    "graph.walk_matrix": ("netfdi.graph", "walk_matrix", True),
    "dynamics.closed_loop": ("netfdi.dynamics", "closed_loop", True),
    "dynamics.remove_edge": ("netfdi.dynamics", "NetworkSystem.remove_edge", True),
    "dynamics.simulate": ("netfdi.dynamics", "simulate", True),
    "dynamics.theoretical_jump": ("netfdi.dynamics", "theoretical_jump", True),
    "dynamics.jump_oracle": ("netfdi.dynamics", "jump_oracle", True),
    "fdi.relation_matrix": ("netfdi.fdi", "relation_matrix", True),
    "fdi.lookup_table": ("netfdi.fdi", "lookup_table", True),
    "fdi.detect": ("netfdi.fdi", "detect", True),
    "fdi.isolate": ("netfdi.fdi", "isolate", True),
    "placement.greedy_detection": ("netfdi.placement", "greedy_detection", False),
    "placement.greedy_isolation": ("netfdi.placement", "greedy_isolation", False),
    "placement.brute_force_min_detection": ("netfdi.placement", "brute_force_min_detection", False),
    "placement.brute_force_min_isolation": ("netfdi.placement", "brute_force_min_isolation", False),
    "placement.approximation_report": ("netfdi.placement", "approximation_report", False),
    "cli.main": ("netfdi.cli", "main", False),
}
#: counted, not spanned: a span here would take the caller's self time away.
COUNTED = {
    "placement.coverage_deficit": ("netfdi.placement", "coverage_deficit"),
    "placement.resolution_deficit": ("netfdi.placement", "resolution_deficit"),
}
#: the benchmark's own span around each timed call (glue no layer covers)
ROOT = "bench"


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _scenario(name: str, args, kwargs):
    """Failed edge label from the arguments, when the call names one."""
    if name == "dynamics.theoretical_jump":
        return _arg(args, kwargs, 2, "edge")
    if name == "dynamics.remove_edge":
        return _arg(args, kwargs, 1, "label")
    if name == "dynamics.simulate":
        schedule = _arg(args, kwargs, 5, "schedule")
        return schedule[0].edge if schedule else None
    if name == "fdi.detect":
        trace = _arg(args, kwargs, 0, "trace")
        schedule = getattr(trace, "schedule", ())
        return schedule[0].edge if schedule else None
    return None


def _graph_key(g) -> tuple:
    return (g.n_nodes, tuple((label, e.tail, e.head, e.weight) for label, e in g.edges()))


class Span:
    __slots__ = ("id", "name", "parent", "thread", "scenario", "start", "end", "info")

    def __init__(self, sid, name, parent, thread, scenario):
        self.id, self.name, self.parent = sid, name, parent
        self.thread, self.scenario = thread, scenario
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Holds the spans and counters of one traced iteration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, scenario) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if scenario is None:
            scenario = getattr(self._local, "scenario", None)
        else:
            self._local.scenario = scenario
        span = Span(next(self._ids), name, parent.id if parent else None,
                    threading.get_ident(), scenario)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def root(self):
        """The benchmark's span around one timed call."""
        span = self._open(ROOT, None)
        try:
            yield
        finally:
            self._close(span)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, info = name, None
            if name == "fdi.detect":
                cfg = _arg(args, kwargs, 2, "cfg")
                mode = getattr(cfg, "mode", "")
                label = "fdi.detect.fd" if mode == "finite-difference" else "fdi.detect.analytic"
            elif name == "fdi.lookup_table":     # the input, for distinct_ratio
                info = (_graph_key(args[0]), tuple(_arg(args, kwargs, 1, "sensors")),
                        _arg(args, kwargs, 2, "r"), _arg(args, kwargs, 3, "z"))
            elif name == "placement.greedy_isolation":   # (set size, f_I) per evaluation
                info = []
            span = tracer._open(label, _scenario(name, args, kwargs))
            span.info = info
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "dynamics.simulate":
                span.info = len(result.times)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with tracer._lock:
                tracer.counts[name] += 1
            stack = tracer._stack()
            if name == "placement.resolution_deficit" and stack \
                    and stack[-1].name == "placement.greedy_isolation":
                stack[-1].info.append((len(_arg(args, kwargs, 1, "sensors")), result))
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "netfdi" or name.startswith("netfdi.")) and m is not None]
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, (mod_name, attr, *_) in table.items():
                mod = sys.modules.get(mod_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = getattr(owner, method or attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = make(name, original)
                if owner_name:
                    self._patched.append((owner, method, original))
                    setattr(owner, method, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, key, original))
                            setattr(m, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, name in ((".calls", "count"), ("self_s", "s"), ("samples_per_s", "1/s"),
                         ("_bytes", "B"), ("mb_per_s", "MB/s")):
        if metric.endswith(suffix):
            return name
    return "ratio"


# -- analysis ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, shared across threads as described above."""
    by_id = {s.id: s for s in spans}
    events = sorted(
        [(s.start, 1, s.id) for s in spans] + [(s.end, 0, -s.id) for s in spans])
    stacks: dict[int, list[Span]] = defaultdict(list)
    own = defaultdict(float)
    owners: list[Span] = []
    prev = None
    for t, kind, sid in events:
        if prev is not None and owners and t > prev:
            share = (t - prev) / len(owners)
            for s in owners:
                own[s.id] += share
        prev = t
        span = by_id[abs(sid)]
        stack = stacks[span.thread]
        if kind:
            stack.append(span)
        else:
            stack.remove(span)
        tops = [st[-1] for st in stacks.values() if st]
        if len(tops) > 1:
            waiting = set()
            for top in tops:
                pid = top.parent
                while pid is not None and pid in by_id:
                    waiting.add(pid)
                    pid = by_id[pid].parent
            tops = [top for top in tops if top.id not in waiting]
        owners = tops
    return own


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict[str, float]:
    """Per-layer calls, self times and ratios of one traced iteration."""
    own = self_times(tracer.spans)
    self_s = defaultdict(float)
    calls = Counter()
    for s in tracer.spans:
        self_s[s.name] += own.get(s.id, 0.0)
        calls[s.name] += 1
    out = {}
    for name, (_, _, with_calls) in SPANS.items():
        if name == "fdi.detect":
            out["fdi.detect.calls"] = calls["fdi.detect.analytic"] + calls["fdi.detect.fd"]
            out["fdi.detect.analytic_self_s"] = self_s["fdi.detect.analytic"]
            out["fdi.detect.fd_self_s"] = self_s["fdi.detect.fd"]
            continue
        if with_calls:
            out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTED:
        out[f"{name}.calls"] = tracer.counts[name]
    out[f"{ROOT}.self_s"] = self_s[ROOT]

    samples = sum(s.info for s in tracer.spans if s.name == "dynamics.simulate")
    sim_s = self_s["dynamics.simulate"]
    out["dynamics.simulate.samples_per_s"] = samples / sim_s if sim_s else 0.0
    keys = [s.info for s in tracer.spans if s.name == "fdi.lookup_table"]
    out["fdi.lookup_table.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    rounds = useful = 0
    for s in tracer.spans:
        if s.name == "placement.greedy_isolation" and s.info:
            best = defaultdict(lambda: float("inf"))
            for size, value in s.info:
                best[size] = min(best[size], value)
            sizes = sorted(best)
            for before, after in zip(sizes, sizes[1:]):
                rounds += 1
                useful += best[after] < best[before]
    out["placement.greedy_isolation.useful_round_ratio"] = useful / rounds if rounds else 1.0
    out["cli.artifact_bytes"] = artifact_bytes
    cli_s = self_s["cli.main"]
    out["cli.write_mb_per_s"] = artifact_bytes / 1e6 / cli_s if cli_s else 0.0
    out["trace.self_s_total"] = sum(own.values())
    return out
