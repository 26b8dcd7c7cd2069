"""The four workloads: their inputs, the timed calls and the output checks.

Each workload writes its inputs under its own directory and exposes one
``cycle`` of calls.  ``run(spec)`` is the timed part and only calls the
program; ``collect`` reads what the call left on disk and ``check`` compares
it with ``truth``, both outside the timed region.

* ``sweep``       ``netfdi run --sweep-failures all-edges`` on rgg50 at
                  Gamma = 1 and Gamma = 0.05 (r = 2, z = 9, sensors 1..10,
                  analytic mode, horizon 2).  The seed draws x0.
* ``incident``    single-failure ``netfdi run`` on rgg50, scalar model,
                  z = 2, finite-difference mode; the seed draws the failed
                  edge, its time and x0.  Writes trace.csv and derivatives.csv.
* ``placement``   ``netfdi place`` on seeded RGGs past 50 nodes (f_I(V) != 0)
                  and ``--exact`` on seeded out-trees of at most 20 nodes.
* ``jump_theory`` the library on a seeded criterion-03-shaped corpus:
                  NetworkSystem per graph, remove_edge per edge,
                  theoretical_jump per (edge, sensor) and jump_oracle at the
                  predicted order.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import truth

SENSORS = list(range(1, 11))


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _cli(argv: list[str]) -> int:
    """``netfdi`` in-process; looked up at call time so tracing wrappers apply."""
    import netfdi.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return netfdi.cli.main(argv)


def _bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


class Tally:
    """Attempted / failed operations, outcome classes and check problems.

    A run repeats the same cycle of calls for as long as it measures, so
    each operation (a call of the cycle, and within it a scenario, incident,
    graph or check) is counted once, the first time it is checked; a repeat
    whose outcome differs is a check problem.  So attempted and failed
    depend on the seed only, not on how many cycles the time allowed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.classes = Counter()
        self.problems: list[str] = []
        self.call = None
        self._seen: dict = {}

    def outcome(self, name: str, failed: bool, key=None):
        seen = self._seen.get((self.call, key))
        if seen is not None:
            if seen != name:
                self.problem(f"call {self.call}, {key}: outcome {name} after {seen}")
            return
        self._seen[self.call, key] = name
        self.attempted += 1
        self.failed += failed
        self.classes[name] += 1

    def problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)
        self.classes["check-problem"] += 1


class _Detection:
    """Shared checks of the two ``netfdi run`` workloads."""

    def _graph(self):
        graph = inputs.random_geometric(**inputs.RGG50)
        self.n, self.edges = truth.load_graph(graph)
        self.hops = truth.hop_distances(self.n, self.edges)
        return _write(self.dir / "rgg50.json", graph)

    def _expected(self, r: int, z: int) -> np.ndarray:
        """|S| x |E| signature table from the benchmark's own BFS."""
        return truth.relation_rows(self.n, self.edges, r, z, self.hops)[:, [p - 1 for p in SENSORS]].T

    def _check_report(self, report: dict, code: int, scenarios, table, R, tally: Tally,
                      tag: str = ""):
        """``scenarios`` = [(failed edge, t_fail, events)] of one call; exit code 2
        is a verdict, any other nonzero code fails every scenario of the call."""
        if code not in (0, 2):
            for edge, _, _ in scenarios:
                tally.outcome(tag + "call-failed", True, edge)
            tally.problem(f"exit code {code}")
            return
        all_unique = True
        for edge, t_fail, events in scenarios:
            name = truth.classify(edge, events, table[:, edge - 1], t_fail, self.tolerance)
            tally.outcome(tag + name, name in truth.FAIL_CLASSES, edge)
            for text in truth.table_mismatches(events, table):
                tally.problem(f"edge {edge}: {text}")
            all_unique &= all(ev["verdict"] == "unique" for ev in events)
        if code != (0 if all_unique else 2):
            tally.problem(f"exit code {code} does not match the verdicts")
        if report["tables"]["R"] != R.tolist():
            tally.problem("reported R differs from the BFS relation matrix")


class Sweep(_Detection):
    aliases = {"units_per_s": "scenarios_per_s"}
    #: not scaled to nominal host speed (see ``calibrate``): two calls of
    #: about 15 s each (two vCPUs of an Intel Xeon) leave three short gaps
    #: in a run to sample the host speed in; each call keeps both cores busy
    #: long enough to average the drift itself
    parallel_share = None
    horizon = 2.0
    dt = 1e-3
    z = 9
    gammas = (1.0, 0.05)

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        graph = self._graph()
        x0 = np.random.default_rng(seed).normal(0.0, 1.0, self.n * 2)
        self.tolerance = self.dt / 2
        self.cycle = []
        models = []
        for gamma in self.gammas:
            tag = f"g{gamma:g}"
            model = _write(self.dir / f"model_{tag}.json", {**inputs.SWEEP_MODEL, "Gamma": [[gamma]]})
            models.append(model)
            out = self.dir / f"out_{tag}"
            config = _write(self.dir / f"sweep_{tag}.json", {
                "graph": graph, "model": model, "sensors": SENSORS, "z": self.z,
                "dt": self.dt, "horizon": self.horizon, "mode": "analytic",
                "x0": x0.tolist(), "out_dir": str(out), "sweep_failures": "all-edges"})
            self.cycle.append({"config": config, "out": out, "tag": f"gamma={gamma:g} "})
        self.r = truth.relative_degree(inputs.SWEEP_MODEL)
        self.R = truth.relation_rows(self.n, self.edges, self.r, self.z, self.hops)
        self.table = self._expected(self.r, self.z)
        warm_graph = _write(self.dir / "warm_graph.json", inputs.graph_doc(3, [(1, 2, 1.0), (2, 3, 1.0)]))
        self.warm = _write(self.dir / "warm.json", {
            "graph": warm_graph, "model": models[0],
            "sensors": [2, 3], "z": 4, "horizon": 0.1, "x0": [1, 2, 3, 4, 5, 6],
            "out_dir": str(self.dir / "warm_out"), "sweep_failures": "all-edges"})
        self.sizes = {"nodes": self.n, "edges": len(self.edges),
                      "samples_per_trace": int(round(self.horizon / self.dt)) + 1,
                      "scenarios_per_call": len(self.edges), "calls_per_cycle": len(self.cycle)}

    def warm_up(self):
        _cli(["run", "--config", self.warm])

    def units(self, spec) -> int:
        return len(self.edges)

    def run(self, spec):
        return _cli(["run", "--config", spec["config"]])

    def collect(self, spec, code):
        path = spec["out"] / "report.json"
        report = json.loads(path.read_text()) if code in (0, 2) else None
        return {"code": code, "report": report, "bytes": _bytes([path])}

    def check(self, spec, record, tally: Tally):
        report = record["report"]
        t_fail = self.horizon / 2
        if report is None:
            scenarios = [(label, t_fail, []) for label in range(1, len(self.edges) + 1)]
        else:
            scenarios = [(item["edge"], t_fail, item["events"]) for item in report["sweep"]]
            if [s[0] for s in scenarios] != list(range(1, len(self.edges) + 1)):
                tally.problem("sweep does not list every edge once, in label order")
        self._check_report(report, record["code"], scenarios, self.table, self.R, tally,
                           spec["tag"])


class Incident(_Detection):
    aliases = {"call_s": "incident_s"}
    #: BLAS runs the derivative products on both cores: on two vCPUs of an
    #: Intel Xeon, a call takes 0.99 s with one BLAS thread and 0.81 s with
    #: the default, so (0.99 - 0.81) / 0.81
    parallel_share = 0.2
    horizon = 5.0
    dt = 1e-3
    z = 2
    incidents = 3

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        graph = self._graph()
        model = _write(self.dir / "scalar.json", inputs.SCALAR_MODEL)
        self.R = truth.relation_rows(self.n, self.edges, 1, self.z, self.hops)
        self.table = self._expected(1, self.z)
        # failed edges are drawn among those the sensors can see, so that
        # every incident asks the detector for a verdict
        visible = np.nonzero(self.table.any(axis=0))[0] + 1
        rng = np.random.default_rng([seed, 2])
        self.out = self.dir / "out"
        self.tolerance = (self.z + 3) * self.dt   # one stencil width
        self.cycle = []
        for k in range(self.incidents):
            edge = int(rng.choice(visible))
            step = int(rng.integers(1000, 4001))
            x0 = rng.normal(0.0, 1.0, self.n)
            config = _write(self.dir / f"incident_{k}.json", {
                "graph": graph, "model": model, "sensors": SENSORS, "z": self.z,
                "dt": self.dt, "horizon": self.horizon, "mode": "finite-difference",
                "fail": [f"{edge}@{step * self.dt:.3f}"], "x0": x0.tolist(),
                "out_dir": str(self.out)})
            self.cycle.append({"config": config, "edge": edge, "t": step * self.dt, "x0": x0})
        warm_graph = _write(self.dir / "warm_graph.json", inputs.graph_doc(3, [(1, 2, 1.0), (2, 3, 1.0)]))
        self.warm = _write(self.dir / "warm.json", {
            "graph": warm_graph, "model": model, "sensors": [2, 3], "z": 2, "horizon": 0.2,
            "fail": ["1@0.1"], "mode": "finite-difference", "x0": [1, 2, 3],
            "out_dir": str(self.dir / "warm_out")})
        self.sizes = {"nodes": self.n, "edges": len(self.edges),
                      "samples_per_trace": int(round(self.horizon / self.dt)) + 1,
                      "incidents_per_cycle": self.incidents}

    def warm_up(self):
        _cli(["run", "--config", self.warm])

    def units(self, spec) -> int:
        return 1

    def run(self, spec):
        return _cli(["run", "--config", spec["config"]])

    def collect(self, spec, code):
        files = [self.out / name for name in ("report.json", "trace.csv", "derivatives.csv")]
        record = {"code": code, "bytes": _bytes(files), "report": None}
        if code in (0, 2):
            record["report"] = json.loads(files[0].read_text())
            for path in files[1:]:
                with open(path, "rb") as fh:
                    head = [fh.readline(), fh.readline()]
                    record[path.name] = (head, 2 + sum(chunk.count(b"\n")
                                                       for chunk in iter(lambda: fh.read(1 << 20), b"")))
        return record

    def check(self, spec, record, tally: Tally):
        report = record["report"]
        events = report["events"] if report else []
        self._check_report(report, record["code"], [(spec["edge"], spec["t"], events)],
                           self.table, self.R, tally)
        if report is None:
            return
        rows = self.sizes["samples_per_trace"] + 1
        (header, first), lines = record["trace.csv"]
        if lines != rows or not np.array_equal(
                np.array(first.split(b",")[1:self.n + 1], dtype=float), spec["x0"]):
            tally.problem("trace.csv: wrong row count or first state is not x0")
        (header, _), lines = record["derivatives.csv"]
        if lines != rows or header.count(b",") != len(SENSORS) * (self.z + 1):
            tally.problem("derivatives.csv: wrong shape")


class Placement:
    aliases = {"call_s": "place_s"}
    #: as fast with one BLAS thread: the call runs on one core
    parallel_share = 0.0
    #: (nodes, edges) of the geometric graphs, (nodes, leaves) of the trees;
    #: two geometric graphs per size, because the cost of ``place`` on one
    #: varies by about 10 % from seed to seed
    geometric = ((60, 240), (60, 240), (70, 280), (70, 280), (80, 320), (80, 320))
    trees = ((16, 8), (18, 9), (20, 10))

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        rng = np.random.default_rng([seed, 4])
        self.cycle = []
        for k, (n, m) in enumerate(self.geometric):
            self._add(f"rgg{n}-{k}", inputs.nearest_pairs(n, m, int(rng.integers(2**31))), exact=False)
        for n, leaves in self.trees:
            self._add(f"tree{n}", inputs.out_tree(n, leaves, rng), exact=True)
        self._references = {}
        self.warm = _write(self.dir / "warm.json", inputs.graph_doc(3, [(1, 3, 1.0), (2, 3, 1.0)]))
        self.sizes = {"graphs": [{"name": s["name"], "nodes": s["n"], "edges": len(s["edges"]),
                                  "exact": s["exact"]} for s in self.cycle]}

    def _add(self, name: str, doc: dict, exact: bool):
        n, edges = truth.load_graph(doc)
        self.cycle.append({"name": name, "graph": _write(self.dir / f"{name}.json", doc),
                           "out": self.dir / f"{name}.place.json", "exact": exact,
                           "n": n, "edges": edges})

    def warm_up(self):
        _cli(["place", self.warm, "--exact", "-o", str(self.dir / "warm.place.json")])

    def units(self, spec) -> int:
        return 1

    def run(self, spec):
        argv = ["place", spec["graph"], "-o", str(spec["out"])]
        return _cli(argv + ["--exact"] if spec["exact"] else argv)

    def collect(self, spec, code):
        report = json.loads(spec["out"].read_text()) if code == 0 else None
        return {"code": code, "report": report, "bytes": _bytes([spec["out"]])}

    def check(self, spec, record, tally: Tally):
        name = spec["name"]
        if record["report"] is None:
            tally.outcome("call-failed", True)
            tally.problem(f"{name}: exit code {record['code']}")
            return
        if name not in self._references:
            hops = truth.hop_distances(spec["n"], spec["edges"])
            R = truth.relation_rows(spec["n"], spec["edges"], 1, truth.default_budget(hops, 1), hops)
            self._references[name] = (R, truth.placement_reference(R, spec["exact"]))
        R, reference = self._references[name]
        problems = truth.placement_problems(record["report"], R, reference)
        kind = "isolable" if reference["M_I"] is not None else "not-isolable"
        tally.outcome(f"{kind}-wrong" if problems else kind, bool(problems))
        for text in problems:
            tally.problem(f"{name}: {text}")


class JumpTheory:
    """One call is a batch of 84 corpus graphs (see ``inputs.jump_corpus``)."""

    aliases = {"units_per_s": "jump_checks_per_s"}
    #: as fast with one BLAS thread: the call runs on one core
    parallel_share = 0.0
    graphs = 252
    batch = 84

    def __init__(self, directory: Path, seed: int):
        self.corpus = inputs.jump_corpus(seed, self.graphs)
        self.cycle = [range(i, i + self.batch) for i in range(0, self.graphs, self.batch)]
        self._checked = {}
        self.sizes = {"graphs": len(self.corpus),
                      "nodes": sum(item["n"] for item in self.corpus),
                      "edges": sum(len(item["edges"]) for item in self.corpus),
                      "checks_per_batch": self.units(self.cycle[0])}

    def warm_up(self):
        self.run(range(1))

    def units(self, spec) -> int:
        return sum(self.corpus[i]["n"] * len(self.corpus[i]["edges"]) for i in spec)

    def run(self, spec):
        from netfdi.dynamics import NetworkSystem, SubsystemModel, jump_oracle, theoretical_jump
        from netfdi.graph import Digraph, Edge
        out = []
        for index in spec:
            item = self.corpus[index]
            g = Digraph(item["n"], [Edge(t, h, w) for t, h, w in item["edges"]])
            m = item["model"]
            model = SubsystemModel(m["A"], m["B"], m["C"], m["Gamma"])
            x = item["x"]
            system = NetworkSystem(g, model)
            results = {}
            for label, _ in g.edges():
                post = system.remove_edge(label)
                per_sensor = results[label] = {}
                for p in range(1, item["n"] + 1):
                    pred = theoretical_jump(g, model, label, p, x)
                    oracle = jump_oracle(system, post, x, p, pred.order) if pred.observable else None
                    per_sensor[p] = (pred.observable, pred.order, pred.value, oracle)
            out.append(results)
        return out

    def collect(self, spec, results):
        return {"bytes": 0, "results": results}

    def check(self, spec, record, tally: Tally):
        for index, results in zip(spec, record["results"]):
            seen = self._checked.get(index)
            if seen is None or not _same(seen[0], results):
                item = self.corpus[index]
                seen = self._checked[index] = (results, truth.jump_problems(
                    item["n"], item["edges"], item["model"], item["x"], results, tally.classes))
            bad = {text.split(":")[0] for text in seen[1]}
            for label, per_sensor in results.items():
                for p in per_sensor:
                    failed = f"edge {label} sensor {p}" in bad
                    tally.outcome("check-wrong" if failed else "check-ok", failed,
                                  (index, label, p))
            for text in seen[1]:
                tally.problem(text)


def _same(a: dict, b: dict) -> bool:
    """Equal prediction results, arrays compared exactly."""
    def eq(u, v):
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            return u is not None and v is not None and np.array_equal(u, v)
        return u == v
    return a.keys() == b.keys() and all(
        a[e].keys() == b[e].keys() and all(all(eq(u, v) for u, v in zip(a[e][p], b[e][p]))
                                           for p in a[e]) for e in a)


WORKLOADS = {"sweep": Sweep, "incident": Incident, "placement": Placement,
             "jump_theory": JumpTheory}
