"""Tests of the benchmark's own parts: classifier, references, tracing, inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402


def _fixture_table(fx):
    n = fx["graph"]["n"]
    edges = [(t, h, 1.0) for t, h in fx["graph"]["edges"]]
    R = truth.relation_rows(n, edges, fx["r"], fx["z"])
    return R[:, [p - 1 for p in fx["sensors"]]].T


def test_classifier_reproduces_weak_coupling_row():
    """Gamma = 0.05 on the first 60 rgg50 edges: 56 nomatch, 1 unique-wrong, 3 missed."""
    fx = json.loads((HERE / "fixtures" / "sweep_gamma005_first60.json").read_text())
    table = _fixture_table(fx)
    classes = Counter(
        truth.classify(item["edge"], item["events"], table[:, item["edge"] - 1],
                       fx["t_fail"], 5e-4)
        for item in fx["sweep"])
    assert classes == {"nomatch": 56, "unique-wrong": 1, "missed": 3}
    assert all(not truth.table_mismatches(item["events"], table) for item in fx["sweep"])


def _event(verdict, edges, t=1.0, signature=(1,)):
    return {"t": t, "signature": list(signature), "verdict": verdict, "edges": list(edges)}


@pytest.mark.parametrize("events, expected, name", [
    ([_event("unique", [3])], [1], "unique-correct"),
    ([_event("unique", [4])], [1], "unique-wrong"),
    ([_event("ambiguous", [2, 3])], [1], "ambiguous-with-truth"),
    ([_event("ambiguous", [2, 4])], [1], "ambiguous-without-truth"),
    ([_event("nomatch", [])], [1], "nomatch"),
    ([], [1], "missed"),
    ([], [0], "undetectable-silent"),
    ([_event("unique", [3])], [0], "spurious"),
    ([_event("unique", [3]), _event("nomatch", [], t=4.0)], [1], "spurious"),
])
def test_classify_outcomes(events, expected, name):
    assert truth.classify(3, events, np.array(expected), 1.0, 1e-3) == name
    assert name in truth.PASS_CLASSES + truth.FAIL_CLASSES


def test_own_tables_and_placement_match_package():
    """The independent references agree with netfdi at the commit they were written for."""
    from netfdi import approximation_report, gen_random_geometric, relation_matrix
    from netfdi.graph import Digraph

    doc = inputs.random_geometric(**inputs.RGG50)
    g = gen_random_geometric(50, 1.0, 0.25, inputs.RGG50["seed"])
    assert g.to_dict() == doc
    n, edges = truth.load_graph(doc)
    assert np.array_equal(truth.relation_rows(n, edges, 2, 9), relation_matrix(g, 2, 9).entries)

    rng = np.random.default_rng(7)
    for doc, exact in ((inputs.out_tree(12, 6, rng), True),
                       (inputs.random_geometric(30, 1.0, 0.3, 11), False)):
        n, edges = truth.load_graph(doc)
        hops = truth.hop_distances(n, edges)
        R = truth.relation_rows(n, edges, 1, truth.default_budget(hops, 1), hops)
        report = approximation_report(relation_matrix(Digraph.from_dict(doc), 1),
                                      exact=exact).to_dict()
        assert truth.placement_problems(report, R, truth.placement_reference(R, exact)) == []


def test_jump_check_accepts_package_and_rejects_a_wrong_value():
    corpus = inputs.jump_corpus(seed=5, size=6)
    jump = workloads.JumpTheory.__new__(workloads.JumpTheory)
    jump.corpus = corpus
    for item, results in zip(corpus, jump.run(range(len(corpus)))):
        assert truth.jump_problems(item["n"], item["edges"], item["model"], item["x"],
                                   results, Counter()) == []
    label, p = max(((label, p) for label, per_sensor in results.items()
                    for p, r in per_sensor.items() if r[0]),
                   key=lambda lp: np.linalg.norm(results[lp[0]][lp[1]][2]))
    observable, order, value, oracle = results[label][p]
    results[label][p] = (observable, order, value * 1.5, oracle)
    assert truth.jump_problems(item["n"], item["edges"], item["model"], item["x"],
                               results, Counter())


def test_tally_counts_each_operation_once_per_run():
    tally = workloads.Tally()
    for _ in range(3):                       # the same cycle, three times
        for call in (0, 1):
            tally.call = call
            tally.outcome("nomatch", True, 5)
            tally.outcome("unique-correct", False, 6)
    assert (tally.attempted, tally.failed, tally.problems) == (4, 2, [])
    tally.call = 0
    tally.outcome("missed", True, 5)         # a repeat that disagrees
    assert (tally.attempted, tally.failed) == (4, 2) and len(tally.problems) == 1


def test_reference_scales_each_interval_by_its_neighbouring_gaps():
    reference = calibrate.Reference()
    nominal = (calibrate.SERIAL_NOMINAL_S, calibrate.PARALLEL_NOMINAL_S)
    reference.gaps = [(nominal[0] * 1.5, nominal[1] * 2.0), (nominal[0] * 1.5, nominal[1]),
                      (nominal[0], nominal[1])]
    assert reference.slowdowns(0.2) == pytest.approx([0.8 * 1.5 + 0.2 * 2.0, 1.4, 1.0])
    assert reference.scale([3.0, 1.2], 0.0) == pytest.approx([2.0, 1.2 / 1.25])
    with pytest.raises(ValueError):
        reference.scale([1.0], 0.0)
    reference.sample(0.05)
    assert len(reference.serial) == len(reference.parallel) >= 2
    assert reference.gaps[-1] == pytest.approx((np.mean(reference.serial),
                                                np.mean(reference.parallel)))


def _span(sid, name, parent, thread, start, end):
    span = tracing.Span(sid, name, parent, thread, None)
    span.start, span.end = start, end
    return span


def test_self_times_share_concurrent_threads():
    spans = [_span(1, "cli.main", None, "main", 0.0, 10.0),
             _span(2, "fdi.detect", 1, "a", 1.0, 5.0),
             _span(3, "fdi.detect", 1, "b", 2.0, 6.0),
             _span(4, "graph.distances", 3, "b", 3.0, 4.0)]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(5.0)        # waiting while the pool runs
    assert own[2] == pytest.approx(1.0 + 1.5)  # alone 1..2, shared 2..5
    assert own[3] == pytest.approx(1.0 + 1.0)  # shared 2..3 and 4..5, alone 5..6
    assert own[4] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted = list(tracing.layer_metrics(tracing.Tracer(), 0))
    emitted.remove("trace.self_s_total")
    emitted += ["trace_overhead_share", "trace_accounted_share"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _digest(directory: Path, workload) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.json")):
        h.update(path.read_bytes().replace(str(directory).encode(), b""))
    if isinstance(workload, workloads.JumpTheory):
        for item in workload.corpus:
            h.update(np.asarray(item["x"]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs(name, tmp_path):
    digests = []
    for run, seed in enumerate((1, 2, 1)):
        directory = tmp_path / str(run)
        directory.mkdir()
        digests.append(_digest(directory, workloads.WORKLOADS[name](directory, seed)))
    assert digests[0] != digests[1]
    assert digests[0] == digests[2]
