import json
import subprocess
import sys

import numpy as np
import pytest

from netfdi.cli import _derivatives_csv, main
from netfdi.dynamics import FailureEvent, NetworkSystem, SubsystemModel, simulate
from netfdi.fdi import (DetectorConfig, JumpSignature, LookupTable, detect, isolate,
                        lookup_table)
from netfdi.graph import Digraph, Edge, gen_cycle

CYCLE5_R = [[1, 2, 3, 4, 0], [0, 1, 2, 3, 4], [4, 0, 1, 2, 3],
            [3, 4, 0, 1, 2], [2, 3, 4, 0, 1]]
CYCLE5_D_23 = [[2, 1, 0, 4, 3], [3, 2, 1, 0, 4]]


def write_cycle_inputs(tmp_path):
    graph = tmp_path / "graph.json"
    model = tmp_path / "model.json"
    assert main(["gen", "cycle", "--n", "5", "-o", str(graph)]) == 0
    model.write_text(json.dumps(
        {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}))
    return graph, model


def test_gen_families(tmp_path):
    for family, extra in (("cycle", []), ("star", []), ("rgg", ["--radius", "0.4"])):
        out = tmp_path / f"{family}.json"
        code = main(["gen", family, "--n", "8", "--seed", "3", "-o", str(out)] + extra)
        assert code == 0
        g = Digraph.load(out)
        assert g.n_nodes == 8
    assert Digraph.load(tmp_path / "cycle.json").n_edges == 8
    assert Digraph.load(tmp_path / "star.json").n_edges == 7


def test_gen_rgg_requires_radius(tmp_path, capsys):
    code = main(["gen", "rgg", "--n", "8", "-o", str(tmp_path / "g.json")])
    assert code == 3
    assert "radius" in capsys.readouterr().err


def test_analyze_golden_tables(tmp_path):
    graph, _ = write_cycle_inputs(tmp_path)
    out = tmp_path / "tables.json"
    code = main(["analyze", str(graph), "--r", "1", "--z", "4",
                 "--sensors", "2,3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["R"] == CYCLE5_R
    assert data["D"] == CYCLE5_D_23
    assert data["z"] == 4 and data["r"] == 1


def test_analyze_bad_sensor_field(tmp_path, capsys):
    graph, _ = write_cycle_inputs(tmp_path)
    code = main(["analyze", str(graph), "--sensors", "2,nine",
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "sensors" in capsys.readouterr().err


def test_place_star_reports_impossibility(tmp_path, capsys):
    star = tmp_path / "star.json"
    main(["gen", "star", "--n", "5", "-o", str(star)])
    out = tmp_path / "place.json"
    code = main(["place", str(star), "--r", "1", "--z", "1", "--exact",
                 "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["M_D"] == [5]
    assert data["M_I"] is None
    assert data["f_I_of_V"] == 4
    assert data["opt_D"] == 1 and data["opt_I"] is None


def test_simulate_writes_trace(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    out = tmp_path / "trace.csv"
    code = main(["simulate", str(graph), str(model), "--x0", "1,2,3,4,5",
                 "--t-end", "2.0", "--dt", "0.01", "--fail", "2@1.0",
                 "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,x_1_1")
    assert len(lines) == 202


def test_run_example2_end_to_end(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                 "--dt", "0.001", "--horizon", "10", "--fail", "2@5",
                 "--x0", "1,2,3,4,5", "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["events"]) == 1
    event = report["events"][0]
    assert event["t"] == pytest.approx(5.0)
    assert event["signature"] == [1, 2]
    assert event["verdict"] == "unique"
    assert event["edges"] == [2]
    assert report["tables"]["D"] == CYCLE5_D_23
    assert (out_dir / "trace.csv").exists()
    header = (out_dir / "derivatives.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["t", "y_2_1_d0", "y_2_1_d1"]


def test_run_finite_difference_mode(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    out_dir = tmp_path / "fd"
    code = main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                 "--dt", "0.001", "--horizon", "10", "--fail", "2@5",
                 "--mode", "finite-difference", "--x0", "1,2,3,4,5",
                 "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["events"][0]["signature"] == [1, 2]
    assert report["events"][0]["verdict"] == "unique"


def test_run_report_roundtrips_through_isolate(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
          "--dt", "0.001", "--horizon", "10", "--fail", "2@5",
          "--x0", "1,2,3,4,5", "--out-dir", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())
    tables = report["tables"]
    table = LookupTable(table=np.array(tables["D"]), sensors=tuple(report["sensors"]),
                        edge_labels=tuple(range(1, len(tables["R"]) + 1)),
                        r=tables["r"], z=tables["z"])
    for event in report["events"]:
        redo = isolate(JumpSignature(np.array(event["signature"]), event["t"]), table)
        assert redo.verdict == event["verdict"]
        assert list(redo.edges) == event["edges"]


def test_run_no_failure_empty_events(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    out_dir = tmp_path / "quiet"
    code = main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                 "--dt", "0.01", "--horizon", "5", "--x0", "1,2,3,4,5",
                 "--out-dir", str(out_dir)])
    assert code == 0
    assert json.loads((out_dir / "report.json").read_text())["events"] == []


def test_run_star_auto_sensors_degrades_and_flags_ambiguity(tmp_path, capsys):
    star = tmp_path / "star.json"
    main(["gen", "star", "--n", "5", "-o", str(star)])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}))
    out_dir = tmp_path / "out"
    code = main(["run", str(star), str(model), "--sensors", "auto",
                 "--dt", "0.01", "--horizon", "5", "--fail", "1@2.5",
                 "--x0", "1,2,3,4,5", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert "isolation impossible" in err
    assert code == 2  # star failures are detectable but never isolable
    report = json.loads((out_dir / "report.json").read_text())
    assert report["placement"]["f_I_of_V"] == 4
    assert report["sensors"] == [5]
    assert report["events"][0]["verdict"] == "ambiguous"


def test_run_config_file(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "graph": str(graph), "model": str(model), "sensors": "2,3", "z": 4,
        "dt": 0.01, "horizon": 10.0, "fail": ["2@5"], "x0": "1,2,3,4,5",
    }))
    out_dir = tmp_path / "cfg_out"
    code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["events"][0]["verdict"] == "unique"


def test_run_config_rejects_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": "g.json", "model": "m.json", "bogus": 1}))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "bogus" in capsys.readouterr().err


def test_run_sweep_all_edges(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    out_dir = tmp_path / "sweep"
    code = main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                 "--dt", "0.01", "--horizon", "10", "--sweep-failures", "all-edges",
                 "--x0", "1,2,3,4,5", "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [entry["edge"] for entry in report["sweep"]] == [1, 2, 3, 4, 5]
    for entry in report["sweep"]:
        assert entry["events"][0]["verdict"] == "unique"
        assert entry["events"][0]["edges"] == [entry["edge"]]


def _per_edge_sweep(graph, model, sensors, z, mode, x0, horizon, dt):
    """What the sweep must report: one simulate -> detect -> isolate per edge."""
    sys_net = NetworkSystem(graph, model)
    table = lookup_table(graph, sensors, 1, z)
    sweep = []
    for label in graph.edge_labels:
        trace = simulate(sys_net, x0, 0.0, horizon, dt, [FailureEvent(label, horizon / 2)])
        events = []
        for sig in detect(trace, sensors, DetectorConfig(z=z, mode=mode)):
            verdict = isolate(sig, table)
            events.append({"t": sig.time, "signature": [int(k) for k in sig.orders],
                           "verdict": verdict.verdict, "edges": list(verdict.edges)})
        sweep.append({"edge": label, "events": events})
    return sweep


def test_run_sweep_matches_per_edge_runs(tmp_path):
    # node 4 has two in-links, so some verdicts are ambiguous
    graph = Digraph(5, [Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(4, 5), Edge(5, 1),
                        Edge(2, 4), Edge(1, 3)])
    model = SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[0.8]])
    graph_path, model_path = tmp_path / "graph.json", tmp_path / "model.json"
    graph.save(graph_path)
    model.save(model_path)
    x0 = [1.0, -2.0, 3.0, 0.5, 2.0]
    for mode in ("analytic", "finite-difference"):
        out_dir = tmp_path / mode
        code = main(["run", str(graph_path), str(model_path), "--sensors", "3,5",
                     "--z", "3", "--dt", "0.01", "--horizon", "6", "--mode", mode,
                     "--sweep-failures", "all-edges", "--x0", "1,-2,3,0.5,2",
                     "--out-dir", str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        expected = _per_edge_sweep(graph, model, (3, 5), 3, mode, x0, 6.0, 0.01)
        assert report["sweep"] == expected
        verdicts = {ev["verdict"] for entry in expected for ev in entry["events"]}
        assert "ambiguous" in verdicts
        assert code == 2


def test_run_sweep_rejects_bad_failure_time(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    for spec in ("1@20", "1@nan", "1@inf"):
        code = main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                     "--dt", "0.01", "--horizon", "10", "--sweep-failures", "all-edges",
                     "--fail", spec, "--x0", "1,2,3,4,5",
                     "--out-dir", str(tmp_path / "bad")])
        assert code == 3
        assert "sweep" in capsys.readouterr().err


def _segment_loop_derivatives(trace, sensors, z):
    """Reference: each segment's states times A_seg^T, k times over, per sensor."""
    d, o = trace.state_dim, trace.output_dim
    columns = {}
    for p in sensors:
        vals = np.empty((len(trace.times), z + 1, o))
        for seg in trace.segments:
            sl = slice(seg.start, seg.stop + 1)
            V = trace.states[sl]
            for k in range(z + 1):
                vals[sl, k] = V[:, (p - 1) * d : p * d] @ trace.c_matrix.T
                V = V @ seg.matrix.T
        columns[p] = vals
    return np.hstack([columns[p].transpose(0, 2, 1).reshape(len(trace.times), -1)
                      for p in sensors])


def test_derivatives_csv_matches_segment_loop(tmp_path):
    two_by_two = SubsystemModel([[-1.0, 0.5], [0.0, -2.0]], [[1.0, 0.0], [0.3, 1.0]],
                                [[1.0, 0.0], [0.2, 1.0]], [[0.4, 0.0], [0.1, 0.3]])
    cases = [(gen_cycle(5), SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]]),
              [1, 2, 3, 4, 5], (2, 3), 4),
             (Digraph(3, [Edge(1, 2), Edge(2, 3), Edge(3, 1), Edge(1, 3)]), two_by_two,
              [1.0, -1.0, 0.5, 2.0, -0.5, 1.5], (3, 1), 3)]
    for graph, model, x0, sensors, z in cases:
        trace = simulate(NetworkSystem(graph, model), x0, 0.0, 2.0, 0.01,
                         [FailureEvent(2, 1.0)])
        path = tmp_path / "derivatives.csv"
        _derivatives_csv(path, trace, sensors, z)
        lines = path.read_text().splitlines()
        o = model.o
        assert lines[0].split(",") == ["t"] + [f"y_{p}_{c}_d{k}" for p in sensors
                                               for c in range(1, o + 1)
                                               for k in range(z + 1)]
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(data[:, 0], trace.times)
        expected = _segment_loop_derivatives(trace, sensors, z)
        scale = np.abs(expected).max(axis=0)
        assert np.allclose(data[:, 1:], expected, rtol=1e-12, atol=1e-15 * scale.max())


def test_missing_graph_file_is_config_error(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.json"), "--sensors", "1",
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "graph" in capsys.readouterr().err


def test_usage_error_maps_to_config_exit():
    assert main(["reproduce", "bogus"]) == 3


def test_reproduce_cycle5(tmp_path):
    out_dir = tmp_path / "cycle5"
    assert main(["reproduce", "cycle5", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["tables"]["D"] == CYCLE5_D_23
    assert report["tables"]["R"] == CYCLE5_R
    assert report["events"][0]["verdict"] == "unique"
    assert report["events"][0]["edges"] == [2]


def test_reproduce_star5(tmp_path):
    out_dir = tmp_path / "star5"
    assert main(["reproduce", "star5", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["R"] == [[0, 0, 0, 0, 1]] * 4
    assert report["placement"]["f_I_of_V"] == 4
    assert report["placement"]["M_I"] is None


def test_reproduce_rgg_deterministic(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["reproduce", "rgg", "--out-dir", str(first)]) == 0
    assert main(["reproduce", "rgg", "--out-dir", str(second)]) == 0
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    report = json.loads((first / "report.json").read_text())
    assert report["f_D_trace"][-1] == 0


def test_console_entry_point(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "netfdi.cli", "gen", "cycle", "--n", "4",
         "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert Digraph.load(out).n_edges == 4
