import ast
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netfdi
import netfdi.cli as cli
import netfdi.dynamics
from netfdi.cli import _derivatives_table, _json_text, _trace_table, _write_csv, main
from netfdi.dynamics import (FailureEvent, NetworkSystem, SubsystemModel, simulate,
                             simulate_edge_failures)
from netfdi.fdi import (SWEEP_OUTCOMES, DetectorConfig, IsolationResult, JumpSignature,
                        LookupTable, _sweep_outcome, default_order_budget, detect,
                        detect_edge_failures, diagnose, isolate, lookup_table, sweep_summary)
from netfdi.graph import Digraph, Edge, gen_cycle, gen_random_geometric

CYCLE5_R = [[1, 2, 3, 4, 0], [0, 1, 2, 3, 4], [4, 0, 1, 2, 3],
            [3, 4, 0, 1, 2], [2, 3, 4, 0, 1]]
CYCLE5_D_23 = [[2, 1, 0, 4, 3], [3, 2, 1, 0, 4]]


def write_cycle_inputs(tmp_path, n=5):
    graph = tmp_path / "graph.json"
    model = tmp_path / "model.json"
    assert main(["gen", "cycle", "--n", str(n), "-o", str(graph)]) == 0
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


@pytest.mark.parametrize("args, field", [
    ("cycle --n 1", "n"),
    ("star --n 0", "n"),
    ("rgg --n 1 --radius 0.5", "n"),
    ("rgg --n 5 --radius -1", "radius"),
    ("rgg --n 5 --radius nan", "radius"),
    ("rgg --n 5 --radius 0.5 --region-side 0", "region_side"),
    ("rgg --n 5 --radius 0.5 --region-side inf", "region_side"),
])
def test_gen_invalid_sizes_are_config_errors(tmp_path, capsys, args, field):
    out = tmp_path / "g.json"
    assert main(["gen", *args.split(), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


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


@pytest.mark.parametrize("r, z", [
    ("4611686018427387904", "auto"),
    ("1000000000000000000000000000000", "10000000000000000000000000000000")])
def test_analyze_refuses_orders_past_int64(tmp_path, capsys, r, z):
    graph, _ = write_cycle_inputs(tmp_path)
    out = tmp_path / "a.json"
    assert main(["analyze", str(graph), "--r", r, "--z", z, "--sensors", "1,2",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: z: orders up to ") and f"relative degree r={r}" in err
    assert "do not fit an int64 table" in err
    assert not out.exists()


def test_analyze_bad_sensor_field(tmp_path, capsys):
    graph, _ = write_cycle_inputs(tmp_path)
    code = main(["analyze", str(graph), "--sensors", "2,nine",
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "sensors" in capsys.readouterr().err


def test_duplicate_sensors_are_config_errors(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": str(graph), "model": str(model),
                               "sensors": [3, 3], "z": 4}))
    for argv, node in (
            (["run", str(graph), str(model), "--sensors", "1,1", "--z", "4",
              "--out-dir", str(tmp_path / "run")], 1),
            (["run", "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")], 3),
            (["analyze", str(graph), "--sensors", "2,2", "--out", str(tmp_path / "t.json")], 2)):
        assert main(argv) == 3
        assert f"sensors: duplicate node {node}" in capsys.readouterr().err


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


@pytest.mark.parametrize("family", ["star", "cycle"])
def test_place_output_file_is_stdout_text(tmp_path, capsys, family):
    graph = tmp_path / f"{family}5.json"
    main(["gen", family, "--n", "5", "-o", str(graph)])
    capsys.readouterr()
    out = tmp_path / "place.json"
    assert main(["place", str(graph), "--exact", "-o", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


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


def test_run_config_file(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    star = tmp_path / "star.json"
    main(["gen", "star", "--n", "5", "-o", str(star)])
    settings = {"graph": str(graph), "model": str(model), "sensors": "2,3", "z": 4,
                "dt": 0.01, "horizon": 10.0, "fail": ["2@5"], "x0": [1, 2, 3, 4, 5]}

    def run(tag, extra=(), **fields):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({**settings, **fields}))
        out_dir = tmp_path / tag
        code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir), *extra])
        report = out_dir / "report.json"
        return code, json.loads(report.read_text()) if code in (0, 2) else None

    code, report = run("cfg")
    assert code == 0
    assert report["sensors"] == [2, 3]
    assert [(ev["t"], ev["verdict"], ev["edges"]) for ev in report["events"]] == \
        [(pytest.approx(5.0), "unique", [2])]
    # explicit arguments win in every spelling argparse accepts
    for extra in (["--sensors", "3"], ["--sens", "3"], ["--sensors=3"]):
        assert run("override", extra)[1]["sensors"] == [3], extra
    code, report = run("positional", [str(star), str(model)])
    assert code == 0 and len(report["tables"]["R"]) == 4 and report["events"] == []
    # an explicit --fail replaces the config's list instead of adding to it
    for extra in (["--fail", "3@4"], ["--fa=3@4"]):
        code, report = run("fail", extra)
        assert [(ev["t"], ev["edges"]) for ev in report["events"]] == \
            [(pytest.approx(4.0), [3])], extra
    # a field is read as its flag is: strings convert, arrays are comma lists
    code, report = run("dt_text", dt="0.01", sensors=[2, 3], x0="1,2,3,4,5")
    assert code == 0 and report["sensors"] == [2, 3]
    assert len((tmp_path / "dt_text" / "trace.csv").read_text().splitlines()) == 1002
    capsys.readouterr()
    for fields, name in (({"dt": True}, "--dt"), ({"dt": "fast"}, "--dt"),
                         ({"sweep_failures": "every-edge"}, "--sweep-failures"),
                         ({"mode": "exact"}, "--mode"), ({"seed": 1.5}, "--seed"),
                         ({"sensors": [2.7, 3]}, "sensors"), ({"z": 4.5}, "z")):
        assert run("bad", **fields)[0] == 3, fields
        assert name in capsys.readouterr().err, fields


def test_run_flags_and_config_write_identical_files(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    flags = ["--sensors", "2,3", "--z", "4", "--dt", "0.01", "--horizon", "10",
             "--fail", "2@5", "--fail", "4@7", "--x0", "1,2,3,4,5",
             "--mode", "finite-difference", "--seed", "3"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "graph": str(graph), "model": str(model), "sensors": [2, 3], "z": "4",
        "dt": 0.01, "horizon": 10, "fail": ["2@5", "4@7"], "x0": [1.0, 2, 3, 4, 5],
        "mode": "finite-difference", "seed": 3, "out_dir": str(tmp_path / "cfg")}))
    assert main(["run", str(graph), str(model), *flags,
                 "--out-dir", str(tmp_path / "flags")]) == 0
    assert main(["run", "--config", str(cfg)]) == 0
    for name in ("report.json", "trace.csv", "derivatives.csv"):
        assert (tmp_path / "flags" / name).read_bytes() == \
            (tmp_path / "cfg" / name).read_bytes(), name


def test_run_config_rejects_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # fields are dests, never flag abbreviations; a config names no other config
    for fields, name in (({"bogus": 1}, "bogus"), ({"sens": "2"}, "sens"),
                         ({"config": "other.json"}, "config")):
        cfg.write_text(json.dumps({"graph": "g.json", "model": "m.json", **fields}))
        assert main(["run", "--config", str(cfg)]) == 3
        assert f"unknown field {name!r}" in capsys.readouterr().err
    cfg.write_text(json.dumps(["g.json", "m.json"]))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "config" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 3
    assert "config: file not found" in capsys.readouterr().err


def test_parser_is_built_once_per_process(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": str(graph), "model": str(model), "sensors": "2,3",
                               "z": 4, "dt": 0.01, "horizon": 2}))
    cli._build_parser.cache_clear()
    for argv in (["place", str(graph)],
                 ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")],
                 ["run", str(graph), str(model), "--sensors", "2", "--dt", "0.01",
                  "--horizon", "2", "--out-dir", str(tmp_path / "run")],
                 ["reproduce", "cycle5", "--out-dir", str(tmp_path / "cycle5")]):
        assert main(argv) == 0, argv
    # reproduce cycle5 parses twice: its own argv, then the run it hands to main
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_config_sets_defaults_for_one_parse_only(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    plain = ["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
             "--horizon", "4", "--x0", "1,2,3,4,5"]
    assert main(plain + ["--out-dir", str(tmp_path / "alone")]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "graph": str(graph), "model": str(model), "dt": 0.02, "mode": "finite-difference",
        "sensors": [1, 4], "fail": ["2@1", "4@3"], "out_dir": str(tmp_path / "cfg")}))
    assert main(["run", "--config", str(cfg)]) in (0, 2)
    assert main(plain + ["--out-dir", str(tmp_path / "after")]) == 0
    for name in ("report.json", "trace.csv", "derivatives.csv"):
        assert (tmp_path / "after" / name).read_bytes() == \
            (tmp_path / "alone" / name).read_bytes(), name


def test_failed_config_call_leaves_the_built_defaults(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    plain = ["run", str(graph), str(model), "--sensors", "2", "--z", "4", "--horizon", "2"]
    assert main(plain + ["--out-dir", str(tmp_path / "alone")]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": str(graph), "model": str(tmp_path / "missing.json"),
                               "sensors": "2,3", "dt": 0.01, "fail": ["2@1"], "seed": 4}))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "model: file not found" in capsys.readouterr().err
    assert main(plain + ["--out-dir", str(tmp_path / "after")]) == 0
    for name in ("report.json", "trace.csv", "derivatives.csv"):
        assert (tmp_path / "after" / name).read_bytes() == \
            (tmp_path / "alone" / name).read_bytes(), name


def test_explicit_built_in_default_beats_the_config(tmp_path):
    # an argument given on the command line wins even when it equals the built-in default
    graph, model = write_cycle_inputs(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": str(graph), "model": str(model), "sensors": "2,3",
                               "z": 4, "fail": ["2@5"], "seed": 4, "dt": 0.01,
                               "mode": "finite-difference"}))
    assert main(["run", "--config", str(cfg), "--seed", "0", "--dt", "0.001",
                 "--mode", "analytic", "--out-dir", str(tmp_path / "cfg")]) == 0
    assert main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                 "--fail", "2@5", "--out-dir", str(tmp_path / "flags")]) == 0
    assert len((tmp_path / "cfg" / "trace.csv").read_text().splitlines()) == 10002
    for name in ("report.json", "trace.csv", "derivatives.csv"):
        assert (tmp_path / "cfg" / name).read_bytes() == \
            (tmp_path / "flags" / name).read_bytes(), name


def test_a_directory_as_input_file_is_a_config_error(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    for argv, field in (
            (["analyze", str(folder), "--sensors", "1", "--out", str(out / "t.json")], "graph"),
            (["run", str(graph), str(folder), "--sensors", "2", "--out-dir", str(out)],
             "model"),
            (["run", "--config", str(folder), "--out-dir", str(out)], "config")):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {field}: cannot read {folder}: Is a directory\n"
    assert not out.exists()


def test_explicit_fail_replaces_the_config_list_on_every_call(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": str(graph), "model": str(model), "sensors": "2,3",
                               "z": 4, "dt": 0.01, "horizon": 6, "fail": ["2@5"],
                               "x0": [1, 2, 3, 4, 5]}))
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["run", "--config", str(cfg), "--fail", "3@4", "--out-dir", str(out)]) == 0
        events = json.loads((out / "report.json").read_text())["events"]
        assert [(ev["t"], ev["edges"]) for ev in events] == [(pytest.approx(4.0), [3])], tag


def test_non_finite_inputs_are_config_errors(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    bad_model = tmp_path / "nan_model.json"
    bad_model.write_text('{"A": [[NaN]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}')
    base = ["--sensors", "2,3", "--z", "4", "--dt", "0.01", "--fail", "2@5",
            "--out-dir", str(tmp_path / "out")]
    for argv, name in (
            ([str(graph), str(bad_model), "--mode", "finite-difference"], "A has non-finite"),
            ([str(graph), str(bad_model)], "A has non-finite"),
            ([str(graph), str(model), "--x0", "1,nan,3,4,5"], "x0 has non-finite"),
            ([str(graph), str(model), "--horizon", "inf"], "t_end must be finite"),
            ([str(graph), str(model), "--horizon", "inf", "--sweep-failures", "all-edges"],
             "t_end must be finite"),
            ([str(graph), str(model), "--horizon", "1e308"],
             "run: horizon [0.0, 1e+308] holds too many steps of dt 0.01"),
            ([str(graph), str(model), "--horizon", "1e308", "--sweep-failures", "all-edges"],
             "sweep: horizon [0.0, 1e+308] holds too many steps of dt 0.01"),
            ([str(graph), str(model), "--fail", "1@1e308"],
             "run: failure time 1e+308 must fall strictly inside the horizon")):
        assert main(["run", *argv, *base]) == 3, argv
        assert name in capsys.readouterr().err, argv


def test_overflowing_step_counts_are_config_errors(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    csv = tmp_path / "trace.csv"
    assert main(["simulate", str(graph), str(model), "--t-end", "1e300", "--dt", "1e-10",
                 "-o", str(csv)]) == 3
    assert capsys.readouterr().err == (
        "error: simulate: horizon [0.0, 1e+300] holds too many steps of dt 1e-10\n")
    out_dir = tmp_path / "sweep"
    assert main(["run", str(graph), str(model), "--sensors", "2,3", "--z", "4",
                 "--dt", "0.01", "--fail", "1@-1e308", "--sweep-failures", "all-edges",
                 "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        "error: sweep: failure time -1e+308 must fall strictly inside the horizon\n")
    assert not csv.exists() and not out_dir.exists()


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: later failures are matched against the healthy graph")
@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
def test_second_failure_is_matched_against_the_failed_graph(tmp_path, mode):
    # edge 2 then edge 1 fails; edge 4 then edge 5 shows the same two signatures
    _, model = write_cycle_inputs(tmp_path)
    graph = tmp_path / "graph4.json"
    Digraph(4, [Edge(1, 2), Edge(2, 4), Edge(2, 3), Edge(3, 4), Edge(4, 1)]).save(graph)
    out_dir = tmp_path / "out"
    assert main(["run", str(graph), str(model), "--sensors", "4", "--z", "4", "--dt", "1e-3",
                 "--horizon", "3", "--x0", "1,2,3,4", "--fail", "2@1", "--fail", "1@2",
                 "--mode", mode, "--out-dir", str(out_dir)]) == 2
    second = json.loads((out_dir / "report.json").read_text())["events"][1]
    assert second["verdict"] != "unique"
    assert 1 in second["edges"]


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


def test_run_sweep_rejects_extra_or_unknown_fail(tmp_path, capsys):
    # a sweep fails every edge in turn and reads only the time of its --fail,
    # so a second --fail or a label the graph lacks is refused, not dropped
    graph, model = map(str, write_cycle_inputs(tmp_path, n=4))
    sweep = ["run", graph, model, "--sensors", "1,2", "--dt", "0.01", "--horizon", "2",
             "--sweep-failures", "all-edges", "--out-dir", str(tmp_path / "sweep")]
    for fails, message in (
            (["--fail", "1@1", "--fail", "9@1.5"],
             "a sweep takes at most one --fail, for its failure time"),
            (["--fail", "1@1", "--fail", "2@1.5"],
             "a sweep takes at most one --fail, for its failure time"),
            (["--fail", "9@1.5"], "unknown edge label 9")):
        assert main(sweep + fails) == 3, fails
        assert capsys.readouterr().err == f"error: fail: {message}\n", fails
    assert not (tmp_path / "sweep").exists()
    assert main(sweep + ["--fail", "4@1.5"]) == 0


def test_unknown_failed_edge_is_named_without_quotes(tmp_path, capsys):
    graph, model = map(str, write_cycle_inputs(tmp_path, n=4))
    assert main(["run", graph, model, "--sensors", "1,2", "--dt", "0.01", "--horizon", "2",
                 "--fail", "9@1", "--out-dir", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == "error: fail: unknown edge label 9\n"
    assert main(["simulate", graph, model, "--t-end", "2", "--dt", "0.01",
                 "--fail", "7@1", "-o", str(tmp_path / "trace.csv")]) == 3
    assert capsys.readouterr().err == "error: fail: unknown edge label 7\n"


def test_model_file_with_bool_or_str_entry_is_config_error(tmp_path, capsys):
    # a model file holds numbers only, as a graph file does
    graph, model = map(str, write_cycle_inputs(tmp_path))
    for field, value, entry in (("A", [["-1"]], "'-1'"), ("B", [[True]], "True")):
        matrices = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]], field: value}
        Path(model).write_text(json.dumps(matrices))
        assert main(["run", graph, model, "--sensors", "2,3", "--dt", "0.01", "--horizon", "2",
                     "--out-dir", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == (
            f"error: model: cannot parse {model}: {field} has a non-numeric entry {entry}\n")
    assert not (tmp_path / "run").exists()


def test_integer_too_large_for_a_float_in_a_file_is_config_error(tmp_path, capsys):
    # json reads a 401-digit literal as an int that no float holds
    graph, model = map(str, write_cycle_inputs(tmp_path))
    huge = "1" + "0" * 400
    big_graph = tmp_path / "big_graph.json"
    big_graph.write_text('{"n": 3, "edges": [{"tail": 1, "head": 2, "w": %s}]}' % huge)
    assert main(["analyze", str(big_graph), "--sensors", "2",
                 "--out", str(tmp_path / "table.json")]) == 3
    assert capsys.readouterr().err == (
        f"error: graph: cannot parse {big_graph}: edge 1: weight must be finite, got {huge}\n")
    Path(model).write_text('{"A": [[%s]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}' % huge)
    assert main(["run", graph, model, "--sensors", "2,3", "--dt", "0.01", "--horizon", "2",
                 "--out-dir", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == (
        f"error: model: cannot parse {model}: A has non-finite entries\n")
    assert not (tmp_path / "table.json").exists() and not (tmp_path / "run").exists()


def test_failure_event_with_a_label_below_1_is_config_error(tmp_path, capsys):
    graph, model = map(str, write_cycle_inputs(tmp_path, n=4))
    assert main(["run", graph, model, "--sensors", "1,2", "--dt", "0.01", "--horizon", "2",
                 "--fail", "0@1", "--out-dir", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == "error: fail: edge must be >= 1, got 0\n"


def test_edge_failing_twice_is_config_error(tmp_path, capsys):
    graph, model = map(str, write_cycle_inputs(tmp_path, n=4))
    fails = ["--fail", "1@1", "--fail", "1@1.5"]
    assert main(["run", graph, model, "--sensors", "1,2", "--dt", "0.01", "--horizon", "2",
                 *fails, "--out-dir", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == ("error: run: edge 1 fails twice in the schedule; "
                                       "each edge fails at most once\n")
    assert main(["simulate", graph, model, "--t-end", "2", "--dt", "0.01", *fails,
                 "-o", str(tmp_path / "trace.csv")]) == 3
    assert capsys.readouterr().err == ("error: simulate: edge 1 fails twice in the "
                                       "schedule; each edge fails at most once\n")


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


# (graph, model, x0, sensors, z): the cycle5 scalar model, whose outputs copy
# its states, and a 2x2 model on a 3-node digraph, whose outputs do not
CSV_CASES = [
    (gen_cycle(5), SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]]),
     [1.0, 2.0, 3.0, 4.0, 5.0], (2, 3), 4),
    (Digraph(3, [Edge(1, 2), Edge(2, 3), Edge(3, 1), Edge(1, 3)]),
     SubsystemModel([[-1.0, 0.5], [0.0, -2.0]], [[1.0, 0.0], [0.3, 1.0]],
                    [[1.0, 0.0], [0.2, 1.0]], [[0.4, 0.0], [0.1, 0.3]]),
     [1.0, -1.0, 0.5, 2.0, -0.5, 1.5], (3, 1), 3)]


def test_derivatives_csv_matches_segment_loop(tmp_path):
    for graph, model, x0, sensors, z in CSV_CASES:
        trace = simulate(NetworkSystem(graph, model), x0, 0.0, 2.0, 0.01,
                         [FailureEvent(2, 1.0)])
        path = tmp_path / "derivatives.csv"
        _write_csv(trace.times, [(path, *_derivatives_table(trace, sensors, z))])
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


def test_run_csvs_equal_single_file_writers(tmp_path):
    # run writes both CSVs in one pass that shares the text of equal columns;
    # each file must equal what simulate -o, or _write_csv of the derivatives
    # table alone, writes
    for k, (graph, model, x0, sensors, z) in enumerate(CSV_CASES):
        case = tmp_path / f"case{k}"
        case.mkdir()
        graph.save(case / "graph.json")
        model.save(case / "model.json")
        common = [str(case / "graph.json"), str(case / "model.json"), "--dt", "0.01",
                  "--fail", "2@1", "--x0", ",".join(map(repr, x0))]
        assert main(["run", *common, "--horizon", "2", "--z", str(z),
                     "--sensors", ",".join(map(str, sensors)),
                     "--out-dir", str(case / "run")]) in (0, 2)
        assert main(["simulate", *common, "--t-end", "2", "-o", str(case / "sim.csv")]) == 0
        assert (case / "run" / "trace.csv").read_bytes() == (case / "sim.csv").read_bytes()
        trace = simulate(NetworkSystem(graph, model), x0, 0.0, 2.0, 0.01,
                         [FailureEvent(2, 1.0)])
        _write_csv(trace.times,
                   [(case / "derivatives.csv", *_derivatives_table(trace, sensors, z))])
        assert ((case / "run" / "derivatives.csv").read_bytes()
                == (case / "derivatives.csv").read_bytes())


def test_run_leaves_no_writer_process_or_temp_file(tmp_path, capsys, monkeypatch):
    # 201 samples are two chunks, so with two CPUs one range goes to a forked
    # writer; whether it, or this process, succeeds or fails, the writer is
    # reaped and its spill file leaves no name behind
    graph, model = map(str, write_cycle_inputs(tmp_path))
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    write_rows = cli._write_rows

    def failing_from(first):
        def rows(times, handles, lo, hi):
            if lo >= first:
                raise OSError("no space left")
            write_rows(times, handles, lo, hi)
        return rows

    run = ["run", graph, model, "--sensors", "2,3", "--z", "4", "--dt", "0.01",
           "--horizon", "2", "--fail", "2@1", "--x0", "1,2,3,4,5"]
    simulate_to = ["simulate", graph, model, "--t-end", "2", "--dt", "0.01", "--fail", "2@1",
                   "-o"]
    whole = tmp_path / "ok"

    def contents(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    for name, rows, code, err in (
            ("ok", write_rows, 0, ""),
            ("child", failing_from(1), 3, "exited with code 1"),
            ("parent", failing_from(0), 3, "no space left")):
        monkeypatch.setattr(cli, "_write_rows", rows)
        out_dir = tmp_path / name
        assert main(run + ["--out-dir", str(out_dir)]) == code, name
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith(f"error: out_dir: cannot write {out_dir}: "), name
            assert err in captured.err, name
            # no artefact of the failed call, whole or partial, under any name
            assert list(out_dir.iterdir()) == [], name
            # a failing rerun over whole artefacts, which would change every
            # file if it succeeded, leaves them byte for byte as they were
            before = contents(whole)
            assert main(run + ["--x0", "5,4,3,2,1", "--out-dir", str(whole)]) == code, name
            assert main(simulate_to + [str(whole / "sim.csv"), "--x0", "5,4,3,2,1"]) == code
            capsys.readouterr()
            assert contents(whole) == before, name
        else:
            assert sorted(contents(out_dir)) == ["derivatives.csv", "report.json", "trace.csv"]
            assert len((out_dir / "trace.csv").read_text().splitlines()) == 202
            # a whole simulate -o output for the failing reruns below
            assert main(simulate_to + [str(out_dir / "sim.csv"), "--x0", "1,2,3,4,5"]) == 0
            capsys.readouterr()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(spill_dir.iterdir()) == [], name


def test_simulate_writes_through_a_link_and_into_a_fifo(tmp_path):
    # a link keeps naming the file it points to, and a FIFO is written in
    # place rather than replaced by a renamed file
    graph, model = map(str, write_cycle_inputs(tmp_path))
    sim = ["simulate", graph, model, "--t-end", "1", "--dt", "0.01", "--x0", "1,2,3,4,5", "-o"]
    assert main(sim + [str(tmp_path / "plain.csv")]) == 0
    expected = (tmp_path / "plain.csv").read_bytes()
    (tmp_path / "real.csv").write_text("earlier")
    (tmp_path / "link.csv").symlink_to(tmp_path / "real.csv")
    assert main(sim + [str(tmp_path / "link.csv")]) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "real.csv").read_bytes() == expected
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # an open read end lets the writer in; the rows fit the pipe's buffer
    assert len(expected) < 32768
    with os.fdopen(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK), "rb") as reader:
        assert main(sim + [str(fifo)]) == 0
        assert reader.read() == expected
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    # /dev/stdout on a pipe, whose resolved name is no file at all
    proc = subprocess.run([sys.executable, "-m", "netfdi.cli", *sim, "/dev/stdout"],
                          capture_output=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + b"wrote 101 samples to /dev/stdout\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "fifo", "graph.json", "link.csv", "model.json", "plain.csv", "real.csv"]


_DERIVATIVES_CHILD = """
import sys
from pathlib import Path
import numpy as np
from netfdi.cli import (RGG_NODES, RGG_RADIUS, RGG_REGION, RGG_SEED, _derivatives_table,
                        _write_csv)
from netfdi.dynamics import FailureEvent, NetworkSystem, SubsystemModel, simulate
from netfdi.graph import gen_random_geometric
g = gen_random_geometric(RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED)
model = SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
x0 = np.random.default_rng(3).normal(0.0, 1.0, g.n_nodes)
trace = simulate(NetworkSystem(g, model), x0, 0.0, 5.0, 1e-3, [FailureEvent(157, 1.076)])
_write_csv(trace.times, [(Path(sys.argv[1]), *_derivatives_table(trace, range(1, 11), 2))])
"""


def _child_env(**extra) -> dict:
    """Environment for a child interpreter that imports netfdi from where this one did.

    Each keyword sets that variable, and None unsets it.
    """
    package_root = str(Path(netfdi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])), **extra)
    return {k: v for k, v in env.items() if v is not None}


def test_derivatives_csv_independent_of_blas_threads(tmp_path):
    # 50 states over 5001 samples: big enough for a dense BLAS product to run
    # threaded, and so to sum in a thread-dependent order
    dumps = []
    for threads in ("1", None):
        path = tmp_path / f"derivatives_{len(dumps)}.csv"
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=None)
        proc = subprocess.run([sys.executable, "-c", _DERIVATIVES_CHILD, str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]


_TRACES_CHILD = """
import sys
from pathlib import Path
import numpy as np
from netfdi.cli import (RGG_NODES, RGG_RADIUS, RGG_REGION, RGG_SEED, _derivatives_table,
                        _trace_table, _write_csv)
from netfdi.dynamics import FailureEvent, NetworkSystem, SubsystemModel, simulate
from netfdi.graph import gen_random_geometric
g = gen_random_geometric(RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED)
models = {"scalar": SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]]),
          "r2": SubsystemModel([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[1.0, 0.0]],
                               [[1.0]])}
for name, model in models.items():
    sys_net = NetworkSystem(g, model)
    x0 = np.random.default_rng(3).normal(0.0, 1.0, sys_net.n_states)
    trace = simulate(sys_net, x0, 0.0, 2.0, 1e-3, [FailureEvent(157, 1.076)])
    _write_csv(trace.times, [(Path(sys.argv[1]) / f"trace_{name}.csv", *_trace_table(trace))])
_write_csv(trace.times, [(Path(sys.argv[1]) / "derivatives_r2.csv",
                          *_derivatives_table(trace, range(1, 11), 9))])
"""


def test_trace_csv_independent_of_blas_threads(tmp_path):
    # 50 and 100 states: with a Pade exp(A dt), whose LAPACK solve runs
    # threaded at this size, the r = 2 trace is not the same under one and
    # two BLAS threads
    dumps = []
    for threads in ("1", None):
        directory = tmp_path / f"threads_{threads}"
        directory.mkdir()
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=None)
        proc = subprocess.run([sys.executable, "-c", _TRACES_CHILD, str(directory)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        dumps.append({path.name: path.read_bytes() for path in directory.iterdir()})
    assert sorted(dumps[0]) == ["derivatives_r2.csv", "trace_r2.csv", "trace_scalar.csv"]
    assert dumps[0] == dumps[1]


_SWEEP_REPORTS_CHILD = """
import json
import sys
from pathlib import Path
import numpy as np
from netfdi.cli import RGG_NODES, RGG_RADIUS, RGG_REGION, RGG_SEED, main
from netfdi.graph import gen_random_geometric
out = Path(sys.argv[1])
model = out / "model.json"
model.write_text(json.dumps({"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]],
                             "C": [[1.0, 0.0]], "Gamma": [[1.0]]}))
graphs = {"rgg50": gen_random_geometric(RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED),
          "rgg200": gen_random_geometric(200, 1.0, 0.125, 7)}
for name, g in graphs.items():
    g.save(out / f"{name}.json")
    x0 = np.random.default_rng(1).normal(0.0, 1.0, 2 * g.n_nodes)
    assert main(["run", str(out / f"{name}.json"), str(model), "--sensors",
                 ",".join(map(str, range(1, 11))), "--z", "9", "--dt", "1e-3",
                 "--horizon", "2", "--x0=" + ",".join(map(repr, x0.tolist())),
                 "--sweep-failures", "all-edges", "--out-dir", str(out / name)]) in (0, 2)
assert main(["run", str(out / "rgg50.json"), str(model), "--sensors", "auto", "--fail", "7@1",
             "--out-dir", str(out / "rgg50_fail")]) == 2
assert main(["reproduce", "cycle5", "--out-dir", str(out / "cycle5")]) == 0
"""


def test_analytic_sweep_report_independent_of_blas_threads(tmp_path):
    # the state the first-jump kernel starts from is stepped by BLAS products
    # (the kernel itself calls none): 100 states on rgg50, and 400 on the
    # 200-node graph, past the order (384) up to which an OpenBLAS product
    # keeps its bytes under 1 and 2 threads.  A single-failure run on rgg50
    # and reproduce cycle5 must keep every file they write as well.
    outputs = []
    for threads in ("1", "2"):
        directory = tmp_path / f"threads_{threads}"
        directory.mkdir()
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=None)
        proc = subprocess.run([sys.executable, "-c", _SWEEP_REPORTS_CHILD, str(directory)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({str(path.relative_to(directory)): path.read_bytes()
                        for path in directory.rglob("*") if path.is_file()})
    assert {"rgg50/report.json", "rgg200/report.json", "rgg50_fail/trace.csv",
            "cycle5/derivatives.csv"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]


def test_missing_graph_file_is_config_error(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.json"), "--sensors", "1",
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "graph" in capsys.readouterr().err


def test_missing_model_and_graph_fields_are_named(tmp_path, capsys):
    graph, model = map(str, write_cycle_inputs(tmp_path))
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps({"A": [[-1.0]], "C": [[1.0]], "Gamma": [[1.0]]}))
    bad_graph = tmp_path / "bad_graph.json"
    bad_graph.write_text(json.dumps({"n": 3, "edges": [{"tail": 1, "w": 1.0}]}))
    for argv, field, path, key in (
            (["simulate", graph, str(bad_model), "--t-end", "1", "--dt", "0.1",
              "-o", str(tmp_path / "t.csv")], "model", bad_model, "B"),
            (["run", graph, str(bad_model), "--out-dir", str(tmp_path / "out")],
             "model", bad_model, "B"),
            (["run", str(bad_graph), model, "--out-dir", str(tmp_path / "out")],
             "graph", bad_graph, "head"),
            (["place", str(bad_graph)], "graph", bad_graph, "head")):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == (f"error: {field}: cannot parse {path}: "
                                           f"missing field {key}\n"), argv


def test_malformed_graph_files_are_config_errors(tmp_path, capsys):
    # json accepts NaN and Infinity, so these parse and must fail validation
    for name, text in (
            ("float_tail", '{"n": 3, "edges": [{"tail": 1.5, "head": 2, "w": 1.0}]}'),
            ("float_n", '{"n": 2.7, "edges": [{"tail": 1, "head": 2, "w": 1.0}]}'),
            ("nan_weight", '{"n": 3, "edges": [{"tail": 1, "head": 2, "w": NaN}]}'),
            ("inf_weight", '{"n": 3, "edges": [{"tail": 1, "head": 2, "w": Infinity}]}')):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["place", str(path)]) == 3, name
        assert "graph:" in capsys.readouterr().err, name


def test_boolean_graph_fields_are_config_errors(tmp_path, capsys):
    # JSON true is a Python bool, which counts as an integer and a finite number
    for name, text, argv in (
            ("bool_n", '{"n": true, "edges": []}', ["place"]),
            ("bool_weight", '{"n": 2, "edges": [{"tail": 1, "head": 2, "w": true}]}',
             ["analyze", "--sensors", "2", "--out", str(tmp_path / "t.json")])):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(argv[:1] + [str(path)] + argv[1:]) == 3, name
        assert "graph:" in capsys.readouterr().err, name


def test_auto_sensors_on_edgeless_graph_is_config_error(tmp_path, capsys):
    graph_path, model_path = tmp_path / "graph.json", tmp_path / "model.json"
    Digraph(3, []).save(graph_path)
    model_path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]],
                                      "Gamma": [[1.0]]}))
    argv = ["run", str(graph_path), str(model_path), "--sensors", "auto",
            "--dt", "0.01", "--horizon", "1", "--out-dir", str(tmp_path / "out")]
    for extra in ([], ["--sweep-failures", "all-edges"]):
        assert main(argv + extra) == 3, extra
        assert capsys.readouterr().err.startswith("error: sensors: "), extra


def test_negative_seed_is_config_error(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    run = ["run", str(graph), str(model), "--sensors", "2,3", "--dt", "0.01",
           "--horizon", "1", "--out-dir", str(tmp_path / "out")]
    for argv in (["gen", "rgg", "--n", "10", "--radius", "0.3", "--seed", "-1",
                  "-o", str(tmp_path / "g.json")],
                 run + ["--seed", "-1"],
                 ["simulate", str(graph), str(model), "--t-end", "1", "--dt", "0.1",
                  "--seed", "-1", "-o", str(tmp_path / "t.csv")],
                 run + ["--config", str(config)]):
        assert main(argv) == 3, argv
        assert "--seed" in capsys.readouterr().err, argv
    assert main(run + ["--seed", "0"]) == 0


def test_missing_output_directories_are_created(tmp_path):
    graph = tmp_path / "new" / "dir" / "g.json"
    assert main(["gen", "cycle", "--n", "4", "--output", str(graph)]) == 0
    _, model = write_cycle_inputs(tmp_path)
    trace = tmp_path / "other" / "dir" / "t.csv"
    assert main(["simulate", str(graph), str(model), "--x0", "1,2,3,4", "--t-end", "1",
                 "--dt", "0.1", "-o", str(trace)]) == 0
    assert len(trace.read_text().splitlines()) == 12


def test_unwritable_outputs_are_config_errors(tmp_path, capsys):
    graph, model = write_cycle_inputs(tmp_path)
    graph, model = str(graph), str(model)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    run = ["run", graph, model, "--sensors", "2,3", "--z", "4", "--dt", "0.01",
           "--horizon", "1", "--x0", "1,2,3,4,5"]
    for argv, field in (
            (["gen", "cycle", "--n", "4", "-o", str(blocker / "g.json")], "output"),
            (["simulate", graph, model, "--t-end", "1", "--dt", "0.1",
              "-o", str(blocker / "t.csv")], "output"),
            (["simulate", graph, model, "--t-end", "1", "--dt", "0.1",
              "-o", str(tmp_path)], "output"),          # a directory, not a file
            (["analyze", graph, "--sensors", "1", "--out", str(blocker / "t.json")], "out"),
            (["place", graph, "-o", str(blocker / "x.json")], "output"),
            (run + ["--fail", "2@0.5", "--out-dir", str(blocker)], "out_dir"),
            (run + ["--sweep-failures", "all-edges", "--out-dir", str(blocker / "sub")],
             "out_dir"),
            (["reproduce", "cycle5", "--out-dir", str(blocker)], "out_dir"),
            (["reproduce", "star5", "--out-dir", str(blocker)], "out_dir"),
            (["reproduce", "rgg", "--out-dir", str(blocker / "sub")], "out_dir")):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}: cannot write "), argv
        assert "Traceback" not in captured.err
    assert blocker.read_text() == ""


_SIZE_LIMITED_CHILD = """
import resource
import signal
import sys
from netfdi.cli import main
# a write past the limit fails with EFBIG instead of killing the process
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("case", ["gen", "analyze", "place", "simulate", "run", "sweep",
                                  "cycle5", "star5", "rgg"])
def test_failed_writes_leave_no_partial_artefact(tmp_path, case):
    # no file of the child may grow past 200 bytes, and each call writes one
    # that would; stderr goes to a pipe, which the limit does not cut
    graph, model = map(str, write_cycle_inputs(tmp_path))
    out = tmp_path / "out"
    run = ["run", graph, model, "--sensors", "2,3", "--z", "4", "--dt", "0.01",
           "--horizon", "1", "--x0", "1,2,3,4,5"]
    # argv, error field, the artefact the error names, artefacts there before
    argv, field, named, existing = {
        "gen": (["gen", "cycle", "--n", "5", "-o", str(out / "g.json")], "output", "g.json",
                []),
        "analyze": (["analyze", graph, "--sensors", "1,2,3", "--out", str(out / "tables.json")],
                    "out", "tables.json", ["tables.json"]),
        "place": (["place", graph, "-o", str(out / "place.json")], "output", "place.json",
                  ["place.json"]),
        "simulate": (["simulate", graph, model, "--t-end", "1", "--dt", "0.01",
                      "-o", str(out / "sim.csv")], "output", "sim.csv", []),
        "run": (run + ["--fail", "2@0.5", "--out-dir", str(out / "run")], "out_dir", "run",
                ["run/report.json"]),
        "sweep": (run + ["--sweep-failures", "all-edges", "--out-dir", str(out / "sweep")],
                  "out_dir", "sweep/report.json", []),
        "cycle5": (["reproduce", "cycle5", "--out-dir", str(out / "cycle5")], "out_dir",
                   "cycle5", ["cycle5/model.json"]),
        "star5": (["reproduce", "star5", "--out-dir", str(out / "star5")], "out_dir",
                  "star5", ["star5/report.json"]),
        "rgg": (["reproduce", "rgg", "--out-dir", str(out / "rgg")], "out_dir", "rgg",
                ["rgg/graph.json"]),
    }[case]
    for name in existing:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(b"earlier\n")
    proc = subprocess.run([sys.executable, "-c", _SIZE_LIMITED_CHILD, "200", *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 3, proc.stderr
    # the earlier artefacts keep their bytes; no partial file or temporary name
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in out.rglob("*") if path.is_file()}
    assert files == dict.fromkeys(existing, b"earlier\n")
    assert proc.stderr == (f"error: {field}: cannot write {out / named}: "
                           f"{os.strerror(errno.EFBIG)}\n")


def test_usage_error_maps_to_config_exit():
    assert main(["reproduce", "bogus"]) == 3


def test_runs_start_at_time_zero(tmp_path, capsys):
    # there is no --t0, on the command line or in a config
    graph, model = map(str, write_cycle_inputs(tmp_path))
    out = tmp_path / "out"
    assert main(["run", graph, model, "--sensors", "2", "--t0", "1",
                 "--out-dir", str(out)]) == 3
    assert main(["simulate", graph, model, "--t-end", "1", "--dt", "0.1", "--t0", "1",
                 "-o", str(out / "sim.csv")]) == 3
    capsys.readouterr()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"graph": graph, "model": model, "t0": 1.0}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "error: config: unknown field 't0'\n"
    assert not out.exists()


def test_help_shows_usage_only(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for subcommand in ("gen", "analyze", "place", "simulate", "run", "reproduce"):
        assert f"\n{subcommand} " in text
    assert "Exit codes: 0 success, 2 when" in text
    assert "fork" not in text and "BLAS" not in text


@pytest.mark.parametrize("argv, message", [
    ("run {graph} {model} --sensors ,", "sensors: sensor set must be nonempty"),
    ("run {graph} {model} --sensors 2 --fail 2at1", "fail: expected EDGE_LABEL@TIME, got '2at1'"),
    ("run {graph} {model2} --sensors 2 --z 1", "z: order budget z=1 below relative degree r=2"),
    ("analyze {graph} --r 0 --sensors 2 --out {out}/t.json",
     "r: relative degree must be >= 1, got 0"),
    ("place {graph} --r 0", "r: relative degree must be >= 1, got 0"),
    ("analyze {graph} --sensors auto --out {out}/t.json",
     "sensors: analyze needs an explicit sensor list"),
    ("place {star} --exact",
     "exact: exhaustive search refused: 21 nodes exceeds the 20-node limit"),
    ("run {graph} {model} --sensors 2 --x0 1,a,3,4",
     "x0: expected comma-separated reals, got '1,a,3,4'"),
    ("run {graph} {model} --sensors 2 --x0 1,2", "x0: expected 4 entries, got 2"),
    ("run --sensors 2", "graph/model: required (positionally or via --config)"),
    ("run {graph} {model} --sensors 2 --z 0", "z: order budget z must be >= 1, got 0"),
], ids=["run-sensors", "run-fail", "run-z", "analyze-r", "place-r", "analyze-sensors",
        "place-exact", "run-x0-text", "run-x0-size", "run-graph", "run-z-zero"])
def test_config_errors_name_their_field(tmp_path, capsys, argv, message):
    graph, model = write_cycle_inputs(tmp_path, n=4)
    model2 = tmp_path / "model2.json"
    model2.write_text(json.dumps({"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]],
                                  "C": [[1.0, 0.0]], "Gamma": [[1.0]]}))
    star = tmp_path / "star.json"
    assert main(["gen", "star", "--n", "21", "-o", str(star)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    argv = argv.format(graph=graph, model=model, model2=model2, star=star, out=out).split()
    assert main([*argv, "--out-dir", str(out)] if argv[0] == "run" else argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_reproduce_cycle5(tmp_path):
    out_dir = tmp_path / "cycle5"
    assert main(["reproduce", "cycle5", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["tables"]["D"] == CYCLE5_D_23
    assert report["tables"]["R"] == CYCLE5_R
    assert report["events"][0]["verdict"] == "unique"
    assert report["events"][0]["edges"] == [2]
    # the scenario is a plain run of the paper's example 2
    run_dir = tmp_path / "run"
    assert main(["run", str(out_dir / "graph.json"), str(out_dir / "model.json"),
                 "--sensors", "2,3", "--z", "4", "--fail", "2@5", "--x0", "1,2,3,4,5",
                 "--out-dir", str(run_dir)]) == 0
    for name in ("report.json", "trace.csv", "derivatives.csv"):
        assert (out_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


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
    # the bytes written before the bitset hop kernel, which rgg50 (50 nodes,
    # 193 edges) now takes
    digests = {name: hashlib.sha256((first / name).read_bytes()).hexdigest()
               for name in ("report.json", "graph.json")}
    assert digests == {
        "report.json": "f7cb87e817b9f95f8f3a66e4b21a4bda0e75d1f9855ba2a96f045d570863e91a",
        "graph.json": "514fa9170d43fc2a089c18747748d17a3e613e56dab704137cf547c8731e0ec6"}
    report = json.loads((first / "report.json").read_text())
    assert report["f_D_trace"][-1] == 0


def test_console_entry_point(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "netfdi.cli", "gen", "cycle", "--n", "4",
         "-o", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert Digraph.load(out).n_edges == 4


_IMPORT_PROBE_CHILD = """
import json
import sys
from pathlib import Path
import numpy as np
from netfdi.cli import main

out, case = Path(sys.argv[1]), sys.argv[2]
graph, model = str(out / "graph.json"), str(out / "model.json")
assert main(["gen", "cycle", "--n", "5", "-o", graph]) == 0
Path(model).write_text('{"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Gamma": [[1.0]]}')
if case == "library":
    from netfdi.dynamics import NetworkSystem, SubsystemModel, jump_oracle, theoretical_jump
    from netfdi.fdi import lookup_table, relation_matrix
    from netfdi.graph import gen_random_geometric
    from netfdi.placement import approximation_report
    g = gen_random_geometric(12, 1.0, 0.5, 3)
    pre = NetworkSystem(g, SubsystemModel.load(model))
    post = pre.remove_edge(1)
    x = np.ones(pre.n_states)
    theoretical_jump(g, pre.model, 1, 1, x)
    jump_oracle(pre, post, x, 1, 2)
    lookup_table(g, [1, 2], 1)
    approximation_report(relation_matrix(g, 1))
else:
    argv = {
        "gen": ["gen", "rgg", "--n", "12", "--radius", "0.5", "--seed", "1",
                "-o", str(out / "rgg.json")],
        "analyze": ["analyze", graph, "--sensors", "1,3", "--out", str(out / "tables.json")],
        "place": ["place", graph, "--exact", "-o", str(out / "place.json")],
        "star5": ["reproduce", "star5", "--out-dir", str(out / "star5")],
        "rgg": ["reproduce", "rgg", "--out-dir", str(out / "rgg")],
        "simulate": ["simulate", graph, model, "--t-end", "1", "--dt", "0.01",
                     "--fail", "2@0.5", "-o", str(out / "sim.csv")],
        "run": ["run", graph, model, "--sensors", "2,3", "--dt", "0.01", "--horizon", "1",
                "--fail", "2@0.5", "--out-dir", str(out / "run")],
        "fd-run": ["run", graph, model, "--sensors", "2,3", "--dt", "0.01", "--horizon", "1",
                   "--fail", "2@0.5", "--mode", "finite-difference",
                   "--out-dir", str(out / "fd-run")],
        "fd-sweep": ["run", graph, model, "--sensors", "2,3", "--dt", "0.01",
                     "--horizon", "1", "--mode", "finite-difference",
                     "--sweep-failures", "all-edges", "--out-dir", str(out / "fd-sweep")],
        "sweep": ["run", graph, model, "--sensors", "2,3", "--dt", "0.01", "--horizon", "1",
                  "--sweep-failures", "all-edges", "--out-dir", str(out / "sweep")],
        "cycle5": ["reproduce", "cycle5", "--out-dir", str(out / "cycle5")],
    }[case]
    assert main(argv) in (0, 2)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.mark.parametrize("case", ["gen", "analyze", "place", "star5", "rgg", "library",
                                  "simulate", "run", "fd-run", "fd-sweep", "sweep", "cycle5"])
def test_scipy_is_loaded_only_to_step_the_dynamics(tmp_path, case):
    # netfdi runs on numpy alone: no command, the analytic ones included,
    # loads any scipy module
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE_CHILD, str(tmp_path), case],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


#: what a module reaches the process, its files and its terminal through
_PROCESS_NAMES = {"os", "signal", "tempfile", "warnings", "contextlib", "sys", "print()"}


def test_module_boundaries():
    # no module imports scipy, and none but the CLI imports a process module
    # or prints: the library is maths and returns what it finds
    def reached(node):
        """Top-level package of each module imported under node, and "print()" per print call."""
        for child in ast.walk(node):
            if isinstance(child, ast.Import):
                yield from (alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                yield child.module.split(".")[0]
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "print"):
                yield "print()"

    package = Path(netfdi.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    reach = {path.name: set(reached(ast.parse(path.read_text()))) for path in sources}
    assert [name for name, names in reach.items() if "scipy" in names] == []
    assert {name: sorted(names & _PROCESS_NAMES) for name, names in reach.items()
            if name != "cli.py" and names & _PROCESS_NAMES} == {}
    assert {"os", "print()"} <= reach["cli.py"]   # the walk sees both kinds


def test_analytic_sweep_matches_per_edge_runs_on_rgg(tmp_path):
    graph = gen_random_geometric(16, 1.0, 0.4, 3)
    graph_path = tmp_path / "graph.json"
    graph.save(graph_path)
    x0 = np.random.default_rng(4).normal(0.0, 1.0, graph.n_nodes)
    z = default_order_budget(graph, 1)
    for gamma in (1.0, 0.02):
        model = SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[gamma]])
        model_path = tmp_path / f"model_{gamma}.json"
        model.save(model_path)
        out_dir = tmp_path / f"out_{gamma}"
        code = main(["run", str(graph_path), str(model_path), "--sensors", "1,4,7,10",
                     "--z", str(z), "--dt", "0.01", "--horizon", "1",
                     "--sweep-failures", "all-edges", "--x0=" + ",".join(map(repr, x0.tolist())),
                     "--out-dir", str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        expected = _per_edge_sweep(graph, model, (1, 4, 7, 10), z, "analytic", x0, 1.0, 0.01)
        assert report["sweep"] == expected
        assert code in (0, 2)
        assert sum(report["summary"].values()) == graph.n_edges
        assert report["summary"]["unique-correct"] > 0


def test_analytic_sweep_needs_no_per_edge_simulation(tmp_path, monkeypatch):
    import netfdi.cli
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(netfdi.cli, "simulate_edge_failures",
                        counting("simulate_edge_failures", netfdi.cli.simulate_edge_failures))
    # the stepper looks _expm up at each call, so it picks up the counting one
    monkeypatch.setattr(netfdi.dynamics, "_expm", counting("expm", netfdi.dynamics._expm))
    monkeypatch.setattr(NetworkSystem, "remove_edge",
                        counting("NetworkSystem.remove_edge", NetworkSystem.remove_edge))
    monkeypatch.setattr(Digraph, "remove_edge",
                        counting("Digraph.remove_edge", Digraph.remove_edge))
    graph, model = write_cycle_inputs(tmp_path)
    argv = ["run", str(graph), str(model), "--sensors", "2,3", "--z", "4", "--dt", "0.01",
            "--horizon", "1", "--sweep-failures", "all-edges", "--x0", "1,2,3,4,5"]
    assert main(argv + ["--out-dir", str(tmp_path / "analytic")]) == 0
    # one matrix exponential steps the shared healthy run to the failure
    assert calls == Counter({"expm": 1})
    calls.clear()
    assert main(argv + ["--mode", "finite-difference",
                        "--out-dir", str(tmp_path / "fd")]) == 0
    assert calls == Counter({"simulate_edge_failures": 1, "expm": 6,
                             "NetworkSystem.remove_edge": 5, "Digraph.remove_edge": 5})


def test_sweep_of_edgeless_graph_is_empty(tmp_path):
    graph_path, model_path = tmp_path / "graph.json", tmp_path / "model.json"
    Digraph(3, []).save(graph_path)
    model_path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]],
                                      "Gamma": [[1.0]]}))
    for mode in ("analytic", "finite-difference"):
        out_dir = tmp_path / mode
        code = main(["run", str(graph_path), str(model_path), "--sensors", "1,2",
                     "--dt", "0.01", "--horizon", "1", "--mode", mode,
                     "--sweep-failures", "all-edges", "--x0", "1,2,3",
                     "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["sweep"] == []
        assert set(report["summary"].values()) == {0}


def test_sweep_summary_counts_outcomes(tmp_path):
    graph, model = write_cycle_inputs(tmp_path)
    star = tmp_path / "star.json"
    main(["gen", "star", "--n", "5", "-o", str(star)])
    cases = [
        (graph, "2,3", "4", {"unique-correct": 5}),
        # only edge 1 -> 2 reaches sensor 2 within budget 1
        (graph, "2", "1", {"unique-correct": 1, "undetectable-by-table": 4}),
        (star, "5", "1", {"ambiguous-with-truth": 4}),
        (star, "1,2", "1", {"undetectable-by-table": 4}),
    ]
    x0 = [1.0, 2.0, 3.0, 4.0, 5.0]
    for k, (graph_path, sensors, z, counts) in enumerate(cases):
        for mode in ("analytic", "finite-difference"):
            out_dir = tmp_path / f"case{k}_{mode}"
            main(["run", str(graph_path), str(model), "--sensors", sensors, "--z", z,
                  "--dt", "0.01", "--horizon", "2", "--mode", mode,
                  "--sweep-failures", "all-edges", "--x0", "1,2,3,4,5",
                  "--out-dir", str(out_dir)])
            report = json.loads((out_dir / "report.json").read_text())
            summary = report["summary"]
            assert list(summary) == list(SWEEP_OUTCOMES)
            assert summary == {**dict.fromkeys(SWEEP_OUTCOMES, 0), **counts}, (k, mode)
            # the same sweep scored by the library alone, from that mode's signatures
            sys_net = NetworkSystem(Digraph.load(graph_path), SubsystemModel.load(model))
            sensor_set = tuple(map(int, sensors.split(",")))
            table = lookup_table(sys_net.graph, sensor_set, 1, int(z))
            if mode == "analytic":
                detected = detect_edge_failures(sys_net, x0, 0.0, 2.0, 0.01, 1.0, sensor_set,
                                                int(z))
            else:
                cfg = DetectorConfig(z=int(z), mode=mode)
                detected = [detect(trace, sensor_set, cfg) for trace in
                            simulate_edge_failures(sys_net, x0, 0.0, 2.0, 0.01, 1.0)]
            events = diagnose(detected, table)
            tol = DetectorConfig(z=int(z)).stencil_width * 0.01
            assert sweep_summary(events, table, 1.0, tol) == summary, (k, mode)
            assert ([[ev.to_dict() for ev in records] for records in events]
                    == [entry["events"] for entry in report["sweep"]]), (k, mode)


def test_sweep_outcome_classes():
    unique = lambda *edges: IsolationResult(1.0, (1, 2), "unique", edges)
    column, silent = np.array([1, 2]), np.array([0, 0])
    assert _sweep_outcome(3, [unique(3)], column, 1.0, 0.01) == "unique-correct"
    assert _sweep_outcome(3, [unique(4)], column, 1.0, 0.01) == "unique-wrong"
    ambiguous = IsolationResult(1.0, (1, 2), "ambiguous", (2, 3))
    assert _sweep_outcome(3, [ambiguous], column, 1.0, 0.01) == "ambiguous-with-truth"
    assert _sweep_outcome(4, [ambiguous], column, 1.0, 0.01) == "ambiguous-without-truth"
    nomatch = IsolationResult(1.0, (4, 4), "nomatch", ())
    assert _sweep_outcome(3, [nomatch], column, 1.0, 0.01) == "nomatch"
    assert _sweep_outcome(3, [], column, 1.0, 0.01) == "missed"
    assert _sweep_outcome(3, [], silent, 1.0, 0.01) == "undetectable-by-table"
    assert _sweep_outcome(3, [unique(3)], silent, 1.0, 0.01) == "spurious"
    assert _sweep_outcome(3, [unique(3), unique(3)], column, 1.0, 0.01) == "spurious"
    late = IsolationResult(1.5, (1, 2), "unique", (3,))
    assert _sweep_outcome(3, [late], column, 1.0, 0.01) == "spurious"


# -- the report encoder ------------------------------------------------------------------

# an explicit alphabet (quotes, escapes, controls, non-ASCII, a lone surrogate,
# an astral char) spares Hypothesis building its Unicode table on a fresh checkout
_JSON_STRINGS = st.text(alphabet=st.sampled_from(
    list('az"\\/\n\t\x00\x7f') + ["é", "ü", "€", "\u2028", "\ud800", "\U0001f600"]))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _JSON_STRINGS,
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e16, 10**40, -2**63]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(_JSON_STRINGS, children),
        st.lists(st.one_of(st.integers(), st.booleans()))),   # bools inside int lists
    max_leaves=20)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_JSON_VALUES)
def test_report_encoder_equals_json_dumps_indent_2(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_report_encoder_edge_cases():
    for obj in ({}, [], (), {"": []}, [[]], [{}], {"é": "ü\u2028\ud800"}, [True, 1, False],
                (1, (2, 3), []), [-0.0, 1e16, 10**30],
                [float("nan"), float("inf"), float("-inf")], np.float64(0.1), "x"):
        assert _json_text(obj) == json.dumps(obj, indent=2), obj
    for bad in (np.int64(3), [object()], {(1, 2): 3}, {1: 2}):   # reports have str keys
        with pytest.raises(TypeError):
            _json_text(bad)


def test_place_analyze_and_reproduce_write_through_the_one_encoder(tmp_path, monkeypatch,
                                                                  capsys):
    texts = []
    encode = cli._json_text

    def spy(obj, indent=""):
        text = encode(obj, indent)
        if not indent:   # nested values are encoded at a deeper indent
            texts.append(text)
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    graph = tmp_path / "cycle5.json"
    assert main(["gen", "cycle", "--n", "5", "-o", str(graph)]) == 0
    capsys.readouterr()
    written = {}
    assert main(["place", str(graph), "--exact", "-o", str(tmp_path / "place.json")]) == 0
    written["place"] = (tmp_path / "place.json").read_text()
    assert capsys.readouterr().out == written["place"]
    assert main(["analyze", str(graph), "--sensors", "2,3", "--out",
                 str(tmp_path / "tables.json")]) == 0
    written["analyze"] = (tmp_path / "tables.json").read_text()
    for name in ("cycle5", "star5", "rgg"):
        assert main(["reproduce", name, "--out-dir", str(tmp_path / name)]) == 0
        written[name] = (tmp_path / name / "report.json").read_text()
    assert [text + "\n" for text in texts] == list(written.values())
