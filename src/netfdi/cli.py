"""netfdi command line: generate graphs, analyze tables, place sensors, run FDI.

Subcommands
-----------
gen        write a cycle / star / random-geometric graph as JSON
analyze    emit the relation matrix R and lookup table D for a sensor set
place      greedy (optionally exact) sensor placement report
simulate   integrate a failure scenario and dump the trace CSV
run        full pipeline: simulate, detect, isolate, report + plot data
reproduce  canned end-to-end scenarios (cycle5, star5, rgg)

Exit codes: 0 success, 2 when some detected event could not be uniquely
isolated (ambiguous or nomatch), 3 on configuration errors.  All randomness
flows from the --seed flag; reports are deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (FailureEvent, NetworkSystem, SubsystemModel, _write_csv,
                       relative_degree, simulate, simulate_edge_failures)
from .fdi import (DetectorConfig, default_order_budget, detect, detect_edge_failures,
                  isolate, lookup_table, relation_matrix)
from .graph import Digraph, gen_cycle, gen_random_geometric, gen_star
from .placement import approximation_report

EXIT_OK = 0
EXIT_UNRESOLVED = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def _load_graph(path: str) -> Digraph:
    try:
        return Digraph.load(path)
    except FileNotFoundError:
        raise ConfigError(f"graph: file not found: {path}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"graph: cannot parse {path}: {exc}")


def _load_model(path: str) -> SubsystemModel:
    try:
        return SubsystemModel.load(path)
    except FileNotFoundError:
        raise ConfigError(f"model: file not found: {path}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"model: cannot parse {path}: {exc}")


def _parse_sensors(spec, n_nodes: int) -> tuple[int, ...] | None:
    """Comma list (or JSON array) of node ids, or None for 'auto'."""
    if isinstance(spec, str) and spec.strip().lower() == "auto":
        return None
    try:
        if isinstance(spec, str):
            sensors = tuple(int(tok) for tok in spec.split(",") if tok.strip())
        else:
            sensors = tuple(int(tok) for tok in spec)
    except (TypeError, ValueError):
        raise ConfigError(f"sensors: expected comma-separated integers, got {spec!r}")
    if not sensors:
        raise ConfigError("sensors: empty list")
    for i, p in enumerate(sensors):
        if not 1 <= p <= n_nodes:
            raise ConfigError(f"sensors: node {p} outside 1..{n_nodes}")
        if p in sensors[:i]:
            raise ConfigError(f"sensors: duplicate node {p}")
    return sensors


def _parse_fail(specs) -> list[FailureEvent]:
    events = []
    for spec in specs or ():
        try:
            edge_text, time_text = spec.split("@")
            events.append(FailureEvent(int(edge_text), float(time_text)))
        except ValueError:
            raise ConfigError(f"fail: expected EDGE_LABEL@TIME, got {spec!r}")
    return events


def _parse_z(spec, g: Digraph, r: int) -> int:
    if isinstance(spec, str) and spec.strip().lower() == "auto":
        return default_order_budget(g, r)
    try:
        z = int(spec)
    except (TypeError, ValueError):
        raise ConfigError(f"z: expected integer or 'auto', got {spec!r}")
    if z < r:
        raise ConfigError(f"z: budget {z} below relative degree {r}")
    return z


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _derivatives_csv(path: Path, trace, sensors, z: int):
    """Plot data: per sensor, the output and its first z derivatives."""
    o = trace.output_dim
    values = trace.derivatives(sensors, z)
    header = ["t"] + [f"y_{p}_{c}_d{k}"
                      for p in sensors for c in range(1, o + 1) for k in range(z + 1)]
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, header, trace.times,
               values.transpose(3, 0, 2, 1).reshape(len(trace.times), -1))


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "cycle":
        g = gen_cycle(args.n)
    elif args.family == "star":
        g = gen_star(args.n)
    else:
        if args.radius is None:
            raise ConfigError("radius: required for rgg")
        g = gen_random_geometric(args.n, args.region_side, args.radius, args.seed)
    g.save(args.output)
    print(f"wrote {args.family} graph with {g.n_nodes} nodes, {g.n_edges} edges "
          f"to {args.output}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    r = args.r
    if r < 1:
        raise ConfigError(f"r: must be >= 1, got {r}")
    z = _parse_z(args.z, g, r)
    sensors = _parse_sensors(args.sensors, g.n_nodes)
    if sensors is None:
        raise ConfigError("sensors: analyze needs an explicit sensor list")
    rel = relation_matrix(g, r, z)
    table = lookup_table(g, sensors, r, z)
    _write_json(Path(args.out), {
        "R": rel.entries.tolist(),
        "D": table.table.tolist(),
        "z": z,
        "r": r,
        "sensors": list(sensors),
        "edge_labels": list(rel.edge_labels),
    })
    print(f"wrote R ({rel.n_edges}x{rel.n_nodes}) and D ({len(sensors)}x{rel.n_edges}) "
          f"to {args.out}")
    return EXIT_OK


def cmd_place(args) -> int:
    g = _load_graph(args.graph)
    if args.r < 1:
        raise ConfigError(f"r: must be >= 1, got {args.r}")
    z = _parse_z(args.z, g, args.r)
    rel = relation_matrix(g, args.r, z)
    try:
        report = approximation_report(rel, exact=args.exact)
    except ValueError as exc:
        raise ConfigError(f"exact: {exc}")
    payload = report.to_dict()
    text = json.dumps(payload, indent=2)
    if args.output:
        _write_json(Path(args.output), payload)
    print(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    model = _load_model(args.model)
    sys_net = NetworkSystem(g, model)
    x0 = _resolve_x0(args.x0, sys_net, args.seed)
    schedule = _parse_fail(args.fail)
    try:
        trace = simulate(sys_net, x0, args.t0, args.t_end, args.dt, schedule)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"simulate: {exc}")
    trace.to_csv(args.output)
    print(f"wrote {len(trace.times)} samples to {args.output}")
    return EXIT_OK


def _resolve_x0(spec, sys_net, seed):
    if spec is None:
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 1.0, sys_net.n_states)
    try:
        if isinstance(spec, str):
            x0 = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
        else:
            x0 = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"x0: expected comma-separated reals, got {spec!r}")
    if x0.size != sys_net.n_states:
        raise ConfigError(f"x0: expected {sys_net.n_states} entries, got {x0.size}")
    return x0


def _report_events(signatures, table):
    """Isolate every detected event of one trace: (report events, all unique)."""
    events = []
    all_unique = True
    for sig in signatures:
        verdict = isolate(sig, table)
        all_unique &= verdict.is_unique
        events.append({
            "t": sig.time,
            "signature": [int(k) for k in sig.orders],
            "verdict": verdict.verdict,
            "edges": list(verdict.edges),
        })
    return events, all_unique


SWEEP_OUTCOMES = ("unique-correct", "unique-wrong", "ambiguous-with-truth",
                  "ambiguous-without-truth", "nomatch", "missed", "undetectable-by-table",
                  "spurious")


def _sweep_outcome(edge: int, events, column, t_fail: float, tol: float) -> str:
    """Outcome of one swept edge against its known failure and its table column.

    A second event, or one farther than tol from t_fail, is spurious; so is
    an event for an edge whose column says no sensor can see it.
    """
    if len(events) > 1 or any(abs(ev["t"] - t_fail) > tol for ev in events):
        return "spurious"
    if not events:
        return "missed" if column.any() else "undetectable-by-table"
    if not column.any():
        return "spurious"
    verdict, edges = events[0]["verdict"], events[0]["edges"]
    if verdict == "unique":
        return "unique-correct" if edges == [edge] else "unique-wrong"
    if verdict == "ambiguous":
        return "ambiguous-with-truth" if edge in edges else "ambiguous-without-truth"
    return "nomatch"


def cmd_run(args) -> int:
    if args.config:
        args = _merge_config(args)
    if not args.graph or not args.model:
        raise ConfigError("graph/model: required (positionally or via --config)")
    g = _load_graph(args.graph)
    model = _load_model(args.model)
    sys_net = NetworkSystem(g, model)
    r = relative_degree(model)
    z = _parse_z(args.z, g, r)
    out_dir = Path(args.out_dir)

    placement_payload = None
    rel = relation_matrix(g, r, z)
    sensors = _parse_sensors(args.sensors, g.n_nodes)
    if sensors is None:
        report = approximation_report(rel)
        placement_payload = report.to_dict()
        sensors = report.m_d
        if report.m_i is None:
            print("warning: isolation impossible (f_I(V) != 0); "
                  "auto sensors degrade to detection-only", file=sys.stderr)

    x0 = _resolve_x0(args.x0, sys_net, args.seed)
    schedule = _parse_fail(args.fail)
    table = lookup_table(g, sensors, r, z)
    try:
        cfg = DetectorConfig(z=z, mode=args.mode)
    except ValueError as exc:
        raise ConfigError(f"mode: {exc}")
    tables = {"R": rel.entries.tolist(), "D": table.table.tolist(), "z": z, "r": r}

    if args.sweep_failures == "all-edges":
        mid = args.t0 + (args.horizon - args.t0) / 2
        t_fail = schedule[0].time if schedule else mid
        try:
            if cfg.mode == "analytic":
                # the analytic verdicts need only the state at the failure
                detected = detect_edge_failures(sys_net, x0, args.t0, args.horizon,
                                                args.dt, t_fail, sensors, z)
            else:
                detected = [detect(trace, sensors, cfg) for trace in simulate_edge_failures(
                    sys_net, x0, args.t0, args.horizon, args.dt, t_fail)]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"sweep: {exc}")
        sweep = []
        summary = dict.fromkeys(SWEEP_OUTCOMES, 0)
        all_unique = True
        # an event within one stencil width of t_fail belongs to the failure
        tol = cfg.stencil_width * args.dt
        for label, signatures in zip(g.edge_labels, detected):
            events, ok = _report_events(signatures, table)
            sweep.append({"edge": label, "events": events})
            summary[_sweep_outcome(label, events, table.column(label), t_fail, tol)] += 1
            all_unique &= ok
        payload = {
            "sweep": sweep,
            "summary": summary,
            "tables": tables,
            "placement": placement_payload,
            "sensors": list(sensors),
        }
        _write_json(out_dir / "report.json", payload)
        print(f"swept {len(sweep)} edges; report in {out_dir}")
        return EXIT_OK if all_unique else EXIT_UNRESOLVED

    try:
        trace = simulate(sys_net, x0, args.t0, args.horizon, args.dt, schedule)
        events, all_unique = _report_events(detect(trace, sensors, cfg), table)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"run: {exc}")
    payload = {
        "events": events,
        "tables": tables,
        "placement": placement_payload,
        "sensors": list(sensors),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", payload)
    trace.to_csv(out_dir / "trace.csv")
    _derivatives_csv(out_dir / "derivatives.csv", trace, sensors, z)
    print(f"{len(events)} event(s); report in {out_dir}")
    return EXIT_OK if all_unique else EXIT_UNRESOLVED


def _merge_config(args):
    """Overlay run.json values onto argparse defaults (flags win)."""
    try:
        data = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: cannot parse {args.config}: {exc}")
    known = {"graph", "model", "sensors", "z", "dt", "t0", "horizon", "fail",
             "mode", "seed", "out_dir", "x0", "sweep_failures"}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"config: unknown field {key!r}")
        if getattr(args, key, None) in (None, [], ()) or key not in args._explicit:
            setattr(args, key, value)
    for field in ("graph", "model"):
        if getattr(args, field, None) is None:
            raise ConfigError(f"config: missing required field {field!r}")
    return args


# RGG reproduction constants; pinned so reports are bit-stable run to run.
RGG_NODES = 50
RGG_REGION = 1.0
RGG_RADIUS = 0.25
RGG_SEED = 20240517


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.name == "cycle5":
        g = gen_cycle(5)
        model = SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        g.save(out_dir / "graph.json")
        model.save(out_dir / "model.json")
        ns = argparse.Namespace(
            graph=str(out_dir / "graph.json"), model=str(out_dir / "model.json"),
            sensors="2,3", z="4", dt=1e-3, t0=0.0, horizon=10.0, fail=["2@5"],
            mode="analytic", seed=0, out_dir=str(out_dir), x0="1,2,3,4,5",
            sweep_failures=None, config=None, _explicit=set())
        return cmd_run(ns)
    if args.name == "star5":
        g = gen_star(5)
        g.save(out_dir / "graph.json")
        rel = relation_matrix(g, r=1, z=1)
        report = approximation_report(rel, exact=True)
        _write_json(out_dir / "report.json", {
            "R": rel.entries.tolist(),
            "placement": report.to_dict(),
        })
        print(f"star5: f_I(V)={report.f_i_of_v}, M_I="
              f"{'EMPTY' if report.m_i is None else list(report.m_i)}")
        return EXIT_OK
    if args.name == "rgg":
        g = gen_random_geometric(RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED)
        g.save(out_dir / "graph.json")
        rel = relation_matrix(g, r=1)
        report = approximation_report(rel)
        payload = report.to_dict()
        payload["n_nodes"] = g.n_nodes
        payload["n_edges"] = g.n_edges
        payload["unresolved_with_M_D"] = report.f_i_trace[0]
        _write_json(out_dir / "report.json", payload)
        print(f"rgg: {g.n_edges} edges, |M_D|={len(report.m_d)}, "
              f"f_I(V)={report.f_i_of_v}")
        return EXIT_OK
    raise ConfigError(f"name: unknown scenario {args.name!r}")


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netfdi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph JSON file")
    p_gen.add_argument("family", choices=["cycle", "star", "rgg"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--region-side", type=float, default=1.0)
    p_gen.add_argument("--radius", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="emit R and D tables")
    p_an.add_argument("graph")
    p_an.add_argument("--r", type=int, default=1)
    p_an.add_argument("--z", default="auto")
    p_an.add_argument("--sensors", required=True)
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_pl = sub.add_parser("place", help="greedy sensor placement report")
    p_pl.add_argument("graph")
    p_pl.add_argument("--r", type=int, default=1)
    p_pl.add_argument("--z", default="auto")
    p_pl.add_argument("--exact", action="store_true")
    p_pl.add_argument("-o", "--output")
    p_pl.set_defaults(func=cmd_place)

    p_sim = sub.add_parser("simulate", help="simulate and dump trace CSV")
    p_sim.add_argument("graph")
    p_sim.add_argument("model")
    p_sim.add_argument("--x0", default=None)
    p_sim.add_argument("--t0", type=float, default=0.0)
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--dt", type=float, required=True)
    p_sim.add_argument("--fail", action="append", default=[])
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("-o", "--output", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="full detect/isolate pipeline")
    p_run.add_argument("graph", nargs="?")
    p_run.add_argument("model", nargs="?")
    p_run.add_argument("--sensors", default="auto")
    p_run.add_argument("--z", default="auto")
    p_run.add_argument("--dt", type=float, default=1e-3)
    p_run.add_argument("--t0", type=float, default=0.0)
    p_run.add_argument("--horizon", type=float, default=10.0)
    p_run.add_argument("--fail", action="append", default=[])
    p_run.add_argument("--mode", choices=["analytic", "finite-difference"],
                       default="analytic")
    p_run.add_argument("--x0", default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out-dir", default="netfdi_out")
    p_run.add_argument("--sweep-failures", choices=["all-edges"], default=None)
    p_run.add_argument("--config", default=None)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="rebuild canned scenarios")
    p_rep.add_argument("name", choices=["cycle5", "star5", "rgg"])
    p_rep.add_argument("--out-dir", default="netfdi_out")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are config errors here
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    args._explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                      for a in (argv if argv is not None else sys.argv[1:])
                      if a.startswith("--")}
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
