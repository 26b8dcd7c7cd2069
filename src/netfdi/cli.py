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
isolated (ambiguous or nomatch), 3 on configuration errors, an output path
that cannot be written included (missing parent directories are made).  All
randomness flows from the --seed flag; reports are deterministic given
(config, seed).  Every command writes each file under a temporary name
beside it and renames them all once the last is written, in order
(report.json last): a failed call leaves no artefact, or the earlier whole
one.  Every CSV cell is a float at 17 significant digits,
`format(v, ".17g")`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import signal
import sys
import tempfile
import warnings
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import (FailureEvent, NetworkSystem, SubsystemModel, relative_degree,
                       simulate, simulate_edge_failures)
from .fdi import (DetectorConfig, RelationMatrix, detect, detect_edge_failures, diagnose,
                  lookup_table, relation_matrix, sweep_summary)
from .graph import (Digraph, _check_int, _validated_sensors, gen_cycle, gen_random_geometric,
                    gen_star)
from .placement import approximation_report

EXIT_OK = 0
EXIT_UNRESOLVED = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def _load(field: str, path, read):
    """read(path), with a file it cannot find, read or parse as a config error naming the field."""
    try:
        return read(path)
    except FileNotFoundError:
        raise ConfigError(f"{field}: file not found: {path}")
    except OSError as exc:   # a directory, a file without read permission
        raise ConfigError(f"{field}: cannot read {path}: {exc.strerror or exc}")
    except KeyError as exc:
        raise ConfigError(f"{field}: cannot parse {path}: missing field {_message(exc)}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: cannot parse {path}: {exc}")


def _message(exc: Exception) -> str:
    """The text of exc, without the quotes that str() puts around a KeyError's."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


@contextlib.contextmanager
def _field(name: str):
    """A library ValueError or KeyError in the block as a config error naming the field."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{name}: {_message(exc)}")


def _parse_sensors(spec: str, n_nodes: int) -> tuple[int, ...] | None:
    """Comma list of node ids, or None for 'auto'."""
    if spec.strip().lower() == "auto":
        return None
    try:
        sensors = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"sensors: expected comma-separated integers, got {spec!r}")
    with _field("sensors"):
        return _validated_sensors(sensors, n_nodes, nonempty=True)


def _parse_fail(specs, g: Digraph, sweep: bool = False) -> list[FailureEvent]:
    """The --fail events, each on an edge of g; a sweep takes at most one, for its time."""
    events = []
    for spec in specs:
        try:
            edge_text, time_text = spec.split("@")
            edge, time = int(edge_text), float(time_text)
        except ValueError:
            raise ConfigError(f"fail: expected EDGE_LABEL@TIME, got {spec!r}")
        with _field("fail"):
            events.append(FailureEvent(edge, time))
    if sweep and len(events) > 1:
        raise ConfigError("fail: a sweep takes at most one --fail, for its failure time")
    with _field("fail"):
        for event in events:
            g.edge(event.edge)
    return events


def _relation(g: Digraph, r: int, z_spec: str) -> RelationMatrix:
    """relation_matrix(g, r, z) for the --z text: an integer, or 'auto' for the default."""
    with _field("r"):
        r = _check_int(r, "relative degree", 1)
    try:
        z = None if z_spec.strip().lower() == "auto" else int(z_spec)
    except ValueError:
        raise ConfigError(f"z: expected integer or 'auto', got {z_spec!r}")
    with _field("z"):
        return relation_matrix(g, r, z)


@contextlib.contextmanager
def _artefacts(field: str, *paths):
    """Temporary names beside paths for the block to write, renamed onto paths after it.

    Missing parent directories are made first.  The renames run in the order
    of paths, and only once the whole block has succeeded, so a failed write
    leaves every path as it was, absent or whole, and no temporary name
    behind.  A symbolic link is followed, so the file it names is replaced
    and the link kept.  A path that exists as anything but a regular file (a
    FIFO, /dev/stdout) is written in place, since a rename would replace it.
    An OSError is a config error naming the field, as a missing input file
    is in ``_load``, and the path, not its temporary name; an error that
    carries no file name names the one path, or the directory of them all.
    """
    paths = [Path(path) for path in paths]
    # asked of the path itself: /dev/stdout resolves to no file when it is a pipe
    in_place = [path.exists() and not path.is_file() for path in paths]
    targets = [path if keep else Path(os.path.realpath(path))
               for path, keep in zip(paths, in_place)]
    temps = []
    try:
        for target in targets:
            target.parent.mkdir(parents=True, exist_ok=True)
        temps = [target if keep else
                 target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
                 for target, keep in zip(targets, in_place)]
        yield temps
        for temp, target in zip(temps, targets):
            if temp != target:
                os.replace(temp, target)
    except OSError as exc:
        names = {str(temp): path for temp, path in zip(temps, paths)}
        name = names.get(exc.filename, exc.filename) or (
            paths[0] if len(paths) == 1 else os.path.commonpath(paths))
        raise ConfigError(f"{field}: cannot write {name}: {exc.strerror or exc}")
    finally:
        for temp, target in zip(temps, targets):
            if temp != target:
                temp.unlink(missing_ok=True)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without json's pure-Python path.

    json falls back to a generator per value when it indents; here each
    list of plain ints (R, D, signatures, edge lists) is one ``str.join``,
    and strings go through json's own C escaper.  Dict keys must be str
    (every report's are); any other key, like any type json cannot write,
    is a TypeError.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = (_json_text(item, inner) for item in obj)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = (f"{_encode_str(key)}: {_json_text(value, inner)}" for key, value in obj.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict):
    path.write_text(_json_text(payload) + "\n")


def _trace_table(trace):
    """(header, blocks) of the trace CSV: the network states x (no exosystem state), then y."""
    n, d, o = trace.n_nodes, trace.state_dim, trace.output_dim
    header = (["t"]
              + [f"x_{i}_{l}" for i in range(1, n + 1) for l in range(1, d + 1)]
              + [f"y_{i}_{c}" for i in range(1, n + 1) for c in range(1, o + 1)])
    return header, (trace.states[:, : n * d], trace.outputs)


def _derivatives_table(trace, sensors, z: int):
    """(header, blocks) of the plot data: per sensor, the output and its first z derivatives."""
    o = trace.output_dim
    values = trace.derivatives(sensors, z)
    header = ["t"] + [f"y_{p}_{c}_d{k}"
                      for p in sensors for c in range(1, o + 1) for k in range(z + 1)]
    return header, (values.transpose(3, 0, 2, 1).reshape(len(trace.times), -1),)


#: samples per chunk of a CSV write: each writing process holds only one
#: chunk's formatted text in memory, whatever the length of the trace
CSV_CHUNK_ROWS = 128


def _write_csv(times: np.ndarray,
               files: Sequence[tuple[str | Path, Sequence[str], Sequence[np.ndarray]]]):
    """Write each (path, header, blocks) of files as `t,<row of each block>` per sample.

    Each block is shaped (n_samples, width); all files share the time axis.
    The samples are split at CSV_CHUNK_ROWS boundaries into one range per
    CPU the process may use (at most one per chunk).  This process writes
    the headers and the first range into the files; each further range is
    written by a forked child into an anonymous temporary file, which is
    then appended in order with ``os.sendfile``, so the bytes are those of
    one writer.  A child that fails is an OSError.  With one CPU, one chunk
    or no ``os.fork``, every range is written here.  Nothing sets the
    number of writers but the affinity mask.  ``_write_rows`` gives the
    format of a range.
    """
    times = np.ascontiguousarray(times, dtype=float)
    n_chunks = -(-len(times) // CSV_CHUNK_ROWS)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    parts = max(1, min(len(os.sched_getaffinity(0)) if forks else 1, n_chunks))
    bounds = [CSV_CHUNK_ROWS * (n_chunks * k // parts) for k in range(parts)] + [len(times)]
    with contextlib.ExitStack() as stack:
        handles = [(stack.enter_context(open(path, "w")), blocks) for path, _, blocks in files]
        # per further range, one anonymous spill file per file, made before
        # the fork so that this process holds them too
        spills = [[(stack.enter_context(tempfile.TemporaryFile("w")), blocks)
                   for _, blocks in handles] for _ in bounds[2:]]
        pids = []
        try:
            for (lo, hi), spill in zip(zip(bounds[1:], bounds[2:]), spills):
                pids.append(_fork_writer(times, spill, lo, hi))
            for (fh, _), (_, header, _) in zip(handles, files):
                fh.write(",".join(header) + "\n")
            _write_rows(times, handles, bounds[0], bounds[1])
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for code, lo, hi in zip(codes, bounds[1:], bounds[2:]):
            if code:
                raise OSError(f"the writer of samples {lo}..{hi - 1} exited with code {code}")
        for f, (fh, _) in enumerate(handles):
            fh.flush()
            for spill in spills:
                _append(fh.fileno(), spill[f][0].fileno())


def _fork_writer(times: np.ndarray, handles, lo: int, hi: int) -> int:
    """Fork a child that runs ``_write_rows(times, handles, lo, hi)``; return its pid.

    The child leaves by ``os._exit``, 0 once the handles are flushed and 1
    on any exception, so it never flushes or closes the parent's files.
    It formats and writes Python strings only: no BLAS call and no logging.
    """
    with warnings.catch_warnings():
        # Python 3.12+ warns on forking a process that has threads (here
        # BLAS's idle workers); the child takes none of their locks
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _write_rows(times, handles, lo, hi)
        for fh, _ in handles:
            fh.flush()
        code = 0
    finally:
        os._exit(code)


def _append(out_fd: int, in_fd: int):
    """Append the whole file in_fd to out_fd in the kernel, with no Python buffer."""
    size, sent = os.fstat(in_fd).st_size, 0
    while sent < size:
        n = os.sendfile(out_fd, in_fd, sent, size - sent)
        if not n:
            raise OSError(f"spill file ended at byte {sent} of {size}")
        sent += n


def _write_rows(times: np.ndarray, handles, lo: int, hi: int):
    """Write rows [lo, hi) of each (handle, blocks) in handles, CSV_CHUNK_ROWS at a time.

    In a chunk, every distinct column of every file (t included) is
    formatted once, keyed by its float64 bytes, with one "%.17g" template
    over the whole column.  Columns that are bit copies (an output equal to
    a state, the t column of each file) share that text; columns equal in
    value only (0.0 and -0.0, NaNs) do not.  So each cell is
    `format(v, ".17g")`, whichever columns repeat, and the bytes are those
    of a row-by-row writer.
    """
    for a in range(lo, hi, CSV_CHUNK_ROWS):
        rows = slice(a, min(a + CSV_CHUNK_ROWS, hi))
        template = "%.17g\n" * len(times[rows])
        cells = {}
        for fh, blocks in handles:
            columns = [times[rows]]
            for block in blocks:
                columns.extend(np.ascontiguousarray(block[rows].T, dtype=float))
            texts = []
            for col in columns:
                key = col.tobytes()
                if key not in cells:
                    cells[key] = (template % tuple(col.tolist()))[:-1].split("\n")
                texts.append(cells[key])
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "rgg" and args.radius is None:
        raise ConfigError("radius: required for rgg")
    try:
        if args.family == "cycle":
            g = gen_cycle(args.n)
        elif args.family == "star":
            g = gen_star(args.n)
        else:
            g = gen_random_geometric(args.n, args.region_side, args.radius, args.seed)
    except ValueError as exc:
        # radius and region_side errors open with the field; the others are on n
        field = next((f for f in ("radius", "region_side") if str(exc).startswith(f)), "n")
        raise ConfigError(f"{field}: {exc}")
    with _artefacts("output", args.output) as (output,):
        g.save(output)
    print(f"wrote {args.family} graph with {g.n_nodes} nodes, {g.n_edges} edges "
          f"to {args.output}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load("graph", args.graph, Digraph.load)
    rel = _relation(g, args.r, args.z)
    sensors = _parse_sensors(args.sensors, g.n_nodes)
    if sensors is None:
        raise ConfigError("sensors: analyze needs an explicit sensor list")
    table = lookup_table(g, sensors, rel.r, rel.z)
    with _artefacts("out", args.out) as (out,):
        _write_json(out, {
            "R": rel.entries.tolist(),
            "D": table.table.tolist(),
            "z": rel.z,
            "r": rel.r,
            "sensors": list(sensors),
            "edge_labels": list(rel.edge_labels),
        })
    print(f"wrote R ({rel.n_edges}x{rel.n_nodes}) and D ({len(sensors)}x{rel.n_edges}) "
          f"to {args.out}")
    return EXIT_OK


def cmd_place(args) -> int:
    g = _load("graph", args.graph, Digraph.load)
    rel = _relation(g, args.r, args.z)
    with _field("exact"):
        report = approximation_report(rel, exact=args.exact)
    text = _json_text(report.to_dict())
    if args.output:
        with _artefacts("output", args.output) as (output,):
            output.write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = _load("graph", args.graph, Digraph.load)
    model = _load("model", args.model, SubsystemModel.load)
    sys_net = NetworkSystem(g, model)
    x0 = _resolve_x0(args.x0, sys_net, args.seed)
    schedule = _parse_fail(args.fail, g)
    with _field("simulate"):
        trace = simulate(sys_net, x0, 0.0, args.t_end, args.dt, schedule)
    with _artefacts("output", args.output) as (output,):
        _write_csv(trace.times, [(output, *_trace_table(trace))])
    print(f"wrote {len(trace.times)} samples to {args.output}")
    return EXIT_OK


def _resolve_x0(spec, sys_net, seed):
    if spec is None:
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, 1.0, sys_net.n_states)
    try:
        x0 = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError:
        raise ConfigError(f"x0: expected comma-separated reals, got {spec!r}")
    if x0.size != sys_net.n_states:
        raise ConfigError(f"x0: expected {sys_net.n_states} entries, got {x0.size}")
    return x0


def cmd_run(args) -> int:
    if not args.graph or not args.model:
        raise ConfigError("graph/model: required (positionally or via --config)")
    g = _load("graph", args.graph, Digraph.load)
    model = _load("model", args.model, SubsystemModel.load)
    sys_net = NetworkSystem(g, model)
    rel = _relation(g, relative_degree(model), args.z)
    out_dir = Path(args.out_dir)

    placement_payload = None
    sensors = _parse_sensors(args.sensors, g.n_nodes)
    if sensors is None:
        report = approximation_report(rel)
        placement_payload = report.to_dict()
        sensors = report.m_d
        if not sensors:
            raise ConfigError("sensors: auto placement chose none, since the graph has "
                              "no edges to watch; pass an explicit list")
        if report.m_i is None:
            print("warning: isolation impossible (f_I(V) != 0); "
                  "auto sensors degrade to detection-only", file=sys.stderr)

    x0 = _resolve_x0(args.x0, sys_net, args.seed)
    sweeping = args.sweep_failures == "all-edges"
    schedule = _parse_fail(args.fail, g, sweeping)
    table = lookup_table(g, sensors, rel.r, rel.z)
    cfg = DetectorConfig(z=rel.z, mode=args.mode)
    if sweeping:
        # every edge fails in turn; a --fail gives only the time
        t_fail = schedule[0].time if schedule else args.horizon / 2
    # one signature list per scenario: the run itself, or each swept edge
    with _field("sweep" if sweeping else "run"):
        if not sweeping:
            trace = simulate(sys_net, x0, 0.0, args.horizon, args.dt, schedule)
            detected = [detect(trace, sensors, cfg)]
        elif cfg.mode == "analytic":
            # the analytic verdicts need only the state at the failure
            detected = detect_edge_failures(sys_net, x0, 0.0, args.horizon,
                                            args.dt, t_fail, sensors, rel.z)
        else:
            detected = [detect(trace, sensors, cfg) for trace in simulate_edge_failures(
                sys_net, x0, 0.0, args.horizon, args.dt, t_fail)]

    diagnosed = diagnose(detected, table)
    if sweeping:
        sweep = [{"edge": label, "events": [ev.to_dict() for ev in events]}
                 for label, events in zip(g.edge_labels, diagnosed)]
        # an event within one stencil width of t_fail belongs to the failure
        summary = sweep_summary(diagnosed, table, t_fail, cfg.stencil_width * args.dt)
        payload = {"sweep": sweep, "summary": summary}
        names, done = ["report.json"], f"swept {len(sweep)} edges"
    else:
        [events] = diagnosed
        payload = {"events": [ev.to_dict() for ev in events]}
        names, done = ["trace.csv", "derivatives.csv", "report.json"], f"{len(events)} event(s)"
    payload.update(tables={"R": rel.entries.tolist(), "D": table.table.tolist(),
                           "z": rel.z, "r": rel.r},
                   placement=placement_payload, sensors=list(sensors))

    with _artefacts("out_dir", *(out_dir / name for name in names)) as (*csvs, report):
        if not sweeping:
            # one pass over both files: t, and outputs that copy states or
            # reappear as order-0 derivatives, are formatted once
            trace_csv, derivatives_csv = csvs
            _write_csv(trace.times, [(trace_csv, *_trace_table(trace)),
                                     (derivatives_csv, *_derivatives_table(trace, sensors, cfg.z))])
        _write_json(report, payload)
    print(f"{done}; report in {out_dir}")
    return EXIT_OK if all(ev.is_unique for evs in diagnosed for ev in evs) else EXIT_UNRESOLVED


# RGG reproduction constants; pinned so reports are bit-stable run to run.
RGG_NODES = 50
RGG_REGION = 1.0
RGG_RADIUS = 0.25
RGG_SEED = 20240517


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    if args.name == "cycle5":
        with _artefacts("out_dir", out_dir / "graph.json", out_dir / "model.json") as (
                graph, model):
            gen_cycle(5).save(graph)
            SubsystemModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]]).save(model)
        return main(["run", str(out_dir / "graph.json"), str(out_dir / "model.json"),
                     "--sensors", "2,3", "--z", "4", "--dt", "1e-3", "--horizon", "10",
                     "--fail", "2@5", "--x0", "1,2,3,4,5", "--out-dir", str(out_dir)])
    if args.name == "star5":
        g = gen_star(5)
        rel = relation_matrix(g, r=1, z=1)
        report = approximation_report(rel, exact=True)
        with _artefacts("out_dir", out_dir / "graph.json", out_dir / "report.json") as (
                graph, report_json):
            g.save(graph)
            _write_json(report_json, {
                "R": rel.entries.tolist(),
                "placement": report.to_dict(),
            })
        print(f"star5: f_I(V)={report.f_i_of_v}, M_I="
              f"{'EMPTY' if report.m_i is None else list(report.m_i)}")
        return EXIT_OK
    # rgg, since the parser's choices admit no other name
    g = gen_random_geometric(RGG_NODES, RGG_REGION, RGG_RADIUS, RGG_SEED)
    rel = relation_matrix(g, r=1)
    report = approximation_report(rel)
    payload = report.to_dict()
    payload["n_nodes"] = g.n_nodes
    payload["n_edges"] = g.n_edges
    payload["unresolved_with_M_D"] = report.f_i_trace[0]
    with _artefacts("out_dir", out_dir / "graph.json", out_dir / "report.json") as (
            graph, report_json):
        g.save(graph)
        _write_json(report_json, payload)
    print(f"rgg: {g.n_edges} edges, |M_D|={len(report.m_d)}, "
          f"f_I(V)={report.f_i_of_v}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


#: the run settings that neither the command line nor a config gives
RUN_DEFAULTS = {"graph": None, "model": None, "sensors": "auto", "z": "auto", "dt": 1e-3,
                "horizon": 10.0, "fail": (), "mode": "analytic", "x0": None, "seed": 0,
                "out_dir": "netfdi_out", "sweep_failures": None}


def _config_defaults(p_run: argparse.ArgumentParser, path: str) -> dict:
    """Run settings from a JSON config, each field read exactly as its argument is.

    A JSON array stands for a comma list, or for the repeats of a repeatable
    flag.  ``main`` lays them over ``RUN_DEFAULTS`` and under the command line.
    """
    data = _load("config", path, lambda p: json.loads(Path(p).read_text()))
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a JSON object in {path}")
    actions = {a.dest: a for a in p_run._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in data.items():
        action = actions.get(key)
        if action is None:
            raise ConfigError(f"config: unknown field {key!r}")
        tokens = [v if isinstance(v, str) else json.dumps(v)
                  for v in (value if isinstance(value, list) else [value])]
        repeated = isinstance(action, argparse._AppendAction)
        try:
            values = [p_run._get_values(action, [tok])
                      for tok in (tokens if repeated else [",".join(tokens)])]
        except argparse.ArgumentError as exc:
            raise ConfigError(f"config: {exc}")
        defaults[key] = values if repeated else values[0]
    return defaults


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The netfdi parser and its run subparser, the one reader of run settings.

    Built on the first ``main`` call and shared by every later one; nothing
    writes to it after this returns.  The run subparser stores only the
    arguments given, so ``main`` can tell them from a config's settings and
    from ``RUN_DEFAULTS``.
    """
    parser = argparse.ArgumentParser(prog="netfdi", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph JSON file")
    p_gen.add_argument("family", choices=["cycle", "star", "rgg"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--region-side", type=float, default=1.0)
    p_gen.add_argument("--radius", type=float, default=None)
    p_gen.add_argument("--seed", type=_seed, default=0)
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
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--dt", type=float, required=True)
    p_sim.add_argument("--fail", action="append", default=[])
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("-o", "--output", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="full detect/isolate pipeline",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("graph", nargs="?")
    p_run.add_argument("model", nargs="?")
    p_run.add_argument("--sensors")
    p_run.add_argument("--z")
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--horizon", type=float)
    p_run.add_argument("--fail", action="append")
    p_run.add_argument("--mode", choices=["analytic", "finite-difference"])
    p_run.add_argument("--x0")
    p_run.add_argument("--seed", type=_seed)
    p_run.add_argument("--out-dir")
    p_run.add_argument("--sweep-failures", choices=["all-edges"])
    p_run.add_argument("--config")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="rebuild canned scenarios")
    p_rep.add_argument("name", choices=["cycle5", "star5", "rgg"])
    p_rep.add_argument("--out-dir", default="netfdi_out")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser, p_run


def main(argv=None) -> int:
    parser, p_run = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            # the command line beats the config, which beats the built-in defaults
            config = _config_defaults(p_run, args.config) if getattr(args, "config", None) else {}
            args = argparse.Namespace(**{**RUN_DEFAULTS, **config, **vars(args)})
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are config errors here
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
