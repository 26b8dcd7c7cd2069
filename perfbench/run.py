"""netfdi benchmark: end-to-end and per-layer numbers for four workloads.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``incident``, ``placement``,
``jump_theory``.  The program is driven the way users drive it: the
``netfdi`` CLI through ``netfdi.cli.main(argv)`` on generated input files,
and the public library for jump prediction, from one process and one thread
(the sweep's own pool is the package default; ``NETFDI_THREADS`` is left as
found and recorded).

``--trace 0`` times whole cycles of calls until ``--seconds`` have passed
and prints the end-to-end metrics:

* ``setup_s``      median over separate processes of the time from process
                   start to the first timed call (imports, input generation,
                   warm-up on a tiny input), at nominal host speed;
* ``units_per_s``  work per second at the call latency below: failure
                   scenarios on ``sweep``, incidents on ``incident``,
                   ``place`` calls on ``placement``, (edge, sensor) checks on
                   ``jump_theory`` (every call of a workload does the same
                   amount of work);
* ``call_s``       latency of one user-facing call: one sweep, one
                   incident (until its artefacts are written), one
                   ``place``, one batch of 84 jump-corpus graphs; the
                   mean over the calls of a cycle of each call's median
                   over the cycles (the calls of a cycle differ in cost);
* ``peak_rss_mb``  peak resident memory of the measuring process.

Times are expressed at nominal host speed: ``calibrate.py`` times a fixed
reference kernel between the calls and each latency is divided by the
slowdown it shows next to the call, which keeps the shared host's speed
drift out of the metrics (except on ``sweep``, whose two long calls leave no room to
sample it; see ``workloads.Sweep.parallel_share``).  The record keeps the
wall-clock latencies as measured.

``--trace 1`` alternates untraced and traced cycles (at least one each)
and prints the per-layer metrics of ``tracing.py``; ``trace_overhead_share``
compares the two.  Every call's output is checked against ``truth.py``;
``attempted``/``failed`` count scenarios, incidents, place calls or
(edge, sensor) checks, so failed/attempted is the failed share; each is
counted once per run however often the cycle repeats (``workloads.Tally``),
so both depend on the seed alone.  ``correct``
is false when a check finds the program inconsistent with the independent
ground truth (tables, placement, jump values, artefact shape, exit codes);
detector verdicts that miss the failed edge are failed operations, not
incorrect output.

The last stdout line is the JSON result; a fuller record (metadata, outcome
classes, latency percentiles) goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package():
    """Put the checkout's ``src/`` first on the path and import netfdi from it."""
    src = ROOT / "src"
    if not (src / "netfdi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no netfdi sources under {src}")
    sys.path.insert(0, str(src))
    import netfdi
    import netfdi.cli  # noqa: F401  (every workload traces the same modules)
    if Path(netfdi.__file__).resolve().parent != (src / "netfdi").resolve():
        raise SystemExit(f"perfbench: imported netfdi from {netfdi.__file__}, not {src}")
    return netfdi


def _setup(name: str, seed: int, directory: Path):
    """Import, input generation and warm-up: everything before the first timed call."""
    _import_package()
    import workloads
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](directory, seed)
    workload.warm_up()
    return workload


def _probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it is ready to time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def _run_cycle(workload, tally, tracer=None, reference=None, cpu=None,
               previous_s: float = 0.0) -> tuple[list[float], int, int]:
    """One cycle of calls: per-call latencies, units of work, artefact bytes.

    With a ``calibrate.Reference``, the reference kernel is timed before
    each call, for ``calibrate.SHARE`` of the previous call's latency
    (``previous_s`` for the first).  With ``cpu`` (a list), each call's
    process CPU time is appended there.
    """
    latencies, units, nbytes = [], 0, 0
    for index, spec in enumerate(workload.cycle):
        gc.collect()
        if reference is not None:
            reference.sample(calibrate.SHARE * (latencies[-1] if latencies else previous_s))
        if tracer is None:
            cpu_start = time.process_time()
            start = time.perf_counter()
            raw = workload.run(spec)
            latencies.append(time.perf_counter() - start)
            if cpu is not None:
                cpu.append(time.process_time() - cpu_start)
        else:
            with tracer.root():
                start = time.perf_counter()
                raw = workload.run(spec)
                latencies.append(time.perf_counter() - start)
        units += workload.units(spec)
        record = workload.collect(spec, raw)
        nbytes += record["bytes"]
        tally.call = index
        workload.check(spec, record, tally)
    return latencies, units, nbytes


def _tail(latencies: list[float]) -> dict:
    """Highest whole percentile with at least ten samples above it."""
    n = len(latencies)
    out = {"samples": n, "median": statistics.median(latencies)}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = float(sorted(latencies)[max(0, math.ceil(pct / 100 * n) - 1)])
    return out


def _measure(workload, seconds: float, tally) -> tuple[dict, dict]:
    """Whole cycles until ``seconds`` have passed (calls, reference kernel
    and output checks together).  The latency is reported
    at nominal host speed (see ``calibrate``); medians keep bursts of load
    from other processes on the host out of the metrics, and the scaling
    keeps out the host's slower drift."""
    share = workload.parallel_share
    latencies, cpu, reference = [], [], calibrate.Reference()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not latencies:
        lat, units, nbytes = _run_cycle(workload, tally, cpu=cpu,
                                        reference=None if share is None else reference,
                                        previous_s=latencies[-1] if latencies else 0.0)
        latencies += lat
    scaled = latencies
    if share is not None:
        reference.sample(calibrate.SHARE * latencies[-1])
        scaled = reference.scale(latencies, share)
    # the calls of a cycle differ in cost: take each one's median over the
    # cycles, and report their mean
    n = len(workload.cycle)
    call_s = statistics.fmean(statistics.median(scaled[k::n]) for k in range(n))
    per_call = [statistics.median(latencies[k::n]) for k in range(n)]
    metrics = {
        "units_per_s": (units / len(workload.cycle) / call_s, "1/s"),
        "call_s": (call_s, "s"),
    }
    return metrics, {"cycles": len(latencies) // len(workload.cycle), "busy_s": sum(latencies),
                     "wall_call_s": _tail(latencies), "wall_per_call_median_s": per_call,
                     "reference": reference.summary(),
                     "parallel_share": share,
                     "cpu_per_wall": sum(cpu) / sum(latencies),
                     "units_per_cycle": units, "artifact_bytes_per_cycle": nbytes,
                     "latencies_s": latencies, "reference_serial_samples_s": reference.serial,
                     "reference_parallel_samples_s": reference.parallel}


def _measure_traced(workload, seconds: float, tally, spans_path: Path) -> tuple[dict, dict]:
    import tracing
    plain, traced, per_layer, calls = [], [], [], []
    spent = 0.0
    tracer = None
    while spent < seconds or not traced:
        lat, _, _ = _run_cycle(workload, tally)
        plain.append(sum(lat))
        tracer = tracing.Tracer().install()
        try:
            lat, _, nbytes = _run_cycle(workload, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(lat))
        layer = tracing.layer_metrics(tracer, nbytes)
        per_layer.append(layer)
        calls.append({k: v for k, v in layer.items() if k.endswith(".calls")})
        spent += plain[-1] + traced[-1]
    _write_spans(tracer, spans_path)
    wall = statistics.median(plain)
    metrics = {}
    for key in per_layer[0]:
        metrics[key] = statistics.median(layer[key] for layer in per_layer)
    accounted = metrics.pop("trace.self_s_total")
    metrics["trace_overhead_share"] = statistics.median(traced) / wall - 1.0
    metrics["trace_accounted_share"] = accounted / wall
    info = {"pairs": len(traced), "untraced_cycle_s": plain, "traced_cycle_s": traced,
            "calls_repeat": all(c == calls[0] for c in calls),
            "missing_wrappers": tracer.missing,
            "dominant_layer": max((k for k in metrics if k.endswith("self_s")),
                                  key=lambda k: metrics[k])}
    return {k: (v, tracing.unit(k)) for k, v in metrics.items()}, info


def _write_spans(tracer, path: Path):
    with open(path, "w") as fh:
        fh.write("id,name,parent,thread,scenario,start_s,end_s\n")
        for s in sorted(tracer.spans, key=lambda s: s.id):
            fh.write(f"{s.id},{s.name},{s.parent or ''},{s.thread},"
                     f"{'' if s.scenario is None else s.scenario},{s.start:.9f},{s.end:.9f}\n")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _metadata(args, workload, setup_samples, own_setup) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "NETFDI_THREADS": os.environ.get("NETFDI_THREADS"),
        "commit": _commit(), "source_sha256": _source_digest(),
        "setup_probe_s": setup_samples, "own_setup_s": own_setup,
        "inputs": workload.sizes,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    if args.probe:
        _setup(args.workload, args.seed, run_dir)
        print("ready", flush=True)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    _import_package()
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples, reference = [], calibrate.Reference()
    for _ in range(probes):
        reference.sample(calibrate.SHARE * (setup_samples[-1] if setup_samples else 0.5))
        setup_samples.append(_probe_setup(args.workload, args.seed))
    if setup_samples:
        reference.sample(calibrate.SHARE * setup_samples[-1])
    start = time.perf_counter()
    workload = _setup(args.workload, args.seed, run_dir)
    own_setup = time.perf_counter() - start

    tally = workloads.Tally()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, info = _measure_traced(workload, args.seconds, tally,
                                            results / f"{stem}-spans.csv")
        else:
            metrics, info = _measure(workload, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(reference.scale(setup_samples, 0.0)), "s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (peak, "MB")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not tally.problems
    meta = _metadata(args, workload, setup_samples, own_setup)
    meta["setup_reference"] = reference.summary()
    record = {"metrics": {k: v for k, (v, _) in metrics.items()}, "info": info, "meta": meta,
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_share": tally.failed / max(tally.attempted, 1),
              "classes": dict(sorted(tally.classes.items())), "problems": tally.problems}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}, seed {args.seed}: {tally.attempted} attempted, "
          f"{tally.failed} failed (share {record['failed_share']:.4f}); classes "
          + ", ".join(f"{k} {v}" for k, v in record["classes"].items()))
    for text in tally.problems:
        print(f"  check problem: {text}")
    for key, value in info.items():
        if key.endswith("samples_s") or key == "latencies_s":
            continue  # in the record file
        print(f"  {key}: {json.dumps(value, default=str)}")
    print(f"  meta: {json.dumps(meta, default=str)}")
    for key, (value, unit) in metrics.items():
        alias = workload.aliases.get(key)
        print(f"  {key:48s} {value:.6g} {unit}" + (f"  (= {alias})" if alias else ""))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
