#!/usr/bin/env python3
"""triheat benchmark: one workload against the package in this checkout.

    python3 perfbench/run.py --workload figure_sweeps --seed 1 --seconds 44 --trace 0

Workloads: figure_sweeps, steady_points, time_domain (see workloads.py).
Each is a closed loop with one client in one process: the next CLI call
starts when the previous one has returned. The first pass over the
workload's calls always runs to the end; after it, the calls repeat in
order for as long as each still fits into --seconds.

Output: one line per metric ("metric <name> <value> <unit>"), then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 the per-layer ones, from a run that calls
each unit once untraced and once traced. A full record (environment, every
metric) is written to .perfbench_out/, and a traced run's spans beside it.
Exits 2 without a result if the package cannot be imported from src/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, in this process and in the set-up probes it
# starts: BLAS threads make the 144x144 solves noisy, and the workloads run
# one client on a 2-core box. The package itself pins nothing.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracer import LAYERS, Tracer, call_samples, median_or_zero, request_stats
from workloads import WORKLOADS, load_program, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 12


def measure(cli_main, units, seconds: float, tracer: Tracer | None, between):
    """Call the units in order, cyclically, until ``seconds`` are used.

    After the first full pass a unit starts only if its median time so far
    still fits; one that does not is skipped, and the run ends when none
    fits. With a tracer each unit runs untraced, then traced; the traced
    call's spans carry its request number. ``between(elapsed)`` runs before
    each call, outside the call's latency but inside ``seconds``.

    Returns per-unit latency samples {traced: {unit index: [s]}}, the request
    numbers of the traced calls per unit, and (attempted, failed).
    """
    latencies: dict[bool, dict[int, list[float]]] = {False: defaultdict(list), True: defaultdict(list)}
    requests: dict[int, list[int]] = defaultdict(list)
    attempted = failed = 0
    modes = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    skipped = 0
    for i in itertools.count():
        k = i % len(units)
        if i >= len(units):
            guess = sum(statistics.median(latencies[m][k]) for m in modes)
            if time.perf_counter() - start + guess > seconds:
                skipped += 1
                if skipped == len(units):
                    break
                continue
        skipped = 0
        between(time.perf_counter() - start)
        unit = units[k]
        for traced in modes:
            out = io.StringIO()
            if traced:
                tracer.request = i
                requests[k].append(i)
                tracer.install()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    if traced:
                        code = tracer.call("cli", f"cli.{unit.argv[0]}", cli_main, unit.argv)
                    else:
                        code = cli_main(unit.argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = -1
            finally:
                latencies[traced][k].append(time.perf_counter() - t0)
                if traced:
                    tracer.uninstall()
            a, f = unit.check(code, out.getvalue())
            attempted += a
            failed += f
    return latencies, requests, (attempted, failed)


def upper_quartile(values: list[float]) -> float:
    """Nearest-rank 75th percentile."""
    return sorted(values)[math.ceil(0.75 * len(values)) - 1]


def per_pass(samples: dict[int, list[float]]) -> float:
    """One pass of the workload: the sum over units of each unit's 75th-percentile latency.

    On a shared 2-vCPU KVM guest, a call's latency switches between a
    steady slow mode and a faster mode whose speed varies from minute to
    minute; the upper quartile follows the steady mode. Over the ten-run
    sets made, the interquartile range of this estimate was 4-19% of its
    median, the lowest of the estimators tried (median, mean, fastest call).
    The host's speed still moves whole sets: set medians 20 minutes apart
    differed by up to 16%.
    """
    return sum(upper_quartile(v) for v in samples.values())


def end_to_end(units, latencies, setup_s: float) -> tuple[dict, dict]:
    """(metrics BENCHMARK.json gates, workload-specific metrics printed beside them)."""
    untraced = latencies[False]
    wall_s = per_pass(untraced)
    gated = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {}
    points = sum(u.points for u in units)
    if points:
        extra["points_per_s"] = (points / wall_s, "1/s")
    if all(u.points == 1 for u in units):
        calls_ms = sorted(1e3 * v for samples in untraced.values() for v in samples)
        cuts = statistics.quantiles(calls_ms, n=10, method="inclusive")
        extra["point_ms_p50"] = (statistics.median(calls_ms), "ms")
        extra["point_ms_p90"] = (cuts[8], "ms")
        extra["point_samples"] = (len(calls_ms), "count")
    for k, unit in enumerate(units):
        if unit.points == 0:  # check_s and evolve_s, which add up to wall_s
            extra[f"{unit.label}_s"] = (upper_quartile(untraced[k]), "s")
    return gated, extra


def per_layer(tracer: Tracer, latencies, requests) -> dict:
    """Per-layer metrics from the traced calls.

    Counts, busy and self times are per pass: the sum over units of the
    median over that unit's traced calls, so a count repeats exactly when
    the program does the same work. ``*_ms`` of one function is its median
    per call over all traced calls.
    """
    spans_by_request: dict[int, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        spans_by_request[span[2]].append(span)
    per_unit = {k: [request_stats(spans_by_request[r]) for r in reqs] for k, reqs in requests.items()}

    def pass_total(key: str) -> float:
        return sum(median_or_zero(s.get(key, 0.0) for s in stats) for stats in per_unit.values())

    calls = call_samples(tracer.spans)

    def med(name: str, field: str = "ms") -> float:
        return median_or_zero(calls[name][field]) if name in calls else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (pass_total(f"{layer}.calls"), "count")
        m[f"{layer}.busy_ms"] = (pass_total(f"{layer}.busy_ms"), "ms")
        m[f"{layer}.self_ms"] = (pass_total(f"{layer}.self_ms"), "ms")
    m["cli.steady_self_ms"] = (med("cli.steady", "self_ms"), "ms")
    loads = [v for name in ("config.load_params", "config.load_sweep") if name in calls for v in calls[name]["ms"]]
    m["config.load_ms"] = (median_or_zero(loads), "ms")
    m["model.build_ms"] = (med("model.total_hamiltonian") + med("model.bath_channels"), "ms")
    generators = pass_total("lindblad.build_superoperator.calls")
    m["lindblad.superoperator_ms"] = (med("lindblad.build_superoperator"), "ms")
    m["lindblad.generator_bytes"] = (
        pass_total("lindblad.build_superoperator.generator_bytes") / generators if generators else 0.0, "B")
    m["solvers.steady_state_calls"] = (pass_total("solvers.steady_state.calls"), "count")
    m["solvers.steady_state_ms"] = (med("solvers.steady_state"), "ms")
    m["solvers.steady_state_self_ms"] = (med("solvers.steady_state", "self_ms"), "ms")
    m["solvers.failed_calls"] = (pass_total("solvers.failed_calls"), "count")
    m["solvers.evolve_calls"] = (pass_total("solvers.evolve.calls"), "count")
    m["solvers.evolve_ms"] = (med("solvers.evolve"), "ms")
    steps = pass_total("solvers.evolve.rk4_steps")
    m["solvers.rk4_steps"] = (steps, "count")
    evolve_self_ms = pass_total("solvers.evolve.self_ms")
    m["solvers.rk4_step_us"] = (1e3 * evolve_self_ms / steps if steps else 0.0, "us")
    m["observables.currents_ms"] = (med("observables.bath_currents"), "ms")
    m["sweep.points"] = (pass_total("sweep.run_sweep.points"), "count")
    m["sweep.failed_points"] = (pass_total("sweep.run_sweep.failed_points"), "count")
    m["sweep.run_overhead_ms"] = (pass_total("sweep.run_sweep.self_ms"), "ms")
    m["sweep.emit_csv_ms"] = (med("sweep.emit_csv"), "ms")
    m["sweep.csv_bytes"] = (pass_total("sweep.emit_csv.bytes"), "B")
    m["svgplot.emit_plot_ms"] = (med("svgplot.emit_plot"), "ms")
    m["svgplot.svg_bytes"] = (pass_total("svgplot.emit_plot.bytes"), "B")
    traced_wall, untraced_wall = per_pass(latencies[True]), per_pass(latencies[False])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (sum(median_or_zero(len(spans_by_request[r]) for r in reqs)
                            for reqs in requests.values()), "count")
    m["trace.absent_wrappers"] = (len(tracer.absent), "count")
    return m


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }


class SetupProbes:
    """Set-up samples from fresh interpreters, spread over the measured window.

    Back-to-back samples all land in one period of the host's speed, which
    drifts from minute to minute. So probe number i runs at the first call
    boundary after i/SETUP_PROBES of the window, and ``finish`` takes any
    that the window's end left out.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
        self.seconds = seconds
        self.samples: list[float] = []

    def probe(self) -> None:
        done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        self.samples.append(float(done.stdout.split()[-1]))

    def __call__(self, elapsed: float) -> None:
        while len(self.samples) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / self.seconds)):
            self.probe()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        # Set-up: importing the package and making the inputs. Writing the
        # input files is left out, as the probes leave it out.
        t0 = time.perf_counter()
        try:
            cli = load_program(ROOT)
        except ImportError as exc:
            print(f"error: cannot import triheat from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        units = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        setup = [time.perf_counter() - t0]
        write_inputs(units)

        tracer = Tracer() if args.trace else None
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        latencies, requests, (attempted, failed) = measure(cli.cli_main, units, args.seconds, tracer, probes)
        setup += probes.finish()
        gated, extra = end_to_end(units, latencies, upper_quartile(setup))
        extra["failed_frac"] = (failed / attempted, "ratio")
        metrics = per_layer(tracer, latencies, requests) if tracer else gated
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    record = {
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "setup_samples_s": setup,
        "latency_samples_s": {units[k].label: {"untraced": latencies[False][k], "traced": latencies[True].get(k, [])}
                              for k in latencies[False]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**gated, **extra, **metrics}.items()},
        "absent_wrappers": tracer.absent if tracer else [],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env))
    if tracer and tracer.absent:
        print("absent layers' names: " + ", ".join(tracer.absent))
    for name, (value, unit) in {**gated, **extra, **metrics}.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
