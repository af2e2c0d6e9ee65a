"""Command-line entry point.

Subcommands:
  steady   one steady-state solve; prints currents, residual, populations
  sweep    run the sweep defined in the config; write CSV and optional SVG
  evolve   time-trace of the bath currents from the maximally mixed state
  check    built-in invariant suite at the configured operating point

Exit codes: 0 success, 1 config or solver error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import ConfigError, load_params, load_sweep
from .lindblad import build_superoperator, rhs_apply, unvec, vec
from .model import SystemParams, bath_channels, gibbs_state, total_hamiltonian
from .observables import bath_currents, reduced_populations
from .solvers import (
    DensityMatrix,
    IntegrationError,
    SteadyStateError,
    evolve,
    steady_state,
    trace_distance,
)
from .sweep import emit_csv, run_sweep
from .svgplot import emit_plot

# Default operating point for `check` when no config is given: the resonant
# chain with a hot left bath, a cold middle bath, and an intermediate right bath.
DEFAULT_PARAMS = SystemParams(
    e1=1.0, e2=1.0, e3=3.0, e4=1.0,
    g_lm=0.1, g_mr=0.1,
    kappa_l=0.05, kappa_m=0.02, kappa_r=0.05,
    t_l=2.0, t_m=0.1, t_r=0.5,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triheat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="solve one steady state and print observables")
    p_steady.add_argument("--config", required=True, help="INI config file")
    p_steady.add_argument("--tol", type=float, default=1e-10, help="steady-state residual tolerance")

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("--config", required=True, help="INI config file with a [sweep] section")
    p_sweep.add_argument("--out", help="output CSV path (overrides the config)")
    p_sweep.add_argument("--plot", help="output SVG path (overrides the config)")
    p_sweep.add_argument("--tol", type=float, default=1e-10, help="steady-state residual tolerance")
    p_sweep.add_argument("--threads", type=int, default=1, help="worker threads for grid points")

    p_evolve = sub.add_parser("evolve", help="integrate in time and record the bath currents")
    p_evolve.add_argument("--config", required=True, help="INI config file")
    p_evolve.add_argument("--out", required=True, help="output CSV path (t, j_l, j_m, j_r)")
    p_evolve.add_argument("--t-final", type=float, default=1000.0, help="integration horizon")
    p_evolve.add_argument("--dt-max", type=float, default=0.01, help="maximum RK4 step")
    p_evolve.add_argument("--samples", type=int, default=100, help="number of output samples")

    p_check = sub.add_parser("check", help="run the built-in invariant suite")
    p_check.add_argument("--config", help="INI config file (built-in operating point if omitted)")
    p_check.add_argument("--tol", type=float, default=1e-10, help="steady-state residual tolerance")
    return parser


def _cmd_steady(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    h = total_hamiltonian(params)
    channels = bath_channels(params)
    result = steady_state(build_superoperator(h, channels), tol=args.tol)
    cur = result.currents
    print(f"J_L = {cur.j_l:+.12e}")
    print(f"J_M = {cur.j_m:+.12e}")
    print(f"J_R = {cur.j_r:+.12e}")
    print(f"residual = {result.residual:.3e}")
    for name, pops in zip(("left", "middle", "right"), reduced_populations(result.state.mat)):
        print(f"populations {name}: " + " ".join(f"{p:.6f}" for p in pops))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep(args.config)
    out = args.out or spec.output_path
    plot = args.plot or spec.plot_path
    if out is None:
        raise ConfigError("no output path: pass --out or set 'out' in [sweep]")
    rows = run_sweep(spec, tol=args.tol, threads=args.threads)
    emit_csv(rows, spec, out)
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {out}" + (f" ({failed} failed points)" if failed else ""))
    if plot is not None:
        emit_plot(rows, spec, plot)
        print(f"wrote plot to {plot}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    h = total_hamiltonian(params)
    channels = bath_channels(params)
    if args.t_final <= 0 or args.samples < 1:
        raise ConfigError("t-final must be positive and samples at least 1")
    times = np.linspace(0.0, args.t_final, args.samples + 1)
    liou = build_superoperator(h, channels)
    state = DensityMatrix.maximally_mixed(h.shape[0])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,j_l,j_m,j_r\n")
        for i, t in enumerate(times):
            if i > 0:
                state = evolve(state, liou, float(times[i] - times[i - 1]), dt_max=args.dt_max)
            cur = bath_currents(h, channels, state.mat)
            fh.write(",".join(format(v, ".17g") for v in (t, cur.j_l, cur.j_m, cur.j_r)) + "\n")
    print(f"wrote {len(times)} samples to {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    params = load_params(args.config) if args.config else DEFAULT_PARAMS
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1

    h = total_hamiltonian(params)
    channels = bath_channels(params)
    liou = build_superoperator(h, channels)
    result = steady_state(liou, tol=args.tol)
    report("steady-state residual", result.residual <= args.tol, f"residual {result.residual:.3e}")

    cur = result.currents
    bound = 1e-10 * max(1.0, max(abs(cur.j_l), abs(cur.j_m), abs(cur.j_r)))
    report("current conservation", abs(cur.total()) <= bound, f"|J_L+J_M+J_R| = {abs(cur.total()):.3e}")

    min_eig = float(np.linalg.eigvalsh(result.state.mat).min())
    report("positivity", min_eig >= -1e-10, f"min eigenvalue {min_eig:.3e}")

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        a = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        rho = a + a.conj().T
        diff = unvec(liou.matrix @ vec(rho)) - rhs_apply(h, channels, rho)
        worst = max(worst, float(np.max(np.abs(diff))))
    report("superoperator consistency", worst <= 1e-12, f"max deviation {worst:.3e}")

    free = dataclasses.replace(params, g_lm=0.0, g_mr=0.0)
    free_result = steady_state(build_superoperator(total_hamiltonian(free), bath_channels(free)), tol=args.tol)
    expected = np.kron(
        gibbs_state([0.0, free.e1], free.t_l),
        np.kron(gibbs_state([0.0, free.e2, free.e3], free.t_m), gibbs_state([0.0, free.e4], free.t_r)),
    )
    dist = trace_distance(free_result.state.mat, expected)
    report("uncoupled thermalization", dist <= 1e-10, f"trace distance {dist:.3e}")

    ev = np.linalg.eigvals(liou.matrix)
    gap = -np.max(ev.real[np.abs(ev) > 1e-8])
    t_final = float(min(max(18.0 / gap, 200.0), 5e4))
    dt = float(min(0.05, 1.5 / np.max(np.abs(ev))))
    evolved = evolve(DensityMatrix.maximally_mixed(h.shape[0]), liou, t_final=t_final, dt_max=dt)
    agree = trace_distance(evolved, result.state)
    report("solver agreement", agree <= 1e-6, f"trace distance {agree:.3e} at t={t_final:.0f}")

    return 1 if failures else 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        if args.command == "steady":
            return _cmd_steady(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "evolve":
            return _cmd_evolve(args)
        return _cmd_check(args)
    except (ConfigError, SteadyStateError, IntegrationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
