"""Command-line entry point.

Subcommands:
  steady   one steady-state solve; prints currents, residual, populations
  sweep    run the sweep defined in the config; write CSV and optional SVG;
           failed points are counted by the check that failed
  evolve   time-trace of the bath currents from the maximally mixed state
  check    built-in invariant suite at the configured operating point

Exit codes: 0 success, 1 config or solver error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .config import ConfigError, load_params, load_sweep
from .lindblad import rhs_apply, unvec, vec
from .model import BATHS, PARAM_FIELDS, SystemParams, gibbs_state
from .observables import reduced_populations
from .solvers import (
    EIG_FLOOR,
    RESIDUAL_TOL,
    DensityMatrix,
    IntegrationError,
    SteadyStateError,
    balanced,
    block_engine,
    chain_liouvillian,
    evolve,
    generator_coefficients,
    steady_states,
    trace_distance,
)
from .sweep import emit_csv, run_sweep, write_csv
from .svgplot import emit_plot

# The generators come from solvers.chain_liouvillian, every current from the
# block engine and every steady state from solvers.steady_states.
# perfbench's tracer wraps these names on this module, and its tests require
# each of them to exist.
from .lindblad import build_superoperator  # noqa: F401
from .model import bath_channels, total_hamiltonian  # noqa: F401
from .observables import bath_currents  # noqa: F401
from .solvers import steady_state  # noqa: F401

# Default operating point for `check` when no config is given: the resonant
# chain with a hot left bath, a cold middle bath, and an intermediate right bath.
DEFAULT_PARAMS = SystemParams(t_l=2.0, t_m=0.1, t_r=0.5)


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triheat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="solve one steady state and print observables")
    p_steady.add_argument("--config", required=True, help="INI config file")

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("--config", required=True, help="INI config file with a [sweep] section")
    p_sweep.add_argument("--out", help="output CSV path (overrides the config)")
    p_sweep.add_argument("--plot", help="output SVG path (overrides the config)")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker threads, each solving fixed chunks of grid points")

    p_evolve = sub.add_parser("evolve", help="integrate in time and record the bath currents")
    p_evolve.add_argument("--config", required=True, help="INI config file")
    p_evolve.add_argument("--out", required=True, help="output CSV path (t, j_l, j_m, j_r)")
    p_evolve.add_argument("--t-final", type=float, default=1000.0, help="integration horizon")
    p_evolve.add_argument("--dt-max", type=float, default=0.01, help="maximum RK4 step")
    p_evolve.add_argument("--samples", type=int, default=100, help="number of output samples")

    p_check = sub.add_parser("check", help="run the built-in invariant suite")
    p_check.add_argument("--config", help="INI config file (built-in operating point if omitted)")
    return parser


def _cmd_steady(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    solved = steady_states(np.array([[getattr(params, name) for name in PARAM_FIELDS]]))
    if solved.errors[0] is not None:
        raise solved.errors[0]
    for name, current in zip(("J_L", "J_M", "J_R"), solved.currents[0].tolist()):
        print(f"{name} = {current:+.12e}")
    print(f"residual = {float(solved.residual[0]):.3e}")
    for name, pops in zip(("left", "middle", "right"), reduced_populations(solved.rho(0))):
        print(f"populations {name}: " + " ".join(f"{p:.6f}" for p in pops))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep(args.config)
    out = args.out or spec.output_path
    plot = args.plot or spec.plot_path
    if out is None:
        raise ConfigError("no output path: pass --out or set 'out' in [sweep]")
    for kind, path in (("CSV", out), ("SVG", plot)):  # a path that cannot be a file fails before the grid is solved
        if path is None:
            continue
        if Path(path).is_dir():
            raise OSError(f"cannot write {kind} to {path}: {path} is a directory")
        if not Path(path).parent.is_dir():
            raise OSError(f"cannot write {kind} to {path}: {Path(path).parent} is not a directory")
    table = run_sweep(spec, threads=args.threads)
    emit_csv(table, spec, out)
    failed = Counter(reason for reason in table.reasons if reason)
    by_reason = ", ".join(f"{reason} {count}" for reason, count in failed.most_common())
    rows = len(table.reasons)
    print(f"wrote {rows} rows to {out}" + (f" ({failed.total()} failed points: {by_reason})" if failed else ""))
    if plot is not None:
        emit_plot(table, spec, plot)
        print(f"wrote plot to {plot}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    liou = chain_liouvillian(params)
    states = evolve(DensityMatrix.maximally_mixed(liou.dim), liou, args.t_final, args.samples, args.dt_max)
    times = np.linspace(0.0, args.t_final, args.samples + 1)
    # every sample's currents at once, by the engine's formula, in real arithmetic on the null block's entries
    engine = block_engine()
    x = np.array([vec(state.mat)[engine.layout.index] for state in states])
    currents = engine.heat_currents(generator_coefficients(np.array([[getattr(params, name) for name in PARAM_FIELDS]])), x)
    write_csv(args.out, ("t", *BATHS), ((t, *cur) for t, cur in zip(times, currents)))
    print(f"wrote {len(times)} samples to {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    params = load_params(args.config) if args.config else DEFAULT_PARAMS
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1

    liou = chain_liouvillian(params)
    h, channels = liou.hamiltonian, liou.channels
    rows = np.array([[getattr(params, name) for name in PARAM_FIELDS]] * 2)
    rows[1, [PARAM_FIELDS.index("g_lm"), PARAM_FIELDS.index("g_mr")]] = 0.0  # the uncoupled twin
    solved = steady_states(rows)
    error, free_error = solved.errors
    if error is not None:
        raise error
    residual = float(solved.residual[0])
    report("steady-state residual", residual <= RESIDUAL_TOL, f"residual {residual:.3e}")

    currents = solved.currents[0]
    report("current conservation", bool(balanced(currents)), f"|J_L+J_M+J_R| = {abs(float(currents.sum())):.3e}")

    min_eig = float(np.linalg.eigvalsh(solved.rho(0)).min())
    report("positivity", min_eig >= EIG_FLOOR, f"min eigenvalue {min_eig:.3e}")

    # ten random Hermitian samples through both forms at once, each held to round-off at the generator's and
    # its own scale
    a = np.random.default_rng(7).normal(size=(10, 2, *h.shape))  # each sample's real part, then its imaginary
    a = a[:, 0] + 1j * a[:, 1]
    rho = a + np.swapaxes(a, -1, -2).conj()
    deviation = np.max(np.abs(unvec(vec(rho) @ liou.matrix.T) - rhs_apply(h, channels, rho)), axis=(-2, -1))
    ok = bool(np.all(deviation <= 1e-14 * np.max(np.abs(liou.matrix)) * np.max(np.abs(rho), axis=(-2, -1))))
    report("superoperator consistency", ok, f"max deviation {deviation.max():.3e}")

    if free_error is not None:  # the twin's rates alone can fall below a solver bound
        report("uncoupled thermalization", False, str(free_error))
    else:
        expected = np.kron(
            gibbs_state([0.0, params.e1], params.t_l),
            np.kron(gibbs_state([0.0, params.e2, params.e3], params.t_m), gibbs_state([0.0, params.e4], params.t_r)),
        )
        dist = trace_distance(solved.rho(1), expected)
        report("uncoupled thermalization", dist <= 1e-10, f"trace distance {dist:.3e}")

    # the engine's kept blocks; each dropped mirror block has the conjugates of its kept block's eigenvalues.
    # The solve certified the second singular value, so exactly one eigenvalue is zero: the least in modulus.
    # The slowest mode decays by e^-18 over the horizon, and |h*lambda| <= 1.5 is inside RK4's stability region.
    # The null block is in the Hermitian basis, a similarity transform that keeps its eigenvalues.
    engine = block_engine()
    null, coherence = engine.assemble(generator_coefficients(rows[:1]))
    ev = np.concatenate([np.linalg.eigvals(b[0]) for b in [null, *engine.coherence_blocks(coherence)]])
    gap = -np.max(np.delete(ev.real, np.argmin(np.abs(ev))))
    t_final = float(18.0 / gap)
    dt = float(1.5 / np.max(np.abs(ev)))
    try:
        evolved = evolve(DensityMatrix.maximally_mixed(h.shape[0]), liou, t_final=t_final, samples=1, dt_max=dt)[-1]
    except IntegrationError as exc:
        report("solver agreement", False, str(exc))
    else:
        agree = trace_distance(evolved, solved.rho(0))
        report("solver agreement", agree <= 1e-6, f"trace distance {agree:.3e} at t={t_final:.4g}")

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
