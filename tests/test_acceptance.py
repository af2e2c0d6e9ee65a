"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
The three sweep grids come from the shipped configs under scripts/.
"""

import dataclasses
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from triheat import (
    DensityMatrix,
    bath_channels,
    build_superoperator,
    evolve,
    occupation,
    rhs_apply,
    steady_state,
    total_hamiltonian,
    trace_distance,
    unvec,
    vec,
)
from triheat.cli import cli_main
from triheat.config import load_sweep
from triheat.sweep import grid_points, run_sweep
from conftest import TRANSFER_PARAMS, product_gibbs, random_hermitian, solve

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GRID_NAMES = ("transfer_curve", "output_curves", "coupling_gate_map")


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


@pytest.fixture(scope="module")
def figure_grids():
    """All three figure sweeps, solved once, with per-grid wall times."""
    grids = {}
    for name in GRID_NAMES:
        spec = load_sweep(SCRIPTS / f"{name}.cfg")
        start = time.perf_counter()
        rows = run_sweep(spec, tol=1e-10, threads=1)
        grids[name] = (spec, rows, time.perf_counter() - start)
    return grids


def test_01_uncoupled_thermalization():
    start = time.perf_counter()
    p = dataclasses.replace(TRANSFER_PARAMS, g_lm=0.0, g_mr=0.0)
    result = solve(p)
    dist = trace_distance(result.state.mat, product_gibbs(p))
    max_j = max(abs(result.currents.j_l), abs(result.currents.j_m), abs(result.currents.j_r))
    elapsed = time.perf_counter() - start
    ok = dist <= 1e-10 and max_j <= 1e-12 and elapsed < 1.0
    assert verdict(1, "uncoupled product-Gibbs steady state",
                   ok, f"distance {dist:.2e}, max|J| {max_j:.2e}, {elapsed:.2f}s")


def test_02_energy_conservation_on_all_grids(figure_grids):
    worst = 0.0
    total_time = 0.0
    points = 0
    for name in GRID_NAMES:
        _, rows, elapsed = figure_grids[name]
        total_time += elapsed
        points += len(rows)
        for row in rows:
            assert row.status == "ok"
            bound = 1e-10 * max(1.0, max(abs(row.j_l), abs(row.j_m), abs(row.j_r)))
            worst = max(worst, abs(row.j_l + row.j_m + row.j_r) / bound)
    ok = worst <= 1.0 and total_time < 60.0
    assert verdict(2, "current conservation on every grid point",
                   ok, f"{points} points, worst |sum|/bound {worst:.3f}, grids took {total_time:.1f}s")


def test_03_solver_cross_validation():
    p = TRANSFER_PARAMS
    liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
    reference = steady_state(liou, tol=1e-10).state
    evolved = evolve(DensityMatrix.maximally_mixed(12), liou, t_final=1e4, dt_max=0.05)
    dist = trace_distance(evolved, reference)
    assert verdict(3, "null-space vs time-evolution steady state",
                   dist <= 1e-6, f"trace distance {dist:.2e} at t=1e4")


def test_04_state_validity_everywhere(figure_grids):
    worst_herm = worst_trace = 0.0
    worst_eig = 1.0
    for name in GRID_NAMES:
        spec, _, _ = figure_grids[name]
        for p in grid_points(spec):
            mat = solve(p).state.mat
            worst_herm = max(worst_herm, float(np.max(np.abs(mat - mat.conj().T))))
            worst_trace = max(worst_trace, abs(np.trace(mat) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(mat).min()))
    ok = worst_herm <= 1e-12 and worst_trace <= 1e-12 and worst_eig >= -1e-10
    assert verdict(4, "every solved state is a valid density matrix",
                   ok, f"herm {worst_herm:.1e}, trace {worst_trace:.1e}, min eig {worst_eig:.1e}")


def test_05_superoperator_consistency():
    p = TRANSFER_PARAMS
    h = total_hamiltonian(p)
    chans = bath_channels(p)
    liou = build_superoperator(h, chans)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        rho = random_hermitian(rng, 12)
        diff = unvec(liou.matrix @ vec(rho)) - rhs_apply(h, chans, rho)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert verdict(5, "matrix and direct generators agree",
                   worst <= 1e-12, f"max deviation {worst:.2e} over 50 states")


def test_06_transfer_curve_threshold_shape(figure_grids):
    spec, rows, _ = figure_grids["transfer_curve"]
    order = np.argsort([r.derived["dT_MR"] for r in rows])
    j = np.array([rows[i].j_l for i in order])
    m = float(np.max(np.abs(j)))
    below = np.abs(j) <= 0.05 * m
    lead = int(np.argmax(~below)) if not below.all() else len(j)
    trail = int(np.argmax(~below[::-1])) if not below.all() else len(j)
    # the near-zero region must sit at one end of the control axis
    if trail >= lead:
        region, rest = below[len(j) - trail:], j[: len(j) - trail]
    else:
        region, rest = below[:lead], j[lead:]
    diffs = np.diff(rest)
    slack = 1e-9 * m
    monotone = bool(np.all(diffs >= -slack) or np.all(diffs <= slack))
    ok = len(region) > 0 and bool(region.all()) and len(rest) > 1 and monotone
    assert verdict(6, "threshold-then-growth transfer shape",
                   ok, f"{len(region)}/{len(j)} points below 5% of max|J|={m:.2e}, monotone rest: {monotone}")


def test_07_output_curves_saturate_and_order(figure_grids):
    spec, rows, _ = figure_grids["output_curves"]
    n1 = spec.axis1.count
    curves = [rows[i: i + n1] for i in range(0, len(rows), n1)]
    assert len(curves) >= 3
    decile = max(1, (n1 - 1) // 10)
    saturation_ok = True
    details = []
    for curve in curves:
        x = np.array([r.derived["dT_RL"] for r in curve])
        j = np.array([r.j_l for r in curve])
        slopes = np.abs(np.diff(j) / np.diff(x))
        ratio = float(np.mean(slopes[-decile:]) / np.mean(slopes[:decile]))
        details.append(f"{ratio:.3f}")
        saturation_ok = saturation_ok and ratio <= 0.20
    ordering_ok = True
    for low, high in zip(curves, curves[1:]):  # axis2 (gate temperature) ascends
        gap = np.array([r.j_l for r in high]) - np.array([r.j_l for r in low])
        ordering_ok = ordering_ok and bool(np.all(gap >= -1e-9))
    ok = saturation_ok and ordering_ok
    assert verdict(7, "output curves saturate and order by gate value",
                   ok, f"slope ratios {details}, pointwise ordering: {ordering_ok}")


def test_08_coupling_map_negative_region_and_gate_sensitivity(figure_grids):
    spec, rows, grid_time = figure_grids["coupling_gate_map"]
    weak = [r for r in rows if 0.0 < r.params.g_mr <= 0.05]
    positive = [(r.params.g_mr, r.params.t_m, r.j_l) for r in weak if not r.j_l < 0]
    negative_ok = len(weak) > 0 and not positive

    # Gate sensitivity: variance of each current over the t_m axis at a strong
    # and a weak swept coupling. The gated quantity is j_r, the current through
    # the swept middle-right link. j_l crosses the fixed middle-left link; as
    # g_mr falls it becomes a left-middle two-body current that t_m controls
    # fully, so its ratio falls below 1 and is reported, not bounded.
    # var/mean^2 keeps a current that only shrinks as g_mr falls from passing.
    axis = np.linspace(spec.axis2.start, spec.axis2.stop, spec.axis2.count)
    keys = ("j_l", "j_m", "j_r")
    weak_g, strong_g = 0.025, 0.2
    series = {}
    for g in (weak_g, strong_g):
        solved = [
            solve(dataclasses.replace(spec.base, g_mr=g, t_m=float(t))).currents
            for t in axis
        ]
        series[g] = {k: np.array([getattr(c, k) for c in solved]) for k in keys}
    var = {g: {k: float(np.var(v)) for k, v in s.items()} for g, s in series.items()}
    mean_abs = {g: {k: float(np.mean(np.abs(v))) for k, v in s.items()} for g, s in series.items()}
    scaled = {g: {k: var[g][k] / float(np.mean(v)) ** 2 for k, v in s.items()}
              for g, s in series.items()}
    ratio = {k: var[strong_g][k] / var[weak_g][k] for k in keys}
    scaled_ratio = {k: scaled[strong_g][k] / scaled[weak_g][k] for k in keys}
    ratio_ok = ratio["j_r"] >= 10.0
    scaled_ok = scaled_ratio["j_r"] >= 10.0
    runtime_ok = grid_time < 300.0
    ok = negative_ok and ratio_ok and scaled_ok and runtime_ok

    def per_current(values, fmt):
        return ", ".join(f"{k} {values[k]:{fmt}}" for k in keys)

    summary = (
        f"var ratio g_mr {strong_g}/{weak_g}: {per_current(ratio, '.3g')}; "
        f"var/mean^2 ratio: {per_current(scaled_ratio, '.3g')}; "
        f"mean|J| at g_mr {weak_g}: {per_current(mean_abs[weak_g], '.2e')}; "
        f"at g_mr {strong_g}: {per_current(mean_abs[strong_g], '.2e')}"
    )
    verdict(8, "coupling map: negative region and gate-sensitivity ratio on j_r", ok,
            f"{len(weak)} weak-coupling j_l all negative: {negative_ok}, "
            f"{summary} (need j_r >= 10 on both ratios), grid {grid_time:.1f}s")
    assert negative_ok, (
        f"j_l not negative at {len(positive)} of {len(weak)} grid points with "
        f"0 < g_mr <= 0.05, as (g_mr, t_m, j_l): {positive[:5]}"
    )
    assert runtime_ok, f"coupling map grid took {grid_time:.1f}s, need < 300s"
    assert ratio_ok, (
        f"gate sensitivity of j_r: var over t_m is {var[strong_g]['j_r']:.3e} at "
        f"g_mr {strong_g} and {var[weak_g]['j_r']:.3e} at g_mr {weak_g}, ratio "
        f"{ratio['j_r']:.3g} < 10 [{summary}]"
    )
    assert scaled_ok, (
        f"scale-free gate sensitivity of j_r: var/mean^2 over t_m is "
        f"{scaled[strong_g]['j_r']:.3e} at g_mr {strong_g} and "
        f"{scaled[weak_g]['j_r']:.3e} at g_mr {weak_g}, ratio "
        f"{scaled_ratio['j_r']:.3g} < 10 [{summary}]"
    )


def test_09_occupation_spot_values():
    mpmath.mp.dps = 50
    cases = [(1.0, 1.0), (1.0, 2.0)]
    worst = 0.0
    for de, t in cases:
        oracle = float(1 / mpmath.expm1(mpmath.mpf(de) / mpmath.mpf(t)))
        worst = max(worst, abs(occupation(de, t) - oracle) / oracle)
    assert verdict(9, "thermal occupation spot values to 7 digits",
                   worst <= 1e-7, f"worst relative error {worst:.2e}")


def test_10_sweep_determinism_across_threads(tmp_path):
    cfg = tmp_path / "det.cfg"
    text = (SCRIPTS / "output_curves.cfg").read_text(encoding="utf-8").replace(
        "axis1 = temperatures.t_l : 1.0 : 0.01 : 40",
        "axis1 = temperatures.t_l : 1.0 : 0.01 : 6",
    )
    # drop the config's own relative output paths; this test writes elsewhere
    text = "\n".join(
        line for line in text.splitlines() if not line.startswith(("out ", "plot "))
    )
    cfg.write_text(text, encoding="utf-8")
    outputs = []
    for threads in ("1", "4", "1"):
        out = tmp_path / f"rows_{len(outputs)}.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    assert verdict(10, "bit-identical sweep output regardless of threads",
                   ok, f"{len(outputs[0])} bytes compared")
