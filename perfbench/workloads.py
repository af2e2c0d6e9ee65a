"""The benchmark's workloads: their inputs, the CLI calls they make, and the
correctness gate each call's output must pass.

A workload is a list of units, one CLI call each; one pass over the list is
the workload's fixed amount of work. Inputs come from the seed alone. Making
the units writes no file: the runner writes each unit's input files after
it has timed set-up, so that set-up time does not follow the disk's load.

- figure_sweeps: the three shipped figure configs, as scripts/run_figures.py
  runs them. The point solve does almost all the work, at grid batch sizes
  up to 900 points. The inputs are fixed, so the seed does not apply.
- steady_points: seeded single-point configs, one ``steady`` call each. This
  is the batch-of-one case: no grid batching, plus per-call config parsing
  and reduced populations. Only resonant points are drawn, where the model
  is valid.
- time_domain: ``check`` at the built-in operating point and a fixed-horizon
  ``evolve``. RK4 does most of the work and the steady solve very little.
  The inputs are fixed, because the check horizon, max(18/gap, 200), would
  change with a drawn point and so would the amount of work.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The largest grid first, so that a run's second pass repeats it before
# the time runs out.
FIGURES = ("coupling_gate_map", "transfer_curve", "output_curves")
STEADY_POINTS = 200
EVOLVE_T_FINAL = 200.0
EVOLVE_SAMPLES = 100  # the CLI default; written out so the gate knows it
REFERENCE_DIR = "results"  # the committed figure CSVs, relative to the checkout
CURRENTS = ("j_l", "j_m", "j_r")
UNCOMPARED = CURRENTS + ("residual", "status")  # the residual differs between BLAS builds


@dataclass(frozen=True)
class Unit:
    """One CLI call and the gate on its output.

    ``check(exit_code, stdout)`` returns (operations attempted, operations
    failed). ``points`` is the number of steady-state points the call asks for.
    ``inputs`` are the (path, text) files the call reads.
    """

    label: str
    argv: list[str]
    points: int
    check: Callable[[int, str], tuple[int, int]]
    inputs: tuple[tuple[Path, str], ...] = ()


def write_inputs(units: list[Unit]) -> None:
    for unit in units:
        for path, text in unit.inputs:
            path.write_text(text, encoding="utf-8")


def load_program(root: Path):
    """Import ``triheat.cli`` from ``root/src``, and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import triheat.cli

    where = Path(triheat.cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"triheat was imported from {where}, not from {src}")
    return triheat.cli


def conserved(currents) -> bool:
    """|J_L+J_M+J_R| <= 1e-10 * max(1, max|J|), the bound the package checks."""
    return abs(sum(currents)) <= 1e-10 * max(1.0, max(abs(j) for j in currents))


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sweep_csv(path: Path, reference: list[dict[str, str]]) -> tuple[int, int]:
    """Rows of a sweep CSV against the reference rows, in grid order.

    A row fails unless its status is ok, its swept parameters equal the
    reference's, each current is within 1e-9 * max|J| of the grid's reference,
    and its currents are conserved. The residual column is not compared: it
    differs between BLAS builds. Missing or extra rows fail.
    """
    scale = max(abs(float(r[c])) for r in reference for c in CURRENTS)
    tol = 1e-9 * scale
    axes = [c for c in reference[0] if c not in UNCOMPARED]
    try:
        rows = read_csv(path)
    except (OSError, csv.Error):
        return len(reference), len(reference)
    failed = abs(len(rows) - len(reference))
    for out, ref in zip(rows, reference):
        try:
            currents = [float(out[c]) for c in CURRENTS]
            ok = (
                out["status"] == "ok"
                and all(float(out[a]) == float(ref[a]) for a in axes)
                and all(abs(j - float(ref[c])) <= tol for j, c in zip(currents, CURRENTS))
                and conserved(currents)
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return max(len(rows), len(reference)), failed


def figure_sweeps(root: Path, workdir: Path, seed: int) -> list[Unit]:
    units = []
    for stem in FIGURES:
        reference = read_csv(root / REFERENCE_DIR / f"{stem}.csv")
        out, plot = workdir / f"{stem}.csv", workdir / f"{stem}.svg"

        def check(code: int, stdout: str, out=out, plot=plot, reference=reference) -> tuple[int, int]:
            try:
                if code != 0 or not plot.is_file() or plot.stat().st_size == 0:
                    return len(reference), len(reference)
                return check_sweep_csv(out, reference)
            finally:  # the next call must write its own outputs
                out.unlink(missing_ok=True)
                plot.unlink(missing_ok=True)

        argv = ["sweep", "--config", str(root / "scripts" / f"{stem}.cfg"),
                "--out", str(out), "--plot", str(plot), "--threads", "1"]
        units.append(Unit(stem, argv, len(reference), check))
    return units


POINT_CFG = """\
[energies]
e1 = 1.0
e2 = 1.0
e3 = {e3!r}
e4 = 1.0

[couplings]
g_lm = {g_lm!r}
g_mr = {g_mr!r}

[rates]
kappa_l = {kappa_l!r}
kappa_m = {kappa_m!r}
kappa_r = {kappa_r!r}

[temperatures]
t_l = {t_l!r}
t_m = {t_m!r}
t_r = {t_r!r}
"""


def draw_point(rng: random.Random) -> dict[str, float]:
    """One resonant operating point (e1 = e2 = e4 = 1)."""
    u = rng.uniform
    return {
        "e3": u(2.5, 3.5), "g_lm": u(0.0, 0.3), "g_mr": u(0.0, 0.3),
        "kappa_l": u(0.01, 0.1), "kappa_m": u(0.002, 0.05), "kappa_r": u(0.01, 0.1),
        "t_l": u(0.05, 7.0), "t_m": u(0.05, 7.0), "t_r": u(0.05, 7.0),
    }


def check_steady_output(code: int, stdout: str) -> tuple[int, int]:
    """The printed currents are conserved and each subsystem's populations sum to 1."""
    values: dict[str, list[float]] = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(":") if line.startswith("populations") else line.partition("=")
        if sep:
            try:
                values[key.strip()] = [float(v) for v in rest.split()]
            except ValueError:
                return 1, 1
    try:
        currents = [values[k][0] for k in ("J_L", "J_M", "J_R")]
        pops = [values[f"populations {k}"] for k in ("left", "middle", "right")]
    except (KeyError, IndexError):
        return 1, 1
    ok = (
        code == 0
        and all(math.isfinite(j) for j in currents)
        and conserved(currents)
        and all(abs(sum(p) - 1.0) <= 1e-5 and all(-1e-6 <= v <= 1 + 1e-6 for v in p) for p in pops)
    )
    return 1, int(not ok)


def steady_points(root: Path, workdir: Path, seed: int) -> list[Unit]:
    rng = random.Random(seed)
    units = []
    for i in range(STEADY_POINTS):
        path = workdir / f"point{i:03d}.cfg"
        units.append(Unit(f"point{i:03d}", ["steady", "--config", str(path)], 1, check_steady_output,
                          inputs=((path, POINT_CFG.format(**draw_point(rng))),)))
    return units


def check_check_output(code: int, stdout: str) -> tuple[int, int]:
    verdicts = [line for line in stdout.splitlines() if line.startswith("check ")]
    ok = code == 0 and verdicts and all(": ok (" in line for line in verdicts)
    return 1, int(not ok)


def check_evolve_csv(path: Path, code: int) -> tuple[int, int]:
    """``samples + 1`` finite rows, from t = 0 to the horizon."""
    try:
        rows = read_csv(path)
        values = [[float(r[c]) for c in ("t",) + CURRENTS] for r in rows]
    except (OSError, csv.Error, KeyError, TypeError, ValueError):
        return 1, 1
    finally:  # the next call must write its own output
        path.unlink(missing_ok=True)
    ok = (
        code == 0
        and len(values) == EVOLVE_SAMPLES + 1
        and all(math.isfinite(v) for row in values for v in row)
        and values[0][0] == 0.0
        and values[-1][0] == EVOLVE_T_FINAL
    )
    return 1, int(not ok)


def time_domain(root: Path, workdir: Path, seed: int) -> list[Unit]:
    out = workdir / "evolve.csv"
    evolve = ["evolve", "--config", str(root / "scripts" / "transfer_curve.cfg"), "--out", str(out),
              "--t-final", repr(EVOLVE_T_FINAL), "--samples", str(EVOLVE_SAMPLES)]
    return [
        Unit("check", ["check"], 0, check_check_output),
        Unit("evolve", evolve, 0, lambda code, stdout: check_evolve_csv(out, code)),
    ]


WORKLOADS = {"figure_sweeps": figure_sweeps, "steady_points": steady_points, "time_domain": time_domain}
