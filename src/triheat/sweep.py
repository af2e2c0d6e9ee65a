"""Parameter-sweep engine: grid evaluation, deterministic ordering, CSV output.

The whole grid, in grid order (axis2-major, axis1 fastest), is one call
of the block engine ``steady_states``, which cuts it into fixed chunks and
maps them over its thread pool; the rows never depend on the thread count.
Derived columns are evaluated on the whole grid before any solve. Failed
solves are kept as rows with status 'solver_failed' and the name of the
check that failed, never dropped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .config import DERIVED_NAMES, PARAM_FIELDS, RESULT_COLUMNS, ConfigError, SweepSpec, csv_columns
from .model import SystemParams
from .solvers import PointSolve, steady_states

# The per-point path is no longer called here. perfbench's tracer wraps these
# names on this module, and its tests require each of them to exist.
from .lindblad import build_superoperator  # noqa: F401
from .model import bath_channels, total_hamiltonian  # noqa: F401
from .solvers import steady_state  # noqa: F401

STATUS_OK = "ok"
STATUS_FAILED = "solver_failed"


@dataclass(frozen=True)
class SweepRow:
    params: SystemParams
    j_l: float
    j_m: float
    j_r: float
    residual: float
    derived: dict[str, float]
    status: str
    reason: str = ""  # the failed check (SteadyStateError.reason); not a CSV column


def grid_points(spec: SweepSpec) -> list[SystemParams]:
    """All parameter records of the grid, axis2-major, axis1 fastest.

    Every point is validated here, before any solve, so an invalid corner
    (say a temperature crossing zero) aborts the sweep up front with a
    ``ConfigError`` that names the point's swept values.
    """
    axis1_values = spec.axis1.values()
    axis2_values = spec.axis2.values() if spec.axis2 is not None else [None]
    points = []
    for v2 in axis2_values:
        for v1 in axis1_values:
            updates = {spec.axis1.field_name: float(v1)}
            if spec.axis2 is not None:
                updates[spec.axis2.field_name] = float(v2)
            try:
                points.append(dataclasses.replace(spec.base, **updates))
            except ValueError as exc:
                swept = ", ".join(f"{name} = {value!r}" for name, value in updates.items())
                raise ConfigError(f"grid point {swept}: {exc}") from None
    return points


def _row(params: SystemParams, derived: dict[str, float], solved: PointSolve) -> SweepRow:
    if solved.error is not None:
        nan = float("nan")
        return SweepRow(params, nan, nan, nan, nan, derived, STATUS_FAILED, solved.error.reason)
    cur = solved.currents
    return SweepRow(params, cur.j_l, cur.j_m, cur.j_r, solved.residual, derived, STATUS_OK)


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid; output order is independent of thread count."""
    points = grid_points(spec)
    derived = []
    for p in points:
        env = {name: getattr(p, name) for name in DERIVED_NAMES}
        derived.append({c.name: c.fn(env) for c in spec.derived})
    return list(map(_row, points, derived, steady_states(points, threads)))


def write_csv(path: str | Path, header: Sequence[str], records: Iterable[Sequence[float | str]]) -> None:
    """UTF-8, LF endings, floats in 17 significant digits (round-trip exact); no string is quoted, so none may hold a comma."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for record in records:
                fh.write(",".join(v if isinstance(v, str) else format(v, ".17g") for v in record) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_csv(rows: list[SweepRow], spec: SweepSpec, path: str | Path) -> None:
    """The rows under ``csv_columns(spec)``, by ``write_csv``."""
    if not rows:
        raise ValueError("emit_csv: no rows to write")
    write_csv(path, csv_columns(spec), (
        [*(getattr(row.params, f) for f in PARAM_FIELDS), *(getattr(row, c) for c in RESULT_COLUMNS),
         *(row.derived[c.name] for c in spec.derived), row.status]
        for row in rows
    ))


def row_value(row: SweepRow, column: str) -> float:
    """Look up a plottable column (parameter, current, residual, or derived)."""
    if column in PARAM_FIELDS:
        return float(getattr(row.params, column))
    if column in RESULT_COLUMNS:
        return float(getattr(row, column))
    if column in row.derived:
        return row.derived[column]
    raise KeyError(f"unknown column {column!r}")
