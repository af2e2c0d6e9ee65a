"""Parameter-sweep engine: grid evaluation, deterministic ordering, CSV output.

The whole grid, in grid order (axis2-major, axis1 fastest), is one call
of the block engine ``steady_states``, which cuts it into fixed chunks and
maps them over its thread pool; the rows never depend on the thread count.
Derived columns are evaluated on the whole grid before any solve. A sweep's
result is one ``SweepTable`` of columns. Failed solves are kept as rows with
the name of the check that failed, and status 'solver_failed' in the CSV,
never dropped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import DERIVED_NAMES, PARAM_FIELDS, ConfigError, SweepSpec, csv_columns
from .model import SystemParams
from .solvers import steady_states

# The per-point path is no longer called here. perfbench's tracer wraps these
# names on this module, and its tests require each of them to exist.
from .lindblad import build_superoperator  # noqa: F401
from .model import bath_channels, total_hamiltonian  # noqa: F401
from .solvers import steady_state  # noqa: F401

STATUS_OK = "ok"
STATUS_FAILED = "solver_failed"


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's rows as columns: every float column of ``csv_columns(spec)`` by name, in that order.

    ``reasons[k]`` is the check row k failed (``SteadyStateError.reason``),
    or "" when it solved; the CSV's status column is derived from it.
    """

    columns: dict[str, np.ndarray]
    reasons: list[str]


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


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepTable:
    """Evaluate the whole grid; output order is independent of thread count."""
    points = grid_points(spec)
    params = np.array([[getattr(p, name) for name in PARAM_FIELDS] for p in points], dtype=float).T
    envs = [{name: getattr(p, name) for name in DERIVED_NAMES} for p in points]
    derived = np.array([[c.fn(env) for c in spec.derived] for env in envs], dtype=float).T
    solved = steady_states(points, threads)
    columns = [*params, *solved.currents.T, solved.residual, *derived]  # csv_columns' order, status aside
    return SweepTable(dict(zip(csv_columns(spec), columns)),
                      [error.reason if error is not None else "" for error in solved.errors])


def write_csv(path: str | Path, header: Sequence[str], records: Iterable[Sequence[float | str]]) -> None:
    """UTF-8, LF endings, floats in 17 significant digits (round-trip exact); no string is quoted, so none may hold a comma."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for record in records:
                fh.write(",".join(v if isinstance(v, str) else format(v, ".17g") for v in record) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_csv(table: SweepTable, spec: SweepSpec, path: str | Path) -> None:
    """The table under ``csv_columns(spec)``, by ``write_csv``."""
    if not table.reasons:
        raise ValueError("emit_csv: no rows to write")
    status = [STATUS_FAILED if reason else STATUS_OK for reason in table.reasons]
    write_csv(path, csv_columns(spec), zip(*(column.tolist() for column in table.columns.values()), status))
