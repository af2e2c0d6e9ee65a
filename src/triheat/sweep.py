"""Parameter-sweep engine: grid evaluation, deterministic ordering, CSV output.

The whole grid, one (n, 12) array of rows in grid order (axis2-major, axis1
fastest), is one call of the block engine ``steady_states``, which cuts it
into fixed chunks and maps them over its thread pool; the rows never depend
on the thread count. Rows are validated, and derived columns evaluated, on the
whole grid before any solve. A sweep's result is one ``SweepTable`` of
columns. Failed solves are kept as rows with the name of the check that
failed, and status 'solver_failed' in the CSV, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import DERIVED_NAMES, ConfigError, SweepSpec, csv_columns
from .model import PARAM_FIELDS, first_invalid
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


def grid_points(spec: SweepSpec) -> np.ndarray:
    """The grid as (n, 12) parameter rows in ``PARAM_FIELDS`` order, axis2-major, axis1 fastest.

    Every row is validated here, before any solve, so an invalid corner
    (say a temperature crossing zero) aborts the sweep up front with a
    ``ConfigError`` that names the first invalid point's swept values.
    """
    n1, n2 = spec.axis1.count, spec.axis2.count if spec.axis2 is not None else 1
    rows = np.tile([getattr(spec.base, name) for name in PARAM_FIELDS], (n1 * n2, 1))
    rows[:, PARAM_FIELDS.index(spec.axis1.field_name)] = np.tile(spec.axis1.values(), n2)
    if spec.axis2 is not None:
        rows[:, PARAM_FIELDS.index(spec.axis2.field_name)] = np.repeat(spec.axis2.values(), n1)
    if (invalid := first_invalid(rows)) is not None:
        point = dict(zip(PARAM_FIELDS, rows[invalid[0]].tolist()))  # Python floats, whose repr is the value's
        swept = ", ".join(f"{a.field_name} = {point[a.field_name]!r}" for a in (spec.axis1, spec.axis2) if a is not None)
        raise ConfigError(f"grid point {swept}: {invalid[1]}")
    return rows


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepTable:
    """Evaluate the whole grid; output order is independent of thread count."""
    rows = grid_points(spec)
    envs = [dict(zip(DERIVED_NAMES, row)) for row in rows[:, [PARAM_FIELDS.index(n) for n in DERIVED_NAMES]].tolist()]
    derived = np.array([[c.fn(env) for c in spec.derived] for env in envs], dtype=float).T
    solved = steady_states(rows, threads)
    columns = [*rows.T, *solved.currents.T, solved.residual, *derived]  # csv_columns' order, status aside
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
