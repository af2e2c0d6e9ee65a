"""INI config ingestion: model parameters and sweep definitions.

Format (all values in units of the qubit spacing):

    [energies]      e1, e2, e3, e4
    [couplings]     g_lm, g_mr
    [rates]         kappa_l, kappa_m, kappa_r
    [temperatures]  t_l, t_m, t_r
    [sweep]         axis1 = temperatures.t_r : 0.01 : 1.5 : 100
                    axis2 = ...                (optional)
                    derived =                  (optional, one per line)
                        dT_MR = t_m - t_r
                    out, plot, plot_x, plot_y  (optional; the grid picks the plot style)

Derived columns are arithmetic over the three bath temperatures t_l, t_m,
t_r: + - * /, unary + and -, parentheses, and int or float numbers, which are
read as floats. Python compiles each expression once, at load, and evaluates
it per grid point in float arithmetic. Anything else, a number that is not a
finite float, an expression too deep to parse or compile, or a name that
another CSV column already has (a parameter, a current, the residual, the
status or another derived column) is a ConfigError at load that names the
column; a zero divisor or a non-finite value at a grid point is one before
any solve. A plot_x or plot_y that is not a CSV column (or is the status) is
one at load, plot or no plot. Files are read as UTF-8; other keys are ignored.
"""

from __future__ import annotations

import ast
import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .model import BATHS, PARAM_FIELDS, SystemParams

_SECTIONS = {
    "energies": ("e1", "e2", "e3", "e4"),
    "couplings": ("g_lm", "g_mr"),
    "rates": ("kappa_l", "kappa_m", "kappa_r"),
    "temperatures": ("t_l", "t_m", "t_r"),
}
_FIELD_SECTION = {name: sec for sec, names in _SECTIONS.items() for name in names}
# The variables a derived-column expression may read: the fields of each grid point of these names.
DERIVED_NAMES = ("t_l", "t_m", "t_r")
# The derived-column grammar: these nodes, the names in DERIVED_NAMES, and int or float constants.
_DERIVED_NODES = (ast.Expression, ast.Load, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.UnaryOp, ast.UAdd, ast.USub)
# The solve's columns, written after the parameters: one current per bath, then the residual.
RESULT_COLUMNS = (*BATHS, "residual")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: dotted path, linear grid start/stop/count."""

    path: str
    field_name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class DerivedColumn:
    """Named expression over the bath temperatures."""

    name: str
    fn: Callable[[dict[str, float]], float]


@dataclass(frozen=True)
class SweepSpec:
    """A sweep definition; it refuses a repeated CSV column name and a plot column that cannot be plotted."""

    base: SystemParams
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    derived: list[DerivedColumn] = field(default_factory=list)
    output_path: str | None = None
    plot_path: str | None = None
    plot_x: str | None = None
    plot_y: str = "j_l"

    def __post_init__(self) -> None:
        columns = csv_columns(self)
        for i, name in enumerate(columns):  # the other columns' names are distinct, so a repeat is a derived column's
            if name in columns[:i]:
                raise ConfigError(f"derived column {name!r} has the name of another CSV column")
        plottable = columns[:-1]  # every column but the status
        for key, column in (("plot_x", self.plot_x), ("plot_y", self.plot_y)):
            if column is not None and column not in plottable:
                raise ConfigError(f"{key} {column!r} is not a plottable column; choose one of {', '.join(plottable)}")


def csv_columns(spec: SweepSpec) -> list[str]:
    return [*PARAM_FIELDS, *RESULT_COLUMNS, *(c.name for c in spec.derived), "status"]


def compile_derived(name: str, expression: str) -> DerivedColumn:
    """Check an expression against the derived-column grammar, read its constants as floats, and compile it."""
    try:
        tree = ast.parse(expression, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse derived column {name!r}: {exc}") from exc
    for node in ast.walk(tree):  # iterative, so no depth limit
        if isinstance(node, _DERIVED_NODES) or isinstance(node, ast.Name) and node.id in DERIVED_NAMES:
            continue
        if isinstance(node, ast.Name):
            raise ConfigError(f"derived column {name!r}: unknown name {node.id!r} in derived expression")
        if not (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))):
            what = f"constant {node.value!r}" if isinstance(node, ast.Constant) else type(node).__name__
            raise ConfigError(f"derived column {name!r}: unsupported syntax in derived expression: {what}")
        try:
            node.value = float(node.value)
        except OverflowError as exc:
            raise ConfigError(f"derived column {name!r}: an integer constant is too large for a float") from exc
        if not math.isfinite(node.value):
            raise ConfigError(f"derived column {name!r}: a float constant is not finite ({node.value!r})")
    try:
        code = compile(tree, f"<derived column {name}>", "eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot compile derived column {name!r}: {exc}") from exc

    def fn(env: dict[str, float]) -> float:
        try:
            value = eval(code, {"__builtins__": {}}, env)
        except ZeroDivisionError:
            value = None
        if value is not None and math.isfinite(value):
            return value
        what = "divides by zero" if value is None else f"is not finite ({value!r})"
        at = ", ".join(f"{n} = {env[n]!r}" for n in DERIVED_NAMES)
        raise ConfigError(f"derived column {name!r} ({expression}) {what} at {at}")

    return DerivedColumn(name=name, fn=fn)


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        loaded = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    return parser


def _parse_params(parser: configparser.ConfigParser, path: str | Path) -> SystemParams:
    values: dict[str, float] = {}
    for section, names in _SECTIONS.items():
        if not parser.has_section(section):
            raise ConfigError(f"{path}: missing section [{section}]")
        for name in names:
            raw = parser.get(section, name, fallback=None)
            if raw is None:
                raise ConfigError(f"{path}: missing key {name!r} in [{section}]")
            try:
                values[name] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: key {name!r} is not a number: {raw!r}") from exc
    try:
        return SystemParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_axis(raw: str, which: str) -> SweepAxis:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) != 4:
        raise ConfigError(f"{which} must look like 'section.key : start : stop : count', got {raw!r}")
    path = parts[0]
    if "." not in path:
        raise ConfigError(f"{which}: parameter path {path!r} must be 'section.key'")
    section, name = path.split(".", 1)
    if _FIELD_SECTION.get(name) != section:
        raise ConfigError(f"{which}: unknown parameter path {path!r}")
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"{which}: bad numbers in {raw!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{which}: start and stop must be finite, got {start} and {stop}")
    if count < 2:
        raise ConfigError(f"{which}: count must be at least 2, got {count}")
    if start == stop:
        raise ConfigError(f"{which}: start and stop must differ")
    return SweepAxis(path=path, field_name=name, start=start, stop=stop, count=count)


def _parse_derived(raw: str) -> list[DerivedColumn]:
    columns = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"derived line must look like 'name = expression', got {line!r}")
        name, expression = (s.strip() for s in line.split("=", 1))
        if not name.isidentifier():
            raise ConfigError(f"derived column name {name!r} is not a valid identifier")
        columns.append(compile_derived(name, expression))
    return columns


def load_params(path: str | Path) -> SystemParams:
    """Model parameters from a config file (the [sweep] section is ignored)."""
    return _parse_params(_read_ini(path), path)


def load_sweep(path: str | Path) -> SweepSpec:
    """Full sweep definition; requires a [sweep] section with axis1."""
    parser = _read_ini(path)
    base = _parse_params(parser, path)
    if not parser.has_section("sweep"):
        raise ConfigError(f"{path}: missing section [sweep]")
    axis1_raw = parser.get("sweep", "axis1", fallback=None)
    if axis1_raw is None:
        raise ConfigError(f"{path}: [sweep] must define axis1")
    axis1 = _parse_axis(axis1_raw, "axis1")
    axis2_raw = parser.get("sweep", "axis2", fallback=None)
    axis2 = _parse_axis(axis2_raw, "axis2") if axis2_raw else None
    if axis2 is not None and axis2.field_name == axis1.field_name:
        raise ConfigError(f"{path}: axis1 and axis2 sweep the same parameter {axis1.path!r}")
    derived = _parse_derived(parser.get("sweep", "derived", fallback=""))
    try:
        return SweepSpec(
            base=base,
            axis1=axis1,
            axis2=axis2,
            derived=derived,
            output_path=parser.get("sweep", "out", fallback=None),
            plot_path=parser.get("sweep", "plot", fallback=None),
            plot_x=parser.get("sweep", "plot_x", fallback=None),
            plot_y=parser.get("sweep", "plot_y", fallback="j_l"),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
