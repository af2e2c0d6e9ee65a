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
                    out, plot, plot_x, plot_y, plot_style   (optional)

Derived columns are arithmetic expressions over the three bath temperatures
t_l, t_m, t_r, evaluated per grid point at output time.
"""

from __future__ import annotations

import ast
import configparser
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .model import SystemParams

_SECTIONS = {
    "energies": ("e1", "e2", "e3", "e4"),
    "couplings": ("g_lm", "g_mr"),
    "rates": ("kappa_l", "kappa_m", "kappa_r"),
    "temperatures": ("t_l", "t_m", "t_r"),
}
_FIELD_SECTION = {name: sec for sec, names in _SECTIONS.items() for name in names}
_DERIVED_NAMES = ("t_l", "t_m", "t_r")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


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
    expression: str
    fn: Callable[[dict[str, float]], float]


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    derived: list[DerivedColumn] = field(default_factory=list)
    output_path: str | None = None
    plot_path: str | None = None
    plot_x: str | None = None
    plot_y: str = "j_l"
    plot_style: str | None = None


def _check_node(node: ast.expr) -> None:
    """Reject anything but arithmetic over t_l/t_m/t_r, without evaluating."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        _check_node(node.left)
        _check_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        _check_node(node.operand)
    elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        pass
    elif isinstance(node, ast.Name):
        if node.id not in _DERIVED_NAMES:
            raise ConfigError(f"unknown name {node.id!r} in derived expression")
    else:
        raise ConfigError(f"unsupported syntax in derived expression: {ast.dump(node)}")


def _eval_node(node: ast.expr, env: dict[str, float]) -> float:
    """Evaluate a tree that ``_check_node`` accepted."""
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, ast.UnaryOp):
        val = _eval_node(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.Constant):
        return float(node.value)
    return env[node.id]


def compile_derived(name: str, expression: str) -> DerivedColumn:
    """Compile a derived-column expression restricted to t_l/t_m/t_r arithmetic."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse derived column {name!r}: {expression!r}") from exc
    _check_node(tree.body)

    def fn(env: dict[str, float]) -> float:
        try:
            return _eval_node(tree.body, env)
        except ZeroDivisionError:
            at = ", ".join(f"{n} = {env[n]!r}" for n in _DERIVED_NAMES)
            raise ConfigError(f"derived column {name!r} ({expression}) divides by zero at {at}") from None

    return DerivedColumn(name=name, expression=expression, fn=fn)


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    loaded = parser.read(path)
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
    style = parser.get("sweep", "plot_style", fallback=None)
    if style is not None and style not in ("lines", "heatmap"):
        raise ConfigError(f"{path}: plot_style must be 'lines' or 'heatmap', got {style!r}")
    return SweepSpec(
        base=base,
        axis1=axis1,
        axis2=axis2,
        derived=derived,
        output_path=parser.get("sweep", "out", fallback=None),
        plot_path=parser.get("sweep", "plot", fallback=None),
        plot_x=parser.get("sweep", "plot_x", fallback=None),
        plot_y=parser.get("sweep", "plot_y", fallback="j_l"),
        plot_style=style,
    )
