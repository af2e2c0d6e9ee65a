import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import triheat.sweep
from triheat import solvers
from triheat import ConfigError, SweepAxis, SweepSpec, load_params, load_sweep, steady_states
from triheat.sweep import (
    PARAM_FIELDS,
    SweepTable,
    csv_columns,
    emit_csv,
    grid_points,
    run_sweep,
)
from triheat.config import RESULT_COLUMNS
from triheat.svgplot import _span, emit_plot, plot_style
from triheat.cli import cli_main
from triheat.config import compile_derived
from conftest import TRANSFER_PARAMS, param_rows

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

BASE_CFG = """
[energies]
e1 = 1.0
e2 = 1.0
e3 = 3.0
e4 = 1.0

[couplings]
g_lm = 0.1
g_mr = 0.1

[rates]
kappa_l = 0.05
kappa_m = 0.02
kappa_r = 0.05

[temperatures]
t_l = 2.0
t_m = 0.1
t_r = 0.1
"""

SWEEP_CFG = BASE_CFG + """
[sweep]
axis1 = temperatures.t_r : 0.1 : 0.6 : 4
axis2 = couplings.g_mr : 0.05 : 0.15 : 3
derived =
    dT_MR = t_m - t_r
    dT_RL = t_r - t_l
out = sweep.csv
"""

# a four-point t_r axis whose first point equals the base t_m = 0.1
DERIVED_ONLY_CFG = BASE_CFG + """
[sweep]
axis1 = temperatures.t_r : 0.1 : 0.6 : 4
derived =
    {}
"""


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CFG, encoding="utf-8")
    return path


class TestConfig:
    def test_load_params(self, tmp_path):
        path = tmp_path / "point.cfg"
        path.write_text(BASE_CFG, encoding="utf-8")
        assert load_params(path) == TRANSFER_PARAMS

    def test_load_sweep(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        assert spec.axis1 == SweepAxis("temperatures.t_r", "t_r", 0.1, 0.6, 4)
        assert spec.axis2 == SweepAxis("couplings.g_mr", "g_mr", 0.05, 0.15, 3)
        assert [c.name for c in spec.derived] == ["dT_MR", "dT_RL"]
        assert spec.output_path == "sweep.csv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_params(tmp_path / "nope.cfg")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[energies]\ne1 = 1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing"):
            load_params(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(BASE_CFG.replace("t_r = 0.1", "t_r = chilly"), encoding="utf-8")
        with pytest.raises(ConfigError, match="not a number"):
            load_params(path)

    def test_invariant_violation_reported(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(BASE_CFG.replace("e3 = 3.0", "e3 = 0.5"), encoding="utf-8")
        with pytest.raises(ConfigError, match="e3"):
            load_params(path)

    @pytest.mark.parametrize(
        "axis",
        [
            "temperatures.t_r : 0.1 : 0.6",          # missing count
            "temperatures.nope : 0.1 : 0.6 : 4",      # unknown key
            "rates.t_r : 0.1 : 0.6 : 4",              # wrong section for key
            "t_r : 0.1 : 0.6 : 4",                    # not dotted
            "temperatures.t_r : 0.1 : 0.6 : 1",       # count too small
            "temperatures.t_r : 0.1 : 0.1 : 4",       # start == stop
            "temperatures.t_r : 0.1 : inf : 4",       # non-finite stop
            "temperatures.t_r : nan : 0.6 : 4",       # non-finite start
            "temperatures.t_r : 0.1 : hot : 4",       # non-numeric stop
        ],
    )
    def test_bad_axes(self, tmp_path, axis):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG + f"[sweep]\naxis1 = {axis}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_sweep(path)

    @pytest.mark.parametrize("text, message", [
        (BASE_CFG.replace("[rates]", "[nonsense]"), r"missing section \[rates\]$"),
        (BASE_CFG, r"missing section \[sweep\]$"),
        (BASE_CFG + "[sweep]\naxis2 = temperatures.t_r : 0.1 : 0.6 : 4\n", r"\[sweep\] must define axis1$"),
        (DERIVED_ONLY_CFG.format("dT_MR t_m - t_r"), r"^derived line must look like 'name = expression', got 'dT_MR t_m - t_r'$"),
        (DERIVED_ONLY_CFG.format("d T = t_m"), r"^derived column name 'd T' is not a valid identifier$"),
    ], ids=["params-section", "sweep-section", "axis1", "derived-without-equals", "derived-name"])
    def test_malformed_sweep_config(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_sweep(path)

    def test_hand_built_spec_refuses_a_repeated_column(self):
        with pytest.raises(ConfigError, match="^derived column 'x' has the name of another CSV column$"):
            synthetic_spec(4, derived=[("x", "t_m"), ("x", "t_l")])

    @pytest.mark.parametrize("key", ["plot_x", "plot_y"])
    @pytest.mark.parametrize("column", ["bogus", "status"])
    def test_hand_built_spec_refuses_a_column_it_cannot_plot(self, key, column):
        spec = synthetic_spec(4, derived=[("x", "t_m")])
        with pytest.raises(ConfigError, match=f"^{key} '{column}' is not a plottable column; choose one of e1, .*, residual, x$"):
            dataclasses.replace(spec, **{key: column})

    def test_duplicate_axes_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(
            BASE_CFG
            + "[sweep]\naxis1 = temperatures.t_r : 0.1 : 0.6 : 4\n"
            + "axis2 = temperatures.t_r : 0.2 : 0.8 : 3\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="same parameter"):
            load_sweep(path)

    def test_plot_style_key_is_ignored(self, tmp_path):
        # the grid picks the style; a leftover key is ignored like any other unknown key
        path = tmp_path / "styled.cfg"
        path.write_text(SWEEP_CFG.replace("[sweep]\n", "[sweep]\nplot_style = heatmap\n"), encoding="utf-8")
        assert plot_style(load_sweep(path)) == "lines"  # axis2 has 3 values

    def test_derived_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown name"):
            compile_derived("bad", "t_m - kappa_l")

    @pytest.mark.parametrize("expression", [
        "__import__('os').getcwd()",
        "t_m.real",
        "t_m[0]",
        "(lambda: t_m)()",
        "t_m if t_l else t_r",
        "'t_m'",
    ], ids=["import", "attribute", "subscript", "lambda_call", "conditional", "string"])
    def test_derived_rejects_calls(self, expression):
        with pytest.raises(ConfigError, match="^derived column 'bad': unsupported syntax"):
            compile_derived("bad", expression)

    def test_derived_constants_are_floats(self):
        # int literals are read as floats, so the arithmetic is float arithmetic:
        # 2**53 + 1 rounds to 2**53 before the product, not after it
        col = compile_derived("x", "9007199254740993 * 3 + t_l")
        assert col.fn({"t_l": 0.0, "t_m": 0.0, "t_r": 0.0}) == 9007199254740992.0 * 3.0 != float(9007199254740993 * 3)

    @pytest.mark.parametrize("expression, why", [
        ("1" + "0" * 400 + " * t_m", "an integer constant is too large for a float"),
        (" + ".join(["t_m"] * 3000), "maximum recursion depth exceeded"),
        ("1e400 * t_m", r"a float constant is not finite \(inf\)"),
        ("1e400 - 1e400 + t_m", r"a float constant is not finite \(inf\)"),
    ], ids=["400_digit_literal", "3000_term_sum", "inf_literal", "inf_minus_inf_literal"])
    def test_derived_that_cannot_be_compiled_fails_at_load(self, tmp_path, monkeypatch, capsys, expression, why):
        path = tmp_path / "big.cfg"
        path.write_text(DERIVED_ONLY_CFG.format(f"big = {expression}"), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"derived column 'big'.*{why}"):
            load_sweep(path)
        monkeypatch.setattr(triheat.sweep, "steady_states", lambda *args, **kw: pytest.fail("solved"))
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "big.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "derived column 'big'" in err and "Traceback" not in err
        assert not (tmp_path / "big.csv").exists()

    @pytest.mark.parametrize("derived, name", [
        ("dT_MR = t_m - t_r\n    dT_MR = t_l", "dT_MR"),
        ("t_r = t_m", "t_r"),
        ("j_l = t_m", "j_l"),
        ("residual = t_m", "residual"),
        ("status = t_m", "status"),
    ], ids=["derived_twice", "parameter", "current", "residual", "status"])
    def test_derived_name_of_another_column_fails_at_load(self, tmp_path, monkeypatch, capsys, derived, name):
        # two columns of one name would hold one value, and a plot axis would read the wrong one
        path = tmp_path / "dup.cfg"
        path.write_text(DERIVED_ONLY_CFG.format(derived), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"derived column '{name}' has the name of another CSV column$"):
            load_sweep(path)
        monkeypatch.setattr(triheat.sweep, "steady_states", lambda *args, **kw: pytest.fail("solved"))
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "dup.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"derived column '{name}'" in err and "Traceback" not in err
        assert not (tmp_path / "dup.csv").exists()

    def test_derived_arithmetic(self):
        col = compile_derived("x", "2 * t_m - (t_r + 1.0)")
        assert col.fn({"t_l": 0.0, "t_m": 1.5, "t_r": 0.25}) == pytest.approx(1.75)

    def test_derived_division_by_temperature_accepted(self, tmp_path):
        # checked without evaluating, so no zero probe temperature trips it
        path = tmp_path / "ratio.cfg"
        path.write_text(DERIVED_ONLY_CFG.format("ratio = t_m / t_r"), encoding="utf-8")
        col = load_sweep(path).derived[0]
        assert col.fn({"t_l": 2.0, "t_m": 0.3, "t_r": 0.6}) == pytest.approx(0.5)
        out = tmp_path / "ratio.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").split("\n")[0].split(",")[-2] == "ratio"

    def test_derived_zero_divisor_at_output_reported(self, tmp_path, capsys):
        path = tmp_path / "pole.cfg"
        path.write_text(DERIVED_ONLY_CFG.format("pole = 1 / (t_m - t_r)"), encoding="utf-8")
        spec = load_sweep(path)
        with pytest.raises(ConfigError, match=r"'pole'.*t_l = 2\.0, t_m = 0\.1, t_r = 0\.1"):
            run_sweep(spec)
        code = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "pole.csv")])
        assert code == 1
        assert "derived column 'pole'" in capsys.readouterr().err

    @pytest.mark.parametrize("expression, value", [
        ("t_m * 1e300 * 1e300", "inf"),
        ("t_m * 1e300 * 1e300 - t_r * 1e300 * 1e300", "nan"),
    ], ids=["inf", "nan"])
    def test_derived_non_finite_value_reported_before_any_solve(self, tmp_path, monkeypatch, capsys, expression, value):
        path = tmp_path / "huge.cfg"
        path.write_text(DERIVED_ONLY_CFG.format(f"huge = {expression}"), encoding="utf-8")
        spec = load_sweep(path)  # every constant is finite, so it loads
        monkeypatch.setattr(triheat.sweep, "steady_states", lambda *args, **kw: pytest.fail("solved"))
        at = r"t_l = 2\.0, t_m = 0\.1, t_r = 0\.1$"
        with pytest.raises(ConfigError, match=rf"^derived column 'huge' \(.*\) is not finite \({value}\) at {at}"):
            run_sweep(spec)
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "huge.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: derived column 'huge'") and "Traceback" not in err
        assert not (tmp_path / "huge.csv").exists()

    def test_derived_zero_divisor_reported_before_any_solve(self, tmp_path, monkeypatch):
        path = tmp_path / "pole.cfg"
        path.write_text(DERIVED_ONLY_CFG.format("pole = 1 / (t_m - t_r)"), encoding="utf-8")
        calls = []
        monkeypatch.setattr(triheat.sweep, "steady_states", lambda *args, **kw: calls.append(args))
        with pytest.raises(ConfigError, match="'pole'"):
            run_sweep(load_sweep(path))
        assert calls == []


class TestGrid:
    def test_row_count_and_order(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        rows = grid_points(spec)
        assert rows.shape == (12, len(PARAM_FIELDS))  # 3 x 4, axis2-major
        g_mr, t_r = rows[:, PARAM_FIELDS.index("g_mr")], rows[:, PARAM_FIELDS.index("t_r")]
        assert g_mr[:4].tolist() == [0.05] * 4
        assert [round(t, 10) for t in t_r[:4].tolist()] == [0.1, pytest.approx(0.2666666667), pytest.approx(0.4333333333), 0.6]
        # the rows of the records the base makes with each point's swept values, bit for bit
        records = [dataclasses.replace(spec.base, t_r=float(v1), g_mr=float(v2))
                   for v2 in spec.axis2.values() for v1 in spec.axis1.values()]
        assert rows.tobytes() == param_rows(records).tobytes()

    def test_grid_validated_before_solving(self):
        spec = SweepSpec(
            base=TRANSFER_PARAMS,
            axis1=SweepAxis("temperatures.t_r", "t_r", -0.5, 0.5, 3),
        )
        with pytest.raises(ConfigError, match=r"^grid point t_r = -0\.5: bath temperatures must be positive$"):
            run_sweep(spec)


    @pytest.mark.parametrize("axis1, axis2, point, rule", [
        # the first invalid point in grid order, although later points break the temperature rule
        ("energies.e2 : 1.0 : 4.0 : 4", "temperatures.t_m : 0.5 : -0.5 : 3", "e2 = 3.0, t_m = 0.5",
         "upper qutrit level e3 must lie above e2"),
        # one point breaks two rules, and the first in rule order is named
        ("energies.e2 : 4.0 : 5.0 : 2", "temperatures.t_m : -0.5 : 0.5 : 3", "e2 = 4.0, t_m = -0.5",
         "upper qutrit level e3 must lie above e2"),
    ], ids=["grid_order", "rule_order"])
    def test_first_invalid_point_names_its_first_rule(self, tmp_path, monkeypatch, capsys, axis1, axis2, point, rule):
        text = (SCRIPTS / "output_curves.cfg").read_text(encoding="utf-8")
        text = re.sub(r"(?m)^axis1 = .*$", f"axis1 = {axis1}", text)
        path = tmp_path / "bad.cfg"
        path.write_text(re.sub(r"(?m)^axis2 = .*$", f"axis2 = {axis2}", text), encoding="utf-8")
        monkeypatch.setattr(triheat.sweep, "steady_states", lambda *args, **kw: pytest.fail("solved"))
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "bad.csv"), "--plot", str(tmp_path / "bad.svg")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: grid point {point}: {rule}\n"
        assert not (tmp_path / "bad.csv").exists()


class TestRunSweep:
    def test_identical_points_identical_rows(self):
        # the engine's batch of one, solved twice
        row_a = steady_states(param_rows([TRANSFER_PARAMS]))
        row_b = steady_states(param_rows([TRANSFER_PARAMS]))
        assert row_a.currents.shape == (1, 3)
        assert np.array_equal(row_a.currents, row_b.currents)
        assert np.array_equal(row_a.residual, row_b.residual)

    def test_thread_count_does_not_change_results(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        serial = run_sweep(spec, threads=1)
        threaded = run_sweep(spec, threads=4)
        assert len(serial.reasons) == len(threaded.reasons) == 12
        assert list(serial.columns) == list(threaded.columns)
        for name in ("j_l", "j_m", "j_r", "dT_MR", "dT_RL"):
            assert np.array_equal(serial.columns[name], threaded.columns[name])
        assert serial.reasons == threaded.reasons

    def test_failed_points_flagged_not_dropped(self, sweep_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_TOL", 1e-18)  # unreachable bound
        spec = load_sweep(sweep_cfg)
        table = run_sweep(spec)
        assert table.reasons == ["residual"] * 12
        assert np.isnan(table.columns["j_l"]).all() and len(table.columns["j_l"]) == 12
        out = tmp_path / "failed.csv"
        assert cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
        assert "(12 failed points: residual 12)" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 14 and lines[-1] == ""  # header + 12 rows + trailing LF
        header = lines[0].split(",")
        records = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
        assert all(r["status"] == "solver_failed" for r in records)
        assert all(r["j_l"] == "nan" for r in records)

    def test_derived_columns_evaluated(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        columns = run_sweep(spec).columns
        for dt_mr, dt_rl, t_l, t_m, t_r in zip(*(columns[c] for c in ("dT_MR", "dT_RL", "t_l", "t_m", "t_r"))):
            assert dt_mr == pytest.approx(t_m - t_r)
            assert dt_rl == pytest.approx(t_r - t_l)


class TestEmitCsv:
    def test_file_shape_and_columns(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        table = run_sweep(spec)
        out = tmp_path / "out.csv"
        emit_csv(SweepTable({name: column[:2] for name, column in table.columns.items()}, table.reasons[:2]), spec, out)
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 4 and lines[-1] == ""  # header + 2 rows + trailing LF
        header = lines[0].split(",")
        assert header == csv_columns(spec)
        assert header[-1] == "status"
        assert header[-3:-1] == ["dT_MR", "dT_RL"]

    def test_result_columns_are_the_bath_currents_and_residual(self, sweep_cfg):
        # one list of names feeds the header, the written values and the plot's columns, in that order
        spec = load_sweep(sweep_cfg)
        assert RESULT_COLUMNS == ("j_l", "j_m", "j_r", "residual")
        assert csv_columns(spec)[len(PARAM_FIELDS): len(PARAM_FIELDS) + 4] == list(RESULT_COLUMNS)
        table = run_sweep(spec)
        assert list(table.columns) == csv_columns(spec)[:-1]
        assert all(column.dtype == float and column.shape == (12,) for column in table.columns.values())

    def test_round_trip_bit_exact(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        table = run_sweep(spec)
        out = tmp_path / "out.csv"
        emit_csv(table, spec, out)
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        assert header[:-1] == list(table.columns)
        for k, line in enumerate(lines[1:]):
            values = line.split(",")
            assert values[-1] == "ok"
            for name, value in zip(header[:-1], values):  # every float column, the parameters and derived ones too
                assert float(value) == table.columns[name][k]

    def test_reemission_identical(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        table = run_sweep(spec)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, spec, a)
        emit_csv(table, spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, sweep_cfg, tmp_path):
        # a table of no rows, which neither writer accepts
        spec = load_sweep(sweep_cfg)
        empty = SweepTable({name: np.empty(0) for name in csv_columns(spec)[:-1]}, [])
        with pytest.raises(ValueError, match="^emit_csv: no rows to write$"):
            emit_csv(empty, spec, tmp_path / "out.csv")
        with pytest.raises(ValueError, match="^emit_plot: no rows to draw$"):
            emit_plot(empty, spec, tmp_path / "out.svg")
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.svg").exists()


def synthetic_spec(n1, n2=None, derived=()):
    axis2 = SweepAxis("temperatures.t_m", "t_m", 0.2, 1.0, n2) if n2 else None
    return SweepSpec(
        base=TRANSFER_PARAMS,
        axis1=SweepAxis("temperatures.t_r", "t_r", 0.1, 1.0, n1),
        axis2=axis2,
        derived=[compile_derived(name, expr) for name, expr in derived],
    )


def synthetic_table(spec, values):
    """A table over the spec's grid with j_l = values, whose non-finite values are failed rows."""
    rows = grid_points(spec)
    columns = dict(zip(PARAM_FIELDS, rows.T))
    columns.update(j_l=np.array(values, dtype=float), j_m=np.zeros(len(rows)), j_r=np.zeros(len(rows)),
                   residual=np.full(len(rows), 1e-15))
    for c in spec.derived:
        columns[c.name] = np.array([c.fn(dict(zip(PARAM_FIELDS, row))) for row in rows.tolist()])
    return SweepTable(columns, ["" if math.isfinite(v) else "residual" for v in values])


class TestEmitPlot:
    def test_polyline_per_curve(self, tmp_path):
        spec = synthetic_spec(5, 3)
        table = synthetic_table(spec, list(np.linspace(-1, 1, 15)))
        out = tmp_path / "plot.svg"
        emit_plot(table, spec, out)
        text = out.read_text(encoding="utf-8")
        assert text.count("<polyline") == 3
        assert 'version="1.1"' in text

    def test_single_axis_single_polyline(self, tmp_path):
        spec = synthetic_spec(6)
        table = synthetic_table(spec, list(np.linspace(0, 1, 6)))
        out = tmp_path / "plot.svg"
        emit_plot(table, spec, out)
        assert out.read_text(encoding="utf-8").count("<polyline") == 1

    def test_monotone_series_has_monotone_pixels(self, tmp_path):
        spec = synthetic_spec(6)
        table = synthetic_table(spec, [0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
        out = tmp_path / "plot.svg"
        emit_plot(table, spec, out)
        match = re.search(r'<polyline[^>]*points="([^"]+)"', out.read_text(encoding="utf-8"))
        ys = [float(pt.split(",")[1]) for pt in match.group(1).split()]
        assert all(b < a for a, b in zip(ys, ys[1:]))  # pixel y falls as value rises

    def test_failed_point_left_out_of_its_polyline(self, tmp_path):
        spec = synthetic_spec(6)
        table = synthetic_table(spec, [0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
        table.reasons[2] = "residual"  # left out by its failure, not its value
        out = tmp_path / "plot.svg"
        emit_plot(table, spec, out)
        match = re.search(r'<polyline[^>]*points="([^"]+)"', out.read_text(encoding="utf-8"))
        assert len(match.group(1).split()) == 5

    @pytest.mark.parametrize("values, span", [
        ([-1.0, 3.0, float("nan")], (-1.0, 3.0)),
        ([2.0, 2.0, float("inf")], (2.0 - 2e-3, 2.0 + 2e-3)),  # all equal: padded by 1e-3 of the value
        ([0.0], (-1e-3, 1e-3)),  # padded by at least 1e-3
        ([float("nan"), float("-inf")], (-1.0, 1.0)),  # nothing finite
    ], ids=["finite", "all-equal", "all-zero", "none-finite"])
    def test_span(self, values, span):
        assert _span(values) == span

    def test_heatmap_cell_count(self, tmp_path):
        spec = synthetic_spec(4, 12)
        table = synthetic_table(spec, list(np.linspace(-1, 1, 48)))
        out = tmp_path / "map.svg"
        emit_plot(table, spec, out)
        assert out.read_text(encoding="utf-8").count('class="cell"') == 48

    def test_failed_point_gets_nan_cell(self, tmp_path):
        spec = synthetic_spec(4, 12)
        values = list(np.linspace(-1, 1, 48))
        values[5] = float("nan")
        table = synthetic_table(spec, values)
        out = tmp_path / "map.svg"
        emit_plot(table, spec, out)
        assert out.read_text(encoding="utf-8").count("#cccccc") == 1

    def test_style_selection(self):
        assert plot_style(synthetic_spec(5)) == "lines"
        assert plot_style(synthetic_spec(5, 3)) == "lines"
        assert plot_style(synthetic_spec(5, 12)) == "heatmap"
