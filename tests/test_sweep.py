import dataclasses
import math
import re

import numpy as np
import pytest

from triheat import ConfigError, SweepAxis, SweepSpec, load_params, load_sweep
from triheat.sweep import (
    SweepRow,
    csv_columns,
    emit_csv,
    grid_points,
    run_sweep,
    solve_point,
)
from triheat.svgplot import emit_plot, plot_style
from triheat.cli import cli_main
from triheat.config import compile_derived
from conftest import TRANSFER_PARAMS

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
        ],
    )
    def test_bad_axes(self, tmp_path, axis):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CFG + f"[sweep]\naxis1 = {axis}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_sweep(path)

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

    def test_derived_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown name"):
            compile_derived("bad", "t_m - kappa_l")

    def test_derived_rejects_calls(self):
        with pytest.raises(ConfigError):
            compile_derived("bad", "__import__('os').getcwd()")

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


class TestGrid:
    def test_row_count_and_order(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        points = grid_points(spec)
        assert len(points) == 12  # 3 x 4, axis2-major
        assert [p.g_mr for p in points[:4]] == [0.05] * 4
        assert [round(p.t_r, 10) for p in points[:4]] == [0.1, pytest.approx(0.2666666667), pytest.approx(0.4333333333), 0.6]

    def test_grid_validated_before_solving(self):
        spec = SweepSpec(
            base=TRANSFER_PARAMS,
            axis1=SweepAxis("temperatures.t_r", "t_r", -0.5, 0.5, 3),
        )
        with pytest.raises(ValueError, match="temperatures"):
            run_sweep(spec)


class TestRunSweep:
    def test_identical_points_identical_rows(self):
        row_a = solve_point(TRANSFER_PARAMS, tol=1e-10)
        row_b = solve_point(TRANSFER_PARAMS, tol=1e-10)
        assert row_a.j_l == row_b.j_l
        assert row_a.j_m == row_b.j_m
        assert row_a.j_r == row_b.j_r
        assert row_a.residual == row_b.residual

    def test_thread_count_does_not_change_results(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        serial = run_sweep(spec, threads=1)
        threaded = run_sweep(spec, threads=4)
        assert len(serial) == len(threaded) == 12
        for a, b in zip(serial, threaded):
            assert a.j_l == b.j_l and a.j_m == b.j_m and a.j_r == b.j_r
            assert a.derived == b.derived and a.status == b.status

    def test_failed_points_flagged_not_dropped(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        rows = run_sweep(spec, tol=1e-18)  # unreachable tolerance
        assert len(rows) == 12
        assert all(r.status == "solver_failed" for r in rows)
        assert all(math.isnan(r.j_l) for r in rows)

    def test_derived_columns_evaluated(self, sweep_cfg):
        spec = load_sweep(sweep_cfg)
        rows = run_sweep(spec)
        for r in rows:
            assert r.derived["dT_MR"] == pytest.approx(r.params.t_m - r.params.t_r)
            assert r.derived["dT_RL"] == pytest.approx(r.params.t_r - r.params.t_l)


class TestEmitCsv:
    def test_file_shape_and_columns(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        rows = run_sweep(spec)[:2]
        out = tmp_path / "out.csv"
        emit_csv(rows, spec, out)
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 4 and lines[-1] == ""  # header + 2 rows + trailing LF
        header = lines[0].split(",")
        assert header == csv_columns(spec)
        assert header[-1] == "status"
        assert header[-3:-1] == ["dT_MR", "dT_RL"]

    def test_round_trip_bit_exact(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        rows = run_sweep(spec)
        out = tmp_path / "out.csv"
        emit_csv(rows, spec, out)
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        j_l_idx = header.index("j_l")
        for row, line in zip(rows, lines[1:]):
            assert float(line.split(",")[j_l_idx]) == row.j_l

    def test_reemission_identical(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        rows = run_sweep(spec)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, spec, a)
        emit_csv(rows, spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, sweep_cfg, tmp_path):
        spec = load_sweep(sweep_cfg)
        with pytest.raises(ValueError):
            emit_csv([], spec, tmp_path / "out.csv")


def synthetic_spec(n1, n2=None, derived=()):
    axis2 = SweepAxis("temperatures.t_m", "t_m", 0.2, 1.0, n2) if n2 else None
    return SweepSpec(
        base=TRANSFER_PARAMS,
        axis1=SweepAxis("temperatures.t_r", "t_r", 0.1, 1.0, n1),
        axis2=axis2,
        derived=[compile_derived(name, expr) for name, expr in derived],
    )


def synthetic_rows(spec, values):
    rows = []
    axis1 = spec.axis1.values()
    axis2 = spec.axis2.values() if spec.axis2 else [spec.base.t_m]
    k = 0
    for v2 in axis2:
        for v1 in axis1:
            p = dataclasses.replace(spec.base, t_r=float(v1), t_m=float(v2))
            env = {"t_l": p.t_l, "t_m": p.t_m, "t_r": p.t_r}
            status = "ok" if math.isfinite(values[k]) else "solver_failed"
            rows.append(SweepRow(p, values[k], 0.0, 0.0, 1e-15,
                                 {c.name: c.fn(env) for c in spec.derived}, status))
            k += 1
    return rows


class TestEmitPlot:
    def test_polyline_per_curve(self, tmp_path):
        spec = synthetic_spec(5, 3)
        rows = synthetic_rows(spec, list(np.linspace(-1, 1, 15)))
        out = tmp_path / "plot.svg"
        emit_plot(rows, spec, out)
        text = out.read_text(encoding="utf-8")
        assert text.count("<polyline") == 3
        assert 'version="1.1"' in text

    def test_single_axis_single_polyline(self, tmp_path):
        spec = synthetic_spec(6)
        rows = synthetic_rows(spec, list(np.linspace(0, 1, 6)))
        out = tmp_path / "plot.svg"
        emit_plot(rows, spec, out)
        assert out.read_text(encoding="utf-8").count("<polyline") == 1

    def test_monotone_series_has_monotone_pixels(self, tmp_path):
        spec = synthetic_spec(6)
        rows = synthetic_rows(spec, [0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
        out = tmp_path / "plot.svg"
        emit_plot(rows, spec, out)
        match = re.search(r'<polyline[^>]*points="([^"]+)"', out.read_text(encoding="utf-8"))
        ys = [float(pt.split(",")[1]) for pt in match.group(1).split()]
        assert all(b < a for a, b in zip(ys, ys[1:]))  # pixel y falls as value rises

    def test_heatmap_cell_count(self, tmp_path):
        spec = dataclasses.replace(synthetic_spec(4, 12))
        rows = synthetic_rows(spec, list(np.linspace(-1, 1, 48)))
        out = tmp_path / "map.svg"
        emit_plot(rows, spec, out)
        assert out.read_text(encoding="utf-8").count('class="cell"') == 48

    def test_failed_point_gets_nan_cell(self, tmp_path):
        spec = dataclasses.replace(synthetic_spec(4, 12))
        values = list(np.linspace(-1, 1, 48))
        values[5] = float("nan")
        rows = synthetic_rows(spec, values)
        out = tmp_path / "map.svg"
        emit_plot(rows, spec, out)
        assert out.read_text(encoding="utf-8").count("#cccccc") == 1

    def test_style_selection(self):
        assert plot_style(synthetic_spec(5)) == "lines"
        assert plot_style(synthetic_spec(5, 3)) == "lines"
        assert plot_style(synthetic_spec(5, 12)) == "heatmap"
        forced = dataclasses.replace(synthetic_spec(5, 12), plot_style="lines")
        assert plot_style(forced) == "lines"
