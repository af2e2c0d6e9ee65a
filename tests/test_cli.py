from pathlib import Path

import pytest

from triheat.cli import cli_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

POINT_CFG = """
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
t_r = 0.5
"""

SMALL_SWEEP = POINT_CFG + """
[sweep]
axis1 = temperatures.t_r : 0.1 : 0.6 : 5
axis2 = couplings.g_mr : 0.05 : 0.15 : 3
derived =
    dT_MR = t_m - t_r
"""


@pytest.fixture
def point_cfg(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(POINT_CFG, encoding="utf-8")
    return path


@pytest.fixture
def small_sweep_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_SWEEP, encoding="utf-8")
    return path


class TestSteady:
    def test_prints_currents_and_residual(self, point_cfg, capsys):
        assert cli_main(["steady", "--config", str(point_cfg)]) == 0
        out = capsys.readouterr().out
        assert "J_L" in out and "J_M" in out and "J_R" in out
        assert "residual" in out
        assert out.count("populations") == 3

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli_main(["steady", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(POINT_CFG.replace("kappa_m = 0.02", "kappa_m = 0.0"), encoding="utf-8")
        assert cli_main(["steady", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_writes_csv_and_plot(self, small_sweep_cfg, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        plot = tmp_path / "rows.svg"
        code = cli_main([
            "sweep", "--config", str(small_sweep_cfg),
            "--out", str(out), "--plot", str(plot), "--threads", "2",
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 15  # header + 5x3 grid
        assert plot.read_text(encoding="utf-8").count("<polyline") == 3

    def test_requires_an_output_path(self, small_sweep_cfg, capsys):
        assert cli_main(["sweep", "--config", str(small_sweep_cfg)]) == 1
        assert "output path" in capsys.readouterr().err

    def test_shipped_transfer_config_runs(self, tmp_path):
        out = tmp_path / "transfer.csv"
        plot = tmp_path / "transfer.svg"  # override the config's relative plot path
        code = cli_main([
            "sweep", "--config", str(SCRIPTS / "transfer_curve.cfg"),
            "--out", str(out), "--plot", str(plot),
        ])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").strip().split("\n")) == 101
        assert plot.exists()

    def test_deterministic_across_threads(self, small_sweep_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["sweep", "--config", str(small_sweep_cfg), "--out", str(a), "--threads", "1"]) == 0
        assert cli_main(["sweep", "--config", str(small_sweep_cfg), "--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvolve:
    def test_writes_current_trace(self, point_cfg, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli_main([
            "evolve", "--config", str(point_cfg), "--out", str(out),
            "--t-final", "50", "--dt-max", "0.05", "--samples", "10",
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,j_l,j_m,j_r"
        assert len(lines) == 12  # header + 11 samples (t=0 included)
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(50.0)

    def test_rejects_bad_horizon(self, point_cfg, tmp_path, capsys):
        code = cli_main([
            "evolve", "--config", str(point_cfg), "--out", str(tmp_path / "x.csv"),
            "--t-final", "-5",
        ])
        assert code == 1

    def test_unstable_step_exits_with_reason(self, tmp_path, capsys):
        code = cli_main([
            "evolve", "--config", str(SCRIPTS / "transfer_curve.cfg"), "--out", str(tmp_path / "x.csv"),
            "--t-final", "400", "--samples", "4", "--dt-max", "20",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "integration failed" in err and "dt_max" in err


class TestCheck:
    def test_builtin_operating_point_passes(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 6
        assert "FAIL" not in out

    def test_with_config(self, point_cfg, capsys):
        assert cli_main(["check", "--config", str(point_cfg)]) == 0
        assert "solver agreement" in capsys.readouterr().out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_main(["steady"]) == 2

    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
