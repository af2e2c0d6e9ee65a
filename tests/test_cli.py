import dataclasses
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from triheat import DensityMatrix, bath_channels, build_superoperator, evolve, load_params, total_hamiltonian
from triheat import solvers
from triheat.cli import cli_main, main
from triheat.observables import bath_currents
from conftest import seeded_points

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


def with_values(text, values):
    """The config text with each named key's value replaced."""
    return re.sub(r"(?m)^(\w+) = .*$", lambda m: f"{m[1]} = {values[m[1]]!r}" if m[1] in values else m[0], text)


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

    @pytest.mark.parametrize("text", [
        POINT_CFG.replace("e2 = 1.0\n", "e2 = 1.0\ne2 = 2.0\n"),
        "e1 = 1.0\n",
    ], ids=["duplicate-key", "no-section-header"])
    def test_config_syntax_error_is_named(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        assert cli_main(["steady", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_config_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "latin.cfg"
        bad.write_bytes(b"[energies]\ne1 = 1\xff")
        assert cli_main(["steady", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
        assert "can't decode byte 0xff" in err

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

    @pytest.mark.parametrize("plot", [True, False], ids=["unknown-column", "unknown-column-no-plot"])
    def test_bad_plot_settings_fail_before_any_solve(self, tmp_path, capsys, plot):
        # the plot keys are checked at load, whether or not a plot is asked for
        cfg = tmp_path / "plot.cfg"
        text = (SCRIPTS / "transfer_curve.cfg").read_text(encoding="utf-8").replace("plot_y = j_l", "plot_y = bogus")
        cfg.write_text(text if plot else re.sub(r"(?m)^plot = .*\n", "", text), encoding="utf-8")
        out = tmp_path / "rows.csv"
        plot_args = ["--plot", str(tmp_path / "rows.svg")] if plot else []
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out), *plot_args])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}: plot_y 'bogus' is not a plottable column; choose one of e1, ")
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_output_is_named(self, small_sweep_cfg, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "rows.csv"
        assert cli_main(["sweep", "--config", str(small_sweep_cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write CSV to {out}: ")

    @pytest.mark.parametrize("config, output", [("coupling_gate_map", "CSV"), ("transfer_curve", "SVG")])
    def test_missing_output_directory_fails_before_any_solve(self, tmp_path, capsys, monkeypatch, config, output):
        monkeypatch.setattr(solvers, "block_engine", lambda: pytest.fail("solved before the outputs were checked"))
        out, plot = tmp_path / "rows.csv", tmp_path / "rows.svg"
        missing = tmp_path / "no_such_dir" / f"rows.{output.lower()}"
        if output == "CSV":
            out = missing
        else:
            plot = missing
        code = cli_main(["sweep", "--config", str(SCRIPTS / f"{config}.cfg"), "--out", str(out), "--plot", str(plot)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {output} to {missing}: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists() and not plot.exists()

    @pytest.mark.parametrize("config, output", [("coupling_gate_map", "CSV"), ("transfer_curve", "SVG")])
    def test_output_that_is_a_directory_fails_before_any_solve(self, tmp_path, capsys, monkeypatch, config, output):
        monkeypatch.setattr(solvers, "block_engine", lambda: pytest.fail("solved before the outputs were checked"))
        out, plot = tmp_path / "rows.csv", tmp_path / "rows.svg"
        directory = tmp_path / "existing"
        directory.mkdir()
        if output == "CSV":
            out = directory
        else:
            plot = directory
        code = cli_main(["sweep", "--config", str(SCRIPTS / f"{config}.cfg"), "--out", str(out), "--plot", str(plot)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {output} to {directory}: {directory} is a directory\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [directory] and list(directory.iterdir()) == []

    def test_invalid_grid_point_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "negative.cfg"
        text = (SCRIPTS / "transfer_curve.cfg").read_text(encoding="utf-8")
        cfg.write_text(re.sub(r"(?m)^axis1 = .*$", "axis1 = temperatures.t_r : -0.5 : 0.5 : 3", text), encoding="utf-8")
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: grid point t_r = -0.5: bath temperatures must be positive\n"
        assert captured.out == "" and not out.exists()

    def test_no_threads_exits_with_reason(self, small_sweep_cfg, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(small_sweep_cfg), "--out", str(out), "--threads", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: threads must be at least 1\n" and captured.out == ""
        assert not out.exists()

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

    def test_trace_matches_one_evolve_call_per_sample(self, tmp_path, capsys):
        cfg = SCRIPTS / "transfer_curve.cfg"
        out = tmp_path / "trace.csv"
        assert cli_main(["evolve", "--config", str(cfg), "--out", str(out), "--t-final", "200"]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        # reference: the command as a loop of one-interval evolve calls, each from the last returned state
        params = load_params(cfg)
        h, channels = total_hamiltonian(params), bath_channels(params)
        liou = build_superoperator(h, channels)
        times = np.linspace(0.0, 200.0, 101)
        state = DensityMatrix.maximally_mixed(12)
        expected = []
        for i, t in enumerate(times):
            if i > 0:
                state = evolve(state, liou, float(times[i] - times[i - 1]), 1)[-1]
            cur = bath_currents(h, channels, state.mat)
            expected.append([cur.j_l, cur.j_m, cur.j_r])
        assert [r[0] for r in rows] == [format(t, ".17g") for t in times]
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_rejects_bad_horizon(self, point_cfg, tmp_path, capsys):
        code = cli_main([
            "evolve", "--config", str(point_cfg), "--out", str(tmp_path / "x.csv"),
            "--t-final", "-5",
        ])
        assert code == 1

    @pytest.mark.parametrize("t_final, message", [
        ("inf", "t_final must be finite, got inf"),
        ("nan", "t_final must be positive, got nan"),
        ("0", "t_final must be positive, got 0.0"),
    ], ids=["inf", "nan", "zero"])
    def test_rejects_non_finite_or_zero_horizon(self, tmp_path, capsys, t_final, message):
        code = cli_main([
            "evolve", "--config", str(SCRIPTS / "transfer_curve.cfg"), "--out", str(tmp_path / "x.csv"),
            "--t-final", t_final,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("options, values", [
        (["--dt-max", "1e-320"], "1000.0 / 100 / 1e-320"),
        (["--t-final", "1e308", "--samples", "1", "--dt-max", "0.001"], "1e+308 / 1 / 0.001"),
        (["--samples", "1" + "0" * 400], "1000.0 / 1" + "0" * 400 + " / 0.01"),
    ], ids=["tiny-step", "huge-horizon", "400-digit-samples"])
    def test_rejects_an_overflowing_step_count(self, tmp_path, capsys, options, values):
        out = tmp_path / "x.csv"
        code = cli_main(["evolve", "--config", str(SCRIPTS / "transfer_curve.cfg"), "--out", str(out), *options])
        assert code == 1
        message = f"the step count t_final / samples / dt_max = {values} overflows"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_output_is_named(self, point_cfg, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "e.csv"
        code = cli_main(["evolve", "--config", str(point_cfg), "--out", str(out), "--t-final", "1", "--samples", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write CSV to {out}: ") and err.count("\n") == 1

    def test_large_scale_currents_are_finite_and_balanced(self, tmp_path, capsys):
        # POINT_CFG's energies, couplings and temperatures times 3e5 (rates times
        # 1e5): currents near 5e8, whose rounding once read as an imaginary residue
        cfg = tmp_path / "scaled.cfg"
        cfg.write_text(
            "[energies]\ne1 = 3e5\ne2 = 3e5\ne3 = 9e5\ne4 = 3e5\n"
            "[couplings]\ng_lm = 3e4\ng_mr = 3e4\n"
            "[rates]\nkappa_l = 5e3\nkappa_m = 2e3\nkappa_r = 5e3\n"
            "[temperatures]\nt_l = 6e5\nt_m = 3e4\nt_r = 1.5e5\n",
            encoding="utf-8",
        )
        assert cli_main(["steady", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        steady = np.array([float(v) for v in re.findall(r"(?m)^J_[LMR] = (\S+)$", captured.out)])
        assert captured.err == "" and len(steady) == 3 and np.isfinite(steady).all()
        assert np.abs(steady).max() > 1e8 and solvers.balanced(steady)
        # the slowest rate is 2e3, so t = 0.01 is 20 relaxation times and the last sample is the
        # steady state up to about exp(-20) (measured: 1.2e-9 of max|J|)
        out = tmp_path / "x.csv"
        code = cli_main([
            "evolve", "--config", str(cfg), "--out", str(out),
            "--t-final", "1e-2", "--dt-max", "1e-7", "--samples", "4",
        ])
        assert code == 0 and capsys.readouterr().err == ""
        trace = np.array([[float(v) for v in line.split(",")[1:]] for line in out.read_text().splitlines()[1:]])
        assert trace.shape == (5, 3) and np.isfinite(trace).all()
        assert np.max(np.abs(trace[-1] - steady)) <= 1e-7 * np.abs(steady).max()

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

    def test_does_not_call_the_svd_oracle(self, monkeypatch, capsys):
        # check solves on the block engine and takes the spectrum from its blocks;
        # the SVD steady_state is the tests' oracle only
        def refuse(liouvillian):
            raise AssertionError("check called the SVD steady_state")

        monkeypatch.setattr("triheat.cli.steady_state", refuse)
        assert cli_main(["check"]) == 0
        assert capsys.readouterr().out.count(": ok (") == 6

    @pytest.mark.parametrize("values", [
        # energies, couplings, rates and temperatures near 1e-9: the spectral
        # gap is below any fixed cut-off on |eigenvalue|, and the horizon is
        # about 1e10
        {"e1": 1e-9, "e2": 1e-9, "e3": 3e-9, "e4": 1e-9, "g_lm": 1e-10, "g_mr": 1e-10,
         "kappa_l": 1e-9, "kappa_m": 1e-9, "kappa_r": 1e-9, "t_l": 2e-9, "t_m": 1e-10, "t_r": 5e-10},
        # one slow bath: the horizon is about 1e6
        {"kappa_m": 1e-4},
        # every value x1e3: the generator's entries, and so its round-off, are 1e3 times larger
        {m[1]: 1e3 * float(m[2]) for m in re.finditer(r"(?m)^(\w+) = (.*)$", POINT_CFG)},
    ], ids=["x1e-9", "kappa_m_1e-4", "x1e3"])
    def test_any_scale_passes_every_verdict(self, tmp_path, capsys, values):
        cfg = tmp_path / "scaled.cfg"
        cfg.write_text(with_values(POINT_CFG, values), encoding="utf-8")
        assert cli_main(["check", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert re.findall(r"(?m)^check [a-z -]+: (ok|FAIL) \(.*\)$", captured.out) == ["ok"] * 6
        assert captured.err == ""

    def test_seeded_points_pass_every_verdict(self, tmp_path, capsys):
        # detuned levels on every other point, g = 0 on every fourth, T down to 5e-4 and kappa down to 1e-5
        cfg = tmp_path / "seeded.cfg"
        for i, p in enumerate(seeded_points(seed=0, t_min=5e-4)):
            cfg.write_text(with_values(POINT_CFG, dataclasses.asdict(p)), encoding="utf-8")
            code = cli_main(["check", "--config", str(cfg)])
            captured = capsys.readouterr()
            verdicts = re.findall(r"(?m)^check [a-z -]+: (ok|FAIL) \(.*\)$", captured.out)
            assert (code, verdicts, captured.err) == (0, ["ok"] * 6, ""), f"point {i}: {p}\n{captured.out}"

    def test_failed_integration_is_the_agreement_verdict(self, tmp_path, capsys):
        # every rate 1e-9: the horizon is 1.8e10 at a step of 0.3, and RK4's
        # round-off breaks the Hermiticity bound long before the end
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(with_values(POINT_CFG, dict.fromkeys(("kappa_l", "kappa_m", "kappa_r"), 1e-9)), encoding="utf-8")
        assert cli_main(["check", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        verdicts = re.findall(r"(?m)^check ([a-z -]+): (ok|FAIL) \((.*)\)$", captured.out)
        assert [v[1] for v in verdicts] == ["ok"] * 5 + ["FAIL"]
        assert verdicts[-1][0] == "solver agreement"
        assert verdicts[-1][2].startswith("integration failed at t=") and "trace distance" not in verdicts[-1][2]
        assert captured.err == ""

    def test_failed_twin_solve_is_the_thermalization_verdict(self, tmp_path, capsys):
        # the point solves, but its g = 0 twin keeps only the bath rates, the
        # smallest 1e-10, and its second singular value falls below the bound
        cfg = tmp_path / "twin.cfg"
        cfg.write_text(with_values(POINT_CFG, {"kappa_l": 4.5e-7, "kappa_m": 5.7e-9, "kappa_r": 1.0e-10}),
                       encoding="utf-8")
        assert cli_main(["check", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        verdicts = re.findall(r"(?m)^check ([a-z -]+): (ok|FAIL) \((.*)\)$", captured.out)
        assert len(verdicts) == 6 and len(captured.out.splitlines()) == 6
        assert [v[1] for v in verdicts[:4]] == ["ok"] * 4
        assert verdicts[4][:2] == ("uncoupled thermalization", "FAIL")
        assert re.fullmatch(r"non-unique steady state: second singular value 9\.4\d\de-11 below 1\.0e-10", verdicts[4][2])
        assert verdicts[5][0] == "solver agreement"
        assert captured.err == ""

    def test_non_finite_parameter_is_named(self, tmp_path, capsys):
        text = (SCRIPTS / "transfer_curve.cfg").read_text(encoding="utf-8")
        bad = tmp_path / "inf.cfg"
        bad.write_text(text.replace("\nt_l = 2.0\n", "\nt_l = inf\n"), encoding="utf-8")
        assert cli_main(["check", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t_l must be finite" in err
        assert "Traceback" not in err


class TestNonFiniteGenerator:
    @pytest.mark.parametrize("command", ["steady", "check", "evolve"])
    def test_is_named_without_a_warning(self, tmp_path, capsys, command):
        # the hot bath's occupation is about 1e10, so kappa_l * (n + 1) overflows to inf
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            POINT_CFG.replace("kappa_l = 0.05", "kappa_l = 1e300").replace("t_l = 2.0", "t_l = 1e10"),
            encoding="utf-8",
        )
        out = tmp_path / "trace.csv"
        argv = [command, "--config", str(cfg), *(["--out", str(out)] if command == "evolve" else [])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: generator has non-finite entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        ("steady", "no steady state: the residual overflows; the generator's entries are too large"),
        ("check", "no steady state: the residual overflows; the generator's entries are too large"),
        ("evolve", "the RK4 step matrix is not finite: the generator times the step 0.01 overflows"),
    ], ids=["steady", "check", "evolve"])
    def test_finite_generator_that_overflows_is_named(self, tmp_path, capsys, command, message):
        # every entry is finite, but products with kappa_m = 1e308 overflow
        # in the residual and in the RK4 step matrix
        text = (SCRIPTS / "transfer_curve.cfg").read_text(encoding="utf-8")
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(re.sub(r"(?m)^kappa_m = .*$", "kappa_m = 1e308", text), encoding="utf-8")
        out = tmp_path / "trace.csv"
        argv = [command, "--config", str(cfg), *(["--out", str(out)] if command == "evolve" else [])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_main(["steady"]) == 2

    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2

    @pytest.mark.parametrize("command", [
        ["steady", "--config", str(SCRIPTS / "transfer_curve.cfg")],
        ["sweep", "--config", str(SCRIPTS / "transfer_curve.cfg")],
        ["check"],
    ], ids=["steady", "sweep", "check"])
    def test_residual_bound_is_not_an_option(self, tmp_path, monkeypatch, capsys, command):
        # the bound is solvers.RESIDUAL_TOL; no flag sets it. A sweep that did
        # run would write the config's relative outputs into tmp_path.
        monkeypatch.chdir(tmp_path)
        assert cli_main([*command, "--tol", "1e-10"]) == 2
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    @pytest.mark.parametrize("argv, code", [(["check"], 0), ([], 2)], ids=["check", "no-arguments"])
    def test_console_entry_point_exit_code(self, monkeypatch, capsys, argv, code):
        # main() is what the installed `triheat` script calls: sys.argv in, sys.exit out
        monkeypatch.setattr(sys, "argv", ["triheat", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
