"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import WRAPPED, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def write_rows(path: Path, rows: list[dict[str, str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, section):
    done = run_bench(ROOT, "--workload", "steady_points", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workloads.STEADY_POINTS
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for name, unit in {**declared, "points_per_s": "1/s", "point_ms_p50": "ms", "point_ms_p90": "ms",
                       "failed_frac": "ratio"}.items():
        assert printed[name] == unit
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_sweep_gate_passes_program_output_and_fires_on_corrupted_reference(tmp_path):
    cli = workloads.load_program(ROOT)
    out = tmp_path / "transfer_curve.csv"
    argv = ["sweep", "--config", str(ROOT / "scripts" / "transfer_curve.cfg"),
            "--out", str(out), "--plot", str(tmp_path / "transfer_curve.svg")]
    assert cli.cli_main(argv) == 0
    reference = workloads.read_csv(ROOT / workloads.REFERENCE_DIR / "transfer_curve.csv")
    assert workloads.check_sweep_csv(out, reference) == (100, 0)

    corrupted = [dict(row) for row in reference]
    corrupted[40]["j_l"] = repr(-float(corrupted[40]["j_l"]))
    assert workloads.check_sweep_csv(out, corrupted) == (100, 1)


def test_sweep_gate_counts_failed_and_missing_rows(tmp_path):
    reference = workloads.read_csv(ROOT / workloads.REFERENCE_DIR / "output_curves.csv")
    rows = [dict(row) for row in reference]
    rows[3].update(j_l="nan", j_m="nan", j_r="nan", status="solver_failed")
    out = tmp_path / "out.csv"
    write_rows(out, rows[:-1])
    assert workloads.check_sweep_csv(out, reference) == (160, 2)
    assert workloads.check_sweep_csv(tmp_path / "missing.csv", reference) == (160, 160)


def test_steady_gate_fires_on_unbalanced_currents():
    stdout = (
        "J_L = -1.000000000000e-02\nJ_M = +4.000000000000e-03\nJ_R = +6.000000000000e-03\n"
        "residual = 1.0e-16\npopulations left: 0.600000 0.400000\n"
        "populations middle: 0.500000 0.300000 0.200000\npopulations right: 0.900000 0.100000\n"
    )
    assert workloads.check_steady_output(0, stdout) == (1, 0)
    assert workloads.check_steady_output(0, stdout.replace("J_R = +6", "J_R = -6")) == (1, 1)
    assert workloads.check_steady_output(1, stdout) == (1, 1)


def test_steady_inputs_come_from_the_seed_alone(tmp_path):
    texts = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        units = workloads.steady_points(ROOT, tmp_path / name, seed)
        workloads.write_inputs(units)
        texts.append([Path(u.argv[-1]).read_text(encoding="utf-8") for u in units])
    assert texts[0] == texts[1] != texts[2]


def test_missing_wrapped_name_is_reported_absent():
    workloads.load_program(ROOT)
    sweep = sys.modules["triheat.sweep"]
    original = sweep.steady_state
    tracer = Tracer(WRAPPED + (("triheat.sweep", "no_such_name", "sweep"),))
    tracer.install()
    try:
        assert sweep.steady_state is not original
    finally:
        tracer.uninstall()
    assert sweep.steady_state is original
    assert tracer.absent == ["triheat.sweep.no_such_name"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "time_domain", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
