import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

ENVIRONMENT = {"workload": "steady_points", "seed": 16, "seconds": 44, "trace": 0, "python": "3.11.7",
               "numpy": "1.26.4", "nproc": 2, "OPENBLAS_NUM_THREADS": "1"}


def write_runs(directory: Path, count: int, **environment) -> None:
    """``count`` synthetic trace-0 records of one side, named by run number."""
    directory.mkdir()
    for i in range(count):
        record = {
            "environment": {**ENVIRONMENT, **environment},
            "failed": 0,
            "attempted": 10,
            "metrics": {name: {"value": 1.0 + 0.01 * i} for name in ("setup_s", "wall_s", "peak_rss_mb")},
        }
        (directory / f"run{i:02d}.json").write_text(json.dumps(record), encoding="utf-8")


def summarise(tmp_path, capsys) -> tuple[int, str, Path]:
    out = tmp_path / "BENCH.json"
    code = bench_summary.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)])
    return code, capsys.readouterr().err, out


def test_equal_pairs_are_summarised(tmp_path, capsys):
    write_runs(tmp_path / "parent", 3)
    write_runs(tmp_path / "change", 3)
    code, err, out = summarise(tmp_path, capsys)
    assert code == 0 and err == ""
    summary = json.loads(out.read_text(encoding="utf-8"))["workloads"]["steady_points"]
    assert summary["pairs"] == 3
    assert summary["metrics"]["wall_s"]["change"]["runs"] == [1.0, 1.01, 1.02]


def test_unequal_record_counts_are_refused(tmp_path, capsys):
    write_runs(tmp_path / "parent", 3)
    write_runs(tmp_path / "change", 4)
    code, err, out = summarise(tmp_path, capsys)
    assert code == 1 and not out.exists()
    assert err == "error: steady_points: the parent has 3 records and the change 4; every run must have a pair\n"


@pytest.mark.parametrize("field, value", [("numpy", "2.0.0"), ("OPENBLAS_NUM_THREADS", None), ("seed", 17)])
def test_a_pair_with_different_environments_is_refused(tmp_path, capsys, field, value):
    write_runs(tmp_path / "parent", 2)
    write_runs(tmp_path / "change", 2)
    path = tmp_path / "change" / "run01.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    record["environment"][field] = value
    path.write_text(json.dumps(record), encoding="utf-8")
    code, err, out = summarise(tmp_path, capsys)
    assert code == 1 and not out.exists()
    assert err == (f"error: steady_points: pair 1: environment field {field!r} differs: "
                   f"parent {ENVIRONMENT[field]!r}, change {value!r}\n")
