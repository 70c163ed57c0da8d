"""tools/bench_record.py: one record from a consistent set of perfbench result files, or none."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def fake_result(name: str, trace: int, digest: str = "d" * 64, correct: bool = True) -> dict:
    calls = [
        {"wall_s": w, "cpu_s": 2 * w, "workers": 1, "error": None, "failed": 0, "digest": "x"} for w in (1.0, 2.0, 4.0)
    ]
    env = {
        "voxmask_source_sha256": digest,
        "git_sha": "abcdef0123456789",
        "blas_threads": {"libopenblas.so": 2},
        "thread_env": {"OPENBLAS_NUM_THREADS": "unset"},
        "workload": name,
    }
    return {
        "workload": name,
        "seed": 1234,
        "seconds": 10,
        "trace": trace,
        "setup_s_each": [3.0, 1.0, 2.0],
        "checks": {"repeat_identical": correct},
        "per_layer": {"pipeline.self_s": 0.5} if trace else {},
        "result": {"correct": correct},
        "stage": {"env": env, "calls": calls, "audio_s_per_call": 8.0, "peak_rss_mb": 100.0},
    }


def write_results(root: Path, override=None) -> Path:
    """A full set of result files; override maps (workload, trace) to a replacement."""
    override = override or {}
    results = root / "results"
    results.mkdir()
    for name in WORKLOADS:
        for trace in (0, 1):
            data = override.get((name, trace)) or fake_result(name, trace)
            (results / f"{name}-s1234-t{trace}.json").write_text(json.dumps(data))
    return results


def run(results: Path, out: Path, *extra) -> int:
    return bench_record.main(["--results", str(results), "--out", str(out), *extra])


def test_writes_one_record(tmp_path):
    results = write_results(tmp_path)
    assert run(results, tmp_path / "records", "--tier1-seconds", "90.5", "--tier1-passed", "401") == 0
    record = json.loads((tmp_path / "records" / "BENCH_abcdef0.json").read_text())
    assert record["git_sha"] == "abcdef0123456789" and record["source_sha256"] == "d" * 64
    assert record["tier1"] == {"wall_s": 90.5, "passed": 401}
    assert record["env"]["blas_threads"] == {"libopenblas.so": 2}
    assert "workload" not in record["env"]  # differs between workloads
    assert set(record["workloads"]) == set(WORKLOADS)
    fit = record["workloads"]["fit"]
    assert fit["end_to_end"]["wall_s"]["median"] == 2.0
    assert fit["end_to_end"]["audio_s_per_s"]["median"] == 4.0
    assert fit["end_to_end"]["setup_s"]["median"] == 2.0
    assert fit["end_to_end"]["peak_rss_mb"] == 100.0
    assert fit["per_layer"] == {"pipeline.self_s": 0.5}
    assert fit["checks"] == {"t0": {"repeat_identical": True}, "t1": {"repeat_identical": True}}
    assert record["end_to_end_from_trace"] == 0


def test_traced_only_reads_the_t1_files(tmp_path):
    results = write_results(tmp_path)
    for path in results.glob("*-t0.json"):
        path.unlink()
    assert run(results, tmp_path / "records") == 1
    assert run(results, tmp_path / "records", "--traced-only") == 0
    record = json.loads((tmp_path / "records" / "BENCH_abcdef0.json").read_text())
    assert record["end_to_end_from_trace"] == 1
    assert record["workloads"]["evaluate"]["end_to_end"]["wall_s"]["median"] == 2.0
    assert set(record["workloads"]["evaluate"]["checks"]) == {"t1"}


def test_tier1_defaults_to_null(tmp_path):
    assert run(write_results(tmp_path), tmp_path / "records") == 0
    record = json.loads((tmp_path / "records" / "BENCH_abcdef0.json").read_text())
    assert record["tier1"] == {"wall_s": None, "passed": None}


@pytest.mark.parametrize(
    "override, message",
    [
        ({("evaluate", 1): fake_result("evaluate", 1, correct=False)}, "is not correct"),
        ({("fit", 0): fake_result("fit", 0, digest="e" * 64)}, "voxmask_source_sha256"),
    ],
)
def test_refuses_incorrect_or_mixed_results(tmp_path, capsys, override, message):
    assert run(write_results(tmp_path, override), tmp_path / "records") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


def test_refuses_a_missing_file(tmp_path, capsys):
    results = write_results(tmp_path)
    (results / "anon_formant-s1234-t1.json").unlink()
    assert run(results, tmp_path / "records") == 1
    assert "missing" in capsys.readouterr().err


def stub_tier1(monkeypatch, stdout: str, returncode: int = 0) -> list:
    """Replace the Tier-1 subprocess with one that prints stdout; returns the calls it saw."""
    calls = []

    def fake_run(command, **kwargs):
        calls.append((command, kwargs))
        return subprocess.CompletedProcess(command, returncode, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    return calls


def test_tier1_runs_the_suite_and_records_time_and_passes(tmp_path, monkeypatch):
    calls = stub_tier1(monkeypatch, "....\n[100%]\n426 passed, 5 warnings in 98.12s (0:01:38)\n")
    assert run(write_results(tmp_path), tmp_path / "records", "--tier1") == 0
    record = json.loads((tmp_path / "records" / "BENCH_abcdef0.json").read_text())
    assert record["tier1"]["passed"] == 426
    assert 0.0 <= record["tier1"]["wall_s"] < 60.0  # the stub's own time, not pytest's figure
    (command, kwargs), = calls
    assert command[1:] == ("-m", "pytest", "-q", "--continue-on-collection-errors")
    assert kwargs["cwd"] == ROOT
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


@pytest.mark.parametrize(
    "stdout, returncode, message",
    [
        ("F...\n1 failed, 425 passed in 97.00s (0:01:37)\n", 1, "1 failed, 425 passed"),
        ("E...\n425 passed, 1 error in 97.00s (0:01:37)\n", 1, "1 error"),
        ("Traceback (most recent call last):\n", 4, "no pytest summary line"),
    ],
)
def test_tier1_refuses_a_failed_run(tmp_path, monkeypatch, capsys, stdout, returncode, message):
    stub_tier1(monkeypatch, stdout, returncode)
    assert run(write_results(tmp_path), tmp_path / "records", "--tier1") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


def test_tier1_excludes_hand_copied_figures(tmp_path, monkeypatch):
    calls = stub_tier1(monkeypatch, "1 passed in 0.01s\n")
    results = write_results(tmp_path)
    for extra in (("--tier1-seconds", "90"), ("--tier1-passed", "401")):
        with pytest.raises(SystemExit):
            run(results, tmp_path / "records", "--tier1", *extra)
    assert not calls
