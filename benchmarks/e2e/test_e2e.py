"""Smoke test of the end-to-end benchmark at ``--quick`` scale.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's entry point, in this directory)

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]
BATCH = [w for w in WORKLOADS if w != "serve_mix"]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One quick traced run of every workload: record and result line."""
    out = tmp_path_factory.mktemp("e2e")
    record = out / "quick.json"
    proc = bench("--quick", "--trace", "1", "--trace-dir", str(out / "traces"),
                 "--json", str(record))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(record.read_text()), last_line(proc), out


def test_every_metric_is_reported_with_its_unit(traced):
    record, line, _ = traced
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in WORKLOADS:
        result = record["workloads"][workload]
        assert result["error_rate"] == 0
        for metric in CATALOG["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["n"] >= 1 and entry["value"] > 0
        for metric in CATALOG["per_layer"]:
            name = metric["name"]
            # Measured unless the workload bypasses the layer, and the
            # bypass list names only layers that really are not run.
            bypassed = name in run.BYPASSED[workload]
            assert (name in result["layers"]) != bypassed, (workload, name)
            if not bypassed:
                assert result["layers"][name]["unit"] == metric["unit"]
            assert line["metrics"][f"{workload}.{name}"]["unit"] == metric["unit"]
    assert record["host"]["cpus"] >= 1 and record["seed"] == 7


def test_traced_batch_runs_write_a_chrome_trace_and_self_times(traced):
    record, _, out = traced
    for workload in BATCH:
        trace = record["workloads"][workload]["trace"]
        events = json.loads((out / "traces" / f"{workload}.trace.json").read_text())
        assert any(e["name"] == "bench.pass" for e in events["traceEvents"])
        assert (out / "traces" / f"{workload}.self_ms.json").is_file()
        wall = sum(trace["traced_ms"]) / len(trace["traced_ms"])
        assert abs(trace["self_sum_ms"] / wall - 1) <= 0.05


def test_a_corrupted_golden_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["7/quick/rule3_join"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    assert run.main(["--quick", "--workload", "rule3_join"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not line["correct"] and line["failed"] > 0


def test_a_missing_layer_metric_makes_the_result_incorrect():
    measured = {m["name"]: {"value": 1.0} for m in CATALOG["per_layer"]
                if m["name"] not in run.BYPASSED["rule3_join"]}
    runs = {"rule3_join": {"attempted": 1, "failed": 0, "layers": measured}}
    line = run.result_line(runs, CATALOG, trace=True)
    assert line["correct"]
    assert line["metrics"]["serve.dropped"]["value"] == 0.0
    del measured["self_ms.yatl.phase.predicate"]  # as if the span were renamed
    assert not run.result_line(runs, CATALOG, trace=True)["correct"]


def test_agree_flags_an_injected_slowdown(traced, tmp_path):
    record, _, out = traced
    first = out / "quick.json"
    slowed = json.loads(json.dumps(record))
    entry = slowed["workloads"]["rule3_join"]["metrics"]["convert_s"]
    entry["value"] *= 2
    entry["samples"] = [s * 2 for s in entry["samples"]]
    second = tmp_path / "slowed.json"
    second.write_text(json.dumps(slowed))

    same = bench("--agree", str(first), str(first))
    assert same.returncode == 0 and "regressed" not in same.stdout
    proc = bench("--agree", str(first), str(second))
    assert proc.returncode == 1
    flagged = [l for l in proc.stdout.splitlines() if l.endswith("regressed")]
    assert len(flagged) == 1 and flagged[0].split()[:2] == ["rule3_join", "convert_s"]


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rule3_join", cwd=tmp_path,
                 script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
