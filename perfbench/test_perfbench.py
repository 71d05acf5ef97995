"""Self-test of the benchmark: tiny runs of every workload, and the checks
that must count a corrupted output as a failed op."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.corpus import Generator
from perfbench.measure import Runner
from perfbench.workloads import WORKLOADS, Output, run_cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02
SEED = 5


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--scale", str(TINY),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _first_op(name: str, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS[name]()
    workload.setup(Generator(SEED), TINY)
    runner = Runner(workload)
    op = workload.ops[0]
    output = Output(*run_cli(op.argv))
    return runner, op, output


def _edit_json(output: Output, edit) -> Output:
    payload = json.loads(output.stdout)
    edit(payload)
    return replace(output, stdout=json.dumps(payload, indent=2) + "\n")


def _set_combined_off_mean(report):
    report["combined"] = 0.0 if report["combined"] > 0.5 else 1.0


COMPARE_CORRUPTIONS = {
    "nonzero exit": lambda o: replace(o, code=2),
    "unparseable JSON": lambda o: replace(o, stdout=o.stdout[: len(o.stdout) // 2]),
    "value outside [0, 1]": lambda o: _edit_json(
        o, lambda r: r["scores"]["statement"].update(value=1.5)
    ),
    "combined is not the mean": lambda o: _edit_json(o, _set_combined_off_mean),
    "scores missing": lambda o: _edit_json(o, lambda r: r.pop("scores")),
}


@pytest.mark.parametrize("corruption", sorted(COMPARE_CORRUPTIONS))
def test_corrupted_compare_output_counts_as_failure(corruption, tmp_path, monkeypatch):
    runner, op, output = _first_op("compare", tmp_path, monkeypatch)
    runner.record(op, output)
    assert runner.failures == []
    runner.record(op, COMPARE_CORRUPTIONS[corruption](output))
    assert len(runner.failures) == 1


def test_changed_bytes_and_pinned_digest_count_as_failures(tmp_path, monkeypatch):
    runner, op, output = _first_op("compare", tmp_path, monkeypatch)
    runner.record(op, output)
    runner.record(op, replace(output, stdout=output.stdout + " "))
    assert len(runner.failures) == 1
    pinned = Runner(runner.workload, pinned=["0" * 64] * len(runner.workload.ops))
    pinned.record(op, output)
    assert len(pinned.failures) == 1


def test_scan_results_out_of_order_count_as_failure(tmp_path, monkeypatch):
    runner, op, output = _first_op("scan", tmp_path, monkeypatch)
    runner.record(op, output)
    assert runner.failures == []

    def swap(payload):
        results = payload["results"]
        results[0], results[-1] = results[-1], results[0]

    runner.record(op, _edit_json(output, swap))
    assert len(runner.failures) == 1


def test_index_differing_from_build_index_counts_as_failure(tmp_path, monkeypatch):
    runner, op, output = _first_op("index", tmp_path, monkeypatch)
    out = Path(op.argv[2])
    lines = out.read_text().splitlines()
    record = json.loads(lines[1])
    record["fingerprints"] = record["fingerprints"][1:]
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    runner.record(op, output)
    assert len(runner.failures) == 1
