"""Smoke test: each workload, run for a tenth of a second, emits every metric that
BENCHMARK.json declares, with its unit, and a correct result."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from perfbench import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
