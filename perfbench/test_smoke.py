"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced with --tiny. The test
checks that each metric BENCHMARK.json names is printed with its unit, that
the traced self times fit inside the traced wall time, and that tracing
leaves the output digests unchanged.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "perfbench" / "out"


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"result-{workload}-seed0-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain, plain_record = run(workload, 0)
    traced, traced_record = run(workload, 1)
    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
    if workload == "map-tight":  # one corpus, attempted whole however many passes fit
        assert (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"])
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0, metric["name"]

    assert 0 < traced_record["traced_self_s"] <= traced_record["traced_wall_s"]
    assert traced_record["traced_digests"] == traced_record["digests"]
    assert traced_record["digests"][0] == plain_record["digests"][0]
