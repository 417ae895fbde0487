"""Fast self-test of the benchmark: every workload at the tiny size.

    python3 perfbench/selftest.py

Runs run.py untraced and traced on each workload at ``--size tiny`` and
checks that the last line carries every end-to-end or per-layer metric that
BENCHMARK.json names, each with its unit; that every output check passed;
and that the tracer reached the calls nested inside other fhalloc functions
(``estimate_moments_mc`` into ``estimate_channel``, ``aqnm_quantize`` and
``build_precoder``, and the generators beneath them).  Exits nonzero on the
first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from study import ROOT, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
TINY = SIZES["tiny"]


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], where: str) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}"
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), f"{where}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} has unit {got[name]['unit']}, declared {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name} is not a number"
    return {name: m["value"] for name, m in got.items()}


def check_nesting(workload: str, m: dict) -> None:
    """Counts that only add up when calls made inside fhalloc are traced."""
    moment_trials = TINY["moment_trials"]
    if workload == "split-search":
        assert m["sysmodel.generator.calls"] == 0 and m["precoding.build_precoder.calls"] == 0, m
        assert m["allocation.line_search.calls"] == TINY["searches"], m
        assert m["se.closed_form_mrt_sinr.calls"] == m["allocation.line_search.candidates"] > 0, m
        assert m["sysmodel.from_snr.calls"] == TINY["searches"], m
        return
    zf_wf_cells = {"fig4-serial": 18, "fig2-pool": 116}[workload]
    # two moment passes per ZF/WF cell, one channel estimate per trial in each
    assert m["channel.estimate_channel.calls"] == 2 * moment_trials * zf_wf_cells, m
    # CSI quantization in both passes, precoder quantization in the second
    assert m["quantization.aqnm_quantize.calls"] == 3 * moment_trials * zf_wf_cells, m
    assert m["precoding.build_precoder.calls"] > m["channel.estimate_channel.calls"], m
    # channel, pilot noise and CSI noise generators per estimate, one more per precoder quantization
    assert m["sysmodel.generator.calls"] > 3 * m["channel.estimate_channel.calls"], m
    assert m["precoding.estimate_moments_mc.busy_s"] < m["se.mc_hardening_sinr.busy_s"], m
    assert 0 < m["sysmodel.generator.distinct_ratio"] < 1, m
    if WORKLOADS[workload]["workers"] > 1:
        assert m["experiments.pool_efficiency"] > 0, m


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        check_metrics(run(workload, 0), declared["end_to_end"], f"{workload} untraced")
        layers = check_metrics(run(workload, 1), declared["per_layer"], f"{workload} traced")
        check_nesting(workload, layers)
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
