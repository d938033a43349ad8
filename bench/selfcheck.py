"""Quick self-check of the benchmark, with tiny rep counts.

    python3 bench/selfcheck.py

For every workload of `bench/run.py` (those BENCHMARK.json lists and
`wide_probe`) it runs `bench/run.py --seconds 0` once untraced and
twice traced on the same seed. With no time to fill, a run does only
its reference reps (16 on `hot_stage2`, 8 otherwise) or one 8-rep
invocation, at the workload's real size. It checks that each run's
last line is the result object, that it prints exactly the metric
names BENCHMARK.json lists for that mode, each with the listed unit
and a finite value, and that the run judged its outputs correct. The
exact counts and the trajectory fingerprint must repeat bit for bit
across the two traced runs and match the untraced run. Finally the
benchmark must refuse to run, with a non-zero exit and no result, from
a copy that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
EXACT = ("protocol.measure_calls_per_rep", "protocol.probe_blocks_per_rep",
         "protocol.steps_per_rep", "protocol.stage2_step", "protocol.shots_per_rep",
         "model.grid_points_per_rep", "model.alpha_cpmg.calls_per_rep",
         "protocol.k_abs.calls_per_rep")


def run(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_result(lines, expected: dict, label: str, problems: list) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or not result["attempted"] >= 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metric names differ: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"{label}: {name} printed as {m}, expected unit {unit}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = [f"{w['name']}: not a workload of bench/run.py"
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for wl in WORKLOADS:
        outs = []
        for trace in (0, 1, 1):
            label = f"{wl} trace {trace}"
            rc, lines, err = run(ROOT, wl, trace)
            if rc != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {rc}\n{err}")
                break
            result = check_result(lines, layer if trace else e2e, label, problems)
            outs.append((json.loads(lines[-2])["details"], result["metrics"]))
        else:
            (d0, _), (d1, m1), (d2, m2) = outs
            if not d0["fingerprint"] == d1["fingerprint"] == d2["fingerprint"]:
                problems.append(f"{wl}: fingerprints differ: "
                                f"{[d['fingerprint'] for d, _ in outs]}")
            for name in EXACT:
                if m1[name]["value"] != m2[name]["value"]:
                    problems.append(f"{wl}: {name} not exact: "
                                    f"{m1[name]['value']} vs {m2[name]['value']}")
        print(f"{wl}: checked", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, lines, _ = run(bare, spec["workloads"][0]["name"], 0)
    if rc == 0 or lines:
        problems.append(f"bare copy: exit {rc}, stdout {lines}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
