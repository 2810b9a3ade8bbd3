"""Self-test of the benchmark: a few ops of every workload in both modes.

Run from the repository root (takes about a minute and a half):

    python3 perfbench/selftest.py

It checks the result line against BENCHMARK.json (a traced certify run whose
count identities fail is not ``correct``), and checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

import run  # noqa: E402  (after dont_write_bytecode)

failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def check_run(declared: dict, workload: str, trace: int) -> None:
    tag = f"{workload} --trace {trace}"
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace))
    expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode}: {proc.stderr[-2000:]}")
    result = result_line(proc.stdout)
    expect(result is not None, f"{tag}: last line is not a result object")
    if result is None:
        return
    expect(result["correct"] is True, f"{tag}: correct is {result['correct']}")
    expect(result["failed"] == 0, f"{tag}: {result['failed']} ops failed")
    expect(result["attempted"] >= run.MIN_OPS, f"{tag}: only {result['attempted']} ops")
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    expect(got == want, f"{tag}: metric names or units differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        ok = set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
        expect(ok and math.isfinite(m["value"]), f"{tag}: {name} is {m}")
        if not trace:
            expect(ok and m["value"] > 0, f"{tag}: {name} is not positive")
    if trace:
        layer_lines = [l for l in proc.stdout.splitlines() if l.startswith("layers ")]
        expect(len(layer_lines) == 1, f"{tag}: no layer table")
    print(f"ok   {tag}: {result['attempted']} ops")


def check_refuses_without_package() -> None:
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "certify-small", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect(result_line(proc.stdout) is None, "bare directory: printed a result")
        print("ok   refuses to run without src/dampgp")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_package()
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            check_run(declared, workload, trace)
    print(f"{len(failures)} failures" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
