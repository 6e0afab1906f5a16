"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, ends its output with the
JSON line the benchmark contract asks for, carrying exactly the metrics
``BENCHMARK.json`` names, with their units; and that deliberately wrong
outputs are caught: a shifted frequency fails the long workloads'
exactness gate and counts in error_rate, lowers recall on collision, and a
non-zero CLI exit counts as a failed record. Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # sets the BLAS pins and the import path
from sparsespec import pipeline

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAIL {message}", file=sys.stderr)
        sys.exit(1)


def check_output_line() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for work in SPEC["workloads"]:
            name = work["name"]
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--pool", "2"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170)
            check(proc.returncode == 0, f"{name} trace={trace}: exit "
                  f"{proc.returncode}\n{proc.stderr}")
            last = json.loads(proc.stdout.splitlines()[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: keys {sorted(last)}")
            check(last["correct"] and last["failed"] == 0
                  and last["attempted"] >= 1, f"{name}: {last}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            check(got == want, f"{name} trace={trace}: metrics differ: "
                  f"{set(got) ^ set(want)}")
            print(f"smoke: {name} trace={trace} ok "
                  f"({last['attempted']} records)")


def shifted(analyze):
    def wrong(x, cfg):
        result = analyze(x, cfg)
        comps = tuple(replace(c, freq_hz=c.freq_hz + 1.0)
                      for c in result.components)
        return replace(result, components=comps)

    return wrong


def check_wrong_outputs() -> None:
    original = pipeline.analyze
    pipeline.analyze = shifted(original)
    try:
        for name in ("long_full", "collision"):
            workdir = Path(tempfile.mkdtemp(dir=run.OUT))
            try:
                result = run.measure(name, 0, 0.2, False, workdir, pool=2)
            finally:
                shutil.rmtree(workdir)
            recall = result["metrics"]["recall"]["value"]
            if name == "long_full":
                check(result["failed"] == result["attempted"]
                      and result["error_rate"] == 1.0,
                      f"shifted output passed the long_full gate: {result}")
            else:
                check(recall == 0.0, f"shifted collision recall {recall}")
            print(f"smoke: shifted frequency caught on {name}")
    finally:
        pipeline.analyze = original

    work = run.workloads.WORKLOADS["wideband_cli"]
    truth = run.workloads.specs("wideband_cli", 0, 1)
    crashed = run.CliRun(2, "sparsespec: error: bad input",
                         run.OUT / "absent.csv")
    sc = run.Score(work, truth)
    sc.judge(0, crashed)
    check(sc.failed == 1, "non-zero CLI exit was not counted as failed")
    print("smoke: non-zero CLI exit caught")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    check_output_line()
    check_wrong_outputs()
    print("smoke: PASS")
