"""sparsespec benchmark: one closed-loop client, one record after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Set-up runs three times in fresh child processes (import, synthesis, input
files) and reports the median. The measuring process then loads the
inputs, warms up on one record and calls the program for ``--seconds``,
scoring every output against the synthesised truth afterwards.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced chunks, with spans around
every public function (see ``spans.py``) and reports per-record layer
metrics, the traced/untraced throughput ratio included. The last stdout
line is one JSON object; a fuller record, with the environment, goes to
``.perfbench_out/`` together with the spans.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# BLAS threads are pinned before numpy loads; children inherit the pins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "sparsespec" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from sparsespec import cli, pipeline  # noqa: E402
from sparsespec.core import ComplexSignal  # noqa: E402
from sparsespec.fileio import FileFormatError, read_components_csv  # noqa: E402
from sparsespec.lab import evaluate  # noqa: E402
from sparsespec.pipeline import SparseSpectrum  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TRACE_CHUNKS = 4
CHILD_TIMEOUT_S = 120.0
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
SUMMARY = re.compile(r"samples_used=(\d+) resolution_hz=(\S+)")

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "samples_used": "count",
    "recall": "share",
    "precision": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("share", "amp_recall")):
        return "share"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run (set-up failed)."""


@dataclass
class CliRun:
    """One ``sparsespec analyze`` call: exit code, stdout, output file."""

    code: int
    stdout: str
    out_path: Path
    maxrss_kb: int = 0


def closed_loop(call, score: "Score", pool: int, seconds: float,
                start: int = 0, tracer=None) -> list[float]:
    """Call ``call(record, i)`` back to back until ``seconds`` have passed.

    Returns the per-call latencies. Each output is judged right away,
    outside the timed call, so no output outlives its record.
    """
    latencies = []
    clock = time.perf_counter
    deadline = clock() + seconds
    i = start
    while True:
        if tracer is not None:
            tracer.record = i
        t0 = clock()
        try:
            out = call(i % pool, i)
        except Exception as exc:  # a failed record, counted in error_rate
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        score.judge(i % pool, out)
        i += 1
        if t1 >= deadline:
            return latencies


def records_per_s(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def prepare(name: str, seed: int, pool: int, workdir: Path):
    """Run set-up SETUP_REPEATS times: the wall times, median import time."""
    walls, imports = [], []
    argv = [sys.executable, str(HERE / "prepare.py"), name, str(seed),
            str(pool), str(workdir)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=CHILD_ENV, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up took over {exc.timeout:g} s") from exc
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, statistics.median(imports)


def cli_argv(workdir: Path, record: int, i: int, rate: float) -> list[str]:
    return ["analyze", "--in", str(workdir / f"record{record}.csv"),
            "--out", str(workdir / f"out{i}.csv"), "--rate", repr(rate),
            "--config", str(workdir / "config.txt")]


def cli_child(workdir: Path, rate: float):
    """Each record is a fresh ``python -m sparsespec.cli analyze`` process."""

    def call(record: int, i: int) -> CliRun:
        log = workdir / f"log{i}.txt"
        argv = [sys.executable, "-m", "sparsespec.cli",
                *cli_argv(workdir, record, i, rate)]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=CHILD_ENV)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 reaps the child and returns its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text()
        log.unlink()
        return CliRun(proc.returncode, text, workdir / f"out{i}.csv",
                      usage.ru_maxrss)

    return call


def cli_inprocess(workdir: Path, rate: float):
    """``cli.main`` in this process, as the traced run calls it."""

    def call(record: int, i: int) -> CliRun:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(cli_argv(workdir, record, i, rate))
        return CliRun(code, buf.getvalue(), workdir / f"out{i}.csv")

    return call


def analyze_call(records: list[ComplexSignal], cfg):
    def call(record: int, i: int) -> SparseSpectrum:
        # Resolved at call time so that the tracer's wrapper is used.
        return pipeline.analyze(records[record], cfg)

    return call


def read_output(out, rate: float) -> tuple[SparseSpectrum, int]:
    """Result and samples_used of one call; raises on a failed record."""
    if isinstance(out, Exception):
        raise out
    if isinstance(out, SparseSpectrum):
        return out, out.diagnostics["samples_used"]
    try:
        if out.code != 0:
            raise RuntimeError(f"exit code {out.code}: {out.stdout[-300:]}")
        found = SUMMARY.search(out.stdout)
        if found is None:
            raise FileFormatError("no samples_used in the summary line")
        comps = read_components_csv(out.out_path)
    finally:
        out.out_path.unlink(missing_ok=True)
    result = SparseSpectrum(components=tuple(comps), config=None,
                            rate_hz=rate, resolution_hz=float(found[2]))
    return result, int(found[1])


@dataclass
class Score:
    """Running verdicts: every call is gated, quality counts once per
    distinct record."""

    work: workloads.Workload
    truths: list
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    tones: int = 0
    components: int = 0
    matched: int = 0
    amp_ok: int = 0
    maxrss_kb: int = 0
    first_error: str = ""
    seen: set = field(default_factory=set)

    def judge(self, record: int, out) -> None:
        self.attempted += 1
        if isinstance(out, CliRun):
            self.maxrss_kb = max(self.maxrss_kb, out.maxrss_kb)
        truth = self.truths[record]
        try:
            result, used = read_output(out, truth.rate_hz)
            report = evaluate(truth, result, tol_hz=self.work.tol_hz)
            if not workloads.passes_gate(self.work, report):
                raise ValueError(f"record {record} failed the exactness gate")
        except Exception as exc:
            if not self.failed:
                traceback.print_exception(exc, file=sys.stderr)
                self.first_error = f"{type(exc).__name__}: {exc}"
            self.failed += 1
            return
        self.samples += used
        if record in self.seen:
            return
        self.seen.add(record)
        self.tones += len(truth.tones)
        self.components += len(result.components)
        self.matched += len(report.matched)
        self.amp_ok += sum(workloads.amp_ok(tone, err)
                           for tone, _, _, err in report.matched)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": "unknown",
        "caches": {},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.partition(":")[2].strip()
                break
    with contextlib.suppress(OSError):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(
                kind, "")
            env["caches"][label] = (index / "size").read_text().strip()
    return env


def latency_figures(latencies: list[float], tail_pct: float) -> dict:
    ms = np.asarray(latencies) * 1e3
    tail = float(np.percentile(ms, tail_pct))
    return {"latency_p50_ms": float(np.median(ms)), "latency_tail_ms": tail,
            "tail": {"percentile": tail_pct, "records": len(ms),
                     "beyond": int(np.count_nonzero(ms > tail))}}


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, pool: int | None = None) -> dict:
    """Set up, run and score one workload; returns the full result."""
    work = workloads.WORKLOADS[name]
    pool = work.pool if pool is None else pool
    setup_walls, import_s = prepare(name, seed, pool, workdir)
    truths = workloads.specs(name, seed, pool)
    rate = truths[0].rate_hz
    if work.cli:
        call = cli_inprocess(workdir, rate) if trace \
            else cli_child(workdir, rate)
    else:
        cfg = workloads.config(name)
        samples = np.load(workdir / "records.npy")
        records = [ComplexSignal(samples=row, rate_hz=rate) for row in samples]
        call = analyze_call(records, cfg)

    closed_loop(call, Score(work, truths), pool, 0.0, start=-1)  # warm-up
    sc = Score(work, truths)
    result = {"workload": name, "why": work.why, "seed": seed,
              "pool_records": pool, "client": "closed loop, 1 client",
              "threads": 1, "environment": environment()}
    if not trace:
        lat = closed_loop(call, sc, pool, seconds)
        rss_kb = sc.maxrss_kb if work.cli \
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        figures = latency_figures(lat, work.tail_pct)
        metrics = {
            "records_per_s": records_per_s(lat),
            "latency_p50_ms": figures["latency_p50_ms"],
            "latency_tail_ms": figures["latency_tail_ms"],
            "samples_used": share(sc.samples, sc.attempted - sc.failed),
            "recall": share(sc.matched, sc.tones),
            "precision": share(sc.matched, sc.components),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END_UNITS
        result["tail"] = figures["tail"]
        result["latencies_ms"] = [1e3 * t for t in lat]
        result["setup_walls_s"] = setup_walls
    else:
        # Untraced and traced chunks alternate so that drift in machine
        # speed hits both sides of the overhead ratio alike.
        tracer = spans.Tracer()
        plain, traced = [], []
        for chunk in range(TRACE_CHUNKS):
            on = chunk % 2 == 1
            with tracer if on else contextlib.nullcontext():
                part = closed_loop(call, sc, pool, seconds / TRACE_CHUNKS,
                                   len(plain) + len(traced),
                                   tracer if on else None)
            (traced if on else plain).extend(part)
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics["cli.import_ms"] = 1e3 * import_s
        metrics["pipeline.amp_recall"] = share(sc.amp_ok, sc.tones)
        metrics["trace.rps_ratio"] = records_per_s(traced) \
            / records_per_s(plain)
        units = {k: layer_unit(k) for k in metrics}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.csv"
        tracer.write(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
        result["raised"] = {k: dict(v["raised"])
                            for k, v in tracer.summary().items()
                            if v["raised"]}
    result.update({
        "attempted": sc.attempted, "failed": sc.failed,
        "error_rate": sc.failed / sc.attempted,
        "first_error": sc.first_error,
        "amp_recall": share(sc.amp_ok, sc.tones),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })
    return result


def report(result: dict) -> None:
    env = result["environment"]
    caches = " ".join(f"{k} {v}" for k, v in env["caches"].items())
    print(f"workload {result['workload']}: {result['why']}")
    print(f"seed {result['seed']}, {result['pool_records']} records cycled, "
          f"{result['client']}, threads={result['threads']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, nproc {env['nproc']}, {env['cpu_model']}, "
          f"{caches}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            tail = result["tail"]
            note = (f" (p{tail['percentile']:g} of {tail['records']} records,"
                    f" {tail['beyond']} beyond)")
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"error_rate = {result['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(f"amp_recall = {result['amp_recall']:.6g} share")
    if result["first_error"]:
        print(f"first error: {result['first_error']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", type=int, default=None,
                        help="records per run (default: the workload's)")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir, args.pool)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
