"""dampgp benchmark: certified-fit latency and throughput, per-layer spans.

Run from the root of a dampgp checkout:

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 22 --trace 0

One closed-loop client in this process drives the package in ``src/``
through its public API.  With ``--trace 0`` it reports the end-to-end
metrics, with every time scaled to nominal host speed (see hostspeed.py);
with ``--trace 1`` it wraps the package's public functions (see
spans.py) around every other op and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics that
BENCHMARK.json declares for the mode; the lines before it give machine
info and every measured figure in readable form.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()
sys.dont_write_bytecode = True

import hostspeed  # noqa: E402  (after dont_write_bytecode)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread for the one client: on a 2-vCPU machine two threads made
# certify-large ops slower and their run-to-run spread wider (see README.md).
BLAS_THREADS = 1
# glibc's mallopt parameters, and the values the benchmark pins them to.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
MIN_OPS = 4  # at least two traced and two untraced ops in a traced run
SETUP_SAMPLES = 3  # fresh processes whose median set-up time is setup_s
WALL_LIMIT_S = 140.0  # stop taking new ops so that a slow program still exits in time
TAIL_PERCENT = 10  # op_tail_ms is the latency that this share of ops exceeds
READY = "perfbench-setup-ready"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="certify-small, certify-large, cli-pipeline, or all of them")
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to accumulate before stopping")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def pin_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds for the whole run.

    glibc raises both thresholds as the process frees larger blocks, so the
    cost of every D x D array (fresh zeroed pages, or reused heap) depends on
    what the process happened to free before.  Unpinned, certify-large ops
    took 1.6-2.0 s or about 1.2 s depending on that history, and their
    run-to-run spread was 10%.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        return f"glibc, mmap threshold {MMAP_THRESHOLD >> 20} MiB, trim threshold {TRIM_THRESHOLD >> 20} MiB"
    return "default (mallopt refused)"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dampgp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_info(args, nproc: int, malloc: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "malloc": malloc,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_checked(workload, i: int, meter, tracer=None) -> tuple[float, float, list[str]]:
    """Time op ``i`` (traced when a tracer is given), then check its outputs untimed.

    Returns the op's wall seconds, those seconds at nominal host speed (see
    hostspeed.py) and the problems found.
    """
    result, problems = None, []
    if tracer is not None:
        tracer.install()
    token = meter.begin()
    try:
        result = workload.run_op(i)
    except Exception:  # a failed op is counted and reported; the run goes on
        problems = [f"op {i}: {traceback.format_exc()}"]
    finally:
        _, seconds, speed = meter.end(token)
        if tracer is not None:
            tracer.uninstall()
    if result is not None:
        try:
            problems = workload.check(i, result)
        except Exception:  # a check that cannot run fails the op
            problems = [f"op {i} check: {traceback.format_exc()}"]
    workload.cleanup(i)
    return seconds, seconds * speed, problems


def set_up(args, workdir: Path, meter):
    """Import the package from src/, build the workload and run warm-up op 0."""
    sys.path.insert(0, str(SRC))
    import dampgp
    import workloads

    if not Path(dampgp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported dampgp from {dampgp.__file__}, not from src/")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    *_, problems = run_checked(workload, 0, meter)
    return workload, problems


def setup_seconds(args) -> list[float]:
    """Time from spawning a fresh process to the end of its set-up.

    Each sample is the wall time without the child's speed probes, scaled
    to nominal host speed by the factor the child measured.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        if proc.returncode != 0 or not line.startswith(READY):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        probe_s, speed = (float(x) for x in line.split()[1:])
        samples.append((elapsed - probe_s) * speed)
    return samples


def rate(records) -> float:
    """Completed ops per second at nominal host speed."""
    seconds = sum(adjusted for _, adjusted, _ in records)
    return sum(1 for *_, ok in records if ok) / seconds if seconds else 0.0


def end_to_end(records, setup: list[float], peak_rss_mb: float) -> dict:
    done = [r for r in records if r[2]] or records
    latencies = [adjusted for _, adjusted, _ in done]
    tail = statistics.quantiles(latencies, n=100 // TAIL_PERCENT, method="inclusive")[-1] \
        if len(latencies) > 1 else latencies[0]
    beyond = sum(1 for s in latencies if s > tail)
    wall = statistics.median(seconds for seconds, _, _ in done)
    speed = statistics.median(adjusted / seconds for seconds, adjusted, _ in done)
    print(f"latency at nominal host speed: n={len(latencies)} "
          f"p50={statistics.median(latencies) * 1e3:.4g} ms "
          f"p{100 - TAIL_PERCENT}={tail * 1e3:.4g} ms ({beyond} samples beyond it)")
    print(f"wall-clock p50 {wall * 1e3:.4g} ms; median speed factor {speed:.4g} "
          f"(nominal / measured host speed, see hostspeed.py)")
    print(f"setup: median of {len(setup)} fresh processes, samples "
          + ", ".join(f"{s:.4g}" for s in setup) + " s")
    return {
        "ops_per_s": (rate(records), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, records, traced, workload) -> tuple[dict, list[str]]:
    """Layer metrics per traced op; the count identities are checked on the totals."""
    on = [r for r, t in zip(records, traced) if t]
    off = [r for r, t in zip(records, traced) if not t]
    totals = tracer.layer_metrics()
    problems = workload.identity_problems(totals, len(on))
    ops = len(on) or 1
    layers = {name: (value / ops, f"{unit}/op") if unit in ("count", "s") else (value, unit)
              for name, (value, unit) in totals.items()}
    layers["trace.ops"] = (len(on), "count")
    layers["trace.overhead_frac"] = (1.0 - rate(on) / rate(off) if rate(off) else 0.0, "ratio")
    print("layers (per traced op): " + json.dumps({k: v for k, (v, _) in layers.items()}))
    print(f"trace overhead: traced {rate(on):.4g} ops/s over {len(on)} ops, untraced "
          f"{rate(off):.4g} ops/s over {len(off)} ops, overhead "
          f"{layers['trace.overhead_frac'][0]:.2%} of ops_per_s")
    print("count identities: " + ("; ".join(problems) if problems else "hold"))
    return layers, problems


def measure(args, nproc: int, malloc: str, workdir: Path) -> int:
    setup = [] if args.trace else setup_seconds(args)
    meter = hostspeed.SpeedMeter()
    workload, problems = set_up(args, workdir, meter)
    print("machine: " + json.dumps(machine_info(args, nproc, malloc)))

    import spans

    tracer = spans.Tracer() if args.trace else None
    records, traced = [], []  # (wall s, nominal-speed s, ok) per op; whether traced
    timed = 0.0
    i = 1
    while len(records) < MIN_OPS or timed < args.seconds:
        if time.perf_counter() - STARTED > WALL_LIMIT_S:
            print(f"stopped after {len(records)} ops: wall-time limit {WALL_LIMIT_S} s")
            break
        trace_op = tracer is not None and i % 2 == 0
        seconds, adjusted, op_problems = run_checked(
            workload, i, meter, tracer if trace_op else None)
        records.append((seconds, adjusted, not op_problems))
        traced.append(trace_op)
        problems += op_problems
        timed += seconds
        i += 1
    meter.stop()
    # before the final checks, whose dense oracle is larger than any op
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems += workload.final_problems()
    except Exception:  # a check that cannot run fails the run
        problems.append(f"final check: {traceback.format_exc()}")
    attempted = len(records)
    failed = sum(1 for *_, ok in records if not ok)
    print(f"run: {attempted} ops attempted, {failed} failed (fail_frac {failed / attempted:.4g}), "
          f"{timed:.4g} s timed")
    if tracer is None:
        measured = end_to_end(records, setup, peak_rss_mb)
    else:
        measured, identity = per_layer(tracer, records, traced, workload)
        problems += identity
    for problem in problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for spec in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = measured[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": unit}
        print(f"  {spec['name']:<40} {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload that BENCHMARK.json lists, each in a fresh process."""
    codes = []
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        print(f"== {spec['name']}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", spec["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    # a set-up probe times itself from here; see setup_seconds
    probe_meter = hostspeed.SpeedMeter() if args.probe_setup else None
    probe_token = probe_meter.begin() if probe_meter else None
    malloc = pin_malloc()
    if not (SRC / "dampgp" / "__init__.py").is_file():
        print("error: src/dampgp not found; run from the root of a dampgp checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if probe_meter is not None:
            set_up(args, workdir, probe_meter)
            wall, seconds, speed = probe_meter.end(probe_token)
            probe_meter.stop()
            print(f"{READY} {wall - seconds!r} {speed!r}", flush=True)
            return 0
        return measure(args, nproc, malloc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
