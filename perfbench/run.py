"""comatroid benchmark: one workload, repeated in fresh processes, checked and summarised.

    python3 perfbench/run.py --workload sweep|scan|decide-mix --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the run repeats the workload, each
repetition in a new process, until the next one would end after S seconds (at
least one), and prints the end-to-end metrics as medians over repetitions. With
--trace 1 it runs the workload once untraced and once traced and prints the
per-layer metrics. Every end-to-end time is in reference-speed seconds: the raw
time scaled by the speed probe that runs inside each repetition (speed.py).
Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "scan", "decide-mix")
SETUP_SAMPLES = 6  # set-up-only processes per run, on top of one per repetition
CHILD_TIMEOUT_S = 170.0
CACHE_VAR = "COMATROID_CACHE_DIR"


class BenchError(Exception):
    pass


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's stamp and the
    # parent's spawn time can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: machine-speed context, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(CACHE_VAR, None)  # disk-cache hits would fake canonical_key speed
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def spawn(workload: str, seed: int, mode: str, part: int = 0,
          max_extra: int | None = None, trace_out: Path | None = None) -> dict:
    """Run rep.py in a new process; return its report plus spawn time and rusage."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--part", str(part)]
    if max_extra is not None:
        cmd += ["--max-extra", str(max_extra)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = monotonic()
    # a session of its own, so that stopping it also stops anything it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone

    timer = threading.Timer(CHILD_TIMEOUT_S, stop)
    timer.start()
    try:
        raw = proc.stdout.read()
    except BaseException:
        stop()
        raise
    finally:
        proc.stdout.close()
        # wait4 reaps the child and returns the usage of it and of every
        # descendant it waited for
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    ended = monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} repetition exited with {proc.returncode}")
    lines = raw.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} repetition printed nothing")
    report = json.loads(lines[-1])
    report["wall_s"] = ended - spawned
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    # raw figures without the probe's own slices, then scaled to reference speed
    # (speed.py); a traced repetition runs unprobed and keeps its raw figures
    raw_setup = report["setup_end"] - spawned - report.get("setup_probe_wall_s", 0.0)
    raw_cpu = usage.ru_utime + usage.ru_stime - report.get("probe_cpu_s", 0.0)
    setup_cpu = report.get("setup_cpu_s", 0.0)
    report["raw"] = {"setup_s": raw_setup, "cpu_s": raw_cpu}
    report["setup_s"] = raw_setup * report.get("setup_factor", 1.0)
    # set-up CPU by the set-up slices' factor, the rest by the work slices'
    report["cpu_s"] = (setup_cpu * report.get("setup_factor", 1.0)
                       + (raw_cpu - setup_cpu) * report.get("work_factor", 1.0))
    if "work_s" in report:
        f = report.get("work_factor", 1.0)
        report["raw"].update(work_s=report["work_s"], latency=dict(report["latency"]))
        report["work_s"] *= f
        for key in ("p50_ms", "tail_ms"):
            report["latency"][key] *= f
    return report


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "comatroid").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "none (not a git checkout; see src_sha256)"


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "scan_jobs": 1,
        "fresh_process_per_repetition": True,
        "cache_dir_var_removed": CACHE_VAR,
        "times_scaled_to_reference_speed": {
            "slice_units": speed.TIMED_UNITS, "slice_churn": speed.TIMED_CHURN,
            "nominal_slice_s": speed.NOMINAL_SLICE_S},
    }


def measure(args) -> tuple[dict, list[dict]]:
    """End-to-end metric values: medians over fresh-process repetitions."""
    setups = [spawn(args.workload, args.seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    reps = []
    start = time.perf_counter()
    while True:
        # decide-mix moves on to the next part of its stream; the others repeat
        reps.append(spawn(args.workload, args.seed, "run", part=len(reps)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed + typical > args.seconds:
            break
    setups += [r["setup_s"] for r in reps]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(r["items"] / r["work_s"] for r in reps),
        # each repetition's percentiles come from its own inputs (a decide-mix
        # part), so their mean is the steadier estimate; a median of medians
        # spread 1.5 times as far over seeds
        "latency_p50_ms": statistics.fmean(r["latency"]["p50_ms"] for r in reps),
        "latency_tail_ms": statistics.fmean(r["latency"]["tail_ms"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    print(f"repetitions: {len(reps)}, set-up samples: {len(setups)}")
    for r in reps:
        print(f"  repetition: work {r['work_s']:.3f} s (raw {r['raw']['work_s']:.3f} s, "
              f"speed factor {r['work_factor']:.3f} from {r['probe_slices']} slices), "
              f"{r['items']} items, cpu {r['cpu_s']:.3f} s (raw {r['raw']['cpu_s']:.3f} s), "
              f"set-up {r['setup_s']:.3f} s (raw {r['raw']['setup_s']:.3f} s), "
              f"rss {r['peak_rss_mb']:.1f} MB, failed {r['failed']}, "
              f"facts {json.dumps(r['facts'])}")
        print(f"    sha256 of outputs: {r['digest']}")
    return values, reps


def trace(args) -> tuple[dict, list[dict]]:
    """Per-layer metric values from one traced repetition, and its overhead over an untraced one."""
    TRACE_DIR.mkdir(exist_ok=True)
    trace_out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    plain = spawn(args.workload, args.seed, "run")
    reports = [plain]
    scan = {"census.scan.tables_s": 0.0, "census.scan.block_s": 0.0,
            "census.scan.extensions": 0, "census.scan.j_computed": 0,
            "census.scan.j_frac": 0.0}
    if args.workload == "scan":
        # the table build alone: the same public call with one extra point
        probe = spawn(args.workload, args.seed, "run", max_extra=1)
        reports.append(probe)
        scan["census.scan.tables_s"] = probe["work_s"]
        scan["census.scan.block_s"] = plain["work_s"] - probe["work_s"]
    traced = spawn(args.workload, args.seed, "trace", trace_out=trace_out)
    reports.append(traced)
    if args.workload == "scan":
        facts = traced["facts"]
        scan["census.scan.extensions"] = facts["extensions"]
        scan["census.scan.j_computed"] = facts["j_computed"]
        scan["census.scan.j_frac"] = facts["j_computed"] / facts["extensions"]
    values = dict(traced["layers"])
    values.update(scan)
    # both raw: the traced repetition runs without the speed probe
    values["trace.overhead_frac"] = traced["work_s"] / plain["raw"]["work_s"] - 1.0
    print(f"untraced raw work {plain['raw']['work_s']:.3f} s, "
          f"traced work {traced['work_s']:.3f} s; "
          f"spans written to {trace_out.relative_to(ROOT)}")
    return values, reports


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "comatroid" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    ctx = context(args)
    ctx["reference_loop_s_before"] = reference_loop()
    values, reports = trace(args) if args.trace else measure(args)
    ctx["reference_loop_s_after"] = reference_loop()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("context: " + json.dumps(ctx))

    attempted = sum(r["items"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for line in r["failures"]:
            print(f"FAILED: {line}")
    print(f"failed_frac {failed / attempted:.6g} (failed {failed} of {attempted} items)")
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            lat = reports[0]["latency"]
            note = f"  (p{lat['tail_pct']:.3f} of {lat['n']} samples per repetition"
            note += ")" if lat["n"] > 10 else "; under 11 samples, so the maximum)"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # turn a termination request into an exception, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
