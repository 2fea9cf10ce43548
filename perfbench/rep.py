"""One repetition of one workload, in a fresh process.

Started by run.py, never by hand: it prints one JSON object on stdout with the
set-up end stamp, the timed work's figures, the checks, the speed probe's
factors and, when traced, the per-layer aggregates. Process-global memos of the
program live and die with this process, so each repetition pays them as a new
`comatroid` run would.

An untraced repetition starts the speed probe (speed.py) before it imports the
program, so that the probe covers set-up as well as work. A traced one runs
without it, so that the probe's slices add to no span.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import speed

SETUP_PERIOD_S = 0.01  # set-up lasts 0.1-1 s: slices at a fine period
SETUP_BURST = 20  # slices right after set-up, so that short set-ups get a factor too
WORK_PERIOD_S = 0.05


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail in ms; the tail is the highest percentile with ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0  # too few samples to leave ten beyond: the maximum
    return {"p50_ms": statistics.median(lat) * 1e3, "tail_ms": tail * 1e3,
            "tail_pct": pct, "n": n}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sweep", "scan", "decide-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--max-extra", type=int)  # default: workloads.SCAN_MAX_EXTRA
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    probe = None
    if args.mode != "trace":
        probe = speed.Probe()
        probe.start(SETUP_PERIOD_S)
    clock = probe.clock if probe else time.perf_counter

    import comatroid.cli  # noqa: F401  imports every program module before tracing patches
    import workloads

    if args.max_extra is None:
        args.max_extra = workloads.SCAN_MAX_EXTRA

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    setup, work = {
        "sweep": (workloads.setup_sweep, workloads.work_sweep),
        "scan": (workloads.setup_scan,
                 lambda s, clock: workloads.work_scan(s, args.max_extra, clock)),
        "decide-mix": (lambda seed: workloads.setup_mix(seed, args.part), workloads.work_mix),
    }[args.workload]
    state = setup(args.seed)
    out = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if probe:
        out["setup_probe_wall_s"] = probe.wall
        out["setup_cpu_s"] = time.process_time() - probe.cpu
        probe.burst(SETUP_BURST)
        setup_end = probe.mark()
        out["setup_factor"] = probe.factor(0, setup_end)
        probe.start(WORK_PERIOD_S)
    if args.mode != "setup":
        res = work(state, clock)
        out.update(work_s=res.seconds, items=res.items, failed=res.failed,
                   failures=res.failures, digest=res.digest, facts=res.facts,
                   latency=latency_summary(res.latencies))
    if probe:
        probe.stop()
        out.update(work_factor=probe.factor(setup_end), probe_cpu_s=probe.cpu,
                   probe_slices=len(probe.slices))
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh, indent=1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
