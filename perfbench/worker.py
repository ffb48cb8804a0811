"""One fresh interpreter: set up a workload, run its jobs, print one JSON line.

Modes:
  setup  import hypermoment and build the workload's shared inputs, nothing else;
  timed  then run jobs in a closed loop until the timed regions add up to --seconds,
         finishing the current round;
  fixed  then run exactly TRACE_ROUNDS rounds of jobs (the traced run and its untraced twin).

Run by run.py, never by hand; run.py pins the BLAS threads and the hash seed
in the environment before this interpreter starts.

The host's speed drifts by a third within seconds on a shared machine, so a
short fixed probe loop runs before set-up, after it, and before every job;
run.py scales each time by the probe times around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
TRACE_ROUNDS = 2  # rounds of jobs in --mode fixed


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def probe() -> float:
    """Seconds taken by a fixed ~1 ms loop: the host's current speed.

    The loop does what the package does most: it builds small objects, merges
    complex weights in dicts and sorts (point, weight) pairs.  The collector
    is off while it runs (the loop makes no cycles), so a collection owed to
    the garbage of a job is paid inside that job, not charged to the probe.
    """
    gc.disable()
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(100):
        items = [_Item((i * 7 + j) % 23, complex(j, -i) * 0.5) for j in range(6)]
        for it in items:
            acc[it.key] = acc.get(it.key, 0j) + it.weight * (1 + 0.5j)
        pairs = sorted(((k, w) for k, w in acc.items() if w != 0), key=lambda kw: kw[0])
        acc = dict(pairs[:12])
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    probes = [probe() for _ in range(10)][5:]  # the first few run while the process warms up
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import hypermoment

    if Path(hypermoment.__file__).resolve().parent != (ROOT / "src" / "hypermoment").resolve():
        raise SystemExit(f"imported hypermoment from {hypermoment.__file__}, not from the checkout")
    sys.path.insert(0, str(HERE))
    import jobs
    import runners

    workdir = OUT / f"specs-{args.workload}-{args.seed}"
    plan = jobs.plan_setup(args.workload, args.seed, workdir)
    shared = runners.build_shared(args.workload, plan)
    setup_s = time.perf_counter() - t0
    probes += [probe() for _ in range(5)]
    result: dict = {"setup_s": setup_s, "setup_probe_s": sorted(probes)[len(probes) // 2]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # Objects alive after set-up (numpy, scipy, the package) are never
    # garbage; frozen, they are not rescanned by a collection that happens to
    # fall inside some job.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = runners.RUNNERS[args.workload]
    latencies, probes, records = [], [], []
    busy = 0.0
    wall_cap = time.perf_counter() + 3 * args.seconds + 30
    for job in jobs.stream(args.workload, args.seed, plan):
        if args.mode == "fixed" and job.round >= TRACE_ROUNDS:
            break
        if tracer is not None:
            tracer.job = job.jid
        probes.append(probe())
        start = time.perf_counter()
        try:
            out = run(job.spec, shared)
        except Exception as exc:  # a crash of the program is a result, not a benchmark error
            out = {"crash": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        busy += elapsed
        latencies.append(elapsed)
        verdict = jobs.judge(job, out)
        records.append({"jid": job.jid, "template": job.template, "s": elapsed, "status": verdict.status,
                        "failed": verdict.failed, "signature": jobs.signature(job, out),
                        "problems": verdict.problems,
                        "input": job.describe() if verdict.status != "right" else None})
        if args.mode == "timed" and job.last_in_round and busy >= args.seconds:
            break
        if time.perf_counter() > wall_cap:
            raise SystemExit(f"{args.workload}: no round boundary within {3 * args.seconds + 30:.0f} s")
    probes.append(probe())
    result.update({
        "busy_s": busy,
        "latencies": latencies,
        "probes": probes,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
