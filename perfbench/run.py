#!/usr/bin/env python3
"""Benchmark of hypermoment: seeded verifier workloads, checked against an answer key.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each was chosen):
  axioms-cold   a fresh carrier per job: check_axioms, and enumerate_exponentials on
                finite carriers; a share of the carriers are defective
  moments-warm  carriers shared across jobs: build a moment family, verify the moment
                identity, the Leibniz rule and its transform-side form; some perturbed
  cli-mix       hypermoment.cli.main(argv) in-process over all six subcommands

Each workload is a closed loop with one client.  --trace 0 reports the
end-to-end metrics of an untraced run; --trace 1 runs a fixed job list twice,
untraced and traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
OUT = ROOT / ".perfbench"
WORKLOADS = ("axioms-cold", "moments-warm", "cli-mix")
HELD_OUT_SEED = 90210  # never used while tuning; kept for later performance claims
SETUP_REPEATS = 10  # extra fresh interpreters that only set up, for the setup_s median
CHILD_TIMEOUT = 150
# Times are reported at a reference host speed: the speed at which the
# worker's probe loop takes exactly this long (see worker.probe).
REF_PROBE_S = 0.001

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "peak_rss_mb": "MB", "right_verdict_ratio": "ratio", "completed_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONHASHSEED": "0"})
    return env


def worker(mode: str, workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "platform": platform.platform(), "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "blas_threads": 1}
    try:
        info["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        info["openblas"] = "unknown"
    return info


def verdict_counts(records: list[dict]) -> dict:
    n = len(records)
    wrong = [r for r in records if r["status"] != "right"]
    return {
        "attempted": n,
        "crashed": sum(r["failed"] for r in records),
        "wrong": len(wrong),
        "unexplained": sum(r["status"] == "wrong" for r in records),
        "listing": wrong,
    }


def scaled(latencies: list[float], probes: list[float]) -> list[float]:
    """Each job's time at the reference speed.

    probes[i] ran just before job i and probes[i + 1] just after it; the host
    speed changes in spells of seconds, so the two probes around a job gauge
    the speed it ran at.
    """
    return [t * REF_PROBE_S / ((probes[i] + probes[i + 1]) / 2) for i, t in enumerate(latencies)]


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    With a few hundred jobs of mixed sizes, a single order statistic jumps
    between neighbouring job sizes from run to run; weighting the order
    statistics around it by Beta(q(n+1), (1-q)(n+1)) steadies the estimate
    (perfbench/README.md compares it with the plain quantile).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [worker("setup", workload, seed) for _ in range(SETUP_REPEATS)]
    res = worker("timed", workload, seed, "--seconds", str(seconds))
    setups.append(res)
    ms = [1000.0 * t for t in scaled(res["latencies"], res["probes"])]
    for rec, t, p in zip(res["records"], ms, res["probes"]):
        rec["ms"], rec["probe_ms"] = t, 1000.0 * p
    counts = verdict_counts(res["records"])
    n = counts["attempted"]
    raw = [1000.0 * t for t in res["latencies"]]
    p90 = hd_quantile(ms, 0.9)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * REF_PROBE_S / s["setup_probe_s"] for s in setups),
        "jobs_per_s": n / (sum(ms) / 1000.0),
        "job_p50_ms": hd_quantile(ms, 0.5),
        "job_p90_ms": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "right_verdict_ratio": (n - counts["wrong"]) / n,
        "completed_ratio": (n - counts["crashed"]) / n,
    }
    extra = {"setup_samples": len(setups), "setup_runs": [[s["setup_s"], s["setup_probe_s"]] for s in setups],
             "jobs": n, "beyond_p90": sum(t > p90 for t in ms),
             "busy_s": res["busy_s"], **counts, "records": res["records"],
             "wall_clock": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                            "jobs_per_s": n / res["busy_s"], "job_p50_ms": hd_quantile(raw, 0.5),
                            "job_p90_ms": hd_quantile(raw, 0.9),
                            "probe_ms_median": 1000 * statistics.median(res["probes"])}}
    return metrics, extra


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    plain = worker("fixed", workload, seed)
    traced = worker("fixed", workload, seed, "--trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = (sum(scaled(traced["latencies"], traced["probes"]))
                                       / sum(scaled(plain["latencies"], plain["probes"])))
    same = [r["signature"] for r in plain["records"]] == [r["signature"] for r in traced["records"]]
    counts = verdict_counts(plain["records"])
    counts["traced_equals_untraced"] = same
    if not same:
        counts["unexplained"] += 1
    return metrics, counts


def units(trace: bool) -> dict[str, str]:
    return tracing.metric_units() if trace else END_TO_END


def report(workload: str, trace: bool, metrics: dict, extra: dict) -> None:
    print(f"== {workload} ({'traced, per layer' if trace else 'untraced, end to end'})")
    unit = units(trace)
    if trace:
        for name in sorted(metrics):
            print(f"  {name:48s} {metrics[name]:>14.6g} {unit[name]}")
        print(f"  traced verdicts equal untraced: {extra['traced_equals_untraced']}")
    else:
        n = extra["attempted"]
        rows = [
            ("setup_s", metrics["setup_s"], "s", f"median of {extra['setup_samples']} fresh interpreters"),
            ("jobs_per_s", metrics["jobs_per_s"], "jobs/s", f"{n} jobs in {extra['busy_s']:.2f} s busy"),
            ("job_p50_ms", metrics["job_p50_ms"], "ms", f"n={n}"),
            ("job_p90_ms", metrics["job_p90_ms"], "ms", f"n={n}, {extra['beyond_p90']} beyond"),
            ("wrong_verdict_ratio", extra["wrong"] / n, "ratio", f"{extra['wrong']}/{n}"),
            ("failed_ratio", extra["crashed"] / n, "ratio", f"{extra['crashed']}/{n}"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "timed process"),
        ]
        for name, value, u, note in rows:
            print(f"  {name:20s} {value:>12.6g} {u:7s} {note}")
        print("  times above are at the reference host speed; unscaled wall clock:",
              json.dumps({k: round(v, 4) for k, v in extra["wall_clock"].items()}))
    print(f"  answer key: {extra['attempted'] - extra['wrong']} right, "
          f"{extra['wrong'] - extra['unexplained']} known seed defect, "
          f"{extra['unexplained']} unexplained, {extra['crashed']} crashed")
    for r in extra["listing"]:
        print(f"    job {r['jid']} [{r['template']}] {r['status']}: {'; '.join(r['problems'])}")
        print(f"      input: {r['input']}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if trace:
        metrics, extra = traced_run(workload, seed)
    else:
        metrics, extra = timed_run(workload, seed, seconds)
    report(workload, trace, metrics, extra)
    OUT.mkdir(exist_ok=True)
    (OUT / f"last-{workload}-trace{int(trace)}.json").write_text(json.dumps(
        {"provenance": provenance(seed), "metrics": metrics, **extra}, indent=1, default=str))
    shutil.rmtree(OUT / f"specs-{workload}-{seed}", ignore_errors=True)
    return metrics, extra


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "hypermoment" / "__init__.py").is_file():
        print(f"error: no hypermoment sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("provenance:", json.dumps(provenance(args.seed)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    unit = units(bool(args.trace))
    merged: dict = {}
    attempted = failed = unexplained = 0
    for w in names:
        metrics, extra = run_one(w, args.seed, args.seconds, bool(args.trace))
        prefix = f"{w}." if len(names) > 1 else ""
        merged.update({prefix + k: {"value": v, "unit": unit[k]} for k, v in metrics.items()})
        attempted += extra["attempted"]
        failed += extra["crashed"]
        unexplained += extra["unexplained"]
    print(json.dumps({"correct": unexplained == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
