"""Run one workload of the vkt benchmark and print its metrics.

    python3 bench/run.py --workload reflection_table --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each pass over the workload's job list runs
in a fresh interpreter (`worker.py`) as a closed loop with one client: one
process, no threads, each job started after the previous one finished.
Passes repeat until `--seconds` is used up (at least three), and the
end-to-end metrics are medians over them.  `setup_s` is the median over
every pass plus extra set-up-only interpreters.

With `--trace 1` untraced and traced passes alternate; the traced ones
wrap vkt's layer functions and report per-layer metrics (medians over the
traced passes), and `trace.overhead_s` is the traced minus the untraced
median `wall_s`.  Raw spans go to `.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is
the benchmark's error rate, over every job of every pass.  The line before
it records the passes, the jobs and the machine (Python version, nproc,
CPU model); the same record is saved under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_SAMPLES = 12
# A run must end within 180 s: no pass starts that would end after
# LAST_PASS_END_S, and any interpreter still running at DEADLINE_S is killed.
LAST_PASS_END_S = 150
DEADLINE_S = 170


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor()}


def run_worker(args, *extra):
    """One fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, args.start + DEADLINE_S - time.perf_counter())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args):
    """Passes until the time is used up; with tracing, untraced and traced
    passes alternate and both kinds run at least once."""
    kinds = [False, True] if args.trace else [False]
    passes = []
    start = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        extra = ["--trace", "--spans", str(OUT_DIR / (
            f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.jsonl.gz"))] \
            if traced else []
        t = time.perf_counter()
        result = run_worker(args, *extra)
        result["traced"] = traced
        result["process_s"] = time.perf_counter() - t
        passes.append(result)
        now = time.perf_counter()
        estimate = statistics.median(p["process_s"] for p in passes)
        enough = len(passes) >= max(MIN_PASSES, len(kinds))
        if now + estimate > args.start + LAST_PASS_END_S or \
                (enough and now + estimate > start + args.seconds):
            return passes


def main(argv=None):
    # BENCHMARK.json names the workloads and gives every metric's unit
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.start = time.perf_counter()
    if not (ROOT / "src" / "vkt" / "__init__.py").is_file():
        print(f"no vkt package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    try:
        run_worker(args, "--setup-only")  # compiles the bytecode; not timed
        passes = run_passes(args)
        setups = [p["setup_s"] for p in passes] + [
            run_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        names = list(traced[0]["layers"])
        metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in untraced))
    else:
        metrics = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced)}

    jobs = [job for p in passes for job in p["jobs"]]
    failures = [job for job in jobs if not job["ok"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "setup_s": p["setup_s"],
                    "job_s": [job["seconds"] for job in p["jobs"]],
                    **({"spans": p["spans"], "module_self_share": p["module_self_share"]}
                       if p["traced"] else {})} for p in passes],
        "setup_s": setups,
        "jobs": passes[0]["jobs"],
        "failures": failures,
    }
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
