"""One pass over a workload, in the fresh interpreter this script starts.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--spans FILE]
    python3 bench/worker.py --workload NAME --seed N --setup-only

Prints one JSON line with `setup_s` (importing vkt and loading the
workload's inputs), `wall_s` (the whole job list, each job from spec to
checked result, one after another), `peak_rss_mb` and each job's outcome.
With --trace the layer functions are wrapped before the pass starts and
the line also carries the per-layer metrics; --spans writes the raw spans.
"""

from time import perf_counter

_START = perf_counter()  # setup_s counts from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports vkt)


def run_pass(jobs, expected, tracer=None):
    """Run the jobs in order; returns (wall seconds, per-job outcomes)."""
    outcomes = []
    start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t = perf_counter()
        try:
            workloads.run_job(job, expected)
            reason = None
        except Exception as exc:  # a failed job is counted, and the pass goes on
            reason = f"{type(exc).__name__}: {exc}"
        outcome = {"job": job.label, "ok": reason is None, "seconds": perf_counter() - t}
        if reason:
            outcome["reason"] = reason
        outcomes.append(outcome)
    return perf_counter() - start, outcomes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed)
    expected = workloads.load_expected()
    result = {"setup_s": perf_counter() - _START}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, module_shares, summarize
        tracer = Tracer()
        tracer.install()
    result["wall_s"], result["jobs"] = run_pass(jobs, expected, tracer)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = summarize(tracer.spans)
        result["module_self_share"] = module_shares(tracer.spans)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
