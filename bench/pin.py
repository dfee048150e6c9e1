"""Regenerate ``expected.json``: the pinned outputs the benchmark's gate
compares against.

    python3 bench/pin.py

For every input any seed can pick, the table digest is computed by the
reflection route (`vkt table`), including inputs that only the character
route runs, so that route is checked against the other one.  The verify
check names are taken from running every verify job, which must all pass.
Re-pin only when a workload's job list changes, never to make a gate pass.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main():
    tables = {}
    check_names = None
    for name in workloads.WORKLOADS:
        for job in workloads.all_jobs(name):
            if job.route == "verify":
                code, text = workloads.run_cli(["verify"] + job.options())
                report = json.loads(text)["verify"]
                if code != 0 or not report["all_passed"]:
                    raise SystemExit(f"{job.label}: verify failed, nothing pinned")
                names = [check["name"] for check in report["checks"]]
                if check_names not in (None, names):
                    raise SystemExit(f"{job.label}: check names differ: {names}")
                check_names = names
            elif job.input_label not in tables:
                code, text = workloads.run_cli(["table"] + job.options())
                if code != 0:
                    raise SystemExit(f"{job.label}: table exit code {code}")
                table = json.loads(text)["table"]
                tables[job.input_label] = workloads.table_digest(table["basis"],
                                                                 table["constants"])
            print(job.label, file=sys.stderr)
    expected = {"tables": dict(sorted(tables.items())), "verify_checks": check_names}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
