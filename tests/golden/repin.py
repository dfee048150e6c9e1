"""The pinned report corpus of the `vkt` command line, and its re-pinning.

Each command line of `corpus()` runs through `vkt.cli.main` in process.
`reports.json` keeps, per command line, its exit code and the SHA-256 of
its stdout and of its stderr, so a report that changes by one byte between
two versions of the package is caught (tests/test_golden_reports.py).

    PYTHONPATH=src python tests/golden/repin.py

rewrites reports.json from the current code and prints every command line
whose pinned report changed.  A change that re-pins lists each changed
line, and why, in CHANGES.md."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import vkt.cli

GOLDEN = Path(__file__).resolve().parent
REPORTS = GOLDEN / "reports.json"

REPORT_COMMANDS = ("info", "basis", "classes", "table", "table --format tsv", "fuse 0 1",
                   "verify")

# the acceptance grid (tests/test_acceptance.py) with every W-invariant
# grading of each datum: (group, level, torus block, gradings)
GRID = [
    ("SU(2)", 3, None, ("0", "1")),
    ("SU(2)", 5, None, ("0", "1")),
    ("SU(2)", 8, None, ("0", "1")),
    ("SU(3)", 4, None, ("0,0",)),
    ("SU(3)", 5, None, ("0,0",)),
    ("SU(3)", 6, None, ("0,0",)),
    ("U(1)^2", None, "[[2,0],[0,2]]", ("0,0", "0,1", "1,0", "1,1")),
    ("U(1)^2", None, "[[2,1],[1,2]]", ("0,0", "0,1", "1,0", "1,1")),
    ("U(1)^2", None, "[[3,1],[1,2]]", ("0,0", "0,1", "1,0", "1,1")),
    ("SU(2) x U(1)", 2, "[[2]]", ("0,0", "0,1", "1,0", "1,1")),
    ("SU(2) x U(1)", 3, "[[4]]", ("0,0", "0,1", "1,0", "1,1")),
    ("SU(2) x U(1)", 4, "[[2]]", ("0,0", "0,1", "1,0", "1,1")),
    ("Spin(5)", 4, None, ("0,0", "1,0")),
    ("Spin(5)", 5, None, ("0,0", "1,0")),
    ("Spin(5)", 6, None, ("0,0", "1,0")),
]

# negative levels and forms, odd torus blocks, the inputs of bench/ and the
# larger or Cartan-file data: (options, whether `verify` runs on them)
MORE = [
    ("--group SU(2) --twist -2", True),
    ("--group SU(3) --twist -2", True),
    ("--group Spin(5) --twist -2", True),
    ("--group 'SU(2) x U(1)' --twist 3 --torus '[[-4]]'", True),
    ("--group 'SU(2) x U(1)' --twist 3 --torus '[[-4]]' --epsilon 0,1", True),
    ("--group 'SU(2) x U(1)' --twist 3 --torus '[[3]]'", True),
    ("--group 'U(1)^2' --torus '[[2,-1],[-1,2]]'", True),
    ("--group U(1) --twist 3", True),
    ("--group U(1) --torus '[[5]]'", True),
    ("--group U(1) --torus '[[6]]' --epsilon 1", True),
    ("--group U(1) --torus '[[-6]]' --epsilon 1", True),
    ("--group SU(2) --twist 13", True),
    ("--group SU(2) --twist 29", False),
    ("--group SU(2) --twist 30", False),
    ("--group SU(2) --twist 31", False),
    ("--group SU(3) --twist 9", False),
    ("--spec specs/a2.spec --twist 5", True),
    ("--spec specs/a2.spec --twist 6", False),
    ("--spec specs/a2.spec --twist 9", False),
    ("--group SU(4) --twist 5", False),
    ("--spec specs/a3_swap12.spec --twist 5", False),
    ("--spec specs/a3_swap23.spec --twist 5", False),
    ("--group Spin(7) --twist 6", False),
    ("--group Spin(5) --twist 7", False),
    ("--group Sp(2) --twist 4", True),
    ("--group Sp(2) --twist 7", False),
    ("--spec specs/g2.spec --twist 1 --shift dual_coxeter", True),
    ("--spec specs/g2.spec --twist 2 --shift dual_coxeter", True),
    ("--spec specs/g2.spec --twist 3 --shift dual_coxeter", False),
    ("--spec specs/g2_swapped.spec --twist 1 --shift dual_coxeter", True),
    ("--spec specs/g2_swapped.spec --twist 2 --shift dual_coxeter", True),
    ("--spec specs/g2_swapped.spec --twist 3 --shift dual_coxeter", False),
    ("--spec specs/f4.spec --twist 1 --shift dual_coxeter", False),
    ("--spec specs/e8.spec --twist 1", False),
]

# usage errors (exit 2), a missing level and a refusal (exit 1), and the
# worked examples
SINGLE = [
    "info --group 'SU(2) x Q(3)'",
    "info --group SU(2) --twist a",
    "table --group SU(2)",
    "table --group SU(2) --twist 3 --shift sideways",
    "fuse --group SU(2) --twist 3 9 0",
    "verify",
    "example s3 -1",
    "classes --group SU(2) --twist 500001",
    "example s3 3",
    "example u1 4",
    "example u1 4 --epsilon 1",
    "example su2 5 --format tsv",
]


def corpus():
    """Every pinned command line, as an argument list: `info` on each input,
    and the other report commands on each input of GRID and MORE."""
    lines = []
    for group, level, torus, gradings in GRID:
        for eps in gradings:
            opts = ["--group", group]
            if level is not None:
                opts += ["--twist", str(level)]
            if torus is not None:
                opts += ["--torus", torus]
            if "1" in eps:
                opts += ["--epsilon", eps]
            lines += [shlex.split(cmd) + opts for cmd in REPORT_COMMANDS]
    for opts, verify in MORE:
        commands = REPORT_COMMANDS if verify else REPORT_COMMANDS[:-1]
        lines += [shlex.split(cmd) + shlex.split(opts) for cmd in commands]
    lines += [shlex.split(line) for line in SINGLE]
    return lines


def run(argv):
    """{"exit", "stdout", "stderr"} of one command line: the exit code and
    the SHA-256 of each stream.  A --spec path is read relative to this
    directory."""
    argv = [str(GOLDEN / arg) if prev == "--spec" else arg
            for prev, arg in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vkt.cli.main(argv)
        except SystemExit as exc:           # argparse refusing the options
            code = exc.code
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def pin():
    """{command line: report digests} for the whole corpus."""
    return {shlex.join(argv): run(argv) for argv in corpus()}


def main():
    old = json.loads(REPORTS.read_text()) if REPORTS.exists() else {}
    new = pin()
    REPORTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for line in changed:
        print(f"{line}: {old.get(line)} -> {new.get(line)}")
    print(f"{len(new)} reports pinned, {len(changed)} changed")


if __name__ == "__main__":
    main()
