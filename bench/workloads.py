"""The benchmark's workloads: their job lists, what the seed picks, and the
correctness gate every job's output goes through.

A workload is a tuple of slots; each slot is a tuple of interchangeable
jobs of about the same cost, and the seed picks one job per slot.  The
choices change the program's inputs (a group's level, the order of its
simple roots, the sign of a torus form, Spin(5) or its isomorphic Sp(2))
while keeping a pass's work nearly constant, so that run-to-run spread
comes from the machine and not from the seed.  Every job any seed can pick
has its expected output pinned in ``expected.json`` (see ``pin.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import vkt.cli
import vkt.fusion
import vkt.mvlaurent

BENCH_DIR = Path(__file__).resolve().parent
SPECS_DIR = BENCH_DIR / "specs"
EXPECTED_PATH = BENCH_DIR / "expected.json"


@dataclass(frozen=True)
class Job:
    """One request, given the way a `vkt` command line gives it.

    `route` is "table" or "verify" (run through `vkt.cli.main`) or
    "characters" (`structure_constants_via_characters` on a ring built the
    way the command line builds it).  `spec` names a Cartan-matrix file in
    ``specs/``; `loop` marks `twist` as a loop level (``--shift
    dual_coxeter``)."""

    route: str
    group: str | None = None
    spec: str | None = None
    twist: int | None = None
    loop: bool = False
    torus: str | None = None
    epsilon: str | None = None

    @property
    def input_label(self):
        """Names the input independently of the route; the key of its
        pinned table digest."""
        parts = [self.group or f"spec:{self.spec}"]
        if self.twist is not None:
            parts.append(f"{'loop' if self.loop else 'twist'} {self.twist}")
        if self.torus:
            parts.append(f"torus {self.torus}")
        if self.epsilon:
            parts.append(f"epsilon {self.epsilon}")
        return " ".join(parts)

    @property
    def label(self):
        return f"{self.route} {self.input_label}"

    def options(self):
        """The command-line options naming this input."""
        out = ["--group", self.group] if self.group else \
            ["--spec", str(SPECS_DIR / f"{self.spec}.spec")]
        if self.twist is not None:
            out += ["--twist", str(self.twist)]
        if self.loop:
            out += ["--shift", "dual_coxeter"]
        if self.torus:
            out += ["--torus", self.torus]
        if self.epsilon:
            out += ["--epsilon", self.epsilon]
        return out


def _g2(route, level):
    # the two orders of G2's simple roots
    return tuple(Job(route, spec=spec, twist=level, loop=True)
                 for spec in ("g2", "g2_swapped"))


WORKLOADS = {
    "reflection_table": (
        # many products: 28 basis elements, ~400 products
        (Job("table", group="SU(3)", twist=9), Job("table", spec="a2", twist=9)),
        (Job("table", group="SU(4)", twist=5), Job("table", spec="a3_swap12", twist=5),
         Job("table", spec="a3_swap23", twist=5)),
        # large |F| = 864 against a 3-element basis
        (Job("table", group="Spin(7)", twist=6),),
        tuple(Job("table", group="SU(2)", twist=k) for k in (29, 30, 31)),
        _g2("table", 1), _g2("table", 2), _g2("table", 3),
    ),
    "character_table": (
        (Job("characters", group="SU(3)", twist=6), Job("characters", spec="a2", twist=6)),
        (Job("characters", group="SU(2)", twist=13),),
        (Job("characters", group="Spin(5)", twist=7), Job("characters", group="Sp(2)", twist=7)),
        _g2("characters", 1) + _g2("characters", 2),
    ),
    "verify": (
        (Job("verify", group="SU(3)", twist=5), Job("verify", spec="a2", twist=5)),
        (Job("verify", group="Spin(5)", twist=4), Job("verify", group="Sp(2)", twist=4)),
        tuple(Job("verify", group="U(1)^2", torus=t) for t in ("[[2,1],[1,2]]", "[[2,-1],[-1,2]]")),
        tuple(Job("verify", group="SU(2) x U(1)", twist=3, torus=t, epsilon="0,1")
              for t in ("[[4]]", "[[-4]]")),
        tuple(Job("verify", group="U(1)", torus=t, epsilon="1") for t in ("[[6]]", "[[-6]]")),
    ),
}


def jobs_for(workload, seed):
    """The pass's job list: one job per slot, picked by the seed."""
    rng = random.Random(seed)
    return [rng.choice(slot) for slot in WORKLOADS[workload]]


def all_jobs(workload):
    """Every job any seed can pick."""
    return [job for slot in WORKLOADS[workload] for job in slot]


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- running one job -----------------------------------------------------------

class GateFailure(Exception):
    """A job's output failed its correctness gate."""


def run_cli(argv):
    """`vkt.cli.main` in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = vkt.cli.main(list(argv))
    return code, out.getvalue()


def build_ring(job):
    """RootDatum, Twisting and FusionRing built by the command line's own
    helpers from the job's options, so a characters job pays what a `vkt`
    call pays for them."""
    parser = argparse.ArgumentParser()
    for option in ("--group", "--spec", "--twist", "--epsilon", "--torus", "--shift", "--format"):
        parser.add_argument(option)
    spec = vkt.cli.build_job(parser.parse_args(job.options()))
    rd = vkt.cli.build_root_datum(spec)
    tau = vkt.cli.build_twisting(rd, spec.twist)
    return vkt.fusion.FusionRing(rd, tau)


def run_job(job, expected):
    """Run one job from spec to checked result; raises GateFailure when the
    output is wrong (any other exception is a failure too)."""
    if job.route == "table":
        code, text = run_cli(["table"] + job.options())
        if code != 0:
            raise GateFailure(f"exit code {code}")
        table = json.loads(text)["table"]
        check_table(job, table["basis"], table["constants"], expected)
    elif job.route == "characters":
        ring = build_ring(job)
        constants = vkt.fusion.structure_constants_via_characters(ring)
        check_table(job, ring.transversal, constants, expected)
    elif job.route == "verify":
        code, text = run_cli(["verify"] + job.options())
        report = json.loads(text)["verify"]
        names = [check["name"] for check in report["checks"]]
        if code != 0 or not report["all_passed"]:
            failed = [check["name"] for check in report["checks"] if not check["passed"]]
            raise GateFailure(f"exit code {code}, failed checks {failed}")
        if names != expected["verify_checks"]:
            raise GateFailure(f"check names {names}")
    else:
        raise ValueError(f"unknown route {job.route!r}")


# -- the correctness gate --------------------------------------------------------

def products_by_weight(basis, constants):
    """{(a, b): {c: N_ab^c}} with every index a transversal weight."""
    basis = [tuple(w) for w in basis]
    return {(basis[a], basis[b]): {basis[c]: n for c, n in enumerate(constants[a][b]) if n}
            for a in range(len(basis)) for b in range(len(basis))}


def table_digest(basis, constants):
    """SHA-256 over the structure constants keyed by transversal weights,
    so a change of canonical orbit representatives leaves it unchanged."""
    rows = sorted((a, b, sorted(terms.items()))
                  for (a, b), terms in products_by_weight(basis, constants).items())
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def check_table(job, basis, constants, expected):
    digest = table_digest(basis, constants)
    want = expected["tables"].get(job.input_label)
    if digest != want:
        raise GateFailure(f"digest {digest[:12]} != pinned {str(want)[:12]}")
    products = products_by_weight(basis, constants)
    if job.group == "SU(2)":
        check_su2_oracle(job.twist, products)
    if job.spec and job.spec.startswith("g2") and job.loop and job.twist == 1:
        check_fibonacci(products)


def check_su2_oracle(twist, products):
    """SU(2) at twist n is the quotient of the representation ring by
    rho(n - 1); `mvlaurent` computes it by Laurent algebra alone."""
    if len({a for a, _ in products}) != twist - 1:
        raise GateFailure(f"SU(2) twist {twist}: basis size is not {twist - 1}")
    for (wa, wb), got in products.items():
        want = vkt.mvlaurent.su2_quotient_product(wa[0], wb[0], twist)
        if got != {(c,): n for c, n in want.items()}:
            raise GateFailure(f"SU(2) twist {twist}: {wa} x {wb} disagrees with mvlaurent")


def check_fibonacci(products):
    """G2 at loop level 1 is the Fibonacci rule: basis {1, t}, t t = 1 + t."""
    basis = sorted({a for a, _ in products})
    unit = (0,) * len(basis[0]) if basis else None
    if len(basis) != 2 or unit not in basis:
        raise GateFailure(f"G2 level 1 basis {basis} is not Fibonacci")
    t = next(w for w in basis if w != unit)
    want = {(unit, unit): {unit: 1}, (unit, t): {t: 1}, (t, unit): {t: 1},
            (t, t): {unit: 1, t: 1}}
    if products != want:
        raise GateFailure("G2 level 1 products are not the Fibonacci rule")
