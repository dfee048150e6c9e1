"""Command-line front end.

Spec files are plain key-value text: `key = value` per line, where a
value is a quoted string, an integer, a list `[...]`, or an inline table
`{ key = value, ... }`.  Blank lines and `#` comments are ignored.
Reports are JSON (default) or flat TSV; every numeric field is exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import __version__
from .affineweyl import zero_criterion_discrepancies
from .checks import run_all_checks
from .errors import SpecParseError, VktError
from .fusion import FusionRing, fusion_product, verlinde_classes
from .mvlaurent import mv_s3, mv_su2, mv_u1
from .rootdata import root_datum_from_spec, weyl_order
from .twist import shift_by_dual_coxeter, twisting_from_level


# -- spec text ----------------------------------------------------------------

class _Scanner:
    """A cursor on spec text: line and column are worked out from the
    offset only where an error is raised."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, pos=None):
        """Raise SpecParseError at offset pos (by default the cursor's)."""
        pos = self.pos if pos is None else pos
        raise SpecParseError(message, self.text.count("\n", 0, pos) + 1,
                             pos - self.text.rfind("\n", 0, pos))

    def peek(self):
        return self.text[self.pos:self.pos + 1]

    def skip_space(self, newlines=False):
        space = " \t\r\n" if newlines else " \t"
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "#":
                end = self.text.find("\n", self.pos)
                self.pos = len(self.text) if end < 0 else end
            elif c in space:
                self.pos += 1
            else:
                break

    def expect(self, c):
        if self.peek() != c:
            self.error(f"expected {c!r}, found {self.peek()!r}")
        self.pos += 1

    def entry(self, table):
        """Read `key = value` into table, refusing a key it already holds."""
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        if start == self.pos:
            self.error("expected a key")
        key = self.text[start:self.pos]
        if key in table:
            self.error(f"duplicate key {key!r}", start)
        self.skip_space()
        self.expect("=")
        table[key] = self.value()

    def value(self):
        """A string, an integer (an optional `-`, then decimal digits: the
        digits `int` reads), a list or an inline table."""
        self.skip_space()
        c, start = self.peek(), self.pos
        if c == '"':
            end = self.text.find('"', start + 1)
            newline = self.text.find("\n", start + 1, len(self.text) if end < 0 else end)
            if newline >= 0:
                self.error("newline inside string", newline + 1)
            if end < 0:
                self.error("unterminated string", len(self.text))
            self.pos = end + 1
            return self.text[start + 1:end]
        if c == "[":
            return self._items("]", self.value)
        if c == "{":
            table = {}
            self._items("}", lambda: self.entry(table))
            return table
        if c == "-" or c.isdecimal():
            if c == "-":
                self.pos += 1
            digits = self.pos
            while self.peek().isdecimal():
                self.pos += 1
            if self.pos == digits:
                self.error("expected digits")
            return int(self.text[start:self.pos])
        self.error(f"cannot parse value starting with {c!r}")

    def _items(self, close, read):
        """read() on each item of a comma-separated sequence, from the
        opening bracket under the cursor to `close`."""
        self.pos += 1
        self.skip_space(newlines=True)
        out = []
        if self.peek() != close:
            while True:
                out.append(read())
                self.skip_space(newlines=True)
                if self.peek() != ",":
                    break
                self.pos += 1
                self.skip_space(newlines=True)
        self.expect(close)
        return out


def parse_spec_text(text):
    """Parse `key = value` lines into a dict; errors carry line/column."""
    sc = _Scanner(text)
    out = {}
    while True:
        sc.skip_space(newlines=True)
        if sc.pos >= len(sc.text):
            return out
        sc.entry(out)
        sc.skip_space()
        if sc.pos < len(sc.text) and sc.peek() not in "\r\n":
            sc.error("trailing content after value")


# the keys a spec file and its twist table may hold
SPEC_KEYS = ("group", "cartan", "torus_rank", "torus_form", "twist", "command", "format")
TWIST_KEYS = ("levels", "epsilon", "torus", "shift")
FORMATS = ("json", "tsv")               # the report formats


def _reject_unknown_keys(table, known, where):
    for key in table:
        if key not in known:
            raise SpecParseError(f"unknown {where} key {key!r} (known keys: {', '.join(known)})")


@dataclass
class JobSpec:
    """One computation request: group, twist, command, output format."""

    group: object = None          # str name or dict with cartan data
    twist: dict = field(default_factory=dict)
    command: str = ""
    format: str = "json"

    @classmethod
    def parse(cls, text):
        """The job in spec text; raises SpecParseError on an unknown key, a
        group name next to Cartan keys, a twist that is not a table, or a
        format other than json and tsv."""
        data = parse_spec_text(text)
        _reject_unknown_keys(data, SPEC_KEYS, "spec")
        if not isinstance(data.get("twist", {}), dict):
            raise SpecParseError(f"twist must be a table, got {data['twist']!r}")
        if data.get("format", "json") not in FORMATS:
            raise SpecParseError(f"unknown format {data['format']!r} (use json or tsv)")
        group_keys = {k: data[k] for k in ("cartan", "torus_rank", "torus_form")
                      if k in data}
        if "group" in data and group_keys:
            raise SpecParseError(f"group cannot be given together with {next(iter(group_keys))!r}")
        group = data.get("group", group_keys or None)
        return cls(group=group,
                   twist=data.get("twist", {}),
                   command=data.get("command", ""),
                   format=data.get("format", "json"))


# -- building the objects -----------------------------------------------------

def build_root_datum(job: JobSpec):
    """The RootDatum named by the job's group; raises SpecParseError when
    there is none, or when a group table's cartan or torus_form is not
    integer rows of one length or its torus_rank is not an integer."""
    if job.group is None:
        raise SpecParseError("no group given (use --group or a spec file)")
    if isinstance(job.group, dict):
        for key in ("cartan", "torus_form"):
            if key in job.group:
                _check_int_rows(f"group {key}", job.group[key], job.group[key])
        if type(job.group.get("torus_rank", 0)) is not int:
            raise SpecParseError(f"group torus_rank must be an integer, "
                                 f"got {job.group['torus_rank']!r}")
    return root_datum_from_spec(job.group)


def _check_int_rows(what, rows, given):
    """SpecParseError, naming `what` and the `given` value, unless rows is a
    list of lists of ints, all of one length."""
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in rows)):
        raise SpecParseError(f"{what} must be integers, got {given!r}")
    if len(set(map(len, rows))) > 1:
        raise SpecParseError(f"{what} must be rows of one length, got {given!r}")


def build_twisting(rd, twist_spec):
    """The Twisting named by the twist table; raises SpecParseError on an
    unknown key or a value of the wrong type."""
    _reject_unknown_keys(twist_spec, TWIST_KEYS, "twist")
    levels = twist_spec.get("levels", [])
    eps = twist_spec.get("epsilon")
    torus = twist_spec.get("torus")
    for key, rows in (("levels", [levels]), ("epsilon", [] if eps is None else [eps]),
                      ("torus", [] if torus is None else torus)):
        _check_int_rows(f"twist {key}", rows, twist_spec.get(key))
    levels = tuple(levels)
    shift = twist_spec.get("shift", "none")
    if shift not in ("none", "dual_coxeter"):
        raise SpecParseError(f"unknown shift {shift!r}")
    torus_rank = len(rd.torus_indices)
    if rd.is_torus() and torus is None and len(levels) == 1:
        # scalar convenience on a bare torus: scale the datum's torus pairing
        torus = [[levels[0] * rd.kappa_torus.at(i, j) for j in range(torus_rank)]
                 for i in range(torus_rank)]
        levels = ()
    if shift == "dual_coxeter":
        levels = shift_by_dual_coxeter(rd, levels)
    return twisting_from_level(rd, levels, torus_block=torus, eps=eps)


def report_header(job: JobSpec, rd=None, tau=None):
    head = {
        "version": __version__,
        "spec": {"group": job.group, "twist": job.twist},
    }
    if rd is not None:
        head["rho_tilde"] = list(rd.rho_tilde)
        head["rho_tilde_choice"] = rd.rho_tilde_note
        head["origin"] = "lambda0"
    if tau is not None:
        head["degree_parity"] = tau.degree_parity()
        head["epsilon"] = list(tau.eps)
    return head


# -- commands -----------------------------------------------------------------

def cmd_info(job: JobSpec):
    rd = build_root_datum(job)
    tau = build_twisting(rd, job.twist) if job.twist else None
    out = report_header(job, rd, tau)
    out["info"] = rd.describe()
    out["info"]["weyl_order"] = weyl_order(rd)
    if tau is not None:
        out["twist"] = tau.describe()
    return out, 0


def cmd_basis(job: JobSpec):
    rd = build_root_datum(job)
    tau = build_twisting(rd, job.twist)
    ring = FusionRing(rd, tau)
    out = report_header(job, rd, tau)
    out["basis"] = {
        "count": len(ring.basis),
        "orbit_representatives": [list(r) for r in ring.basis],
        "transversal_weights": [list(t) for t in ring.transversal],
        "signs": list(ring.signs),
        "unit_index": ring.unit_index,
    }
    if any(tau.eps):
        out["basis"]["grading_flags"] = zero_criterion_discrepancies(tau)
    return out, 0


def cmd_classes(job: JobSpec):
    rd = build_root_datum(job)
    tau = build_twisting(rd, job.twist)
    classes = verlinde_classes(tau)
    out = report_header(job, rd, tau)
    out["classes"] = {
        "count": len(classes),
        "points": [[str(c) for c in vc.point] for vc in classes],
        "orbit_size": classes[0].orbit_size if classes else None,
    }
    return out, 0


def cmd_fuse(job: JobSpec, a, b):
    rd = build_root_datum(job)
    tau = build_twisting(rd, job.twist)
    ring = FusionRing(rd, tau)
    n = len(ring.basis)
    if not (0 <= a < n and 0 <= b < n):
        raise SpecParseError(f"basis indices must lie in [0, {n})")
    prod = fusion_product(ring, a, b)
    coeffs = ring.basis_coefficients(prod)
    out = report_header(job, rd, tau)
    out["fuse"] = {
        "a": a, "b": b,
        "a_weight": list(ring.transversal[a]),
        "b_weight": list(ring.transversal[b]),
        "coefficients": {str(c): coeffs[c] for c in range(n) if coeffs[c]},
        "support": {",".join(map(str, k)): v for k, v in prod.items()},
    }
    return out, 0


def cmd_table(job: JobSpec):
    rd = build_root_datum(job)
    tau = build_twisting(rd, job.twist)
    ring = FusionRing(rd, tau)
    nc = ring.structure_constants()
    out = report_header(job, rd, tau)
    out["table"] = {"basis": ring.transversal, "constants": nc}
    return out, 0


def cmd_verify(job: JobSpec):
    rd = build_root_datum(job)
    tau = build_twisting(rd, job.twist)
    ring = FusionRing(rd, tau)
    checks = run_all_checks(ring)
    out = report_header(job, rd, tau)
    out["verify"] = {
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    return out, 0 if out["verify"]["all_passed"] else 1


def cmd_example(job: JobSpec, which, n, eps=0):
    least = {"s3": 0, "u1": 1, "su2": 1}.get(which)
    if least is not None and n < least:
        raise SpecParseError(f"example {which} needs n >= {least}, got {n}")
    out = {"version": __version__, "example": which, "n": n}
    if which == "s3":
        k0, k1 = mv_s3(n)
        out["K0"] = str(k0)
        out["K1"] = str(k1)
    elif which == "u1":
        rep = mv_u1(n, eps)
        out["epsilon"] = eps
        out["K0_rank"] = rep.kernel_rank
        out["K1_rank"] = rep.rank
        out["relation"] = rep.relation
        out["quotient"] = rep.details["quotient"]
    elif which == "su2":
        rep = mv_su2(n)
        out["K0_rank"] = rep.kernel_rank
        out["K1_rank"] = rep.rank
        out["relation"] = rep.relation
        out["quotient"] = rep.details["quotient"]
        out["basis"] = list(rep.basis_labels)
    else:
        raise SpecParseError(f"unknown example {which!r} (use s3, u1 or su2)")
    return out, 0


# -- output -------------------------------------------------------------------

def _json_key(key):
    """A dict key as json.dumps writes it: a string as is, and an int, bool
    or None as its JSON text, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    # the stdlib's own text for the rare non-string key; TypeError where it
    # refuses the key
    return json.dumps({key: None})[1:-len(": null}")]


def _write_json(value, indent, parts):
    """Append to `parts` the text json.dumps(value, indent=2, sort_keys=True)
    writes for value at a depth whose lines start with `indent` (a newline
    and two spaces per level).  The stdlib takes its pure-Python
    path whenever indent is set, one call per value; here a list of plain
    ints is one join, and strings go through the stdlib's own ASCII
    encoder."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            parts.append("[" + inner + ("," + inner).join(map(str, value)) + indent + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _json_key(key) + ": ")
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(indent + "}")
    else:
        # anything else JSON holds (a float); TypeError where json.dumps refuses
        parts.append(json.dumps(value))


def render(out, fmt):
    if fmt == "json":
        parts = []
        _write_json(out, "\n", parts)
        return "".join(parts)
    if fmt == "tsv":
        lines = []

        def flatten(prefix, v):
            if isinstance(v, dict):
                for k in sorted(v):
                    flatten(f"{prefix}.{k}" if prefix else str(k), v[k])
            else:
                lines.append(f"{prefix}\t{json.dumps(v)}")

        flatten("", out)
        return "\n".join(lines)
    raise SpecParseError(f"unknown format {fmt!r}")


def _parse_int_list(text, option):
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise SpecParseError(f"{option} needs comma-separated integers, got {text!r}") from None


def build_job(args):
    """The JobSpec named by the options; raises SpecParseError when an option
    value or the spec file cannot be read."""
    if getattr(args, "spec", None):
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecParseError(f"cannot read spec file {args.spec!r}: {exc.strerror}") from None
        job = JobSpec.parse(text)
    else:
        job = JobSpec()
    if getattr(args, "group", None):
        job.group = args.group
    if getattr(args, "twist", None) is not None:
        job.twist["levels"] = _parse_int_list(args.twist, "--twist")
    if getattr(args, "epsilon", None) is not None:
        job.twist["epsilon"] = _parse_int_list(args.epsilon, "--epsilon")
    if getattr(args, "torus", None) is not None:
        try:
            job.twist["torus"] = json.loads(args.torus)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"--torus is not a JSON matrix: {exc}") from None
    if getattr(args, "shift", None):
        job.twist["shift"] = args.shift
    if getattr(args, "format", None):
        job.format = args.format
    return job


@functools.cache
def _parser():
    """The argument parser of `main`, built once per process: parsing reads
    it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="vkt",
        description="Exact fusion-ring computations for compact Lie groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", help='group spec, e.g. "SU(2) x U(1)"')
        p.add_argument("--spec", help="path to a spec file")
        p.add_argument("--twist", help="comma-separated levels per simple factor "
                                       "(a bare torus takes a single scale)")
        p.add_argument("--epsilon", help="comma-separated mod-2 grading vector")
        p.add_argument("--torus", help="torus twist block as a JSON matrix")
        p.add_argument("--shift", choices=["none", "dual_coxeter"],
                       help="interpret levels as loop-group levels")
        p.add_argument("--format", choices=FORMATS, default=None)

    for name in ("info", "basis", "classes", "table", "verify"):
        common(sub.add_parser(name))
    fuse = sub.add_parser("fuse")
    common(fuse)
    fuse.add_argument("a", type=int)
    fuse.add_argument("b", type=int)
    example = sub.add_parser("example")
    example.add_argument("which", choices=["s3", "u1", "su2"])
    example.add_argument("n", type=int)
    example.add_argument("--epsilon", type=int, default=0)
    example.add_argument("--format", choices=FORMATS, default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "example":
            job = JobSpec(format=args.format or "json")
            out, code = cmd_example(job, args.which, args.n, args.epsilon)
        else:
            job = build_job(args)
            if job.command not in ("", args.command):
                raise SpecParseError(f"spec command {job.command!r} conflicts with the "
                                     f"subcommand {args.command!r}")
            job.command = args.command
            if args.command == "info":
                out, code = cmd_info(job)
            elif args.command == "basis":
                out, code = cmd_basis(job)
            elif args.command == "classes":
                out, code = cmd_classes(job)
            elif args.command == "fuse":
                out, code = cmd_fuse(job, args.a, args.b)
            elif args.command == "table":
                out, code = cmd_table(job)
            else:
                out, code = cmd_verify(job)
        text = render(out, job.format)
    except VktError as exc:
        # malformed input (options, spec text or file) is a usage error
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, SpecParseError) else 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (`| head -1`): devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
