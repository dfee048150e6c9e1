"""The fault table: named faults, injected by monkeypatch, each run through
`vkt verify` in process on four rings, one of them graded.

For every (fault, ring) the exit code and the exact set of failing checks
are pinned, so a change that blinds a check to the fault it catches fails
here.  Every fault is caught on every ungraded ring; three faults leave
the graded ring's report unchanged (see CAUGHT).  A route invariant that a
fault breaks (the Gram identity, the closure of the simple currents) is
the failure of the check that raised it, and the report still lists all
ten checks.

Mutation analysis after DeMillo, Lipton and Sayward, "Hints on test data
selection: help for the practicing programmer", Computer 11 (1978) 34."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import vkt.affineweyl
import vkt.checks
import vkt.cli
import vkt.fusion
import vkt.rootdata
import vkt.twist
import vkt.zlattice
from vkt.errors import InvariantError

SPECS = Path(__file__).resolve().parent / "golden" / "specs"

RINGS = {
    "SU(3) 6": ["--group", "SU(3)", "--twist", "6"],
    "SU(4) 6": ["--group", "SU(4)", "--twist", "6"],
    "G2 loop 1": ["--spec", str(SPECS / "g2.spec"), "--twist", "1", "--shift", "dual_coxeter"],
    "SU(2)×U(1) 3 graded": ["--group", "SU(2) x U(1)", "--twist", "3", "--torus", "[[4]]",
                            "--epsilon", "0,1"],
}
UNGRADED = ["SU(3) 6", "SU(4) 6", "G2 loop 1"]
GRADED = "SU(2)×U(1) 3 graded"

CHECK_NAMES = ["double_count", "f_epsilon_solutions", "cyclic_generator", "ideal_annihilation",
               "oracle_equivalence", "algebra_axioms", "delta_identity", "orbit_constancy",
               "stabilizer_reflections", "grading_flags"]

MODULES = (vkt.rootdata, vkt.zlattice, vkt.twist, vkt.affineweyl, vkt.fusion, vkt.checks)


def _rebind(monkeypatch, name, fault):
    """Replace the function `name` in every package module that binds it."""
    for module in MODULES:
        if name in vars(module):
            monkeypatch.setattr(module, name, fault)


# -- the faults ------------------------------------------------------------------

def zero_multiplicity(monkeypatch):
    """The zero weight's multiplicity plus 1 in every nontrivial weight
    system that holds it."""
    real = vkt.rootdata._weight_system

    def fault(rd, lam):
        system = dict(real(rd, lam))
        zero = (0,) * rd.rank
        if any(lam) and zero in system:
            system[zero] += 1
        return system

    _rebind(monkeypatch, "_weight_system", fault)


def constant_bumped(monkeypatch):
    """N_ab^0 plus 1 in the reflection route's table, a = 1 and b = n - 1,
    with its mirror N_ba^0, so the table stays commutative."""
    real = vkt.fusion.FusionRing.structure_constants

    def fault(ring):
        table = [[list(row) for row in rows] for rows in real(ring)]
        n = len(table)
        a, b = 1 % n, n - 1
        table[a][b][0] += 1
        if a != b:
            table[b][a][0] += 1
        return [[tuple(row) for row in rows] for rows in table]

    monkeypatch.setattr(vkt.fusion.FusionRing, "structure_constants", fault)


def wall_sign_flipped(monkeypatch):
    """The sign of the alcove's last wall (the last factor's affine wall)
    flipped."""
    real = vkt.affineweyl.Alcove.__init__

    def fault(alc, tau):
        real(alc, tau)
        alc.signs[-1] = -alc.signs[-1]

    monkeypatch.setattr(vkt.affineweyl.Alcove, "__init__", fault)


def class_lift_moved(monkeypatch):
    """The first Verlinde class lift moved by one step of its first
    coordinate, with the Galois-stability test of the class list off."""
    real = vkt.twist.Twisting.verlinde_lifts

    def fault(tau):
        m, ys = real(tau)
        first = ys[0]
        return m, [((first[0] + 1) % m,) + tuple(first[1:])] + list(ys[1:])

    monkeypatch.setattr(vkt.twist.Twisting, "verlinde_lifts", fault)
    _rebind(monkeypatch, "_check_galois_stable", lambda tau, m, ys: None)


def f_epsilon_lift_moved(monkeypatch):
    """The first F_eps lift moved by one step of its first coordinate."""
    real = vkt.twist.Twisting._build_f_epsilon

    def fault(tau):
        m, lifts = real(tau)
        first = lifts[0]
        return m, [((first[0] + 1) % m,) + tuple(first[1:])] + list(lifts[1:])

    monkeypatch.setattr(vkt.twist.Twisting, "_build_f_epsilon", fault)


def smith_generator_negated(monkeypatch):
    """The first generator of every smith_coordinates result negated."""
    real = vkt.zlattice.smith_coordinates

    def fault(snf):
        factors, rows, generators = real(snf)
        if generators:
            generators = (tuple(-x for x in generators[0]),) + generators[1:]
        return factors, rows, generators

    _rebind(monkeypatch, "smith_coordinates", fault)


def numerator_sign_flipped(monkeypatch):
    """The sign of the first term (w = 1) of every Weyl numerator flipped."""
    real = vkt.rootdata.weyl_numerator

    def fault(rd, lam):
        terms = dict(real(rd, lam))
        first = next(iter(terms))
        terms[first] = -terms[first]
        return terms

    _rebind(monkeypatch, "weyl_numerator", fault)


FAULTS = {fault.__name__: fault for fault in (
    zero_multiplicity, constant_bumped, wall_sign_flipped, class_lift_moved,
    f_epsilon_lift_moved, smith_generator_negated, numerator_sign_flipped)}

# (fault, ring): the checks that fail; every faulted run exits 1.  Three
# faults leave the graded ring's report byte-identical to the clean one and
# have no entry there: zero_multiplicity and constant_bumped, because the
# ring checks skip a twisting that is not primitive, and
# smith_generator_negated, because the negated generator has order 2 and
# both kernels are the same
CAUGHT = {
    ("zero_multiplicity", "SU(3) 6"): {"oracle_equivalence", "algebra_axioms"},
    ("zero_multiplicity", "SU(4) 6"): {"oracle_equivalence", "algebra_axioms",
                                       "ideal_annihilation"},
    ("zero_multiplicity", "G2 loop 1"): {"oracle_equivalence", "ideal_annihilation"},
    ("constant_bumped", "SU(3) 6"): {"oracle_equivalence", "algebra_axioms"},
    ("constant_bumped", "SU(4) 6"): {"oracle_equivalence", "algebra_axioms"},
    ("constant_bumped", "G2 loop 1"): {"oracle_equivalence"},
    **{("wall_sign_flipped", ring): {"double_count", "ideal_annihilation", "oracle_equivalence",
                                     "algebra_axioms", "delta_identity", "orbit_constancy"}
       for ring in UNGRADED},
    ("wall_sign_flipped", GRADED): {"double_count", "ideal_annihilation", "delta_identity",
                                    "orbit_constancy"},
    ("class_lift_moved", "SU(3) 6"): {"oracle_equivalence", "ideal_annihilation"},
    ("class_lift_moved", "SU(4) 6"): {"oracle_equivalence", "ideal_annihilation"},
    ("class_lift_moved", "G2 loop 1"): {"oracle_equivalence"},
    ("class_lift_moved", GRADED): {"ideal_annihilation"},
    ("f_epsilon_lift_moved", "SU(3) 6"): {"double_count", "f_epsilon_solutions",
                                          "ideal_annihilation", "oracle_equivalence",
                                          "delta_identity"},
    ("f_epsilon_lift_moved", "SU(4) 6"): {"f_epsilon_solutions", "delta_identity"},
    ("f_epsilon_lift_moved", "G2 loop 1"): {"f_epsilon_solutions", "delta_identity"},
    ("f_epsilon_lift_moved", GRADED): {"double_count", "f_epsilon_solutions",
                                       "ideal_annihilation", "delta_identity"},
    **{("smith_generator_negated", ring): {"delta_identity"} for ring in UNGRADED},
    **{("numerator_sign_flipped", ring): {"ideal_annihilation"} for ring in RINGS},
}

GRAM = "Gram identity sum_x d(x) chi_a conj(chi_c) = |F| delta_ac fails for basis element 0"
CURRENTS = "the simple currents are not closed under the product"
GALOIS = ("averaged pairing did not reduce to an integer: "
          "the F_eps lifts are not stable under y -> {} y mod {}")

# (fault, ring): {check: the message of the InvariantError it raised}, where
# a route invariant broke inside a check; {} elsewhere
RAISED = {
    ("zero_multiplicity", "SU(3) 6"): {"oracle_equivalence": GRAM},
    ("zero_multiplicity", "SU(4) 6"): {"oracle_equivalence": CURRENTS,
                                       "algebra_axioms": CURRENTS},
    ("zero_multiplicity", "G2 loop 1"): {"oracle_equivalence": GRAM},
    **{("wall_sign_flipped", ring): {"oracle_equivalence": "class count does not match basis size"}
       for ring in UNGRADED},
    **{("class_lift_moved", ring): {"oracle_equivalence": GRAM} for ring in UNGRADED},
    ("f_epsilon_lift_moved", "SU(3) 6"): {
        "oracle_equivalence": "class count does not match basis size",
        "delta_identity": GALOIS.format(5, 18)},
    ("f_epsilon_lift_moved", "SU(4) 6"): {"delta_identity": GALOIS.format(5, 24)},
    ("f_epsilon_lift_moved", "G2 loop 1"): {"delta_identity": GALOIS.format(2, 15)},
    ("f_epsilon_lift_moved", GRADED): {"delta_identity": GALOIS.format(5, 24)},
}


def verify(ring):
    """(exit code, report, stderr) of `vkt verify` on the ring, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vkt.cli.main(["verify", *RINGS[ring]])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


def failing(report):
    checks = report["verify"]["checks"]
    assert [check["name"] for check in checks] == CHECK_NAMES
    return {check["name"] for check in checks if not check["passed"]}


@pytest.mark.parametrize("ring", list(RINGS))
def test_the_clean_rings_pass(ring):
    code, report, err = verify(ring)
    assert (code, failing(report), err) == (0, set(), "")


@pytest.mark.parametrize("fault, ring", list(CAUGHT), ids=[" on ".join(k) for k in CAUGHT])
def test_each_fault_fails_its_checks(monkeypatch, fault, ring):
    # an invariant raised inside a check is that check's failure, with the
    # error's class and message as its detail; the other checks still run
    # and the report is written
    FAULTS[fault](monkeypatch)
    code, report, err = verify(ring)
    assert (code, failing(report), err) == (1, CAUGHT[fault, ring], "")
    assert report["verify"]["all_passed"] is False
    raised = {check["name"]: check["detail"] for check in report["verify"]["checks"]
              if "error" in check["detail"]}
    assert raised == {name: {"error": "InvariantError", "message": message}
                      for name, message in RAISED.get((fault, ring), {}).items()}


def test_only_an_invariant_error_is_caught(monkeypatch):
    # a bug's TypeError propagates, and so does an InvariantError from a
    # FusionRing that cannot be built (one JSON error line, exit 1)
    def broken(ring):
        raise TypeError("a bug")

    monkeypatch.setattr(vkt.checks, "check_double_count", broken)
    with pytest.raises(TypeError, match="a bug"):
        verify("SU(3) 6")
    monkeypatch.undo()

    def unbuildable(*args):
        raise InvariantError("no ring")

    monkeypatch.setattr(vkt.fusion.FusionRing, "__init__", unbuildable)
    code, report, err = verify("SU(3) 6")
    assert (code, report) == (1, None)
    assert json.loads(err) == {"error": "InvariantError", "message": "no ring"}


def test_each_check_is_called_through_the_checks_namespace(monkeypatch):
    # a wrapper bound in vkt.checks (as the benchmark's tracer binds one)
    # sees every check's call
    seen = []
    for function, _ in vkt.checks.CHECKS:
        real = getattr(vkt.checks, function)
        monkeypatch.setattr(vkt.checks, function,
                            lambda ring, real=real, function=function:
                            seen.append(function) or real(ring))
    code, report, _ = verify("G2 loop 1")
    assert code == 0
    assert seen == [function for function, _ in vkt.checks.CHECKS]
    assert [check["name"] for check in report["verify"]["checks"]] == CHECK_NAMES
