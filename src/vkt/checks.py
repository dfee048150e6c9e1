"""Cross-module consistency suites.

Each check returns a dict with `name`, `passed`, and a `detail` payload
(counterexamples when failing).  The CLI's verify command runs all of
them for one group/twist; the acceptance tests run them over a grid.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .affineweyl import (
    box_reduce,
    generated_subgroup,
    geometric_stabilizer_brute,
    orbit_normal_form,
    stabilizer_generators,
    zero_criterion_discrepancies,
)
from .errors import InvariantError
from .fusion import (
    CosetValues,
    FusionRing,
    _pairing_coordinates,
    _pairing_kernel,
    check_pairing_budget,
    class_from_weight,
    delta_eval,
    dominant_weights_up_to,
    equivariant_function,
    module_action,
    mult_by_U_matrix,
    structure_constants_via_characters,
    verlinde_ideal_member,
)
from .rootdata import dot, signed_orbit, simple_reflections_mod, vec_add


def check_double_count(ring: FusionRing):
    basis = len(ring.basis)
    classes = len(ring.tau.verlinde_lifts()[1])
    return {"name": "double_count", "passed": basis == classes,
            "detail": {"basis_orbits": basis, "verlinde_classes": classes}}


def check_f_epsilon(ring: FusionRing):
    """Every point x = y / m solves b(x) = lambda_eps mod the weight lattice,
    that is 2 b(y) = m eps mod 2m, there are |det b| distinct ones, and each
    simple reflection maps the set of lifts to itself mod m; `bad` lists
    the points failing either test."""
    rd, tau = ring.rd, ring.tau
    m, lifts = tau.f_epsilon()
    lift_set = set(lifts)
    ok = len(lift_set) == tau.order_F()
    bad = []
    for y in lifts:
        if any((2 * a - m * e) % (2 * m) for a, e in zip(tau.apply_b(y), tau.eps)) or \
                not lift_set.issuperset(simple_reflections_mod(rd, y, m)):
            ok = False
            bad.append([str(Fraction(c, m)) for c in y])
    return {"name": "f_epsilon_solutions", "passed": ok,
            "detail": {"count": len(lift_set), "expected": tau.order_F(), "bad": bad}}


def check_cyclic_generator(ring: FusionRing):
    if not ring.basis:
        return {"name": "cyclic_generator", "passed": True, "detail": {"rank": 0}}
    det = mult_by_U_matrix(ring).determinant()
    return {"name": "cyclic_generator", "passed": det in (1, -1),
            "detail": {"determinant": det}}


def check_annihilation(ring: FusionRing, bound=None):
    if bound is None:
        largest = max((abs(v) for row in ring.tau.b.to_rows() for v in row), default=4)
        # the window holds about bound^rank / rank! weights, each tested on
        # its |W| Weyl numerator terms; keep it small in higher rank
        per_rank = {1: 10, 2: 8}.get(ring.rd.rank, 4)
        bound = min(per_rank, max(4, largest))
    failures = []
    # each weight's ideal membership is evaluated once, for the candidate
    # list and for the converse below (whose weights are a subset)
    weights = dominant_weights_up_to(ring.rd, bound)
    in_ideal = {lam: verlinde_ideal_member(ring, {lam: 1}) for lam in weights}
    gens = [lam for lam in weights if in_ideal[lam]]
    for lam in gens:
        if not class_from_weight(ring, lam).is_zero():
            failures.append({"weight": list(lam), "reason": "nonzero reduction"})
    # the full convolution action is costlier; spot-check it on the first three
    for lam in gens[:3]:
        for i in range(len(ring.basis)):
            if not module_action(ring, {lam: 1}, ring.class_from_index(i)).is_zero():
                failures.append({"weight": list(lam), "reason": f"acts nonzero on {i}"})
                break
    # the converse: weights reducing to zero must vanish at the classes
    for lam in dominant_weights_up_to(ring.rd, min(bound, 6)):
        reduces_to_zero = class_from_weight(ring, lam).is_zero()
        if in_ideal[lam] != reduces_to_zero:
            failures.append({"weight": list(lam), "reason": "ideal/reduction mismatch"})
    return {"name": "ideal_annihilation", "passed": not failures,
            "detail": {"bound": bound, "ideal_weights": len(gens), "failures": failures}}


def check_oracle_equivalence(ring: FusionRing):
    if not ring.tau.is_primitive():
        return {"name": "oracle_equivalence", "passed": True,
                "detail": {"skipped": "twisting not primitive; no ring structure"}}
    if not ring.basis:
        return {"name": "oracle_equivalence", "passed": True, "detail": {"rank": 0}}
    reflect = ring.structure_constants()
    chars = structure_constants_via_characters(ring)
    mismatches = []
    negatives = []
    n = len(ring.basis)
    for a in range(n):
        for b in range(n):
            if reflect[a][b] != chars[a][b]:
                mismatches.append({"a": a, "b": b,
                                   "reflection": list(reflect[a][b]),
                                   "characters": list(chars[a][b])})
            if any(v < 0 for v in reflect[a][b]):
                negatives.append({"a": a, "b": b, "coeffs": list(reflect[a][b])})
    return {"name": "oracle_equivalence", "passed": not mismatches and not negatives,
            "detail": {"mismatches": mismatches, "negative_coefficients": negatives}}


def check_algebra_axioms(ring: FusionRing):
    if not ring.tau.is_primitive():
        return {"name": "algebra_axioms", "passed": True,
                "detail": {"skipped": "twisting not primitive; no ring structure"}}
    if not ring.basis:
        return {"name": "algebra_axioms", "passed": True, "detail": {"rank": 0}}
    nc = ring.structure_constants()
    n = len(ring.basis)
    problems = []
    for b in range(n):
        unit_row = nc[ring.unit_index][b]
        if list(unit_row) != [1 if c == b else 0 for c in range(n)]:
            problems.append({"kind": "unit", "b": b, "row": list(unit_row)})
    for a in range(n):
        for b in range(a, n):
            if nc[a][b] != nc[b][a]:
                problems.append({"kind": "commutativity", "a": a, "b": b})
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = [0] * n
                right = [0] * n
                for d in range(n):
                    if nc[a][b][d]:
                        for e in range(n):
                            left[e] += nc[a][b][d] * nc[d][c][e]
                    if nc[b][c][d]:
                        for e in range(n):
                            right[e] += nc[b][c][d] * nc[a][d][e]
                if left != right:
                    problems.append({"kind": "associativity", "triple": [a, b, c]})
    return {"name": "algebra_axioms", "passed": not problems,
            "detail": {"problems": problems[:10], "triples": n ** 3}}


def check_delta_identity(ring: FusionRing):
    """The averaged pairing turns data back into the function:
    delta(f)(g) = f(g) for all integer data f at the representatives of
    tau.cosets(), extended by translation equivariance, and every weight g.
    It is tested exactly, through the coset keys of the representatives and
    the codes of fusion._PairingCoordinates, as two facts:

    (1) the kernel table _pairing_kernel(tau, False) holds, in each of its
        2^s doubled copies, +|F| at code 0, -|F| at the odd class
        o = code(b(pi)) for eps(pi) odd (graded twistings only) and 0
        everywhere else;
    (2) the naming: the |F| representatives r have |F| distinct coset
        keys adj(b) r mod |det b| (two weights share a key exactly when
        their difference is b of an integer coweight), and code(b(e_k)) is
        0 or o as eps_k is even or odd.

    Why (1) and (2) give the identity.  code is a homomorphism from the
    weights onto A, the product of the Z/e_i (digits u_i . mu mod e_i, for
    rows u_i of a unimodular U), and |A| = |G|.  By (1), K(o) = -|F| is a
    sum of |F| roots of unity, so each is -1 and K(2o) = +|F|: o != 0 and
    2o = 0.  So by (2) code maps b(coweights) onto H = {0, o} ({0} when
    eps = 0) and induces a map of coker(b) onto A/H; both have |F|
    elements, so it is a bijection.  With distinct keys the representatives
    r_k lie one in each coset of b(coweights), so their codes lie in
    distinct classes mod H.  Let g = r_i + b(pi).  The pairing is
    (1/|F|) sum_k f(r_k) K(code(g) - code(r_k)), and code(g) - code(r_k)
    lies in code(r_i) - code(r_k) + H, which meets {0, o} for k = i alone,
    at (eps . pi) o.  The sum is then
    (1/|F|) f(r_i) K(b(pi)) = (-1)^eps(pi) f(r_i) = f(g).

    The equivariant data of the first four basis elements must give the
    class's value at random g in full, and the same or 0 over the
    Weyl-regular part.  Every simple wall carries sign -1, so a basis point
    nu is strictly dominant and its W-orbit free: the class signs[i] [nu]
    has the data f(w nu) = det(w) signs[i] on the |W| points of
    rootdata.signed_orbit, and 0 off their cosets.  The data come from the
    W tree and the value from the alcove walk (equivariant_function), so
    the two sides are independent of each other and of the codes.  Once per
    element, the same data keyed on their box points go through
    delta_eval, which names that other set of weights afresh."""
    rd, tau = ring.rd, ring.tau
    order, coords = tau.order_F(), _pairing_coordinates(tau)
    reps = tau.cosets()
    keys = {tuple(x % order for x in tau.adj_apply(r)) for r in reps}
    failures = []
    if len(reps) != order or len(keys) != len(reps):
        failures.append({"cosets": len(reps), "repeats": len(reps) - len(keys), "expected": order})
    translations = [coords.code(tau.b.column(k)) for k in range(rd.rank)]
    odd = next((c for c, e in zip(translations, tau.eps) if e), None)
    if translations != [odd if e else 0 for e in tau.eps]:
        failures.append({"translation_codes": translations, "odd_class": odd})
    table = _pairing_kernel(tau, False)
    expected = [0] * len(table)
    for corner in product(*((0, e * place) for e, place in zip(coords.factors, coords.places))):
        expected[sum(corner)] = order
        if odd is not None:
            expected[sum(corner) + odd] = -order
    if table != expected:
        i = next(i for i, (t, x) in enumerate(zip(table, expected)) if t != x)
        failures.append({"kernel_index": i, "kernel": table[i], "expected": expected[i]})
    rng = random.Random(7)
    # the full sum is the value; the Weyl-regular restriction agrees with it
    # on a free orbit and is 0 on a surviving orbit that is not free
    # (nonzero grading only), which lies off the regular part.  The
    # pairings read the naming and the kernel, so they run only when both
    # hold.  A ZERO orbit read as a basis element gives two points of one
    # coset values that are not equivariant, which `delta` refuses
    for i in range(0 if failures else min(len(ring.basis), 4)):
        nu = ring.basis[i]
        orbit = signed_orbit(rd, nu)
        named = CosetValues(tau, list(orbit))
        f = [det * ring.signs[i] for det in orbit.values()]
        fn = equivariant_function(tau, ring.class_from_index(i))
        free = rd.is_regular(tau.adj_apply(nu), tau.det_b)
        for t in range(8):
            g = tuple(rng.randint(-10, 10) for _ in range(rd.rank))
            try:
                full, reg = named.delta(f, g), named.delta(f, g, regular_only=True)
            except ValueError as exc:
                failures.append({"basis": i, "error": str(exc)})
                break
            if full != fn(g) or reg != (full if free else 0):
                failures.append({"basis": i, "g": list(g), "full": str(full),
                                 "regular": str(reg), "value": fn(g)})
            if t == 0:
                reduced = (box_reduce(tau, lam) for lam in orbit)
                box = delta_eval(tau, {red: v * tau.translation_sign(pi)
                                       for (red, pi), v in zip(reduced, f)}, g)
                if box != full:
                    failures.append({"basis": i, "g": list(g), "full": str(full),
                                     "box_points": str(box)})
    return {"name": "delta_identity", "passed": not failures,
            "detail": {"failures": failures[:5]}}


def check_orbit_constancy(ring: FusionRing):
    """Moving a random weight by a random affine element keeps its orbit's
    label and multiplies its sign by the element's.  The element is a word
    in the simple reflections s_i(mu) = mu - <mu, alpha_i^vee> alpha_i, of
    length uniform in 0..2|Phi+|, followed by a translation b(pi); its sign
    is (-1)^length (-1)^eps(pi).  The reflections are read off the simple
    roots and coroots, not the alcove's walls, and no element of W is
    enumerated."""
    rd, tau = ring.rd, ring.tau
    rng = random.Random(3)
    trials = 40
    simple = list(zip(rd.simple_roots, rd.simple_coroots))
    failures = []
    for t in range(trials):
        lam = tuple(rng.randint(-8, 8) for _ in range(rd.rank))
        pi = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
        length = rng.randint(0, 2 * len(rd.positive_root_pairs))
        mu = lam
        for _ in range(length):
            root, coroot = rng.choice(simple)
            p = dot(mu, coroot)
            mu = tuple(m - p * r for m, r in zip(mu, root))
        sign = (-1) ** length * tau.translation_sign(pi)
        base = orbit_normal_form(tau, lam)
        moved = orbit_normal_form(tau, vec_add(mu, tau.apply_b(pi)))
        if base.is_zero != moved.is_zero:
            failures.append({"trial": t, "lam": list(lam)})
        elif not base.is_zero:
            if moved.representative != base.representative or moved.sign != base.sign * sign:
                failures.append({"trial": t, "lam": list(lam)})
    return {"name": "orbit_constancy", "passed": not failures,
            "detail": {"trials": trials, "failures": failures[:5]}}


def check_stabilizers(ring: FusionRing, trials=25):
    rd = ring.rd
    rng = random.Random(11)
    failures = []
    for t in range(trials):
        x = tuple(Fraction(rng.randint(0, 24), rng.randint(1, 12))
                  for _ in range(rd.rank))
        gens = stabilizer_generators(rd, x)
        group = generated_subgroup(rd, gens)
        brute = geometric_stabilizer_brute(rd, x)
        # the generators fix x, so the group they generate is known from its
        # Weyl parts, each named by its point w(2 rho)
        moved = any(vec_add(g.weyl.apply_coweight(x), g.translation) != x for g in gens)
        if moved or group != brute:
            failures.append({"trial": t, "x": [str(c) for c in x],
                             "generated": len(group), "brute": len(brute)})
    return {"name": "stabilizer_reflections", "passed": not failures,
            "detail": {"trials": trials, "failures": failures[:5]}}


def check_grading_flags(ring: FusionRing):
    """Informational only: with a nonzero grading, orbits where the survival
    criterion differs from literal freeness are reported, not failed."""
    disc = zero_criterion_discrepancies(ring.tau)
    return {"name": "grading_flags", "passed": True,
            "detail": {"epsilon": list(ring.tau.eps), "discrepancies": disc}}


# each check, by its name in this module and its report name, in report order
CHECKS = (
    ("check_double_count", "double_count"),
    ("check_f_epsilon", "f_epsilon_solutions"),
    ("check_cyclic_generator", "cyclic_generator"),
    ("check_annihilation", "ideal_annihilation"),
    ("check_oracle_equivalence", "oracle_equivalence"),
    ("check_algebra_axioms", "algebra_axioms"),
    ("check_delta_identity", "delta_identity"),
    ("check_orbit_constancy", "orbit_constancy"),
    ("check_stabilizers", "stabilizer_reflections"),
    ("check_grading_flags", "grading_flags"),
)


def run_all_checks(ring: FusionRing):
    """Every check on one ring, in a fixed order; GroupTooLarge before any
    check runs when the delta check's pairing kernel is over budget.  An
    InvariantError raised inside a check is that check's failure, with the
    error's class and message as its detail, and the other checks still
    run.  Each check is looked up in this module's namespace at call time,
    so a wrapper bound there sees the call."""
    check_pairing_budget(ring.tau)
    results = []
    for function, name in CHECKS:
        try:
            results.append(globals()[function](ring))
        except InvariantError as exc:
            results.append({"name": name, "passed": False,
                            "detail": {"error": type(exc).__name__, "message": str(exc)}})
    return results
