import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vkt.rootdata
from vkt.fusion import FusionRing, class_from_weight, dominant_weights_up_to
from vkt.errors import GroupTooLarge, InvalidCartanData, NotTorsionFreePi1, SpecParseError
from vkt.rootdata import (
    RootDatum,
    dominant_representative,
    dominant_walk,
    root_datum_from_spec,
    tensor_decompose,
    weight_multiplicities,
    weyl_dimension,
    weyl_group_elements,
    weyl_numerator,
    weyl_order,
)
from vkt.twist import Twisting, twisting_from_level
from vkt.zlattice import IntMatrix, inverse_rational


def su2():
    return root_datum_from_spec("SU(2)")


def su3():
    return root_datum_from_spec("SU(3)")


def u1():
    return root_datum_from_spec("U(1)")


def test_su2_shape():
    rd = su2()
    assert rd.rank == 1
    assert rd.simple_roots == ((2,),)
    assert rd.simple_coroots == ((1,),)
    assert len(weyl_group_elements(rd)) == 2
    assert rd.factors[0].dual_coxeter == 2
    assert rd.rho_tilde == (1,)


def test_u1_shape():
    rd = u1()
    assert rd.rank == 1
    assert rd.root_pairs == ()
    assert len(weyl_group_elements(rd)) == 1
    assert rd.is_torus()
    assert rd.rho_tilde == (0,)


def test_su3_shape():
    rd = su3()
    assert rd.rank == 2
    assert len(weyl_group_elements(rd)) == 6
    assert len(rd.root_pairs) == 6
    assert rd.factors[0].dual_coxeter == 3
    assert rd.factors[0].name == "A2"


def test_named_groups_dual_coxeter_and_weyl_order():
    table = {
        "SU(4)": (24, [4]),
        "Spin(5)": (8, [3]),
        "Spin(7)": (48, [5]),
        "Sp(2)": (8, [3]),
        "Sp(3)": (48, [4]),
        "SU(2) x SU(2)": (4, [2, 2]),
    }
    for name, (worder, hv) in table.items():
        rd = root_datum_from_spec(name)
        assert len(weyl_group_elements(rd)) == worder, name
        assert [f.dual_coxeter for f in rd.factors] == hv, name


def test_factor_labels():
    labels = {
        "SU(5)": "A4",
        "Spin(5)": "B2",
        "Spin(7)": "B3",
        "Sp(3)": "C3",
    }
    for name, expected in labels.items():
        rd = root_datum_from_spec(name)
        assert rd.factors[0].name == expected, name
    # D4 and G2 through explicit Cartan matrices
    d4 = root_datum_from_spec({"cartan": [
        [2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]})
    assert d4.factors[0].name == "D4"
    g2 = root_datum_from_spec({"cartan": [[2, -1], [-3, 2]]})
    assert g2.factors[0].name == "G2"


def test_kappa_blocks():
    b2 = root_datum_from_spec("Spin(5)")
    assert b2.factors[0].kappa.to_rows() == [[2, -2], [-2, 4]]
    a1 = su2()
    assert a1.factors[0].kappa.to_rows() == [[2]]
    c2 = root_datum_from_spec("Sp(2)")
    assert c2.factors[0].kappa.to_rows() == [[4, -2], [-2, 2]]


def test_products_and_powers():
    rd = root_datum_from_spec("SU(2) x U(1)^2")
    assert rd.rank == 3
    assert rd.torus_indices == (1, 2)
    assert len(rd.factors) == 1
    rd2 = root_datum_from_spec("SU(2) x SU(3)")
    assert rd2.rank == 3
    assert len(rd2.factors) == 2
    assert [f.name for f in rd2.factors] == ["A1", "A2"]


def test_explicit_cartan_spec():
    rd = root_datum_from_spec({"cartan": [[2, -1], [-1, 2]], "torus_rank": 1})
    assert rd.rank == 3
    assert len(rd.factors) == 1


def test_bad_specs():
    with pytest.raises(SpecParseError):
        root_datum_from_spec("SO(3)")
    with pytest.raises(SpecParseError):
        root_datum_from_spec("Spin(9)")
    with pytest.raises(InvalidCartanData):
        root_datum_from_spec({"cartan": [[2, -2], [-2, 2]]})  # affine type
    with pytest.raises(InvalidCartanData):
        root_datum_from_spec({"cartan": [[2, 1], [1, 2]]})


@pytest.mark.parametrize("name", ["SU(2)^0", "U(1)^0", "SU(2)^0 x U(1)"])
def test_a_zero_power_is_refused(name):
    # not read as the trivial group, as SU(1) is not
    with pytest.raises(SpecParseError, match=r"power .* n >= 1"):
        root_datum_from_spec(name)


def test_a_torus_form_at_torus_rank_0_is_checked():
    # a form for no torus is refused, as a form of the wrong size is
    for rank, form in ((0, [[5]]), (1, [[1, 0], [0, 1]])):
        with pytest.raises(InvalidCartanData, match="torus_form"):
            RootDatum.from_cartan([[2]], rank, torus_form=form)
    assert RootDatum.from_cartan([[2]], 0, torus_form=[]).rank == 1


def test_non_integral_matrix_data_is_refused():
    # not truncated toward zero
    with pytest.raises(ValueError, match="non-integral"):
        RootDatum.from_cartan([[2]], 1, torus_form=[[Fraction(3, 2)]])
    with pytest.raises(ValueError, match="non-integral"):
        Twisting(root_datum_from_spec("SU(2)"), IntMatrix.from_rows([[Fraction(13, 2)]]))


def test_group_split_keeps_parentheses_whole():
    # x inside parentheses is not a product sign
    with pytest.raises(SpecParseError, match=r"'SU\(x\)'"):
        root_datum_from_spec("SU(x)")
    rd = root_datum_from_spec("SU(2)xU(1)")
    assert (rd.rank, len(rd.factors), len(rd.torus_indices)) == (2, 1, 1)


def test_so3_style_datum_rejected():
    # adjoint-group A1 lattice: root = basis vector, coroot = twice the dual
    with pytest.raises(NotTorsionFreePi1):
        RootDatum.from_root_data(1, [(1,)], [(2,)])


def test_group_too_large_guard(monkeypatch):
    from vkt.errors import GroupTooLarge
    rd = root_datum_from_spec("SU(4)")
    monkeypatch.setattr(vkt.rootdata, "MAX_GROUP_ORDER", 5)
    with pytest.raises(GroupTooLarge):
        weyl_group_elements(rd)


G2_CARTAN = [[2, -1], [-3, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E7_CARTAN = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
             [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
             [0, 0, 0, 0, 0, -1, 2]]


def test_weyl_order_matches_enumeration():
    data = [root_datum_from_spec(name) for name in (
        "SU(2)", "SU(3)", "SU(4)", "Spin(5)", "Spin(7)", "Sp(2)", "Sp(3)", "U(1)", "U(1)^2",
        "SU(2) x U(1)", "SU(2) x SU(3)")]
    data += [RootDatum.from_root_data(2, [(1, -1)], [(1, -1)]),
             RootDatum.from_cartan(G2_CARTAN), RootDatum.from_cartan([[2, -3], [-1, 2]]),
             RootDatum.from_cartan(F4_CARTAN)]
    for rd in data:
        assert weyl_order(rd) == len(weyl_group_elements(rd)), rd.spec_text
    assert [weyl_order(rd) for rd in data[-3:]] == [12, 12, 1152]


def _rational_root_system(rd):
    """(root pairs, positive root pairs, heights) the slow way: close the
    (root, coroot) pairs under the simple reflections in weight and coweight
    coordinates, then read positivity and height off the simple-root
    coordinates Cartan^-1 (<beta, alpha_i^vee>)_i, over the rationals."""
    pairs = {(r, c) for r, c in zip(rd.simple_roots, rd.simple_coroots)}
    frontier = list(pairs)
    while frontier:
        nxt = []
        for r, c in frontier:
            for g in rd.generators:
                p = (g.apply(r), g.apply_coweight(c))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    inv = inverse_rational(rd.cartan) if rd.simple_roots else []
    positive, heights = [], []
    for r, c in sorted(pairs):
        pairing = [sum(a * b for a, b in zip(r, cv)) for cv in rd.simple_coroots]
        coords = [sum(x * y for x, y in zip(row, pairing)) for row in inv]
        assert all(x.denominator == 1 for x in coords)
        if all(x >= 0 for x in coords):
            positive.append((r, c))
            heights.append(sum(coords))
    return tuple(sorted(pairs)), tuple(positive), tuple(heights)


def test_integer_root_closure_matches_the_rational_one():
    data = [root_datum_from_spec(name) for name in (
        "SU(2)", "SU(3)", "SU(4)", "Spin(5)", "Spin(7)", "Sp(3)", "U(1)", "SU(2) x U(1)",
        "SU(2) x SU(3)")]
    data += [RootDatum.from_root_data(2, [(1, -1)], [(1, -1)]),
             RootDatum.from_cartan(G2_CARTAN), RootDatum.from_cartan([[2, -3], [-1, 2]]),
             RootDatum.from_cartan(F4_CARTAN), RootDatum.from_cartan(E7_CARTAN)]
    for rd in data:
        pairs, positive, heights = _rational_root_system(rd)
        assert rd.root_pairs == pairs, rd.spec_text
        assert rd.positive_root_pairs == positive, rd.spec_text
        assert rd._heights == heights, rd.spec_text
    assert [len(rd.root_pairs) for rd in data[-3:]] == [12, 48, 126]


def test_non_integral_weights_are_refused():
    rd = su2()
    for bad in ((1.9,), ("3",), (Fraction(7, 2),)):
        with pytest.raises(ValueError):
            rd.check_weight(bad)
    assert rd.check_weight((Fraction(4, 2),)) == (2,)
    ring = FusionRing(rd, twisting_from_level(rd, (5,)))
    with pytest.raises(ValueError):
        class_from_weight(ring, (1.9,))


def test_large_weyl_group_refused_before_enumeration(monkeypatch):
    rd = RootDatum.from_cartan(E7_CARTAN)
    assert weyl_order(rd) == 2903040

    def boom(*args, **kwargs):
        raise AssertionError("a Weyl element was built")

    monkeypatch.setattr(vkt.rootdata, "WeylElement", boom)
    from vkt.errors import GroupTooLarge
    with pytest.raises(GroupTooLarge):
        weyl_group_elements(rd)


def test_u2_style_datum_accepted():
    rd = RootDatum.from_root_data(2, [(1, -1)], [(1, -1)])
    assert rd.rho2 == (1, -1)
    assert sum(rd.rho_tilde) % 2 == 1  # integral lift differs from rho by an invariant
    lifted = [2 * a - b for a, b in zip(rd.rho_tilde, rd.rho2)]
    assert lifted[0] == lifted[1]  # correction is W-invariant


def test_weyl_elements_permute_roots():
    for name in ("SU(3)", "Spin(5)"):
        rd = root_datum_from_spec(name)
        roots = {r for r, _ in rd.root_pairs}
        for w in weyl_group_elements(rd):
            assert {w.apply(r) for r in roots} == roots
            assert w.determinant in (1, -1)
            assert w.determinant == (-1) ** len(w.word)
            assert w.matrix.determinant() == w.determinant


def test_dominant_representative_su2():
    rd = su2()
    res = dominant_representative(rd, (-3,))
    assert res.weight == (3,)
    assert res.sign == -1
    assert not res.on_wall
    res0 = dominant_representative(rd, (0,))
    assert res0.on_wall
    assert res0.weight == (0,)


def test_dominant_representative_su3_roundtrip():
    rd = su3()
    mu = (1, 1)
    w = weyl_group_elements(rd)[4]  # some nontrivial element
    lam = w.apply(mu)
    res = dominant_representative(rd, lam)
    assert res.weight == mu
    assert res.element.apply(lam) == mu
    assert res.sign == res.element.determinant
    assert not res.on_wall


def test_dominant_representative_regular_dominant_is_fixed():
    rd = su3()
    res = dominant_representative(rd, (2, 3))
    assert res.weight == (2, 3)
    assert not res.element.word
    assert res.sign == 1


G2_CARTAN = [[2, -1], [-3, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_dominant_walk_matches_dominant_representative():
    rng = random.Random(12)
    for rd in (su3(), root_datum_from_spec("Spin(5)"), root_datum_from_spec("SU(2) x U(1)"),
               RootDatum.from_cartan(G2_CARTAN), RootDatum.from_root_data(2, [(1, -1)], [(1, -1)])):
        for _ in range(50):
            lam = tuple(rng.randint(-9, 9) for _ in range(rd.rank))
            res = dominant_representative(rd, lam)
            assert dominant_walk(rd, lam) == (res.weight, res.sign, res.on_wall), lam
            assert res.element.apply(lam) == res.weight


def test_weight_systems_and_products_build_no_weyl_witness(monkeypatch):
    # the weight systems walk no weight at all, and tensor_decompose uses the
    # integer walk
    def refuse(*args):
        raise AssertionError("dominant_representative builds IntMatrix witnesses")

    monkeypatch.setattr(vkt.rootdata, "dominant_representative", refuse)
    rd = RootDatum.from_cartan(G2_CARTAN)
    assert sum(weight_multiplicities(rd, (1, 1)).values()) == weyl_dimension(rd, (1, 1))
    assert sum(tensor_decompose(rd, (1, 0), (0, 1)).values()) == 3


def _weyl_expansion(rd, system):
    """The system rebuilt from its dominant weights by all of W."""
    return {w.apply(mu): m for mu, m in system.items() if rd.is_dominant(mu)
            for w in weyl_group_elements(rd)}


def test_weight_systems_match_the_full_weyl_expansion():
    # the groups of the acceptance grid, every dominant weight of height <= 3
    for name in ("SU(2)", "SU(3)", "Spin(5)", "SU(2) x U(1)", "U(1)^2"):
        rd = root_datum_from_spec(name)
        for lam in dominant_weights_up_to(rd, 3):
            system = weight_multiplicities(rd, lam)
            assert system == _weyl_expansion(rd, system), (name, lam)
    # the fundamental representations of G2 and F4
    for cartan in (G2_CARTAN, F4_CARTAN):
        rd = RootDatum.from_cartan(cartan)
        for i in range(rd.rank):
            lam = tuple(int(i == j) for j in range(rd.rank))
            system = weight_multiplicities(rd, lam)
            assert system == _weyl_expansion(rd, system), (cartan, lam)
            assert sum(system.values()) == weyl_dimension(rd, lam)


def test_su2_weight_strings():
    rd = su2()
    for k in range(6):
        wm = weight_multiplicities(rd, (k,))
        assert wm == {(j,): 1 for j in range(-k, k + 1, 2)}
        assert weyl_dimension(rd, (k,)) == k + 1


def test_trivial_rep():
    for name in ("SU(2)", "SU(3)", "U(1)"):
        rd = root_datum_from_spec(name)
        assert weight_multiplicities(rd, (0,) * rd.rank) == {(0,) * rd.rank: 1}


def test_su3_adjoint_weights():
    rd = su3()
    wm = weight_multiplicities(rd, (1, 1))
    assert wm[(0, 0)] == 2
    assert sum(wm.values()) == 8
    assert weyl_dimension(rd, (1, 1)) == 8
    outer = {k: v for k, v in wm.items() if k != (0, 0)}
    assert len(outer) == 6 and set(outer.values()) == {1}


def test_su3_fundamental_dims():
    rd = su3()
    assert weyl_dimension(rd, (1, 0)) == 3
    assert weyl_dimension(rd, (0, 1)) == 3
    assert sum(weight_multiplicities(rd, (2, 0)).values()) == weyl_dimension(rd, (2, 0)) == 6


def test_spin5_dims():
    rd = root_datum_from_spec("Spin(5)")
    # vector and spinor representations of Spin(5)
    assert weyl_dimension(rd, (1, 0)) == 5
    assert weyl_dimension(rd, (0, 1)) == 4
    wm = weight_multiplicities(rd, (1, 0))
    assert sum(wm.values()) == 5 and wm[(0, 0)] == 1


def test_weight_system_weyl_invariant():
    rd = su3()
    wm = weight_multiplicities(rd, (2, 1))
    for w in weyl_group_elements(rd):
        for nu, m in wm.items():
            assert wm[w.apply(nu)] == m
    assert sum(wm.values()) == weyl_dimension(rd, (2, 1))


def test_clebsch_gordan_su2():
    rd = su2()
    assert tensor_decompose(rd, (2,), (1,)) == {(1,): 1, (3,): 1}
    assert tensor_decompose(rd, (3,), (3,)) == {(0,): 1, (2,): 1, (4,): 1, (6,): 1}


def test_tensor_unit():
    for name in ("SU(2)", "SU(3)", "Spin(5)"):
        rd = root_datum_from_spec(name)
        lam = (1,) * rd.rank
        assert tensor_decompose(rd, lam, (0,) * rd.rank) == {lam: 1}


def test_tensor_su3():
    rd = su3()
    assert tensor_decompose(rd, (1, 0), (0, 1)) == {(0, 0): 1, (1, 1): 1}
    # 3 x 3 = 6 + 3bar
    assert tensor_decompose(rd, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}


def test_tensor_dimension_balance_and_symmetry():
    cases = [("SU(3)", (1, 1), (2, 0)), ("Spin(5)", (0, 1), (1, 1)),
             ("SU(2) x U(1)", (2, 3), (1, -1))]
    for name, lam, mu in cases:
        rd = root_datum_from_spec(name)
        dec = tensor_decompose(rd, lam, mu)
        assert dec == tensor_decompose(rd, mu, lam)
        assert all(v > 0 for v in dec.values())
        total = sum(v * weyl_dimension(rd, nu) for nu, v in dec.items())
        assert total == weyl_dimension(rd, lam) * weyl_dimension(rd, mu)


def test_tensor_torus():
    rd = u1()
    assert tensor_decompose(rd, (3,), (-5,)) == {(-2,): 1}


def test_describe_roundtrip():
    rd = root_datum_from_spec("SU(3) x U(1)")
    d = rd.describe()
    assert d["rank"] == 3
    assert d["torus_rank"] == 1
    assert d["factors"][0]["dual_coxeter"] == 3


def _numerator_data():
    data = [root_datum_from_spec(name) for name in (
        "SU(2)", "SU(3)", "SU(4)", "Spin(5)", "Sp(2)", "Spin(7)", "U(1)", "U(1)^2",
        "SU(2) x U(1)", "SU(2) x SU(3)")]
    return data + [RootDatum.from_root_data(2, [(1, -1)], [(1, -1)]),
                   RootDatum.from_cartan(G2_CARTAN), RootDatum.from_cartan([[2, -3], [-1, 2]])]


def test_weyl_numerator_is_the_alternating_sum_over_w():
    # {w(lam + rho) - rho: det w} from the enumerated group, in doubled
    # coordinates (rho is not a weight on U(2)-style data)
    for rd in _numerator_data():
        for lam in dominant_weights_up_to(rd, 3):
            top = tuple(2 * a + r for a, r in zip(lam, rd.rho2))
            want = {tuple((x - r) // 2 for x, r in zip(w.apply(top), rd.rho2)): w.determinant
                    for w in weyl_group_elements(rd)}
            got = weyl_numerator(rd, lam)
            assert got == want and len(got) == weyl_order(rd), (rd.spec_text, lam)
            assert got[lam] == 1


def test_weyl_numerator_is_the_character_times_the_denominator():
    # the Weyl character formula: e^-rho A_(lam+rho) = chi_lam prod (1 - e^-alpha)
    for rd in _numerator_data() + [RootDatum.from_cartan(F4_CARTAN)]:
        denominator = {(0,) * rd.rank: 1}
        for alpha in rd.positive_roots():
            step = dict(denominator)
            for mu, c in denominator.items():
                nu = tuple(a - b for a, b in zip(mu, alpha))
                step[nu] = step.get(nu, 0) - c
            denominator = {mu: c for mu, c in step.items() if c}
        weights = dominant_weights_up_to(rd, 2 if rd.rank < 4 else 1)
        for lam in weights:
            product = {}
            for mu, m in weight_multiplicities(rd, lam).items():
                for nu, c in denominator.items():
                    key = tuple(a + b for a, b in zip(mu, nu))
                    product[key] = product.get(key, 0) + m * c
            want = {mu: c for mu, c in product.items() if c}
            assert weyl_numerator(rd, lam) == want, (rd.spec_text, lam)


def test_weyl_numerator_refuses_a_large_weyl_group_before_the_closure(monkeypatch):
    # the one |W| guard stands inside the tree's builder, before its first
    # point: no tree is kept, and none is built (a built tree of the wrong
    # size would raise InvariantError instead)
    rd = RootDatum.from_cartan(E7_CARTAN)                  # |W| = 2 903 040
    with pytest.raises(GroupTooLarge):
        weyl_numerator(rd, (0,) * 7)
    assert rd._orbit_template is None
    rd = RootDatum.from_cartan([[2, -1], [-1, 2]])
    monkeypatch.setattr(vkt.rootdata, "weyl_order", lambda rd: vkt.rootdata.MAX_GROUP_ORDER + 1)
    with pytest.raises(GroupTooLarge):
        weyl_numerator(rd, (0, 0))
    assert rd._orbit_template is None


NUMERATOR_GUARDS_UNDER_O = """
import sys
import vkt.rootdata
from vkt.errors import InvariantError
from vkt.rootdata import root_datum_from_spec, weyl_numerator

if sys.flags.optimize < 1:
    sys.exit("not run with -O")
# a wall with a zero root fixes every weight, so the closure meets it with both signs
rd = root_datum_from_spec("SU(3)")
rd.simple_walls = ((rd.simple_walls[0][0], (0, 0), 0, None),) + rd.simple_walls[1:]
try:
    weyl_numerator(rd, (1, 0))
except InvariantError as exc:
    if "both signs" not in str(exc):
        sys.exit(f"wrong error for the sign guard: {exc}")
else:
    sys.exit("the sign guard did not fire")
# a closure of 6 points against a claimed |W| of 5
vkt.rootdata.weyl_order = lambda rd: 5
try:
    weyl_numerator(root_datum_from_spec("SU(3)"), (1, 0))
except InvariantError as exc:
    if "expected |W| = 5" not in str(exc):
        sys.exit(f"wrong error for the count guard: {exc}")
else:
    sys.exit("the count guard did not fire")
print("guards fired")
"""


def test_weyl_numerator_guards_survive_python_O():
    src = str(Path(vkt.rootdata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", NUMERATOR_GUARDS_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "guards fired"
