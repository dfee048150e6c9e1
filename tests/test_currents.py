"""The reflection route's table by simple-current orbits, against the
unreduced fill it replaced: every product a b computed on its own, n^2
lookups over n(n + 1)/2 products.  The oracle calls fusion_product only;
the products themselves are checked against tensor decomposition in
test_kernel.py."""

import pytest

import vkt.fusion
from vkt.fusion import FusionRing, fusion_product
from vkt.rootdata import RootDatum, root_datum_from_spec
from vkt.twist import twisting_from_level

CARTAN = {
    "a2": [[2, -1], [-1, 2]],
    "a3_swap12": [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]],
    "a3_swap23": [[2, 0, -1], [0, 2, -1], [-1, -1, 2]],
    "g2": [[2, -1], [-3, 2]],
    "g2_swapped": [[2, -3], [-1, 2]],
}

# G2 at loop levels 1-3 is twist 5-7 (dual Coxeter number 4); its centre is
# trivial, so the unit is its only current and no product may be skipped
GRID = (
    [("SU(2)", k, None) for k in range(3, 32)]
    + [("SU(3)", k, None) for k in range(4, 13)]
    + [("a2", 6, None), ("a2", 9, None)]
    + [("SU(4)", 5, None), ("SU(4)", 8, None), ("a3_swap12", 5, None), ("a3_swap23", 5, None)]
    + [(name, k, None) for name in ("Spin(5)", "Sp(2)") for k in range(4, 8)]
    + [("Spin(7)", 6, None)]
    + [(name, k, None) for name in ("g2", "g2_swapped") for k in (5, 6, 7)]
    + [("U(1)^2", None, [[2, 1], [1, 2]])]
)


def make_ring(name, level, torus):
    rd = RootDatum.from_cartan(CARTAN[name]) if name in CARTAN else root_datum_from_spec(name)
    levels = () if level is None else (level,)
    return FusionRing(rd, twisting_from_level(rd, levels, torus_block=torus))


def unreduced_structure_constants(ring):
    """Every entry by its own fusion_product: the fill before the orbits."""
    n = len(ring.basis)
    return [[tuple(ring.basis_coefficients(fusion_product(ring, a, b))) for b in range(n)]
            for a in range(n)]


def permutation_rows(table):
    """{a: images} for the rows of the table whose every entry is a single
    basis element with coefficient +1, each element once."""
    n = len(table)
    out = {}
    for a, row in enumerate(table):
        if all(entry.count(0) == n - 1 and 1 in entry for entry in row):
            images = [entry.index(1) for entry in row]
            if len(set(images)) == n:
                out[a] = images
    return out


@pytest.mark.parametrize("name, level, torus", GRID,
                         ids=[f"{name}-{level}-{torus}" for name, level, torus in GRID])
def test_orbit_fill_matches_the_unreduced_oracle(name, level, torus):
    ring = make_ring(name, level, torus)
    want = unreduced_structure_constants(make_ring(name, level, torus))
    n = len(ring.basis)
    assert ring.structure_constants() == want
    assert len(ring._product_cache) <= n * (n + 1) // 2
    # the elements the fill treats as currents are the oracle's permutation rows
    assert ring.simple_currents() == permutation_rows(want)
    if name in ("g2", "g2_swapped"):
        assert list(ring.simple_currents()) == [ring.unit_index]
        assert len(ring._product_cache) == n * (n + 1) // 2
    if name == "U(1)^2":
        assert sorted(ring.simple_currents()) == list(range(n)) and n == 3


@pytest.mark.parametrize("level", [9, 15])
def test_su3_tables_take_at_most_a_third_of_the_products(level):
    ring = make_ring("SU(3)", level, None)
    n = len(ring.basis)
    ring.structure_constants()
    assert len(ring.simple_currents()) == 3
    assert 3 * len(ring._product_cache) <= n * (n + 1) // 2


def test_a_false_candidate_is_rejected_by_its_row(monkeypatch):
    # g j made to look like a single basis element for a j that is no
    # current: the row check must reject j, and the table stay right
    ring = make_ring("SU(3)", 6, None)
    want = unreduced_structure_constants(make_ring("SU(3)", 6, None))
    currents = permutation_rows(want)
    others = [i for i in range(len(ring.basis)) if i != ring.unit_index]
    g = min(others, key=lambda i: (ring.size_keys[i], i))
    j = max(i for i in others if i not in currents and i != g)
    real = vkt.fusion._basis_image
    rows_checked = []

    def planted(ring, a, b):
        if {a, b} == {g, j}:
            return ring.unit_index
        if a == j:
            rows_checked.append(b)
        return real(ring, a, b)

    monkeypatch.setattr(vkt.fusion, "_basis_image", planted)
    assert ring.simple_currents() == currents and j not in currents
    assert rows_checked
    assert ring.structure_constants() == want


def test_products_build_the_smaller_factors_weight_system_only():
    # in either argument order: the factor with the larger size key is the
    # one whose weights are never listed
    ring = make_ring("SU(3)", 9, None)
    order = sorted(range(len(ring.basis)), key=ring.size_keys.__getitem__)
    small, second, largest = order[1], order[-2], order[-1]
    fusion_product(ring, largest, small)
    fusion_product(ring, small, second)
    built = ring.rd._weight_system_cache
    assert ring.transversal[small] in built
    assert ring.transversal[largest] not in built and ring.transversal[second] not in built
