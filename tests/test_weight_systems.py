"""Freudenthal weight systems built in one dictionary, against the
recursion they replaced.

The oracle is the earlier `_weight_system`: every term of every alpha-string
walks its weight into the dominant chamber (`dominant_walk`) to read a
multiplicity table of dominant weights, and the orbits are expanded in a
second pass by breadth-first search (`weyl_orbit`)."""

import pytest

import vkt.rootdata
from vkt.fusion import FusionRing, dominant_weights_up_to
from vkt.rootdata import (
    RootDatum,
    _weight_system,
    closure,
    dominant_walk,
    root_datum_from_spec,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_dimension,
)
from vkt.twist import twisting_from_level

from test_datum_oracles import F4_CARTAN, G2_CARTAN, G2_SWAPPED, u_style
from test_rootdata import E7_CARTAN


def weyl_orbit(rd, weight):
    """The W-orbit of a weight, by breadth-first search over the simple
    reflections: the work is the orbit's size times the rank, not |W|."""
    def reflections(lam):
        out = []
        for coroot, root, _, _ in rd.simple_walls:
            p = 0
            for j, c in coroot:
                p += lam[j] * c
            if p:
                out.append(tuple(x - p * r for x, r in zip(lam, root)))
        return out
    return closure([tuple(weight)], reflections)


def walked_weight_system(rd, lam):
    """The weight system of V_lam by the Freudenthal recursion on dominant
    weights, each string term read at its dominant representative."""
    if not rd.factors:
        return {lam: 1}

    # work with the doubled, rho-shifted vectors 2*mu + 2*rho so the whole
    # recursion stays in integer arithmetic
    def shifted(mu):
        return tuple(2 * a + b for a, b in zip(mu, rd.rho2))

    top = rd.inner_scaled(shifted(lam), shifted(lam))

    # the dominant weights of V_lam are the dominant mu <= lam, and each is
    # reached from lam through dominant weights by subtracting positive roots
    # (Stembridge, Adv. Math. 136 (1998) 340)
    positive = rd.positive_roots()
    dominants = closure([lam], lambda mu: [nu for nu in (vec_sub(mu, alpha) for alpha in positive)
                                           if rd.is_dominant(nu)])
    dominants = sorted(dominants, key=lambda mu: rd.inner_scaled(shifted(mu), shifted(mu)),
                       reverse=True)
    mult = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        mu2 = shifted(mu)
        denom = top - rd.inner_scaled(mu2, mu2)
        acc = 0
        for alpha, _ in rd.positive_root_pairs:
            # the alpha-string through the weight mu is unbroken: stop at the
            # first mu + k alpha that is not a weight
            k = 1
            while True:
                xi = vec_add(mu, vec_scale(k, alpha))
                m = mult.get(dominant_walk(rd, xi)[0], 0)
                if not m:
                    break
                acc += m * rd.inner_scaled(xi, alpha)
                k += 1
        # the scale factors cancel to (2 * 4) / denominator-in-doubled-norms
        val, rem = divmod(8 * acc, denom)
        assert not rem, (lam, mu)
        if val:
            mult[mu] = val
    # expand each dominant weight over its W-orbit
    system = {}
    for mu, m in mult.items():
        for nu in weyl_orbit(rd, mu):
            system[nu] = m
    return system


def fundamentals(rd, indices):
    return [tuple(int(i == j) for j in range(rd.rank)) for i in indices]


def oracle_cases():
    """(datum, highest weights): every dominant weight of height <= 4 on the
    acceptance-grid groups and a few more, the fundamentals of F4, E7's
    omega_1 and omega_7, and the transversals of SU(3) 9 and SU(4) 5."""
    data = [root_datum_from_spec(name) for name in
            ("SU(2)", "SU(3)", "SU(4)", "Spin(5)", "Spin(7)", "Sp(3)", "SU(2) x U(1)", "U(1)^2")]
    data += [u_style(2), RootDatum.from_cartan(G2_CARTAN), RootDatum.from_cartan(G2_SWAPPED)]
    cases = [(rd, dominant_weights_up_to(rd, 4)) for rd in data]
    f4 = RootDatum.from_cartan(F4_CARTAN)
    cases.append((f4, fundamentals(f4, range(4))))
    e7 = RootDatum.from_cartan(E7_CARTAN)
    cases.append((e7, fundamentals(e7, (0, 6))))
    for name, level in (("SU(3)", 9), ("SU(4)", 5)):
        rd = root_datum_from_spec(name)
        ring = FusionRing(rd, twisting_from_level(rd, (level,)))
        cases.append((rd, ring.transversal))
    return cases


def test_weight_systems_match_the_walked_recursion():
    for rd, weights in oracle_cases():
        for lam in weights:
            system = _weight_system(rd, lam)
            assert system == walked_weight_system(rd, lam), (rd.spec_text, lam)
            if rd.factors:
                assert sum(system.values()) == weyl_dimension(rd, lam), (rd.spec_text, lam)


def test_weight_systems_take_no_chamber_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a weight was walked into the dominant chamber")

    monkeypatch.setattr(vkt.rootdata, "dominant_walk", refuse)
    monkeypatch.setattr(vkt.rootdata, "reflect_into_chamber", refuse)
    f4 = RootDatum.from_cartan(F4_CARTAN)
    for rd, lam, dim in ((root_datum_from_spec("SU(3)"), (2, 1), 15),
                         (RootDatum.from_cartan(G2_CARTAN), (1, 1), 64),
                         (f4, (0, 0, 0, 1), 52)):
        system = _weight_system(rd, lam)
        assert sum(system.values()) == weyl_dimension(rd, lam) == dim
    with pytest.raises(AssertionError, match="dominant chamber"):
        vkt.rootdata.dominant_walk(f4, (0, 0, 0, -1))
