from vkt.mvlaurent import (
    LaurentPoly,
    clebsch_gordan,
    mv_s3,
    mv_su2,
    mv_u1,
    rho,
)


def L(e, c=1):
    return LaurentPoly.monomial(e, c)


def test_rho_small():
    assert rho(0) == L(0)
    assert rho(1) == L(1) + L(-1)
    assert rho(3) == L(3) + L(1) + L(-1) + L(-3)
    assert rho(-1).is_zero()


def test_clebsch_gordan_rule():
    for k in range(21):
        for l in range(21):
            prod = rho(k) * rho(l)
            expected = LaurentPoly.zero()
            for idx in clebsch_gordan(k, l):
                expected = expected + rho(idx)
            assert prod == expected


def test_mv_su2_ranks():
    assert mv_su2(1).rank == 0
    assert mv_su2(2).rank == 1
    r5 = mv_su2(5)
    assert r5.rank == 4
    assert r5.kernel_rank == 0
    assert r5.basis_labels == ("rho0", "rho1", "rho2", "rho3")
    assert r5.relation == "rho4 = 0"
    assert r5.details["quotient"] == "R(SU(2))/(rho4)"


def test_mv_su2_matches_fusion_basis_count():
    from vkt.fusion import FusionRing
    from vkt.rootdata import root_datum_from_spec
    from vkt.twist import twisting_from_level
    rd = root_datum_from_spec("SU(2)")
    for n in range(1, 13):
        ring = FusionRing(rd, twisting_from_level(rd, (n,)))
        assert mv_su2(n).rank == len(ring.basis)


def test_mv_u1():
    r = mv_u1(3, 0)
    assert r.rank == 3 and r.kernel_rank == 0
    assert r.relation == "L^3 = 1"
    assert r.details["exponent_reduction"]["3"] == [0, 1]
    r2 = mv_u1(2, 1)
    assert r2.rank == 2
    assert r2.relation == "-L^2 = 1"
    assert r2.details["exponent_reduction"]["2"] == [0, -1]
    assert r2.details["exponent_reduction"]["4"] == [0, 1]
    r1 = mv_u1(1, 0)
    assert r1.rank == 1
    assert r1.details["exponent_reduction"]["2"] == [0, 1]


def test_mv_s3():
    k0, k1 = mv_s3(0)
    assert (k0.free_rank, k0.invariant_factors) == (1, ())
    assert (k1.free_rank, k1.invariant_factors) == (1, ())
    k0, k1 = mv_s3(1)
    assert k0.free_rank == 0 and k0.invariant_factors == ()
    assert k1.order() == 1
    for n in range(2, 21):
        k0, k1 = mv_s3(n)
        assert k0.free_rank == 0 and k0.invariant_factors == ()
        assert k1.invariant_factors == (n,) and k1.free_rank == 0
