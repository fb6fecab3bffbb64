import random
from fractions import Fraction

import pytest

from logvf.errors import PrecisionRequired, PreconditionViolated
from logvf.orderings import OrderingSpec
from logvf.poly import Jet, Polynomial, poly_parse
from logvf.standard_bases import (default_precision, ideal_dimension, membership,
                                  module_intersection, standard_basis, syzygies)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p(text, names=XY):
    return poly_parse(text, names)


LOCAL = OrderingSpec.make("local-anti-graded")


# -- Groebner bases, global orders --------------------------------------------

def test_textbook_reduced_basis():
    # classic two-generator example whose reduced basis is x^2, xy, y^2 - x/2
    f1 = p("x^3 - 2*x*y")
    f2 = p("x^2*y - 2*y^2 + x")
    sb = standard_basis([f1, f2])
    got = sb.polynomials()
    assert got == [p("y^2 - 1/2*x"), p("x*y"), p("x^2")]


def test_single_generator_basis_is_monic():
    sb = standard_basis([p("3*x^2 + 3*y")])
    assert sb.polynomials() == [p("x^2 + y")]
    assert sb.lifts[0][0] == p("1/3")


def test_inputs_reduce_to_zero():
    gens = [p("x^2 + y^3"), p("x*y - 1")]
    sb = standard_basis(gens)
    for g in gens:
        cert = membership(g, sb)
        assert cert.member
        assert cert.verify(g, gens)


def test_leads_pairwise_indivisible():
    sb = standard_basis([p("x^3 - 2*x*y"), p("x^2*y - 2*y^2 + x")])
    leads = sb.leading_monomials()
    for i, (ci, ei) in enumerate(leads):
        for j, (cj, ej) in enumerate(leads):
            if i != j and ci == cj:
                assert not all(a <= b for a, b in zip(ei, ej))


def test_basis_of_basis_has_same_leads():
    gens = [p("x^2*y - y"), p("x*y^2 - x")]
    sb1 = standard_basis(gens)
    sb2 = standard_basis(sb1.polynomials())
    assert sb1.polynomials() == sb2.polynomials()


def test_membership_exact_quotients():
    gens = [p("x^2 + y"), p("y^2 - x")]
    sb = standard_basis(gens)
    # x*(x^2+y) + (y+1)*(y^2-x) written out
    elem = p("x^3 + y^3 + y^2 - x")
    cert = membership(elem, sb)
    assert cert.member
    assert cert.precision is None
    assert cert.verify(elem, gens)


def test_membership_negative():
    sb = standard_basis([p("x^2"), p("y^2")])
    cert = membership(p("x*y"), sb)
    assert not cert.member
    assert cert.quotients is None
    assert cert.normal_form[0] == p("x*y")


def test_constructed_members_random():
    rng = random.Random(20260819)
    names = XY
    monos = [p(m) for m in ("1", "x", "y", "x*y", "x^2", "y^2")]

    def rand_poly():
        out = Polynomial.zero(names)
        for m in monos:
            if rng.random() < 0.5:
                out = out + m * Polynomial.const(names, rng.randrange(-3, 4))
        return out

    for _ in range(40):
        f = rand_poly()
        g = rand_poly()
        if f.is_zero() or g.is_zero():
            continue
        sb = standard_basis([f, g])
        a, b = rand_poly(), rand_poly()
        h = a * f + b * g
        if h.is_zero():
            continue
        cert = membership(h, sb)
        assert cert.member
        assert cert.verify(h, [f, g])


# -- local orders --------------------------------------------------------------

def test_local_lead_term_is_lowest_degree():
    sb = standard_basis([p("x + x^2")], LOCAL)
    # the basis is kept as given, up to scaling: lead is x, tail stays
    assert sb.polynomials() == [p("x + x^2")]
    assert sb.leading_monomials() == [(0, (1, 0))]


def test_local_membership_needs_precision():
    sb = standard_basis([p("x + x^2")], LOCAL)
    with pytest.raises(PrecisionRequired):
        membership(p("x"), sb)


def test_local_membership_with_unit_quotient():
    gens = [p("x + x^2")]
    sb = standard_basis(gens, LOCAL)
    cert = membership(p("x"), sb, precision=8)
    assert cert.member
    assert cert.precision == 8
    assert cert.unit.constant_term() != 0
    assert cert.verify(p("x"), gens)
    # the quotient is the geometric series 1 - x + x^2 - ...
    q = cert.quotients[0]
    assert isinstance(q, Jet)
    assert q.poly.coeff((0, 0)) == 1
    assert q.poly.coeff((1, 0)) == -1
    assert q.poly.coeff((2, 0)) == 1


def test_global_rejects_what_local_accepts():
    gens = [p("x + x^2")]
    assert not membership(p("x"), standard_basis(gens)).member
    assert membership(p("x"), standard_basis(gens, LOCAL), precision=6).member


def test_local_unit_ideal_detection():
    # 1 + x is invertible near the origin, so the ideal is everything
    sb = standard_basis([p("1 + x")], LOCAL)
    assert sb.leading_monomials() == [(0, (0, 0))]
    cert = membership(p("y"), sb, precision=5)
    assert cert.member


def test_local_versus_global_square():
    gens = [p("y^2 + y^3")]
    assert membership(p("y^2"), standard_basis(gens, LOCAL), precision=7).member
    assert not membership(p("y^2"), standard_basis(gens)).member
    # globally the containment runs the other way only with the factor
    cert = membership(p("y^2 + y^3"), standard_basis([p("y^2")]))
    assert cert.member and cert.precision is None


# -- syzygies ------------------------------------------------------------------

def test_koszul_pair():
    x, y = p("x"), p("y")
    rels = syzygies([x, y])
    assert rels == [(p("y"), p("-x"))]


def test_koszul_triple():
    x, y, z = (poly_parse(t, XYZ) for t in "xyz")
    rels = syzygies([x, y, z])
    assert len(rels) == 3
    for rel in rels:
        acc = rel[0] * x + rel[1] * y + rel[2] * z
        assert acc.is_zero()


def test_syzygies_of_independent_module_rows():
    fam = [(p("x"), p("y")), (p("y"), p("x"))]
    assert syzygies(fam) == []


def test_syzygy_with_common_factor():
    f = p("x*y")
    g = p("x^2")
    rels = syzygies([f, g])
    # x*(xy) - y*(x^2) = 0 and that single relation generates
    assert rels == [(p("x"), p("-y"))]


def test_random_syzygies_remultiply(seeded=None):
    rng = random.Random(99)
    for _ in range(25):
        f = p("x") ** rng.randrange(1, 3) * p("y") ** rng.randrange(0, 2) + \
            Polynomial.const(XY, rng.randrange(-2, 3))
        g = p("y") ** rng.randrange(1, 3) + p("x") * Polynomial.const(XY, rng.randrange(-2, 3))
        for rel in syzygies([f, g]):
            assert (rel[0] * f + rel[1] * g).is_zero()


def test_local_syzygies():
    f = p("x + x^2")
    g = p("x*y")
    rels = syzygies([f, g], LOCAL)
    for rel in rels:
        assert (rel[0] * f + rel[1] * g).is_zero()
    assert rels


# -- intersections -------------------------------------------------------------

def test_principal_intersection():
    got = module_intersection([p("x")], [p("y")])
    sb = standard_basis([p("x*y")])
    for h in got:
        assert membership(h, sb).member
    assert any(not h.is_zero() for h in got)


def test_module_intersection_contains_overlap():
    fam_a = [(p("x"), p("0")), (p("0"), p("y"))]
    fam_b = [(p("x"), p("y"))]
    got = module_intersection(fam_a, fam_b)
    # x*(x, y) = (x^2, xy) lies in both spans
    assert got
    for vec in got:
        cert_a = membership(vec, standard_basis(fam_a))
        assert cert_a.member


# -- dimension -----------------------------------------------------------------

def test_dimension_basics():
    assert ideal_dimension([p("x")]) == 1
    assert ideal_dimension([p("x"), p("y")]) == 0
    assert ideal_dimension([p("x^2 + y^2 - 1")]) == 1
    assert ideal_dimension([Polynomial.zero(XY)]) == 2
    assert ideal_dimension([Polynomial.const(XY, 5)]) == -1


def test_dimension_cusp_singular_locus():
    f = p("x^2 + y^3")
    assert ideal_dimension([f, f.diff(0), f.diff(1)]) == 0


def test_dimension_local_unit():
    # 1 + x cuts out a line globally but is a unit locally
    assert ideal_dimension([p("1 + x")]) == 1
    assert ideal_dimension([p("1 + x")], LOCAL) == -1


def test_dimension_module_rejected():
    with pytest.raises(PreconditionViolated):
        ideal_dimension([(p("x"), p("y"))])


def test_default_precision():
    assert default_precision([p("x^2 + y^3")]) == 10
    assert default_precision([(p("x"), p("y^2"))]) == 8


# -- input validation ----------------------------------------------------------

def test_rejects_mixed_variables():
    with pytest.raises(PreconditionViolated):
        standard_basis([p("x"), poly_parse("z", XYZ)])


def test_rejects_jets_and_laurent_terms():
    with pytest.raises(PreconditionViolated):
        standard_basis([Jet(p("x"), 3)])
    with pytest.raises(PreconditionViolated):
        standard_basis([Polynomial.monomial(XY, (-1, 0), 1)])


def test_weight_length_checked():
    bad = OrderingSpec.make("weighted-graded", weights=(1, 2, 3))
    with pytest.raises(PreconditionViolated):
        standard_basis([p("x + y")], bad)


@pytest.mark.parametrize("weights", [(1, 2, 3), (1,)])
def test_every_entry_refuses_weights_of_another_length(weights):
    # the cusp's partials and the cusp itself have a relation, so a silently
    # cut weight vector would return one instead of refusing
    bad = OrderingSpec.make("weighted-graded", weights=weights)
    fam = [p("2*x"), p("3*y^2"), p("x^2 + y^3")]
    for call in (lambda: standard_basis(fam, bad),
                 lambda: syzygies(fam, bad),
                 lambda: module_intersection(fam[:1], fam[1:], bad),
                 lambda: ideal_dimension(fam, bad),
                 lambda: ideal_dimension([Polynomial.zero(XY)], bad)):
        with pytest.raises(PreconditionViolated,
                           match="order weights must match the variable count"):
            call()
    good = OrderingSpec.make("weighted-graded", weights=(3, 2))
    assert syzygies(fam, good)
    assert module_intersection([p("x")], [p("y")], good)


def test_weighted_order_membership_agrees():
    w = OrderingSpec.make("weighted-graded", weights=(3, 2))
    gens = [p("x^2 + y^3"), p("x*y")]
    for probe in (p("x^3 + x*y^3"), p("x^2*y"), p("x + y")):
        a = membership(probe, standard_basis(gens)).member
        b = membership(probe, standard_basis(gens, w)).member
        assert a == b
