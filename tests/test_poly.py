"""Polynomial, parser, and jet behaviour.

Expected values for the derived cases were produced by independent hand
computation (termwise power rule, direct expansion) and frozen here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvf.errors import (
    OrderMismatch,
    ParseError,
    PreconditionViolated,
    UnknownVariable,
    VariableMismatch,
)
from logvf.poly import (
    Jet,
    Polynomial,
    WeightSystem,
    graded_parts,
    multihomog_decompose_poly,
    poly_parse,
    poly_to_str,
    sum_of_products,
)

XY = ("x", "y")


def P(text, varnames=XY):
    return poly_parse(text, varnames)


class TestParse:
    def test_cusp(self):
        f = P("x^2 + y^3")
        assert f.terms == {(2, 0): Fraction(1), (0, 3): Fraction(1)}

    def test_rational_coefficients(self):
        f = P("1/2*x - 3/4*y^2")
        assert f.coeff((1, 0)) == Fraction(1, 2)
        assert f.coeff((0, 2)) == Fraction(-3, 4)

    def test_parentheses_and_products(self):
        f = P("x*y*(x+y)*(x*z+y)", ("x", "y", "z"))
        g = P("x^3*y*z + x^2*y^2 + x^2*y^2*z + x*y^3", ("x", "y", "z"))
        assert f == g

    def test_leading_minus(self):
        assert P("-x") == -P("x")

    def test_double_star_power(self):
        assert P("x**3") == P("x^3")

    def test_power_of_sum(self):
        assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            P("x + t")

    def test_malformed(self):
        for bad in ("x +", "* x", "x ^ y", "(x", "3/0"):
            with pytest.raises(ParseError):
                P(bad)

    @pytest.mark.parametrize("names", [("x", "1y"), ("x", "y z"),
                                       ("x", "x"), ("x", ""), ("x", " y"),
                                       ("x", "y^2"), ("x", "é")])
    def test_refuses_names_it_cannot_read_back(self, names):
        # over ("x", "1y") the printed "1y" reads as 1*y, and over
        # ("x", "x") the second name can never be written
        with pytest.raises(ParseError):
            poly_parse("x^2 + x", names)
        with pytest.raises(ParseError):
            poly_parse("1", names)

    @settings(max_examples=100)
    @given(st.lists(st.text("xy1_ z^", min_size=1, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    def test_what_it_takes_prints_back(self, names, coeffs):
        # a refused tuple has a name that is no identifier or a repeat;
        # over an accepted one, printed output parses back
        try:
            gens = [poly_parse(v, names) for v in names]
        except ParseError:
            assert any(not v or " " in v or "^" in v or v[0] == "1"
                       for v in names) or len(set(names)) < len(names)
            return
        f = sum((g ** (k + 1) * c
                 for k, (g, c) in enumerate(zip(gens, coeffs))),
                Polynomial.zero(tuple(names)))
        assert poly_parse(poly_to_str(f), names) == f

    def test_example41_polynomial(self):
        vs = ("x1", "x2", "x3", "x4")
        f = poly_parse(
            "3*x2^2*x3^2 - 6*x1*x3^3 - 8*x2^3*x4 + 18*x1*x2*x3*x4 - 9*x1^2*x4^2", vs)
        assert len(f.terms) == 5
        assert f.coeff((1, 1, 1, 1)) == 18

    def test_roundtrip_through_str(self):
        for text in ("x^2 + y^3", "-x + 1/2*y", "x*y - 7", "3*x^2*y - y + 2"):
            f = P(text)
            assert P(poly_to_str(f)) == f


class TestArithmetic:
    def test_product_expansion(self):
        # (x + 2y)(x - 2y) = x^2 - 4y^2, by hand
        assert P("x + 2*y") * P("x - 2*y") == P("x^2 - 4*y^2")

    def test_cancellation_drops_terms(self):
        f = P("x^2 + y") - P("y")
        assert f.terms == {(2, 0): Fraction(1)}

    def test_scalar_ops(self):
        assert P("x") * Fraction(1, 3) == P("1/3*x")
        assert P("x") + 1 == P("x + 1")

    def test_pow(self):
        assert P("x + y") ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert P("x") ** 0 == P("1")

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            P("x") + poly_parse("z", ("z",))

    def test_degrees(self):
        f = P("x^2*y + x")
        assert f.total_degree() == 3
        assert f.low_degree() == 1
        assert Polynomial.zero(XY).total_degree() == -1


class TestCalculus:
    def test_partial_derivative(self):
        # d/dx (x^2 y + y^3) = 2xy, by power rule
        f = P("x^2*y + y^3")
        assert f.diff(0) == P("2*x*y")
        assert f.diff(1) == P("x^2 + 3*y^2")

    def test_derivative_of_constant(self):
        assert P("5").diff(0).is_zero()

    def test_laurent_power_rule(self):
        f = Polynomial.monomial(XY, (-2, 0), 1)
        assert f.diff(0) == Polynomial.monomial(XY, (-3, 0), -2)

    def test_substitute_shift(self):
        # (x+y^2)^2 + y^3 expanded by hand
        f = P("x^2 + y^3")
        g = f.substitute([P("x + y^2"), P("y")])
        assert g == P("x^2 + 2*x*y^2 + y^4 + y^3")

    def test_shift_point(self):
        f = P("x^2 + y")
        assert f.shift([1, 0]) == P("x^2 + 2*x + 1 + y")


class TestJet:
    def test_truncate_keeps_low_terms(self):
        j = P("1 + x + x^2 + x^3").truncate(3)
        assert j.poly == P("1 + x + x^2")
        assert j.order == 3

    def test_jet_product_order_gain_in_m(self):
        # two jets vanishing to order 2, both known mod m^5: product known mod m^7
        a = P("x^2").truncate(5)
        b = P("y^2").truncate(5)
        assert (a * b).order == 7

    def test_jet_product_retruncates(self):
        a = P("1 + x^2").truncate(3)
        b = P("1 + x^2").truncate(3)
        c = a * b
        assert c.order == 3
        assert c.poly == P("1 + 2*x^2")

    def test_diff_costs_one_order(self):
        j = P("x^3").truncate(5)
        assert j.diff(0).order == 4

    def test_inverse_geometric(self):
        u = P("1 - x").truncate(5)
        inv = u.inverse()
        assert inv.poly == P("1 + x + x^2 + x^3 + x^4")
        assert (u * inv).truncate(5).poly == P("1")

    def test_inverse_with_constant(self):
        u = P("2 + x").truncate(4)
        assert (u * u.inverse()).truncate(4).poly == P("1")

    def test_inverse_requires_unit(self):
        with pytest.raises(PreconditionViolated):
            P("x").truncate(4).inverse()

    def test_mixed_orders_take_min(self):
        a = P("1 + x").truncate(5)
        b = P("1 + y").truncate(3)
        assert (a + b).order == 3

    def test_substitute_into_jet_images(self):
        f = P("x^2")
        img = P("x + x^2").truncate(4)
        out = f.substitute([img, Jet(P("y"), 4)])
        assert out.poly == P("x^2 + 2*x^3")


class TestWeights:
    def test_monomial_degree(self):
        W = WeightSystem.make([[3, 2]])
        assert W.monomial_degree((2, 0)) == (Fraction(6),)
        assert W.monomial_degree((0, 3)) == (Fraction(6),)

    def test_multihomog_poly_components_sum(self):
        W = WeightSystem.make([[1, 1], [1, -1]])
        f = P("x^2 + x*y + y^3")
        comps = multihomog_decompose_poly(f, W)
        assert sum(comps.values(), Polynomial.zero(XY)) == f
        assert comps[(Fraction(2), Fraction(0))] == P("x*y")

    def test_graded_parts(self):
        f = P("x + x*y + y^3")
        parts = graded_parts(f)
        assert parts[1] == P("x")
        assert parts[2] == P("x*y")
        assert parts[3] == P("y^3")


# -- properties of the truncated product and of substitution ----------------

PROPERTY = settings(max_examples=60)
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(varnames=XY, low=0, high=4, max_terms=5):
    exps = st.tuples(*[st.integers(0, high)] * len(varnames)).filter(
        lambda e: low <= sum(e) <= high)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(
        lambda terms: Polynomial(terms, varnames))


# factors that may vanish to a positive order at the origin
LOW_DEGREE_POLYS = st.integers(0, 3).flatmap(lambda low: polys(low=low))


def _reference_substitute(p, images, order=None):
    """p o images term by term: every term multiplies out its own powers,
    one factor at a time, and the truncation comes last."""
    acc = {}
    for exp, c in p.terms.items():
        term = {(0,) * len(p.vars): c}
        for image, e in zip(images, exp):
            for _ in range(e):
                nxt = {}
                for e1, c1 in term.items():
                    for e2, c2 in image.terms.items():
                        key = tuple(a + b for a, b in zip(e1, e2))
                        nxt[key] = nxt.get(key, 0) + c1 * c2
                term = nxt
        for key, value in term.items():
            acc[key] = acc.get(key, 0) + value
    if order is not None:
        acc = {e: c for e, c in acc.items() if sum(e) < order}
    return Polynomial(acc, p.vars)


class TestConstructor:
    def test_mixed_coefficients_store_nonzero_fractions(self):
        p = Polynomial({(2, 0): 3, (1, 1): Fraction(1, 2), (0, 2): 0,
                        (0, 1): Fraction(0), (1, 0): -1}, XY)
        assert p.terms == {(2, 0): Fraction(3), (1, 1): Fraction(1, 2),
                           (1, 0): Fraction(-1)}
        assert all(type(c) is Fraction for c in p.terms.values())

    @PROPERTY
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           st.one_of(st.integers(-2, 2), COEFFS),
                           max_size=6))
    def test_only_nonzero_fractions_are_stored(self, terms):
        p = Polynomial(terms, XY)
        assert p.terms == {e: c for e, c in terms.items() if c != 0}
        assert all(type(c) is Fraction and c != 0
                   for c in p.terms.values())


class TestTruncatedProducts:
    @PROPERTY
    @given(LOW_DEGREE_POLYS, LOW_DEGREE_POLYS, st.integers(0, 7),
           st.integers(0, 7))
    def test_jet_product_equals_truncated_full_product(self, a, b, oa, ob):
        ja, jb = Jet(a, oa), Jet(b, ob)
        prod = ja * jb
        assert prod.order == min(oa + jb.low_degree(), ob + ja.low_degree())
        assert prod == Jet(ja.poly * jb.poly, prod.order)

    @PROPERTY
    @given(polys(high=3), st.lists(polys(high=3, max_terms=3), min_size=2,
                                   max_size=2), st.integers(0, 6))
    def test_substitute_jet_images_matches_termwise_reference(self, p, images,
                                                             order):
        out = p.substitute([Jet(images[0], order), Jet(images[1], order + 1)])
        assert out.order == order
        truncated = [Jet(im, order).poly for im in images]
        assert out.poly == _reference_substitute(p, truncated, order)

    @PROPERTY
    @given(polys(high=3), st.lists(polys(high=2, max_terms=3), min_size=2,
                                   max_size=2))
    def test_substitute_polynomial_images_matches_termwise_reference(self, p,
                                                                    images):
        assert p.substitute(images) == _reference_substitute(p, images)

    @PROPERTY
    @given(st.lists(st.tuples(LOW_DEGREE_POLYS, LOW_DEGREE_POLYS), min_size=1,
                    max_size=3), st.one_of(st.none(), st.integers(0, 7)))
    def test_sum_of_products_equals_the_sum_of_the_products(self, pairs, order):
        total = Polynomial.zero(XY)
        for q, p in pairs:
            total = total + q * p
        if order is not None:
            total = Jet(total, order).poly
        assert sum_of_products(pairs, order) == total

    def test_sum_of_products_refuses_empty_and_mixed_pairs(self):
        with pytest.raises(PreconditionViolated):
            sum_of_products([])
        with pytest.raises(VariableMismatch):
            sum_of_products([(P("x"), P("y")), (P("x"), P("z", ("x", "z")))])
