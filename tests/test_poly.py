"""Polynomial, parser, and jet behaviour.

Expected values for the derived cases were produced by independent hand
computation (termwise power rule, direct expansion) and frozen here.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvf.errors import (
    ParseError,
    PreconditionViolated,
    UnknownVariable,
    VariableMismatch,
)
from logvf import poly
from logvf.poly import (
    Jet,
    Polynomial,
    PowerTable,
    WeightSystem,
    _lift,
    _lifted_combination,
    _lifted_product,
    _unlift,
    cut,
    derivation,
    exponents,
    linear_forms,
    poly_parse,
    poly_to_str,
    remultiplies,
    split,
    sum_of_products,
    unit_inverse,
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

    def test_truncated_tables_refuse_laurent_images(self):
        # x^3 * y^-1 has total degree 2 < 3, so cutting the composite of
        # x*y at 3 by degree is unsound; an exact table takes the images
        laurent = [P("x^3"), Polynomial.monomial(XY, (0, -1))]
        with pytest.raises(PreconditionViolated):
            PowerTable(laurent, 3)
        assert P("x*y").substitute(laurent) == \
            Polynomial.monomial(XY, (3, -1))
        assert PowerTable(laurent).compose(P("x*y")) == \
            Polynomial.monomial(XY, (3, -1))


class TestJet:
    def test_truncate_keeps_low_terms(self):
        j = P("1 + x + x^2 + x^3").truncate(3)
        assert j.poly == P("1 + x + x^2")
        assert j.order == 3

    def test_inverse_geometric(self):
        u = P("1 - x")
        inv = unit_inverse(u, 5)
        assert inv == P("1 + x + x^2 + x^3 + x^4")
        assert cut(u * inv, 5) == P("1")

    def test_inverse_with_constant(self):
        u = P("2 + x")
        assert cut(u * unit_inverse(u, 4), 4) == P("1")

    def test_inverse_requires_unit(self):
        with pytest.raises(PreconditionViolated):
            unit_inverse(P("x"), 4)

    def test_a_jet_has_no_arithmetic(self):
        a, b = P("1 + x").truncate(5), P("1 + y").truncate(3)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: -a, lambda: a * 2, lambda: 2 * a, lambda: a ** 2):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(a, "inverse")


class TestWeights:
    def test_monomial_degree(self):
        W = WeightSystem.make([[3, 2]])
        assert W.monomial_degree((2, 0)) == (Fraction(6),)
        assert W.monomial_degree((0, 3)) == (Fraction(6),)

    def test_multihomog_poly_components_sum(self):
        W = WeightSystem.make([[1, 1], [1, -1]])
        f = P("x^2 + x*y + y^3")
        comps = split(f, W.monomial_degree)
        assert sum(comps.values(), Polynomial.zero(XY)) == f
        assert comps[(Fraction(2), Fraction(0))] == P("x*y")

    def test_graded_parts(self):
        f = P("x + x*y + y^3")
        parts = split(f, sum)
        assert parts[1] == P("x")
        assert parts[2] == P("x*y")
        assert parts[3] == P("y^3")


# -- properties of the truncated product and of substitution ----------------

PROPERTY = settings(max_examples=60)
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# denominators up to 19, so that lifted maps meet many primes at once
FINE_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=19)


def polys(varnames=XY, low=0, high=4, max_terms=5, coeffs=COEFFS):
    exps = st.tuples(*[st.integers(0, high)] * len(varnames)).filter(
        lambda e: low <= sum(e) <= high)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
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

    @settings(max_examples=100)
    @given(st.data())
    def test_remultiplies_agrees_with_the_fraction_reference(self, data):
        draw = data.draw
        k, rank = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        order = draw(st.one_of(st.none(), st.integers(0, 5)))
        entries = polys(high=3, max_terms=4, coeffs=FINE_COEFFS)
        inputs = [tuple(draw(entries) for _ in range(rank)) for _ in range(k)]
        rows = [tuple(draw(entries) for _ in range(k))
                for _ in range(draw(st.integers(1, 2)))]
        targets = [tuple(sum_of_products(zip(row, (g[c] for g in inputs)))
                         for c in range(rank)) for row in rows]
        kind = draw(st.sampled_from(["true", "dropped", "changed",
                                     "rescaled", "zero"]))
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, rank - 1))
        terms = dict(targets[j][c].terms)
        if kind == "dropped" and terms:
            del terms[draw(st.sampled_from(sorted(terms)))]
        elif kind == "changed":
            e = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
            terms[e] = terms.get(e, 0) + draw(FINE_COEFFS.filter(bool))
        elif kind == "rescaled":
            scale = draw(FINE_COEFFS.filter(lambda q: q not in (0, 1)))
            terms = {e: v * scale for e, v in terms.items()}
        targets[j] = (targets[j][:c] + (Polynomial(terms, XY),)
                      + targets[j][c + 1:])
        if kind == "zero":
            targets = [(Polynomial.zero(XY),) * rank for _ in rows]

        def cut(t):
            return t if order is None else Jet(t, order).poly

        reference = all(sum_of_products(zip(row, (g[c] for g in inputs)),
                                        order) == cut(target[c])
                        for row, target in zip(rows, targets)
                        for c in range(rank))
        assert remultiplies(rows, inputs, targets, order) == reference

    def test_remultiplies_answers_both_ways_and_refuses_other_shapes(self):
        f, g = P("1/3*x + y^2"), P("x*y - 1/7")
        q, r = P("1/2 - x"), P("1/5*y")
        total = q * f + r * g
        assert remultiplies([(q, r)], [(f,), (g,)], [(total,)])
        assert not remultiplies([(q, r)], [(f,), (g,)], [(2 * total,)])
        assert remultiplies([(q, r)], [(f,), (g,)],
                            [(total + P("x^3"),)], 3)
        assert not remultiplies([(q, r)], [(f,), (g,)],
                                [(total + P("x^2"),)], 3)
        # a quotient per input and one rank for inputs and targets
        assert not remultiplies([(q,)], [(f,), (g,)], [(total,)])
        assert not remultiplies([(q, r)], [(f,), (g, f)], [(total,)])
        assert not remultiplies([(q, r)], [(f,), (g,)], [(total, total)])
        with pytest.raises(VariableMismatch):
            remultiplies([(q,)], [(f,)], [(P("x", ("x", "z")),)])

    def test_sum_of_products_refuses_empty_and_mixed_pairs(self):
        with pytest.raises(PreconditionViolated):
            sum_of_products([])
        with pytest.raises(VariableMismatch):
            sum_of_products([(P("x"), P("y")), (P("x"), P("z", ("x", "z")))])


# -- signed sums of derivations ------------------------------------------------

@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([1, -1, Fraction(2, 3)]),
                          st.lists(polys(high=3, max_terms=3), min_size=2,
                                   max_size=2),
                          st.lists(polys(high=4), min_size=2, max_size=2)),
                min_size=1, max_size=2),
       st.one_of(st.none(), st.integers(0, 7)))
def test_derivation_is_the_signed_sum_of_coefficients_times_partials(actions,
                                                                     order):
    for j in range(2):
        total = Polynomial.zero(XY)
        for c, coeffs, targets in actions:
            for i, a in enumerate(coeffs):
                total = total + a * targets[j].diff(i) * c
        if order is not None:
            total = Jet(total, order).poly
        assert derivation(actions, order)[j] == total


def test_derivation_refuses_empty_and_mismatched_actions():
    x, y = P("x"), P("y")
    with pytest.raises(PreconditionViolated):
        derivation([])
    with pytest.raises(VariableMismatch):
        derivation([(1, [x], [y])])
    with pytest.raises(VariableMismatch):
        derivation([(1, [x, y], [x]), (1, [x, y], [x, y])])
    with pytest.raises(VariableMismatch):
        derivation([(1, [x, y], [P("z", ("x", "z"))])])


# -- composition through cached monomials against per-variable powers ---------

def _reference_compose(images, p, order=None):
    """The term map of p o images by per-variable powers: images[i]^k is
    formed by repeated products and kept per variable, and the terms are
    grouped on their last exponent, recursively, so that each power of the
    last image multiplies the combined rest once.  Cut below `order` when
    given, as PowerTable cuts."""
    one = Polynomial.const(p.vars, 1)
    if order is not None:
        one, images = cut(one, order), [cut(im, order) for im in images]
    powers = [[_lift(one.terms), _lift(im.terms)] for im in images]

    def power(i, k):
        pows = powers[i]
        while len(pows) <= k:
            pows.append(_lifted_product(pows[-1], pows[1], order))
        return pows[k]

    def combine(terms, k):
        groups = {}
        for exp, c in terms.items():
            groups.setdefault(exp[k - 1], {})[exp[:k - 1]] = c
        if k == 1:
            return _lifted_combination((sub[()], power(0, e))
                                       for e, sub in groups.items())
        parts = []
        for e, sub in groups.items():
            part = combine(sub, k - 1)
            if e:
                part = _lifted_product(part, power(k - 1, e), order)
            parts.append((1, part))
        return _lifted_combination(parts)

    return _unlift(combine(p.terms, len(p.vars)))


@st.composite
def compositions(draw):
    """Images in 1 to 4 variables, with or without constant terms, an
    order (None or 1 to 8) and a function: zero, a constant or drawn."""
    varnames = ("x", "y", "z", "w")[:draw(st.integers(1, 4))]
    low = draw(st.integers(0, 1))
    images = [draw(polys(varnames, low=low, high=2, max_terms=3))
              for _ in varnames]
    order = draw(st.none() | st.integers(1, 8))
    p = draw(st.sampled_from(["zero", "constant", "drawn"]).flatmap(
        lambda kind: st.just(Polynomial.zero(varnames)) if kind == "zero"
        else COEFFS.map(lambda c: Polynomial.const(varnames, c))
        if kind == "constant"
        else polys(varnames, high=3, max_terms=4)))
    return images, order, p


@settings(max_examples=150)
@given(compositions())
def test_compose_through_cached_monomials_equals_per_variable_powers(case):
    images, order, p = case
    assert PowerTable(images, order).compose(p).terms == \
        _reference_compose(images, p, order)


def test_two_compositions_form_each_monomial_once(monkeypatch):
    formed = []

    def counted(a, b, order=None):
        formed.append(1)
        return _lifted_product(a, b, order)

    table = PowerTable([P("x + y^2"), P("y - x^2")], 7)
    first, second = P("x^2*y + x*y - 3*y^3"), P("x^2*y^2 + x*y + x^3")
    monkeypatch.setattr(poly, "_lifted_product", counted)
    table.compose(first)
    table.compose(second)
    # x^0 is the only monomial the table starts with; every other one kept
    # was formed by one product
    assert len(formed) == len(table._monomials) - 1
    # a second pass over both forms none
    count = len(formed)
    table.compose(first)
    table.compose(second)
    assert len(formed) == count


# -- the Newton inverse at doubling precision against full-order steps ---------

def _reference_inverse(u, order):
    """The inverse of a unit below `order` by Newton steps that all run at
    the full order: whole Polynomial products, each cut below `order`."""
    r = Polynomial.const(u.vars, Fraction(1) / u.constant_term())
    steps, good = 0, 1
    while good < order:
        good *= 2
        steps += 1
    for _ in range(max(steps, 1)):
        r = cut(r * (2 - cut(u * r, order)), order)
    return r


@st.composite
def units(draw, low=0):
    """A unit polynomial and an order from `low` to 12."""
    varnames = ("x", "y", "z")[:draw(st.integers(1, 3))]
    n = len(varnames)
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda e: 0 < sum(e) <= 3)
    terms = draw(st.dictionaries(exps, COEFFS, max_size=3))
    terms[(0,) * n] = draw(COEFFS.filter(bool))
    return Polynomial(terms, varnames), draw(st.integers(low, 12))


@settings(max_examples=40)
@given(units())
def test_inverse_at_doubling_precision_matches_full_order_steps(unit):
    u, order = unit
    if order == 0:
        # modulo m^0 the constant term is gone too: no unit to invert
        with pytest.raises(PreconditionViolated):
            unit_inverse(u, order)
        return
    assert unit_inverse(u, order) == _reference_inverse(u, order)


@PROPERTY
@given(units(low=1))
def test_unit_inverse_inverts_below_its_order(unit):
    u, order = unit
    inv = unit_inverse(u, order)
    assert cut(u * inv, order) == 1
    assert inv.total_degree() < order


@PROPERTY
@given(polys(low=1), st.integers(1, 8))
def test_unit_inverse_refuses_a_zero_constant_term(p, order):
    with pytest.raises(PreconditionViolated):
        unit_inverse(p, order)


# -- the term-map primitives: cut, split, exponents and linear forms -----------

@PROPERTY
@given(polys(high=6), st.integers(0, 8), st.integers(0, 8))
def test_cut_keeps_the_terms_a_jet_keeps(p, order, jet_order):
    assert cut(p, order).terms == \
        {e: c for e, c in p.terms.items() if sum(e) < order}
    assert cut(p, order) == Jet(p, order).poly
    j = Jet(p, jet_order)
    assert cut(j, order) == Jet(j.poly, order).poly
    assert type(cut(j, order)) is Polynomial


KEYS = [sum, lambda e: e[0], lambda e: e[0] - 2 * e[1], lambda e: e[1] % 2]


@PROPERTY
@given(polys(high=6), st.sampled_from(KEYS))
def test_split_partitions_the_terms_by_key(p, key):
    parts = split(p, key)
    seen = {}
    for k, part in parts.items():
        assert type(part) is Polynomial
        assert part.terms and all(key(e) == k for e in part.terms)
        assert not set(seen) & set(part.terms)
        seen.update(part.terms)
    assert seen == p.terms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 5])
def test_exponents_of_one_degree(n, d):
    exps = list(exponents(n, d))
    assert len(exps) == len(set(exps)) == comb(n + d - 1, d)
    assert all(len(e) == n and min(e) >= 0 and sum(e) == d for e in exps)


@PROPERTY
@given(st.lists(st.lists(COEFFS, min_size=3, max_size=3), max_size=4))
def test_linear_forms_are_the_sums_of_scaled_variables(rows):
    names = ("x", "y", "z")
    xs = [Polynomial.variable(names, i) for i in range(3)]
    forms = linear_forms(rows, names)
    assert forms == [sum((x * c for x, c in zip(xs, row)),
                         Polynomial.zero(names)) for row in rows]


# -- the two forms of a polynomial: Fraction term map and lifted map ----------

KINDS = ("terms", "lifted")


@st.composite
def two_form_cases(draw):
    """Two term maps in 1 to 4 variables, each zero, a nonzero constant or
    drawn, with a scalar, an order (None or 0 to 6) and a variable index."""
    varnames = ("x", "y", "z", "w")[:draw(st.integers(1, 4))]
    n = len(varnames)
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 3)

    def term_map():
        kind = draw(st.sampled_from(["zero", "constant", "drawn"]))
        if kind == "zero":
            return {}
        if kind == "constant":
            return {(0,) * n: draw(FINE_COEFFS.filter(bool))}
        return draw(st.dictionaries(exps, FINE_COEFFS, max_size=4))

    return (varnames, term_map(), term_map(), draw(FINE_COEFFS),
            draw(st.none() | st.integers(0, 6)), draw(st.integers(0, n - 1)))


def _in_form(terms, varnames, kind):
    """A fresh polynomial that holds only the named form of terms."""
    p = Polynomial(terms, varnames)
    if kind == "terms":
        return p
    return Polynomial._of_lifted(p.lifted(), varnames)


def _canonical(p):
    ints, den = p.lifted()
    return den > 0 and 0 not in ints.values() and gcd(den, *ints.values()) == 1


def _value(out):
    """What the answers for each operand kind must agree on; every
    polynomial met must be canonical."""
    if isinstance(out, Polynomial):
        assert _canonical(out), out.lifted()
        return (out.vars, out.lifted(), out.terms, str(out))
    if isinstance(out, dict):
        return [(k, _value(v)) for k, v in out.items()]
    if isinstance(out, (tuple, list)):
        return [_value(v) for v in out]
    return out


def _operations(c, order, i):
    """Each operation on two operands a and b, by name."""
    keep = 3 if order is None else order
    high = 4 if order is None else max(order, 2)

    def inverse(a, b):
        # images (j + 1) x_j + (the terms of a of degree >= 2), with the
        # rows of the inverse of their linear part
        n = len(a.vars)
        rest = a - cut(a, 2)
        images = [Polynomial.variable(a.vars, j) * (j + 1) + rest
                  for j in range(n)]
        rows = [[Fraction(int(j == k), j + 1) for k in range(n)]
                for j in range(n)]
        return PowerTable(images, high).inverse(rows)

    def images(a, b):
        return [b if j % 2 == 0 else a for j in range(len(a.vars))]

    return {
        "+": lambda a, b: (a + b, a + c, c + a),
        "-": lambda a, b: (a - b, a - c, c - a),
        "*": lambda a, b: a * b,
        "neg": lambda a, b: -a,
        "scalar *": lambda a, b: (a * c, c * a, a * 3, a * 0),
        "diff": lambda a, b: a.diff(i),
        "cut": lambda a, b: cut(a, keep),
        "split": lambda a, b: split(a, lambda e: sum(e) % 2),
        "==": lambda a, b: (a == b, a == a, a == c, b == 0),
        "hash": lambda a, b: (hash(a), hash(b)),
        "structure": lambda a, b: (
            a.is_zero(), a.constant_term(), a.coeff((1,) + (0,) * (len(a.vars) - 1)),
            a.total_degree(), a.low_degree()),
        "str": lambda a, b: (str(a), repr(b)),
        "sum_of_products": lambda a, b: sum_of_products([(a, b), (b, b)],
                                                        order),
        "unit_inverse": lambda a, b: (unit_inverse(a, high)
                                      if a.constant_term() else None),
        "derivation": lambda a, b: derivation(
            [(c, images(a, b), [b, a]), (1, images(b, a), [a, a])], order),
        "remultiplies": lambda a, b: (
            remultiplies([(a,)], [(b,)], [(a * b,)], order),
            remultiplies([(a, b)], [(b,), (a,)], [(a * b,)], order),
            remultiplies([(a,)], [(b,)], [(a + b,)], order)),
        "compose": lambda a, b: PowerTable(images(a, b), order).compose(a),
        "inverse": inverse,
    }


@settings(max_examples=80)
@given(two_form_cases())
def test_the_two_forms_agree_on_every_operation(case):
    varnames, ta, tb, c, order, i = case
    for name, op in _operations(c, order, i).items():
        answers = [_value(op(_in_form(ta, varnames, ka),
                             _in_form(tb, varnames, kb)))
                   for ka in KINDS for kb in KINDS]
        assert all(x == answers[0] for x in answers), name


def test_a_chain_of_kernels_makes_no_fraction(monkeypatch):
    unlifted = []
    real = poly._unlift

    def counted(lifted):
        unlifted.append(lifted)
        return real(lifted)

    def lifted_only(text):
        p = P(text)
        return Polynomial._of_lifted(p.lifted(), p.vars)

    f, g = lifted_only("x^2 + 1/3*x*y - y^3"), lifted_only("2/5*x - y^2 + 7")
    images = [lifted_only("x + 1/2*y^2"), lifted_only("y - 3/4*x*y")]
    monkeypatch.setattr(poly, "_unlift", counted)
    h = PowerTable(images, 6).compose(f)
    h = sum_of_products([(h, g), (g, g)], 6)
    h = cut(h, 5)
    parts = split(h, sum)
    h = parts[1] + parts[2] - g
    d0, d1 = derivation([(1, [h, g], [h, f])], 6)
    assert unlifted == []
    terms = d0.terms
    assert len(unlifted) == 1
    assert d0.terms is terms
    assert len(unlifted) == 1
