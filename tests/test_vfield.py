"""Vector field action, brackets, and grading."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvf.cech import CechClass, d1_apply, d1_kernel_search
from logvf.errors import HasConstantPart, PreconditionViolated
from logvf.normalform import (CoordChange, diagonal_symmetries,
                              homological_solve, pd_normalize,
                              straighten_unit_field, unit_adjust)
from logvf.poly import (Jet, Polynomial, WeightSystem, as_poly, cut,
                        poly_parse, split)
from logvf.standard_bases import membership, standard_basis, syzygies
from logvf.vfield import (
    VectorField,
    lie_bracket,
    split_field,
    vf_to_str,
)

XY = ("x", "y")


def P(text, varnames=XY):
    return poly_parse(text, varnames)


def VF(*texts, varnames=XY):
    return VectorField([P(t, varnames) for t in texts])


class TestAction:
    def test_euler_on_cusp(self):
        # ((x/2)dx + (y/3)dy)(x^2+y^3) = x^2 + y^3
        chi = VF("1/2*x", "1/3*y")
        f = P("x^2 + y^3")
        assert chi.apply(f) == f

    def test_apply_second_generator(self):
        # (3y^2 dx - 2x dy)(x^2+y^3) = 6xy^2 - 6xy^2 = 0
        delta = VF("3*y^2", "-2*x")
        assert delta.apply(P("x^2 + y^3")).is_zero()

    def test_leibniz_single(self):
        d = VF("y", "x^2")
        f, g = P("x + y^2"), P("x*y")
        assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)


class TestBracket:
    def test_sl2_pair(self):
        # [x dy, y dx] = x dx - y dy with A=[[0,1],[0,0]], B=[[0,0],[1,0]]
        a = VectorField.from_matrix([[0, 1], [0, 0]], XY)
        b = VectorField.from_matrix([[0, 0], [1, 0]], XY)
        assert a == VF("0", "x")
        assert lie_bracket(a, b) == VF("x", "-y")

    def test_antisymmetry(self):
        a, b = VF("y^2", "x"), VF("x*y", "1")
        assert lie_bracket(a, b) == -lie_bracket(b, a)


class TestStructure:
    def test_linear_part_entry_convention(self):
        # 3y^2 dx - 2x dy: only linear term is -2x in the dy slot,
        # so A[row x][col y] = -2
        d = VF("3*y^2", "-2*x")
        A = d.linear_part()
        assert A == [[Fraction(0), Fraction(-2)], [Fraction(0), Fraction(0)]]

    def test_linear_part_rejects_constant(self):
        with pytest.raises(HasConstantPart):
            VF("1 + x", "y").linear_part()

    def test_from_matrix_roundtrip(self):
        A = [[Fraction(3), Fraction(1)], [Fraction(0), Fraction(-2)]]
        assert VectorField.from_matrix(A, XY).linear_part() == A

    def test_diagonal(self):
        assert VectorField.diagonal([3, 2], XY) == VF("3*x", "2*y")

    def test_str(self):
        assert vf_to_str(VF("1/2*x", "0")) == "1/2*x*d_x"
        assert vf_to_str(VectorField.partial(XY, 1)) == "d_y"
        assert vf_to_str(VectorField.zero(XY)) == "0"

    def test_a_jet_field_prints_its_order(self):
        # a field known only below order k says so; its polynomial field
        # prints the same terms without the suffix
        d = VF("x + x*y", "y^3 - 2*y").truncate(3)
        assert vf_to_str(d) == "(x*y + x)*d_x + -2*y*d_y mod m^3"
        assert str(d.as_polynomial_field()) == "(x*y + x)*d_x + -2*y*d_y"
        assert vf_to_str(VectorField.zero(XY).truncate(4)) == "0 mod m^4"

    def test_a_jet_field_below_order_2_has_no_known_linear_part(self):
        # x + y^2 and 2y known modulo m^1: both linear terms are unknown
        low = VectorField([Jet(P("x + y^2"), 1), Jet(P("2*y"), 1)])
        with pytest.raises(PreconditionViolated, match="modulo m\\^1"):
            low.linear_part()
        known = VectorField([Jet(P("x + y^2"), 2), Jet(P("2*y"), 2)])
        assert known.linear_part() == [[1, 0], [0, 2]]

    def test_a_jet_field_of_order_0_has_no_known_constant_part(self):
        low = VectorField([Jet(P("1 + x"), 0), Jet(P("y"), 0)])
        for query in (low.constant_part, low.vanishes_at_origin):
            with pytest.raises(PreconditionViolated, match="modulo m\\^0"):
                query()
        known = VectorField([Jet(P("1 + x"), 1), Jet(P("y"), 1)])
        assert known.constant_part() == (1, 0)
        assert not known.vanishes_at_origin()

    def test_a_jet_field_with_no_stored_term_has_no_known_low_degree(self):
        low = VectorField([Jet(P("x + y^2"), 1), Jet(P("2*y"), 1)])
        with pytest.raises(PreconditionViolated, match="modulo m\\^1"):
            low.low_field_degree()
        assert VF("x + y^2", "2*y").truncate(3).low_field_degree() == 1
        assert VectorField.zero(XY).low_field_degree() == 10 ** 9


class TestGrading:
    def test_field_graded_parts(self):
        d = VF("x + x*y", "y^3")
        parts = split_field(d, lambda e, i: sum(e) - 1)
        assert parts[0] == VF("x", "0")
        assert parts[1] == VF("x*y", "0")
        assert parts[2] == VF("0", "y^3")

    def test_multihomog_field_degree(self):
        # y^2 dx has w-degree 2*2-3 = 1 for w = (3,2)
        W = WeightSystem.make([[3, 2]])
        d = VF("3*y^2", "-2*x")
        comps = split_field(d, W.field_term_degree)
        assert set(comps) == {(Fraction(1),)}

    def test_multihomog_field_zero_component(self):
        W = WeightSystem.make([[3, 2]])
        d = VF("1/2*x + y^2", "1/3*y")
        comps = split_field(d, W.field_term_degree)
        assert comps[(Fraction(0),)] == VF("1/2*x", "1/3*y")
        assert comps[(Fraction(1),)] == VF("y^2", "0")


# -- the terms of delta(x^e) against the action on a Laurent monomial -----------

@st.composite
def fields_and_exponents(draw):
    """A polynomial field in one to three variables, coefficients of degree
    at most 3 (constants included), and an exponent in [-3, 3]^n."""
    varnames = ("x", "y", "z")[:draw(st.integers(1, 3))]
    n = len(varnames)
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    coeffs = [Polynomial(draw(st.dictionaries(
        exps, st.fractions(min_value=-5, max_value=5, max_denominator=4),
        max_size=4)), varnames) for _ in varnames]
    return VectorField(coeffs), draw(st.tuples(*[st.integers(-3, 3)] * n))


@settings(max_examples=100)
@given(fields_and_exponents())
def test_monomial_image_is_the_action_on_x_to_the_e(case):
    delta, e = case
    mono = Polynomial({e: Fraction(1)}, delta.vars)
    assert delta.monomial_image(e) == as_poly(delta.apply(mono)).terms


# -- the field action against term-by-term Polynomial products ---------------

def _reference_apply(field, p):
    """delta(p), for a polynomial p, as one whole Polynomial product per
    variable, summed term map by term map; for a jet field of order k the
    products are those of its stored terms, and the sum is cut below k."""
    acc = Polynomial.zero(field.vars)
    for i, a in enumerate(field.coeffs):
        acc = acc + as_poly(a) * p.diff(i)
    return acc if field.order is None else Jet(acc, field.order)


def _reference_bracket(a, b):
    return VectorField([_reference_apply(a, b.coeffs[j])
                        - _reference_apply(b, a.coeffs[j])
                        for j in range(len(a.vars))])


def _functions(varnames, order):
    """A polynomial (order None) or a jet of that order, zero included."""
    n = len(varnames)
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 5)
    terms = st.one_of(st.just({}), st.dictionaries(
        exps, st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=4))
    polys = terms.map(lambda t: Polynomial(t, varnames))
    return polys if order is None else polys.map(lambda p: Jet(p, order))


def _field(draw, varnames, order):
    return VectorField([draw(_functions(varnames, order)) for _ in varnames])


def _is_jet_case(*objs):
    return any(isinstance(c, Jet) for obj in objs
               for c in (obj.coeffs if isinstance(obj, VectorField) else (obj,)))


ORDERS = st.one_of(st.none(), st.integers(0, 8))


def test_apply_matches_the_termwise_reference():
    # polynomial operands against the reference; a jet field or a jet
    # function is refused
    kinds = []

    @settings(max_examples=200)
    @given(st.data())
    def check(data):
        varnames = ("x", "y", "z")[:data.draw(st.integers(1, 3))]
        field = _field(data.draw, varnames, data.draw(ORDERS))
        p = data.draw(_functions(varnames, data.draw(ORDERS)))
        jet_case = _is_jet_case(field, p)
        kinds.append(jet_case)
        if jet_case:
            with pytest.raises(PreconditionViolated):
                field.apply(p)
            return
        new = field.apply(p)
        assert type(new) is Polynomial and new == _reference_apply(field, p)

    check()
    # both kinds are drawn often: about 70 % of the cases hold a jet
    assert 0.3 * len(kinds) <= sum(kinds) <= 0.8 * len(kinds)


def test_bracket_matches_the_termwise_reference():
    kinds = []

    @settings(max_examples=200)
    @given(st.data())
    def check(data):
        varnames = ("x", "y", "z")[:data.draw(st.integers(1, 3))]
        order = data.draw(st.integers(0, 8))
        a = _field(data.draw, varnames, data.draw(st.sampled_from([None, order])))
        b = _field(data.draw, varnames, data.draw(st.sampled_from([None, order])))
        jet_case = _is_jet_case(a, b)
        kinds.append(jet_case)
        if jet_case:
            with pytest.raises(PreconditionViolated):
                a.bracket(b)
            return
        new, old = a.bracket(b), _reference_bracket(a, b)
        assert new.order is None and new == old

    check()
    # both kinds are drawn often: about 70 % of the cases hold a jet
    assert 0.3 * len(kinds) <= sum(kinds) <= 0.8 * len(kinds)


@settings(max_examples=100)
@given(st.data())
def test_apply_below_an_order_is_the_cut_action(data):
    varnames = ("x", "y", "z")[:data.draw(st.integers(1, 3))]
    field = _field(data.draw, varnames, None)
    p = data.draw(_functions(varnames, None))
    k = data.draw(st.integers(0, 10))
    assert field.apply(p, k) == cut(field.apply(p), k)


@settings(max_examples=100)
@given(st.data())
def test_the_cut_field_acts_as_the_jet_field_below_its_order(data):
    # the claim behind every caller that acts with a jet's polynomial field
    # below the jet's order: p has no negative exponents, so the terms that
    # a jet of order k does not know add only terms of degree >= k
    varnames = ("x", "y", "z")[:data.draw(st.integers(1, 3))]
    k = data.draw(st.integers(0, 8))
    field = _field(data.draw, varnames, None)
    jet = field.truncate(k)
    p = data.draw(_functions(varnames, None))
    reference = _reference_apply(jet, p)
    assert reference.order == k
    assert field.cut(k) == jet.as_polynomial_field()
    assert cut(reference, k) == jet.as_polynomial_field().apply(p, k) == \
        cut(field.apply(p), k)


def _refusals():
    """(name, call) pairs, each handing one exact operation a jet."""
    x, y = P("x"), P("y")
    jet_x = Jet(P("x + x^2"), 3)
    poly_field, jet_field = VF("x", "y^2"), VF("x", "y^2").truncate(3)
    change = CoordChange.identity(XY, 4)
    basis = standard_basis([x, y])
    top = CechClass.top(XY)
    W0 = WeightSystem.make([])
    euler = VF("1/2*x", "1/3*y")
    return [
        ("CoordChange.make", lambda: CoordChange.make([jet_x, y], 3)),
        ("pd_normalize", lambda: pd_normalize(euler.truncate(4), W0, 4)),
        ("unit_adjust, jet f",
         lambda: unit_adjust(Jet(P("x^2 + y^3"), 6), euler, W0, 6)),
        ("unit_adjust, jet field",
         lambda: unit_adjust(P("x^2 + y^3"), euler.truncate(6), W0, 6)),
        ("homological_solve, jet p",
         lambda: homological_solve(euler, Jet(P("x*y + y^2"), 4), 0)),
        ("homological_solve, jet field",
         lambda: homological_solve(euler.truncate(4), P("x*y + y^2"), 0)),
        ("straighten_unit_field",
         lambda: straighten_unit_field(VF("1 + x", "y").truncate(6), 3)),
        ("diagonal_symmetries",
         lambda: diagonal_symmetries(Jet(P("x^2 + y^3"), 3))),
        ("split", lambda: split(jet_x, sum)),
        ("split_field", lambda: split_field(jet_field, lambda e, i: i)),
        ("cut a jet field", lambda: jet_field.cut(2)),
        ("mixed-kind VectorField", lambda: VectorField([jet_x, y])),
        ("VectorField of mixed jet orders",
         lambda: VectorField([jet_x, Jet(y, 4)])),
        ("apply a jet field", lambda: jet_field.apply(x)),
        ("apply to a jet", lambda: poly_field.apply(jet_x)),
        ("bracket with a jet field", lambda: poly_field.bracket(jet_field)),
        ("bracket of a jet field", lambda: jet_field.bracket(poly_field)),
        ("monomial image", lambda: jet_field.monomial_image((1, 1))),
        ("push_field", lambda: change.push_field(jet_field)),
        ("add a jet field", lambda: poly_field + jet_field),
        ("subtract from a jet field", lambda: jet_field - poly_field),
        ("negate a jet field", lambda: -jet_field),
        ("scale a jet field", lambda: jet_field.scale(2)),
        ("multiply by a jet", lambda: poly_field.mul_function(jet_x)),
        ("substitute", lambda: x.substitute([jet_x, y])),
        ("CoordChange.apply", lambda: change.apply(jet_x)),
        ("CoordChange.unapply", lambda: change.unapply(jet_x)),
        ("Polynomial + Jet", lambda: y + jet_x),
        ("Jet - Polynomial", lambda: jet_x - y),
        ("Polynomial * Jet", lambda: y * jet_x),
        ("standard_basis, rank 1", lambda: standard_basis([x, jet_x])),
        ("standard_basis, first", lambda: standard_basis([jet_x, x])),
        ("standard_basis, vectors", lambda: standard_basis([(jet_x, y)])),
        ("membership", lambda: membership(jet_x, basis)),
        ("membership, vector", lambda: membership((jet_x,), basis)),
        ("syzygies", lambda: syzygies([x, jet_x])),
        ("d1_apply", lambda: d1_apply([jet_field], top)),
        ("d1_kernel_search", lambda: d1_kernel_search([poly_field, jet_field])),
    ]


@pytest.mark.parametrize("name, call", _refusals(),
                         ids=[name for name, _ in _refusals()])
def test_exact_operations_refuse_a_jet_operand(name, call):
    with pytest.raises(PreconditionViolated, match="not a jet modulo m\\^"):
        call()


# -- split_field, and the linear builders against their term-by-term sums ------

FIELD_KEYS = [lambda e, i: sum(e), lambda e, i: i,
              lambda e, i: (e[0] - sum(e[1:]), i % 2)]


@settings(max_examples=60)
@given(fields_and_exponents(), st.sampled_from(FIELD_KEYS))
def test_split_field_partitions_the_terms_by_key(case, key):
    delta, _ = case
    parts = split_field(delta, key)
    seen = set()
    for k, part in parts.items():
        assert part.order is None and not part.is_zero()
        for i, c in enumerate(part.coeffs):
            for e in c.terms:
                assert key(e, i) == k and (i, e) not in seen
                seen.add((i, e))
    assert seen == {(i, e) for i, c in enumerate(delta.coeffs)
                    for e in c.terms}
    assert sum(parts.values(), VectorField.zero(delta.vars)) == delta


def _reference_from_matrix(A, varnames):
    n = len(varnames)
    coeffs = []
    for j in range(n):
        p = Polynomial.zero(varnames)
        for i in range(n):
            c = Fraction(A[i][j])
            if c:
                p = p + Polynomial.variable(varnames, i) * c
        coeffs.append(p)
    return VectorField(coeffs)


def _reference_diagonal(weights, varnames):
    return VectorField([Polynomial.variable(varnames, i) * Fraction(w)
                        for i, w in enumerate(weights)])


ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_linear_builders_equal_the_term_by_term_sums(A):
    varnames = ("x", "y", "z", "w")[:len(A)]
    assert VectorField.from_matrix(A, varnames) == \
        _reference_from_matrix(A, varnames)
    assert VectorField.diagonal(A[0], varnames) == \
        _reference_diagonal(A[0], varnames)
