import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvf import report as rp
from logvf.errors import (HasConstantPart, NotFree, PreconditionViolated,
                          ProductInput, VariableMismatch)
from logvf.poly import Polynomial
from logvf.vfield import VectorField
from logvf.derlog import derlog_generators, minimalize
from logvf.cech import (CechClass, cech_project, d1_apply, d1_kernel_search,
                        lct_obstruction_witness, trace_formula_check)

V2 = ("x", "y")
V3 = ("x", "y", "z")
X = Polynomial.variable(V2, 0)
Y = Polynomial.variable(V2, 1)
Z2 = Polynomial.zero(V2)
CUSP = X**2 + Y**3


def laurent(terms, varnames=V2):
    return Polynomial({e: Fraction(c) for e, c in terms.items()}, varnames)


def cls(terms, varnames=V2):
    return CechClass({e: Fraction(c) for e, c in terms.items()}, varnames)


def sl2_fields():
    return [VectorField([Y, Z2]), VectorField([Z2, X]),
            VectorField([X, Y * (-1)])]


def test_class_rejects_nonnegative_exponent():
    with pytest.raises(PreconditionViolated):
        CechClass({(-1, 0): Fraction(1)}, V2)


def test_class_drops_zero_coefficients():
    c = CechClass({(-1, -1): Fraction(0), (-2, -1): Fraction(3)}, V2)
    assert list(c.terms) == [(-2, -1)]
    assert not c.is_zero()
    assert CechClass.zero(V2).is_zero()


def test_project_keeps_only_all_negative_terms():
    assert cech_project(laurent({(-1, -1): 1, (-1, 0): 1})) == \
        cls({(-1, -1): 1})
    assert cech_project(laurent({(-1, -1): 1})) == cls({(-1, -1): 1})
    assert cech_project(laurent({(-2, -3): 3, (0, 0): -5})) == \
        cls({(-2, -3): 3})


def test_project_of_polynomial_is_zero():
    assert cech_project(CUSP).is_zero()


def test_serialization_format():
    c = cls({(-1, -1): Fraction(1, 2), (-2, -3): 3})
    assert c.to_json() == {"-2,-3": "3", "-1,-1": "1/2"}


def test_d1_normal_crossing_action():
    basis = [VectorField([X, Z2]), VectorField([Z2, Y])]
    top = CechClass.top(V2)
    out = d1_apply(basis, top)
    assert out == [top.scale(-1), top.scale(-1)]


def test_d1_on_zero_class():
    basis = [VectorField([X, Z2]), VectorField([Y**2, X * 3])]
    out = d1_apply(basis, CechClass.zero(V2))
    assert all(c.is_zero() for c in out)


def test_d1_is_linear_in_the_class():
    rng = random.Random(515)
    basis = [VectorField([X + Y**2, Z2]), VectorField([X * Y, Y * 2])]
    for _ in range(40):
        a = {(rng.randint(-3, -1), rng.randint(-3, -1)): rng.randint(-4, 4)
             for _ in range(3)}
        b = {(rng.randint(-3, -1), rng.randint(-3, -1)): rng.randint(-4, 4)
             for _ in range(3)}
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        ca, cb = cls(a), cls(b)
        lhs = d1_apply(basis, ca.scale(s) + cb)
        rhs = [u.scale(s) + v for u, v in
               zip(d1_apply(basis, ca), d1_apply(basis, cb))]
        assert lhs == rhs


def test_trace_formula_euler():
    assert trace_formula_check(VectorField([X, Y]), 2)


def test_trace_formula_ignores_higher_terms():
    rng = random.Random(90210)
    for _ in range(60):
        lin_x = {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)}
        lin_y = {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)}
        high_x = {(2, 0): rng.randint(-3, 3), (1, 2): rng.randint(-3, 3)}
        high_y = {(0, 2): rng.randint(-3, 3), (3, 0): rng.randint(-3, 3)}
        delta = VectorField([laurent({**lin_x, **high_x}),
                             laurent({**lin_y, **high_y})])
        assert trace_formula_check(delta, rng.randint(1, 4))


def test_trace_formula_nilpotent_linear_part():
    delta = VectorField([Z2, X + X * X])
    assert trace_formula_check(delta, 2)


def test_trace_formula_one_variable():
    V1 = ("x",)
    x = Polynomial.variable(V1, 0)
    assert trace_formula_check(VectorField([x * x]), 1)


def test_trace_formula_guards():
    with pytest.raises(HasConstantPart):
        trace_formula_check(VectorField([Polynomial.const(V2, 1), Y]), 2)
    with pytest.raises(PreconditionViolated):
        trace_formula_check(VectorField([X, Y]), 0)


def test_multiplication_eventually_kills_classes():
    # the quotient presentation: x_i^k * c projects to zero once k
    # exceeds every exponent depth of c in variable i
    rng = random.Random(31337)
    for _ in range(40):
        terms = {(rng.randint(-4, -1), rng.randint(-4, -1)): rng.randint(1, 5)
                 for _ in range(3)}
        c = cls(terms)
        i = rng.randrange(2)
        depth = max(-e[i] for e in c.terms)
        xi = Polynomial.variable(V2, i)
        carrier = c.as_laurent()
        for _ in range(depth):
            carrier = carrier * xi
        assert cech_project(carrier).is_zero()


def test_kernel_search_sl2_fixture():
    w = d1_kernel_search(sl2_fields(), 3)
    assert w == CechClass.top(V2)
    for b in (1, 2, 4):
        assert d1_kernel_search(sl2_fields(), b) == CechClass.top(V2)


def test_kernel_search_diagonal_basis_empty():
    basis = [VectorField([X, Z2]), VectorField([Z2, Y])]
    for b in (1, 2, 3, 4):
        assert d1_kernel_search(basis, b) is None


def test_kernel_search_euler_alone_empty():
    assert d1_kernel_search([VectorField([X * 3, Y * 2])], 3) is None


def test_witness_none_for_xyz():
    f = Polynomial({(1, 1, 1): Fraction(1)}, V3)
    mod = minimalize(derlog_generators(f))
    assert lct_obstruction_witness(f, mod.fields, 3) is None


def test_witness_none_for_cusp():
    mod = minimalize(derlog_generators(CUSP))
    assert lct_obstruction_witness(CUSP, mod.fields, 3) is None


def test_witness_none_for_free_arrangement():
    x, y, z = (Polynomial.variable(V3, i) for i in range(3))
    f = x * y * (x + y) * (x * z + y)
    mod = minimalize(derlog_generators(f))
    assert lct_obstruction_witness(f, mod.fields, 2) is None


def test_witness_gate_field_count():
    mod = minimalize(derlog_generators(CUSP))
    with pytest.raises(NotFree):
        lct_obstruction_witness(CUSP, mod.fields[:1], 3)


def test_witness_gate_non_logarithmic():
    with pytest.raises(NotFree):
        lct_obstruction_witness(CUSP, [VectorField([Y, Z2]),
                                       VectorField([Z2, X])], 3)


def test_witness_gate_degenerate_basis():
    mod = minimalize(derlog_generators(CUSP))
    with pytest.raises(NotFree):
        lct_obstruction_witness(CUSP, [mod.fields[0], mod.fields[0]], 3)


def test_witness_gate_product():
    cusp3 = Polynomial({(2, 0, 0): Fraction(1), (0, 3, 0): Fraction(1)}, V3)
    mod = minimalize(derlog_generators(cusp3))
    with pytest.raises(ProductInput):
        lct_obstruction_witness(cusp3, mod.fields, 2)


def test_basis_fields_act_by_their_trace_on_top():
    V4 = ("x1", "x2", "x3", "x4")

    def mono(e, c):
        return Polynomial({e: Fraction(c)}, V4)

    f = (mono((0, 2, 2, 0), 3) + mono((1, 0, 3, 0), -6) +
         mono((0, 3, 0, 1), -8) + mono((1, 1, 1, 1), 18) +
         mono((2, 0, 0, 2), -9))
    mod = minimalize(derlog_generators(f))
    top = CechClass.top(V4)
    out = d1_apply(mod.fields, top)
    for field, img in zip(mod.fields, out):
        A = field.linear_part()
        tr = sum((A[i][i] for i in range(4)), Fraction(0))
        assert img == top.scale(-tr)
    # the Euler field itself lies in the module and acts by minus its trace
    chi = VectorField([Polynomial.variable(V4, i) for i in range(4)])
    assert d1_apply([chi], top) == [top.scale(-4)]


# -- the sparse box search against a dense reference kernel ------------------------


def _dense_kernel_witness(basis, bound):
    """The witness of d1_kernel_search, from a dense box matrix and dense
    Gauss-Jordan: the first canonical kernel vector, scaled by its lead."""
    varnames = basis[0].vars
    box = sorted(itertools.product(range(-bound, 0), repeat=len(varnames)))
    keys = sorted({(i, e)
                   for mono in box for i, delta in enumerate(basis)
                   for e in cech_project(delta.apply(
                       Polynomial({mono: Fraction(1)}, varnames))).terms})
    M = [[Fraction(0)] * len(box) for _ in keys]
    row = {k: r for r, k in enumerate(keys)}
    for j, mono in enumerate(box):
        for i, delta in enumerate(basis):
            img = cech_project(delta.apply(
                Polynomial({mono: Fraction(1)}, varnames)))
            for e, v in img.terms.items():
                M[row[(i, e)]][j] = v
    pivots = []
    r = 0
    for c in range(len(box)):
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    free = next((c for c in range(len(box)) if c not in pivots), None)
    if free is None:
        return None
    vec = [Fraction(0)] * len(box)
    vec[free] = Fraction(1)
    for k, pc in enumerate(pivots):
        vec[pc] = -M[k][free]
    lead = next(v for v in vec if v != 0)
    return CechClass({box[j]: v / lead for j, v in enumerate(vec) if v},
                     varnames)


LINEAR_COEFF = st.integers(-3, 3)
LINEAR_FIELDS = st.lists(
    st.tuples(*[LINEAR_COEFF] * 4).map(lambda a: VectorField(
        [X * a[0] + Y * a[1], X * a[2] + Y * a[3]])),
    min_size=1, max_size=3)


@settings(max_examples=80)
@given(LINEAR_FIELDS, st.integers(1, 4))
def test_kernel_search_matches_dense_reference(basis, bound):
    assert d1_kernel_search(basis, bound) == _dense_kernel_witness(basis, bound)


@st.composite
def quadratic_fields(draw):
    """One to three fields in two or three variables whose coefficients
    have linear and quadratic terms."""
    varnames = draw(st.sampled_from((V2, V3)))
    n = len(varnames)
    exps = [e for e in itertools.product(range(3), repeat=n)
            if 1 <= sum(e) <= 2]
    coeff = st.dictionaries(st.sampled_from(exps), st.integers(-3, 3),
                            max_size=3)
    return [VectorField([laurent(draw(coeff), varnames) for _ in varnames])
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60)
@given(quadratic_fields(), st.integers(1, 4))
def test_kernel_search_matches_dense_reference_on_quadratic_fields(basis,
                                                                    bound):
    assert d1_kernel_search(basis, bound) == _dense_kernel_witness(basis, bound)


CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def test_kernel_search_matches_dense_reference_on_corpus():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            _, f, _ = rp.parse_div(fh.read())
        basis = minimalize(derlog_generators(f)).fields
        for bound in (1, 2, 3, 4):
            assert d1_kernel_search(basis, bound) == \
                _dense_kernel_witness(basis, bound), (name, bound)


def test_kernel_search_refuses_jets_and_mixed_variables():
    # refused before any row is built, whatever the box holds: the first
    # basis has a witness at bound 2, the second none
    for basis in ([VectorField([X, Y * (-1)])], [VectorField([X * 3, Y * 2])]):
        with pytest.raises(PreconditionViolated):
            d1_kernel_search([delta.truncate(3) for delta in basis], 2)
    xz = ("x", "z")
    mixed = [VectorField([X * 3, Y * 2]),
             VectorField([Polynomial.variable(xz, 0),
                          Polynomial.variable(xz, 1)])]
    with pytest.raises(VariableMismatch):
        d1_kernel_search(mixed, 2)


def test_kernel_search_witness_with_several_terms():
    # the rotation -y d/dx + x d/dy sends 1/(x y^3) to 1/(x y)^2 and
    # 1/(x^3 y) to -1/(x y)^2, the rest of each image leaves the tail
    rotation = [VectorField([Y * (-1), X])]
    w = d1_kernel_search(rotation, 3)
    assert w == _dense_kernel_witness(rotation, 3)
    assert w == cls({(-3, -1): 1, (-1, -3): 1})
    skew = [VectorField([X * (-2) + Y * (-2), X * (-1) + Y * 2])]
    assert d1_kernel_search(skew, 3) == cls(
        {(-3, -1): 1, (-2, -2): -1, (-1, -3): Fraction(-1, 2)})
