import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvf.derlog import (EulerCheck, Germ, LogDerModule, coefficient_matrix,
                          derlog_generators, diagonal_symmetry_space, euler_check,
                          is_product, koszul_free_check, minimalize, poly_det,
                          saito_free_check, squarefree_check, strong_euler_check)
from logvf.derlog import _canonical_order, _sort_key
from logvf.errors import (CertificateFailure, NotAtOrigin, NotFree,
                          NotLogarithmic, PrecisionRequired,
                          PreconditionViolated, WrongCount)
from logvf.liealg import truncated_lie_algebra
from logvf.linalg import echelon, nullspace, remainder
from logvf.normalform import constant_field_split
from logvf.orderings import LOCAL
from logvf.poly import Polynomial, poly_parse
from logvf.report import analyze, parse_div
from logvf.standard_bases import (MembershipCertificate, membership,
                                  standard_basis, syzygies)
from logvf.vfield import VectorField, vf_to_str
from test_liealg import BP_CURVES, GENERATED, PLANE_CURVES, brieskorn_pham

XY = ("x", "y")
XYZ = ("x", "y", "z")

CUSP = poly_parse("x^2 + y^3", XY)


def fields_span_contains(fields, probe_coeffs, varnames):
    vecs = [tuple(f.coeffs) for f in fields]
    sb = standard_basis(vecs, LOCAL)
    probe = tuple(poly_parse(t, varnames) for t in probe_coeffs)
    try:
        return membership(probe, sb).member
    except PrecisionRequired:
        return True


def test_cusp_generators_satisfy_cofactor_identity():
    mod = derlog_generators(CUSP)
    assert mod.fields
    for field, cof in zip(mod.fields, mod.cofactors):
        assert field.apply(CUSP) == cof * CUSP


def test_cusp_module_contains_known_fields():
    mod = derlog_generators(CUSP)
    # the weighted Euler field and the Hamiltonian field of f
    assert fields_span_contains(mod.fields, ("3*x", "2*y"), XY)
    assert fields_span_contains(mod.fields, ("3*y^2", "-2*x"), XY)


def test_cusp_minimal_generators():
    mod = minimalize(derlog_generators(CUSP))
    assert mod.minimal
    assert len(mod.fields) == 2
    for field, cof in zip(mod.fields, mod.cofactors):
        assert field.apply(CUSP) == cof * CUSP
    # minimal generators still span the Euler field
    assert fields_span_contains(mod.fields, ("3*x", "2*y"), XY)


def test_normal_crossing_two_vars():
    f = poly_parse("x*y", XY)
    mod = minimalize(derlog_generators(f))
    assert len(mod.fields) == 2
    assert fields_span_contains(mod.fields, ("x", "0"), XY)
    assert fields_span_contains(mod.fields, ("0", "y"), XY)
    check = saito_free_check(mod.fields, f)
    assert check.free
    assert check.unit_value_at_0 != 0


def test_cusp_is_free_by_determinant():
    f = CUSP
    mod = minimalize(derlog_generators(f))
    check = saito_free_check(mod.fields, f)
    assert check.free
    # the determinant is a constant times f here
    cert = membership(check.determinant, standard_basis([f]))
    assert cert.member
    q = cert.quotients[0]
    assert q.total_degree() == 0
    assert q.constant_term() == check.unit_value_at_0


def test_saito_series_quotient_is_certified(monkeypatch):
    # f = x + x*y: d_y(f) = x = f / (1 + y) is a member with a series
    # quotient only, so its certificate runs at a precision; refused for x
    # alone, the check must fail rather than accept the field
    f = poly_parse("x + x*y", XY)
    fields = [VectorField([poly_parse("2*x", XY), Polynomial.zero(XY)]),
              VectorField.partial(XY, 1)]
    check = saito_free_check(fields, f)
    assert check.free and check.determinant == poly_parse("2*x", XY)
    assert check.unit_value_at_0 == 2
    verify = MembershipCertificate.verify
    x = poly_parse("x", XY)

    def refuse_x(self, element, inputs):
        return element != x and verify(self, element, inputs)

    monkeypatch.setattr(MembershipCertificate, "verify", refuse_x)
    with pytest.raises(CertificateFailure):
        saito_free_check(fields, f)


def test_saito_wrong_count():
    mod = minimalize(derlog_generators(CUSP))
    with pytest.raises(WrongCount):
        saito_free_check(mod.fields[:1], CUSP)


def test_saito_not_logarithmic():
    dx = VectorField.partial(XY, 0)
    dy = VectorField.partial(XY, 1)
    with pytest.raises(NotLogarithmic):
        saito_free_check([dx, dy], CUSP)


def test_quadric_cone_is_not_free():
    f = poly_parse("x^2 + y^2 + z^2", XYZ)
    mod = minimalize(derlog_generators(f))
    # Euler plus the three rotations: four minimal generators in three
    # variables, so no basis of three can exist
    assert len(mod.fields) == 4
    check = saito_free_check(mod.fields[:3], f)
    assert not check.free
    with pytest.raises(NotFree):
        koszul_free_check(mod.fields[:3], f)


def test_koszul_for_normal_crossings():
    for names, text in ((XY, "x*y"), (XYZ, "x*y*z")):
        f = poly_parse(text, names)
        mod = minimalize(derlog_generators(f))
        assert koszul_free_check(mod.fields, f)


def test_cusp_is_koszul_free():
    mod = minimalize(derlog_generators(CUSP))
    assert koszul_free_check(mod.fields, CUSP)


def test_poly_det():
    x, y = poly_parse("x", XY), poly_parse("y", XY)
    assert poly_det([[x, y], [y, x]]) == poly_parse("x^2 - y^2", XY)
    rows = [[x, Polynomial.zero(XY)], [Polynomial.zero(XY), y]]
    assert poly_det(rows) == poly_parse("x*y", XY)


def test_diagonal_symmetry_space_cusp():
    assert diagonal_symmetry_space(CUSP) == [(6, (3, 2))]


def test_diagonal_symmetry_space_shifted_weight():
    f = poly_parse("z*(x^4 + x*y^4 + y^5)", XYZ)
    assert diagonal_symmetry_space(f) == [(1, (0, 0, 1))]


def test_diagonal_symmetry_space_torus():
    # x*y*z admits a two-parameter family on top of the Euler direction
    f = poly_parse("x*y*z", XYZ)
    space = diagonal_symmetry_space(f)
    assert len(space) == 3
    for lam, w in space:
        assert sum(w) == lam


def test_euler_check_cusp():
    res = euler_check(CUSP)
    assert res.homogeneous
    assert res.exact
    assert res.field.apply(CUSP) == CUSP


def test_strong_euler_cusp():
    res = strong_euler_check(CUSP)
    assert res.homogeneous
    assert res.field.vanishes_at_origin()


def test_euler_fails_for_known_inhomogeneous_germ():
    f = poly_parse("x^4 + x*y^4 + y^5", XY)
    assert not euler_check(f).homogeneous
    assert not strong_euler_check(f).homogeneous


def test_shifted_product_is_strong_euler():
    f = poly_parse("z*(x^4 + x*y^4 + y^5)", XYZ)
    res = strong_euler_check(f)
    assert res.homogeneous
    assert res.exact
    assert res.field == VectorField.diagonal((0, 0, 1), XYZ)
    assert res.field.apply(f) == f


def test_an_exact_strong_euler_witness_is_reported_exact():
    # (x + y^2)^2 + y^3 expanded: every membership quotient is a polynomial,
    # so the witness is a polynomial field, as euler_check's is here
    f = poly_parse("x^2 + 2*x*y^2 + y^4 + y^3", XY)
    res = strong_euler_check(f)
    assert res.homogeneous and res.exact
    assert res.field.order is None
    assert res.field.vanishes_at_origin()
    assert res.field.apply(f) == f
    assert euler_check(f).exact


def test_a_series_strong_euler_witness_holds_below_its_order():
    f = poly_parse("x^2 + y^3 + y^4", XY)
    res = strong_euler_check(f)
    assert res.homogeneous and not res.exact
    assert res.field.order == 12
    assert res.field.vanishes_at_origin()
    assert res.field.as_polynomial_field().apply(f, 12) == f


def test_euler_rejects_units_and_zero():
    with pytest.raises(NotAtOrigin):
        euler_check(poly_parse("1 + x", XY))
    with pytest.raises(PreconditionViolated):
        euler_check(Polynomial.zero(XY))


def test_product_detection():
    f3 = poly_parse("x^2 + y^3", XYZ)
    mod = derlog_generators(f3)
    flag, witness = is_product(mod)
    assert flag
    assert witness is not None
    assert not witness.vanishes_at_origin()
    assert not is_product(derlog_generators(CUSP))[0]


def test_squarefree_check():
    assert squarefree_check(CUSP) == (True, 0)
    ok, dim = squarefree_check(poly_parse("x^2*y", XY))
    assert not ok
    assert dim == 1
    assert squarefree_check(poly_parse("x*y*z", XYZ))[0]
    assert not squarefree_check(Polynomial.zero(XY))[0]


def test_quasihomogeneous_curves_random():
    rng = random.Random(4142)
    for _ in range(30):
        a = rng.randrange(2, 6)
        b = rng.randrange(2, 6)
        f = poly_parse(f"x^{a} + y^{b}", XY)
        mod = minimalize(derlog_generators(f))
        assert len(mod.fields) == 2
        for field, cof in zip(mod.fields, mod.cofactors):
            assert field.apply(f) == cof * f
        res = euler_check(f)
        assert res.homogeneous and res.exact
        assert saito_free_check(mod.fields, f).free


def test_minimalize_drops_multiples():
    # hand the module redundant generators, a multiple, a sum and a copy,
    # and expect them to go away as they do under local membership
    mod = derlog_generators(CUSP)
    x = poly_parse("x", XY)
    a, b = mod.fields[0], mod.fields[-1]
    ca, cb = mod.cofactors[0], mod.cofactors[-1]
    padded = LogDerModule(CUSP, mod.fields + (a.mul_function(x), a + b, b),
                          mod.cofactors + (ca * x, ca + cb, cb))
    out = minimalize(padded)
    assert len(out.fields) == 2
    assert out == _reference_minimalize(padded)
    _same_module(out, _reference_greedy_minimalize(padded))


# -- minimality by Nakayama against per-generator local membership ---------------

def _reference_minimalize(module):
    """The greedy loop as first written: generator idx goes when it lies in
    the local module of the others, decided by a fresh local standard basis
    and a Mora membership per generator."""
    vecs = [tuple(fld.coeffs) for fld in module.fields]
    keep = list(range(len(vecs)))
    for idx in sorted(keep, key=lambda i: (module.fields[i].max_coeff_degree(),
                                           vf_to_str(module.fields[i])),
                      reverse=True):
        rest = [j for j in keep if j != idx]
        if not rest:
            continue
        sb = standard_basis([vecs[j] for j in rest], LOCAL)
        try:
            member = membership(vecs[idx], sb).member
        except PrecisionRequired:
            member = True
        if member:
            keep = rest
    pairs = sorted(((module.fields[i], module.cofactors[i]) for i in keep),
                   key=lambda fc: (fc[0].max_coeff_degree(), vf_to_str(fc[0])))
    return LogDerModule(module.f, tuple(p[0] for p in pairs),
                        tuple(p[1] for p in pairs), minimal=True)


def _assert_both_paths_agree(f):
    module = derlog_generators(f)
    out = minimalize(module)
    assert out == _reference_minimalize(module), str(f)
    return out


def _unit_multiple(f):
    return f * poly_parse(f"1 + {f.vars[0]}", f.vars)


CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _corpus_germs():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            yield name, parse_div(fh.read())[1]


def test_minimalize_matches_local_membership_on_corpus():
    for name, f in _corpus_germs():
        for g in (f, _unit_multiple(f)):
            _assert_both_paths_agree(g)


@settings(max_examples=40)
@given(GENERATED)
def test_minimalize_matches_local_membership_on_generated_germs(germ):
    varnames, text = germ
    f = poly_parse(text, varnames)
    count = len(_assert_both_paths_agree(f).fields)
    assert len(_assert_both_paths_agree(_unit_multiple(f)).fields) == count


@settings(max_examples=25)
@given(PLANE_CURVES)
def test_reduced_plane_curve_has_two_minimal_generators(germ):
    # K. Saito: Der(-log D) of a reduced plane curve is free of rank 2, and
    # the rank does not change under f -> (1 + x) f
    f = poly_parse(germ[1], germ[0])
    assert len(minimalize(derlog_generators(f)).fields) == 2
    assert len(minimalize(derlog_generators(_unit_multiple(f))).fields) == 2


@settings(max_examples=15)
@given(brieskorn_pham(BP_CURVES), st.sampled_from((-2, -1, 1, 3)),
       st.sampled_from((-3, 2, 5)))
def test_minimal_count_is_invariant_under_linear_change(germ, a, b):
    # the minimal count, freeness and dim D_1 do not change under a linear
    # change of coordinates or under multiplying f by a unit, and adding an
    # unused variable only splits off a smooth factor
    varnames, text = germ
    f = poly_parse(text, varnames)
    x, y = (poly_parse(v, varnames) for v in varnames)
    moved = f.substitute([x + y * a, y + x * b])  # det 1 - a*b != 0
    assert len(_assert_both_paths_agree(moved).fields) == \
        len(_assert_both_paths_agree(f).fields) == 2
    answers = set()
    for g in (f, moved, _unit_multiple(f)):
        module = minimalize(derlog_generators(g))
        answers.add((saito_free_check(module.fields, g).free,
                     truncated_lie_algebra(module, 1).dimension))
    assert len(answers) == 1
    with_z = Polynomial({e + (0,): c for e, c in f.terms.items()}, XYZ)
    reduced, dropped, _ = constant_field_split(
        with_z, derlog_generators(with_z).fields)
    assert (reduced, dropped) == (f, 2)


def test_minimalize_makes_one_syzygy_call_and_no_standard_basis(monkeypatch):
    import logvf.derlog as dl
    import logvf.standard_bases as sbm

    def refuse(*args, **kwargs):
        raise AssertionError("minimalize needs no standard basis")

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sbm.syzygies(*args, **kwargs)

    for name in ("standard_basis", "membership"):
        monkeypatch.setattr(dl, name, refuse)
        monkeypatch.setattr(sbm, name, refuse)
    monkeypatch.setattr(dl, "syzygies", counted)
    for name, f in _corpus_germs():
        module = derlog_generators(f)
        before = len(calls)
        minimalize(module)
        assert len(calls) - before == (1 if len(module.fields) > 1 else 0), name


# -- one elimination against the greedy loop --------------------------------------

def _reference_greedy_minimalize(module):
    """The greedy Nakayama loop that `minimalize` replaces: by descending
    key, generator idx goes when e_idx lies in span(e_j : j kept, j != idx)
    + Syz(0), one elimination and one remainder per generator."""
    vecs = [fld.polynomials() for fld in module.fields]
    syz0 = [dict(enumerate(q.constant_term() for q in syz))
            for syz in syzygies(vecs)] if len(vecs) > 1 else []
    keys = module.keys or [_sort_key(fld) for fld in module.fields]
    keep = list(range(len(vecs)))
    for idx in sorted(keep, key=keys.__getitem__, reverse=True):
        rest = [j for j in keep if j != idx]
        if not rest:
            continue
        span = echelon(syz0 + [{j: Fraction(1)} for j in rest])
        if not remainder({idx: Fraction(1)}, *span):
            keep = rest
    fields, cofs, kept = _canonical_order([keys[i] for i in keep],
                                          [module.fields[i] for i in keep],
                                          [module.cofactors[i] for i in keep])
    return LogDerModule(module.f, fields, cofs, minimal=True, keys=kept)


def _padded(module, kinds, order):
    """The module with redundant generators added, one per kind (a multiple
    x*a, a sum a+b, a unit multiple (1+x)*b, a repeat of a, a zero field),
    its generators then put in `order`."""
    f = module.f
    x = Polynomial.variable(f.vars, 0)
    unit = Polynomial.const(f.vars, 1) + x
    zero = Polynomial.zero(f.vars)
    a, b = module.fields[0], module.fields[-1]
    ca, cb = module.cofactors[0], module.cofactors[-1]
    extra = {"multiple": (a.mul_function(x), ca * x),
             "sum": (a + b, ca + cb),
             "unit": (b.mul_function(unit), cb * unit),
             "repeat": (a, ca),
             "zero": (VectorField([zero] * len(f.vars)), zero)}
    pairs = list(zip(module.fields, module.cofactors))
    pairs += [extra[kind] for kind in kinds]
    pairs = [pairs[i % len(pairs)] for i in order]
    return LogDerModule(f, tuple(p[0] for p in pairs),
                        tuple(p[1] for p in pairs))


def _same_module(got, want):
    assert (got.fields, got.cofactors, got.keys, got.minimal) == \
        (want.fields, want.cofactors, want.keys, want.minimal)


PADDINGS = st.lists(st.sampled_from(("multiple", "sum", "unit", "repeat",
                                     "zero")), max_size=5)


@settings(max_examples=30)
@given(GENERATED, PADDINGS, st.data())
def test_one_elimination_keeps_what_the_greedy_loop_keeps(germ, kinds, data):
    module = derlog_generators(poly_parse(germ[1], germ[0]))
    _same_module(minimalize(module), _reference_greedy_minimalize(module))
    size = len(module.fields) + len(kinds)
    order = data.draw(st.permutations(range(size)))
    padded = _padded(module, kinds, order)
    _same_module(minimalize(padded), _reference_greedy_minimalize(padded))


def test_a_module_of_zero_fields_keeps_its_last_generator():
    # every column of Syz(0) is a pivot; the loop keeps the generator it
    # visits last
    zero = Polynomial.zero(XY)
    field = VectorField([zero, zero])
    module = LogDerModule(CUSP, (field,) * 3, (zero,) * 3)
    out = minimalize(module)
    assert out.fields == (field,) and out.cofactors == (zero,)
    _same_module(out, _reference_greedy_minimalize(module))


def test_minimalize_makes_one_elimination_and_no_remainder(monkeypatch):
    import logvf.derlog as dl
    import logvf.linalg as la
    calls = []
    echelon_of = la.echelon

    def counted(*args, **kwargs):
        calls.append(1)
        return echelon_of(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("minimalize needs no remainder")

    for module in (dl, la):
        monkeypatch.setattr(module, "echelon", counted, raising=False)
        monkeypatch.setattr(module, "remainder", refuse, raising=False)
    padded = _padded(derlog_generators(CUSP), ("multiple", "sum"), range(4))
    modules = [derlog_generators(f) for _, f in _corpus_germs()] + [padded]
    for module in modules:
        del calls[:]
        minimalize(module)
        assert len(calls) <= 1, str(module.f)


def _reference_diagonal_scaling(v):
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    scaled = [x * lcm for x in v]
    g = 0
    for x in scaled:
        g = gcd(g, x.numerator)
    if g > 1:
        scaled = [x / g for x in scaled]
    return scaled[0], tuple(scaled[1:])


def _assert_diagonal_scaling_matches(f):
    rows = [[Fraction(-1)] + [Fraction(e) for e in exp] for exp in f.terms]
    want = [_reference_diagonal_scaling(v) for v in nullspace(rows)]
    assert diagonal_symmetry_space(f) == want, str(f)


def test_diagonal_symmetry_space_scales_as_the_lcm_and_gcd_loops():
    for name, f in _corpus_germs():
        _assert_diagonal_scaling_matches(f)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                          st.integers(0, 12)), min_size=1, max_size=4))
def test_lcm_scaling_is_primitive_on_drawn_exponents(exps):
    _assert_diagonal_scaling_matches(
        Polynomial({e: Fraction(1) for e in exps}, XYZ))


def _reference_symbols(fields, wide):
    n = len(wide) // 2
    symbols = []
    for field in fields:
        sym = Polynomial.zero(wide)
        for j, a in enumerate(field.coeffs):
            for exp, c in a.terms.items():
                wexp = list(exp) + [0] * n
                wexp[n + j] += 1
                sym = sym + Polynomial.monomial(wide, tuple(wexp), c)
        symbols.append(sym)
    return symbols


def test_koszul_symbols_are_the_monomial_sums(monkeypatch):
    import logvf.derlog as dl
    seen = []
    dimension = dl.ideal_dimension

    def recording(symbols):
        seen.append(symbols)
        return dimension(symbols)

    monkeypatch.setattr(dl, "ideal_dimension", recording)
    for name, f in _corpus_germs():
        germ = Germ(f)
        fields = list(germ.module.fields)
        if len(fields) != len(f.vars) or \
                not saito_free_check(fields, germ).free:
            continue
        del seen[:]
        koszul_free_check(fields, germ)
        (symbols,) = seen
        assert symbols == _reference_symbols(fields, symbols[0].vars), name


def test_saito_check_is_computed_once_per_germ(monkeypatch):
    import logvf.derlog as dl
    calls = []
    counted = dl.coefficient_matrix

    def counting(fields):
        calls.append(1)
        return counted(fields)

    monkeypatch.setattr(dl, "coefficient_matrix", counting)
    analyze(CUSP)
    assert len(calls) == 1
    germ = Germ(CUSP)
    fields = list(germ.module.fields)
    first = saito_free_check(fields, germ)
    assert saito_free_check(tuple(fields), germ) is first
    assert saito_free_check(fields[::-1], germ).determinant == -first.determinant
    assert len(calls) == 3
    # a raise is not kept: the same bad call raises again
    bad = [VectorField.partial(XY, 0), VectorField.partial(XY, 1)]
    for _ in range(2):
        with pytest.raises(NotLogarithmic):
            saito_free_check(bad, germ)
    assert tuple(bad) not in germ.saito_checks


def test_syzygy_certificate_guards_the_cofactor_identity(monkeypatch):
    # delta(f) = cof * f is the re-multiplication of the relation
    # (a_1, ..., a_n, -cof) against (df/dx_1, ..., df/dx_n, f), which
    # syzygies runs before it returns: one term added to one relation
    # must abort derlog_generators there
    import logvf.standard_bases as sbm
    rational = sbm._rational
    corrupted = []

    def one_term_more(*args, **kwargs):
        out = rational(*args, **kwargs)
        if corrupted:
            return out
        corrupted.append(1)
        extra = Polynomial.monomial(out[0].vars, (5,) * len(out[0].vars))
        return (out[0] + extra,) + out[1:]

    monkeypatch.setattr(sbm, "_rational", one_term_more)
    with pytest.raises(CertificateFailure,
                       match="^syzygy failed re-multiplication$"):
        derlog_generators(CUSP)
    assert corrupted


def test_module_keys_each_generator_at_most_once_and_applies_nothing_to_f(
        monkeypatch):
    import logvf.derlog as dl
    keyed = []
    applied = []
    to_str, apply = dl.vf_to_str, VectorField.apply

    def counting_str(field):
        keyed.append(1)
        return to_str(field)

    def recording_apply(field, p):
        applied.append(p)
        return apply(field, p)

    monkeypatch.setattr(dl, "vf_to_str", counting_str)
    monkeypatch.setattr(VectorField, "apply", recording_apply)
    for name, f in _corpus_germs():
        generators = len(derlog_generators(f).fields)
        del keyed[:], applied[:]
        Germ(f).module
        assert len(keyed) <= generators, name
        assert all(p != f for p in applied), name
