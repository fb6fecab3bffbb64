"""End-to-end acceptance checks.

Each numbered item prints one PASS line after its assertions; everything is
exact rational arithmetic, no tolerances anywhere.  Item 6 is split over
several property suites, so its banner test runs last in this file and
checks that every suite recorded a success.
"""

import itertools
import os
import random
from fractions import Fraction

import pytest

from logvf.errors import CertificateFailure
from logvf.poly import Polynomial, as_poly, poly_parse
from logvf.vfield import VectorField, lie_bracket, vf_to_str
from logvf.linalg import identity as mat_identity
from logvf.linalg import mat_mul, mat_pow
from logvf.derlog import (coefficient_matrix, derlog_generators, euler_check,
                          koszul_free_check, minimalize, poly_det,
                          saito_free_check, strong_euler_check)
from logvf.liealg import center_dimension, is_solvable, truncated_lie_algebra
from logvf.normalform import CoordChange, formal_structure, verify_cor16
from logvf.standard_bases import (membership, module_intersection,
                                  standard_basis)
from logvf.cech import (CechClass, d1_kernel_search, lct_obstruction_witness,
                        trace_formula_check)
from logvf import report as rp
from logvf.cli import main as cli_main

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("x1", "x2", "x3", "x4")
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

QUARTIC4 = poly_parse(
    "3*x2^2*x3^2 - 6*x1*x3^3 - 8*x2^3*x4 + 18*x1*x2*x3*x4 - 9*x1^2*x4^2", V4)

_PART6_DONE = set()


def P2(text):
    return poly_parse(text, V2)


def P3(text):
    return poly_parse(text, V3)


def _divides(f: Polynomial, p: Polynomial, cache={}) -> bool:
    key = (f.vars, str(f))
    if key not in cache:
        cache[key] = standard_basis([f])
    return membership(p, cache[key]).member


# -- 1: the four-variable quartic with its explicit basis --------------------


def test_acceptance_1_quartic_basis_and_insolvability():
    x1, x2, x3, x4 = (Polynomial.variable(V4, i) for i in range(4))
    zero = Polynomial.zero(V4)
    chi = VectorField([x1, x2, x3, x4])
    eta = VectorField([x1 * 3, x2, x3 * (-1), x4 * (-3)])
    sig_plus = VectorField([x2, x3, x4, zero])
    sig_minus = VectorField([zero, x1 * (-3), x2 * (-4), x3 * (-3)])
    fields = [chi, eta, sig_plus, sig_minus]

    det = poly_det(coefficient_matrix(fields))
    assert det == QUARTIC4 * 2

    check = saito_free_check(fields, QUARTIC4)
    assert check.free
    assert check.unit_value_at_0 == 2

    module = minimalize(derlog_generators(QUARTIC4))
    pres = truncated_lie_algebra(module, 1)
    assert pres.dimension == 4
    assert center_dimension(pres) == 1
    solvable, series = is_solvable(pres)
    assert not solvable
    # the derived algebra is three-dimensional and bracket-stable
    assert series[0] == 4 and series[1] == 3
    assert series[-1] == 3 and series[-2] == 3
    print("ACCEPTANCE 1: PASS")


# -- 2: strong Euler homogeneity of the plane-times-curve divisor ------------


def test_acceptance_2_strong_euler_witness():
    f = P3("z*(x^4 + x*y^4 + y^5)")
    res = strong_euler_check(f)
    assert res.homogeneous and res.exact
    witness = res.field
    assert all(c == 0 for c in witness.constant_part())
    assert as_poly(witness.apply(f)) == f
    assert vf_to_str(witness) == "z*d_z"

    curve = P2("x^4 + x*y^4 + y^5")
    plain = euler_check(curve)
    assert not plain.homogeneous
    assert plain.field is None
    print("ACCEPTANCE 2: PASS")


# -- 3: free but not Koszul free ----------------------------------------------


def test_acceptance_3_free_non_koszul():
    f = P3("x*y*(x+y)*(x*z+y)")
    module = minimalize(derlog_generators(f))
    check = saito_free_check(list(module.fields), f)
    assert check.free
    assert not koszul_free_check(list(module.fields), f)
    print("ACCEPTANCE 3: PASS")


# -- 4: cusp normal form and its perturbed twin -------------------------------


def test_acceptance_4_cusp_end_to_end():
    cusp = P2("x^2 + y^3")
    fs = formal_structure(cusp, 8)
    assert (fs.s, fs.r) == (1, 1)
    assert len(fs.weights) == 1
    w = fs.weights[0]
    ratio = w[0] / Fraction(3)
    assert ratio != 0
    assert w == (Fraction(3) * ratio, Fraction(2) * ratio)
    # scaled so the diagonal field has cofactor 6, the nilpotent direction
    # sits in bracket eigenvalue exactly 1
    lam = fs.eigentable[0][0]
    cof = fs.degrees[0]
    assert cof != 0
    assert lam * 6 / cof == 1
    assert verify_cor16(fs) == [True]

    pert = P2("(x + y^2)^2 + y^3")
    ft = formal_structure(pert, 8)
    assert (ft.s, ft.r) == (fs.s, fs.r)
    assert ft.weights == fs.weights
    assert ft.eigentable == fs.eigentable
    assert ft.degrees == fs.degrees
    assert verify_cor16(ft) == [True]
    print("ACCEPTANCE 4: PASS")


# -- 5: solvability across the corpus -----------------------------------------


def test_acceptance_5_corpus_solvability():
    names = sorted(n for n in os.listdir(CORPUS_DIR) if n.endswith(".div"))
    assert len(names) >= 9
    free_small_solvable = 0
    quartic_seen = False
    for name in names:
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
            _, f, _ = rp.parse_div(fh.read())
        result = rp.analyze(f)
        lie = result["lie"]
        assert "error" not in lie, (name, lie)
        if f == QUARTIC4:
            quartic_seen = True
            assert lie["solvable"] is False
            continue
        assert len(f.vars) <= 3
        assert result["free"]["free"] is True
        assert lie["solvable"] is True, name
        free_small_solvable += 1
    assert quartic_seen
    assert free_small_solvable >= 8
    print("ACCEPTANCE 5: PASS")


# -- 6: randomized property suites ---------------------------------------------


def _random_poly(rng, varnames, maxdeg, terms, low=-3, high=3):
    n = len(varnames)
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = Fraction(rng.randint(low, high))
    return Polynomial(out, varnames)


def _random_matrix(rng, n, low=-3, high=3):
    return [[Fraction(rng.randint(low, high)) for _ in range(n)]
            for _ in range(n)]


def test_acceptance_6a_bracket_of_linear_fields():
    rng = random.Random(8801)
    for _ in range(200):
        n = rng.randint(1, 4)
        names = V4[:n]
        A = _random_matrix(rng, n)
        B = _random_matrix(rng, n)
        lhs = lie_bracket(VectorField.from_matrix(A, names),
                          VectorField.from_matrix(B, names))
        comm = [[sum(A[i][k] * B[k][j] - B[i][k] * A[k][j]
                     for k in range(n)) for j in range(n)] for i in range(n)]
        assert lhs == VectorField.from_matrix(comm, names)
    _PART6_DONE.add("a")


def test_acceptance_6b_leibniz_and_jacobi():
    rng = random.Random(8802)
    for _ in range(200):
        n = rng.randint(1, 3)
        names = V3[:n]
        fields = [VectorField([_random_poly(rng, names, 2, 2)
                               for _ in range(n)]) for _ in range(3)]
        p = _random_poly(rng, names, 2, 2)
        q = _random_poly(rng, names, 2, 2)
        d = fields[0]
        assert as_poly(d.apply(p * q)) == \
            as_poly(d.apply(p)) * q + p * as_poly(d.apply(q))
        a, b, c = fields
        total = (lie_bracket(lie_bracket(a, b), c) +
                 lie_bracket(lie_bracket(b, c), a) +
                 lie_bracket(lie_bracket(c, a), b))
        assert total == VectorField.zero(names)
    _PART6_DONE.add("b")


def _jet_action_matrix(delta, k):
    """Matrix of delta acting on m/m^(k+1) in the monomial basis."""
    names = delta.vars
    n = len(names)
    monos = []
    for d in range(1, k + 1):
        monos.extend(sorted(e for e in itertools.product(range(d + 1),
                                                         repeat=n)
                            if sum(e) == d))
    index = {e: i for i, e in enumerate(monos)}
    cols = []
    for e in monos:
        img = as_poly(delta.apply(Polynomial({e: Fraction(1)}, names)))
        col = [Fraction(0)] * len(monos)
        for me, c in img.terms.items():
            if sum(me) <= k:
                col[index[me]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(monos))]
            for i in range(len(monos))]


def _is_nilpotent(M):
    size = len(M)
    power = M
    exponent = 1
    while exponent < size:
        if all(all(v == 0 for v in row) for row in power):
            return True
        power = mat_mul(power, power)
        exponent *= 2
    return all(all(v == 0 for v in row) for row in power)


def test_acceptance_6c_nilpotent_linear_part_acts_nilpotently_on_jets():
    rng = random.Random(8803)
    for _ in range(200):
        n = rng.randint(2, 3)
        names = V3[:n]
        # strictly triangular in a shuffled variable order, then a random
        # elementary conjugation: still nilpotent, no longer triangular
        order = list(range(n))
        rng.shuffle(order)
        A = [[Fraction(0)] * n for _ in range(n)]
        for ii in range(n):
            for jj in range(ii + 1, n):
                A[order[ii]][order[jj]] = Fraction(rng.randint(-3, 3))
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-2, 2))
        E = mat_identity(n)
        Einv = mat_identity(n)
        E[i][j] = c
        Einv[i][j] = -c
        A = mat_mul(mat_mul(E, A), Einv)
        assert mat_pow(A, n) == [[Fraction(0)] * n for _ in range(n)]
        k = rng.randint(1, 4)
        coeffs = []
        for t in range(n):
            lin = Polynomial({tuple(1 if u == s else 0 for u in range(n)):
                              A[s][t] for s in range(n)}, names)
            high = _random_poly(rng, names, 3, 2)
            high = Polynomial({e: v for e, v in high.terms.items()
                               if sum(e) >= 2}, names)
            coeffs.append(lin + high)
        delta = VectorField(coeffs)
        assert _is_nilpotent(_jet_action_matrix(delta, k))
    _PART6_DONE.add("c")


def test_acceptance_6d_nonzero_weighted_degree_forces_nilpotency():
    rng = random.Random(8804)
    weight_catalog = [(1, 2), (1, 3), (2, 3), (1, 1, 2), (1, 2, 4)]
    for _ in range(200):
        w = weight_catalog[rng.randrange(len(weight_catalog))]
        n = len(w)
        names = V3[:n]
        lam = 0
        while lam == 0:
            i, j = rng.randrange(n), rng.randrange(n)
            lam = w[j] - w[i]
        # every monomial m on slot i with <w, e(m)> - w_i = lam is a legal
        # summand of a field of weighted degree lam; scan a small box,
        # skipping constants so the field vanishes at the origin
        slots = []
        for i in range(n):
            for e in itertools.product(range(4), repeat=n):
                if sum(e) == 0:
                    continue
                if sum(we * ee for we, ee in zip(w, e)) - w[i] == lam:
                    slots.append((i, e))
        assert slots
        keep = [se for se in slots if rng.random() < 0.5]
        if not keep:
            keep = [slots[rng.randrange(len(slots))]]
        coeffs = [Polynomial.zero(names) for _ in range(n)]
        for i, e in keep:
            coeffs[i] = coeffs[i] + Polynomial(
                {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))}, names)
        delta = VectorField(coeffs)
        A = delta.linear_part()
        assert mat_pow(A, n) == [[Fraction(0)] * n for _ in range(n)]
    _PART6_DONE.add("d")


def test_acceptance_6e_diagonal_fields_survive_weighted_changes():
    rng = random.Random(8805)
    catalog = [
        ((2, 1), [{(0, 2): 1}, {}]),
        ((3, 1), [{(0, 3): 1}, {}]),
        ((3, 2), [{}, {}]),
        ((1, 1, 2), [{}, {}, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}]),
    ]
    for _ in range(200):
        weights, shapes = catalog[rng.randrange(len(catalog))]
        n = len(weights)
        names = V3[:n]
        sigma = VectorField.diagonal(weights, names)
        images = []
        for t, shape in enumerate(shapes):
            img = Polynomial.variable(names, t)
            for e in shape:
                img = img + Polynomial({e: Fraction(rng.randint(-3, 3))},
                                       names)
            images.append(img)
        ch = CoordChange.make(images, 6)
        pushed = ch.push_field(sigma)
        chopped = VectorField(
            [Polynomial({e: c for e, c in as_poly(p).terms.items()
                         if sum(e) < 6}, names) for p in pushed.coeffs])
        assert chopped == sigma
    _PART6_DONE.add("e")


def test_acceptance_6f_product_generators_match_intersection():
    rng = random.Random(8806)
    g_factory = [
        lambda c: P2("x"),
        lambda c: P2("y") + P2("x^2") * c,
        lambda c: P2("x + y"),
        lambda c: P2("x^2 + y^3"),
        lambda c: P2("x") + P2("y^2") * c,
    ]
    h_factory = [
        lambda c: P2("y"),
        lambda c: P2("x - y"),
        lambda c: P2("y + x^3"),
        lambda c: P2("x^3 + y^2") + P2("x*y") * c,
    ]
    verified = {}
    checked = 0
    for _ in range(200):
        g = g_factory[rng.randrange(len(g_factory))](rng.randint(-2, 2))
        h = h_factory[rng.randrange(len(h_factory))](rng.randint(-2, 2))
        key = (str(g), str(h))
        if key in verified:
            checked += 1
            continue
        if _divides(g, h) or _divides(h, g):
            continue
        gh = g * h
        prod_mod = minimalize(derlog_generators(gh))
        for delta in prod_mod.fields:
            assert _divides(g, as_poly(delta.apply(g)))
            assert _divides(h, as_poly(delta.apply(h)))
        gf = [tuple(d.coeffs) for d in derlog_generators(g).fields]
        hf = [tuple(d.coeffs) for d in derlog_generators(h).fields]
        meet = module_intersection(gf, hf)
        assert meet
        for vec in meet:
            gamma = VectorField(list(vec))
            assert _divides(gh, as_poly(gamma.apply(gh)))
        verified[key] = True
        checked += 1
    assert checked >= 150
    _PART6_DONE.add("f")


def test_acceptance_6g_determinants_of_logarithmic_tuples():
    rng = random.Random(8807)
    catalog = [P2("x^2 + y^3"), P2("x*y"), P3("x*y*z"),
               P3("x*y*(x+y)*(x*z+y)")]
    modules = [minimalize(derlog_generators(f)) for f in catalog]
    for _ in range(200):
        pick = rng.randrange(len(catalog))
        f, module = catalog[pick], modules[pick]
        n = len(f.vars)
        tuple_fields = []
        for _ in range(n):
            acc = VectorField.zero(f.vars)
            for gen in module.fields:
                factor = _random_poly(rng, f.vars, 1, 2, -2, 2)
                acc = acc + gen.mul_function(factor)
            tuple_fields.append(acc)
        det = poly_det(coefficient_matrix(tuple_fields))
        assert _divides(f, det)
    _PART6_DONE.add("g")


def test_acceptance_6h_trace_formula_on_tangent_fields():
    rng = random.Random(8808)
    for _ in range(200):
        n = rng.randint(1, 3)
        names = V3[:n]
        coeffs = []
        for _ in range(n):
            p = _random_poly(rng, names, 3, 3)
            p = Polynomial({e: c for e, c in p.terms.items() if sum(e) >= 1},
                           names)
            coeffs.append(p)
        delta = VectorField(coeffs)
        assert trace_formula_check(delta, rng.randint(1, 4))
    _PART6_DONE.add("h")


def test_acceptance_6_banner():
    assert _PART6_DONE == set("abcdefgh")
    print("ACCEPTANCE 6: PASS")


# -- 7: obstruction sanity ------------------------------------------------------


def test_acceptance_7_cech_witnesses():
    xyz = P3("x*y*z")
    mod3 = minimalize(derlog_generators(xyz))
    assert lct_obstruction_witness(xyz, list(mod3.fields), 3) is None

    cusp = P2("x^2 + y^3")
    mod2 = minimalize(derlog_generators(cusp))
    assert lct_obstruction_witness(cusp, list(mod2.fields), 3) is None

    # trace-zero fields preserving no equation: no divisor admits this
    # triple as a free basis, so the fixture drives the search layer
    x, y = (Polynomial.variable(V2, i) for i in range(2))
    zero = Polynomial.zero(V2)
    fixture = [VectorField([y, zero]), VectorField([zero, x]),
               VectorField([x, y * (-1)])]
    witness = d1_kernel_search(fixture, 3)
    assert witness == CechClass.top(V2)
    print("ACCEPTANCE 7: PASS")


# -- 8: certificates re-multiply, failures are hard errors ----------------------


def test_acceptance_8_certificate_integrity(capsys, monkeypatch):
    cusp = P2("x^2 + y^3")
    module = minimalize(derlog_generators(cusp))
    # syzygy witnesses: delta(f) = a*f exactly for every generator
    for delta, cof in zip(module.fields, module.cofactors):
        assert as_poly(delta.apply(cusp)) == cof * cusp

    # freeness: the determinant is a unit times f, exactly
    check = saito_free_check(list(module.fields), cusp)
    det = poly_det(coefficient_matrix(list(module.fields)))
    assert det == cusp * check.unit_value_at_0

    # Euler witness re-multiplies exactly
    res = euler_check(cusp)
    assert as_poly(res.field.apply(cusp)) == cusp

    # membership quotients re-multiply exactly for a global basis
    basis = standard_basis([cusp])
    cert = membership(cusp * P2("1 + x"), basis)
    assert cert.member
    recombined = Polynomial.zero(V2)
    for q, gen in zip(cert.quotients, basis.inputs):
        recombined = recombined + as_poly(q) * gen[0]
    assert recombined == cusp * P2("1 + x")
    assert cert.verify(cusp * P2("1 + x"), [cusp])

    # a corrupted coordinate change raises instead of answering
    good = CoordChange.make([Polynomial.variable(V2, 0),
                             Polynomial.variable(V2, 1)], 4)
    with pytest.raises(CertificateFailure):
        CoordChange(good.images, (Polynomial.variable(V2, 1),
                                  Polynomial.variable(V2, 0)), 4)._verify()

    # the command line maps any certificate failure to exit code 3
    def boom(f, trunc=None, witness_bound=3, factors=None):
        raise CertificateFailure("forced")
    monkeypatch.setattr("logvf.cli.rp.analyze", boom)
    code = cli_main(["analyze", "--vars", "x,y", "--poly", "x*y"])
    assert code == 3
    capsys.readouterr()
    print("ACCEPTANCE 8: PASS")
