"""Logarithmic vector fields of a hypersurface.

A vector field delta is logarithmic for f when delta(f) lands in the ideal
generated by f; the quotient delta(f)/f is its cofactor.  The module of all
such fields is computed as the syzygies of (df/dx_1, ..., df/dx_n, f): the
first n entries of a relation are the field, the negated last entry the
cofactor.  syzygies re-multiplies every relation it returns against
(df/dx_1, ..., df/dx_n, f), and for a relation that check is exactly
delta(f) = cofactor * f, so each generator is certified once, there.
The syzygies are polynomial; by the flatness argument in the syzygies
docstring the same fields generate the germ-level module at the origin.
Minimality is settled by Nakayama's lemma, from the values at 0 of the
syzygies of the generators, in one elimination whose pivot columns are the
redundant generators (tests/test_derlog.py keeps the greedy loop it replaces
as _reference_greedy_minimalize); freeness and Euler homogeneity by local
membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (CertificateFailure, NotAtOrigin, NotFree, NotLogarithmic,
                     PreconditionViolated, WrongCount)
from .linalg import echelon, nullspace
from .orderings import LOCAL
from .poly import Jet, Polynomial, as_poly, sum_of_products
from .standard_bases import (StandardBasis, default_precision,
                             ideal_dimension, membership, standard_basis,
                             syzygies)
from .vfield import VectorField, vf_to_str


@dataclass(frozen=True)
class LogDerModule:
    """Generators of the logarithmic fields of f with matching cofactors.

    `keys`, when set, holds the fields' sort keys (`_sort_key`), formed
    once by `derlog_generators` and `minimalize`; they take no part in
    comparisons."""

    f: Polynomial
    fields: Tuple[VectorField, ...]
    cofactors: Tuple[Polynomial, ...]
    minimal: bool = False
    keys: Optional[Tuple[Tuple[int, str], ...]] = dataclass_field(
        default=None, compare=False, repr=False)

    @property
    def varnames(self) -> Tuple[str, ...]:
        return self.f.vars

    @property
    def n(self) -> int:
        return len(self.f.vars)


def _sort_key(field: VectorField) -> Tuple[int, str]:
    return field.max_coeff_degree(), vf_to_str(field)


def _canonical_order(keys, fields, cofactors):
    """fields, cofactors and their keys (of _sort_key) sorted by the
    keys."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple(tuple(seq[i] for i in order)
                 for seq in (fields, cofactors, keys))


def derlog_generators(f: Polynomial) -> LogDerModule:
    """Compute generators of the module of logarithmic fields of f.

    Each relation (a_1, ..., a_n, r) that syzygies returns has been
    re-multiplied against (df/dx_1, ..., df/dx_n, f) and found to give
    zero: sum a_i df/dx_i + r f = 0, which is delta(f) = cof * f for the
    field delta = sum a_i d/dx_i and cof = -r.  That check is the
    certificate of every returned field and cofactor, so no field is
    applied to f again here.
    """
    n = len(f.vars)
    partials = [f.diff(i) for i in range(n)]
    rels = syzygies(partials + [f])
    fields: List[VectorField] = []
    cofactors: List[Polynomial] = []
    for rel in rels:
        field = VectorField(rel[:n])
        if field.is_zero():
            continue
        fields.append(field)
        cofactors.append(-rel[n])
    keys = [_sort_key(field) for field in fields]
    fields, cofactors, keys = _canonical_order(keys, fields, cofactors)
    return LogDerModule(f, fields, cofactors, keys=keys)


def minimalize(module: LogDerModule) -> LogDerModule:
    """Drop generators that are redundant over the local ring at the origin.

    By Nakayama's lemma, generators of M are minimal exactly when their
    images form a basis of M/mM = Q^k / V, where V is spanned by Syz(0),
    the values at 0 of the syzygies of the k generators; those syzygies
    are computed once, over the polynomial ring, and generate the local
    ones too (flatness, see the syzygies docstring).  The greedy loop that
    visits the generators by descending sort key, ties in index order,
    drops c_t when e_{c_t} lies in span(e_j : j kept, j != c_t) + V, that
    is, when some v in V has v_{c_t} != 0 and vanishes at the generators
    already dropped.  In the reduced echelon form of V with the columns in
    that order, such a v exists exactly when c_t is a pivot: a v that is
    zero on the earlier pivots is a combination of the later pivot rows,
    which vanish on every earlier column.  By induction the pivots are the
    dropped generators, so one elimination gives the loop's answer, and
    the free columns, a basis of Q^k / V, are kept.  When every column is
    a pivot (only a hand-made module of zero fields), the loop keeps its
    last, lowest-key generator, and so does this.  The sort keys are the
    module's own when it carries them, else each is formed once here.
    """
    vecs = [fld.polynomials() for fld in module.fields]
    keys = module.keys or [_sort_key(fld) for fld in module.fields]
    visit = sorted(range(len(vecs)), key=keys.__getitem__, reverse=True)
    pivots: List[int] = []
    if len(vecs) > 1:
        column = {i: t for t, i in enumerate(visit)}
        syz0 = [{column[i]: q.constant_term() for i, q in enumerate(syz)}
                for syz in syzygies(vecs)]
        pivots = echelon(syz0)[1]
    dropped = {visit[t] for t in pivots}
    keep = [i for i in range(len(vecs)) if i not in dropped] or visit[-1:]
    fields, cofs, kept = _canonical_order([keys[i] for i in keep],
                                          [module.fields[i] for i in keep],
                                          [module.cofactors[i] for i in keep])
    return LogDerModule(module.f, fields, cofs, minimal=True, keys=kept)


def is_product(module: LogDerModule) -> Tuple[bool, Optional[VectorField]]:
    """Whether f is equivalent to a germ in fewer variables.

    That happens exactly when some logarithmic field does not vanish at the
    origin; the witness field is returned for the straightening step.
    """
    for field in module.fields:
        if not field.vanishes_at_origin():
            return True, field
    return False, None


class Germ:
    """The germ of f at the origin, with what the questions about it share,
    each computed at most once, on first use.  The checks below take a Germ
    wherever they take f; `saito_free_check` keeps its answers here, keyed
    by the field tuple."""

    def __init__(self, f: Polynomial):
        self.f = f
        self.saito_checks: Dict[Tuple[VectorField, ...], SaitoCheck] = {}

    @cached_property
    def module(self) -> LogDerModule:
        """A minimal generating system of the logarithmic fields."""
        return minimalize(derlog_generators(self.f))

    @cached_property
    def product(self) -> Tuple[bool, Optional[VectorField]]:
        return is_product(self.module)

    @cached_property
    def local_basis(self) -> StandardBasis:
        return standard_basis([self.f], LOCAL)


def as_germ(f: Union[Germ, Polynomial]) -> Germ:
    return f if isinstance(f, Germ) else Germ(f)


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant by cofactor expansion, exact over the coefficients."""
    n = len(rows)
    varnames = rows[0][0].vars
    if n == 1:
        return rows[0][0]
    out = Polynomial.zero(varnames)
    for i in range(n):
        entry = rows[i][0]
        if entry.is_zero():
            continue
        minor = [[rows[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = entry * poly_det(minor)
        out = out + term if i % 2 == 0 else out - term
    return out


def coefficient_matrix(fields: Sequence[VectorField]) -> List[List[Polynomial]]:
    return [list(fld.polynomials()) for fld in fields]


@dataclass(frozen=True)
class SaitoCheck:
    """Result of the determinant test for freeness.

    free means the determinant of the coefficient matrix is a unit times f
    near the origin.  unit_value_at_0 is the value of that unit, None when
    the determinant is not even locally divisible by f.  The test certifies
    a basis only for squarefree f.
    """

    free: bool
    determinant: Polynomial
    unit_value_at_0: Optional[Fraction]


def saito_free_check(fields: Sequence[VectorField],
                     f: Union[Germ, Polynomial]) -> SaitoCheck:
    """Do n logarithmic fields form a free basis of the module of f?

    Raises WrongCount unless exactly n fields are given and NotLogarithmic
    if any of them fails delta(f) in <f> at the origin.  An answer is
    computed once per germ and field tuple; a raise is not kept.
    """
    germ = as_germ(f)
    f = germ.f
    n = len(f.vars)
    if len(fields) != n:
        raise WrongCount(f"need exactly {n} fields, got {len(fields)}")
    key = tuple(fields)
    if key not in germ.saito_checks:
        germ.saito_checks[key] = _saito_check(fields, germ)
    return germ.saito_checks[key]


def _saito_check(fields: Sequence[VectorField], germ: Germ) -> SaitoCheck:
    f = germ.f
    fsb = germ.local_basis
    for field in fields:
        applied = field.apply(f)
        if not membership(applied, fsb,
                          precision=default_precision([f, applied])).member:
            raise NotLogarithmic(f"{vf_to_str(field)} is not logarithmic for f")
    det = poly_det(coefficient_matrix(fields))
    if det.is_zero():
        return SaitoCheck(False, det, None)
    cert = membership(det, fsb, precision=default_precision([f, det]))
    if not cert.member:
        return SaitoCheck(False, det, None)
    u0 = cert.quotients[0].constant_term()
    return SaitoCheck(u0 != 0, det, u0)


def diagonal_symmetry_space(f: Polynomial) -> List[Tuple[Fraction, Tuple[Fraction, ...]]]:
    """Diagonal fields sum w_i x_i d_i with sum w_i a_i = lam on every
    exponent a of f, returned as a basis of (lam, w) vectors.

    Each vector is scaled by the lcm of its denominators.  The kernel
    vectors of `nullspace` have a 1 at their free column, so the scaled
    vector is a primitive integer vector: a prime dividing the lcm misses
    the numerator of an entry whose denominator holds its full power.
    """
    if f.is_zero():
        raise PreconditionViolated("zero polynomial has every symmetry")
    rows = []
    for exp in f.terms:
        if any(e < 0 for e in exp):
            raise PreconditionViolated("negative exponents are not supported here")
        rows.append([Fraction(-1)] + [Fraction(e) for e in exp])
    basis = nullspace(rows)
    out = []
    for v in basis:
        m = lcm(*(x.denominator for x in v))
        scaled = [x * m for x in v]
        out.append((scaled[0], tuple(scaled[1:])))
    return out


@dataclass(frozen=True)
class EulerCheck:
    """Outcome of looking for a field with delta(f) = f.

    exact is True when the witness has polynomial coefficients (it then
    satisfies the identity on the nose); otherwise the witness is a jet field
    certified modulo its order.
    """

    homogeneous: bool
    field: Optional[VectorField]
    exact: bool


def _diagonal_euler_check(f: Polynomial) -> Optional[EulerCheck]:
    """The exact diagonal witness of delta(f) = f, checked on f, or None
    when the diagonal symmetries of f have no nonzero cofactor."""
    for lam, w in diagonal_symmetry_space(f):
        if lam != 0:
            witness = VectorField.diagonal(tuple(x / lam for x in w), f.vars)
            if witness.apply(f) != f:
                raise CertificateFailure("diagonal witness failed delta(f) = f")
            return EulerCheck(True, witness, True)
    return None


def _local_quotients(f: Polynomial, gens: List[Polynomial]):
    """(quotients, prec): q with sum q_k gens_k = f over the local ring, as
    jets of precision prec = default_precision(gens + [f]) where a quotient
    is a power series; quotients is None when f is not in the ideal, as
    when every generator is zero."""
    prec = default_precision(gens + [f])
    if all(g.is_zero() for g in gens):
        return None, prec
    cert = membership(f, standard_basis(gens, LOCAL), precision=prec)
    return (cert.quotients if cert.member else None), prec


def euler_check(f: Polynomial) -> EulerCheck:
    """Is the germ of f at the origin Euler homogeneous?

    Equivalent to f lying in its Jacobian ideal over the local ring.  A
    diagonal witness is preferred since it is exact; otherwise the witness
    comes out of the membership certificate as a jet field.
    """
    _require_origin(f)
    diagonal = _diagonal_euler_check(f)
    if diagonal is not None:
        return diagonal
    partials = [f.diff(i) for i in range(len(f.vars))]
    quotients, _ = _local_quotients(f, partials)
    if quotients is None:
        return EulerCheck(False, None, True)
    exact = not any(isinstance(q, Jet) for q in quotients)
    return EulerCheck(True, VectorField(list(quotients)), exact)


def strong_euler_check(f: Polynomial) -> EulerCheck:
    """Euler homogeneity with a witness vanishing at the origin.

    Equivalent to f lying in m * J_f over the local ring, with m the maximal
    ideal.  Diagonal witnesses vanish at the origin by shape, so the
    diagonal shortcut applies here too.
    """
    _require_origin(f)
    diagonal = _diagonal_euler_check(f)
    if diagonal is not None:
        return diagonal
    n = len(f.vars)
    varnames = f.vars
    gens = []
    slots = []
    for i in range(n):
        di = f.diff(i)
        if di.is_zero():
            continue
        for j in range(n):
            gens.append(Polynomial.variable(varnames, j) * di)
            slots.append((i, j))
    quotients, prec = _local_quotients(f, gens)
    if quotients is None:
        return EulerCheck(False, None, True)
    jets = any(isinstance(q, Jet) for q in quotients)
    order = prec if jets else None
    pairs: List[List] = [[] for _ in range(n)]
    for q, (i, j) in zip(quotients, slots):
        pairs[i].append((as_poly(q), Polynomial.variable(varnames, j)))
    coeffs = [sum_of_products(p, order) if p else Polynomial.zero(varnames)
              for p in pairs]
    if jets:
        coeffs = [Jet(c, prec) for c in coeffs]
    field = VectorField(coeffs)
    if not field.vanishes_at_origin():
        raise CertificateFailure("strong witness has a constant part")
    return EulerCheck(True, field, not jets)


def require_nonzero(f: Polynomial) -> None:
    """Refuse the zero polynomial, which defines no hypersurface."""
    if f.is_zero():
        raise PreconditionViolated("the zero polynomial defines no hypersurface")


def _require_origin(f: Polynomial) -> None:
    require_nonzero(f)
    if f.constant_term() != 0:
        raise NotAtOrigin("the hypersurface does not pass through the origin")


def squarefree_check(f: Polynomial) -> Tuple[bool, int]:
    """Whether f is squarefree, decided by the dimension of its critical
    locus on the hypersurface: squarefree means dim V(f, df) <= n - 2.

    Returns (answer, dimension).
    """
    n = len(f.vars)
    if f.is_zero():
        return False, n
    gens = [f] + [f.diff(i) for i in range(n)]
    d = ideal_dimension(gens)
    return d <= n - 2, d


def koszul_free_check(fields: Sequence[VectorField],
                      f: Union[Germ, Polynomial]) -> bool:
    """Is f Koszul free with respect to the given basis fields?

    Requires the fields to be a free basis (NotFree otherwise).  The test
    computes the dimension of the zero set of the symbols sum a_ij xi_j in
    the 2n cotangent variables; Koszul freeness means dimension exactly n.
    """
    germ = as_germ(f)
    check = saito_free_check(fields, germ)
    if not check.free:
        raise NotFree("the fields are not a free basis near the origin")
    varnames = germ.f.vars
    n = len(varnames)
    conames = []
    for v in varnames:
        name = "xi_" + v
        while name in varnames or name in conames:
            name = "_" + name
        conames.append(name)
    wide = tuple(varnames) + tuple(conames)
    xi = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    symbols = [Polynomial({exp + xi[j]: c
                           for j, a in enumerate(field.polynomials())
                           for exp, c in a.terms.items()}, wide)
               for field in fields]
    return ideal_dimension(symbols) == n
