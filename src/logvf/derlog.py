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
syzygies of the generators; freeness and Euler homogeneity by local
membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (CertificateFailure, NotAtOrigin, NotFree, NotLogarithmic,
                     PrecisionRequired, PreconditionViolated, WrongCount)
from .linalg import echelon, nullspace, remainder
from .orderings import LOCAL
from .poly import Jet, Polynomial
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


def _field_vector(field: VectorField) -> Tuple[Polynomial, ...]:
    for c in field.coeffs:
        if isinstance(c, Jet):
            raise PreconditionViolated("this operation needs polynomial fields")
    return tuple(field.coeffs)


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

    Greedy removal, highest coefficient degree first, decided by Nakayama's
    lemma: generators g_j (j in S) of M generate it over the local ring
    exactly when their images span M/mM, which is Q^k modulo Syz(0), the
    values at 0 of the syzygies of all k generators.  Those syzygies are
    computed once, over the polynomial ring; they generate the local
    syzygy module too (flatness, see the syzygies docstring).  While
    `keep` generates M, generator idx goes exactly when e_idx lies in
    span(e_j : j in rest) + Syz(0).  Each removal is then witnessed by a
    combination of exact, re-multiplied syzygies whose coefficient at the
    removed generator is 1 at 0, a unit: dividing by it writes g_idx in the
    other generators over the local ring.  A generating set with no
    removable member is minimal.  The sort keys are the module's own when
    it carries them (a module from `derlog_generators` does), else each is
    formed once here, for the greedy order and the canonical order of the
    result.
    """
    vecs = [_field_vector(fld) for fld in module.fields]
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
    return [list(_field_vector(fld)) for fld in fields]


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
        if isinstance(applied, Jet):
            raise PreconditionViolated("freeness test needs polynomial fields")
        try:
            ok = membership(applied, fsb).member
        except PrecisionRequired:
            ok = True
        if not ok:
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

    Entries are scaled to primitive integer vectors when possible.
    """
    n = len(f.vars)
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
        lcm = 1
        for x in v:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        scaled = [x * lcm for x in v]
        g = 0
        for x in scaled:
            g = gcd(g, x.numerator)
        if g > 1:
            scaled = [x / g for x in scaled]
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
    coeffs: List = [Jet(Polynomial.zero(varnames), prec)] * n
    for q, (i, j) in zip(quotients, slots):
        xj = Polynomial.variable(varnames, j)
        term = q * Jet(xj, q.order) if isinstance(q, Jet) else Jet(q * xj, prec)
        coeffs[i] = coeffs[i] + term
    field = VectorField(coeffs)
    if not field.vanishes_at_origin():
        raise CertificateFailure("strong witness has a constant part")
    return EulerCheck(True, field, False)


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
    symbols = []
    for field in fields:
        sym = Polynomial.zero(wide)
        for j, a in enumerate(_field_vector(field)):
            for exp, c in a.terms.items():
                wexp = list(exp) + [0] * n
                wexp[n + j] += 1
                sym = sym + Polynomial.monomial(wide, tuple(wexp), c)
        symbols.append(sym)
    return ideal_dimension(symbols) == n
