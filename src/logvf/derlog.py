"""Logarithmic vector fields of a hypersurface.

A vector field delta is logarithmic for f when delta(f) lands in the ideal
generated by f; the quotient delta(f)/f is its cofactor.  The module of all
such fields is computed as the syzygies of (df/dx_1, ..., df/dx_n, f): the
first n entries of a relation are the field, the negated last entry the
cofactor.  Because syzygies are taken with a global order and localization
is flat, the same polynomial fields generate the germ-level module at the
origin, and germ questions (minimality, freeness, Euler homogeneity) are
settled afterwards by local membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (CertificateFailure, NotAtOrigin, NotFree, NotLogarithmic,
                     PrecisionRequired, PreconditionViolated, WrongCount)
from .linalg import nullspace
from .orderings import OrderingSpec
from .poly import Jet, Polynomial
from .standard_bases import (StandardBasis, default_precision,
                             ideal_dimension, membership, standard_basis,
                             syzygies)
from .vfield import VectorField, vf_to_str

LOCAL = OrderingSpec.make("local-anti-graded")


@dataclass(frozen=True)
class LogDerModule:
    """Generators of the logarithmic fields of f with matching cofactors."""

    f: Polynomial
    fields: Tuple[VectorField, ...]
    cofactors: Tuple[Polynomial, ...]
    minimal: bool = False

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


def _canonical_order(fields, cofactors):
    pairs = sorted(zip(fields, cofactors),
                   key=lambda fc: (fc[0].max_coeff_degree(), vf_to_str(fc[0])))
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def derlog_generators(f: Polynomial) -> LogDerModule:
    """Compute generators of the module of logarithmic fields of f.

    Every returned field is re-applied to f and checked against its cofactor
    before the module is handed back.
    """
    n = len(f.vars)
    partials = [f.diff(i) for i in range(n)]
    rels = syzygies(partials + [f])
    fields: List[VectorField] = []
    cofactors: List[Polynomial] = []
    for rel in rels:
        field = VectorField(rel[:n])
        cof = -rel[n]
        if field.is_zero():
            continue
        if field.apply(f) != cof * f:
            raise CertificateFailure("logarithmic field failed its cofactor check")
        fields.append(field)
        cofactors.append(cof)
    fields, cofactors = _canonical_order(fields, cofactors)
    return LogDerModule(f, fields, cofactors)


def _is_local_member(vec, others) -> bool:
    sb = standard_basis(others, LOCAL)
    try:
        return membership(vec, sb).member
    except PrecisionRequired:
        # the membership itself is decided; only the quotients need a series
        return True


def minimalize(module: LogDerModule) -> LogDerModule:
    """Drop generators that are redundant over the local ring at the origin.

    Greedy removal, highest coefficient degree first; over a local ring a
    generating set with no removable member is minimal.
    """
    vecs = [_field_vector(fld) for fld in module.fields]
    keep = list(range(len(vecs)))
    for idx in sorted(keep, key=lambda i: (module.fields[i].max_coeff_degree(),
                                           vf_to_str(module.fields[i])),
                      reverse=True):
        rest = [j for j in keep if j != idx]
        if not rest:
            continue
        if _is_local_member(vecs[idx], [vecs[j] for j in rest]):
            keep = rest
    fields = tuple(module.fields[i] for i in keep)
    cofs = tuple(module.cofactors[i] for i in keep)
    fields, cofs = _canonical_order(fields, cofs)
    return LogDerModule(module.f, fields, cofs, minimal=True)


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
    wherever they take f."""

    def __init__(self, f: Polynomial):
        self.f = f

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
                     f: Union[Germ, Polynomial],
                     precision: Optional[int] = None) -> SaitoCheck:
    """Do n logarithmic fields form a free basis of the module of f?

    Raises WrongCount unless exactly n fields are given and NotLogarithmic
    if any of them fails delta(f) in <f> at the origin.
    """
    germ = as_germ(f)
    f = germ.f
    n = len(f.vars)
    if len(fields) != n:
        raise WrongCount(f"need exactly {n} fields, got {len(fields)}")
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
    prec = precision if precision is not None else default_precision([f, det])
    cert = membership(det, fsb, precision=prec)
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


def _diagonal_euler_witness(f: Polynomial) -> Optional[VectorField]:
    for lam, w in diagonal_symmetry_space(f):
        if lam != 0:
            weights = tuple(x / lam for x in w)
            return VectorField.diagonal(weights, f.vars)
    return None


def euler_check(f: Polynomial, precision: Optional[int] = None) -> EulerCheck:
    """Is the germ of f at the origin Euler homogeneous?

    Equivalent to f lying in its Jacobian ideal over the local ring.  A
    diagonal witness is preferred since it is exact; otherwise the witness
    comes out of the membership certificate as a jet field.
    """
    _require_origin(f)
    witness = _diagonal_euler_witness(f)
    if witness is not None:
        if witness.apply(f) != f:
            raise CertificateFailure("diagonal witness failed delta(f) = f")
        return EulerCheck(True, witness, True)
    n = len(f.vars)
    partials = [f.diff(i) for i in range(n)]
    if all(p.is_zero() for p in partials):
        return EulerCheck(False, None, True)
    sb = standard_basis(partials, LOCAL)
    prec = precision if precision is not None else default_precision(partials + [f])
    cert = membership(f, sb, precision=prec)
    if not cert.member:
        return EulerCheck(False, None, True)
    field = VectorField(list(cert.quotients))
    exact = not any(isinstance(q, Jet) for q in cert.quotients)
    return EulerCheck(True, field, exact)


def strong_euler_check(f: Polynomial, precision: Optional[int] = None) -> EulerCheck:
    """Euler homogeneity with a witness vanishing at the origin.

    Equivalent to f lying in m * J_f over the local ring, with m the maximal
    ideal.  Diagonal witnesses vanish at the origin by shape, so the
    diagonal shortcut applies here too.
    """
    _require_origin(f)
    witness = _diagonal_euler_witness(f)
    if witness is not None:
        if witness.apply(f) != f:
            raise CertificateFailure("diagonal witness failed delta(f) = f")
        return EulerCheck(True, witness, True)
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
    if not gens:
        return EulerCheck(False, None, True)
    sb = standard_basis(gens, LOCAL)
    prec = precision if precision is not None else default_precision(gens + [f])
    cert = membership(f, sb, precision=prec)
    if not cert.member:
        return EulerCheck(False, None, True)
    coeffs: List = [Jet(Polynomial.zero(varnames), prec)] * n
    for q, (i, j) in zip(cert.quotients, slots):
        xj = Polynomial.variable(varnames, j)
        term = q * Jet(xj, q.order) if isinstance(q, Jet) else Jet(q * xj, prec)
        coeffs[i] = coeffs[i] + term
    field = VectorField(coeffs)
    if not field.vanishes_at_origin():
        raise CertificateFailure("strong witness has a constant part")
    return EulerCheck(True, field, False)


def _require_origin(f: Polynomial) -> None:
    if f.is_zero():
        raise PreconditionViolated("the zero polynomial defines no hypersurface")
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
