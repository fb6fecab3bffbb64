"""Laurent-tail classes and the d1 obstruction map.

The carrier H is modeled by monomials whose exponents are all negative:
projecting a Laurent polynomial onto that span is a term filter, and a
logarithmic basis acts on it coordinate-wise through d1.  A nonzero common
kernel vector refutes the necessary condition for the comparison theorem;
an empty kernel inside the searched box proves nothing.

The box search builds the matrix of d1 on the box term by term.  A term
c*x^a of the coefficient a_k of a field sends x^e to e_k*c*x^(e+s), with
s = a - 1_k, and the image stays all-negative exactly when e_m < -s_m for
every m; so each term visits only that sub-box of exponents, and no image
term is formed to be projected away.  Each field is first multiplied by
the lcm of its coefficient denominators, which scales its rows by one
nonzero constant: the row space, and with it the canonical kernel and the
witness, is unchanged, and every entry is an integer.
"""

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (CertificateFailure, HasConstantPart, NotFree,
                     NotLogarithmic, PreconditionViolated, ProductInput,
                     VariableMismatch)
from .poly import Polynomial, as_poly
from .vfield import VectorField
from .linalg import nullspace
from .derlog import Germ, as_germ, saito_free_check


class CechClass:
    """Finite rational combination of all-negative-exponent monomials."""

    __slots__ = ("terms", "vars")

    def __init__(self, terms: Dict[Tuple[int, ...], Fraction],
                 varnames: Sequence[str]):
        self.vars: Tuple[str, ...] = tuple(varnames)
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for exp, c in terms.items():
            if len(exp) != len(self.vars):
                raise VariableMismatch(
                    f"exponent {exp} does not fit {len(self.vars)} variables")
            if any(k >= 0 for k in exp):
                raise PreconditionViolated(
                    f"class exponents must all be negative, got {exp}")
            c = Fraction(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, varnames: Sequence[str]) -> "CechClass":
        return cls({}, varnames)

    @classmethod
    def top(cls, varnames: Sequence[str]) -> "CechClass":
        """The class of 1/(x_1 ... x_n)."""
        return cls({(-1,) * len(varnames): Fraction(1)}, varnames)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "CechClass":
        c = Fraction(c)
        return CechClass({e: c * v for e, v in self.terms.items()}, self.vars)

    def __add__(self, other: "CechClass") -> "CechClass":
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        out = dict(self.terms)
        for e, v in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + v
        return CechClass(out, self.vars)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CechClass) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def as_laurent(self) -> Polynomial:
        return Polynomial(dict(self.terms), self.vars)

    def to_json(self) -> Dict[str, str]:
        return {",".join(str(k) for k in e): str(v)
                for e, v in sorted(self.terms.items())}

    def __str__(self) -> str:
        if not self.terms:
            return "[0]"
        return f"[{self.as_laurent()}]"

    __repr__ = __str__


def cech_project(p: Polynomial) -> CechClass:
    """Drop every term with some exponent at or above zero."""
    base = as_poly(p)
    kept = {e: c for e, c in base.terms.items() if all(k < 0 for k in e)}
    return CechClass(kept, base.vars)


def d1_apply(basis: Sequence[VectorField], c: CechClass) -> List[CechClass]:
    """Componentwise derivation action followed by the tail projection."""
    carrier = c.as_laurent()
    out = []
    for delta in basis:
        for coeff in delta.coeffs:
            if not isinstance(coeff, Polynomial):
                raise PreconditionViolated("d1 needs polynomial fields")
        out.append(cech_project(as_poly(delta.apply(carrier))))
    return out


def trace_formula_check(delta: VectorField, k: int) -> bool:
    """Does delta send the top class to -trace(A) times itself?

    A is the linear part of delta; terms of degree two and higher must
    contribute nothing.  The identity is checked for delta and for its
    k-jet and both answers must agree, so k below 1 is rejected.
    """
    if k < 1:
        raise PreconditionViolated("jet order k must be at least 1")
    if any(v != 0 for v in delta.constant_part()):
        raise HasConstantPart("the trace identity needs delta in m*Der")
    A = delta.linear_part()
    n = len(delta.vars)
    trace = sum((A[i][i] for i in range(n)), Fraction(0))
    top = CechClass.top(delta.vars)
    expected = top.scale(-trace)
    full = d1_apply([delta], top)[0]
    jet = d1_apply([delta.truncate(k + 1).as_polynomial_field()], top)[0]
    return full == expected and jet == expected


def d1_kernel_search(basis: Sequence[VectorField],
                     bound: int = 3) -> Optional[CechClass]:
    """Exact common kernel of d1 on the box of exponents in [-bound, -1].

    Box-supported classes have finitely many image terms, so the linear
    system is exact and any kernel vector is a genuine witness; None only
    means no witness exists inside this box.  The fields must be
    polynomial fields over the variables of the first.  The column of x^e
    holds the all-negative terms of delta(x^e) for each field delta, times
    the lcm of delta's coefficient denominators; a term of delta with
    shift s adds to the columns of its sub-box only, those x^e whose image
    e + s is all negative (see the module docstring).  Entries that cancel
    are dropped, and no row is empty.  The kernel is the canonical one of
    `linalg.nullspace`, which the row order and the row scaling leave
    alone, and `d1_apply` re-checks the witness independently.
    """
    if not basis:
        raise PreconditionViolated("need at least one field")
    if bound < 1:
        raise PreconditionViolated("bound must be at least 1")
    varnames = basis[0].vars
    for delta in basis:
        if delta.vars != varnames:
            raise VariableMismatch(f"{delta.vars} vs {varnames}")
        if not all(isinstance(c, Polynomial) for c in delta.coeffs):
            raise PreconditionViolated("d1 needs polynomial fields")
    n = len(varnames)
    box = sorted(itertools.product(range(-bound, 0), repeat=n))
    column = {e: j for j, e in enumerate(box)}
    # one sparse row per (field, image exponent), one column per box
    # exponent; the terms of one field that share a shift meet in the same
    # entries, so they are grouped and each entry is formed once
    rows: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}
    for i, delta in enumerate(basis):
        scale = math.lcm(*(c.denominator for a in delta.coeffs
                           for c in a.terms.values()))
        # shift -> the scaled coefficient of its term in each a_k
        shifts: Dict[Tuple[int, ...], List[int]] = {}
        for k, a in enumerate(delta.coeffs):
            for exp, c in a.terms.items():
                s = exp[:k] + (exp[k] - 1,) + exp[k + 1:]
                shifts.setdefault(s, [0] * n)[k] = \
                    c.numerator * (scale // c.denominator)
        for s, w in shifts.items():
            # e and its image e + s run over two boxes in step
            sub = itertools.product(*(range(-bound, min(0, -t)) for t in s))
            img = itertools.product(*(range(t - bound, min(t, 0)) for t in s))
            for e, ie in zip(sub, img):
                v = sum(map(operator.mul, e, w))
                if v:
                    rows.setdefault((i, ie), {})[column[e]] = v
    kernel = nullspace(list(rows.values()), len(box))
    if not kernel:
        return None
    vec = kernel[0]
    lead = next(v for v in vec if v != 0)
    witness = CechClass(
        {box[j]: v / lead for j, v in enumerate(vec) if v != 0}, varnames)
    for img in d1_apply(basis, witness):
        if not img.is_zero():
            raise CertificateFailure("kernel vector does not die under d1")
    return witness


def lct_obstruction_witness(f: Union[Germ, Polynomial],
                            basis: Sequence[VectorField],
                            bound: int = 3) -> Optional[CechClass]:
    """Witness search gated by a freeness certificate for the basis.

    Raises NotFree unless the basis passes the determinant test for f and
    ProductInput when f splits off a smooth factor; a None answer only
    covers the searched box.
    """
    germ = as_germ(f)
    n = len(germ.f.vars)
    if len(basis) != n:
        raise NotFree(f"a free basis for {n} variables needs {n} fields")
    try:
        check = saito_free_check(list(basis), germ)
    except NotLogarithmic as err:
        raise NotFree(str(err))
    if not check.free:
        raise NotFree("determinant of the basis is not a unit times f")
    if germ.product[0]:
        raise ProductInput("f splits off a smooth factor")
    return d1_kernel_search(basis, bound)
