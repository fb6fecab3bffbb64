"""Sparse multivariate polynomials and jets over the rationals.

A polynomial is a term map from exponent vectors (tuples of ints, one entry
per variable) to nonzero Fractions.  All arithmetic is exact.  Exponents are
normally nonnegative; negative entries are permitted so the same carrier can
hold Laurent terms for the local-cohomology module, which filters them itself.

A Jet is a result: a polynomial known only modulo m^order (m the maximal
ideal at the origin), whose stored terms all have total degree < order.
Membership quotients, units and the results that print with
` mod m^order` are jets.  A jet has no arithmetic, and no library entry
takes one: every entry takes polynomials, and `exact` refuses a jet
operand, once, on entry.  A jet is read by `as_poly` and `cut` (and, for
fields, by `as_polynomial_field` and `vf_to_str`).  Truncated arithmetic
takes polynomials and an explicit order, and forms no term at or above it:
`sum_of_products` for sums of products, `unit_inverse` for the inverse of
a unit, `derivation` for field actions and `PowerTable` for substitution.

Substitution goes through a PowerTable, which keeps the image of each
monomial it has formed, so that composing many functions through one map
forms each monomial once, and which inverts its map below its order
degree by degree, keeping the monomials of the inverse.

Term maps are cut below an order by `cut`, grouped by a key of the
exponent by `split`, walked degree by degree by `exponents` and built from
the rows of a matrix by `linear_forms`, and nowhere else.

A polynomial has two forms, each made once, when first read, and kept:
its `terms`, a map to Fractions, and its lifted form (`lifted`), integer
numerators over one common denominator, on which products and sums cost
integer operations per term pair.  Every kernel (`sum_of_products`,
`unit_inverse`, `derivation`, `remultiplies`, `PowerTable`, products,
sums, scaling, `diff` and `split`) reads lifted forms and returns a
polynomial that holds only its lifted form, and `cut` keeps the form it
is given, so a chain of kernels makes no Fraction; one is made per term
when something reads `terms`, such as printing.  Neither form is ever
changed in place.

Every lifted form is canonical: no zero numerator, a positive
denominator, and no common factor of the denominator and all the
numerators.  _lift puts the numerators of a map of reduced Fractions over
den, the lcm of their denominators; for each prime p of den some term's
denominator holds p's full power in den, so that term's numerator is
prime to p, and gcd(den, numerators) = 1.  Every other lifted map made
here passes through _reduced, which drops zero numerators and divides out
that gcd, and the zero map is ({}, 1) either way.  Equal lifted forms are
therefore equal rational maps, and equal rational maps have equal lifted
forms: `==`, `hash` and `remultiplies` compare lifted forms as they are.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from .errors import (
    IndexOutOfRange,
    ParseError,
    PreconditionViolated,
    UnknownVariable,
    VariableMismatch,
)

Exponent = Tuple[int, ...]
TermMap = Dict[Exponent, Fraction]
Scalar = Union[int, Fraction]


def _canon_key(item):
    # graded-lex, largest first: sort key for display and leading-term picks
    exp, _ = item
    return (sum(exp), exp)


# integer numerators over one positive denominator (see the module docstring)
Lifted = Tuple[Dict[Exponent, int], int]


def _lift(terms: TermMap) -> Lifted:
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


def _unlift(lifted: Lifted) -> TermMap:
    ints, den = lifted
    return {e: Fraction(v, den) for e, v in ints.items()}


def _reduced(ints: Dict[Exponent, int], den: int) -> Lifted:
    """Drop zero numerators and divide out the content shared with den."""
    ints = {e: v for e, v in ints.items() if v}
    g = gcd(den, *ints.values())
    if g > 1:
        ints = {e: v // g for e, v in ints.items()}
        den //= g
    return ints, den


def _lifted_product(a: Lifted, b: Lifted, order: Optional[int] = None) -> Lifted:
    """a * b; with `order`, only its terms of total degree below `order` are
    formed: term pairs whose degrees sum to `order` or more are skipped."""
    (ia, da), (ib, db) = a, b
    out: Dict[Exponent, int] = {}
    get = out.get
    if order is None:
        for e1, c1 in ia.items():
            for e2, c2 in ib.items():
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
    else:
        graded = sorted(((sum(e), e, c) for e, c in ib.items()),
                        key=lambda t: t[0])
        for e1, c1 in ia.items():
            room = order - sum(e1)
            for d2, e2, c2 in graded:
                if d2 >= room:
                    break
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
    return _reduced(out, da * db)


def _lifted_combination(parts: Iterable[Tuple[Scalar, Lifted]]) -> Lifted:
    """The sum of c * lifted over the (c, lifted) pairs, accumulated in one
    integer map over the least common denominator."""
    # an int and a Fraction both carry numerator and denominator
    scaled = [(c.numerator, c.denominator * den, ints)
              for c, (ints, den) in parts]
    den = lcm(*(d for _, d, _ in scaled))
    acc: Dict[Exponent, int] = {}
    get = acc.get
    for num, d, ints in scaled:
        scale = num * (den // d)
        for e, v in ints.items():
            acc[e] = get(e, 0) + scale * v
    return _reduced(acc, den)


def sum_of_products(pairs: Iterable[Tuple["Polynomial", "Polynomial"]],
                    order: Optional[int] = None) -> "Polynomial":
    """The sum of q * p over the (q, p) pairs, formed in one integer map:
    each product is taken on lifted numerators and the sum over one common
    denominator.  With `order`, only terms of total degree below `order`
    are formed.  The pairs must be nonempty and share one variable
    tuple."""
    pairs = list(pairs)
    if not pairs:
        raise PreconditionViolated("a sum of products needs at least one pair")
    varnames = pairs[0][0].vars
    for q, p in pairs:
        if q.vars != varnames or p.vars != varnames:
            raise VariableMismatch(f"{q.vars} and {p.vars} vs {varnames}")
    total = _lifted_combination(
        (1, _lifted_product(q.lifted(), p.lifted(), order)) for q, p in pairs)
    return Polynomial._of_lifted(total, varnames)


def unit_inverse(p: "Polynomial", order: int) -> "Polynomial":
    """The inverse of the unit p below `order` >= 1: the r of degree below
    `order` with p * r = 1 modulo m^order, which is unique.

    Newton's step r <- r * (2 - p * r) takes an inverse modulo m^g to one
    modulo m^2g, so each step forms its products only below the precision
    it reaches, min(2g, order), and only the last one runs at `order`."""
    c = exact(p).constant_term()
    if c == 0 or order < 1:
        raise PreconditionViolated(f"not a unit modulo m^{order}")
    zero = (0,) * len(p.vars)
    me = p.lifted()
    two = ({zero: 2}, 1)
    r = _lift({zero: 1 / c})
    good = 1
    while good < order:
        good = min(2 * good, order)
        factor = _lifted_combination(
            [(1, two), (-1, _lifted_product(me, r, good))])
        r = _lifted_product(r, factor, good)
    return Polynomial._of_lifted(r, p.vars)


def derivation(actions: Sequence[Tuple[Scalar, Sequence["Polynomial"],
                                       Sequence["Polynomial"]]],
               order: Optional[int] = None) -> Tuple["Polynomial", ...]:
    """Signed sums of derivations, formed in one integer map per output.

    Each action (c, coeffs, targets) is c times the derivation
    sum_i coeffs[i] d/dx_i applied to every target; output j is the sum of
    the actions on their j-th targets, so every action needs as many
    targets.  Each d/dx_i is taken on the lifted numerators (times the
    exponent, over the same denominator), and each output is one
    _lifted_combination of _lifted_products.  With `order`, only terms of
    total degree below `order` are formed.  Every coefficient and target
    must share one variable tuple, and each coeffs has one entry per
    variable."""
    if not actions:
        raise PreconditionViolated("a derivation needs at least one action")
    varnames = actions[0][1][0].vars
    n = len(varnames)
    width = len(actions[0][2])

    def lift(p: "Polynomial") -> Lifted:
        if p.vars != varnames:
            raise VariableMismatch(f"{p.vars} vs {varnames}")
        return p.lifted()

    def diff(p: Lifted, i: int) -> Lifted:
        ints, den = p
        out = {}
        for e, v in ints.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = v * k
        return out, den

    prepared = []
    for c, coeffs, targets in actions:
        if len(coeffs) != n or len(targets) != width:
            raise VariableMismatch(
                f"{len(coeffs)} coefficients and {len(targets)} targets "
                f"for {n} variables and {width} outputs")
        slots = [(i, a) for i, a in enumerate(map(lift, coeffs)) if a[0]]
        prepared.append((c, slots, [lift(t) for t in targets]))
    out = []
    for j in range(width):
        parts = []
        for c, slots, targets in prepared:
            for i, a in slots:
                dt = diff(targets[j], i)
                if dt[0]:
                    parts.append((c, _lifted_product(a, dt, order)))
        out.append(Polynomial._of_lifted(_lifted_combination(parts),
                                         varnames))
    return tuple(out)


def remultiplies(rows: Sequence[Sequence["Polynomial"]],
                 inputs: Sequence[Sequence["Polynomial"]],
                 targets: Sequence[Sequence["Polynomial"]],
                 order: Optional[int] = None) -> bool:
    """Does sum_k rows[j][k] * inputs[k][c] equal targets[j][c] for every
    row j and component c?  With `order`, both sides are compared below
    total degree `order`.  Each row holds one polynomial per input, each
    input and target one per component; on any other shape the identity
    does not hold as stated, and the answer is False.

    The sums are formed with _lifted_product and _lifted_combination on
    lifted forms and compared as they are, with no Fraction made: every
    lifted form is canonical (see the module docstring), so the comparison
    keeps its exact strength."""
    ranks = {len(seq) for seq in (*inputs, *targets)}
    if (len(ranks) > 1 or len(rows) != len(targets)
            or any(len(row) != len(inputs) for row in rows)):
        return False
    names = {p.vars for seq in (*rows, *inputs, *targets) for p in seq}
    if len(names) > 1:
        raise VariableMismatch(f"mixed variable tuples {sorted(names)}")
    columns = [[g[c].lifted() for g in inputs]
               for c in range(max(ranks, default=0))]
    for row, target in zip(rows, targets):
        lifted = [q.lifted() for q in row]
        for column, t in zip(columns, target):
            total = _lifted_combination(
                (1, _lifted_product(q, g, order))
                for q, g in zip(lifted, column) if q[0] and g[0])
            if total != (t if order is None else cut(t, order)).lifted():
                return False
    return True


class Polynomial:
    """Immutable sparse polynomial over Q, tied to a fixed variable tuple.

    It holds its term map, its lifted form or both, each made on first
    read and kept (see the module docstring)."""

    __slots__ = ("_terms", "_lifted", "vars")

    def __init__(self, terms: TermMap, varnames: Sequence[str]):
        self.vars: Tuple[str, ...] = tuple(varnames)
        clean: TermMap = {}
        for exp, c in terms.items():
            if len(exp) != len(self.vars):
                raise VariableMismatch(
                    f"exponent {exp} has {len(exp)} entries for {len(self.vars)} variables")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[tuple(exp)] = c
        self._terms: Optional[TermMap] = clean
        self._lifted: Optional[Lifted] = None

    @classmethod
    def _of(cls, terms: TermMap, varnames: Tuple[str, ...]) -> "Polynomial":
        # trusted constructor: Fraction coefficients, no zeros, right length
        p = cls.__new__(cls)
        p.vars = varnames
        p._terms = terms
        p._lifted = None
        return p

    @classmethod
    def _of_lifted(cls, lifted: Lifted, varnames: Tuple[str, ...]
                   ) -> "Polynomial":
        # trusted constructor: a canonical lifted map, right length
        p = cls.__new__(cls)
        p.vars = varnames
        p._terms = None
        p._lifted = lifted
        return p

    @property
    def terms(self) -> TermMap:
        """The term map, exponent to nonzero Fraction; read-only."""
        if self._terms is None:
            self._terms = _unlift(self._lifted)
        return self._terms

    def lifted(self) -> Lifted:
        """The canonical lifted form; read-only."""
        if self._lifted is None:
            self._lifted = _lift(self._terms)
        return self._lifted

    def _support(self):
        # the exponents, read from whichever form is stored
        return self._terms if self._terms is not None else self._lifted[0]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, varnames: Sequence[str]) -> "Polynomial":
        return cls({}, varnames)

    @classmethod
    def const(cls, varnames: Sequence[str], c: Scalar) -> "Polynomial":
        n = len(varnames)
        return cls({(0,) * n: Fraction(c)}, varnames)

    @classmethod
    def variable(cls, varnames: Sequence[str], i: int) -> "Polynomial":
        n = len(varnames)
        if not 0 <= i < n:
            raise IndexOutOfRange(f"variable index {i} for {n} variables")
        exp = tuple(1 if j == i else 0 for j in range(n))
        return cls({exp: Fraction(1)}, varnames)

    @classmethod
    def monomial(cls, varnames: Sequence[str], exp: Exponent, c: Scalar = 1) -> "Polynomial":
        return cls({tuple(exp): Fraction(c)}, varnames)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._support()

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        return max(map(sum, self._support()), default=-1)

    def low_degree(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        return min(map(sum, self._support()), default=-1)

    def constant_term(self) -> Fraction:
        return self.coeff((0,) * len(self.vars))

    def coeff(self, exp: Exponent) -> Fraction:
        ints, den = self.lifted()
        return Fraction(ints.get(tuple(exp), 0), den)

    def items_sorted(self):
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=_canon_key, reverse=True)

    def _check_vars(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._combined(other, 1)

    __radd__ = __add__

    def _combined(self, other, sign: int) -> "Polynomial":
        # self + sign * other, one integer map over the common denominator
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vars, other)
        self._check_vars(exact(other))
        return Polynomial._of_lifted(_lifted_combination(
            [(1, self.lifted()), (sign, other.lifted())]), self.vars)

    def __neg__(self):
        ints, den = self.lifted()
        return Polynomial._of_lifted(({e: -v for e, v in ints.items()}, den),
                                     self.vars)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            ints, den = self.lifted()
            # an int and a Fraction both carry numerator and denominator
            num = other.numerator
            return Polynomial._of_lifted(_reduced(
                {e: v * num for e, v in ints.items()},
                den * other.denominator), self.vars)
        self._check_vars(exact(other))
        product = _lifted_product(self.lifted(), other.lifted())
        return Polynomial._of_lifted(product, self.vars)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PreconditionViolated("negative polynomial power")
        result = Polynomial.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # canonical lifted forms are equal exactly when the polynomials are
        # (see the module docstring)
        return self.vars == other.vars and self.lifted() == other.lifted()

    def __hash__(self):
        ints, den = self.lifted()
        return hash((self.vars, frozenset(ints.items()), den))

    # -- calculus ------------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable (power rule,
        uniform over negative exponents)."""
        if not 0 <= i < len(self.vars):
            raise IndexOutOfRange(f"variable index {i} for {len(self.vars)} variables")
        ints, den = self.lifted()
        # e -> e - u_i is one to one, so no two terms meet
        return Polynomial._of_lifted(_reduced(
            {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
             for e, v in ints.items() if e[i]}, den), self.vars)

    def truncate(self, order: int) -> "Jet":
        return Jet(self, order)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring-map application: replace the i-th variable by the
        polynomial images[i].  Negative exponents are not substitutable.
        """
        if len(images) != len(self.vars):
            raise VariableMismatch("need one image per variable")
        return PowerTable([exact(im) for im in images]).compose(self)

    def shift(self, point: Sequence[Scalar]) -> "Polynomial":
        """Translate coordinates: x_i -> x_i + point_i (exact)."""
        images = [Polynomial.variable(self.vars, i) + Fraction(p)
                  for i, p in enumerate(point)]
        return self.substitute(images)

    # -- display -------------------------------------------------------------

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"Polynomial({poly_to_str(self)!r}, vars={self.vars})"


def _mono_str(exp: Exponent, varnames: Tuple[str, ...]) -> str:
    pieces = []
    for name, e in zip(varnames, exp):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces)


def poly_to_str(p: Polynomial) -> str:
    """Canonical string form, parseable back by poly_parse."""
    if p.is_zero():
        return "0"
    out = []
    for exp, c in p.items_sorted():
        mono = _mono_str(exp, p.vars)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


# -- parsing ------------------------------------------------------------------

# an identifier token, the only form a variable name may take
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(
    rf"\s*(?:(\d+)|({_IDENT.pattern})|(\*\*|[-+*/^()]))")


def _readable_names(varnames: Sequence[str]) -> bool:
    """Is each name one identifier token and none repeated, so that the
    printed form of a polynomial over them parses back?"""
    return (all(isinstance(v, str) and _IDENT.fullmatch(v) for v in varnames)
            and len(set(varnames)) == len(varnames))


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at position {pos}: {rest[:10]!r}")
        num, ident, op = m.groups()
        if num is not None:
            tokens.append(("num", int(num)))
        elif ident is not None:
            tokens.append(("ident", ident))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent for: expr := ['+'|'-'] term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := rational | var ['^' nat]
    | '(' expr ')' ['^' nat]."""

    def __init__(self, text: str, varnames: Tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = varnames

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at token {val!r}")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        p = self.term() * sign
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val = self.next()
        if kind == "num":
            c = Fraction(val)
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3 = self.next()
                if k3 != "num":
                    raise ParseError("expected integer denominator")
                if v3 == 0:
                    raise ParseError("zero denominator")
                c = c / v3
            return Polynomial.const(self.vars, c)
        if kind == "ident":
            if val not in self.vars:
                raise UnknownVariable(f"unknown variable {val!r} (declared: {', '.join(self.vars)})")
            p = Polynomial.variable(self.vars, self.vars.index(val))
            return self._maybe_power(p)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return self._maybe_power(p)
        raise ParseError(f"unexpected token {val!r}")

    def _maybe_power(self, p: Polynomial) -> Polynomial:
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, v2 = self.next()
            if k2 != "num":
                raise ParseError("expected natural exponent after ^")
            return p ** v2
        return p


def poly_parse(text: str, varnames: Sequence[str]) -> Polynomial:
    """Parse an expression over the declared variables into a Polynomial.

    The names must be distinct identifiers, as the parser reads them."""
    varnames = tuple(varnames)
    if not _readable_names(varnames):
        raise ParseError(f"variable names must be distinct identifiers, "
                         f"got {varnames!r}")
    return _Parser(text, varnames).parse()


# -- jets ---------------------------------------------------------------------


class Jet:
    """A polynomial known modulo m^order: a value, with no arithmetic (see
    the module docstring)."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Polynomial, order: int):
        if order < 0:
            raise PreconditionViolated("jet order must be >= 0")
        self.order = order
        self.poly = cut(poly, order)

    @property
    def vars(self):
        return self.poly.vars

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def constant_term(self) -> Fraction:
        return self.poly.constant_term()

    def truncate(self, order: int) -> "Jet":
        return Jet(self.poly, min(self.order, order))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.poly, self.order))

    def __str__(self):
        return f"{poly_to_str(self.poly)} + O(m^{self.order})"

    def __repr__(self):
        return f"Jet({poly_to_str(self.poly)!r}, order={self.order})"


class PowerTable:
    """Monomials in fixed substitution images, formed on demand and kept.

    compose(p) replaces the i-th variable of p by images[i].  The table
    keeps the lifted image of each monomial x^e it is asked for, formed
    once as images^(e - u_i) * images[i], i the last nonzero index of e,
    so compose is one _lifted_combination of kept monomials, and every
    later call on the same table reuses them.  With an `order`, the images
    are taken modulo m^order and every monomial is formed only below that
    order, so compose returns p o images modulo m^order; without one, the
    composite is exact.  Truncation drops only terms of high degree when
    the images have no negative exponents, so a table with an order
    refuses Laurent images; an exact table takes them.
    """

    __slots__ = ("order", "vars", "_images", "_monomials")

    def __init__(self, images: Sequence[Polynomial], order: Optional[int] = None):
        if not images or len(images) != len(images[0].vars):
            raise VariableMismatch("need one image per variable")
        self.vars = images[0].vars
        for im in images:
            im._check_vars(images[0])
        self.order = order
        one = Polynomial.const(self.vars, 1)
        if order is not None:
            if any(e < 0 for im in images for exp in im._support()
                   for e in exp):
                raise PreconditionViolated(
                    "cannot truncate a substitution of Laurent images")
            one, images = cut(one, order), [cut(im, order) for im in images]
        self._images = [im.lifted() for im in images]
        # _monomials[e] is images^e, lifted, filled on demand
        self._monomials = {(0,) * len(self.vars): one.lifted()}

    def _monomial(self, e: Exponent) -> Lifted:
        known, chain = self._monomials, []
        while e not in known:
            i = max(k for k, v in enumerate(e) if v)
            chain.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        got = known[e]
        for e, i in reversed(chain):
            got = known[e] = _lifted_product(got, self._images[i], self.order)
        return got

    def _through(self, lifted: Lifted) -> Lifted:
        # a lifted map composed with the images: one combination of monomials
        ints, den = lifted
        out = _lifted_combination((v, self._monomial(e))
                                  for e, v in ints.items())
        return out if den == 1 else _reduced(out[0], out[1] * den)

    def compose(self, p: Polynomial) -> Polynomial:
        """p o images, modulo m^order when the table has an order."""
        support = p._support()
        if support and p.vars != self.vars:
            raise VariableMismatch(f"{p.vars} vs {self.vars}")
        if any(e < 0 for exp in support for e in exp):
            raise PreconditionViolated("cannot substitute into Laurent terms")
        return Polynomial._of_lifted(self._through(p.lifted()), self.vars)

    def inverse(self, rows: Sequence[Sequence[Scalar]]
                ) -> Tuple[Polynomial, ...]:
        """The psi with psi o images = x modulo m^order, for images that
        vanish at the origin with an invertible linear part L, given the
        rows of L^-1; below the order it is unique.

        It is solved degree by degree.  psi starts as the linear forms of
        `rows`; while psi o images = x + r_k + (terms above degree k), r_k
        of degree k, the piece -r_k o L^-1 of degree k cancels r_k and
        changes no lower degree.  psi o images is kept and extended by each
        piece o images, formed through this table, and L^-1 is applied
        through one table of its linear forms.  Every monomial of psi is
        then kept here, so composing psi through this table forms none."""
        linear = PowerTable(linear_forms(rows, self.vars), self.order)
        out = []
        for form in linear._images:
            parts = [(1, form)]
            rest = self._through(form)
            for k in range(2, self.order):
                ints, den = rest
                r = {e: v for e, v in ints.items() if sum(e) == k}
                if r:
                    piece = linear._through((r, den))
                    parts.append((-1, piece))
                    rest = _lifted_combination(
                        [(1, rest), (-1, self._through(piece))])
            out.append(Polynomial._of_lifted(_lifted_combination(parts),
                                             self.vars))
        return tuple(out)


def as_poly(obj: Union[Polynomial, Jet]) -> Polynomial:
    return obj.poly if isinstance(obj, Jet) else obj


def exact(obj: Union[Polynomial, Jet]) -> Polynomial:
    """obj, which must be a polynomial: a jet is known only modulo m^order,
    and the exact operations refuse it as an operand."""
    if isinstance(obj, Jet):
        raise PreconditionViolated("this operation needs exact polynomials, "
                                   f"not a jet modulo m^{obj.order}")
    return obj


# -- cutting, splitting and building term maps --------------------------------


def cut(p: Union[Polynomial, Jet], order: int) -> Polynomial:
    """The terms of p of total degree below `order`, as a polynomial, read
    from p's lifted form when it holds one and else from its term map, so
    that cutting makes no form that p lacks."""
    base = as_poly(p)
    if base._lifted is None:
        return Polynomial._of({e: c for e, c in base._terms.items()
                               if sum(e) < order}, base.vars)
    ints, den = base._lifted
    return Polynomial._of_lifted(_reduced(
        {e: v for e, v in ints.items() if sum(e) < order}, den), base.vars)


def split(p: Polynomial, key: Callable[[Exponent], Hashable]
          ) -> Dict[Hashable, Polynomial]:
    """The terms of the polynomial p grouped by key(exponent), one
    polynomial per key."""
    ints, den = exact(p).lifted()
    groups: Dict[Hashable, Dict[Exponent, int]] = {}
    for e, v in ints.items():
        groups.setdefault(key(e), {})[e] = v
    return {k: Polynomial._of_lifted(_reduced(t, den), p.vars)
            for k, t in groups.items()}


def exponents(n: int, d: int) -> Iterator[Exponent]:
    """The exponents of the monomials of degree d in n variables."""
    for picks in itertools.combinations_with_replacement(range(n), d):
        yield tuple(picks.count(i) for i in range(n))


def linear_forms(rows: Sequence[Sequence[Scalar]],
                 varnames: Sequence[str]) -> List[Polynomial]:
    """The linear polynomials sum_i rows[j][i] x_i, one per row, each
    formed as one term map."""
    n = len(varnames)
    units = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return [Polynomial(dict(zip(units, row)), varnames) for row in rows]


# -- weight systems -----------------------------------------------------------


@dataclass(frozen=True)
class WeightSystem:
    """A stack of s rational weight rows on n variables."""

    rows: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = {len(r) for r in self.rows}
        if len(n) > 1:
            raise VariableMismatch("weight rows of unequal length")

    @classmethod
    def make(cls, rows: Iterable[Iterable[Scalar]]) -> "WeightSystem":
        return cls(tuple(tuple(Fraction(w) for w in row) for row in rows))

    @property
    def s(self) -> int:
        return len(self.rows)

    def monomial_degree(self, exp: Exponent) -> Tuple[Fraction, ...]:
        """The s-tuple of weighted degrees of x^exp."""
        return tuple(sum(w * e for w, e in zip(row, exp)) for row in self.rows)

    def field_term_degree(self, exp: Exponent, i: int) -> Tuple[Fraction, ...]:
        """Multidegree of the vector-field term x^exp d_i."""
        return tuple(sum(w * e for w, e in zip(row, exp)) - row[i] for row in self.rows)

