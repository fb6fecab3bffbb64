"""Sparse multivariate polynomials and jets over the rationals.

A polynomial is a term map from exponent vectors (tuples of ints, one entry
per variable) to nonzero Fractions.  All arithmetic is exact.  Exponents are
normally nonnegative; negative entries are permitted so the same carrier can
hold Laurent terms for the local-cohomology module, which filters them itself.

A Jet is a polynomial known only modulo m^order (m the maximal ideal at the
origin): stored terms all have total degree < order.  Jet arithmetic tracks
the order honestly: differentiation costs one order, and a product's order is
min(a.order + lowdeg(b), b.order + lowdeg(a)), so multiplying by something in
m does not lose precision.  A jet product never forms a term at or above its
order: term pairs whose degrees sum to the order or more are skipped.

Substitution goes through a PowerTable, which keeps the powers of the images
it has formed so that composing many functions through one map computes
each power once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

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


# A lifted term map holds integer numerators over one common denominator:
# products and sums of lifted maps cost integer operations per term pair,
# and a Fraction is made once per output term when the map is unlifted.
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
    scaled = []
    for c, (ints, den) in parts:
        c = Fraction(c)
        scaled.append((c.numerator, c.denominator * den, ints))
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
    denominator, so a Fraction is made once per output term.  With `order`,
    only terms of total degree below `order` are formed.  The pairs must be
    nonempty and share one variable tuple."""
    pairs = list(pairs)
    if not pairs:
        raise PreconditionViolated("a sum of products needs at least one pair")
    varnames = pairs[0][0].vars
    for q, p in pairs:
        if q.vars != varnames or p.vars != varnames:
            raise VariableMismatch(f"{q.vars} and {p.vars} vs {varnames}")
    total = _lifted_combination(
        (1, _lifted_product(_lift(q.terms), _lift(p.terms), order))
        for q, p in pairs)
    return Polynomial._of(_unlift(total), varnames)


def _mul_terms(a: TermMap, b: TermMap, order: Optional[int] = None) -> TermMap:
    """The product of two term maps; with `order`, only its terms of total
    degree below `order` are formed."""
    return _unlift(_lifted_product(_lift(a), _lift(b), order))


class Polynomial:
    """Immutable sparse polynomial over Q, tied to a fixed variable tuple."""

    __slots__ = ("terms", "vars")

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
        self.terms = clean

    @classmethod
    def _of(cls, terms: TermMap, varnames: Tuple[str, ...]) -> "Polynomial":
        # trusted constructor: Fraction coefficients, no zeros, right length
        p = cls.__new__(cls)
        p.vars = varnames
        p.terms = terms
        return p

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
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def low_degree(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        return min((sum(e) for e in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coeff(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def items_sorted(self):
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=_canon_key, reverse=True)

    def _check_vars(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vars, other)
        self._check_vars(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Polynomial._of(out, self.vars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({e: -c for e, c in self.terms.items()}, self.vars)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.vars)
            return Polynomial({e: k * c for e, k in self.terms.items()}, self.vars)
        self._check_vars(other)
        return Polynomial._of(_mul_terms(self.terms, other.terms), self.vars)

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable (power rule,
        uniform over negative exponents)."""
        if not 0 <= i < len(self.vars):
            raise IndexOutOfRange(f"variable index {i} for {len(self.vars)} variables")
        out: TermMap = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            new = list(exp)
            new[i] = k - 1
            key = tuple(new)
            s = out.get(key, Fraction(0)) + c * k
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial._of(out, self.vars)

    def truncate(self, order: int) -> "Jet":
        return Jet(self, order)

    def substitute(self, images: Sequence[Union["Polynomial", "Jet"]]):
        """Ring-map application: replace the i-th variable by images[i].

        Returns a Polynomial when all images are polynomials, else a Jet
        whose order is the least order among the images.  Negative exponents
        are not substitutable.
        """
        if len(images) != len(self.vars):
            raise VariableMismatch("need one image per variable")
        orders = [im.order for im in images if isinstance(im, Jet)]
        order = min(orders) if orders else None
        out = PowerTable([as_poly(im) for im in images], order).compose(self)
        return out if order is None else Jet(out, order)

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


def _trunc_terms(terms: TermMap, order: int) -> TermMap:
    return {e: c for e, c in terms.items() if sum(e) < order}


class Jet:
    """A polynomial modulo m^order.  Arithmetic re-truncates and keeps the
    order bookkeeping honest (see module docstring)."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Polynomial, order: int):
        if order < 0:
            raise PreconditionViolated("jet order must be >= 0")
        self.order = order
        self.poly = Polynomial._of(_trunc_terms(poly.terms, order), poly.vars)

    @property
    def vars(self):
        return self.poly.vars

    def low_degree(self) -> int:
        """Known order of vanishing, capped by the truncation order."""
        ld = self.poly.low_degree()
        return self.order if ld < 0 else min(ld, self.order)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def constant_term(self) -> Fraction:
        return self.poly.constant_term()

    def truncate(self, order: int) -> "Jet":
        return Jet(self.poly, min(self.order, order))

    def _coerce(self, other) -> "Jet":
        # binary ops re-truncate to the smaller order; the OrderMismatch
        # contract for whole vector fields lives in vfield
        if isinstance(other, Jet):
            return other
        if isinstance(other, Polynomial):
            return Jet(other, self.order)
        if isinstance(other, (int, Fraction)):
            return Jet(Polynomial.const(self.vars, other), self.order)
        raise TypeError(f"cannot combine Jet with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.poly + o.poly, min(self.order, o.order))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.poly, self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Jet(self.poly * other, self.order)
        o = self._coerce(other)
        self.poly._check_vars(o.poly)
        order = min(self.order + o.low_degree(), o.order + self.low_degree())
        return Jet(Polynomial._of(_mul_terms(self.poly.terms, o.poly.terms, order),
                                  self.vars), order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PreconditionViolated("negative jet power")
        result = Jet(Polynomial.const(self.vars, 1), self.order)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.poly, self.order))

    def diff(self, i: int) -> "Jet":
        # the unknown m^order tail contributes at degree order-1
        return Jet(self.poly.diff(i), max(self.order - 1, 0))

    def inverse(self) -> "Jet":
        """Multiplicative inverse; requires a nonzero constant term."""
        c = self.poly.constant_term()
        if c == 0:
            raise PreconditionViolated("jet is not a unit (zero constant term)")
        one = Polynomial.const(self.vars, 1)
        r = Jet(one * (Fraction(1) / c), self.order)
        # Newton iteration doubles correct degrees each step
        steps = 0
        good = 1
        while good < self.order:
            good *= 2
            steps += 1
        me = Jet(self.poly, self.order)
        for _ in range(max(steps, 1)):
            r = Jet((r * (2 - me * r)).poly, self.order)
        return r

    def __str__(self):
        return f"{poly_to_str(self.poly)} + O(m^{self.order})"

    def __repr__(self):
        return f"Jet({poly_to_str(self.poly)!r}, order={self.order})"


class PowerTable:
    """Powers of fixed substitution images, formed on demand and kept.

    compose(p) replaces the i-th variable of p by images[i].  With an
    `order`, the images are taken modulo m^order and every power and
    product is formed only below that order, so compose returns p o images
    modulo m^order; without one, the composite is exact.  Powers formed for
    one call are reused by every later call on the same table.
    """

    __slots__ = ("order", "vars", "_powers")

    def __init__(self, images: Sequence[Polynomial], order: Optional[int] = None):
        if not images or len(images) != len(images[0].vars):
            raise VariableMismatch("need one image per variable")
        self.vars = images[0].vars
        for im in images:
            im._check_vars(images[0])
        self.order = order

        def cut(terms: TermMap) -> TermMap:
            return terms if order is None else _trunc_terms(terms, order)

        one = cut({(0,) * len(self.vars): Fraction(1)})
        # _powers[i][k] is images[i] ** k, lifted, filled on demand
        self._powers = [[_lift(one), _lift(cut(im.terms))] for im in images]

    def _power(self, i: int, k: int) -> Lifted:
        pows = self._powers[i]
        while len(pows) <= k:
            pows.append(_lifted_product(pows[-1], pows[1], self.order))
        return pows[k]

    def compose(self, p: Polynomial) -> Polynomial:
        """p o images, modulo m^order when the table has an order."""
        if p.terms and p.vars != self.vars:
            raise VariableMismatch(f"{p.vars} vs {self.vars}")
        if any(e < 0 for exp in p.terms for e in exp):
            raise PreconditionViolated("cannot substitute into Laurent terms")
        out = self._combine(p.terms, len(self.vars))
        return Polynomial._of(_unlift(out), self.vars)

    def _combine(self, terms: Dict[Exponent, Fraction], k: int) -> Lifted:
        # sum of c * prod_{i<k} images[i]^e_i over terms keyed by e[:k]:
        # grouping on the last exponent multiplies each power of images[k-1]
        # once by the combined rest instead of once per term
        groups: Dict[int, Dict[Exponent, Fraction]] = {}
        for exp, c in terms.items():
            groups.setdefault(exp[k - 1], {})[exp[:k - 1]] = c
        if k == 1:
            return _lifted_combination((sub[()], self._power(0, e))
                                       for e, sub in groups.items())
        parts = []
        for e, sub in groups.items():
            part = self._combine(sub, k - 1)
            if e:
                part = _lifted_product(part, self._power(k - 1, e), self.order)
            parts.append((1, part))
        return _lifted_combination(parts)


def as_poly(obj: Union[Polynomial, Jet]) -> Polynomial:
    return obj.poly if isinstance(obj, Jet) else obj


# -- weight systems -----------------------------------------------------------


@dataclass(frozen=True)
class WeightSystem:
    """A stack of s rational weight rows on n variables, with optional degrees."""

    rows: Tuple[Tuple[Fraction, ...], ...]
    degrees: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        n = {len(r) for r in self.rows}
        if len(n) > 1:
            raise VariableMismatch("weight rows of unequal length")
        if self.degrees is not None and len(self.degrees) != len(self.rows):
            raise VariableMismatch("one degree per weight row required")

    @classmethod
    def make(cls, rows: Iterable[Iterable[Scalar]],
             degrees: Optional[Iterable[Scalar]] = None) -> "WeightSystem":
        r = tuple(tuple(Fraction(w) for w in row) for row in rows)
        d = None if degrees is None else tuple(Fraction(x) for x in degrees)
        return cls(r, d)

    @property
    def s(self) -> int:
        return len(self.rows)

    def monomial_degree(self, exp: Exponent) -> Tuple[Fraction, ...]:
        """The s-tuple of weighted degrees of x^exp."""
        return tuple(sum(w * e for w, e in zip(row, exp)) for row in self.rows)

    def field_term_degree(self, exp: Exponent, i: int) -> Tuple[Fraction, ...]:
        """Multidegree of the vector-field term x^exp d_i."""
        return tuple(sum(w * e for w, e in zip(row, exp)) - row[i] for row in self.rows)


def multihomog_decompose_poly(p: Union[Polynomial, Jet], W: WeightSystem):
    """Split into W-multihomogeneous components, keyed by the degree tuple."""
    base = as_poly(p)
    buckets: Dict[Tuple[Fraction, ...], TermMap] = {}
    for exp, c in base.terms.items():
        key = W.monomial_degree(exp)
        buckets.setdefault(key, {})[exp] = c
    out = {}
    for key, terms in buckets.items():
        comp = Polynomial(terms, base.vars)
        out[key] = Jet(comp, p.order) if isinstance(p, Jet) else comp
    return out


def graded_parts(p: Union[Polynomial, Jet]) -> Dict[int, Polynomial]:
    """Split by ordinary total degree."""
    base = as_poly(p)
    buckets: Dict[int, TermMap] = {}
    for exp, c in base.terms.items():
        buckets.setdefault(sum(exp), {})[exp] = c
    return {d: Polynomial(t, base.vars) for d, t in buckets.items()}
