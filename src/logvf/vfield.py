"""Polynomial vector fields delta = sum a_i d/dx_i and their Lie structure.

Coefficients are all Polynomials or all Jets of one truncation order, over
the same variables; a field of mixed kinds or of mixed orders is refused.
Jet fields are results only, and every operation takes polynomial fields.
The bracket follows [d,e](x_j) = d(e(x_j)) - e(d(x_j)); for linear fields
written x.A.d this gives [x.A.d, x.B.d] = x.[A,B].d with [A,B] = AB - BA.

The field action is one exact integer map, poly.derivation, on
polynomials only: delta(p) and each bracket component are one sum of
products on integer numerators, and `polynomials` refuses a jet field
(poly.exact).  Field arithmetic (sums, negation, scaling, g*delta), `cut`
and `split_field` read `polynomials` too, since a jet has no arithmetic.
Jet fields are results, such as the nilpotent complements of a formal
structure, and print with a trailing ` mod m^k`.  A caller that wants
delta(p) only below an order k passes k to `apply`, which forms the
products only below it.  For a jet field J of order k, the action below k
of its polynomial field (its stored terms) is that of every field with
this jet: p has no negative exponents, so a coefficient term of degree
>= k adds only terms of degree >= k to delta(p).

`split_field` groups the terms of a field by a key of (exponent, index),
splitting each coefficient with poly.split on its lifted numerators, so
that, like the field action, it returns polynomials that hold only their
lifted form (see poly), and `VectorField.cut` keeps its terms below an
order, as poly.cut does.  The structure queries read a jet field's stored
terms only where its order makes them the field's: `constant_part` and
`vanishes_at_origin` need order >= 1, `linear_part` order >= 2, and
`low_field_degree` a stored term; otherwise they refuse.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
                    Union)

from .errors import HasConstantPart, PreconditionViolated, VariableMismatch
from .poly import (
    Exponent,
    Jet,
    Polynomial,
    as_poly,
    cut,
    derivation,
    exact,
    linear_forms,
    poly_to_str,
    split,
)

Coeff = Union[Polynomial, Jet]


class VectorField:
    """Immutable derivation with one coefficient per variable."""

    __slots__ = ("coeffs", "vars")

    def __init__(self, coeffs: Sequence[Coeff]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise VariableMismatch("vector field needs at least one coefficient")
        vars0 = coeffs[0].vars
        if len(coeffs) != len(vars0):
            raise VariableMismatch(
                f"{len(coeffs)} coefficients for {len(vars0)} variables")
        orders = {c.order if isinstance(c, Jet) else None for c in coeffs}
        if len(orders) > 1:
            if None in orders:
                # a polynomial field takes no jet coefficient
                for c in coeffs:
                    exact(c)
            raise PreconditionViolated(
                f"a jet field has one order, not a jet modulo m^{max(orders)}"
                f" beside one modulo m^{min(orders)}")
        for c in coeffs:
            if c.vars != vars0:
                raise VariableMismatch(f"{c.vars} vs {vars0}")
        self.coeffs = coeffs
        self.vars = vars0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, varnames: Sequence[str]) -> "VectorField":
        return cls([Polynomial.zero(varnames) for _ in varnames])

    @classmethod
    def partial(cls, varnames: Sequence[str], i: int) -> "VectorField":
        """The coordinate field d/dx_i."""
        coeffs = [Polynomial.const(varnames, 1 if j == i else 0)
                  for j in range(len(varnames))]
        return cls(coeffs)

    @classmethod
    def from_matrix(cls, A: Sequence[Sequence], varnames: Sequence[str]) -> "VectorField":
        """Linear field x.A.d: the d_j coefficient is sum_i A[i][j] x_i."""
        n = len(varnames)
        return cls(linear_forms([[A[i][j] for i in range(n)]
                                 for j in range(n)], varnames))

    @classmethod
    def diagonal(cls, weights: Sequence, varnames: Sequence[str]) -> "VectorField":
        """sum w_i x_i d_i."""
        n = len(varnames)
        return cls(linear_forms([[w if i == j else 0 for i in range(n)]
                                 for j, w in enumerate(weights)], varnames))

    # -- structure ------------------------------------------------------------

    @property
    def order(self):
        """Common jet order of the coefficients, or None for polynomials."""
        c = self.coeffs[0]
        return c.order if isinstance(c, Jet) else None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _known_to(self, degree: int, what: str) -> None:
        # a jet field knows only its terms below its order
        if self.order is not None and self.order <= degree:
            raise PreconditionViolated(
                f"the {what} of a jet field modulo m^{self.order} is not known")

    def constant_part(self) -> Tuple[Fraction, ...]:
        """The constant terms; a jet field must have order >= 1."""
        self._known_to(0, "constant part")
        return tuple(c.constant_term() for c in self.coeffs)

    def vanishes_at_origin(self) -> bool:
        return all(v == 0 for v in self.constant_part())

    def linear_part(self) -> List[List[Fraction]]:
        """Matrix A with A[i][j] = coefficient of x_i in delta(x_j).

        Raises HasConstantPart if some coefficient has a constant term; a
        jet field must have order >= 2.
        """
        n = len(self.vars)
        self._known_to(1, "linear part")
        if not self.vanishes_at_origin():
            raise HasConstantPart(f"constant part {self.constant_part()}")
        A = [[Fraction(0)] * n for _ in range(n)]
        for j, c in enumerate(self.coeffs):
            for i in range(n):
                exp = tuple(1 if t == i else 0 for t in range(n))
                A[i][j] = as_poly(c).coeff(exp)
        return A

    def truncate(self, order: int) -> "VectorField":
        return VectorField([c.truncate(order) for c in self.coeffs])

    def cut(self, order: int) -> "VectorField":
        """The polynomial field of the coefficient terms below `order`."""
        return VectorField([cut(c, order) for c in self.polynomials()])

    def as_polynomial_field(self) -> "VectorField":
        """Drop jet wrappers, keeping the stored terms."""
        return VectorField([as_poly(c) for c in self.coeffs])

    def polynomials(self) -> Tuple[Polynomial, ...]:
        """The coefficients, which must be polynomials (poly.exact)."""
        return tuple(map(exact, self.coeffs))

    def max_coeff_degree(self) -> int:
        return max((as_poly(c).total_degree() for c in self.coeffs), default=-1)

    def low_field_degree(self) -> int:
        """Least total degree over all coefficient terms; large for the
        zero polynomial field.  A jet field with no term below its order
        has no known low degree."""
        degs = [as_poly(c).low_degree() for c in self.coeffs if not c.is_zero()]
        if degs:
            return min(degs)
        if self.order is not None:
            raise PreconditionViolated(
                f"the low degree of a jet field modulo m^{self.order} with "
                "no term below it is not known")
        return 10 ** 9

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "VectorField"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField([a + b for a, b in
                            zip(self.polynomials(), other.polynomials())])

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField([a - b for a, b in
                            zip(self.polynomials(), other.polynomials())])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.polynomials()])

    def scale(self, c) -> "VectorField":
        return VectorField([a * Fraction(c) for a in self.polynomials()])

    def mul_function(self, g: Polynomial) -> "VectorField":
        """The field g*delta."""
        return VectorField([exact(g) * a for a in self.polynomials()])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- action ---------------------------------------------------------------

    def apply(self, p: Polynomial, order: Optional[int] = None) -> Polynomial:
        """delta(p) = sum a_i dp/dx_i, one poly.derivation call; with
        `order`, only its terms below `order` are formed."""
        if p.vars != self.vars:
            raise VariableMismatch(f"{p.vars} vs {self.vars}")
        value, = derivation([(1, self.polynomials(), [exact(p)])], order)
        return value

    def monomial_image(self, e: Exponent) -> Dict[Exponent, Fraction]:
        """The terms of delta(x^e) for an integer exponent e, negative
        entries allowed: the terms of each a_i shifted by e - 1_i and times
        e_i.  The coefficients must be polynomials."""
        out: Dict[Exponent, Fraction] = {}
        for i, (a, k) in enumerate(zip(self.polynomials(), e)):
            if k:
                down = e[:i] + (k - 1,) + e[i + 1:]
                for exp, c in a.terms.items():
                    key = tuple(x + y for x, y in zip(exp, down))
                    out[key] = out.get(key, 0) + k * c
        return {key: c for key, c in out.items() if c}

    def bracket(self, other: "VectorField") -> "VectorField":
        """[self, other]: component j is self(other_j) - other(self_j),
        formed as one poly.derivation sum."""
        self._check(other)
        mine, theirs = self.polynomials(), other.polynomials()
        return VectorField(derivation([(1, mine, theirs), (-1, theirs, mine)]))

    def __str__(self):
        return vf_to_str(self)

    def __repr__(self):
        return f"VectorField({vf_to_str(self)!r})"


def vf_to_str(v: VectorField) -> str:
    parts = []
    for name, c in zip(v.vars, v.coeffs):
        base = as_poly(c)
        if base.is_zero():
            continue
        if len(base.terms) > 1:
            parts.append(f"({poly_to_str(base)})*d_{name}")
        elif base.terms == {(0,) * len(base.vars): 1}:
            parts.append(f"d_{name}")
        else:
            parts.append(f"{poly_to_str(base)}*d_{name}")
    body = " + ".join(parts) if parts else "0"
    if v.order is not None:
        return f"{body} mod m^{v.order}"
    return body


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    return a.bracket(b)


def split_field(v: VectorField, key: Callable[[Exponent, int], Hashable]
                ) -> Dict[Hashable, VectorField]:
    """The terms c x^e d_i of the polynomial field v grouped by key(e, i),
    one field per key: each coefficient is split by poly.split on its
    lifted numerators."""
    zero = Polynomial.zero(v.vars)
    groups: Dict[Hashable, List[Polynomial]] = {}
    for i, c in enumerate(v.polynomials()):
        for k, part in split(c, lambda e, i=i: key(e, i)).items():
            groups.setdefault(k, [zero] * len(v.vars))[i] = part
    return {k: VectorField(parts) for k, parts in groups.items()}

