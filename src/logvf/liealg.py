"""Lie-algebra structure carried by the logarithmic fields.

Two computations live here.  sn_decompose splits a rational square matrix
into commuting semisimple and nilpotent parts; it works entirely over the
rationals and refuses (with NonRationalEigenvalues) when the eigenvalues do
not all lie there.  The eigenvalues of a triangular matrix are read off its
diagonal, those of any other matrix are the rational roots of its
characteristic polynomial.  The semisimple part acts as lam on each
generalized eigenspace ker (A - lam)^mult; it is reached by Chevalley's
Newton iteration S <- S - p(S) p'(S)^-1 from S = A, p the product of
(t - lam) over the distinct eigenvalues, which stops at its first test
p(A) = 0 when A is diagonalizable.  The splitting is unique
(Jordan-Chevalley), so the iteration gives the one splitting there is; its
last test, that the product of (S - lam) vanishes, certifies S semisimple,
and a check certifies that the parts commute and that the nilpotent one is
nilpotent.  truncated_lie_algebra presents the finite
dimensional quotient D_d = Der_f / m^d Der_f as a basis with structure
constants, which is then probed for solvability, nilpotent adjoints, and
the center.

D_d is built through the presentation O^s -> Der_f sending e_i to the i-th
minimal generator: the quotient equals O^s / (Syz + m^d O^s), Syz spanned
by the polynomial syzygies (flatness, see standard_bases.syzygies), a plain
finite dimensional linear-algebra object, reduced by the shared sparse
`linalg.echelon` and `linalg.remainder`.  Its basis fields are monomial
multiples x^e.delta_p of the generators.  Only the s(s-1)/2 generator
brackets [delta_p, delta_q] are pushed back into coordinates through local
membership certificates, whose quotients are exact modulo m^d; every other
structure constant is derived from them by the Leibniz identity, which is
algebra, with the terms of delta_p(x^f) from `VectorField.monomial_image`,
and by antisymmetry.  The test suite keeps the per-pair path, one
certificate per pair of basis fields, and the dense quotient coordinates
as the references the presentation must match.
The bracket only descends to this quotient when every logarithmic field
vanishes at the origin, so product germs are rejected up front.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .derlog import LogDerModule, is_product, minimalize
from .errors import (CertificateFailure, NonRationalEigenvalues, ProductInput,
                     PrecisionRequired, PreconditionViolated)
from .linalg import (charpoly, echelon, identity, inverse, is_zero_matrix,
                     mat_add, mat_mul, mat_pow, mat_sub, rank, remainder)
from .orderings import LOCAL
from .poly import Exponent, Jet, Polynomial
from .standard_bases import membership, standard_basis, syzygies
from .vfield import VectorField


# -- rational semisimple/nilpotent splitting -----------------------------------

def _rational_roots(coeffs: List[Fraction]) -> Dict[Fraction, int]:
    """All roots with multiplicity of the polynomial given by descending
    coefficients, provided every root is rational; raises
    NonRationalEigenvalues otherwise.

    Past the roots at zero, y = lead * x makes the rational roots the
    integer roots of a monic integer polynomial, all found by one Sturm
    bisection (`_integer_roots`) in time that grows with the bit length of
    the coefficients, not with the divisors of the constant.  Each is then
    divided out exactly for as long as it divides.
    """
    work = [Fraction(c) for c in coeffs]
    roots: Dict[Fraction, int] = {}
    while len(work) > 1 and work[-1] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        work = work[:-1]
    if len(work) > 1:
        lcm = math.lcm(*(c.denominator for c in work))
        ints = [int(c * lcm) for c in work]
        lead = ints[0]
        monic = [1] + [c * lead ** (i - 1) for i, c in enumerate(ints[1:], 1)]
        for y in _integer_roots(monic):
            root = Fraction(y, lead)
            while len(work) > 1:
                out = [work[0]]
                for c in work[1:-1]:
                    out.append(c + out[-1] * root)
                if work[-1] + out[-1] * root != 0:
                    break
                roots[root] = roots.get(root, 0) + 1
                work = out
            if root not in roots:
                raise CertificateFailure("deflation left a nonzero remainder")
    if len(work) > 1:
        raise NonRationalEigenvalues(
            "matrix has eigenvalues outside the rationals")
    return roots


def _integer_roots(q: List[int]) -> List[int]:
    """The distinct integer roots of the monic integer polynomial q
    (descending coefficients)."""
    chain = _sturm_chain(q)

    def sign_changes(y2: int) -> int:
        # signs of the chain at y2/2, each polynomial scaled by 2^degree
        signs = []
        for s in chain:
            acc = 0
            for j, c in enumerate(s):
                acc = acc * y2 + (c << j)
            if acc:
                signs.append(acc > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # Fujiwara: every root has |y| < 2 max_i |q_i|^(1/i) < 2^(bits+1)
    bits = max((abs(c).bit_length() + i - 1) // i
               for i, c in enumerate(q[1:], 1))
    bound = 1 << (bits + 1)
    # a monic integer polynomial has no root at a half-integer, so the sign
    # changes at lo - 1/2 and hi + 1/2 count its distinct real roots in
    # [lo, hi] (Sturm)
    roots = []
    todo = [(-bound, bound, sign_changes(-2 * bound - 1),
             sign_changes(2 * bound + 1))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if lo == hi:
            if _poly_eval(q, lo) == 0:
                roots.append(lo)
            continue
        mid = (lo + hi) // 2
        v_mid = sign_changes(2 * mid + 1)
        todo += [(lo, mid, v_lo, v_mid), (mid + 1, hi, v_mid, v_hi)]
    return roots


def _sturm_chain(q: List[int]) -> List[List[int]]:
    """q, q' and the negated remainders, each scaled by a positive
    constant to primitive integer coefficients."""
    n = len(q) - 1
    chain = [q, [c * (n - j) for j, c in enumerate(q[:-1])]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = [Fraction(c) for c in a]
        while len(r) >= len(b):
            f = r[0] / b[0]
            r = [x - f * y for x, y in zip(r[1:], b[1:])] + r[len(b):]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            break
        scale = math.lcm(*(c.denominator for c in r))
        ints = [-int(c * scale) for c in r]
        content = math.gcd(*ints)
        chain.append([c // content for c in ints])
    return chain


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class SNDecomposition:
    """A = semisimple + nilpotent with the two parts commuting.

    The semisimple part acts as lam on the generalized eigenspace
    ker (A - lam)^mult of each eigenvalue lam of multiplicity mult.  By the
    Jordan-Chevalley theorem the splitting is unique and the semisimple part
    is a polynomial in A, so it preserves every A-invariant subspace.
    """

    semisimple: List[List[Fraction]]
    nilpotent: List[List[Fraction]]
    eigenvalues: Dict[Fraction, int]


def sn_decompose(A: Sequence[Sequence]) -> SNDecomposition:
    """The Jordan-Chevalley splitting of a rational square matrix.

    With p the product of (t - lam) over the distinct eigenvalues,
    Chevalley's Newton iteration S <- S - p(S) p'(S)^-1 runs from S = A
    until p(S) = 0, the test that certifies S semisimple (the split is
    refused if the steps run out first); `_check_sn` certifies the rest.
    Each S is A plus a nilpotent polynomial in A, so it has A's
    eigenvalues and p'(S) is invertible, p being squarefree; p(S) is
    divisible by p(A)^(2^k) after k steps, so ceil(log2 m) steps reach
    p(S) = 0 for the largest multiplicity m, and none are taken when A is
    diagonalizable.  The S reached is semisimple (p(S) = 0 and p has
    distinct rational roots) and a polynomial in A, so A - S is nilpotent
    and commutes with S: it is the unique semisimple part, which acts as
    lam on each generalized eigenspace ker (A - lam)^mult.  The eigenvalues
    of a triangular matrix are read off its diagonal; those of any other
    come from its characteristic polynomial, and eigenvalues
    outside the rationals are refused.
    """
    n = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    if (all(A[i][j] == 0 for i in range(n) for j in range(i))
            or all(A[j][i] == 0 for i in range(n) for j in range(i))):
        roots = dict(Counter(sorted(A[i][i] for i in range(n))))
    else:
        roots = _rational_roots(charpoly(A))
    if sum(roots.values()) != n:
        raise CertificateFailure("eigenvalue multiplicities do not add up")
    # with m the largest multiplicity, p(S) = 0 after ceil(log2 m) steps,
    # fewer than the bit length of m
    S = A
    for _ in range(max(roots.values(), default=1).bit_length() + 1):
        factors = [[[x - lam if i == j else x for j, x in enumerate(row)]
                    for i, row in enumerate(S)] for lam in roots]
        p_of_s = functools.reduce(mat_mul, factors, identity(n))
        if is_zero_matrix(p_of_s):
            break
        dp_of_s = functools.reduce(mat_add, (
            functools.reduce(mat_mul, factors[:i] + factors[i + 1:],
                             identity(n)) for i in range(len(factors))))
        S = mat_sub(S, mat_mul(p_of_s, inverse(dp_of_s)))
    else:
        raise CertificateFailure("semisimple part failed the product test")
    N = mat_sub(A, S)
    _check_sn(S, N)
    return SNDecomposition(S, N, roots)


def _check_sn(S, N) -> None:
    if mat_mul(S, N) != mat_mul(N, S):
        raise CertificateFailure("semisimple and nilpotent parts do not commute")
    if not is_zero_matrix(N) and not is_zero_matrix(mat_pow(N, len(N) + 1)):
        raise CertificateFailure("nilpotent part is not nilpotent")


# -- the truncated algebra ------------------------------------------------------

@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Basis and structure constants of D_d = Der_f / m^d Der_f.

    basis_fields holds representative fields (monomial multiples of the
    minimal generators); brackets[i][j] is the coordinate vector of
    [b_i, b_j].  linear_part_faithful says, for truncation 1, whether the
    linear parts of the representatives are linearly independent, i.e.
    whether the matrix picture of D_1 is faithful; None for deeper
    truncations.
    """

    truncation: int
    basis_fields: Tuple[VectorField, ...]
    brackets: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    dimension: int
    linear_part_faithful: Optional[bool]


class _QuotientCoordinates:
    """Exact coordinates on O^s / (span(rels) + m^d O^s).

    The ambient monomial basis is all (component, exponent) with
    |exponent| < d.  The relation image is spanned by the monomial
    multiples of the rels, built as sparse rows and brought to reduced
    echelon form once by `linalg.echelon`; a vector's coordinates are
    those of its `linalg.remainder` at the free columns.
    """

    def __init__(self, rels: List[Tuple[Polynomial, ...]], s: int,
                 varnames: Tuple[str, ...], d: int):
        self.d = d
        shifts = [e for e in itertools.product(range(d), repeat=len(varnames))
                  if sum(e) < d]
        self.monos = sorted(((comp, exp) for exp in shifts for comp in range(s)),
                            key=lambda m: (sum(m[1]), m[1], m[0]))
        self.index = {m: i for i, m in enumerate(self.monos)}
        rows = [self._row([_add_shifted({}, p.terms, shift, 1, d) for p in rel])
                for rel in rels for shift in shifts]
        self.reduced, self.pivots = echelon(rows)
        self.free_cols = [i for i in range(len(self.monos))
                          if i not in set(self.pivots)]

    @property
    def dimension(self) -> int:
        return len(self.free_cols)

    def _row(self, vec: Sequence[Dict[Exponent, Fraction]]) -> Dict[int, Fraction]:
        """The sparse row of an O^s vector given by the terms of degree < d
        of each component."""
        return {self.index[comp, exp]: c
                for comp, terms in enumerate(vec) for exp, c in terms.items()}

    def coords_of_vector(self, h: Sequence) -> List[Fraction]:
        """Class coordinates of (h_1, .., h_s); jets must carry order >= d."""
        w = remainder(self._row([_low_terms(q, self.d) for q in h]),
                      self.reduced, self.pivots)
        if any(piv in w for piv in self.pivots):
            raise CertificateFailure("pivot elimination failed")
        zero = Fraction(0)
        return [w.get(i, zero) for i in self.free_cols]


def _low_terms(q, d: int) -> Dict[Exponent, Fraction]:
    """The terms of q of total degree < d; a jet known to lower order is
    refused."""
    if isinstance(q, Jet):
        if q.order < d:
            raise PrecisionRequired(
                "coefficient known to lower order than the truncation")
        q = q.poly
    return {exp: c for exp, c in q.terms.items() if sum(exp) < d}


def _add_shifted(acc: Dict[Exponent, Fraction], terms: Dict[Exponent, Fraction],
                 shift: Exponent, scale: int, d: int) -> Dict[Exponent, Fraction]:
    """acc += scale * x^shift * terms, keeping the terms of degree < d;
    returns acc."""
    for exp, c in terms.items():
        moved = tuple(a + b for a, b in zip(exp, shift))
        if sum(moved) < d:
            v = acc.get(moved, 0) + scale * c
            if v:
                acc[moved] = v
            else:
                del acc[moved]
    return acc


def truncated_lie_algebra(module: LogDerModule, truncation: int = 1
                          ) -> LieAlgebraPresentation:
    """Present D_d = Der_f / m^d Der_f for d = truncation.

    Product germs are rejected: a field with nonzero constant part breaks
    the invariance of m^d Der_f under the bracket.  The basis fields are
    x^e.delta_p for the minimal generators delta_p.  Each generator bracket
    [delta_p, delta_q], p < q, is written over the generators by one
    membership certificate that re-multiplies exactly modulo m^d; these
    s(s-1)/2 certificates are the only ones.  Every other structure
    constant follows from them by the Leibniz identity

        [x^e d_p, x^f d_q] = x^e d_p(x^f) d_q - x^f d_q(x^e) d_p
                             + x^(e+f) [d_p, d_q],

    which is exact algebra, and from antisymmetry.  The test suite keeps
    the direct path (bracket each pair of basis fields, certify its
    membership) as the reference the presentation must equal.
    """
    if truncation < 1:
        raise PreconditionViolated("truncation must be at least 1")
    flag, _ = is_product(module)
    if flag:
        raise ProductInput("the germ splits off a smooth factor")
    mod = module if module.minimal else minimalize(module)
    varnames = mod.varnames
    d = truncation
    gens = [tuple(f.coeffs) for f in mod.fields]
    s = len(gens)
    if s == 0:
        raise PreconditionViolated("the module has no generators")

    rels = syzygies(gens)
    coords = _QuotientCoordinates(rels, s, varnames, d)

    # representatives: the monomial multiple of a generator matching each
    # free column of the quotient; the class of x^a delta_i is the free
    # coordinate unit vector of (a, i), so coordinates come out directly in
    # the representative basis
    reps: List[VectorField] = []
    for col in coords.free_cols:
        comp, exp = coords.monos[col]
        h = [Polynomial.zero(varnames) for _ in range(s)]
        h[comp] = Polynomial.monomial(varnames, exp, 1)
        unit = coords.coords_of_vector(h)
        if any(unit[i] != (1 if coords.free_cols[i] == col else 0)
               for i in range(len(coords.free_cols))):
            raise CertificateFailure("representative class is not a unit vector")
        reps.append(mod.fields[comp].mul_function(
            Polynomial.monomial(varnames, exp, 1)))

    sb = standard_basis(gens, LOCAL)
    gen_brackets = {}
    for p, q in itertools.combinations(range(s), 2):
        c = mod.fields[p].bracket(mod.fields[q])
        h = _express_in_generators(tuple(c.coeffs), sb, d)
        gen_brackets[p, q] = [_low_terms(x, d) for x in h]

    dim = len(reps)
    labels = [coords.monos[col] for col in coords.free_cols]  # (p, e)
    zero = tuple(Fraction(0) for _ in range(dim))
    table = [[zero] * dim for _ in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        (p, e), (q, f) = labels[i], labels[j]
        ef = tuple(a + b for a, b in zip(e, f))
        vec: List[Dict[Exponent, Fraction]] = [{} for _ in range(s)]
        # x^e d_p(x^f) d_q - x^f d_q(x^e) d_p
        _add_shifted(vec[q], mod.fields[p].monomial_image(f), e, 1, d)
        _add_shifted(vec[p], mod.fields[q].monomial_image(e), f, -1, d)
        if p != q:      # x^(e+f) [d_p, d_q]
            sign = 1 if p < q else -1
            for k, terms in enumerate(gen_brackets[min(p, q), max(p, q)]):
                _add_shifted(vec[k], terms, ef, sign, d)
        row = tuple(coords.coords_of_vector(
            [Polynomial._of(v, varnames) for v in vec]))
        table[i][j] = row
        table[j][i] = tuple(-x if x else x for x in row)
    brackets = tuple(tuple(row) for row in table)

    faithful: Optional[bool] = None
    if d == 1:
        flat = []
        for r in reps:
            A = r.linear_part()
            flat.append([x for rw in A for x in rw])
        faithful = rank(flat) == len(reps)

    return LieAlgebraPresentation(d, tuple(reps), brackets, dim, faithful)


def _express_in_generators(vec, sb, d: int):
    """Quotients of a module element over the basis inputs, exact mod m^d."""
    cert = membership(vec, sb, precision=max(d, 1))
    if not cert.member:
        raise CertificateFailure("bracket is not in the module span")
    return cert.quotients


def is_solvable(pres: LieAlgebraPresentation) -> Tuple[bool, List[int]]:
    """Solvability of the presented algebra over the rationals.

    Runs the derived series on coordinates; returns the flag and the
    dimension profile, which either reaches zero (solvable) or repeats a
    positive value (not solvable).
    """
    dim = pres.dimension
    current = [{i: Fraction(1)} for i in range(dim)]
    dims = [dim]
    # the structure constants as sparse rows {t: value}, built once
    sparse = [[{t: val for t, val in enumerate(vec) if val} for vec in row]
              for row in pres.brackets]

    def bracket_coords(u, v):
        out: Dict[int, Fraction] = {}
        for i, a in u.items():
            for j, b in v.items():
                c = a * b
                for t, val in sparse[i][j].items():
                    out[t] = out.get(t, 0) + c * val
        return out

    while True:
        # [a, a] = 0 and [b, a] = -[a, b]: the pairs i < j span the same
        products = [bracket_coords(a, b)
                    for i, a in enumerate(current) for b in current[i + 1:]]
        nxt, _ = echelon(products)
        dims.append(len(nxt))
        if not nxt:
            return True, dims
        if len(nxt) == dims[-2]:
            return False, dims
        current = nxt


def ad_matrix(pres: LieAlgebraPresentation, index: int) -> List[List[Fraction]]:
    """Matrix of ad(b_index) acting on the presented basis, columns are
    bracket images."""
    dim = pres.dimension
    return [[pres.brackets[index][j][t] for j in range(dim)]
            for t in range(dim)]


def nilpotency_check(pres: LieAlgebraPresentation, index: int) -> bool:
    """Is ad of the given basis field nilpotent on the truncated algebra?"""
    return is_zero_matrix(mat_pow(ad_matrix(pres, index), pres.dimension + 1))


def center_dimension(pres: LieAlgebraPresentation) -> int:
    """Dimension of the center of the truncated algebra."""
    dim = pres.dimension
    rows = []
    for j in range(dim):
        for t in range(dim):
            rows.append([pres.brackets[i][j][t] for i in range(dim)])
    return dim - rank(rows)
