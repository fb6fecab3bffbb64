"""Weighted normal forms for vector fields and defining equations.

Everything here works modulo a truncation order d: coordinate changes are
polynomial maps stored together with an inverse that is valid below degree d,
and every public operation re-verifies its own output (transformed fields
satisfy the claimed resonance pattern, the final equation matches
unit * f o change).  A coordinate change is certified once, where it is
made (`CoordChange.make` checks its round trip one way) or returned
(`reorder`), and not after every composition: two changes that invert
below their orders compose to one that inverts below the smaller order,
by algebra alone.  So every change whose apply, unapply or push_field
output feeds a result has been verified at the order it is used at.

`pd_normalize` and `straighten_unit_field` build their change from
tangent-to-identity steps x -> x + H in `_tangent_steps`.  The steps are
applied forward only: the images are composed and the field transported by
solving (I + DH).delta' = delta o (x + H), and no step is inverted.  The
composite is made once at the end, so `make` certifies its round trip, and
the returned field is certified by transport: delta'(images_i) equals
delta_i o images below the change's order, for the input field delta.
`make` solves the inverse degree by degree through the change's image
table (`PowerTable.inverse`), which keeps the monomials it forms, so the
round trip, the transport certificate, apply and push_field compose
through monomials already formed.

The driver `formal_structure` iterates three steps until the space of
diagonal symmetries of the equation stops growing: normalize one candidate
field so that it is homogeneous of degree zero for the weights of its own
semisimple part, multiply the equation by a unit so that the candidate's
cofactor becomes homogeneous of degree zero as well, and re-extract
diagonal symmetries in the new coordinates.

Each step exists once: `_diagonal` reads the weights off an S-N
decomposition, `_cofactor` is the series quotient, `_off_resonance` is
the Jacobi loop of both homological equations (on functions in
`homological_solve`, on fields in `_solve_field_equation`), which stops a
loop that cannot end once its passes outnumber its keys, and
`_resonant_unit` is the unit loop of both `unit_adjust` and
`factor_structure`, with one solve per degree.  Final identities compose
through the power table of the returned change.  The internals work on
polynomials, and jets are only their results: every product kept below
an order is formed below it by `sum_of_products` (a power as repeated
products), every inverse by `unit_inverse` and every field action by
`VectorField.apply` with that order.  Every public entry takes
polynomials and polynomial fields, and refuses a jet on entry
(poly.exact): a jet is known only below its order, and each entry would
have to answer for terms above it.

Each object is also computed once.  A round of `formal_structure` reads
the weights W once and each generator once (`_Reading`): its components
by W-multidegree and the S-N decomposition of its degree-zero component's
linear part, shared by generators with the same linear part.  The
candidate pick, `_pd_normalize` and the final pool all use that reading,
and the reading after the last normalization makes the pool, each entry
with the multidegree it was read under.  Each family of fields has one
local standard basis, shared by the pool and the generation check and
rebuilt only when a field is kept: the only standard basis formed here,
since {g} is one for (g) and `_exact_quotient` is plain long division by
g, as is each degree of the series quotient by F0.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from .errors import (CertificateFailure, NotAtOrigin, NotFree,
                     PreconditionViolated, ProductInput, TruncationTooSmall,
                     VanishesAtOrigin)
from .poly import (Jet, Polynomial, PowerTable, WeightSystem, as_poly, cut,
                   exact, exponents, linear_forms, remultiplies, split,
                   sum_of_products, unit_inverse)
from .vfield import VectorField, lie_bracket, split_field, vf_to_str
from .linalg import identity as mat_identity
from .linalg import (inverse, is_zero_matrix, mat_pow, nullspace, solve,
                     transpose)
# unused here; perfbench's tracer test checks that this name is rebound
from .linalg import rref  # noqa: F401
from .orderings import LOCAL
from .standard_bases import StandardBasis, membership, standard_basis
from .derlog import Germ, as_germ, diagonal_symmetry_space
from .liealg import SNDecomposition, sn_decompose

ROUND_CAP = 10


def default_truncation(f: Polynomial) -> int:
    return 2 * f.total_degree() + 2


# -- small exact linear algebra helpers ----------------------------------------


def _in_row_span(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]):
    """Coefficients expressing vec over the rows, or None."""
    return solve([[r[i] for r in rows] for i in range(len(vec))], vec,
                 len(rows))


def _wdeg(w: Sequence[Fraction], e: Tuple[int, ...]):
    """The weighted degree sum(w_i * e_i) of the monomial x^e."""
    return sum(wi * ei for wi, ei in zip(w, e))


# -- coordinate changes ---------------------------------------------------------


@dataclass(frozen=True)
class CoordChange:
    """A change of coordinates, stored as truncated polynomial maps.

    images[i] expresses the old coordinate x_i in the new coordinates, so
    substituting the images into the old equation gives the new one.
    inverse_images[i] expresses the new x_i in the old coordinates.  Both
    directions compose to the identity below degree `order`.  `make` solves
    psi o phi = x degree by degree through the images' power table and
    checks the round trip (images must be polynomials, one per variable,
    and Laurent images are refused); `reorder`
    checks it at its lower order; `then` composes two checked changes
    without a check of its own, which algebra makes unnecessary.  A field
    moved by a change is certified apart from it: `push_field` is exact
    below `order` once the round trip holds, and the normalizing steps,
    which transport their field without an inverse, check that the field
    is the transport of their input (see the module docstring).

    The round trip is checked one way, psi o phi = x for phi the images
    and psi the inverse images.  Below a fixed order the jets of maps that
    vanish at 0 with an invertible linear part form a group under
    composition, so a one-sided inverse is two-sided.  phi lies in it
    (`make` refuses other images, and `reorder` sees only changes from
    `make`, `then` or `identity`), and so does psi: psi o phi = x forces
    psi(0) = 0 and, modulo m^2, an invertible linear part.

    Power tables are cached per map, so each monomial in the images is
    formed once per map below `order`: apply, push_field and the
    round-trip check compose through the image table, unapply and `then`
    through the inverse one, built on first use.  A change from `make`
    holds the image table its inverse was solved through, which already
    keeps every monomial of the inverse.  The tables live and die with
    the change.
    """

    images: Tuple[Polynomial, ...]
    inverse_images: Tuple[Polynomial, ...]
    order: int

    @property
    def varnames(self) -> Tuple[str, ...]:
        return self.images[0].vars

    @property
    def n(self) -> int:
        return len(self.images)

    @cached_property
    def _image_powers(self) -> PowerTable:
        return PowerTable(self.images, self.order)

    @cached_property
    def _inverse_powers(self) -> PowerTable:
        return PowerTable(self.inverse_images, self.order)

    @classmethod
    def make(cls, images: Sequence[Polynomial], order: int) -> "CoordChange":
        """The change with these images, cut below `order`, and its inverse
        there, certified by the round trip.  The images are polynomials
        (poly.exact refuses a jet), one per variable."""
        if order < 1:
            raise PreconditionViolated("order must be at least 1")
        imgs = [cut(exact(p), order) for p in images]
        if not imgs or len(imgs) != len(imgs[0].vars):
            raise PreconditionViolated("need one image per variable")
        varnames = imgs[0].vars
        n = len(varnames)
        for p in imgs:
            if p.vars != varnames:
                raise PreconditionViolated("images over mixed variables")
            if p.constant_term() != 0:
                raise PreconditionViolated("images must vanish at the origin")
        # refuses Laurent images, before anything is formed
        table = PowerTable(imgs, order)
        # L[j][i] = coefficient of x_i in images[j]
        L = [[imgs[j].coeff(tuple(1 if t == i else 0 for t in range(n)))
              for i in range(n)] for j in range(n)]
        try:
            Linv = inverse(L)
        except ValueError:
            raise PreconditionViolated("matrix is not invertible") from None
        ch = cls(tuple(imgs), table.inverse(Linv), order)
        # the inverse's monomials are kept in the table, for the round-trip
        # check, apply and push_field
        ch.__dict__["_image_powers"] = table
        ch._verify()
        return ch

    @classmethod
    def identity(cls, varnames: Sequence[str], order: int) -> "CoordChange":
        xs = tuple(Polynomial.variable(tuple(varnames), i)
                   for i in range(len(varnames)))
        return cls(xs, xs, order)

    @classmethod
    def linear(cls, M: Sequence[Sequence[Fraction]], varnames: Sequence[str],
               order: int) -> "CoordChange":
        """Images x_j -> sum_i M[j][i] x_i."""
        return cls.make(linear_forms(M, varnames), order)

    def _verify(self):
        for i in range(self.n):
            if self.apply(self.inverse_images[i]) != \
                    Polynomial.variable(self.varnames, i):
                raise CertificateFailure("coordinate change does not invert")

    def apply(self, g: Polynomial) -> Polynomial:
        """The transformed function g o (images), valid below `order`; g
        must be a polynomial (poly.exact)."""
        return self._image_powers.compose(exact(g))

    def unapply(self, g: Polynomial) -> Polynomial:
        return self._inverse_powers.compose(exact(g))

    def push_field(self, delta: VectorField) -> VectorField:
        """Transport a field to the new coordinates.

        Valid below `order` when delta vanishes at the origin; fields with a
        constant part lose one order, so callers pad internally.
        """
        return VectorField([self.apply(delta.apply(q))
                            for q in self.inverse_images])

    def then(self, nxt: "CoordChange") -> "CoordChange":
        """First this change, then `nxt`, valid below min(orders).

        Not re-verified: when both steps invert below their orders, the
        images compose to phi o phi' and the inverses to psi' o psi, and
        phi o (phi' o psi') o psi = phi o psi = x modulo m^min(orders)
        because every map vanishes at the origin.  Whoever returns the
        composite verifies it (see the module docstring).
        """
        order = min(self.order, nxt.order)
        imgs = [cut(nxt.apply(p), order) for p in self.images]
        inv = [cut(self.unapply(q), order) for q in nxt.inverse_images]
        return CoordChange(tuple(imgs), tuple(inv), order)

    def reorder(self, order: int) -> "CoordChange":
        """The same change below a lower order, verified there.

        Both maps are cut at `order`, so the inverse already known is kept
        rather than computed again; the round trip is then checked once.
        """
        if order > self.order:
            raise PreconditionViolated("cannot raise the validity order")
        if order < 2:
            # below degree 2 every image vanishes: make refuses it alike
            raise PreconditionViolated("matrix is not invertible")
        ch = CoordChange(tuple(cut(p, order) for p in self.images),
                         tuple(cut(q, order) for q in self.inverse_images),
                         order)
        ch._verify()
        return ch

    def is_identity(self) -> bool:
        xs = tuple(Polynomial.variable(self.varnames, i) for i in range(self.n))
        return self.images == xs


# -- diagonal symmetries ---------------------------------------------------------


@dataclass(frozen=True)
class DiagonalSymmetrySpace:
    """Basis of the space of diagonal fields sigma with sigma(f) = lam * f."""

    basis: Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def diagonal_symmetries(f: Polynomial) -> DiagonalSymmetrySpace:
    p = exact(f)
    if p.is_zero():
        raise PreconditionViolated("zero polynomial has no symmetry space")
    rows = diagonal_symmetry_space(p)
    basis = tuple((tuple(Fraction(x) for x in w), Fraction(lam))
                  for lam, w in rows)
    return DiagonalSymmetrySpace(basis)


# -- the degreewise resonance solver ---------------------------------------------


def _require_linear(delta: VectorField):
    for c in delta.polynomials():
        for e in c.terms:
            if sum(e) != 1:
                raise PreconditionViolated("field must be linear")


def _check_multihomog(delta: VectorField, W: WeightSystem, key):
    keys = list(split_field(delta, W.field_term_degree))
    if len(keys) > 1:
        raise PreconditionViolated("input is not multihomogeneous")
    if keys and keys[0] != tuple(key):
        raise PreconditionViolated("multidegree does not match")


def _off_resonance(start: Dict, residual: Callable[[Dict], Dict],
                   eig: Callable[..., Fraction],
                   span: Callable[[], Iterable]) -> Optional[Dict]:
    """The Jacobi loop of both homological equations: from zero, whose
    residual is `start`, each pass subtracts r/eig(key) from every term of
    the residual r (a map from term keys to coefficients) whose eigenvalue
    is nonzero, until no such term is left.

    Both equations preserve degree, so after k passes the part of r off
    the resonance is T^k of start's, for one linear map T on the span V of
    the keys off the resonance in start's degrees, which `span` lists.
    When T^k v is zero, v, Tv, ..., T^(k-1) v are independent, so k is at
    most dim V: a loop that has not ended after dim V passes never ends.
    None when min(200, dim V) residual checks after the first guess do not
    end it; dim V is counted only for a loop that the first pass does not
    end."""
    sol: Dict = {}
    r = start
    cap = 200
    for checks in itertools.count():
        stuck = {k: c for k, c in r.items() if eig(k) != 0}
        if not stuck:
            return sol
        if checks == 1:
            cap = min(cap, sum(1 for k in span() if eig(k) != 0))
        if checks == cap:
            return None
        for k, c in stuck.items():
            sol[k] = sol.get(k, Fraction(0)) - c / eig(k)
        r = residual(sol)


def homological_solve(delta: VectorField, p: Polynomial, lam) -> Polynomial:
    """A polynomial q with delta(q) - lam*q + p supported on weight lam.

    delta must be a linear polynomial field and p a polynomial (a jet of
    either is refused); the weights are read off delta's diagonal entries
    and the off-diagonal part is eliminated by `_off_resonance`.
    """
    pp = exact(p)
    _require_linear(delta)
    lam = Fraction(lam)
    A = delta.linear_part()
    w = [A[i][i] for i in range(len(A))]

    def residual(q):
        qp = Polynomial(q, pp.vars)
        return (delta.apply(qp) - qp * lam + pp).terms

    n = len(pp.vars)
    q = _off_resonance(pp.terms, residual, lambda e: _wdeg(w, e) - lam,
                       lambda: (e for d in {sum(e) for e in pp.terms}
                                for e in exponents(n, d)))
    if q is None:
        raise PreconditionViolated(
            "resonance elimination does not terminate for these weights")
    if any(_wdeg(w, e) != lam for e in residual(q)):
        raise CertificateFailure("solver left terms off the target weight")
    return Polynomial(q, pp.vars)


def _solve_field_equation(delta0: VectorField, target: VectorField,
                          w: Sequence[Fraction]) -> VectorField:
    """H with [delta0, H] = target, for target supported off the resonance:
    `_off_resonance` on the terms x^e d_i, keyed (i, e), with eigenvalue
    <w,e> - w_i."""
    varnames = target.vars

    def eig(key):
        return _wdeg(w, key[1]) - w[key[0]]

    def terms(v: VectorField):
        return {(i, e): c for i, p in enumerate(v.polynomials())
                for e, c in p.terms.items()}

    def field(H) -> VectorField:
        return VectorField([Polynomial({e: c for (j, e), c in H.items()
                                        if j == i}, varnames)
                            for i in range(len(varnames))])

    def residual(H):
        r = terms(lie_bracket(delta0, field(H)) - target)
        if any(eig(k) == 0 for k in r):
            raise CertificateFailure("field solver hit a resonance")
        return r

    start = {k: -c for k, c in terms(target).items()}
    if any(eig(k) == 0 for k in start):
        raise PreconditionViolated("resonant term in field equation")
    n = len(varnames)
    H = _off_resonance(start, residual, eig,
                       lambda: ((i, e) for d in {sum(e) for _, e in start}
                                for e in exponents(n, d) for i in range(n)))
    if H is None:
        raise CertificateFailure("field homological equation did not converge")
    return field(H)


# -- normalizing one field --------------------------------------------------------


def _diagonal(dec: SNDecomposition) -> Optional[List[Fraction]]:
    """The diagonal of the semisimple part of an S-N decomposition, or None
    when that semisimple part is not diagonal."""
    S = dec.semisimple
    n = len(S)
    if any(S[i][j] != 0 for i in range(n) for j in range(n) if i != j):
        return None
    return [S[i][i] for i in range(n)]


def _semisimple_diagonal(v: VectorField) -> Optional[List[Fraction]]:
    """The diagonal of the semisimple part of v's linear part, or None when
    that semisimple part is not diagonal."""
    return _diagonal(sn_decompose(v.linear_part()))


def _weight_classes(W: WeightSystem, n: int) -> List[List[int]]:
    buckets: Dict[Tuple[Fraction, ...], List[int]] = {}
    for i in range(n):
        key = tuple(row[i] for row in W.rows)
        buckets.setdefault(key, []).append(i)
    return [buckets[k] for k in sorted(buckets)]


def _diagonalizing_prep(dec, W: WeightSystem, varnames, order) -> CoordChange:
    """A linear change making the semisimple part of `dec` diagonal.

    `dec` is the S-N decomposition of the linear part.  Mixes only variables
    of equal multiweight, so diagonal symmetry fields for W are preserved.
    """
    S = dec.semisimple
    n = len(S)
    classes = _weight_classes(W, n)
    for i in range(n):
        for j in range(n):
            same = any(i in cl and j in cl for cl in classes)
            if not same and S[i][j] != 0:
                raise CertificateFailure("semisimple part crosses weight blocks")
    Q = [[Fraction(0)] * n for _ in range(n)]
    for cl in classes:
        sub = [[S[i][j] for j in cl] for i in cl]
        cols = []
        # S does not cross the classes, so each block's eigenvalues are
        # among S's; the others have no eigenvectors in the block
        for lam in sorted(dec.eigenvalues):
            shifted = [[sub[i][j] - (lam if i == j else 0)
                        for j in range(len(cl))] for i in range(len(cl))]
            cols.extend(nullspace(shifted))
        if len(cols) != len(cl):
            raise CertificateFailure("semisimple part is not diagonalizable")
        for c, vec in enumerate(cols):
            for r, i in enumerate(cl):
                Q[i][cl[c]] = vec[r]
    # the columns of Q are eigenvectors from independent eigenspace bases
    return CoordChange.linear(inverse(transpose(Q)), varnames, order)


def _transport(rhs: Sequence[Polynomial], H: Sequence[Polynomial],
               order: int) -> VectorField:
    """The field d' with (I + DH).d' = rhs below `order`.

    Solved by the Neumann series d' = rhs - DH.rhs + DH.(DH.rhs) - ...: H
    is homogeneous of some degree m >= 2, so each increment starts m - 1
    degrees above the one before, and the series ends below `order` after
    at most (order - 1) / (m - 1) increments.  Each increment is formed
    with `sum_of_products`, only below `order`.
    """
    n = len(H)
    dH = [[h.diff(j) for j in range(n)] for h in H]
    out, term = list(rhs), list(rhs)
    while any(not t.is_zero() for t in term):
        term = [-sum_of_products(zip(row, term), order) for row in dH]
        out = [a + b for a, b in zip(out, term)]
    return VectorField(out)


def _tangent_steps(start: VectorField, prep: Optional[CoordChange],
                   cur: VectorField, order: int, degrees: Sequence[int],
                   shifts: Callable[[VectorField],
                                    Optional[Sequence[Polynomial]]]
                   ) -> Tuple[CoordChange, VectorField]:
    """Tangent-to-identity steps applied forward, and one inversion.

    `start` is a field cut below `order`, `prep` a linear preparation (or
    None) and `cur` the field `prep` moves `start` to.  For each degree m in
    `degrees`, shifts(part) reads the coefficient terms of degree m of the
    current field and returns the shifts H of the next step x -> x + H
    (homogeneous of degree at least 2), or None for no step.  A step
    composes the accumulated images with x + H through one power table, and
    `_transport` moves the field from field o (x + H), composed through the
    same table.  No step is inverted.

    After the loop the change is made once (`CoordChange.make`: one
    inversion, degree by degree through the image table, and its
    round-trip check), and the returned field is
    certified as the transport of `start`: cur(images_i) = start_i o images
    below the change's order, which is `order`, or `order` - 1 when `start`
    has a constant part (the image's degree-`order` terms then reach degree
    `order` - 1 of cur(images_i)).
    """
    valid = order if start.vanishes_at_origin() else order - 1
    if valid < 2:
        # below degree 2 every image vanishes: make refuses it alike
        raise PreconditionViolated("matrix is not invertible")
    varnames = start.vars
    xs = [Polynomial.variable(varnames, i) for i in range(len(varnames))]
    imgs = list(xs if prep is None else prep.images)
    stepped = False
    # the current field by coefficient degree, split again after each step
    parts = split_field(cur, lambda e, i: sum(e))
    for m in degrees:
        H = shifts(parts.get(m, VectorField.zero(varnames)))
        if H is None:
            continue
        table = PowerTable([x + h for x, h in zip(xs, H)], order)
        imgs = [table.compose(p) for p in imgs]
        cur = _transport([table.compose(c) for c in cur.coeffs], H, order)
        parts = split_field(cur, lambda e, i: sum(e))
        stepped = True
    if prep is None and not stepped:
        return CoordChange.identity(varnames, valid), cur
    change = CoordChange.make(imgs, valid)
    for p, c in zip(imgs, start.coeffs):
        if cur.apply(p, valid) != change.apply(c):
            raise CertificateFailure(
                "normalized field is not the transport of the input")
    return change, cur


def pd_normalize(delta: VectorField, weights: WeightSystem,
                 order: int) -> Tuple[CoordChange, VectorField]:
    """Make a field homogeneous of degree zero for its own diagonal weights.

    The input must vanish at the origin and be multihomogeneous of degree
    zero for `weights`; the change is assembled from a block-diagonal linear
    preparation and tangent-to-identity steps, one per degree below `order`,
    applied forward only (`_tangent_steps`).  It is inverted and its round
    trip checked once, as a whole, and the field is certified as the
    transport of the input under it.  The field must be a polynomial
    field (a jet field is refused); the normalized field is returned as a
    jet field of `order`.
    """
    total, field, _ = _pd_normalize(delta, weights, order)
    return total, field.truncate(order)


def _pd_normalize(delta: VectorField, weights: WeightSystem, order: int,
                  dec: Optional[SNDecomposition] = None
                  ) -> Tuple[CoordChange, VectorField, List[Fraction]]:
    """pd_normalize, with the normalized field as a polynomial field
    (its terms all lie below `order`), plus the diagonal of the semisimple
    part of its linear part (its weights).

    `dec` is the S-N decomposition of delta's linear part when the caller
    has it (`formal_structure` read it to pick delta); else it is formed
    here."""
    varnames = delta.vars
    start = delta.cut(order)
    if not delta.vanishes_at_origin():
        raise PreconditionViolated("field must vanish at the origin")
    _check_multihomog(delta, weights, key=(Fraction(0),) * weights.s)
    cur, prep = start, None
    if dec is None:
        dec = sn_decompose(start.linear_part())
    w = _diagonal(dec)
    if w is None:
        prep = _diagonalizing_prep(dec, weights, varnames, order)
        cur = prep.push_field(cur)
        w = _semisimple_diagonal(cur)
        if w is None:
            raise CertificateFailure("preparation failed to diagonalize")
    delta0 = VectorField.from_matrix(cur.linear_part(), varnames)

    def shifts(part: VectorField) -> Optional[Sequence[Polynomial]]:
        off = VectorField([Polynomial._of(
            {e: c for e, c in p.terms.items() if _wdeg(w, e) != w[i]},
            varnames) for i, p in enumerate(part.coeffs)])
        if off.is_zero():
            return None
        return _solve_field_equation(delta0, off, w).coeffs

    total, cur = _tangent_steps(start, prep, cur, order, range(2, order),
                                shifts)
    for i, c in enumerate(cur.coeffs):
        for e in c.terms:
            if _wdeg(w, e) != w[i]:
                raise CertificateFailure("normalized field is not homogeneous")
    S_field = VectorField.diagonal(w, varnames)
    N_field = cur - S_field
    if not lie_bracket(S_field, N_field).cut(order).is_zero():
        raise CertificateFailure("parts of the normal form do not commute")
    return total, cur, w


# -- cofactors and unit adjustment ------------------------------------------------


def _series_quotient(g: Polynomial, f: Polynomial,
                     order: int) -> Optional[Polynomial]:
    """Some a with a*f = g below `order`, found degree by degree, or None.

    With F0 the lowest form of f, each step divides the lowest form of the
    remainder r = g - a*f (cut below `order`) exactly by F0 and adds the
    quotient to a, which clears that degree of r; multiplying by F0 is
    injective, so each part of a is unique when it exists.
    """
    if f.is_zero():
        raise PreconditionViolated("cannot divide by zero")
    f0 = split(f, sum)[f.low_degree()]
    a = Polynomial.zero(f.vars)
    r = cut(g, order)
    while not r.is_zero():
        am = _exact_quotient(split(r, sum)[r.low_degree()], f0)
        if am is None:
            return None
        a = a + am
        r = r - sum_of_products([(am, f)], order)
    return a


def _exact_quotient(p: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """p / g when g divides p exactly, else None: long division by the
    graded-lex lead term of g, whose remainder vanishes exactly when g
    divides, since {g} is a standard basis of (g).  The unique quotient is
    re-multiplied before it is returned."""
    if g.is_zero():
        raise PreconditionViolated("cannot divide by zero")
    p._check_vars(g)
    lead, lc = g.items_sorted()[0]
    rem, quot = dict(p.terms), {}
    while rem:
        e = max(rem, key=lambda e: (sum(e), e))
        shift = tuple(x - y for x, y in zip(e, lead))
        if min(shift, default=0) < 0:
            return None
        quot[shift] = k = rem[e] / lc
        for te, tc in g.terms.items():
            m = tuple(x + y for x, y in zip(te, shift))
            rem[m] = rem.get(m, 0) - k * tc
            if not rem[m]:
                del rem[m]
    q = Polynomial._of(quot, p.vars)
    if not remultiplies([(q,)], [(g,)], [(p,)]):
        raise CertificateFailure("exact quotient failed re-multiplication")
    return q


def _cofactor(delta: VectorField, f: Polynomial, order: int) -> Polynomial:
    """a with delta(f) = a*f below `order`: the series quotient of
    delta(f), cut below `order`, by f.  An exact quotient of that cut has
    degree below order - lowdeg(f), where the series quotient is unique,
    so where f divides exactly the two are equal."""
    a = _series_quotient(delta.apply(f, order), f, order)
    if a is None:
        raise PreconditionViolated("field does not preserve the ideal")
    return a


def _resonant_unit(delta: VectorField, frep: Polynomial, w: Sequence[Fraction],
                   weights: WeightSystem, order: int
                   ) -> Tuple[Polynomial, Polynomial]:
    """(u, cofactor of delta on u*frep), the cofactor made w-resonant.

    w is the diagonal of the semisimple part of delta's linear part.  Each
    degree of the cofactor that is not resonant costs one homological solve
    on the whole degree part.  delta0, the linear part, is checked once to
    have W-multidegree zero, so it maps each W-component into itself; the
    solver acts term by term and leaves a converged component alone, so
    that solve is, term for term, the sum of the components' solves.
    """
    varnames = frep.vars
    delta0 = VectorField.from_matrix(delta.linear_part(), varnames)
    _check_multihomog(delta0, weights, key=(Fraction(0),) * weights.s)
    a = _cofactor(delta, frep, order)
    u = Polynomial.const(varnames, 1)
    for m in range(1, order):
        am = split(a, sum).get(m)
        if am is None or all(_wdeg(w, e) == 0 for e in am.terms):
            continue
        q = homological_solve(delta0, am, 0)
        factor = Polynomial.const(varnames, 1) + q
        u = sum_of_products([(u, factor)], order)
        a = a + sum_of_products(
            [(delta.apply(factor, order), unit_inverse(factor, order))],
            order)
    return u, a


def unit_adjust(f: Polynomial, delta: VectorField, weights: WeightSystem,
                order: int) -> Tuple[Jet, Jet]:
    """A unit u with u(0)=1 making the cofactor of delta on u*f resonant.

    The cofactor of delta on u*f has, below degree order - lowdeg(f), only
    terms of weighted degree zero for the diagonal weights of delta's linear
    part.  When f is multihomogeneous, u comes out multihomogeneous of
    degree zero for `weights`.  The loop is `_resonant_unit`, which
    `factor_structure` shares; here it is followed by the checks of both
    claims on u*f.  f must be a polynomial and delta a polynomial field (a
    jet of either is refused); u and u*f are returned as jets of `order`.
    """
    frep = cut(exact(f), order)
    delta.polynomials()  # refuses a jet field before anything is formed
    w = _semisimple_diagonal(delta)
    if w is None:
        raise PreconditionViolated("semisimple part must be diagonal")
    u, fprime = _unit_adjust(frep, delta, w, weights, order)
    return Jet(u, order), Jet(fprime, order)


def _unit_adjust(frep: Polynomial, delta: VectorField, w: Sequence[Fraction],
                 weights: WeightSystem, order: int
                 ) -> Tuple[Polynomial, Polynomial]:
    """unit_adjust, on polynomials, for a delta whose weights w, the
    diagonal of the semisimple part of its linear part, are already known:
    (u, u*frep below `order`).  Terms of frep at or above `order` change
    nothing."""
    u, a = _resonant_unit(delta, frep, w, weights, order)
    fprime = sum_of_products([(u, frep)], order)
    check = order - frep.low_degree()
    if delta.apply(fprime, check) != sum_of_products([(a, fprime)], check):
        raise CertificateFailure("adjusted cofactor fails its identity")
    if any(_wdeg(w, e) != 0 for e in cut(a, check).terms):
        raise CertificateFailure("adjusted cofactor is not resonant")
    return u, fprime


# -- straightening a unit field ----------------------------------------------------


def straighten_unit_field(delta: VectorField, order: int) -> CoordChange:
    """Coordinates in which a field with delta(0) != 0 becomes a partial.

    The target direction is the first index whose coefficient has a nonzero
    constant term.  The field must be a polynomial field (a jet field is
    refused).
    """
    inner = order + 1
    start = delta.cut(inner)
    const = delta.constant_part()
    if all(c == 0 for c in const):
        raise VanishesAtOrigin("field has no constant part to straighten")
    t = next(i for i, c in enumerate(const) if c != 0)
    varnames = delta.vars
    n = len(varnames)
    cur, prep = start, None
    if list(const) != [Fraction(1 if i == t else 0) for i in range(n)]:
        B = mat_identity(n)
        for i in range(n):
            B[i][t] = Fraction(const[i])
        prep = CoordChange.linear(B, varnames, inner)
        cur = prep.push_field(cur)

    def shifts(part: VectorField) -> Optional[List[Polynomial]]:
        # after the preparation the constant part is d_t, so the terms of
        # degree m >= 1 are those of cur - d_t; lifted in x_t they give
        # shifts of degree m + 1 <= order (at m = order they would vanish
        # below inner)
        if part.is_zero():
            return None
        return [Polynomial({tuple(ei + 1 if i == t else ei
                                  for i, ei in enumerate(e)): c / (e[t] + 1)
                            for e, c in p.terms.items()}, varnames)
                for p in part.coeffs]

    change, cur = _tangent_steps(start, prep, cur, inner, range(1, order),
                                 shifts)
    if not (cur - VectorField.partial(varnames, t)).cut(order).is_zero():
        raise CertificateFailure("field did not straighten to a partial")
    return change


def remove_variable(p: Polynomial, t: int) -> Polynomial:
    """Drop an unused variable from the ring."""
    newvars = p.vars[:t] + p.vars[t + 1:]
    terms = {}
    for e, c in p.terms.items():
        if e[t] != 0:
            raise PreconditionViolated("polynomial depends on that variable")
        terms[e[:t] + e[t + 1:]] = c
    return Polynomial(terms, newvars)


def constant_field_split(f: Polynomial, fields: Sequence[VectorField]):
    """Split off a smooth factor along an exactly constant field.

    Scans the fields for one with constant coefficients; when found, an exact
    linear change makes f independent of one variable, and the reduced
    polynomial is returned as (reduced, dropped_index, change).  Returns None
    when no field qualifies.
    """
    witness = None
    for g in fields:
        coeffs = g.polynomials()
        if any(c.total_degree() > 0 for c in coeffs):
            continue
        if all(c.is_zero() for c in coeffs):
            continue
        witness = g
        break
    if witness is None:
        return None
    order = f.total_degree() + 2
    change = straighten_unit_field(witness, order)
    moved = f.substitute(list(change.images))
    t = next(i for i, c in enumerate(witness.constant_part()) if c != 0)
    reduced = remove_variable(moved, t)
    return reduced, t, change


# -- the structure pipeline --------------------------------------------------------


@dataclass(frozen=True)
class FormalStructure:
    """Diagonal and nilpotent generators of the log fields, after changes.

    sigmas are exact diagonal fields; nus carry jet coefficients at the
    truncation.  weights[i] is the weight row of sigmas[i] and degrees[i] its
    cofactor on the transformed equation.  eigentable[i][j] is the bracket
    eigenvalue of nus[j] for sigmas[i].  The transformed equation equals
    unit * (f o change) below the truncation.  Only `formal_structure`
    makes one.
    """

    sigmas: Tuple[VectorField, ...]
    nus: Tuple[VectorField, ...]
    eigentable: Tuple[Tuple[Fraction, ...], ...]
    weights: Tuple[Tuple[Fraction, ...], ...]
    degrees: Tuple[Fraction, ...]
    unit: Jet
    change: CoordChange
    trunc: int
    stabilized: bool
    euler_index: Optional[int]
    transformed: Jet

    @property
    def s(self) -> int:
        return len(self.sigmas)

    @property
    def r(self) -> int:
        return len(self.nus)


def _weight_system_of(fd: Polynomial) -> Tuple[WeightSystem, List[Fraction]]:
    rows = diagonal_symmetry_space(fd)
    W = WeightSystem.make([w for _, w in rows])
    return W, [Fraction(lam) for lam, _ in rows]


class _Reading:
    """A generator read against one round's weights W.

    `parts` are its components by W-multidegree and `zero` the one of
    degree zero, or None when that is absent or zero.  The S-N
    decomposition of zero's linear part (`sn`) and the diagonal of its
    semisimple part (`diagonal`, None when not diagonal) are formed once,
    when first read: by the candidate pick, by `_pd_normalize` for the
    pick, and by the final pool.  The readings of one round share
    `decompositions`, keyed by the matrix, so generators whose components
    have the same linear part (often zero) share its decomposition.
    """

    def __init__(self, g: VectorField, W: WeightSystem,
                 decompositions: Dict[tuple, SNDecomposition]):
        self.parts = split_field(g, W.field_term_degree)
        zero = self.parts.get((Fraction(0),) * W.s)
        self.zero = None if zero is None or zero.is_zero() else zero
        self._decompositions = decompositions

    @cached_property
    def sn(self) -> SNDecomposition:
        A = self.zero.linear_part()
        key = tuple(tuple(row) for row in A)
        if key not in self._decompositions:
            self._decompositions[key] = sn_decompose(A)
        return self._decompositions[key]

    @cached_property
    def diagonal(self) -> Optional[List[Fraction]]:
        return _diagonal(self.sn)


def _pick_candidate(readings: Sequence[_Reading], W: WeightSystem
                    ) -> Optional[_Reading]:
    """The reading whose degree-zero component is the next field to
    normalize: the lowest (then first by text) among those whose
    semisimple part is not a diagonal symmetry for W, or None."""
    cands = [rd for rd in readings if rd.zero is not None and (
        rd.diagonal is None or _in_row_span(W.rows, rd.diagonal) is None)]
    if not cands:
        return None
    return min(cands, key=lambda rd: (rd.zero.low_field_degree(),
                                      vf_to_str(rd.zero)))


def _local_basis(family: Sequence[VectorField]) -> Optional[StandardBasis]:
    """The local standard basis of a family of fields, None when empty."""
    if not family:
        return None
    return standard_basis([g.polynomials() for g in family], LOCAL)


def _local_member(field: VectorField, basis: Optional[StandardBasis],
                  precision: int) -> bool:
    """Exact local (Mora) membership of `field` in the family whose
    `_local_basis` is `basis`, with jet quotients of that precision."""
    if basis is None:
        return field.is_zero()
    return membership(field.polynomials(), basis, precision=precision).member


def _kill_diagonal_part(comp: VectorField, diag: Optional[List[Fraction]],
                        W: WeightSystem,
                        sigmas: Sequence[VectorField]) -> VectorField:
    """comp less the sigmas that make up its semisimple part, whose
    diagonal `diag` (None when not diagonal) the caller has read."""
    if diag is None:
        raise CertificateFailure(
            "generator has a non-diagonal semisimple part at this truncation")
    coeffs = _in_row_span(W.rows, diag)
    if coeffs is None:
        raise CertificateFailure(
            "generator's semisimple part escapes the symmetry space")
    out = comp
    for c, sig in zip(coeffs, sigmas):
        if c != 0:
            out = out - sig.scale(c)
    return out


def formal_structure(f: Union[Germ, Polynomial],
                     trunc: Optional[int] = None) -> FormalStructure:
    """Iterated normalization of a defining equation and its log fields.

    Returns diagonal symmetry fields, nilpotent complements with their
    bracket eigenvalues, the accumulated unit and coordinate change, and a
    flag telling whether the symmetry space stopped growing before the round
    cap.  All claims hold below the truncation degree d.

    The generation check tests exact local (Mora) membership of each
    module generator, cut below d, in the module of the sigmas and the
    kept fields; the pool keeps a field only when that same test fails.
    The claim that holds in general is generation modulo m^d Der, which
    exact membership of cut fields can miss; the fix for that, open in
    ROADMAP.md, changes only `_local_member`.  d must exceed the order
    of f, so the transformed equation is nonzero below d.
    """
    germ = as_germ(f)
    f = germ.f
    if not isinstance(f, Polynomial):
        raise PreconditionViolated("polynomial input required")
    if f.is_zero():
        raise PreconditionViolated("zero polynomial")
    if f.constant_term() != 0:
        raise NotAtOrigin("equation must vanish at the origin")
    d = default_truncation(f) if trunc is None else int(trunc)
    if d < 2:
        raise TruncationTooSmall("need truncation at least 2")
    if d <= f.low_degree():
        raise TruncationTooSmall(
            f"need truncation above the order {f.low_degree()} of f")
    module = germ.module
    if germ.product[0]:
        raise ProductInput("split the smooth factor first")
    varnames = f.vars
    n = len(varnames)
    k = len(module.fields)
    d_work = d + max(f.low_degree(), 2)
    fcur = cut(f, d_work)
    gens = [g.cut(d_work) for g in module.fields]
    unit_rep = Polynomial.const(varnames, 1)
    change = CoordChange.identity(varnames, d_work)
    stabilized = False
    for rnd in range(ROUND_CAP + 1):
        # each round reads the weights and the generators once; the
        # reading after the last normalization also makes the pool
        fd = cut(fcur, d)
        W, lams = _weight_system_of(fd)
        decompositions: Dict[tuple, SNDecomposition] = {}
        readings = [_Reading(g, W, decompositions) for g in gens]
        if rnd == ROUND_CAP:
            break
        cand = _pick_candidate(readings, W)
        if cand is None:
            stabilized = True
            break
        # the tangent steps keep the linear part, so wnew, the diagonal
        # of its semisimple part, is the one the normalization used
        ch1, delta_n, wnew = _pd_normalize(cand.zero, W, d_work, cand.sn)
        sig_old = [VectorField.diagonal(row, varnames) for row in W.rows]
        fcur = ch1.apply(fcur)
        gens = [ch1.push_field(g) for g in gens]
        unit_rep = ch1.apply(unit_rep)
        for sf in sig_old:
            if not (ch1.push_field(sf) - sf).cut(d).is_zero():
                raise CertificateFailure(
                    "diagonal symmetry moved under a weighted change")
        change = change.then(ch1)
        # replace the representative by its multidegree component; the two
        # must agree below d, where the symmetries are certified
        proj = split(fcur, W.monomial_degree).get(
            tuple(lams), Polynomial.zero(varnames))
        if not cut(fcur - proj, d).is_zero():
            raise CertificateFailure(
                "equation left its multidegree under a weighted change")
        fcur = proj
        u_new, fcur = _unit_adjust(fcur, delta_n, wnew, W, d_work)
        unit_rep = sum_of_products([(unit_rep, u_new)], d_work)
        if len(split(cut(fcur, d), lambda e: _wdeg(wnew, e))) > 1:
            raise CertificateFailure(
                "equation failed to become weighted homogeneous")

    s = W.s
    sigmas = [VectorField.diagonal(row, varnames) for row in W.rows]
    degrees = list(lams)
    zkey = (Fraction(0),) * s
    # each entry keeps the multidegree it was split under, which is its
    # own: it is one split component cut below d, a subset of its terms,
    # and `_kill_diagonal_part` subtracts diagonal fields, whose terms
    # x_i d_i all have multidegree 0, only from the degree-0 component
    pool = []
    for rd in readings:
        for key in sorted(rd.parts):
            comp = rd.parts[key].cut(d)
            if comp.is_zero():
                continue
            if key == zkey:
                comp = _kill_diagonal_part(comp, rd.diagonal, W, sigmas)
                if comp.is_zero():
                    continue
            pool.append((key, comp))
    pool.sort(key=lambda kv: (kv[1].low_field_degree(), vf_to_str(kv[1])))
    # one local basis of sigmas + kept, rebuilt after each accepted field,
    # serves the pool and the generation check
    kept: List[VectorField] = []
    mdegs = []
    basis = _local_basis(sigmas)
    for key, cand in pool:
        if len(kept) == k - s:
            break
        if not _local_member(cand, basis, d):
            kept.append(cand)
            mdegs.append(key)
            basis = _local_basis(sigmas + kept)
    if len(kept) != k - s:
        raise CertificateFailure("could not complete a generating system")
    for g in gens:
        if not _local_member(g.cut(d), basis, d):
            raise CertificateFailure("completed system fails to generate")
    eigentable = []
    for i in range(s):
        row = []
        for nu, mdeg in zip(kept, mdegs):
            lamij = mdeg[i]
            if lie_bracket(sigmas[i], nu) != nu.scale(lamij):
                raise CertificateFailure("bracket eigenvalue fails to verify")
            row.append(lamij)
        eigentable.append(row)
    for nu in kept:
        Anu = nu.linear_part()
        if not is_zero_matrix(mat_pow(Anu, n + 1)):
            raise CertificateFailure("complement field is not nilpotent")
    euler_index = None
    for i in range(s):
        if degrees[i] != 0:
            euler_index = i
            lam = degrees[i]
            sigmas[i] = sigmas[i].scale(Fraction(1) / lam)
            W = WeightSystem.make(
                [tuple(x / lam for x in row) if j == i else row
                 for j, row in enumerate(W.rows)])
            degrees[i] = Fraction(1)
            eigentable[i] = [x / lam for x in eigentable[i]]
            break
    unit_final = cut(unit_rep, d)
    if unit_final.constant_term() != 1:
        raise CertificateFailure("unit lost its normalization")
    change_out = change.reorder(d)
    recomputed = sum_of_products([(unit_rep, change_out.apply(f))], d)
    if recomputed != fd:
        raise CertificateFailure("transformed equation fails its identity")
    for i in range(s):
        if sigmas[i].apply(fd, d) != fd * degrees[i]:
            raise CertificateFailure("diagonal field cofactor mismatch")
    return FormalStructure(
        sigmas=tuple(sigmas),
        nus=tuple(nu.truncate(d) for nu in kept),
        eigentable=tuple(tuple(row) for row in eigentable),
        weights=tuple(tuple(row) for row in W.rows),
        degrees=tuple(degrees),
        unit=Jet(unit_final, d),
        change=change_out,
        trunc=d,
        stabilized=stabilized,
        euler_index=euler_index,
        transformed=Jet(fd, d),
    )


def verify_cor16(fs: FormalStructure) -> List[bool]:
    """Degree-sum check: each sigma gives f' degree sum(w) + sum(lambda).

    Requires a free input, detected here as s + r = n.  formal_structure
    has checked sigma_i(fd) = degrees[i] * fd below d on its transformed
    equation fd, which is nonzero below d, so sigma_i(fd) - target * fd
    vanishes below d exactly when degrees[i] = target.
    """
    if fs.s + fs.r != fs.change.n:
        raise NotFree("degree-sum check needs s + r = n")
    return [deg == sum(w, Fraction(0)) + sum(lams, Fraction(0))
            for deg, w, lams in zip(fs.degrees, fs.weights, fs.eigentable)]


# -- user-supplied factorizations ---------------------------------------------------


def _power_below(p: Polynomial, k: int, order: int) -> Polynomial:
    """p^k below `order`, as k products formed below it."""
    out = Polynomial.const(p.vars, 1)
    for _ in range(k):
        out = sum_of_products([(out, p)], order)
    return out


def _jet_root(g: Polynomial, k: int, order: int) -> Polynomial:
    """The k-th root with constant term 1, below `order`: Newton's
    iteration, with every product and inverse formed below `order`."""
    if g.constant_term() != 1:
        raise PreconditionViolated("root needs constant term 1")
    g = cut(g, order)
    r = Polynomial.const(g.vars, 1)
    steps = 1
    good = 1
    while good < order:
        good *= 2
        steps += 1
    kf = Fraction(1, k)
    for _ in range(steps):
        # r <- r - (r^k - g) / (k r^(k-1))
        low = _power_below(r, k - 1, order)
        excess = sum_of_products([(low, r)], order) - g
        r = r - sum_of_products([(excess, unit_inverse(low, order))],
                                order) * kf
    if _power_below(r, k, order) != g:
        raise CertificateFailure("root iteration failed to converge")
    return r


@dataclass(frozen=True)
class FactorStructure:
    """Per-factor unit adjustments for a user-supplied factorization.

    units[t][i] multiplies the transformed factor i so that sigma t acts on
    it with the constant eigenvalue lambdas[t][i]; the identities are checked
    below checked_orders[i].
    """

    factors: Tuple[Jet, ...]
    multiplicities: Tuple[int, ...]
    residual: Jet
    units: Tuple[Tuple[Jet, ...], ...]
    lambdas: Tuple[Tuple[Fraction, ...], ...]
    checked_orders: Tuple[int, ...]


def factor_structure(fs: FormalStructure, f: Polynomial,
                     factors: Sequence[Polynomial]) -> FactorStructure:
    """Unit-adjust each supplied factor to a constant eigenvalue per sigma.

    Multiplicities come from repeated exact division; whatever is left after
    dividing all factors out must be a unit germ.  The last factor absorbs
    the residual so that the adjusted factorization multiplies back to the
    transformed equation up to a constant.
    """
    if not factors:
        raise PreconditionViolated("need at least one factor")
    d = fs.trunc
    rem = f
    mults = []
    for g in factors:
        if g.is_zero():
            raise PreconditionViolated("a supplied factor does not divide")
        if g.total_degree() == 0:
            raise PreconditionViolated("a supplied factor is a nonzero constant")
        count = 0
        while True:
            q = _exact_quotient(rem, g)
            if q is None:
                break
            rem = q
            count += 1
        if count == 0:
            raise PreconditionViolated("a supplied factor does not divide")
        mults.append(count)
    if rem.constant_term() == 0:
        raise PreconditionViolated("leftover factor is not a unit germ")
    freps = [fs.change.apply(g) for g in factors]
    res = sum_of_products([(as_poly(fs.unit), fs.change.apply(rem))], d)
    c0 = res.constant_term()
    target = res * (Fraction(1) / c0)
    m = len(factors)
    units_rows = []
    lambda_rows = []
    checked = [d - fr.low_degree() for fr in freps]
    no_weights = WeightSystem.make([])
    for t in range(fs.s):
        sigma = fs.sigmas[t]
        urow: List[Polynomial] = []
        lrow: List[Fraction] = []
        for i in range(m):
            if i < m - 1:
                u, a = _resonant_unit(sigma, freps[i], fs.weights[t],
                                      no_weights, d)
            else:
                acc = Polynomial.const(f.vars, 1)
                for j in range(m - 1):
                    acc = sum_of_products(
                        [(acc, _power_below(urow[j], mults[j], d))], d)
                u = _jet_root(sum_of_products(
                    [(target, unit_inverse(acc, d))], d), mults[m - 1], d)
                prod = sum_of_products([(u, freps[i])], d)
                a = _series_quotient(sigma.apply(prod, d), prod, d)
                if a is None:
                    raise CertificateFailure(
                        "balancing unit does not yield a cofactor")
            lam = a.constant_term()
            adjusted = sum_of_products([(u, freps[i])], d)
            diff = cut(sigma.apply(adjusted) - adjusted * lam, checked[i])
            if not diff.is_zero():
                raise CertificateFailure(
                    "factor eigenvalue fails; factor may be reducible")
            urow.append(u)
            lrow.append(lam)
        units_rows.append(tuple(Jet(u, d) for u in urow))
        lambda_rows.append(tuple(lrow))
    return FactorStructure(
        factors=tuple(Jet(fr, d) for fr in freps),
        multiplicities=tuple(mults),
        residual=Jet(res, d),
        units=tuple(units_rows),
        lambdas=tuple(lambda_rows),
        checked_orders=tuple(checked),
    )
