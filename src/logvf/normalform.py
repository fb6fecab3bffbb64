"""Weighted normal forms for vector fields and defining equations.

Everything here works modulo a truncation order d: coordinate changes are
polynomial maps stored together with an inverse that is valid below degree d,
and every public operation re-verifies its own output (round trips compose to
the identity, transformed fields satisfy the claimed resonance pattern, the
final equation matches unit * f o change).  The driver `formal_structure`
iterates three steps until the space of diagonal symmetries of the equation
stops growing: normalize one candidate field so that it is homogeneous of
degree zero for the weights of its own semisimple part, multiply the equation
by a unit so that the candidate's cofactor becomes homogeneous of degree zero
as well, and re-extract diagonal symmetries in the new coordinates.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (CertificateFailure, NotAtOrigin, NotFree,
                     PrecisionRequired, PreconditionViolated, ProductInput,
                     TruncationTooSmall, VanishesAtOrigin)
from .poly import (Jet, Polynomial, PowerTable, WeightSystem, as_poly,
                   graded_parts, multihomog_decompose_poly)
from .vfield import (VectorField, field_graded_parts, lie_bracket,
                     multihomog_decompose, vf_to_str)
from .linalg import identity as mat_identity
from .linalg import (inverse, is_zero_matrix, mat_pow, nullspace, solve,
                     transpose)
# unused here; perfbench's tracer test checks that this name is rebound
from .linalg import rref  # noqa: F401
from .orderings import OrderingSpec
from .standard_bases import membership, standard_basis
from .derlog import Germ, as_germ, diagonal_symmetry_space
from .liealg import sn_decompose

Coeff = Union[Polynomial, Jet]

_LOCAL = OrderingSpec.make("local-anti-graded")
_GLOBAL = OrderingSpec.make("graded-reverse-lex")

ROUND_CAP = 10


def default_truncation(f: Polynomial) -> int:
    return 2 * f.total_degree() + 2


# -- small exact linear algebra helpers ----------------------------------------


def _chop(p: Coeff, order: int) -> Polynomial:
    base = as_poly(p)
    terms = {e: c for e, c in base.terms.items() if sum(e) < order}
    return Polynomial(terms, base.vars)


def _chop_field(v: VectorField, order: int) -> VectorField:
    return VectorField([_chop(c, order) for c in v.coeffs])


def _jet_field(v: VectorField, order: int) -> VectorField:
    return VectorField([Jet(_chop(c, order), order) for c in v.coeffs])


def _in_row_span(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]):
    """Coefficients expressing vec over the rows, or None."""
    return solve([[r[i] for r in rows] for i in range(len(vec))], vec,
                 len(rows))


def _monomials(n: int, deg: int) -> List[Tuple[int, ...]]:
    if n == 1:
        return [(deg,)]
    out = []
    for e in range(deg, -1, -1):
        out.extend((e,) + rest for rest in _monomials(n - 1, deg - e))
    return out


# -- coordinate changes ---------------------------------------------------------


@dataclass(frozen=True)
class CoordChange:
    """A change of coordinates, stored as truncated polynomial maps.

    images[i] expresses the old coordinate x_i in the new coordinates, so
    substituting the images into the old equation gives the new one.
    inverse_images[i] expresses the new x_i in the old coordinates.  Both
    directions compose to the identity below degree `order`.

    Power tables are cached per map: each change builds a PowerTable for
    its images and one for its inverse images on first use, and apply,
    unapply, push_field, then and the round-trip check all compose through
    them, so each power of an image is formed once per map below `order`.
    The tables live and die with the change.
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
    def make(cls, images: Sequence[Coeff], order: int) -> "CoordChange":
        if order < 1:
            raise PreconditionViolated("order must be at least 1")
        imgs = [_chop(p, order) for p in images]
        varnames = imgs[0].vars
        n = len(varnames)
        if len(imgs) != n:
            raise PreconditionViolated("need one image per variable")
        for p in imgs:
            if p.vars != varnames:
                raise PreconditionViolated("images over mixed variables")
            if p.constant_term() != 0:
                raise PreconditionViolated("images must vanish at the origin")
        # L[j][i] = coefficient of x_i in images[j]
        L = [[imgs[j].coeff(tuple(1 if t == i else 0 for t in range(n)))
              for i in range(n)] for j in range(n)]
        try:
            Linv = inverse(L)
        except ValueError:
            raise PreconditionViolated("matrix is not invertible") from None
        lin = [sum((Polynomial.variable(varnames, i) * L[j][i]
                    for i in range(n)), Polynomial.zero(varnames))
               for j in range(n)]
        higher = [imgs[j] - lin[j] for j in range(n)]
        inv = [sum((Polynomial.variable(varnames, j) * Linv[i][j]
                    for j in range(n)), Polynomial.zero(varnames))
               for i in range(n)]
        for _ in range(order):
            table = PowerTable(inv, order)
            hsub = [table.compose(h) for h in higher]
            nxt = [sum(((Polynomial.variable(varnames, j) - hsub[j]) * Linv[i][j]
                        for j in range(n)), Polynomial.zero(varnames))
                   for i in range(n)]
            nxt = [_chop(p, order) for p in nxt]
            if nxt == inv:
                break
            inv = nxt
        ch = cls(tuple(imgs), tuple(inv), order)
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
        varnames = tuple(varnames)
        n = len(varnames)
        imgs = [sum((Polynomial.variable(varnames, i) * Fraction(M[j][i])
                     for i in range(n)), Polynomial.zero(varnames))
                for j in range(n)]
        return cls.make(imgs, order)

    @classmethod
    def tangent(cls, shifts: Sequence[Coeff], order: int) -> "CoordChange":
        """Images x_j + h_j for higher-order shifts h_j."""
        varnames = as_poly(shifts[0]).vars
        imgs = [Polynomial.variable(varnames, j) + as_poly(h)
                for j, h in enumerate(shifts)]
        return cls.make(imgs, order)

    def _verify(self):
        varnames = self.varnames
        for i in range(self.n):
            x = Polynomial.variable(varnames, i)
            a = self.unapply(self.images[i])
            b = self.apply(self.inverse_images[i])
            if a != x or b != x:
                raise CertificateFailure("coordinate change does not invert")

    def apply(self, g: Coeff) -> Polynomial:
        """The transformed function g o (images), valid below `order`."""
        return self._image_powers.compose(as_poly(g))

    def unapply(self, g: Coeff) -> Polynomial:
        return self._inverse_powers.compose(as_poly(g))

    def push_field(self, delta: VectorField) -> VectorField:
        """Transport a field to the new coordinates.

        Valid below `order` when delta vanishes at the origin; fields with a
        constant part lose one order, so callers pad internally.
        """
        return VectorField([self.apply(delta.apply(q))
                            for q in self.inverse_images])

    def then(self, nxt: "CoordChange") -> "CoordChange":
        """First this change, then `nxt`, verified to order min(orders)."""
        order = min(self.order, nxt.order)
        imgs = [_chop(nxt.apply(p), order) for p in self.images]
        inv = [_chop(self.unapply(q), order) for q in nxt.inverse_images]
        ch = CoordChange(tuple(imgs), tuple(inv), order)
        ch._verify()
        return ch

    def reorder(self, order: int) -> "CoordChange":
        if order > self.order:
            raise PreconditionViolated("cannot raise the validity order")
        return CoordChange.make(self.images, order)

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


def diagonal_symmetries(f: Coeff) -> DiagonalSymmetrySpace:
    p = as_poly(f)
    if p.is_zero():
        raise PreconditionViolated("zero polynomial has no symmetry space")
    rows = diagonal_symmetry_space(p)
    basis = tuple((tuple(Fraction(x) for x in w), Fraction(lam))
                  for lam, w in rows)
    return DiagonalSymmetrySpace(basis)


# -- the degreewise resonance solver ---------------------------------------------


def _require_linear(delta: VectorField):
    for c in delta.coeffs:
        for e in as_poly(c).terms:
            if sum(e) != 1:
                raise PreconditionViolated("field must be linear")


def _check_multihomog(obj, W: WeightSystem, key=None):
    comps = multihomog_decompose(obj, W)
    keys = [k for k, v in comps.items() if not v.is_zero()]
    if len(keys) > 1:
        raise PreconditionViolated("input is not multihomogeneous")
    if key is not None and keys and keys[0] != tuple(key):
        raise PreconditionViolated("multidegree does not match")


def homological_solve(delta: VectorField, p: Coeff, lam,
                      weights: Optional[WeightSystem] = None,
                      multidegree=None) -> Coeff:
    """A function q with delta(q) - lam*q + p supported on weight lam.

    delta must be linear; the weights are read off its diagonal entries and
    the off-diagonal part is eliminated by back-substitution.  When a weight
    system is given, p must be multihomogeneous and q is too.
    """
    _require_linear(delta)
    lam = Fraction(lam)
    varnames = as_poly(p).vars
    n = len(varnames)
    A = delta.linear_part()
    w = [A[i][i] for i in range(n)]
    if weights is not None:
        _check_multihomog(delta, weights, key=(Fraction(0),) * weights.s)
        _check_multihomog(p, weights, key=multidegree)

    def wdeg(e):
        return sum(wi * ei for wi, ei in zip(w, e))

    off = {e: c for e, c in as_poly(p).terms.items() if wdeg(e) != lam}
    q: Dict[Tuple[int, ...], Fraction] = {}
    if off:
        for e, c in off.items():
            q[e] = -c / (wdeg(e) - lam)
        p_off = Polynomial(dict(off), varnames)
        for _ in range(200):
            qp = Polynomial(dict(q), varnames)
            r = as_poly(delta.apply(qp)) - qp * lam + p_off
            stuck = {e: c for e, c in r.terms.items() if wdeg(e) != lam}
            if not stuck:
                break
            for e, c in stuck.items():
                q[e] = q.get(e, Fraction(0)) - c / (wdeg(e) - lam)
        else:
            raise PreconditionViolated(
                "resonance elimination does not terminate for these weights")
    qp = Polynomial(dict(q), varnames)
    result = as_poly(delta.apply(qp)) - qp * lam + as_poly(p)
    if any(wdeg(e) != lam for e in result.terms):
        raise CertificateFailure("solver left terms off the target weight")
    if isinstance(p, Jet):
        return Jet(qp, p.order)
    return qp


def _solve_field_equation(delta0: VectorField, target: VectorField,
                          w: Sequence[Fraction]) -> VectorField:
    """H with [delta0, H] = target, for target supported off the resonance."""
    varnames = target.coeffs[0].vars
    n = len(varnames)

    def eig(e, i):
        return sum(wj * ej for wj, ej in zip(w, e)) - w[i]

    H: List[Dict[Tuple[int, ...], Fraction]] = [dict() for _ in range(n)]
    for i, c in enumerate(target.coeffs):
        for e, coef in as_poly(c).terms.items():
            if eig(e, i) == 0:
                raise PreconditionViolated("resonant term in field equation")
            H[i][e] = coef / eig(e, i)
    for _ in range(200):
        Hf = VectorField([Polynomial(dict(m), varnames) for m in H])
        r = lie_bracket(delta0, Hf) - target
        if r.is_zero():
            return Hf
        for i, c in enumerate(r.coeffs):
            for e, coef in as_poly(c).terms.items():
                if eig(e, i) == 0:
                    raise CertificateFailure("field solver hit a resonance")
                H[i][e] = H[i].get(e, Fraction(0)) - coef / eig(e, i)
    raise CertificateFailure("field homological equation did not converge")


# -- normalizing one field --------------------------------------------------------


def _is_diagonal(M) -> bool:
    return all(M[i][j] == 0 for i in range(len(M))
               for j in range(len(M)) if i != j)


def _weight_classes(W: WeightSystem, n: int) -> List[List[int]]:
    buckets: Dict[Tuple[Fraction, ...], List[int]] = {}
    for i in range(n):
        key = tuple(row[i] for row in W.rows)
        buckets.setdefault(key, []).append(i)
    return [buckets[k] for k in sorted(buckets)]


def _diagonalizing_prep(A, W: WeightSystem, varnames, order) -> CoordChange:
    """A linear change making the semisimple part of A diagonal.

    Mixes only variables of equal multiweight, so diagonal symmetry fields
    for W are preserved.
    """
    n = len(A)
    dec = sn_decompose(A)
    S = dec.semisimple
    classes = _weight_classes(W, n)
    for i in range(n):
        for j in range(n):
            same = any(i in cl and j in cl for cl in classes)
            if not same and S[i][j] != 0:
                raise CertificateFailure("semisimple part crosses weight blocks")
    Q = [[Fraction(0)] * n for _ in range(n)]
    for cl in classes:
        sub = [[S[i][j] for j in cl] for i in cl]
        subdec = sn_decompose(sub)
        cols = []
        for lam in sorted(subdec.eigenvalues):
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


def pd_normalize(delta: VectorField, weights: WeightSystem,
                 order: int) -> Tuple[CoordChange, VectorField]:
    """Make a field homogeneous of degree zero for its own diagonal weights.

    The input must vanish at the origin and be multihomogeneous of degree
    zero for `weights`; the change is assembled from a block-diagonal linear
    preparation and tangent-to-identity steps, one per degree below `order`.
    """
    varnames = as_poly(delta.coeffs[0]).vars
    n = len(varnames)
    if not delta.vanishes_at_origin():
        raise PreconditionViolated("field must vanish at the origin")
    _check_multihomog(delta, weights, key=(Fraction(0),) * weights.s)
    cur = _chop_field(delta.as_polynomial_field(), order)
    A = cur.linear_part()
    total = CoordChange.identity(varnames, order)
    dec = sn_decompose(A)
    if not _is_diagonal(dec.semisimple):
        prep = _diagonalizing_prep(A, weights, varnames, order)
        cur = _chop_field(prep.push_field(cur), order)
        total = prep
        A = cur.linear_part()
        dec = sn_decompose(A)
        if not _is_diagonal(dec.semisimple):
            raise CertificateFailure("preparation failed to diagonalize")
    w = [dec.semisimple[i][i] for i in range(n)]
    delta0 = VectorField.from_matrix(A, varnames)

    def eig(e, i):
        return sum(wj * ej for wj, ej in zip(w, e)) - w[i]

    for m in range(2, order):
        parts = field_graded_parts(cur)
        part = parts.get(m - 1)
        if part is None:
            continue
        offmaps: List[Dict] = [dict() for _ in range(n)]
        found = False
        for i, c in enumerate(part.coeffs):
            for e, coef in as_poly(c).terms.items():
                if eig(e, i) != 0:
                    offmaps[i][e] = coef
                    found = True
        if not found:
            continue
        off = VectorField([Polynomial(mp, varnames) for mp in offmaps])
        H = _solve_field_equation(delta0, off, w)
        step = CoordChange.tangent(H.coeffs, order)
        cur = _chop_field(step.push_field(cur), order)
        total = total.then(step)
    for i, c in enumerate(cur.coeffs):
        for e in as_poly(c).terms:
            if eig(e, i) != 0:
                raise CertificateFailure("normalized field is not homogeneous")
    S_field = VectorField.diagonal(w, varnames)
    N_field = cur - S_field
    if not _chop_field(lie_bracket(S_field, N_field), order).is_zero():
        raise CertificateFailure("parts of the normal form do not commute")
    return total, _jet_field(cur, order)


# -- cofactors and unit adjustment ------------------------------------------------


def _series_quotient(g: Coeff, f: Coeff, order: int) -> Optional[Polynomial]:
    """Some a with a*f = g below `order`, found degree by degree, or None."""
    fp = as_poly(f)
    gp = as_poly(g)
    if fp.is_zero():
        raise PreconditionViolated("cannot divide by zero")
    varnames = fp.vars
    n = len(varnames)
    o = fp.low_degree()
    avail = order - o
    if avail <= 0:
        return Polynomial.zero(varnames) if _chop(gp, order).is_zero() else None
    fparts = graded_parts(fp)
    gparts = graded_parts(gp)
    F0 = fparts[o]
    akeep: Dict[int, Polynomial] = {}
    for m in range(avail):
        target = gparts.get(m + o, Polynomial.zero(varnames))
        for k in range(1, m + 1):
            fk = fparts.get(o + k)
            if fk is not None and (m - k) in akeep:
                target = target - akeep[m - k] * fk
        cols = _monomials(n, m)
        rows_ = _monomials(n, m + o)
        row_index = {e: r for r, e in enumerate(rows_)}
        M: List[Dict[int, Fraction]] = [{} for _ in rows_]
        for cidx, mono in enumerate(cols):
            prod = Polynomial.monomial(varnames, mono) * F0
            for e, c in prod.terms.items():
                M[row_index[e]][cidx] = c
        b = [target.coeff(e) for e in rows_]
        x = solve(M, b, len(cols))
        if x is None:
            return None
        terms = {cols[i]: x[i] for i in range(len(cols)) if x[i] != 0}
        if terms:
            akeep[m] = Polynomial(terms, varnames)
    a = sum(akeep.values(), Polynomial.zero(varnames))
    if not _chop(a * fp - gp, order).is_zero():
        return None
    return a


def _cofactor(delta: VectorField, f: Polynomial, order: int) -> Polynomial:
    """a with delta(f) = a*f below `order`; exact division is tried first."""
    df = _chop(delta.apply(f), order)
    basis = standard_basis([f], _GLOBAL)
    cert = membership(df, basis)
    if cert.member and cert.precision is None:
        return as_poly(cert.quotients[0])
    a = _series_quotient(df, f, order)
    if a is None:
        raise PreconditionViolated("field does not preserve the ideal")
    return a


def _unit_inverse(p: Polynomial, order: int) -> Polynomial:
    return as_poly(Jet(_chop(p, order), order).inverse())


def unit_adjust(f: Coeff, delta: VectorField, weights: WeightSystem,
                order: int) -> Tuple[Jet, Jet]:
    """A unit u with u(0)=1 making the cofactor of delta on u*f resonant.

    The cofactor of delta on u*f has, below degree order - lowdeg(f), only
    terms of weighted degree zero for the diagonal weights of delta's linear
    part.  When f is multihomogeneous, u comes out multihomogeneous of
    degree zero for `weights`.
    """
    frep = _chop(f, order)
    varnames = frep.vars
    n = len(varnames)
    A = delta.linear_part()
    dec = sn_decompose(A)
    if not _is_diagonal(dec.semisimple):
        raise PreconditionViolated("semisimple part must be diagonal")
    w = [dec.semisimple[i][i] for i in range(n)]
    delta0 = VectorField.from_matrix(A, varnames)

    def wdeg(e):
        return sum(wi * ei for wi, ei in zip(w, e))

    a = _cofactor(delta, frep, order)
    u = Polynomial.const(varnames, 1)
    for m in range(1, order):
        am = graded_parts(a).get(m)
        if am is None or all(wdeg(e) == 0 for e in am.terms):
            continue
        q = Polynomial.zero(varnames)
        for key, comp in sorted(multihomog_decompose_poly(am, weights).items()):
            q = q + as_poly(homological_solve(delta0, comp, 0, weights, key))
        factor = Polynomial.const(varnames, 1) + q
        u = _chop(u * factor, order)
        shift = _chop(as_poly(delta.apply(factor)) * _unit_inverse(factor, order),
                      order)
        a = _chop(a + shift, order)
    fprime = _chop(u * frep, order)
    check = order - frep.low_degree()
    r = _chop(as_poly(delta.apply(fprime)) - a * fprime, check)
    if not r.is_zero():
        raise CertificateFailure("adjusted cofactor fails its identity")
    if any(wdeg(e) != 0 for e in _chop(a, check).terms):
        raise CertificateFailure("adjusted cofactor is not resonant")
    return Jet(u, order), Jet(fprime, order)


# -- straightening a unit field ----------------------------------------------------


def straighten_unit_field(delta: VectorField, order: int) -> CoordChange:
    """Coordinates in which a field with delta(0) != 0 becomes a partial.

    The target direction is the first index whose coefficient has a nonzero
    constant term.
    """
    const = delta.constant_part()
    if all(c == 0 for c in const):
        raise VanishesAtOrigin("field has no constant part to straighten")
    for c in delta.coeffs:
        if isinstance(c, Jet) and c.order < order + 2:
            raise PrecisionRequired("need two orders of margin on jet input")
    t = next(i for i, c in enumerate(const) if c != 0)
    varnames = as_poly(delta.coeffs[0]).vars
    n = len(varnames)
    inner = order + 1
    cur = _chop_field(delta.as_polynomial_field(), inner)
    if list(const) != [Fraction(1 if i == t else 0) for i in range(n)]:
        B = mat_identity(n)
        for i in range(n):
            B[i][t] = Fraction(const[i])
        prep = CoordChange.linear(B, varnames, inner)
        cur = _chop_field(prep.push_field(cur), inner)
        total = prep
    else:
        total = CoordChange.identity(varnames, inner)
    target = VectorField.partial(varnames, t)
    for m in range(1, inner):
        rest = cur - target
        part = field_graded_parts(rest).get(m - 1)
        if part is None or part.is_zero():
            continue
        shifts = []
        for j in range(n):
            rj = as_poly(part.coeffs[j])
            terms = {}
            for e, c in rj.terms.items():
                lifted = tuple(ei + 1 if i == t else ei
                               for i, ei in enumerate(e))
                terms[lifted] = c / (e[t] + 1)
            shifts.append(Polynomial(terms, varnames))
        step = CoordChange.tangent(shifts, inner)
        cur = _chop_field(step.push_field(cur), inner)
        total = total.then(step)
    if not _chop_field(cur - target, order).is_zero():
        raise CertificateFailure("field did not straighten to a partial")
    return total.reorder(order)


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
        coeffs = [as_poly(c) for c in g.coeffs]
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
    reduced = remove_variable(as_poly(moved), t)
    return reduced, t, change


# -- the structure pipeline --------------------------------------------------------


@dataclass(frozen=True)
class FormalStructure:
    """Diagonal and nilpotent generators of the log fields, after changes.

    sigmas are exact diagonal fields; nus carry jet coefficients at the
    truncation.  weights[i] is the weight row of sigmas[i] and degrees[i] its
    cofactor on the transformed equation.  eigentable[i][j] is the bracket
    eigenvalue of nus[j] for sigmas[i].  The transformed equation equals
    unit * (f o change) below the truncation.
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


def _is_sterile(cand: VectorField, W: WeightSystem) -> bool:
    A = cand.linear_part()
    dec = sn_decompose(A)
    S = dec.semisimple
    if not _is_diagonal(S):
        return False
    diag = [S[i][i] for i in range(len(S))]
    return _in_row_span(W.rows, diag) is not None


def _pick_candidate(gens: Sequence[VectorField], W: WeightSystem):
    zkey = (Fraction(0),) * W.s
    cands = []
    for g in gens:
        comp = multihomog_decompose(g, W).get(zkey)
        if comp is None or comp.is_zero():
            continue
        if _is_sterile(comp, W):
            continue
        cands.append(comp)
    if not cands:
        return None
    cands.sort(key=lambda v: (v.low_field_degree(), vf_to_str(v)))
    return cands[0]


def _local_member(field: VectorField, family: Sequence[VectorField],
                  precision: int) -> bool:
    if not family:
        return field.is_zero()
    elem = [as_poly(c) for c in field.coeffs]
    gens = [[as_poly(c) for c in g.coeffs] for g in family]
    basis = standard_basis(gens, _LOCAL)
    try:
        cert = membership(elem, basis, precision=precision)
    except PrecisionRequired:
        return True
    return cert.member


def _field_multidegree(v: VectorField, W: WeightSystem):
    keys = [k for k, comp in multihomog_decompose(v, W).items()
            if not comp.is_zero()]
    if len(keys) != 1:
        raise CertificateFailure("field is not multihomogeneous")
    return keys[0]


def _kill_diagonal_part(comp: VectorField, W: WeightSystem,
                        sigmas: Sequence[VectorField]) -> VectorField:
    A = comp.linear_part()
    dec = sn_decompose(A)
    S = dec.semisimple
    if is_zero_matrix(S):
        return comp
    if not _is_diagonal(S):
        raise CertificateFailure(
            "generator has a non-diagonal semisimple part at this truncation")
    diag = [S[i][i] for i in range(len(S))]
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
    cap.  All claims hold below the truncation degree.
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
    module = germ.module
    if germ.product[0]:
        raise ProductInput("split the smooth factor first")
    varnames = f.vars
    n = len(varnames)
    k = len(module.fields)
    d_work = d + max(f.low_degree(), 2)
    fcur = _chop(f, d_work)
    gens = [_chop_field(g.as_polynomial_field(), d_work) for g in module.fields]
    unit_rep = Polynomial.const(varnames, 1)
    change = CoordChange.identity(varnames, d_work)
    stabilized = False
    for _ in range(ROUND_CAP):
        W, lams = _weight_system_of(_chop(fcur, d))
        cand = _pick_candidate(gens, W)
        if cand is None:
            stabilized = True
            break
        ch1, delta_n = pd_normalize(cand, W, d_work)
        sig_old = [VectorField.diagonal(row, varnames) for row in W.rows]
        fcur = ch1.apply(fcur)
        gens = [_chop_field(ch1.push_field(g), d_work) for g in gens]
        unit_rep = ch1.apply(unit_rep)
        for sf in sig_old:
            if not _chop_field(ch1.push_field(sf) - sf, d).is_zero():
                raise CertificateFailure(
                    "diagonal symmetry moved under a weighted change")
        change = change.then(ch1)
        # replace the representative by its multidegree component; the two
        # must agree below d, where the symmetries are certified
        proj = multihomog_decompose_poly(fcur, W).get(
            tuple(lams), Polynomial.zero(varnames))
        if not _chop(fcur - proj, d).is_zero():
            raise CertificateFailure(
                "equation left its multidegree under a weighted change")
        fcur = proj
        u_new, f_new = unit_adjust(fcur, delta_n, W, d_work)
        unit_rep = _chop(unit_rep * as_poly(u_new), d_work)
        fcur = as_poly(f_new)
        ndec = sn_decompose(delta_n.linear_part())
        wnew = [ndec.semisimple[i][i] for i in range(n)]
        parts = multihomog_decompose_poly(_chop(fcur, d),
                                          WeightSystem.make([wnew]))
        live = [key for key, comp in parts.items() if not comp.is_zero()]
        if len(live) > 1:
            raise CertificateFailure(
                "equation failed to become weighted homogeneous")

    fd = _chop(fcur, d)
    W, lams = _weight_system_of(fd)
    s = W.s
    sigmas = [VectorField.diagonal(row, varnames) for row in W.rows]
    degrees = list(lams)
    gens_d = [_chop_field(g, d) for g in gens]
    zkey = (Fraction(0),) * s
    pool = []
    for g in gens_d:
        comps = multihomog_decompose(g, W)
        for key in sorted(comps):
            comp = _chop_field(comps[key], d)
            if comp.is_zero():
                continue
            if key == zkey:
                comp = _kill_diagonal_part(comp, W, sigmas)
                if comp.is_zero():
                    continue
            pool.append(comp)
    pool.sort(key=lambda v: (v.low_field_degree(), vf_to_str(v)))
    kept: List[VectorField] = []
    for cand in pool:
        if len(kept) == k - s:
            break
        if not _local_member(cand, sigmas + kept, d):
            kept.append(cand)
    if len(kept) != k - s:
        raise CertificateFailure("could not complete a generating system")
    for g in gens_d:
        if not _local_member(g, sigmas + kept, d):
            raise CertificateFailure("completed system fails to generate")
    eigentable = []
    for i in range(s):
        row = []
        for nu in kept:
            mdeg = _field_multidegree(nu, W)
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
    unit_final = _chop(unit_rep, d)
    if unit_final.constant_term() != 1:
        raise CertificateFailure("unit lost its normalization")
    recomputed = _chop(unit_rep * f.substitute(list(change.images)), d)
    if recomputed != fd:
        raise CertificateFailure("transformed equation fails its identity")
    for i in range(s):
        if _chop(as_poly(sigmas[i].apply(fd)) - fd * degrees[i], d) != \
                Polynomial.zero(varnames):
            raise CertificateFailure("diagonal field cofactor mismatch")
    change_out = change.reorder(d)
    return FormalStructure(
        sigmas=tuple(sigmas),
        nus=tuple(_jet_field(nu, d) for nu in kept),
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


def verify_cor16(fs: FormalStructure, f: Polynomial) -> List[bool]:
    """Degree-sum check: each sigma gives f' degree sum(w) + sum(lambda).

    Requires a free input, detected here as s + r = n.
    """
    n = len(f.vars)
    if fs.s + fs.r != n:
        raise NotFree("degree-sum check needs s + r = n")
    d = fs.trunc
    rep = _chop(as_poly(fs.unit) * f.substitute(list(fs.change.images)), d)
    if rep != as_poly(fs.transformed):
        raise CertificateFailure("stored transform disagrees with recompute")
    out = []
    for i in range(fs.s):
        target = sum(fs.weights[i], Fraction(0)) + \
            sum(fs.eigentable[i], Fraction(0))
        diff = _chop(as_poly(fs.sigmas[i].apply(rep)) - rep * target, d)
        out.append(diff.is_zero())
    return out


# -- user-supplied factorizations ---------------------------------------------------


def _exact_quotient(p: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    if p.is_zero():
        return Polynomial.zero(p.vars)
    basis = standard_basis([g], _GLOBAL)
    cert = membership(p, basis)
    if cert.member and cert.precision is None:
        return as_poly(cert.quotients[0])
    return None


def _jet_root(g: Polynomial, k: int, order: int) -> Polynomial:
    """The k-th root with constant term 1, below `order`."""
    if g.constant_term() != 1:
        raise PreconditionViolated("root needs constant term 1")
    varnames = g.vars
    gj = Jet(_chop(g, order), order)
    r = Jet(Polynomial.const(varnames, 1), order)
    steps = 1
    good = 1
    while good < order:
        good *= 2
        steps += 1
    kf = Fraction(1, k)
    for _ in range(steps):
        # r <- r - (r^k - g) / (k r^(k-1))
        corr = (r ** k - gj) * (r ** (k - 1)).inverse() * kf
        r = r - corr
    rp = as_poly(r)
    if not _chop(rp ** k - g, order).is_zero():
        raise CertificateFailure("root iteration failed to converge")
    return _chop(rp, order)


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


def _resonance_unit(sigma: VectorField, frep: Polynomial,
                    order: int) -> Tuple[Polynomial, Polynomial]:
    """(u, cofactor of sigma on u*frep) with the cofactor weight-resonant."""
    varnames = frep.vars
    a = _cofactor(sigma, frep, order)
    A = sigma.linear_part()
    w = [A[i][i] for i in range(len(varnames))]

    def wdeg(e):
        return sum(wi * ei for wi, ei in zip(w, e))

    u = Polynomial.const(varnames, 1)
    for m in range(1, order):
        am = graded_parts(a).get(m)
        if am is None or all(wdeg(e) == 0 for e in am.terms):
            continue
        q = homological_solve(sigma, am, 0)
        factor = Polynomial.const(varnames, 1) + as_poly(q)
        u = _chop(u * factor, order)
        shift = _chop(as_poly(sigma.apply(factor)) * _unit_inverse(factor, order),
                      order)
        a = _chop(a + shift, order)
    return u, a


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
    freps = [_chop(g.substitute(list(fs.change.images)), d) for g in factors]
    res = _chop(as_poly(fs.unit) * rem.substitute(list(fs.change.images)), d)
    c0 = res.constant_term()
    target = _chop(res * (Fraction(1) / c0), d)
    m = len(factors)
    units_rows = []
    lambda_rows = []
    checked = [d - fr.low_degree() for fr in freps]
    for t in range(fs.s):
        sigma = fs.sigmas[t]
        urow: List[Polynomial] = []
        lrow: List[Fraction] = []
        for i in range(m):
            if i < m - 1:
                u, a = _resonance_unit(sigma, freps[i], d)
            else:
                acc = Polynomial.const(f.vars, 1)
                for j in range(m - 1):
                    acc = _chop(acc * urow[j] ** mults[j], d)
                u = _jet_root(_chop(target * _unit_inverse(acc, d), d),
                              mults[m - 1], d)
                prod = _chop(u * freps[i], d)
                a = _series_quotient(_chop(sigma.apply(prod), d), prod, d)
                if a is None:
                    raise CertificateFailure(
                        "balancing unit does not yield a cofactor")
            lam = a.constant_term()
            adjusted = _chop(u * freps[i], d)
            diff = _chop(as_poly(sigma.apply(adjusted)) - adjusted * lam,
                         checked[i])
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
