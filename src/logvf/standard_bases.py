"""Standard bases of ideals and submodules, with exact certificates.

The same Buchberger loop serves global orders (Groebner bases) and local
orders (standard bases via Mora's weak normal form with ecart selection).
Every reduction tracks an exact representation over the original input
family, so three things come out with proofs attached:

  * standard_basis: generators plus lift matrices back to the inputs,
  * membership: quotients q with  elem = sum q_k * g_k,  exactly for global
    orders, and modulo a chosen jet precision for local orders (the Mora
    unit is inverted as a jet),
  * syzygies: generators of the relation module, each re-multiplied against
    the inputs and checked to vanish before being returned.

Each of the three is re-multiplied by poly.remultiplies on the returned
rational generators, lifts, quotients and syzygies, never on the loop's
integer vectors: each input component and each returned polynomial is
lifted once to integer numerators over one denominator, and the sums are
formed and compared as canonical lifted maps, which are equal exactly when
the rational polynomials are.

Elements of a rank-r module are stored flat as dicts mapping
(component, exponent) to a coefficient.  Representations over k inputs use
the same shape with the input index as component, so one set of arithmetic
helpers drives both.

The loop runs on integer vectors.  Each input has its denominators cleared
once; a working element is a pair (vec, rep) of integer vectors with their
common content divided out and a positive lead coefficient, and rep holds
integer multiples of the rational inputs.  A reduction cross-multiplies:
h <- (ltc_g/d) * h - (ltc_h/d) * x^s * g with d = gcd(ltc_g, ltc_h), and the
Mora unit and the representation are scaled with h.  The choice of reducer
depends only on lead monomials, ecarts and supports, never on coefficient
values, and every integer vector is a nonzero multiple of the vector a
reduction over Q with monic basis elements would hold at the same step,
with the same support.  So the loop takes the rational path, and dividing
an element by its lead coefficient gives the monic rational generator and
its lift exactly.  Rationals appear only at the public boundary.

The multiple matters where a result is not divided by its lead: the weak
normal form carries the scalar lam with h = lam * h_Q, and membership
divides by it to return the normal form and the Mora unit of the rational
reduction.

Sort keys and reducers are each formed once.  standard_basis and syzygies
read their family through _read_family and wrap their key (module_key or
elimination_key) in a _Keys memo, which every lead pick, working element,
pair rank, prune and final sort reads.  A StandardBasis keeps the loop's
own elements, primitive integer pairs with a positive lead, and that memo:
membership reduces against them and leading_monomials reads their leads.
Only standard_basis makes one, since a non-membership answer needs a true
standard basis.  No memo outlives its computation or basis.

The rational loop this one replaces is kept in tests/test_standard_bases.py
as _reference_weak_nf and _reference_buchberger, and a property test
requires equal results from both.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import CertificateFailure, PrecisionRequired, PreconditionViolated
from .orderings import GLOBAL, Exponent, ModMono, OrderingSpec, elimination_key
from .poly import (Jet, Polynomial, as_poly, exact, remultiplies,
                   sum_of_products, unit_inverse)

Vec = Dict[ModMono, int]
RatVec = Dict[ModMono, Fraction]


# -- flat vector arithmetic ---------------------------------------------------

def _sub_into(out: Vec, b: int, g: Vec, shift: Exponent) -> Vec:
    """out - b * x^shift * g, formed in out, dropping zeros."""
    get = out.get
    for (comp, exp), v in g.items():
        key = (comp, tuple(map(add, exp, shift)))
        nv = get(key, 0) - b * v
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def _scaled(a: int, vec: Vec) -> Vec:
    return {m: a * v for m, v in vec.items()}


def _vec_deg(a: Vec) -> int:
    return max(sum(exp) for _, exp in a)


def _divides(small: Exponent, big: Exponent) -> bool:
    return all(map(le, small, big))


def _cleared(vec: RatVec, den: int) -> Vec:
    """den * vec as integers; den must clear every denominator."""
    return {m: c.numerator * (den // c.denominator) for m, c in vec.items()}


def _denominator(*vecs: RatVec) -> int:
    return lcm(*(c.denominator for vec in vecs for c in vec.values()))


class _Keys(dict):
    """Sort keys of module monomials, each built by key on its first
    look-up; pass the memo on as its __getitem__."""

    __slots__ = ("_key",)

    def __init__(self, key):
        super().__init__()
        self._key = key

    def __missing__(self, m: ModMono):
        k = self[m] = self._key(m)
        return k


class _Elem:
    """A working element: integer vector and representation (None when not
    tracked) with their common content divided out and a positive lead
    coefficient, plus cached lead data."""

    __slots__ = ("vec", "lt", "ltc", "key", "ecart", "rep")

    def __init__(self, vec: Vec, keyf, rep: Optional[Vec]):
        lt = max(vec, key=keyf)
        g = gcd(*vec.values(), *(rep.values() if rep else ()))
        if vec[lt] < 0:
            g = -g
        if g != 1:
            vec = {m: v // g for m, v in vec.items()}
            if rep is not None:
                rep = {m: v // g for m, v in rep.items()}
        self.vec = vec
        self.rep = rep
        self.lt = lt
        self.ltc = vec[lt]
        self.key = keyf(lt)
        self.ecart = _vec_deg(vec) - sum(lt[1])


# -- normal form --------------------------------------------------------------

def _weak_nf(start: Vec, basis: Sequence[_Elem], keyf,
             local: bool) -> Tuple[Vec, Vec, Vec, Fraction]:
    """Reduce start against basis.

    Returns (nf, unit, rep, lam) satisfying  nf = unit * start + rep . basis,
    where rep lives over basis indices and unit is a polynomial stored as a
    rank-1 vector.  lam is the scalar with nf = lam * nf_Q, where nf_Q is
    the result of the same reduction over Q against the monic elements
    basis[t] / ltc(basis[t]), each step subtracting the multiple of the
    reducer that cancels the lead; that reduction's unit and rep are
    unit / lam and rep[t] * ltc(basis[t]) / lam.  For global orders unit is
    the constant lam.  Mora's variant may park intermediate results as
    extra reducers; each carries its own identity so the final one is exact.
    """
    unit: Vec = {}
    rep: Vec = {}
    lam = Fraction(1)
    if not start:
        return {}, unit, rep, lam
    nvars = len(next(iter(start))[1])
    one = tuple([0] * nvars)
    unit = {(0, one): 1}

    # identity for the working element h:  h = unit * start + rep . basis;
    # h, unit and rep are owned here and updated in place, and a parked
    # reducer holds copies
    h = dict(start)
    # parked reducers: (vec, unit, rep, lead, ecart)
    stored: List[Tuple[Vec, Vec, Vec, ModMono, int]] = []

    while h:
        lt = max(h, key=keyf)
        ltc = h[lt]
        comp, exp = lt
        best = None
        for i, g in enumerate(basis):
            if g.lt[0] == comp and _divides(g.lt[1], exp):
                cand = (g.ecart, 0, i)
                if best is None or cand < best:
                    best = cand
        if local:
            for i, (_, _, _, slt, ec) in enumerate(stored):
                if slt[0] == comp and _divides(slt[1], exp):
                    cand = (ec, 1, i)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        if local:
            h_ecart = _vec_deg(h) - sum(exp)
            if best[0] > h_ecart:
                stored.append((dict(h), dict(unit), dict(rep), lt, h_ecart))
        if best[1] == 0:
            g = basis[best[2]]
            gvec, glt = g.vec, g.lt
        else:
            gvec, sunit, srep, glt, _ = stored[best[2]]
        shift = tuple(map(sub, exp, glt[1]))
        d = gcd(gvec[glt], ltc)
        a, b = gvec[glt] // d, ltc // d
        if a != 1:
            h, unit, rep = (_scaled(a, v) for v in (h, unit, rep))
            lam *= a
        _sub_into(h, b, gvec, shift)
        if best[1] == 0:
            key = (best[2], shift)
            nv = rep.get(key, 0) + b
            if nv:
                rep[key] = nv
            else:
                rep.pop(key, None)
        else:
            _sub_into(unit, b, sunit, shift)
            _sub_into(rep, b, srep, shift)

    # rep was accumulated as subtractions applied to h, so flip its sign to
    # match the stated identity.
    rep = {m: -v for m, v in rep.items()}
    return h, unit, rep, lam


def _lift_rep(unit: Vec, start_rep: Vec, rep: Vec, basis: List[_Elem]) -> Vec:
    """The representation over the inputs of  unit * start + rep . basis,
    where start_rep represents start."""
    out: Vec = {}
    for (_, e), v in unit.items():
        _sub_into(out, -v, start_rep, e)
    for (t, e), v in rep.items():
        _sub_into(out, -v, basis[t].rep, e)
    return out


# -- Buchberger ---------------------------------------------------------------

def _spair_data(a: _Elem, b: _Elem):
    comp = a.lt[0]
    gamma = tuple(max(x, y) for x, y in zip(a.lt[1], b.lt[1]))
    return comp, gamma


def _buchberger(inputs: List[Tuple[Vec, Optional[Vec]]], keyf, local: bool,
                rank: int) -> List[_Elem]:
    """A standard basis of the nonzero input vectors, pruned and sorted by
    lead.  Each input comes with its representation over the inputs, or
    None where no lift is wanted (syzygies read them off their tags)."""
    basis = [_Elem(vec, keyf, rep) for vec, rep in inputs if vec]

    # pair ranks are computed once, when the pair is pushed; each ends in
    # (i, j), so the pop order is the order of the ranks
    pairs: List[tuple] = []

    def push(i: int, j: int) -> None:
        if basis[i].lt[0] == basis[j].lt[0]:
            comp, gamma = _spair_data(basis[i], basis[j])
            heapq.heappush(pairs, (sum(gamma), keyf((comp, gamma)), i, j))

    for i, j in itertools.combinations(range(len(basis)), 2):
        push(i, j)
    processed = set()

    while pairs:
        *_, i, j = heapq.heappop(pairs)
        processed.add((i, j))
        a, b = basis[i], basis[j]
        comp, gamma = _spair_data(a, b)

        if rank == 1:
            if tuple(x + y for x, y in zip(a.lt[1], b.lt[1])) == gamma:
                continue
        skip = False
        for t in range(len(basis)):
            if t in (i, j):
                continue
            g = basis[t]
            if g.lt[0] == comp and _divides(g.lt[1], gamma):
                p1 = (min(i, t), max(i, t))
                p2 = (min(j, t), max(j, t))
                if p1 in processed and p2 in processed:
                    skip = True
                    break
        if skip:
            continue

        sa = tuple(map(sub, gamma, a.lt[1]))
        sb = tuple(map(sub, gamma, b.lt[1]))
        d = gcd(a.ltc, b.ltc)
        ca, cb = b.ltc // d, a.ltc // d
        svec = _sub_into(_sub_into({}, -ca, a.vec, sa), cb, b.vec, sb)
        if not svec:
            continue
        nf, unit, rep, _ = _weak_nf(svec, basis, keyf, local)
        if not nf:
            continue
        new_rep = None
        if a.rep is not None:
            # nf = unit * svec + rep . basis, svec = srep . inputs
            srep = _sub_into(_sub_into({}, -ca, a.rep, sa), cb, b.rep, sb)
            new_rep = _lift_rep(unit, srep, rep, basis)
        t = len(basis)
        basis.append(_Elem(nf, keyf, new_rep))
        for s in range(t):
            push(s, t)
    basis = _prune(basis)
    basis.sort(key=lambda e: e.key)
    return basis


def _prune(basis: List[_Elem]) -> List[_Elem]:
    """Drop elements whose lead is divisible by another kept lead.

    Scanning by ascending lead degree sees divisors before their multiples
    under both orders, so the kept leads are pairwise indivisible.
    """
    order = sorted(range(len(basis)),
                   key=lambda i: (sum(basis[i].lt[1]), basis[i].key))
    kept: List[_Elem] = []
    for i in order:
        e = basis[i]
        if any(g.lt[0] == e.lt[0] and _divides(g.lt[1], e.lt[1]) for g in kept):
            continue
        kept.append(e)
    return kept


# -- public layer -------------------------------------------------------------

def _to_vec(element, varnames, rank: int) -> RatVec:
    if isinstance(element, (Polynomial, Jet)):
        element = (element,)
    if len(element) != rank:
        raise PreconditionViolated(
            f"expected a vector of {rank} entries, got {len(element)}")
    vec: RatVec = {}
    for comp, p in enumerate(map(exact, element)):
        if p.vars != varnames:
            raise PreconditionViolated("mixed variable tuples in one family")
        for exp, c in p.terms.items():
            if any(e < 0 for e in exp):
                raise PreconditionViolated("negative exponents have no term order")
            vec[(comp, exp)] = c
    return vec


def _rational(vec: Vec, scale, varnames, rank: int) -> Tuple[Polynomial, ...]:
    """The integer vector divided by the nonzero rational scale, as rank
    polynomials: the one place where the loop's integers become rationals."""
    scale = Fraction(scale)
    num, den = scale.numerator, scale.denominator
    buckets: List[Dict[Exponent, Fraction]] = [dict() for _ in range(rank)]
    for (comp, exp), v in vec.items():
        buckets[comp][exp] = Fraction(v * den, num)
    return tuple(Polynomial._of(b, varnames) for b in buckets)


def _family_shape(gens) -> Tuple[Tuple[str, ...], int]:
    if not gens:
        raise PreconditionViolated("empty generating family")
    first = gens[0]
    if isinstance(first, (Polynomial, Jet)):
        return exact(first).vars, 1
    return exact(first[0]).vars, len(first)


def _read_family(gens):
    """(varnames, rank, inputs, cleared): the shape, the members as tuples
    of polynomials, and (den * member, den) with den clearing it."""
    varnames, rank = _family_shape(gens)
    cleared = []
    for g in gens:
        vec = _to_vec(g, varnames, rank)
        den = _denominator(vec)
        cleared.append((_cleared(vec, den), den))
    # every member has passed _to_vec, so none is a jet
    inputs = tuple((g,) if isinstance(g, Polynomial) else tuple(g) for g in gens)
    return varnames, rank, inputs, cleared


@dataclass(frozen=True)
class StandardBasis:
    """A standard basis together with lifts to the original inputs.

    generators[j] is a vector of rank polynomials; lifts[j][k] satisfies
    generators[j] = sum_k lifts[j][k] * inputs[k], the vec and rep of the
    loop's element _elems[j] over its lead coefficient.  membership reduces
    against _elems under _keyf, the loop's key memo.
    """

    generators: Tuple[Tuple[Polynomial, ...], ...]
    lifts: Tuple[Tuple[Polynomial, ...], ...]
    inputs: Tuple[Tuple[Polynomial, ...], ...]
    ordering: OrderingSpec
    varnames: Tuple[str, ...]
    rank: int
    _elems: Tuple[_Elem, ...] = field(repr=False, compare=False)
    _keyf: Callable[[ModMono], tuple] = field(repr=False, compare=False)

    def leading_monomials(self) -> List[ModMono]:
        return [e.lt for e in self._elems]

    def polynomials(self) -> List[Polynomial]:
        if self.rank != 1:
            raise PreconditionViolated("polynomials() needs a rank-1 basis")
        return [g[0] for g in self.generators]


def standard_basis(gens, ordering: Optional[OrderingSpec] = None) -> StandardBasis:
    """Compute a standard basis (Groebner basis for global orders).

    gens is a list of Polynomial (ideal case) or a list of equal-length
    sequences of Polynomial (module case).  The result is pruned, monic and
    sorted by ascending lead.
    """
    varnames, rank, inputs, cleared = _read_family(gens)
    order = ordering or GLOBAL
    zero = (0,) * len(varnames)
    keyf = _Keys(order.module_key).__getitem__
    basis = _buchberger([(vec, {(i, zero): den})
                         for i, (vec, den) in enumerate(cleared)],
                        keyf, order.is_local, rank)
    k = len(gens)
    generators = tuple(_rational(e.vec, e.ltc, varnames, rank) for e in basis)
    lifts = tuple(_rational(e.rep, e.ltc, varnames, k) for e in basis)
    sb = StandardBasis(generators, lifts, inputs, order, varnames, rank,
                       tuple(basis), keyf)
    _check_lifts(sb)
    return sb


def _check_lifts(sb: StandardBasis) -> None:
    if not remultiplies(sb.lifts, sb.inputs, sb.generators):
        raise CertificateFailure(
            "standard basis lift failed to reproduce element")


def default_precision(gens) -> int:
    """Jet order that comfortably covers quotient tails for a family."""
    varnames, rank = _family_shape(gens)
    maxdeg = 0
    for g in gens:
        seq = (g,) if isinstance(g, Polynomial) else g
        for p in seq:
            maxdeg = max(maxdeg, p.total_degree())
    return 2 * maxdeg + 4


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a module membership test.

    When member is true, quotients re-multiply against the basis inputs to
    give back the element: exactly if precision is None, else modulo terms
    of total degree >= precision.  unit is the Mora multiplier that was
    inverted; it is 1 for global orders.
    """

    member: bool
    quotients: Optional[Tuple[Polynomial, ...]]
    precision: Optional[int]
    normal_form: Tuple[Polynomial, ...]
    unit: Polynomial

    def verify(self, element, inputs) -> bool:
        """Do the quotients, one per input, re-multiply against inputs
        to give back element?  False when the element is not a member, when
        the number of inputs is not the number of quotients, or when the
        element and the inputs differ in rank."""
        if not self.member:
            return False
        if isinstance(element, Polynomial):
            element = (element,)
        inputs = [(g,) if isinstance(g, Polynomial) else tuple(g) for g in inputs]
        quotients = tuple(as_poly(q) for q in self.quotients)
        return remultiplies([quotients], inputs, [tuple(element)],
                            self.precision)


def membership(element, basis: StandardBasis,
               precision: Optional[int] = None) -> MembershipCertificate:
    """Test membership of element in the module spanned by basis.inputs.

    For local orders the span is taken over the local ring at the origin;
    quotients then carry power series tails and are returned as jets of the
    requested precision.  Passing no precision raises PrecisionRequired as
    soon as the Mora unit is non-constant, since no exact quotient exists.
    """
    varnames, rank = basis.varnames, basis.rank
    k = len(basis.inputs)
    vec = _to_vec(element, varnames, rank)
    if not vec:
        zero = Polynomial.zero(varnames)
        return MembershipCertificate(True, tuple(zero for _ in range(k)), None,
                                     _rational({}, 1, varnames, rank),
                                     Polynomial.const(varnames, Fraction(1)))
    local = basis.ordering.is_local
    belems = basis._elems
    den = _denominator(vec)
    nf, unit, rep, lam = _weak_nf(_cleared(vec, den), belems, basis._keyf,
                                  local)
    # the reduction started from den * element, so the rational one from
    # element holds nf / (lam * den) and the unit / lam
    unit_poly = _rational(unit, lam, varnames, 1)[0]
    lam *= den
    nf_vec = _rational(nf, lam, varnames, rank)
    if nf:
        return MembershipCertificate(False, None, None, nf_vec, unit_poly)

    if local and unit_poly.constant_term() == 0:
        raise CertificateFailure("reduction multiplier vanishes at the origin")

    # unit * element + rep . generators = 0 here, so the quotients over the
    # inputs are -(rep pushed through the lifts) / unit.
    over_inputs: Vec = {}
    for (t, exp), v in rep.items():
        _sub_into(over_inputs, v, belems[t].rep, exp)
    qpolys = _rational(over_inputs, lam, varnames, k)

    if unit_poly.total_degree() == 0:
        c = unit_poly.constant_term()
        quotients = tuple(q * (Fraction(1) / c) for q in qpolys)
        cert = MembershipCertificate(True, quotients, None, nf_vec,
                                     Polynomial.const(varnames, Fraction(1)))
        if not cert.verify(element, basis.inputs):
            raise CertificateFailure("membership quotients failed re-multiplication")
        return cert

    if precision is None:
        raise PrecisionRequired(
            "local membership has a power series quotient; pass a precision")
    uinv = unit_inverse(unit_poly, precision)
    quotients = tuple(Jet(sum_of_products([(q, uinv)], precision), precision)
                      for q in qpolys)
    cert = MembershipCertificate(True, quotients, precision, nf_vec, unit_poly)
    if not cert.verify(element, basis.inputs):
        raise CertificateFailure("membership quotients failed re-multiplication")
    return cert


def syzygies(gens) -> List[Tuple[Polynomial, ...]]:
    """Generators of the syzygy module of gens over the polynomial ring.

    Each returned vector s satisfies sum_k s[k] * gens[k] = 0, checked
    exactly before returning.  Every local syzygy question is answered from
    them: localization is flat, so the syzygy module over the local ring O
    at the origin is this one tensored with O, these generate it over O,
    and since O / m^d = P / m^d their monomial multiples of degree < d span
    its image in O^s / m^d O^s.
    """
    varnames, rank, inputs, cleared = _read_family(gens)
    k = len(gens)
    zero = (0,) * len(varnames)
    for i, (vec, den) in enumerate(cleared):
        vec[(rank + i, zero)] = den
    keyf = _Keys(elimination_key(rank)).__getitem__
    basis = _buchberger([(vec, None) for vec, _ in cleared], keyf, False,
                        rank + k)

    out: List[Tuple[Polynomial, ...]] = []
    for e in basis:
        if any(comp < rank for comp, _ in e.vec):
            continue
        shifted = {(comp - rank, exp): c for (comp, exp), c in e.vec.items()}
        out.append(_rational(shifted, e.ltc, varnames, k))
    zeros = (Polynomial.zero(varnames),) * rank
    if not remultiplies(out, inputs, [zeros] * len(out)):
        raise CertificateFailure("syzygy failed re-multiplication")
    return out


def module_intersection(fam_a, fam_b) -> List[Tuple[Polynomial, ...]]:
    """Generators of span(fam_a) meet span(fam_b) over the polynomial ring.

    Works through syzygies of the concatenated family: a relation
    sum a_i u_i + sum b_j v_j = 0 exhibits sum a_i u_i as a member of both
    spans.
    """
    _, rank = _family_shape(fam_a)
    both = list(fam_a) + list(fam_b)
    rels = syzygies(both)
    seqs = [(g,) if isinstance(g, Polynomial) else g for g in fam_a]
    out = []
    for rel in rels:
        mults = rel[:len(seqs)]
        vec = tuple(sum_of_products(zip(mults, (g[c] for g in seqs)))
                    for c in range(rank))
        if any(not p.is_zero() for p in vec):
            out.append(vec[0] if rank == 1 and isinstance(fam_a[0], Polynomial) else vec)
    return out


def ideal_dimension(gens, ordering: Optional[OrderingSpec] = None) -> int:
    """Krull dimension of the quotient by the ideal gens generate.

    With a global order this is the dimension of the affine zero set; with a
    local order, the dimension of the localized quotient at the origin.
    Returns -1 for the unit ideal and the ambient dimension for the zero
    ideal.  The computation finds a maximal variable set meeting no leading
    monomial support.
    """
    varnames, rank = _family_shape(gens)
    if rank != 1:
        raise PreconditionViolated("ideal_dimension takes an ideal, not a module")
    nonzero = [g for g in gens if not g.is_zero()]
    n = len(varnames)
    if not nonzero:
        return n
    sb = standard_basis(nonzero, ordering)
    supports = []
    for comp, exp in sb.leading_monomials():
        supp = frozenset(i for i, e in enumerate(exp) if e > 0)
        if not supp:
            return -1
        supports.append(supp)
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if all(not supp <= s for supp in supports):
                return size
    return 0
