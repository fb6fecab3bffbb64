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

Elements of a rank-r module are stored flat as dicts mapping
(component, exponent) to Fraction.  Representations over k inputs use the
same shape with the input index as component, so one set of arithmetic
helpers drives both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CertificateFailure, PrecisionRequired, PreconditionViolated
from .orderings import Exponent, ModMono, OrderingSpec, elimination_key
from .poly import Jet, Polynomial

Vec = Dict[ModMono, Fraction]

_ZERO = Fraction(0)


# -- flat vector arithmetic ---------------------------------------------------

def _vec_sub_scaled(a: Vec, b: Vec, c: Fraction, shift: Exponent) -> Vec:
    """a - c * x^shift * b, dropping zeros."""
    out = dict(a)
    for (comp, exp), v in b.items():
        key = (comp, tuple(e + s for e, s in zip(exp, shift)))
        nv = out.get(key, _ZERO) - c * v
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def _vec_scale(a: Vec, c: Fraction) -> Vec:
    return {m: c * v for m, v in a.items()}


def _vec_deg(a: Vec) -> int:
    return max(sum(exp) for _, exp in a)


def _divides(small: Exponent, big: Exponent) -> bool:
    return all(s <= b for s, b in zip(small, big))


class _Elem:
    """A working element: flat vector, cached lead data, representation."""

    __slots__ = ("vec", "lt", "ltc", "key", "ecart", "rep")

    def __init__(self, vec: Vec, keyf, rep: Vec):
        self.vec = vec
        self.rep = rep
        self.lt = max(vec, key=keyf)
        self.ltc = vec[self.lt]
        self.key = keyf(self.lt)
        self.ecart = _vec_deg(vec) - sum(self.lt[1])


def _monic(e: _Elem, keyf) -> _Elem:
    if e.ltc == 1:
        return e
    inv = Fraction(1) / e.ltc
    return _Elem(_vec_scale(e.vec, inv), keyf, _vec_scale(e.rep, inv))


# -- normal form --------------------------------------------------------------

def _weak_nf(start: Vec, basis: List[_Elem], keyf, local: bool,
             total: bool) -> Tuple[Vec, Dict[Exponent, Fraction], Vec]:
    """Reduce start against basis.

    Returns (nf, unit, rep) satisfying  nf = unit * start + rep . basis,
    where rep lives over basis indices and unit is a polynomial in exponent
    dict form.  For global orders unit == {0: 1}.  Mora's variant may park
    intermediate results as extra reducers; each carries its own identity so
    the final one is exact.  total=True (global orders only) also reduces
    trailing terms, producing the unique normal form.
    """
    unit: Dict[Exponent, Fraction] = {}
    rep: Vec = {}
    if not start:
        return {}, unit, rep
    nvars = len(next(iter(start))[1])
    one = tuple([0] * nvars)
    unit = {one: Fraction(1)}
    if total and local:
        raise PreconditionViolated("total reduction needs a global order")

    # identity for the working element h:  h = unit * start + rep . basis
    h = dict(start)
    stored: List[Tuple[Vec, Dict[Exponent, Fraction], Vec]] = []
    done: Vec = {}

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
            for i, (svec, _, _) in enumerate(stored):
                slt = max(svec, key=keyf)
                if slt[0] == comp and _divides(slt[1], exp):
                    ec = _vec_deg(svec) - sum(slt[1])
                    cand = (ec, 1, i)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            if total:
                done[lt] = ltc
                del h[lt]
                continue
            break
        h_ecart = _vec_deg(h) - sum(exp)
        if local and best[0] > h_ecart:
            stored.append((dict(h), dict(unit), dict(rep)))
        if best[1] == 0:
            g = basis[best[2]]
            shift = tuple(e - s for e, s in zip(exp, g.lt[1]))
            c = ltc / g.ltc
            h = _vec_sub_scaled(h, g.vec, c, shift)
            key = (best[2], shift)
            nv = rep.get(key, _ZERO) + c
            if nv:
                rep[key] = nv
            else:
                rep.pop(key, None)
        else:
            svec, sunit, srep = stored[best[2]]
            slt = max(svec, key=keyf)
            shift = tuple(e - s for e, s in zip(exp, slt[1]))
            c = ltc / svec[slt]
            h = _vec_sub_scaled(h, svec, c, shift)
            unit = _vec_sub_scaled({(0, e): v for e, v in unit.items()},
                                   {(0, e): v for e, v in sunit.items()}, c, shift)
            unit = {e: v for (_, e), v in unit.items()}
            rep = _vec_sub_scaled(rep, srep, c, shift)

    if total:
        done.update(h)
        h = done
    # rep was accumulated as subtractions applied to h, so flip its sign to
    # match the stated identity.
    rep = {m: -v for m, v in rep.items()}
    return h, unit, rep


# -- Buchberger ---------------------------------------------------------------

def _spair_data(a: _Elem, b: _Elem):
    comp = a.lt[0]
    gamma = tuple(max(x, y) for x, y in zip(a.lt[1], b.lt[1]))
    return comp, gamma


def _buchberger(inputs: List[Vec], keyf, local: bool, rank: int) -> List[_Elem]:
    basis: List[_Elem] = []
    k = len(inputs)
    for i, vec in enumerate(inputs):
        if vec:
            e = _Elem(dict(vec), keyf, {(i, tuple([0] * _nvars(vec))): Fraction(1)})
            basis.append(_monic(e, keyf))

    pairs = set()
    for i, j in itertools.combinations(range(len(basis)), 2):
        if basis[i].lt[0] == basis[j].lt[0]:
            pairs.add((i, j))
    processed = set()

    while pairs:
        def pair_rank(p):
            comp, gamma = _spair_data(basis[p[0]], basis[p[1]])
            return (sum(gamma), keyf((comp, gamma)), p[0], p[1])

        i, j = min(pairs, key=pair_rank)
        pairs.discard((i, j))
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

        sa = tuple(g - e for g, e in zip(gamma, a.lt[1]))
        sb = tuple(g - e for g, e in zip(gamma, b.lt[1]))
        svec = _vec_sub_scaled(
            _vec_sub_scaled({}, a.vec, Fraction(-1), sa), b.vec, Fraction(1), sb)
        srep = _vec_sub_scaled(
            _vec_sub_scaled({}, a.rep, Fraction(-1), sa), b.rep, Fraction(1), sb)
        if not svec:
            continue
        nf, unit, rep = _weak_nf(svec, basis, keyf, local, total=False)
        if not nf:
            continue
        # nf = unit * svec + rep . basis, svec = srep . inputs
        new_rep: Vec = {}
        for e, v in unit.items():
            new_rep = _vec_sub_scaled(new_rep, srep, -v, e)
        for (t, e), v in rep.items():
            new_rep = _vec_sub_scaled(new_rep, basis[t].rep, -v, e)
        new = _monic(_Elem(nf, keyf, new_rep), keyf)
        t = len(basis)
        basis.append(new)
        for s in range(t):
            if basis[s].lt[0] == new.lt[0]:
                pairs.add((s, t))
    return basis


def _nvars(vec: Vec) -> int:
    return len(next(iter(vec))[1])


def _prune(basis: List[_Elem], keyf) -> List[_Elem]:
    """Drop elements whose lead is divisible by another kept lead.

    Scanning by ascending lead degree sees divisors before their multiples
    under every order kind, so the kept leads are pairwise indivisible.
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

def _to_vec(element, varnames, rank: int) -> Vec:
    if isinstance(element, Polynomial):
        element = (element,)
    if len(element) != rank:
        raise PreconditionViolated(
            f"expected a vector of {rank} entries, got {len(element)}")
    vec: Vec = {}
    for comp, p in enumerate(element):
        if isinstance(p, Jet):
            raise PreconditionViolated("basis inputs must be exact polynomials")
        if p.vars != varnames:
            raise PreconditionViolated("mixed variable tuples in one family")
        for exp, c in p.terms.items():
            if any(e < 0 for e in exp):
                raise PreconditionViolated("negative exponents have no term order")
            vec[(comp, exp)] = c
    return vec


def _from_vec(vec: Vec, varnames, rank: int) -> Tuple[Polynomial, ...]:
    buckets: List[Dict[Exponent, Fraction]] = [dict() for _ in range(rank)]
    for (comp, exp), c in vec.items():
        buckets[comp][exp] = c
    return tuple(Polynomial(b, varnames) for b in buckets)


def _family_shape(gens) -> Tuple[Tuple[str, ...], int]:
    if not gens:
        raise PreconditionViolated("empty generating family")
    first = gens[0]
    if isinstance(first, Jet):
        raise PreconditionViolated("basis inputs must be exact polynomials")
    if isinstance(first, Polynomial):
        return first.vars, 1
    entry = first[0]
    if isinstance(entry, Jet):
        raise PreconditionViolated("basis inputs must be exact polynomials")
    return entry.vars, len(first)


def _checked_order(ordering: Optional[OrderingSpec],
                   varnames: Tuple[str, ...]) -> OrderingSpec:
    """The given order, or the default one; an order whose weights do not
    match the variables is refused."""
    order = ordering or OrderingSpec()
    if order.weights is not None and len(order.weights) != len(varnames):
        raise PreconditionViolated("order weights must match the variable count")
    return order


@dataclass(frozen=True)
class StandardBasis:
    """A standard basis together with lifts to the original inputs.

    generators[j] is a vector of rank polynomials; lifts[j][k] satisfies
    generators[j] = sum_k lifts[j][k] * inputs[k].
    """

    generators: Tuple[Tuple[Polynomial, ...], ...]
    lifts: Tuple[Tuple[Polynomial, ...], ...]
    inputs: Tuple[Tuple[Polynomial, ...], ...]
    ordering: OrderingSpec
    varnames: Tuple[str, ...]
    rank: int

    def leading_monomials(self) -> List[ModMono]:
        out = []
        for g in self.generators:
            vec = _to_vec(g, self.varnames, self.rank)
            out.append(max(vec, key=self.ordering.module_key))
        return out

    def polynomials(self) -> List[Polynomial]:
        if self.rank != 1:
            raise PreconditionViolated("polynomials() needs a rank-1 basis")
        return [g[0] for g in self.generators]


def standard_basis(gens, ordering: Optional[OrderingSpec] = None) -> StandardBasis:
    """Compute a standard basis (Groebner basis for global orders).

    gens is a list of Polynomial (ideal case) or a list of equal-length
    sequences of Polynomial (module case).  The result is pruned, monic,
    sorted by ascending lead, and for global orders fully tail-reduced.
    """
    varnames, rank = _family_shape(gens)
    order = _checked_order(ordering, varnames)
    vecs = [_to_vec(g, varnames, rank) for g in gens]
    keyf = order.module_key
    local = order.is_local
    basis = _buchberger(vecs, keyf, local, rank)
    basis = _prune(basis, keyf)
    if not local:
        reduced: List[_Elem] = []
        for idx, e in enumerate(basis):
            others = [g for t, g in enumerate(basis) if t != idx]
            if others:
                nf, _, rep = _weak_nf(e.vec, others, keyf, local=False, total=True)
                new_rep = dict(e.rep)
                for (t, exp), v in rep.items():
                    new_rep = _vec_sub_scaled(new_rep, others[t].rep, -v, exp)
                e = _monic(_Elem(nf, keyf, new_rep), keyf)
            reduced.append(e)
        basis = reduced
    basis.sort(key=lambda e: e.key)

    k = len(gens)
    generators = []
    lifts = []
    for e in basis:
        generators.append(_from_vec(e.vec, varnames, rank))
        lifts.append(_from_vec(e.rep, varnames, k))
    inputs = tuple(_from_vec(v, varnames, rank) for v in vecs)

    sb = StandardBasis(tuple(generators), tuple(lifts), inputs, order, varnames, rank)
    _check_lifts(sb)
    return sb


def _check_lifts(sb: StandardBasis) -> None:
    for g, lift in zip(sb.generators, sb.lifts):
        acc = [Polynomial.zero(sb.varnames) for _ in range(sb.rank)]
        for q, inp in zip(lift, sb.inputs):
            for c in range(sb.rank):
                acc[c] = acc[c] + q * inp[c]
        if tuple(acc) != tuple(g):
            raise CertificateFailure("standard basis lift failed to reproduce element")


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
        if not self.member:
            return False
        if isinstance(element, Polynomial):
            element = (element,)
        inputs = [(g,) if isinstance(g, Polynomial) else tuple(g) for g in inputs]
        varnames = element[0].vars
        rank = len(element)
        acc = [Polynomial.zero(varnames) for _ in range(rank)]
        for q, g in zip(self.quotients, inputs):
            qq = q.poly if isinstance(q, Jet) else q
            for c in range(rank):
                acc[c] = acc[c] + qq * g[c]
        for c in range(rank):
            diff = acc[c] - element[c]
            if self.precision is None:
                if not diff.is_zero():
                    return False
            else:
                if not diff.truncate(self.precision).is_zero():
                    return False
        return True


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
                                     _from_vec({}, varnames, rank),
                                     Polynomial.const(varnames, Fraction(1)))
    keyf = basis.ordering.module_key
    local = basis.ordering.is_local
    belems = [_Elem(_to_vec(g, varnames, rank), keyf,
                    _to_vec(lift, varnames, k))
              for g, lift in zip(basis.generators, basis.lifts)]
    nf, unit, rep = _weak_nf(vec, belems, keyf, local, total=False)
    unit_poly = Polynomial({e: c for e, c in unit.items()}, varnames)
    nf_vec = _from_vec(nf, varnames, rank)
    if nf:
        return MembershipCertificate(False, None, None, nf_vec, unit_poly)

    if local and unit_poly.constant_term() == 0:
        raise CertificateFailure("reduction multiplier vanishes at the origin")

    # unit * element + rep . generators = 0 here, so the quotients over the
    # inputs are -(rep pushed through the lifts) / unit.
    over_inputs: Vec = {}
    for (t, exp), v in rep.items():
        over_inputs = _vec_sub_scaled(over_inputs, belems[t].rep, v, exp)
    qpolys = _from_vec(over_inputs, varnames, k)

    if unit_poly.total_degree() == 0:
        c = unit_poly.constant_term()
        quotients = tuple(q * Polynomial.const(varnames, Fraction(1) / c)
                          for q in qpolys)
        cert = MembershipCertificate(True, quotients, None, nf_vec,
                                     Polynomial.const(varnames, Fraction(1)))
        if not cert.verify(element, basis.inputs):
            raise CertificateFailure("membership quotients failed re-multiplication")
        return cert

    if precision is None:
        raise PrecisionRequired(
            "local membership has a power series quotient; pass a precision")
    uinv = Jet(unit_poly, precision).inverse()
    quotients = tuple((Jet(q, precision) * uinv) for q in qpolys)
    cert = MembershipCertificate(True, quotients, precision, nf_vec, unit_poly)
    if not cert.verify(element, basis.inputs):
        raise CertificateFailure("membership quotients failed re-multiplication")
    return cert


def syzygies(gens, ordering: Optional[OrderingSpec] = None) -> List[Tuple[Polynomial, ...]]:
    """Generators of the syzygy module of gens.

    Each returned vector s satisfies sum_k s[k] * gens[k] = 0, checked
    exactly before returning.  With a global order the syzygies generate
    over the polynomial ring; with a local order over the local ring.
    """
    varnames, rank = _family_shape(gens)
    order = _checked_order(ordering, varnames)
    k = len(gens)
    vecs = [_to_vec(g, varnames, rank) for g in gens]
    wide: List[Vec] = []
    nvars = len(varnames)
    zero_exp = tuple([0] * nvars)
    for i, v in enumerate(vecs):
        w = dict(v)
        w[(rank + i, zero_exp)] = Fraction(1)
        wide.append(w)
    keyf = elimination_key(order, rank)
    basis = _buchberger(wide, keyf, order.is_local, rank + k)
    basis = _prune(basis, keyf)
    basis.sort(key=lambda e: e.key)

    out: List[Tuple[Polynomial, ...]] = []
    for e in basis:
        if any(comp < rank for comp, _ in e.vec):
            continue
        shifted = {(comp - rank, exp): c for (comp, exp), c in e.vec.items()}
        syz = _from_vec(shifted, varnames, k)
        acc = [Polynomial.zero(varnames) for _ in range(rank)]
        for q, g in zip(syz, gens):
            gseq = (g,) if isinstance(g, Polynomial) else g
            for c in range(rank):
                acc[c] = acc[c] + q * gseq[c]
        if any(not a.is_zero() for a in acc):
            raise CertificateFailure("syzygy failed re-multiplication")
        out.append(syz)
    return out


def module_intersection(fam_a, fam_b, ordering: Optional[OrderingSpec] = None
                        ) -> List[Tuple[Polynomial, ...]]:
    """Generators of span(fam_a) meet span(fam_b).

    Works through syzygies of the concatenated family: a relation
    sum a_i u_i + sum b_j v_j = 0 exhibits sum a_i u_i as a member of both
    spans.
    """
    varnames, rank = _family_shape(fam_a)
    both = list(fam_a) + list(fam_b)
    rels = syzygies(both, ordering)
    out = []
    for rel in rels:
        acc = [Polynomial.zero(varnames) for _ in range(rank)]
        for q, g in zip(rel[:len(fam_a)], fam_a):
            gseq = (g,) if isinstance(g, Polynomial) else g
            for c in range(rank):
                acc[c] = acc[c] + q * gseq[c]
        vec = tuple(acc)
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
    order = _checked_order(ordering, varnames)
    if rank != 1:
        raise PreconditionViolated("ideal_dimension takes an ideal, not a module")
    nonzero = [g for g in gens if not g.is_zero()]
    n = len(varnames)
    if not nonzero:
        return n
    sb = standard_basis(nonzero, order)
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
