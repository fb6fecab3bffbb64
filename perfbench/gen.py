"""Seeded request streams for the three workloads.

Every stream is cut into rounds.  A round always holds the same mix of
request kinds (family, exponents or size, subcommand); the seed only draws
the coefficients, the linear forms, the truncation orders and the order of
the requests inside the round.  The benchmark measures whole rounds, so two
seeds see the same mix and their figures can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Check tags a generated divisor carries (see checks.py).
PLANE_CURVE = "plane_curve"          # reduced, 2 variables: Saito says free
WEIGHTED_HOMOGENEOUS = "weighted_homogeneous"
CENTRAL_ARRANGEMENT = "central_arrangement"
PRODUCT = "product"                  # an unused extra variable

# Truncation orders are drawn around logvf's default, 2*deg(f) + 2
# (normalform.default_truncation), which analyze and `logvf normalize` use
# when no --trunc is given: the default itself or one or two below it, as a
# user trading depth for time would pass.  The formula is fixed here rather
# than read from the package, so every commit sees the same inputs.
TRUNC_OFFSETS = (-2, -1, 0)


def truncation(degree: int, offset: int) -> int:
    return 2 * degree + 2 + offset


# Semi-quasi-homogeneous cells x^a + y^b + c*x^i*y^j, grouped by how
# logvf 0.1.0 behaves on them at those orders (measured on a 2-vCPU VM):
# FAST ends in CertificateFailure in well under a second, MEDIUM takes one
# to three seconds, STALLED runs for minutes.  AT_DEFAULT is the failing
# probe x^6 + y^8 + x^5*y^7: it ends in CertificateFailure at the default
# order and is answered one or two below it, so it always runs at the
# default, or the failed share of a round would depend on the seed.  Every
# round takes each cell of FAST and AT_DEFAULT once, each MEDIUM cell once
# at every order and one STALLED cell, so each round has the same share of
# slow and failing germs.
SQH_FAST = ((2, 4, 1, 3), (2, 5, 1, 4), (2, 6, 1, 5), (2, 7, 1, 6))
SQH_MEDIUM = ((2, 5, 2, 1), (2, 3, 1, 2), (2, 3, 0, 4))
SQH_AT_DEFAULT = ((6, 8, 5, 7),)
SQH_STALLED = ((2, 5, 1, 3), (3, 4, 1, 3), (3, 5, 1, 4))

# Exponents of the Brieskorn-Pham slots of a round; the seed draws only
# their coefficients, so each round costs about the same.
BP_CURVES = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (2, 6), (4, 5),
             (3, 6), (4, 6))
BP_SURFACES = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4), (3, 3, 3),
               (2, 2, 4))

CLI_QUESTIONS: Tuple[Tuple[str, ...], ...] = (
    ("derlog",), ("free",), ("euler",),
    ("lie", "--trunc", "1"), ("lie", "--trunc", "2"),
    ("normalize",),
    ("cech", "--witness-bound", "4"), ("cech", "--witness-bound", "5"),
)


@dataclass(frozen=True)
class Germ:
    varnames: Tuple[str, ...]
    text: str
    family: str
    tags: frozenset = frozenset()


@dataclass(frozen=True)
class Request:
    """One call into the package.

    `argv` set means a `logvf.cli.main` call; otherwise `report.analyze` on
    `poly` with `trunc`.  `expect` holds check_expectations keys; `strict`
    requests (corpus files under analyze) must match every key, the others
    accept a typed refusal in place of a checked value other than `free`.
    """

    family: str
    varnames: Tuple[str, ...]
    text: str
    poly: object = None
    trunc: Optional[int] = None
    argv: Optional[Tuple[str, ...]] = None
    expect: Dict[str, str] = field(default_factory=dict)
    strict: bool = False


# -- text of polynomials ---------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 19), rng.randint(1, 19))
    return value if rng.random() < 0.5 else -value


def _monomial(varnames: Sequence[str], exps: Sequence[int]) -> str:
    parts = [v if e == 1 else f"{v}^{e}"
             for v, e in zip(varnames, exps) if e > 0]
    return "*".join(parts) if parts else "1"


def _sum_text(terms: Sequence[Tuple[Fraction, str]]) -> str:
    """Signs are written out: the parser rejects `+ -2*x`."""
    out = []
    for c, mono in terms:
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if not out:
            out.append(("-" if c < 0 else "") + mag + mono)
        else:
            out.append(("- " if c < 0 else "+ ") + mag + mono)
    return " ".join(out)


def _linear_form(coeffs: Sequence[int], varnames: Sequence[str]) -> str:
    return "(" + _sum_text([(Fraction(c), v)
                            for c, v in zip(coeffs, varnames)]) + ")"


def _primitive(coeffs: Sequence[int]) -> Tuple[int, ...]:
    g = math.gcd(*coeffs)
    vec = [c // g for c in coeffs]
    lead = next(c for c in vec if c != 0)
    return tuple(-c for c in vec) if lead < 0 else tuple(vec)


# -- families --------------------------------------------------------------------


def brieskorn_pham(rng: random.Random, exps: Sequence[int]) -> Germ:
    """sum of c_i * x_i^(e_i) with drawn rational c_i."""
    nvars = len(exps)
    varnames = ("x", "y", "z")[:nvars]
    terms = [(_rational(rng),
              _monomial(varnames, [e if j == i else 0 for j in range(nvars)]))
             for i, e in enumerate(exps)]
    return Germ(varnames, _sum_text(terms),
                "bp-curve" if nvars == 2 else "bp-surface",
                frozenset({WEIGHTED_HOMOGENEOUS}
                          | ({PLANE_CURVE} if nvars == 2 else set())))


def semi_quasi_homogeneous(rng: random.Random,
                           cell: Tuple[int, int, int, int]) -> Germ:
    a, b, i, j = cell
    varnames = ("x", "y")
    text = _sum_text([(Fraction(1), _monomial(varnames, (a, 0))),
                      (Fraction(1), _monomial(varnames, (0, b))),
                      (_rational(rng), _monomial(varnames, (i, j)))])
    return Germ(varnames, text, "sqh", frozenset({PLANE_CURVE}))


def central_arrangement(rng: random.Random, nvars: int, count: int) -> Germ:
    """The coordinate hyperplanes and count - nvars drawn ones.

    Drawn forms have no zero coefficient, so each meets the coordinate
    hyperplanes generically; the intersection pattern, and with it the
    cost, varies little between draws.
    """
    varnames = ("x", "y", "z")[:nvars]
    keys = {_primitive([int(i == j) for j in range(nvars)])
            for i in range(nvars)}
    forms = list(varnames)
    while len(forms) < count:
        coeffs = [rng.randint(1, 5) * rng.choice((1, -1))
                  for _ in range(nvars)]
        key = _primitive(coeffs)
        if key not in keys:
            keys.add(key)
            forms.append(_linear_form(coeffs, varnames))
    tags = {CENTRAL_ARRANGEMENT} | ({PLANE_CURVE} if nvars == 2 else set())
    return Germ(varnames, "*".join(forms),
                "lines" if nvars == 2 else "planes", frozenset(tags))


def with_unused_variable(curve: Germ) -> Germ:
    """The same curve over (x, y, z): a product with a smooth factor."""
    tags = (curve.tags - {PLANE_CURVE}) | {PRODUCT}
    return Germ(curve.varnames + ("z",), curve.text,
                "product-" + curve.family, frozenset(tags))


def expectations(germ: Germ) -> Dict[str, str]:
    expect = {}
    if PLANE_CURVE in germ.tags:
        expect["free"] = "true"
    if germ.tags & {WEIGHTED_HOMOGENEOUS, CENTRAL_ARRANGEMENT}:
        expect["euler"] = "true"
    if PRODUCT in germ.tags:
        expect["product"] = "true"
    return expect


# -- workloads -------------------------------------------------------------------


Parse = Callable[[str, Sequence[str]], object]


@dataclass(frozen=True)
class CorpusEntry:
    varnames: Tuple[str, ...]
    poly: object
    expect: Dict[str, str]


class CorpusReplay:
    """Each round is the corpus in a fresh seeded order."""

    def __init__(self, seed: int, corpus: Sequence[CorpusEntry]):
        self._rng = random.Random(f"corpus-replay:{seed}")
        self._corpus = list(corpus)

    def next_round(self) -> List[Request]:
        entries = list(self._corpus)
        self._rng.shuffle(entries)
        return [Request(family="corpus", varnames=e.varnames,
                        text=str(e.poly), poly=e.poly,
                        expect=dict(e.expect), strict=True)
                for e in entries]


class FreshGerms:
    """Distinct divisors from every family, with a drawn truncation order."""

    MAX_DRAWS = 1000

    def __init__(self, seed: int, parse: Parse):
        self._rng = random.Random(f"fresh-germs:{seed}")
        self._parse = parse
        self._seen = set()

    def _slots(self) -> List[Tuple[Callable[[], Germ], Optional[int]]]:
        """One round: a way to draw each germ, with its truncation offset
        (None: drawn per request)."""
        rng = self._rng
        slots: List[Tuple[Callable[[], Germ], Optional[int]]] = []
        slots += [(lambda e=e: brieskorn_pham(rng, e), None)
                  for e in BP_CURVES + BP_SURFACES]
        slots += [(lambda c=c: semi_quasi_homogeneous(rng, c), None)
                  for c in SQH_FAST]
        # a medium cell costs twice as much at the default as two below it,
        # and these requests set the 90th percentile: each cell runs at
        # every offset, so no draw moves that percentile
        slots += [(lambda c=c: semi_quasi_homogeneous(rng, c), k)
                  for c in SQH_MEDIUM for k in TRUNC_OFFSETS]
        slots += [(lambda c=c: semi_quasi_homogeneous(rng, c), 0)
                  for c in SQH_AT_DEFAULT]
        slots.append((lambda: semi_quasi_homogeneous(
            rng, rng.choice(SQH_STALLED)), None))
        slots += [(lambda k=k: central_arrangement(rng, 2, k), None)
                  for k in (4, 4, 4, 5, 5, 5, 6, 6, 6)]
        slots += [(lambda: central_arrangement(rng, 3, 4), None)] * 6
        slots += [(lambda e=e: with_unused_variable(brieskorn_pham(rng, e)),
                   None) for e in ((2, 3), (3, 4), (2, 5))]
        slots += [(lambda: with_unused_variable(
            central_arrangement(rng, 2, 4)), None)] * 2
        slots += [(lambda: with_unused_variable(semi_quasi_homogeneous(
            rng, rng.choice(SQH_FAST))), None)] * 2
        return slots

    def next_round(self) -> List[Request]:
        requests = []
        for draw, offset in self._slots():
            for _ in range(self.MAX_DRAWS):
                germ = draw()
                poly = self._parse(germ.text, germ.varnames)
                key = (germ.varnames, str(poly))
                if key not in self._seen:
                    break
            else:
                raise RuntimeError(f"no new {germ.family} germ in "
                                   f"{self.MAX_DRAWS} draws")
            self._seen.add(key)
            k = offset if offset is not None else self._rng.choice(TRUNC_OFFSETS)
            requests.append(Request(
                family=germ.family, varnames=germ.varnames, text=germ.text,
                poly=poly, trunc=truncation(poly.total_degree(), k),
                expect=expectations(germ)))
        self._rng.shuffle(requests)
        return requests


class CliQuestions:
    """Every divisor of a round asks every question once."""

    def __init__(self, seed: int, corpus: Sequence[CorpusEntry]):
        self._rng = random.Random(f"cli-questions:{seed}")
        self._corpus = list(corpus)

    def _divisors(self) -> List[Tuple[str, Tuple[str, ...], str, Dict[str, str]]]:
        rng = self._rng
        out = [("corpus", e.varnames, str(e.poly), dict(e.expect))
               for e in self._corpus]
        germs = [brieskorn_pham(rng, (3, 4)), brieskorn_pham(rng, (2, 3, 4)),
                 semi_quasi_homogeneous(rng, (2, 5, 1, 4)),
                 central_arrangement(rng, 2, 4),
                 central_arrangement(rng, 3, 4),
                 with_unused_variable(brieskorn_pham(rng, (2, 3)))]
        out += [(g.family, g.varnames, g.text, expectations(g)) for g in germs]
        return out

    def next_round(self) -> List[Request]:
        requests = []
        for family, varnames, text, expect in self._divisors():
            for question in CLI_QUESTIONS:
                argv = (question[0], "--vars", ",".join(varnames),
                        "--poly", text, "--json") + question[1:]
                requests.append(Request(family=family, varnames=varnames,
                                        text=text, argv=argv,
                                        expect=expect))
        self._rng.shuffle(requests)
        return requests
