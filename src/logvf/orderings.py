"""Monomial and module term orders.

Every order is realized as a sort key: larger key = larger monomial, so
leading terms are max() picks.  There are two orders.  GLOBAL
(graded-reverse-lex) makes 1 the smallest monomial; it serves syzygies and
the dimension counts.  LOCAL (local-anti-graded) makes 1 the largest, which
is what germ-level computations reduce against.

Module monomials are (component, exponent) pairs, ordered term over
position: the monomial first, then the lower component.  elimination_key
widens a module order for reading syzygies off a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from .errors import PreconditionViolated

Exponent = Tuple[int, ...]
ModMono = Tuple[int, Exponent]

KINDS = ("graded-reverse-lex", "local-anti-graded")


@dataclass(frozen=True)
class OrderingSpec:
    """A monomial order, extended to modules term over position."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionViolated(f"unknown ordering kind {self.kind!r}")

    @property
    def is_local(self) -> bool:
        return self.kind == "local-anti-graded"

    # -- keys ------------------------------------------------------------------

    def mono_key(self, exp: Exponent):
        deg = sum(exp)
        tail = tuple(-e for e in reversed(exp))
        return (-deg if self.is_local else deg, tail)

    def module_key(self, m: ModMono):
        comp, exp = m
        return (self.mono_key(exp), -comp)


GLOBAL = OrderingSpec("graded-reverse-lex")
LOCAL = OrderingSpec("local-anti-graded")


def elimination_key(order: OrderingSpec, front_rank: int) -> Callable[[ModMono], tuple]:
    """Key on a widened module where the first front_rank components dominate
    every later component (used when reading syzygies off a basis)."""

    def key(m: ModMono):
        comp, exp = m
        return (1 if comp < front_rank else 0, -comp, order.mono_key(exp))

    return key
