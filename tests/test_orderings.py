import pytest

from logvf.errors import PreconditionViolated
from logvf.orderings import GLOBAL, LOCAL, OrderingSpec, elimination_key


def test_grevlex_variable_chain():
    o = GLOBAL
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert o.mono_key(x) > o.mono_key(y) > o.mono_key(z)


def test_grevlex_discriminating_pair():
    # same degree, same first exponent comparison under plain lex would
    # differ; grevlex ranks by smaller exponent in the last variable
    o = GLOBAL
    assert o.mono_key((1, 2, 0)) > o.mono_key((2, 0, 1))
    assert o.mono_key((0, 0, 2)) < o.mono_key((0, 1, 1))


def test_grevlex_degree_dominates():
    o = GLOBAL
    assert o.mono_key((3, 0)) > o.mono_key((1, 1))
    assert o.mono_key((0, 0)) < o.mono_key((0, 1))


def test_local_reverses_degree():
    o = LOCAL
    assert o.mono_key((0, 0)) > o.mono_key((1, 0))
    assert o.mono_key((1, 0)) > o.mono_key((2, 0))
    # ties within a degree break the same way as graded-reverse-lex
    assert o.mono_key((1, 0)) > o.mono_key((0, 1))


def test_unknown_kind_rejected():
    with pytest.raises(PreconditionViolated):
        OrderingSpec("lexicographic")


def test_module_top_versus_pot():
    # term over position: the monomial decides before the component
    top = GLOBAL
    xe1 = (1, (1, 0))
    ye0 = (0, (0, 1))
    assert top.module_key(xe1) > top.module_key(ye0)
    # equal monomials: the lower component wins
    assert top.module_key((0, (1, 0))) > top.module_key((1, (1, 0)))


def test_keys_are_multiplicative():
    # multiplying both sides by a monomial never flips a comparison
    import random
    rng = random.Random(7)
    for o in (GLOBAL, LOCAL):
        for _ in range(200):
            a = tuple(rng.randrange(4) for _ in range(3))
            b = tuple(rng.randrange(4) for _ in range(3))
            m = tuple(rng.randrange(3) for _ in range(3))
            am = tuple(x + y for x, y in zip(a, m))
            bm = tuple(x + y for x, y in zip(b, m))
            if o.mono_key(a) > o.mono_key(b):
                assert o.mono_key(am) > o.mono_key(bm)
            elif o.mono_key(a) == o.mono_key(b):
                assert a == b


def test_elimination_key_blocks():
    key = elimination_key(front_rank=2)
    # anything in the front block beats anything behind it
    assert key((1, (5, 5))) > key((2, (0, 0)))
    assert key((0, (9, 9))) > key((3, (0, 0)))
    assert key((1, (0, 0))) > key((2, (9, 9)))
    # inside a block the component dominates, then GLOBAL
    assert key((2, (1, 0))) > key((3, (0, 0)))
    assert key((2, (0, 0))) > key((3, (4, 4)))
    assert key((2, (1, 0))) > key((2, (0, 0)))
    assert key((2, (0, 2))) > key((2, (1, 0)))
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]
    for comp in (0, 3):
        assert sorted(monos, key=lambda e: key((comp, e))) == \
            sorted(monos, key=GLOBAL.mono_key)


def test_is_local_flag():
    assert LOCAL.is_local
    assert not GLOBAL.is_local
