"""Exact rational matrix routines."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvf.linalg import (
    charpoly,
    echelon,
    inverse,
    mat,
    mat_mul,
    mat_pow,
    nullspace,
    rank,
    remainder,
    row_space_contains,
    rref,
    solve,
)


def test_rref_pivots():
    R, pivots = rref(mat([[2, 0, -1], [0, 3, -1]]))
    assert pivots == [0, 1]
    assert R == mat([[1, 0, Fraction(-1, 2)], [0, 1, Fraction(-1, 3)]])



def test_products_with_an_empty_matrix():
    assert mat_pow([], 1) == []
    assert mat_pow([], 0) == []
    assert mat_mul([], []) == []
    # an n x 0 matrix times the 0 x 0 one: n empty rows
    assert mat_mul([[], []], []) == [[], []]

def test_rank_and_nullspace():
    A = mat([[1, 2, 3], [2, 4, 6]])
    assert rank(A) == 1
    basis = nullspace(A)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in (sum(a * b for a, b in zip(row, v)) for row in A))


def test_solve():
    A = mat([[1, 1], [1, -1]])
    assert solve(A, [Fraction(2), Fraction(0)]) == [Fraction(1), Fraction(1)]
    assert solve(mat([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]) is None


def test_det_and_inverse():
    A = mat([[2, 1], [1, 1]])
    assert mat_mul(A, inverse(A)) == mat([[1, 0], [0, 1]])


def test_charpoly_companion():
    # diag(3,1,-1,-3): charpoly t^4 - 10t^2 + 9
    A = mat([[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]])
    assert charpoly(A) == [Fraction(1), Fraction(0), Fraction(-10), Fraction(0), Fraction(9)]


def test_row_space_contains():
    rows = [mat([[1, 1, 1, 1]])[0], mat([[3, 1, -1, -3]])[0]]
    assert row_space_contains(rows, mat([[4, 2, 0, -2]])[0])
    assert not row_space_contains(rows, mat([[1, 0, 0, 0]])[0])


# -- properties: the sparse core against dense Gauss-Jordan ---------------------

PROPERTY = settings(max_examples=150)
ENTRIES = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-4, max_value=4, max_denominator=7))


def _reference_rref(A):
    """Dense Gauss-Jordan: the first row with an entry is the pivot."""
    M = [[Fraction(x) for x in row] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = Fraction(1) / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def _reference_nullspace(A, cols):
    R, pivots = _reference_rref(A)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def _reference_solve(A, b, cols):
    R, pivots = _reference_rref([list(row) + [bv] for row, bv in zip(A, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return x


@st.composite
def matrices(draw, min_rows=0, max_rows=7, max_cols=7, square=False,
             entries=ENTRIES):
    """Sparse or dense matrices, with zero rows and repeated rows."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    cell = st.one_of(st.just(0), entries) if density < 1 else entries
    A = []
    for _ in range(rows):
        if draw(st.floats(0, 1)) < 0.1:
            A.append([0] * cols)
        elif A and draw(st.floats(0, 1)) < 0.15:
            A.append(list(draw(st.sampled_from(A))))
        else:
            A.append([draw(cell) if draw(st.floats(0, 1)) < density else 0
                      for _ in range(cols)])
    return A, cols


def _sparse(A):
    return [{c: v for c, v in enumerate(row) if v} for row in A]


@PROPERTY
@given(matrices())
def test_rref_and_rank_match_reference(case):
    A, _ = case
    assert rref(A) == _reference_rref(A)
    assert rank(A) == len(_reference_rref(A)[1]) == rank(_sparse(A))


@PROPERTY
@given(matrices())
def test_nullspace_matches_reference(case):
    A, cols = case
    expected = _reference_nullspace(A, cols)
    assert nullspace(A, cols) == expected
    assert nullspace(_sparse(A), cols) == expected
    if A:
        assert nullspace(A) == expected


@PROPERTY
@given(matrices(min_rows=1), st.data())
def test_solve_matches_reference(case, data):
    A, cols = case
    b = data.draw(st.lists(ENTRIES, min_size=len(A), max_size=len(A)))
    if data.draw(st.booleans()):
        # a consistent right-hand side: A times a drawn vector
        x = data.draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
        b = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]
    expected = _reference_solve(A, b, cols)
    assert solve(A, b) == expected
    assert solve(_sparse(A), b, cols) == expected


@PROPERTY
@given(matrices(min_rows=1, max_rows=6, square=True))
def test_inverse_matches_reference(case):
    A, n = case
    R, pivots = _reference_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            inverse(A)
    else:
        assert inverse(A) == [row[n:] for row in R]


@PROPERTY
@given(matrices(), st.data())
def test_remainder_matches_rank_reference(case, data):
    A, cols = case
    v = data.draw(st.lists(st.one_of(st.just(0), ENTRIES),
                           min_size=cols, max_size=cols))
    if A and data.draw(st.booleans()):
        # a vector of the row span: a drawn combination of the rows
        coeffs = data.draw(st.lists(ENTRIES, min_size=len(A), max_size=len(A)))
        v = [sum(Fraction(c) * row[j] for c, row in zip(coeffs, A))
             for j in range(cols)]
    reduced, pivots = echelon(A)
    assert (reduced, pivots) == echelon(_sparse(A))
    r = remainder(v, reduced, pivots)
    assert r == remainder(_sparse([v])[0], reduced, pivots)
    ref_rank = len(_reference_rref(A)[1]) if A else 0

    def grows(w):
        return len(_reference_rref(A + [w])[1]) > ref_rank

    dense_r = [r.get(j, 0) for j in range(cols)]
    assert (not r) == (not grows(v))
    assert not grows([a - b for a, b in zip(v, dense_r)])
    assert not set(r) & set(pivots)


INTS = st.integers(-5, 5)


def _results(A, v, b, cols):
    """What each entry point gives on A: the echelon pair, v's remainder,
    the rank, the kernel, a solution of A x = b, and for a square A its
    inverse or "singular"."""
    reduced, pivots = echelon(A)
    out = {"echelon": (reduced, pivots),
           "remainder": remainder(v, reduced, pivots),
           "rank": rank(A),
           "nullspace": nullspace(A, cols),
           "solve": solve(A, b, cols)}
    if len(A) == cols and not (A and isinstance(A[0], dict)):
        try:
            out["inverse"] = inverse(A)
        except ValueError:
            out["inverse"] = "singular"
    return out


def _entries(results):
    """Every matrix or vector entry among the results of _results."""
    reduced, _ = results["echelon"]
    yield from (x for row in reduced for x in row.values())
    yield from results["remainder"].values()
    yield from (x for vec in results["nullspace"] for x in vec)
    yield from results["solve"] or ()
    if isinstance(results.get("inverse"), list):
        yield from (x for row in results["inverse"] for x in row)


@PROPERTY
@given(st.one_of(matrices(entries=INTS),
                 matrices(max_rows=6, square=True, entries=INTS)), st.data())
def test_int_entries_give_the_fraction_results(case, data):
    # the eliminator takes int entries as they are: on int rows, dense or
    # sparse, every entry point gives what it gives on Fraction copies of
    # them, and every entry it returns is a Fraction
    A, cols = case
    v = data.draw(st.lists(INTS, min_size=cols, max_size=cols))
    b = data.draw(st.lists(INTS, min_size=len(A), max_size=len(A)))
    if A and data.draw(st.booleans()):
        b = [sum(row) for row in A]    # consistent: A times all ones
    fractions = [[Fraction(x) for x in row] for row in A]
    expected = _results(fractions, [Fraction(x) for x in v],
                        [Fraction(x) for x in b], cols)
    assert all(type(x) is Fraction for x in _entries(expected))
    for rows in (A, _sparse(A), _sparse(fractions)):
        got = _results(rows, v, b, cols)
        assert got == {k: x for k, x in expected.items() if k in got}
        assert all(type(x) is Fraction for x in _entries(got))


@st.composite
def _factors(draw):
    """A (r x k) and B (k x c) with int and Fraction entries, zero rows,
    and zeros scattered in both."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    cell = st.one_of(st.just(0), st.just(Fraction(0)), ENTRIES)

    def matrix(rows, cols):
        return [[0] * cols if draw(st.floats(0, 1)) < 0.15
                else [draw(cell) for _ in range(cols)] for _ in range(rows)]
    return matrix(r, k), matrix(k, c), c


@settings(max_examples=200)
@given(_factors())
def test_mat_mul_matches_the_triple_sum(case):
    A, B, c = case
    naive = [[sum((Fraction(a) * B[t][j] for t, a in enumerate(row)),
                  Fraction(0)) for j in range(c)] for row in A]
    product = mat_mul(A, B)
    if B:
        assert product == naive
    else:   # k = 0: mat_mul reads the width off B, so none is left
        assert product == [[] for _ in A]
    assert all(type(x) is Fraction for row in product for x in row)


def test_empty_system_has_the_whole_space():
    identity3 = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert nullspace([], 3) == identity3
    assert nullspace([[0, 0, 0]]) == identity3
    assert nullspace([{}, {}], 3) == identity3
    assert solve([], [], 2) == [0, 0]
    assert solve([[0, 0]], [0]) == [0, 0]
    assert rank([]) == 0
    assert rref([]) == ([], [])
    assert echelon([]) == ([], [])
    assert inverse([]) == []
    assert row_space_contains([], [0, 0])
    assert not row_space_contains([], [0, 1])
    with pytest.raises(ValueError):
        nullspace([])


def test_inconsistent_solve_and_singular_inverse():
    assert solve([[0, 0]], [1]) is None
    assert solve([], [], 0) == []
    assert solve([[1, 2], [2, 4]], [1, 3]) is None
    assert solve([{0: 1, 1: 2}, {0: 2, 1: 4}], [1, 3], 2) is None
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(mat([[0, 0], [0, 0]]))


def test_sparse_rows_tall_system():
    # 300 rows over 40 columns, two entries a row: each column i is tied
    # to i + 1, so the kernel is one vector
    rows = [{i % 40: Fraction(1), (i + 1) % 40: Fraction(-1)}
            for i in range(300)]
    assert rank(rows) == 39
    assert nullspace(rows, 40) == [[Fraction(1)] * 40]
