"""Exact linear algebra over Q.

Matrices are lists of Fraction rows; `mat_mul` skips the zero entries of
both factors.  Elimination has one exact core that works on row-sparse
systems, each row a {column: entry} dict of its nonzero entries: columns
are taken in order and the sparsest row with an entry in the column is the
pivot, so the very sparse kernel systems of the Cech box search stay
sparse.  Entries may be ints or Fractions, and ints are not wrapped: the
pivot inverse is the Fraction 1/p, so every row that is reduced becomes
Fractions, and every entry the entry points return is a Fraction.
`echelon`, `rref`, `rank`, `nullspace`, `solve` and `inverse` are entry
points on that core; all but `rref` and `inverse` also take sparse rows.
`echelon` returns the reduced rows in sparse form, and `remainder` reduces
a vector, dense or sparse, against them: the quotient coordinates of D_d
and `row_space_contains` use the pair.  The reduced row echelon form does
not depend on the pivots chosen, so `nullspace` returns the canonical
kernel basis read off it: one vector per free column, with support on that
column and on the pivot columns before it.  A system with no rows has the
whole space as kernel and the zero solution; the column count is then
passed explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

Matrix = List[List[Fraction]]
Vector = List[Fraction]
Row = Dict[int, Fraction]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]

def transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    cb = len(B[0]) if B else 0
    out = zeros(len(A), cb)
    nonzero = [[(j, b) for j, b in enumerate(brow) if b] for brow in B]
    for row, orow in zip(A, out):
        for a, bterms in zip(row, nonzero):
            if a:
                for j, b in bterms:
                    orow[j] += a * b
    return out


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A: Matrix, c: Fraction) -> Matrix:
    return [[c * x for x in row] for row in A]


def mat_pow(A: Matrix, k: int) -> Matrix:
    n = len(A)
    out = identity(n)
    base = [row[:] for row in A]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def is_zero_matrix(A: Matrix) -> bool:
    return all(x == 0 for row in A for x in row)


def trace(A: Matrix) -> Fraction:
    return sum((A[i][i] for i in range(len(A))), Fraction(0))


def _sparse_rows(A: Sequence[Union[Sequence, Row]]) -> List[Row]:
    """The nonzero entries of each row, as a fresh {column: entry} dict;
    int and Fraction entries are kept, any other is made a Fraction."""
    out = []
    for row in A:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        out.append({c: v if isinstance(v, (int, Fraction)) else Fraction(v)
                    for c, v in items if v})
    return out


def _eliminate(rows: List[Row]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form of sparse rows, which it consumes.

    Returns the nonzero reduced rows, each with a 1 at its pivot, and their
    pivot columns in increasing order.  Columns are taken in order; the
    pivot for a column is the unused row with the fewest entries that has
    one there, and it is cleared from the other unused rows.  Every unused
    row thus stays zero on the columns already taken, and back substitution
    then clears each pivot column above its pivot.
    """
    active: Dict[int, Row] = {}
    holders: Dict[int, Set[int]] = {}  # column -> unused rows with an entry
    for i, row in enumerate(rows):
        if row:
            active[i] = row
            for c in row:
                holders.setdefault(c, set()).add(i)
    reduced: List[Row] = []
    pivots: List[int] = []
    for c in sorted(holders):
        if not active:
            break
        rows_at_c = holders.pop(c)
        if not rows_at_c:
            continue
        p = min(rows_at_c, key=lambda i: (len(active[i]), i))
        prow = active.pop(p)
        inv = Fraction(1) / prow.pop(c)
        for j, v in prow.items():
            prow[j] = v * inv
            holders[j].discard(p)
        for i in rows_at_c:
            if i == p:
                continue
            row = active[i]
            f = row.pop(c)
            for j, v in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    holders[j].add(i)
                else:
                    x -= f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
            if not row:
                del active[i]
        reduced.append(prow)
        pivots.append(c)
    # reduced[k] holds no pivot column of an earlier row; clear the later
    # ones, last row first, so every row subtracted is already reduced
    at = {c: k for k, c in enumerate(pivots)}
    for k in range(len(reduced) - 1, -1, -1):
        row = reduced[k]
        for c in [c for c in row if c in at]:
            f = row[c]
            for j, v in reduced[at[c]].items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
        row[pivots[k]] = Fraction(1)
    return reduced, pivots


def _width(A: Sequence, cols: Optional[int]) -> int:
    if cols is not None:
        return cols
    if not A or isinstance(A[0], dict):
        raise ValueError("the column count of an empty or sparse system "
                         "must be given")
    return len(A[0])


def rref(A: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column indices.

    The result has the rows of A: the reduced rows, then zero rows.
    """
    cols = len(A[0]) if A else 0
    reduced, pivots = _eliminate(_sparse_rows(A))
    M = []
    for row in reduced:
        dense = [Fraction(0)] * cols
        for j, v in row.items():
            dense[j] = v
        M.append(dense)
    M.extend([Fraction(0)] * cols for _ in range(len(A) - len(reduced)))
    return M, pivots


def echelon(A: Sequence[Union[Sequence, Row]]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form of dense or sparse rows, left unchanged.

    Returns the nonzero reduced rows as sparse rows, each with a 1 at its
    pivot and no entry at another pivot column, and their pivot columns in
    increasing order.  No rows give no reduced rows.
    """
    return _eliminate(_sparse_rows(A))


def remainder(v: Union[Sequence, Row], reduced: Sequence[Row],
              pivots: Sequence[int]) -> Row:
    """v, dense or sparse, minus the combination of the reduced rows of
    `echelon` that clears every pivot column, as a sparse row.

    It is empty exactly when v lies in the span of the reduced rows.
    """
    (w,) = _sparse_rows([v])
    for row, pc in zip(reduced, pivots):
        f = w.get(pc)
        if f:
            for j, x in row.items():
                w[j] = w.get(j, 0) - f * x
    return {j: x if isinstance(x, Fraction) else Fraction(x)
            for j, x in w.items() if x}


def rank(A: Sequence[Union[Sequence, Row]]) -> int:
    return len(_eliminate(_sparse_rows(A))[1])


def nullspace(A: Sequence[Union[Sequence, Row]],
              cols: Optional[int] = None) -> List[Vector]:
    """Canonical kernel basis of A, whose rows are dense or sparse.

    One vector per free column of the reduced form, in column order: 1 at
    the free column, minus that column's reduced entries at the pivot
    columns, 0 elsewhere.  A system with no rows has the identity basis;
    `cols` is needed for it and for sparse rows.
    """
    cols = _width(A, cols)
    reduced, pivots = _eliminate(_sparse_rows(A))
    above: Dict[int, List[Tuple[int, Fraction]]] = {}
    for row, pc in zip(reduced, pivots):
        for j, v in row.items():
            if j != pc:
                above.setdefault(j, []).append((pc, v))
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for pc, x in above.get(fc, ()):
            v[pc] = -x
        basis.append(v)
    return basis


def solve(A: Sequence[Union[Sequence, Row]], b: Sequence,
          cols: Optional[int] = None) -> Optional[Vector]:
    """One solution of A x = b, or None when there is none.

    Free variables are 0.  A system with no rows has the zero solution;
    `cols` is needed for it and for sparse rows.
    """
    cols = _width(A, cols)
    if len(b) != len(A):
        raise ValueError("right-hand side does not match the rows")
    rows = _sparse_rows(A)
    for row, bv in zip(rows, b):
        if bv:
            row[cols] = Fraction(bv)
    reduced, pivots = _eliminate(rows)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for row, pc in zip(reduced, pivots):
        x[pc] = row.get(cols, Fraction(0))
    return x


def inverse(A: Matrix) -> Matrix:
    """The inverse of a square matrix; ValueError when it is singular."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    rows = _sparse_rows(A)
    for i, row in enumerate(rows):
        row[n + i] = Fraction(1)
    reduced, pivots = _eliminate(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in reduced]


def charpoly(A: Matrix) -> List[Fraction]:
    """Coefficients [1, c1, ..., cn] of t^n + c1 t^(n-1) + ... + cn
    (Faddeev-LeVerrier)."""
    n = len(A)
    coeffs = [Fraction(1)]
    B = identity(n)
    for k in range(1, n + 1):
        M = mat_mul(A, B)
        ck = -trace(M) / k
        coeffs.append(ck)
        B = [row[:] for row in M]
        for i in range(n):
            B[i][i] += ck
    return coeffs


def row_space_contains(rows: Sequence[Vector], v: Vector) -> bool:
    """Is v in the Q-span of the given rows?"""
    return not remainder(v, *echelon(rows))
