"""Exact linear algebra over the rationals, in integers.

Matrices are lists of row lists of Python ints; nothing here ever touches
floating point.  A caller with Fraction entries scales each row to integers
with `clear_denominators` first.  One fraction-free (Bareiss) elimination
keeps intermediate growth polynomial, and the back-substitution over the
pivot rows yields integer numerators over one common denominator, which
`rank_and_solve`, `solve` and `nullspace` return as they are: a caller
divides, if it needs Fractions at all.
"""

from __future__ import annotations

from math import lcm

Row = list
Matrix = list


def clear_denominators(v) -> tuple[list[int], int]:
    """(ints, den) with ints = den * v and den the least common denominator
    of the int or Fraction entries of v (1 when all are integers)."""
    den = 1
    for x in v:
        if den % x.denominator:
            den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in v], den


def _echelon(m: Matrix, ncols: int) -> list[int]:
    """Bring the integer rows m in place to echelon form by fraction-free
    (Bareiss) elimination, pivoting on the first ncols columns only; later
    columns go through the same row operations.  Returns the pivot columns;
    rows past the last pivot are zero in the first ncols columns.

    Step k with pivot p_k rewrites every row i below it as (p_k * row_i -
    f * row_p) / p_{k-1}, f the entry of row i in the pivot column.  For
    f = 0 that is only row_i * p_k / p_{k-1}, so such a row is skipped and
    remembers the steps it has gone through (seen[i]); before it serves as
    a pivot or meets a nonzero f it catches up with one scaling by
    pivots[k] / pivots[seen[i]], exact because the result is the integer
    Bareiss minor that eager elimination holds there.  At the end the rows
    past the last pivot catch up too, so m holds exactly the eager result.
    """
    nrows = len(m)
    piv_cols: list[int] = []
    pivots = [1]  # pivots[k]: the divisor of step k, the pivot of step k - 1
    seen = [0] * nrows
    for col in range(ncols):
        rank = len(piv_cols)
        piv = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        seen[rank], seen[piv] = seen[piv], seen[rank]
        row_p = m[rank]
        width = len(row_p)
        prev = pivots[rank]
        if seen[rank] < rank:
            old = pivots[seen[rank]]
            for j in range(col, width):
                row_p[j] = row_p[j] * prev // old
        p = row_p[col]
        for i in range(rank + 1, nrows):
            row_i = m[i]
            f = row_i[col]
            if f == 0:
                continue
            if seen[i] < rank:
                old = pivots[seen[i]]
                for j in range(col, width):
                    row_i[j] = row_i[j] * prev // old
                f = row_i[col]
            for j in range(col, width):
                row_i[j] = (p * row_i[j] - f * row_p[j]) // prev
            seen[i] = rank + 1
        pivots.append(p)
        piv_cols.append(col)
        if rank + 1 == nrows:
            break
    rank = len(piv_cols)
    last = pivots[rank]
    for i in range(rank, nrows):
        if seen[i] < rank:
            row_i, old = m[i], pivots[seen[i]]
            for j in range(ncols, len(row_i)):
                row_i[j] = row_i[j] * last // old
    return piv_cols


def _back_substitute(m: Matrix, piv_cols: list[int], col: int) -> tuple[list[int], int]:
    """(num, d) with x = num / d the solution of sum_k m[i][piv_cols[k]] x[k]
    = m[i][col] on the pivot rows of an echelon form from _echelon, and
    d > 0.  d is |det| of the pivot minor, the last pivot up to sign, so
    every d * x[k] is an integer (Cramer's rule), and d does not depend on
    col."""
    r = len(piv_cols)
    d = m[r - 1][piv_cols[-1]] if r else 1
    num = [0] * r
    for i in range(r - 1, -1, -1):
        row = m[i]
        acc = d * row[col]
        for k in range(i + 1, r):
            acc -= row[piv_cols[k]] * num[k]
        num[i] = acc // row[piv_cols[i]]
    if d < 0:
        return [-x for x in num], -d
    return num, d


def rank_int(rows: Matrix) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    return len(_echelon([list(r) for r in rows], len(rows[0]) if rows else 0))


def in_span(vectors: Matrix, target: Row) -> bool:
    """Whether the integer vector target is a rational combination of the
    integer vectors: one elimination of sum_t x_t vectors[t] = target."""
    n = len(vectors)
    m = [[v[k] for v in vectors] + [x] for k, x in enumerate(target)]
    rank = len(_echelon(m, n))
    return not any(row[n] for row in m[rank:])


def rank_and_solve(m: Matrix, ncols: int) -> tuple[int, tuple[list[int], int] | None]:
    """Rank and one solution of an integer system, from one elimination.

    m holds the integer rows [A | b] of A x = b, A with ncols columns; it is
    brought to echelon form in place.  Returns (rank of A, (num, den)), where
    x = num / den is one exact solution with free variables zero and den > 0,
    or (rank of A, None) if the system is inconsistent.
    """
    piv_cols = _echelon(m, ncols)
    rank = len(piv_cols)
    if any(row[ncols] for row in m[rank:]):
        return rank, None
    piv_num, den = _back_substitute(m, piv_cols, ncols)
    num = [0] * ncols
    for c, x in zip(piv_cols, piv_num):
        num[c] = x
    return rank, (num, den)


def solve(rows: Matrix, rhs: Row) -> tuple[list[int], int] | None:
    """(num, den) with x = num / den one exact solution of the integer
    system A x = b, free variables zero and den > 0, or None if the system
    is inconsistent."""
    if not rows:
        return ([], 1) if not any(rhs) else None
    return rank_and_solve([list(r) + [b] for r, b in zip(rows, rhs)], len(rows[0]))[1]


def nullspace(rows: Matrix, ncols: int) -> tuple[list[Row], int]:
    """(vectors, den) with the v / den, v in vectors, a basis of the right
    kernel of the integer matrix A with ncols columns: one vector per free
    column, 1 there and 0 at the other free columns, and den > 0."""
    m = [list(r) for r in rows]
    piv_cols = _echelon(m, ncols)
    vectors = []
    den = 1
    for fc in range(ncols):
        if fc in piv_cols:
            continue
        num, den = _back_substitute(m, piv_cols, fc)
        v = [0] * ncols
        v[fc] = den
        for c, x in zip(piv_cols, num):
            v[c] = -x
        vectors.append(v)
    return vectors, den
