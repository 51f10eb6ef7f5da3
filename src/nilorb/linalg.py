"""Exact linear algebra over the rationals.

Matrices are lists of row lists.  Entries are Python ints or Fractions;
nothing here ever touches floating point.  Integer-only routines use
fraction-free (Bareiss) elimination to keep intermediate growth polynomial.
"""

from __future__ import annotations

from fractions import Fraction

Row = list
Matrix = list


def rank_int(rows: Matrix) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            row_i, row_p = m[i], m[rank]
            for j in range(col, ncols):
                m[i][j] = (p * row_i[j] - f * row_p[j]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _rref(m: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduce the Fraction rows m in place to reduced row-echelon form,
    pivoting on the first ncols columns only; returns (m, pivot columns).
    Rows past the last pivot are zero in those columns."""
    nrows = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols


def solve(rows: Matrix, rhs: Row) -> Row | None:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    m, piv_cols = _rref(m, ncols)
    if any(row[ncols] != 0 for row in m[len(piv_cols) :]):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = m[i][ncols]
    return sol


def nullspace(rows: Matrix) -> list[Row]:
    """Basis of the right kernel of A, as rational vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, piv_cols = _rref([[Fraction(x) for x in r] for r in rows], ncols)
    free_cols = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def row_reduce(vectors: list[Row]) -> list[Row]:
    """Reduced row-echelon basis of the row span (zero rows dropped)."""
    m = [[Fraction(x) for x in r] for r in vectors if any(r)]
    if not m:
        return []
    m, piv_cols = _rref(m, len(m[0]))
    return m[: len(piv_cols)]


def in_span(vectors: list[Row], target: Row) -> bool:
    """Whether target lies in the rational span of the given vectors."""
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    cols = [[v[i] for v in vectors] for i in range(len(target))]
    return solve(cols, list(target)) is not None
