from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import linalg

from oracles import (
    bareiss_row_reduce,
    eager_echelon,
    in_span,
    rref_nullspace,
    rref_row_reduce,
    rref_solve,
)


def frac_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=7),
        min_size=1,
        max_size=7,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=200, deadline=None)
def test_rank_int_matches_fraction_elimination(rows):
    assert linalg.rank_int(rows) == frac_rank(rows)


def test_solve_unique():
    assert linalg.solve([[2, 1], [1, 1]], [3, 2]) == ([1, 1], 1)
    num, den = linalg.solve([[2, 0], [0, 3]], [1, 1])
    assert scale_back(num, den) == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_inconsistent():
    assert linalg.solve([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_underdetermined_verifies():
    rows = [[1, 2, 3]]
    sol = linalg.solve(rows, [6])
    assert sol is not None
    num, den = sol
    assert sum(a * b for a, b in zip(rows[0], num)) == 6 * den


def test_nullspace_dimension_and_membership():
    rows = [[1, 1, 1], [1, 1, 1]]
    basis, den = linalg.nullspace(rows, 3)
    assert len(basis) == 2 and den > 0
    for v in basis:
        assert sum(v) == 0


def test_in_span():
    for span_test in (in_span, linalg.in_span):
        assert span_test([[1, 0], [1, 1]], [3, 2])
        assert not span_test([[1, 0]], [0, 1])
        assert span_test([], [0, 0])
        assert not span_test([], [1, 0])


def test_row_reduce_gives_basis():
    rows = [[2, 4], [1, 2], [0, 1]]
    red = bareiss_row_reduce(rows)
    assert len(red) == 2
    assert red[0][0] == 1


RATIONALS = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def rational_systems(draw):
    """A rational matrix of up to 7x7 with zero rows and rows that are
    combinations of earlier rows mixed in, and a right-hand side that is
    either A x for a rational x or arbitrary (often inconsistent)."""
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols)))
    if draw(st.booleans()):
        x = draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    else:
        rhs = draw(st.lists(RATIONALS, min_size=nrows, max_size=nrows))
    return rows, rhs


def all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@given(rational_systems())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_gauss_jordan_reference(system):
    # rational rows go in cleared to integers, one least common denominator
    # per row, which changes neither the solutions nor the kernel
    rows, rhs = system
    ncols = len(rows[0])
    augmented = [linalg.clear_denominators(list(r) + [b])[0] for r, b in zip(rows, rhs)]
    sol = linalg.solve([r[:-1] for r in augmented], [r[-1] for r in augmented])
    expected = rref_solve(rows, rhs)
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert scale_back(*sol) == expected
    ints = [linalg.clear_denominators(r)[0] for r in rows]
    vectors, den = linalg.nullspace(ints, ncols)
    assert [scale_back(v, den) for v in vectors] == rref_nullspace(rows, ncols)
    basis = bareiss_row_reduce(rows)
    assert basis == rref_row_reduce(rows)
    assert all_fractions(basis)
    assert linalg.rank_int(ints) == len(basis)
    columns = [list(col) for col in zip(*augmented)]
    assert linalg.in_span(columns[:-1], columns[-1]) == (sol is not None)


@st.composite
def integer_systems(draw):
    """An integer matrix of up to 6 rows (possibly none) and 1 to 6 columns,
    with zero rows and integer combinations of earlier rows mixed in, and a
    right-hand side that is either A x for an integer x or arbitrary (often
    inconsistent)."""
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-5, max_value=5)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    else:
        rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return rows, rhs, ncols


def scale_back(num, den):
    assert den > 0 and all(type(x) is int for x in num)
    return [Fraction(x, den) for x in num]


@given(integer_systems())
@settings(max_examples=300, deadline=None)
def test_solve_and_nullspace_scale_back_to_gauss_jordan(system):
    rows, rhs, ncols = system
    sol = linalg.solve(rows, rhs)
    expected = rref_solve(rows, rhs)
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert scale_back(*sol) == expected
    if rows:
        rank, sol = linalg.rank_and_solve([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
        assert rank == linalg.rank_int(rows)
        assert (sol is None) == (expected is None)
        if sol is not None:
            assert scale_back(*sol) == expected
    vectors, den = linalg.nullspace(rows, ncols)
    # with no rows, the kernel is the whole space
    assert [scale_back(v, den) for v in vectors] == rref_nullspace(rows, ncols)
    if not rows:
        assert vectors == [[int(i == j) for j in range(ncols)] for i in range(ncols)]


@st.composite
def sparse_matrices(draw):
    """An integer matrix of up to 8 rows and 1 to 8 columns, mostly zeros,
    with zero rows mixed in, and a pivot width ncols of 0 up to the width."""
    nrows = draw(st.integers(min_value=0, max_value=8))
    width = draw(st.integers(min_value=1, max_value=8))
    entries = st.one_of(st.just(0), st.just(0), st.integers(min_value=-5, max_value=5))
    rows = []
    for _ in range(nrows):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            rows.append([0] * width)
        else:
            rows.append(draw(st.lists(entries, min_size=width, max_size=width)))
    return rows, draw(st.integers(min_value=0, max_value=width))


@given(sparse_matrices())
@settings(max_examples=500, deadline=None)
def test_echelon_leaves_the_eager_bareiss_matrix(system):
    # the deferred row scaling must leave, entry for entry, what eager
    # Bareiss elimination leaves; rank_and_solve and nullspace on the eager
    # kernel must give the same results
    rows, ncols = system
    m, eager = [list(r) for r in rows], [list(r) for r in rows]
    assert linalg._echelon(m, ncols) == eager_echelon(eager, ncols)
    assert m == eager
    if not rows:
        return
    width = len(rows[0])
    with mock.patch.object(linalg, "_echelon", eager_echelon):
        expected_solve = linalg.rank_and_solve([list(r) for r in rows], width - 1)
        expected_kernel = linalg.nullspace(rows, width)
    assert linalg.rank_and_solve([list(r) for r in rows], width - 1) == expected_solve
    assert linalg.nullspace(rows, width) == expected_kernel


def test_clear_denominators():
    assert linalg.clear_denominators([3, -2, 0]) == ([3, -2, 0], 1)
    assert linalg.clear_denominators([Fraction(-1, 2), Fraction(2, 3), 5]) == ([-3, 4, 30], 6)
    assert linalg.clear_denominators([Fraction(-3, 4), Fraction(-1, 6)]) == ([-9, -2], 12)
    ints, den = linalg.clear_denominators([Fraction(0), 0, Fraction(0, 5)])
    assert (ints, den) == ([0, 0, 0], 1)
    assert all(type(x) is int for x in ints)
