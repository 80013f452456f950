"""Exact row reduction checked against sympy.Matrix as an independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inverse, rank
from liptriv.polycore import rref

# Small entries with many zeros, so rank-deficient matrices are common.
ENTRIES = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
)


@st.composite
def matrices(draw, square=False):
    """Rational matrices of at most 4 rows and 4 columns."""
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(rows) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(m: sympy.Matrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_rref_matches_sympy(rows):
    reduced, pivots = rref(rows)
    theirs, their_pivots = to_sympy(rows).rref()
    assert pivots == list(their_pivots)
    # sympy keeps the zero rows at the bottom; rref drops them.
    assert reduced == from_sympy(theirs)[: len(their_pivots)]


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_rank_matches_sympy(rows):
    assert rank(rows) == to_sympy(rows).rank()


@settings(deadline=None, max_examples=300)
@given(matrices(square=True))
def test_inverse_matches_sympy(rows):
    theirs = to_sympy(rows)
    if theirs.det() == 0:
        with pytest.raises(ValueError):
            inverse(rows)
        return
    assert [list(r) for r in inverse(rows)] == from_sympy(theirs.inv())
