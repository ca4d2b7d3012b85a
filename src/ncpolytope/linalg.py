"""Exact rational rows, dense integer rows, and row reduction.

Scalars are Fractions or ints; nothing in this package ever touches
floating point.  A LinRow, the row of the documents and the API, maps
variable ids to coefficients and has a constant, and reads either as
``sum(c*x) + const >= 0`` or ``sum(c*x) + const == 0``.  Variable ids are
arbitrary sortable values (we use tuples like ``("p", i, j, m)``).

Every kernel runs on dense int rows instead, coprime int tuples with the
constant last; the measurement H-system is built as such rows, and the
integer-row helpers (:func:`primitive`, :func:`int_row` and
:func:`dense_row`) turn the other rational rows and points into them for
the double description kernel (:mod:`.dd`), the projection and row
canonicalization; a rational point ``values`` is
``int_row(values + [ONE])``, whose last entry is its least common
denominator (see :mod:`.dd`).  One fraction-free elimination on such rows
(Bareiss, 1968), :func:`row_reduce_equalities`, decides every equality
system, and :mod:`.dd` starts from its pivot step, :func:`add_pivot`;
:func:`rref` and :func:`reduce_modulo` are its LinRow forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

GEQ = "geq"
EQ = "eq"

ZERO = Fraction(0)
ONE = Fraction(1)


# Cap on the entries, rows times columns, of a dense matrix, checked before
# it is allocated: the F2 system, the H-system of the measurement vertices,
# a simplex tableau and the elements of a group closure, each a tuple over
# the table coordinates.  The six-preparation F2 system has 1944 and its
# group 576 * 24; a document asking for 100000 preparations would need
# about 6 * 10**10.
DENSE_CAP = 10 ** 7


class InconsistentSystem(Exception):
    """Raised when equality rows are mutually contradictory (e.g. 0 = 1)."""


class InternalError(Exception):
    """A mathematical invariant of an exact computation failed (a bug)."""


class InputError(Exception):
    """An input document or the request it makes is invalid (exit code 1)."""


class LimitExceeded(Exception):
    """A computation grew past one of its size caps (exit code 2)."""


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"a/b"``, or Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; use 'a/b' strings")
    return Fraction(value)


def primitive(ints) -> tuple:
    """The ints divided by their gcd; signs are kept."""
    g = gcd(*ints)
    return tuple([a // g for a in ints]) if g > 1 else tuple(ints)


def int_row(values) -> tuple:
    """The coprime ints proportional to the Fractions ``values``; signs kept.

    With ``ONE`` appended, the last entry is the least common denominator
    ``t`` of ``values``, and entry k over ``t`` is ``values[k]``.
    """
    den = lcm(*[v.denominator for v in values])
    return primitive([v.numerator * (den // v.denominator) for v in values])


def dense_row(row, variables) -> tuple:
    """A LinRow over ``variables``, constant last, as coprime ints; a term
    on a variable outside ``variables`` is a ValueError."""
    dense = [row.coeffs.get(v, ZERO) for v in variables]
    if sum(map(bool, dense)) < len(row.coeffs):
        v = next(v for v in row.coeffs if v not in variables)
        raise ValueError(f"row has a term on {v}, not among the variables")
    return int_row(dense + [row.const])


@dataclass
class LinRow:
    """One inequality or equality: ``coeffs . x + const  (>=|==)  0``."""

    coeffs: dict
    const: Fraction = ZERO
    kind: str = GEQ

    def __post_init__(self):
        self.coeffs = {v: rat(c) for v, c in self.coeffs.items() if c != 0}
        self.const = rat(self.const)
        if self.kind not in (GEQ, EQ):
            raise ValueError(f"unknown row kind {self.kind!r}")

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        op = ">=" if self.kind == GEQ else "=="
        return f"LinRow({terms or '0'} + {self.const} {op} 0)"


def canonicalize_row(row: LinRow) -> LinRow:
    """Scale a row to the canonical representative of its positive-multiple ray.

    Coefficients and constant become integers with collective gcd 1.  GEQ rows
    keep their direction; EQ rows additionally get a positive leading
    coefficient (first nonzero in sorted variable order), or else a positive
    constant.
    """
    ints = int_row([*row.coeffs.values(), row.const])
    if row.kind == EQ:
        lead = row.coeffs[min(row.coeffs)] if row.coeffs else row.const
        if lead < 0:
            ints = [-a for a in ints]
    return LinRow(dict(zip(row.coeffs, ints)), ints[-1], row.kind)


def reduce_row(row, pivots) -> tuple:
    """A positive multiple of a dense int row with the pivot columns of
    :func:`row_reduce_equalities` cleared, so an inequality keeps its
    direction: each step is ``primitive(p[col] * row - row[col] * p)``."""
    for col, p in pivots.items():
        if row[col]:
            row = primitive([p[col] * a - row[col] * b for a, b in zip(row, p)])
    return row


def add_pivot(pivots, col, row) -> None:
    """Add ``row``, reduced by ``pivots`` and nonzero in column ``col``, as
    the pivot row of ``col``: made coprime and positive there, and
    back-substituted so that no other pivot row has a term in ``col``."""
    row = primitive(row if row[col] > 0 else [-a for a in row])
    for k, p in pivots.items():
        if p[col]:
            pivots[k] = primitive([row[col] * a - p[col] * b
                                   for a, b in zip(p, row)])
    pivots[col] = row


def row_reduce_equalities(eqs) -> dict:
    """Eliminate equalities, dense int rows as :func:`dense_row` gives
    them, by fraction-free Gaussian elimination.

    Returns ``{pivot column: row}``: coprime rows, positive in their own
    pivot column and zero in every other one, so each solves for its pivot
    over the free columns.  Each row, reduced by the pivots found so far,
    pivots on its last nonzero column, so the earliest columns stay free;
    the column order is the whole pivot rule.

    Raises InconsistentSystem on a contradictory equality.
    """
    pivots: dict = {}
    for row in eqs:
        row = reduce_row(row, pivots)
        col = next((k for k in range(len(row) - 2, -1, -1) if row[k]), None)
        if col is None:
            if row[-1]:
                raise InconsistentSystem(
                    f"contradictory equality: {row[-1]} = 0")
            continue
        add_pivot(pivots, col, row)
    return pivots


def rref(rows: list, variables: list) -> list:
    """Reduced row echelon form of EQ rows over a fixed variable order.

    The pivot rows of :func:`row_reduce_equalities`, which pivots on the
    latest variable of each row so the earliest variables remain free, as
    canonicalized EQ LinRows sorted by pivot: the canonical affine hull.
    """
    pivots = row_reduce_equalities([dense_row(r, variables) for r in rows])
    return [canonicalize_row(LinRow(dict(zip(variables, p)), p[-1], EQ))
            for _, p in sorted(pivots.items())]


def reduce_modulo(row: LinRow, equalities: list, variables: list) -> LinRow:
    """Reduce a row modulo equality rows, then canonicalize.

    Two rows that differ by a combination of the equalities reduce to the
    same canonical form, which is how row identity "modulo the affine hull"
    is decided everywhere in this package.  The equalities may come in any
    form; :func:`reduce_row` clears the row on their pivot rows.
    """
    pivots = row_reduce_equalities([dense_row(r, variables)
                                    for r in equalities])
    reduced = reduce_row(dense_row(row, variables), pivots)
    return canonicalize_row(LinRow(dict(zip(variables, reduced)),
                                   reduced[-1], row.kind))
