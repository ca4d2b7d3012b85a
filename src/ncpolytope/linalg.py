"""Exact rational rows, linear systems, and row reduction.

Scalars are Fractions or ints; nothing in this package ever touches
floating point.  A LinRow, the row of the documents and the API, maps
variable ids to coefficients and has a constant, and reads either as
``sum(c*x) + const >= 0`` or ``sum(c*x) + const == 0``.  Variable ids are
arbitrary sortable values (we use tuples like ``("p", i, j, m)``).

The integer-row helpers (:func:`primitive`, :func:`int_row` and
:func:`dense_row`) turn rational rows and points into the coprime int
tuples that the double description kernel (:mod:`.dd`), the projection
and row canonicalization share; a rational point ``values`` is
``int_row(values + [ONE])``, whose last entry is its least common
denominator (see :mod:`.dd`).  One fraction-free elimination on such rows
(Bareiss, 1968), :func:`row_reduce_equalities`, decides every equality
system; :func:`rref` and :func:`reduce_modulo` are its LinRow forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

GEQ = "geq"
EQ = "eq"

ZERO = Fraction(0)
ONE = Fraction(1)


class InconsistentSystem(Exception):
    """Raised when equality rows are mutually contradictory (e.g. 0 = 1)."""


class InternalError(Exception):
    """A mathematical invariant of an exact computation failed (a bug)."""


class InputError(Exception):
    """An input document or the request it makes is invalid (exit code 1)."""


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

    def key(self, variables: Iterable) -> tuple:
        """Deterministic sort key: dense coefficient vector plus constant."""
        return tuple(self.coeffs.get(v, ZERO) for v in variables) + (self.const,)

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        op = ">=" if self.kind == GEQ else "=="
        return f"LinRow({terms or '0'} + {self.const} {op} 0)"


@dataclass
class LinearSystem:
    """An ordered variable registry plus a list of rows over it."""

    variables: list
    rows: list = field(default_factory=list)

    def __post_init__(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable in registry")
        for row in self.rows:
            undeclared = set(row.coeffs) - declared
            if undeclared:
                raise ValueError(f"row references unregistered variables {undeclared}")

    def eq_rows(self) -> list:
        return [r for r in self.rows if r.kind == EQ]

    def geq_rows(self) -> list:
        return [r for r in self.rows if r.kind == GEQ]


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


def row_reduce_equalities(eqs) -> dict:
    """Eliminate equalities, coprime dense int rows as :func:`dense_row`
    gives them, by fraction-free Gaussian elimination.

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
        if row[col] < 0:
            row = tuple(-a for a in row)
        # Back-substitute so that every pivot row names free columns only.
        for k, p in pivots.items():
            if p[col]:
                pivots[k] = primitive([row[col] * a - p[col] * b
                                       for a, b in zip(p, row)])
        pivots[col] = row
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
