"""Exact rational rows, linear systems, and row reduction.

Scalars are ``fractions.Fraction`` throughout; nothing in this package ever
touches floating point.  A row is a sparse map from variable ids to
coefficients together with a constant, and reads either as
``sum(c*x) + const >= 0`` or ``sum(c*x) + const == 0``.  Variable ids are
arbitrary sortable values (we use tuples like ``("p", i, j, m)``).

One Gaussian elimination, :func:`row_reduce_equalities`, decides every
equality system; :func:`rref` is its canonical form.  The integer-row
helpers (:func:`primitive`, :func:`int_row` and :func:`dense_row`) turn
rational rows and points into the coprime int tuples that the double
description kernel (:mod:`.dd`), the projection and row canonicalization
share; a rational point ``values`` is ``int_row(values + [ONE])``, whose
last entry is its least common denominator (see :mod:`.dd`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping

Var = Hashable

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
    """A LinRow over ``variables``, constant last, as coprime ints."""
    return int_row([row.coeffs.get(v, ZERO) for v in variables] + [row.const])


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

    def substituted(self, subs: Mapping) -> "LinRow":
        """Replace each substituted variable by its affine expression."""
        coeffs: dict = {}
        const = self.const
        for v, c in self.coeffs.items():
            expr = subs.get(v)
            if expr is None:
                coeffs[v] = coeffs.get(v, ZERO) + c
            else:
                ecoeffs, econst = expr
                const += c * econst
                for w, e in ecoeffs.items():
                    coeffs[w] = coeffs.get(w, ZERO) + c * e
        return LinRow(coeffs, const, self.kind)

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


def row_reduce_equalities(system: LinearSystem):
    """Eliminate the EQ rows of a system by Gaussian substitution.

    Returns ``(substitutions, reduced)`` where ``substitutions`` maps each
    eliminated variable to an affine expression ``(coeffs, const)`` over the
    remaining variables, and ``reduced`` contains only GEQ rows (with the
    substitutions applied).  Each row pivots on its greatest variable in
    registry order, so the earliest variables stay free; the registry order
    is the whole pivot rule.

    Raises InconsistentSystem on a contradictory equality.
    """
    order = {v: k for k, v in enumerate(system.variables)}
    subs: dict = {}
    for row in system.eq_rows():
        row = row.substituted(subs)
        if not row.coeffs:
            if row.const != 0:
                raise InconsistentSystem(f"contradictory equality: {row.const} = 0")
            continue
        pivot = max(row.coeffs, key=order.__getitem__)
        c = row.coeffs[pivot]
        expr_coeffs = {v: -a / c for v, a in row.coeffs.items() if v != pivot}
        expr_const = -row.const / c
        # Back-substitute into previously recorded expressions so every
        # substitution stays in terms of free variables only.
        for var, (ecoeffs, econst) in subs.items():
            if pivot in ecoeffs:
                factor = ecoeffs.pop(pivot)
                econst += factor * expr_const
                for w, e in expr_coeffs.items():
                    ecoeffs[w] = ecoeffs.get(w, ZERO) + factor * e
                subs[var] = ({w: e for w, e in ecoeffs.items() if e != 0}, econst)
        subs[pivot] = (expr_coeffs, expr_const)
    free = [v for v in system.variables if v not in subs]
    reduced_rows = [r.substituted(subs) for r in system.geq_rows()]
    return subs, LinearSystem(free, reduced_rows)


def rref(rows: list, variables: list) -> list:
    """Reduced row echelon form of EQ rows over a fixed variable order.

    The substitutions of :func:`row_reduce_equalities`, which pivots on the
    greatest variable of each row so the earliest variables remain free,
    written back as rows; this is the canonical form used for affine hulls.
    Returns canonicalized EQ LinRows sorted by pivot.
    """
    subs, _ = row_reduce_equalities(LinearSystem(variables, rows))
    order = {v: k for k, v in enumerate(variables)}
    return [canonicalize_row(LinRow({**coeffs, pv: -ONE}, const, EQ))
            for pv, (coeffs, const) in sorted(subs.items(),
                                              key=lambda kv: order[kv[0]])]


def reduce_modulo(row: LinRow, equalities: list, variables: list) -> LinRow:
    """Reduce a row modulo equality rows, then canonicalize.

    Two rows that differ by a combination of the equalities reduce to the
    same canonical form, which is how row identity "modulo the affine hull"
    is decided everywhere in this package.  The equalities may come in any
    form; the substitutions are those of :func:`row_reduce_equalities`.
    """
    subs, _ = row_reduce_equalities(LinearSystem(variables, equalities))
    return canonicalize_row(row.substituted(subs))
