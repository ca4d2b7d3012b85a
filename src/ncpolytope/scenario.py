"""Prepare-and-measure scenarios, operational equivalences, and data tables.

A scenario fixes ``g`` preparations, ``l`` measurements with ``d`` outcomes
each, and two lists of operational equivalences: convex mixtures of
preparations that are statistically indistinguishable, and likewise for
measurement effects.  Indices are 1-based to match the usual P_1..P_g,
M_1..M_l notation; outcomes run 0..d-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import ZERO, InputError, rat

PREP = "prep"
MEAS = "meas"


class InvalidScenario(InputError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in self.errors))


class DimensionMismatch(InputError):
    pass


@dataclass(frozen=True)
class Equivalence:
    """Two convex mixtures that are operationally equivalent.

    A preparation equivalence weighs preparation indices ``j``; a
    measurement equivalence weighs effect indices ``(i, m)``.  Each side
    must be a convex combination (nonnegative, summing to one).
    """

    lhs: tuple  # ((index, Fraction), ...) sorted by index
    rhs: tuple

    @staticmethod
    def make(lhs: dict, rhs: dict) -> "Equivalence":
        return Equivalence(
            tuple(sorted((k, rat(w)) for k, w in lhs.items())),
            tuple(sorted((k, rat(w)) for k, w in rhs.items())))

    def difference(self) -> dict:
        """alpha - beta weights, the coefficient vector of the induced equality."""
        diff = dict(self.lhs)
        for k, w in self.rhs:
            diff[k] = diff.get(k, ZERO) - w
        return {k: w for k, w in diff.items() if w != 0}


@dataclass(frozen=True)
class Scenario:
    g: int
    l: int
    d: int
    oe_p: tuple = ()
    oe_m: tuple = ()

    def preparations(self):
        return range(1, self.g + 1)

    def measurements(self):
        return range(1, self.l + 1)

    def outcomes(self):
        return range(self.d)

    def coords(self):
        """All (i, j, m) data-table coordinates in canonical order."""
        for i in self.measurements():
            for j in self.preparations():
                for m in self.outcomes():
                    yield (i, j, m)

    def effects(self):
        for i in self.measurements():
            for m in self.outcomes():
                yield (i, m)


def scenario(g, l, d, oe_p=(), oe_m=()) -> Scenario:
    """Build and validate a scenario from plain dicts of weights."""
    return validate_scenario(Scenario(
        g, l, d,
        tuple(e if isinstance(e, Equivalence) else Equivalence.make(*e)
              for e in oe_p),
        tuple(e if isinstance(e, Equivalence) else Equivalence.make(*e)
              for e in oe_m)))


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every scenario invariant, reporting all violations at once."""
    errors = []
    if raw.g < 1 or raw.l < 1 or raw.d < 2:
        errors.append(("IndexOutOfRange",
                       f"need g >= 1, l >= 1, d >= 2; got ({raw.g}, {raw.l}, {raw.d})"))
    for label, eq in [(f"{PREP}[{s}]", e) for s, e in enumerate(raw.oe_p)] + \
                     [(f"{MEAS}[{r}]", e) for r, e in enumerate(raw.oe_m)]:
        is_prep = label.startswith(PREP)
        for side_name, side in (("lhs", eq.lhs), ("rhs", eq.rhs)):
            total = ZERO
            for key, w in side:
                total += w
                if w < 0:
                    errors.append(("NonConvexWeights",
                                   f"{label}.{side_name} has negative weight {w}"))
                if is_prep:
                    if not (1 <= key <= raw.g):
                        errors.append(("IndexOutOfRange",
                                       f"{label}.{side_name} references P_{key}"))
                else:
                    i, m = key
                    if not (1 <= i <= raw.l and 0 <= m < raw.d):
                        errors.append(("IndexOutOfRange",
                                       f"{label}.{side_name} references [{m}|M_{i}]"))
            if total != 1:
                errors.append(("NonConvexWeights",
                               f"{label}.{side_name} weights sum to {total}, not 1"))
        if eq.lhs == eq.rhs:
            errors.append(("DegenerateEquivalence", f"{label} has lhs == rhs"))
    if errors:
        raise InvalidScenario(errors)
    return raw


@dataclass(frozen=True)
class DataTable:
    """The grid of probabilities p(m | M_i, P_j), stored exactly."""

    entries: tuple  # (((i, j, m), Fraction), ...) sorted

    @staticmethod
    def make(entries: dict) -> "DataTable":
        return DataTable(tuple(sorted((c, rat(p)) for c, p in entries.items())))

    def as_dict(self) -> dict:
        return dict(self.entries)


def validate_table(scn: Scenario, table: DataTable) -> bool:
    """Whether every entry is a probability and each (M_i, P_j) row sums to 1.

    Raises DimensionMismatch when the table's shape is not the scenario's.
    Tables violating the operational equivalences are legal input; the
    feasibility check reports them infeasible.
    """
    probs = table.as_dict()
    needed = scn.l * scn.g * scn.d
    # the count first, so a wrong shape costs nothing per coordinate
    coords = list(scn.coords()) if len(probs) == needed else None
    if coords is None or set(probs) != set(coords):
        raise DimensionMismatch(
            f"table has {len(probs)} entries, scenario needs {needed}")
    # On integers: a/b lies in [0, 1] iff 0 <= a <= b (b > 0), and a row
    # sums to 1 iff its numerators over a common denominator sum to it.
    values = [probs[c] for c in coords]
    if not all(0 <= p.numerator <= p.denominator for p in values):
        return False
    for k in range(0, len(values), scn.d):   # the d outcomes of (M_i, P_j)
        row = values[k:k + scn.d]
        den = lcm(*[p.denominator for p in row])
        if sum([p.numerator * (den // p.denominator) for p in row]) != den:
            return False
    return True


def equivalence_rows(scn: Scenario):
    """The equalities the operational equivalences impose on a table.

    Yields ``(id, slot, weights)`` in scenario order, ``weights`` mapping
    table coordinates to coefficients of an equality with zero constant.
    A preparation equivalence ``(PREP, s)`` gives one per effect
    ``slot = (i, m)``: sum_j diff_s(j) p(m|M_i,P_j) = 0.  A measurement
    equivalence ``(MEAS, r)`` gives one per preparation ``slot = j``:
    sum_(i,m) diff_r(i, m) p(m|M_i,P_j) = 0.
    """
    for s, eq in enumerate(scn.oe_p):
        diff = eq.difference()
        for i, m in scn.effects():
            yield (PREP, s), (i, m), {(i, j, m): w for j, w in diff.items()}
    for r, eq in enumerate(scn.oe_m):
        diff = eq.difference()
        for j in scn.preparations():
            yield (MEAS, r), j, {(i, j, m): w for (i, m), w in diff.items()}


# Canonical flat indexing of data-table coordinates (i major, j, then m).

def flatten_coord(scn: Scenario, coord) -> int:
    i, j, m = coord
    if not (1 <= i <= scn.l and 1 <= j <= scn.g and 0 <= m < scn.d):
        raise DimensionMismatch(f"coordinate {coord} outside scenario")
    return ((i - 1) * scn.g + (j - 1)) * scn.d + m + 1


def unflatten_coord(scn: Scenario, flat: int):
    if not (1 <= flat <= scn.l * scn.g * scn.d):
        raise DimensionMismatch(f"flat index {flat} outside scenario")
    rest, m = divmod(flat - 1, scn.d)
    i, j = divmod(rest, scn.g)
    return (i + 1, j + 1, m)


def p_var(coord) -> tuple:
    """Variable id for a data-table coordinate."""
    i, j, m = coord
    return ("p", i, j, m)


def p_vars(scn: Scenario) -> list:
    return [p_var(c) for c in scn.coords()]
